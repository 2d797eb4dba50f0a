"""Structure of the package source: no module reaches into another module's
private names, no import goes unused, package imports sit at module top
level, every SolverConfig field is read somewhere, only the solver reads
the torsion bound or decides Q >= 0, every solver entry point samples
the potential once per (problem, grid), no driver samples one
(potential, grid) pair twice, graded levels that share a focus window
march once per side, a verdict's positivity certificate is computed
once, a null sequence ending on a certified level runs no nonnegativity
eigensolve, a converged p != 2 principal pair ends on an inner solve at
the full gate, every string option refuses an unknown value, no module
uses an extended precision dtype, importing pcrit imports neither
scipy.linalg nor scipy.optimize, a missing LAPACK extension file fails
the import with its path, and the CLI parses no [command] profile
itself."""

from __future__ import annotations

import ast
import dataclasses
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy

import pcrit
from pcrit import model, solver
from pcrit import (
    CertificateRun,
    CompactSetSpec,
    Field,
    Grid,
    PotentialSpec,
    RadialProblem,
    SolverConfig,
    build_grid,
    classify_sign,
    comparison_check,
    criticality_verdict,
    make_exhaustion,
    make_field,
    minimal_growth_certificate,
    null_sequence,
    principal_eigenpair,
    q_capacity,
    removability_test,
    singularity_exponent,
    solve_dirichlet,
    threshold_tN,
    uK_limit,
    wcp_check,
)
from pcrit.model import ExhaustionSchedule
from pcrit.solver import DiscreteOperator

SOURCES = sorted(Path(pcrit.__file__).parent.glob("*.py"))


def _parsed():
    return [(path.name, ast.parse(path.read_text())) for path in SOURCES]


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_sources_found():
    assert {"solver.py", "criticality.py", "mingrowth.py"} <= {p.name for p in SOURCES}


def test_import_leaves_scipy_linalg_and_optimize_unloaded():
    # scipy.linalg is most of a cold CLI run's start-up; pcrit binds its
    # LAPACK routines from the extension module itself
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import pcrit; "
        "print(sorted(m for m in ('scipy.linalg', 'scipy.optimize') if m in sys.modules))"
    )
    src = str(Path(pcrit.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_missing_lapack_extension_names_its_path(monkeypatch, tmp_path):
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "scipy" / "__init__.py"))
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "scipy" / "linalg" / "_flapack"))):
        solver._load_flapack()


def test_no_extended_precision_dtypes():
    # long double is only 64 bits on some platforms, so no result may rest
    # on its extra digits
    offenders = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line, text in enumerate(path.read_text().splitlines(), 1)
        if "longdouble" in text or "float128" in text
    ]
    assert offenders == []


def test_no_private_imports_across_modules():
    offenders = []
    for name, tree in _parsed():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                for alias in node.names:
                    private = alias.name.startswith("_") and not alias.name.startswith("__")
                    if private:
                        offenders.append(f"{name}:{node.lineno} {node.module}.{alias.name}")
    assert offenders == []


def test_no_unused_imports():
    offenders = []
    for name, tree in _parsed():
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | _exported(tree)
        offenders += [f"{name}:{line} {imp}" for imp, line in imported.items() if imp not in used]
    assert offenders == []


def test_no_function_level_package_imports():
    offenders = []
    for name, tree in _parsed():
        top = set(map(id, tree.body))
        offenders += [
            f"{name}:{node.lineno} from .{node.module}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0 and id(node) not in top
        ]
    assert offenders == []


def test_every_solver_config_field_is_read():
    # a knob nothing reads is an option without a caller; the field
    # declarations themselves are annotated names, never attribute reads
    read = {
        node.attr
        for _, tree in _parsed()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [f.name for f in dataclasses.fields(SolverConfig) if f.name not in read]
    assert unread == []


def test_torsion_bound_is_called_only_in_the_solver():
    # the rule "the torsion bound, else the eigenvalue" has one owner,
    # DiscreteOperator.lambda_1_lower; every other module calls that
    offenders = [
        f"{path.name}:{line}"
        for path in SOURCES
        if path.name != "solver.py"
        for line, text in enumerate(path.read_text().splitlines(), 1)
        if "torsion_bound(" in text
    ]
    assert offenders == []


def test_nonnegativity_is_decided_only_in_the_solver():
    # the Q >= 0 rule and its eigensolve fallback have one owner,
    # DiscreteOperator.require_nonnegative (with lambda_1_lower); no other
    # module factors the form or runs the eigensolve itself
    offenders = [
        f"{path.name}:{line}"
        for path in SOURCES
        if path.name != "solver.py"
        for line, text in enumerate(path.read_text().splitlines(), 1)
        if ".eigenpair(" in text or "dpttrf" in text
    ]
    assert offenders == []


def test_command_profiles_are_parsed_in_config_only():
    # forcing, weight and candidate are read through RunConfig.potential,
    # which gives every profile error its [command] key
    cli = next(path for path in SOURCES if path.name == "cli.py")
    offenders = [
        f"cli.py:{line}"
        for line, text in enumerate(cli.read_text().splitlines(), 1)
        if "parse_potential" in text
    ]
    assert offenders == []


@pytest.fixture
def sample_counter(monkeypatch):
    """Records each sample as its (potential, node bytes) pair."""
    calls = []
    original = PotentialSpec.sample

    def counted(self, r):
        calls.append((self, np.asarray(r, dtype=float).tobytes()))
        return original(self, r)

    monkeypatch.setattr(PotentialSpec, "sample", counted)
    return calls


def _setup():
    prob = RadialProblem(3.0, 1, (0.0, np.inf), PotentialSpec.constant(0.5))
    grid = build_grid(prob, (0.0, 1.0), 41, law="uniform")
    bump = np.sin(np.pi * grid.nodes)
    return prob, grid, make_field(grid, bump), make_field(grid, 2.0 * bump)


@pytest.mark.parametrize(
    "entry",
    ["solve_dirichlet", "principal_eigenpair", "classify_sign", "wcp_check"],
)
def test_potential_sampled_once_per_entry_point(entry, sample_counter):
    prob, grid, u, v = _setup()
    calls = {
        "solve_dirichlet": lambda: solve_dirichlet(prob, grid, (0.0, 0.0), f=u),
        "principal_eigenpair": lambda: principal_eigenpair(prob, grid),
        "classify_sign": lambda: classify_sign(u, prob, 1e-8),
        "wcp_check": lambda: wcp_check(u, v, prob),
    }
    sample_counter.clear()
    calls[entry]()
    assert sample_counter == [(prob.potential, grid.nodes.tobytes())]


BUMP = PotentialSpec.bump(2.0, 0.5, 1.0)
RAY3 = RadialProblem(2.0, 3, (0.0, np.inf), PotentialSpec.constant(0.5))
LINE = RadialProblem(2.0, 1, (-np.inf, np.inf), PotentialSpec.zero())
HALF_LINE = RadialProblem(2.0, 1, (0.0, np.inf), PotentialSpec.zero())
WELL3 = RadialProblem(3.0, 3, (0.0, np.inf), PotentialSpec.constant(-0.05))
SUBCRITICAL = RadialProblem(2.0, 3, (0.0, np.inf), PotentialSpec.zero())


_RAMP_NODES = np.linspace(0.01, 4.0, 401)
RAMP = Field(Grid(_RAMP_NODES, 0), 1.0 + _RAMP_NODES)


# 1/r and sqrt(5)/2 (1 + r^2)^(-1/2), scaled up by 1.001: a harmonic
# function below a supersolution beyond the set (0, 2) of SUBCRITICAL;
# comparison_check reads only its certificate's verdict
_CMP_GRID = Grid(np.geomspace(0.5, 64.0, 201), 2)
CMP_SUB = Field(_CMP_GRID, 1.0 / _CMP_GRID.nodes)
CMP_SUPER = Field(_CMP_GRID, 0.5 * np.sqrt(5.0) * 1.001 * (1.0 + _CMP_GRID.nodes**2) ** -0.5)
DECAYING = CertificateRun(CompactSetSpec(0.0, 2.0), (3.0, 4.0), (), (), (), (), "decaying-to-zero")


def _annuli(count):
    return make_exhaustion(SUBCRITICAL, count, base=1.0, growth=2.0, style="annuli")


DRIVERS = {
    "threshold_tN": lambda: threshold_tN(RAY3, (1.0, 4.0), BUMP, resolution=201),
    "null_sequence": lambda: null_sequence(
        LINE,
        make_exhaustion(LINE, 5, base=1.0, growth=2.0, style="line", x0=0.0),
        weight=PotentialSpec.bump(0.0, 1.0, 1.0),
        resolution=201,
    ),
    # subcritical, so the verdict also computes its positivity margins
    "criticality_verdict": lambda: criticality_verdict(SUBCRITICAL, _annuli(9), resolution=201),
    "q_capacity": lambda: q_capacity(RAY3, CompactSetSpec(0.0, 1.0), (0.0, 4.0), resolution=301),
    # two active-set iterations: the held set shrinks from K's 100 nodes to
    # 1, and each run's operator still reads the level's one V sample
    "q_capacity_two_iterations": lambda: q_capacity(
        WELL3, CompactSetSpec(0.5, 1.0), (0.0, 4.0), resolution=401
    ),
    "uK_limit": lambda: uK_limit(
        RAY3,
        CompactSetSpec(0.0, 1.0),
        (1.0, 1.0),
        make_exhaustion(RAY3, 3, base=1.0, growth=2.0, style="balls"),
        resolution=201,
    ),
    # bounded, so the flux pairing on the extended grid runs
    "removability_test": lambda: removability_test(HALF_LINE, RAMP, 0.0),
    # both fields are classified on the grid beyond the set
    "comparison_check": lambda: comparison_check(
        SUBCRITICAL, CMP_SUB, CMP_SUPER, CompactSetSpec(0.0, 2.0), DECAYING
    ),
}


@pytest.mark.parametrize("driver", list(DRIVERS))
def test_drivers_sample_each_potential_grid_pair_once(driver, sample_counter):
    DRIVERS[driver]()
    assert sample_counter, "the driver sampled nothing"
    repeated = sorted(n for n in Counter(sample_counter).values() if n > 1)
    assert repeated == []


@pytest.mark.parametrize("compact", [(0.0, 1.0), (0.5, 1.0)])
def test_uK_limit_samples_the_potential_once(compact, sample_counter):
    # every level, and each component of it minus the set, is a slice of
    # one bound grid
    uK_limit(
        RAY3,
        CompactSetSpec(*compact),
        (1.0, 1.0),
        make_exhaustion(RAY3, 3, base=2.0, growth=2.0, style="balls"),
        resolution=201,
    )
    assert len(sample_counter) == 1


@pytest.fixture
def march_calls(monkeypatch):
    """Records the side (-1 or +1) of each march of the graded grid law."""
    calls = []
    march = model._march

    def counted(start, target, sign, h0):
        calls.append(sign)
        return march(start, target, sign, h0)

    monkeypatch.setattr(model, "_march", counted)
    return calls


def test_null_sequence_marches_once_per_side(march_calls, sample_counter):
    # levels 2 to 5 share the probe's focus window (level 1 is uniform):
    # one march per side, not two per level, while V and the probe are
    # still sampled once per level
    DRIVERS["null_sequence"]()
    assert sorted(march_calls) == [-1.0, 1.0]
    counts = Counter(spec for spec, _ in sample_counter)
    assert counts == {LINE.potential: 5, PotentialSpec.bump(0.0, 1.0, 1.0): 5}


def test_certificate_marches_once(march_calls):
    # every level and the focus start at the set's edge, so the levels
    # share one march outward and none inward
    grid = Grid(np.geomspace(0.5, 2.0**8, 401), 2)
    minimal_growth_certificate(
        SUBCRITICAL,
        Field(grid, 1.0 / grid.nodes),
        CompactSetSpec(0.0, 2.0),
        (3.0, 4.0),
        ExhaustionSchedule(tuple((0.0, float(2**k)) for k in range(3, 9)), 1.0),
        resolution=301,
    )
    assert march_calls == [1.0]


# d = p with levels off 0, where "auto" maps to log coordinates: a
# misspelled frame must be refused there too, not run as "auto"
CONFORMAL3 = RadialProblem(3.0, 3, (0.0, np.inf), PotentialSpec.zero())
_CONFORMAL_ANNULI = make_exhaustion(CONFORMAL3, 3, base=1.0, growth=2.0, style="annuli")

STRING_OPTIONS = {
    "threshold_tN-frame": lambda bad: threshold_tN(
        CONFORMAL3, (0.5, 2.0), BUMP, resolution=201, frame=bad
    ),
    "null_sequence-frame": lambda bad: null_sequence(
        CONFORMAL3, _CONFORMAL_ANNULI, resolution=201, frame=bad
    ),
    "criticality_verdict-frame": lambda bad: criticality_verdict(
        CONFORMAL3, _CONFORMAL_ANNULI, resolution=201, frame=bad
    ),
    "build_grid-law": lambda bad: build_grid(RAY3, (0.0, 1.0), 41, law=bad),
    "make_exhaustion-style": lambda bad: make_exhaustion(RAY3, 3, style=bad),
    "singularity_exponent-mode": lambda bad: singularity_exponent(
        RAMP, 0.0, (0.05, 0.5), mode=bad
    ),
}


@pytest.mark.parametrize("option", list(STRING_OPTIONS))
def test_string_options_refuse_unknown_values(option):
    with pytest.raises(ValueError, match="unknown"):
        STRING_OPTIONS[option]("radail")


def test_positivity_weight_returns_the_verdicts_certificate(monkeypatch):
    rep = criticality_verdict(SUBCRITICAL, _annuli(9), resolution=201)
    assert rep.verdict == "subcritical"
    solves = []
    original = DiscreteOperator.principal

    def counted(self, *args, **kwargs):
        solves.append(self.grid.n)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(DiscreteOperator, "principal", counted)
    cert = rep.certificate
    assert rep.positivity_weight == (cert.weight, cert.margin)
    assert solves == []


def _eigenpair_calls(monkeypatch):
    """The grid size of every eigenpair call, in order."""
    calls = []
    eigenpair = DiscreteOperator.eigenpair

    def recorded(self, config):
        calls.append(self.grid.n)
        return eigenpair(self, config)

    monkeypatch.setattr(DiscreteOperator, "eigenpair", recorded)
    return calls


def test_subcritical_verdict_solves_once_per_level(monkeypatch):
    # one threshold solve per level and no nonnegativity eigensolve: the
    # last level's certified pair shows Q >= 0, and the positivity margins
    # come from the thresholds' minimizers
    solves = []
    original = DiscreteOperator.principal

    def counted(self, *args, **kwargs):
        solves.append(self.grid.n)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(DiscreteOperator, "principal", counted)
    eigensolves = _eigenpair_calls(monkeypatch)
    rep = criticality_verdict(SUBCRITICAL, _annuli(9), resolution=201)
    assert rep.verdict == "subcritical"
    assert len(rep.run.entries) == 9
    assert len(solves) == 9
    assert eigensolves == []


def test_newton_evaluates_each_point_once(monkeypatch):
    # a ball-center p = 1.5 solve that backtracks on some steps (with
    # V = 0.5 it takes only full steps); each accepted trial's residual is
    # carried into the next step's gate and into the final test, so no
    # point is evaluated twice
    prob = RadialProblem(1.5, 3, (0.0, np.inf), PotentialSpec.constant(2.0))
    grid = build_grid(prob, (0.0, 4.0), 201)
    events = []

    def record(name, kind):
        original = getattr(DiscreteOperator, name)

        def counted(self, u, *args):
            events.append((kind, u.tobytes(), args))
            return original(self, u, *args)

        monkeypatch.setattr(DiscreteOperator, name, counted)

    record("residual_terms", "r")
    record("jacobian", "s")
    record("energy", "e")
    banded = []
    solve_banded = solver.solve_banded

    def counted_solve(*args, **kwargs):
        banded.append(args)
        return solve_banded(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_banded", counted_solve)
    rep = solve_dirichlet(prob, grid, (None, 1.0))
    assert rep.converged
    assert len(banded) == rep.iterations  # one linear solve per Newton step

    # one evaluation at the start, then only the line-search trials that
    # follow each step: no evaluation at the top of a step or at the end
    kinds = "".join(kind for kind, _, _ in events)
    assert "e" not in kinds  # J is never read below p = 2
    assert kinds.startswith("rs") and "ss" not in kinds and kinds.endswith("r")
    assert kinds.count("s") == rep.iterations
    trials = kinds[1:].count("r")
    assert trials > rep.iterations  # some step backtracked
    points = [u for kind, u, _ in events if kind == "r"]
    assert len(points) == 1 + trials
    assert len(set(points)) == len(points)

    monkeypatch.undo()
    op = DiscreteOperator.bind(prob, grid)
    r = op.residual_terms(rep.solution.values, op.load(None))[0]
    assert rep.final_residual_norm == float(np.max(np.abs(r[grid.free])))


def test_newton_reads_energy_only_after_a_failed_residual_test(monkeypatch):
    # a p = 4 ball-center solve that accepts steps on J; J is read only in
    # the p = 4 solve, not in its p = 2 start, at a trial only after its
    # residual test failed and at the iterate at most once per step, from
    # the same residual pass
    prob = RadialProblem(4.0, 3, (0.0, np.inf), PotentialSpec.bump(1.0, 0.5, 5.0))
    grid = build_grid(prob, (0.0, 4.0), 201)
    events, terms_at = [], {}
    residual_terms, energy, jacobian = (
        DiscreteOperator.residual_terms, DiscreteOperator.energy, DiscreteOperator.jacobian
    )

    def recorded_residual(self, u, load):
        out = residual_terms(self, u, load)
        r = out[0][grid.free]
        events.append(("r", u.tobytes(), 0.5 * float(np.dot(r, r))))
        terms_at[u.tobytes()] = out[2]
        return out

    def recorded_energy(self, u, terms, load):
        assert terms is terms_at[u.tobytes()]  # no second power pass
        events.append(("e", u.tobytes(), None))
        return energy(self, u, terms, load)

    def recorded_jacobian(self, u):
        events.append(("s", u.tobytes(), self.p))
        return jacobian(self, u)

    monkeypatch.setattr(DiscreteOperator, "residual_terms", recorded_residual)
    monkeypatch.setattr(DiscreteOperator, "energy", recorded_energy)
    monkeypatch.setattr(DiscreteOperator, "jacobian", recorded_jacobian)
    rep = solve_dirichlet(prob, grid, (None, 1.0))
    assert rep.converged

    merit = {u: m for kind, u, m in events if kind == "r"}
    iterate = trial = None
    reads = at_iterate = 0
    for kind, u, value in events:
        if kind == "s":
            iterate, trial, at_iterate, p = u, None, 0, value
        elif kind == "r":
            trial = u
        else:
            assert p > 2.0
            assert trial is not None and merit[trial] > (1.0 - solver.ARMIJO_C) * merit[iterate]
            assert u in (iterate, trial)
            at_iterate += u == iterate
            assert at_iterate <= 1
            reads += 1
    assert reads > 0


@pytest.fixture
def newton_calls(monkeypatch):
    """The Jacobian evaluations (one per iteration) of each Newton call."""
    calls = []
    core, jacobian = solver._newton_core, DiscreteOperator.jacobian

    def counted_core(*args, **kwargs):
        calls.append(0)
        return core(*args, **kwargs)

    def counted_jacobian(self, u):
        calls[-1] += 1
        return jacobian(self, u)

    monkeypatch.setattr(solver, "_newton_core", counted_core)
    monkeypatch.setattr(DiscreteOperator, "jacobian", counted_jacobian)
    return calls


def test_forced_p15_solve_leaves_stalled_stages(newton_calls):
    # the CLI's solve config: an eps-continuation once took 361 iterations
    # on it, with one stage at the cap of 200 a hair above its gate
    prob = RadialProblem(1.5, 3, (0.0, np.inf), PotentialSpec.constant(1.0))
    grid = build_grid(prob, (0.25, 8.0), 4001)
    f = make_field(grid, PotentialSpec.bump(1.5, 0.3, 2.0).sample(grid.nodes))
    rep = solve_dirichlet(prob, grid, (0.5, 1.0), f=f)
    assert rep.converged
    assert newton_calls == [rep.iterations]
    assert rep.iterations <= 40


def test_near_constant_solve_leaves_stalled_stages(newton_calls):
    # boundary data 1e-9 apart at p = 3: a stage of the eps-continuation
    # that Newton no longer has once spun to its cap at a residual within
    # 5x of its start, 312 iterations in all; the solve is now its p = 2
    # start and one Newton call
    prob = RadialProblem(3.0, 3, (0.0, np.inf), PotentialSpec.zero())
    grid = build_grid(prob, (1.0, 2.0), 401)
    rep = solve_dirichlet(prob, grid, (1.0, 1.0 + 1e-9))
    assert rep.converged
    assert len(newton_calls) == 2
    assert sum(newton_calls) == rep.iterations <= 40


def test_p2_solve_takes_no_eps_walk(monkeypatch, newton_calls):
    # the Jacobian is exact at p = 2: an eps-continuation there only
    # repeated its failed line search once per stage, 8 iterations and 282
    # residual evaluations on this solve
    evaluations = []
    residual_terms = DiscreteOperator.residual_terms

    def counted(self, u, load):
        evaluations.append(1)
        return residual_terms(self, u, load)

    def refused(self, *args):
        raise AssertionError("J read at p = 2")

    monkeypatch.setattr(DiscreteOperator, "residual_terms", counted)
    monkeypatch.setattr(DiscreteOperator, "energy", refused)
    prob = RadialProblem(2.0, 3, (0.0, np.inf), PotentialSpec.zero())
    grid = build_grid(prob, (1.0, 2.0), 401)
    rep = solve_dirichlet(prob, grid, (1.0, 1.0 + 1e-9))
    assert rep.converged
    assert newton_calls == [rep.iterations]
    assert rep.iterations <= 2 and len(evaluations) <= 45


_D4 = RadialProblem(3.0, 4, (0.0, np.inf), PotentialSpec.zero())
_D3 = RadialProblem(3.0, 3, (0.0, np.inf), PotentialSpec.zero())
_LOG9 = ExhaustionSchedule(tuple((-(2.0**k), 2.0**k) for k in range(1, 10)), 0.0)
_ANNULI15 = make_exhaustion(_D4, 15, base=1.0, growth=2.0, style="annuli")


@pytest.mark.parametrize(
    "problem, exhaustion, frame",
    [
        # criterion 05's two p = 3 runs; on the d = 4 run's largest level
        # (slopes far below 0.1 and 0.01) an eps-continuation from those
        # values once hit the cap in both stages of the cold nonnegativity
        # eigensolve, 447 Newton iterations for one outer iteration
        (_D4, _ANNULI15, "auto"),
        (_D3, _LOG9, "log"),
    ],
    ids=["d4-annuli", "d3-log"],
)
def test_nonnegativity_eigensolve_leaves_stalled_stages(problem, exhaustion, frame, monkeypatch, newton_calls):
    checks = []
    eigenpair = DiscreteOperator.eigenpair

    def recorded(self, config):
        before = len(newton_calls)
        result = eigenpair(self, config)
        checks.append((result, newton_calls[before:]))
        return result

    monkeypatch.setattr(DiscreteOperator, "eigenpair", recorded)
    run = null_sequence(problem, exhaustion, resolution=601, frame=frame)
    # both runs end on a certified level, which shows Q >= 0 without it
    assert checks == []
    # threshold_tN keeps the eigensolve up front, on the same largest-level grid
    threshold_tN(problem, exhaustion.levels[-1], run.weight, resolution=601, frame=frame)
    [(result, solves)] = checks
    assert result.converged
    assert sum(solves) <= 40


def test_newton_p3_verdicts_skip_the_eigensolve(monkeypatch):
    # a work count, the same on every machine: criterion 05's two p = 3
    # verdicts end on certified levels, so neither runs the nonnegativity
    # eigensolve, which cost 39 banded solves on their largest levels
    eigensolves = _eigenpair_calls(monkeypatch)
    banded = []
    solve_banded = solver.solve_banded

    def counted(*args, **kwargs):
        banded.append(1)
        return solve_banded(*args, **kwargs)

    monkeypatch.setattr(solver, "solve_banded", counted)
    assert criticality_verdict(_D4, _ANNULI15, resolution=601).verdict == "subcritical"
    assert criticality_verdict(_D3, _LOG9, resolution=601, frame="log").verdict == "critical"
    assert eigensolves == []
    # 279 with strict inner solves at every outer step and warm starts
    # extended by zero, 193 with cold iterations started from a tent
    assert len(banded) <= 180


@pytest.mark.parametrize(
    "problem, exhaustion, frame", [(_D4, _ANNULI15, "auto"), (_D3, _LOG9, "log")], ids=["d4-annuli", "d3-log"]
)
def test_converged_p3_pairs_end_on_a_strict_inner_solve(problem, exhaustion, frame, monkeypatch):
    # the early inner solves of the inverse power iteration are loose; the
    # stall test may stop it only after a solve at the full gate, so every
    # level keeps its certified Collatz-Wielandt bound
    gates, calls = [], []
    core, principal = solver._newton_core, DiscreteOperator.principal

    def recorded_core(op, load, u0, config, tol=None):
        gates.append(config.tol_for(op.p) if tol is None else tol)
        return core(op, load, u0, config, tol)

    def recorded_principal(self, weight, config, *args, **kwargs):
        before = len(gates)
        out = principal(self, weight, config, *args, **kwargs)
        calls.append((out[3], gates[before:], config.tol_for(self.p)))
        return out

    monkeypatch.setattr(solver, "_newton_core", recorded_core)
    monkeypatch.setattr(DiscreteOperator, "principal", recorded_principal)
    rep = criticality_verdict(problem, exhaustion, resolution=601, frame=frame)
    assert all(e.certified for e in rep.run.entries)
    assert len(calls) == len(rep.run.entries) == len(exhaustion.levels)
    for converged, level_gates, tol in calls:
        assert converged
        assert level_gates[-1] == tol
        assert max(level_gates) > tol  # the first solve is loose
