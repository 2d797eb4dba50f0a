"""Structure of the package source: no module reaches into another
module's private names, no import goes unused, package imports sit at
module top level, every SolverConfig field is read somewhere, every
solver and residual entry point samples the potential once per (problem,
grid), no driver samples one (potential, grid) pair twice, a verdict's
positivity certificate is computed once, and no module uses an extended
precision dtype."""

from __future__ import annotations

import ast
import dataclasses
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import pcrit
from pcrit import solver
from pcrit import (
    CompactSetSpec,
    Field,
    Grid,
    PotentialSpec,
    RadialProblem,
    SolverConfig,
    build_grid,
    classify_sign,
    criticality_verdict,
    make_exhaustion,
    make_field,
    null_sequence,
    positivity_weight,
    principal_eigenpair,
    q_capacity,
    removability_test,
    residual_scale,
    solve_dirichlet,
    threshold_tN,
    uK_limit,
    wcp_check,
    weak_residual,
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
    ["weak_residual", "residual_scale", "solve_dirichlet", "principal_eigenpair",
     "classify_sign", "wcp_check"],
)
def test_potential_sampled_once_per_entry_point(entry, sample_counter):
    prob, grid, u, v = _setup()
    calls = {
        "weak_residual": lambda: weak_residual(u, prob, f=u),
        "residual_scale": lambda: residual_scale(u, prob, f=u),
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


def test_positivity_weight_returns_the_verdicts_certificate(monkeypatch):
    rep = criticality_verdict(SUBCRITICAL, _annuli(9), resolution=201)
    assert rep.verdict == "subcritical"
    solves = []
    original = DiscreteOperator.principal

    def counted(self, *args, **kwargs):
        solves.append(self.grid.n)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(DiscreteOperator, "principal", counted)
    cert = positivity_weight(SUBCRITICAL, _annuli(9), resolution=201, report=rep)
    assert cert is rep.certificate
    assert rep.positivity_weight == (cert.weight, cert.margin)
    assert solves == []


def test_subcritical_verdict_solves_once_per_level(monkeypatch):
    # one threshold solve per level plus the nonnegativity precheck; the
    # positivity margins come from the thresholds' minimizers
    solves = []
    original = DiscreteOperator.principal

    def counted(self, *args, **kwargs):
        solves.append(self.grid.n)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(DiscreteOperator, "principal", counted)
    rep = criticality_verdict(SUBCRITICAL, _annuli(9), resolution=201)
    assert rep.verdict == "subcritical"
    assert len(rep.run.entries) == 9
    assert len(solves) == 9 + 1


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


@pytest.mark.parametrize(
    "problem, exhaustion, frame",
    [
        # criterion 05's two p = 3 runs; on the d = 4 run's largest level
        # (slopes far below 0.1 and 0.01) an eps-continuation from those
        # values once hit the cap in both stages of the cold nonnegativity
        # eigensolve, 447 Newton iterations for one outer iteration
        (_D4, make_exhaustion(_D4, 15, base=1.0, growth=2.0, style="annuli"), "auto"),
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
    null_sequence(problem, exhaustion, resolution=601, frame=frame)
    [(result, solves)] = checks
    assert result.converged
    assert sum(solves) <= 40
