"""Structure of the package source: no module reaches into another
module's private names, no import goes unused, package imports sit at
module top level, every SolverConfig field is read somewhere, every
solver and residual entry point samples the potential once per (problem,
grid), no driver samples one (potential, grid) pair twice, and a verdict's
positivity certificate is computed once."""

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
from pcrit.solver import EPS_FLOOR, DiscreteOperator

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
    # a ball-center p = 1.5 solve that steps in several eps stages and
    # backtracks on some steps; each accepted trial's residual is carried
    # into the next step's gate and into the final test, so no point is
    # evaluated twice
    prob = RadialProblem(1.5, 3, (0.0, np.inf), PotentialSpec.constant(0.5))
    grid = build_grid(prob, (0.0, 4.0), 201)
    events = []

    def record(name, kind):
        original = getattr(DiscreteOperator, name)

        def counted(self, u, *args):
            events.append((kind, u.tobytes(), args))
            return original(self, u, *args)

        monkeypatch.setattr(DiscreteOperator, name, counted)

    record("residual_and_scale", "r")
    record("jacobian", "s")
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
    assert kinds.startswith("rs") and "ss" not in kinds and kinds.endswith("r")
    assert kinds.count("s") == rep.iterations
    assert len({args for kind, _, args in events if kind == "s"}) > 1  # eps stages
    trials = kinds[1:].count("r")
    assert trials > rep.iterations  # some step backtracked
    points = [u for kind, u, _ in events if kind == "r"]
    assert len(points) == 1 + trials
    assert len(set(points)) == len(points)

    monkeypatch.undo()
    op = DiscreteOperator.bind(prob, grid)
    r, _ = op.residual_and_scale(rep.solution.values, op.load(None))
    assert rep.final_residual_norm == float(np.max(np.abs(r[grid.free])))


@pytest.fixture
def newton_stages(monkeypatch):
    """One Counter per Newton solve, of its Jacobian evaluations (one per
    iteration) by eps stage."""
    solves = []
    core, jacobian = solver._newton_core, DiscreteOperator.jacobian

    def counted_core(*args, **kwargs):
        solves.append(Counter())
        return core(*args, **kwargs)

    def counted_jacobian(self, u, eps):
        solves[-1][eps] += 1
        return jacobian(self, u, eps)

    monkeypatch.setattr(solver, "_newton_core", counted_core)
    monkeypatch.setattr(DiscreteOperator, "jacobian", counted_jacobian)
    return solves


def _capped_stages(solves):
    cap = SolverConfig().max_iter_per_stage
    return [(eps, n) for s in solves for eps, n in s.items() if eps != EPS_FLOOR and n >= cap]


def test_forced_p15_solve_leaves_stalled_stages(newton_stages):
    # the CLI's solve config: its eps = 1e-2 stage used to hit the cap of
    # 200 a hair above its gate, and the 1e-3 stage took 122 more
    # iterations, 361 in all
    prob = RadialProblem(1.5, 3, (0.0, np.inf), PotentialSpec.constant(1.0))
    grid = build_grid(prob, (0.25, 8.0), 4001)
    f = make_field(grid, PotentialSpec.bump(1.5, 0.3, 2.0).sample(grid.nodes))
    rep = solve_dirichlet(prob, grid, (0.5, 1.0), f=f)
    assert rep.converged
    assert _capped_stages(newton_stages) == []
    assert sum(newton_stages[0].values()) == rep.iterations <= 40


def test_near_constant_solve_leaves_stalled_stages(newton_stages):
    # boundary data 1e-9 apart at p = 3: the eps = 1e-6 stage used to spin
    # to its cap at a residual within 5x of its start, 312 iterations in all
    prob = RadialProblem(3.0, 3, (0.0, np.inf), PotentialSpec.zero())
    grid = build_grid(prob, (1.0, 2.0), 401)
    rep = solve_dirichlet(prob, grid, (1.0, 1.0 + 1e-9))
    assert rep.converged
    assert _capped_stages(newton_stages) == []
    assert sum(newton_stages[0].values()) == rep.iterations <= 40


def test_p2_solve_takes_no_eps_walk(monkeypatch, newton_stages):
    # eps is inert at p = 2, so each stage above EPS_FLOOR only repeated
    # the failed line search of the one before: 8 iterations and 282
    # residual evaluations on this solve
    evaluations = []
    residual_and_scale = DiscreteOperator.residual_and_scale

    def counted(self, u, load):
        evaluations.append(1)
        return residual_and_scale(self, u, load)

    monkeypatch.setattr(DiscreteOperator, "residual_and_scale", counted)
    prob = RadialProblem(2.0, 3, (0.0, np.inf), PotentialSpec.zero())
    grid = build_grid(prob, (1.0, 2.0), 401)
    rep = solve_dirichlet(prob, grid, (1.0, 1.0 + 1e-9))
    assert rep.converged
    [stages] = newton_stages
    assert set(stages) == {EPS_FLOOR}
    assert rep.iterations <= 2 and len(evaluations) <= 45


_D4 = RadialProblem(3.0, 4, (0.0, np.inf), PotentialSpec.zero())
_D3 = RadialProblem(3.0, 3, (0.0, np.inf), PotentialSpec.zero())
_LOG9 = ExhaustionSchedule(tuple((-(2.0**k), 2.0**k) for k in range(1, 10)), 0.0)


@pytest.mark.parametrize(
    "problem, exhaustion, frame",
    [
        # criterion 05's two p = 3 runs; on the d = 4 run's largest level
        # (slopes far below eps = 0.1 and 0.01) the cold nonnegativity
        # eigensolve used to hit the cap in both of those stages, 447
        # Newton iterations for one outer iteration
        (_D4, make_exhaustion(_D4, 15, base=1.0, growth=2.0, style="annuli"), "auto"),
        (_D3, _LOG9, "log"),
    ],
    ids=["d4-annuli", "d3-log"],
)
def test_nonnegativity_eigensolve_leaves_stalled_stages(problem, exhaustion, frame, monkeypatch, newton_stages):
    checks = []
    eigenpair = DiscreteOperator.eigenpair

    def recorded(self, config):
        before = len(newton_stages)
        result = eigenpair(self, config)
        checks.append((result, newton_stages[before:]))
        return result

    monkeypatch.setattr(DiscreteOperator, "eigenpair", recorded)
    null_sequence(problem, exhaustion, resolution=601, frame=frame)
    [(result, solves)] = checks
    assert result.converged
    assert _capped_stages(solves) == []
    assert sum(sum(s.values()) for s in solves) <= 40
