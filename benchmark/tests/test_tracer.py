"""The tracer: one wrapper per function, self time and counter hooks; plus
the frozen-value comparison and the metric lists of BENCHMARK.json.

    python3 -m pytest -q benchmark/tests
"""
from __future__ import annotations

import json
import types

import numpy as np
import pytest

import pcrit
import run
import tracer as tracing
import workloads
from pcrit import energy, solver
from pcrit.model import PotentialSpec, RadialProblem, build_grid


@pytest.fixture
def traced_pcrit():
    tr = tracing.Tracer()
    targets, namespaces = tracing.pcrit_targets(pcrit)
    tr.install(targets, namespaces)
    try:
        yield tr
    finally:
        tr.uninstall()


def test_function_bound_under_several_names_is_wrapped_and_counted_once(traced_pcrit):
    # every binding holds the same wrapper, around the original function
    assert energy.phi_p is solver.phi_p is pcrit.phi_p
    assert not hasattr(energy.phi_p.__wrapped__, "__wrapped__")
    energy.phi_p(np.array([1.0, -2.0]), 3.0)
    solver.phi_p(np.array([1.0, -2.0]), 3.0)
    assert traced_pcrit.stats["energy.phi_p"].calls == 2
    assert [name for name in traced_pcrit.stats if name.endswith(".phi_p")] == ["energy.phi_p"]


def test_uninstall_restores_every_binding():
    before = {ns.__name__: dict(vars(ns)) for ns in (pcrit, energy, solver)}
    tr = tracing.Tracer()
    tr.install(*tracing.pcrit_targets(pcrit))
    assert solver.solve_banded is not before["pcrit.solver"]["solve_banded"]
    tr.uninstall()
    for ns in (pcrit, energy, solver):
        assert dict(vars(ns)) == before[ns.__name__]


def test_self_time_is_duration_minus_child_coverage(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(tracing.time, "perf_counter", lambda: now[0])

    def advance(dt):
        now[0] += dt

    ns = types.SimpleNamespace()

    def inner(dt):
        advance(dt)

    def outer():
        advance(1.0)
        ns.inner(2.0)
        advance(0.5)
        ns.inner(3.0)

    ns.inner, ns.outer = inner, outer
    tr = tracing.Tracer()
    tr.install([("outer", outer, None), ("inner", inner, None)], [ns])
    ns.outer()
    tr.uninstall()

    assert tr.stats["outer"].s == 6.5
    assert tr.stats["outer"].self_s == 1.5  # 6.5 minus the 5.0 the children cover
    assert tr.stats["inner"].calls == 2
    assert tr.stats["inner"].s == tr.stats["inner"].self_s == 5.0
    spans = {name: [] for name in ("outer", "inner")}
    for span_id, parent, name, t0, t1 in tr.spans:
        spans[name].append((span_id, parent, t0, t1))
    (outer_id, outer_parent, _, _), = spans["outer"]
    assert outer_parent == -1
    assert [parent for _, parent, _, _ in spans["inner"]] == [outer_id, outer_id]
    assert [(t0, t1) for _, _, t0, t1 in spans["inner"]] == [(1.0, 3.0), (3.5, 6.5)]


def _problem(p):
    return RadialProblem(p, 1, (0.0, 1.0), PotentialSpec.zero())


def test_hooks_read_solve_reports(traced_pcrit):
    prob = _problem(3.0)
    grid = build_grid(prob, (0.0, 1.0), 201)
    forcing = pcrit.make_field(grid, np.full(grid.n, 5.0))
    ok = solver.solve_dirichlet(prob, grid, (0.0, 1.0), f=forcing)
    stuck = solver.solve_dirichlet(
        prob, grid, (0.0, 1.0), f=forcing, config=solver.SolverConfig(max_iter_per_stage=2)
    )
    assert ok.converged and not stuck.converged
    counters = traced_pcrit.counters
    assert counters["solver.solve_dirichlet.newton_iters"] == ok.iterations + stuck.iterations
    assert counters["solver.solve_dirichlet.unconverged"] == 1
    assert traced_pcrit.stats["kernel.solve_banded"].calls >= ok.iterations + stuck.iterations


def test_hooks_read_eigen_results(traced_pcrit):
    prob = _problem(3.0)
    grid = build_grid(prob, (0.0, 1.0), 201)
    res = solver.principal_eigenpair(prob, grid)
    assert res.iterations > 1
    assert traced_pcrit.counters["solver.principal_eigenpair.outer_iters"] == res.iterations
    assert traced_pcrit.stats["solver.principal_eigenpair"].calls == 1


def test_eigh_hook_records_order_and_computed_flops(traced_pcrit):
    a = np.diag(np.arange(1.0, 6.0))
    solver.eigh(a)
    solver.eigh(a[:3, :3])
    counters = traced_pcrit.counters
    assert counters["kernel.eigh.order_max"] == 5
    assert counters["kernel.eigh.flops_computed"] == tracing.eigh_flops(5) + tracing.eigh_flops(3)


def test_compare_flags_drift_and_missing_values():
    frozen = {"a": {"verdict": "critical", "t": [1.0, 0.5]}}
    assert workloads.compare({"a": {"verdict": "critical", "t": [1.0 + 1e-9, 0.5]}}, frozen, 1e-8) == []
    assert workloads.compare({"a": {"verdict": "critical", "t": [1.0 + 1e-7, 0.5]}}, frozen, 1e-8)
    assert workloads.compare({"a": {"verdict": "subcritical", "t": [1.0, 0.5]}}, frozen, 1e-8)
    assert workloads.compare({"a": {"verdict": "critical", "t": [1.0]}}, frozen, 1e-8)
    assert workloads.compare({}, frozen, 1e-8) == ["a: missing"]


def test_metric_lists_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
