"""Weighted thresholds, exhaustion verdicts, null sequences, ground states,
capacity, and positivity weights."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from pcrit import (
    CompactSetSpec,
    ExhaustionSchedule,
    PotentialSpec,
    RadialProblem,
    build_grid,
    criticality_verdict,
    ground_state,
    classify_sign,
    log_reduced_level,
    log_reduced_problem,
    make_exhaustion,
    null_sequence,
    positivity_weight,
    principal_eigenpair,
    q_capacity,
    threshold_tN,
)
from pcrit import solver
from pcrit.energy import q_parts
from pcrit.errors import PreconditionError, StateError


def line_problem():
    return RadialProblem(2.0, 1, (-np.inf, np.inf), PotentialSpec.zero())


def ray_problem(d, p):
    return RadialProblem(float(p), int(d), (0.0, np.inf), PotentialSpec.zero())


BUMP = PotentialSpec.bump(0.0, 1.0, 1.0)


def bisected_threshold(problem, level, weight, resolution, x0, abs_tol=1e-8):
    """t_N on one level two ways, as (eigenvalue route, bisection route).

    A one-level null sequence gives the package's t_N and fixes the level's
    grid and working problem; bisection then locates the sign change of
    lambda_1(V - t W) on that grid, an independent and slower route.
    """
    run = null_sequence(problem, ExhaustionSchedule((level,), x0), weight, resolution)
    (entry,) = run.entries
    grid, wp = entry.minimizer.grid, run.problem

    def lam_at(t):
        shifted = PotentialSpec.combination(wp.potential, run.weight, -t)
        return principal_eigenpair(replace(wp, potential=shifted), grid).lam

    hi = 1.0
    for _ in range(60):
        if lam_at(hi) < 0.0:
            break
        hi *= 2.0
    else:
        pytest.fail("lambda_1(V - t W) stayed nonnegative up to t = 2**60")
    lo = 0.0
    while hi - lo > abs_tol:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if lam_at(mid) >= 0.0 else (lo, mid)
    return entry.t, 0.5 * (lo + hi)


class TestThreshold:
    def test_decreasing_in_level(self):
        prob = line_problem()
        ts = [
            threshold_tN(prob, (-L, L), BUMP, resolution=801)
            for L in (2.0, 4.0, 8.0)
        ]
        assert ts[0] > ts[1] > ts[2] > 0.0

    def test_bisect_agrees_with_eigen(self):
        prob = line_problem()
        te = threshold_tN(prob, (-4.0, 4.0), BUMP, resolution=801)
        t_run, tb = bisected_threshold(prob, (-4.0, 4.0), BUMP, 801, x0=0.0)
        assert t_run == te
        assert tb == pytest.approx(te, rel=1e-6)

    def test_bisect_agrees_on_annulus(self):
        prob = ray_problem(3, 2.0)
        W = PotentialSpec.bump(2.0, 0.5, 1.0)
        te = threshold_tN(prob, (1.0, 8.0), W, resolution=801)
        t_run, tb = bisected_threshold(prob, (1.0, 8.0), W, 801, x0=2.0)
        assert t_run == te
        assert tb == pytest.approx(te, rel=1e-6)

    def test_weight_scaling_halves_threshold(self):
        # scale through the bump height: grid grading follows the weight's
        # support, so swapping the spec kind would also move the mesh
        prob = line_problem()
        doubled = PotentialSpec.bump(0.0, 1.0, 2.0)
        t1 = threshold_tN(prob, (-4.0, 4.0), BUMP, resolution=401)
        t2 = threshold_tN(prob, (-4.0, 4.0), doubled, resolution=401)
        assert t2 == pytest.approx(0.5 * t1, rel=1e-9)

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(p=st.sampled_from([1.5, 3.0]), exponent=st.floats(-3.0, 3.0))
    def test_threshold_scales_inversely_with_the_weight(self, p, exponent):
        # c t_N(c W) = t_N(W): the quotient is linear in 1 / W.  Below
        # c = 0.02 the p = 1.5 inner solves fail (see the next test)
        c = 10.0**exponent
        assume(p != 1.5 or c >= 0.02)
        prob = ray_problem(3, p)
        W = PotentialSpec.bump(2.0, 1.0, 1.0)
        t = threshold_tN(prob, (0.5, 8.0), W)
        assert c * threshold_tN(prob, (0.5, 8.0), W.scaled(c)) == pytest.approx(t, rel=1e-8)

    @pytest.mark.xfail(raises=StateError, strict=True, reason="p < 2 Newton stalls (ROADMAP item 11)")
    def test_p15_threshold_with_a_small_weight(self):
        # an inner solve of the inverse power iteration runs its eps = 1e-8
        # stage to the 200-iteration cap, at about 1e3 times its gate
        prob = ray_problem(3, 1.5)
        threshold_tN(prob, (0.5, 8.0), PotentialSpec.bump(2.0, 1.0, 1e-2))

    def test_log_frame_agrees_with_radial(self):
        # frame "auto" maps radial inputs through the log reduction when
        # d == p; "radial" forbids the mapping. Same quotient, two frames.
        prob = ray_problem(2, 2.0)
        W = PotentialSpec.bump(1.0, 0.5, 1.0)
        t_log = threshold_tN(prob, (0.25, 4.0), W, resolution=801, frame="auto")
        t_rad = threshold_tN(prob, (0.25, 4.0), W, resolution=801, frame="radial")
        assert t_log == pytest.approx(t_rad, rel=1e-3)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_unit_weight_threshold_is_principal_eigenvalue(self, p):
        # with W = 1 the threshold pencil is the principal eigenproblem, and
        # one routine serves both
        prob = RadialProblem(p, 1, (0.0, np.inf), PotentialSpec.constant(0.5))
        level = (0.0, 1.0)
        t = threshold_tN(prob, level, PotentialSpec.constant(1.0), resolution=201)
        lam = principal_eigenpair(prob, build_grid(prob, level, 201)).lam
        assert t == pytest.approx(lam, rel=1e-9)

    def test_form_not_nonnegative_on_the_level_is_refused(self):
        # V = -1 beats the Dirichlet eigenvalue of (1, 8), about (pi/7)^2
        prob = RadialProblem(2.0, 3, (0.0, np.inf), PotentialSpec.constant(-1.0))
        with pytest.raises(PreconditionError, match="not nonnegative"):
            threshold_tN(prob, (1.0, 8.0), PotentialSpec.bump(2.0, 0.5, 1.0), resolution=201)
        ex = make_exhaustion(prob, 5, base=1.0, growth=2.0, style="annuli")
        with pytest.raises(PreconditionError, match="not nonnegative"):
            criticality_verdict(prob, ex, resolution=201)

    def test_log_reduced_problem_shape(self):
        red = log_reduced_problem(ray_problem(2, 2.0))
        assert red.d == 1
        assert red.p == 2.0


class TestVerdicts:
    def test_whole_line_is_critical(self):
        prob = line_problem()
        ex = make_exhaustion(prob, 15, base=1.0, growth=2.0, style="line", x0=0.0)
        rep = criticality_verdict(prob, ex, weight=BUMP, resolution=801)
        assert rep.verdict == "critical"
        assert rep.thresholds[-1][1] <= 1e-4
        ts = [t for _, t in rep.thresholds]
        assert all(a > b for a, b in zip(ts, ts[1:]))

    def test_probe_independence_critical(self):
        prob = line_problem()
        ex = make_exhaustion(prob, 15, base=1.0, growth=2.0, style="line", x0=0.0)
        other = PotentialSpec.bump(0.5, 0.8, 2.0)
        rep = criticality_verdict(prob, ex, weight=other, resolution=801)
        assert rep.verdict == "critical"

    def test_exterior_d3_is_subcritical(self):
        prob = ray_problem(3, 2.0)
        ex = make_exhaustion(prob, 9, base=1.0, growth=2.0, style="annuli")
        rep = criticality_verdict(prob, ex, resolution=601)
        assert rep.verdict == "subcritical"
        assert rep.t_star_estimate == pytest.approx(2.7851, rel=5e-3)
        ts = [t for _, t in rep.thresholds]
        assert (ts[-2] - ts[-1]) / ts[-1] < 0.01
        assert (ts[-3] - ts[-2]) / ts[-2] < 0.01

    def test_probe_independence_subcritical(self):
        prob = ray_problem(3, 2.0)
        ex = make_exhaustion(prob, 9, base=1.0, growth=2.0, style="annuli")
        rep = criticality_verdict(
            prob, ex, weight=PotentialSpec.bump(1.0, 0.4, 0.5), resolution=601
        )
        assert rep.verdict == "subcritical"

    def test_short_run_is_undetermined(self):
        prob = line_problem()
        ex = make_exhaustion(prob, 5, base=1.0, growth=2.0, style="line", x0=0.0)
        rep = criticality_verdict(prob, ex, weight=BUMP, resolution=401)
        assert rep.verdict == "undetermined"

    def test_p2_eigensolve_factors_a_bracket_not_adjacent_floats(self, monkeypatch):
        # criterion 05's d = 1 line verdict; bisecting the eigenvalue down
        # to adjacent floats took 60 factorizations in one solve
        counts = []
        eigen, factor = solver.smallest_generalized_eigen, solver.dpttrf

        def counted_eigen(*args):
            counts.append(0)
            return eigen(*args)

        def counted_factor(*args):
            counts[-1] += 1
            return factor(*args)

        monkeypatch.setattr(solver, "smallest_generalized_eigen", counted_eigen)
        monkeypatch.setattr(solver, "dpttrf", counted_factor)
        prob = line_problem()
        ex = make_exhaustion(prob, 15, base=1.0, growth=2.0, style="line")
        assert criticality_verdict(prob, ex, resolution=801).verdict == "critical"
        assert counts and max(counts) <= 32


class TestNullSequence:
    def test_entries_satisfy_rayleigh_identity(self):
        prob = line_problem()
        ex = make_exhaustion(prob, 11, base=1.0, growth=2.0, style="line", x0=0.0)
        run = null_sequence(prob, ex, weight=BUMP, resolution=601)
        assert run.failures == ()
        assert len(run.entries) == 11
        p = prob.p
        for e in run.entries:
            assert e.converged
            assert abs(e.minimizer.at(run.x0) - 1.0) <= 1e-12
            lhs = e.energy
            rhs = (e.t / p) * e.weighted_mass
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))
        energies = [e.energy for e in run.entries]
        assert all(a > b for a, b in zip(energies, energies[1:]))
        assert energies[-1] < 1e-3 * energies[0]

    def test_auto_frame_maps_annuli_to_log_coordinates(self):
        # at d == p with every level away from 0, "auto" runs in the log
        # frame: the same levels and x0 given already mapped agree bit for bit
        prob = ray_problem(3, 3.0)
        ex = make_exhaustion(prob, 5, style="annuli")
        auto = null_sequence(prob, ex, resolution=201, frame="auto")
        mapped = ExhaustionSchedule(
            tuple(log_reduced_level(lv) for lv in ex.levels), math.log(ex.x0)
        )
        log = null_sequence(prob, mapped, resolution=201, frame="log")
        assert auto.coordinates == log.coordinates == "log"
        assert auto.failures == () and len(auto.entries) == 5
        assert [e.t for e in auto.entries] == [e.t for e in log.entries]

    def test_masses_stay_banded(self):
        prob = line_problem()
        ex = make_exhaustion(prob, 10, base=1.0, growth=2.0, style="line", x0=0.0)
        run = null_sequence(prob, ex, weight=BUMP, resolution=601)
        masses = np.array([e.weighted_mass for e in run.entries])
        assert masses.min() > 0.0
        assert masses.max() / masses.min() < 10.0


D4_P3 = ray_problem(4, 3.0)
D4_ANNULI = make_exhaustion(D4_P3, 6, base=1.0, growth=2.0, style="annuli")
D3_LOG = ExhaustionSchedule(tuple((-(2.0**k), 2.0**k) for k in range(1, 7)), 0.0)


class TestWarmStart:
    @pytest.mark.parametrize(
        "problem, exhaustion, frame",
        [(D4_P3, D4_ANNULI, "auto"), (ray_problem(3, 3.0), D3_LOG, "log")],
        ids=["d4-annuli", "d3-log"],
    )
    def test_warm_thresholds_match_cold_levels(self, problem, exhaustion, frame):
        # each level solved again on its own, from a cold start
        run = null_sequence(problem, exhaustion, resolution=301, frame=frame)
        cold = [
            threshold_tN(problem, e.level, run.weight, resolution=301, frame=frame)
            for e in run.entries
        ]
        assert run.failures == () and len(run.entries) == 6
        assert [e.t for e in run.entries] == pytest.approx(cold, rel=1e-9)

    def test_p2_sequence_is_bit_identical_to_levels(self):
        prob = line_problem()
        ex = make_exhaustion(prob, 6, base=1.0, growth=2.0, style="line", x0=0.0)
        run = null_sequence(prob, ex, weight=BUMP, resolution=301)
        cold = [threshold_tN(prob, e.level, BUMP, resolution=301) for e in run.entries]
        assert [e.t for e in run.entries] == cold

    def test_warm_sequence_halves_the_banded_solves(self, monkeypatch):
        # a work count, not a wall time: the same on every machine
        calls = []
        original = solver.solve_banded

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, "solve_banded", counted)
        run = null_sequence(D4_P3, D4_ANNULI, resolution=301)
        warm = len(calls)
        calls.clear()
        for e in run.entries:
            threshold_tN(D4_P3, e.level, run.weight, resolution=301)
        assert warm < 0.5 * len(calls)


class TestGroundState:
    def test_whole_line_ground_state_is_flat(self):
        prob = line_problem()
        ex = make_exhaustion(prob, 15, base=1.0, growth=2.0, style="line", x0=0.0)
        rep = criticality_verdict(prob, ex, weight=BUMP, resolution=801)
        assert rep.verdict == "critical"
        g = ground_state(prob, ex, weight=BUMP, resolution=801, report=rep)
        assert abs(g.at(0.0) - 1.0) <= 1e-12
        window = np.linspace(-1.0, 1.0, 41)
        dev = max(abs(g.at(float(x)) - 1.0) for x in window)
        assert dev <= 0.01
        cls = classify_sign(g, prob, tol=1e-2)
        assert cls.kind == "solution"

    def test_undetermined_report_rejected(self):
        prob = line_problem()
        ex = make_exhaustion(prob, 5, base=1.0, growth=2.0, style="line", x0=0.0)
        rep = criticality_verdict(prob, ex, weight=BUMP, resolution=401)
        assert rep.verdict == "undetermined"
        with pytest.raises(StateError):
            ground_state(prob, ex, weight=BUMP, resolution=401, report=rep)


# (problem, compact set, level, resolution) with V < 0 somewhere, where the
# infimum lets u exceed 1 inside K and off it, so the contact set shrinks
NEGATIVE_POTENTIAL_CAPACITIES = {
    "d3-p3-well-0.05": (
        RadialProblem(3.0, 3, (0.0, np.inf), PotentialSpec.constant(-0.05)),
        (0.5, 1.0), (0.0, 4.0), 61,
    ),
    "d3-p3-well-0.15": (
        RadialProblem(3.0, 3, (0.0, np.inf), PotentialSpec.constant(-0.15)),
        (0.5, 1.0), (0.0, 4.0), 61,
    ),
    # the contact set is K's two end nodes, not an interval
    "d1-p2-line-bump": (
        RadialProblem(2.0, 1, (-np.inf, np.inf), PotentialSpec.bump(0.0, 3.0, -0.05)),
        (-1.0, 1.0), (-4.0, 4.0), 201,
    ),
    # nearly critical on the level (principal eigenvalue about 1.1e-5)
    "d3-p3-ball-well-0.3": (
        RadialProblem(3.0, 3, (0.0, np.inf), PotentialSpec.constant(-0.3)),
        (0.0, 1.0), (0.0, 4.0), 201,
    ),
    # the ball center is released while node 1 is held: a two-node run
    "d3-p2-center-spike": (
        RadialProblem(2.0, 3, (0.0, np.inf), PotentialSpec.bump(0.0, 0.015, -500.0)),
        (0.0, 1.0), (0.0, 4.0), 201,
    ),
}


class TestCapacity:
    def test_unit_ball_in_d3(self):
        prob = ray_problem(3, 2.0)
        rep = q_capacity(prob, CompactSetSpec(0.0, 1.0), (0.0, 4.0), resolution=1201)
        assert rep.converged
        assert rep.value == pytest.approx(2.0 / 3.0, rel=1e-4)
        assert rep.min_multiplier >= -1e-9

    def test_decreasing_in_level(self):
        prob = ray_problem(3, 2.0)
        vals = [
            q_capacity(prob, CompactSetSpec(0.0, 1.0), (0.0, R), resolution=1201).value
            for R in (4.0, 8.0, 16.0)
        ]
        assert vals[0] > vals[1] > vals[2] > 0.0

    def test_increasing_in_compact_set(self):
        prob = ray_problem(3, 2.0)
        small = q_capacity(prob, CompactSetSpec(0.0, 1.0), (0.0, 8.0), resolution=1201).value
        big = q_capacity(prob, CompactSetSpec(0.0, 1.5), (0.0, 8.0), resolution=1201).value
        assert big >= small - 1e-9

    def test_line_capacity_exact_and_vanishing(self):
        prob = line_problem()
        vals = []
        for L in (2.0, 4.0, 8.0):
            rep = q_capacity(prob, CompactSetSpec(-1.0, 1.0), (-L, L), resolution=801)
            assert rep.converged
            vals.append(rep.value)
            assert rep.value == pytest.approx(1.0 / (L - 1.0), rel=1e-8)
        assert vals[0] > vals[1] > vals[2]

    def test_minimizer_trace_values(self):
        prob = ray_problem(3, 2.0)
        rep = q_capacity(prob, CompactSetSpec(0.0, 1.0), (0.0, 4.0), resolution=601)
        u = rep.minimizer
        nodes = u.grid.nodes
        on_k = (nodes >= 0.0) & (nodes <= 1.0)
        assert np.max(np.abs(u.values[on_k] - 1.0)) <= 1e-9
        assert u.values[-1] == 0.0
        assert u.values.min() >= -1e-12 and u.values.max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("case", sorted(NEGATIVE_POTENTIAL_CAPACITIES))
    def test_negative_potential_matches_bound_constrained_minimum(self, case):
        prob, (k_lo, k_hi), level, resolution = NEGATIVE_POTENTIAL_CAPACITIES[case]
        rep = q_capacity(prob, CompactSetSpec(k_lo, k_hi), level, resolution=resolution)
        nodes = rep.minimizer.grid.nodes
        expected, _ = oracles.obstacle_capacity(
            nodes, prob.d, prob.p, prob.potential.sample(nodes), k_lo, k_hi
        )
        assert rep.converged
        assert rep.value == pytest.approx(expected, rel=1e-8)
        assert rep.min_multiplier >= -1e-8 * rep.residual_scale
        assert np.all(rep.minimizer.values[(nodes >= k_lo) & (nodes <= k_hi)] >= 1.0)


# (problem, exhaustion) of small subcritical runs; the p = 2 potential
# exercises the lumped potential term of the form
SMALL_SUBCRITICAL = {
    "d3-p2-bump": (
        RadialProblem(2.0, 3, (0.0, np.inf), PotentialSpec.bump(3.0, 1.0, 0.5)), 9,
    ),
    "d4-p3": (ray_problem(4, 3.0), 15),
}


@pytest.fixture(scope="module", params=sorted(SMALL_SUBCRITICAL))
def small_subcritical(request):
    prob, count = SMALL_SUBCRITICAL[request.param]
    ex = make_exhaustion(prob, count, base=1.0, growth=2.0, style="annuli")
    rep = criticality_verdict(prob, ex, resolution=201)
    assert rep.verdict == "subcritical"
    return rep


# criterion 05's subcritical runs
ANNULI_RUNS = {"d3-p2": (3, 2.0, 9), "d4-p3": (4, 3.0, 15)}


class TestPiconeMargin:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_margin_bounds_the_discounted_form(self, small_subcritical, data):
        # p Q(u) - (t*/2) int W|u|^p >= margin_N int W|u|^p for u >= 0 zero
        # at the level edge: u = g v_N^s, with g piecewise linear through
        # nonnegative knots spread over the node indices; s = 1 runs close
        # to the equality case u = v_N
        rep = small_subcritical
        run, cert = rep.run, rep.certificate
        n = data.draw(st.integers(0, len(run.entries) - 1), label="level")
        entry = run.entries[n]
        grid = entry.minimizer.grid
        knots = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12), label="knots")
        s = data.draw(st.floats(0.0, 1.0), label="s")
        idx = np.arange(grid.n)
        g = np.interp(idx, np.linspace(0, grid.n - 1, len(knots)), knots)
        u = g * entry.minimizer.values**s
        u[grid.dirichlet_mask] = 0.0

        p = run.problem.p
        q = q_parts(grid, p, run.problem.potential.sample(grid.nodes), u)
        mass = float(np.sum(run.weight.sample(grid.nodes) * u**p * grid.node_w))
        half = 0.5 * rep.t_star_estimate
        lhs = q.gradient_term + q.potential_term - half * mass
        # rounding slack relative to the terms of the two sides
        slack = 1e-9 * (q.gradient_term + abs(q.potential_term) + half * mass)
        assert lhs >= cert.margins[n] * mass - slack


class TestPositivityWeight:
    def test_subcritical_certificate(self):
        prob = ray_problem(3, 2.0)
        ex = make_exhaustion(prob, 9, base=1.0, growth=2.0, style="annuli")
        cert = positivity_weight(prob, ex, resolution=601)
        margins = np.asarray(cert.margins)
        assert margins.min() >= -1e-8
        assert cert.margin == pytest.approx(margins.min(), abs=1e-15)
        assert cert.margin > 0.0
        r = np.linspace(1.5, 3.0, 9)
        assert np.all(cert.weight.sample(r) >= 0.0)

    def test_critical_case_raises(self):
        prob = line_problem()
        ex = make_exhaustion(prob, 15, base=1.0, growth=2.0, style="line", x0=0.0)
        with pytest.raises(StateError):
            positivity_weight(prob, ex, weight=BUMP, resolution=801)


    @pytest.mark.parametrize("case", sorted(ANNULI_RUNS))
    def test_lower_bounds_bracket_the_thresholds(self, case):
        d, p, count = ANNULI_RUNS[case]
        prob = ray_problem(d, p)
        ex = make_exhaustion(prob, count, base=1.0, growth=2.0, style="annuli")
        rep = criticality_verdict(prob, ex, resolution=601)
        assert rep.verdict == "subcritical"
        for e in rep.run.entries:
            assert e.lower <= e.t
            assert (e.t - e.lower) / e.t <= 1e-3
        cert = rep.certificate
        assert cert.uncertified == ()
        half = 0.5 * rep.t_star_estimate
        assert cert.margins == tuple(e.lower - half for e in rep.run.entries)
