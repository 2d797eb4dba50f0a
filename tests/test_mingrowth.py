"""Minimal-growth limits, singularity exponents, removability, decay
certificates, and the comparison check."""

from __future__ import annotations

import numpy as np
import pytest

import oracles
from pcrit import (
    CompactSetSpec,
    ExhaustionSchedule,
    PotentialSpec,
    RadialProblem,
    comparison_check,
    make_exhaustion,
    minimal_growth_certificate,
    point_singularity_solution,
    removability_test,
    singularity_exponent,
    uK_limit,
)
from pcrit.errors import PreconditionError, StateError
from pcrit.model import Field, Grid, build_grid
from pcrit.solver import DiscreteOperator, SolverConfig


def ray_problem(d, p=2.0):
    return RadialProblem(float(p), int(d), (0.0, np.inf), PotentialSpec.zero())


PROB3 = ray_problem(3)


@pytest.fixture(scope="module")
def cert_grid():
    nodes = np.geomspace(0.5, 2.0**13 * 1.01, 2001)
    return Grid(nodes, 2)


@pytest.fixture(scope="module")
def cert_exhaustion():
    return ExhaustionSchedule(tuple((0.0, float(2**k)) for k in range(3, 14)), 1.0)


@pytest.fixture(scope="module")
def decay_cert(cert_grid, cert_exhaustion):
    u = Field(cert_grid, 1.0 / cert_grid.nodes)
    return minimal_growth_certificate(
        PROB3, u, CompactSetSpec(0.0, 2.0), (3.0, 4.0), cert_exhaustion, resolution=601
    )


class TestUkLimit:
    def test_unit_ball_limit_is_harmonic(self):
        ex = make_exhaustion(PROB3, 9, base=1.0, growth=2.0, style="balls")
        run = uK_limit(
            PROB3, CompactSetSpec(0.0, 1.0), (1.0, 1.0), ex,
            resolution=601, cauchy_tol=1e-2,
        )
        assert run.converged
        assert run.lambda_1_lower > 0.0
        assert max(run.monotonicity_log) == 0.0
        gaps = run.window_gaps
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        xs = np.linspace(1.5, 3.0, 13)
        err = max(abs(run.limit.at(float(x)) * x - 1.0) for x in xs)
        assert err <= 0.01

    def test_limit_independent_of_compact_set(self):
        # minimal growth is asymptotic: carrying the first limit's trace onto
        # a larger set reproduces the same tail
        ex = make_exhaustion(PROB3, 9, base=1.0, growth=2.0, style="balls")
        run0 = uK_limit(
            PROB3, CompactSetSpec(0.0, 1.0), (1.0, 1.0), ex,
            resolution=601, cauchy_tol=1e-2,
        )
        t = float(run0.limit.at(1.5))
        run1 = uK_limit(
            PROB3, CompactSetSpec(0.0, 1.5), (t, t), ex,
            resolution=601, cauchy_tol=1e-2,
        )
        xs = np.linspace(2.0, 4.0, 9)
        rel = max(
            abs(run1.limit.at(float(x)) / run0.limit.at(float(x)) - 1.0) for x in xs
        )
        assert rel <= 0.01

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_whole_line_limit_has_both_sides(self, p):
        # levels reaching past both ends of K run the toward-zero master
        # grid and its solves; at d = 1 with V = 0 each side's solve is the
        # straight line from the trace to 0 at the level edge
        prob = RadialProblem(p, 1, (-np.inf, np.inf), PotentialSpec.zero())
        levels = tuple((-float(2**k), float(2**k)) for k in range(2, 9))
        run = uK_limit(
            prob, CompactSetSpec(-1.0, 1.0), (1.0, 1.0), ExhaustionSchedule(levels, 1.0),
            resolution=301,
        )
        assert max(run.monotonicity_log) <= 1e-12
        nodes, vals = run.limit.grid.nodes, run.limit.values
        assert np.max(np.abs(vals - run.limit.at(-nodes))) <= 1e-12
        edge = 256.0
        near = (nodes >= 1.0) & (nodes <= 3.0)
        exact = (edge - nodes[near]) / (edge - 1.0)
        assert np.max(np.abs(vals[near] - exact)) <= 1e-12


    def test_ball_levels_around_a_shell(self):
        # K = [0.5, 1] inside balls (0, b): the ball center is a free node
        # of the run left of K, with its natural condition
        ex = make_exhaustion(PROB3, 3, base=2.0, growth=2.0, style="balls")
        run = uK_limit(PROB3, CompactSetSpec(0.5, 1.0), (1.0, 1.0), ex, resolution=201)
        assert len(run.fields) == 3
        assert run.lambda_1_lower > 0.0
        assert max(run.monotonicity_log) <= 1e-12
        # V = 0 with a constant trace: the inner ball stays at the trace
        nodes, vals = run.limit.grid.nodes, run.limit.values
        assert nodes[0] == 0.0
        assert np.max(np.abs(vals[nodes <= 1.0] - 1.0)) <= 1e-12

    def test_lambda_1_is_certified_once_per_run(self, monkeypatch):
        # the cli-batch mingrowth config: the set touches the ball center, so
        # the largest level minus the set has one component, and its torsion
        # bound certifies the whole run without an eigensolve
        calls = []
        bound, eigenpair = DiscreteOperator.torsion_bound, DiscreteOperator.eigenpair
        monkeypatch.setattr(
            DiscreteOperator, "torsion_bound", lambda op, c: calls.append("bound") or bound(op, c)
        )
        monkeypatch.setattr(
            DiscreteOperator, "eigenpair", lambda op, c: calls.append("eigen") or eigenpair(op, c)
        )
        prob = ray_problem(3, p=3.0)
        ex = make_exhaustion(prob, 5, base=1.0, growth=2.0, style="balls", x0=1.5)
        run = uK_limit(prob, CompactSetSpec(0.0, 1.0), (1.0, 1.0), ex, resolution=801)
        assert len(run.fields) == 5
        assert calls == ["bound"]
        # one check suffices: on the run's master grid each smaller level's
        # component has a lambda_1 at least the largest level's
        grid = run.limit.grid
        op = DiscreteOperator.bind(prob, grid)
        s1 = int(np.searchsorted(grid.nodes, 1.0))
        lams = [
            op.restrict(s1, int(np.searchsorted(grid.nodes, b)) + 1).eigenpair(SolverConfig()).lam
            for _, b in run.levels
        ]
        assert all(lam >= lams[-1] for lam in lams[:-1])
        assert 0.0 < run.lambda_1_lower <= lams[-1]

    @pytest.mark.parametrize("fail_at, kept", [(2, 1), (1, 0)])
    def test_failed_level_ends_the_run(self, monkeypatch, fail_at, kept):
        # a starved config stops at the lambda_1 check before any level, so
        # the level solves fail by hand: a later failure keeps the levels
        # before it, a first one leaves nothing to form the limit from
        held_runs, calls = DiscreteOperator.held_runs, []

        def failing(op, *args):
            calls.append(op)
            if len(calls) == fail_at:
                raise StateError("held-run solve failed to converge on nodes 0..1")
            return held_runs(op, *args)

        monkeypatch.setattr(DiscreteOperator, "held_runs", failing)
        ex = make_exhaustion(PROB3, 3, base=2.0, growth=2.0, style="balls")
        args = (PROB3, CompactSetSpec(0.5, 1.0), (1.0, 1.0), ex)
        if kept == 0:
            with pytest.raises(StateError, match="no level solved"):
                uK_limit(*args, resolution=201)
        else:
            run = uK_limit(*args, resolution=201)
            assert len(run.fields) == kept and run.levels == ex.levels[:kept]
        assert len(calls) == fail_at


class TestSingularityExponent:
    def _field(self, vals_of):
        nodes = np.geomspace(0.01, 1.0, 601)
        g = Grid(nodes, 2)
        return Field(g, vals_of(nodes))

    def test_exact_inverse_power(self):
        u = self._field(lambda r: 1.0 / r)
        slope, rms = singularity_exponent(u, 0.0, (0.05, 0.5), mode="power")
        assert slope == pytest.approx(-1.0, abs=1e-8)
        assert rms <= 1e-8

    def test_constant_has_zero_exponent(self):
        u = self._field(lambda r: np.full_like(r, 3.0))
        slope, rms = singularity_exponent(u, 0.0, (0.05, 0.5), mode="power")
        assert slope == pytest.approx(0.0, abs=1e-8)

    def test_loglog_identifies_logarithmic_blowup(self):
        u = self._field(lambda r: -np.log(r))
        slope, rms = singularity_exponent(u, 0.0, (0.02, 0.5), mode="loglog")
        assert slope == pytest.approx(1.0, abs=1e-8)
        assert rms <= 1e-8

    def test_window_outside_grid_rejected(self):
        u = self._field(lambda r: 1.0 / r)
        with pytest.raises(ValueError):
            singularity_exponent(u, 0.0, (0.5, 2.0))

    def test_nonpositive_values_rejected(self):
        u = self._field(lambda r: r - 0.25)
        with pytest.raises(ValueError):
            singularity_exponent(u, 0.0, (0.05, 0.5))


class TestPointSingularity:
    def test_d3_green_exponent(self):
        ex = make_exhaustion(PROB3, 9, base=1.0, growth=2.0, style="annuli")
        run = point_singularity_solution(PROB3, 0.0, ex, resolution=801)
        assert abs(run.limit.at(1.0) - 1.0) <= 1e-12
        slope, rms = singularity_exponent(run.limit, 0.0, (0.05, 0.5), mode="power")
        assert slope == pytest.approx(-1.0, abs=0.01)
        assert rms <= 1e-3

    def test_d5_green_exponent(self):
        prob = ray_problem(5)
        ex = make_exhaustion(prob, 9, base=1.0, growth=2.0, style="annuli")
        u = point_singularity_solution(prob, 0.0, ex, resolution=801).limit
        slope, _ = singularity_exponent(u, 0.0, (0.05, 0.5), mode="power")
        assert slope == pytest.approx(-3.0, abs=1e-6)

    def test_half_line_limit_is_flat(self):
        # d = 1 puncture component: critical, so the minimal-growth limit is
        # the constant ground state
        prob = ray_problem(1)
        ex = ExhaustionSchedule(tuple((2.0**-k, 2.0**k) for k in range(1, 11)), 1.0)
        run = point_singularity_solution(prob, 0.0, ex, resolution=601)
        xs = np.linspace(0.25, 2.0, 21)
        dev = max(abs(run.limit.at(float(x)) - 1.0) for x in xs)
        assert dev <= 0.02


class TestRemovability:
    def _line_grid(self):
        nodes = np.linspace(0.01, 4.0, 1201)
        return Grid(nodes, 0)

    def test_blowup_detected(self):
        nodes = np.geomspace(0.005, 8.0, 1201)
        u = Field(Grid(nodes, 2), 1.0 / nodes)
        rep = removability_test(PROB3, u, 0.0)
        assert rep.verdict == "nonremovable-blowup"
        sups = rep.window_sups
        assert sups[-1] > 5.0 * sups[0]

    # the gate's rounding floor depends on p away from p = 2
    P_VALUES = (1.5, 2.0, 3.0)

    def test_boundary_flux_detected(self):
        g = self._line_grid()
        for p in self.P_VALUES:
            rep = removability_test(ray_problem(1, p), Field(g, 1.0 + g.nodes), 0.0)
            assert rep.verdict == "nonremovable-flux", p
            assert rep.flux_residual == pytest.approx(-1.0, abs=1e-9)
            assert abs(rep.flux_residual) > rep.gate

    def test_interior_kink_flux(self):
        nodes = np.linspace(0.2, 2.0, 901)
        u = Field(Grid(nodes, 0), 1.0 + 0.7 * np.abs(nodes - 1.0))
        for p in self.P_VALUES:
            rep = removability_test(ray_problem(1, p), u, 1.0)
            assert rep.verdict == "nonremovable-flux", p
            assert abs(rep.flux_residual) == pytest.approx(2.0 * 0.7 ** (p - 1.0), abs=1e-9)

    def test_constant_is_removable(self):
        g = self._line_grid()
        for p in self.P_VALUES:
            rep = removability_test(ray_problem(1, p), Field(g, np.ones(g.n)), 0.0)
            assert rep.verdict == "removable", p
            assert abs(rep.flux_residual) <= rep.gate

    def test_vanishing_ramp_is_undetermined(self):
        prob = ray_problem(1)
        g = self._line_grid()
        rep = removability_test(prob, Field(g, np.minimum(g.nodes, 1.0)), 0.0)
        assert rep.verdict == "undetermined"

    def test_non_solution_rejected(self):
        prob = ray_problem(1)
        g = self._line_grid()
        u = Field(g, 1.0 + 0.5 * np.sin(30.0 * np.log(g.nodes)))
        with pytest.raises(PreconditionError):
            removability_test(prob, u, 0.0)


class TestCertificate:
    def test_decaying_candidate(self, decay_cert):
        assert decay_cert.verdict == "decaying-to-zero"
        assert decay_cert.mus[-1] <= 1e-3 * decay_cert.mus[0]
        assert all(m > 0 for m in decay_cert.mus)

    def test_constant_candidate_stays_bounded_away(self, cert_grid, cert_exhaustion):
        u = Field(cert_grid, np.ones(cert_grid.n))
        cert = minimal_growth_certificate(
            PROB3, u, CompactSetSpec(0.0, 2.0), (3.0, 4.0),
            cert_exhaustion, resolution=601,
        )
        assert cert.verdict == "bounded-away"
        assert cert.mus[-1] > 0.1 * cert.mus[0]
        assert cert.mus[-1] == pytest.approx(
            oracles.FROZEN["mu_constant_b8192"], rel=6e-2
        )

    def test_scaling_invariance(self, cert_grid, cert_exhaustion, decay_cert):
        u2 = Field(cert_grid, 2.0 / cert_grid.nodes)
        cert2 = minimal_growth_certificate(
            PROB3, u2, CompactSetSpec(0.0, 2.0), (3.0, 4.0),
            cert_exhaustion, resolution=601,
        )
        for a, b in zip(decay_cert.mus, cert2.mus):
            assert b == pytest.approx(a, rel=1e-12)


CERT_LEVELS = ExhaustionSchedule(tuple((0.0, float(2**k)) for k in range(4, 12)), 1.0)


def certificate_at(d, p, profile):
    # at p != 2 each level runs the reweighted rounds and the descent polish
    prob = ray_problem(d, p)
    grid = build_grid(prob, (1e-3, 2.0**11), 4001)
    return minimal_growth_certificate(
        prob, Field(grid, profile(grid.nodes)), CompactSetSpec(0.0, 2.0), (3.0, 4.0),
        CERT_LEVELS, resolution=301,
    )


class TestCertificateAwayFromP2:
    # mu_N is an infimum over a set that grows with the level, so it never
    # increases; it decays to zero exactly for a minimal-growth candidate
    def test_minimal_p_harmonic_decays(self):
        cert = certificate_at(2, 1.5, lambda r: 1.0 / r)
        assert np.all(np.diff(cert.mus) < 0)
        assert max(abs(m - 1.0) for m in cert.masses) <= 1e-12
        assert cert.mus[-1] / cert.mus[0] < 0.01

    @pytest.mark.parametrize(
        "d, p, profile, kept",
        [
            (2, 1.5, lambda r: 1.0 + 1.0 / r, 0.7),
            # the reweighted rounds stop above the infimum here: mu_N falls
            # from 0.02332 to 0.007695 over five levels, then reads 0.03382
            # from level (0, 512) on.  A weighted principal eigensolve per
            # level gave 0.02330 ... 0.006355, nonincreasing (ROADMAP item 21)
            pytest.param(
                4, 3.0, lambda r: 1.0 + r**-0.5, 0.2,
                marks=pytest.mark.xfail(
                    raises=AssertionError, strict=True, reason="mu_N rises at p != 2 (ROADMAP item 21)"
                ),
            ),
        ],
        ids=["d2-p1.5", "d4-p3"],
    )
    def test_non_minimal_solution_stays_away(self, d, p, profile, kept):
        cert = certificate_at(d, p, profile)
        assert np.all(np.diff(cert.mus) < 0)
        assert cert.mus[-1] > kept * cert.mus[0]

    def test_minimal_p_harmonic_decays_at_d4_p3(self):
        cert = certificate_at(4, 3.0, lambda r: r**-0.5)
        assert np.all(np.diff(cert.mus) < 0)
        assert cert.mus[-1] < 0.1 * cert.mus[0]

    def test_descent_polish_lowers_the_last_mu_at_d4_p3(self):
        # the reweighted rounds alone stop at 5.844e-4 on the last level;
        # the projected-descent polish after them reaches 5.830e-4
        cert = certificate_at(4, 3.0, lambda r: r**-0.5)
        assert cert.mus[-1] < 5.831e-4

    def test_steep_minimal_p_harmonic_decays_at_d3_p15(self):
        # u = r^-3 is the minimal p-harmonic function at d = 3, p = 1.5; on
        # level (0, 2048) its h-transformed p = 2 form um^2 cell_w / h^2
        # spans 15.8 decades and is singular to rounding, so the
        # certificate must not factor that form
        cert = certificate_at(3, 1.5, lambda r: r**-3.0)
        assert cert.verdict == "decaying-to-zero"
        assert np.all(np.diff(cert.mus) < 0)
        assert max(abs(m - 1.0) for m in cert.masses) <= 1e-12


class TestComparison:
    def test_harmonic_below_algebraic_supersolution(self, cert_grid, decay_cert):
        nodes = cert_grid.nodes
        u_sub = Field(cert_grid, 1.0 / nodes)
        c = np.sqrt(5.0) / 2.0 * 1.001
        v_sup = Field(cert_grid, c * (1.0 + nodes**2) ** -0.5)
        res = comparison_check(
            PROB3, u_sub, v_sup, CompactSetSpec(0.0, 2.0), decay_cert
        )
        assert res.ok
        assert res.max_violation == 0.0

    def test_random_supersolution_family(self, cert_grid, decay_cert):
        nodes = cert_grid.nodes
        u_sub = Field(cert_grid, 1.0 / nodes)
        rng = np.random.default_rng(11)
        for _ in range(30):
            b = rng.uniform(0.25, 4.0)
            c = 0.5 * np.sqrt(b + 4.0) * 1.001 * rng.uniform(1.0, 3.0)
            v_sup = Field(cert_grid, c * (b + nodes**2) ** -0.5)
            res = comparison_check(
                PROB3, u_sub, v_sup, CompactSetSpec(0.0, 2.0), decay_cert
            )
            assert res.ok

    def test_edge_ordering_enforced(self, cert_grid, decay_cert):
        nodes = cert_grid.nodes
        u_sub = Field(cert_grid, 1.0 / nodes)
        # too small at the set's edge: hypothesis violation, not a verdict
        v_sup = Field(cert_grid, 0.3 * np.sqrt(5.0) * (1.0 + nodes**2) ** -0.5)
        with pytest.raises(PreconditionError):
            comparison_check(PROB3, u_sub, v_sup, CompactSetSpec(0.0, 2.0), decay_cert)

    def test_bounded_away_certificate_rejected(self, cert_grid, cert_exhaustion):
        nodes = cert_grid.nodes
        flat = Field(cert_grid, np.ones(cert_grid.n))
        cert = minimal_growth_certificate(
            PROB3, flat, CompactSetSpec(0.0, 2.0), (3.0, 4.0),
            cert_exhaustion, resolution=601,
        )
        v_sup = Field(cert_grid, np.full(cert_grid.n, 2.0))
        with pytest.raises(PreconditionError):
            comparison_check(PROB3, flat, v_sup, CompactSetSpec(0.0, 2.0), cert)

    def test_mismatched_grids_rejected(self, cert_grid, decay_cert):
        nodes = cert_grid.nodes
        u_sub = Field(cert_grid, 1.0 / nodes)
        other = np.geomspace(0.5, 2.0**13 * 1.01, 1001)
        v_sup = Field(Grid(other, 2), 1.0 / other)
        with pytest.raises(ValueError):
            comparison_check(PROB3, u_sub, v_sup, CompactSetSpec(0.0, 2.0), decay_cert)
