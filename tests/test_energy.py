"""Energy functional, Picone forms, simplified energy, vector inequality,
Poincare-type residual."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_compact_field
from pcrit import (
    PotentialSpec,
    RadialProblem,
    build_grid,
    energy_Q,
    make_field,
    phi_p,
    picone_density,
    picone_gap,
    poincare_residual,
    simplified_energy,
    solve_dirichlet,
    vector_inequality_envelope,
    vector_inequality_ratio,
)
from pcrit.errors import PreconditionError


def interval_problem(p=2.0, d=1, V=None):
    pot = V if V is not None else PotentialSpec.zero()
    return RadialProblem(p, d, (0.0, np.inf), pot)


def hat_field(grid):
    nodes = grid.nodes
    vals = np.where(nodes <= 0.5, 2.0 * nodes, 2.0 * (1.0 - nodes))
    return make_field(grid, vals)


def masked_phi_p(x, p):
    """phi_p written with a nonzero mask and sign(x), as a reference."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    nz = x != 0.0
    out[nz] = np.sign(x[nz]) * np.abs(x[nz]) ** (p - 1.0)
    return out


# finite floats, with signed zeros, subnormals and values near the overflow
# threshold drawn often
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e308, -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
EXPONENTS = st.one_of(
    st.sampled_from([1.5, 2.0, 3.0]), st.floats(1.0, 5.0, exclude_min=True, exclude_max=True)
)


class TestPhiP:
    @settings(max_examples=200, deadline=None)
    @given(xs=st.lists(EDGE_FLOATS, min_size=1, max_size=40), p=EXPONENTS)
    def test_matches_the_masked_formula(self, xs, p):
        x = np.array(xs)
        with np.errstate(over="ignore"):
            got, ref = phi_p(x, p), masked_phi_p(x, p)
            odd = phi_p(-x, p)
        assert got.shape == x.shape
        assert np.array_equal(got, ref)
        nz = x != 0.0
        assert np.array_equal(np.signbit(got[nz]), np.signbit(x[nz]))
        assert np.array_equal(np.signbit(got[nz]), np.signbit(ref[nz]))
        assert np.array_equal(odd, -got)

    @settings(max_examples=100, deadline=None)
    @given(x=EDGE_FLOATS, p=EXPONENTS)
    def test_scalar_gives_a_float(self, x, p):
        with np.errstate(over="ignore"):
            got = phi_p(x, p)
            ref = masked_phi_p(np.array([x]), p)[0]
        assert type(got) is float
        assert got == ref

    @settings(max_examples=100, deadline=None)
    @given(xs=st.lists(EDGE_FLOATS, min_size=1, max_size=40))
    def test_p2_is_the_identity(self, xs):
        x = np.array(xs)
        assert np.array_equal(phi_p(x, 2.0), x)


class TestEnergyQ:
    def test_hat_energy_d1_p2(self):
        prob = interval_problem()
        g = build_grid(prob, (0.0, 1.0), 41, law="uniform")
        u = hat_field(g)
        # |u'| = 2 on both halves: (1/2) int |u'|^2 = 4/2 * 1 = 2
        assert energy_Q(u, prob).total == pytest.approx(2.0, abs=1e-12)

    def test_potential_linearity(self):
        c = 1.7
        prob0 = interval_problem()
        probc = interval_problem(V=PotentialSpec.constant(c))
        g = build_grid(prob0, (0.0, 1.0), 101, law="uniform")
        rng = np.random.default_rng(3)
        u = random_compact_field(g, rng)
        base = energy_Q(u, prob0).total
        shifted = energy_Q(u, probc).total
        mass = float(np.sum(u.values**2 * g.node_w))
        assert shifted - base == pytest.approx(0.5 * c * mass, rel=1e-13)

    def test_hat_energy_d2_p3_matches_quadrature(self):
        prob = RadialProblem(3.0, 2, (0.0, np.inf), PotentialSpec.zero())
        g = build_grid(prob, (0.0, 1.0), 41, law="uniform")
        u = hat_field(g)
        total = energy_Q(u, prob).total
        oracle = oracles.hat_energy_quadrature(3.0, 2)
        assert abs(total - oracle) <= 1e-10
        assert oracle == pytest.approx(4.0 / 3.0, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        t=st.floats(0.01, 100.0),
        p=st.floats(1.1, 5.0),
        seed=st.integers(0, 10_000),
    )
    def test_scaling_homogeneity(self, t, p, seed):
        prob = interval_problem(p=p)
        g = build_grid(prob, (0.0, 1.0), 201, law="uniform")
        u = random_compact_field(g, np.random.default_rng(seed))
        one = energy_Q(u, prob).total
        scaled = energy_Q(make_field(g, t * u.values), prob).total
        assert scaled == pytest.approx(t**p * one, rel=1e-12, abs=1e-300)

    def test_free_trace_needs_flag(self):
        prob = interval_problem()
        g = build_grid(prob, (0.0, 1.0), 11, law="uniform")
        u = make_field(g, np.ones(11))
        with pytest.raises(PreconditionError):
            energy_Q(u, prob)
        assert energy_Q(u, prob, free_boundary=True).total == pytest.approx(0.0)


class TestPicone:
    def _pair(self, p, seed=11, n=401):
        prob = interval_problem(p=p)
        g = build_grid(prob, (0.0, 1.0), n, law="uniform")
        rng = np.random.default_rng(seed)
        u = random_compact_field(g, rng)
        v = make_field(g, 1.0 + 0.5 * np.sin(2.0 * np.pi * g.nodes) ** 2)
        return prob, g, u, v

    def test_multiple_of_v_vanishes(self):
        for c in (0.0, 0.3, 2.0):
            prob, g, _, v = self._pair(2.5)
            u = make_field(g, c * v.values)
            lag = picone_density(u, v, prob)
            assert np.max(np.abs(lag.cell_values)) <= 1e-12

    def test_p2_collapse_formula(self):
        prob, g, u, v = self._pair(2.0)
        lag = picone_density(u, v, prob)
        h = np.diff(g.nodes)
        us = np.diff(u.values) / h
        vs = np.diff(v.values) / h
        um = 0.5 * (u.values[1:] + u.values[:-1])
        vm = 0.5 * (v.values[1:] + v.values[:-1])
        # (1/2) v^2 |(u/v)'|^2 with the chain-rule form at cell midpoints
        expect = 0.5 * (us * vm - um * vs) ** 2 / vm**2
        assert np.allclose(lag.cell_values, expect, rtol=0, atol=1e-12)

    def test_nonnegative_p27(self):
        rng = np.random.default_rng(5)
        prob = interval_problem(p=2.7)
        g = build_grid(prob, (0.0, 1.0), 301, law="uniform")
        for _ in range(50):
            u = random_compact_field(g, rng)
            v = make_field(g, 0.5 + rng.uniform(0.0, 1.0) + 0.4 * np.sin(np.pi * g.nodes * rng.integers(1, 4)) ** 2)
            lag = picone_density(u, v, prob)
            assert lag.cell_values.min() >= -1e-12

    @settings(max_examples=40, deadline=None)
    @given(p=st.floats(1.01, 6.0), seed=st.integers(0, 10_000))
    def test_nonnegative_across_p(self, p, seed):
        rng = np.random.default_rng(seed)
        prob = interval_problem(p=p)
        g = build_grid(prob, (0.0, 1.0), 101, law="uniform")
        u = random_compact_field(g, rng)
        v = make_field(g, 1.0 + rng.uniform(0.0, 0.5) + 0.3 * np.sin(np.pi * g.nodes))
        lag = picone_density(u, v, prob)
        assert lag.cell_values.min() >= -1e-12

    def test_gap_vanishes_under_refinement(self):
        gaps = []
        for n in (501, 2001):
            prob = interval_problem(p=2.0, V=PotentialSpec.constant(0.5))
            g = build_grid(prob, (0.0, 1.0), n, law="uniform")
            rep = solve_dirichlet(prob, g, (1.0, 0.5))
            assert rep.converged
            u = random_compact_field(g, np.random.default_rng(7))
            gaps.append(abs(picone_gap(u, rep.solution, prob)))
        assert gaps[1] < gaps[0] / 4.0
        q = energy_Q(
            random_compact_field(
                build_grid(interval_problem(), (0.0, 1.0), 2001, law="uniform"),
                np.random.default_rng(7),
            ),
            interval_problem(),
        ).total
        assert gaps[1] <= 1e-5 * (1.0 + abs(q))

    def test_gap_zero_for_constant_v(self):
        prob, g, u, _ = self._pair(3.0)
        v = make_field(g, np.full(g.n, 2.0))
        assert abs(picone_gap(u, v, prob)) <= 1e-14 * (1.0 + energy_Q(u, prob).total)

    def test_gap_one_sided_for_subsolution(self):
        # convex positive v has strictly negative weak residual at every
        # interior node, a strict discrete subsolution
        prob = interval_problem(p=2.0)
        g = build_grid(prob, (0.0, 1.0), 801, law="uniform")
        v = make_field(g, 1.0 + (g.nodes - 0.5) ** 2)
        rng = np.random.default_rng(23)
        for _ in range(20):
            u = random_compact_field(g, rng)
            assert picone_gap(u, v, prob) <= 1e-8


class TestSimplifiedEnergy:
    def test_p2_matches_picone_route(self):
        prob = interval_problem(p=2.0)
        rels = []
        for n in (1001, 4001):
            g = build_grid(prob, (0.0, 1.0), n, law="uniform")
            rep = solve_dirichlet(prob, g, (1.0, 1.01))
            assert rep.converged
            v = rep.solution
            w = random_compact_field(g, np.random.default_rng(2))
            vw = make_field(g, v.values * w.values)
            q = energy_Q(vw, prob).total
            uni = simplified_energy(v, w, prob).universal
            rels.append(abs(uni / (2.0 * q) - 1.0))
        assert rels[1] < rels[0]
        assert rels[1] <= 1e-10

    def test_constant_w_interior_cells_vanish(self):
        prob = interval_problem(p=3.0)
        g = build_grid(prob, (0.0, 1.0), 101, law="uniform")
        v = make_field(g, 1.0 + g.nodes)
        wvals = np.where((g.nodes > 0.2) & (g.nodes < 0.8), 1.0, 0.0)
        w = make_field(g, wvals)
        h = np.diff(g.nodes)
        ws = np.diff(w.values) / h
        uni = simplified_energy(v, w, prob)
        # cells where w is flat contribute nothing
        vs = np.diff(v.values) / h
        vm = 0.5 * (v.values[1:] + v.values[:-1])
        wm = 0.5 * (w.values[1:] + w.values[:-1])
        mix = wm * np.abs(vs) + vm * np.abs(ws)
        cells = vm**2 * ws**2 * np.where(mix > 0, mix, 1.0) ** (prob.p - 2.0)
        assert np.all(cells[ws == 0.0] == 0.0)
        assert uni.universal > 0.0

    def test_two_sided_interval_stable_p3(self):
        prob = interval_problem(p=3.0)
        intervals = []
        for n in (401, 801):
            g = build_grid(prob, (0.0, 1.0), n, law="uniform")
            rep = solve_dirichlet(prob, g, (1.0, 0.6))
            assert rep.converged
            v = rep.solution
            rng = np.random.default_rng(17)
            ratios = []
            for _ in range(100):
                w = random_compact_field(g, rng)
                vw = make_field(g, v.values * w.values)
                q = energy_Q(vw, prob).total
                uni = simplified_energy(v, w, prob).universal
                ratios.append(q / uni)
            intervals.append((min(ratios), max(ratios)))
        (lo0, hi0), (lo1, hi1) = intervals
        assert abs(lo1 - lo0) <= 0.1 * lo0
        assert abs(hi1 - hi0) <= 0.1 * hi0

    def test_one_sided_subsolution_bound_p15(self):
        # with v a subsolution the ratio stays bounded above, and the bound
        # does not widen under refinement
        prob = interval_problem(p=1.5)
        maxima = []
        for n in (401, 801):
            g = build_grid(prob, (0.0, 1.0), n, law="uniform")
            v = make_field(g, 1.0 + (g.nodes - 0.5) ** 2)
            rng = np.random.default_rng(29)
            worst = 0.0
            for _ in range(100):
                w = random_compact_field(g, rng)
                vw = make_field(g, v.values * w.values)
                q = energy_Q(vw, prob).total
                uni = simplified_energy(v, w, prob).universal
                worst = max(worst, q / uni)
            maxima.append(worst)
        assert np.isfinite(maxima).all()
        assert maxima[1] <= 1.1 * maxima[0]


MP_EXPONENTS = [1.2, 1.5, 2.0, 3.0, 4.0]


@st.composite
def vector_pairs(draw):
    """(a, b) in R^3 with |b|/|a| log-uniform in [1e-3, 1e3] and |a| over
    four decades."""
    unit = st.floats(-1.0, 1.0)
    a = np.array(draw(st.tuples(unit, unit, unit)))
    bdir = np.array(draw(st.tuples(unit, unit, unit)))
    na, nd = np.linalg.norm(a), np.linalg.norm(bdir)
    assume(na >= 1e-2 and nd >= 1e-2)
    a *= 10.0 ** draw(st.floats(-2.0, 2.0)) / na
    b = bdir * (np.linalg.norm(a) * 10.0 ** draw(st.floats(-3.0, 3.0)) / nd)
    return a, b


class TestVectorInequality:
    def test_p2_exact(self):
        # the numerator is formed without cancellation, so the ratio stays 1
        # over the envelope's whole magnitude range
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = rng.normal(size=3)
            b = rng.normal(size=3) * 10.0 ** rng.uniform(-3.0, 3.0)
            r = vector_inequality_ratio(a, b, 2.0)
            assert abs(r.ratio - 1.0) <= 1e-12

    @pytest.mark.parametrize("p", MP_EXPONENTS)
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(pair=vector_pairs())
    @example(pair=((1.0, 2.0, 3.0), (-1.0, -2.0, -3.0)))  # b = -a
    @example(pair=((1.0, 2.0, 3.0), (-1.0, -2.0, -3.000001)))  # b near -a
    @example(pair=((0.3, 0.1, -2.0), (-0.3, -0.1, 2.0000000001)))
    @example(pair=((1.0, 0.0, 0.0), (0.0, 1e-3, 0.0)))  # b orthogonal to a
    @example(pair=((1.0, 0.0, 0.0), (0.0, 1e3, 0.0)))
    @example(pair=((1.0, 1.0, 0.0), (1.0, -1.0, 0.0)))
    def test_ratio_matches_mp(self, p, pair):
        a, b = pair
        ref = oracles.vector_ratio_mp(a, b, p)
        assert vector_inequality_ratio(a, b, p).ratio == pytest.approx(ref, rel=1e-11, abs=0)

    @pytest.mark.parametrize("p", MP_EXPONENTS)
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_envelope_matches_mp(self, p, seed):
        # the envelope's own draws, repeated in the same order
        n = 8
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, 3))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        bdir = rng.normal(size=(n, 3))
        bdir /= np.linalg.norm(bdir, axis=1, keepdims=True)
        b = bdir * np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=n))[:, None]
        refs = [oracles.vector_ratio_mp(x, y, p) for x, y in zip(a, b)]
        rep = vector_inequality_envelope(p, n, np.random.default_rng(seed))
        assert rep.c_min == pytest.approx(min(refs), rel=1e-11, abs=0)
        assert rep.c_max == pytest.approx(max(refs), rel=1e-11, abs=0)

    def test_b_zero_convention(self):
        r = vector_inequality_ratio(np.array([1.0, 0.0]), np.zeros(2), 3.0)
        assert r.ratio == 1.0 and r.degenerate

    def test_a_zero_ratio_is_one(self):
        r = vector_inequality_ratio(np.zeros(3), np.array([0.5, -2.0, 1.0]), 1.5)
        assert r.ratio == 1.0 and not r.degenerate

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            vector_inequality_ratio(np.zeros(2), np.zeros(2), 3.0)

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 4.0])
    def test_envelope_inside_dense_sweep(self, p):
        rng = np.random.default_rng(101)
        rep = vector_inequality_envelope(p, 20_000, rng)
        lo, hi = oracles.envelope_sweep(p, n_angle=241, n_mag=241)
        assert rep.c_min > 0.0 and np.isfinite(rep.c_max)
        assert rep.c_min >= lo * 0.95 - 1e-9
        assert rep.c_max <= hi * 1.05 + 1e-9


class TestPoincareResidual:
    def _setup(self, n=2001, half=16.0):
        prob = RadialProblem(2.0, 1, (-np.inf, np.inf), PotentialSpec.zero())
        g = build_grid(prob, (-half, half), n, law="uniform")
        v = make_field(g, np.ones(g.n))
        W = PotentialSpec.bump(0.0, 1.0, 1.0)
        psi = make_field(g, W.sample(g.nodes))
        return prob, g, v, W, psi

    def test_orthogonal_family_identity(self):
        prob, g, v, W, psi = self._setup()
        rng = np.random.default_rng(13)
        u = random_compact_field(g, rng, nonneg=False)
        odd = make_field(g, u.values - u.values[::-1])
        C = 3.7
        res = poincare_residual(odd, v, W, psi, C, prob)
        q = energy_Q(odd, prob).total
        mass = float(np.sum(W.sample(g.nodes) * odd.values**2 * g.node_w))
        assert res == pytest.approx(q - mass / C, rel=1e-12, abs=1e-12)

    def test_degenerate_psi_rejected(self):
        prob, g, v, W, _ = self._setup(n=201)
        odd_psi = make_field(g, np.sin(np.pi * g.nodes / 16.0))
        vals = odd_psi.values - odd_psi.values[::-1]
        with pytest.raises(PreconditionError):
            poincare_residual(v, v, W, make_field(g, vals), 1.0, prob)

    def test_feasible_constant_exists_in_critical_setup(self):
        # grid search over C: some C makes the residual nonnegative over a
        # fixed randomized family on the critical whole-line setup
        prob, g, v, W, psi = self._setup()
        rng = np.random.default_rng(97)
        family = [random_compact_field(g, rng, nonneg=False) for _ in range(100)]
        feasible = []
        for C in np.geomspace(1e-2, 1e3, 26):
            worst = min(
                poincare_residual(u, v, W, psi, float(C), prob) for u in family
            )
            feasible.append(worst >= 0.0)
        assert any(feasible)
