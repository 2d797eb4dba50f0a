"""Grids, fields, exhaustion schedules, potentials."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from pcrit import (
    CompactSetSpec,
    DomainError,
    ExhaustionSchedule,
    Field,
    PotentialSpec,
    RadialProblem,
    build_graded_grid,
    build_grid,
    make_exhaustion,
    make_field,
)


def line_problem(p=2.0):
    return RadialProblem(p, 1, (-np.inf, np.inf), PotentialSpec.zero())


def ball_problem(p=2.0, d=3):
    return RadialProblem(p, d, (0.0, np.inf), PotentialSpec.zero())


class TestBuildGrid:
    def test_uniform_three_nodes(self):
        prob = RadialProblem(2.0, 1, (0.0, np.inf), PotentialSpec.zero())
        g = build_grid(prob, (0.01, 1.0), 3, law="uniform")
        assert np.allclose(g.nodes, [0.01, 0.505, 1.0], rtol=0, atol=1e-15)

    def test_geometric_ratios_constant(self):
        prob = RadialProblem(2.0, 1, (0.0, np.inf), PotentialSpec.zero())
        g = build_grid(prob, (0.01, 1.0), 201, law="geometric")
        assert g.nodes[0] == 0.01
        assert g.nodes[-1] == 1.0
        ratios = g.nodes[1:] / g.nodes[:-1]
        assert np.allclose(ratios, ratios[0], rtol=1e-10)

    def test_weight_is_r_squared_in_d3(self):
        prob = ball_problem()
        g = build_grid(prob, (1.0, 2.0), 101, law="uniform")
        assert g.weight_exponent == 2
        # node weights are exact integrals of r^2 over the dual cells
        mids = 0.5 * (g.nodes[1:] + g.nodes[:-1])
        lo = np.concatenate([[g.nodes[0]], mids])
        hi = np.concatenate([mids, [g.nodes[-1]]])
        exact = (hi**3 - lo**3) / 3.0
        assert np.allclose(g.node_w, exact, rtol=1e-13, atol=0)
        # and the total is the exact integral over the level
        assert np.isclose(g.node_w.sum(), (8.0 - 1.0) / 3.0, rtol=1e-13)

    def test_cell_weights_use_midpoint_rule(self):
        # gradient cells carry w(midpoint) * h; slopes of piecewise-linear
        # fields are cellwise constants, so midpoint is the natural rule
        prob = ball_problem()
        g = build_grid(prob, (0.5, 3.0), 57, law="uniform")
        mids = 0.5 * (g.nodes[1:] + g.nodes[:-1])
        h = np.diff(g.nodes)
        assert np.allclose(g.cell_w, mids**2 * h, rtol=1e-13, atol=0)

    def test_too_few_nodes_rejected(self):
        prob = ball_problem()
        with pytest.raises(ValueError):
            build_grid(prob, (1.0, 2.0), 2)


class TestGridIdentity:
    def test_equality_is_a_bool_and_grids_hash(self):
        g1 = build_grid(ball_problem(), (0.0, 1.0), 5)
        g2 = build_grid(ball_problem(), (0.0, 1.0), 5)
        assert (g1 == g2) is False
        assert (g1 == g1) is True
        assert len({g1, g2, g1}) == 2
        f = make_field(g1, 1.0)
        assert (f == make_field(g1, 1.0)) is False
        assert {f: 1}[f] == 1

    def test_restrict_keeps_node_slice_and_weight_exponent(self):
        g = build_grid(ball_problem(d=3), (0.0, 2.0), 11)
        head, tail = g.restrict(0, 7), g.restrict(4)
        assert np.array_equal(head.nodes, g.nodes[:7])
        assert np.array_equal(tail.nodes, g.nodes[4:])
        assert head.weight_exponent == tail.weight_exponent == g.weight_exponent == 2.0
        assert head.natural_left and not tail.natural_left


class TestField:
    def test_at_reproduces_nodes_and_interpolates(self):
        prob = line_problem()
        g = build_grid(prob, (0.0, 1.0), 11, law="uniform")
        f = make_field(g, g.nodes**2)
        assert np.allclose(np.asarray(f.at(g.nodes)), g.nodes**2, atol=1e-15)
        # linear between nodes: value at a midpoint is the nodal average
        mid = 0.5 * (g.nodes[3] + g.nodes[4])
        expect = 0.5 * (g.nodes[3] ** 2 + g.nodes[4] ** 2)
        assert np.isclose(float(f.at(mid)), expect, atol=1e-15)

    def test_at_outside_interval_raises(self):
        prob = line_problem()
        g = build_grid(prob, (0.0, 1.0), 11, law="uniform")
        f = make_field(g, np.zeros(11))
        with pytest.raises(ValueError):
            f.at(1.5)


class TestExhaustion:
    def test_make_exhaustion_line_is_nested(self):
        prob = line_problem()
        ex = make_exhaustion(prob, 5, base=1.0, growth=2.0, style="line")
        ex.validate(prob)
        for (a0, b0), (a1, b1) in zip(ex.levels, ex.levels[1:]):
            assert a1 < a0 and b0 < b1

    def test_non_nested_schedule_rejected(self):
        prob = line_problem()
        ex = ExhaustionSchedule(((-2.0, 2.0), (-1.0, 4.0)), 0.0)
        with pytest.raises(ValueError):
            ex.validate(prob)

    def test_balls_share_center_endpoint(self):
        prob = ball_problem()
        ex = make_exhaustion(prob, 4, base=1.0, growth=2.0, style="balls")
        ex.validate(prob)
        assert all(a == 0.0 for a, _ in ex.levels)

    @pytest.mark.parametrize(
        "d, domain, picked",
        [
            (1, (-np.inf, np.inf), "line"),
            (3, (0.0, np.inf), "annuli"),
            (1, (0.0, np.inf), "halfline"),
            (3, (1.0, np.inf), "halfline"),
            (3, (0.0, 1.0), "shrink"),
            (1, (-1.0, 2.0), "shrink"),
        ],
    )
    def test_auto_style_follows_the_domain_shape(self, d, domain, picked):
        prob = RadialProblem(2.0, d, domain, PotentialSpec.zero())
        ex = make_exhaustion(prob, 5)
        ex.validate(prob)
        assert ex == make_exhaustion(prob, 5, style=picked)
        for (a0, b0), (a1, b1) in zip(ex.levels, ex.levels[1:]):
            assert a1 <= a0 and b0 <= b1 and (a1, b1) != (a0, b0)
        a, b = ex.levels[0]
        assert a < ex.x0 < b

    def test_repeated_interior_endpoint_rejected(self):
        # repeating a non-center endpoint breaks strict exhaustion growth
        prob = RadialProblem(2.0, 3, (1.0, np.inf), PotentialSpec.zero())
        ex = ExhaustionSchedule(((2.0, 4.0), (2.0, 8.0)), 3.0)
        with pytest.raises(ValueError):
            ex.validate(prob)


class TestGradedGrid:
    def test_contains_endpoints_and_focus_refinement(self):
        prob = ball_problem()
        g = build_graded_grid(prob, (0.001, 8.0), (0.001, 0.01), 401)
        assert g.nodes[0] == 0.001
        assert g.nodes[-1] == 8.0
        assert np.all(np.diff(g.nodes) > 0)
        steps = np.diff(g.nodes)
        inside = g.nodes[:-1] < 0.01
        assert steps[inside].max() < steps.max() / 10.0

    @settings(max_examples=300, deadline=None)
    @given(
        a=st.floats(-1e6, 1e6),
        span=st.floats(-3.0, 6.0).map(lambda e: 10.0**e),
        cut=st.tuples(st.floats(0.0, 1.0), st.floats(-6.0, 0.0)),
        at_zero=st.booleans(),
        resolution=st.integers(3, 1200),
    )
    @example(a=1.0, span=1e300, cut=(0.0, -299.0), at_zero=False, resolution=401)
    @example(a=-1.0, span=1e300, cut=(0.0, -310.0), at_zero=True, resolution=801)
    @example(a=-50.0, span=100.0, cut=(0.0, -2.0), at_zero=True, resolution=51)
    def test_matches_the_per_node_law(self, a, span, cut, at_zero, resolution):
        # levels that cross 0, focus windows at 0, spans up to 1e6 and level
        # ends at 1e300, one of them 310 decades from its window; the
        # builder runs whole regimes where the oracle steps node by node,
        # so the nodes agree to rounding
        b = a + span
        if at_zero and a < 0.0 < b:
            focus = (0.0, b * 10.0 ** cut[1])
        else:
            fa = a + cut[0] * (b - a)
            focus = (fa, fa + (b - fa) * 10.0 ** cut[1])
        # the focus window's own linspace must resolve its spacing
        assume((focus[1] - focus[0]) / (resolution - 1) > 1e-12 * max(map(abs, focus)))
        ref = oracles.graded_grid_nodes((a, b), focus, resolution)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            nodes = build_graded_grid(line_problem(), (a, b), focus, resolution).nodes
        assert nodes.size == ref.size
        assert np.max(np.abs(nodes - ref)) <= 1e-13 * max(abs(a), abs(b))
        assert np.all(np.diff(nodes) > 0)


class TestPotentials:
    def test_constant_and_power(self):
        r = np.linspace(0.5, 2.0, 9)
        assert np.allclose(PotentialSpec.constant(3.5).sample(r), 3.5)
        assert np.allclose(PotentialSpec.power(2.0, -2.0).sample(r), 2.0 / r**2)

    def test_power_reads_the_absolute_value_of_r(self):
        # c |r|^s as documented: on the whole line a negative r gave NaN for
        # a non-integer s and -|r|^s for an odd one
        assert PotentialSpec.power(1.0, 0.5)(np.array([-4.0]))[0] == 2.0
        r = np.array([-2.0, -0.5, 0.5, 2.0])
        assert np.array_equal(PotentialSpec.power(3.0, 3.0)(r), 3.0 * np.abs(r) ** 3)
        assert np.array_equal(PotentialSpec.power(1.0, -1.0)(r), 1.0 / np.abs(r))

    def test_bump_support_and_height(self):
        spec = PotentialSpec.bump(0.0, 1.0, 2.0)
        r = np.array([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0])
        vals = spec.sample(r)
        assert vals[0] == 0.0 and vals[1] == 0.0 and vals[4] == 0.0 and vals[5] == 0.0
        assert vals[2] == pytest.approx(2.0)
        assert 0.0 < vals[3] < 2.0

    def test_combination_sums(self):
        spec = PotentialSpec.combination(
            PotentialSpec.constant(1.0), PotentialSpec.bump(0.0, 1.0, 1.0), 1.0
        )
        r = np.array([0.0, 2.0])
        vals = spec.sample(r)
        assert vals[0] == pytest.approx(2.0)
        assert vals[1] == pytest.approx(1.0)


finite = st.floats(-5.0, 5.0)
simple_potential = st.one_of(
    st.just(PotentialSpec.zero()),
    st.builds(PotentialSpec.constant, finite),
    st.builds(PotentialSpec.power, finite, st.floats(-3.0, 3.0)),
    st.builds(PotentialSpec.bump, st.floats(-1.0, 4.0), st.floats(0.1, 3.0), finite),
)
any_potential = st.one_of(
    simple_potential,
    st.builds(PotentialSpec.log_reduced, simple_potential, st.floats(1.5, 4.0)),
    st.builds(PotentialSpec.combination, simple_potential, simple_potential, finite),
)


def term_magnitude(spec: PotentialSpec, r: np.ndarray) -> np.ndarray:
    """Sum of the absolute values of the spec's terms at r, the scale its
    rounding is relative to."""
    if spec.kind == "combo":
        base, other = spec.inner
        return term_magnitude(base, r) + abs(spec.coeffs[0]) * term_magnitude(other, r)
    if spec.kind == "logmap":
        return np.exp(spec.coeffs[0] * r) * term_magnitude(spec.inner, np.exp(r))
    return np.abs(spec(r))


class TestPotentialKinds:
    R = np.linspace(0.1, 3.0, 30)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(spec=any_potential, c=st.floats(-10.0, 10.0))
    def test_scaled_multiplies_the_values(self, spec, c):
        scale = abs(c) * term_magnitude(spec, self.R)
        assert np.all(np.abs(spec.scaled(c)(self.R) - c * spec(self.R)) <= 1e-14 * scale)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(spec=any_potential)
    def test_describe_names_each_kind(self, spec):
        text = spec.describe()
        assert text.startswith(spec.kind)
        if spec.kind in ("logmap", "combo"):
            inner = spec.inner if spec.kind == "combo" else (spec.inner,)
            assert all(part.describe() in text for part in inner)


class TestCompactSetSpec:
    def test_interior_set_needs_positive_width(self):
        with pytest.raises(ValueError):
            CompactSetSpec(2.0, 1.0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_set_may_touch_the_level_at_a_ball_center(self, d):
        CompactSetSpec(0.0, 1.0).require_inside((0.0, 4.0), ball_problem(d=d))

    @pytest.mark.parametrize(
        "k_lo, k_hi, level, d",
        [
            (0.0, 1.0, (0.0, 4.0), 1),  # r = 0 is no ball center in d = 1
            (0.5, 1.0, (0.5, 4.0), 3),  # left touch away from the center
            (0.5, 4.0, (0.0, 4.0), 3),  # right touch
            (0.0, 1.0, (0.5, 4.0), 3),  # the set sticks out on the left
        ],
    )
    def test_any_other_touch_raises(self, k_lo, k_hi, level, d):
        prob = RadialProblem(2.0, d, (0.0, np.inf), PotentialSpec.zero())
        with pytest.raises(DomainError):
            CompactSetSpec(k_lo, k_hi).require_inside(level, prob)
