"""Weak residuals, Dirichlet solves, principal eigenpairs, sign
classification, and the weak-comparison battery."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.linalg
from scipy.linalg import eigh, lapack, solveh_banded
from scipy.linalg.lapack import dpttrf

import oracles
from conftest import random_compact_field
from pcrit import (
    PotentialSpec,
    RadialProblem,
    SolverConfig,
    build_grid,
    classify_sign,
    make_field,
    principal_eigenpair,
    solve_dirichlet,
    wcp_check,
)
from pcrit import solver
from pcrit.energy import phi_p
from pcrit.errors import PreconditionError, StateError
from pcrit.solver import DiscreteOperator, smallest_generalized_eigen


def line_problem(p=2.0, V=None):
    pot = V if V is not None else PotentialSpec.zero()
    return RadialProblem(p, 1, (0.0, np.inf), pot)


@pytest.fixture
def newton_work(monkeypatch):
    """Newton iterations per solve and residual evaluations in all."""
    work = {"iterations": [], "evaluations": 0}
    core, residual_terms = solver._newton_core, DiscreteOperator.residual_terms

    def counted_core(*args, **kwargs):
        out = core(*args, **kwargs)
        work["iterations"].append(out[1])
        return out

    def counted_residual(self, u, load):
        work["evaluations"] += 1
        return residual_terms(self, u, load)

    monkeypatch.setattr(solver, "_newton_core", counted_core)
    monkeypatch.setattr(DiscreteOperator, "residual_terms", counted_residual)
    return work


@pytest.mark.parametrize("name", ["max_iter_per_stage", "eigen_max_iter"])
def test_negative_iteration_caps_are_refused(name):
    # a cap of -1 is never reached: a p = 1.2 solve under it ran past 60 s
    with pytest.raises(ValueError, match=f"{name} must be >= 0, got -1"):
        SolverConfig(**{name: -1})
    assert getattr(SolverConfig(**{name: 0}), name) == 0


class TestWeakResidual:
    def test_linear_field_has_zero_interior_residual(self):
        prob = line_problem(p=2.0)
        g = build_grid(prob, (0.0, 1.0), 64, law="uniform")
        op = DiscreteOperator.bind(prob, g)
        r = op.residual_terms(0.3 + 0.9 * g.nodes, op.load(None))[0]
        # interpolated slopes agree only to the last ulp across cells
        assert np.max(np.abs(r[g.free])) <= 1e-12

    def test_linear_field_general_p(self):
        prob = line_problem(p=3.0)
        g = build_grid(prob, (0.0, 1.0), 64, law="uniform")
        op = DiscreteOperator.bind(prob, g)
        r = op.residual_terms(2.0 - 1.5 * g.nodes, op.load(None))[0]
        assert np.max(np.abs(r[g.free])) <= 1e-12

    def test_negative_forcing_rejected(self):
        prob = line_problem()
        g = build_grid(prob, (0.0, 1.0), 32, law="uniform")
        f = make_field(g, np.full(g.n, -1.0))
        with pytest.raises(PreconditionError):
            solve_dirichlet(prob, g, (0.0, 0.0), f=f)


    def test_forcing_on_another_grid_rejected(self):
        # same node count, different nodes: the load must not be read off
        # the wrong grid by position
        prob = line_problem(p=3.0)
        g = build_grid(prob, (0.0, 1.0), 32, law="uniform")
        other = build_grid(prob, (0.0, 2.0), 32, law="uniform")
        u = make_field(g, np.sin(np.pi * g.nodes) + 0.2)
        f = make_field(other, np.ones(other.n))
        op = DiscreteOperator.bind(prob, g)
        with pytest.raises(ValueError):
            op.residual_terms(u.values, op.load(f))
        with pytest.raises(ValueError):
            solve_dirichlet(prob, g, (0.0, 0.0), f=f)


    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("height", [2.0, -2.0, 0.0], ids=["V>0", "V<0", "V=0"])
    @pytest.mark.parametrize("level", [(0.0, 4.0), (0.5, 4.0)], ids=["ball", "annulus"])
    def test_assembly_matches_the_two_pass_reference_bit_for_bit(self, p, height, level):
        # the residual, its scale and J as assembled before the one-pass
        # terms array: fluxes through phi_p, flux magnitudes accumulated
        # into zeros, and np.diff for the energy's cell differences.  A
        # load spike as large as the unforced scale at node j makes the
        # scale read node j's sum, so every node's sum is compared.
        prob = RadialProblem(p, 3, (0.0, np.inf), PotentialSpec.bump(1.5, 0.8, height))
        g = build_grid(prob, level, 201)
        op = DiscreteOperator.bind(prob, g)
        u = np.cos(3.0 * g.nodes) + 0.2  # negative on part of the level
        u[60] = u[59]  # a zero-slope cell
        unforced = op.load(None)
        spike = op.residual_terms(u, unforced)[1]
        loads = [unforced, g.node_w * np.exp(-g.nodes)]
        loads += [np.where(np.arange(g.n) == j, spike, 0.0) for j in range(g.n)]
        for load in loads:
            flux = phi_p(np.diff(u) / g.h, p) * (g.cell_w / g.h)
            pot = (g.node_w * op.vvals) * phi_p(u, p)
            flux_part = np.zeros_like(u)
            flux_part[:-1] += np.abs(flux)
            flux_part[1:] += np.abs(flux)
            scale = max(float((flux_part + np.abs(pot) + np.abs(load)).max()), 1e-300)
            r = np.empty_like(pot)
            r[0], r[-1] = -flux[0], flux[-1]
            r[1:-1] = flux[:-1] - flux[1:]
            r += pot - load
            q = float(np.dot(np.abs(flux), np.abs(np.diff(u)))) + float(np.dot(pot, u))
            energy = q / p - float(np.dot(load, u))

            r_op, scale_op, terms = op.residual_terms(u, load)
            assert r_op.tobytes() == r.tobytes()
            assert scale_op == scale
            assert op.energy(u, terms, load) == energy


class TestSolveDirichlet:
    def test_parabola_nodally_exact(self):
        prob = line_problem(p=2.0)
        g = build_grid(prob, (0.0, 1.0), 201, law="uniform")
        f = make_field(g, np.full(g.n, 2.0))
        rep = solve_dirichlet(prob, g, (0.0, 0.0), f=f)
        assert rep.converged
        exact = g.nodes * (1.0 - g.nodes)
        assert np.max(np.abs(rep.solution.values - exact)) <= 1e-12
        assert rep.solution.at(0.5) == pytest.approx(0.25, abs=1e-12)

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(p=st.sampled_from([1.5, 2.0, 3.0, 4.0]), exponent=st.floats(-3.0, 3.0))
    def test_solution_is_homogeneous_in_the_data(self, p, exponent):
        # Q' is (p - 1)-homogeneous: boundary c b and forcing c^(p-1) f
        # give c u
        c = 10.0**exponent
        prob = RadialProblem(p, 3, (0.0, np.inf), PotentialSpec.constant(1.0))
        g = build_grid(prob, (0.5, 3.0), 401)
        f = PotentialSpec.bump(1.5, 0.5, 2.0).sample(g.nodes)
        base = solve_dirichlet(prob, g, (1.0, 0.5), f=make_field(g, f))
        scaled = solve_dirichlet(prob, g, (c, 0.5 * c), f=make_field(g, c ** (p - 1.0) * f))
        assert base.converged and scaled.converged
        u = c * base.solution.values
        assert np.max(np.abs(scaled.solution.values - u)) <= 1e-7 * np.max(np.abs(u))

    def test_linear_reproduction_general_p(self):
        prob = line_problem(p=3.5)
        g = build_grid(prob, (0.0, 1.0), 101, law="uniform")
        rep = solve_dirichlet(prob, g, (0.3, 0.9))
        assert rep.converged
        exact = 0.3 + 0.6 * g.nodes
        assert np.max(np.abs(rep.solution.values - exact)) <= 1e-10

    def test_noise_floor_acceptance_near_harmonic(self):
        # a near-constant p = 3 solution: the residual's terms are far below
        # max(u)/h, so the relative gate sits under what the banded solve
        # can deliver and the solve is accepted at the rounding level
        prob = line_problem(p=3.0)
        g = build_grid(prob, (1.0, 1000.0), 4001)
        rep = solve_dirichlet(prob, g, (5.0, 5.001))
        op = DiscreteOperator.bind(prob, g)
        scale = op.residual_terms(rep.solution.values, op.load(None))[1]
        assert rep.converged
        assert rep.iterations < 10
        assert rep.final_residual_norm > 1e-8 * scale
        assert rep.final_residual_norm <= 1e-6 * scale

    def test_noise_floor_acceptance_far_below_the_relative_gate(self):
        # boundary data 1e-9 apart: the residual's terms (4e-18) are so
        # small that a one-ulp change of u moves the slopes by 1e-4 of
        # themselves, so the solve stalls at a rounding-level residual that
        # no relative gate on the terms can reach
        prob = RadialProblem(3.0, 3, (0.0, np.inf), PotentialSpec.zero())
        g = build_grid(prob, (1.0, 2.0), 401)
        rep = solve_dirichlet(prob, g, (1.0, 1.0 + 1e-9))
        op = DiscreteOperator.bind(prob, g)
        scale = op.residual_terms(rep.solution.values, op.load(None))[1]
        assert rep.converged is True  # a bool, as report.json needs
        assert rep.final_residual_norm > 1e-6 * scale
        assert rep.final_residual_norm <= 1e-20

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_noise_floor_does_not_accept_the_start(self, p):
        # boundary data 1e-6 apart: the rounding floor scales with the flux
        # terms' sensitivity to u, phi_p'(s), not with the flux terms at
        # unit slope, so the straight-line start, left unsolved, is refused
        prob = RadialProblem(p, 3, (0.0, np.inf), PotentialSpec.zero())
        g = build_grid(prob, (1.0, 2.0), 401)
        rep = solve_dirichlet(prob, g, (1.0, 1.0 + 1e-6), config=SolverConfig(max_iter_per_stage=0))
        assert rep.iterations == 0
        assert rep.converged is False

    def test_annulus_d3_matches_flux_oracle(self):
        prob = RadialProblem(2.0, 3, (0.0, np.inf), PotentialSpec.zero())
        g = build_grid(prob, (1.0, 2.0), 801, law="uniform")
        rep = solve_dirichlet(prob, g, (1.0, 0.0))
        assert rep.converged
        exact = 2.0 / g.nodes - 1.0
        assert np.max(np.abs(rep.solution.values - exact)) <= 1e-6
        mid = rep.solution.at(1.5)
        assert mid == pytest.approx(oracles.FROZEN["harmonic_d3_mid"], abs=1e-6)
        prof = oracles.two_point_flux_profile(3, 2.0, 1.0, 2.0, 1.0, 0.0)
        samples = np.linspace(1.05, 1.95, 7)
        for r in samples:
            assert rep.solution.at(float(r)) == pytest.approx(prof(r), abs=1e-6)

    def test_annulus_d4_p3_matches_flux_oracle(self):
        prob = RadialProblem(3.0, 4, (0.0, np.inf), PotentialSpec.zero())
        g = build_grid(prob, (1.0, 2.0), 801, law="uniform")
        rep = solve_dirichlet(prob, g, (1.0, 0.25))
        assert rep.converged
        prof = oracles.two_point_flux_profile(4, 3.0, 1.0, 2.0, 1.0, 0.25)
        err = max(
            abs(rep.solution.at(float(r)) - prof(r))
            for r in np.linspace(1.05, 1.95, 9)
        )
        assert err <= 1e-4

    def test_non_finite_residual_is_not_converged(self):
        # V = 1e306 overflows the potential term, so the residual and its
        # scale are infinite from the start; inf <= tol * inf must not pass
        # as convergence
        prob = RadialProblem(3.0, 3, (0.0, np.inf), PotentialSpec.constant(1e306))
        g = build_grid(prob, (1.0, 1000.0), 201)
        with np.errstate(over="ignore"):
            rep = solve_dirichlet(prob, g, (1.0, 1.0))
        assert rep.converged is False
        assert rep.iterations == 0
        assert rep.final_residual_norm == np.inf

    @pytest.mark.parametrize("failure", ["raises", "nan-step"])
    def test_failed_linear_solve_ends_unconverged(self, monkeypatch, failure):
        # one banded solve per Newton step: a singular Jacobian or a
        # non-finite step ends the solve with no retry, and it is reported
        # as failed
        calls = []

        def broken(*args, **kwargs):
            calls.append(args)
            if failure == "raises":
                raise np.linalg.LinAlgError("singular matrix")
            return np.full(args[2].size, np.nan)

        monkeypatch.setattr(solver, "solve_banded", broken)
        prob = RadialProblem(3.0, 3, (0.0, np.inf), PotentialSpec.constant(0.5))
        g = build_grid(prob, (1.0, 2.0), 101)
        rep = solve_dirichlet(prob, g, (1.0, 0.5))
        assert rep.converged is False
        assert rep.iterations == 0
        assert len(calls) == 2  # one failed step in the p = 2 start and one in the solve
        assert np.all(np.isfinite(rep.solution.values))

    def test_stage_cap_hits_are_logged(self, caplog):
        prob = RadialProblem(3.0, 4, (0.0, np.inf), PotentialSpec.zero())
        g = build_grid(prob, (1.0, 2.0), 801, law="uniform")
        with caplog.at_level("DEBUG", logger="pcrit.solver"):
            solve_dirichlet(prob, g, (1.0, 0.25), config=SolverConfig(max_iter_per_stage=1))
        assert any("iteration cap" in rec.getMessage() for rec in caplog.records)

    def test_p15_solve_never_reads_energy(self, monkeypatch, newton_work):
        # the CLI's solve config: energy acceptance at p = 1.5 doubled its
        # iterations (46) and left a rescaled p = 1.5 solve at its cap, so
        # below p = 2 the line search stays on the residual alone and the
        # iteration is the residual-only one, step for step
        def refused(self, *args):
            raise AssertionError("J read at p = 1.5")

        monkeypatch.setattr(DiscreteOperator, "energy", refused)
        prob = RadialProblem(1.5, 3, (0.0, np.inf), PotentialSpec.constant(1.0))
        g = build_grid(prob, (0.25, 8.0), 4001)
        f = make_field(g, PotentialSpec.bump(1.5, 0.3, 2.0).sample(g.nodes))
        rep = solve_dirichlet(prob, g, (0.5, 1.0), f=f)
        assert rep.converged
        assert (rep.iterations, newton_work["evaluations"]) == (22, 28)

    def test_capped_stages_stay_unconverged(self):
        # two iterations per Newton solve are too few for this forced p = 3
        # solve: one for its p = 2 start, and the solve stops at its cap
        prob = RadialProblem(3.0, 1, (0.0, 1.0), PotentialSpec.zero())
        g = build_grid(prob, (0.0, 1.0), 201)
        f = make_field(g, np.full(g.n, 5.0))
        assert solve_dirichlet(prob, g, (0.0, 1.0), f=f).converged
        rep = solve_dirichlet(prob, g, (0.0, 1.0), f=f, config=SolverConfig(max_iter_per_stage=2))
        assert rep.converged is False
        assert rep.iterations == 3

    def test_negative_boundary_rejected(self):
        prob = line_problem()
        g = build_grid(prob, (0.0, 1.0), 32, law="uniform")
        with pytest.raises(ValueError):
            solve_dirichlet(prob, g, (1.0, -0.5))


# eight cold Dirichlet shapes: (d, level, nodes, V, boundary); shapes 1-5
# have V >= 0, shapes 6-8 have V < 0 somewhere and a positive form
BASELINE_SHAPES = {
    1: (2, (0.0, 3.0), 801, PotentialSpec.constant(2.0), (None, 1.0)),
    2: (1, (0.0, 3.0), 801, PotentialSpec.constant(2.0), (1.0, 1.0)),
    3: (3, (0.5, 4.0), 1601, PotentialSpec.constant(1.0), (1.0, 0.5)),
    4: (3, (1.0, 1000.0), 2001, PotentialSpec.zero(), (1.0, 0.0)),
    5: (3, (0.0, 4.0), 801, PotentialSpec.bump(1.0, 0.5, 5.0), (None, 1.0)),
    6: (3, (0.5, 4.0), 1601, PotentialSpec.constant(-0.3), (1.0, 0.5)),
    7: (3, (0.0, 3.0), 801, PotentialSpec.constant(-0.3), (None, 1.0)),
    8: (3, (0.5, 4.0), 1601, PotentialSpec.bump(2.0, 0.5, -0.8), (1.0, 0.5)),
}


def _known_limit(reason):
    return pytest.mark.xfail(raises=AssertionError, strict=True, reason=reason)


@pytest.mark.parametrize(
    "p, shape",
    [(p, k) for p in (3.0, 4.0, 6.0) for k in range(1, 6)]
    + [(3.0, 6), (3.0, 7), (3.0, 8), (4.0, 6), (4.0, 7)]
    + [
        pytest.param(1.5, 4, marks=_known_limit("p < 2 exterior stops short (ROADMAP item 11)")),
        pytest.param(4.0, 8, marks=_known_limit("V < 0 bump at p = 4 (ROADMAP item 14)")),
    ]
    + [pytest.param(6.0, k, marks=_known_limit("V < 0 at p = 6 (ROADMAP item 14)")) for k in (6, 7, 8)],
    ids=lambda v: f"p{v:g}" if isinstance(v, float) else f"shape{v}",
)
def test_cold_solves_meet_the_gate_across_p(p, shape):
    # converged on the residual gate itself, checked on a fresh residual;
    # an acceptance through the rounding floor does not count
    d, level, nodes, potential, boundary = BASELINE_SHAPES[shape]
    prob = RadialProblem(p, d, (0.0, np.inf), potential)
    g = build_grid(prob, level, nodes)
    rep = solve_dirichlet(prob, g, boundary)
    op = DiscreteOperator.bind(prob, g)
    r, scale, _ = op.residual_terms(rep.solution.values, op.load(None))
    assert rep.converged
    assert np.max(np.abs(r[g.free])) <= SolverConfig().tol_for(p) * scale


class TestEigen:
    def test_p2_interval_matches_pi_squared(self):
        prob = line_problem(p=2.0)
        g = build_grid(prob, (0.0, 1.0), 2001, law="uniform")
        rep = principal_eigenpair(prob, g)
        assert rep.converged
        assert rep.lam == pytest.approx(np.pi**2, rel=1e-3)
        assert rep.lam == pytest.approx(oracles.FROZEN["eig_shoot_p2"], rel=1e-6)
        inner = rep.eigenfunction.values[1:-1]
        assert inner.min() > 0.0
        assert rep.eigenfunction.values[0] == 0.0
        assert rep.eigenfunction.values[-1] == 0.0

    def test_shooting_oracle_reproducible(self):
        live = oracles.shooting_eigenvalue(2.0)
        assert live == pytest.approx(oracles.FROZEN["eig_shoot_p2"], abs=1e-10)
        assert oracles.closed_form_eigenvalue(3.0, 1.0) == pytest.approx(
            oracles.FROZEN["eig_closed_p3"], abs=1e-12
        )

    def test_constant_shift_invariance(self):
        c = 2.31
        prob0 = line_problem(p=2.0)
        probc = line_problem(p=2.0, V=PotentialSpec.constant(c))
        g = build_grid(prob0, (0.0, 1.0), 501, law="uniform")
        r0 = principal_eigenpair(prob0, g)
        rc = principal_eigenpair(probc, g)
        assert rc.lam - r0.lam == pytest.approx(c, abs=1e-8)
        a = r0.eigenfunction.values / np.max(np.abs(r0.eigenfunction.values))
        b = rc.eigenfunction.values / np.max(np.abs(rc.eigenfunction.values))
        if np.dot(a, b) < 0:
            b = -b
        assert np.max(np.abs(a - b)) <= 1e-8

    def test_p2_negative_eigenvalue_through_the_shift(self):
        # V = -20 on (0, 1): lambda_1 = pi^2 - 20 < 0, so the pencil is
        # inverted with V shifted by 1 - min V = 21 and lambda read as the
        # quotient at the vector
        prob = line_problem(p=2.0, V=PotentialSpec.constant(-20.0))
        g = build_grid(prob, (0.0, 1.0), 801, law="uniform")
        rep = principal_eigenpair(prob, g)
        assert rep.converged
        assert rep.shift == 21.0
        assert rep.lam == pytest.approx(np.pi**2 - 20.0, abs=1e-4)
        assert rep.eigenfunction.values[1:-1].min() > 0.0

    def test_p3_matches_shooting(self):
        prob = line_problem(p=3.0)
        g = build_grid(prob, (0.0, 1.0), 1201, law="uniform")
        rep = principal_eigenpair(prob, g)
        assert rep.converged
        assert rep.lam == pytest.approx(oracles.FROZEN["eig_shoot_p3"], rel=5e-3)

    def test_p3_inner_solves_descend_on_energy(self, newton_work):
        # the CLI's eig config: with steps accepted on the residual alone,
        # two warm inner solves crept through 101 and 50 damped steps, 265
        # Newton iterations and 1,202 residual evaluations in all.  From the
        # p = 2 vector it takes 48 and 77; from a tent it took 85 and 151
        prob = RadialProblem(3.0, 3, (0.0, np.inf), PotentialSpec.constant(0.5))
        g = build_grid(prob, (0.5, 4.0), 1601)
        rep = principal_eigenpair(prob, g)
        assert rep.converged
        assert sum(newton_work["iterations"]) <= 60
        assert newton_work["evaluations"] <= 100
        assert rep.lam == pytest.approx(1.1056301757055367, rel=1e-12)


def tridiagonal_times(diag, off, v):
    out = diag * v
    out[:-1] += off * v[1:]
    out[1:] += off * v[:-1]
    return out


class TestTridiagonalKernel:
    @pytest.mark.parametrize("m", [1, 2, 3, 599, 4001])
    @pytest.mark.parametrize("kind", ["dominant", "indefinite"])
    def test_bits_match_scipy_solve_banded(self, m, kind):
        rng = np.random.default_rng(m)
        off = rng.normal(size=m - 1)
        if kind == "dominant":
            diag = rng.uniform(0.1, 1.0, m)
            diag[:-1] += np.abs(off)
            diag[1:] += np.abs(off)
        else:
            diag = rng.normal(size=m)
        rhs = rng.normal(size=m)
        ab = np.zeros((3, m))
        ab[0, 1:], ab[1], ab[2, :-1] = off, diag, off
        ref = scipy.linalg.solve_banded((1, 1), ab, rhs)
        x = solver.solve_banded(diag.copy(), off.copy(), rhs.copy())
        assert x.tobytes() == ref.tobytes()

    def test_singular_system_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            solver.solve_banded(np.ones(2), np.ones(1), np.ones(2))

    # solver binds dgtsv, dpttrf and dpttrs from scipy's LAPACK extension
    # module, which scipy.linalg.lapack re-exports: every output array and
    # info code must be scipy's to the bit
    @staticmethod
    def assert_same_outputs(name, *args):
        ours = getattr(solver, name)(*(a.copy() for a in args))
        ref = getattr(lapack, name)(*(a.copy() for a in args))
        assert len(ours) == len(ref)
        for x, y in zip(ours, ref):
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes()
        return ours

    @pytest.mark.parametrize("m", [2, 3, 599, 4001])
    def test_lapack_bindings_match_scipy_lapack(self, m):
        rng = np.random.default_rng(m)
        off = rng.normal(size=m - 1)
        diag = rng.uniform(0.1, 1.0, m)
        diag[:-1] += np.abs(off)
        diag[1:] += np.abs(off)
        rhs = rng.normal(size=m)
        assert self.assert_same_outputs("dgtsv", off, diag, off, rhs)[-1] == 0
        dl, el, info = self.assert_same_outputs("dpttrf", diag, off)
        assert info == 0
        assert self.assert_same_outputs("dpttrs", dl, el, rhs)[-1] == 0

    def test_lapack_bindings_match_on_an_indefinite_pencil(self):
        # shifted past the pencil's smallest eigenvalue, A - sigma M has a
        # negative pivot: dpttrf reports its order in info > 0
        n = 50
        diag, off, mass = np.full(n, 2.0), np.full(n - 1, -1.0), np.ones(n)
        assert self.assert_same_outputs("dpttrf", diag - 0.5 * mass, off)[-1] > 0

    def test_lapack_bindings_match_on_a_singular_system(self):
        info = self.assert_same_outputs("dgtsv", np.ones(1), np.ones(2), np.ones(1), np.ones(2))[-1]
        assert info > 0

    def test_tracer_kernel_names_resolve_to_scipy_linalg(self):
        # three names no solve calls, read by the benchmark's tracer only
        for name in ("eigh", "solveh_banded", "eigh_tridiagonal"):
            assert getattr(solver, name) is getattr(scipy.linalg, name)
        with pytest.raises(AttributeError):
            getattr(solver, "no_such_name")


# levels of a ball and an annulus, whose free blocks start at the center
# node and after the left Dirichlet node
JACOBIAN_LEVELS = pytest.mark.parametrize("level", [(0.0, 2.0), (1.0, 3.0)], ids=["ball", "annulus"])


def reference_jacobian(op, u):
    """The Jacobian as assembled before its potential weights were cached
    and a vanishing V skipped: every factor at every call."""
    g, p = op.grid, op.p
    lo, hi = g.free.start, g.free.stop
    s = (u[1:] - u[:-1]) / g.h
    s2_reg = s * s + solver.EPS * solver.EPS
    gp = s2_reg ** (0.5 * (p - 2.0)) * (1.0 + (p - 2.0) * s * s / s2_reg) * (g.cell_w / g.h)
    kcell = gp / g.h
    pot_w = (g.node_w * op.vvals)[lo:hi]
    if p > 2.0:
        pot_w = np.maximum(pot_w, 0.0)
    uf = u[lo:hi]
    pot = pot_w * (p - 1.0) * (uf * uf + solver.EPS * solver.EPS) ** (0.5 * (p - 2.0))
    diag = kcell[lo:hi].copy()
    diag[1 - lo :] += kcell[: hi - 1]
    diag += pot
    return diag, -kcell[lo : hi - 1]


class TestJacobian:
    @JACOBIAN_LEVELS
    def test_p2_is_the_residual_difference(self, level):
        # the residual is linear at p = 2, and V's sign is kept
        prob = RadialProblem(2.0, 3, (0.0, np.inf), PotentialSpec.bump(1.5, 0.5, -4.0))
        g = build_grid(prob, level, 301)
        op = DiscreteOperator.bind(prob, g)
        rng = np.random.default_rng(0)
        u = 1.0 + rng.uniform(0.0, 1.0, g.n)
        v = np.zeros(g.n)
        v[g.free] = rng.normal(size=v[g.free].size)
        load = op.load(None)
        r_u, scale, _ = op.residual_terms(u, load)
        r_uv = op.residual_terms(u + v, load)[0]
        diag, off = op.jacobian(u)
        jv = tridiagonal_times(diag, off, v[g.free])
        assert np.max(np.abs(jv - (r_uv - r_u)[g.free])) <= 1e-13 * scale

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    @JACOBIAN_LEVELS
    def test_matches_central_difference(self, p, level):
        # V >= 0 is not clipped, and slopes near -2 keep the EPS
        # regularization far below the difference's accuracy
        prob = RadialProblem(p, 3, (0.0, np.inf), PotentialSpec.bump(1.5, 0.5, 3.0))
        g = build_grid(prob, level, 301)
        op = DiscreteOperator.bind(prob, g)
        u = 1.0 + 2.0 * (level[1] - g.nodes) + 0.3 * np.sin(g.nodes)
        rng = np.random.default_rng(1)
        v = np.zeros(g.n)
        v[g.free] = rng.normal(size=v[g.free].size)
        t, load = 1e-6, op.load(None)
        r_plus = op.residual_terms(u + t * v, load)[0]
        r_minus = op.residual_terms(u - t * v, load)[0]
        fd = ((r_plus - r_minus) / (2.0 * t))[g.free]
        jv = tridiagonal_times(*op.jacobian(u), v[g.free])
        assert np.max(np.abs(jv - fd)) <= 1e-5 * np.max(np.abs(jv))

    @pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
    @JACOBIAN_LEVELS
    def test_positive_definite_where_v_is_negative(self, p, level):
        # a deep well under a flat stretch of u: V's negative part outweighs
        # the regularized flux there, so only its clipping at p > 2 keeps
        # the matrix positive definite
        prob = RadialProblem(p, 3, (0.0, np.inf), PotentialSpec.bump(1.5, 0.3, -1e3))
        g = build_grid(prob, level, 301)
        op = DiscreteOperator.bind(prob, g)
        u = 1.0 + np.maximum(g.nodes - 1.8, 0.0)
        assert np.min(op.vvals) < 0.0 and np.max(op.vvals) == 0.0
        diag, off = op.jacobian(u)
        assert dpttrf(diag, off)[2] == 0

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("height", [2.0, -2.0, 0.0], ids=["V>0", "V<0", "V=0"])
    @JACOBIAN_LEVELS
    def test_matches_the_uncached_reference_bit_for_bit(self, p, height, level):
        prob = RadialProblem(p, 3, (0.0, np.inf), PotentialSpec.bump(1.5, 0.8, height))
        g = build_grid(prob, level, 201)
        op = DiscreteOperator.bind(prob, g)
        u = np.cos(3.0 * g.nodes) + 0.2  # negative on part of the level
        u[60] = u[59]  # a zero-slope cell
        for v in (u, np.zeros(g.n)):
            for got, want in zip(op.jacobian(v), reference_jacobian(op, v)):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shift", [0.0, 1.7])
    @pytest.mark.parametrize("height", [2.0, -2.0, 0.0], ids=["V>0", "V<0", "V=0"])
    @JACOBIAN_LEVELS
    def test_p2_form_is_the_jacobian_at_zero(self, shift, height, level):
        # the matrix the p = 2 pencil, the inertia test and the cold p != 2
        # start read, at any p of the operator
        prob = RadialProblem(2.0, 3, (0.0, np.inf), PotentialSpec.bump(1.5, 0.8, height))
        g = build_grid(prob, level, 201)
        vvals = DiscreteOperator.bind(prob, g).vvals
        want = reference_jacobian(DiscreteOperator(2.0, g, vvals + shift), np.zeros(g.n))
        for p in (2.0, 3.0):
            got = DiscreteOperator(p, g, vvals)._p2_form(vvals + shift)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


class TestTorsionBound:
    @pytest.mark.parametrize("shape", sorted(BASELINE_SHAPES))
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_bound_lies_below_lambda_1(self, p, shape):
        # the Dirichlet problem on each Baseline shape's level.  The quotient
        # at any vector lies above the discrete lambda_1, so the eigensolve's
        # quotient bounds mu whether or not it converged (it does not at
        # p = 1.5 on shape 8).  Measured: mu reads 0.09 to 0.93 of it, and is None
        # exactly where lambda_1 < 0 (p = 4, shape 8)
        d, level, nodes, potential, _ = BASELINE_SHAPES[shape]
        prob = RadialProblem(p, d, (0.0, np.inf), potential)
        op = DiscreteOperator.bind(prob, build_grid(prob, level, nodes))
        mu = op.torsion_bound(SolverConfig())
        eig = op.eigenpair(SolverConfig())
        if eig.lam > 0.0:
            assert mu is not None and 0.0 < mu <= eig.lam
        else:
            assert mu is None

    @pytest.mark.parametrize("p, V, lam", [(2.0, -20.0, -10.13), (3.0, -60.0, -31.71)])
    def test_no_bound_below_zero(self, p, V, lam):
        prob = line_problem(p=p, V=PotentialSpec.constant(V))
        op = DiscreteOperator.bind(prob, build_grid(prob, (0.0, 1.0), 401, law="uniform"))
        assert op.eigenpair(SolverConfig()).lam == pytest.approx(lam, abs=0.01)
        assert op.torsion_bound(SolverConfig()) is None

    def test_wcp_without_lambda_refuses_a_negative_eigenvalue(self):
        # u1 = u2 = 0 meets every other hypothesis, so the eigenvalue
        # fallback behind the missing bound is what refuses the level
        prob = line_problem(p=2.0, V=PotentialSpec.constant(-20.0))
        g = build_grid(prob, (0.0, 1.0), 401, law="uniform")
        zero = make_field(g, np.zeros(g.n))
        with pytest.raises(PreconditionError, match=r"hypotheses failed: lambda_1 > 0 on the level$"):
            wcp_check(zero, zero, prob)

    # p = 3 on (0, 1): lambda_1 = (p - 1) pi_p^p - 30 = -1.71 < 0 at V = -30,
    # so there is no torsion bound, while the quotient at the start, the
    # p = 2 vector, is 1.006
    def test_unconverged_positive_quotient_is_no_lower_bound(self):
        prob = line_problem(p=3.0, V=PotentialSpec.constant(-30.0))
        op = DiscreteOperator.bind(prob, build_grid(prob, (0.0, 1.0), 401, law="uniform"))
        assert op.lambda_1_lower(SolverConfig()) == pytest.approx(-1.71, abs=0.01)
        with pytest.raises(StateError, match=r"did not converge \(quotient 1\.006e\+00 > 0\)"):
            op.lambda_1_lower(SolverConfig(eigen_max_iter=0))

    def test_unconverged_nonpositive_quotient_is_returned(self):
        # a quotient <= 0 at any vector shows lambda_1 <= 0, converged or not
        prob = line_problem(p=3.0, V=PotentialSpec.constant(-60.0))
        op = DiscreteOperator.bind(prob, build_grid(prob, (0.0, 1.0), 401, law="uniform"))
        assert op.lambda_1_lower(SolverConfig(eigen_max_iter=0)) == pytest.approx(-28.99, abs=0.01)


class TestRequireNonnegative:
    def test_inertia_test_needs_p_2(self, nonnegativity_work):
        # at p != 2 the Jacobian at 0 is not the form, and no factorization
        # decides the sign of lambda_1: the rule runs the eigensolve, whose
        # only factorizations are the p = 2 start's
        prob = line_problem(p=3.0)
        op = DiscreteOperator.bind(prob, build_grid(prob, (0.0, 1.0), 21, law="uniform"))
        factors, eigensolves = nonnegativity_work
        op.require_nonnegative(SolverConfig())
        assert eigensolves == [op] and factors == []

    # p = 3 on (0, 1): lambda_1 = (p - 1) pi_p^p - 30 = -1.71 at V = -30,
    # while the quotient at the p = 2 start is 1.006 (see
    # test_unconverged_positive_quotient_is_no_lower_bound)
    def test_unconverged_quotient_above_the_floor_shows_nothing(self):
        prob = line_problem(p=3.0, V=PotentialSpec.constant(-30.0))
        op = DiscreteOperator.bind(prob, build_grid(prob, (0.0, 1.0), 401, law="uniform"))
        with pytest.raises(PreconditionError, match=r"principal eigenvalue -1\.71"):
            op.require_nonnegative(SolverConfig())
        with pytest.raises(StateError, match=r"did not converge \(quotient 1\.006e\+00 > -1e-09\)"):
            op.require_nonnegative(SolverConfig(eigen_max_iter=0))


class TestHeldRuns:
    def test_failed_run_names_its_nodes(self):
        # V = 1 makes the straight start miss the gate, and no Newton step
        # is allowed
        prob = line_problem(p=3.0, V=PotentialSpec.constant(1.0))
        op = DiscreteOperator.bind(prob, build_grid(prob, (0.0, 1.0), 21, law="uniform"))
        held = np.arange(21) == 10
        u = op.held_runs(held, np.ones(21), SolverConfig())
        assert u[10] == 1.0 and u[0] == u[-1] == 0.0
        with pytest.raises(StateError, match=r"^held-run solve failed to converge on nodes 0\.\.10$"):
            op.held_runs(held, np.ones(21), SolverConfig(max_iter_per_stage=0))


def dense_partial_mass_eigen(diag, off, mass):
    """Reference for the partial-mass pencil through dense algebra: lam is
    1 / nu for the largest eigenvalue nu of M^(1/2) A^(-1) M^(1/2) on the
    support, and x = A^(-1) M^(1/2) y for its unit eigenvector y, scaled to
    x^T M x = 1."""
    m = diag.size
    ab = np.zeros((2, m))
    ab[0, 1:] = off
    ab[1, :] = diag
    support = np.flatnonzero(mass > 0)
    rhs = np.zeros((m, support.size))
    rhs[support, np.arange(support.size)] = 1.0
    x = solveh_banded(ab, rhs)
    sq = np.sqrt(mass[support])
    t_mat = sq[:, None] * x[support, :] * sq[None, :]
    vals, vecs = eigh(0.5 * (t_mat + t_mat.T))
    vec = x @ (sq * vecs[:, -1])
    vec /= np.sqrt(np.sum(mass * vec * vec))
    return 1.0 / vals[-1], vec if vec[np.argmax(np.abs(vec))] > 0 else -vec


def rayleigh(diag, off, mass, x):
    """The pencil's quotient at x, the eigenvalue its callers read."""
    return float(diag @ (x * x) + 2.0 * off @ (x[:-1] * x[1:])) / float(mass @ (x * x))


def laplacian_pencil(m, rng):
    """A stiffness-like positive definite tridiagonal A of order m: random
    cell couplings plus a positive potential."""
    k = rng.uniform(0.5, 2.0, m + 1)
    return k[:-1] + k[1:] + rng.uniform(0.0, 0.1, m), -k[1:-1]


def windows(m, spans, rng):
    mass = np.zeros(m)
    for lo, hi in spans:
        mass[lo:hi] = rng.uniform(0.5, 2.0, hi - lo)
    return mass


def graded_mass(m):
    # a bump whose mass falls from 1 to 1e-211 at the window ends
    mass = np.zeros(m)
    t = np.linspace(-1.0, 1.0, 41)
    mass[20:61] = 10.0 ** (-211.0 * t**2)
    return mass


PARTIAL_MASS = {
    "one-window": (80, lambda rng: windows(80, [(30, 50)], rng)),
    "several-windows": (90, lambda rng: windows(90, [(5, 12), (30, 31), (40, 70), (72, 80)], rng)),
    "touches-left-end": (60, lambda rng: windows(60, [(0, 25)], rng)),
    "touches-right-end": (60, lambda rng: windows(60, [(35, 60)], rng)),
    "touches-both-ends": (60, lambda rng: windows(60, [(0, 10), (50, 60)], rng)),
    "single-node": (50, lambda rng: windows(50, [(17, 18)], rng)),
    "graded-to-1e-211": (80, lambda rng: graded_mass(80)),
    "random-holes": (70, lambda rng: np.where(rng.random(70) < 0.6, rng.uniform(0.5, 2.0, 70), 0.0)),
}


class TestSmallestGeneralizedEigen:
    @pytest.mark.parametrize("case", sorted(PARTIAL_MASS))
    def test_partial_mass_matches_dense_reference(self, case):
        m, make_mass = PARTIAL_MASS[case]
        rng = np.random.default_rng(sorted(PARTIAL_MASS).index(case))
        diag, off = laplacian_pencil(m, rng)
        mass = make_mass(rng)
        assert 0 < np.count_nonzero(mass) < m
        vec = smallest_generalized_eigen(diag, off, mass)
        lam_ref, vec_ref = dense_partial_mass_eigen(diag, off, mass)
        assert rayleigh(diag, off, mass, vec) == pytest.approx(lam_ref, rel=1e-10)
        assert np.max(np.abs(vec - vec_ref)) <= 1e-10 * np.max(np.abs(vec_ref))

    @pytest.mark.parametrize(
        "m, window, exact",
        [(3, (1, 2), 1.0), (7, (3, 4), 0.5), (8, (3, 5), 0.25)],
        ids=["one-node-of-3", "one-node-of-7", "two-nodes-of-8"],
    )
    def test_integer_pencil_with_a_window(self, m, window, exact):
        # A = tridiag(-1, 2, -1): eliminating a run of k nodes next to the
        # window takes k / (k + 1) off the diagonal there, so these pencils'
        # smallest eigenvalues are dyadic and exactly representable
        diag, off = 2.0 * np.ones(m), -np.ones(m - 1)
        mass = np.zeros(m)
        mass[window[0] : window[1]] = 1.0
        vec = smallest_generalized_eigen(diag, off, mass)
        lam = rayleigh(diag, off, mass, vec)
        lam_ref, vec_ref = dense_partial_mass_eigen(diag, off, mass)
        assert lam == pytest.approx(exact, rel=1e-14)
        assert lam == pytest.approx(lam_ref, rel=1e-10)
        assert np.max(np.abs(vec - vec_ref)) <= 1e-10 * np.max(np.abs(vec_ref))

    @pytest.mark.parametrize("m", [50, 70, 110, 190])
    def test_two_near_equal_wells_need_refinement_rounds(self, m, monkeypatch):
        # mirrored windows whose masses differ by 1e-3 put lambda_2 within
        # about 1e-3 of lambda_1, so one round's 8 steps at a factor-2
        # bracket cannot settle the vector; one dpttrf call per bisection,
        # since each round reuses the factors of the bracket's lower end
        # (a factorization per round as well took 8 to 18, a 1e-6 bracket 28)
        calls = []
        factor = solver.dpttrf

        def counted_factor(*args):
            calls.append(0)
            return factor(*args)

        monkeypatch.setattr(solver, "dpttrf", counted_factor)
        diag, off = 2.0 * np.ones(m), -np.ones(m - 1)
        mass = np.zeros(m)
        mass[10:15] = 1.0
        mass[m - 15 : m - 10] = 1.0 + 1e-3
        vec = smallest_generalized_eigen(diag, off, mass)
        lam_ref, vec_ref = dense_partial_mass_eigen(diag, off, mass)
        assert rayleigh(diag, off, mass, vec) == pytest.approx(lam_ref, rel=1e-10)
        assert np.max(np.abs(vec - vec_ref)) <= 1e-10 * np.max(np.abs(vec_ref))
        assert len(calls) <= 12

    @pytest.mark.parametrize("branch", ["full-mass", "partial-mass"])
    def test_vector_has_unit_mass(self, branch):
        rng = np.random.default_rng(3)
        diag, off = laplacian_pencil(40, rng)
        mass = rng.uniform(0.5, 2.0, 40) if branch == "full-mass" else windows(40, [(10, 25)], rng)
        vec = smallest_generalized_eigen(diag, off, mass)
        assert float(np.sum(mass * vec * vec)) == pytest.approx(1.0, rel=1e-13)

    def test_pencil_of_order_one(self):
        # dpttrf takes no empty off-diagonal; the vector is 1 / sqrt(mass)
        vec = smallest_generalized_eigen(np.array([3.0]), np.empty(0), np.array([0.7]))
        assert vec.shape == (1,) and vec[0] > 0
        assert float(0.7 * vec[0] ** 2) == pytest.approx(1.0, rel=1e-15)
        for diag in (0.0, -1.0):
            with pytest.raises(PreconditionError):
                smallest_generalized_eigen(np.array([diag]), np.empty(0), np.array([0.7]))

    @pytest.mark.parametrize("negative_at", ["complement", "support", "full-mass"])
    def test_indefinite_form_raises_precondition_error(self, negative_at):
        # the indefinite part sits where the mass vanishes, on the window,
        # or under a mass that vanishes nowhere (the pencil's smallest
        # eigenvalue is then about -5.28)
        m = 20
        diag, off = 2.0 * np.ones(m), -np.ones(m - 1)
        diag[3 if negative_at == "complement" else 10] = -5.0
        mass = np.zeros(m)
        mass[8:13] = 1.0
        if negative_at == "full-mass":
            mass[:] = 1.0
        with pytest.raises(PreconditionError):
            smallest_generalized_eigen(diag, off, mass)

    def test_failed_vector_solve_raises_precondition_error(self, monkeypatch):
        # a finite vector with a nonzero info: only the info check catches it
        def singular(d, e, b):
            return np.ones_like(b), 1

        monkeypatch.setattr(solver, "dpttrs", singular)
        mass = np.zeros(10)
        mass[3:6] = 1.0
        with pytest.raises(PreconditionError):
            smallest_generalized_eigen(2.0 * np.ones(10), -np.ones(9), mass)

    def test_subnormal_pencil_ends_with_precondition_error(self):
        # the bracket runs out of subnormal digits before its relative width
        # reaches 1e-6, and the inverse iteration overflows
        m = 10
        with np.errstate(all="ignore"), pytest.raises(PreconditionError):
            smallest_generalized_eigen(2e-318 * np.ones(m), -1e-318 * np.ones(m - 1), np.ones(m))

    @pytest.mark.parametrize("m", [8, 13, 40])
    @pytest.mark.parametrize("branch", ["full-mass", "partial-mass"])
    def test_vector_is_positively_oriented(self, m, branch):
        diag, off = 2.0 * np.ones(m), -np.ones(m - 1)
        if branch == "full-mass":
            mass = np.linspace(1.0, 2.0, m)
        else:
            mass = np.zeros(m)
            mass[m // 3 : 2 * m // 3] = 1.0
        vec = smallest_generalized_eigen(diag, off, mass)
        assert vec[np.argmax(np.abs(vec))] > 0
        # the principal vector of an irreducible M-matrix pencil is one-signed
        assert np.all(vec > 0)


class TestClassifySign:
    def test_solved_field_is_solution(self):
        prob = RadialProblem(2.0, 3, (0.0, np.inf), PotentialSpec.zero())
        g = build_grid(prob, (1.0, 2.0), 401, law="uniform")
        rep = solve_dirichlet(prob, g, (1.0, 0.0))
        cls = classify_sign(rep.solution, prob, tol=1e-8)
        assert cls.kind == "solution"

    @pytest.mark.parametrize("p,d", [(1.5, 1), (2.0, 3), (3.0, 2)])
    def test_constant_one_is_solution(self, p, d):
        prob = RadialProblem(p, d, (0.0, np.inf), PotentialSpec.zero())
        g = build_grid(prob, (1.0, 2.0), 101, law="uniform")
        u = make_field(g, np.ones(g.n))
        assert classify_sign(u, prob, tol=1e-10).kind == "solution"

    def test_algebraic_decay_supersolution_d3(self):
        prob = RadialProblem(2.0, 3, (0.0, np.inf), PotentialSpec.zero())
        g = build_grid(prob, (0.5, 8.0), 1601, law="uniform")
        u = make_field(g, (1.0 + g.nodes**2) ** -0.5)
        cls = classify_sign(u, prob, tol=1e-10)
        assert cls.kind == "supersolution"
        assert cls.min_residual >= 0.0

    def test_algebraic_decay_supersolution_d4_p3(self):
        prob = RadialProblem(3.0, 4, (0.0, np.inf), PotentialSpec.zero())
        g = build_grid(prob, (0.5, 8.0), 1601, law="uniform")
        u = make_field(g, (1.0 + g.nodes**1.5) ** (-1.0 / 3.0))
        cls = classify_sign(u, prob, tol=1e-10)
        assert cls.kind == "supersolution"

    def test_convex_positive_is_subsolution(self):
        prob = line_problem(p=2.0)
        g = build_grid(prob, (0.0, 1.0), 201, law="uniform")
        u = make_field(g, 1.0 + (g.nodes - 0.5) ** 2)
        assert classify_sign(u, prob, tol=1e-10).kind == "subsolution"

    def test_oscillating_is_neither(self):
        prob = line_problem(p=2.0)
        g = build_grid(prob, (0.0, 1.0), 201, law="uniform")
        u = make_field(g, 1.5 + np.sin(2.0 * np.pi * g.nodes))
        assert classify_sign(u, prob, tol=1e-8).kind == "neither"

    def test_negative_field_rejected(self):
        prob = line_problem()
        g = build_grid(prob, (0.0, 1.0), 32, law="uniform")
        u = make_field(g, np.sin(2.0 * np.pi * g.nodes))
        with pytest.raises(PreconditionError):
            classify_sign(u, prob, tol=1e-8)


def _ordered_pair(prob, g, rng):
    """Solve a randomly ordered data pair: f1 <= f2, b1 <= b2, all >= 0."""
    f2_vals = random_compact_field(g, rng).values * rng.uniform(0.5, 2.0)
    f1_vals = f2_vals * rng.uniform(0.0, 1.0)
    b2 = (rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
    b1 = (b2[0] * rng.uniform(0.0, 1.0), b2[1] * rng.uniform(0.0, 1.0))
    r1 = solve_dirichlet(prob, g, b1, f=make_field(g, f1_vals))
    r2 = solve_dirichlet(prob, g, b2, f=make_field(g, f2_vals))
    assert r1.converged and r2.converged
    return r1.solution, r2.solution


class TestWcp:
    def test_identical_fields_pass(self):
        prob = line_problem(p=2.0)
        g = build_grid(prob, (0.0, 1.0), 101, law="uniform")
        f = make_field(g, np.full(g.n, 1.0))
        rep = solve_dirichlet(prob, g, (0.2, 0.4), f=f)
        out = wcp_check(rep.solution, rep.solution, prob)
        assert out.ok and out.max_violation <= 0.0
        assert out.lambda_1 > 0.0

    def test_vertical_shift_pair(self):
        prob = line_problem(p=3.0)
        g = build_grid(prob, (0.0, 1.0), 101, law="uniform")
        base = solve_dirichlet(prob, g, (0.1, 0.6)).solution
        upper = make_field(g, base.values + 0.5)
        out = wcp_check(base, upper, prob)
        assert out.ok

    def test_swapped_order_rejected(self):
        prob = line_problem(p=2.0)
        g = build_grid(prob, (0.0, 1.0), 101, law="uniform")
        rng = np.random.default_rng(0)
        u1, u2 = _ordered_pair(prob, g, rng)
        with pytest.raises(PreconditionError):
            wcp_check(u2, u1, prob)

    def test_battery_500_trials(self):
        rng = np.random.default_rng(2024)
        potentials = [
            PotentialSpec.zero(),
            PotentialSpec.constant(0.3),
            PotentialSpec.bump(0.5, 0.3, 0.7),
        ]
        failures = []
        # 300 linear-case trials with assorted potentials
        prob_cache = {}
        for k in range(300):
            pot = potentials[k % 3]
            prob = line_problem(p=2.0, V=pot)
            g = prob_cache.setdefault(
                ("g", 151), build_grid(prob, (0.0, 1.0), 151, law="uniform")
            )
            u1, u2 = _ordered_pair(prob, g, rng)
            out = wcp_check(u1, u2, prob)
            if not out.ok:
                failures.append((k, out.max_violation))
        # 200 nonlinear trials, exponent on both sides of 2
        for p in (1.5, 3.0):
            prob = line_problem(p=p)
            g = build_grid(prob, (0.0, 1.0), 101, law="uniform")
            lam = oracles.closed_form_eigenvalue(p, 1.0)
            for k in range(100):
                u1, u2 = _ordered_pair(prob, g, rng)
                out = wcp_check(u1, u2, prob, lambda_1=lam)
                if not out.ok:
                    failures.append((p, k, out.max_violation))
        assert failures == []
