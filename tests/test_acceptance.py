"""Acceptance gate: one test per numbered criterion.

Each test funnels its verdict through the shared recorder so the terminal
summary ends with one PASS/FAIL line per criterion.  Heavy exhaustion runs
are shared between criteria through module fixtures.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from conftest import random_compact_field
from pcrit import (
    CompactSetSpec,
    ExhaustionSchedule,
    Field,
    Grid,
    PotentialSpec,
    RadialProblem,
    build_grid,
    classify_sign,
    comparison_check,
    criticality_verdict,
    energy_Q,
    ground_state,
    make_exhaustion,
    make_field,
    minimal_growth_certificate,
    picone_density,
    picone_gap,
    point_singularity_solution,
    principal_eigenpair,
    q_capacity,
    simplified_energy,
    singularity_exponent,
    solve_dirichlet,
    uK_limit,
    vector_inequality_envelope,
    wcp_check,
)


def ray(d, p=2.0):
    return RadialProblem(float(p), int(d), (0.0, np.inf), PotentialSpec.zero())


def line(p=2.0):
    return RadialProblem(float(p), 1, (-np.inf, np.inf), PotentialSpec.zero())


def log_levels(count):
    return tuple((-(2.0**k), 2.0**k) for k in range(1, count + 1))


# criterion 5 runs three critical and two subcritical configurations; the
# null-sequence entries of the critical ones feed criterion 11 as well
@pytest.fixture(scope="module")
def critical_runs():
    out = {}
    prob = line()
    ex = make_exhaustion(prob, 15, base=1.0, growth=2.0, style="line")
    out["d=1 p=2"] = (prob, ex, 801, "auto",
                      criticality_verdict(prob, ex, resolution=801))
    prob = ray(2)
    ex = ExhaustionSchedule(log_levels(15), 0.0)
    out["d=2 p=2"] = (prob, ex, 801, "log",
                      criticality_verdict(prob, ex, resolution=801, frame="log"))
    prob = ray(3, p=3.0)
    ex = ExhaustionSchedule(log_levels(9), 0.0)
    out["d=3 p=3"] = (prob, ex, 601, "log",
                      criticality_verdict(prob, ex, resolution=601, frame="log"))
    return out


@pytest.fixture(scope="module")
def subcritical_runs():
    out = {}
    for d, p, count in ((3, 2.0, 9), (4, 3.0, 15)):
        prob = ray(d, p=p)
        ex = make_exhaustion(prob, count, base=1.0, growth=2.0, style="annuli")
        out[f"d={d} p={p:g}"] = (
            prob, ex, criticality_verdict(prob, ex, resolution=601)
        )
    return out


@pytest.fixture(scope="module")
def decay_pair():
    """Half-line d=3 setup shared by criteria 9 and 10: master grid, the
    1/r candidate, and its decay certificate."""
    prob = ray(3)
    nodes = np.geomspace(0.5, 2.0**13 * 1.01, 2001)
    grid = Grid(nodes, 2)
    u = Field(grid, 1.0 / nodes)
    ex = ExhaustionSchedule(tuple((0.0, float(2**k)) for k in range(3, 14)), 1.0)
    cert = minimal_growth_certificate(
        prob, u, CompactSetSpec(0.0, 2.0), (3.0, 4.0), ex, resolution=601
    )
    return prob, grid, u, ex, cert


def test_criterion_01_picone(criterion):
    pairs = 0
    min_density = np.inf
    worst_gap = 0.0
    for p in (1.5, 2.0, 3.0):
        for V, b in ((PotentialSpec.zero(), 0.6), (PotentialSpec.constant(0.4), 1.4)):
            prob = RadialProblem(p, 1, (0.0, 1.0), V)
            g = build_grid(prob, (0.0, 1.0), 4000, law="uniform")
            rep = solve_dirichlet(prob, g, (1.0, b))
            assert rep.converged
            rng = np.random.default_rng(101)
            for _ in range(167):
                u = random_compact_field(g, rng)
                q = energy_Q(u, prob).total
                den = picone_density(u, rep.solution, prob)
                gap = abs(picone_gap(u, rep.solution, prob)) / (1.0 + abs(q))
                min_density = min(min_density, float(den.cell_values.min()))
                worst_gap = max(worst_gap, gap)
                pairs += 1
    ok = pairs >= 1000 and min_density >= -1e-12 and worst_gap <= 1e-6
    criterion(
        1, ok,
        f"{pairs} pairs, min cell density {min_density:.1e}, "
        f"worst identity gap {worst_gap:.1e} (gate 1e-6)",
    )


def test_criterion_02_vector_inequality(criterion):
    worst_drift = 0.0
    worst_p2 = 0.0
    for idx, p in enumerate((1.2, 1.5, 2.0, 3.0, 4.0)):
        small = vector_inequality_envelope(p, 10_000, np.random.default_rng([41, idx]))
        big = vector_inequality_envelope(p, 100_000, np.random.default_rng([43, idx]))
        assert big.c_min > 0.0 and math.isfinite(big.c_max)
        worst_drift = max(
            worst_drift,
            abs(small.c_min / big.c_min - 1.0),
            abs(small.c_max / big.c_max - 1.0),
        )
        # independent deterministic sweep over the (angle, magnitude) plane
        ref = oracles.envelope_sweep(p, 241, 241)
        assert big.c_min == pytest.approx(ref[0], rel=5e-2)
        assert big.c_max == pytest.approx(ref[1], rel=5e-2)
        if p == 2.0:
            worst_p2 = max(abs(big.c_min - 1.0), abs(big.c_max - 1.0))
    ok = worst_drift <= 5e-2 and worst_p2 <= 1e-12
    criterion(
        2, ok,
        f"envelope drift 1e4 vs 1e5 samples {worst_drift:.2%}, "
        f"p=2 ratio off by {worst_p2:.1e}",
    )


def test_criterion_03_simplified_energy(criterion):
    details = []
    ok = True
    for p in (1.5, 3.0):
        prob = RadialProblem(p, 1, (0.0, 1.0), PotentialSpec.zero())
        intervals = []
        for n in (401, 801):
            g = build_grid(prob, (0.0, 1.0), n, law="uniform")
            rep = solve_dirichlet(prob, g, (1.0, 0.6))
            assert rep.converged
            v = rep.solution
            rng = np.random.default_rng(17)
            ratios = []
            for _ in range(1000):
                w = random_compact_field(g, rng)
                vw = make_field(g, v.values * w.values)
                q = energy_Q(vw, prob).total
                ratios.append(q / simplified_energy(v, w, prob).universal)
            intervals.append((min(ratios), max(ratios)))
        (lo0, hi0), (lo1, hi1) = intervals
        drift = max(abs(lo1 - lo0) / lo0, abs(hi1 - hi0) / hi0)
        ok &= drift <= 0.10
        details.append(f"p={p:g}: [{lo1:.3f},{hi1:.3f}] drift {drift:.2%}")
    criterion(3, ok, "; ".join(details))


def test_criterion_04_principal_eigenvalue(criterion):
    prob2 = RadialProblem(2.0, 1, (0.0, 1.0), PotentialSpec.zero())
    g = build_grid(prob2, (0.0, 1.0), 2001, law="uniform")
    lam2 = principal_eigenpair(prob2, g).lam
    rel_pi = abs(lam2 / math.pi**2 - 1.0)
    rel_shoot2 = abs(lam2 / oracles.FROZEN["eig_shoot_p2"] - 1.0)
    prob3 = RadialProblem(3.0, 1, (0.0, 1.0), PotentialSpec.zero())
    g3 = build_grid(prob3, (0.0, 1.0), 1201, law="uniform")
    lam3 = principal_eigenpair(prob3, g3).lam
    rel_shoot3 = abs(lam3 / oracles.FROZEN["eig_shoot_p3"] - 1.0)
    ok = rel_pi <= 1e-3 and rel_shoot2 <= 1e-3 and rel_shoot3 <= 5e-3
    criterion(
        4, ok,
        f"p=2 off pi^2 by {rel_pi:.1e}, off shooting by {rel_shoot2:.1e}; "
        f"p=3 off shooting by {rel_shoot3:.1e}",
    )


def test_criterion_05_criticality_dichotomy(criterion, critical_runs, subcritical_runs):
    details = []
    ok = True
    for name, (prob, ex, res, frame, rep) in critical_runs.items():
        ok &= rep.verdict == "critical"
        gs = ground_state(prob, ex, resolution=res, report=rep, frame=frame)
        xs = np.linspace(-1.0, 1.0, 41)
        dev = max(abs(gs.at(float(x)) - 1.0) for x in xs)
        ok &= dev <= 0.02
        details.append(f"{name} {rep.verdict} (flat to {dev:.1e})")
    supersolutions = {
        "d=3 p=2": lambda r: (1.0 + r**2) ** -0.5,
        "d=4 p=3": lambda r: (1.0 + r**1.5) ** (-1.0 / 3.0),
    }
    for name, (prob, ex, rep) in subcritical_runs.items():
        ok &= rep.verdict == "subcritical"
        cert = rep.certificate
        ok &= min(cert.margins) >= -1e-8
        g = build_grid(prob, (0.5, 8.0), 1601, law="uniform")
        u = make_field(g, supersolutions[name](g.nodes))
        cls = classify_sign(u, prob, tol=1e-10)
        ok &= cls.kind == "supersolution"
        details.append(
            f"{name} {rep.verdict} (margin {min(cert.margins):.1e}, {cls.kind})"
        )
    criterion(5, ok, "; ".join(details))


def test_criterion_06_capacity(criterion):
    prob = ray(3)
    worst = 0.0
    values = []
    for R in (4.0, 8.0, 16.0, 32.0, 64.0):
        rep = q_capacity(prob, CompactSetSpec(0.0, 1.0), (0.0, R), resolution=1201)
        assert rep.converged
        values.append(rep.value)
        worst = max(worst, abs(rep.value / oracles.capacitor_value(R) - 1.0))
    shrinking = all(b < a for a, b in zip(values, values[1:]))
    prob1 = line()
    vals1 = []
    for L in (2.0, 4.0, 8.0, 16.0):
        rep = q_capacity(prob1, CompactSetSpec(-1.0, 1.0), (-L, L), resolution=801)
        vals1.append(rep.value)
    to_zero = all(b < a for a, b in zip(vals1, vals1[1:])) and vals1[-1] <= 0.1
    ok = worst <= 1e-2 and shrinking and to_zero
    criterion(
        6, ok,
        f"d=3 worst oracle error {worst:.1e} over 5 levels (decreasing: "
        f"{shrinking}); d=1 values fall to {vals1[-1]:.3f}",
    )


def test_criterion_07_minimal_growth_limit(criterion):
    prob = ray(3)
    runs = [
        uK_limit(
            prob, CompactSetSpec(0.0, 1.0), (1.0, 1.0),
            make_exhaustion(prob, count, base=1.0, growth=g, style="balls"),
            resolution=601, cauchy_tol=1e-2,
        )
        for count, g in ((9, 2.0), (6, 3.0))
    ]
    mono = max(max(r.monotonicity_log) for r in runs)
    xs = np.linspace(1.5, 3.0, 13)
    err = max(abs(runs[0].limit.at(float(x)) * x - 1.0) for x in xs)
    mutual = max(
        abs(runs[0].limit.at(float(x)) / runs[1].limit.at(float(x)) - 1.0) for x in xs
    )
    ok = mono <= 1e-8 and err <= 1e-2 and mutual <= 1e-2
    criterion(
        7, ok,
        f"monotonicity violation {mono:.1e}, error vs 1/r {err:.1e}, "
        f"schedule disagreement {mutual:.1e}",
    )


def test_criterion_08_singularity_exponents(criterion):
    details = []
    ok = True
    for d, p in ((3, 2.0), (4, 3.0), (5, 2.0)):
        prob = ray(d, p=p)
        ex = make_exhaustion(prob, 9, base=1.0, growth=2.0, style="annuli")
        u = point_singularity_solution(prob, 0.0, ex, resolution=801).limit
        slope, _ = singularity_exponent(u, 0.0, (0.05, 0.5), mode="power")
        target = (p - d) / (p - 1.0)
        rel = abs(slope / target - 1.0)
        ok &= rel <= 5e-2
        details.append(f"(d={d},p={p:g}) slope {slope:.4f} off {rel:.2%}")
    # p = d = 2: algebraic fit must fail in favor of the log profile
    prob = ray(2)
    ex = ExhaustionSchedule(
        tuple((math.exp(-5.0 * k), 2.0 + 0.5 * k) for k in range(1, 11)), 1.0
    )
    run = point_singularity_solution(prob, 0.0, ex, resolution=801)
    sll, _ = singularity_exponent(run.limit, 0.0, (1e-18, 1e-14), mode="loglog")
    spw, _ = singularity_exponent(run.limit, 0.0, (1e-18, 1e-14), mode="power")
    ok &= abs(sll - 1.0) <= 0.15 and abs(spw) <= 0.1
    details.append(f"(d=2,p=2) log slope {sll:.3f}, power slope {spw:.3f}")
    criterion(8, ok, "; ".join(details))


def test_criterion_09_certificate(criterion, decay_pair):
    prob, grid, _, ex, cert = decay_pair
    decay_ratio = cert.mus[-1] / cert.mus[0]
    flat = Field(grid, np.ones(grid.n))
    cert_flat = minimal_growth_certificate(
        prob, flat, CompactSetSpec(0.0, 2.0), (3.0, 4.0), ex, resolution=601
    )
    flat_ratio = cert_flat.mus[-1] / cert_flat.mus[0]
    oracle_rel = abs(cert_flat.mus[-1] / oracles.FROZEN["mu_constant_b8192"] - 1.0)
    ok = (
        cert.verdict == "decaying-to-zero"
        and decay_ratio <= 1e-3
        and cert_flat.verdict == "bounded-away"
        and flat_ratio > 1e-1
        and oracle_rel <= 6e-2
    )
    criterion(
        9, ok,
        f"1/r ratio {decay_ratio:.1e} (gate 1e-3); constant ratio "
        f"{flat_ratio:.2f} (gate 0.1), oracle agreement {oracle_rel:.1%}",
    )


def test_criterion_10_comparison_batteries(criterion, decay_pair):
    # weak comparison battery over solved ordered data pairs
    rng = np.random.default_rng(2024)
    potentials = [
        PotentialSpec.zero(),
        PotentialSpec.constant(0.3),
        PotentialSpec.bump(0.5, 0.3, 0.7),
    ]
    wcp_worst = -np.inf
    trials = 0
    for k in range(100):
        prob = RadialProblem(2.0, 1, (0.0, 1.0), potentials[k % 3])
        g = build_grid(prob, (0.0, 1.0), 151, law="uniform")
        u1, u2 = _ordered_solutions(prob, g, rng)
        out = wcp_check(u1, u2, prob)
        assert out.ok
        wcp_worst = max(wcp_worst, out.max_violation)
        trials += 1
    for p in (1.5, 3.0):
        prob = RadialProblem(p, 1, (0.0, 1.0), PotentialSpec.zero())
        g = build_grid(prob, (0.0, 1.0), 101, law="uniform")
        lam = oracles.closed_form_eigenvalue(p, 1.0)
        for _ in range(50):
            u1, u2 = _ordered_solutions(prob, g, rng)
            out = wcp_check(u1, u2, prob, lambda_1=lam)
            assert out.ok
            wcp_worst = max(wcp_worst, out.max_violation)
            trials += 1
    # sub/supersolution battery sharing one decay certificate
    prob3, grid, u_sub, _, cert = decay_pair
    cmp_worst = -np.inf
    pairs = 0
    for _ in range(200):
        b = rng.uniform(0.25, 4.0)
        c = 0.5 * np.sqrt(b + 4.0) * 1.001 * rng.uniform(1.0, 3.0)
        v_sup = Field(grid, c * (b + grid.nodes**2) ** -0.5)
        res = comparison_check(
            prob3, u_sub, v_sup, CompactSetSpec(0.0, 2.0), cert
        )
        assert res.ok
        cmp_worst = max(cmp_worst, res.max_violation)
        pairs += 1
    ok = trials >= 200 and pairs >= 200 and wcp_worst <= 1e-8 and cmp_worst <= 1e-8
    criterion(
        10, ok,
        f"{trials} ordered pairs, worst violation {wcp_worst:.1e}; "
        f"{pairs} sub/supersolution pairs, worst violation {cmp_worst:.1e}",
    )


def test_criterion_11_null_sequence_identity(criterion, critical_runs):
    worst = 0.0
    levels = 0
    for _, (prob, _, _, _, rep) in critical_runs.items():
        for entry in rep.run.entries:
            lhs = entry.energy
            rhs = (entry.t / prob.p) * entry.weighted_mass
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
            levels += 1
    ok = levels >= 30 and worst <= 1e-8
    criterion(
        11, ok,
        f"worst relative identity deviation {worst:.1e} over {levels} levels",
    )


def _ordered_solutions(prob, g, rng):
    f2_vals = random_compact_field(g, rng).values * rng.uniform(0.5, 2.0)
    f1_vals = f2_vals * rng.uniform(0.0, 1.0)
    b2 = (rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
    b1 = (b2[0] * rng.uniform(0.0, 1.0), b2[1] * rng.uniform(0.0, 1.0))
    r1 = solve_dirichlet(prob, g, b1, f=make_field(g, f1_vals))
    r2 = solve_dirichlet(prob, g, b2, f=make_field(g, f2_vals))
    assert r1.converged and r2.converged
    return r1.solution, r2.solution
