"""Minimal growth at the far end of the domain: exhaustion limits with
prescribed inner traces, point-singularity profiles and their exponents,
removability tests, and the variational certificate that a positive
solution has minimal growth.

The objects here are limits over a growing family of levels.  u^K is the
monotone limit of Dirichlet solves that hold a trace on the boundary of a
compact interval and vanish at the level edge; the point-singularity
profile concentrates a unit forcing bump against a shrinking puncture and
rescales by (p-1)-homogeneity; the certificate minimizes the nonnegative
Picone density of a candidate solution over compactly supported fields
with unit mass on a fixed window, and its decay (or not) along the levels
is the variational signature of minimal growth.

All levels of an exhaustion limit are slices of one grid, bound once, so
monotonicity in the level is a nodewise statement about identical
unknowns, not an interpolation artifact.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .energy import phi_p, picone_cells
from .errors import DomainError, PreconditionError, StateError
from .model import (
    CompactSetSpec,
    ExhaustionSchedule,
    Field,
    Grid,
    PotentialSpec,
    RadialProblem,
    build_graded_grid,
    check_same_grid,
)
from .solver import (
    DEFAULT_CONFIG,
    DiscreteOperator,
    SolverConfig,
    classify_sign,
    smallest_generalized_eigen,
    solve_dirichlet,
)

logger = logging.getLogger(__name__)

CLASSIFY_TOL = 1e-6  # residual gate of the input sign checks below
REMOVABILITY_TOL = 1e-8  # flux gate 10 * REMOVABILITY_TOL * scale
COMPARISON_TOL = 1e-8  # slack of comparison_check's u_sub <= v_super

__all__ = [
    "MinimalGrowthRun",
    "PointSingularityRun",
    "CertificateRun",
    "RemovabilityReport",
    "ComparisonResult",
    "uK_limit",
    "point_singularity_solution",
    "singularity_exponent",
    "removability_test",
    "minimal_growth_certificate",
    "comparison_check",
]


@dataclass(frozen=True)
class MinimalGrowthRun:
    compact: CompactSetSpec
    trace: tuple[float, float]
    levels: tuple[tuple[float, float], ...]
    fields: tuple[Field, ...]  # per level, on the shared master grid
    limit: Field
    monotonicity_log: tuple[float, ...]  # max(u_N - u_{N+1}) per step
    window_gaps: tuple[float, ...]  # max|u_{N+1} - u_N| on the fixed window
    window: tuple[float, float]
    converged: bool
    lambda_1_lower: float  # certified lower bound on lambda_1 of every level minus the set


@dataclass(frozen=True)
class PointSingularityRun:
    x0: float
    x1: float
    levels: tuple[tuple[float, float], ...]
    fields: tuple[Field, ...]
    limit: Field
    window_gaps: tuple[float, ...]
    converged: bool


@dataclass(frozen=True)
class CertificateRun:
    omega2: CompactSetSpec
    window: tuple[float, float]  # the unit-mass window B
    levels: tuple[tuple[float, float], ...]
    mus: tuple[float, ...]
    masses: tuple[float, ...]  # recorded unit masses of the minimizers
    minimizers: tuple[Field, ...]
    verdict: str  # "decaying-to-zero" | "bounded-away"


@dataclass(frozen=True)
class RemovabilityReport:
    verdict: str  # "removable" | "nonremovable-blowup" | "nonremovable-flux" | "undetermined"
    window_sups: tuple[float, ...]
    flux_residual: float
    residual_scale: float
    gate: float


@dataclass(frozen=True)
class ComparisonResult:
    ok: bool
    max_violation: float


# ---------------------------------------------------------------------------
# u^K limits
# ---------------------------------------------------------------------------

def _master_side(
    problem: RadialProblem,
    inner: float,
    outers: tuple[float, ...],
    resolution: int,
    toward_zero: bool,
) -> Grid:
    """Grid for one side of the compact set, from its endpoint ``inner`` to
    the farthest level endpoint on that side, with every endpoint a node;
    uK_limit joins both sides and the set into one grid sliced by level."""
    far = min(outers) if toward_zero else max(outers)
    near_first = max(outers) if toward_zero else min(outers)
    span = abs(near_first - inner)
    lo, hi = (far, inner) if toward_zero else (inner, far)
    focus = (max(lo, inner - span), inner) if toward_zero else (inner, min(hi, inner + span))
    base = build_graded_grid(problem, (lo, hi), focus, resolution)
    nodes = np.union1d(base.nodes, np.asarray(outers, dtype=float))
    return Grid(nodes, problem.weight_exponent)


def uK_limit(
    problem: RadialProblem,
    compact: CompactSetSpec,
    trace: tuple[float, float],
    exhaustion: ExhaustionSchedule,
    resolution: int = 601,
    cauchy_tol: float = 1e-5,
    config: SolverConfig = DEFAULT_CONFIG,
) -> MinimalGrowthRun:
    """Monotone exhaustion limit of Dirichlet solves holding ``trace`` on
    the compact interval's boundary and zero at the level edges.

    Every level is a slice of one grid, bound once: the set is held at the
    trace interpolant and each component of the level minus the set is a
    held run, warm-started from the previous level.  The per-level fields
    (extended by zero beyond their level) are nodewise comparable; the log
    records the worst monotonicity violation at each step.  A level whose
    solve fails ends the run there.

    Before any level is solved, the principal eigenvalue of each component
    of the largest level minus the set is certified positive, once for the
    run: every smaller level's components lie inside those, on the same
    grid, so their discrete lambda_1 can only be larger.  The smallest of
    the components' DiscreteOperator.lambda_1_lower is reported as
    ``lambda_1_lower``, and a bound <= 0 raises PreconditionError.
    """
    exhaustion.validate(problem)
    compact.validate(problem)
    k_lo, k_hi = compact.k_lo, compact.k_hi
    t_lo, t_hi = float(trace[0]), float(trace[1])
    if t_lo <= 0 or t_hi <= 0:
        raise ValueError("trace values must be positive")
    levels = exhaustion.levels
    for level in levels:
        compact.require_inside(level, problem)

    set_nodes = compact.nodes(resolution)
    right = _master_side(problem, k_hi, tuple(b for _, b in levels), resolution, False)
    pieces = [set_nodes, right.nodes[1:]]
    if levels[0][0] < k_lo:
        left = _master_side(problem, k_lo, tuple(a for a, _ in levels), resolution, True)
        pieces.insert(0, left.nodes[:-1])
    full = Grid(np.concatenate(pieces), problem.weight_exponent)
    op = DiscreteOperator.bind(problem, full)
    held = (full.nodes >= k_lo) & (full.nodes <= k_hi)  # the set's own nodes
    s0, s1 = np.flatnonzero(held)[[0, -1]]
    held_vals = t_lo + (full.nodes - k_lo) / max(k_hi - k_lo, 1e-300) * (t_hi - t_lo)
    held_vals[s1] = t_hi  # the interpolant's end value, exactly

    a, b = levels[-1]
    lo, hi = (int(i) for i in np.searchsorted(full.nodes, (a, b)))
    lam = math.inf
    for i, j in ((lo, s0), (s1, hi)):  # the components of the level minus the set
        if i < j:
            lam = min(lam, op.restrict(i, j + 1).lambda_1_lower(config))
    if not lam > 0:
        raise PreconditionError(
            f"principal eigenvalue on level ({a}, {b}) minus the set is {lam:.3e} <= 0"
        )

    fields: list[Field] = []
    mono: list[float] = []
    gaps: list[float] = []
    window = (k_hi, levels[0][1])
    win_mask = (full.nodes >= window[0]) & (full.nodes <= window[1])
    for a, b in levels:
        lo, hi = (int(i) for i in np.searchsorted(full.nodes, (a, b)))
        level = op.restrict(lo, hi + 1)
        warm = fields[-1].values[lo : hi + 1] if fields else None
        try:
            u = level.held_runs(held[lo : hi + 1], held_vals[lo : hi + 1], config, warm)
        except StateError as exc:
            logger.warning("level (%g, %g): %s, truncating", a, b, exc)
            break
        u_full = np.zeros(full.n)
        u_full[lo : hi + 1] = u
        if fields:
            diff = fields[-1].values - u_full
            mono.append(float(diff.max()))
            gaps.append(float(np.max(np.abs(diff[win_mask]))))
        fields.append(Field(full, u_full))

    if not fields:
        raise StateError("no level solved; cannot form the exhaustion limit")
    converged = bool(gaps) and gaps[-1] <= cauchy_tol
    return MinimalGrowthRun(
        compact=compact,
        trace=(t_lo, t_hi),
        levels=tuple(levels[: len(fields)]),
        fields=tuple(fields),
        limit=fields[-1],
        monotonicity_log=tuple(mono),
        window_gaps=tuple(gaps),
        window=window,
        converged=converged,
        lambda_1_lower=lam,
    )


# ---------------------------------------------------------------------------
# point singularities
# ---------------------------------------------------------------------------

def point_singularity_solution(
    problem: RadialProblem,
    x0: float,
    exhaustion: ExhaustionSchedule,
    resolution: int = 801,
    config: SolverConfig = DEFAULT_CONFIG,
) -> PointSingularityRun:
    """Positive solution of the unforced equation away from an isolated
    point, built as a limit of punctured solves.

    Level (a_N, b_N) is read as the component to the right of the
    singularity: the puncture radius is a_N - x0 (strictly decreasing), the
    forcing is a unit bump on the annulus between one and two puncture
    radii, boundary data is zero at both ends, and the solve is rescaled to
    equal 1 at x1, the exhaustion's x0, afterwards (exact by degree-(p-1)
    homogeneity).  The run's ``limit`` carries the singularity profile on
    windows between the final puncture and x1.
    """
    exhaustion.validate(problem)
    levels = exhaustion.levels
    deltas = [a - x0 for a, _ in levels]
    if any(d <= 0 for d in deltas):
        raise ValueError("level left endpoints must lie strictly right of x0")
    if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise ValueError("puncture radii (a_N - x0) must be strictly decreasing")
    x1 = exhaustion.x0
    if not levels[0][0] < x1 < levels[0][1]:
        raise ValueError(f"normalization point {x1} must lie inside the first level")

    fields: list[Field] = []
    gaps: list[float] = []
    for (a, b), delta in zip(levels, deltas):
        focus = (a, min(x0 + 2.0 * delta, b))
        grid = build_graded_grid(problem, (a, b), focus, resolution)
        bump = PotentialSpec.bump(x0 + 1.5 * delta, 0.5 * delta, 1.0)
        fvals = bump.sample(grid.nodes)
        mass = float(np.sum(grid.node_w * fvals))
        if mass <= 0:
            raise StateError(f"forcing bump unresolved on level ({a}, {b})")
        f = Field(grid, fvals / mass)  # unit weighted mass, concentrating
        rep = solve_dirichlet(problem, grid, (0.0, 0.0), f=f, config=config)
        if not rep.converged:
            logger.warning("puncture level (%g, %g): solve failed, truncating", a, b)
            break
        ref = rep.solution.at(x1)
        if not ref > 0:
            logger.warning("puncture level (%g, %g): vanished at x1, truncating", a, b)
            break
        field = rep.solution.scaled(1.0 / ref)
        if fields:
            w = np.linspace(x1, levels[0][1], 201)
            prev_w = np.interp(w, fields[-1].grid.nodes, fields[-1].values)
            cur_w = np.interp(w, field.grid.nodes, field.values)
            gaps.append(float(np.max(np.abs(cur_w - prev_w))))
        fields.append(field)
    if not fields:
        raise StateError("no puncture level solved")
    return PointSingularityRun(
        x0=x0,
        x1=x1,
        levels=tuple(levels[: len(fields)]),
        fields=tuple(fields),
        limit=fields[-1],
        window_gaps=tuple(gaps),
        converged=bool(gaps) and gaps[-1] <= 1e-4,
    )


def singularity_exponent(
    u: Field,
    x0: float,
    fit_window: tuple[float, float],
    mode: str = "power",
) -> tuple[float, float]:
    """Least-squares singularity exponent of u near x0 over the window.

    mode "power" fits log u against log(r - x0) (slope = the growth
    exponent); mode "loglog" fits log u against log(-log(r - x0)), the
    profile shape at the borderline p = d, where a slope of 1 identifies
    the logarithmic blowup.  Returns (slope, rms residual of the fit).
    """
    lo, hi = fit_window
    nodes = u.grid.nodes
    if not (nodes[0] <= lo < hi <= nodes[-1]):
        raise ValueError(f"fit window {fit_window} outside the field's grid")
    mask = (nodes >= lo) & (nodes <= hi)
    if mask.sum() < 3:
        raise ValueError("fit window contains fewer than 3 nodes")
    r = nodes[mask] - x0
    vals = u.values[mask]
    if np.any(vals <= 0):
        raise ValueError("field must be strictly positive on the fit window")
    if np.any(r <= 0):
        raise ValueError("fit window must lie strictly right of x0")
    if mode == "power":
        x = np.log(r)
    elif mode == "loglog":
        if np.any(r >= 1):
            raise ValueError("loglog mode needs the window inside r - x0 < 1")
        x = np.log(-np.log(r))
    else:
        raise ValueError(f"unknown fit mode {mode!r}")
    y = np.log(vals)
    coeffs, residuals, _, _ = np.linalg.lstsq(
        np.column_stack([x, np.ones_like(x)]), y, rcond=None
    )
    slope = float(coeffs[0])
    fitted = coeffs[0] * x + coeffs[1]
    rms = float(np.sqrt(np.mean((y - fitted) ** 2)))
    return slope, rms


# ---------------------------------------------------------------------------
# removability
# ---------------------------------------------------------------------------

def removability_test(
    problem: RadialProblem,
    u: Field,
    x0: float,
) -> RemovabilityReport:
    """Decide whether an isolated singular point of a positive solution is
    removable.

    First the sup of u is probed on dyadic windows shrinking onto x0 from
    the right: sustained growth by more than a factor 5 overall is a blowup
    (nonremovable).  A bounded u is extended continuously across x0
    and the weak residual paired with the hat function at x0 is measured:
    above 10 * REMOVABILITY_TOL * scale it is a concentrated flux
    (nonremovable), below it the point is removable.  Solutions that
    neither settle nor grow are reported undetermined.  classify_sign must pass away from x0 first.
    """
    nodes = u.grid.nodes
    if x0 >= nodes[-1]:
        raise ValueError("x0 must lie left of the grid's right edge")
    offset = nodes - x0
    right = offset > 0

    # dyadic sup windows approaching x0 from the right
    span = nodes[-1] - x0
    first = span * 0.25
    sups = []
    k = 0
    while True:
        w_hi = first * 0.5**k
        w_lo = w_hi * 0.5
        m = right & (offset > w_lo) & (offset <= w_hi)
        if not np.any(m):
            break
        sups.append(float(np.max(u.values[m])))
        k += 1
        if k > 60:
            break
    if len(sups) < 4:
        raise ValueError("grid resolves too few dyadic windows near x0")

    away = int(np.searchsorted(nodes, x0 + first))
    cls = classify_sign(Field(u.grid.restrict(away), u.values[away:]), problem, CLASSIFY_TOL)
    if cls.kind not in ("solution",):
        raise PreconditionError(
            f"field does not solve the equation away from x0 (classified {cls.kind!r})"
        )

    steps = np.array(sups[1:]) / np.array(sups[:-1])
    total_growth = sups[-1] / sups[0]
    growing = total_growth > 5.0 and float(np.median(steps[-4:])) > 1.1
    settled = abs(sups[-1] / sups[-2] - 1.0) < 0.05 and total_growth < 5.0

    if growing:
        return RemovabilityReport("nonremovable-blowup", tuple(sups), math.nan, math.nan, math.nan)
    if not settled:
        return RemovabilityReport("undetermined", tuple(sups), math.nan, math.nan, math.nan)

    # extend continuously across x0 and measure the concentrated residual
    if nodes[0] < x0:
        ext = u
        j0 = int(np.argmin(np.abs(nodes - x0)))
    else:
        first_right = int(np.argmax(right))
        val0 = float(u.values[first_right])  # continuous extension value
        ext_nodes = np.concatenate(([x0], nodes[right]))
        ext_vals = np.concatenate(([val0], u.values[right]))
        ext = Field(Grid(ext_nodes, u.grid.weight_exponent), ext_vals)
        j0 = 0
    op = DiscreteOperator.bind(problem, ext.grid)
    r_ext, scale, _ = op.residual_terms(ext.values, op.load(None))
    # hats at end nodes are boundary rows; the nearest interior hat is the
    # one that can carry a concentrated residual (on the extension, flat on
    # its first cell, the hat at the first real node sees the incoming flux)
    j0 = min(max(j0, 1), ext.grid.n - 2)
    flux = float(r_ext[j0])
    # floor at the rounding level of the flux terms so that fields with
    # vanishing residual scale (constants with V = 0) still get a sane gate
    scale = max(scale, 1e-6 * op.flux_sensitivity(ext.values))
    gate = 10.0 * REMOVABILITY_TOL * scale
    verdict = "nonremovable-flux" if abs(flux) > gate else "removable"
    return RemovabilityReport(verdict, tuple(sups), flux, scale, gate)


# ---------------------------------------------------------------------------
# minimal-growth certificates
# ---------------------------------------------------------------------------

def _certificate_level(
    problem: RadialProblem,
    grid: Grid,
    uvals: np.ndarray,
    mass_mask: np.ndarray,
) -> tuple[float, np.ndarray, float]:
    """One level of the certificate: minimize the Picone density of u over
    nonnegative w vanishing at the outer edge with unit p-mass on the
    window.  Returns (mu, w, recorded mass)."""
    p = problem.p
    if np.any(uvals <= 0):
        raise PreconditionError("candidate solution must be positive on the region")
    us = np.diff(uvals) / grid.h
    um = 0.5 * (uvals[:-1] + uvals[1:])
    if p != 2.0 and np.any(us == 0.0):
        raise PreconditionError(
            "candidate solution has a critical point on the region; the"
            " certificate needs a nonvanishing slope for p != 2"
        )

    def mass_of(wv: np.ndarray) -> float:
        return float(np.sum(grid.node_w * mass_mask * wv**p))

    def objective(wv: np.ndarray) -> float:
        return _picone_total(grid, p, wv, us, um)

    w, mu = _irls_minimize(grid, p, us, um, mass_mask, mass_of, objective)
    if p != 2.0:
        w, mu = _polish_descent(grid, p, w, us, um, mass_of, objective)
    return mu, w, mass_of(w)


def _irls_minimize(grid, p, us, um, mass_mask, mass_of, objective):
    """Reweighted quadratic relaxations of the Picone objective.

    Each round freezes the degree-(p-2) factors of the density at the
    current iterate, leaving a tridiagonal quadratic form whose smallest
    generalized eigenvector (against the similarly frozen window mass) is
    the next profile.  Round 0 freezes them at 1: its form is the discrete
    p = 2 Picone objective, so at p = 2 it is the exact minimizer and the
    loop stops there; otherwise up to 40 rounds follow.  Iterates stay
    feasible, so the best objective seen is always a valid upper bound.
    Round 0 raises PreconditionError when its form is not positive
    definite, and StateError when its profile has no window mass.
    """
    n = grid.n
    q = us / um
    cp = 1.0 / grid.h - 0.5 * q
    cm = -(1.0 / grid.h + 0.5 * q)
    om = np.ones(n - 1)
    msur = grid.node_w * mass_mask
    w, best_w, best = None, None, math.inf
    for _ in range(41):
        wcell = om * grid.cell_w
        diag = np.zeros(n)
        diag[:-1] += wcell * cm**2
        diag[1:] += wcell * cp**2
        diag, off = diag[:-1], (wcell * cm * cp)[: n - 2]
        try:
            vec = smallest_generalized_eigen(diag, off, msur[:-1])
        except PreconditionError:
            if w is None:
                raise
            break
        wn = np.zeros(n)
        wn[:-1] = vec
        wn = np.maximum(wn, 0.0)
        wn[-1] = 0.0
        m = mass_of(wn)
        if m <= 0:
            if w is None:
                raise StateError("certificate seed lost its window mass")
            break
        wn = wn / m ** (1.0 / p)
        fn = objective(wn)
        if fn < best:
            best, best_w = fn, wn.copy()
        elif fn > best * (1.0 + 1e-10):
            # relaxation stopped improving; damp once then give up next time
            wn = 0.5 * (w + wn)
            m = mass_of(wn)
            if m <= 0:
                break
            wn = wn / m ** (1.0 / p)
            if objective(wn) >= best * (1.0 + 1e-10):
                break
        w = wn
        if p == 2.0:
            break
        ws = np.diff(w) / grid.h
        wm = 0.5 * (w[:-1] + w[1:])
        z = wm / um * us
        # floor built from w-scale quantities keeps the whole iteration
        # exactly invariant under rescaling the candidate u
        slope_floor = 1e-10 * float(np.max(np.abs(ws)) + np.max(np.abs(z)))
        om = (np.abs(ws) + np.abs(z) + slope_floor) ** (p - 2.0)
        wfloor = np.maximum(w, 1e-14 * float(np.max(w)))
        msur = grid.node_w * mass_mask * wfloor ** (p - 2.0)
    return best_w, best


def _polish_descent(grid, p, w, us, um, mass_of, objective):
    """Short projected-descent polish (at most 200 steps) after the
    reweighted rounds."""
    mu = objective(w)
    step = 1.0
    for _ in range(200):
        g = _picone_grad(grid, p, w, us, um)
        g[-1] = 0.0
        gnorm = float(np.max(np.abs(g)))
        if gnorm == 0.0:
            break
        improved = False
        while step > 1e-16:
            w_try = np.maximum(w - step * g / gnorm, 0.0)
            w_try[-1] = 0.0
            m_try = mass_of(w_try)
            if m_try > 0:
                w_try = w_try / m_try ** (1.0 / p)
                mu_try = objective(w_try)
                if mu_try < mu - 1e-16 * max(1.0, abs(mu)):
                    w, mu = w_try, mu_try
                    improved = True
                    step *= 1.5
                    break
            step *= 0.5
        if not improved:
            break
    return w, mu


def _picone_total(grid, p, w, us, um) -> float:
    cells = picone_cells(p, np.diff(w) / grid.h, 0.5 * (w[:-1] + w[1:]), us, um)
    return float(np.sum(cells * grid.cell_w))


def _picone_grad(grid, p, w, us, um) -> np.ndarray:
    ws = np.diff(w) / grid.h
    wm = 0.5 * (w[:-1] + w[1:])
    ratio = wm / um
    with np.errstate(divide="ignore", invalid="ignore"):
        rpm2 = np.where(ratio > 0, ratio ** (p - 2.0), 0.0)
    d_ws = phi_p(ws, p) - ratio ** (p - 1.0) * phi_p(us, p)
    d_wm = (p - 1.0) * rpm2 / um * (ratio * np.abs(us) ** p - ws * phi_p(us, p))
    g = np.zeros_like(w)
    contrib_slope = d_ws * grid.cell_w / grid.h
    contrib_mid = 0.5 * d_wm * grid.cell_w
    g[:-1] += -contrib_slope + contrib_mid
    g[1:] += contrib_slope + contrib_mid
    return g


def minimal_growth_certificate(
    problem: RadialProblem,
    u: Field,
    omega2: CompactSetSpec,
    window: tuple[float, float],
    exhaustion: ExhaustionSchedule,
    resolution: int = 601,
) -> CertificateRun:
    """Per-level infima of the candidate's Picone density over unit-mass
    fields, and the trend verdict.

    mu_N = inf { integral of L(w, u) over (level minus omega2) : w >= 0,
    w = 0 at the level edge, integral of w^p over the window = 1 }.  At
    p = 2 this is a generalized eigenvalue (solved directly); otherwise
    reweighted rounds from the p = 2 minimizer and a projected-descent
    polish, which still yield sound upper bounds, so a decaying trend is
    conclusive while "bounded-away" is empirical.  u enters only through
    ratios, so rescaling u leaves every mu_N unchanged.
    """
    exhaustion.validate(problem)
    omega2.validate(problem)
    b_lo, b_hi = window
    edge = omega2.k_hi
    if not edge < b_lo < b_hi:
        raise ValueError("window must lie strictly beyond omega2")
    levels = exhaustion.levels
    if any(b <= b_hi for _, b in levels):
        raise DomainError("every level must extend beyond the mass window")

    mus: list[float] = []
    masses: list[float] = []
    mins: list[Field] = []
    for _, b in levels:
        base = build_graded_grid(problem, (edge, b), (edge, b_hi), resolution).nodes
        grid = Grid(np.union1d(base, np.asarray(window, dtype=float)), problem.weight_exponent)
        uvals = np.asarray(u.at(grid.nodes))
        mass_mask = ((grid.nodes >= b_lo) & (grid.nodes <= b_hi)).astype(float)
        mu, w, m = _certificate_level(problem, grid, uvals, mass_mask)
        mus.append(mu)
        masses.append(m)
        mins.append(Field(grid, w))
    verdict = (
        "decaying-to-zero" if mus[-1] <= 1e-3 * mus[0] else "bounded-away"
    )
    return CertificateRun(
        omega2=omega2,
        window=(float(b_lo), float(b_hi)),
        levels=tuple(levels),
        mus=tuple(mus),
        masses=tuple(masses),
        minimizers=tuple(mins),
        verdict=verdict,
    )


def comparison_check(
    problem: RadialProblem,
    u_sub: Field,
    v_super: Field,
    omega2: CompactSetSpec,
    certificate: CertificateRun,
) -> ComparisonResult:
    """Comparison beyond omega2 for a certified-minimal subsolution: checks
    u_sub <= v_super + COMPARISON_TOL nodewise outside the set, after
    verifying the hypotheses (sign classifications, boundary ordering at
    the set's edge, and a decaying certificate)."""
    if certificate.verdict != "decaying-to-zero":
        raise PreconditionError(
            "comparison needs a decaying-to-zero certificate for the subsolution"
        )
    grid = u_sub.grid
    check_same_grid(grid, v_super.grid)
    start = int(np.searchsorted(grid.nodes, omega2.k_hi))
    if start == grid.n:
        raise ValueError("grid does not reach beyond omega2")
    # both fields are classified on one operator, which samples V once
    op = DiscreteOperator.bind(problem, grid.restrict(start))
    u_r, v_r = u_sub.values[start:], v_super.values[start:]
    cls_u = op.classify(u_r, CLASSIFY_TOL)
    if cls_u.kind not in ("subsolution", "solution"):
        raise PreconditionError(f"u_sub classifies as {cls_u.kind!r} on the region")
    cls_v = op.classify(v_r, CLASSIFY_TOL)
    if cls_v.kind not in ("supersolution", "solution"):
        raise PreconditionError(f"v_super classifies as {cls_v.kind!r} on the region")
    edge_u = float(u_r[0])
    edge_v = float(v_r[0])
    if edge_u > edge_v + COMPARISON_TOL:
        raise PreconditionError(
            f"u_sub exceeds v_super at the set's edge: {edge_u:.6g} > {edge_v:.6g}"
        )
    viol = float(np.max(u_r - v_r))
    return ComparisonResult(viol <= COMPARISON_TOL, max(viol, 0.0))
