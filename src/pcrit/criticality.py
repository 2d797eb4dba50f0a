"""Criticality analysis through exhaustions: probe thresholds, null
sequences, ground states, capacities, and strict-positivity weights.

The central quantity is the probe threshold on a bounded level: for a
nonnegative probe weight W supported near the reference point,

    t_N = inf { p Q(u) / integral(W |u|^p) : u vanishing at the level edge },

the largest coupling for which the functional with potential V - t W stays
nonnegative on the level.  The infimum is computed as the principal
eigenvalue of the weighted pencil (shifted inverse iteration at p = 2,
weighted inverse power iteration otherwise).  Minimizers of the quotient
are the null-sequence elements: normalizing them at the reference point
turns a decaying t_N into a locally uniform limit, the ground state.

As the levels exhaust the domain, t_N decreases.  Two regimes are told
apart: t_N sinking below an absolute cut (critical: the functional admits
a null sequence and a ground state) and t_N stalling on a plateau
(subcritical: a strict-positivity weight exists, and t*/2 times the probe
certifies it).  Slow undecided decay is reported as undetermined rather
than forced.

The certificate needs no further solve.  Each level's minimizer v_N is a
positive supersolution for the discounted potential V - (t*/2) W, and the
discrete Picone inequality against it (Allegretto & Huang 1998) bounds the
discounted form below by the weighted Picone margin lower_N - t*/2, where
lower_N is the Collatz-Wielandt bound on t_N read off v_N's residual.

When d equals p and the domain reaches the origin, all computations run in
log-radius coordinates, where the degenerate weight |r|^(d-1) becomes
constant and the levels stay numerically representable; energies,
thresholds and eigenvalues are invariant under this substitution.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .energy import phi_p, q_parts
from .errors import PreconditionError, StateError
from .model import (
    CompactSetSpec,
    ExhaustionSchedule,
    Field,
    Grid,
    PotentialSpec,
    RadialProblem,
    build_graded_grid,
    build_grid,
    embed,
    log_reduced_level,
    log_reduced_problem,
)
from .solver import DEFAULT_CONFIG, DiscreteOperator, SolverConfig

logger = logging.getLogger(__name__)

__all__ = [
    "LevelThreshold",
    "NullSequenceRun",
    "CriticalityReport",
    "PositivityCertificate",
    "CapacityReport",
    "default_probe",
    "threshold_tN",
    "null_sequence",
    "criticality_verdict",
    "ground_state",
    "positivity_weight",
    "q_capacity",
]


@dataclass(frozen=True)
class LevelThreshold:
    index: int
    level: tuple[float, float]
    t: float
    minimizer: Field  # normalized to 1 at the reference point
    energy: float  # Q at the normalized minimizer
    weighted_mass: float  # integral of W |v|^p at the normalized minimizer
    converged: bool
    lower: float  # Collatz-Wielandt lower bound on t at the minimizer
    certified: bool  # R(v) >= -tol * scale at the free nodes without weight


@dataclass(frozen=True)
class NullSequenceRun:
    entries: tuple[LevelThreshold, ...]
    x0: float
    coordinates: str  # "radial" | "log"
    weight: PotentialSpec
    failures: tuple[int, ...]  # level indices whose eigensolve failed
    problem: RadialProblem  # in the working coordinates


@dataclass(frozen=True)
class PositivityCertificate:
    """Strict-positivity weight (t*/2) W with its weighted Picone margins.

    On level N, the discrete Picone inequality against the threshold
    minimizer v_N gives

        p Q(u) - (t*/2) integral(W |u|^p) >= margins[N] integral(W |u|^p)

    for every u >= 0 vanishing at the level edge, with margins[N] =
    lower_N - t*/2 and lower_N the level's Collatz-Wielandt bound on t_N.
    The inequality needs R(v_N) >= 0 at the free nodes without weight; it
    holds there up to the residual gate except on the ``uncertified``
    levels (indices as in the run's entries).
    """

    weight: PotentialSpec
    margin: float  # smallest of the margins
    margins: tuple[float, ...]  # one per level, largest level last
    coordinates: str
    uncertified: tuple[int, ...]  # level indices that miss the residual gate


@dataclass(frozen=True)
class CriticalityReport:
    thresholds: tuple[tuple[int, float], ...]
    verdict: str  # "critical" | "subcritical" | "undetermined"
    t_star_estimate: float
    ground_state: Field | None
    certificate: PositivityCertificate | None  # subcritical verdicts only
    energies: tuple[float, ...]
    levels: tuple[tuple[float, float], ...]
    coordinates: str
    weight: PotentialSpec
    x0: float
    run: NullSequenceRun

    @property
    def positivity_weight(self) -> tuple[PotentialSpec, float] | None:
        """(weight, margin) of the certificate, None without one."""
        cert = self.certificate
        return None if cert is None else (cert.weight, cert.margin)


@dataclass(frozen=True)
class CapacityReport:
    value: float
    minimizer: Field
    active_set: np.ndarray  # node indices held at 1; need not be contiguous
    min_multiplier: float
    max_off_residual: float
    residual_scale: float
    converged: bool
    iterations: int


# ---------------------------------------------------------------------------
# probes and working coordinates
# ---------------------------------------------------------------------------

def default_probe(level: tuple[float, float]) -> PotentialSpec:
    """Unit-height smooth bump supported on the middle third of the level."""
    a, b = level
    span = b - a
    if not (math.isfinite(span) and span > 0):
        raise ValueError(f"level {level} is not a bounded interval")
    return PotentialSpec.bump(center=a + 0.5 * span, radius=span / 6.0, height=1.0)


def _should_reduce(problem: RadialProblem) -> bool:
    return problem.d == problem.p and problem.domain[0] == 0.0


def _working_frame(
    problem: RadialProblem,
    levels: tuple[tuple[float, float], ...],
    x0: float | None,
    weight: PotentialSpec | None,
    frame: str,
):
    """Resolve the working coordinates for an exhaustion computation.

    frame "auto": levels and x0 are radial; they are mapped to log-radius
    coordinates when d == p, the domain reaches 0, and every level stays
    away from 0 (the substitution removes the degenerate weight there).
    frame "radial": never map.  frame "log": the problem must be reducible
    and levels, x0 and the probe weight are ALREADY in log-radius
    coordinates; this is the only way to reach level sizes whose radial
    endpoints would underflow.

    Returns (problem, levels, x0, weight, coordinates); a None weight is
    replaced by the default probe on the first working-frame level.
    """
    if frame == "log":
        if not _should_reduce(problem):
            raise ValueError("log frame requires d == p with the domain reaching 0")
        wp = log_reduced_problem(problem)
        if weight is None:
            weight = default_probe(levels[0])
        return wp, levels, x0, weight, "log"
    if frame == "radial" or not (
        _should_reduce(problem) and all(lv[0] > 0.0 for lv in levels)
    ):
        if frame not in ("radial", "auto"):
            raise ValueError(f"unknown frame {frame!r}")
        if weight is None:
            weight = default_probe(levels[0])
        return problem, levels, x0, weight, "radial"
    wp = log_reduced_problem(problem)
    wl = tuple(log_reduced_level(lv) for lv in levels)
    wx0 = None
    if x0 is not None:
        if x0 <= 0:
            raise ValueError("reference point must be positive for log reduction")
        wx0 = math.log(x0)
    if weight is None:
        ww = default_probe(wl[0])
    else:
        ww = PotentialSpec.log_reduced(weight, problem.p)
    return wp, wl, wx0, ww, "log"


def _level(
    problem: RadialProblem,
    level: tuple[float, float],
    weight: PotentialSpec,
    resolution: int,
) -> tuple[DiscreteOperator, np.ndarray]:
    """The operator on one level's grid, which is fine around the probe
    support and coarse outward, and the probe weight's nodal values."""
    a, b = level
    hint = weight.support_hint()
    grid = None
    if hint is not None:
        width = hint[1] - hint[0]
        fa = max(a, hint[0] - 0.5 * width)
        fb = min(b, hint[1] + 0.5 * width)
        if fa < fb and (fb - fa) < 0.6 * (b - a):
            grid = build_graded_grid(problem, level, (fa, fb), resolution)
    if grid is None:
        grid = build_grid(problem, level, resolution)
    wvals = weight.sample(grid.nodes)
    if np.any(wvals < 0):
        raise PreconditionError("probe weight must be nonnegative")
    if not np.any(wvals[grid.free] > 0):
        raise PreconditionError("probe weight vanishes at every interior node")
    return DiscreteOperator.bind(problem, grid), wvals


def _require_nonnegative_form(op: DiscreteOperator, config: SolverConfig) -> None:
    lam = op.eigenpair(config).lam
    if lam < -1e-9:
        raise PreconditionError(
            f"functional is not nonnegative on the level: principal eigenvalue {lam:.3e} < 0"
        )


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

def threshold_tN(
    problem: RadialProblem,
    level: tuple[float, float],
    weight: PotentialSpec,
    resolution: int = 801,
    config: SolverConfig = DEFAULT_CONFIG,
    frame: str = "auto",
) -> float:
    """Largest t keeping the functional with potential V - t W nonnegative
    on the level, computed as the weighted principal eigenvalue (a
    tridiagonal pencil at p = 2, inverse iteration otherwise)."""
    wp, (wl,), _, ww, _ = _working_frame(problem, (tuple(level),), None, weight, frame)
    op, wvals = _level(wp, wl, ww, resolution)
    _require_nonnegative_form(op, config)
    t, _, _, ok = op.principal(wvals, config)
    if not ok:
        raise StateError("threshold iteration did not converge on the level")
    return t


# ---------------------------------------------------------------------------
# null sequences and verdicts
# ---------------------------------------------------------------------------

def null_sequence(
    problem: RadialProblem,
    exhaustion: ExhaustionSchedule,
    weight: PotentialSpec | None = None,
    resolution: int = 801,
    config: SolverConfig = DEFAULT_CONFIG,
    frame: str = "auto",
) -> NullSequenceRun:
    """Per-level thresholds t_N with minimizers normalized to 1 at the
    reference point.

    Each minimizer solves the level's weighted eigenproblem at eigenvalue
    t_N, so its energy satisfies Q(v_N) = (t_N / p) * integral(W |v_N|^p)
    identically.  Levels whose eigensolve fails are recorded in ``failures``
    and the sequence is truncated there.  At p != 2 each level's iteration
    starts from the previous level's minimizer, which the nested levels
    carry over by extension with zero.
    """
    wp, wlevels, wx0, ww, coords = _working_frame(
        problem, exhaustion.levels, exhaustion.x0, weight, frame
    )
    exhaustion.validate(wp if frame == "log" else problem)

    levels = [_level(wp, lv, ww, resolution) for lv in wlevels]
    # nonnegativity on the largest level covers every smaller one
    _require_nonnegative_form(levels[-1][0], config)

    entries: list[LevelThreshold] = []
    failures: list[int] = []
    for idx, (lv, (op, wvals)) in enumerate(zip(wlevels, levels), start=1):
        warm = embed(entries[-1].minimizer, op.grid) if entries else None
        t, v, _, ok = op.principal(wvals, config, initial=warm)
        if not ok:
            failures.append(idx)
            logger.warning("level %d: threshold eigensolve failed, truncating", idx)
            break
        try:
            field = _normalized(op.grid, v, wx0)
        except StateError:
            failures.append(idx)
            logger.warning("level %d: minimizer vanishes at the reference point", idx)
            break
        v = field.values
        energy = q_parts(op.grid, wp.p, op.vvals, v).total
        mass = float(np.sum(wvals * np.abs(v) ** wp.p * op.grid.node_w))
        lower, certified = _collatz_lower(op, wvals, t, v, config.tol_for(wp.p))
        entries.append(
            LevelThreshold(idx, lv, t, field, energy, mass, ok, lower, certified)
        )
    return NullSequenceRun(tuple(entries), wx0, coords, ww, tuple(failures), wp)


def criticality_verdict(
    problem: RadialProblem,
    exhaustion: ExhaustionSchedule,
    weight: PotentialSpec | None = None,
    resolution: int = 801,
    eps_crit: float = 1e-4,
    plateau_rtol: float = 0.01,
    config: SolverConfig = DEFAULT_CONFIG,
    frame: str = "auto",
) -> CriticalityReport:
    """Classify the functional on the exhausted domain by the trend of the
    probe thresholds.

    critical: t_N fell below ``eps_crit`` while still decreasing; the last
    normalized minimizer is reported as the ground state.  subcritical: the
    last three thresholds agree to ``plateau_rtol`` relative and sit above
    10 * eps_crit; half the plateau value times the probe is reported as a
    strict-positivity weight with its weighted Picone margins.  Anything
    else is undetermined.
    """
    run = null_sequence(problem, exhaustion, weight, resolution, config, frame)
    if not run.entries:
        raise StateError("no level produced a threshold; cannot classify")
    ts = [e.t for e in run.entries]
    t_last = ts[-1]

    decreasing = len(ts) >= 2 and t_last <= ts[0]
    plateau = (
        len(ts) >= 3
        and all(
            abs(ts[-i] - ts[-i - 1]) <= plateau_rtol * max(abs(ts[-i - 1]), 1e-300)
            for i in (1, 2)
        )
    )

    verdict = "undetermined"
    if t_last <= eps_crit and decreasing:
        verdict = "critical"
    elif plateau and t_last > 10.0 * eps_crit:
        verdict = "subcritical"

    gs = run.entries[-1].minimizer if verdict == "critical" else None
    t_star = 0.0 if verdict == "critical" else t_last

    cert = _positivity_margins(run, t_star) if verdict == "subcritical" else None
    return CriticalityReport(
        thresholds=tuple((e.index, e.t) for e in run.entries),
        verdict=verdict,
        t_star_estimate=t_star,
        ground_state=gs,
        certificate=cert,
        energies=tuple(e.energy for e in run.entries),
        levels=tuple(e.level for e in run.entries),
        coordinates=run.coordinates,
        weight=run.weight,
        x0=run.x0,
        run=run,
    )


def _collatz_lower(
    op: DiscreteOperator, wvals: np.ndarray, t: float, v: np.ndarray, tol: float
) -> tuple[float, bool]:
    """Collatz-Wielandt lower bound on the level's threshold from its
    minimizer v >= 0, and whether the bound is certified.

    With the eigen-residual r = R(v) - t tau W phi_p(v), the bound is
    t + min r_j / (tau_j W_j phi_p(v_j)) over the weighted free nodes,
    those where t tau_j W_j phi_p(v_j) exceeds tol times the residual
    scale.  It is certified when R_j(v) >= -tol * scale at every other free
    node, where the Picone inequality needs R(v) >= 0.
    """
    load = t * op.grid.node_w * wvals * phi_p(v, op.p)
    r, scale, _ = op.residual_terms(v, load)
    gate = tol * max(scale, 1e-300)
    free = ~op.grid.dirichlet_mask
    weighted = free & (load > gate)
    if not weighted.any():
        return -math.inf, False
    lower = t * (1.0 + float(np.min(r[weighted] / load[weighted])))
    others = free & ~weighted
    return lower, bool(np.all(r[others] + load[others] >= -gate))


def _positivity_margins(run: NullSequenceRun, t_star: float) -> PositivityCertificate:
    """Weighted Picone margins lower_N - t*/2 of the discounted form
    V - (t*/2) W across the run's levels; no level is solved again."""
    margins = tuple(e.lower - 0.5 * t_star for e in run.entries)
    uncertified = tuple(e.index for e in run.entries if not e.certified)
    for idx in uncertified:
        logger.warning("level %d: positivity margin misses the residual gate", idx)
    margin = min(margins)
    if margin < -1e-8:
        logger.warning("positivity margin is negative: %g", margin)
    return PositivityCertificate(
        run.weight.scaled(0.5 * t_star), margin, margins, run.coordinates, uncertified
    )


def ground_state(
    problem: RadialProblem,
    exhaustion: ExhaustionSchedule,
    weight: PotentialSpec | None = None,
    resolution: int = 801,
    config: SolverConfig = DEFAULT_CONFIG,
    frame: str = "auto",
    report: CriticalityReport | None = None,
) -> Field:
    """Limit profile of the normalized null sequence in the critical case.

    Recomputes the last level at doubled resolution, starting from the
    coarse minimizer, and reports the limit from the finer grid; a
    StateError is raised when the verdict is not critical.  The returned
    field is 1 at the reference point and lives in the run's working
    coordinates (log-radius when the reduction applies).
    """
    if report is None:
        report = criticality_verdict(
            problem, exhaustion, weight, resolution, config=config, frame=frame
        )
    if report.verdict != "critical":
        raise StateError(
            f"ground state requires a critical verdict, got {report.verdict!r}"
        )
    run = report.run
    last = run.entries[-1]
    op2, wvals2 = _level(run.problem, last.level, run.weight, 2 * resolution)
    _, v2, _, ok = op2.principal(wvals2, config, initial=embed(last.minimizer, op2.grid))
    if not ok:
        logger.warning("refinement solve failed; returning the coarse ground state")
        return last.minimizer
    return _normalized(op2.grid, v2, run.x0)


def _normalized(grid: Grid, v: np.ndarray, x0: float) -> Field:
    ref = float(np.interp(x0, grid.nodes, v))
    if not ref > 0:
        raise StateError("minimizer vanishes at the reference point")
    return Field(grid, v / ref)


def positivity_weight(
    problem: RadialProblem,
    exhaustion: ExhaustionSchedule,
    weight: PotentialSpec | None = None,
    resolution: int = 801,
    config: SolverConfig = DEFAULT_CONFIG,
    frame: str = "auto",
    report: CriticalityReport | None = None,
) -> PositivityCertificate:
    """Certified strict-positivity weight in the subcritical case: half the
    plateau threshold times the probe, with the weighted Picone margin of
    the discounted form on every level (smallest margin reported first; see
    PositivityCertificate).

    Pass a precomputed ``report`` to skip rerunning the exhaustion; its
    certificate, computed with the verdict, is returned as is.  A critical
    or undetermined verdict raises StateError.
    """
    if report is None:
        report = criticality_verdict(
            problem, exhaustion, weight, resolution, config=config, frame=frame
        )
    if report.verdict != "subcritical":
        raise StateError(
            f"positivity weight requires a subcritical verdict, got {report.verdict!r}"
        )
    return report.certificate


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------

def q_capacity(
    problem: RadialProblem,
    compact: CompactSetSpec,
    level: tuple[float, float],
    resolution: int = 1201,
    config: SolverConfig = DEFAULT_CONFIG,
) -> CapacityReport:
    """Capacity of the compact interval inside the level: the least energy
    among fields vanishing at the level edge with values >= 1 on the set.

    The obstacle problem is solved by a primal-dual active-set iteration
    (Hintermueller, Ito & Kunisch 2003) over the set's nodes, starting with
    all of them held at 1.  Each iteration solves the runs of free nodes
    between held nodes as unforced Dirichlet problems, then releases held
    nodes whose multiplier (weak residual) is negative beyond 1e-8 of the
    residual scale and holds set nodes where u < 1; it stops when neither
    changes.  ``converged`` is False when that does not happen within one
    more iteration than the set has nodes (enough while the held set only
    shrinks), or when a held ball center would sit beside a free node.  The
    report carries the least multiplier and the largest residual at free
    nodes for inspection.
    """
    a, b = problem.require_level(level)
    compact.validate(problem)
    compact.require_inside((a, b), problem)
    k_lo, k_hi = compact.k_lo, compact.k_hi

    grid = _capacity_grid(problem, (a, b), compact, resolution)
    op = DiscreteOperator.bind(problem, grid)
    unforced = op.load(None)
    _require_nonnegative_form(op, config)

    nodes = grid.nodes
    in_set = (nodes >= k_lo - 1e-14 * max(1.0, abs(k_lo))) & (
        nodes <= k_hi + 1e-14 * max(1.0, abs(k_hi))
    )
    active = in_set.copy()
    converged = False
    for iterations in range(1, int(in_set.sum()) + 2):
        u = op.held_runs(active, 1.0, config)
        r, scale, _ = op.residual_terms(u, unforced)
        scale = max(scale, 1e-300)
        new = (active & (r >= -1e-8 * scale)) | (in_set & (u < 1.0))
        if np.array_equal(new, active):
            converged = True
            break
        # a held center beside a free node 1 leaves no Dirichlet run
        if grid.natural_left and new[0] and not new[1]:
            break
        active = new

    free_mask = ~active & ~grid.dirichlet_mask
    return CapacityReport(
        value=q_parts(grid, problem.p, op.vvals, u).total,
        minimizer=Field(grid, u),
        active_set=np.flatnonzero(active),
        min_multiplier=float(r[active].min()) if active.any() else 0.0,
        max_off_residual=float(np.max(np.abs(r[free_mask]))) if free_mask.any() else 0.0,
        residual_scale=scale,
        converged=converged,
        iterations=iterations,
    )


def _capacity_grid(
    problem: RadialProblem,
    level: tuple[float, float],
    compact: CompactSetSpec,
    resolution: int,
) -> Grid:
    """Level grid with the compact set's endpoints as exact nodes."""
    a, b = level
    k_lo, k_hi = compact.k_lo, compact.k_hi
    pieces = []
    if k_lo > a:
        pieces.append(build_grid(problem, (a, k_lo), resolution).nodes[:-1])
    pieces.append(compact.nodes(resolution))
    if k_hi < b:
        pieces.append(build_grid(problem, (k_hi, b), resolution).nodes[1:])
    return Grid(np.concatenate(pieces), problem.weight_exponent)

