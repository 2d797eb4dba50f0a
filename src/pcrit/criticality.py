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
apart: t_N sinking below a cut relative to t_1 (critical: the functional
admits a null sequence and a ground state) and t_N stalling on a plateau
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

import contextlib
import logging
import math
from dataclasses import dataclass

import numpy as np

from .energy import q_parts
from .errors import PreconditionError, StateError
from .model import (
    CompactSetSpec,
    ExhaustionSchedule,
    Field,
    Grid,
    PotentialSpec,
    RadialProblem,
    build_graded_grids,
    build_grid,
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
    endpoints would underflow.  Any other frame raises ValueError.

    Returns (problem, levels, x0, weight, coordinates); a None weight is
    replaced by the default probe on the first working-frame level.
    """
    if frame not in ("auto", "radial", "log"):
        raise ValueError(f"unknown frame {frame!r}")
    reducible = problem.d == problem.p and problem.domain[0] == 0.0
    if frame == "log" and not reducible:
        raise ValueError("log frame requires d == p with the domain reaching 0")
    if frame == "auto":
        frame = "log" if reducible and all(lv[0] > 0.0 for lv in levels) else "radial"
        if frame == "log":
            levels = tuple(log_reduced_level(lv) for lv in levels)
            if x0 is not None:
                if x0 <= 0:
                    raise ValueError("reference point must be positive for log reduction")
                x0 = math.log(x0)
            if weight is not None:
                weight = PotentialSpec.log_reduced(weight, problem.p)
    wp = problem if frame == "radial" else log_reduced_problem(problem)
    if weight is None:
        weight = default_probe(levels[0])
    return wp, levels, x0, weight, frame


def _levels(
    problem: RadialProblem,
    levels: tuple[tuple[float, float], ...],
    weight: PotentialSpec,
    resolution: int,
) -> list[tuple[DiscreteOperator, np.ndarray]]:
    """The operator on each level's grid and the probe weight's nodal
    values.  Levels whose part of the window around the probe support is
    under 0.6 of them are graded there, by one build_graded_grids call."""
    grids: dict[int, Grid] = {}
    if (hint := weight.support_hint()) is not None:
        width = hint[1] - hint[0]
        focus = (hint[0] - 0.5 * width, hint[1] + 0.5 * width)
        graded = [
            i for i, (a, b) in enumerate(levels)
            if 0.0 < min(b, focus[1]) - max(a, focus[0]) < 0.6 * (b - a)
        ]
        built = build_graded_grids(problem, [levels[i] for i in graded], focus, resolution)
        grids.update(zip(graded, built))
    out = []
    for i, level in enumerate(levels):
        grid = grids[i] if i in grids else build_grid(problem, level, resolution)
        wvals = weight.sample(grid.nodes)
        if (wvals < 0).any():
            raise PreconditionError("probe weight must be nonnegative")
        if not (wvals[grid.free] > 0).any():
            raise PreconditionError("probe weight vanishes at every interior node")
        out.append((DiscreteOperator.bind(problem, grid), wvals))
    return out


def _stretched(prev: Field, grid: Grid, log_r: bool) -> Field:
    """The previous level's minimizer on a nested level's grid: its maximum
    goes to the nearest new node, and each flank of the new level maps
    linearly (in log r when ``log_r``) onto the old flank.  Extension by zero
    would leave a flat annulus, where the p > 2 Jacobian is singular but
    for its EPS regularization."""
    x_old, x_new = prev.grid.nodes, grid.nodes
    if log_r:
        x_old, x_new = np.log(x_old), np.log(x_new)
    peak = x_old[np.argmax(prev.values)]
    near = x_new[np.argmin(np.abs(x_new - peak))]
    src = np.interp(x_new, [x_new[0], near, x_new[-1]], [x_old[0], peak, x_old[-1]])
    vals = np.interp(src, x_old, prev.values)
    vals[grid.dirichlet_mask] = 0.0
    return Field(grid, vals)


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
    ((op, wvals),) = _levels(wp, (wl,), ww, resolution)
    op.require_nonnegative(config)
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
    starts from the previous level's minimizer, stretched onto the nested
    level flank by flank around its maximum (see _stretched).

    A form that is not nonnegative on the largest level raises
    PreconditionError.  The last level's certified Collatz-Wielandt bound
    shows Q >= 0 there; the check solves only when that bound is uncertified
    or negative, or when a level fails, and then an unconverged check keeps
    the truncated run.
    """
    wp, wlevels, wx0, ww, coords = _working_frame(
        problem, exhaustion.levels, exhaustion.x0, weight, frame
    )
    exhaustion.validate(wp if frame == "log" else problem)

    levels = _levels(wp, wlevels, ww, resolution)
    # Q >= 0 is checked on the largest level only: graded levels share their
    # interior nodes, but level ends and a uniform first level are not nested
    largest = levels[-1][0]

    entries: list[LevelThreshold] = []
    failures: list[int] = []
    for idx, (lv, (op, wvals)) in enumerate(zip(wlevels, levels), start=1):
        warm = None
        if entries and wp.p != 2.0:  # p = 2 ignores a start
            warm = _stretched(entries[-1].minimizer, op.grid, coords == "radial" and lv[0] > 0.0)
        try:
            t, v, _, ok = op.principal(wvals, config, initial=warm)
        except PreconditionError:
            # a form shown not nonnegative fails as such, else as its pencil
            with contextlib.suppress(StateError):
                largest.require_nonnegative(config)
            raise
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
        mass = float((wvals * np.abs(v) ** wp.p * op.grid.node_w).sum())
        lower, certified = op.collatz_lower(wvals, t, v, config)
        entries.append(
            LevelThreshold(idx, lv, t, field, energy, mass, ok, lower, certified)
        )
    if failures:  # only a form shown not nonnegative refuses the truncated run
        with contextlib.suppress(StateError):
            largest.require_nonnegative(config)
    else:  # the last level's certified pair shows Q >= 0 on the largest level
        last = entries[-1]
        largest.require_nonnegative(config, last.lower if last.certified else None)
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

    critical: t_N fell below ``eps_crit`` * t_1 while still decreasing; the
    last normalized minimizer is reported as the ground state.
    subcritical: the last three thresholds agree to ``plateau_rtol``
    relative and sit above 10 * eps_crit * t_1; half the plateau value
    times the probe is reported as a strict-positivity weight with its
    weighted Picone margins.  Anything else is undetermined.  Relative
    cuts keep the verdict under r -> c r and W -> c W, which scale every
    t_N by c^-p (when V = 0) and by 1/c.
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
    if t_last <= eps_crit * ts[0] and decreasing:
        verdict = "critical"
    elif plateau and t_last > 10.0 * eps_crit * ts[0]:
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
    ((op2, wvals2),) = _levels(run.problem, (last.level,), run.weight, 2 * resolution)
    start = Field(op2.grid, last.minimizer.at(op2.grid.nodes))
    _, v2, _, ok = op2.principal(wvals2, config, initial=start)
    if not ok:
        logger.warning("refinement solve failed; returning the coarse ground state")
        return last.minimizer
    return _normalized(op2.grid, v2, run.x0)


def _normalized(grid: Grid, v: np.ndarray, x0: float) -> Field:
    ref = float(np.interp(x0, grid.nodes, v))
    if not ref > 0:
        raise StateError("minimizer vanishes at the reference point")
    return Field(grid, v / ref)


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
    op.require_nonnegative(config)

    nodes = grid.nodes
    in_set = (nodes >= k_lo - 1e-14 * max(1.0, abs(k_lo))) & (
        nodes <= k_hi + 1e-14 * max(1.0, abs(k_hi))
    )
    active = in_set.copy()
    converged = False
    for iterations in range(1, int(in_set.sum()) + 2):
        u = op.held_runs(active, 1.0, config)
        r, scale, _ = op.residual_terms(u, unforced)
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
        max_off_residual=float(np.abs(r[free_mask]).max()) if free_mask.any() else 0.0,
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

