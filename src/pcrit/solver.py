"""Weak residuals, Dirichlet solves, principal eigenpairs, and comparison
checks for the radial p-Laplacian with potential.

Discretization: piecewise linear nodal fields.  The weak residual at node j
pairs the equation with the hat function there,

    R_j(u) = G_{j-1} - G_j + tau_j (V_j phi_p(u_j) - f_j),
    G_i    = |s_i|^(p-2) s_i * |mid_i|^(d-1),

with s_i the cell slopes and tau_j the dual-cell mass weights.  Dirichlet
nodes are eliminated; a ball-center node (r = 0, d > 1) is kept as an
unknown with its one-sided flux, which is the natural boundary condition.

The nonlinear solves run damped Newton iterations on the exact residual.
Only the Jacobian is regularized: the flux derivative uses
(s^2 + eps^2)^((p-2)/2) factors with eps walked down a geometric schedule,
so the converged solution satisfies the true residual tolerance for every
p and the continuation only steers the iteration.  Solver failure is
reported, never raised.

All of this goes through one DiscreteOperator bound to (p, grid, V).  Its
weighted principal pair serves both the principal eigenpair (weight 1) and
the probe thresholds of pcrit.criticality: for p = 2 the discrete quotient
is minimized exactly by a symmetric tridiagonal eigensolve; for p != 2 an
inverse power iteration is used, u_{k+1} solving Q'(u_{k+1}) = W phi_p(u_k)
weakly with the quotient as the eigenvalue estimate.  For the eigenpair the
potential is shifted by a reported constant when it is negative somewhere,
so each iterate solves a coercive problem.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import eigh_tridiagonal, solve_banded
from scipy.linalg.lapack import dpttrf

from .energy import phi_p, q_parts
from .errors import PreconditionError
from .model import Field, Grid, RadialProblem, check_same_grid

logger = logging.getLogger(__name__)

# benchmark/tracer.py counts the scipy kernels bound in this module by name.
# No solve here calls these two any more; they stay bound so that the
# tracer's kernel.eigh and kernel.solveh_banded counters read 0.
eigh = scipy.linalg.eigh
solveh_banded = scipy.linalg.solveh_banded

__all__ = [
    "SolverConfig",
    "SolveReport",
    "EigenResult",
    "SignClassification",
    "WcpResult",
    "DiscreteOperator",
    "weak_residual",
    "residual_scale",
    "solve_dirichlet",
    "principal_eigenpair",
    "classify_sign",
    "wcp_check",
    "smallest_generalized_eigen",
]


# Newton's fixed schedule: Jacobian eps from EPS_START down by EPS_FACTOR to
# EPS_FLOOR (p = 2 uses EPS_FLOOR only); at most BACKTRACK_MAX step halvings.
# Inner solves of the inverse power iteration that start from a warm iterate
# begin the walk at EPS_WARM instead.
EPS_START, EPS_FACTOR, EPS_FLOOR = 1e-1, 0.1, 1e-8
EPS_WARM = 1e-6
ARMIJO_C = 1e-4
BACKTRACK_MAX = 40


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and iteration caps for the Newton solves and the eigen
    iterations.

    residual_tol is relative to the magnitude of the residual's constituent
    terms (fluxes, potential and load terms); None picks 1e-10 for p = 2 and
    1e-8 otherwise.  max_iter_per_stage caps the Newton iterations of each
    eps stage.  eigen_rtol is the relative stop of the p != 2 inverse power
    iteration on the quotient, and eigen_max_iter caps its outer iterations.
    """

    residual_tol: float | None = None
    max_iter_per_stage: int = 200
    eigen_rtol: float = 1e-8
    eigen_max_iter: int = 400

    def tol_for(self, p: float) -> float:
        if self.residual_tol is not None:
            return self.residual_tol
        return 1e-10 if p == 2.0 else 1e-8


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True)
class SolveReport:
    solution: Field
    iterations: int
    final_residual_norm: float
    converged: bool


@dataclass(frozen=True)
class EigenResult:
    lam: float
    eigenfunction: Field
    iterations: int
    converged: bool
    shift: float = 0.0


@dataclass(frozen=True)
class SignClassification:
    kind: str  # "solution" | "supersolution" | "subsolution" | "neither"
    min_residual: float
    max_residual: float
    scale: float


@dataclass(frozen=True)
class WcpResult:
    ok: bool
    max_violation: float
    lambda_1: float


# ---------------------------------------------------------------------------
# the discrete operator
# ---------------------------------------------------------------------------

def cell_tridiagonal(
    to_left: np.ndarray, to_right: np.ndarray, coupling: np.ndarray, free: slice
) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric tridiagonal (diag, offdiag) assembled from cell blocks and
    restricted to the ``free`` nodes: cell i adds to_left[i] to the diagonal
    at node i, to_right[i] at node i + 1, and couples the two by
    coupling[i]."""
    diag = np.zeros(to_left.size + 1)
    diag[:-1] += to_left
    diag[1:] += to_right
    return diag[free], coupling[free.start : free.stop - 1]


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Q'(u) = -Delta_p u + V phi_p(u) in weak form on one grid.

    ``bind`` samples V at the nodes once; residuals, Jacobians, quotients,
    principal pairs, eigenpairs and Dirichlet solves on that (problem,
    grid) all read the bound samples.  Nodal arrays passed in and out cover
    every node of the grid.
    """

    p: float
    grid: Grid
    vvals: np.ndarray

    @classmethod
    def bind(cls, problem: RadialProblem, grid: Grid) -> "DiscreteOperator":
        return cls(problem.p, grid, problem.potential.sample(grid.nodes))

    def load(self, f: Field | None) -> np.ndarray:
        """Nodal load of the forcing f (zero for None); f must live on the
        operator's grid."""
        if f is None:
            return np.zeros(self.grid.n)
        check_same_grid(self.grid, f.grid)
        return self.grid.node_w * f.values

    def _flux_and_potential(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g = self.grid
        flux = phi_p(np.diff(u) / g.h, self.p) * (g.cell_w / g.h)
        return flux, g.node_w * self.vvals * phi_p(u, self.p)

    @staticmethod
    def _assemble(flux: np.ndarray, pot: np.ndarray, load: np.ndarray) -> np.ndarray:
        r = np.empty_like(pot)
        r[0] = -flux[0]
        r[-1] = flux[-1]
        r[1:-1] = flux[:-1] - flux[1:]
        r += pot - load
        return r

    def residual(self, u: np.ndarray, load: np.ndarray) -> np.ndarray:
        """Residual at every node (values at Dirichlet nodes are reported
        too, where they equal the boundary flux defect; callers mask them)."""
        return self._assemble(*self._flux_and_potential(u), load)

    def residual_and_scale(self, u: np.ndarray, load: np.ndarray) -> tuple[np.ndarray, float]:
        """The residual, and the magnitude of its constituent terms before
        cancellation (tolerances are taken relative to it)."""
        flux, pot = self._flux_and_potential(u)
        g_abs = np.abs(flux)
        flux_part = np.zeros_like(u)
        flux_part[:-1] += g_abs
        flux_part[1:] += g_abs
        terms = flux_part + np.abs(pot) + np.abs(load)
        return self._assemble(flux, pot, load), float(terms.max())

    def jacobian(self, u: np.ndarray, eps: float) -> np.ndarray:
        """Tridiagonal Jacobian of the residual on the free nodes, in
        solve_banded's (3, m) layout.  Flux and potential derivatives use
        the eps-regularized powers; at p = 2 the regularization is exactly
        inert."""
        g, p = self.grid, self.p
        s = np.diff(u) / g.h
        reg = (s * s + eps * eps) ** (0.5 * (p - 2.0))
        gp = reg * (1.0 + (p - 2.0) * s * s / (s * s + eps * eps)) * (g.cell_w / g.h)
        kcell = gp / g.h  # coupling strength of each cell
        pot = g.node_w * self.vvals * (p - 1.0) * (u * u + eps * eps) ** (0.5 * (p - 2.0))
        diag, off = cell_tridiagonal(kcell, kcell, -kcell, g.free)
        ab = np.zeros((3, diag.size))
        ab[1, :] = diag + pot[g.free]
        ab[0, 1:] = off
        ab[2, :-1] = off
        return ab

    def quotient(self, u: np.ndarray, weight: np.ndarray) -> tuple[float, float]:
        """(p Q(u) / integral(W |u|^p), integral(W |u|^p)) for the nodal
        weight W."""
        q = q_parts(self.grid, self.p, self.vvals, u)
        mass = float(np.sum(weight * np.abs(u) ** self.p * self.grid.node_w))
        return (q.gradient_term + q.potential_term) / mass, mass

    def flux_floor(self, u: np.ndarray) -> float:
        """max(cell_w / h) * max|u|: the size of the flux terms at u's
        magnitude, whose rounding bounds how small a residual can get."""
        g = self.grid
        return float(np.max(g.cell_w / g.h)) * float(np.max(np.abs(u), initial=0.0))

    def flux_sensitivity(self, u: np.ndarray) -> float:
        """max over cells of (cell_w / h) phi_p'(|s| + t), times max|u|: how
        far the flux terms move when u moves by a relative eps, up to the
        factor eps / h, which bounds how small a residual can get.  The
        offset t = eps max|u| / min h, the slope change of a one-ulp move of
        u, keeps phi_p' finite for p < 2.  At p = 2 this is flux_floor."""
        g, p = self.grid, self.p
        umax = float(np.max(np.abs(u), initial=0.0))
        if umax == 0.0:
            return 0.0
        t = float(np.finfo(float).eps) * umax / float(np.min(g.h))
        slope = np.abs(np.diff(u) / g.h) + t
        return float(np.max(g.cell_w / g.h * (p - 1.0) * slope ** (p - 2.0))) * umax

    def principal(
        self,
        weight: np.ndarray,
        config: SolverConfig,
        shift: float = 0.0,
        stop_floor: float = 0.0,
        initial: Field | None = None,
    ) -> tuple[float, np.ndarray, int, bool]:
        """Principal pair of Q'(u) = lam W phi_p(u) for the nodal weight
        W >= 0: (lam, u, iterations, converged), u >= 0 and zero at the
        Dirichlet nodes.

        p = 2: one generalized tridiagonal eigensolve against the weight
        mass, which may vanish outside a window; u is the eigenvector.
        p != 2: weighted inverse power iteration (Biezuner, Ercole &
        Martins 2009).  u_{k+1} solves Q'(u_{k+1}) + shift phi_p(u_{k+1}) =
        W phi_p(u_k), with ``shift`` making each solve coercive, and is
        scaled to unit weighted mass; the quotient estimates lam and the
        iteration stops once it moves by at most
        eigen_rtol * max(stop_floor, |lam|).  The iteration starts from
        ``initial`` when given (a tent otherwise); p = 2 ignores it.  Inner
        solves from a warm iterate (any after the first, and the first from
        ``initial``) start their eps walk at EPS_WARM.
        """
        g, p = self.grid, self.p
        if p == 2.0:
            kcell = g.cell_w / g.h**2
            diag, off = cell_tridiagonal(kcell, kcell, -kcell, g.free)
            lam, vec = smallest_generalized_eigen(
                diag + (g.node_w * self.vvals)[g.free], off, (g.node_w * weight)[g.free]
            )
            u = np.zeros(g.n)
            u[g.free] = vec
            return lam, u, 1, True

        a, b = g.interval
        if initial is not None:
            u = initial.values.copy()
        elif g.natural_left:  # tent seeds, zero at the Dirichlet ends
            u = (b - g.nodes) / (b - a)
        else:
            u = np.minimum(g.nodes - a, b - g.nodes) / (b - a)
        u[g.dirichlet_mask] = 0.0
        u = np.maximum(u, 0.0)
        if not np.any(u > 0):
            raise ValueError("initial eigenfunction guess vanishes")
        lam, mass = self.quotient(u, weight)
        u = u / mass ** (1.0 / p)

        inner = DiscreteOperator(p, g, self.vvals + shift)
        eps_start = EPS_START if initial is None else EPS_WARM
        converged = False
        iters = 0
        for iters in range(1, config.eigen_max_iter + 1):
            load = g.node_w * weight * phi_p(u, p)
            w0 = u * (lam + shift) ** (-1.0 / (p - 1.0))
            w, _, _, ok = _newton_core(inner, load, w0, config, eps_start)
            eps_start = EPS_WARM
            if not ok:
                logger.debug("principal pair: inner solve failed at iteration %d", iters)
                break
            w = np.maximum(w, 0.0)
            lam_new, mass = self.quotient(w, weight)
            if not (0.0 < mass < math.inf and math.isfinite(lam_new)):
                logger.debug("principal pair: iterate lost its weighted mass at iteration %d", iters)
                break
            u = w / mass ** (1.0 / p)
            if abs(lam_new - lam) <= config.eigen_rtol * max(stop_floor, abs(lam_new)):
                lam = lam_new
                converged = True
                break
            lam = lam_new
        return lam, u, iters, converged

    def eigenpair(self, config: SolverConfig) -> EigenResult:
        """Principal Dirichlet eigenpair of Q on the grid (see
        principal_eigenpair)."""
        vmin = float(self.vvals.min())
        # only the inner solves of the p != 2 iteration need a coercive potential
        shift = 0.0 if self.p == 2.0 or vmin >= 0 else (1.0 - vmin)
        ones = np.ones(self.grid.n)
        lam, u, iters, converged = self.principal(ones, config, shift, 1.0)
        u[self.grid.dirichlet_mask] = 0.0
        u /= self.quotient(u, ones)[1] ** (1.0 / self.p)
        return EigenResult(lam, Field(self.grid, u), iters, converged, shift)

    def dirichlet(
        self,
        boundary: tuple[float | None, float],
        f: Field | None,
        config: SolverConfig,
        initial: Field | None,
    ) -> SolveReport:
        """Solve Q'(u) = f with prescribed boundary data (see
        solve_dirichlet)."""
        grid = self.grid
        bl, br = boundary
        if grid.natural_left:
            if bl is not None:
                raise ValueError("grid starts at a ball center; left boundary value must be None")
        else:
            if bl is None:
                raise ValueError("left boundary value required for this grid")
            if bl < 0:
                raise ValueError(f"boundary data must be nonnegative, got left={bl}")
        if br is None or br < 0:
            raise ValueError(f"boundary data must be nonnegative, got right={br}")

        load = self.load(f)
        if f is not None and np.any(f.values < 0):
            raise PreconditionError("forcing f must be nonnegative")

        if initial is not None:
            u0 = initial.values.copy()
        else:
            a, b = grid.interval
            left_anchor = br if bl is None else bl
            u0 = left_anchor + (grid.nodes - a) / (b - a) * (br - left_anchor)
        if not grid.natural_left:
            u0[0] = bl
        u0[-1] = br

        u, iters, res, conv = _newton_core(self, load, u0, config)
        return SolveReport(Field(grid, u), iters, res, conv)


def weak_residual(u: Field, problem: RadialProblem, f: Field | None = None) -> Field:
    """Weak residual of Q'(u) = f at every non-Dirichlet node of u's grid.

    Entries at Dirichlet nodes are set to zero; everything else is the hat
    function pairing with midpoint fluxes and dual-cell mass weights.
    """
    op = DiscreteOperator.bind(problem, u.grid)
    r = op.residual(u.values, op.load(f))
    r[u.grid.dirichlet_mask] = 0.0
    return Field(u.grid, r)


def residual_scale(u: Field, problem: RadialProblem, f: Field | None = None) -> float:
    """Size of the residual's terms; tolerances are taken relative to it."""
    op = DiscreteOperator.bind(problem, u.grid)
    return op.residual_and_scale(u.values, op.load(f))[1]


# ---------------------------------------------------------------------------
# Newton continuation
# ---------------------------------------------------------------------------

def _newton_core(
    op: DiscreteOperator,
    load: np.ndarray,
    u0: np.ndarray,
    config: SolverConfig,
    eps_start: float = EPS_START,
) -> tuple[np.ndarray, int, float, bool]:
    """Damped Newton with eps-continuation from ``eps_start``.  Returns
    (u, iterations, residual_norm, converged).  Dirichlet values of u0 are
    held fixed."""
    grid, p = op.grid, op.p
    free = grid.free
    tol = config.tol_for(p)
    u = u0.copy()

    if p == 2.0:
        stages = [EPS_FLOOR]
    else:
        stages = []
        e = eps_start
        while e > EPS_FLOOR * 1.0000001:
            stages.append(e)
            e *= EPS_FACTOR
        stages.append(EPS_FLOOR)

    total_iter = 0
    res_norm = math.inf
    scale = 1.0
    for stage_idx, eps in enumerate(stages):
        final_stage = stage_idx == len(stages) - 1
        stage_tol_factor = tol if final_stage else max(tol, eps * 1e-2)
        for _ in range(config.max_iter_per_stage):
            r_full, scale = op.residual_and_scale(u, load)
            r = r_full[free]
            scale = max(scale, 1e-300)
            res_norm = float(np.max(np.abs(r))) if r.size else 0.0
            if res_norm <= stage_tol_factor * scale:
                break
            ab = op.jacobian(u, eps)
            du = None
            shift = 0.0
            for _attempt in range(8):
                try:
                    ab_try = ab.copy()
                    ab_try[1, :] += shift
                    du = solve_banded((1, 1), ab_try, -r)
                except np.linalg.LinAlgError:
                    du = None
                if du is not None and np.all(np.isfinite(du)):
                    break
                shift = max(2.0 * shift, 1e-8 * float(np.max(np.abs(ab[1])))) if shift else 1e-12 * float(
                    np.max(np.abs(ab[1])) or 1.0
                )
            if du is None or not np.all(np.isfinite(du)):
                logger.debug("newton: linear solve failed irrecoverably at eps=%g", eps)
                break
            merit = 0.5 * float(np.dot(r, r))
            alpha = 1.0
            accepted = False
            for _bt in range(BACKTRACK_MAX):
                u_try = u.copy()
                u_try[free] = u[free] + alpha * du
                r_try = op.residual(u_try, load)[free]
                merit_try = 0.5 * float(np.dot(r_try, r_try))
                if np.isfinite(merit_try) and merit_try <= merit * (1.0 - ARMIJO_C * alpha):
                    u = u_try
                    accepted = True
                    break
                alpha *= 0.5
            total_iter += 1
            if not accepted:
                logger.debug("newton: no descent at eps=%g, res=%g", eps, res_norm)
                break
        else:
            logger.debug(
                "newton: eps=%g stage hit its %d-iteration cap, res=%g > gate %g",
                eps, config.max_iter_per_stage, res_norm, stage_tol_factor * scale,
            )

    r_full, scale = op.residual_and_scale(u, load)
    r = r_full[free]
    res_norm = float(np.max(np.abs(r))) if r.size else 0.0
    scale = max(scale, 1e-300)
    # stagnation at the rounding floor: near-harmonic solutions have
    # residual terms far below what a one-ulp change of u does to the
    # fluxes, so the relative gate can undershoot what rounding lets any
    # iterate reach; accept when the defect is at that level
    converged = res_norm <= tol * scale or res_norm <= 1e4 * float(np.finfo(float).eps) * max(
        op.flux_sensitivity(u), scale
    )
    return u, total_iter, res_norm, converged


def solve_dirichlet(
    problem: RadialProblem,
    grid: Grid,
    boundary: tuple[float | None, float],
    f: Field | None = None,
    config: SolverConfig = DEFAULT_CONFIG,
    initial: Field | None = None,
) -> SolveReport:
    """Solve Q'(u) = f on the grid with prescribed nonnegative boundary data.

    ``boundary`` gives (left, right) trace values; the left value must be
    None exactly when the grid's left node is a ball center (no boundary
    there).  f, when given, must be a nonnegative field on the same grid.
    Non-convergence is reported through the ``converged`` flag.
    """
    return DiscreteOperator.bind(problem, grid).dirichlet(boundary, f, config, initial)


# ---------------------------------------------------------------------------
# eigenpairs
# ---------------------------------------------------------------------------

def smallest_generalized_eigen(
    diag: np.ndarray, off: np.ndarray, mass: np.ndarray
) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue of the pencil (A, M) for symmetric tridiagonal A
    and diagonal M >= 0, with its eigenvector x scaled to x^T M x = 1 and
    its largest-magnitude entry positive.

    With strictly positive mass this is the congruence-transformed
    tridiagonal eigenproblem.  With a partially supported mass A must be
    positive definite.  Then A - sigma M is positive definite exactly when
    sigma lies below the smallest eigenvalue (Sylvester's law of inertia:
    the rows without mass carry no sigma term), so the eigenvalue is
    bisected to adjacent floats on whether dpttrf's LDL^T factorization of
    A - sigma M succeeds.  Every number stays in range when the mass is
    graded over hundreds of decades, where a congruence by M^(-1/2) would
    overflow.  Two steps of inverse iteration on A - sigma M just below the
    eigenvalue give the vector on every node.  The work is O(m) per
    bisection step.  The eigenvalue is only as accurate as the (diag, off)
    form of A lets any backward-stable method be: when A's row sums are
    small against its diagonal (a stiffness matrix on a fine grid) a small
    eigenvalue can carry relative errors far above rounding.

    Raises ValueError for a negative or identically vanishing mass; the
    partial-mass branch raises PreconditionError when A is not positive
    definite or the vector solve fails.
    """
    if np.any(mass < 0):
        raise ValueError("mass diagonal must be nonnegative")
    if np.all(mass > 0):
        dinv = 1.0 / np.sqrt(mass)
        d2 = diag * dinv * dinv
        e2 = off * dinv[:-1] * dinv[1:]
        vals, vecs = eigh_tridiagonal(d2, e2, select="i", select_range=(0, 0))
        return float(vals[0]), _oriented(vecs[:, 0] * dinv)
    return _partial_mass_eigen(diag, off, mass)


def _partial_mass_eigen(
    diag: np.ndarray, off: np.ndarray, mass: np.ndarray
) -> tuple[float, np.ndarray]:
    """The partial-mass branch of smallest_generalized_eigen."""
    on = mass > 0
    if not np.any(on):
        raise ValueError("mass diagonal vanishes identically")

    def below(sigma: float) -> bool:
        return dpttrf(diag - sigma * mass, off)[2] == 0

    if not below(0.0):
        raise PreconditionError(
            "quadratic form is not positive definite on the level; the partial-mass"
            " eigenvalue needs a nonnegative functional"
        )
    # bracket from the quotient at a unit vector, then bisect geometrically
    # while the bracket spans more than a factor 2
    hi = float(np.min(diag[on] / mass[on]))
    lo = hi
    while not below(lo):
        hi, lo = lo, lo * 2.0**-16
    while lo < (mid := math.sqrt(lo) * math.sqrt(hi) if hi > 2.0 * lo else 0.5 * (lo + hi)) < hi:
        if below(mid):
            lo = mid
        else:
            hi = mid

    shifted = np.zeros((3, diag.size))
    shifted[0, 1:] = off
    shifted[1, :] = diag - hi * (1.0 - 1e-10) * mass
    shifted[2, :-1] = off
    x = np.ones(diag.size)
    try:
        for _ in range(2):
            x = solve_banded((1, 1), shifted, mass * x)
            x /= np.max(np.abs(x))
    except np.linalg.LinAlgError as exc:
        raise PreconditionError(f"partial-mass inverse iteration failed: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise PreconditionError("partial-mass eigenvector came out non-finite")
    return hi, _oriented(x / math.sqrt(float(np.sum(mass * x * x))))


def _oriented(vec: np.ndarray) -> np.ndarray:
    return -vec if vec[np.argmax(np.abs(vec))] < 0 else vec


def principal_eigenpair(
    problem: RadialProblem,
    grid: Grid,
    config: SolverConfig = DEFAULT_CONFIG,
) -> EigenResult:
    """Principal Dirichlet eigenpair of Q on the grid.

    The eigenfunction is positive at non-Dirichlet nodes, zero at Dirichlet
    nodes, and normalized to unit weighted L^p norm.  For p = 2 the discrete
    quotient is minimized by a direct tridiagonal eigensolve (exactly the
    limit the inverse iteration approaches); for p != 2 the inverse power
    iteration runs until the Rayleigh quotient stalls at relative
    ``eigen_rtol``.
    """
    return DiscreteOperator.bind(problem, grid).eigenpair(config)


# ---------------------------------------------------------------------------
# classification and comparison
# ---------------------------------------------------------------------------

def classify_sign(u: Field, problem: RadialProblem, tol: float) -> SignClassification:
    """Classify a nonnegative field by the sign of its weak residual.

    Residuals are compared against tol * (term scale): everywhere small is
    "solution"; everywhere above -tol*scale is "supersolution"; everywhere
    below +tol*scale is "subsolution"; otherwise "neither".
    """
    if np.any(u.values < 0):
        raise PreconditionError("classify_sign expects a nonnegative field")
    grid = u.grid
    op = DiscreteOperator.bind(problem, grid)
    r, scale = op.residual_and_scale(u.values, op.load(None))
    rfree = r[~grid.dirichlet_mask]
    scale = max(scale, 1e-300)
    rmin = float(rfree.min()) if rfree.size else 0.0
    rmax = float(rfree.max()) if rfree.size else 0.0
    gate = tol * scale
    if rmin >= -gate and rmax <= gate:
        kind = "solution"
    elif rmin >= -gate:
        kind = "supersolution"
    elif rmax <= gate:
        kind = "subsolution"
    else:
        kind = "neither"
    return SignClassification(kind, rmin, rmax, scale)


def wcp_check(
    u1: Field,
    u2: Field,
    problem: RadialProblem,
    tol: float = 1e-8,
    hypothesis_tol: float = 1e-9,
    lambda_1: float | None = None,
    config: SolverConfig = DEFAULT_CONFIG,
) -> WcpResult:
    """Weak comparison check: verify the ordering hypotheses, then test
    u1 <= u2 + tol everywhere.

    Hypotheses: Q'(u1) <= Q'(u2) nodewise, Q'(u2) >= 0, u1 <= u2 on the
    Dirichlet boundary, u2 >= 0 there, and a positive principal eigenvalue
    on the grid.  Any failure raises PreconditionError naming the culprit;
    the conclusion's violation is returned, not raised.
    """
    grid = u1.grid
    check_same_grid(grid, u2.grid)
    op = DiscreteOperator.bind(problem, grid)
    r1, scale1 = op.residual_and_scale(u1.values, op.load(None))
    r2, scale2 = op.residual_and_scale(u2.values, op.load(None))
    free = ~grid.dirichlet_mask
    scale = max(scale1, scale2, 1e-300)
    gate = hypothesis_tol * scale
    failures = []
    if np.any(r1[free] > r2[free] + gate):
        failures.append("Q'(u1) <= Q'(u2)")
    if np.any(r2[free] < -gate):
        failures.append("Q'(u2) >= 0")
    vals_scale = max(float(np.max(np.abs(u1.values))), float(np.max(np.abs(u2.values))), 1.0)
    bgate = hypothesis_tol * vals_scale
    bmask = grid.dirichlet_mask
    if np.any(u1.values[bmask] > u2.values[bmask] + bgate):
        failures.append("u1 <= u2 on the boundary")
    if np.any(u2.values[bmask] < -bgate):
        failures.append("u2 >= 0 on the boundary")
    if lambda_1 is None:
        lambda_1 = op.eigenpair(config).lam
    if not lambda_1 > 0:
        failures.append("lambda_1 > 0 on the level")
    if failures:
        raise PreconditionError(
            "weak comparison hypotheses failed: " + "; ".join(failures)
        )
    viol = float(np.max(u1.values - u2.values))
    return WcpResult(viol <= tol, max(viol, 0.0), lambda_1)
