"""Weak residuals, Dirichlet solves, principal eigenpairs, and comparison
checks for the radial p-Laplacian with potential.

Discretization: piecewise linear nodal fields.  The weak residual at node j
pairs the equation with the hat function there,

    R_j(u) = G_{j-1} - G_j + tau_j (V_j phi_p(u_j) - f_j),
    G_i    = |s_i|^(p-2) s_i * |mid_i|^(d-1),

with s_i the cell slopes and tau_j the dual-cell mass weights.  Dirichlet
nodes are eliminated; a ball-center node (r = 0, d > 1) is kept as an
unknown with its one-sided flux, which is the natural boundary condition.

The nonlinear solves run damped Newton iterations on the exact residual,
which is the gradient of the discrete energy J(u) = Q(u) - <f, u>.  Only
the Jacobian is modified: its powers are regularized by a fixed EPS, and at
p > 2 it drops V's negative part, so it is positive definite and its step
descends J (Newton with Hessian modification).  At p > 2 the line search
also accepts a step that lowers J: where the profile peaks, the degenerate
flux derivative makes the residual's norm a poor merit.  A cold Dirichlet
solve at p > 2 starts from the p = 2 solution of the same data.  Solver
failure is reported, never raised, except by the held-run solve, which has
no report to carry it.

All of this goes through one DiscreteOperator bound to (p, grid, V); its
slices read the bound samples, and capacities and exhaustion limits share
its held-run solve.  Its weighted principal pair serves both the principal
eigenpair (weight 1) and the probe thresholds of pcrit.criticality: for
p = 2 the discrete quotient is minimized by the smallest eigenvector of a
tridiagonal pencil, found by rounds of inverse iteration, each on the LDL^T
factors of the pencil shifted to the lower end of a bracket of its
eigenvalue, which the first inverse step sets and bisection narrows between
rounds; for p != 2 an inverse power iteration is used,
u_{k+1} solving Q'(u_{k+1}) = W phi_p(u_k) weakly: loosely while the
quotient moves, to the full gate before it may stop.  A cold iteration
starts from the p = 2 pencil's vector of the same weight, as a cold
Dirichlet solve starts from its p = 2 solution.  At every p the eigenvalue
is the quotient at the vector.  For the eigenpair the potential is shifted
by a reported constant when it is negative somewhere, so the p = 2 pencil
is positive definite and each p != 2 iterate solves a coercive problem.
The operator owns the lambda_1 hypotheses, Q >= 0 and lambda_1 > 0; both
rules fall back on one eigensolve, which refuses an unconverged quotient
above the rule's threshold, since it bounds lambda_1 from above only.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import logging
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy

from .energy import phi_p, q_parts
from .errors import PreconditionError, StateError
from .model import Field, Grid, RadialProblem, check_same_grid

logger = logging.getLogger(__name__)


def _load_flapack():
    """scipy's f2py LAPACK extension, the module scipy.linalg.lapack
    re-exports, loaded from its file so that importing pcrit does not
    import the scipy.linalg package (most of pcrit's start-up time)."""
    folder = Path(scipy.__file__).parent / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if (path := folder / f"_flapack{suffix}").is_file():
            spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"scipy's LAPACK extension is missing: no {folder / '_flapack'}.* file")


_flapack = _load_flapack()
dgtsv, dpttrf, dpttrs = _flapack.dgtsv, _flapack.dpttrf, _flapack.dpttrs

# benchmark/tracer.py counts the kernels bound in this module by name:
# solve_banded below, pcrit's own call of LAPACK's gtsv, which every Newton
# step makes once, and three scipy.linalg functions that no solve here
# calls.  Those three resolve lazily, for the tracer only, until its
# kernel.eigh, kernel.solveh_banded and kernel.eigh_tridiagonal counters
# are retired (ROADMAP item 19).
_TRACER_KERNELS = ("eigh", "solveh_banded", "eigh_tridiagonal")


def __getattr__(name):
    if name not in _TRACER_KERNELS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import scipy.linalg

    value = globals()[name] = getattr(scipy.linalg, name)
    return value

__all__ = [
    "SolverConfig",
    "SolveReport",
    "EigenResult",
    "SignClassification",
    "WcpResult",
    "DiscreteOperator",
    "solve_dirichlet",
    "principal_eigenpair",
    "classify_sign",
    "wcp_check",
    "smallest_generalized_eigen",
]


# Newton's Jacobian regularization EPS, and its line search: at most
# BACKTRACK_MAX halving trials per step, each accepted by Armijo with
# ARMIJO_C on the residual's squared norm or, at p > 2, on the energy J.
EPS = 1e-8
ARMIJO_C = 1e-4
BACKTRACK_MAX = 40
INNER_RTOL = 1e-3  # loosest inner gate of the p != 2 inverse iteration

WCP_TOL = 1e-8  # slack of wcp_check's conclusion u1 <= u2 + WCP_TOL


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and iteration caps for the Newton solves and the eigen
    iterations.

    residual_tol is relative to the magnitude of the residual's constituent
    terms (fluxes, potential and load terms); None picks 1e-10 for p = 2 and
    1e-8 otherwise.  max_iter_per_stage caps the iterations of each Newton
    solve; a cold Dirichlet solve at p > 2 makes two, its p = 2 start and
    the solve itself.  The name is kept from the continuation stages it
    once capped, because [tolerances] configs set it.  eigen_rtol is the
    relative stop of the p != 2 inverse power iteration on the quotient,
    and eigen_max_iter caps its outer iterations.
    Both tolerances lie in (0, 1): the residual never exceeds its scale, so
    a tolerance of 1 or more would accept an iteration's start.  Both caps
    are at least 0; a negative cap would never be reached.
    """

    residual_tol: float | None = None
    max_iter_per_stage: int = 200
    eigen_rtol: float = 1e-8
    eigen_max_iter: int = 400

    def __post_init__(self):
        for name, value in (("residual_tol", self.residual_tol), ("eigen_rtol", self.eigen_rtol)):
            if value is not None and not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {value}")
        for name in ("max_iter_per_stage", "eigen_max_iter"):
            if (cap := getattr(self, name)) < 0:
                raise ValueError(f"{name} must be >= 0, got {cap}")

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
    """The conclusion u1 <= u2 + WCP_TOL, its worst violation, and lambda_1:
    the principal eigenvalue that was given, or else a certified lower bound
    on it (see wcp_check)."""

    ok: bool
    max_violation: float
    lambda_1: float


# ---------------------------------------------------------------------------
# the discrete operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Q'(u) = -Delta_p u + V phi_p(u) in weak form on one grid.

    ``bind`` samples V at the nodes once; residuals, Jacobians, quotients,
    principal pairs, eigenpairs, Dirichlet and held-run solves on that
    (problem, grid) and its slices read the bound samples.  The flux
    weights cell_w / h, the potential weights node_w V and the Jacobian's,
    and whether V vanishes at every node, which spares each residual and
    Jacobian its potential pass, are computed once per operator, on first
    use.  Nodal arrays passed in and out cover every node of the grid.
    """

    p: float
    grid: Grid
    vvals: np.ndarray

    @classmethod
    def bind(cls, problem: RadialProblem, grid: Grid) -> "DiscreteOperator":
        return cls(problem.p, grid, problem.potential.sample(grid.nodes))

    def restrict(self, start: int, stop: int) -> "DiscreteOperator":
        """The operator on nodes[start:stop], reading the bound V samples."""
        return DiscreteOperator(self.p, self.grid.restrict(start, stop), self.vvals[start:stop])

    @cached_property
    def _flux_w(self) -> np.ndarray:
        w = self.grid.cell_w / self.grid.h
        w.setflags(write=False)
        return w

    @cached_property
    def _v_vanishes(self) -> bool:
        return not np.any(self.vvals)

    @cached_property
    def _pot_w(self) -> np.ndarray:
        w = self.grid.node_w * self.vvals
        w.setflags(write=False)
        return w

    @cached_property
    def _jac_pot_w(self) -> np.ndarray:
        # the Jacobian's potential weights on the free nodes
        w = self._pot_w[self.grid.free]
        w = (np.maximum(w, 0.0) if self.p > 2.0 else w) * (self.p - 1.0)
        w.setflags(write=False)
        return w

    def load(self, f: Field | None) -> np.ndarray:
        """Nodal load of the forcing f (zero for None); f must live on the
        operator's grid."""
        if f is None:
            return np.zeros(self.grid.n)
        check_same_grid(self.grid, f.grid)
        return self.grid.node_w * f.values

    def residual_terms(
        self, u: np.ndarray, load: np.ndarray
    ) -> tuple[np.ndarray, float, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The residual at every node; the magnitude of its constituent
        terms before cancellation, floored at 1e-300, which tolerances are
        taken relative to; and the cell fluxes, nodal potential terms and
        cell differences of u it was assembled from, which ``energy``
        reads.  Values at Dirichlet nodes are reported too, where they
        equal the boundary flux defect; callers mask them."""
        du = u[1:] - u[:-1]
        flux = phi_p(du / self.grid.h, self.p) * self._flux_w
        g_abs = np.abs(flux)
        # |G_{j-1}| + |G_j|, then |pot_j|, then |load_j|: the scale's bits
        # depend on this order
        terms = np.empty(self.grid.n)
        terms[0] = g_abs[0]
        terms[-1] = g_abs[-1]
        np.add(g_abs[1:], g_abs[:-1], out=terms[1:-1])
        r = np.empty(self.grid.n)
        r[0] = -flux[0]
        r[-1] = flux[-1]
        np.subtract(flux[:-1], flux[1:], out=r[1:-1])
        if self._v_vanishes:  # no potential terms: the same bits, one pass fewer
            pot = None
            r -= load
        else:
            pot = self._pot_w * phi_p(u, self.p)
            terms += np.abs(pot)
            r += pot - load
        terms += np.abs(load)
        return r, max(float(terms.max()), 1e-300), (flux, pot, du)

    def energy(
        self, u: np.ndarray, terms: tuple[np.ndarray, np.ndarray, np.ndarray], load: np.ndarray
    ) -> float:
        """J(u) = Q(u) - <load, u>, whose gradient on the free nodes is the
        residual, from residual_terms' terms at u without another power:
        |G_i| |u_{i+1} - u_i| = cell_w |s_i|^p and pot_j u_j = node_w V |u_j|^p."""
        flux, pot, du = terms
        q = float(np.dot(np.abs(flux), np.abs(du)))
        if pot is not None:
            q += float(np.dot(pot, u))
        return q / self.p - float(np.dot(load, u))

    def jacobian(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Tridiagonal Jacobian of the residual on the free nodes, as its
        (diagonal, off-diagonal).  Flux and potential derivatives use the
        EPS-regularized powers, which are exact at p = 2 (see _p2_form).
        At p > 2 the potential weights node_w V are clipped at 0, so the
        matrix is positive definite and its step descends J where V < 0."""
        g, p = self.grid, self.p
        lo, hi = g.free.start, g.free.stop
        s = (u[1:] - u[:-1]) / g.h
        s2_reg = s * s + EPS * EPS
        reg = s2_reg ** (0.5 * (p - 2.0))
        gp = reg * (1.0 + (p - 2.0) * s * s / s2_reg) * self._flux_w
        kcell = gp / g.h  # coupling strength of each cell
        # free node j couples through cell j to its right and, unless it is
        # the ball center (lo = 0), through cell j - 1 to its left
        diag = kcell[lo:hi].copy()
        diag[1 - lo :] += kcell[: hi - 1]
        if not self._v_vanishes:
            uf = u[lo:hi]
            diag += self._jac_pot_w * (uf * uf + EPS * EPS) ** (0.5 * (p - 2.0))
        return diag, -kcell[lo : hi - 1]

    def _p2_form(self, vvals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The free block (diagonal, off-diagonal) of the p = 2 form's
        matrix with nodal potential vvals: the cell stiffness cell_w / h^2
        plus node_w vvals.  At p = 2 and vvals = V it is the Jacobian at
        every u, bit for bit."""
        g = self.grid
        lo, hi = g.free.start, g.free.stop
        k = self._flux_w / g.h
        diag = k[lo:hi].copy()
        diag[1 - lo :] += k[: hi - 1]
        diag += g.node_w[lo:hi] * vvals[lo:hi]
        return diag, -k[lo : hi - 1]

    def quotient(self, u: np.ndarray, weight: np.ndarray) -> tuple[float, float]:
        """(p Q(u) / integral(W |u|^p), integral(W |u|^p)) for the nodal
        weight W; the quotient is nan when the mass is not positive."""
        q = q_parts(self.grid, self.p, self.vvals, u)
        mass = self._mass(u, weight)
        if not mass > 0.0:  # |u|^p underflows, or u vanishes on the weight
            return math.nan, mass
        return (q.gradient_term + q.potential_term) / mass, mass

    def _mass(self, u: np.ndarray, weight: np.ndarray) -> float:
        return float(np.sum(weight * np.abs(u) ** self.p * self.grid.node_w))

    def flux_sensitivity(self, u: np.ndarray) -> float:
        """max over cells of (cell_w / h) phi_p'(|s| + t), times max|u|: how
        far the flux terms move when u moves by a relative eps, up to the
        factor eps / h, which bounds how small a residual can get.  The
        offset t = eps max|u| / min h, the slope change of a one-ulp move of
        u, keeps phi_p' finite for p < 2.  At p = 2 this is
        max(cell_w / h) * max|u|."""
        g, p = self.grid, self.p
        umax = float(np.max(np.abs(u), initial=0.0))
        if umax == 0.0:
            return 0.0
        t = float(np.finfo(float).eps) * umax / float(np.min(g.h))
        slope = np.abs((u[1:] - u[:-1]) / g.h) + t
        return float(np.max(self._flux_w * (p - 1.0) * slope ** (p - 2.0))) * umax

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
        Dirichlet nodes.  At every p, lam is the quotient at u.

        ``shift`` adds a constant to V in the form being inverted, which
        makes it positive definite (p = 2) or each solve coercive (p != 2).
        p = 2: u is the smallest eigenvector of the pencil of Q + shift
        against the weight mass, which may vanish outside a window.
        p != 2: weighted inverse power iteration (Biezuner, Ercole &
        Martins 2009).  u_{k+1} solves Q'(u_{k+1}) + shift phi_p(u_{k+1}) =
        W phi_p(u_k) and is scaled to unit weighted mass; the iteration
        stops once the quotient moves by at most
        eigen_rtol * max(stop_floor, |lam|).  The inner solves are inexact
        (Golub & Ye 2000): step k solves to max(tol, INNER_RTOL min(1,
        delta)) with delta the quotient's relative change at step k - 1 (1
        at k = 1); only a step solved to the config's tol may stop the
        iteration, so the pair is as converged as under strict solves.  The
        iteration starts from ``initial`` when given; otherwise from the
        p = 2 pencil's vector of the same weight with V + shift clipped at
        0, whose form is positive definite, scaled to max 1.  p = 2 ignores
        ``initial``.  An iterate whose weighted mass, or quotient plus
        shift, is not positive and finite (an overflow included) ends the
        iteration unconverged, before any inner solve when it is the start.
        """
        g, p = self.grid, self.p
        wmass = (g.node_w * weight)[g.free]
        if p == 2.0:
            u = np.zeros(g.n)
            u[g.free] = smallest_generalized_eigen(*self._p2_form(self.vvals + shift), wmass)
            return self.quotient(u, weight)[0], u, 1, True

        if initial is not None:
            u = initial.values.copy()
            u[g.dirichlet_mask] = 0.0
        else:  # V + shift clipped at 0 keeps the p = 2 form positive definite
            form = self._p2_form(np.maximum(self.vvals + shift, 0.0))
            u = np.zeros(g.n)
            u[g.free] = smallest_generalized_eigen(*form, wmass)
            u /= u.max()  # its largest entry is positive
        u = np.maximum(u, 0.0)
        if not np.any(u > 0):
            raise ValueError("initial eigenfunction guess vanishes")

        def usable(lam: float, mass: float) -> bool:
            """Whether the next inner solve has a load and a scaled start."""
            return 0.0 < mass < math.inf and 0.0 < lam + shift < math.inf

        with np.errstate(over="ignore"):  # a quotient that overflows is no start
            lam, mass = self.quotient(u, weight)
        if not usable(lam, mass):
            logger.debug("principal pair: initial guess has quotient %g at mass %g", lam, mass)
            return lam, u, 0, False
        u = u / mass ** (1.0 / p)

        inner = self if shift == 0.0 else DiscreteOperator(p, g, self.vvals + shift)
        tol = config.tol_for(p)
        gate = max(tol, INNER_RTOL)
        converged = False
        iters = 0
        for iters in range(1, config.eigen_max_iter + 1):
            load = g.node_w * weight * phi_p(u, p)
            w0 = u * (lam + shift) ** (-1.0 / (p - 1.0))
            w, _, _, ok = _newton_core(inner, load, w0, config, gate)
            if not ok:
                logger.debug("principal pair: inner solve failed at iteration %d", iters)
                break
            w = np.maximum(w, 0.0)
            lam_new, mass = self.quotient(w, weight)
            if not usable(lam_new, mass):
                logger.debug("principal pair: iterate lost its weighted mass at iteration %d", iters)
                break
            u = w / mass ** (1.0 / p)
            change, scale = abs(lam_new - lam), max(stop_floor, abs(lam_new))
            lam = lam_new
            stalled = change <= config.eigen_rtol * scale
            if stalled and gate == tol:
                converged = True
                break
            # a stall on a loose solve makes the next solve strict
            gate = tol if stalled else max(tol, INNER_RTOL * change / max(scale, change))
        return lam, u, iters, converged

    def eigenpair(self, config: SolverConfig) -> EigenResult:
        """Principal Dirichlet eigenpair of Q on the grid (see
        principal_eigenpair)."""
        vmin = float(self.vvals.min())
        shift = 0.0 if vmin >= 0 else (1.0 - vmin)
        ones = np.ones(self.grid.n)
        lam, u, iters, converged = self.principal(ones, config, shift, 1.0)
        mass = self._mass(u, ones)
        if mass > 0.0:
            u /= mass ** (1.0 / self.p)
        return EigenResult(lam, Field(self.grid, u), iters, converged, shift)

    def dirichlet(
        self,
        boundary: tuple[float | None, float],
        f: Field | None,
        config: SolverConfig,
        initial: Field | None,
    ) -> SolveReport:
        """Solve Q'(u) = f with prescribed boundary data (see
        solve_dirichlet) from ``initial``, or from the straight line between
        the boundary values.  A cold solve at p > 2 first solves the same
        data at p = 2 and, when that converges, starts from its solution,
        which lies in Newton's basin where the line need not; the report
        counts the iterations of both solves."""
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
        u, iters, res, conv = self._newton(load, u0, config, cold=initial is None)
        return SolveReport(Field(grid, u), iters, res, conv)

    def _newton(
        self, load: np.ndarray, u0: np.ndarray, config: SolverConfig, cold: bool
    ) -> tuple[np.ndarray, int, float, bool]:
        """_newton_core from u0, after the p = 2 start of a cold solve at
        p > 2 (see dirichlet); the iteration count covers both solves."""
        start_iters = 0
        if cold and self.p > 2.0:
            linear = DiscreteOperator(2.0, self.grid, self.vvals)
            u2, start_iters, _, ok = _newton_core(linear, load, u0, config)
            if ok:
                u0 = u2
        u, iters, res, conv = _newton_core(self, load, u0, config)
        return u, start_iters + iters, res, conv

    def torsion_bound(self, config: SolverConfig) -> float | None:
        """A lower bound mu > 0 on the principal Dirichlet eigenvalue of Q
        on the grid, or None.

        The torsion function w solves Q'(w) = 1 at every free node (a unit
        nodal load) and vanishes at the Dirichlet nodes, by the cold solve
        of ``dirichlet``.  With its residual r, Q'(w)_j = 1 + r_j, and

            mu = min over free nodes j of (1 + r_j) / (node_w_j w_j^(p-1)),

        so Q'(w) >= mu node_w phi_p(w) on the free nodes.  Paired with
        v^p / w^(p-1) for any v vanishing at the Dirichlet nodes, the cellwise
        discrete Picone inequality gives Q(v) >= mu sum node_w |v|^p: a
        positive supersolution bounds lambda_1 from below (Allegretto-
        Piepenbrink; collatz_lower reads a weighted bound the same way).  The
        bound is read off w's own residual, so it holds whether or not the
        solve met its gate.  None when w is not positive at every free node
        or mu <= 0.  The load is one per node, not node_w: the solve's gate
        is relative to its largest term, so with node weights graded over
        decades a node_w load goes unresolved at the light nodes."""
        g, p = self.grid, self.p
        free = ~g.dirichlet_mask
        load = free.astype(float)
        w = self._newton(load, np.zeros(g.n), config, cold=True)[0]
        if not np.all(w[free] > 0.0):
            return None
        r = self.residual_terms(w, load)[0]
        mu = float(np.min((1.0 + r[free]) / (g.node_w[free] * w[free] ** (p - 1.0))))
        return mu if mu > 0.0 else None

    def collatz_lower(
        self, weight: np.ndarray, t: float, v: np.ndarray, config: SolverConfig
    ) -> tuple[float, bool]:
        """Collatz-Wielandt lower bound on the weighted principal eigenvalue
        t from its eigenfunction v >= 0, and whether the bound is certified.

        With the eigen-residual r = R(v) - t tau W phi_p(v), the bound is
        t + min r_j / (tau_j W_j phi_p(v_j)) over the weighted free nodes,
        those where t tau_j W_j phi_p(v_j) exceeds tol times the residual
        scale.  It is certified when R_j(v) >= -tol * scale at every other
        free node, where the Picone inequality needs R(v) >= 0."""
        load = t * self.grid.node_w * weight * phi_p(v, self.p)
        r, scale, _ = self.residual_terms(v, load)
        gate = config.tol_for(self.p) * scale
        free = ~self.grid.dirichlet_mask
        weighted = free & (load > gate)
        if not weighted.any():
            return -math.inf, False
        lower = t * (1.0 + float(np.min(r[weighted] / load[weighted])))
        others = free & ~weighted
        return lower, bool(np.all(r[others] + load[others] >= -gate))

    def _lambda_1(self, config: SolverConfig, floor: float) -> float:
        """The principal Dirichlet eigenvalue of Q on the grid, by the
        eigensolve.  An unconverged iterate's quotient bounds lambda_1 from
        above only, so it is returned when it is <= floor (then lambda_1 <=
        floor too) and raises StateError when it is above."""
        eig = self.eigenpair(config)
        if not eig.converged and eig.lam > floor:
            raise StateError(f"lambda_1 eigensolve did not converge (quotient {eig.lam:.3e} > {floor:g})")
        return eig.lam

    def lambda_1_lower(self, config: SolverConfig) -> float:
        """A lower bound on the principal Dirichlet eigenvalue of Q on the
        grid: the torsion bound, or else the eigensolve's (see _lambda_1)."""
        mu = self.torsion_bound(config)
        return self._lambda_1(config, 0.0) if mu is None else mu

    def require_nonnegative(self, config: SolverConfig, lower: float | None = None) -> None:
        """Raise PreconditionError unless lambda_1 >= -1e-9 on the grid.

        A certified ``lower`` >= -1e-9 from collatz_lower shows it with no
        solve: its v is a positive supersolution of V - lower W (Allegretto-
        Piepenbrink).  Else at p = 2 one LDL^T factorization of the form plus
        1e-9 node_w on the free nodes does (Sylvester's law of inertia).
        When it fails, or at p != 2, the eigensolve names lambda_1, and an
        unconverged one above -1e-9 raises StateError (see _lambda_1).  At
        p != 2 an eigensolve, not lambda_1_lower: a cold torsion solve can
        cost more, and the warm null sequences' banded-solve budget counts
        threshold_tN's check."""
        floor = -1e-9
        if lower is not None and lower >= floor:
            return
        if self.p == 2.0:
            g = self.grid
            diag, off = self._p2_form(self.vvals)
            diag -= floor * g.node_w[g.free]
            # dpttrf takes no empty off-diagonal
            if (diag[0] > 0.0) if diag.size == 1 else (dpttrf(diag, off)[2] == 0):
                return
        lam = self._lambda_1(config, floor)
        if lam < floor:
            raise PreconditionError(
                f"functional is not nonnegative on the level: principal eigenvalue {lam:.3e} < 0"
            )

    def classify(self, u: np.ndarray, tol: float) -> SignClassification:
        """The sign classification of the nonnegative nodal field u (see
        classify_sign)."""
        if np.any(u < 0):
            raise PreconditionError("classify_sign expects a nonnegative field")
        r, scale, _ = self.residual_terms(u, self.load(None))
        rfree = r[~self.grid.dirichlet_mask]
        rmin = float(rfree.min()) if rfree.size else 0.0
        rmax = float(rfree.max()) if rfree.size else 0.0
        gate = tol * scale
        kinds = (("neither", "subsolution"), ("supersolution", "solution"))
        return SignClassification(kinds[rmin >= -gate][rmax <= gate], rmin, rmax, scale)

    def held_runs(
        self, held: np.ndarray, values, config: SolverConfig, initial: np.ndarray | None = None
    ) -> np.ndarray:
        """u = ``values`` on the held nodes, 0 at the Dirichlet nodes that are
        not held, and on each run of free nodes between them the unforced
        Dirichlet solution (a ball center that is not held stays free).
        Each run's operator is a slice of this one, and its solve starts
        from ``initial`` on its nodes when given.  Raises StateError when a
        run's solve fails."""
        u = np.where(held, values, 0.0)
        ends = np.unique(np.concatenate(([0], np.flatnonzero(held), [self.grid.n - 1])))
        for lo, hi in zip(ends[:-1], ends[1:]):
            center = lo == 0 and self.grid.natural_left and not held[0]
            if hi - lo < 2 and not center:
                continue
            run = self.restrict(lo, hi + 1)
            start = None if initial is None else Field(run.grid, initial[lo : hi + 1])
            left = None if center else float(u[lo])
            rep = run.dirichlet((left, float(u[hi])), None, config, start)
            if not rep.converged:
                raise StateError(f"held-run solve failed to converge on nodes {lo}..{hi}")
            u[lo : hi + 1] = rep.solution.values
        return u


# ---------------------------------------------------------------------------
# Newton
# ---------------------------------------------------------------------------

def solve_banded(diag: np.ndarray, off: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solution x of the symmetric tridiagonal system with diagonal ``diag``
    and off-diagonal ``off``, by LAPACK's gtsv (Gaussian elimination with
    partial pivoting): the routine scipy.linalg.solve_banded calls for one
    band on each side, given the same arrays, so x carries the same bits.
    A 1x1 system is divided, as scipy does.  diag and rhs may be
    overwritten.  Raises np.linalg.LinAlgError when a pivot is exactly
    zero."""
    if diag.size == 1:
        return rhs / diag
    # gtsv overwrites both off-diagonals, so only one may be off itself
    x, info = dgtsv(off, diag, off, rhs, overwrite_d=1, overwrite_b=1)[3:]
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in the {-info}-th argument of gtsv")
    return x


def _newton_core(
    op: DiscreteOperator,
    load: np.ndarray,
    u0: np.ndarray,
    config: SolverConfig,
    tol: float | None = None,
) -> tuple[np.ndarray, int, float, bool]:
    """Damped Newton on the modified Jacobian.  Returns (u, iterations,
    residual_norm, converged).  Dirichlet values of u0 are held fixed.  The
    iteration ends at the residual gate (tol, by default the config's,
    times the residual scale), at max_iter_per_stage iterations, at a
    failed linear solve or at a step without descent; ``converged`` is read
    on the gate or the rounding floor.  Each step is one solve_banded call
    on the Jacobian's two diagonals; the residual, its norm and its merit
    at each iterate are those of the trial that produced it.

    The line search halves alpha from alpha_0 = 1, or at p != 2, when
    max|d| > max|u| > 0, from the largest power of two with alpha_0 max|d|
    <= max|u|: where a start is flat over cells, as one extended by zero
    is, the regularized flux derivative is nearly singular, and a full step
    overshoots by orders of magnitude.  The trials are a subset of the
    powers of two tried from 1, so a step accepted at alpha <= alpha_0 is
    the same step.

    A trial step is accepted when it passes Armijo on half the residual's
    squared norm.  At p > 2 it is also accepted when it passes Armijo on J,
    the energy whose gradient on the free nodes is the residual: J(u +
    alpha d) <= J(u) + ARMIJO_C alpha <r, d>, provided <r, d> < 0 (the
    positive definite Jacobian makes it so up to rounding) and the residual
    lies above 100 times the rounding floor.  J is read from the trial's
    residual pass, and only for a trial whose residual test failed.  Each
    limit keeps the residual-only search where energy steps did harm:
    below p = 2 they slow solves or stall them (a p = 1.5 solve scaled by
    1e-2 ran to its cap), and near the rounding floor J's rounding swamps
    its decrease (a near-harmonic p = 3 solve took 203 iterations instead
    of 4)."""
    grid, p = op.grid, op.p
    free = grid.free
    tol = config.tol_for(p) if tol is None else tol
    u = u0.copy()

    def evaluate(v):
        """(free residual, its max norm, scale, whether both are finite, the
        terms J is read from)"""
        r_full, sc, terms = op.residual_terms(v, load)
        r = r_full[free]
        norm = float(np.abs(r).max()) if r.size else 0.0
        return r, norm, sc, math.isfinite(norm) and math.isfinite(sc), terms

    def rounding_floor(v, sc):
        # near-harmonic solutions have residual terms far below what a
        # one-ulp change of u does to the fluxes, so the relative gate can
        # undershoot what rounding lets any iterate reach
        return 1e4 * float(np.finfo(float).eps) * max(op.flux_sensitivity(v), sc)

    def merit(r):
        with np.errstate(over="ignore"):  # an overflow to inf fails Armijo
            return 0.5 * float(np.dot(r, r))

    # each iterate's residual and merit are evaluated once, as the accepted
    # trial of the step that made it; a non-finite residual ends the solve,
    # failed
    r, res_norm, scale, finite, terms = evaluate(u)
    merit_u = merit(r)
    iters = 0
    while finite and res_norm > tol * scale:
        if iters == config.max_iter_per_stage:
            logger.debug("newton: hit its %d-iteration cap, res=%g > %g", iters, res_norm, tol * scale)
            break
        try:
            du = solve_banded(*op.jacobian(u), -r)
        except np.linalg.LinAlgError:
            du = None
        if du is None or not np.isfinite(du).all():
            logger.debug("newton: linear solve failed at res=%g", res_norm)
            break
        # J's slope along du; J(u) and the rounding guard are read only
        # once a trial fails the residual test
        slope = float(np.dot(r, du))
        energy_test = p > 2.0 and slope < 0.0
        energy_u = None
        alpha = 1.0
        if p != 2.0:
            u_max, du_max = float(np.abs(u).max()), float(np.abs(du).max())
            if du_max > u_max > 0.0:
                # 2^floor(log2(u_max / du_max)): frexp's mantissa is in [1/2, 1)
                alpha = math.ldexp(1.0, math.frexp(u_max / du_max)[1] - 1)
        accepted = False
        for _bt in range(BACKTRACK_MAX):
            u_try = u.copy()
            u_try[free] = u[free] + alpha * du
            trial = evaluate(u_try)
            merit_try = merit(trial[0])
            if math.isfinite(merit_try) and merit_try <= merit_u * (1.0 - ARMIJO_C * alpha):
                accepted = True
            elif energy_test and trial[3]:
                if energy_u is None:
                    energy_test = res_norm > 100.0 * rounding_floor(u, scale)
                    energy_u = op.energy(u, terms, load) if energy_test else None
                accepted = energy_test and (
                    op.energy(u_try, trial[4], load) <= energy_u + ARMIJO_C * alpha * slope
                )
            if accepted:
                u, merit_u = u_try, merit_try
                r, res_norm, scale, finite, terms = trial
                break
            alpha *= 0.5
        iters += 1
        if not accepted:
            logger.debug("newton: no descent, res=%g", res_norm)
            break
    if not finite:
        logger.debug("newton: non-finite residual, res=%g, scale=%g", res_norm, scale)

    # stagnation at the rounding floor: accept when the defect is at that level
    converged = finite and (res_norm <= tol * scale or res_norm <= rounding_floor(u, scale))
    return u, iters, res_norm, converged


def solve_dirichlet(
    problem: RadialProblem,
    grid: Grid,
    boundary: tuple[float | None, float],
    f: Field | None = None,
    config: SolverConfig = DEFAULT_CONFIG,
) -> SolveReport:
    """Solve Q'(u) = f on the grid with prescribed nonnegative boundary data.

    ``boundary`` gives (left, right) trace values; the left value must be
    None exactly when the grid's left node is a ball center (no boundary
    there).  f, when given, must be a nonnegative field on the same grid.
    Non-convergence is reported through the ``converged`` flag.
    """
    return DiscreteOperator.bind(problem, grid).dirichlet(boundary, f, config, None)


# ---------------------------------------------------------------------------
# eigenpairs
# ---------------------------------------------------------------------------

def smallest_generalized_eigen(diag: np.ndarray, off: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Eigenvector x of the smallest eigenvalue of the pencil (A, M), for
    symmetric positive definite tridiagonal A and diagonal M >= 0, scaled
    to x^T M x = 1 with its largest-magnitude entry positive.  Callers take
    the eigenvalue as the quotient at x, which is accurate to second order
    in x's error.

    A - sigma M is positive definite exactly when sigma lies below the
    smallest eigenvalue (Sylvester's law of inertia; rows without mass carry
    no sigma term), so dpttrf's LDL^T factorization of A - sigma M brackets
    the eigenvalue.  The factors of A, which show it positive definite, take
    one inverse iteration step from the ones vector, and the quotient rho
    at that step bounds the eigenvalue from above; when A - (rho / 2) M
    factors too, that is the bracket, and otherwise its lower end descends
    by 2^-16 and geometric bisection narrows it to a factor 2.  Each round
    then takes up to 8 inverse iteration steps, from that step's vector
    first, on the factors of A - lo M that the bracket's last successful
    test left; they converge at the rate (lambda_1 - lo) / (lambda_2 - lo).
    Unless two successive vectors agree to 1e-13, the round bisects the
    bracket 4 more times and hands its vector to the next round.  Every
    number stays in range when the mass is graded over hundreds of decades
    or vanishes outside a window, and the work is O(m) per factorization.

    Raises ValueError for a negative or identically vanishing mass, and
    PreconditionError when A is not positive definite or the vector solve
    fails.
    """
    if np.any(mass < 0):
        raise ValueError("mass diagonal must be nonnegative")
    on = mass > 0
    if not np.any(on):
        raise ValueError("mass diagonal vanishes identically")
    if diag.size == 1:  # dpttrf takes no empty off-diagonal
        if not diag[0] > 0.0:
            raise PreconditionError("quadratic form is not positive definite on the level")
        return 1.0 / np.sqrt(mass)

    def below(sigma: float) -> bool:
        # keeps the factors when they exist: they are those of A - lo M
        nonlocal factors
        d, e, info = dpttrf(diag - sigma * mass, off)
        if info == 0:
            factors = d, e
        return info == 0

    def bisect(mid: float) -> bool:
        # False once a subnormal bracket has no digits left to split
        nonlocal lo, hi
        if not lo < mid < hi:
            return False
        lo, hi = (mid, hi) if below(mid) else (lo, mid)
        return True

    factors = None
    if not below(0.0):
        raise PreconditionError("quadratic form is not positive definite on the level")
    y = dpttrs(*factors, mass)[0]  # A^-1 M 1, whose quotient is y^T M 1 / y^T M y
    with np.errstate(all="ignore"):  # a quotient out of range falls back below
        scale = np.max(np.abs(y))
        x = y / scale
        hi = float(np.sum(mass * x) / np.sum(mass * x * x) / scale)
    if not 0.0 < hi < math.inf:  # the quotient at a unit vector instead
        hi, x = float(np.min(diag[on] / mass[on])), np.ones(diag.size)
    lo = 0.5 * hi
    while not below(lo):
        hi, lo = lo, lo * 2.0**-16
    while hi > 2.0 * lo and bisect(math.sqrt(lo) * math.sqrt(hi)):
        pass

    info = 0
    while True:
        change = np.inf
        for _ in range(8):
            if info != 0 or not change > 1e-13:
                break
            y, info = dpttrs(*factors, mass * x)
            y /= np.max(np.abs(y))
            change, x = np.max(np.abs(y - x)), y
        # a non-finite vector stops the rounds too; the checks below refuse it
        if not change > 1e-13 or info != 0 or not all(bisect(0.5 * (lo + hi)) for _ in range(4)):
            break
    if info != 0 or not np.all(np.isfinite(x)):
        raise PreconditionError(f"inverse iteration gave no finite vector (LAPACK info {info})")
    x /= math.sqrt(float(np.sum(mass * x * x)))
    return -x if x[np.argmax(np.abs(x))] < 0 else x


def principal_eigenpair(
    problem: RadialProblem,
    grid: Grid,
    config: SolverConfig = DEFAULT_CONFIG,
) -> EigenResult:
    """Principal Dirichlet eigenpair of Q on the grid.

    The eigenfunction is positive at non-Dirichlet nodes, zero at Dirichlet
    nodes, and normalized to unit weighted L^p norm; the eigenvalue is the
    quotient at it.  When V is negative somewhere the form being inverted is
    shifted by the constant reported as ``shift``, at every p.  For p = 2
    the eigenfunction is the smallest eigenvector of the tridiagonal pencil
    (exactly the limit the inverse iteration approaches); for p != 2 the
    inverse power iteration runs until the quotient stalls at relative
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
    return DiscreteOperator.bind(problem, u.grid).classify(u.values, tol)


def wcp_check(
    u1: Field,
    u2: Field,
    problem: RadialProblem,
    hypothesis_tol: float = 1e-9,
    lambda_1: float | None = None,
    config: SolverConfig = DEFAULT_CONFIG,
) -> WcpResult:
    """Weak comparison check: verify the ordering hypotheses, then test
    u1 <= u2 + WCP_TOL everywhere.

    Hypotheses: Q'(u1) <= Q'(u2) nodewise, Q'(u2) >= 0, u1 <= u2 on the
    Dirichlet boundary, u2 >= 0 there, and a positive principal eigenvalue
    on the grid.  That eigenvalue is ``lambda_1`` when given; otherwise
    DiscreteOperator.lambda_1_lower stands in for it.  Any failure raises
    PreconditionError naming the culprit; the conclusion's violation is
    returned, not raised.
    """
    grid = u1.grid
    check_same_grid(grid, u2.grid)
    op = DiscreteOperator.bind(problem, grid)
    r1, scale1, _ = op.residual_terms(u1.values, op.load(None))
    r2, scale2, _ = op.residual_terms(u2.values, op.load(None))
    free = ~grid.dirichlet_mask
    scale = max(scale1, scale2)
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
        lambda_1 = op.lambda_1_lower(config)
    if not lambda_1 > 0:
        failures.append("lambda_1 > 0 on the level")
    if failures:
        raise PreconditionError(
            "weak comparison hypotheses failed: " + "; ".join(failures)
        )
    viol = float(np.max(u1.values - u2.values))
    return WcpResult(viol <= WCP_TOL, max(viol, 0.0), lambda_1)
