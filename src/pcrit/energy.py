"""Energy forms: the functional Q, Picone densities, simplified energies,
and the elementary vector inequality behind them.

For a problem with exponent p and potential V the functional is

    Q(u) = (1/p) * integral of (|u'|^p + V |u|^p) |r|^(d-1) dr.

Against a positive function v the nonnegative Picone density is

    L(u, v) = (1/p) [ |u'|^p + (p-1) (u/v)^p |v'|^p
                      - p (u/v)^(p-1) u' |v'|^(p-2) v' ],

with Q(u) = integral of L(u, v) whenever v solves Q'(v) = 0, and
Q(u) <= integral of L(u, v) when v is merely a subsolution.  The density is
pointwise nonnegative by Young's inequality, cell by cell in the discrete
form used here (midpoint values and slopes), so its nonnegativity holds up
to roundoff at every resolution while the integral identity emerges under
refinement.

The two-sided "simplified energy" comparison for products u = v * w uses

    E(v, w) = integral of v^2 |w'|^2 (w |v'| + v |w'|)^(p-2),

which is comparable to Q(vw) with constants depending only on p; for p >= 2
the split form integral of (v^p |w'|^p + v^2 |v'|^(p-2) w^(p-2) |w'|^2) is
comparable as well.  Comparability constants are reported by tests, never
assumed by the code.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError
from .model import Field, Grid, PotentialSpec, RadialProblem, check_same_grid

__all__ = [
    "phi_p",
    "EnergyBreakdown",
    "LagrangianField",
    "SimplifiedEnergy",
    "VectorIneqRatio",
    "EnvelopeReport",
    "energy_Q",
    "q_parts",
    "picone_cells",
    "picone_density",
    "picone_gap",
    "simplified_energy",
    "vector_inequality_ratio",
    "vector_inequality_envelope",
    "poincare_residual",
]


def phi_p(x, p: float):
    """The odd power map |x|^(p-2) x, with phi_p(0) = 0 for every p > 1
    (signed like x, so phi_p(-0.0) is -0.0).  A scalar x gives a float,
    taken from the array power, whose rounding can differ from the scalar
    power's."""
    x = np.asarray(x, dtype=float)
    if not x.ndim:
        return float(phi_p(x.reshape(1), p)[0])
    return np.copysign(np.abs(x) ** (p - 1.0), x)


def _slopes(field: Field) -> np.ndarray:
    return np.diff(field.values) / field.grid.h


def _midvals(field: Field) -> np.ndarray:
    return 0.5 * (field.values[1:] + field.values[:-1])


# ---------------------------------------------------------------------------
# the functional
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyBreakdown:
    """Q(u) split into its gradient and potential parts.

    total == (gradient_term + potential_term) / p by construction; the
    parts are the raw weighted integrals without the 1/p factor.
    """

    gradient_term: float
    potential_term: float
    total: float


def energy_Q(u: Field, problem: RadialProblem, free_boundary: bool = False) -> EnergyBreakdown:
    """Evaluate Q(u) on u's grid.

    u must be compactly supported (zero at the Dirichlet ends of its grid)
    unless ``free_boundary`` is set; energies of fields with free traces are
    meaningful for capacity minimizers and exhaustion limits but should be
    requested explicitly.
    """
    if not free_boundary and not u.is_compactly_supported():
        raise PreconditionError(
            "energy_Q needs a compactly supported field; pass free_boundary=True"
            " to evaluate a field with nonzero boundary trace"
        )
    return q_parts(u.grid, problem.p, problem.potential.sample(u.grid.nodes), u.values)


def q_parts(grid: Grid, p: float, vvals: np.ndarray, u: np.ndarray) -> EnergyBreakdown:
    """Q of the nodal values u on the grid, with V given by its nodal
    samples vvals: exact slopes per cell, nodal values against the dual-cell
    weights.  Every evaluation of Q in the package goes through here."""
    grad = float((np.abs(np.diff(u) / grid.h) ** p * grid.cell_w).sum())
    pot = float((vvals * np.abs(u) ** p * grid.node_w).sum())
    return EnergyBreakdown(grad, pot, (grad + pot) / p)


# ---------------------------------------------------------------------------
# Picone density
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LagrangianField:
    """Per-cell Picone density values and their weighted integral."""

    grid: object
    cell_values: np.ndarray
    total: float

    def __post_init__(self):
        vals = np.asarray(self.cell_values, dtype=float).copy()
        vals.setflags(write=False)
        object.__setattr__(self, "cell_values", vals)


def picone_cells(p: float, us, um, vs, vm) -> np.ndarray:
    """Cellwise L(u, v) from the cell slopes (us, vs) and midpoint values
    (um, vm) of u >= 0 and v > 0."""
    ratio = um / vm
    return (
        np.abs(us) ** p
        + (p - 1.0) * ratio**p * np.abs(vs) ** p
        - p * ratio ** (p - 1.0) * us * phi_p(vs, p)
    ) / p


def picone_density(u: Field, v: Field, problem: RadialProblem) -> LagrangianField:
    """Cellwise density L(u, v) >= 0 for u >= 0 against v > 0.

    Cell values use midpoint values and slopes of both fields.  Nonnegativity
    is exact cell by cell (scalar Young inequality), up to roundoff.
    """
    check_same_grid(u.grid, v.grid)
    if np.any(v.values <= 0.0):
        raise PreconditionError("picone_density needs v > 0 at every node")
    if np.any(u.values < 0.0):
        raise PreconditionError("picone_density needs u >= 0 at every node")
    g = u.grid
    cells = picone_cells(problem.p, _slopes(u), _midvals(u), _slopes(v), _midvals(v))
    return LagrangianField(g, cells, float(np.sum(cells * g.cell_w)))


def picone_gap(u: Field, v: Field, problem: RadialProblem) -> float:
    """Q(u) minus the integrated Picone density against v.

    Tends to 0 under refinement when v is a discrete solution; stays
    below +o(1) when v is a discrete subsolution (then Q(u) <= integral).
    """
    q = energy_Q(u, problem).total
    lag = picone_density(u, v, problem)
    return q - lag.total


# ---------------------------------------------------------------------------
# simplified energy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimplifiedEnergy:
    """The universal comparison integral, plus the split form for p >= 2."""

    universal: float
    split: float | None


def simplified_energy(v: Field, w: Field, problem: RadialProblem) -> SimplifiedEnergy:
    """Comparison integrals for Q(v*w) with v > 0 and w >= 0 compactly supported."""
    check_same_grid(v.grid, w.grid)
    if np.any(v.values <= 0.0):
        raise PreconditionError("simplified_energy needs v > 0 at every node")
    if np.any(w.values < 0.0):
        raise PreconditionError("simplified_energy needs w >= 0 at every node")
    if not w.is_compactly_supported():
        raise PreconditionError("simplified_energy needs w compactly supported")
    p = problem.p
    g = v.grid
    vs, ws = _slopes(v), _slopes(w)
    vm, wm = _midvals(v), _midvals(w)
    mix = wm * np.abs(vs) + vm * np.abs(ws)
    universal = float(np.sum(vm**2 * ws**2 * _pow_safe(mix, p - 2.0) * g.cell_w))
    split = None
    if p >= 2.0:
        split_cells = (
            vm**p * np.abs(ws) ** p
            + vm**2 * _pow_safe(np.abs(vs), p - 2.0) * _pow_safe(wm, p - 2.0) * ws**2
        )
        split = float(np.sum(split_cells * g.cell_w))
    return SimplifiedEnergy(universal, split)


def _pow_safe(base: np.ndarray, expo: float) -> np.ndarray:
    """base**expo with the 0**0-and-negative-exponent corner pinned to 0.

    The comparison integrands carry factors like (w|v'| + v|w'|)**(p-2)
    multiplied by |w'|^2; where the first factor vanishes the whole product
    is zero for every p > 1, so defining 0**negative as 0 here keeps the
    integrand exact without spurious infinities.
    """
    if expo == 0.0:
        return np.ones_like(base)
    out = np.zeros_like(base)
    nz = base != 0.0
    out[nz] = base[nz] ** expo
    return out


# ---------------------------------------------------------------------------
# elementary vector inequality
# ---------------------------------------------------------------------------

class VectorIneqRatio(NamedTuple):
    """Ratio of the second order Taylor defect of |.|^p to its comparator.

    ``degenerate`` marks the b = 0 convention, where the ratio is returned
    as exactly 1 (both sides vanish).
    """

    ratio: float
    degenerate: bool


def _defect_ratio(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """The ratio for each row pair (a, b) of two (n, d) arrays whose rows
    a are unit vectors.

    With q = p/2 and t = 2 a.b + |b|^2 = |a+b|^2 - 1 the numerator is
    exactly f_q(t) + q |b|^2, where f_q(t) = (1+t)^q - 1 - q t.  Both terms
    are formed without cancellation: f_q by its Taylor series (17 terms,
    Horner's rule) for |t| <= 0.1, and otherwise as expm1(q log(1+t)) - q t,
    which loses at most one digit there.  log(1+t) is log1p(t), or
    log(|a+b|^2) where that is below 1/2: near b = -a the rounding of t
    would swamp 1 + t.  At p = 2 every series coefficient vanishes, so the
    ratio is exactly 1 for |t| <= 0.1.
    """
    s = a + b
    ab, bb, ss = (np.einsum("ij,ij->i", x, y) for x, y in ((a, b), (b, b), (s, s)))
    q = 0.5 * p
    t = 2.0 * ab + bb
    coef = [q * (q - 1.0) / 2.0]
    for k in range(3, 19):
        coef.append(coef[-1] * (q - k + 1.0) / k)
    small = np.abs(t) <= 0.1
    ts = t[small]
    series = np.full_like(ts, coef[-1])
    for c in reversed(coef[:-1]):
        series = series * ts + c
    f = np.empty_like(t)
    f[small] = series * ts * ts
    tl, sl = t[~small], ss[~small]
    near = sl < 0.5
    log1t = np.empty_like(tl)
    with np.errstate(divide="ignore"):  # log(0) at b = -a
        log1t[near] = np.log(sl[near])
    log1t[~near] = np.log1p(tl[~near])
    f[~small] = np.expm1(q * log1t) - q * tl
    return (f + q * bb) / (bb * (1.0 + np.sqrt(bb)) ** (p - 2.0))


def vector_inequality_ratio(a, b, p: float) -> VectorIneqRatio:
    """(|a+b|^p - |a|^p - p|a|^(p-2) a.b) / (|b|^2 (|a|+|b|)^(p-2)).

    Both sides vanish at b = 0; that case returns ratio 1 with the
    degenerate flag set.  At a = 0 the ratio is exactly 1.  a = b = 0 is
    rejected.  The ratio is scale invariant, and each vector is scaled by
    its largest entry before its norm is taken.  For 1e-100 <= |b|/|a| <=
    1e3 the pair is scaled to |a| = 1 and evaluated by the same kernel as
    the envelope sweep.  Outside that range the kernel leaves double range;
    with c the cosine of the angle between a and b, below it the ratio is
    its b -> 0 limit (p/2)(1 + (p-2) c^2), exact to O(|b|/|a|), and above
    it, with e = |a|/|b|, it is ((1 + 2ec + e^2)^(p/2) - e^p - p e^(p-1) c)
    / (1 + e)^(p-2), which has no cancellation.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("a and b must be 1D vectors of equal length")
    ma, mb = float(np.max(np.abs(a), initial=0.0)), float(np.max(np.abs(b), initial=0.0))
    if ma == 0.0 and mb == 0.0:
        raise ValueError("vector_inequality_ratio is undefined at a = b = 0")
    if mb == 0.0:
        return VectorIneqRatio(1.0, True)
    if ma == 0.0:
        return VectorIneqRatio(1.0, False)
    ka, kb = float(np.linalg.norm(a / ma)), float(np.linalg.norm(b / mb))
    rho = mb / ma * (kb / ka)
    if 1e-100 <= rho <= 1e3:
        # a power of two brings the pair into range and leaves a / |a| and
        # b / |a| bit for bit as they are wherever they were in range
        k = math.frexp(ma)[1]
        a, b = np.ldexp(a, -k), np.ldexp(b, -k)
        na = float(np.linalg.norm(a))
        return VectorIneqRatio(float(_defect_ratio(a[None] / na, b[None] / na, p)[0]), False)
    q, c = 0.5 * p, float(np.dot(a / ma, b / mb)) / (ka * kb)
    if rho < 1e-100:
        return VectorIneqRatio(q * (1.0 + (p - 2.0) * c * c), False)
    e = ma / mb * (ka / kb)
    numer = math.exp(q * math.log1p(2.0 * e * c + e * e)) - e**p - p * e ** (p - 1.0) * c
    return VectorIneqRatio(numer / (1.0 + e) ** (p - 2.0), False)


@dataclass(frozen=True)
class EnvelopeReport:
    """Observed extreme ratios over a random sample of vector pairs."""

    p: float
    samples: int
    c_min: float
    c_max: float


def vector_inequality_envelope(
    p: float, samples: int, rng: np.random.Generator
) -> EnvelopeReport:
    """Vectorized sweep of the inequality's ratio over random pairs in R^3.

    Directions are uniform on the sphere and magnitudes |b| log-uniform over
    [1e-3, 1e3] relative to |a| = 1 (the ratio is scale invariant).
    """
    n = int(samples)
    a = rng.normal(size=(n, 3))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    bdir = rng.normal(size=(n, 3))
    bdir /= np.linalg.norm(bdir, axis=1, keepdims=True)
    mags = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=n))
    ratios = _defect_ratio(a, bdir * mags[:, None], p)
    if not np.all(np.isfinite(ratios)):
        raise FloatingPointError("non-finite ratio encountered in envelope sweep")
    return EnvelopeReport(p, n, float(ratios.min()), float(ratios.max()))


# ---------------------------------------------------------------------------
# Poincare-type residual
# ---------------------------------------------------------------------------

def poincare_residual(
    u: Field,
    v_ground: Field,
    weight: PotentialSpec,
    psi: Field,
    C: float,
    problem: RadialProblem,
) -> float:
    """Residual of the ground-state Poincare inequality at constant C:

        Q(u) + C |integral of psi u|^p - (1/C) integral of W |u|^p.

    Nonnegative residuals over a family of test functions witness the
    inequality with that C.  psi must pair nontrivially with the ground
    state (the functional on the left otherwise degenerates on multiples
    of v_ground).
    """
    if C <= 0:
        raise ValueError(f"C must be positive, got {C}")
    check_same_grid(u.grid, v_ground.grid, psi.grid)
    g = u.grid
    p = problem.p
    pairing_ground = float(np.sum(psi.values * v_ground.values * g.node_w))
    if pairing_ground == 0.0 or not np.isfinite(pairing_ground):
        raise PreconditionError("psi must satisfy integral(psi * v_ground) != 0")
    wvals = weight.sample(g.nodes)
    if np.any(wvals < 0.0):
        raise PreconditionError("the weight W must be nonnegative")
    q = energy_Q(u, problem).total
    pairing = float(np.sum(psi.values * u.values * g.node_w))
    mass = float(np.sum(wvals * np.abs(u.values) ** p * g.node_w))
    return q + C * abs(pairing) ** p - mass / C
