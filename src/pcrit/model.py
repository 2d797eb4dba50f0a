"""Radial problems, grids, nodal fields, and exhaustion schedules.

The geometry throughout is one dimensional.  A problem on the radial
interval (r_lo, r_hi) in dimension d carries the cell weight |r|**(d-1),
so that integrals of radial functions over the d-dimensional region reduce
to weighted 1D integrals (the constant angular factor is dropped: every
quantity of interest downstream is a ratio, a sign, an exponent, or an
argmin, and none of them see it).

Conventions that the rest of the package relies on:

* d = 1 is the flat case (weight 1); it is the only dimension where
  negative coordinates are meaningful, and the domain may then be the whole
  line.  For d > 1 the domain must sit in [0, inf).
* A grid whose left endpoint is exactly 0 in dimension d > 1 represents a
  ball around the origin.  Its left node is the center, an interior point
  of the represented region, not a boundary: no Dirichlet condition is
  attached there and fields need not vanish there to count as compactly
  supported.
* Unbounded domains are only ever touched through finite exhaustion
  levels; every level must be a bounded subinterval of the domain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DomainError, EvaluationError

__all__ = [
    "PotentialSpec",
    "RadialProblem",
    "Grid",
    "Field",
    "ExhaustionSchedule",
    "CompactSetSpec",
    "build_grid",
    "make_field",
    "make_exhaustion",
    "log_reduced_problem",
    "log_reduced_level",
]


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialSpec:
    """Symbolic description of a potential V(r).

    Kinds:
        zero                 V = 0
        constant(c)          V = c
        power(c, s)          V = c * |r|**s
        bump(center, radius, height)
                             smooth compactly supported bump, equal to
                             height * exp(1 - 1/(1 - y**2)) for
                             y = (r - center)/radius inside |y| < 1
        logmap(inner, p)     exp(p*s) * inner(exp(s)); the image of
                             ``inner`` under the log-radius substitution
                             used for d == p problems
        combo(base, other, c)
                             base + c * other; used for discounted
                             potentials like V - t W
    """

    kind: str
    coeffs: tuple[float, ...] = ()
    inner: "PotentialSpec | tuple[PotentialSpec, PotentialSpec] | None" = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "PotentialSpec":
        return cls("zero")

    @classmethod
    def constant(cls, c: float) -> "PotentialSpec":
        return cls("constant", (float(c),))

    @classmethod
    def power(cls, c: float, s: float) -> "PotentialSpec":
        return cls("power", (float(c), float(s)))

    @classmethod
    def bump(cls, center: float, radius: float, height: float = 1.0) -> "PotentialSpec":
        if not (radius > 0 and math.isfinite(center)):  # nan would sample as V = 0
            raise ValueError(
                f"bump needs a positive radius and a finite center, got {radius}, {center}"
            )
        return cls("bump", (float(center), float(radius), float(height)))

    @classmethod
    def log_reduced(cls, inner: "PotentialSpec", p: float) -> "PotentialSpec":
        if inner.kind == "zero":
            return inner
        return cls("logmap", (float(p),), inner=inner)

    @classmethod
    def combination(
        cls, base: "PotentialSpec", other: "PotentialSpec", coefficient: float
    ) -> "PotentialSpec":
        """The potential base + coefficient * other."""
        if other.kind == "zero" or coefficient == 0.0:
            return base
        if base.kind == "zero":
            return other.scaled(coefficient)
        return cls("combo", (float(coefficient),), inner=(base, other))

    # -- behaviour ----------------------------------------------------------

    def __call__(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.kind == "zero":
            return np.zeros_like(r)
        if self.kind == "constant":
            return np.full_like(r, self.coeffs[0])
        if self.kind == "power":
            c, s = self.coeffs
            with np.errstate(divide="ignore", invalid="ignore"):
                return c * np.power(np.abs(r), s)
        if self.kind == "bump":
            center, radius, height = self.coeffs
            y = (r - center) / radius
            out = np.zeros_like(r)
            mask = np.abs(y) < 1.0
            with np.errstate(divide="ignore", over="ignore"):
                out[mask] = height * np.exp(1.0 - 1.0 / (1.0 - y[mask] ** 2))
            return out
        if self.kind == "logmap":
            (p,) = self.coeffs
            with np.errstate(over="ignore"):
                iv = self.inner(np.exp(r))
            out = np.zeros_like(r)
            nz = iv != 0.0
            # exact zeros stay zero; the factor exp(p*s) never revives them
            with np.errstate(over="ignore"):
                out[nz] = np.exp(p * r[nz]) * iv[nz]
            return out
        if self.kind == "combo":
            base, other = self.inner
            return base(r) + self.coeffs[0] * other(r)
        raise ValueError(f"unknown potential kind {self.kind!r}")

    def scaled(self, c: float) -> "PotentialSpec":
        """Return the potential c * V as a new spec."""
        c = float(c)
        if self.kind == "zero" or c == 1.0:
            return self
        if self.kind == "constant":
            return PotentialSpec.constant(c * self.coeffs[0])
        if self.kind == "power":
            return PotentialSpec.power(c * self.coeffs[0], self.coeffs[1])
        if self.kind == "bump":
            center, radius, height = self.coeffs
            return PotentialSpec.bump(center, radius, c * height)
        if self.kind == "logmap":
            return PotentialSpec("logmap", self.coeffs, inner=self.inner.scaled(c))
        if self.kind == "combo":
            base, other = self.inner
            return PotentialSpec("combo", (c * self.coeffs[0],), inner=(base.scaled(c), other))
        raise ValueError(f"unknown potential kind {self.kind!r}")

    def sample(self, r) -> np.ndarray:
        """Evaluate and insist on finite values (EvaluationError otherwise)."""
        vals = self(r)
        if not np.all(np.isfinite(vals)):
            bad = np.asarray(r, dtype=float)[~np.isfinite(vals)]
            raise EvaluationError(
                f"potential {self.kind!r} is not finite at r={bad[:3]!r}"
                " (grid must avoid the potential's singular points)"
            )
        return vals

    def support_hint(self) -> tuple[float, float] | None:
        """Interval outside which the potential is known to vanish, or None
        when no such localization is available (constant, power, zero)."""
        if self.kind == "bump":
            center, radius, _ = self.coeffs
            return (center - radius, center + radius)
        if self.kind == "logmap":
            inner_hint = self.inner.support_hint()
            if inner_hint is not None and inner_hint[0] > 0.0:
                return (math.log(inner_hint[0]), math.log(inner_hint[1]))
            return None
        return None

    def describe(self) -> str:
        if self.kind == "zero":
            return "zero"
        if self.kind == "constant":
            return f"constant({self.coeffs[0]:g})"
        if self.kind == "power":
            return f"power({self.coeffs[0]:g}, {self.coeffs[1]:g})"
        if self.kind == "bump":
            c, r, h = self.coeffs
            return f"bump(center={c:g}, radius={r:g}, height={h:g})"
        if self.kind == "logmap":
            return f"logmap(p={self.coeffs[0]:g}, {self.inner.describe()})"
        if self.kind == "combo":
            base, other = self.inner
            return f"combo({base.describe()} + {self.coeffs[0]:g} * {other.describe()})"
        return self.kind


# ---------------------------------------------------------------------------
# problems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialProblem:
    """Energy functional data: exponent p > 1, dimension d >= 1, radial
    domain (r_lo, r_hi), and potential V.

    The functional is Q(u) = (1/p) * integral of (|u'|^p + V |u|^p) against
    the weight |r|**(d-1).  For d == 1 the domain may contain negative
    coordinates (the weight is 1); for d > 1 it must sit in [0, inf).
    """

    p: float
    d: float
    domain: tuple[float, float]
    potential: PotentialSpec = dc_field(default_factory=PotentialSpec.zero)

    def __post_init__(self):
        p = float(self.p)
        d = float(self.d)
        lo, hi = (float(self.domain[0]), float(self.domain[1]))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "domain", (lo, hi))
        if not (p > 1.0 and math.isfinite(p)):
            raise ValueError(f"p must be a finite number > 1, got {p}")
        if not (d >= 1.0 and math.isfinite(d)):
            raise ValueError(f"d must be a finite number >= 1, got {d}")
        if not lo < hi:
            raise ValueError(f"domain must satisfy r_lo < r_hi, got ({lo}, {hi})")
        if lo < 0.0 and d != 1.0:
            raise ValueError(
                f"negative radii only make sense for d = 1 (weight 1); got d={d},"
                f" domain=({lo}, {hi})"
            )

    @property
    def weight_exponent(self) -> float:
        return self.d - 1.0

    def require_level(self, level: tuple[float, float]) -> tuple[float, float]:
        a, b = float(level[0]), float(level[1])
        if not (math.isfinite(a) and math.isfinite(b)):
            raise DomainError(f"level must be bounded, got ({a}, {b})")
        if not self.domain[0] <= a < b <= self.domain[1]:
            raise DomainError(f"level ({a}, {b}) not contained in domain {self.domain}")
        return (a, b)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

class cached_property:
    """functools.cached_property without the lock that Python 3.11 takes on
    every first access: the value goes into the instance __dict__, where it
    shadows this descriptor from then on."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.func.__name__] = self.func(obj)
        return value


def _weight_antiderivative(r: np.ndarray, exponent: float) -> np.ndarray:
    # antiderivative of |r|**exponent, valid for all real r when exponent >= 0
    if exponent == 0.0:
        return r
    return np.sign(r) * np.abs(r) ** (exponent + 1.0) / (exponent + 1.0)


@dataclass(frozen=True, eq=False)
class Grid:
    """Strictly increasing nodes with the radial quadrature attached.

    Gradient-type integrands (piecewise constant on cells) are integrated by
    the midpoint rule: cell i gets weight |mid_i|**(d-1) * h_i.  Nodal
    integrands (potential and mass terms) are integrated by nodal sampling
    against dual-cell weights: node j gets the exact integral of
    |r|**(d-1) over the half-cells adjacent to it, which reduces to the
    trapezoid weight (h_{j-1} + h_j)/2 when d = 1.

    Grids compare and hash by identity; check_same_grid compares nodes.
    """

    nodes: np.ndarray
    weight_exponent: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float).copy()
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weight_exponent", float(self.weight_exponent))
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError(f"grid needs at least 2 nodes, got shape {nodes.shape}")
        if not np.isfinite(nodes).all():
            raise ValueError("grid nodes must be finite")
        if not (nodes[1:] > nodes[:-1]).all():
            raise ValueError("grid nodes must be strictly increasing")
        if self.weight_exponent < 0:
            raise ValueError(f"weight exponent must be >= 0, got {self.weight_exponent}")
        if self.weight_exponent > 0 and nodes[0] < 0:
            raise ValueError("negative radii require weight exponent 0 (d = 1)")

    # -- derived geometry ----------------------------------------------------

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def interval(self) -> tuple[float, float]:
        return (float(self.nodes[0]), float(self.nodes[-1]))

    @cached_property
    def h(self) -> np.ndarray:
        h = self.nodes[1:] - self.nodes[:-1]
        h.setflags(write=False)
        return h

    @cached_property
    def mid(self) -> np.ndarray:
        m = 0.5 * (self.nodes[1:] + self.nodes[:-1])
        m.setflags(write=False)
        return m

    @cached_property
    def cell_w(self) -> np.ndarray:
        """Midpoint quadrature weights |mid|**(d-1) * h, one per cell."""
        w = np.abs(self.mid) ** self.weight_exponent * self.h
        w.setflags(write=False)
        return w

    @cached_property
    def node_w(self) -> np.ndarray:
        """Dual-cell mass weights: exact integral of |r|**(d-1) per dual cell."""
        edges = np.concatenate(([self.nodes[0]], self.mid, [self.nodes[-1]]))
        anti = _weight_antiderivative(edges, self.weight_exponent)
        w = anti[1:] - anti[:-1]
        w.setflags(write=False)
        return w

    # -- boundary semantics ---------------------------------------------------

    @cached_property
    def natural_left(self) -> bool:
        """True when the left node is the center of a ball (r = 0, d > 1)."""
        return self.nodes[0] == 0.0 and self.weight_exponent > 0.0

    @cached_property
    def dirichlet_mask(self) -> np.ndarray:
        """Boolean mask, True at nodes carrying a Dirichlet condition."""
        mask = np.zeros(self.n, dtype=bool)
        if not self.natural_left:
            mask[0] = True
        mask[-1] = True
        mask.setflags(write=False)
        return mask

    @cached_property
    def free(self) -> slice:
        """Slice of the unknowns: every node without a Dirichlet condition."""
        return slice(0 if self.natural_left else 1, self.n - 1)

    def restrict(self, start: int, stop: int | None = None) -> "Grid":
        """The grid on the nodes[start:stop], with the same weight exponent."""
        return Grid(self.nodes[start:stop], self.weight_exponent)


def check_same_grid(*grids: Grid) -> None:
    """Raise ValueError unless every grid has the first one's nodes."""
    for g in grids[1:]:
        if g is not grids[0] and not np.array_equal(g.nodes, grids[0].nodes):
            raise ValueError("fields must live on the same grid")


def _geometric_nodes(a: float, b: float, n: int) -> np.ndarray:
    if a > 0:
        ratio = (b / a) ** (1.0 / (n - 1))
        nodes = a * ratio ** np.arange(n)
    elif a == 0.0:
        # spacing-geometric from the center outward; first cell is a small
        # fixed fraction of the interval so near-edge behaviour is resolved
        first = 1e-3 * (b - a)
        if first * (n - 1) >= (b - a):
            return np.linspace(a, b, n)
        from scipy.optimize import brentq

        def total(q):
            # log-domain guard: the bracket probe at large q would overflow
            if (n - 1) * math.log(q) > 500.0:
                return 1e300
            return first * (q ** (n - 1) - 1.0) / (q - 1.0) - (b - a)

        hi = 1.0 + 1e-12
        while total(hi) < 0.0:
            hi = 1.0 + 2.0 * (hi - 1.0)
        q = brentq(total, 1.0 + 1e-14, hi, xtol=1e-15)
        steps = first * q ** np.arange(n - 1)
        nodes = np.concatenate(([a], a + np.cumsum(steps)))
    else:
        raise ValueError("geometric spacing requires the left endpoint >= 0")
    nodes[0], nodes[-1] = a, b
    return nodes


def build_grid(
    problem: RadialProblem,
    level: tuple[float, float],
    resolution: int,
    law: str = "auto",
) -> Grid:
    """Build a grid on a bounded level of the problem's domain.

    ``law`` is "uniform", "geometric", or "auto".  Geometric spacing
    concentrates nodes toward the left endpoint (where radial solutions are
    steep); "auto" picks geometric whenever the level spans a wide relative
    range or starts at a ball center, and uniform otherwise.
    """
    a, b = problem.require_level(level)
    resolution = int(resolution)
    if resolution < 3:
        raise ValueError(f"resolution must be >= 3 nodes, got {resolution}")
    if law == "auto":
        if a == 0.0 and problem.d > 1:
            law = "geometric"
        elif a > 0.0 and b / a >= 10.0:
            law = "geometric"
        else:
            law = "uniform"
    if law == "uniform":
        nodes = np.linspace(a, b, resolution)
    elif law == "geometric":
        nodes = _geometric_nodes(a, b, resolution)
    else:
        raise ValueError(f"unknown spacing law {law!r}")
    return Grid(nodes, problem.weight_exponent)


def _march(start: float, target: float, sign: float, h0: float) -> np.ndarray:
    """start, then the graded law's nodes through the first one within 1.5
    steps of target, one array per regime.  A run's length comes from its
    distance to the target or the regime's edge, capped at 20000 steps so
    that 1.02**k stays below 1e173; a run toward a nearer target reaches
    that target's stop, so it makes the same nodes up to there."""
    runs = [[start]]
    r = start
    while True:
        geometric = 0.02 * abs(r) > h0
        if geometric:
            c = 0.02 if sign * r > 0 else -0.02
            g = 1.0 + c
            # |r| moves to a target on this side of 0, or to 50 h0
            edge = max(50.0 * h0, abs(target) if (target > 0) == (r > 0) else 0.0)
            n = int(abs(math.log(edge) - math.log(abs(r))) / abs(math.log(g))) + 1
            k = np.arange(max(2, min(n, 20000)))
            # g = fl(1 + c) misses a step's factor 1 + c by the exactly
            # representable (1 - g) + c, put back to first order in k
            nodes = r * g**k * (1.0 + k * (((1.0 - g) + c) / g))
        else:  # one step past |r| = 50 h0, where the law turns geometric
            span = min((target - r) * sign, 51.0 * h0 - sign * r)
            nodes = r + sign * h0 * np.arange(max(2, int(span / h0) + 1))
        law = 0.02 * np.abs(nodes)
        stop = (target - nodes) * sign <= 1.5 * np.maximum(h0, law)
        hit = np.flatnonzero(stop | ((law > h0) != geometric))
        j = hit[0] if hit.size else nodes.size - 1
        runs.append(nodes[1 : j + 1])
        if stop[j]:
            return np.concatenate(runs)
        r = nodes[j]


def build_graded_grids(
    problem: RadialProblem,
    levels,
    focus: tuple[float, float],
    resolution: int,
) -> list[Grid]:
    """build_graded_grid on each of the levels, from one march per side of
    each focus window (the focus clipped to a level) to the farthest level
    end beyond it.  A level reads its side off that march by the march's
    own stop rule: the nodes through the first one within 1.5 steps of its
    end, then the end itself.  The nodes are those of one-level builds, bit
    for bit, so on nested levels that share a window every interior node
    of a level is a node of the next."""
    bounds = [problem.require_level(level) for level in levels]
    resolution = int(resolution)
    if resolution < 3:
        raise ValueError(f"resolution must be >= 3 nodes, got {resolution}")
    windows = [(max(float(focus[0]), a), min(float(focus[1]), b)) for a, b in bounds]
    for (a, b), (fa, fb) in zip(bounds, windows):
        if not fa < fb:
            raise ValueError(f"focus window {focus} does not meet the level ({a}, {b})")
    marches: dict[tuple[float, float, float], np.ndarray] = {}
    grids = []
    for (a, b), (fa, fb) in zip(bounds, windows):
        h0 = (fb - fa) / (resolution - 1)
        sides = []
        for start, end, sign in ((fa, a, -1.0), (fb, b, 1.0)):
            if start == end:
                sides.append(())
                continue
            if (key := (fa, fb, sign)) not in marches:
                ends = [lv[sign > 0] for lv, w in zip(bounds, windows) if w == (fa, fb)]
                marches[key] = _march(start, min(ends) if sign < 0 else max(ends), sign, h0)
            march = marches[key]
            stop = (end - march) * sign <= 1.5 * np.maximum(h0, 0.02 * np.abs(march))
            sides.append(np.append(march[1 : np.argmax(stop) + 1], end))
        core = np.linspace(fa, fb, resolution)
        nodes = np.concatenate((sides[0][::-1], core, sides[1]))
        grids.append(Grid(nodes, problem.weight_exponent))
    return grids


def build_graded_grid(
    problem: RadialProblem,
    level: tuple[float, float],
    focus: tuple[float, float],
    resolution: int,
) -> Grid:
    """Grid that is uniformly fine on the focus window and coarsens outward.

    Outside the focus the local cell size is max(h_fine, 0.02 * |r|), so
    the spacing is position-geometric far from the origin and floors at the
    fine spacing near it; a march ends at the level's end once that is
    within 1.5 steps, and is built one regime of that law at a time.  On
    levels spanning many decades this keeps the node count logarithmic in
    the span while fully resolving the window where the interesting
    structure (a probe weight, a forcing bump) lives.  The one-level call
    of build_graded_grids.
    """
    return build_graded_grids(problem, (level,), focus, resolution)[0]


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Field:
    """Nodal values of a piecewise linear function on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if vals.shape != self.grid.nodes.shape:
            raise ValueError(
                f"values shape {vals.shape} does not match grid with {self.grid.n} nodes"
            )
        if not np.isfinite(vals).all():
            raise EvaluationError("field values must be finite")

    def at(self, x) -> np.ndarray | float:
        """Piecewise linear evaluation inside the grid interval."""
        x_arr = np.asarray(x, dtype=float)
        a, b = self.grid.interval
        if (x_arr < a).any() or (x_arr > b).any():
            raise ValueError(f"evaluation point outside grid interval ({a}, {b})")
        out = np.interp(x_arr, self.grid.nodes, self.values)
        return float(out) if np.isscalar(x) or x_arr.ndim == 0 else out

    def is_compactly_supported(self) -> bool:
        """Vanishes, to 1e-12 relative, at every Dirichlet end of its grid."""
        scale = float(np.abs(self.values).max(initial=0.0))
        tol = 1e-12 * max(scale, 1.0)
        ends = self.values[self.grid.dirichlet_mask]
        return bool((np.abs(ends) <= tol).all())

    def scaled(self, c: float) -> "Field":
        return Field(self.grid, c * self.values)


def make_field(grid: Grid, values) -> Field:
    """Build a field from nodal values, broadcast to the grid's nodes."""
    values = np.broadcast_to(np.asarray(values, dtype=float), grid.nodes.shape)
    return Field(grid, values)


# ---------------------------------------------------------------------------
# compact sets and exhaustions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompactSetSpec:
    """A compact radial set [k_lo, k_hi].

    For d > 1 the set may reach the origin (k_lo == 0 == r_lo), representing
    a closed ball through the center; otherwise it must sit strictly inside
    the domain.
    """

    k_lo: float
    k_hi: float

    def __post_init__(self):
        object.__setattr__(self, "k_lo", float(self.k_lo))
        object.__setattr__(self, "k_hi", float(self.k_hi))
        if not self.k_lo <= self.k_hi:
            raise ValueError(f"compact set needs k_lo <= k_hi, got [{self.k_lo}, {self.k_hi}]")

    def validate(self, problem: RadialProblem) -> None:
        lo, hi = problem.domain
        if not self.k_hi < hi:
            raise DomainError(f"compact set [{self.k_lo}, {self.k_hi}] must stay below r_hi={hi}")
        if self.k_lo == lo:
            if not (lo == 0.0 and problem.d > 1):
                raise DomainError(
                    "compact set may touch the left endpoint only at a ball center"
                    f" (r=0, d>1); got k_lo={self.k_lo} with domain {problem.domain}, d={problem.d}"
                )
        elif not self.k_lo > lo:
            raise DomainError(f"compact set [{self.k_lo}, {self.k_hi}] must stay above r_lo={lo}")

    def nodes(self, resolution: int) -> np.ndarray:
        """The set's own nodes in grids of the given resolution: uniform,
        endpoints included, a quarter of the resolution but at least 9."""
        return np.linspace(self.k_lo, self.k_hi, max(resolution // 4, 9))

    def require_inside(self, level: tuple[float, float], problem: RadialProblem) -> None:
        """Raise DomainError unless the set sits strictly inside the level;
        it may touch the level only at a ball center (k_lo = a = 0, d > 1)."""
        a, b = level
        center_touch = self.k_lo == a == 0.0 and problem.d > 1
        if not ((a < self.k_lo or center_touch) and self.k_hi < b):
            raise DomainError(
                f"compact set [{self.k_lo}, {self.k_hi}] must sit strictly inside the level ({a}, {b})"
            )


@dataclass(frozen=True)
class ExhaustionSchedule:
    """Nested bounded levels exhausting the domain, with a reference point.

    x0 must lie in the first level; it is where ground states and null
    sequences are normalized.
    """

    levels: tuple[tuple[float, float], ...]
    x0: float

    def __post_init__(self):
        levels = tuple((float(a), float(b)) for a, b in self.levels)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "x0", float(self.x0))
        if len(levels) < 1:
            raise ValueError("exhaustion needs at least one level")
        for a, b in levels:
            if not a < b:
                raise ValueError(f"level ({a}, {b}) is empty")
        a1, b1 = levels[0]
        if not (a1 <= self.x0 <= b1):
            raise ValueError(f"x0={self.x0} must lie in the first level ({a1}, {b1})")

    def validate(self, problem: RadialProblem) -> None:
        lo, hi = problem.domain
        prev = None
        for a, b in self.levels:
            problem.require_level((a, b))
            if prev is not None:
                pa, pb = prev
                if a > pa or b < pb:
                    raise ValueError(f"levels must be nested: ({a},{b}) after ({pa},{pb})")
                grew = a < pa or b > pb
                # endpoints may stick to a domain endpoint or a ball center
                if not grew:
                    raise ValueError(f"level ({a},{b}) does not grow past ({pa},{pb})")
                if a == pa and not (a == lo or (a == 0.0 and problem.d > 1)):
                    raise ValueError(
                        f"inner endpoint {a} repeats without being a domain endpoint or center"
                    )
                if b == pb and b != hi:
                    raise ValueError(f"outer endpoint {b} repeats without being a domain endpoint")
            prev = (a, b)


def make_exhaustion(
    problem: RadialProblem,
    count: int,
    base: float = 1.0,
    growth: float = 2.0,
    style: str = "auto",
    x0: float | None = None,
) -> ExhaustionSchedule:
    """Standard exhaustion schedules.

    Styles:
        line      (-base*g**k, base*g**k) on the full line (d = 1)
        annuli    (base/g**k, base*g**k), approaching 0 and infinity
        balls     (0, base*g**k), growing balls around the origin (d > 1)
        halfline  (r_lo, r_lo + base*g**k)
        shrink    bounded domains: endpoints approached by shrinking margins
        auto      picked from the domain shape
    """
    lo, hi = problem.domain
    count = int(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    if growth <= 1.0:
        raise ValueError(f"growth factor must exceed 1, got {growth}")
    if style == "auto":
        if math.isinf(lo) and math.isinf(hi):
            style = "line"
        elif lo == 0.0 and math.isinf(hi):
            style = "annuli" if problem.d > 1 else "halfline"
        elif math.isinf(hi):
            style = "halfline"
        else:
            style = "shrink"

    g = float(growth)
    if style == "line":
        if not (math.isinf(lo) and math.isinf(hi) and problem.d == 1):
            raise ValueError("line style needs d = 1 on the whole line")
        levels = [(-base * g**k, base * g**k) for k in range(1, count + 1)]
        ref = 0.0
    elif style == "annuli":
        if lo != 0.0:
            raise ValueError("annuli style needs the domain (0, r_hi)")
        levels = []
        for k in range(1, count + 1):
            b = base * g**k
            levels.append((base / g**k, min(b, hi) if math.isfinite(hi) else b))
        ref = base
    elif style == "balls":
        if not (lo == 0.0 and problem.d > 1):
            raise ValueError("balls style needs domain starting at 0 with d > 1")
        levels = []
        for k in range(1, count + 1):
            b = base * g**k
            levels.append((0.0, min(b, hi) if math.isfinite(hi) else b))
        ref = base
    elif style == "halfline":
        if not math.isfinite(lo):
            raise ValueError("halfline style needs a finite left endpoint")
        levels = [(lo, lo + base * g**k) for k in range(1, count + 1)]
        ref = lo + 0.5 * base * g
    elif style == "shrink":
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("shrink style needs a bounded domain")
        span = hi - lo
        levels = []
        for k in range(1, count + 1):
            m = 0.25 * span / g**k
            a = lo if (lo == 0.0 and problem.d > 1) else lo + m
            levels.append((a, hi - m))
        ref = 0.5 * (lo + hi)
    else:
        raise ValueError(f"unknown exhaustion style {style!r}")

    sched = ExhaustionSchedule(tuple(levels), ref if x0 is None else float(x0))
    sched.validate(problem)
    return sched


# ---------------------------------------------------------------------------
# log-radius reduction for d == p
# ---------------------------------------------------------------------------

def log_reduced_problem(problem: RadialProblem) -> RadialProblem:
    """Exact change of variables s = log r for conformal problems (d == p).

    With u(r) = w(log r), the weighted energy of u on (r_lo, r_hi) equals the
    flat (weight 1) energy of w on (log r_lo, log r_hi) with the potential
    exp(p*s) * V(exp(s)) whenever d == p; the weight exp((d-p)s) collapses to
    1 exactly in that case.  Thresholds, eigenvalues at fixed levels, and
    energies are invariant under the substitution, which makes level ranges
    far beyond floating point radii representable.
    """
    if problem.d != problem.p:
        raise ValueError(f"log reduction is exact only for d == p, got d={problem.d}, p={problem.p}")
    lo, hi = problem.domain
    if lo < 0:
        raise ValueError("log reduction needs a domain inside (0, inf)")
    s_lo = -math.inf if lo == 0.0 else math.log(lo)
    s_hi = math.inf if math.isinf(hi) else math.log(hi)
    pot = PotentialSpec.log_reduced(problem.potential, problem.p)
    return RadialProblem(problem.p, 1.0, (s_lo, s_hi), pot)


def log_reduced_level(level: tuple[float, float]) -> tuple[float, float]:
    a, b = level
    if a <= 0:
        raise ValueError("log reduction needs levels inside (0, inf)")
    return (math.log(a), math.log(b))
