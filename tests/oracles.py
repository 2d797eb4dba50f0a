"""Independent reference computations used by the test suite.

Everything here deliberately avoids the package's own assembly and solve
routines: eigenvalues come from shooting on the ODE, profiles from flux
integration, capacities and certificate floors from closed forms, dense
eigenproblems or bound-constrained minimization.  FROZEN holds values
produced by these routines once and pinned; tests assert both that the
oracle still reproduces its frozen value and that the package agrees with
the oracle.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.linalg import eigh
from scipy.optimize import brentq, minimize

# Values produced by the routines below, pinned at freeze time.
FROZEN = {
    # first Dirichlet eigenvalue on (0, 1), d = 1, V = 0
    "eig_shoot_p2": 9.86960440108844,
    "eig_closed_p2": 9.869604401089358,  # pi^2
    "eig_shoot_p3": 28.28876197599992,
    "eig_closed_p3": 28.28876197600255,
    # two-point harmonic in d = 3 through (1, 1) and (2, 0): value at 1.5
    "harmonic_d3_mid": 0.3333333333333333,
    # unit-ball capacitor at outer radius 64, d = 3, p = 2
    "capacitor_R64": 0.5079365079365079,
    # certificate floor for the constant profile, d = 3, p = 2, inner edge 2,
    # window (3, 4), outer edge 8192 (dense GEVP at n = 1500)
    "mu_constant_b8192": 0.14976461455590018,
}


def closed_form_eigenvalue(p: float, length: float) -> float:
    """First Dirichlet eigenvalue of the one dimensional problem on
    (0, length) with no potential: (p-1) * (2*pi / (length*p*sin(pi/p)))**p.
    """
    return (p - 1.0) * (2.0 * math.pi / (length * p * math.sin(math.pi / p))) ** p


def shooting_eigenvalue(p: float, length: float = 1.0) -> float:
    """First Dirichlet eigenvalue by shooting.

    Integrates u' = phi_q(s), s' = -lam * phi_p(u) from u(0)=0, u'(0)=1 and
    brackets the first zero of u(length) in lam.  phi_q inverts phi_p, with
    q the conjugate exponent.
    """
    q = p / (p - 1.0)

    def phi(x: float, expo: float) -> float:
        return abs(x) ** (expo - 2.0) * x if x != 0.0 else 0.0

    def endpoint(lam: float) -> float:
        def rhs(_t, y):
            u, s = y
            return [phi(s, q), -lam * phi(u, p)]

        sol = solve_ivp(
            rhs,
            (0.0, length),
            [0.0, 1.0],
            rtol=1e-11,
            atol=1e-13,
            dense_output=False,
            max_step=length / 50.0,
        )
        return float(sol.y[0, -1])

    guess = closed_form_eigenvalue(p, length)
    lo, hi = 0.5 * guess, 1.5 * guess
    flo, fhi = endpoint(lo), endpoint(hi)
    if flo * fhi > 0:
        raise RuntimeError("shooting bracket failed")
    return float(brentq(endpoint, lo, hi, xtol=1e-12, rtol=1e-12))


def two_point_flux_profile(
    d: int, p: float, a: float, b: float, ua: float, ub: float
):
    """Solve the homogeneous radial equation on (a, b) by flux integration.

    The flux F = phi_p(u') * r^(d-1) is constant, so
    u(r) = ua + integral_a^r phi_q(F / rho^(d-1)) d rho; F is bracketed so
    the far boundary value matches.  Returns a callable r -> u(r).
    """
    q = p / (p - 1.0)

    def phi_inv(x: float) -> float:
        return abs(x) ** (q - 2.0) * x if x != 0.0 else 0.0

    def u_at(F: float, r: float) -> float:
        val, _ = quad(lambda rho: phi_inv(F / rho ** (d - 1)), a, r, limit=200)
        return ua + val

    def mismatch(F: float) -> float:
        return u_at(F, b) - ub

    span = abs(ub - ua) / (b - a) + 1.0
    scale = (abs(ua) + abs(ub) + span) ** (p - 1.0) * max(a, b) ** (d - 1)
    F = brentq(mismatch, -10.0 * scale, 10.0 * scale, xtol=1e-14)
    return lambda r: u_at(F, r)


def capacitor_value(R: float) -> float:
    """Energy of the exact radial capacitor profile for the unit ball in
    d = 3, p = 2 with far boundary at R: (1/2) * R / (R - 1).
    """
    return 0.5 * R / (R - 1.0)


def obstacle_capacity(
    nodes: np.ndarray,
    d: int,
    p: float,
    vvals: np.ndarray,
    k_lo: float,
    k_hi: float,
) -> tuple[float, np.ndarray]:
    """Least discrete energy over nodal fields vanishing at the outer node
    (and at the inner one unless it is a ball center, r = 0 with d > 1)
    with u >= 1 at the nodes in [k_lo, k_hi], by L-BFGS-B.

    The energy is (1/p) (sum_cells |slope|^p |mid|^(d-1) h + sum_nodes
    V |u|^p m), with m the exact integral of |r|^(d-1) over each node's
    dual cell, assembled here from the nodes alone.  Returns (value, u).
    """
    nodes = np.asarray(nodes, dtype=float)
    h = np.diff(nodes)
    mid = 0.5 * (nodes[1:] + nodes[:-1])
    cw = np.abs(mid) ** (d - 1) * h
    edges = np.concatenate(([nodes[0]], mid, [nodes[-1]]))
    # edges never change sign across a dual cell when d > 1 (r >= 0 there)
    mw = np.diff(edges) if d == 1 else np.diff(edges**d) / d
    vm = np.asarray(vvals, dtype=float) * mw
    center = nodes[0] == 0.0 and d > 1
    unknown = slice(0 if center else 1, nodes.size - 1)
    on_k = (nodes >= k_lo - 1e-12) & (nodes <= k_hi + 1e-12)

    def full(x):
        u = np.zeros(nodes.size)
        u[unknown] = x
        return u

    def energy_and_grad(x):
        u = full(x)
        s = np.diff(u) / h
        a = np.abs(s) ** (p - 2.0) * s * cw / h
        grad = vm * np.abs(u) ** (p - 2.0) * u
        grad[:-1] -= a
        grad[1:] += a
        e = (float(np.sum(np.abs(s) ** p * cw)) + float(np.sum(vm * np.abs(u) ** p))) / p
        return e, grad[unknown]

    # start from u = 1 on the set, falling linearly to 0 at Dirichlet edges
    x0 = np.interp(
        nodes, [nodes[0], k_lo, k_hi, nodes[-1]], [1.0 if center else 0.0, 1.0, 1.0, 0.0]
    )[unknown]
    # minimize over y = x / scale, with scale from the diagonal of the p = 2
    # stiffness plus mass, so that the variables are equally stiff
    stiff = cw / h**2
    diag = np.abs(vm).copy()
    diag[:-1] += stiff
    diag[1:] += stiff
    scale = 1.0 / np.sqrt(diag[unknown])
    e0 = energy_and_grad(x0)[0]

    def scaled(y):
        e, g = energy_and_grad(y * scale)
        return e / e0, g * scale / e0

    bounds = [(1.0 / c, None) if k else (None, None) for k, c in zip(on_k[unknown], scale)]
    res = minimize(
        scaled,
        x0 / scale,
        jac=True,
        method="L-BFGS-B",
        bounds=bounds,
        options={"ftol": 1e-16, "gtol": 1e-13, "maxiter": 100000, "maxcor": 50},
    )
    return e0 * float(res.fun), full(res.x * scale)


def hat_energy_quadrature(p: float, d: int) -> float:
    """Fine quadrature of the closed-form energy integrand for the unit hat
    on (0, 1) with peak at 1/2: (1/p) * int |u'|^p r^(d-1) dr, u' = +/- 2.
    """
    val, _ = quad(lambda r: (2.0**p) * r ** (d - 1), 0.0, 1.0, limit=200)
    return val / p


def constant_profile_mu(
    omega2_hi: float, window: tuple[float, float], b: float, n: int = 1500
) -> float:
    """Certificate floor for the constant profile by a dense generalized
    eigenproblem, assembled directly.

    For p = 2, d = 3 and u constant the certificate objective reduces to
    (1/2) int |w'|^2 r^2 dr over w on (omega2_hi, b) with w(b) = 0, free at
    the inner edge, against unit mass int_window w^2 r^2 dr.  Stiffness and
    mass use exact cell integrals of r^2; the mass matrix is consistent
    (not lumped), so the route is independent of the package assembly.
    """
    nodes = np.concatenate(
        [
            np.linspace(omega2_hi, window[1], n // 2),
            np.geomspace(window[1], b, n // 2 + 1)[1:],
        ]
    )
    nodes = np.unique(nodes)
    m = nodes.size
    h = np.diff(nodes)
    # exact integral of r^2 over each cell
    cell_w = (nodes[1:] ** 3 - nodes[:-1] ** 3) / 3.0

    K = np.zeros((m, m))
    for j in range(m - 1):
        k = 0.5 * cell_w[j] / h[j] ** 2
        K[j, j] += k
        K[j + 1, j + 1] += k
        K[j, j + 1] -= k
        K[j + 1, j] -= k

    lo, hi = window
    M = np.zeros((m, m))
    for j in range(m - 1):
        a_, b_ = nodes[j], nodes[j + 1]
        # overlap of the cell with the mass window
        lo_c, hi_c = max(a_, lo), min(b_, hi)
        if hi_c <= lo_c:
            continue

        def w2(r, i, k_):
            lam = (r - a_) / (b_ - a_)
            fi = 1.0 - lam if i == 0 else lam
            fk = 1.0 - lam if k_ == 0 else lam
            return fi * fk * r**2

        for i in range(2):
            for k_ in range(i, 2):
                val, _ = quad(w2, lo_c, hi_c, args=(i, k_), limit=100)
                M[j + i, j + k_] += val
                if i != k_:
                    M[j + k_, j + i] += val

    # Dirichlet only at the outer edge; inner edge is natural.  M is only
    # semidefinite (zero off the window), so solve the reversed pencil
    # M w = theta K w for its largest eigenvalue and invert.
    free = np.arange(m - 1)
    Kf = K[np.ix_(free, free)]
    Mf = M[np.ix_(free, free)]
    nf = free.size
    vals = eigh(Mf, Kf, eigvals_only=True, subset_by_index=[nf - 1, nf - 1])
    return float(1.0 / vals[0])


def envelope_sweep(p: float, n_angle: int = 60, n_mag: int = 120):
    """Deterministic dense sweep of the vector inequality ratio in the
    plane.

    By rotation invariance the ratio depends only on |a|, |b| and the angle
    between them, so a 2D sweep over angle x magnitude with |a| = 1 covers
    the three dimensional envelope.  Extended precision keeps the numerator
    meaningful at small |b|.
    """
    cos_t = np.linspace(-1.0, 1.0, n_angle, dtype=np.longdouble)
    mags = np.geomspace(1e-3, 1e3, n_mag).astype(np.longdouble)
    c, m = np.meshgrid(cos_t, mags)
    s = np.sqrt(np.maximum(0.0, 1.0 - c**2))
    # a = (1, 0), b = m (cos t, sin t)
    ax, ay = np.longdouble(1.0), np.longdouble(0.0)
    bx, by = m * c, m * s
    na = np.longdouble(1.0)
    nb = m
    nab = np.sqrt((ax + bx) ** 2 + (ay + by) ** 2)
    dot = ax * bx + ay * by
    numer = nab**p - na**p - p * dot
    denom = nb**2 * (na + nb) ** (p - 2.0)
    ratios = (numer / denom).astype(float)
    return float(ratios.min()), float(ratios.max())


def vector_ratio_mp(a, b, p: float) -> float:
    """The vector inequality's ratio

        (|a+b|^p - |a|^p - p |a|^(p-2) a.b) / (|b|^2 (|a|+|b|)^(p-2))

    straight from its definition, at the exact values of the float entries
    of a and b (a != 0, b != 0).  The numerator cancels to about
    |b|^2 / |a|^2 of its terms, so the 50 working digits get twice the
    decades of |a| / |b| on top."""
    a = [mpmath.mpf(float(x)) for x in a]
    b = [mpmath.mpf(float(x)) for x in b]
    decades = mpmath.log10(max(abs(x) for x in a) / max(abs(y) for y in b))
    with mpmath.workdps(50 + 2 * max(0, int(mpmath.ceil(decades)))):
        p = mpmath.mpf(p)
        na = mpmath.sqrt(mpmath.fsum(x * x for x in a))
        nb = mpmath.sqrt(mpmath.fsum(y * y for y in b))
        nab = mpmath.sqrt(mpmath.fsum((x + y) ** 2 for x, y in zip(a, b)))
        dot = mpmath.fsum(x * y for x, y in zip(a, b))
        numer = nab**p - na**p - p * na ** (p - 2) * dot
        return float(numer / (nb**2 * (na + nb) ** (p - 2)))


def graded_grid_nodes(
    level: tuple[float, float], focus: tuple[float, float], resolution: int
) -> np.ndarray:
    """Nodes of the graded grid, one node at a time: uniform on the focus
    window, then marching outward with step max(h0, 0.02 |r|) and ending at
    the level's end once it is within 1.5 steps.
    """
    a, b = level
    fa, fb = max(float(focus[0]), a), min(float(focus[1]), b)
    h0 = (fb - fa) / (resolution - 1)

    def march(start: float, target: float, sign: float) -> list[float]:
        out = []
        r = start
        while True:
            step = max(h0, 0.02 * abs(r))
            remaining = (target - r) * sign
            if remaining <= 1.5 * step:
                out.append(target)
                return out
            r = r + sign * step
            out.append(r)

    left = march(fa, a, -1.0)[::-1] if fa > a else []
    right = march(fb, b, +1.0) if fb < b else []
    return np.concatenate((left, np.linspace(fa, fb, resolution), right))
