"""Limited-memory BFGS minimizer with a strong Wolfe line search.

Works on arrays of any shape; the objective callable returns
(value, gradient) with the gradient shaped like the iterate. The inverse
Hessian is held as up to `history` curvature pairs combined by the
two-loop recursion, with H0 = gamma * I and gamma = s'y / y'y of the newest
pair. While no pair is held (at the start, after a restart, and so at the
start of every msinit scale) H0 = I / |g|_2 (Liu & Nocedal 1989; Nocedal &
Wright, sec. 3.5): the first trial point then lies at distance 1 from the
iterate whatever the objective's scale, so multiplying the objective by a
constant leaves the iterates unchanged, bit for bit for a power of two:
where |g|^2, |y|^2 or |s|^2, or the cubic fit of the line search, would
overflow, they are computed from values scaled by a power of two, which
is exact; while they are finite, the plain values are used. The iterates
are unconstrained: image values get clamped at export time only.

The line search (Nocedal & Wright, Alg. 3.5/3.6) probes phi(a) ->
(value, grad, slope) along the direction: from STEP_INIT it doubles to a
bracket, then zooms by cubic interpolation, at most MAX_LS probes per
phase, to a step meeting the strong Wolfe conditions with C1 and C2.
These are module constants, not options.

A failed search is retried once along -g / |g|_2 with the history dropped,
unless its direction already was that one: the retry would repeat its
probes. That is the case when no pair was held (the direction is then
-H0 g = -g / |g|_2, hence `steepest = not pairs`) or when a non-descent
direction fell back to the same scaled -g.
Termination is max_iter, grad_tol (max-norm) or line_search_failure. A
non-finite probe counts as an infinitely bad point; a non-finite start,
or a failed search that probed one, raises NonFiniteObjective carrying the
last good iterate. Inner products are numpy's fixed-order pairwise sums,
not BLAS, so the iterates do not depend on the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import frexp, ldexp

import numpy as np

C1 = 1e-4  # sufficient decrease (Armijo)
C2 = 0.9  # curvature
STEP_INIT = 1.0  # first trial step of every search
MAX_LS = 25  # evaluations per bracketing or zoom phase


class NonFiniteObjective(Exception):
    """Objective or gradient went NaN/Inf; carries the last good iterate."""

    def __init__(self, message, x=None, trace=None):
        super().__init__(message)
        self.x = x
        self.trace = trace


@dataclass
class LbfgsConfig:
    max_iter: int = 2000
    history: int = 10
    grad_tol: float = 1e-8  # max-norm of the gradient


@dataclass
class OptTrace:
    """Loss at the start point and after every accepted step."""

    values: list[float] = field(default_factory=list)
    termination: str = ""
    iterations: int = 0
    n_evals: int = 0
    grad_norm: float = np.inf


def _dot(a, b) -> float:
    # not np.vdot: BLAS ddot sums in an order that follows its thread split
    return float(np.add.reduce(a.ravel() * b.ravel()))


def _square_norm(v):
    """(q, e) with v.v = q * 4**e: the plain sum of squares and e = 0 when it
    is finite, else the sum for v scaled by 2**-e into [0.5, 1) in max-norm.
    A power-of-two scaling is exact away from underflow, so a scaled
    objective gets the plain one's bytes, scaled (Blue 1978, ACM TOMS 4(1))."""
    with np.errstate(over="ignore"):
        q = _dot(v, v)
    if np.isfinite(q):
        return q, 0
    e = int(np.frexp(np.max(np.abs(v)))[1])
    w = np.ldexp(v, -e)
    return _dot(w, w), e


def _norm(v) -> float:
    q, e = _square_norm(v)
    return float(np.ldexp(np.sqrt(q), e))


def _steepest(g):
    """-H0 g with H0 = I/|g|_2: a unit step along it moves distance 1."""
    return -(g * (1.0 / _norm(g)))  # two_loop_direction(g, [], 1/|g|)


def two_loop_direction(grad, pairs, gamma: float):
    """Search direction -H g from curvature pairs [(s, y, rho), ...].

    Oldest pair first; H0 = gamma * I. This is the standard two-loop
    recursion and is exposed so it can be checked against a densely
    assembled inverse Hessian.
    """
    q = np.array(grad, dtype=np.float64, copy=True)
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * _dot(s, q)
        q -= a * y
        alphas.append(a)
    q *= gamma  # r = H0 q of the second loop, in q's memory
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        b = rho * _dot(y, q)
        q += (a - b) * s
    return np.negative(q, out=q)


def _is_good(value, grad) -> bool:
    return bool(np.isfinite(value)) and bool(np.all(np.isfinite(grad)))


def _cubic_step(alo, flo, dlo, ahi, fhi, dhi):
    """Minimizer of the cubic Hermite fit; None when degenerate or when fhi
    or dhi is not finite, so that the zoom bisects."""
    if not (np.isfinite(fhi) and np.isfinite(dhi)):
        return None
    d1 = dlo + dhi - 3.0 * (flo - fhi) / (alo - ahi)
    with np.errstate(over="ignore", invalid="ignore"):
        disc = d1 * d1 - dlo * dhi
    if not np.isfinite(disc) and np.isfinite(d1):
        # the squares overflow: the step is the same for slopes scaled by a
        # power of two, and that scaling is exact
        e = -frexp(max(abs(d1), abs(dlo), abs(dhi)))[1]
        d1, dlo, dhi = ldexp(d1, e), ldexp(dlo, e), ldexp(dhi, e)
        disc = d1 * d1 - dlo * dhi
    if disc < 0:
        return None
    d2 = np.sqrt(disc) * np.sign(ahi - alo)
    denom = dhi - dlo + 2.0 * d2
    if denom == 0:
        return None
    a = ahi - (ahi - alo) * (dhi + d2 - d1) / denom
    return a if np.isfinite(a) else None


def _line_search(phi, f0, d0):
    """Strong Wolfe step along a direction: (step, value, grad) or None.

    phi(a) -> (value, grad, slope) probes the objective a step a along the
    direction; f0 and d0 are its value and slope at a = 0. Brackets by
    doubling from STEP_INIT, then zooms.
    """
    if d0 >= 0:
        return None
    prev = (0.0, f0, d0)  # (step, value, slope) of the last probe
    a = STEP_INIT
    for i in range(MAX_LS):
        f_a, g_a, d_a = phi(a)
        if f_a > f0 + C1 * a * d0 or (i > 0 and f_a >= prev[1]):
            return _zoom(phi, f0, d0, prev, (a, f_a, d_a))
        if abs(d_a) <= -C2 * d0:
            return (a, f_a, g_a) if f_a < f0 else None
        if d_a >= 0:
            return _zoom(phi, f0, d0, (a, f_a, d_a), prev)
        prev = (a, f_a, d_a)
        a = min(2.0 * a, 1e10)
    return None


def _zoom(phi, f0, d0, lo, hi):
    """Shrink a bracket of (step, value, slope) points, lo the lower value,
    to a strong Wolfe step; (step, value, grad) or None."""
    for _ in range(MAX_LS):
        (alo, flo, dlo), (ahi, fhi, dhi) = lo, hi
        width = abs(ahi - alo)
        if width < 1e-16 * max(1.0, abs(alo)):
            return None
        a = _cubic_step(alo, flo, dlo, ahi, fhi, dhi)
        margin = 0.1 * width
        if a is None or not (min(alo, ahi) + margin <= a <= max(alo, ahi) - margin):
            a = 0.5 * (alo + ahi)
        f_a, g_a, d_a = phi(a)
        if f_a > f0 + C1 * a * d0 or f_a >= flo:
            hi = (a, f_a, d_a)
        else:
            if abs(d_a) <= -C2 * d0:
                return (a, f_a, g_a) if f_a < f0 else None
            if d_a * (ahi - alo) >= 0:
                hi = lo
            lo = (a, f_a, d_a)
    return None


def minimize(fun, x0, cfg: LbfgsConfig | None = None):
    """Minimize fun(x) -> (value, grad) from x0; returns (x, OptTrace)."""
    cfg = cfg or LbfgsConfig()
    x = np.array(x0, dtype=np.float64, copy=True)
    trace = OptTrace()
    fx, gx = fun(x)
    trace.n_evals = 1
    if not _is_good(fx, gx):
        raise NonFiniteObjective("objective non-finite at the start point", x, trace)
    fx = float(fx)
    gx = np.asarray(gx, dtype=np.float64)
    trace.values.append(fx)
    pairs = []  # (s, y, rho), oldest first

    def phi(a):
        nonlocal saw_nonfinite
        value, grad = fun(x + a * p)
        trace.n_evals += 1
        if not _is_good(value, grad):
            saw_nonfinite = True
            return np.inf, None, np.nan
        grad = np.asarray(grad, dtype=np.float64)
        return value, grad, _dot(grad, p)

    while True:
        trace.grad_norm = float(np.max(np.abs(gx))) if gx.size else 0.0
        if trace.grad_norm <= cfg.grad_tol:
            trace.termination = "grad_tol"
            break
        if trace.iterations >= cfg.max_iter:
            trace.termination = "max_iter"
            break

        steepest = not pairs
        p = _steepest(gx) if steepest else two_loop_direction(gx, pairs, gamma)
        if _dot(p, gx) >= 0:
            # curvature information went stale; fall back to steepest descent
            p, steepest = _steepest(gx), True
        saw_nonfinite = False
        # a failed search restarts once along -g/|g|, unless p already was that
        while (result := _line_search(phi, fx, _dot(gx, p))) is None and not steepest:
            pairs.clear()
            p, steepest = _steepest(gx), True
        if result is None:
            if saw_nonfinite:
                raise NonFiniteObjective("objective non-finite along every probed step",
                                         x, trace)
            trace.termination = "line_search_failure"
            break
        alpha, f_new, g_new = result
        s = alpha * p
        y = g_new - gx
        ys, (yy, e) = _dot(y, s), _square_norm(y)
        if ys > 1e-10 * np.ldexp(np.sqrt(yy), e) * _norm(s):
            pairs.append((s, y, 1.0 / ys))
            if len(pairs) > cfg.history:
                pairs.pop(0)
            gamma = float(np.ldexp(ys / yy, -2 * e))
        x = x + s
        fx, gx = float(f_new), g_new
        trace.values.append(fx)
        trace.iterations += 1

    return x, trace
