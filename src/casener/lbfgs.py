"""L-BFGS-B on an unconstrained problem, in numpy.

With no bounds, L-BFGS-B's generalized Cauchy point and subspace
minimization reduce to the quasi-Newton step x - H g of its limited-memory
matrix (Byrd, Lu, Nocedal & Zhu, 1995, sections 4-5): the two-loop
recursion's direction (Nocedal, 1980), with H0 = I / theta, theta = y'y /
s'y of the newest pair.  What makes the iterates L-BFGS-B's is the rest,
and `minimize` copies it from the reference code: the line search `dcsrch`
(Moré & Thuente, 1994), the first step 1 / ||d||, the restart after a
failed search, the skipped update when s'y is too small, both stopping
tests, and how scipy's `minimize(method="L-BFGS-B")` counts iterations and
evaluations, down to reusing f and g at a repeated point.  The iterates
equal scipy's up to the rounding of the direction's inner products, and
so do the counts, on the problems `tests/test_lbfgs.py` checks.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, NamedTuple

import numpy as np

#: scipy's defaults for the stored (s, y) pairs, the projected-gradient
#: tolerance and the evaluations per line search, and L-BFGS-B's fixed
#: line-search tolerances (sufficient decrease, curvature, interval) and
#: largest step.
_MEMORY = 10
_PGTOL = 1e-5
_LS_FTOL, _LS_GTOL, _LS_XTOL = 1e-3, 0.9, 0.1
_STPMAX = 1e10
_MAX_LINE_EVALUATIONS = 20
_EPS = float(np.finfo(np.float64).eps)


class Result(NamedTuple):
    """The last accepted point, the iterations and objective evaluations it
    took, and whether a stopping test passed (not the iteration cap or a
    failed line search)."""

    x: np.ndarray
    nit: int
    nfev: int
    converged: bool


def minimize(
    fg: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    max_iterations: int,
    ftol: float,
) -> Result:
    """Minimize f from `x0`, where `fg(x)` returns f(x) and its gradient.

    Converges when the gradient's infinity norm is at most 1e-5, or when an
    iteration lowers f by at most `ftol` relative to max(|f|, 1); stops
    unconverged after `max_iterations` iterations, or when a line search
    fails from the steepest-descent direction.  A g'd that overflows raises
    FloatingPointError, not a warning.
    """
    x = np.array(x0, dtype=np.float64)
    f, g = fg(x)
    nfev = 1
    seen = (x, f, g)  # the last trial point, and f and g there

    def phi(step: float) -> tuple[float, float]:
        """f and f' at `step` along d from x; a trial bitwise equal to the
        last one reuses its f and g, as scipy's memo does."""
        nonlocal nfev, seen
        trial = z if step == 1.0 else step * d + x
        if np.array_equal(trial, seen[0]):
            seen = (trial, *seen[1:])
        else:
            nfev += 1
            seen = (trial, *fg(trial))
        with np.errstate(over="raise", invalid="raise"):
            return seen[1], float(seen[2] @ d)

    if np.abs(g).max() <= _PGTOL:
        return Result(x, 0, nfev, True)
    pairs: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=_MEMORY)
    theta = 1.0
    tol = ftol / _EPS * _EPS  # the reference code's factr * epsmch
    nit = 0
    while True:
        z = x + _direction(g, pairs, theta) if pairs else x - g
        d = z - x
        stp = 1.0
        if nit == 0:
            dnorm = float(np.sqrt(d @ d))
            stp = min(1.0 / dnorm, _STPMAX) if dnorm else _STPMAX
        with np.errstate(over="raise", invalid="raise"):
            gd_old = float(g @ d)
        found = None if gd_old >= 0 else _line_search(phi, f, gd_old, stp)
        if found is None:
            # x, f and g are still the last accepted point's.
            if not pairs:
                return Result(x, nit, nfev, False)
            pairs.clear()
            theta = 1.0
            continue

        stp, gd = found
        f_old, g_old = f, g
        x, f, g = seen
        nit += 1
        if nit >= max_iterations:
            return Result(x, nit, nfev, False)
        if np.abs(g).max() <= _PGTOL:
            return Result(x, nit, nfev, True)
        if f_old - f <= tol * max(abs(f_old), abs(f), 1.0):
            return Result(x, nit, nfev, True)

        dr = (gd - gd_old) * stp
        if dr > _EPS * (-gd_old * stp):
            y = g - g_old
            pairs.append((d if stp == 1.0 else stp * d, y, 1.0 / dr))
            theta = float(y @ y) / dr


def _direction(
    g: np.ndarray,
    pairs: deque[tuple[np.ndarray, np.ndarray, float]],
    theta: float,
) -> np.ndarray:
    """-H g by the two-loop recursion over `pairs` (s, y, 1 / s'y), oldest
    first, with H0 = I / theta."""
    q = -g
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * float(s @ q)
        q -= alpha * y
        alphas.append(alpha)
    r = q / theta
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        r += (alpha - rho * float(y @ r)) * s
    return r


def _line_search(
    phi: Callable[[float], tuple[float, float]],
    finit: float,
    ginit: float,
    stp: float,
) -> tuple[float, float] | None:
    """MINPACK-2's `dcsrch` for phi(stp) = (f, f') along the direction,
    from phi(0) = (`finit`, `ginit`), ginit < 0, and a first trial `stp`.

    Returns the accepted step and f' there, or None when 20 evaluations
    did not settle it.  A warning exit (rounding errors, the interval
    below xtol, a step at a bound) accepts the last trial, as L-BFGS-B
    does.
    """
    stpmin, stpmax = 0.0, _STPMAX
    brackt, stage = False, 1
    gtest = _LS_FTOL * ginit
    width, width1 = stpmax - stpmin, (stpmax - stpmin) / 0.5
    stx, fx, gx = 0.0, finit, ginit
    sty, fy, gy = 0.0, finit, ginit
    stmin, stmax = 0.0, stp + 4.0 * stp
    for _ in range(_MAX_LINE_EVALUATIONS):
        f, g = phi(stp)
        ftest = finit + stp * gtest
        if stage == 1 and f <= ftest and g >= 0:
            stage = 2
        if (
            brackt and (stp <= stmin or stp >= stmax)
            or brackt and stmax - stmin <= _LS_XTOL * stmax
            or stp == stpmax and f <= ftest and g <= gtest
            or stp == stpmin and (f > ftest or g >= gtest)
            or f <= ftest and abs(g) <= _LS_GTOL * -ginit
        ):
            return stp, g

        # In stage 1, a step with a higher f than stx's but no sufficient
        # decrease is taken with the modified function f - stp * gtest.
        if stage == 1 and fx >= f > ftest:
            stx, fxm, gxm, sty, fym, gym, stp, brackt = _dcstep(
                stx, fx - stx * gtest, gx - gtest,
                sty, fy - sty * gtest, gy - gtest,
                stp, f - stp * gtest, g - gtest, brackt, stmin, stmax,
            )
            fx, gx = fxm + stx * gtest, gxm + gtest
            fy, gy = fym + sty * gtest, gym + gtest
        else:
            stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(
                stx, fx, gx, sty, fy, gy, stp, f, g, brackt, stmin, stmax,
            )

        if brackt:
            # Bisect when the interval did not shrink enough in two steps.
            if abs(sty - stx) >= 0.66 * width1:
                stp = stx + 0.5 * (sty - stx)
            width1, width = width, abs(sty - stx)
            stmin, stmax = min(stx, sty), max(stx, sty)
        else:
            stmin = stp + 1.1 * (stp - stx)
            stmax = stp + 4.0 * (stp - stx)
        stp = min(max(stp, stpmin), stpmax)
        if brackt and (
            stp <= stmin or stp >= stmax or stmax - stmin <= _LS_XTOL * stmax
        ):
            stp = stx
    return None


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """MINPACK-2's `dcstep`: a safeguarded trial step from the cubic and
    quadratic interpolants of the interval ends (stx, fx, dx), (sty, fy,
    dy) and the step (stp, fp, dp), and the updated interval.  Returns
    (stx, fx, dx, sty, fy, dy, new step, brackt).

    The arithmetic is float64 with IEEE results and no exceptions, as in
    the reference code: a negative discriminant's square root is NaN.
    """
    stx, fx, dx, sty, fy, dy, stp, fp, dp = map(
        np.float64, (stx, fx, dx, sty, fy, dy, stp, fp, dp)
    )
    opposite = np.sign(dp) * np.sign(dx) < 0
    with np.errstate(all="ignore"):
        if fp > fx:
            # Higher function value: the minimum is bracketed.
            theta, gamma = _cubic(stx, fx, dx, stp, fp, dp)
            if stp < stx:
                gamma = -gamma
            p = (gamma - dx) + theta
            q = ((gamma - dx) + gamma) + dp
            stpc = stx + p / q * (stp - stx)
            stpq = stx + dx / ((fx - fp) / (stp - stx) + dx) / 2.0 * (stp - stx)
            if abs(stpc - stx) <= abs(stpq - stx):
                stpf = stpc
            else:
                stpf = stpc + (stpq - stpc) / 2.0
            brackt = True
        elif opposite:
            # Derivatives of opposite sign: the minimum is bracketed.
            theta, gamma = _cubic(stx, fx, dx, stp, fp, dp)
            if stp > stx:
                gamma = -gamma
            p = (gamma - dp) + theta
            q = ((gamma - dp) + gamma) + dx
            stpc = stp + p / q * (stx - stp)
            stpq = stp + dp / (dp - dx) * (stx - stp)
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            brackt = True
        elif abs(dp) < abs(dx):
            # Same sign, smaller derivative: the cubic may have no minimizer
            # in the direction of the step, and its step then goes to the
            # bound.
            theta, gamma = _cubic(stx, fx, dx, stp, fp, dp, clip=True)
            if stp > stx:
                gamma = -gamma
            p = (gamma - dp) + theta
            q = (gamma + (dx - dp)) + gamma
            r = p / q
            if r < 0 and gamma != 0:
                stpc = stp + r * (stx - stp)
            elif stp > stx:
                stpc = stpmax
            else:
                stpc = stpmin
            stpq = stp + dp / (dp - dx) * (stx - stp)
            if brackt:
                stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
                if stp > stx:
                    stpf = min(stp + 0.66 * (sty - stp), stpf)
                else:
                    stpf = max(stp + 0.66 * (sty - stp), stpf)
            else:
                stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
                stpf = min(max(stpf, stpmin), stpmax)
        elif brackt:
            # Same sign, no smaller derivative, bracketed: the cubic
            # through stp and sty.
            theta, gamma = _cubic(sty, fy, dy, stp, fp, dp)
            if stp > sty:
                gamma = -gamma
            p = (gamma - dp) + theta
            q = ((gamma - dp) + gamma) + dy
            stpf = stp + p / q * (sty - stp)
        else:
            stpf = stpmax if stp > stx else stpmin

    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if opposite:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt


def _cubic(sta, fa, da, stb, fb, db, clip=False):
    """The cubic interpolant's theta and gamma, as `dcstep` writes them."""
    theta = 3.0 * (fa - fb) / (stb - sta) + da + db
    s = max(abs(theta), abs(da), abs(db))
    disc = (theta / s) ** 2 - (da / s) * (db / s)
    return theta, s * np.sqrt(max(0.0, disc) if clip else disc)
