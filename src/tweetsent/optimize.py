"""Unconstrained minimization by limited-memory BFGS (Liu & Nocedal 1989).

``minimize`` runs the two-loop recursion over the last ``MEMORY`` correction
pairs, with an Armijo backtracking line search.  The first step, taken
along the steepest descent, has length 1; later directions start from the
identity scaled by ``s.y / y.y`` of the newest pair, and their first trial
step is 1.  A pair whose ``s.y`` is not positive would break the positive
definiteness of the inverse Hessian estimate and is not stored.  Every
operation is a fixed sequence of numpy reductions and updates, so a solve
gives the same bits on every call, in any process.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

MEMORY = 10  # correction pairs kept, as scipy's L-BFGS-B ``maxcor``
ARMIJO = 1e-4  # the share of the predicted decrease a step must reach
BACKTRACKS = 40  # halvings of the step before the line search gives up


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """``a @ b`` of two vectors, summed by numpy and never by a threaded BLAS,
    so that it does not depend on the threads a process gives BLAS."""
    return float(np.einsum("i,i->", a, b))


class Result(NamedTuple):
    """The last accepted iterate, its gradient and how the solve ended."""

    x: np.ndarray
    jac: np.ndarray
    nit: int  # accepted steps
    nfev: int  # objective evaluations
    success: bool
    message: str


def minimize(
    fun: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    *,
    gtol: float,
    maxiter: int,
    maxfun: int,
) -> Result:
    """Minimize ``fun``, which returns the value and gradient at a point.

    It converges when the gradient's infinity norm is at most ``gtol``, or
    when an accepted step leaves the value unchanged, which is as far as
    float64 can see.  It stops unconverged after ``maxiter`` steps, after
    ``maxfun`` evaluations, or when ``BACKTRACKS`` halvings find no step that
    decreases the value enough.
    """
    x = np.array(x0, dtype=np.float64)
    f, g = fun(x)
    nfev, nit = 1, 0
    pairs: deque[tuple[np.ndarray, np.ndarray, float]] = deque(maxlen=MEMORY)
    while np.max(np.abs(g)) > gtol:
        if nit >= maxiter:
            return Result(x, g, nit, nfev, False, "iteration limit reached")
        direction = -g
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * dot(s, direction))
            direction -= alphas[-1] * y
        if pairs:
            s, y, rho = pairs[-1]
            direction *= 1.0 / (rho * dot(y, y))  # s.y / y.y
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            direction += (alpha - rho * dot(y, direction)) * s
        step = 1.0 if pairs else 1.0 / np.sqrt(dot(g, g))
        slope = dot(g, direction)
        for _ in range(BACKTRACKS):
            if nfev >= maxfun:
                return Result(x, g, nit, nfev, False, "function evaluation limit reached")
            x_new = x + step * direction
            f_new, g_new = fun(x_new)
            nfev += 1
            if f_new <= f + ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            return Result(x, g, nit, nfev, False, "line search found no acceptable step")
        nit += 1
        s, y = x_new - x, g_new - g
        sy = dot(s, y)
        if sy > 0:
            pairs.append((s, y, 1.0 / sy))
        unchanged = f_new == f
        x, f, g = x_new, f_new, g_new
        if unchanged:
            return Result(x, g, nit, nfev, True, "converged: a step left the value unchanged")
    return Result(x, g, nit, nfev, True, "converged: gradient infinity norm at most gtol")
