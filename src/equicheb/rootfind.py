"""Simultaneous polynomial root finding (Aberth-Ehrlich).

One deterministic solver used both standalone and, in batch form, by the
level-curve samplers (the per-angle solves are independent, so the batch
path runs them as one vectorized iteration with per-row convergence masks;
it produces exactly the same iterates as solving one at a time).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import ComplexPolynomial

__all__ = ["RootSet", "RootFindingError", "all_roots"]

# fixed irrational angular offset of the initial circle, breaks symmetry ties
_ANGLE_OFFSET = 0.5 * np.sqrt(2.0)
_MAX_ITER = 500


class RootFindingError(RuntimeError):
    """Iteration budget exhausted; carries the best iterate found."""

    def __init__(self, message, best_roots=None, residuals=None):
        super().__init__(message)
        self.best_roots = best_roots
        self.residuals = residuals


@dataclass(frozen=True, eq=False)
class RootSet:
    """All roots of one polynomial, with per-root residuals |p(root)|."""

    roots: np.ndarray
    residuals: np.ndarray
    iterations: int

    def __len__(self):
        return len(self.roots)


def _initial_guesses(coeff_rows: np.ndarray) -> np.ndarray:
    """Perturbed circle at the Cauchy root bound, one row per polynomial."""
    deg = coeff_rows.shape[1] - 1
    bound = 1.0 + np.abs(coeff_rows[:, :-1] / coeff_rows[:, -1:]).max(axis=1)
    angles = 2.0 * np.pi * np.arange(deg) / deg + _ANGLE_OFFSET
    return bound[:, None] * np.exp(1j * angles)


def _sort_roots(roots: np.ndarray) -> np.ndarray:
    """Each row by angle, ties by modulus."""
    order = np.lexsort((np.abs(roots), np.angle(roots)), axis=-1)
    return np.take_along_axis(roots, order, axis=-1)


def _aberth_batch(coeff_rows: np.ndarray, tol: float, max_iter: int = _MAX_ITER):
    """Aberth-Ehrlich on a batch of same-degree polynomials (rows ascending).

    Returns (roots, iterations, converged_mask); rows iterate independently
    but in lockstep, frozen once their corrections pass the tolerance.
    """
    rows, width = coeff_rows.shape
    deg = width - 1
    deriv = coeff_rows[:, 1:] * np.arange(1, width)

    z = _initial_guesses(coeff_rows)
    active = np.ones(rows, dtype=bool)
    iterations = np.zeros(rows, dtype=int)

    for it in range(max_iter):
        if not active.any():
            break
        za = z[active]
        ca = coeff_rows[active]
        da = deriv[active]
        pv = np.zeros_like(za)
        for k in range(width - 1, -1, -1):
            pv = pv * za + ca[:, k][:, None]
        dv = np.zeros_like(za)
        for k in range(deg - 1, -1, -1):
            dv = dv * za + da[:, k][:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.where(dv != 0, pv / np.where(dv == 0, 1, dv), 0.0)
        diff = za[:, :, None] - za[:, None, :]
        idx = np.arange(deg)
        diff[:, idx, idx] = np.inf
        pair_sum = (1.0 / diff).sum(axis=2)
        denom = 1.0 - newton * pair_sum
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = np.where(denom != 0, newton / np.where(denom == 0, 1, denom), newton)
        za = za - corr
        z[active] = za
        done = np.all(np.abs(corr) < tol * (1.0 + np.abs(za)), axis=1)
        iterations[active] += 1
        flags = np.flatnonzero(active)
        active[flags[done]] = False
    return z, iterations, ~active


def _residuals(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    pv = np.zeros_like(roots)
    for c in coeffs[::-1]:
        pv = pv * roots + c
    return np.abs(pv)


def all_roots(p: ComplexPolynomial, tol: float = 1e-12) -> RootSet:
    """All complex roots of p by simultaneous Aberth-Ehrlich iteration.

    Initial guesses sit on a perturbed circle at the coefficient root
    bound; iteration stops when every Newton correction falls below
    tol*(1+|root|).  Deterministic for fixed (p, tol).  Raises
    RootFindingError (carrying the best iterate) if the budget runs out.
    """
    coeffs = np.asarray(p.coeffs, dtype=complex)
    deg = p.degree
    if deg < 1:
        raise ValueError("degree must be at least 1")
    if coeffs[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    if deg == 1:
        root = np.array([-coeffs[0] / coeffs[1]])
        return RootSet(root, _residuals(coeffs, root), iterations=0)
    z, iters, conv = _aberth_batch(coeffs[None, :], tol)
    roots = _sort_roots(z[0])
    res = _residuals(coeffs, roots)
    if not conv[0]:
        raise RootFindingError(
            f"no convergence within {_MAX_ITER} iterations (degree {deg})",
            best_roots=roots,
            residuals=res,
        )
    return RootSet(roots, res, iterations=int(iters[0]))


def roots_after_constant_shifts(
    base: ComplexPolynomial, targets: np.ndarray, tol: float = 1e-12
):
    """Roots of base(z) = target for every target, batched.

    Level-curve samplers call this once per curve; rows keep the solver's
    deterministic per-polynomial ordering.  A degree-1 base is solved in
    closed form, (target - c0) / c1.  Raises RootFindingError if any
    row fails to converge.
    """
    targets = np.asarray(targets, dtype=complex).ravel()
    if base.degree == 1:
        c0, c1 = base.coeffs
        return ((targets - c0) / c1)[:, None]
    rows = np.tile(np.asarray(base.coeffs, dtype=complex), (len(targets), 1))
    rows[:, 0] -= targets
    z, iters, conv = _aberth_batch(rows, tol)
    if not conv.all():
        bad = int(np.flatnonzero(~conv)[0])
        raise RootFindingError(
            f"no convergence for target index {bad} within {_MAX_ITER} iterations",
            best_roots=z[bad],
            residuals=_residuals(rows[bad], z[bad]),
        )
    return _sort_roots(z)
