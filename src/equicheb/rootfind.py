"""Simultaneous polynomial root finding (Aberth-Ehrlich).

One deterministic solver used both standalone and, in batch form, by the
level-curve samplers (the per-angle solves are independent, so the batch
path runs them as one vectorized iteration with per-row convergence masks;
it produces exactly the same iterates as solving one at a time).

Aberth starts at the eigenvalues of each polynomial's companion matrix,
which are backward stable (Edelman & Murakami 1995), spread apart by a
tiny fixed offset so that multiple roots do not start coincident; from
there it polishes simple roots in two or three steps (Bini 1996).  A root
set is certified either when every Newton correction is below the
tolerance or, from the second step on, when every root has a backward
error at rounding level: |p(z)| <= 4 (deg+1) eps sum_k |a_k| |z|^k, the
running error bound of Horner's rule (Higham 2002, section 5.1).  The
second test is what finishes multiple roots, where the corrections are
rounding noise of size about eps^(1/k) and never all fall below a tight
tolerance in one step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import ComplexPolynomial

__all__ = ["RootSet", "RootFindingError", "all_roots"]

# fixed irrational angular offset of the start spread, breaks symmetry ties
_ANGLE_OFFSET = 0.5 * np.sqrt(2.0)
# relative radius of the spread; Aberth's pair sums need distinct starts
_SPREAD = 1e-8
_MAX_ITER = 500
# Newton-correction tolerance, relative to 1 + |root|
_TOL = 1e-12
# angles this close above -pi count as pi: Aberth splits a k-fold root by
# about (C eps)^(1/k), C the root's condition, so this covers the copies of
# a double root; a triple root's may spread wider
_NEGATIVE_AXIS = np.finfo(float).eps ** (1.0 / 3.0)
# roots this close to the origin, relative to 1 + max |root|, have an angle
# of pure rounding noise
_ORIGIN = np.sqrt(np.finfo(float).eps)


class RootFindingError(RuntimeError):
    """Iteration budget exhausted before either certificate passed."""


@dataclass(frozen=True, eq=False)
class RootSet:
    """All roots of one polynomial, with per-root residuals |p(root)|."""

    roots: np.ndarray
    residuals: np.ndarray
    iterations: int

    def __len__(self):
        return len(self.roots)


def _monic_rows(coeff_rows: np.ndarray) -> np.ndarray:
    """Each row divided by its leading coefficient; raises ValueError unless
    every coefficient and every ratio is finite."""
    with np.errstate(all="ignore"):
        monic = coeff_rows / coeff_rows[:, -1:]
    if not (np.isfinite(coeff_rows).all() and np.isfinite(monic).all()):
        raise ValueError(
            "coefficients and targets must be finite, and so must the "
            "coefficients divided by the leading one"
        )
    return monic


def _initial_guesses(coeff_rows: np.ndarray) -> np.ndarray:
    """Companion-matrix eigenvalues, one row per polynomial, each moved by
    _SPREAD * (1 + max |eigenvalue|) along its own fixed angle."""
    rows, width = coeff_rows.shape
    deg = width - 1
    companion = np.zeros((rows, deg, deg), dtype=complex)
    companion[:, 0, :] = -_monic_rows(coeff_rows)[:, -2::-1]
    companion[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
    eig = np.linalg.eigvals(companion)
    angles = 2.0 * np.pi * np.arange(deg) / deg + _ANGLE_OFFSET
    radius = _SPREAD * (1.0 + np.abs(eig).max(axis=1))
    return eig + radius[:, None] * np.exp(1j * angles)


def _sort_roots(roots: np.ndarray) -> np.ndarray:
    """Each row by angle in (-pi, pi], ties by modulus.  An angle within
    _NEGATIVE_AXIS of -pi counts as pi, so that a root on the negative real
    axis, or a copy of a multiple one split by rounding, sorts last
    whatever the sign of its small imaginary part.  Roots within _ORIGIN
    (1 + max |root|) of the origin sort first, by modulus alone."""
    modulus = np.abs(roots)
    angle = np.angle(roots)
    angle = np.where(angle < -np.pi + _NEGATIVE_AXIS, np.pi, angle)
    at_origin = modulus <= _ORIGIN * (1.0 + modulus.max(axis=-1, keepdims=True))
    angle = np.where(at_origin, -np.inf, angle)
    order = np.lexsort((modulus, angle), axis=-1)
    return np.take_along_axis(roots, order, axis=-1)


def _aberth_batch(coeff_rows: np.ndarray):
    """Aberth-Ehrlich on a batch of same-degree polynomials (rows ascending).

    Returns (roots, iterations, converged_mask); rows iterate independently
    but in lockstep, for at most _MAX_ITER steps.  A row is frozen at its
    corrected iterate once every correction is below _TOL*(1+|z|).  From the
    second step on (the first always moves the spread start), a row that
    misses this test is frozen at the iterate it was evaluated at once every
    root there has a backward error at rounding level (module docstring);
    the bound is formed only for those rows.
    """
    z = _initial_guesses(coeff_rows)  # rejects non-finite input before any arithmetic
    rows, width = coeff_rows.shape
    deg = width - 1
    deriv = coeff_rows[:, 1:] * np.arange(1, width)
    backward = 4.0 * width * np.finfo(float).eps

    active = np.ones(rows, dtype=bool)
    iterations = np.zeros(rows, dtype=int)

    for it in range(_MAX_ITER):
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
        znew = za - corr
        done = np.all(np.abs(corr) < _TOL * (1.0 + np.abs(znew)), axis=1)
        if it > 0 and not done.all():
            rest = np.flatnonzero(~done)
            modulus = np.abs(za[rest])
            bound = np.zeros_like(modulus)
            for k in range(width - 1, -1, -1):
                bound = bound * modulus + np.abs(ca[rest, k])[:, None]
            held = rest[np.all(np.abs(pv[rest]) <= backward * bound, axis=1)]
            znew[held] = za[held]
            done[held] = True
        z[active] = znew
        iterations[active] += 1
        flags = np.flatnonzero(active)
        active[flags[done]] = False
    return z, iterations, ~active


def all_roots(p: ComplexPolynomial) -> RootSet:
    """All complex roots of p by simultaneous Aberth-Ehrlich iteration.

    Iteration starts at the companion-matrix eigenvalues, spread by a
    tiny fixed offset, and stops when every Newton correction falls below
    _TOL*(1+|root|) or every root has a backward error at rounding level
    (module docstring); multiple roots stop by the second test.
    Deterministic for fixed p.  Raises ValueError for a coefficient,
    or a coefficient divided by the leading one, that is not finite, and
    RootFindingError if the budget runs out.
    """
    coeffs = np.asarray(p.coeffs, dtype=complex)
    deg = p.degree
    if deg < 1:
        raise ValueError("degree must be at least 1")
    if coeffs[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    if deg == 1:
        _monic_rows(coeffs[None, :])
        root = np.array([-coeffs[0] / coeffs[1]])
        return RootSet(root, np.abs(p(root)), iterations=0)
    z, iters, conv = _aberth_batch(coeffs[None, :])
    if not conv[0]:
        raise RootFindingError(f"no convergence within {_MAX_ITER} iterations (degree {deg})")
    roots = _sort_roots(z[0])
    return RootSet(roots, np.abs(p(roots)), iterations=int(iters[0]))


def roots_after_constant_shifts(base: ComplexPolynomial, targets: np.ndarray):
    """Roots of base(z) = target for every target, batched.

    Level-curve samplers call this once per curve; rows keep the solver's
    deterministic per-polynomial ordering.  A degree-1 base is solved in
    closed form, (target - c0) / c1.  Raises ValueError as all_roots does,
    for any row, and RootFindingError if any row fails to converge.
    """
    targets = np.asarray(targets, dtype=complex).ravel()
    rows = np.tile(np.asarray(base.coeffs, dtype=complex), (len(targets), 1))
    rows[:, 0] -= targets
    if base.degree == 1:
        _monic_rows(rows)
        c0, c1 = base.coeffs
        return ((targets - c0) / c1)[:, None]
    z, _, conv = _aberth_batch(rows)
    if not conv.all():
        bad = int(np.flatnonzero(~conv)[0])
        raise RootFindingError(
            f"no convergence for target index {bad} within {_MAX_ITER} iterations"
        )
    return _sort_roots(z)
