"""Simultaneous polynomial root finding (Aberth-Ehrlich).

One deterministic kernel, ``_roots_of_rows``, serves both the standalone
entry points and the level-curve samplers: degree 1 and 2 in closed form,
degree >= 3 by Aberth, whose per-row solves run as one vectorized
iteration with per-row convergence masks and give exactly the iterates of
solving one at a time.

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
from typing import Sequence

import numpy as np

from .series import ComplexPolynomial, horner

__all__ = ["RootSet", "RootFindingError", "all_roots", "all_roots_batch"]

# fixed irrational angular offset of the start spread, breaks symmetry ties
_ANGLE_OFFSET = 0.5 * np.sqrt(2.0)
# relative radius of the spread; Aberth's pair sums need distinct starts
_SPREAD = 1e-8
_MAX_ITER = 500
# Newton-correction tolerance, relative to 1 + |root|
_TOL = 1e-12
# angles this close above -pi count as pi: a root on the negative real axis
# has an imaginary part of rounding size, of either sign
_NEGATIVE_AXIS = np.finfo(float).eps ** (1.0 / 3.0)
# roots this close to the origin, relative to 1 + max |root|, have an angle
# of pure rounding noise
_ORIGIN = np.sqrt(np.finfo(float).eps)
# roots this close together, relative to 1 + max |root|, are one cluster:
# Aberth splits a k-fold root by about (C eps)^(1/k), C the root's
# condition, 1.7e-5 for the triple root of (z + 1)^3 (z - 1)
_CLUSTER = np.finfo(float).eps ** 0.25


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
    """Each row by angle in (-pi, pi], ties by modulus, cluster by cluster.

    Roots within _CLUSTER (1 + max |root|) of each other, linked in chains
    through one distance matrix of the batch, form a cluster, such as the
    copies of a multiple root split by rounding; a cluster sorts by the
    angle and modulus of its mean, which rounding moves far less than its
    copies, and within itself by theirs.  An angle within _NEGATIVE_AXIS of
    -pi counts as pi, so that a root or cluster on the negative real axis
    sorts last whatever the sign of its small imaginary part.  Roots whose
    cluster mean lies within _ORIGIN (1 + max |root|) of the origin sort
    first, by modulus alone.  A root alone is its own mean, so a row of
    roots all apart sorts by their own angles and moduli, as it sorts alone."""
    size = 1.0 + np.abs(roots).max(axis=-1, keepdims=True)

    def keys(z):
        modulus, angle = np.abs(z), np.angle(z)
        angle = np.where(angle < -np.pi + _NEGATIVE_AXIS, np.pi, angle)
        return modulus, np.where(modulus <= _ORIGIN * size, -np.inf, angle)

    order_keys = keys(roots)
    deg = roots.shape[-1]
    near = np.abs(roots[..., :, None] - roots[..., None, :]) <= _CLUSTER * size[..., None]
    if np.count_nonzero(near) > np.count_nonzero(near.diagonal(0, -2, -1)):  # a root has a neighbour
        label = np.broadcast_to(np.arange(deg), roots.shape)
        for _ in range(deg - 1):  # each cluster takes its least index as label
            linked = np.where(near, label[..., None, :], deg).min(axis=-1)
            if (linked == label).all():
                break
            label = linked
        same = label[..., :, None] == label[..., None, :]
        mean = (same * roots[..., None, :]).sum(axis=-1) / same.sum(axis=-1)
        order_keys = (*order_keys, *keys(mean))
    order = np.lexsort(order_keys, axis=-1)
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
        pv = horner(ca.T[:, :, None], za)
        dv = horner(da.T[:, :, None], za)
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
            bound = horner(np.abs(ca[rest]).T[:, :, None], np.abs(za[rest]))
            held = rest[np.all(np.abs(pv[rest]) <= backward * bound, axis=1)]
            znew[held] = za[held]
            done[held] = True
        z[active] = znew
        iterations[active] += 1
        flags = np.flatnonzero(active)
        active[flags[done]] = False
    return z, iterations, ~active


def _roots_of_rows(rows: np.ndarray):
    """(roots, iterations, converged) for rows of one degree (ascending):
    degree 1 as (0 - c_0) / c_1; degree 2 as z1 = -(h + d), h half the monic
    linear coefficient and d = sqrt(h^2 - c) signed so that h + d does not
    cancel, and z2 = c / z1, c the monic constant (z1 = 0 only where c = 0);
    higher degrees by ``_aberth_batch``.  From degree 2 up each row is
    sorted by ``_sort_roots``.  The closed forms take 0 iterations."""
    deg = rows.shape[1] - 1
    if deg >= 3:
        z, iters, conv = _aberth_batch(rows)
        return _sort_roots(z), iters, conv
    monic = _monic_rows(rows)
    closed = np.zeros(len(rows), dtype=int), np.ones(len(rows), dtype=bool)
    if deg == 1:
        return (0.0 - rows[:, :1]) / rows[:, 1:], *closed
    c, h = monic[:, 0], 0.5 * monic[:, 1]
    d = np.sqrt(h * h - c)
    z1 = -(h + np.where((h.conj() * d).real < 0, -d, d))
    return _sort_roots(np.stack([z1, c / np.where(z1 == 0, 1, z1)], axis=1)), *closed


def all_roots(p: ComplexPolynomial) -> RootSet:
    """All complex roots of p: degree 1 and 2 in closed form, higher
    degrees by Aberth-Ehrlich from the spread companion eigenvalues until
    every Newton correction is below _TOL*(1+|root|) or every root has a
    backward error at rounding level (module docstring).  Deterministic.
    Raises ValueError for a coefficient, or a coefficient divided by the
    leading one, that is not finite, and RootFindingError if the budget
    runs out.  This is ``all_roots_batch`` on one polynomial.
    """
    (roots,) = all_roots_batch([p])
    if roots is None:
        raise RootFindingError(f"no convergence within {_MAX_ITER} iterations (degree {p.degree})")
    return roots


def all_roots_batch(polys: Sequence[ComplexPolynomial]) -> list[RootSet | None]:
    """``all_roots`` of each polynomial of a batch of one degree, by one
    ``_roots_of_rows`` call whose rows each get the bits of their own call.
    A row whose budget runs out is None, a gap, and the other rows still
    finish.  Raises ValueError as ``all_roots`` does, for any row, and for
    polynomials of more than one degree.
    """
    if not polys:
        return []
    deg = polys[0].degree
    if any(p.degree != deg for p in polys):
        raise ValueError("a root batch takes polynomials of one degree")
    if deg < 1:
        raise ValueError("degree must be at least 1")
    rows = np.array([p.coeffs for p in polys], dtype=complex)
    if (rows[:, -1] == 0).any():
        raise ValueError("leading coefficient must be nonzero")
    roots, iters, conv = _roots_of_rows(rows)
    return [RootSet(row, np.abs(p(row)), iterations=int(k)) if ok else None
            for p, row, k, ok in zip(polys, roots, iters, conv)]


def roots_after_constant_shifts(base: ComplexPolynomial, targets: np.ndarray):
    """Roots of base(z) = target for every target, batched by
    ``_roots_of_rows``.

    Level-curve samplers call this once per curve; rows keep the solver's
    deterministic per-polynomial ordering.  Raises ValueError as all_roots
    does, for any row, and RootFindingError if any row fails to converge.
    """
    targets = np.asarray(targets, dtype=complex).ravel()
    rows = np.tile(np.asarray(base.coeffs, dtype=complex), (len(targets), 1))
    rows[:, 0] -= targets
    roots, _, conv = _roots_of_rows(rows)
    if not conv.all():
        bad = int(np.flatnonzero(~conv)[0])
        raise RootFindingError(
            f"no convergence for target index {bad} within {_MAX_ITER} iterations"
        )
    return roots
