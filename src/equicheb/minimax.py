"""Discrete complex Chebyshev problem via Lawson's reweighted least squares.

The inner solve minimizes a weighted L2 norm over monic polynomials in a
centered/scaled basis; the Lawson loop reweights by residual magnitude so
the weighted-LS solutions converge to the discrete minimax solution.  The
duality gap (max residual minus weighted mean residual) certifies
convergence: it vanishes exactly at the discrete Chebyshev polynomial.
Solves whose values on the curve are too large for double precision to
resolve the polynomial near K are refined in double-double arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb

import numpy as np

from . import dd
from .curves import (
    CurveFamily,
    CurveSample,
    capacity_leading_coefficient,
    sample_level_curve,
    sample_points_dd,
)
from .series import ComplexPolynomial

__all__ = [
    "RankDeficiencyError",
    "SolveOptions",
    "MinimaxSolution",
    "weighted_ls_monic",
    "chebyshev_on_points",
    "solve_chebyshev",
    "sup_norm_on_curve",
]


class RankDeficiencyError(ValueError):
    """The weighted least-squares system does not determine the polynomial."""


# sample doubling (``SolveOptions.adapt``) stops once the discrete sup norm
# changes by less than this, relative; kept apart from ``tol_rel`` so that a
# loose gap tolerance does not coarsen the discretization
_ADAPT_TOL = 1e-8
_MAX_REFINE = 6


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for the Lawson loop: the relative duality gap ``tol_rel`` that
    certifies convergence, the iteration cap, and whether to resample the
    curve at doubled density until the sup norm stabilizes."""

    tol_rel: float = 1e-10
    max_iter: int = 2000
    adapt: bool = True

    def __post_init__(self):
        # below either bound no iterate is ever kept as the best one
        if not (self.tol_rel >= 0 and self.max_iter >= 1):
            raise ValueError("need tol_rel >= 0 and max_iter >= 1")


@dataclass(frozen=True, eq=False)
class MinimaxSolution:
    """Result of a Lawson solve.

    ``precision_limited`` marks a solve whose values on the curve are too
    large for double precision to pin the low-order coefficients (see
    ``solve_chebyshev``); its polynomial was refined in double-double.
    Such a solve has ``converged=False`` also when its values are too large
    for double-double: then its polynomial near K, where the zeros lie, is
    rounding noise whatever the Lawson certificate says.
    """

    polynomial: ComplexPolynomial
    sup_norm: float
    weights: np.ndarray
    iterations: int
    converged: bool
    equioscillation_gap: float
    basis_center: complex
    basis_scale: float
    precision_limited: bool = False

    def to_json_dict(self, n: int | None = None, r: float | None = None) -> dict:
        return {
            "n": self.polynomial.degree if n is None else n,
            "r": r,
            "coeffs": [[float(c.real), float(c.imag)] for c in self.polynomial.coeffs],
            "sup_norm": self.sup_norm,
            "iterations": self.iterations,
            "converged": self.converged,
            "precision_limited": self.precision_limited,
        }


def _shifted_monomial_matrix(zeta: np.ndarray, n: int) -> np.ndarray:
    # columns zeta^0 .. zeta^(n-1)
    return np.vander(zeta, n, increasing=True) if n > 0 else np.zeros((len(zeta), 0))


def _rescale_coefficients(coef: np.ndarray, center: complex, scale: float, n: int) -> np.ndarray:
    """Expand  scale^n * zeta^n + sum coef[k] zeta^k,  zeta=(z-center)/scale,
    into ascending z-coefficients; the leading coefficient is forced to 1."""
    lin = np.array([-center / scale, 1.0 / scale], dtype=complex)
    out = np.array([scale ** n], dtype=complex)
    for k in range(n - 1, -1, -1):
        out = np.convolve(out, lin)
        out[0] += coef[k]
    out[-1] = 1.0
    return out


def _weighted_ls(V: np.ndarray, target: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Coefficients minimizing sum_j w_j |(V coef + target)_j|^2; raises
    RankDeficiencyError when the weighted rows cannot pin them down."""
    n = V.shape[1]
    if len(V) <= n:
        raise RankDeficiencyError(f"need more than {n} points, got {len(V)}")
    sw = np.sqrt(w)
    coef, _, rank, _ = np.linalg.lstsq(V * sw[:, None], -target * sw, rcond=None)
    if rank < n:
        raise RankDeficiencyError(
            f"weighted points have rank {rank} < {n} free coefficients"
        )
    return coef


def weighted_ls_monic(
    points: np.ndarray,
    weights: np.ndarray,
    n: int,
    center: complex,
    scale: float,
) -> ComplexPolynomial:
    """Monic degree-n minimizer of the weighted squared residual sum.

    Solves min_p sum_j w_j |p(z_j)|^2 over monic p by an orthogonal-
    factorization least-squares solve in the basis ((z-center)/scale)^k,
    then maps back to plain coefficients.  Raises RankDeficiencyError when
    the (weighted) points cannot pin down the n free coefficients.
    """
    points = np.asarray(points, dtype=complex)
    if scale <= 0:
        raise ValueError("scale must be positive")
    zeta = (points - center) / scale
    V = _shifted_monomial_matrix(zeta, n)
    coef = _weighted_ls(V, (scale ** n) * zeta ** n, np.asarray(weights, dtype=float))
    return ComplexPolynomial(_rescale_coefficients(coef, center, scale, n))


# rounding of the solution's values on the curve, in capacity units, above
# which double coefficients no longer fix the zeros to this accuracy
_ROOT_ACCURACY_BUDGET = 1e-3
# double-double resolution, relative to the monic coefficient
_DD_EPS = np.finfo(float).eps ** 2
_DD_MAX_STEPS = 4


def _refine_dd(points: dd.DD, weights: np.ndarray, n: int, center: complex) -> ComplexPolynomial:
    """Weighted least-squares monic polynomial, accurate to double-double.

    Iterative refinement of the normal equations  V^H W V y = 0  (y_n = 1)
    in the basis zeta = (z - center)/scale: the gradient is formed in
    double-double from double-double points, the correction is solved in
    double with the Gram matrix.  Rounding the residual instead (plain LS
    refinement) stalls: the residual is O(1) and its tiny component in
    the range of V is what fixes the low-order coefficients.  The scale is
    a power of two, so the change back to z-coefficients, done in
    double-double, keeps the resolved digits.
    """
    scale = 2.0 ** np.round(np.log2(np.abs(points.hi - center).max()))
    V = ((points - center) * (1.0 / scale)).powers(n)
    sw = np.sqrt(weights)
    design = V.hi[:, :n] * sw[:, None]
    gram = design.conj().T @ design
    y = dd.DD(np.append(np.linalg.solve(gram, -(design.conj().T @ (V.hi[:, n] * sw))), 1.0))
    del design  # not needed below; freed before the double-double steps
    basis_t = dd.DD(V.hi[:, :n].T, V.lo[:, :n].T)
    last = None
    for _ in range(_DD_MAX_STEPS):
        # V^H (W V y), as the conjugate of V^T conj(W V y)
        grad = dd.dot(basis_t, (dd.dot(V, y) * weights).conj()).to_complex().conj()
        step = np.linalg.solve(gram, grad)
        y = y - np.append(step, 0.0)
        # the error contracts linearly: the next correction is about
        # size * (size / last); stop once that is below the resolution
        size = float(np.abs(step).max())
        if size == 0.0 or (last and size * (size / last) <= _DD_EPS):
            break
        last = size
    # p(z) = sum_k b_k (z - center)^k with b_k = y_k scale^(n-k) (exact),
    # then the Taylor shift  coeff_j = sum_k C(k, j) (-center)^(k-j) b_k
    b = y * scale ** np.arange(n, -1, -1.0)
    j, k = np.indices((n + 1, n + 1))
    binom = np.vectorize(comb)(k, j).astype(float)
    shift = dd.DD(np.array([-center])).powers(n)[0]
    coeffs = dd.dot(shift[np.maximum(k - j, 0)] * binom, b).to_complex()
    coeffs[-1] = 1.0
    return ComplexPolynomial(coeffs)


def chebyshev_on_points(
    points, n: int, opts: SolveOptions | None = None, initial_weights=None
) -> MinimaxSolution:
    """Discrete Chebyshev solve on an explicit point set (no resampling).

    Lawson's iteration: each step solves the weighted least-squares problem
    and multiplies the weights by the residual moduli.  The iterate of
    least sup norm is kept.  ``initial_weights`` warm-starts the loop (e.g.
    with the weights of a previous solution); the default is the uniform
    distribution.
    """
    opts = opts or SolveOptions()
    points = np.asarray(points, dtype=complex)
    M = len(points)
    center = complex(points.mean())
    scale = float(np.abs(points - center).max())
    if scale == 0:
        raise RankDeficiencyError("all points coincide")
    zeta = (points - center) / scale
    V = _shifted_monomial_matrix(zeta, n)
    target = (scale ** n) * zeta ** n

    if initial_weights is None:
        w = np.full(M, 1.0 / M)
    else:
        w = np.asarray(initial_weights, dtype=float)
        if len(w) != M or np.any(w < 0) or w.sum() <= 0:
            raise ValueError("initial weights must be nonnegative over the points")
        w = w / w.sum()
    best_coef = None
    min_sup = np.inf
    gap = np.inf
    converged = False
    iterations = 0
    for it in range(1, opts.max_iter + 1):
        iterations = it
        coef = _weighted_ls(V, target, w)
        resid = np.abs(V @ coef + target)
        sup = float(resid.max())
        mean = float(w @ resid)
        gap = (sup - mean) / sup if sup > 0 else 0.0
        min_sup = min(min_sup, sup)
        # best-by-sup tracking; equal-within-tolerance ties go to the later iterate
        if sup <= min_sup * (1.0 + opts.tol_rel):
            best_coef = coef
        if gap < opts.tol_rel:
            converged = True
            break
        total = resid @ w
        if total <= 0:
            break  # all weighted residuals vanished; weights are degenerate
        w = w * resid
        w = w / w.sum()
    poly = ComplexPolynomial(_rescale_coefficients(best_coef, center, scale, n))
    return MinimaxSolution(
        polynomial=poly,
        sup_norm=float(np.abs(poly(points)).max()),
        weights=w,
        iterations=iterations,
        converged=converged,
        equioscillation_gap=float(gap),
        basis_center=center,
        basis_scale=scale,
    )


def solve_chebyshev(
    sample: CurveSample, n: int, opts: SolveOptions | None = None
) -> MinimaxSolution:
    """Monic degree-n polynomial of least maximum modulus over the sample.

    Runs the Lawson loop on the sample; with ``opts.adapt`` the curve is
    resampled at twice the density until the discrete sup norm stabilizes
    (relative change below 1e-8), so the discrete solution
    tracks the continuous curve problem.  A solution that exhausts
    ``max_iter`` is returned with ``converged=False``, never silently.

    A solve is precision-limited when rounding at eps * sup_norm, in
    capacity units (times c^n), exceeds the root-accuracy budget 1e-3:
    then the double coefficients cannot resolve the polynomial near K,
    where its zeros lie.  Such a solution keeps its Lawson weights and
    certificate, and its polynomial is replaced by the weighted
    least-squares polynomial for those weights solved to double-double
    accuracy on the sample placed exactly on the curve.  The same rule with
    the double-double resolution eps^2 in place of eps marks where that
    refinement runs out too; such a solve returns ``converged=False``.
    """
    opts = opts or SolveOptions()
    sol = chebyshev_on_points(sample.points, n, opts)
    if opts.adapt:
        M = sample.size
        for _ in range(_MAX_REFINE):
            M *= 2
            finer = sample_level_curve(sample.family, sample.r, M)
            nxt = chebyshev_on_points(finer.points, n, opts)
            stable = abs(nxt.sup_norm - sol.sup_norm) < _ADAPT_TOL * max(nxt.sup_norm, 1e-300)
            sol, sample = nxt, finer
            if stable:
                break
    growth = capacity_leading_coefficient(sample.family) ** n
    if n == 0 or np.finfo(float).eps * sol.sup_norm * growth <= _ROOT_ACCURACY_BUDGET:
        return sol
    poly = _refine_dd(sample_points_dd(sample), sol.weights, n, sol.basis_center)
    resolved = bool(_DD_EPS * sol.sup_norm * growth <= _ROOT_ACCURACY_BUDGET)
    return replace(
        sol,
        polynomial=poly,
        sup_norm=float(np.abs(poly(sample.points)).max()),
        converged=sol.converged and resolved,
        precision_limited=True,
    )


def sup_norm_on_curve(
    p: ComplexPolynomial, f: CurveFamily, r: float, M_eval: int
) -> float:
    """Max modulus of p over a fresh M_eval-point sample of the level curve.

    A lower bound on the true supremum over the curve, converging as
    M_eval grows (spectrally for these analytic curves).
    """
    if M_eval < 8 * max(p.degree, 1):
        raise ValueError("evaluation sample too small: need M_eval >= 8*degree")
    pts = sample_level_curve(f, r, M_eval).points
    return float(np.abs(p(pts)).max())
