"""Complex Chebyshev problem on a level curve, by a primal-dual interior point.

The discrete problem  min_p max_j |p(z_j)|  over monic p is a second-order
cone program, solved in the Arnoldi basis of the points.  Its dual weights
certify convergence: their weighted least-squares minimum bounds the
discrete optimum from below.  A curve exchange places the maxima of |p|
that the sample's grid steps bracket along the curve, by secant steps
with one guarded bisection fallback.  Where one exceeds
the discrete sup by more than the tolerance, Newton's method on the KKT
system of the curve problem, over an extremal set seeded from those
maxima and the dual weights, takes the solution to the curve's optimum;
where Newton is refused, re-solves add the maxima to the points until none
exceeds the discrete sup by more than the tolerance.
Solves that double precision cannot resolve near K are refined in
double-double arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate
from math import comb
from typing import Sequence

import numpy as np

from . import dd
from .curves import (
    CurveSample,
    capacity_leading_coefficient,
    curve_jets,
    points_at_angles,
    sample_level_curve,
    sample_points_dd,
)
from .series import ComplexPolynomial, horner

# sample_level_curve is unused here but stays bound: perfbench patches it by name

__all__ = [
    "RankDeficiencyError",
    "SolveOptions",
    "MinimaxSolution",
    "weighted_ls_monic",
    "chebyshev_on_points",
    "solve_chebyshev",
    "curve_sup_norm",
    "curve_sup_norms",
]


class RankDeficiencyError(ValueError):
    """The points, or the weighted least-squares system, do not determine the
    polynomial: fewer distinct points than coefficients to fix."""


@dataclass(frozen=True)
class SolveOptions:
    """Solver settings: the relative tolerance ``tol_rel`` that certifies
    convergence, of the duality gap and of the curve exchange, and the cap
    on interior-point steps per discrete solve."""

    tol_rel: float = 1e-10
    max_iter: int = 2000
    # always False; kept only because perfbench/workloads.py passes adapt=False
    adapt: bool = False

    def __post_init__(self):
        # below either bound no iterate is ever kept as the best one; an
        # infinite tolerance would certify any iterate
        if not (0 <= self.tol_rel < np.inf and self.max_iter >= 1):
            raise ValueError("need a finite tol_rel >= 0 and max_iter >= 1")
        if self.adapt:
            raise ValueError("sample doubling is gone: the curve exchange tracks the curve")


@dataclass(frozen=True, eq=False)
class MinimaxSolution:
    """Result of a Chebyshev solve.

    ``weights`` are the normalized dual weights of the final discrete solve,
    one per point used (uniform on the start's extremal set where that set
    certifies the start, see ``_interior_point``), and
    ``equioscillation_gap`` is their certificate;
    ``iterations`` counts interior-point steps.  From ``solve_chebyshev``,
    ``converged`` also means that no maximum of |p| on the curve bracketed
    by a grid step of the sample exceeds ``sup_norm`` by more than the
    tolerance.  ``exchange`` says what ended the curve exchange: "none"
    (no maximum above the tolerance, or no exchange), "newton" (Newton on
    the extremal set; ``weights`` are zero on the sample's points and the
    KKT point's lambda on the extremal points appended to them) or
    "resolve" (re-solves with the maxima added); ``newton_steps`` counts
    Newton steps, also those of a refused attempt.  ``precision_limited`` marks
    a solve whose values on the curve are too
    large for double precision to pin the low-order coefficients (see
    ``solve_chebyshev``); its polynomial was refined in double-double.
    Such a solve has ``converged=False`` also when its values are too large
    for double-double: then its polynomial near K, where the zeros lie, is
    rounding noise whatever the certificate says.
    """

    polynomial: ComplexPolynomial
    sup_norm: float
    weights: np.ndarray
    iterations: int
    converged: bool
    equioscillation_gap: float
    precision_limited: bool = False
    exchange: str = "none"
    newton_steps: int = 0

    def to_json_dict(self, n: int | None = None, r: float | None = None) -> dict:
        return {
            "n": self.polynomial.degree if n is None else n,
            "r": r,
            **self.polynomial.to_json_dict(),
            "sup_norm": self.sup_norm,
            "iterations": self.iterations,
            "converged": self.converged,
            "precision_limited": self.precision_limited,
            "diagnostics": {
                "equioscillation_gap": self.equioscillation_gap,
                "exchange": self.exchange,
                "newton_steps": self.newton_steps,
            },
        }


def _weighted_ls(V: np.ndarray, target: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Coefficients minimizing sum_j w_j |(V coef + target)_j|^2; raises
    RankDeficiencyError when the weighted rows cannot pin them down."""
    n = V.shape[1]
    sw = np.sqrt(w)
    coef, _, rank, _ = np.linalg.lstsq(V * sw[:, None], -target * sw, rcond=None)
    if rank < n:
        raise RankDeficiencyError(f"weighted points have rank {rank} < {n} free coefficients")
    return coef


def _certificate(V: np.ndarray, target: np.ndarray, w: np.ndarray):
    """``_weighted_ls`` and its residual sqrt(sum_j w_j |(V coef + target)_j|^2),
    for dual weights w summing to 1 a lower bound on the discrete optimum."""
    coef = _weighted_ls(V, target, w)
    return coef, float(np.sqrt(w @ np.abs(target + V @ coef) ** 2))


def weighted_ls_monic(
    points: np.ndarray, weights: np.ndarray, n: int, center: complex, scale: float
) -> ComplexPolynomial:
    """Monic degree-n minimizer of sum_j w_j |p(z_j)|^2, by an orthogonal-
    factorization least-squares solve in the Arnoldi basis of
    (z-center)/scale.  Raises RankDeficiencyError when the (weighted) points
    cannot pin down the n free coefficients."""
    points = np.asarray(points, dtype=complex)
    if scale <= 0:
        raise ValueError("scale must be positive")
    Q, H = _arnoldi((points - center) / scale, n)
    a = _weighted_ls(Q[:, :n], Q[:, n], np.asarray(weights, dtype=float))
    return _monic_polynomial(H, a, center, scale)


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


# -- interior-point solve ------------------------------------------------------
# min t s.t. |p(z_j)| <= t has one cone x0 >= |xv| per point, held as a pair
# (x0, xv) of (M,) arrays, x0 real and xv = x1 + i x2 complex; the Jordan
# algebra, J x = (x0, -xv) and the Nesterov-Todd scaling act on the pairs.

_GAP_FLOOR = 16 * np.finfo(float).eps  # s.z / t past double precision
_STEP = 0.99  # Mehrotra's fraction of the step to the boundary
# the certificate is about half the gap s.z / t; it is evaluated at the
# start, at the final iterate, and from this many tolerances of that gap on
_CERTIFY_FROM = 10.0


def _arnoldi(zeta: np.ndarray, n: int):
    """Vandermonde with Arnoldi: Q (M, n+1) with Q[:, k] = q_k(zeta), q_k of
    degree k, Q^H Q = M I, and H with zeta Q[:, :n] = Q H.  A breakdown (the
    points take fewer than n+1 distinct values) raises RankDeficiencyError."""
    M = len(zeta)
    Q = np.ones((M, n + 1), dtype=complex)
    H = np.zeros((n + 1, n), dtype=complex)
    for k in range(n):
        q = zeta * Q[:, k]
        for _ in range(2):  # Gram-Schmidt twice keeps Q orthogonal to rounding
            h = Q[:, : k + 1].conj().T @ q / M
            q -= Q[:, : k + 1] @ h
            H[: k + 1, k] += h
        H[k + 1, k] = np.linalg.norm(q) / np.sqrt(M)
        if not H[k + 1, k].real > 1e-12 * np.abs(zeta).max():
            raise RankDeficiencyError(f"the points take fewer than {n + 1} distinct values")
        Q[:, k + 1] = q / H[k + 1, k]
    return Q, H


def _monic_polynomial(H: np.ndarray, a: np.ndarray, center: complex, scale: float) -> ComplexPolynomial:
    """The monic multiple of q_n + sum_k a_k q_k, expanded in z = center + scale * zeta."""
    n = len(a)
    C = np.zeros((n + 1, n + 1), dtype=complex)  # zeta-coefficients of the q_k
    C[0, 0] = 1.0
    for k in range(n):
        C[k + 1, 1:] = C[k, :-1]
        C[k + 1] = (C[k + 1] - H[: k + 1, k] @ C[: k + 1]) / H[k + 1, k]
    coeffs = C[n] + a @ C[:n]
    coeffs = scale ** n * coeffs / coeffs[n]
    lin = np.array([-center / scale, 1.0 / scale], dtype=complex)
    out = coeffs[n:]
    for k in range(n - 1, -1, -1):  # Horner in zeta = lin(z)
        out = np.convolve(out, lin)
        out[0] += coeffs[k]
    out[-1] = 1.0
    return ComplexPolynomial(out)


def _hyperbolic_norm(x) -> np.ndarray:
    """sqrt(x0^2 - |xv|^2) per cone, factored to keep digits near the
    boundary; an iterate on the boundary (W singular) raises LinAlgError."""
    r = np.abs(x[1])
    square = (x[0] - r) * (x[0] + r)
    if not square.min() > 0:  # false also for NaN
        raise np.linalg.LinAlgError("an iterate reached the cone boundary in rounding")
    return np.sqrt(square)


def _max_step(xb, xn: np.ndarray, d) -> float:
    """Largest alpha with x + alpha d in every cone, for x = xn xb interior
    and xb of unit hyperbolic norm, after the rotation taking xb to (1, 0)."""
    rho0 = xb[0] * d[0] - (xb[1].conj() * d[1]).real
    rho = d[1] - (d[0] + rho0) / (xb[0] + 1.0) * xb[1]
    worst = float(((np.abs(rho) - rho0) / xn).max())
    return np.inf if worst <= 0 else 1.0 / worst


def _nt_scaling(s, z):
    """Nesterov-Todd scaling of interior s and z: W = beta (2 v v^T - J) and
    W^-1 = (2 u u^T - J) / beta, with u = J v and v^T J v = 1, take z and s
    to lam = W z = W^-1 s.  Returns (u0, uv, beta, lam)."""
    sn, zn = _hyperbolic_norm(s), _hyperbolic_norm(z)
    sb, zb = (s[0] / sn, s[1] / sn), (z[0] / zn, z[1] / zn)
    gamma = np.sqrt((1.0 + sb[0] * zb[0] + (sb[1].conj() * zb[1]).real) / 2.0)
    # v = (wb + (1, 0)) / sqrt(2 (wb0 + 1)) for wb = (sb + J zb) / (2 gamma)
    u0 = np.sqrt((sb[0] + zb[0]) / (4.0 * gamma) + 0.5)
    lam_v = ((gamma + zb[0]) * sb[1] + (gamma + sb[0]) * zb[1]) / (2.0 * gamma + sb[0] + zb[0])
    uv = (zb[1] - sb[1]) / (4.0 * gamma * u0)
    return u0, uv, np.sqrt(sn / zn), (np.sqrt(sn * zn) * gamma, np.sqrt(sn * zn) * lam_v)


def _w_inv(u0, uv, beta, y):
    """W^-1 y = (2 u (u . y) - J y) / beta per cone; W y for (u0, -uv, 1 / beta)."""
    uy = 2.0 * (u0 * y[0] + (uv.conj() * y[1]).real)
    return (uy * u0 - y[0]) / beta, (uy * uv + y[1]) / beta


def _interior_point(B: np.ndarray, b: np.ndarray, opts: SolveOptions):
    """Primal-dual interior point for  min t  s.t.  |r_j| <= t,  r = b + B a,
    in the real unknowns (t, Re a, Im a); cone j holds (t, r_j) and the dual
    z_j.  Feasible start: a = 0, t = 1.1 max|b|, z_j = (1/M, 0).  Certificate:
    for the dual weights w = z_0 / sum z_0, min_a sum_j w_j |r_j|^2 bounds
    the discrete optimum from below.  Returns (a, w, steps, converged, gap)
    for the better, by sup norm, of the primal iterate and the weighted-LS
    solution.

    Before the first step the start's extremal set S, the j with |b_j| >=
    (1 - tol_rel) max|b|, is weighed: where 2n <= |S| < M (the start
    equioscillates, as T_n does on ellipses and preimages whose extremal
    points lie on the grid), weights uniform on S are certified,
    and a gap <= tol_rel returns them after one step.  Any weights summing
    to 1 give a lower bound, so a refused S (or one whose points cannot pin
    the coefficients) leaves the steps below unchanged.  Where S holds
    every point, the first step's uniform weights are the same test."""
    M, n = B.shape
    B_h = B.conj().T
    newton = np.empty((2 * n + 1, 2 * n + 1))
    a = np.zeros(n, dtype=complex)
    t = 1.1 * float(np.abs(b).max())
    s, z = (np.full(M, t), b), (np.full(M, 1.0 / M), np.zeros(M, dtype=complex))
    best, best_sup = a, np.inf

    def certify():
        nonlocal best, best_sup
        ls, bound = _certificate(B, b, w)
        for coef in (a, ls):
            sup = float(np.abs(b + B @ coef).max())
            if sup < best_sup:
                best, best_sup = coef, sup
        return 1.0 - bound / best_sup

    top = np.abs(b)
    extremal = top >= (1.0 - opts.tol_rel) * top.max()
    if 2 * n <= extremal.sum() < M:
        w = extremal / extremal.sum()
        try:
            gap = certify()
        except RankDeficiencyError:
            gap = np.inf
        if gap <= opts.tol_rel:
            return best, w, 1, True, gap
        best, best_sup = a, np.inf  # a refused set leaves no trace in the steps
    for it in range(1, opts.max_iter + 1):
        w = z[0] / z[0].sum()
        gap_ip = (s[0] @ z[0] + np.vdot(s[1], z[1]).real) / t
        last = it == opts.max_iter or gap_ip <= _GAP_FLOOR
        if it == 1 or last or gap_ip <= _CERTIFY_FROM * opts.tol_rel:
            gap = certify()
            if gap <= opts.tol_rel or last:
                break
        try:
            t, a, s, z = _newton_step(B, B_h, b, t, a, s, z, newton)
        except np.linalg.LinAlgError:
            gap = certify()
            break
    return best, w, it, gap <= opts.tol_rel, gap


def _newton_step(B, B_h, b, t, a, s, z, newton):
    """One Mehrotra predictor-corrector step: Nesterov-Todd scaling W with
    W z = W^-1 s = lam, one Cholesky of G^T W^-2 G (s = h - G x), formed in
    ``newton``, and the directions formed in the scaled space."""
    M, n = B.shape
    u0, uv, beta, lam = _nt_scaling(s, z)
    # with y = B da, cone j adds K00 dt^2 + 2 dt Re((K01 - i K02) y)
    # + (K11 + K22) |y|^2 / 2 + Re((K11 - K22 - 2i K12) y^2) / 2 to the
    # quadratic form, K = W_j^-2 = (4q u u^T - 2 u v^T - 2 v u^T + I) / beta^2,
    # q = |u|^2: two weighted Grams of B
    uv2, uc, b2 = np.abs(uv) ** 2, uv.conj() / beta, beta * beta
    q4 = 4.0 * (u0 * u0 + uv2)
    herm = (B_h * (((q4 + 4.0) * uv2 + 2.0) / b2)) @ B
    sym = B.T @ (((q4 + 4.0) * uc * uc)[:, None] * B)
    plus, minus, g = (herm + sym) / 2, (herm - sym) / 2, B.T @ (q4 * u0 * uc / beta)
    k00 = ((u0 * u0 * (q4 - 4.0) + 1.0) / b2).sum()
    newton[0] = newton[:, 0] = np.concatenate([[k00], g.real, -g.imag])
    newton[1 : n + 1, 1 : n + 1], newton[1 : n + 1, n + 1 :] = plus.real, -plus.imag
    newton[n + 1 :, 1 : n + 1], newton[n + 1 :, n + 1 :] = minus.imag, minus.real
    d = 1.0 / np.sqrt(np.diag(newton))
    newton *= np.outer(d, d)
    L_inv = np.linalg.inv(np.linalg.cholesky(newton))

    def G_T(y):
        e = B_h @ y[1]
        return -np.concatenate([[y[0].sum()], e.real, e.imag])

    w_rp = _w_inv(u0, uv, beta, (s[0] - t, s[1] - (b + B @ a)))  # W^-1 (G x + s - h)
    r_d = G_T(z) + np.eye(2 * n + 1)[0]  # G^T z + c
    lam_n = _hyperbolic_norm(lam)
    lam_b = lam[0] / lam_n, lam[1] / lam_n

    def directions(rhs):  # lam o (ds + dz) = rhs, G^T dz = -r_d, G dx + ds = -r_p
        c0 = (lam[0] * rhs[0] - (lam[1].conj() * rhs[1]).real) / lam_n ** 2  # lam J lam
        c = c0, (rhs[1] - c0 * lam[1]) / lam[0]  # lam o c = rhs
        y = _w_inv(u0, uv, beta, (w_rp[0] + c[0], w_rp[1] + c[1]))
        dx = d * (L_inv.T @ (L_inv @ (d * (-r_d - G_T(y)))))
        gx = _w_inv(u0, uv, beta, (-dx[0], -(B @ (dx[1 : n + 1] + 1j * dx[n + 1 :]))))
        ds = -gx[0] - w_rp[0], -gx[1] - w_rp[1]  # -W^-1 (G dx + r_p)
        return dx, ds, (c[0] - ds[0], c[1] - ds[1])

    lam_sq = lam[0] ** 2 + np.abs(lam[1]) ** 2, 2.0 * lam[0] * lam[1]  # lam o lam
    mu = lam_sq[0].sum() / M
    dx, ds, dz = directions((-lam_sq[0], -lam_sq[1]))  # affine predictor
    alpha = min(1.0, _max_step(lam_b, lam_n, ds), _max_step(lam_b, lam_n, dz))
    ds_dz = ds[0] * dz[0] + (ds[1].conj() * dz[1]).real, ds[0] * dz[1] + dz[0] * ds[1]  # ds o dz
    sigma = min(1.0, max(0.0, 1.0 - alpha + alpha ** 2 * ds_dz[0].sum() / (M * mu))) ** 3
    dx, ds, dz = directions((sigma * mu - lam_sq[0] - ds_dz[0], -lam_sq[1] - ds_dz[1]))
    alpha = min(1.0, _STEP * min(_max_step(lam_b, lam_n, ds), _max_step(lam_b, lam_n, dz)))
    s_new, z_new = [(lam[0] + alpha * e[0], lam[1] + alpha * e[1]) for e in (ds, dz)]
    a = a + alpha * (dx[1 : n + 1] + 1j * dx[n + 1 :])
    return t + alpha * dx[0], a, _w_inv(u0, -uv, 1.0 / beta, s_new), _w_inv(u0, uv, beta, z_new)


def chebyshev_on_points(points, n: int, opts: SolveOptions | None = None) -> MinimaxSolution:
    """Discrete Chebyshev solve on an explicit point set (no resampling).

    The interior point runs in the Arnoldi basis of the points, centered and
    scaled into the unit disk; monomial coefficients are formed from its
    result.  ``weights`` are the final dual weights, ``equioscillation_gap``
    their certificate.  Raises RankDeficiencyError when the points take
    fewer than n+1 distinct values.
    """
    return _solve_on_points(np.asarray(points, dtype=complex), n, opts or SolveOptions())[0]


def _solve_on_points(points: np.ndarray, n: int, opts: SolveOptions):
    """``chebyshev_on_points`` and its basis (Q, H, a, center, scale): the
    Arnoldi basis of the points and the interior point's coefficients in it."""
    center = complex(points.mean())
    scale = float(np.abs(points - center).max())
    if scale == 0:
        raise RankDeficiencyError("all points coincide")
    Q, H = _arnoldi((points - center) / scale, n)
    a, weights, steps, converged, gap = _interior_point(Q[:, :n], Q[:, n], opts)
    poly = _monic_polynomial(H, a, center, scale)
    sol = MinimaxSolution(
        polynomial=poly,
        sup_norm=float(np.abs(poly(points)).max()),
        weights=weights,
        iterations=steps,
        converged=converged,
        equioscillation_gap=float(gap),
    )
    return sol, (Q, H, a, center, scale)


# curve exchange, where Newton on the extremal set is refused: re-solves with
# the maxima of |p| along L_r added, at most this many times (a safety cap;
# the tolerance ends it); each maximum is placed by secant steps on
# d|p|^2/dtheta, guarded by bisection
_EXCHANGE_ROUNDS = 16
_SECANT_STEPS = 8
# secant steps this close to an end of their grid step, in grid steps, bisect
_GUARD = np.sqrt(np.finfo(float).eps)


def _curve_maxima(pairs: Sequence[tuple[ComplexPolynomial, CurveSample]]) -> list[np.ndarray]:
    """Points of the maxima of |p| along the curve that the sample's grid
    steps bracket, for each (p, sample) pair of a batch on one family.

    The slope of |p|^2 is taken at both ends of every grid step, pair by
    pair, at the points ``sample.grid_steps`` holds for every scan of the
    sample.  A step where it turns from > 0 to <= 0, or from exactly 0 to
    < 0, brackets one maximum, which secant steps on the slope place
    (values of |p| are flat to eps over sqrt(eps) of angle): within 1e-10
    (relative) of 2^16-point maxima on 512-point samples, but 3.7e-6 rad off
    and 3.8e-11 low on an 8-point circle.  One loop of secant steps serves
    the brackets of every pair, each with its own level, grid step and
    polynomial (coefficient rows for ``horner``), so a batch costs one
    loop's fixed costs, and each pair's maxima are the bits a batch of one
    gives.  A secant step is kept only strictly inside the current bracket
    and at least _GUARD grid steps from the ends of its grid step: at a
    stationary end (a minimum of |p| on a symmetry angle) the slope is
    zero or rounding-sized, and the secant stays on or lands ulps inside
    that end.  Any other step bisects the bracket, also one whose secant
    has converged onto an end of the bracket, so each step returns the
    highest point it evaluated: one of its ends or of its iterates.  Not
    seen: a maximum and a minimum of |p| in one step.  Raises ValueError
    for samples of more than one family.
    """
    if not pairs:
        return []
    family = pairs[0][1].family
    if any(sample.family != family for _, sample in pairs):
        raise ValueError("a curve scan takes samples of one family")
    derivatives = [p.derivative() for p, _ in pairs]
    a, fa, b, fb, near, z_end, counts = [], [], [], [], [], [], []
    for (p, sample), dp in zip(pairs, derivatives):
        z, dz = sample.grid_steps
        g = (np.conj(p(z)) * dp(z) * dz).real
        M = sample.size
        g_a, g_b = g[:M], g[M:]
        turn = np.flatnonzero(((g_a > 0) & (g_b <= 0)) | ((g_a == 0) & (g_b < 0)))
        a.append(sample.thetas[turn])
        fa.append(g_a[turn])
        b.append(sample.thetas[turn] + 2.0 * np.pi / sample.grid_size)
        fb.append(g_b[turn])
        near.append(sample.points[turn])
        z_end.append(z[M:][turn])
        counts.append(len(turn))
    a, fa, b, fb, near, z_end = map(np.concatenate, (a, fa, b, fb, near, z_end))
    lo, hi = a + _GUARD * (b - a), b - _GUARD * (b - a)
    r = np.repeat([sample.r for _, sample in pairs], counts)
    rows = _coefficient_rows([p for p, _ in pairs], counts)
    drows = _coefficient_rows(derivatives, counts)

    ends = np.stack([near, z_end])
    top = np.abs(horner(rows, ends))
    pick = top.argmax(axis=0), np.arange(len(a))
    best, best_val = ends[pick], top[pick]
    prev, g_prev, cur, g = a, fa, b, fb
    for _ in range(_SECANT_STEPS):
        dg = g - g_prev
        nxt = np.where(dg != 0, cur - g * (cur - prev) / np.where(dg != 0, dg, 1.0), cur)
        prev, g_prev = cur, g
        inside = (np.maximum(a, lo) < nxt) & (nxt < np.minimum(b, hi))
        cur = np.where(inside, nxt, 0.5 * (a + b))
        z, dz = points_at_angles(family, r, cur, near)
        pz = horner(rows, z)
        g = (np.conj(pz) * horner(drows, z) * dz).real
        value = np.abs(pz)
        higher = value >= best_val
        best, best_val = np.where(higher, z, best), np.where(higher, value, best_val)
        rise = g > 0
        a, b = np.where(rise, cur, a), np.where(rise, b, cur)
    return [best[end - k : end] for end, k in zip(accumulate(counts), counts)]


def _coefficient_rows(polys: Sequence[ComplexPolynomial], counts: Sequence[int]) -> np.ndarray:
    """Ascending coefficients of each polynomial, repeated in ``counts`` of
    its columns, as rows of shape (max degree + 1, sum of counts); lower
    degrees padded with zeros."""
    rows = np.zeros((max(q.degree for q in polys) + 1, sum(counts)), dtype=complex)
    for q, end, k in zip(polys, accumulate(counts), counts):
        rows[: len(q.coeffs), end - k : end] = q.coeffs[:, None]
    return rows


def curve_sup_norms(pairs: Sequence[tuple[ComplexPolynomial, CurveSample]]) -> list[float]:
    """``curve_sup_norm`` of each (p, sample) pair of a batch on one family,
    from one curve scan of the whole batch."""
    maxima = _curve_maxima(pairs)
    return [float(np.abs(p(np.concatenate([sample.points, mx]))).max())
            for (p, sample), mx in zip(pairs, maxima)]


def curve_sup_norm(p: ComplexPolynomial, sample: CurveSample) -> float:
    """Sup of |p| over the sample's curve: the largest of its values at the
    sample points and at the maxima that ``_curve_maxima`` places.  A batch
    of pairs on one family is measured in one scan by ``curve_sup_norms``."""
    return curve_sup_norms([(p, sample)])[0]


# Newton on the extremal set: at most this many steps, ended by the second
# of two steps in a row of at most _NEWTON_TOL in every unknown (converging
# quadratically, the second lands at rounding); a cluster of dual weights
# below _ACTIVE of the largest names no extremal point
_NEWTON_STEPS = 8
_NEWTON_TOL = 1e-7
_ACTIVE = 1e-3


def _arnoldi_jets(H: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """The Arnoldi basis q_k of H and its first two derivatives at zeta,
    stacked (3, len(zeta), n+1), from zeta q_k = sum_i H[i, k] q_i."""
    n = H.shape[1]
    Q = np.zeros((3, len(zeta), n + 1), dtype=complex)
    Q[0, :, 0] = 1.0
    for k in range(n):
        Q[:, :, k + 1] = zeta * Q[:, :, k] - Q[:, :, : k + 1] @ H[: k + 1, k]
        Q[1, :, k + 1] += Q[0, :, k]
        Q[2, :, k + 1] += 2.0 * Q[1, :, k]
        Q[:, :, k + 1] /= H[k + 1, k]
    return Q


def _kkt_system(c: np.ndarray, s: float, lam: np.ndarray, Q: np.ndarray, dzeta, d2zeta):
    """Residual and Jacobian of the KKT system of ``_newton_exchange`` in the
    real unknowns (Re a, Im a, s, lambda, theta), c = (a, 1), for the basis
    jets Q at the extremal points and the derivatives of zeta(theta) there."""
    K, n = len(lam), len(c) - 1
    g, p1, p2 = Q @ c
    g1, g2 = p1 * dzeta, p2 * dzeta * dzeta + p1 * d2zeta
    q, q1 = Q[0, :, :n], Q[1, :, :n] * dzeta[:, None]
    fa = q.conj().T @ (lam * g)
    ft = (g.conj() * g1).real
    res = np.concatenate([fa.real, fa.imag, [lam.sum() - 1.0], np.abs(g) ** 2 - s, ft])
    # rows: the n complex orthogonality conditions, the sum of lambda, |g|^2 = s
    # and the slopes; a complex-linear derivative A da takes (da real, da
    # imaginary) to the real rows (Re A, -Im A), imaginary rows (Im A, Re A)
    A = q.conj().T @ (lam[:, None] * q)
    d_theta = (q1.conj().T * g + q.conj().T * g1) * lam
    u = g.conj()[:, None] * q  # d|g|^2 = 2 Re(u da)
    v1, v2 = q.conj() * g1[:, None], g.conj()[:, None] * q1  # d ft = Re(v1 conj(da) + v2 da)
    zero, eye = np.zeros((K, K)), np.eye(K)
    jac = np.block([
        [A.real, -A.imag, np.zeros((n, 1)), (q.conj().T * g).real, d_theta.real],
        [A.imag, A.real, np.zeros((n, 1)), (q.conj().T * g).imag, d_theta.imag],
        [np.zeros((1, 2 * n + 1)), np.ones((1, K)), np.zeros((1, K))],
        [2.0 * u.real, -2.0 * u.imag, -np.ones((K, 1)), zero, 2.0 * ft * eye],
        [(v1 + v2).real, (v1 - v2).imag, np.zeros((K, 1)), zero,
         (np.abs(g1) ** 2 + (g.conj() * g2).real) * eye],
    ])
    return res, jac


def _newton_exchange(sample: CurveSample, n: int, opts: SolveOptions, sol: MinimaxSolution,
                     basis, maxima: np.ndarray):
    """Newton's method on the KKT system of the curve problem, started from
    the discrete solution ``sol`` on the sample, its Arnoldi ``basis`` and
    the ``maxima`` of |p| that its scan placed.  Returns (the solution or
    None, Newton steps).

    Each sample point's dual weight goes to its nearest maximum; the maxima
    holding at least _ACTIVE of the largest cluster are the extremal set,
    with lambda_j their cluster weights, theta_j their angles (a tangent
    step from the nearest sample point) and t the highest of them.  In the
    Arnoldi basis of the sample, p = q_n + sum_k a_k q_k and g_j(theta) =
    p(z(theta)), the square system in (a, s = t^2, lambda, theta) is
        sum_j lambda_j conj(q_k(z_j)) g_j = 0   (k < n),
        sum_j lambda_j = 1,
        |g_j|^2 = s,   Re(conj(g_j) g_j') = 0,
    solved with its analytic Jacobian.  Refused (None): fewer than n + 1
    or more than 2n + 1 extremal points, a singular Jacobian, a step of an
    angle by more than the grid step, no convergence in _NEWTON_STEPS, a
    lambda_j <= 0, a certificate above ``tol_rel``, or a value of |p| at
    the sample's points or at the maxima of its curve scan above
    t (1 + tol_rel), t the largest |p| on the extremal points.  What passes
    is optimal on the curve: lambda's least-squares minimum bounds every
    monic p's sup on the extremal points from below.
    """
    Q_sample, H, a, center, scale = basis
    cluster = np.bincount(np.abs(sample.points[:, None] - maxima).argmin(axis=1),
                          weights=sol.weights, minlength=len(maxima))
    keep = cluster >= _ACTIVE * cluster.max()
    if not n + 1 <= keep.sum() <= 2 * n + 1:
        return None, 0
    z, lam = maxima[keep], cluster[keep] / cluster[keep].sum()
    K = len(lam)
    near = np.abs(z[:, None] - sample.points).argmin(axis=1)
    tangent = sample.grid_steps[1][near]
    theta = sample.thetas[near] + ((z - sample.points[near]) * tangent.conj()).real / np.abs(tangent) ** 2
    c = np.append(a, 1.0)
    s = float(np.abs(_arnoldi_jets(H, (z - center) / scale)[0] @ c).max()) ** 2
    h = 2.0 * np.pi / sample.grid_size
    converged = small = False
    steps = 0
    while not converged and steps < _NEWTON_STEPS:
        steps += 1
        z, dz, d2z = curve_jets(sample.family, sample.r, theta, z)
        Q = _arnoldi_jets(H, (z - center) / scale)
        res, jac = _kkt_system(c, s, lam, Q, dz / scale, d2z / scale)
        try:
            dx = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            return None, steps
        if not np.abs(dx[-K:]).max() <= h:
            return None, steps
        c[:n] += dx[:n] + 1j * dx[n : 2 * n]
        s += dx[2 * n]
        lam = lam + dx[2 * n + 1 : -K]
        theta = theta + dx[-K:]
        step = float(np.abs(dx).max())
        converged, small = small and step <= _NEWTON_TOL, step <= _NEWTON_TOL
    if not (converged and lam.min() > 0):
        return None, steps
    z = curve_jets(sample.family, sample.r, theta, z)[0]
    Q = _arnoldi_jets(H, (z - center) / scale)[0]
    lam = lam / lam.sum()
    try:
        bound = _certificate(Q[:, :n], Q[:, n], lam)[1]
    except RankDeficiencyError:
        return None, steps
    gap = 1.0 - bound / float(np.abs(np.concatenate([Q_sample @ c, Q @ c])).max())
    if not gap <= opts.tol_rel:
        return None, steps
    poly = _monic_polynomial(H, c[:n], center, scale)
    t = float(np.abs(poly(z)).max())
    on_curve = np.abs(poly(np.concatenate([sample.points, _curve_maxima([(poly, sample)])[0]])))
    if (on_curve > t * (1.0 + opts.tol_rel)).any():
        return None, steps
    return MinimaxSolution(
        polynomial=poly,
        sup_norm=max(t, float(on_curve[: sample.size].max())),
        weights=np.concatenate([np.zeros(sample.size), lam]),
        iterations=sol.iterations,
        converged=True,
        equioscillation_gap=gap,
        exchange="newton",
        newton_steps=steps,
    ), steps


def solve_chebyshev(
    sample: CurveSample, n: int, opts: SolveOptions | None = None
) -> MinimaxSolution:
    """Monic degree-n polynomial of least maximum modulus over the curve.

    Solves the discrete problem on the sample, then runs a curve exchange:
    it places the maxima of |p| along L_r that the sample's grid steps
    bracket.  Where none exceeds the discrete sup by more than ``tol_rel``
    the discrete solution is returned unchanged.  Otherwise Newton's method
    on the extremal set (``_newton_exchange``) solves the curve problem's
    KKT system, and its point is returned where every lambda_j > 0, its
    certificate reaches ``tol_rel`` and the sample's scan finds no maximum
    above its sup by more than ``tol_rel``.  Where Newton is refused, the
    exchange adds all the maxima to the points used and re-solves, while
    any maximum exceeds the discrete sup by more than ``tol_rel``.
    ``converged`` means an accepted Newton point, or the discrete
    certificate on all points used with no maximum bracketed by a grid
    step above ``sup_norm`` by more than ``tol_rel``; a solve still above
    it after _EXCHANGE_ROUNDS re-solves returns ``converged=False``.
    ``iterations`` counts every interior-point step of the call,
    ``newton_steps`` the Newton steps, and ``exchange`` names the path
    that ended the exchange.

    A solve is precision-limited when rounding at eps * sup_norm, in
    capacity units (times c^n), exceeds the root-accuracy budget 1e-3:
    then the double coefficients cannot resolve the polynomial near K,
    where its zeros lie.  Such a solution skips the exchange, keeps its dual
    weights and certificate, and its polynomial is replaced by the weighted
    least-squares polynomial for those weights solved to double-double
    accuracy on the sample placed exactly on the curve.  The same rule with
    the double-double resolution eps^2 in place of eps marks where that
    refinement runs out too; such a solve returns ``converged=False``.
    """
    opts = opts or SolveOptions()
    sol, basis = _solve_on_points(sample.points, n, opts)
    growth = capacity_leading_coefficient(sample.family) ** n
    if n == 0 or np.finfo(float).eps * sol.sup_norm * growth <= _ROOT_ACCURACY_BUDGET:
        steps, points, newton_steps = sol.iterations, sample.points, 0
        for rounds in range(_EXCHANGE_ROUNDS + 1):
            if not sol.converged:
                break
            maxima = _curve_maxima([(sol.polynomial, sample)])[0]
            if not (np.abs(sol.polynomial(maxima)) > sol.sup_norm * (1.0 + opts.tol_rel)).any():
                break
            if rounds == 0:
                newton, newton_steps = _newton_exchange(sample, n, opts, sol, basis, maxima)
                if newton is not None:
                    return newton
            if rounds == _EXCHANGE_ROUNDS:
                sol = replace(sol, converged=False)
                break
            points = np.concatenate([points, maxima])
            sol = chebyshev_on_points(points, n, opts)
            steps += sol.iterations
        return replace(sol, iterations=steps, exchange="resolve" if rounds else "none",
                       newton_steps=newton_steps)
    poly = _refine_dd(sample_points_dd(sample), sol.weights, n, complex(sample.points.mean()))
    resolved = bool(_DD_EPS * sol.sup_norm * growth <= _ROOT_ACCURACY_BUDGET)
    return replace(
        sol,
        polynomial=poly,
        sup_norm=float(np.abs(poly(sample.points)).max()),
        converged=sol.converged and resolved,
        precision_limited=True,
    )
