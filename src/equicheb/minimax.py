"""Complex Chebyshev problem on a level curve, by a primal-dual interior point.

The discrete problem  min_p max_j |p(z_j)|  over monic p is a second-order
cone program, solved in the Arnoldi basis of the points.  Its dual weights
certify convergence: their weighted least-squares minimum bounds the
discrete optimum from below.  A curve exchange adds the maxima of |p|
between the sample points until none exceeds the discrete sup by more than
the tolerance, so that the solution tracks the curve, not only the sample.
Solves that double precision cannot resolve near K are refined in
double-double arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import comb

import numpy as np

from . import dd
from .curves import (
    CurveSample,
    capacity_leading_coefficient,
    points_at_angles,
    sample_level_curve,
    sample_points_dd,
)
from .series import ComplexPolynomial

# sample_level_curve is unused here but stays bound: perfbench patches it by name

__all__ = [
    "RankDeficiencyError",
    "SolveOptions",
    "MinimaxSolution",
    "weighted_ls_monic",
    "chebyshev_on_points",
    "solve_chebyshev",
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
    one per point used, and ``equioscillation_gap`` is their certificate;
    ``iterations`` counts interior-point steps.  From ``solve_chebyshev``,
    ``converged`` also means that no maximum of |p| on the curve exceeds
    ``sup_norm`` by more than the tolerance.  ``precision_limited`` marks
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
    basis_center: complex
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


def _weighted_ls(V: np.ndarray, target: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Coefficients minimizing sum_j w_j |(V coef + target)_j|^2; raises
    RankDeficiencyError when the weighted rows cannot pin them down."""
    n = V.shape[1]
    sw = np.sqrt(w)
    coef, _, rank, _ = np.linalg.lstsq(V * sw[:, None], -target * sw, rcond=None)
    if rank < n:
        raise RankDeficiencyError(f"weighted points have rank {rank} < {n} free coefficients")
    return coef


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


# -- interior-point solve ------------------------------------------------------
# min t s.t. |p(z_j)| <= t has one three-dimensional cone per point, a column
# (x0, x1, x2), x0 >= |(x1, x2)|, of a (3, M) array; the cone's Jordan
# algebra and the Nesterov-Todd scaling act column by column.

_J = np.array([1.0, -1.0, -1.0])[:, None]
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


def _hyperbolic_norm(x: np.ndarray) -> np.ndarray:
    """sqrt(x0^2 - x1^2 - x2^2) per cone, factored to keep digits near the
    boundary; an iterate on the boundary (W singular) raises LinAlgError."""
    r = np.hypot(x[1], x[2])
    square = (x[0] - r) * (x[0] + r)
    if not np.all(square > 0):
        raise np.linalg.LinAlgError("an iterate reached the cone boundary in rounding")
    return np.sqrt(square)


def _jordan(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Jordan product x o y = (x . y, x0 y_1 + y0 x_1) per cone."""
    return np.concatenate([(x * y).sum(0, keepdims=True), x[0] * y[1:] + y[0] * x[1:]])


def _max_step(x: np.ndarray, d: np.ndarray) -> float:
    """Largest alpha with x + alpha d in every cone, x interior, read off
    after the hyperbolic rotation that takes x to a multiple of (1, 0, 0)."""
    xn = _hyperbolic_norm(x)
    xb = x / xn
    rho0 = xb[0] * d[0] - xb[1] * d[1] - xb[2] * d[2]
    rho = d[1:] - (d[0] + rho0) / (xb[0] + 1.0) * xb[1:]
    worst = float(((np.hypot(rho[0], rho[1]) - rho0) / xn).max())
    return np.inf if worst <= 0 else 1.0 / worst


def _interior_point(B: np.ndarray, b: np.ndarray, opts: SolveOptions):
    """Primal-dual interior point for  min t  s.t.  |r_j| <= t,  r = b + B a,
    in the real unknowns (t, Re a, Im a); cone j holds (t, Re r_j, Im r_j)
    and the dual z_j.  Feasible start: a = 0, t = 1.1 max|b|,
    z_j = (1/M, 0, 0).  Certificate: for the dual weights w = z_0 / sum z_0,
    min_a sum_j w_j |r_j|^2 bounds the discrete optimum from below.  Returns
    (a, w, steps, converged, gap) for the better, by sup norm, of the primal
    iterate and the weighted-LS solution."""
    M, n = B.shape
    B_h = B.conj().T
    a = np.zeros(n, dtype=complex)
    t = 1.1 * float(np.abs(b).max())
    s = np.stack([np.full(M, t), b.real, b.imag])
    z = np.zeros((3, M))
    z[0] = 1.0 / M
    best, best_sup = a, np.inf

    def certify():
        nonlocal best, best_sup
        ls = _weighted_ls(B, b, w)
        bound = float(np.sqrt(w @ np.abs(b + B @ ls) ** 2))
        for coef in (a, ls):
            sup = float(np.abs(b + B @ coef).max())
            if sup < best_sup:
                best, best_sup = coef, sup
        return 1.0 - bound / best_sup

    for it in range(1, opts.max_iter + 1):
        w = z[0] / z[0].sum()
        gap_ip = (s * z).sum() / t
        last = it == opts.max_iter or gap_ip <= _GAP_FLOOR
        if it == 1 or last or gap_ip <= _CERTIFY_FROM * opts.tol_rel:
            gap = certify()
            if gap <= opts.tol_rel or last:
                break
        try:
            t, a, s, z = _newton_step(B, B_h, b, t, a, s, z)
        except np.linalg.LinAlgError:
            gap = certify()
            break
    return best, w, it, gap <= opts.tol_rel, gap


def _newton_step(B, B_h, b, t, a, s, z):
    """One Mehrotra predictor-corrector step: Nesterov-Todd scaling W with
    W z = W^-1 s = lam, one Cholesky of G^T W^-2 G (s = h - G x), and the
    directions formed in the scaled space."""
    M, n = B.shape
    sn, zn = _hyperbolic_norm(s), _hyperbolic_norm(z)
    sb, zb = s / sn, z / zn
    gamma = np.sqrt((1.0 + (sb * zb).sum(0)) / 2.0)
    wb = (sb + _J * zb) / (2.0 * gamma)
    v = (wb + [[1.0], [0.0], [0.0]]) / np.sqrt(2.0 * (wb[0] + 1.0))
    beta = np.sqrt(sn / zn)  # W = beta (2 v v^T - J), W^-1 = (2 J v v^T J - J) / beta
    lam = np.sqrt(sn * zn) * np.concatenate([
        gamma[None], ((gamma + zb[0]) * sb[1:] + (gamma + sb[0]) * zb[1:]) / (2.0 * gamma + sb[0] + zb[0])
    ])
    u = _J * v

    def w_inv(y):
        return (2.0 * u * (u * y).sum(0) - _J * y) / beta

    # with y = B da, cone j adds K00 dt^2 + 2 dt Re((K01 - i K02) y)
    # + (K11 + K22) |y|^2 / 2 + Re((K11 - K22 - 2i K12) y^2) / 2 to the
    # quadratic form, K = W_j^-2: two weighted Grams of B
    w_inv_mat = (2.0 * u[:, None] * u[None] - np.diag(_J[:, 0])[:, :, None]) / beta
    K = np.einsum("acj,cbj->abj", w_inv_mat, w_inv_mat)
    g = B.T @ (K[0, 1] - 1j * K[0, 2])
    herm = (B_h * (K[1, 1] + K[2, 2])) @ B
    sym = B.T @ ((K[1, 1] - K[2, 2] - 2j * K[1, 2])[:, None] * B)
    newton = np.block([
        [K[0, 0].sum(), g.real, -g.imag],
        [g.real[:, None], (herm.real + sym.real) / 2, -(herm.imag + sym.imag) / 2],
        [-g.imag[:, None], (herm.imag - sym.imag) / 2, (herm.real - sym.real) / 2],
    ])
    d = 1.0 / np.sqrt(np.diag(newton))
    L_inv = np.linalg.inv(np.linalg.cholesky(newton * d[:, None] * d[None, :]))

    def G(dx):
        y = B @ (dx[1 : n + 1] + 1j * dx[n + 1 :])
        return -np.stack([np.full(M, dx[0]), y.real, y.imag])

    def G_T(y):
        e = B.T @ (y[1] - 1j * y[2])
        return -np.concatenate([[y[0].sum()], e.real, -e.imag])

    r = b + B @ a
    r_p = s - np.stack([np.full(M, t), r.real, r.imag])  # G x + s - h
    r_d = G_T(z) + np.eye(2 * n + 1)[0]  # G^T z + c

    def directions(rhs):  # lam o (ds + dz) = rhs, G^T dz = -r_d, G dx + ds = -r_p
        c0 = (lam[0] * rhs[0] - lam[1] * rhs[1] - lam[2] * rhs[2]) / (sn * zn)  # lam J lam
        c = np.concatenate([c0[None], (rhs[1:] - c0 * lam[1:]) / lam[0]])  # lam o c = rhs
        dx = d * (L_inv.T @ (L_inv @ (d * (-r_d - G_T(w_inv(w_inv(r_p) + c))))))
        ds = -w_inv(G(dx) + r_p)
        return dx, ds, c - ds

    lam_sq = _jordan(lam, lam)
    mu = lam_sq[0].sum() / M
    dx, ds, dz = directions(-lam_sq)  # affine predictor
    alpha = min(1.0, _max_step(lam, ds), _max_step(lam, dz))
    sigma = min(1.0, max(0.0, 1.0 - alpha + alpha ** 2 * (ds * dz).sum() / (M * mu))) ** 3
    dx, ds, dz = directions(-lam_sq - _jordan(ds, dz) + sigma * mu * np.eye(3)[:, :1])
    alpha = min(1.0, _STEP * min(_max_step(lam, ds), _max_step(lam, dz)))
    s_new, z_new = lam + alpha * ds, lam + alpha * dz
    a = a + alpha * (dx[1 : n + 1] + 1j * dx[n + 1 :])
    return t + alpha * dx[0], a, beta * (2.0 * v * (v * s_new).sum(0) - _J * s_new), w_inv(z_new)


def chebyshev_on_points(points, n: int, opts: SolveOptions | None = None) -> MinimaxSolution:
    """Discrete Chebyshev solve on an explicit point set (no resampling).

    The interior point runs in the Arnoldi basis of the points, centered and
    scaled into the unit disk; monomial coefficients are formed from its
    result.  ``weights`` are the final dual weights, ``equioscillation_gap``
    their certificate.  Raises RankDeficiencyError when the points take
    fewer than n+1 distinct values.
    """
    opts = opts or SolveOptions()
    points = np.asarray(points, dtype=complex)
    center = complex(points.mean())
    scale = float(np.abs(points - center).max())
    if scale == 0:
        raise RankDeficiencyError("all points coincide")
    Q, H = _arnoldi((points - center) / scale, n)
    a, weights, steps, converged, gap = _interior_point(Q[:, :n], Q[:, n], opts)
    poly = _monic_polynomial(H, a, center, scale)
    return MinimaxSolution(
        polynomial=poly,
        sup_norm=float(np.abs(poly(points)).max()),
        weights=weights,
        iterations=steps,
        converged=converged,
        equioscillation_gap=float(gap),
        basis_center=center,
    )


# curve exchange: re-solves with the maxima of |p| along L_r added, at most
# this many times (a safety cap; the tolerance ends it); the maxima near
# active points (weights above _ACTIVE_WEIGHT of the largest) are placed by
# secant steps on d|p|^2/dtheta
_EXCHANGE_ROUNDS = 16
_ACTIVE_WEIGHT = 1e-3
_SECANT_STEPS = 8


def _curve_maxima(p: ComplexPolynomial, sample: CurveSample, thetas, points):
    """Angles and points of the maxima of |p| along the curve within one grid
    step of the given angles (points there).  Secant steps on the slope of
    |p|^2 place them to rounding, which comparing values of |p| cannot: they
    are flat to eps over about sqrt(eps) of angle."""
    dp = p.derivative()

    def slope(th):
        z, dz = points_at_angles(sample.family, sample.r, th, points)
        return z, (np.conj(p(z)) * dp(z) * dz).real

    lo, hi = thetas - 2.0 * np.pi / sample.grid_size, thetas + 2.0 * np.pi / sample.grid_size
    (_, g_prev), (z, g), prev, cur = slope(lo), slope(hi), lo, hi
    for _ in range(_SECANT_STEPS):
        dg = g - g_prev
        nxt = np.clip(cur - g * (cur - prev) / np.where(dg != 0, dg, 1.0), lo, hi)
        prev, g_prev, cur = cur, g, np.where(dg != 0, nxt, cur)
        z, g = slope(cur)
    return cur, z


def solve_chebyshev(
    sample: CurveSample, n: int, opts: SolveOptions | None = None
) -> MinimaxSolution:
    """Monic degree-n polynomial of least maximum modulus over the curve.

    Solves the discrete problem on the sample, then runs a curve exchange:
    it places the maxima of |p| along L_r near the active points, adds
    those that exceed the discrete sup by more than ``tol_rel`` to the
    points used and re-solves, until none does.  ``converged`` means the
    discrete certificate on all points used and that curve test; a solve
    still above it after _EXCHANGE_ROUNDS re-solves returns
    ``converged=False``.  ``iterations`` counts every interior-point step
    of the call.

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
    sol = chebyshev_on_points(sample.points, n, opts)
    growth = capacity_leading_coefficient(sample.family) ** n
    if n == 0 or np.finfo(float).eps * sol.sup_norm * growth <= _ROOT_ACCURACY_BUDGET:
        steps, points, thetas = sol.iterations, sample.points, sample.thetas
        for rounds in range(_EXCHANGE_ROUNDS + 1):
            if not sol.converged:
                break
            active = sol.weights > _ACTIVE_WEIGHT * sol.weights.max()
            new_thetas, new_points = _curve_maxima(sol.polynomial, sample, thetas[active], points[active])
            over = np.abs(sol.polynomial(new_points)) > sol.sup_norm * (1.0 + opts.tol_rel)
            if not over.any():
                break
            if rounds == _EXCHANGE_ROUNDS:
                sol = replace(sol, converged=False)
                break
            points = np.concatenate([points, new_points[over]])
            thetas = np.concatenate([thetas, new_thetas[over]])
            sol = chebyshev_on_points(points, n, opts)
            steps += sol.iterations
        return replace(sol, iterations=steps)
    poly = _refine_dd(sample_points_dd(sample), sol.weights, n, sol.basis_center)
    resolved = bool(_DD_EPS * sol.sup_norm * growth <= _ROOT_ACCURACY_BUDGET)
    return replace(
        sol,
        polynomial=poly,
        sup_norm=float(np.abs(poly(sample.points)).max()),
        converged=sol.converged and resolved,
        precision_limited=True,
    )
