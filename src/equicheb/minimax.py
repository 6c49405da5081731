"""Complex Chebyshev problem on a level curve, by a primal-dual interior point.

The discrete problem  min_p max_j |p(z_j)|  over monic p is a
second-order cone program, solved in the Arnoldi basis of the points.
Its dual weights certify convergence: their weighted least-squares
minimum bounds the discrete optimum from below.  The start, q_n of that
basis, is weighed first, on its extremal points on the grid, on every
point, or on the curve, at the maxima of one curve scan placed by one
Newton step each; where it equioscillates there it is returned after one
step.  Otherwise one curve scan, by guarded secant steps that stop once
each maximum is settled or |p| is flat to rounding across its bracket,
tests the discrete solution: it is accepted where no maximum exceeds its
sup by more than the tolerance.  One that fails hands over to Newton's
method on the KKT system of the curve problem, seeded from the scan's
maxima; where Newton is refused the discrete solution is returned
unconverged.  Solves that double precision cannot resolve near K are
refined in double-double by ``dd.refine``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from . import dd
from .curves import (
    CurveSample,
    capacity_leading_coefficient,
    curve_jets,
    points_at_angles,
    sample_level_curve,
)
from .series import ComplexPolynomial, horner

# sample_level_curve is unused here but stays bound: perfbench patches it by name

__all__ = [
    "RankDeficiencyError",
    "SolveOptions",
    "MinimaxSolution",
    "chebyshev_on_points",
    "solve_chebyshev",
    "solve_chebyshev_batch",
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

    ``weights`` are the normalized dual weights that certify the solution,
    one per point used, and ``equioscillation_gap`` is their certificate;
    ``iterations`` counts interior-point steps, one where the start
    certifies.  ``exchange`` names the path that ended the curve exchange
    ("none", "start" or "newton") and ``newton_steps`` counts Newton's
    steps, a refused attempt's included; ``solve_chebyshev`` says what
    each path returns and what ``converged`` means there.
    ``precision_limited`` marks a solve whose values on the curve are too
    large for double precision to pin the low-order coefficients; its
    polynomial was refined in double-double (``solve_chebyshev`` says when
    that runs out too).
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

    def to_json_dict(self, r: float | None = None) -> dict:
        return {
            "n": self.polynomial.degree,
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


def _certificate(V: np.ndarray, target: np.ndarray, w: np.ndarray):
    """The coefficients minimizing sum_j w_j |(V coef + target)_j|^2 and the
    square root of that minimum, for dual weights w summing to 1 a lower
    bound on the discrete optimum.  Raises RankDeficiencyError when the
    weighted rows cannot pin the coefficients down."""
    n = V.shape[1]
    sw = np.sqrt(w)
    coef, _, rank, _ = np.linalg.lstsq(V * sw[:, None], -target * sw, rcond=None)
    if rank < n:
        raise RankDeficiencyError(f"weighted points have rank {rank} < {n} free coefficients")
    return coef, float(np.sqrt(w @ np.abs(target + V @ coef) ** 2))


# rounding of the solution's values on the curve, in capacity units, above
# which double coefficients no longer fix the zeros to this accuracy
_ROOT_ACCURACY_BUDGET = 1e-3


def _precision_limited(sup_norm: float, family, n: int, eps: float) -> bool:
    """Rounding at eps * sup_norm, in capacity units (times c^n), exceeds
    the root-accuracy budget: coefficients resolved to eps cannot fix the
    degree-n polynomial near K, where its zeros lie."""
    growth = capacity_leading_coefficient(family) ** n
    return n > 0 and not eps * sup_norm * growth <= _ROOT_ACCURACY_BUDGET


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
    points take fewer than n+1 distinct values) raises RankDeficiencyError.
    Q is the transposed view of contiguous rows q_k, so that a projection
    conj(rows @ conj(q)) conjugates the vector q, not the block of rows."""
    M = len(zeta)
    Q = np.ones((n + 1, M), dtype=complex)
    H = np.zeros((n + 1, n), dtype=complex)
    breakdown = 1e-12 * np.abs(zeta).max()
    for k in range(n):
        q = zeta * Q[k]
        for _ in range(2):  # Gram-Schmidt twice keeps Q orthogonal to rounding
            h = (Q[: k + 1] @ q.conj()).conj() / M
            q -= h @ Q[: k + 1]
            H[: k + 1, k] += h
        H[k + 1, k] = np.linalg.norm(q) / np.sqrt(M)
        if not H[k + 1, k].real > breakdown:
            raise RankDeficiencyError(f"the points take fewer than {n + 1} distinct values")
        Q[k + 1] = q / H[k + 1, k]
    return Q.T, H


def _points_basis(points: np.ndarray, n: int):
    """(Q, H, center, scale): ``_arnoldi`` of the points centered on their
    mean and scaled into the unit disk."""
    center = complex(points.mean())
    scale = float(np.abs(points - center).max())
    if scale == 0:
        raise RankDeficiencyError("all points coincide")
    return (*_arnoldi((points - center) / scale, n), center, scale)


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


def _extremal_weights(values: np.ndarray, top: float, n: int, tol_rel: float) -> np.ndarray | None:
    """Weights uniform on the start's extremal set: the points where its
    modulus, ``values``, is at least (1 - tol_rel) ``top``, its sup.  None
    where fewer than 2n points are in the set (an equioscillating start,
    as T_n is on ellipses and preimage levels, peaks at 2n or more)."""
    extremal = values >= (1.0 - tol_rel) * top
    count = int(extremal.sum())
    return extremal / count if count >= 2 * n else None


def _interior_point(B: np.ndarray, b: np.ndarray, opts: SolveOptions):
    """Primal-dual interior point for  min t  s.t.  |r_j| <= t,  r = b + B a,
    in the real unknowns (t, Re a, Im a); cone j holds (t, r_j) and the dual
    z_j.  Feasible start: a = 0, t = 1.1 max|b|, z_j = (1/M, 0).  Certificate:
    for the dual weights w = z_0 / sum z_0, min_a sum_j w_j |r_j|^2 bounds
    the discrete optimum from below; it is evaluated at the last step and
    once the gap s.z / t is within _CERTIFY_FROM tolerances.  Returns (a, w,
    steps, converged, gap) for the better, by sup norm, of the primal
    iterate and the weighted-LS solution.  The caller has weighed the start
    (``_solve_on_points``): the steps begin where that is refused."""
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

    for it in range(1, opts.max_iter + 1):
        w = z[0] / z[0].sum()
        gap_ip = (s[0] @ z[0] + np.vdot(s[1], z[1]).real) / t
        last = it == opts.max_iter or gap_ip <= _GAP_FLOOR
        if last or gap_ip <= _CERTIFY_FROM * opts.tol_rel:
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


def _solve_on_points(points: np.ndarray, n: int, opts: SolveOptions,
                     sample: CurveSample | None = None):
    """``chebyshev_on_points`` and its basis (points, Q, H, a, center,
    scale): the Arnoldi basis of the points and the solution's coefficients
    in it.

    Before the first step the start a = 0 (q_n, the least-squares
    minimizer for uniform weights) is weighed with weights uniform on its
    extremal set S (``_extremal_weights``, where S is not every point),
    then with weights uniform on every point, the first step's, as
    ``_grid_certificates`` solves them.  Either certificate with a gap <=
    tol_rel returns the better, by sup on the points, of the start and the
    weights' least-squares solution, after one step.  Where both are
    refused and a ``sample`` of the curve is given, ``_curve_start`` weighs
    the start on the curve; a solution from there has
    ``exchange="start"``.  Otherwise the interior point takes its steps, as
    if no test had been made.
    """
    Q, H, center, scale = _points_basis(points, n)
    B, b = Q[:, :n], Q[:, n]
    a, top = np.zeros(n, dtype=complex), float(np.abs(b).max())
    for weights, ls, bound in _grid_certificates(B, b, _extremal_weights(np.abs(b), top, n, opts.tol_rel)):
        ls_sup = float(np.abs(b + B @ ls).max())
        gap = 1.0 - bound / min(top, ls_sup)
        if gap <= opts.tol_rel:
            a = ls if ls_sup < top else a
            steps, converged = 1, True
            break
    else:
        if sample is not None:
            curve = _curve_start(sample, n, opts, (points, Q, H, a, center, scale))
            if curve is not None:
                return curve, (points, Q, H, a, center, scale)
        a, weights, steps, converged, gap = _interior_point(B, b, opts)
    poly = _monic_polynomial(H, a, center, scale)
    sol = MinimaxSolution(
        polynomial=poly,
        sup_norm=float(np.abs(poly(points)).max()),
        weights=weights,
        iterations=steps,
        converged=converged,
        equioscillation_gap=float(gap),
    )
    return sol, (points, Q, H, a, center, scale)


def _grid_certificates(B: np.ndarray, b: np.ndarray, extremal: np.ndarray | None):
    """The start's grid certificates in the order they are tried, as
    (weights, coefficients, bound) of ``_certificate`` in the Arnoldi basis
    (B, b): the ``extremal`` weights where some point has none, solved on
    their own rows (skipped where those pin too few values), then the first
    step's uniform weights, whose coefficients -B^H b / M need no solve
    (Q^H Q = M I, and ``_arnoldi`` has checked the rank)."""
    if extremal is not None and extremal.min() == 0:
        rows = extremal > 0
        try:
            ls, bound = _certificate(B[rows], b[rows], extremal[rows])
        except RankDeficiencyError:  # repeated points: S may pin fewer values
            pass
        else:
            yield extremal, ls, bound
    M = len(b)
    uniform = np.full(M, 1.0 / M)
    uniform /= uniform.sum()  # the first step's z_0 / sum z_0, formed as the interior point forms it
    ls = -(B.conj().T @ b) / M
    yield uniform, ls, float(np.sqrt(uniform @ np.abs(b + B @ ls) ** 2))


def _curve_start(sample: CurveSample, n: int, opts: SolveOptions, basis) -> MinimaxSolution | None:
    """The start q_n (a = 0 in the sample's Arnoldi ``basis``) certified on
    the curve, where its extremal points miss the sample's grid.  Returns
    the start as the solution, or None.

    Gate: at least 2n grid steps bracket a maximum of |p| (``_turns``, the
    scan's first phase), p the monic start, and p is not precision-limited
    (``solve_chebyshev``).  Then one curve scan, handed the gate's turns,
    finds its maxima; those within tol_rel of the sup of |p| over them and
    the sample are its extremal set (``_extremal_weights``).  The scan
    leaves a point up to 1.8e-4 rad off its maximum where |p| is flat to
    rounding, so one Newton step on the slope of |p|^2 places each point
    where the curvature is negative, by at most one grid step, kept by its
    size (|p| cannot tell).  ``_curve_certificate`` weighs the moved points
    uniformly and returns p after one step with ``exchange="start"``: the
    scan has made the exchange's test."""
    _, Q_points, H, a, center, scale = basis
    p = _monic_polynomial(H, a, center, scale)
    turns = _turns(p, p.derivative(), sample)
    if len(turns[0]) < 2 * n:
        return None
    on_sample = float(np.abs(p(sample.points)).max())
    if _precision_limited(on_sample, sample.family, n, np.finfo(float).eps):
        return None
    maxima, angles = _curve_maxima([(p, sample)], [turns])[0]
    z, dz, d2z = curve_jets(sample.family, sample.r, angles, maxima)
    c = np.append(a, 1.0)
    g, _, slope, curvature = _slope_jets(_arnoldi_jets(H, (z - center) / scale), c, dz / scale, d2z / scale)
    values = np.abs(g)
    weights = _extremal_weights(values, max(float(np.abs(Q_points[:, n]).max()), float(values.max())), n,
                                opts.tol_rel)
    if weights is None:
        return None
    keep = weights > 0
    h, down = 2.0 * np.pi / sample.size, curvature < 0
    step = np.where(down, -slope / np.where(down, curvature, -1.0), 0.0)
    theta = angles[keep] + np.clip(step[keep], -h, h)
    z = points_at_angles(sample.family, sample.r, theta, z[keep])[0]
    return _curve_certificate(basis, p, c, z, weights[keep], opts.tol_rel, iterations=1, exchange="start")


def _curve_certificate(basis, poly: ComplexPolynomial, c: np.ndarray, z: np.ndarray, lam: np.ndarray,
                       tol_rel: float, **counts) -> MinimaxSolution | None:
    """The polynomial p = sum_k c_k q_k (c_n = 1) in the Arnoldi ``basis``
    of a discrete solve's points, ``poly`` its monomial form (the caller's
    ``_monic_polynomial``), certified on points z of the curve by
    weights lam summing to 1: ``_certificate`` in the Arnoldi basis at z,
    its gap measured against the larger of the sup of |p| on the basis's
    points and on z.  Returns None where the gap exceeds ``tol_rel`` or the
    weighted points cannot pin the coefficients, else the solution with
    ``weights`` zero on the basis's points and lam appended, ``sup_norm``
    the sup of |p| over both, and the path's ``counts`` (iterations,
    exchange, newton_steps)."""
    points, Q_points, H, _, center, scale = basis
    n = len(c) - 1
    Q = _arnoldi_jets(H, (z - center) / scale)[0]
    try:
        bound = _certificate(Q[:, :n], Q[:, n], lam)[1]
    except RankDeficiencyError:
        return None
    gap = 1.0 - bound / float(np.abs(np.concatenate([Q_points @ c, Q @ c])).max())
    if not gap <= tol_rel:
        return None
    return MinimaxSolution(
        polynomial=poly,
        sup_norm=float(np.abs(poly(np.concatenate([points, z]))).max()),
        weights=np.concatenate([np.zeros(len(points)), lam]),
        converged=True,
        equioscillation_gap=gap,
        **counts,
    )


# curve scan: each maximum of |p| along L_r is placed by secant steps on
# d|p|^2/dtheta, guarded by bisection, at most _SECANT_STEPS a scan
_SECANT_STEPS = 8
# in grid steps: the guard at each end of a grid step, and a settling secant step
_GUARD = np.sqrt(np.finfo(float).eps)
# a relative change of |p|^2 over a bracket that is rounding
_FLAT = 4 * np.finfo(float).eps


def _curve_maxima(pairs: Sequence[tuple[ComplexPolynomial, CurveSample]],
                  turns: Sequence[tuple[np.ndarray, np.ndarray]] | None = None) -> list[tuple[np.ndarray, ...]]:
    """The maxima of |p| along the curve that the sample's grid steps
    bracket, for each (p, sample) pair of a batch on one family, as
    (points, angles): each point with the map angle it was evaluated at, a
    grid step's end (its start's angle or that plus 2 pi / size) or an
    iterate.  ``turns`` gives each pair's ``_turns``, where the caller has
    them already; by default the scan takes them.

    The slope of |p|^2 is taken, pair by pair, at the points
    ``sample.grid_steps`` holds for every scan of the sample; a grid step
    runs from each of them to the point at the next angle.  Each step that
    brackets one maximum (``_turns``) is searched by secant steps on the
    slope from its two ends.  A bracket whose two ends read slopes that
    move |p|^2 by at most _FLAT over it is flat to rounding: a grid step
    that is so takes no secant step, and a bracket that becomes so after
    a secant round retires.  So a scan measures maxima, within about eps
    in |p| where the slope is monotone across the bracket, but may place
    one 1.8e-4 rad off (the interval's T_14 at r = 2.22, M = 256): callers
    that read where points lie place them by Newton.  A secant proposal in the closed bracket and
    within _GUARD grid steps of the iterate settles it, also on the end a
    rise has just moved to the iterate.  One at or past the guard of a
    grid end (where a stationary end's zero or rounding-sized slope leaves
    the secant) probes the guard's edge, and settles the bracket where the
    slope there points to that end.  Other proposals off the bracket or
    into a guard bisect it.  Each bracket returns the highest point it
    evaluated.  One loop of at most _SECANT_STEPS serves the brackets of
    every pair, each with its own level, grid step and polynomial
    (coefficient rows for ``horner``), and ends when none is live; a
    settled or retired bracket keeps its state, so each pair's maxima are
    the bits a batch of one gives.  Not seen: a maximum and a minimum of
    |p| in one step.  Raises ValueError for samples of more than one
    family, or not laid out as ``sample_level_curve`` lays them out.
    """
    if not pairs:
        return []
    family = pairs[0][1].family
    if any(sample.family != family for _, sample in pairs):
        raise ValueError("a curve scan takes samples of one family")
    derivatives = [p.derivative() for p, _ in pairs]
    a, fa, b, fb, near, z_end, counts = [], [], [], [], [], [], []
    for (p, sample), dp, given in zip(pairs, derivatives, turns or [None] * len(pairs)):
        turn, g = given or _turns(p, dp, sample)
        end = sample._successors[turn]
        a.append(sample.thetas[turn])
        fa.append(g[turn])
        b.append(sample.thetas[turn] + 2.0 * np.pi / sample.size)
        fb.append(g[end])
        near.append(sample.points[turn])
        z_end.append(sample.grid_steps[0][end])
        counts.append(len(turn))
    a, fa, b, fb, near, z_end = map(np.concatenate, (a, fa, b, fb, near, z_end))
    h = b - a
    lo, hi = a + _GUARD * h, b - _GUARD * h
    r = np.repeat([sample.r for _, sample in pairs], counts)
    rows = _coefficient_rows([p for p, _ in pairs], counts)
    drows = _coefficient_rows(derivatives, counts)

    ends = np.stack([near, z_end])
    top = np.abs(horner(rows, ends))
    pick = top.argmax(axis=0), np.arange(len(a))
    best, best_theta, best_val = ends[pick], np.stack([a, b])[pick], top[pick]

    def steep():  # the slopes at the bracket's ends move |p|^2 by more than _FLAT over it
        return 2.0 * np.maximum(np.abs(fa), np.abs(fb)) * (b - a) > _FLAT * best_val ** 2

    live = steep()
    prev, g_prev, cur, g = a, fa, b, fb
    for _ in range(_SECANT_STEPS):
        dg = g - g_prev
        nxt = np.where(dg != 0, cur - g * (cur - prev) / np.where(dg != 0, dg, 1.0), cur)
        at_hi = nxt >= hi
        edge = np.where(at_hi, hi, lo)
        probe = ((nxt <= lo) | at_hi) & (a < edge) & (edge < b)
        live &= probe | ~((a <= nxt) & (nxt <= b)) | (np.abs(nxt - cur) > _GUARD * h)
        if not live.any():
            break
        prev, g_prev = cur, g
        inside = (a < nxt) & (nxt < b) & (lo < nxt) & (nxt < hi)
        cur = np.where(probe, edge, np.where(inside, nxt, 0.5 * (a + b)))
        z, dz = points_at_angles(family, r, cur, near)
        pz = horner(rows, z)
        g = (np.conj(pz) * horner(drows, z) * dz).real
        value = np.abs(pz)
        higher = live & (value > best_val)
        best, best_theta = np.where(higher, z, best), np.where(higher, cur, best_theta)
        best_val = np.where(higher, value, best_val)
        rise = g > 0
        a, b = np.where(rise, cur, a), np.where(rise, b, cur)
        fa, fb = np.where(rise, g, fa), np.where(rise, fb, g)
        live &= ~(probe & (rise == at_hi)) & steep()
    return [(best[end - k : end], best_theta[end - k : end]) for end, k in zip(accumulate(counts), counts)]


def _turns(p: ComplexPolynomial, dp: ComplexPolynomial, sample: CurveSample):
    """The grid steps of the sample that bracket a maximum of |p| (indices),
    and the slope of |p|^2 at every point of ``sample.grid_steps``.

    A step brackets one maximum where the slope turns from > 0 at its start
    to <= 0 at its end, the point at the next angle
    (``CurveSample._successors``), or from exactly 0 to < 0 where the step
    ending at its start did not turn or |p| rises over the step.  The steps
    that meet at a point read one slope there, so a maximum on a grid angle,
    where the slope is rounding-sized or exactly 0, turns one of them."""
    z, dz = sample.grid_steps
    pz, succ = p(z), sample._successors
    g = (np.conj(pz) * dp(z) * dz).real
    g_end, g_into = g[succ], np.zeros_like(g)
    g_into[succ] = g
    from_zero = (g == 0) & (g_end < 0) & ((g_into <= 0) | (np.abs(pz) < np.abs(pz[succ])))
    turn = np.flatnonzero(((g > 0) & (g_end <= 0)) | from_zero)
    return turn, g


def _coefficient_rows(polys: Sequence[ComplexPolynomial], counts: Sequence[int]) -> np.ndarray:
    """Ascending coefficients of each polynomial, repeated in ``counts`` of
    its columns, as rows of shape (max degree + 1, sum of counts); lower
    degrees padded with zeros."""
    rows = np.zeros((max(q.degree for q in polys) + 1, sum(counts)), dtype=complex)
    for q, end, k in zip(polys, accumulate(counts), counts):
        rows[: len(q.coeffs), end - k : end] = q.coeffs[:, None]
    return rows


def curve_sup_norms(pairs: Sequence[tuple[ComplexPolynomial, CurveSample]]) -> list[float]:
    """Sup of |p| over the sample's curve for each (p, sample) pair of a
    batch on one family: the largest of its values at the sample points and
    at the maxima that ``_curve_maxima`` places, in one scan of the batch."""
    return [float(np.abs(p(np.concatenate([sample.points, mx]))).max())
            for (p, sample), (mx, _) in zip(pairs, _curve_maxima(pairs))]


# Newton on the extremal set: at most this many steps in all, over every
# change of the set; each point it reaches is ended by the second of two
# steps in a row of at most _NEWTON_TOL in every unknown (converging
# quadratically, the second lands at rounding); a cluster of dual weights
# below _ACTIVE of the largest names no extremal point, and a point joins
# the set with _ACTIVE of the largest weight
_NEWTON_STEPS = 16
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


def _slope_jets(Q: np.ndarray, c: np.ndarray, dzeta, d2zeta):
    """g = p(z(theta)) for p = sum_k c_k q_k, its theta-derivative g', the
    slope ft = Re(conj(g) g') of |g|^2 / 2 and ft', from the basis jets Q
    at the points and the derivatives of zeta(theta) there."""
    g, p1, p2 = Q @ c
    g1, g2 = p1 * dzeta, p2 * dzeta * dzeta + p1 * d2zeta
    return g, g1, (g.conj() * g1).real, np.abs(g1) ** 2 + (g.conj() * g2).real


def _kkt_system(c: np.ndarray, s: float, lam: np.ndarray, Q: np.ndarray, dzeta, d2zeta):
    """Residual and Jacobian of the KKT system of ``_newton_exchange`` in the
    real unknowns (Re a, Im a, s, lambda, theta), c = (a, 1), for the basis
    jets Q at the extremal points and the derivatives of zeta(theta) there."""
    K, n = len(lam), len(c) - 1
    g, g1, ft, dft = _slope_jets(Q, c, dzeta, d2zeta)
    q, q1 = Q[0, :, :n], Q[1, :, :n] * dzeta[:, None]
    fa = q.conj().T @ (lam * g)
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
        [(v1 + v2).real, (v1 - v2).imag, np.zeros((K, 1)), zero, dft * eye],
    ])
    return res, jac


def _newton_exchange(sample: CurveSample, n: int, opts: SolveOptions, sol: MinimaxSolution,
                     basis, maxima: np.ndarray, angles: np.ndarray):
    """Newton's method on the KKT system of the curve problem, with an
    active set, from the discrete solution ``sol`` on the sample, the points
    of its Arnoldi ``basis``, and the ``maxima`` and map ``angles`` that its
    scan placed.  Returns (the solution or None, Newton steps).

    Each point's dual weight goes to its nearest maximum; the maxima
    holding at least _ACTIVE of the largest cluster are the extremal set,
    with lambda_j their cluster weights, theta_j their scan angles and t
    the highest of them.  In the Arnoldi basis, p = q_n + sum_k a_k
    q_k and g_j(theta) = p(z(theta)), the square system in (a, s = t^2,
    lambda, theta) is
        sum_j lambda_j conj(q_k(z_j)) g_j = 0   (k < n),
        sum_j lambda_j = 1,
        |g_j|^2 = s,   Re(conj(g_j) g_j') = 0,
    solved with its analytic Jacobian by minimum-norm least-squares steps,
    which coalescing extremal points do not stop; a step that moves an
    angle by more than the grid step is shortened to it.  At a converged
    point (two steps in a row of at most _NEWTON_TOL) the set changes:
    points with lambda_j <= 0 leave it; else the maxima of the point's scan
    where |p|, in the Arnoldi basis, exceeds the set's level sqrt(s) by
    more than ``tol_rel`` join it, at their scan angles; else
    ``_curve_certificate`` weighs the set, and where it refuses, the
    highest sample point joins by the same rule, at its grid angle, or
    Newton is refused.  Refused (None) also where fewer than n + 1 or
    more than 2n + 1 points start in the set, where a step's linear model
    does not reduce the KKT residual, or after _NEWTON_STEPS steps in all.
    What passes bounds every monic p's sup on the extremal points from
    below, and no maximum of its own that a grid step brackets exceeds it.
    """
    points, Q_points, H, a, center, scale = basis
    cluster = np.bincount(np.abs(points[:, None] - maxima).argmin(axis=1),
                          weights=sol.weights, minlength=len(maxima))
    keep = cluster >= _ACTIVE * cluster.max()
    if not n + 1 <= keep.sum() <= 2 * n + 1:
        return None, 0
    z, theta, lam = maxima[keep], angles[keep], cluster[keep] / cluster[keep].sum()
    c = np.append(a, 1.0)
    s = float(np.abs(_arnoldi_jets(H, (z - center) / scale)[0] @ c).max()) ** 2
    h = 2.0 * np.pi / sample.size
    small = 0  # steps in a row of at most _NEWTON_TOL
    for steps in range(1, _NEWTON_STEPS + 1):
        z, dz, d2z = curve_jets(sample.family, sample.r, theta, z)
        Q = _arnoldi_jets(H, (z - center) / scale)
        res, jac = _kkt_system(c, s, lam, Q, dz / scale, d2z / scale)
        dx = np.linalg.lstsq(jac, -res, rcond=None)[0]
        if not np.linalg.norm(res + jac @ dx) < np.linalg.norm(res):
            return None, steps
        K = len(lam)
        dx *= h / max(np.abs(dx[-K:]).max(), h)  # an angle moves by at most h
        c[:n] += dx[:n] + 1j * dx[n : 2 * n]
        s += dx[2 * n]
        lam = lam + dx[2 * n + 1 : -K]
        theta = theta + dx[-K:]
        small = small + 1 if np.abs(dx).max() <= _NEWTON_TOL else 0
        if small < 2:
            continue
        small = 0
        z = points_at_angles(sample.family, sample.r, theta, z)[0]
        if lam.min() <= 0:  # Newton's next step restores sum(lambda) = 1
            z, lam, theta = z[lam > 0], lam[lam > 0], theta[lam > 0]
            continue
        level = np.sqrt(s) * (1.0 + opts.tol_rel)  # a point joins only above the set's own |p|
        poly = _monic_polynomial(H, c[:n], center, scale)
        mx, mx_theta = _curve_maxima([(poly, sample)])[0]
        up = np.abs(_arnoldi_jets(H, (mx - center) / scale)[0] @ c) > level
        if not up.any():
            point = _curve_certificate(basis, poly, c, z, lam / lam.sum(), opts.tol_rel,
                                       iterations=sol.iterations, exchange="newton", newton_steps=steps)
            if point is not None:
                return point, steps
            i = [np.abs(Q_points @ c).argmax()]  # the highest sample point
            mx, mx_theta, up = points[i], sample.thetas[i], np.abs(Q_points[i] @ c) > level
            if not up.any():
                return None, steps
        z, theta = np.append(z, mx[up]), np.append(theta, mx_theta[up])
        lam = np.append(lam, np.full(up.sum(), _ACTIVE * lam.max()))
    return None, _NEWTON_STEPS


def solve_chebyshev(
    sample: CurveSample, n: int, opts: SolveOptions | None = None
) -> MinimaxSolution:
    """Monic degree-n polynomial of least maximum modulus over the curve.

    Solves the discrete problem on the sample, then runs a curve exchange.
    Where the start certifies on its curve maxima (``_curve_start``, tried
    where its grid certificates are refused) that scan was the exchange's
    test, and the start is returned after one step with
    ``exchange="start"``.  Otherwise one scan finds the discrete
    solution's maxima of |p| that the sample's grid steps bracket, and the
    solution is accepted where none exceeds its ``sup_norm`` by more than
    ``tol_rel``.  One that fails hands over to Newton's method on its
    extremal set (``_newton_exchange``); where Newton is refused, the
    discrete solution is returned with ``converged=False``.
    ``converged`` means a start certified on the curve, an accepted Newton
    point, or the discrete certificate on the sample with no maximum
    bracketed by a grid step above ``sup_norm`` by more than ``tol_rel``.
    ``exchange`` names the path that ended the exchange: "start",
    "newton", or "none" (no maximum above the tolerance, no exchange, or a
    refused one).  On "start" and "newton" ``weights`` are zero on the
    sample with the certifying weights on the curve points appended
    (``_curve_certificate``), and ``sup_norm`` is the sup of |p| over both.
    ``iterations`` counts the interior-point steps of the call and
    ``newton_steps`` Newton's steps.

    A solve is precision-limited when rounding at eps * sup_norm, in
    capacity units (times c^n), exceeds the root-accuracy budget 1e-3:
    then the double coefficients cannot resolve the polynomial near K,
    where its zeros lie.  Such a solution skips the curve start and the
    exchange, keeps its dual weights and certificate, and its polynomial
    is replaced by ``dd.refine``'s for those weights, solved in
    double-double on the sample placed exactly on the curve.  The rule
    with ``dd.EPS`` = eps^2 in place of eps marks where that refinement
    runs out too; such a solve returns ``converged=False``.

    This is ``solve_chebyshev_batch`` on one sample: a level solved in a
    batch gets the same bits.
    """
    return solve_chebyshev_batch([sample], n, opts)[0]


def solve_chebyshev_batch(samples: Iterable[CurveSample], n: int,
                          opts: SolveOptions | None = None) -> list[MinimaxSolution]:
    """``solve_chebyshev`` at degree n on each of ``samples``, levels of one
    family, with the solutions in their order.

    The discrete solve of each level runs in turn, refined by ``dd.refine``
    where it is precision-limited.  Then one curve scan (``_curve_maxima``)
    tests every discrete solution that the exchange tests, and Newton
    (``_newton_exchange``) runs only on those it refuses.  Each level's
    solution has the bits of its own ``solve_chebyshev`` call.  The
    samples are read one at a time, and only a level that waits for the
    scan keeps its sample and its coefficients; its Arnoldi basis is built
    again (the same bits) only where the scan refuses it.  Raises
    ValueError where levels that the scan tests are of more than one
    family.
    """
    opts = opts or SolveOptions()
    sols, waiting = [], []
    for sample in samples:
        # of the basis only the coefficients a are kept: no level holds its Q
        sol, (*_, a, _, _) = _solve_on_points(sample.points, n, opts, sample)
        if sol.exchange != "start":
            if _precision_limited(sol.sup_norm, sample.family, n, np.finfo(float).eps):
                poly = dd.refine(sample, sol.weights, n)
                sol = replace(
                    sol,
                    polynomial=poly,
                    sup_norm=float(np.abs(poly(sample.points)).max()),
                    converged=sol.converged
                    and not _precision_limited(sol.sup_norm, sample.family, n, dd.EPS),
                    precision_limited=True,
                )
            elif sol.converged:
                waiting.append((len(sols), sample, a))
        sols.append(sol)
    scans = _curve_maxima([(sols[i].polynomial, sample) for i, sample, _ in waiting])
    for (i, sample, a), (maxima, angles) in zip(waiting, scans):
        # the test of a discrete solution: a maximum above its sup by more than tol_rel
        if (np.abs(sols[i].polynomial(maxima)) > sols[i].sup_norm * (1.0 + opts.tol_rel)).any():
            Q, H, center, scale = _points_basis(sample.points, n)  # the discrete solve's bits
            point, steps = _newton_exchange(sample, n, opts, sols[i], (sample.points, Q, H, a, center, scale),
                                            maxima, angles)
            sols[i] = point if point is not None else replace(sols[i], converged=False, newton_steps=steps)
    return sols
