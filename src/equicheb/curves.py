"""Exterior-map families with explicit level-curve samplers.

Every level curve L_r = {|phi| = r} is P^{-1} of an inverse map's level
curve psi(|w| = r^m), m = deg P, found by solving P(z) = psi(r^m e^(i m theta)).
Lemniscate {|P| = R} and the preimage P^{-1}([-1,1]) name a base family,
Circle(R) or Interval(), whose psi they take; their map is
(phi_base o P)^(1/m).  Circle, Interval and an ExplicitMap given psi carry
their own psi (exact Laurent data for the first two) with P = z, so L_r is
psi(|w| = r); degree-1 generators are solved in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence, Union

import numpy as np

from .rootfind import roots_after_constant_shifts
from .series import (
    ComplexPolynomial,
    LaurentSeriesAtInfinity,
    faber_powers,
    faber_recurrence,
)

__all__ = [
    "Circle",
    "Interval",
    "Lemniscate",
    "InversePolynomialImage",
    "ExplicitMap",
    "CurveFamily",
    "CurveSample",
    "capacity_leading_coefficient",
    "phi_series",
    "faber_basis",
    "sample_level_curve",
    "points_at_angles",
    "curve_jets",
    "joukowski",
    "family_to_json_dict",
    "family_from_json_dict",
]


def joukowski(w):
    """Inverse map for the interval [-1,1]: circles |w|=r to ellipses."""
    w = np.asarray(w, dtype=complex)
    return (w + 1.0 / w) / 2.0


def _check_finite(values, what: str) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} must be finite")


def _read_only_psi(c: float, tail) -> LaurentSeriesAtInfinity:
    """An exact psi with a read-only tail, safe to share between callers."""
    psi = LaurentSeriesAtInfinity(c, tail, exact=True)
    psi.tail.flags.writeable = False
    return psi


@dataclass(frozen=True)
class Circle:
    """K = circle of the given radius about the origin."""

    radius: float = 1.0

    def __post_init__(self):
        if not 0 < self.radius < np.inf:
            raise ValueError("radius must be positive and finite")

    @cached_property
    def psi(self) -> LaurentSeriesAtInfinity:
        """Exact inverse map psi(w) = R w, built once per instance."""
        return _read_only_psi(self.radius, [0.0])

    def map_of(self, P: ComplexPolynomial, n_terms: int) -> np.ndarray:
        """First n_terms descending coefficients of phi(P(z)) = P(z)/R, from
        z^(deg P) down."""
        return P.coeffs[::-1][:n_terms] * (1.0 / self.radius)


@dataclass(frozen=True)
class Interval:
    """K = [-1, 1]."""

    @cached_property
    def psi(self) -> LaurentSeriesAtInfinity:
        """Exact inverse map psi(w) = (w + 1/w)/2, the Joukowski map, built
        once per instance."""
        return _read_only_psi(0.5, [0.0, 0.5])

    def map_of(self, P: ComplexPolynomial, n_terms: int) -> np.ndarray:
        """First n_terms descending coefficients of phi(P(z)) = P + sqrt(P^2 - 1),
        from z^(deg P) down."""
        out = np.zeros(n_terms, dtype=complex)
        head = P.coeffs[::-1][:n_terms]
        out[: len(head)] += head
        return out + _series_power((P * P - ComplexPolynomial([1.0])).coeffs[::-1], (1, 2), n_terms)


@dataclass(frozen=True, eq=False)
class Lemniscate:
    """K = {z : |P(z)| = R} for a monic polynomial P of degree >= 1."""

    P: ComplexPolynomial
    R: float = 1.0

    def __post_init__(self):
        if not 0 < self.R < np.inf:
            raise ValueError("level R must be positive and finite")
        _check_finite(self.P.coeffs, "generator coefficients")
        if self.P.degree < 1:
            raise ValueError("generator degree must be at least 1")
        if not self.P.is_monic(0.0):
            raise ValueError("generator polynomial must be monic")

    @cached_property
    def base(self) -> Circle:
        """K = P^{-1}(circle of radius R)."""
        return Circle(self.R)


@dataclass(frozen=True, eq=False)
class InversePolynomialImage:
    """K = P^{-1}([-1,1]) for a real polynomial P with positive leading term.

    When ``alternation_points`` (x_0 < ... < x_m with P(x_k) = (-1)^(m-k))
    are supplied they are checked numerically and the family counts as a
    verified period-m set; otherwise it is accepted unverified.
    """

    P: ComplexPolynomial
    alternation_points: Optional[Sequence[float]] = None

    def __post_init__(self):
        _check_finite(self.P.coeffs, "polynomial coefficients")
        m = self.P.degree
        if m < 1:
            raise ValueError("polynomial degree must be at least 1")
        if np.abs(self.P.coeffs.imag).max() > 0:
            raise ValueError("polynomial must have real coefficients")
        if self.P.coeffs[-1].real <= 0:
            raise ValueError("leading coefficient must be positive")
        if self.alternation_points is not None:
            xs = np.asarray(self.alternation_points, dtype=float)
            if len(xs) != m + 1 or np.any(np.diff(xs) <= 0):
                raise ValueError("need m+1 strictly increasing alternation points")
            want = np.array([(-1.0) ** (m - k) for k in range(m + 1)])
            got = self.P(xs.astype(complex)).real
            if np.abs(got - want).max() > 1e-8:
                raise ValueError("alternation certificate fails numerically")

    @property
    def period_verified(self) -> bool:
        return self.alternation_points is not None

    @cached_property
    def base(self) -> Interval:
        """K = P^{-1}([-1, 1])."""
        return Interval()


@dataclass(frozen=True, eq=False)
class ExplicitMap:
    """Family given directly by exactly one of its map series phi and its
    inverse psi.  Given psi, it is sampled as psi(|w| = r); given phi, it has
    a capacity and Faber polynomials but no level-curve samples."""

    phi: Optional[LaurentSeriesAtInfinity] = None
    psi: Optional[LaurentSeriesAtInfinity] = None

    def __post_init__(self):
        if (self.phi is None) == (self.psi is None):
            raise ValueError("an explicit map needs exactly one of phi and psi")
        s = self.phi if self.psi is None else self.psi
        _check_finite(np.append(s.tail, s.leading_coefficient), "map coefficients")


_IDENTITY = ComplexPolynomial([0.0, 1.0])  # P = z, shared read-only
_IDENTITY.coeffs.flags.writeable = False

CurveFamily = Union[Circle, Interval, Lemniscate, InversePolynomialImage, ExplicitMap]
# families whose generator P and base family's psi define their level curves
_ROOT_FAMILIES = (Lemniscate, InversePolynomialImage)


@dataclass(frozen=True, eq=False)
class CurveSample:
    """A discretization of one level curve.

    ``thetas`` holds the map-angle parameter of each point, a multiple
    2*pi*k/size of the sampler's equispaced grid of ``size`` angles, one
    per point.  A sample is not changed after it is made, so ``grid_steps``
    is computed on first use and kept.
    """

    r: float
    points: np.ndarray
    family: CurveFamily
    thetas: np.ndarray

    @property
    def size(self) -> int:
        return len(self.points)

    @cached_property
    def grid_steps(self) -> tuple[np.ndarray, np.ndarray]:
        """Points of L_r and tangents dz/dtheta at the sample's angles,
        continued from its points by ``points_at_angles``.  A grid step runs
        from each of them to the point at the next angle
        (``_successors``).  They do not depend on the polynomial scanned, so
        every curve scan on the sample shares them; computed once,
        read-only."""
        z, dz = points_at_angles(self.family, self.r, self.thetas, self.points)
        z.flags.writeable = dz.flags.writeable = False
        return z, dz

    @cached_property
    def _successors(self) -> np.ndarray:
        """Index of the point where each grid step ends, at theta + h, h =
        2 pi/size: of the m points (m = deg P) at that angle, the one
        nearest the tangent step z + h dz/dtheta.  Raises ValueError for a
        sample not laid out as ``sample_level_curve`` lays it out: m points
        at each of size/m consecutive grid angles, angle-major, one
        period 2 pi/m.  Computed once, read-only."""
        m = _preimage(self.family)[0].degree
        period = self.size // m
        first, h = self.thetas[::m], 2.0 * np.pi / self.size
        # each angle's offset from the first is its multiple of the grid step
        # h, to rounding: 1e-9 h, far below any offset a misplaced angle has
        if (len(first) != period or (self.thetas != np.repeat(first, m)).any()
                or not (np.abs(first - first[0] - h * np.arange(period)) <= 1e-9 * h).all()):
            raise ValueError("a curve scan needs m points at each of size/m consecutive grid angles")
        z, dz = self.grid_steps
        following = (np.arange(self.size) // m + 1) % period * m  # the next angle's first point
        end = z + h * dz
        out = following + np.abs(z[following[:, None] + np.arange(m)] - end[:, None]).argmin(axis=1)
        out.flags.writeable = False
        return out


def _preimage(f: CurveFamily) -> tuple[ComplexPolynomial, LaurentSeriesAtInfinity]:
    """(P, psi) with L_r = P^{-1}(psi(|w| = r^m)), m = deg P: a root family's
    generator and its base family's psi, else z and the family's own psi."""
    if isinstance(f, _ROOT_FAMILIES):
        return f.P, f.base.psi
    psi = f.psi
    if psi is None:
        raise ValueError("an explicit map given phi cannot be sampled; give its inverse map psi")
    return _IDENTITY, psi


@lru_cache(maxsize=16)
def _level_map_parts(f: CurveFamily):
    """(P, psi, P', T', P'', T'') for ``points_at_angles`` and
    ``curve_jets``: ``_preimage(f)``, the first two derivatives of P and
    those of psi's tail T as a polynomial in 1/w, built once per family;
    the derivatives are read-only."""
    P, psi = _preimage(f)
    dP, dT = P.derivative(), ComplexPolynomial(psi.tail).derivative()
    d2P, d2T = dP.derivative(), dT.derivative()
    for q in (dP, dT, d2P, d2T):
        q.coeffs.flags.writeable = False
    return P, psi, dP, dT, d2P, d2T


def capacity_leading_coefficient(f: CurveFamily) -> float:
    """Leading map coefficient c; the logarithmic capacity of K is 1/c.

    The map is (psi^{-1} o P)^(1/m), so c = lead(P)^(1/m) a^(-1/m), a the
    leading coefficient of psi.
    """
    if isinstance(f, ExplicitMap) and f.phi is not None:
        return f.phi.leading_coefficient
    P, psi = _preimage(f)
    m = P.degree
    return float(P.coeffs[-1].real ** (1.0 / m) * psi.leading_coefficient ** (-1.0 / m))


# -- map series --------------------------------------------------------------


def _series_power(s: np.ndarray, exponent: tuple[int, int], n_terms: int) -> np.ndarray:
    """First n_terms descending coefficients of the principal power s^(p/m),
    exponent = (p, m), of a series at infinity given by its descending
    coefficients s, s[0] positive real; those past the end of s count as zero.

    Writes s = s[0] z^T (1 + v(1/z)) and applies J. C. P. Miller's
    recurrence for (1 + v)^(p/m); the result's top power is p T/m.
    """
    p, m = exponent
    lead = s[0]
    if not (lead.imag == 0.0 and lead.real > 0):
        raise ValueError("leading coefficient must be positive real")
    # v in the variable u = 1/z: v[j] = coeff of z^(T-j) / lead, v[0] = 1
    v = np.zeros(n_terms, dtype=complex)
    have = min(len(s), n_terms)
    v[:have] = s[:have] / lead
    alpha = p / m
    g = np.zeros(n_terms, dtype=complex)
    g[0] = 1.0
    for k in range(1, n_terms):
        acc = 0.0 + 0.0j
        for j in range(1, k + 1):
            if v[j] != 0:
                acc += ((alpha + 1.0) * j - k) * v[j] * g[k - j]
        g[k] = acc / k
    return (float(lead.real) ** alpha) * g


def phi_series(f: CurveFamily, depth: int) -> LaurentSeriesAtInfinity:
    """Map series at infinity with the stated truncation depth.

    For a degree-m lemniscate (and for polynomial preimages) this is the
    principal m-th root branch of the base family's map applied to P; only
    the modulus of the map is single-valued off the branch structure, which
    is all the level curves need.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if isinstance(f, ExplicitMap):
        if f.phi is None:
            raise ValueError("an explicit map given psi has no phi series; use faber_basis")
        return f.phi.truncate(depth)
    if isinstance(f, _ROOT_FAMILIES):
        s = _series_power(f.base.map_of(f.P, depth + 2), (1, f.P.degree), depth + 2)
    else:
        s = f.map_of(_IDENTITY, depth + 2)
    # only the circle's z/R is a Laurent polynomial; truncate pads it to the depth
    phi = LaurentSeriesAtInfinity(s[0].real, s[1:], exact=isinstance(f, Circle))
    return phi.truncate(depth)


def faber_basis(f: CurveFamily, n: int) -> list[ComplexPolynomial]:
    """Monic Faber polynomials Fhat_0 .. Fhat_n of the family.

    Families that carry psi (circle, interval, an explicit map given psi)
    take them from the Faber recurrence on psi; root families and an
    explicit map given phi from the powers of phi.  Either way Fhat_n needs
    the map's series to depth n - 1.
    """
    if isinstance(f, _ROOT_FAMILIES) or f.psi is None:
        return faber_powers(phi_series(f, max(n - 1, 0)), n)
    return faber_recurrence(f.psi, n)


# -- sampling ----------------------------------------------------------------


def sample_level_curve(f: CurveFamily, r: float, M: int) -> CurveSample:
    """m * ceil(M/m) points covering L_r, m = deg P (M for the circle, the
    interval and explicit maps, where P = z).

    Solves P(z) = psi(r^m exp(i*m*theta_j)) per angle, all m roots per
    target (in closed form for m <= 2, by batched Aberth for m >= 3),
    deterministic ordering (theta-major, solver root order minor), so each
    angle is repeated m times in ``thetas``.  Coincident roots,
    at a critical value of P, are kept: every sample has exactly
    m * ceil(M/m) points.
    """
    if not 1.0 < r < np.inf:
        raise ValueError("level r must be finite and exceed 1")
    if M < 1:
        raise ValueError("sample size must be positive")
    P, psi = _preimage(f)
    m = P.degree
    J = int(np.ceil(M / m))
    thetas = 2.0 * np.pi * np.arange(J) / (m * J)
    targets = psi.evaluate(r ** m * np.exp(1j * m * thetas))
    points = roots_after_constant_shifts(P, targets).ravel()
    return CurveSample(r=float(r), points=points, family=f, thetas=np.repeat(thetas, m))


_CONTINUATION_STEPS = 16  # Newton steps at most; from a grid neighbour: 1e-2, 1e-4, 1e-8, ...


def points_at_angles(f: CurveFamily, r: float | np.ndarray, thetas, near):
    """Points of L_r at map angles ``thetas`` off the sampler's grid, and the
    tangents dz/dtheta there; ``r`` is one level, or an array of levels
    aligned with ``thetas``, so that one call serves the samples of many
    levels.

    Solves P(z) = psi(r^m e^(i m theta)): in closed form for a degree-1 P,
    else by Newton steps from ``near``, points of L_r at nearby angles that
    pick the root.  Each point stops once its own correction is rounding, so
    it has the bits it has alone, and lands on L_r also next to a critical
    level, where the steps converge slowly.  P' and the derivative of psi's
    tail are built once per family (``_level_map_parts``); a curve scan
    takes the points at its grid steps from ``CurveSample.grid_steps``.
    """
    P, psi, dP, dT = _level_map_parts(f)[:4]
    m = P.degree
    # r^m level by level in Python, as for one level: numpy's vectorized
    # power rounds some of them differently
    if np.ndim(r) == 0:
        rm = r ** m
    else:
        rm = np.array([x ** m for x in np.asarray(r, dtype=float).tolist()])
    w = rm * np.exp(1j * m * np.asarray(thetas, dtype=float))
    # psi'(w) = c - T'(1/w) / w^2, T the tail as a polynomial in 1/w
    dz = 1j * m * w * (psi.leading_coefficient - dT(1 / w) / w ** 2)
    target = psi.evaluate(w)
    if m == 1:
        c0, c1 = P.coeffs
        return (target - c0) / c1, dz / c1
    z = np.array(np.broadcast_to(np.asarray(near, dtype=complex), w.shape))
    flat, goal, live = z.reshape(-1), target.reshape(-1), np.arange(z.size)
    for _ in range(_CONTINUATION_STEPS):
        at = flat[live]
        step = (P(at) - goal[live]) / dP(at)
        flat[live] = at - step
        live = live[np.abs(step) > 4 * np.finfo(float).eps * np.abs(at)]  # else at rounding
        if not live.size:
            break
    return z, dz / dP(z)


def curve_jets(f: CurveFamily, r: float, thetas, near):
    """Points of L_r at map angles ``thetas``, as ``points_at_angles`` gives
    them, with dz/dtheta and d^2z/dtheta^2.

    With w = r^m e^(i m theta) and psi(w) = c w + T(1/w), the target
    tau = psi(w) has tau'' = -m^2 (c w + T'(1/w)/w + T''(1/w)/w^2); a
    degree-1 P gives z'' = tau''/P', any other P(z) = tau differentiated
    twice gives z'' = (tau'' - P''(z) z'^2)/P'(z).
    """
    P, psi, dP, dT, d2P, d2T = _level_map_parts(f)
    z, dz = points_at_angles(f, r, thetas, near)
    m = P.degree
    u = np.exp(-1j * m * np.asarray(thetas, dtype=float)) / r ** m  # 1/w
    d2tau = -m * m * (psi.leading_coefficient / u + dT(u) * u + d2T(u) * u * u)
    return z, dz, (d2tau - d2P(z) * dz * dz) / dP(z)


# -- JSON family specs -------------------------------------------------------


def family_to_json_dict(f: CurveFamily) -> dict:
    if isinstance(f, Circle):
        return {"family": "circle", "R": f.radius}
    if isinstance(f, Interval):
        return {"family": "interval"}
    if isinstance(f, Lemniscate):
        return {"family": "lemniscate", "P": f.P.to_json_dict()["coeffs"], "R": f.R}
    if isinstance(f, InversePolynomialImage):
        d = {"family": "inverse-image", "P": f.P.to_json_dict()["coeffs"]}
        if f.alternation_points is not None:
            d["alternation_points"] = [float(x) for x in f.alternation_points]
        return d
    if isinstance(f, ExplicitMap):
        d = {"family": "explicit"}
        if f.phi is not None:
            d["phi"] = f.phi.to_json_dict()
        if f.psi is not None:
            d["psi"] = f.psi.to_json_dict()
        return d
    raise TypeError(f"unknown family {type(f).__name__}")


def family_from_json_dict(d: dict) -> CurveFamily:
    """Family of a spec as family_to_json_dict writes it; a malformed spec
    raises ValueError."""
    if not isinstance(d, dict):
        raise ValueError("family spec must be a JSON object")
    kind = d.get("family")
    try:
        if kind == "circle":
            return Circle(float(d.get("R", 1.0)))
        if kind == "interval":
            return Interval()
        if kind in ("lemniscate", "inverse-image"):
            P = ComplexPolynomial.from_json_dict({"coeffs": d["P"]})
            if kind == "lemniscate":
                return Lemniscate(P, float(d.get("R", 1.0)))
            return InversePolynomialImage(P, d.get("alternation_points"))
        if kind == "explicit":
            phi = LaurentSeriesAtInfinity.from_json_dict(d["phi"]) if "phi" in d else None
            psi = LaurentSeriesAtInfinity.from_json_dict(d["psi"]) if "psi" in d else None
            return ExplicitMap(phi=phi, psi=psi)
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed {kind} family spec ({type(e).__name__}: {e})") from e
    raise ValueError(f"unknown family spec {kind!r}")
