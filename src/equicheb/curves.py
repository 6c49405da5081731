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
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np

from . import dd
from .rootfind import roots_after_constant_shifts
from .series import (
    ComplexPolynomial,
    LaurentSeries,
    LaurentSeriesAtInfinity,
    faber_recurrence,
    laurent_mul,
    monic_faber,
    series_power,
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
    "sample_points_dd",
    "points_at_angles",
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

    def map_of(self, P: ComplexPolynomial, n_terms: int) -> LaurentSeries:
        """Series at infinity of phi(P(z)) = P(z)/R; exact, so all n_terms hold."""
        return P.to_series().scale(1.0 / self.radius)


@dataclass(frozen=True)
class Interval:
    """K = [-1, 1]."""

    @cached_property
    def psi(self) -> LaurentSeriesAtInfinity:
        """Exact inverse map psi(w) = (w + 1/w)/2, the Joukowski map, built
        once per instance."""
        return _read_only_psi(0.5, [0.0, 0.5])

    def map_of(self, P: ComplexPolynomial, n_terms: int) -> LaurentSeries:
        """Series at infinity of phi(P(z)) = P + sqrt(P^2 - 1), keeping
        n_terms coefficients down from the top power deg P."""
        p_series = P.to_series()
        p2 = laurent_mul(p_series, p_series) - LaurentSeries(0, [1.0], exact=True)
        return p_series + series_power(p2, (1, 2), n_terms)


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


CurveFamily = Union[Circle, Interval, Lemniscate, InversePolynomialImage, ExplicitMap]
# families whose generator P and base family's psi define their level curves
_ROOT_FAMILIES = (Lemniscate, InversePolynomialImage)


@dataclass(frozen=True, eq=False)
class CurveSample:
    """A discretization of one level curve.

    ``thetas`` holds the map-angle parameter of each point, a multiple
    2*pi*k/grid_size of the sampler's equispaced angle grid of grid_size
    angles.
    """

    r: float
    points: np.ndarray
    family: CurveFamily
    thetas: np.ndarray
    grid_size: int

    @property
    def size(self) -> int:
        return len(self.points)

    def to_csv_rows(self):
        return [
            (float(t), float(z.real), float(z.imag))
            for t, z in zip(self.thetas, self.points)
        ]


def _preimage(f: CurveFamily) -> tuple[ComplexPolynomial, LaurentSeriesAtInfinity]:
    """(P, psi) with L_r = P^{-1}(psi(|w| = r^m)), m = deg P: a root family's
    generator and its base family's psi, else z and the family's own psi."""
    if isinstance(f, _ROOT_FAMILIES):
        return f.P, f.base.psi
    psi = f.psi
    if psi is None:
        raise ValueError("an explicit map given phi cannot be sampled; give its inverse map psi")
    return ComplexPolynomial([0.0, 1.0]), psi


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
        s = series_power(f.base.map_of(f.P, depth + 2), (1, f.P.degree), depth + 2)
    else:
        s = f.map_of(ComplexPolynomial([0.0, 1.0]), depth + 2)
    phi = LaurentSeriesAtInfinity(s.coeffs[-1].real, s.coeffs[:-1][::-1], exact=s.exact)
    return phi.truncate(depth)  # pads the circle's exact z/R to the depth


def faber_basis(f: CurveFamily, n: int) -> list[ComplexPolynomial]:
    """Monic Faber polynomials Fhat_0 .. Fhat_n of the family.

    Families that carry psi (circle, interval, an explicit map given psi)
    take them from the Faber recurrence on psi; root families and an
    explicit map given phi from the powers of phi_series(f, n + 1).
    """
    if isinstance(f, _ROOT_FAMILIES) or f.psi is None:
        phi = phi_series(f, n + 1)
        return [monic_faber(phi, k) for k in range(n + 1)]
    return faber_recurrence(f.psi, n)


def _map_points_dd(psi: LaurentSeriesAtInfinity, unit: dd.DD, r) -> dd.DD:
    """psi(r * unit) in double-double for |unit| = 1 and r > 0 (double or
    DD), where 1/w = conj(unit)/r."""
    tail = dd.polyval(psi.tail, unit.conj() * dd.recip(r))
    return unit * r * psi.leading_coefficient + tail


# -- sampling ----------------------------------------------------------------


def sample_level_curve(f: CurveFamily, r: float, M: int) -> CurveSample:
    """m * ceil(M/m) points covering L_r, m = deg P (M for the circle, the
    interval and explicit maps, where P = z).

    Solves P(z) = psi(r^m exp(i*m*theta_j)) per angle, all m roots per
    target, deterministic ordering (theta-major, solver root order minor),
    so each angle is repeated m times in ``thetas``.  Coincident roots,
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
    return CurveSample(r=float(r), points=points, family=f, thetas=np.repeat(thetas, m),
                       grid_size=m * J)


def sample_points_dd(sample: CurveSample) -> dd.DD:
    """The sample's points to double-double accuracy, on L_r and at exactly
    equispaced map angles 2 pi k / grid_size.

    Double sampling leaves points about 1e-15 relative off the curve and
    off their angles, too coarse for polynomials whose values on the curve
    reach 1e16 and more: both the curve and the equal spacing (which makes
    uniform weights an exact quadrature of the harmonic measure) must
    hold to the digits the solution needs.  The targets psi(r^m e^(i m theta))
    are formed in double-double; a degree-1 P is solved in closed form, and
    otherwise one Newton step from the double roots, whose quadratic
    convergence takes their 1e-16 relative error to about 1e-32.
    """
    r, N = sample.r, sample.grid_size
    P, psi = _preimage(sample.family)
    m = P.degree
    k = np.rint(sample.thetas * (N / (2.0 * np.pi))).astype(np.int64)
    rho = dd.DD(r)
    for _ in range(m - 1):
        rho = rho * r
    target = _map_points_dd(psi, dd.roots_of_unity(N)[(m * k) % N], rho)
    if m == 1:
        return (target - P.coeffs[0]) * dd.recip(P.coeffs[1])
    z0 = dd.DD(sample.points)
    step = (target - dd.polyval(P.coeffs, z0)).to_complex()
    return z0 + step / P.derivative()(sample.points)


_CONTINUATION_STEPS = 5  # Newton steps; from a grid neighbour: 1e-2, 1e-4, 1e-8, ...


def points_at_angles(f: CurveFamily, r: float, thetas, near):
    """Points of L_r at map angles ``thetas`` off the sampler's grid, and the
    tangents dz/dtheta there.

    Solves P(z) = psi(r^m e^(i m theta)): in closed form for a degree-1 P,
    else by Newton steps from ``near``, points of L_r at nearby angles that
    pick the root, as ``sample_points_dd`` does.
    """
    P, psi = _preimage(f)
    m = P.degree
    w = r ** m * np.exp(1j * m * np.asarray(thetas, dtype=float))
    # psi'(w) = c - T'(1/w) / w^2, T the tail as a polynomial in 1/w
    dz = 1j * m * w * (psi.leading_coefficient - ComplexPolynomial(psi.tail).derivative()(1 / w) / w ** 2)
    target = psi.evaluate(w)
    if m == 1:
        c0, c1 = P.coeffs
        return (target - c0) / c1, dz / c1
    dP = P.derivative()
    z = np.broadcast_to(np.asarray(near, dtype=complex), w.shape)
    for _ in range(_CONTINUATION_STEPS):
        z = z - (P(z) - target) / dP(z)
    return z, dz / dP(z)


# -- JSON family specs -------------------------------------------------------


def _poly_to_pairs(p: ComplexPolynomial):
    return [[float(c.real), float(c.imag)] for c in p.coeffs]


def _poly_from_pairs(pairs) -> ComplexPolynomial:
    return ComplexPolynomial([complex(re, im) for re, im in pairs])


def family_to_json_dict(f: CurveFamily) -> dict:
    if isinstance(f, Circle):
        return {"family": "circle", "R": f.radius}
    if isinstance(f, Interval):
        return {"family": "interval"}
    if isinstance(f, Lemniscate):
        return {"family": "lemniscate", "P": _poly_to_pairs(f.P), "R": f.R}
    if isinstance(f, InversePolynomialImage):
        d = {"family": "inverse-image", "P": _poly_to_pairs(f.P)}
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
        if kind == "lemniscate":
            return Lemniscate(_poly_from_pairs(d["P"]), float(d.get("R", 1.0)))
        if kind == "inverse-image":
            pts = d.get("alternation_points")
            return InversePolynomialImage(_poly_from_pairs(d["P"]), pts)
        if kind == "explicit":
            phi = LaurentSeriesAtInfinity.from_json_dict(d["phi"]) if "phi" in d else None
            psi = LaurentSeriesAtInfinity.from_json_dict(d["psi"]) if "psi" in d else None
            return ExplicitMap(phi=phi, psi=psi)
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed {kind} family spec ({type(e).__name__}: {e})") from e
    raise ValueError(f"unknown family spec {kind!r}")
