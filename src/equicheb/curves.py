"""Exterior-map families with explicit level-curve samplers.

Level curves L_r = {|phi| = r} come from one of two mechanisms.  Circle,
Interval and ExplicitMap carry an inverse map psi (exact Laurent data for
the first two) and L_r is psi(|w| = r).  Lemniscate {|P| = R} and the
preimage P^{-1}([-1,1]) name a base family, Circle(R) or Interval(); their
map is (phi_base o P)^(1/m), so L_r is P^{-1} of the base family's level
curve at r^m, found by solving P(z) = psi_base(r^m e^(i m theta)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import dd
from .rootfind import RootFindingError, roots_after_constant_shifts
from .series import (
    ComplexPolynomial,
    LaurentSeries,
    LaurentSeriesAtInfinity,
    laurent_mul,
    revert_series,
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
    "sample_level_curve",
    "sample_points_dd",
    "points_at_angles",
    "lemniscate_point_set",
    "joukowski",
    "family_to_json_dict",
    "family_from_json_dict",
]


def joukowski(w):
    """Inverse map for the interval [-1,1]: circles |w|=r to ellipses."""
    w = np.asarray(w, dtype=complex)
    return (w + 1.0 / w) / 2.0


@dataclass(frozen=True)
class Circle:
    """K = circle of the given radius about the origin."""

    radius: float = 1.0

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def psi(self) -> LaurentSeriesAtInfinity:
        """Exact inverse map psi(w) = R w."""
        return LaurentSeriesAtInfinity(self.radius, [0.0], exact=True)

    def map_of(self, P: ComplexPolynomial, n_terms: int) -> LaurentSeries:
        """Series at infinity of phi(P(z)) = P(z)/R; exact, so all n_terms hold."""
        return P.to_series().scale(1.0 / self.radius)

    def preimage_leading_coefficient(self, P: ComplexPolynomial) -> float:
        """Leading coefficient of (phi o P)^(1/m), m = deg P: R^(-1/m) lead(P)^(1/m)."""
        m = P.degree
        return float(self.radius ** (-1.0 / m) * P.coeffs[-1].real ** (1.0 / m))


@dataclass(frozen=True)
class Interval:
    """K = [-1, 1]."""

    @property
    def psi(self) -> LaurentSeriesAtInfinity:
        """Exact inverse map psi(w) = (w + 1/w)/2, the Joukowski map."""
        return LaurentSeriesAtInfinity(0.5, [0.0, 0.5], exact=True)

    def map_of(self, P: ComplexPolynomial, n_terms: int) -> LaurentSeries:
        """Series at infinity of phi(P(z)) = P + sqrt(P^2 - 1), keeping
        n_terms coefficients down from the top power deg P."""
        p_series = P.to_series()
        p2 = laurent_mul(p_series, p_series) - LaurentSeries(0, [1.0], exact=True)
        return p_series + series_power(p2, (1, 2), n_terms)

    def preimage_leading_coefficient(self, P: ComplexPolynomial) -> float:
        """Leading coefficient of (phi o P)^(1/m), m = deg P: (2 lead(P))^(1/m)."""
        return float((2.0 * P.coeffs[-1].real) ** (1.0 / P.degree))


@dataclass(frozen=True, eq=False)
class Lemniscate:
    """K = {z : |P(z)| = R} for a monic polynomial P of degree >= 1."""

    P: ComplexPolynomial
    R: float = 1.0

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError("level R must be positive")
        if self.P.degree < 1:
            raise ValueError("generator degree must be at least 1")
        if not self.P.is_monic(0.0):
            raise ValueError("generator polynomial must be monic")

    @property
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

    @property
    def base(self) -> Interval:
        """K = P^{-1}([-1, 1])."""
        return Interval()


@dataclass(frozen=True, eq=False)
class ExplicitMap:
    """Family given directly by a map series phi and/or its inverse psi."""

    phi: Optional[LaurentSeriesAtInfinity] = None
    psi: Optional[LaurentSeriesAtInfinity] = None

    def __post_init__(self):
        if self.phi is None and self.psi is None:
            raise ValueError("need phi or psi")

    def phi_or_reverted(self, depth: int) -> LaurentSeriesAtInfinity:
        if self.phi is not None:
            return self.phi.truncate(depth)
        return revert_series(self.psi, depth)

    def psi_or_reverted(self) -> LaurentSeriesAtInfinity:
        if self.psi is not None:
            return self.psi
        return revert_series(self.phi, self.phi.depth)


CurveFamily = Union[Circle, Interval, Lemniscate, InversePolynomialImage, ExplicitMap]
# families sampled as P^{-1} of their base family's level curve at r^m
_ROOT_FAMILIES = (Lemniscate, InversePolynomialImage)


@dataclass(frozen=True, eq=False)
class CurveSample:
    """A discretization of one level curve.

    ``thetas`` holds the map-angle parameter of each point, a multiple
    2*pi*k/grid_size of the sampler's equispaced angle grid; ``phi_values``
    holds the exact map value r*exp(i*theta) at each point for families
    where the sampler knows the branch (None for multi-sheeted families).
    ``degenerate`` flags levels close to a critical value of a lemniscate
    generator, where the curve is not a Jordan curve.
    """

    r: float
    points: np.ndarray
    family: CurveFamily
    thetas: np.ndarray
    phi_values: Optional[np.ndarray] = None
    degenerate: bool = False
    grid_size: int = 0

    @property
    def size(self) -> int:
        return len(self.points)

    def to_csv_rows(self):
        return [
            (float(t), float(z.real), float(z.imag))
            for t, z in zip(self.thetas, self.points)
        ]


def capacity_leading_coefficient(f: CurveFamily) -> float:
    """Leading map coefficient c; the logarithmic capacity of K is 1/c.

    A root family's map is (phi_base o P)^(1/m), so c = (c_base lead(P))^(1/m).
    """
    if isinstance(f, _ROOT_FAMILIES):
        return f.base.preimage_leading_coefficient(f.P)
    if isinstance(f, ExplicitMap) and f.phi is not None:
        return f.phi.leading_coefficient
    return 1.0 / _inverse_map(f).leading_coefficient


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
        return f.phi_or_reverted(depth)
    if isinstance(f, _ROOT_FAMILIES):
        s = series_power(f.base.map_of(f.P, depth + 2), (1, f.P.degree), depth + 2)
    else:
        s = f.map_of(ComplexPolynomial([0.0, 1.0]), depth + 2)
    phi = LaurentSeriesAtInfinity(s.coeffs[-1].real, s.coeffs[:-1][::-1], exact=s.exact)
    return phi.truncate(depth)  # pads the circle's exact z/R to the depth


def _inverse_map(f: CurveFamily) -> LaurentSeriesAtInfinity:
    """psi of an inverse-map family: exact data, or the reverted phi."""
    if isinstance(f, ExplicitMap):
        return f.psi_or_reverted()
    return f.psi


def _map_points_dd(psi: LaurentSeriesAtInfinity, unit: dd.DD, r) -> dd.DD:
    """psi(r * unit) in double-double for |unit| = 1 and r > 0 (double or
    DD), where 1/w = conj(unit)/r."""
    tail = dd.polyval(psi.tail, unit.conj() * dd.recip(r))
    return unit * r * psi.leading_coefficient + tail


# -- sampling ----------------------------------------------------------------


def _dedup(points: np.ndarray, thetas: np.ndarray, phi_values):
    """Drop near-coincident points (pairwise distance <= 1e-12 * diameter).

    Greedy in real-part order: a point is dropped by the first kept point
    close to it.  Points within tol of each other are within tol in real
    part, so pairing each sorted point with its k-th successor, for k = 1,
    2, ... until no such pair is within tol in real part, finds every close
    pair.
    """
    n = len(points)
    if n < 2:
        return points, thetas, phi_values
    span = max(
        float(points.real.max() - points.real.min()),
        float(points.imag.max() - points.imag.min()),
    )
    tol = 1e-12 * max(span, 1e-300)
    order = np.argsort(points.real, kind="stable")
    zs = points[order]
    pairs = []
    for k in range(1, n):
        near = zs.real[k:] - zs.real[:-k] <= tol
        if not near.any():
            break
        first = np.flatnonzero(near & (np.abs(zs[k:] - zs[:-k]) <= tol))
        pairs.extend(zip(first, first + k))
    kept = np.ones(n, dtype=bool)
    for i, j in sorted(pairs):
        if kept[i]:
            kept[j] = False
    keep = np.empty(n, dtype=bool)
    keep[order] = kept
    points = points[keep]
    thetas = thetas[keep]
    if phi_values is not None:
        phi_values = phi_values[keep]
    return points, thetas, phi_values


def _lemniscate_degenerate(P: ComplexPolynomial, target_modulus: float) -> bool:
    """Level passes within 1% of a critical value of the generator."""
    dP = P.derivative()
    if dP.degree < 1:
        return False
    from .rootfind import all_roots

    try:
        crit = all_roots(dP).roots
    except RootFindingError:
        return False
    vals = np.abs(P(crit))
    return bool(np.any(np.abs(vals - target_modulus) <= 1e-2 * target_modulus))


def lemniscate_point_set(f: Lemniscate, rho: float, M: int) -> np.ndarray:
    """Points with |P(z)| = rho for any rho > 0.

    Level sets below the Jordan range are still well-defined point sets;
    the exterior-map structure (and sample_level_curve) needs r > 1."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    m = f.P.degree
    J = max(1, int(np.ceil(M / m)))
    targets = rho * np.exp(2j * np.pi * np.arange(J) / J)
    roots = roots_after_constant_shifts(f.P, targets)
    return roots.ravel()


def sample_level_curve(f: CurveFamily, r: float, M: int) -> CurveSample:
    """M points (m * ceil(M/m) for degree-m root families) covering L_r.

    Inverse-map families place points at psi(r*exp(i*theta_j)); root
    families solve P(z) = psi_base(r^m exp(i*m*theta_j)) per angle, all m
    roots per target, deterministic ordering (theta-major, solver root
    order minor).  Points are deduplicated.
    """
    if r <= 1.0:
        raise ValueError("level r must exceed 1")
    if M < 1:
        raise ValueError("sample size must be positive")
    degenerate = False
    grid_size = M
    if isinstance(f, _ROOT_FAMILIES):
        m = f.P.degree
        J = int(np.ceil(M / m))
        grid_size = m * J
        thetas_base = 2.0 * np.pi * np.arange(J) / (m * J)
        targets = f.base.psi.evaluate(r ** m * np.exp(1j * m * thetas_base))
        points = roots_after_constant_shifts(f.P, targets).ravel()
        thetas = np.repeat(thetas_base, m)
        phi_values = None
        degenerate = isinstance(f, Lemniscate) and _lemniscate_degenerate(f.P, f.R * r ** m)
    else:
        thetas = 2.0 * np.pi * np.arange(M) / M
        phi_values = r * np.exp(1j * thetas)
        points = _inverse_map(f).evaluate(phi_values)
    points, thetas, phi_values = _dedup(points, thetas, phi_values)
    return CurveSample(
        r=float(r),
        points=points,
        family=f,
        thetas=thetas,
        phi_values=phi_values,
        degenerate=degenerate,
        grid_size=grid_size,
    )


def sample_points_dd(sample: CurveSample) -> dd.DD:
    """The sample's points to double-double accuracy, on L_r and at exactly
    equispaced map angles 2 pi k / grid_size.

    Double sampling leaves points about 1e-15 relative off the curve and
    off their angles, too coarse for polynomials whose values on the curve
    reach 1e16 and more: both the curve and the equal spacing (which makes
    uniform weights an exact quadrature of the harmonic measure) must
    hold to the digits the solution needs.  Inverse-map families evaluate
    their map in double-double at r * exp(2 pi i k / N); root families form
    their targets so at level r^m and take one Newton step from their double
    roots, whose quadratic convergence takes the 1e-16 relative error of the
    double roots to about 1e-32.
    """
    f, r, N = sample.family, sample.r, sample.grid_size
    if N < 1:
        raise ValueError("sample carries no angle grid")
    k = np.rint(sample.thetas * (N / (2.0 * np.pi))).astype(np.int64)
    omega = dd.roots_of_unity(N)
    if isinstance(f, _ROOT_FAMILIES):
        m = f.P.degree
        rho = dd.DD(r)
        for _ in range(m - 1):
            rho = rho * r
        target = _map_points_dd(f.base.psi, omega[(m * k) % N], rho)
        z0 = dd.DD(sample.points)
        step = (target - dd.polyval(f.P.coeffs, z0)).to_complex()
        return z0 + step / f.P.derivative()(sample.points)
    return _map_points_dd(_inverse_map(f), omega[k % N], r)


_CONTINUATION_STEPS = 5  # Newton steps; from a grid neighbour: 1e-2, 1e-4, 1e-8, ...


def points_at_angles(f: CurveFamily, r: float, thetas, near):
    """Points of L_r at map angles ``thetas`` off the sampler's grid, and the
    tangents dz/dtheta there.

    Inverse-map families evaluate psi(r e^(i theta)).  Root families take
    Newton steps on P(z) = psi_base(r^m e^(i m theta)) from ``near``, points
    of L_r at nearby angles that pick the root, as ``sample_points_dd`` does.
    """
    root = isinstance(f, _ROOT_FAMILIES)
    m, psi = (f.P.degree, f.base.psi) if root else (1, _inverse_map(f))
    w = r ** m * np.exp(1j * m * np.asarray(thetas, dtype=float))
    # psi'(w) = c - T'(1/w) / w^2, T the tail as a polynomial in 1/w
    dz = 1j * m * w * (psi.leading_coefficient - ComplexPolynomial(psi.tail).derivative()(1 / w) / w ** 2)
    if not root:
        return psi.evaluate(w), dz
    target, dP = psi.evaluate(w), f.P.derivative()
    z = np.broadcast_to(np.asarray(near, dtype=complex), w.shape)
    for _ in range(_CONTINUATION_STEPS):
        z = z - (f.P(z) - target) / dP(z)
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
