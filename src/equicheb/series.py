"""Truncated Laurent series at infinity, Faber polynomials, and basis changes.

A series here is a finite window of exactly-known coefficients.  Every
operation states which output coefficients are exact, so that high-degree
Faber coefficients can never be silently corrupted by truncation: if an
operation cannot guarantee a coefficient, it raises DepthExhaustionError
instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DepthExhaustionError",
    "NotMonicError",
    "LaurentSeries",
    "LaurentSeriesAtInfinity",
    "ComplexPolynomial",
    "FaberExpansion",
    "laurent_mul",
    "laurent_pow",
    "series_power",
    "polynomial_part",
    "faber_polynomial",
    "monic_faber",
    "faber_recurrence",
    "faber_basis_expand",
]


class DepthExhaustionError(ValueError):
    """Requested coefficients lie below the exactly-known window."""


class NotMonicError(ValueError):
    """Operation requires a monic polynomial."""


@dataclass(frozen=True, eq=False)
class LaurentSeries:
    """Finite Laurent expansion  sum_{k=low..top} coeffs[k-low] * z^k.

    ``exact=True`` means all coefficients outside the window are exactly
    zero (a Laurent polynomial).  ``exact=False`` means coefficients below
    ``low`` are unknown, i.e. the series carries an O(z^(low-1)) error term;
    coefficients above ``top`` are still exactly zero (series at infinity).
    """

    low: int
    coeffs: np.ndarray
    exact: bool = False

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=complex).ravel())
        if len(self.coeffs) == 0:
            raise ValueError("empty coefficient window")

    @property
    def top(self) -> int:
        return self.low + len(self.coeffs) - 1

    @property
    def depth(self) -> int:
        """Depth below z^0 of the known window (-low); negative if low > 0."""
        return -self.low

    def coeff(self, k: int) -> complex:
        """Exact coefficient of z^k; raises if k is in the unknown tail."""
        if k > self.top:
            return 0.0 + 0.0j
        if k < self.low:
            if self.exact:
                return 0.0 + 0.0j
            raise DepthExhaustionError(
                f"coefficient of z^{k} is below the known window (low={self.low})"
            )
        return complex(self.coeffs[k - self.low])

    def truncate(self, low: int) -> "LaurentSeries":
        """Drop coefficients below z^low (window shrink, exactness given up)."""
        if low <= self.low:
            if self.exact and low < self.low:
                pad = np.zeros(self.low - low, dtype=complex)
                return LaurentSeries(low, np.concatenate([pad, self.coeffs]), exact=True)
            return self
        if low > self.top:
            raise DepthExhaustionError("truncation would leave no coefficients")
        return LaurentSeries(low, self.coeffs[low - self.low :], exact=False)

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        lo = min(self.low, other.low)
        if not self.exact:
            lo = max(lo, self.low)
        if not other.exact:
            lo = max(lo, other.low)
        hi = max(self.top, other.top)
        if lo > hi:
            raise DepthExhaustionError("sum has no exactly-known coefficients")
        out = np.zeros(hi - lo + 1, dtype=complex)
        for s in (self, other):
            a, b = max(lo, s.low), min(hi, s.top)
            if a <= b:
                out[a - lo : b - lo + 1] += s.coeffs[a - s.low : b - s.low + 1]
        return LaurentSeries(lo, out, exact=self.exact and other.exact)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        return self + (-other)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries(self.low, -self.coeffs, exact=self.exact)

    def scale(self, factor: complex) -> "LaurentSeries":
        return LaurentSeries(self.low, self.coeffs * factor, exact=self.exact)

    def __repr__(self):
        return f"LaurentSeries(low={self.low}, top={self.top}, exact={self.exact})"


def as_series(s) -> LaurentSeries:
    if isinstance(s, LaurentSeries):
        return s
    if isinstance(s, LaurentSeriesAtInfinity):
        return s.to_series()
    raise TypeError(f"cannot interpret {type(s).__name__} as a Laurent series")


def laurent_mul(a, b) -> LaurentSeries:
    """Product of two series; output window = what both inputs can support.

    With windows [la, ta] and [lb, tb] and unknown tails O(z^(la-1)),
    O(z^(lb-1)), the product is exact on [max(la+tb, lb+ta), ta+tb];
    exact inputs do not contaminate.
    """
    a, b = as_series(a), as_series(b)
    top = a.top + b.top
    lo = a.low + b.low
    if not a.exact:
        lo = max(lo, a.low + b.top)
    if not b.exact:
        lo = max(lo, b.low + a.top)
    if lo > top:
        raise DepthExhaustionError("product has no exactly-known coefficients")
    conv = np.convolve(a.coeffs, b.coeffs)
    # conv[i] is the coefficient of z^(a.low+b.low+i)
    start = lo - (a.low + b.low)
    return LaurentSeries(lo, conv[start:], exact=a.exact and b.exact)


def laurent_pow(phi, n: int) -> LaurentSeries:
    """n-th power of a series at infinity by binary exponentiation.

    For a map series with depth m the result is exact on powers
    z^(n-1-m) .. z^n, so the polynomial part of the result is exact as
    soon as m >= n - 1; the contract below demands m >= n (one spare).
    """
    if n < 0:
        raise ValueError("nonnegative exponent required")
    if isinstance(phi, LaurentSeriesAtInfinity):
        if not phi.exact and phi.depth < n:
            raise DepthExhaustionError(
                f"series depth {phi.depth} insufficient for exponent {n} (need >= n)"
            )
    s = as_series(phi)
    if n == 0:
        return LaurentSeries(0, [1.0], exact=True)
    result = None
    base = s
    k = n
    while k:
        if k & 1:
            result = base if result is None else laurent_mul(result, base)
        k >>= 1
        if k:
            base = laurent_mul(base, base)
    return result


def series_power(s, exponent: tuple[int, int], n_terms: int) -> LaurentSeries:
    """Principal power s^(p/m), exponent = (p, m), of a series with positive
    real leading coefficient.

    Writes s = a * z^T * (1 + v(1/z)) and applies J. C. P. Miller's
    recurrence for (1+v)^(p/m); m must divide p*T.  The result keeps n_terms
    coefficients down from its top power p*T/m; an inexact s must hold as many.
    """
    s = as_series(s)
    p, m = exponent
    if (s.top * p) % m:
        raise ValueError("top power times the exponent must be an integer")
    lead = s.coeffs[-1]
    if not (lead.imag == 0.0 and lead.real > 0):
        raise ValueError("leading coefficient must be positive real")
    if not s.exact and len(s.coeffs) < n_terms:
        raise DepthExhaustionError("series window too shallow for requested power depth")
    # v in the variable u = 1/z: v[j] = coeff of z^(T-j) / lead, v[0] = 1
    v = np.zeros(n_terms, dtype=complex)
    have = min(len(s.coeffs), n_terms)
    v[:have] = s.coeffs[::-1][:have] / lead
    alpha = p / m
    g = np.zeros(n_terms, dtype=complex)
    g[0] = 1.0
    for k in range(1, n_terms):
        acc = 0.0 + 0.0j
        for j in range(1, k + 1):
            if v[j] != 0:
                acc += ((alpha + 1.0) * j - k) * v[j] * g[k - j]
        g[k] = acc / k
    out_top = s.top * p // m
    coeffs = (float(lead.real) ** alpha) * g[::-1]
    return LaurentSeries(out_top - (n_terms - 1), coeffs, exact=False)


def polynomial_part(s) -> "ComplexPolynomial":
    """Coefficients of the nonnegative powers of a series.

    Raises DepthExhaustionError if any nonnegative-power coefficient lies
    in the unknown tail; silent zeros would corrupt Faber generation.
    """
    s = as_series(s)
    if s.top < 0:
        return ComplexPolynomial([0.0])
    if s.low > 0 and not s.exact:
        raise DepthExhaustionError(
            f"nonnegative powers 0..{s.low - 1} are unknown (window starts at z^{s.low})"
        )
    coeffs = np.zeros(s.top + 1, dtype=complex)
    a = max(0, s.low)
    coeffs[a:] = s.coeffs[a - s.low :]
    return ComplexPolynomial(coeffs)


@dataclass(frozen=True, eq=False)
class LaurentSeriesAtInfinity:
    """Map-shaped series  c*z + tail[0] + tail[1]/z + ... + tail[m]/z^m.

    ``leading_coefficient`` is the positive real c; ``tail[k]`` is the
    coefficient of z^-k.  ``exact=True`` marks a finite Laurent polynomial
    (e.g. the identity map), for which the depth contract never binds.
    """

    leading_coefficient: float
    tail: np.ndarray = field(default_factory=lambda: np.zeros(1, dtype=complex))
    exact: bool = False

    def __post_init__(self):
        object.__setattr__(self, "tail", np.asarray(self.tail, dtype=complex).ravel())
        c = self.leading_coefficient
        if not (np.isreal(c) and float(np.real(c)) > 0):
            raise ValueError("leading coefficient must be a positive real")
        object.__setattr__(self, "leading_coefficient", float(np.real(c)))
        if len(self.tail) == 0:
            object.__setattr__(self, "tail", np.zeros(1, dtype=complex))

    @property
    def depth(self) -> int:
        return len(self.tail) - 1

    def to_series(self) -> LaurentSeries:
        coeffs = np.concatenate([self.tail[::-1], [self.leading_coefficient]])
        return LaurentSeries(-self.depth, coeffs, exact=self.exact)

    def evaluate(self, z):
        """c z + tail(1/z) at points z, the tail by Horner in 1/z."""
        z = np.asarray(z, dtype=complex)
        u = 1.0 / z
        acc = np.full_like(u, self.tail[-1])
        for c in self.tail[-2::-1]:
            acc = acc * u + c
        return self.leading_coefficient * z + acc

    def truncate(self, depth: int) -> "LaurentSeriesAtInfinity":
        if depth > self.depth:
            if self.exact:
                pad = np.zeros(depth - self.depth, dtype=complex)
                return LaurentSeriesAtInfinity(
                    self.leading_coefficient, np.concatenate([self.tail, pad]), exact=True
                )
            raise DepthExhaustionError(f"depth {depth} exceeds stored depth {self.depth}")
        return LaurentSeriesAtInfinity(
            self.leading_coefficient, self.tail[: depth + 1], exact=False if depth < self.depth else self.exact
        )

    def to_json_dict(self) -> dict:
        return {
            "c": self.leading_coefficient,
            "tail": [[float(v.real), float(v.imag)] for v in self.tail],
            "exact": self.exact,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "LaurentSeriesAtInfinity":
        tail = np.array([complex(re, im) for re, im in d["tail"]], dtype=complex)
        exact = d.get("exact", False)
        if not isinstance(exact, bool):
            raise ValueError("exact must be true or false")
        return LaurentSeriesAtInfinity(float(d["c"]), tail, exact=exact)

    def __repr__(self):
        return (
            f"LaurentSeriesAtInfinity(c={self.leading_coefficient}, depth={self.depth}, "
            f"exact={self.exact})"
        )


@dataclass(frozen=True, eq=False)
class ComplexPolynomial:
    """Dense complex polynomial, coefficients in ascending degree order."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=complex).ravel()
        # normalize: drop trailing zero coefficients, keep at least one
        nz = np.nonzero(arr)[0]
        arr = arr[: nz[-1] + 1] if len(nz) else arr[:1]
        object.__setattr__(self, "coeffs", arr)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.degree == 0 and self.coeffs[0] == 0

    def leading(self) -> complex:
        return complex(self.coeffs[-1])

    def is_monic(self, tol: float = 1e-12) -> bool:
        return abs(self.leading() - 1.0) <= tol

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        acc = np.zeros_like(z)
        for c in self.coeffs[::-1]:
            acc = acc * z + c
        return acc

    def __add__(self, other: "ComplexPolynomial") -> "ComplexPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        out = np.zeros(n, dtype=complex)
        out[: len(self.coeffs)] += self.coeffs
        out[: len(other.coeffs)] += other.coeffs
        return ComplexPolynomial(out)

    def __sub__(self, other: "ComplexPolynomial") -> "ComplexPolynomial":
        return self + (-other)

    def __neg__(self) -> "ComplexPolynomial":
        return ComplexPolynomial(-self.coeffs)

    def __mul__(self, other):
        if isinstance(other, ComplexPolynomial):
            return ComplexPolynomial(np.convolve(self.coeffs, other.coeffs))
        return ComplexPolynomial(self.coeffs * complex(other))

    __rmul__ = __mul__

    def to_series(self) -> LaurentSeries:
        return LaurentSeries(0, self.coeffs, exact=True)

    def derivative(self) -> "ComplexPolynomial":
        if self.degree == 0:
            return ComplexPolynomial([0.0])
        return ComplexPolynomial(self.coeffs[1:] * np.arange(1, len(self.coeffs)))

    def coefficient_distance(self, other: "ComplexPolynomial") -> float:
        n = max(len(self.coeffs), len(other.coeffs))
        a = np.zeros(n, dtype=complex)
        b = np.zeros(n, dtype=complex)
        a[: len(self.coeffs)] = self.coeffs
        b[: len(other.coeffs)] = other.coeffs
        return float(np.abs(a - b).max())

    def to_json_dict(self) -> dict:
        return {"coeffs": [[float(v.real), float(v.imag)] for v in self.coeffs]}

    @staticmethod
    def from_json_dict(d: dict) -> "ComplexPolynomial":
        return ComplexPolynomial([complex(re, im) for re, im in d["coeffs"]])

    def __repr__(self):
        return f"ComplexPolynomial(degree={self.degree})"


def faber_polynomial(phi: LaurentSeriesAtInfinity, n: int) -> ComplexPolynomial:
    """Polynomial part of the n-th power of the map series.

    Degree is exactly n with leading coefficient c^n.  Requires depth >= n
    (raises DepthExhaustionError otherwise) so every retained coefficient
    is exact.
    """
    p = polynomial_part(laurent_pow(phi, n))
    if p.degree != n:
        raise AssertionError("power lost its leading term")  # c > 0 forbids this
    return p


def monic_faber(phi: LaurentSeriesAtInfinity, n: int) -> ComplexPolynomial:
    """Monic renormalization c^-n * (polynomial part of the n-th power)."""
    p = faber_polynomial(phi, n)
    out = p.coeffs / (phi.leading_coefficient ** n)
    out[-1] = 1.0
    return ComplexPolynomial(out)


def faber_recurrence(psi: LaurentSeriesAtInfinity, n: int) -> list[ComplexPolynomial]:
    """Monic Faber polynomials Fhat_0 .. Fhat_n of the map whose inverse is
    psi(w) = a w + b_0 + b_1/w + ...

    Matching powers of w in the generating function
    psi'(w) / (psi(w) - z) = sum_j F_j(z) w^(-j-1)  (Curtiss 1971) and
    scaling Fhat_j = a^j F_j gives
    Fhat_(j+1) = (z - b_0) Fhat_j - sum_(k=1..j) b_k a^k Fhat_(j-k) - j b_j a^j,
    exact for an exact psi at any degree.  Fhat_n needs b_0 .. b_(n-1), so an
    inexact psi must reach depth n - 1.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    need = max(n - 1, 0)
    if not psi.exact and psi.depth < need:
        raise DepthExhaustionError(
            f"psi depth {psi.depth} cannot give the degree-{n} Faber polynomial "
            f"(needs depth {need})"
        )
    b = psi.truncate(need).tail
    g = b * psi.leading_coefficient ** np.arange(len(b))  # b_k a^k
    F = np.zeros((n + 1, n + 1), dtype=complex)  # row j: Fhat_j, ascending
    F[0, 0] = 1.0
    for j in range(n):
        F[j + 1, 1:] = F[j, :-1]
        F[j + 1] -= b[0] * F[j]
        if j:
            F[j + 1] -= g[1 : j + 1] @ F[j - 1 :: -1]
            F[j + 1, 0] -= j * g[j]
    return [ComplexPolynomial(F[k, : k + 1]) for k in range(n + 1)]


@dataclass(frozen=True, eq=False)
class FaberExpansion:
    """Coefficients of a monic polynomial over a monic Faber basis.

    With basis elements B_k = ``basis[k]`` (monic of degree k), the expanded
    polynomial is  B_n + sum_{k<n} alpha[k] * B_k.
    """

    degree: int
    alpha: np.ndarray
    basis: list[ComplexPolynomial]

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=complex).ravel())
        if len(self.alpha) != self.degree:
            raise ValueError("alpha must have length equal to the degree")

    def reconstruct(self) -> ComplexPolynomial:
        out = self.basis[self.degree]
        for k in range(self.degree):
            if self.alpha[k] != 0:
                out = out + self.alpha[k] * self.basis[k]
        return out

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "alpha": [[float(v.real), float(v.imag)] for v in self.alpha],
        }


def faber_basis_expand(
    q: ComplexPolynomial, basis: list[ComplexPolynomial], monic_tol: float = 1e-9
) -> FaberExpansion:
    """Expand a monic polynomial over a monic Faber basis, ``basis[k]`` of
    degree k for k = 0 .. deg q at least (``curves.faber_basis``).

    Back-substitution through the unit-upper-triangular change of basis:
    the degree-k basis element is monic, so alpha_k is read off the z^k
    coefficient of the running remainder.
    """
    n = q.degree
    if not q.is_monic(monic_tol):
        raise NotMonicError(f"leading coefficient {q.leading()} is not 1")
    if len(basis) <= n:
        raise ValueError(f"basis of degrees 0..{len(basis) - 1} cannot expand degree {n}")
    rem = np.zeros(n + 1, dtype=complex)
    rem[: len(q.coeffs)] = q.coeffs
    rem[: len(basis[n].coeffs)] -= basis[n].coeffs
    alpha = np.zeros(n, dtype=complex)
    for k in range(n - 1, -1, -1):
        alpha[k] = rem[k]
        if alpha[k] != 0:
            rem[: k + 1] -= alpha[k] * basis[k].coeffs
    return FaberExpansion(n, alpha, basis[: n + 1])
