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
    "polynomial_part",
    "faber_polynomial",
    "monic_faber",
    "faber_basis_expand",
    "revert_series",
    "compose_at_infinity",
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

    def evaluate(self, z):
        """Evaluate the known window at points z (Horner in 1/z)."""
        z = np.asarray(z, dtype=complex)
        acc = np.zeros_like(z)
        for c in self.coeffs:
            acc = acc / z + c
        return acc * z ** float(self.top)

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
        }

    @staticmethod
    def from_json_dict(d: dict) -> "LaurentSeriesAtInfinity":
        tail = np.array([complex(re, im) for re, im in d["tail"]], dtype=complex)
        return LaurentSeriesAtInfinity(float(d["c"]), tail)

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

    def monic(self) -> "ComplexPolynomial":
        if self.is_zero:
            raise ValueError("zero polynomial cannot be made monic")
        out = self.coeffs / self.coeffs[-1]
        out[-1] = 1.0
        return ComplexPolynomial(out)

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


@dataclass(frozen=True, eq=False)
class FaberExpansion:
    """Coefficients of a monic polynomial over the monic Faber basis.

    With basis elements B_k (monic of degree k, from ``reference``), the
    expanded polynomial is  B_n + sum_{k<n} alpha[k] * B_k.
    """

    degree: int
    alpha: np.ndarray
    reference: LaurentSeriesAtInfinity

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=complex).ravel())
        if len(self.alpha) != self.degree:
            raise ValueError("alpha must have length equal to the degree")

    def reconstruct(self) -> ComplexPolynomial:
        out = monic_faber(self.reference, self.degree)
        for k in range(self.degree):
            if self.alpha[k] != 0:
                out = out + self.alpha[k] * monic_faber(self.reference, k)
        return out

    def to_json_dict(self) -> dict:
        return {
            "degree": self.degree,
            "alpha": [[float(v.real), float(v.imag)] for v in self.alpha],
        }


def faber_basis_expand(
    q: ComplexPolynomial, phi: LaurentSeriesAtInfinity, monic_tol: float = 1e-9
) -> FaberExpansion:
    """Expand a monic polynomial over the monic Faber basis of the map.

    Back-substitution through the unit-upper-triangular change of basis:
    the degree-k basis element is monic, so alpha_k is read off the z^k
    coefficient of the running remainder.
    """
    n = q.degree
    if not q.is_monic(monic_tol):
        raise NotMonicError(f"leading coefficient {q.leading()} is not 1")
    if not phi.exact and phi.depth < n:
        raise DepthExhaustionError(f"series depth {phi.depth} < polynomial degree {n}")
    basis = [monic_faber(phi, k) for k in range(n + 1)]
    rem = np.zeros(n + 1, dtype=complex)
    rem[: len(q.coeffs)] = q.coeffs
    rem[: len(basis[n].coeffs)] -= basis[n].coeffs
    alpha = np.zeros(n, dtype=complex)
    for k in range(n - 1, -1, -1):
        alpha[k] = rem[k]
        if alpha[k] != 0:
            rem[: k + 1] -= alpha[k] * basis[k].coeffs
    return FaberExpansion(n, alpha, phi)


# ---------------------------------------------------------------------------
# Series reversion (compositional inverse) and composition at infinity.
# Internally these work on raw coefficient arrays in the variable u = 1/z:
# a map-shaped series is  z * (a0 + a1*u + a2*u^2 + ...) with a0 = c.
# ---------------------------------------------------------------------------


def _u_mul(a: np.ndarray, b: np.ndarray, width: int) -> np.ndarray:
    return np.convolve(a, b)[:width]


def _u_reciprocal(v: np.ndarray, width: int) -> np.ndarray:
    """Taylor reciprocal of v (in the variable u) with v[0] != 0."""
    out = np.zeros(width, dtype=complex)
    out[0] = 1.0 / v[0]
    for k in range(1, width):
        m = min(k, len(v) - 1)
        acc = np.dot(v[1 : m + 1], out[k - m : k][::-1]) if m > 0 else 0.0
        out[k] = -acc / v[0]
    return out


def _eval_map_at_map(b: np.ndarray, n_tail: int, f: np.ndarray, prec: int, with_derivative: bool):
    """Evaluate a map series (u-form b, tail terms b[2..n_tail+1]) at w = z*f(u).

    Returns val with  outer(inner(z)) = z * val(u), and optionally the plain
    u-series of outer'(inner(z)).  All arrays truncated at width prec.
    """
    g = _u_reciprocal(f[:prec], prec)  # 1/inner = u * g(u)
    val = b[0] * f[:prec].copy()
    val = val.astype(complex)
    val[1] += b[1]
    der = None
    if with_derivative:
        der = np.zeros(prec, dtype=complex)
        der[0] = b[0]
    gpow = np.zeros(prec, dtype=complex)
    gpow[0] = 1.0
    for j in range(1, n_tail + 1):
        gpow = _u_mul(gpow, g, prec)  # g^j
        bj = b[j + 1]
        if bj != 0 and j + 1 < prec:
            # b_j * w^-j = b_j * u^j * g^j; in z*series form that is u^(j+1)*g^j
            val[j + 1 :] += bj * gpow[: prec - (j + 1)]
        if with_derivative and bj != 0:
            gj1 = _u_mul(gpow, g, prec)
            if j + 1 < prec:
                der[j + 1 :] += -j * bj * gj1[: prec - (j + 1)]
    return val, der


def _map_u_form(s: LaurentSeriesAtInfinity, depth: int) -> np.ndarray:
    b = np.zeros(depth + 2, dtype=complex)
    b[0] = s.leading_coefficient
    m = min(depth, s.depth)
    b[1 : m + 2] = s.tail[: m + 1]
    return b


def compose_at_infinity(
    outer: LaurentSeriesAtInfinity, inner: LaurentSeriesAtInfinity, depth: int
) -> LaurentSeries:
    """outer(inner(z)) as a Laurent series with powers z^1 .. z^-depth.

    Composing a map with its reversion yields the identity up to
    O(z^-depth); this is the verification used by revert_series.
    """
    width = depth + 2
    b = _map_u_form(outer, depth)
    f = _map_u_form(inner, depth)
    val, _ = _eval_map_at_map(b, min(depth, outer.depth), f, width, with_derivative=False)
    return LaurentSeries(-depth, val[::-1], exact=False)


def revert_series(
    psi: LaurentSeriesAtInfinity, depth: int | None = None
) -> LaurentSeriesAtInfinity:
    """Compositional inverse of a map-shaped series at infinity.

    Newton iteration on formal series with doubling precision, seeded by
    z/c - c0/c; each step is exact through twice as many tail terms as the
    last.  The result phi satisfies psi(phi(z)) = z + O(z^-depth).
    Requires depth(psi) >= depth unless psi is exact.  Deep reversions
    can lose their accuracy to rounding, as the terms of the
    coefficient-wise composition cancel (the interval's map reverts
    exactly up to depth 50 and is off by 1e2 at depth 60); the result is
    verified and such a loss raises DepthExhaustionError.
    """
    if depth is None:
        depth = psi.depth
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if not psi.exact and psi.depth < depth:
        raise DepthExhaustionError(
            f"input depth {psi.depth} cannot support requested output depth {depth}"
        )
    width = depth + 2
    c = psi.leading_coefficient
    b = _map_u_form(psi, depth)
    n_tail = min(depth, psi.depth)

    # seed exact through u^1: phi = z/c - c0/c
    cur = np.zeros(width, dtype=complex)
    cur[0] = 1.0 / c
    cur[1] = -b[1] / c

    prec = 2
    while prec < width:
        prec = min(2 * prec, width)
        val, der = _eval_map_at_map(b, n_tail, cur, prec, with_derivative=True)
        # psi(phi(z)) - z = z * (val - e0); as a plain u-series this shifts by one
        resid_plain = np.zeros(prec, dtype=complex)
        resid_plain[: prec - 1] = val[1:prec]
        corr = _u_mul(resid_plain, _u_reciprocal(der, prec), prec)
        # phi_new = phi - corr(u);  corr = z * u * corr(u) in map form
        nxt = cur.copy()
        nxt[1:prec] = nxt[1:prec] - corr[: prec - 1]
        cur = nxt
    phi = LaurentSeriesAtInfinity(cur[0].real, cur[1 : depth + 2])
    # verify: composing back yields the identity to the stated depth
    check = compose_at_infinity(psi, phi, depth)
    ident = np.zeros(depth + 2, dtype=complex)
    ident[-1] = 1.0  # z^1 entry of the ascending window [-depth .. 1]
    err = float(np.abs(check.coeffs - ident).max())
    scale = max(1.0, float(np.abs(psi.tail).max(initial=0.0)), c, 1.0 / c)
    if err > 1e-8 * scale * scale:
        raise DepthExhaustionError(
            f"reversion lost its accuracy to rounding at depth {depth} "
            f"(verification residual {err:.2e}): the terms of the composition "
            "cancel, so a smaller depth is needed"
        )
    return phi
