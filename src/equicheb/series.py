"""Map series at infinity, Faber polynomials, and basis changes.

A map series, LaurentSeriesAtInfinity, holds c*z + tail(1/z) to a stated
depth; ``exact`` marks a Laurent polynomial, known at every depth.  Every
reader of a series that needs coefficients below its depth (``truncate``
and the Faber kernels) raises DepthExhaustionError instead of guessing, so
that high-degree Faber coefficients can never be silently corrupted by
truncation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DepthExhaustionError",
    "NotMonicError",
    "LaurentSeriesAtInfinity",
    "ComplexPolynomial",
    "faber_powers",
    "monic_faber",
    "faber_recurrence",
    "faber_basis_expand",
    "horner",
]


class DepthExhaustionError(ValueError):
    """Requested coefficients lie below a series' known depth."""


class NotMonicError(ValueError):
    """Operation requires a monic polynomial."""


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

    def evaluate(self, z):
        """c z + tail(1/z) at points z, the tail by ``horner`` in 1/z."""
        z = np.asarray(z, dtype=complex)
        return self.leading_coefficient * z + horner(self.tail, 1.0 / z)

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
        c = float(d["c"])
        if not np.isfinite(c) or not np.isfinite(tail).all():
            raise ValueError("series coefficients must be finite")
        exact = d.get("exact", False)
        if not isinstance(exact, bool):
            raise ValueError("exact must be true or false")
        return LaurentSeriesAtInfinity(c, tail, exact=exact)

    def __repr__(self):
        return (
            f"LaurentSeriesAtInfinity(c={self.leading_coefficient}, depth={self.depth}, "
            f"exact={self.exact})"
        )


def horner(c, z: np.ndarray) -> np.ndarray:
    """Horner's rule on the ascending coefficients c at complex points z,
    started from c_n z + c_(n-1) rather than from zero.  Each c_k is a
    scalar, or an array of coefficients that broadcasts against z, so that
    one pass evaluates a polynomial per point or per row of points (a lower
    degree padded with leading zeros, which leave the accumulator an exact
    zero)."""
    if len(c) == 1:
        return np.zeros_like(z) * z + c[0]
    acc = c[-1] * z + c[-2]
    for a in c[-3::-1]:
        acc = acc * z + a
    return acc


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

    def leading(self) -> complex:
        return complex(self.coeffs[-1])

    def is_monic(self, tol: float = 1e-12) -> bool:
        return abs(self.leading() - 1.0) <= tol

    def __call__(self, z):
        return horner(self.coeffs, np.asarray(z, dtype=complex))

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

    def derivative(self) -> "ComplexPolynomial":
        if self.degree == 0:
            return ComplexPolynomial([0.0])
        return ComplexPolynomial(self.coeffs[1:] * np.arange(1, len(self.coeffs)))

    def coefficient_distance(self, other: "ComplexPolynomial") -> float:
        return float(np.abs((self - other).coeffs).max())

    def to_json_dict(self) -> dict:
        return {"coeffs": [[float(v.real), float(v.imag)] for v in self.coeffs]}

    @staticmethod
    def from_json_dict(d: dict) -> "ComplexPolynomial":
        return ComplexPolynomial([complex(re, im) for re, im in d["coeffs"]])

    def __repr__(self):
        return f"ComplexPolynomial(degree={self.degree})"


def faber_powers(phi: LaurentSeriesAtInfinity, n: int) -> list[ComplexPolynomial]:
    """Monic Faber polynomials Fhat_0 .. Fhat_n of the map
    phi(z) = c z + a_0 + a_1/z + ..., the polynomial parts of (phi/c)^k.

    Writing phi/(c z) = 1 + v(1/z) gives (phi/c)^k = z^k (1 + v)^k, so
    Fhat_k is the first k + 1 coefficients of (1 + v)^k in 1/z, reversed;
    one product per degree carries (1 + v)^k, truncated at 1/z^n, to the
    next.  Exact for an exact phi at any degree.  Fhat_n needs
    a_0 .. a_(n-1), so an inexact phi must reach depth n - 1.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    need = max(n - 1, 0)
    if not phi.exact and phi.depth < need:
        raise DepthExhaustionError(
            f"phi depth {phi.depth} cannot give the degree-{n} Faber polynomial "
            f"(needs depth {need})"
        )
    v = np.append(1.0, phi.truncate(need).tail / phi.leading_coefficient)[: n + 1]
    g = np.ones(1, dtype=complex)  # (1 + v)^k in powers of 1/z
    out = [ComplexPolynomial(g)]
    for k in range(1, n + 1):
        g = np.convolve(g, v)[: n + 1]
        out.append(ComplexPolynomial(g[k::-1]))
    return out


def monic_faber(phi: LaurentSeriesAtInfinity, n: int) -> ComplexPolynomial:
    """Monic Faber polynomial Fhat_n of the map phi (``faber_powers``)."""
    return faber_powers(phi, n)[n]


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


# distance of a leading coefficient from 1 that faber_basis_expand accepts
_MONIC_TOL = 1e-9


def faber_basis_expand(q: ComplexPolynomial, basis: list[ComplexPolynomial]) -> np.ndarray:
    """Coefficients alpha of a monic polynomial q over a monic Faber basis,
    ``basis[k]`` of degree k for k = 0 .. deg q at least
    (``curves.faber_basis``):  q = basis[n] + sum_{k<n} alpha[k] basis[k],
    n = deg q.

    Back-substitution through the unit-upper-triangular change of basis:
    the degree-k basis element is monic, so alpha_k is read off the z^k
    coefficient of the running remainder.
    """
    n = q.degree
    if not q.is_monic(_MONIC_TOL):
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
    return alpha
