"""Vectorized complex double-double arithmetic, and ``refine``, the
precision-limited path of the minimax solve, which resolves to ``EPS``.

A value is the unevaluated sum hi + lo of two complex float64 arrays,
carrying about 32 significant digits per component.  Only what ``refine``
needs is here: sums, products, conjugates, reciprocals of positive reals,
powers, roots of unity, and matrix-vector products.  Products use
Dekker's splitting and sums Knuth's two-sum, both error-free
transformations in plain float64 arithmetic, applied to the real and
imaginary parts alike; matrix-vector products split their operands so
that BLAS sums them exactly.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .curves import CurveSample, _preimage
from .series import ComplexPolynomial

__all__ = ["EPS", "DD", "dot", "polyval", "recip", "roots_of_unity", "refine"]

EPS = np.finfo(float).eps ** 2  # resolution, relative to the monic coefficient
_MAX_STEPS = 4  # refinement steps

_SPLITTER = 134217729.0  # 2**27 + 1


def _two_sum(a, b):
    """s + e == a + b exactly, s = fl(a + b) (componentwise for complex)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _split(a):
    """a == hi + lo with hi holding the top 26 bits of each component."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def _cplx(re, im):
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def _two_prod(a, b):
    """p + e == a * b for complex doubles, to within eps^2 of |a||b|."""
    ah, al = _split(a)
    bh, bl = _split(b)
    # a times one real component of b is two real products per operation
    pr = a * b.real
    er = ((ah * bh.real - pr) + ah * bl.real + al * bh.real) + al * bl.real
    pi = a * b.imag
    ei = ((ah * bh.imag - pi) + ah * bl.imag + al * bh.imag) + al * bl.imag
    re, ree = _two_sum(pr.real, -pi.imag)
    im, ime = _two_sum(pr.imag, pi.real)
    return _cplx(re, im), _cplx(ree + (er.real - ei.imag), ime + (er.imag + ei.real))


class DD:
    """Complex double-double array; operands may be DD or anything numpy
    turns into a complex array (promoted with a zero low part)."""

    __slots__ = ("hi", "lo")

    def __init__(self, hi, lo=None):
        self.hi = np.asarray(hi, dtype=complex)
        self.lo = np.zeros_like(self.hi) if lo is None else np.asarray(lo, dtype=complex)

    @staticmethod
    def of(x) -> "DD":
        return x if isinstance(x, DD) else DD(x)

    def __add__(self, other) -> "DD":
        o = DD.of(other)
        s, e = _two_sum(self.hi, o.hi)
        return DD(*_two_sum(s, e + (self.lo + o.lo)))

    def __neg__(self) -> "DD":
        return DD(-self.hi, -self.lo)

    def __sub__(self, other) -> "DD":
        return self + (-DD.of(other))

    def __rsub__(self, other) -> "DD":
        return DD.of(other) - self

    def __mul__(self, other) -> "DD":
        o = DD.of(other)
        p, e = _two_prod(self.hi, o.hi)
        return DD(*_two_sum(p, e + (self.hi * o.lo + self.lo * o.hi)))

    def __getitem__(self, index) -> "DD":
        return DD(self.hi[index], self.lo[index])

    def conj(self) -> "DD":
        return DD(self.hi.conj(), self.lo.conj())

    def to_complex(self) -> np.ndarray:
        """Nearest complex double."""
        return self.hi + self.lo

    def powers(self, n: int) -> "DD":
        """Last axis k = 0..n (n >= 1) holds self**k; each new block of
        columns is earlier ones times the highest power so far, so the
        blocks double: ceil(log2 n) products."""
        hi = np.empty(self.hi.shape + (n + 1,), dtype=complex)
        lo = np.empty_like(hi)
        hi[..., 0], lo[..., 0] = 1.0, 0.0
        hi[..., 1], lo[..., 1] = self.hi, self.lo
        k = 1
        while k < n:
            width = min(k, n - k)
            top = DD(hi[..., k : k + 1], lo[..., k : k + 1])
            block = DD(hi[..., 1 : width + 1], lo[..., 1 : width + 1]) * top
            hi[..., k + 1 : k + width + 1], lo[..., k + 1 : k + width + 1] = block.hi, block.lo
            k += width
        return DD(hi, lo)


def _sum(parts: np.ndarray) -> DD:
    """Sum of double arrays along axis 0 with an error of about eps^2 times
    the sum of their magnitudes (pairwise two-sums)."""
    hi, lo = parts, np.zeros_like(parts)
    while len(hi) > 1:
        if len(hi) % 2:
            hi = np.concatenate([hi, np.zeros_like(hi[:1])])
            lo = np.concatenate([lo, np.zeros_like(lo[:1])])
        half = len(hi) // 2
        hi, e = _two_sum(hi[:half], hi[half:])
        lo = lo[:half] + lo[half:] + e
    return DD(*_two_sum(hi[0], lo[0]))


def _slices(x: np.ndarray, axis, count: int, bits: int):
    """Yield ``count`` slices of x, leaving a remainder below 2^(-count*bits)
    of the maximum along ``axis`` (None: all of x).  The slices share one
    buffer: each is valid until the next is drawn.

    Each slice holds at most bits+1 significant bits per component, on a
    grid common to its row (axis=1) or to all of x, so that BLAS sums of
    products of slices are exact (Ozaki's error-free splitting).
    """
    sigma = np.ldexp(1.0, np.frexp(np.abs(x).max(axis=axis, keepdims=True))[1] + 53 - bits)
    sigma = sigma * (1 + 1j)
    rest = x.copy()
    piece = np.empty_like(rest)
    for _ in range(count):
        np.add(rest, sigma, out=piece)
        piece -= sigma
        rest -= piece
        sigma *= 2.0 ** -bits
        yield piece


def dot(a: DD, b: DD) -> DD:
    """a @ b for a 2-d matrix and a 1-d vector, with an error of about
    eps^2 times |a| @ |b|.

    a.hi @ b.hi is summed exactly by BLAS over pairs of slices, in one pass
    whose slice width follows from k; the cross terms a.hi @ b.lo + a.lo @
    b.hi need only double precision.  The temporaries stay within a small
    multiple of a (two arrays of its shape, and the partial sums).
    """
    k = a.hi.shape[1]
    # a sum of 2k slice products, each of at most 2*bits + 2 bits, stays
    # exact in 53 bits; the slices cover 2^-106 of each row and of b
    bits = int(51 - np.ceil(np.log2(2 * k))) // 2
    count = -(-106 // bits)
    b_cols = np.stack([piece.copy() for piece in _slices(b.hi, None, count, bits)], axis=1)
    parts = [a.hi @ b.lo + a.lo @ b.hi]
    for i, a_i in enumerate(_slices(a.hi, 1, count, bits)):
        parts.extend((a_i @ b_cols[:, : count - i]).T)
    return _sum(np.array(parts))


def recip(x) -> DD:
    """1/x for positive real x (double or DD), by one Newton step."""
    x = DD.of(x)
    y = 1.0 / x.hi.real
    e = (1.0 - x * y).to_complex().real
    return DD(y) + y * e


def _power(z: DD, k: int) -> DD:
    """z**k for a positive integer k, by binary powering."""
    out = None
    while k:
        if k & 1:
            out = z if out is None else out * z
        k >>= 1
        if k:
            z = z * z
    return out


@lru_cache(maxsize=8)
def roots_of_unity(N: int) -> DD:
    """exp(2 pi i j/N), j = 0..N-1, to double-double accuracy.

    Two Newton steps on z^N = 1 from the double values; each step squares
    the error, times about N/2.  The cached arrays are read-only.
    """
    z = DD(np.exp(2j * np.pi * np.arange(N) / N))
    for _ in range(2):
        z = z - z.hi * (_power(z, N) - 1.0).to_complex() / N
    z.hi.flags.writeable = False
    z.lo.flags.writeable = False
    return z


def polyval(coeffs, z: DD) -> DD:
    """Horner evaluation of ascending double coefficients at DD points."""
    acc = DD(np.full_like(z.hi, coeffs[-1]))
    for c in coeffs[-2::-1]:
        acc = acc * z + c
    return acc


def _curve_points(sample: CurveSample) -> DD:
    """The sample's points to double-double accuracy, on L_r and at exactly
    equispaced map angles 2 pi k / size.

    Double sampling leaves points about 1e-15 relative off the curve and
    off their angles, too coarse for polynomials whose values on the curve
    reach 1e16 and more: both the curve and the equal spacing (which makes
    uniform weights an exact quadrature of the harmonic measure) must
    hold to the digits the solution needs.  The targets psi(r^m e^(i m theta))
    are formed in double-double, and the points by one Newton step on P
    from the double roots, whatever P's degree: its quadratic convergence
    takes their 1e-16 relative error to about 1e-32 (eps^2 for a linear P).
    """
    r, N = sample.r, sample.size
    P, psi = _preimage(sample.family)
    m = P.degree
    k = np.rint(sample.thetas * (N / (2.0 * np.pi))).astype(np.int64)
    rho = DD(r)
    for _ in range(m - 1):
        rho = rho * r
    # psi(rho * unit) with |unit| = 1, where 1/w = conj(unit)/rho
    unit = roots_of_unity(N)[(m * k) % N]
    target = unit * rho * psi.leading_coefficient + polyval(psi.tail, unit.conj() * recip(rho))
    z0 = DD(sample.points)
    step = (target - polyval(P.coeffs, z0)).to_complex()
    return z0 + step / P.derivative()(sample.points)


def refine(sample: CurveSample, weights: np.ndarray, n: int) -> ComplexPolynomial:
    """Weighted least-squares monic polynomial of degree n for the dual
    ``weights`` on the sample's points placed by ``_curve_points``,
    accurate to double-double.

    Iterative refinement of the normal equations  V^H W V y = 0  (y_n = 1)
    in the basis zeta = (z - center)/scale, center the sample's mean: the
    gradient is formed in double-double from double-double points, the
    correction is solved in double with the Gram matrix.  Rounding the
    residual instead (plain LS refinement) stalls: the residual is O(1) and
    its tiny component in the range of V is what fixes the low-order
    coefficients.  The scale is a power of two, so the change back to
    z-coefficients, done in double-double, keeps the resolved digits.
    """
    points, center = _curve_points(sample), complex(sample.points.mean())
    scale = 2.0 ** np.round(np.log2(np.abs(points.hi - center).max()))
    V = ((points - center) * (1.0 / scale)).powers(n)
    sw = np.sqrt(weights)
    design = V.hi[:, :n] * sw[:, None]
    gram = design.conj().T @ design
    y = DD(np.append(np.linalg.solve(gram, -(design.conj().T @ (V.hi[:, n] * sw))), 1.0))
    basis_t = DD(V.hi[:, :n].T, V.lo[:, :n].T)
    last = None
    for _ in range(_MAX_STEPS):
        # V^H (W V y), as the conjugate of V^T conj(W V y)
        grad = dot(basis_t, (dot(V, y) * weights).conj()).to_complex().conj()
        step = np.linalg.solve(gram, grad)
        y = y - np.append(step, 0.0)
        # the error contracts linearly: the next correction is about
        # size * (size / last); stop once that is below the resolution
        size = float(np.abs(step).max())
        if size == 0.0 or (last and size * (size / last) <= EPS):
            break
        last = size
    # p(z) = sum_k b_k (z - center)^k with b_k = y_k scale^(n-k) (exact),
    # then the Taylor shift  coeff_j = sum_k C(k, j) (-center)^(k-j) b_k
    b = y * scale ** np.arange(n, -1, -1.0)
    j, k = np.indices((n + 1, n + 1))
    shift = DD(np.array([-center])).powers(n)[0]
    coeffs = dot(shift[np.maximum(k - j, 0)] * _binomials(n), b).to_complex()
    coeffs[-1] = 1.0
    return ComplexPolynomial(coeffs)


@lru_cache(maxsize=32)
def _binomials(n: int) -> np.ndarray:
    """C(k, j) at [j, k], j, k <= n, rounded from exact integers; read-only."""
    table = np.array([[float(comb(k, j)) for k in range(n + 1)] for j in range(n + 1)])
    table.flags.writeable = False
    return table
