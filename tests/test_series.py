import numpy as np
import pytest

from equicheb.curves import (
    _series_power,
    Circle,
    ExplicitMap,
    Interval,
    InversePolynomialImage,
    Lemniscate,
    faber_basis,
    phi_series,
)
from equicheb.experiments import monic_classical_chebyshev
from equicheb.series import (
    ComplexPolynomial,
    DepthExhaustionError,
    LaurentSeriesAtInfinity,
    NotMonicError,
    faber_basis_expand,
    faber_powers,
    faber_recurrence,
    monic_faber,
)


def binom_half(k):
    # binomial coefficient (1/2 choose k), exact rational arithmetic via floats
    b = 1.0
    for i in range(k):
        b *= (0.5 - i) / (i + 1)
    return b


def sqrt_zsq_minus_1_tail(depth):
    """Independent oracle: sqrt(z^2-1) = sum_k binom(1/2,k)(-1)^k z^(1-2k)."""
    tail = np.zeros(depth + 1, dtype=complex)
    for k in range(1, depth // 2 + 2):
        p = 2 * k - 1
        if p <= depth:
            tail[p] = binom_half(k) * (-1) ** k
    return tail


def interval_map(depth):
    """phi for [-1,1]: z + sqrt(z^2-1), leading coefficient 2."""
    return LaurentSeriesAtInfinity(2.0, sqrt_zsq_minus_1_tail(depth))


def bernoulli_map(depth):
    """Branch of sqrt(z^2-1), the map for the lemniscate |z^2-1|=1."""
    return LaurentSeriesAtInfinity(1.0, sqrt_zsq_minus_1_tail(depth))


class TestSeriesPower:
    def test_reciprocal_times_series_is_one(self):
        s = np.array([1.0, 0.0, 1.0])  # z + 1/z, from z^1 down
        inv = _series_power(s, (-1, 1), 12)  # from z^-1 down to z^-12
        prod = np.convolve(s, inv)  # powers z^0 .. z^-13
        # inv is known down to z^-12, so the product down to z^-11
        one = np.zeros(12)
        one[0] = 1.0  # z^0
        np.testing.assert_allclose(prod[:12], one, atol=1e-15)

    def test_square_root_matches_binomial_oracle(self):
        root = _series_power(np.array([1.0, 0.0, -1.0]), (1, 2), 12)  # sqrt(z^2 - 1)
        want = np.concatenate([[1.0], sqrt_zsq_minus_1_tail(10)])
        np.testing.assert_allclose(root, want, atol=1e-15)

    def test_root_order_49(self):
        # (z^49 + a)^(1/49) = z + (a/49) z^-48 + ..., with 1/49 in floating point
        a = 0.7
        root = _series_power(np.r_[1.0, np.zeros(48), a], (1, 49), 50)
        assert root[0] == 1.0
        assert root[49] == pytest.approx(a / 49, rel=1e-14)
        np.testing.assert_allclose(root[1:-1], 0.0)

    def test_rejects_bad_leading_coefficient(self):
        for lead in (-1.0, 0.0, 1.0j):
            with pytest.raises(ValueError):
                _series_power(np.array([lead, 0.0, 1.0]), (1, 2), 4)


class TestFaber:
    def test_circle_faber_is_monomial(self):
        phi = LaurentSeriesAtInfinity(1.0, [0.0], exact=True)
        for n in range(7):
            p = monic_faber(phi, n)
            expected = np.zeros(n + 1)
            expected[n] = 1.0
            np.testing.assert_allclose(p.coeffs, expected)

    def test_interval_degree_two(self):
        # derived from the classical closed form at n=2, renormalized monic
        p = monic_faber(interval_map(6), 2)
        np.testing.assert_allclose(p.coeffs, [-0.5, 0.0, 1.0], atol=1e-15)

    def test_faber_leading_coefficient(self):
        # the interval's F_3 = c^3 Fhat_3, c = 2, is 2 T_3 = 8 z^3 - 6 z
        p = monic_faber(interval_map(8), 3)
        assert p.degree == 3 and p.leading() == 1.0
        np.testing.assert_allclose(2.0 ** 3 * p.coeffs, [0.0, -6.0, 0.0, 8.0], atol=1e-14)

    def test_bernoulli_even_faber_is_generator_power(self):
        # paper-backed: even-degree monic Faber polynomials of the Bernoulli
        # lemniscate are (z^2-1)^m
        phi = bernoulli_map(12)
        for m in range(1, 5):
            p = monic_faber(phi, 2 * m)
            expected = np.array([1.0])
            for _ in range(m):
                expected = np.convolve(expected, [-1.0, 0.0, 1.0])
            np.testing.assert_allclose(p.coeffs, expected, atol=1e-13)

    def test_faber_error_has_only_negative_powers(self):
        # Fhat_n - (phi/c)^n = O(1/z) for every supported map and degree, by
        # an FFT on |z| = 1 of phi's window taken as a Laurent polynomial
        # (its n-th power spans z^n .. z^(-16 n), fewer powers than points)
        N = 512
        z = np.exp(2j * np.pi * np.arange(N) / N)
        for phi in (interval_map(16), bernoulli_map(16)):
            scaled = z + sum(b * z ** -k for k, b in enumerate(phi.tail)) / phi.leading_coefficient
            for n, p in enumerate(faber_powers(phi, 8)):
                coeffs = np.fft.fft(p(z) - scaled ** n) / N  # coeffs[m]: z^m
                assert np.abs(coeffs[: n + 1]).max() < 1e-12


def faber_sum(alpha, basis):
    """basis[n] + sum_k alpha[k] basis[k], n = len(alpha)."""
    out = basis[len(alpha)]
    for k, a in enumerate(alpha):
        out = out + a * basis[k]
    return out


class TestFaberBasisExpand:
    def test_identity_case(self):
        basis = faber_powers(interval_map(8), 5)
        alpha = faber_basis_expand(basis[5], basis)
        assert np.abs(alpha).max() < 1e-14

    def test_joukowski_example(self):
        phi = LaurentSeriesAtInfinity(1.0, [0.0, 1.0], exact=True)
        q = ComplexPolynomial([1.0, 0.0, 1.0])  # z^2 + 1 = (z^2 + 2) - 1
        alpha = faber_basis_expand(q, faber_powers(phi, 2))
        np.testing.assert_allclose(alpha, [-1.0, 0.0], atol=1e-15)

    def test_rejects_non_monic(self):
        basis = faber_powers(interval_map(4), 1)
        with pytest.raises(NotMonicError):
            faber_basis_expand(ComplexPolynomial([0.0, 2.0]), basis)

    def test_rejects_short_basis(self):
        basis = faber_powers(interval_map(4), 2)
        with pytest.raises(ValueError, match="cannot expand degree 3"):
            faber_basis_expand(ComplexPolynomial([0.0, 0.0, 0.0, 1.0]), basis)

    def test_round_trip_degree_30(self):
        rng = np.random.default_rng(42)
        basis = faber_powers(interval_map(32), 31)
        for _ in range(5):
            coeffs = rng.standard_normal(31) + 1j * rng.standard_normal(31)
            coeffs = np.append(coeffs, 1.0)
            q = ComplexPolynomial(coeffs)
            back = faber_sum(faber_basis_expand(q, basis), basis)
            scale = np.abs(q.coeffs).max()
            assert back.coefficient_distance(q) <= 1e-12 * scale

    def test_round_trip_bernoulli(self):
        rng = np.random.default_rng(7)
        basis = faber_powers(bernoulli_map(25), 21)
        coeffs = rng.standard_normal(21) + 1j * rng.standard_normal(21)
        coeffs = np.append(coeffs, 1.0)
        q = ComplexPolynomial(coeffs)
        back = faber_sum(faber_basis_expand(q, basis), basis)
        assert back.coefficient_distance(q) <= 1e-12 * np.abs(q.coeffs).max()


def laurent_oracle_coefficients(psi, p, n, radius=2.0, N=512):
    """Coefficients of w^0 .. w^n of Fhat(psi(w)) - (a w)^n, from an FFT of
    its values on |w| = radius (N exceeds the span of powers, so nothing
    aliases), and the largest sum of |c_k z^k| on the circle, the scale of
    the rounding in the values.  Shares no code with the recurrence."""
    w = radius * np.exp(2j * np.pi * np.arange(N) / N)
    z = psi.leading_coefficient * w + sum(b * w ** -k for k, b in enumerate(psi.tail))
    vals = p(z) - (psi.leading_coefficient * w) ** n
    coeffs = np.fft.fft(vals) / N  # coeffs[m] is the w^m coefficient times radius^m
    terms = np.abs(p.coeffs) * np.abs(z)[:, None] ** np.arange(n + 1)
    return coeffs[: n + 1] / radius ** np.arange(n + 1), terms.sum(axis=1).max()


def faber_by_definition_mp(psi, n, dps=60):
    """Monic Fhat_n in mpmath: the unique monic p of degree n with
    p(psi(w)) = (a w)^n + O(1/w), by back substitution on the w^m
    coefficients of the powers psi^k."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        a = mp.mpf(psi.leading_coefficient)
        # Laurent series keyed by power; psi = a w + sum_k b_k w^-k
        base = {1: a}
        base.update({-k: mp.mpc(b) for k, b in enumerate(psi.tail)})
        powers = [{0: mp.mpc(1)}]
        for _ in range(n):
            prod = {}
            for i, x in powers[-1].items():
                for j, y in base.items():
                    prod[i + j] = prod.get(i + j, 0) + x * y
            powers.append(prod)
        c = [mp.mpc(0)] * (n + 1)
        c[n] = mp.mpc(1)
        for m in range(n - 1, -1, -1):
            rhs = -sum(c[k] * powers[k].get(m, 0) for k in range(m + 1, n + 1))
            c[m] = rhs / powers[m][m]
        return np.array([complex(v) for v in c])


class TestFaberRecurrence:
    def test_defining_property(self):
        # Fhat_n(psi(w)) = (a w)^n + O(1/w) for random exact psi
        rng = np.random.default_rng(11)
        for _ in range(6):
            depth = int(rng.integers(0, 7))
            tail = 0.3 * (rng.standard_normal(depth + 1) + 1j * rng.standard_normal(depth + 1))
            psi = LaurentSeriesAtInfinity(float(rng.uniform(0.5, 2.0)), tail, exact=True)
            basis = faber_recurrence(psi, 25)
            for n in (1, 2, 5, 12, 25):
                coeffs, scale = laurent_oracle_coefficients(psi, basis[n], n)
                assert np.abs(coeffs).max() <= 1e-12 * scale

    def test_interval_is_classical_chebyshev(self):
        basis = faber_basis(Interval(), 40)
        for k in range(41):
            assert np.array_equal(basis[k].coeffs, monic_classical_chebyshev(k).coeffs)

    def test_circle_is_monomials(self):
        for k, p in enumerate(faber_basis(Circle(2.5), 40)):
            expected = np.zeros(k + 1, dtype=complex)
            expected[k] = 1.0
            assert np.array_equal(p.coeffs, expected)

    def test_depth_contract(self):
        # an inexact psi of depth d holds b_0 .. b_d, enough for degree d + 1
        tail = [0.2, -0.5j, 0.1, 0.05]
        inexact = LaurentSeriesAtInfinity(1.3, tail)
        exact = LaurentSeriesAtInfinity(1.3, tail, exact=True)
        got = faber_recurrence(inexact, 4)
        want = faber_recurrence(exact, 4)
        for p, q in zip(got, want):
            assert np.array_equal(p.coeffs, q.coeffs)
        with pytest.raises(DepthExhaustionError, match=r"map depth 3 .*needs depth 4"):
            faber_recurrence(inexact, 5)

    def test_against_mpmath_reference(self):
        rng = np.random.default_rng(5)
        tail = 0.3 * (rng.standard_normal(7) + 1j * rng.standard_normal(7))
        psi = LaurentSeriesAtInfinity(1.3, tail, exact=True)
        ref = faber_by_definition_mp(psi, 21)
        got = faber_basis(ExplicitMap(psi=psi), 21)[21].coeffs
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def faber_powers_mp(phi, n, dps=60):
    """Monic Fhat_n in mpmath from its definition, the polynomial part of
    (phi/c)^n: n products of Laurent series keyed by power, dropping the
    powers below -n, which no later product can lift to z^0."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        c = mp.mpf(phi.leading_coefficient)
        base = {1: mp.mpc(1)}
        base.update({-k: mp.mpc(complex(b)) / c for k, b in enumerate(phi.tail[:n])})
        power = {0: mp.mpc(1)}
        for _ in range(n):
            prod = {}
            for i, x in power.items():
                for j, y in base.items():
                    if i + j >= -n:
                        prod[i + j] = prod.get(i + j, 0) + x * y
            power = prod
        return np.array([complex(power.get(m, 0)) for m in range(n + 1)])


class TestFaberPowers:
    def test_against_mpmath_reference(self):
        for fam in (
            Lemniscate(ComplexPolynomial([0.25, -1.0, 0.0, 1.0])),
            InversePolynomialImage(ComplexPolynomial([-3.0, 0.0, 1.0])),
        ):
            phi = phi_series(fam, 20)
            ref = faber_powers_mp(phi, 21)
            got = faber_basis(fam, 21)[21].coeffs
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_agrees_with_faber_recurrence(self):
        # the same basis from phi and from psi, for maps that carry both
        joukowski = LaurentSeriesAtInfinity(0.5, [0.0, 0.5], exact=True)
        pairs = [
            (phi_series(fam, 19), fam.psi) for fam in (Circle(2.5), Interval())
        ] + [(interval_map(19), joukowski)]
        for phi, psi in pairs:
            by_phi = faber_basis(ExplicitMap(phi=phi), 20)
            by_psi = faber_basis(ExplicitMap(psi=psi), 20)
            for p, q in zip(by_phi, by_psi):
                assert p.coefficient_distance(q) <= 1e-14 * np.abs(q.coeffs).max()

    def test_depth_contract(self):
        # an inexact phi of depth d holds a_0 .. a_d, enough for degree d + 1
        tail = [0.2, -0.5j, 0.1, 0.05]
        inexact = LaurentSeriesAtInfinity(1.3, tail)
        exact = LaurentSeriesAtInfinity(1.3, tail, exact=True)
        got = faber_powers(inexact, 4)
        want = faber_powers(exact, 4)
        for p, q in zip(got, want):
            assert np.array_equal(p.coeffs, q.coeffs)
        with pytest.raises(DepthExhaustionError, match=r"map depth 3 .*needs depth 4"):
            faber_powers(inexact, 5)
        assert len(faber_powers(exact, 9)) == 10

    def test_low_degrees_in_closed_form(self):
        # (z + b_0 + b_1/z + ...)^k with b = a/c: polynomial parts 1,
        # z + b_0 and z^2 + 2 b_0 z + b_0^2 + 2 b_1
        phi = LaurentSeriesAtInfinity(2.0, [0.6 - 0.2j, -0.4j])  # inexact depth 1
        b0, b1 = phi.tail / 2.0
        basis = faber_powers(phi, 2)
        np.testing.assert_array_equal(basis[0].coeffs, [1.0])
        np.testing.assert_allclose(basis[1].coeffs, [b0, 1.0], atol=1e-16)
        np.testing.assert_allclose(basis[2].coeffs, [b0 ** 2 + 2 * b1, 2 * b0, 1.0], atol=1e-16)

    def test_interval_map_gives_classical_chebyshev(self):
        # the binomial series of z + sqrt(z^2 - 1), independent of phi_series
        basis = faber_powers(interval_map(29), 30)
        for k, p in enumerate(basis):
            want = monic_classical_chebyshev(k)
            assert p.coefficient_distance(want) <= 1e-14 * np.abs(want.coeffs).max()

    def test_bernoulli_even_degrees_are_generator_powers(self):
        # Fhat_2k = (z^2 - 1)^k exactly: the map's coefficients are dyadic
        basis = faber_basis(Lemniscate(ComplexPolynomial([-1.0, 0.0, 1.0])), 40)
        power = np.array([1.0 + 0.0j])
        for k in range(1, 21):
            power = np.convolve(power, [-1.0, 0.0, 1.0])
            assert np.array_equal(basis[2 * k].coeffs, power)


def horner_from_zero(coeffs, z):
    """Horner's rule started from a zero array, one multiply-add per
    coefficient."""
    z = np.asarray(z, dtype=complex)
    acc = np.zeros_like(z)
    for c in coeffs[::-1]:
        acc = acc * z + c
    return acc


class TestEvaluation:
    @pytest.mark.parametrize("shape", [(), (7,), (3, 5)], ids=str)
    def test_horner_matches_zero_start_bit_for_bit(self, shape):
        rng = np.random.default_rng(31)
        for degree in range(26):
            p = ComplexPolynomial(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
            z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            got, want = p(z), horner_from_zero(p.coeffs, z)
            assert type(got) is type(want) and np.shape(got) == shape
            assert np.array_equal(got, want)


class TestAlgebraProperties:
    def test_expansion_is_idempotent(self):
        rng = np.random.default_rng(29)
        basis = faber_powers(bernoulli_map(14), 12)
        coeffs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        coeffs = np.append(coeffs, 1.0)
        q = ComplexPolynomial(coeffs)
        alpha = faber_basis_expand(q, basis)
        again = faber_basis_expand(faber_sum(alpha, basis), basis)
        np.testing.assert_allclose(again, alpha, atol=1e-10)


class TestMonicNormalization:
    def test_monic_faber_leading_exactly_one(self):
        phi = interval_map(20)
        for n in range(1, 16):
            assert monic_faber(phi, n).leading() == 1.0

    def test_series_type_validation(self):
        with pytest.raises(ValueError):
            LaurentSeriesAtInfinity(-1.0, [0.0])
        with pytest.raises(ValueError):
            LaurentSeriesAtInfinity(0.0, [0.0])


class TestSerialization:
    def test_series_json_round_trip(self):
        phi = LaurentSeriesAtInfinity(2.0, [0.1, -0.5j, 0.25])
        d = phi.to_json_dict()
        back = LaurentSeriesAtInfinity.from_json_dict(d)
        assert back.leading_coefficient == phi.leading_coefficient
        np.testing.assert_allclose(back.tail, phi.tail)

    def test_polynomial_json_round_trip(self):
        p = ComplexPolynomial([1.0 + 2.0j, 0.0, -3.0])
        back = ComplexPolynomial.from_json_dict(p.to_json_dict())
        assert back.coefficient_distance(p) == 0.0
