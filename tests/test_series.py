import numpy as np
import pytest

from equicheb.curves import Interval, phi_series
from equicheb.series import (
    ComplexPolynomial,
    DepthExhaustionError,
    LaurentSeries,
    LaurentSeriesAtInfinity,
    NotMonicError,
    compose_at_infinity,
    faber_basis_expand,
    faber_polynomial,
    laurent_mul,
    laurent_pow,
    monic_faber,
    polynomial_part,
    revert_series,
    series_power,
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


class TestLaurentMul:
    def test_monomial_product(self):
        z = LaurentSeries(1, [1.0], exact=True)
        out = laurent_mul(z, z)
        assert out.low == 2 and out.top == 2
        assert out.coeffs[0] == 1.0

    def test_difference_of_squares(self):
        a = LaurentSeries(-1, [1.0, 0.0, 1.0], exact=True)   # z + 1/z
        b = LaurentSeries(-1, [-1.0, 0.0, 1.0], exact=True)  # z - 1/z
        out = laurent_mul(a, b)
        assert out.low == -2 and out.top == 2
        np.testing.assert_allclose(out.coeffs, [-1, 0, 0, 0, 1])

    def test_square_with_general_coefficients(self):
        # (z + c0 + c1/z)^2 = z^2 + 2 c0 z + (c0^2 + 2 c1) + O(1/z)
        c0, c1 = 0.3 - 0.7j, -1.2 + 0.4j
        s = LaurentSeries(-1, [c1, c0, 1.0], exact=True)
        out = laurent_mul(s, s)
        assert out.coeff(2) == 1.0
        assert out.coeff(1) == pytest.approx(2 * c0)
        assert out.coeff(0) == pytest.approx(c0 * c0 + 2 * c1)

    def test_truncated_inputs_limit_output_window(self):
        # inexact with low=-1: product window must start at max(la+tb, lb+ta)
        a = LaurentSeries(-1, [1.0, 0.0, 1.0], exact=False)
        out = laurent_mul(a, a)
        assert out.low == 0  # -1 + 1
        with pytest.raises(DepthExhaustionError):
            out.coeff(-1)

    def test_depth_zero_inputs_allowed(self):
        a = LaurentSeries(0, [2.0], exact=False)
        out = laurent_mul(a, a)
        assert out.coeff(0) == 4.0

    def test_add_with_window_entirely_below(self):
        a = LaurentSeries(0, [1.0, 2.0, 3.0], exact=False)
        b = LaurentSeries(-3, [5.0, 6.0], exact=True)
        s = a + b
        assert s.low == 0 and s.top == 2
        np.testing.assert_allclose(s.coeffs, [1, 2, 3])


class TestLaurentPow:
    def test_monomial_power(self):
        phi = LaurentSeriesAtInfinity(1.0, [0.0], exact=True)
        out = laurent_pow(phi, 7)
        assert out.coeff(7) == 1.0
        assert polynomial_part(out).degree == 7

    def test_joukowski_square(self):
        phi = LaurentSeriesAtInfinity(1.0, [0.0, 1.0], exact=True)  # z + 1/z
        out = laurent_pow(phi, 2)
        # z^2 + 2 + 1/z^2
        assert out.coeff(2) == 1.0
        assert out.coeff(0) == 2.0
        assert out.coeff(-2) == 1.0
        assert out.coeff(1) == 0.0

    def test_truncated_interval_map_square(self):
        # derived by expanding (z + sqrt(z^2-1))^2 with the binomial series:
        # (2z - 1/(2z) - 1/(8z^3))^2 = 4z^2 - 2 - 1/(4z^2) + O(z^-4)
        phi = LaurentSeriesAtInfinity(2.0, [0.0, -0.5, 0.0, -0.125])
        out = laurent_pow(phi, 2)
        assert out.coeff(2) == pytest.approx(4.0)
        assert out.coeff(1) == 0.0
        assert out.coeff(0) == pytest.approx(-2.0)
        assert out.coeff(-2) == pytest.approx(-0.25)

    def test_depth_contract(self):
        phi = LaurentSeriesAtInfinity(1.0, np.zeros(3))  # depth 2
        with pytest.raises(DepthExhaustionError):
            laurent_pow(phi, 3)
        laurent_pow(phi, 2)  # depth == n passes

    def test_power_zero(self):
        phi = LaurentSeriesAtInfinity(2.0, [1.0, 2.0])
        out = laurent_pow(phi, 0)
        assert out.coeff(0) == 1.0 and out.top == 0


class TestSeriesPower:
    def test_reciprocal_times_series_is_one(self):
        s = LaurentSeries(-1, [1.0, 0.0, 1.0], exact=True)  # z + 1/z
        inv = series_power(s, (-1, 1), 12)
        assert inv.top == -1 and inv.low == -12
        prod = laurent_mul(s, inv)
        one = np.zeros(len(prod.coeffs))
        one[-prod.low] = 1.0  # z^0 entry of the product window
        np.testing.assert_allclose(prod.coeffs, one, atol=1e-15)

    def test_square_root_matches_binomial_oracle(self):
        s = LaurentSeries(0, [-1.0, 0.0, 1.0], exact=True)  # z^2 - 1
        root = series_power(s, (1, 2), 12)
        assert root.top == 1 and root.low == -10
        want = np.concatenate([sqrt_zsq_minus_1_tail(10)[::-1], [1.0]])
        np.testing.assert_allclose(root.coeffs, want, atol=1e-15)

    def test_root_order_49(self):
        # 49 * (1/49) is not 1 in floating point; the divisibility check
        # works on integers, so (z^49 + a)^(1/49) = z + (a/49) z^-48 + ...
        a = 0.7
        s = LaurentSeries(0, np.r_[a, np.zeros(48), 1.0], exact=True)
        root = series_power(s, (1, 49), 50)
        assert root.top == 1
        assert root.coeff(1) == 1.0
        assert root.coeff(-48) == pytest.approx(a / 49, rel=1e-14)
        np.testing.assert_allclose(root.coeffs[1:-1], 0.0)

    def test_rejects_bad_leading_coefficient(self):
        for lead in (-1.0, 0.0, 1.0j):
            with pytest.raises(ValueError):
                series_power(LaurentSeries(0, [1.0, 0.0, lead], exact=True), (1, 2), 4)

    def test_rejects_indivisible_top(self):
        with pytest.raises(ValueError):
            series_power(LaurentSeries(3, [1.0], exact=True), (1, 2), 4)

    def test_shallow_inexact_input_refused(self):
        with pytest.raises(DepthExhaustionError):
            series_power(LaurentSeries(-1, [0.5, 0.0, 1.0]), (-1, 1), 4)


class TestPolynomialPart:
    def test_drops_negative_powers(self):
        s = LaurentSeries(-2, [1.0, 0, 2.0, 0, 1.0], exact=True)  # z^2 + 2 + z^-2
        p = polynomial_part(s)
        np.testing.assert_allclose(p.coeffs, [2.0, 0.0, 1.0])

    def test_pure_tail_gives_zero(self):
        s = LaurentSeries(-1, [1.0], exact=True)  # 1/z
        p = polynomial_part(s)
        assert p.is_zero

    def test_unknown_nonnegative_coefficients_refused(self):
        s = LaurentSeries(1, [1.0], exact=False)  # window is just z^1
        with pytest.raises(DepthExhaustionError):
            polynomial_part(s)


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
        phi = interval_map(8)
        p = faber_polynomial(phi, 3)
        assert p.degree == 3
        assert p.leading() == pytest.approx(2.0 ** 3)

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
        # F_n - phi^n = O(1/z) for every supported map and degree
        for phi in (interval_map(16), bernoulli_map(16)):
            for n in range(1, 9):
                power = laurent_pow(phi, n)
                fn = faber_polynomial(phi, n)
                diff = power - fn.to_series()
                tail_poly = polynomial_part(diff)
                assert np.abs(tail_poly.coeffs).max() < 1e-12


class TestFaberBasisExpand:
    def test_identity_case(self):
        phi = interval_map(8)
        q = monic_faber(phi, 5)
        fe = faber_basis_expand(q, phi)
        assert np.abs(fe.alpha).max() < 1e-14

    def test_joukowski_example(self):
        phi = LaurentSeriesAtInfinity(1.0, [0.0, 1.0], exact=True)
        q = ComplexPolynomial([1.0, 0.0, 1.0])  # z^2 + 1 = (z^2 + 2) - 1
        fe = faber_basis_expand(q, phi)
        np.testing.assert_allclose(fe.alpha, [-1.0, 0.0], atol=1e-15)

    def test_rejects_non_monic(self):
        phi = interval_map(4)
        with pytest.raises(NotMonicError):
            faber_basis_expand(ComplexPolynomial([0.0, 2.0]), phi)

    def test_round_trip_degree_30(self):
        rng = np.random.default_rng(42)
        phi = interval_map(32)
        for _ in range(5):
            coeffs = rng.standard_normal(31) + 1j * rng.standard_normal(31)
            coeffs = np.append(coeffs, 1.0)
            q = ComplexPolynomial(coeffs)
            fe = faber_basis_expand(q, phi)
            back = fe.reconstruct()
            scale = np.abs(q.coeffs).max()
            assert back.coefficient_distance(q) <= 1e-12 * scale

    def test_round_trip_bernoulli(self):
        rng = np.random.default_rng(7)
        phi = bernoulli_map(25)
        coeffs = rng.standard_normal(21) + 1j * rng.standard_normal(21)
        coeffs = np.append(coeffs, 1.0)
        q = ComplexPolynomial(coeffs)
        fe = faber_basis_expand(q, phi)
        assert fe.reconstruct().coefficient_distance(q) <= 1e-12 * np.abs(q.coeffs).max()


def coefficient_matching_inverse(psi: LaurentSeriesAtInfinity, depth: int):
    """Independent reversion oracle: solve for the inverse coefficients one
    power at a time by matching psi(phi(z)) = z on sample points.

    Uses a Vandermonde fit of psi(phi(z)) - z against candidate corrections;
    simpler and slower than Newton, and shares no code with revert_series.
    """
    c = psi.leading_coefficient
    tail = np.zeros(depth + 1, dtype=complex)
    # evaluate psi at many points and fit phi coefficients by least squares:
    # phi(z) = z/c + t0 + t1/z + ... ; impose psi(phi(z)) = z on a big circle
    radius = 60.0
    npts = 4 * (depth + 4)
    z = radius * np.exp(2j * np.pi * np.arange(npts) / npts)
    for k in range(depth + 1):
        phi = LaurentSeriesAtInfinity(1.0 / c, tail)
        resid = psi.evaluate(phi.evaluate(z)) - z
        # the residual is dominated by the unresolved power z^-k times psi'
        # at infinity (= c); project it on z^-k
        basis = z ** (-float(k))
        coef = (resid @ np.conj(basis)) / (basis @ np.conj(basis))
        tail[k] -= coef / c
    return LaurentSeriesAtInfinity(1.0 / c, tail)


class TestRevertSeries:
    def test_identity(self):
        psi = LaurentSeriesAtInfinity(1.0, [0.0], exact=True)
        phi = revert_series(psi, 6)
        assert phi.leading_coefficient == 1.0
        assert np.abs(phi.tail).max() < 1e-14

    def test_shift(self):
        b0 = 0.8 - 0.3j
        psi = LaurentSeriesAtInfinity(1.0, [b0], exact=True)
        phi = revert_series(psi, 6)
        assert phi.tail[0] == pytest.approx(-b0)
        assert np.abs(phi.tail[1:]).max() < 1e-14

    def test_joukowski_closed_form(self):
        # psi(w) = w + 1/w inverts to (z + sqrt(z^2-4))/2:
        # z - 1/z - 1/z^3 - 2/z^5 - 5/z^7 (Catalan numbers)
        psi = LaurentSeriesAtInfinity(1.0, [0.0, 1.0], exact=True)
        phi = revert_series(psi, 8)
        expected = np.zeros(9)
        expected[1], expected[3], expected[5], expected[7] = -1, -1, -2, -5
        np.testing.assert_allclose(phi.tail, expected, atol=1e-13)

    def test_against_coefficient_matching_oracle(self):
        psi = LaurentSeriesAtInfinity(1.5, [0.4, -0.2 + 0.1j, 0.05], exact=True)
        got = revert_series(psi, 3)
        oracle = coefficient_matching_inverse(psi, 3)
        assert got.leading_coefficient == pytest.approx(oracle.leading_coefficient)
        np.testing.assert_allclose(got.tail, oracle.tail, atol=1e-8)

    def test_composition_is_identity(self):
        psi = LaurentSeriesAtInfinity(0.5, [0.0, 0.5], exact=True)  # interval inverse
        phi = revert_series(psi, 10)
        comp = compose_at_infinity(psi, phi, 10)
        ident = np.zeros(12)
        ident[-1] = 1.0
        np.testing.assert_allclose(comp.coeffs, ident, atol=1e-12)

    def test_composition_refuses_shallow_input(self):
        # a depth-3 map series holds nothing about z^-5 and below, so its
        # composition with the Joukowski map cannot be known to depth 10
        with pytest.raises(DepthExhaustionError):
            compose_at_infinity(Interval().psi, phi_series(Interval(), 3), 10)

    def test_involution(self):
        psi = LaurentSeriesAtInfinity(2.0, [0.1, -0.5, 0.25, 0.0, 0.03125], exact=True)
        phi = revert_series(psi, 12)
        back = revert_series(phi, 12)
        # only the first stored coefficients of psi are recoverable
        assert back.leading_coefficient == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(back.tail[:5], psi.tail[:5], atol=1e-12)

    def test_depth_contract(self):
        psi = LaurentSeriesAtInfinity(1.0, [0.0, 1.0])  # inexact, depth 1
        with pytest.raises(DepthExhaustionError):
            revert_series(psi, 5)

    def test_deep_reversion_reports_rounding_loss(self):
        # the interval's map series has dyadic coefficients and reverts
        # exactly at depth 40, back to the Joukowski map (w + 1/w)/2; at
        # depth 60 cancellation in the composition ruins the reversion
        # although the input window is long enough
        psi = revert_series(phi_series(Interval(), 40), 40)
        assert psi.leading_coefficient == 0.5
        np.testing.assert_allclose(psi.tail[:2], [0.0, 0.5], atol=1e-14)
        np.testing.assert_allclose(psi.tail[2:], 0.0, atol=1e-12)
        with pytest.raises(DepthExhaustionError, match="lost its accuracy to rounding"):
            revert_series(phi_series(Interval(), 60), 60)

    def test_random_involution_property(self):
        rng = np.random.default_rng(3)
        for _ in range(6):
            depth = int(rng.integers(2, 10))
            tail = 0.3 * (rng.standard_normal(depth + 1) + 1j * rng.standard_normal(depth + 1))
            c = float(rng.uniform(0.5, 2.0))
            psi = LaurentSeriesAtInfinity(c, tail, exact=True)
            phi = revert_series(psi, depth)
            back = revert_series(phi, depth)
            assert abs(back.leading_coefficient - c) <= 1e-10
            assert np.abs(back.tail - tail).max() <= 1e-10


class TestAlgebraProperties:
    def test_mul_commutes_and_associates(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            def rand_series():
                low = int(rng.integers(-5, 2))
                width = int(rng.integers(1, 6))
                coeffs = rng.standard_normal(width) + 1j * rng.standard_normal(width)
                return LaurentSeries(low, coeffs, exact=bool(rng.integers(0, 2)))

            a, b, c = rand_series(), rand_series(), rand_series()
            ab = laurent_mul(a, b)
            ba = laurent_mul(b, a)
            assert ab.low == ba.low and ab.top == ba.top
            np.testing.assert_allclose(ab.coeffs, ba.coeffs, atol=1e-12)
            try:
                left = laurent_mul(ab, c)
                right = laurent_mul(a, laurent_mul(b, c))
            except DepthExhaustionError:
                continue
            # window bookkeeping may differ by association order; compare
            # on the common window
            lo = max(left.low, right.low)
            for k in range(lo, left.top + 1):
                assert left.coeff(k) == pytest.approx(right.coeff(k), abs=1e-10)

    def test_binary_and_iterated_powers_agree(self):
        phi = interval_map(16)
        s = phi.to_series()
        iterated = s
        for n in range(2, 7):
            iterated = laurent_mul(iterated, s)
            fast = laurent_pow(phi, n)
            lo = max(iterated.low, fast.low)
            for k in range(lo, fast.top + 1):
                assert fast.coeff(k) == pytest.approx(iterated.coeff(k), rel=1e-12)

    def test_expansion_is_idempotent(self):
        rng = np.random.default_rng(29)
        phi = bernoulli_map(14)
        coeffs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        coeffs = np.append(coeffs, 1.0)
        q = ComplexPolynomial(coeffs)
        fe = faber_basis_expand(q, phi)
        fe2 = faber_basis_expand(fe.reconstruct(), phi)
        np.testing.assert_allclose(fe2.alpha, fe.alpha, atol=1e-10)


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
