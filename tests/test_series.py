import numpy as np
import pytest

from equicheb.curves import Circle, ExplicitMap, Interval, faber_basis
from equicheb.experiments import monic_classical_chebyshev
from equicheb.series import (
    ComplexPolynomial,
    DepthExhaustionError,
    LaurentSeries,
    LaurentSeriesAtInfinity,
    NotMonicError,
    faber_basis_expand,
    faber_polynomial,
    faber_recurrence,
    laurent_mul,
    laurent_pow,
    monic_faber,
    polynomial_part,
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


def monic_basis(phi, n):
    """Monic Faber polynomials of degrees 0..n from powers of phi."""
    return [monic_faber(phi, k) for k in range(n + 1)]


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
        basis = monic_basis(interval_map(8), 5)
        fe = faber_basis_expand(basis[5], basis)
        assert np.abs(fe.alpha).max() < 1e-14

    def test_joukowski_example(self):
        phi = LaurentSeriesAtInfinity(1.0, [0.0, 1.0], exact=True)
        q = ComplexPolynomial([1.0, 0.0, 1.0])  # z^2 + 1 = (z^2 + 2) - 1
        fe = faber_basis_expand(q, monic_basis(phi, 2))
        np.testing.assert_allclose(fe.alpha, [-1.0, 0.0], atol=1e-15)

    def test_rejects_non_monic(self):
        basis = monic_basis(interval_map(4), 1)
        with pytest.raises(NotMonicError):
            faber_basis_expand(ComplexPolynomial([0.0, 2.0]), basis)

    def test_rejects_short_basis(self):
        basis = monic_basis(interval_map(4), 2)
        with pytest.raises(ValueError, match="cannot expand degree 3"):
            faber_basis_expand(ComplexPolynomial([0.0, 0.0, 0.0, 1.0]), basis)

    def test_round_trip_degree_30(self):
        rng = np.random.default_rng(42)
        basis = monic_basis(interval_map(32), 31)
        for _ in range(5):
            coeffs = rng.standard_normal(31) + 1j * rng.standard_normal(31)
            coeffs = np.append(coeffs, 1.0)
            q = ComplexPolynomial(coeffs)
            fe = faber_basis_expand(q, basis)
            back = fe.reconstruct()
            scale = np.abs(q.coeffs).max()
            assert back.coefficient_distance(q) <= 1e-12 * scale

    def test_round_trip_bernoulli(self):
        rng = np.random.default_rng(7)
        basis = monic_basis(bernoulli_map(25), 21)
        coeffs = rng.standard_normal(21) + 1j * rng.standard_normal(21)
        coeffs = np.append(coeffs, 1.0)
        q = ComplexPolynomial(coeffs)
        fe = faber_basis_expand(q, basis)
        assert fe.reconstruct().coefficient_distance(q) <= 1e-12 * np.abs(q.coeffs).max()


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
        with pytest.raises(DepthExhaustionError):
            faber_recurrence(inexact, 5)

    def test_against_mpmath_reference(self):
        rng = np.random.default_rng(5)
        tail = 0.3 * (rng.standard_normal(7) + 1j * rng.standard_normal(7))
        psi = LaurentSeriesAtInfinity(1.3, tail, exact=True)
        ref = faber_by_definition_mp(psi, 21)
        got = faber_basis(ExplicitMap(psi=psi), 21)[21].coeffs
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


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
        basis = monic_basis(bernoulli_map(14), 12)
        coeffs = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        coeffs = np.append(coeffs, 1.0)
        q = ComplexPolynomial(coeffs)
        fe = faber_basis_expand(q, basis)
        fe2 = faber_basis_expand(fe.reconstruct(), basis)
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
