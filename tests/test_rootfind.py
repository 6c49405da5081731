import numpy as np
import pytest

from equicheb.rootfind import RootFindingError, all_roots, roots_after_constant_shifts
from equicheb.series import ComplexPolynomial


class TestAllRoots:
    def test_quadratic(self):
        rs = all_roots(ComplexPolynomial([-1.0, 0.0, 1.0]))
        np.testing.assert_allclose(sorted(rs.roots.real), [-1.0, 1.0], atol=1e-12)
        assert np.abs(rs.roots.imag).max() < 1e-12
        assert rs.residuals.max() < 1e-12

    def test_factored_cubic(self):
        # z^3 - (3/4) z = z (z - sqrt(3)/2)(z + sqrt(3)/2)
        rs = all_roots(ComplexPolynomial([0.0, -0.75, 0.0, 1.0]))
        expected = sorted([0.0, np.sqrt(3) / 2, -np.sqrt(3) / 2])
        np.testing.assert_allclose(sorted(rs.roots.real), expected, atol=1e-12)

    def test_lemniscate_target_equation(self):
        # z^2 - 1 = 4 at theta=0: roots +-sqrt(5)
        rs = all_roots(ComplexPolynomial([-5.0, 0.0, 1.0]))
        np.testing.assert_allclose(sorted(rs.roots.real), [-np.sqrt(5), np.sqrt(5)], atol=1e-12)

    def test_degree_one(self):
        rs = all_roots(ComplexPolynomial([2.0, 4.0]))
        assert rs.roots[0] == pytest.approx(-0.5)

    def test_reconstruction_random_well_separated(self):
        rng = np.random.default_rng(11)
        for deg in (5, 12, 30):
            while True:
                roots = rng.standard_normal(deg) + 1j * rng.standard_normal(deg)
                gaps = np.abs(roots[:, None] - roots[None, :])
                np.fill_diagonal(gaps, np.inf)
                bound = 1 + np.abs(roots).max()
                if gaps.min() >= 1e-3 * bound:
                    break
            coeffs = np.array([1.0], dtype=complex)
            for r in roots:
                coeffs = np.convolve(coeffs, [-r, 1.0])
            p = ComplexPolynomial(coeffs)
            rs = all_roots(p)
            recon = np.array([1.0], dtype=complex)
            for r in rs.roots:
                recon = np.convolve(recon, [-r, 1.0])
            scale = np.abs(coeffs).max()
            assert np.abs(recon - coeffs).max() <= 1e-6 * scale

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal(9)
        coeffs[-1] = 1.0
        rs = all_roots(ComplexPolynomial(coeffs))
        conj = np.conj(rs.roots)
        # every root's conjugate appears in the set
        for z in rs.roots:
            assert np.abs(conj - z).min() < 1e-9

    def test_determinism(self):
        p = ComplexPolynomial([1.0, -2.0, 3.0j, 1.0, 1.0])
        a = all_roots(p)
        b = all_roots(p)
        assert np.array_equal(a.roots, b.roots)
        assert a.iterations == b.iterations

    def test_sorted_by_angle_then_modulus(self):
        p = ComplexPolynomial([4.0, 0.0, 0.0, 0.0, 1.0])  # roots sqrt(2) * 4th roots of -4
        rs = all_roots(p)
        angles = np.angle(rs.roots)
        assert np.all(np.diff(angles) >= -1e-12)

    def test_residual_bound_invariant(self):
        rng = np.random.default_rng(23)
        for deg in (4, 9, 17):
            coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            coeffs[-1] = 1.0
            p = ComplexPolynomial(coeffs)
            rs = all_roots(p)
            scale = max(1.0, float(np.abs(rs.roots).max()))
            bound = 1e-8 * max(1.0, float(np.abs(coeffs).max())) * scale ** deg
            assert rs.residuals.max() <= bound

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            all_roots(ComplexPolynomial([1.0]))

    def test_max_iteration_error_carries_best(self):
        # Wilkinson-style clustered roots with a huge degree won't converge
        # at an absurdly tight tolerance in the iteration budget
        coeffs = np.array([1.0], dtype=complex)
        for r in np.linspace(1.0, 1.0000001, 12):
            coeffs = np.convolve(coeffs, [-r, 1.0])
        try:
            all_roots(ComplexPolynomial(coeffs), tol=1e-300)
        except RootFindingError as e:
            assert e.best_roots is not None
            assert e.residuals is not None
        else:
            pytest.skip("tolerance met anyway on this platform")


class TestBatch:
    def test_batch_matches_single(self):
        base = ComplexPolynomial([-1.0, 0.0, 1.0])
        targets = 4.0 * np.exp(2j * np.pi * np.arange(7) / 7)
        batch = roots_after_constant_shifts(base, targets)
        for i, t in enumerate(targets):
            single = all_roots(ComplexPolynomial([-1.0 - t, 0.0, 1.0]))
            np.testing.assert_allclose(batch[i], single.roots, atol=1e-12)

    def test_row_helpers_match_one_row_at_a_time(self):
        # the batched start circle and root ordering, against the
        # one-polynomial formulas applied row by row; bit for bit
        from equicheb.rootfind import _ANGLE_OFFSET, _initial_guesses, _sort_roots

        rng = np.random.default_rng(7)
        rows = rng.standard_normal((32, 5)) + 1j * rng.standard_normal((32, 5))
        guesses = _initial_guesses(rows)
        angles = 2.0 * np.pi * np.arange(4) / 4 + _ANGLE_OFFSET
        # doubled copies of each root tie in angle, so the modulus decides
        roots = np.concatenate([guesses, 2.0 * guesses[:, :2]], axis=1)
        ordered = _sort_roots(roots)
        for i, row in enumerate(rows):
            bound = 1.0 + float(np.abs(row[:-1] / row[-1]).max())
            assert guesses[i].tobytes() == (bound * np.exp(1j * angles)).tobytes()
            order = np.lexsort((np.abs(roots[i]), np.angle(roots[i])))
            assert ordered[i].tobytes() == roots[i][order].tobytes()
