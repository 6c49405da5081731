import numpy as np
import pytest

from equicheb.curves import InversePolynomialImage, Lemniscate, _preimage, faber_basis
from equicheb.rootfind import (
    RootFindingError,
    _aberth_batch,
    _sort_roots,
    all_roots,
    all_roots_batch,
    roots_after_constant_shifts,
)
from equicheb import rootfind
from equicheb.series import ComplexPolynomial, horner


def from_roots(roots):
    coeffs = np.array([1.0], dtype=complex)
    for r in roots:
        coeffs = np.convolve(coeffs, [-r, 1.0])
    return ComplexPolynomial(coeffs)


def bernoulli_faber_21():
    return faber_basis(Lemniscate(ComplexPolynomial([-1.0, 0.0, 1.0]), 1.0), 21)[21]


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
        # bit for bit under the default BLAS threading, also for the batched
        # companion eigenvalues of a 512-row start
        for p in (ComplexPolynomial([1.0, -2.0, 3.0j, 1.0, 1.0]), bernoulli_faber_21()):
            a = all_roots(p)
            b = all_roots(p)
            assert a.roots.tobytes() == b.roots.tobytes()
            assert a.iterations == b.iterations
        base = ComplexPolynomial([-1.0, 0.0, 1.0])
        targets = 4.0 * np.exp(2j * np.pi * np.arange(512) / 512)
        a = roots_after_constant_shifts(base, targets)
        b = roots_after_constant_shifts(base, targets)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "roots",
        [
            [0.0, 0.0],
            [0.0] * 5,
            [1.0, 1.0, -1.0, -1.0],
            [2.0, 2.0, -1.0],
            [1.0] * 3,
            [1.0] * 4,
            [1.0, -1.0] * 5,
        ],
        ids=["z^2", "z^5", "(z^2-1)^2", "(z-2)^2(z+1)", "(z-1)^3", "(z-1)^4", "(z^2-1)^5"],
    )
    def test_multiple_roots_converge(self, roots):
        # coincident companion eigenvalues must not start Aberth coincident;
        # a root of multiplicity k is resolved to about eps^(1/k)
        p = from_roots(roots)
        rs = all_roots(p)
        eps = np.finfo(float).eps
        for want in set(roots):
            k = roots.count(want)
            assert np.sum(np.abs(rs.roots - want) <= 10 * eps ** (1 / k)) == k
        assert rs.residuals.max() < 1e-14
        if 0.0 not in roots:
            # finished by the backward-error certificate.  (z^k has zero
            # low-order coefficients, so no root off 0 meets that bound;
            # it finishes by the correction test.)
            horner = np.polyval(np.abs(p.coeffs)[::-1], np.abs(rs.roots))
            assert np.all(rs.residuals <= 4 * (p.degree + 1) * eps * horner)
            assert rs.iterations <= 3

    def test_converges_in_a_few_steps(self):
        # started near the roots, Aberth only polishes
        assert all_roots(bernoulli_faber_21()).iterations <= 4

    def test_sorted_by_angle_then_modulus(self):
        p = ComplexPolynomial([4.0, 0.0, 0.0, 0.0, 1.0])  # roots sqrt(2) * 4th roots of -4
        rs = all_roots(p)
        angles = np.angle(rs.roots)
        assert np.all(np.diff(angles) >= -1e-12)

    def test_negative_real_axis_sorts_last(self):
        # np.angle gives pi or -pi by the sign of a rounding-size imaginary
        # part; the order must not depend on it
        from equicheb.rootfind import _sort_roots

        for noise in (1e-30, -1e-30, 0.0, -0.0):
            ordered = _sort_roots(np.array([[complex(-2.0, noise), 2.0, 1j]]))
            np.testing.assert_array_equal(ordered[0].real, [2.0, 0.0, -2.0])

    def test_root_at_the_origin_sorts_first(self):
        # the angle of a root at the origin is rounding noise; under
        # perturbations of the constant term of z (z^2 - 1)(z^2 + 1/2) at
        # 1e-13 the near-origin root must still take the first place
        base = np.array([0.0, -0.5, 0.0, -0.5, 0.0, 1.0], dtype=complex)
        rng = np.random.default_rng(5)
        for _ in range(40):
            coeffs = base.copy()
            coeffs[0] = 1e-13 * complex(*rng.standard_normal(2))
            roots = all_roots(ComplexPolynomial(coeffs)).roots
            assert abs(roots[0]) < 1e-12
            assert np.abs(roots[1:]).min() > 0.5

    def test_split_double_root_on_negative_axis_sorts_last(self):
        # Aberth splits the double root -1 of (z^2 - 1)^2 by about sqrt(eps),
        # the imaginary parts' signs set by the rounding; under coefficient
        # perturbations of at most one ulp (of max(|a_k|, 1)) both copies
        # must still take the last two places
        base = np.array([1.0, 0.0, -2.0, 0.0, 1.0], dtype=complex)
        rng = np.random.default_rng(3)
        for _ in range(40):
            step = rng.integers(-1, 2, size=(2, 5))
            ulp = np.spacing(np.maximum(np.abs(base.real), 1.0))
            coeffs = base + step[0] * ulp + 1j * step[1] * np.spacing(1.0)
            roots = all_roots(ComplexPolynomial(coeffs)).roots
            np.testing.assert_array_equal(np.flatnonzero(roots.real < 0), [2, 3])

    def test_split_triple_root_sorts_together(self):
        # the copies of the triple root -1 of (z + 1)^3 (z - 1) spread up to
        # 1.7e-5 from it, some with an angle near -pi, beyond the window
        # that keeps a double root's copies last; under one-ulp
        # perturbations their cluster must still take the last three places
        base = np.array([-1.0, -2.0, 0.0, 2.0, 1.0], dtype=complex)
        rng = np.random.default_rng(3)
        for _ in range(200):
            step = rng.integers(-1, 2, size=(2, 5))
            ulp = np.spacing(np.maximum(np.abs(base.real), 1.0))
            coeffs = base + step[0] * ulp + 1j * step[1] * np.spacing(1.0)
            roots = all_roots(ComplexPolynomial(coeffs)).roots
            np.testing.assert_array_equal(np.flatnonzero(roots.real < 0), [1, 2, 3])

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

    def test_step_cap_raises(self, monkeypatch):
        # one step never certifies: it moves the spread start, and the
        # backward-error test only runs from the second step on
        from equicheb import rootfind

        monkeypatch.setattr(rootfind, "_MAX_ITER", 1)
        with pytest.raises(RootFindingError, match="within 1 iterations"):
            all_roots(from_roots([1.0, 2.0, 3.0]))
        # degree-2 batches are solved in closed form; the cubic base
        # z^3 - z + 1/4 still iterates
        with pytest.raises(RootFindingError, match="target index 0"):
            roots_after_constant_shifts(ComplexPolynomial([0.25, -1.0, 0.0, 1.0]), [3.0, 4.0])


class TestInputContract:
    """Non-finite coefficients, targets or ratios to the leading coefficient
    are rejected before any iteration."""

    @pytest.mark.parametrize(
        "coeffs",
        [[np.nan, 0.0, 1.0], [1.0, np.inf, 1.0], [1.0, 0.0, 1e-310], [1.0, np.nan], [1.0, 1e-310]],
        ids=["nan", "inf", "overflowing-ratio", "nan-degree-1", "overflowing-ratio-degree-1"],
    )
    def test_all_roots(self, coeffs):
        with pytest.raises(ValueError, match="finite"):
            all_roots(ComplexPolynomial(coeffs))

    @pytest.mark.parametrize("coeffs", [[-1.0, 0.0, 1.0], [-1.0, 1.0]], ids=["degree-2", "degree-1"])
    def test_nan_target_in_batch(self, coeffs):
        targets = np.array([2.0, np.nan, 3.0j])
        with pytest.raises(ValueError, match="finite"):
            roots_after_constant_shifts(ComplexPolynomial(coeffs), targets)

    def test_overflowing_ratio_in_batch(self):
        with pytest.raises(ValueError, match="finite"):
            roots_after_constant_shifts(ComplexPolynomial([1.0, 0.0, 1e-310]), [0.0, 1.0])


class TestBatch:
    def test_batch_matches_single(self):
        base = ComplexPolynomial([-1.0, 0.0, 1.0])
        targets = 4.0 * np.exp(2j * np.pi * np.arange(7) / 7)
        batch = roots_after_constant_shifts(base, targets)
        for i, t in enumerate(targets):
            single = all_roots(ComplexPolynomial([-1.0 - t, 0.0, 1.0]))
            np.testing.assert_allclose(batch[i], single.roots, atol=1e-12)

    def test_row_helpers_match_one_row_at_a_time(self):
        # the batched start (stacked companion eigenvalues and their spread)
        # and root ordering, against the same helpers applied row by row;
        # bit for bit
        from equicheb.rootfind import _initial_guesses, _sort_roots

        for deg in (2, 4, 21):
            rng = np.random.default_rng(deg)
            rows = rng.standard_normal((32, deg + 1)) + 1j * rng.standard_normal((32, deg + 1))
            guesses = _initial_guesses(rows)
            for i, row in enumerate(rows):
                assert guesses[i].tobytes() == _initial_guesses(row[None, :])[0].tobytes()

        rng = np.random.default_rng(7)
        rows = rng.standard_normal((32, 5)) + 1j * rng.standard_normal((32, 5))
        guesses = _initial_guesses(rows)
        # doubled copies of each root tie in angle, so the modulus decides
        roots = np.concatenate([guesses, 2.0 * guesses[:, :2]], axis=1)
        ordered = _sort_roots(roots)
        for i in range(len(rows)):
            order = np.lexsort((np.abs(roots[i]), np.angle(roots[i])))
            assert ordered[i].tobytes() == roots[i][order].tobytes()

    def test_sort_mixes_clustered_and_plain_rows(self):
        # a row holding the split triple root of (z + 1)^3 (z - 1) sends the
        # batch through the cluster pass; every row, clustered or plain,
        # still sorts as it sorts alone, bit for bit
        clustered = _aberth_batch(np.array([[-1.0, -2.0, 0.0, 2.0, 1.0]], dtype=complex))[0]
        copies = clustered[0][np.abs(clustered[0] + 1.0) <= rootfind._CLUSTER]
        assert len(copies) == 3 and len(set(copies)) == 3
        rng = np.random.default_rng(11)
        plain = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        roots = np.concatenate([plain[:2], clustered, plain[2:]])
        for row, ordered in zip(roots, _sort_roots(roots)):
            assert ordered.tobytes() == _sort_roots(row[None, :])[0].tobytes()

    @staticmethod
    def root_bits(rs):
        return rs.roots.tobytes(), rs.residuals.tobytes(), rs.iterations

    def test_polynomial_batch_matches_all_roots(self, monkeypatch):
        # roots 1e-4 ... 1e4 take Aberth 4 steps from the companion
        # eigenvalues, the random rows 2; with a budget of 3 that row is a
        # gap and the others finish with the bits all_roots gives them
        rng = np.random.default_rng(4)
        spread = from_roots(10.0 ** np.arange(-4, 5))
        polys = [ComplexPolynomial(np.append(rng.standard_normal(9) + 1j * rng.standard_normal(9), 1.0))
                 for _ in range(3)]
        polys.insert(1, spread)
        linear = [ComplexPolynomial([2.0 - 1.0j, 3.0j]), ComplexPolynomial([1e-300, 7.0]),
                  ComplexPolynomial([-0.5, 1.0])]
        for rows in (polys, linear):
            assert [self.root_bits(rs) for rs in all_roots_batch(rows)] == \
                [self.root_bits(all_roots(p)) for p in rows]
        assert all_roots(spread).iterations == 4
        monkeypatch.setattr(rootfind, "_MAX_ITER", 3)
        batch = all_roots_batch(polys)
        assert batch[1] is None
        with pytest.raises(RootFindingError):
            all_roots(spread)
        assert [self.root_bits(batch[i]) for i in (0, 2, 3)] == \
            [self.root_bits(all_roots(polys[i])) for i in (0, 2, 3)]

    def test_polynomial_batch_refusals(self):
        assert all_roots_batch([]) == []
        with pytest.raises(ValueError, match="one degree"):
            all_roots_batch([ComplexPolynomial([1.0, 1.0]), ComplexPolynomial([1.0, 0.0, 1.0])])
        with pytest.raises(ValueError, match="at least 1"):
            all_roots_batch([ComplexPolynomial([2.0])])
        with pytest.raises(ValueError, match="finite"):
            all_roots_batch([ComplexPolynomial([1.0, 1.0]), ComplexPolynomial([np.nan, 1.0])])

    @pytest.mark.filterwarnings("error")
    def test_critical_value_target(self):
        # z^2 - 1 = -1 has the double root 0
        batch = roots_after_constant_shifts(ComplexPolynomial([-1.0, 0.0, 1.0]), [-1.0, 3.0])
        assert np.abs(batch[0]).max() < 1e-6
        np.testing.assert_allclose(np.sort(batch[1].real), [-2.0, 2.0], atol=1e-12)
        assert np.abs(batch[1].imag).max() < 1e-12

    def test_sampler_batch_converges_in_a_few_steps(self):
        # the r = 32 sampler batch of the cubic z^3 - z + 1/4, 2048 targets
        targets = 32.0 ** 3 * np.exp(2j * np.pi * np.arange(2048) / 2048)
        rows = np.tile(np.array([0.25, -1.0, 0.0, 1.0], dtype=complex), (2048, 1))
        rows[:, 0] -= targets
        _, iterations, converged = _aberth_batch(rows)
        assert converged.all()
        assert iterations.max() <= 3


EPS = np.finfo(float).eps
QUADRATIC_FAMILIES = {
    "bernoulli": Lemniscate(ComplexPolynomial([-1.0, 0.0, 1.0])),
    "z^2+z": Lemniscate(ComplexPolynomial([0.0, 1.0, 1.0])),
    "preimage-z^2-3": InversePolynomialImage(ComplexPolynomial([-3.0, 0.0, 1.0])),
}
QUADRATIC_LEVELS = [1.0005, 1.001, 1.01, *np.geomspace(1.05, 3.0, 8), 8.0, 32.0]


def shifted_rows(coeffs, targets):
    rows = np.tile(np.asarray(coeffs, dtype=complex), (len(targets), 1))
    rows[:, 0] -= targets
    return rows


def backward_errors(rows, roots):
    """|p(z)| / (eps sum_k |a_k| |z|^k) per root, p the root's row."""
    value = np.abs(horner(rows.T[:, :, None], roots))
    return value / (EPS * horner(np.abs(rows).T[:, :, None], np.abs(roots)))


class TestClosedFormQuadratic:
    """Degree-2 batches are solved by the quadratic formula, to within
    Aberth's own backward-error certificate 4 (m + 1) eps sum_k |a_k| |z|^k."""

    @pytest.mark.parametrize("M", [256, 512, 1024])
    @pytest.mark.parametrize("name", list(QUADRATIC_FAMILIES))
    def test_sampler_batches_match_aberth(self, name, M):
        # the sampler's targets psi(r^2 e^(2 i theta)); the roots agree with
        # Aberth's to 8 eps (1 + |z|), in the same order
        P, psi = _preimage(QUADRATIC_FAMILIES[name])
        thetas = 2.0 * np.pi * np.arange(M // 2) / M
        for r in QUADRATIC_LEVELS:
            targets = psi.evaluate(r ** 2 * np.exp(2j * thetas))
            roots = roots_after_constant_shifts(P, targets)
            rows = shifted_rows(P.coeffs, targets)
            assert backward_errors(rows, roots).max() <= 4 * 3
            aberth = _sort_roots(_aberth_batch(rows)[0])
            assert np.all(np.abs(roots - aberth) <= 8 * EPS * (1 + np.abs(roots)))

    def test_random_quadratics(self):
        # coefficients scaled by 10^(+-3), targets by 10^(+-6)
        rng = np.random.default_rng(0)
        for _ in range(200):
            coeffs = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * 10.0 ** rng.uniform(-3, 3, 3)
            targets = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) * 10.0 ** rng.uniform(-6, 6, 64)
            roots = roots_after_constant_shifts(ComplexPolynomial(coeffs), targets)
            assert backward_errors(shifted_rows(coeffs, targets), roots).max() <= 4 * 3

    def test_does_not_iterate(self, monkeypatch):
        from equicheb import rootfind

        def refuse(rows):
            raise AssertionError("a degree-2 batch ran Aberth")

        monkeypatch.setattr(rootfind, "_aberth_batch", refuse)
        roots = roots_after_constant_shifts(ComplexPolynomial([-1.0, 0.0, 1.0]), [3.0, -5.0])
        np.testing.assert_allclose(roots, [[2.0, -2.0], [-2j, 2j]], atol=1e-15)
