import numpy as np
import pytest

from equicheb.curves import (
    Circle,
    Interval,
    InversePolynomialImage,
    Lemniscate,
    capacity_leading_coefficient,
    sample_level_curve,
)
from equicheb.experiments import monic_classical_chebyshev
from equicheb.minimax import (
    RankDeficiencyError,
    SolveOptions,
    chebyshev_on_points,
    solve_chebyshev,
    weighted_ls_monic,
)
from equicheb.series import ComplexPolynomial, monic_faber
from equicheb.curves import phi_series
from equicheb import minimax

BERNOULLI = Lemniscate(ComplexPolynomial([-1.0, 0.0, 1.0]), 1.0)


class TestWeightedLsMonic:
    def test_roots_of_unity_orthogonality(self):
        pts = np.exp(2j * np.pi * np.arange(8) / 8)
        w = np.full(8, 1 / 8)
        p = weighted_ls_monic(pts, w, 2, center=0.0, scale=1.0)
        np.testing.assert_allclose(p.coeffs, [0, 0, 1], atol=1e-14)

    def test_three_point_normal_equations(self):
        # minimize |1+a|^2 + |a|^2 + |1+a|^2 over a: a = -2/3 (by hand)
        pts = np.array([-1.0, 0.0, 1.0], dtype=complex)
        w = np.full(3, 1 / 3)
        p = weighted_ls_monic(pts, w, 2, center=0.0, scale=1.0)
        np.testing.assert_allclose(p.coeffs, [-2 / 3, 0, 1], atol=1e-14)

    def test_concentrated_weight_interpolates(self):
        pts = np.array([2.0 + 1.0j, -1.0, 0.5j, 3.0])
        w = np.array([0.0, 1.0, 0.0, 0.0])
        p = weighted_ls_monic(pts, w, 1, center=0.0, scale=1.0)
        np.testing.assert_allclose(p.coeffs, [1.0, 1.0], atol=1e-14)  # z - (-1)

    def test_monic_by_construction(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        w = np.full(20, 1 / 20)
        p = weighted_ls_monic(pts, w, 6, center=complex(pts.mean()), scale=2.0)
        assert p.leading() == 1.0

    def test_rank_deficiency(self):
        pts = np.array([1.0, 1.0, 1.0, 1.0])  # one distinct value, two unknowns
        w = np.full(4, 0.25)
        with pytest.raises(RankDeficiencyError):
            weighted_ls_monic(pts, w, 2, center=0.0, scale=1.0)

    def test_too_few_points(self):
        with pytest.raises(RankDeficiencyError):
            weighted_ls_monic(np.array([1.0, 2.0]), np.array([0.5, 0.5]), 2, 0.0, 1.0)


class TestSolveChebyshev:
    def test_circle_monomial(self):
        s = sample_level_curve(Circle(1.0), 2.0, 256)
        sol = solve_chebyshev(s, 3)
        assert sol.converged
        np.testing.assert_allclose(sol.polynomial.coeffs, [0, 0, 0, 1], atol=1e-12)
        assert sol.sup_norm == pytest.approx(8.0, rel=1e-12)

    def test_interval_degree_two(self):
        # oracle for the norm: maximize |(w^2+w^-2)/4| on |w|=2 by dense grid
        w = 2.0 * np.exp(2j * np.pi * np.arange(20001) / 20001)
        norm_oracle = np.abs((w ** 2 + w ** -2) / 4).max()
        assert norm_oracle == pytest.approx(1.0625, abs=1e-6)  # attained at w=2
        s = sample_level_curve(Interval(), 2.0, 256)
        sol = solve_chebyshev(s, 2, SolveOptions(tol_rel=1e-4, max_iter=4000))
        np.testing.assert_allclose(sol.polynomial.coeffs, [-0.5, 0, 1], atol=1e-9)
        assert sol.sup_norm == pytest.approx(1.0625, rel=1e-9)

    def test_bernoulli_even_degree(self):
        for r in (1.5, 3.0):
            s = sample_level_curve(BERNOULLI, r, 256)
            sol = solve_chebyshev(s, 2)
            assert sol.converged
            np.testing.assert_allclose(sol.polynomial.coeffs, [-1, 0, 1], atol=1e-10)
            assert sol.sup_norm == pytest.approx(r ** 2, rel=1e-10)

    def test_unconverged_flagged_not_hidden(self):
        s = sample_level_curve(Interval(), 2.0, 256)
        sol = solve_chebyshev(s, 2, SolveOptions(tol_rel=1e-14, max_iter=5))
        assert not sol.converged
        assert sol.iterations == 5

    def test_weights_sum_to_one(self):
        s = sample_level_curve(Interval(), 2.0, 128)
        sol = solve_chebyshev(s, 3, SolveOptions(tol_rel=1e-4, max_iter=500))
        assert sol.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_sup_norm_consistent_with_polynomial(self):
        s = sample_level_curve(BERNOULLI, 2.0, 128)
        sol = solve_chebyshev(s, 3, SolveOptions(tol_rel=1e-4, max_iter=2000))
        recomputed = np.abs(sol.polynomial(s.points)).max()
        assert sol.sup_norm == pytest.approx(recomputed, rel=1e-12)

    def test_optimality_sandwich(self):
        # converged sup norm between the capacity floor and the Faber ceiling
        for fam, r, n in ((Circle(1.0), 2.0, 4), (BERNOULLI, 2.0, 4), (BERNOULLI, 4.0, 3)):
            s = sample_level_curve(fam, r, 512)
            sol = solve_chebyshev(s, n, SolveOptions(tol_rel=3e-4, max_iter=8000))
            assert sol.converged
            fhat = monic_faber(phi_series(fam, n + 1), n)
            faber_sup = np.abs(fhat(s.points)).max()
            assert sol.sup_norm <= faber_sup * (1 + 1e-12)
            c = capacity_leading_coefficient(fam)
            assert sol.sup_norm >= (r / c) ** n * (1 - 1e-6)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(9)
        pts = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        n, scale = 4, 2.0
        opts = SolveOptions(tol_rel=1e-8, max_iter=3000)
        a = chebyshev_on_points(pts, n, opts)
        b = chebyshev_on_points(scale * pts, n, opts)
        factors = scale ** (n - np.arange(n + 1))
        np.testing.assert_allclose(
            b.polynomial.coeffs, a.polynomial.coeffs * factors, rtol=1e-9, atol=1e-12
        )
        assert b.sup_norm == pytest.approx(a.sup_norm * scale ** n, rel=1e-9)

    def test_exchange_reaches_the_curve_sup(self):
        # at the default settings no maximum of |p| on the curve exceeds the
        # reported sup by more than the tolerance
        s = sample_level_curve(BERNOULLI, 1.2, 512)
        sol = solve_chebyshev(s, 3)
        assert sol.converged
        fine = sample_level_curve(BERNOULLI, 1.2, 2 ** 16).points
        assert np.abs(sol.polynomial(fine)).max() <= sol.sup_norm * (1 + 2e-10)

    def test_exchange_cap_clears_converged(self, monkeypatch):
        # one re-solve leaves this case above the tolerance on the curve
        monkeypatch.setattr(minimax, "_EXCHANGE_ROUNDS", 1)
        sol = solve_chebyshev(sample_level_curve(BERNOULLI, 1.2, 512), 3)
        assert sol.equioscillation_gap <= SolveOptions().tol_rel
        assert not sol.converged

    def test_sample_doubling_refused(self):
        # the field stays only for callers that pass adapt=False
        assert SolveOptions(adapt=False) == SolveOptions()
        with pytest.raises(ValueError):
            SolveOptions(adapt=True)

    def test_cvxpy_cross_check(self):
        cp = pytest.importorskip("cvxpy")
        pts = sample_level_curve(BERNOULLI, 2.0, 128).points
        n = 5
        center = complex(pts.mean())
        scale = float(np.abs(pts - center).max())
        zeta = (pts - center) / scale
        V = np.vander(zeta, n, increasing=True)
        y = scale ** n * zeta ** n
        x = cp.Variable(n, complex=True)
        t = cp.Variable()
        prob = cp.Problem(cp.Minimize(t), [cp.abs(V @ x + y) <= t])
        prob.solve(solver=cp.CLARABEL)
        sol = chebyshev_on_points(pts, n, SolveOptions(tol_rel=1e-12, max_iter=200000))
        # independent solvers agree on the optimal value and the coefficients
        assert sol.sup_norm == pytest.approx(float(t.value), rel=5e-7)
        oracle_sup = float(t.value)
        assert sol.sup_norm <= oracle_sup * (1 + 5e-7)

    def test_repeated_points_with_too_few_values(self):
        # 32 points but only 4 distinct values: a monic quintic is not pinned
        pts = np.tile([1.0, 1j, -1.0, -1j], 8)
        with pytest.raises(RankDeficiencyError):
            chebyshev_on_points(pts, 5)

    @pytest.mark.parametrize(
        "family, n, r, opts",
        [
            (Interval(), 4, 1.5, SolveOptions(1e-8, 600)),
            (BERNOULLI, 5, 4.0, SolveOptions(1e-10, 600)),
            (BERNOULLI, 21, 1.05, SolveOptions(1e-10, 600)),
        ],
    )
    def test_certificate_converges_in_few_steps(self, family, n, r, opts):
        # Lawson's certificate stalls on each of these (at 1e-5 to 3e-5
        # after 20,000 steps at 1e-8); the interior point's does not
        pts = sample_level_curve(family, r, 512).points
        sol = chebyshev_on_points(pts, n, opts)
        assert sol.converged
        assert sol.equioscillation_gap <= opts.tol_rel
        assert sol.iterations <= 30


class TestDiscreteVersusCurve:
    # 2n does not divide M = 512, so the discrete optimum on the ellipse
    # sample is not T_3: its sup lies below T_3's on the same points
    SAMPLE = sample_level_curve(Interval(), 1.5, 512)

    def test_discrete_optimum_undercuts_curve_optimum(self):
        sol = chebyshev_on_points(self.SAMPLE.points, 3, SolveOptions(1e-10, 600))
        t3_sup = np.abs(monic_classical_chebyshev(3)(self.SAMPLE.points)).max()
        assert sol.converged
        assert sol.sup_norm <= t3_sup * (1 - 1e-5)

    def test_curve_exchange_recovers_classical_polynomial(self):
        sol = solve_chebyshev(self.SAMPLE, 3, SolveOptions(1e-8, 600))
        assert sol.converged
        dist = sol.polynomial.coefficient_distance(monic_classical_chebyshev(3))
        assert dist <= 1e-8


class TestKGonBracket:
    # The K-gon relaxation Re(e^{-2 pi i k/K} p(z_j)) <= t, k < K, of the
    # discrete problem is a linear program.  Its polygon contains the disk
    # |w| <= t and lies inside |w| <= t / cos(pi/K), so its optimum t_K
    # brackets the discrete optimum: t_K <= t* <= t_K / cos(pi/K)
    K, M = 64, 128

    @staticmethod
    def kgon_bound(points, n, K):
        linprog = pytest.importorskip("scipy.optimize").linprog
        center = complex(points.mean())
        scale = float(np.abs(points - center).max())
        zeta = (points - center) / scale
        V = np.vander(zeta, n + 1, increasing=True)  # p = zeta^n + V[:, :n] c
        rot = np.exp(-2j * np.pi * np.arange(K) / K)[:, None, None]
        R = (rot * V[None]).reshape(-1, n + 1)
        # unknowns (Re c, Im c, t): Re(rot * (V c + zeta^n)) <= t
        A = np.hstack([R[:, :n].real, -R[:, :n].imag, -np.ones((len(R), 1))])
        cost = np.zeros(2 * n + 1)
        cost[-1] = 1.0
        res = linprog(cost, A_ub=A, b_ub=-R[:, n].real, bounds=(None, None), method="highs")
        assert res.status == 0
        return res.fun * scale ** n

    @pytest.mark.parametrize(
        "family, n, r",
        [(BERNOULLI, 3, 2.0), (BERNOULLI, 5, 4.0), (Interval(), 4, 1.5), (Circle(1.0), 3, 2.0)],
    )
    def test_sup_norm_inside_bracket(self, family, n, r):
        pts = sample_level_curve(family, r, self.M).points
        t_K = self.kgon_bound(pts, n, self.K)
        sol = chebyshev_on_points(pts, n, SolveOptions(1e-10, 600))
        assert sol.converged
        assert t_K * (1 - 1e-9) <= sol.sup_norm <= t_K / np.cos(np.pi / self.K) * (1 + 1e-9)


class TestPrecisionLimitedSolves:
    # solver knobs and grid of the criterion-9 trajectories
    OPTS = SolveOptions(tol_rel=5e-4, max_iter=4000)
    LEVELS = np.geomspace(1.05, 8.0, 24)

    def test_flag_follows_the_rounding_budget(self):
        # eps * r^21 > 1e-3 from r ~ 4.3 on: false on the resolvable levels
        for r in self.LEVELS[4:16]:
            sol = solve_chebyshev(sample_level_curve(BERNOULLI, r, 512), 21, self.OPTS)
            assert not sol.precision_limited
            assert sol.to_json_dict()["precision_limited"] is False
        sol = solve_chebyshev(sample_level_curve(BERNOULLI, 8.0, 512), 21, self.OPTS)
        assert sol.precision_limited
        assert sol.to_json_dict()["precision_limited"] is True
        assert sol.converged and sol.iterations >= 1

    def test_double_double_limit_clears_converged(self):
        # the refinement resolves values down to eps^2 * sup_norm: at r = 16
        # the zeros are still right (4e-7 from the Faber zeros), at r = 32
        # eps^2 * r^21 > 1e-3 and they are off by 4e-2, so the solve says so
        sol = solve_chebyshev(sample_level_curve(BERNOULLI, 16.0, 512), 21, self.OPTS)
        assert sol.precision_limited and sol.converged
        sol = solve_chebyshev(sample_level_curve(BERNOULLI, 32.0, 512), 21, self.OPTS)
        assert sol.precision_limited and not sol.converged
        assert sol.to_json_dict()["converged"] is False

    @staticmethod
    def composed(outer: ComplexPolynomial, inner: ComplexPolynomial) -> ComplexPolynomial:
        out = ComplexPolynomial([0.0])
        for c in outer.coeffs[::-1]:
            out = out * inner + ComplexPolynomial([c])
        return out

    def test_refined_solves_match_exact_invariance_oracles(self):
        # at r = 8 double precision loses the low-order coefficients (the
        # plain solves miss these oracles by 2e-4 to 9e2); the refined ones
        # land on them to the digits the values on L_8 carry
        cubic = Lemniscate(ComplexPolynomial([0.25, -1.0, 0.0, 1.0]), 1.0)
        period2 = InversePolynomialImage(ComplexPolynomial([-3.0, 0.0, 1.0]))
        cases = [
            (cubic, 21, self.composed(ComplexPolynomial([0] * 7 + [1]), cubic.P)),
            (Interval(), 21, monic_classical_chebyshev(21)),
            (period2, 20, self.composed(monic_classical_chebyshev(10), period2.P)),
        ]
        for family, n, oracle in cases:
            sol = solve_chebyshev(sample_level_curve(family, 8.0, 512), n, self.OPTS)
            assert sol.precision_limited
            dist = sol.polynomial.coefficient_distance(oracle)
            assert dist <= 1e-11 * np.abs(oracle.coeffs).max()
