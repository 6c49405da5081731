import numpy as np
import pytest

from equicheb.curves import (
    Circle,
    CurveSample,
    Interval,
    InversePolynomialImage,
    Lemniscate,
    capacity_leading_coefficient,
    points_at_angles,
    sample_level_curve,
)
from equicheb.experiments import invariance_experiment, monic_classical_chebyshev
from equicheb.minimax import (
    RankDeficiencyError,
    SolveOptions,
    chebyshev_on_points,
    solve_chebyshev,
)
from equicheb.series import ComplexPolynomial, monic_faber
from equicheb.curves import phi_series
from equicheb import experiments, minimax

BERNOULLI = Lemniscate(ComplexPolynomial([-1.0, 0.0, 1.0]), 1.0)


@pytest.fixture
def kkt_sizes(monkeypatch):
    """The number of extremal points at each of Newton's KKT steps."""
    sizes, kkt = [], minimax._kkt_system
    monkeypatch.setattr(minimax, "_kkt_system",
                        lambda c, s, lam, *args: sizes.append(len(lam)) or kkt(c, s, lam, *args))
    return sizes


def weighted_ls_monic(points, weights, n, center, scale):
    """Monic degree-n minimizer of sum_j w_j |p(z_j)|^2: the weighted
    least-squares solve in the Arnoldi basis of (z - center)/scale."""
    Q, H = minimax._arnoldi((np.asarray(points, dtype=complex) - center) / scale, n)
    a = minimax._certificate(Q[:, :n], Q[:, n], np.asarray(weights, dtype=float))[0]
    return minimax._monic_polynomial(H, a, center, scale)


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


def arnoldi_by_columns(zeta, n):
    """Vandermonde with Arnoldi on the columns of an (M, n+1) array, the
    reference for ``minimax._arnoldi``."""
    M = len(zeta)
    Q = np.ones((M, n + 1), dtype=complex)
    H = np.zeros((n + 1, n), dtype=complex)
    for k in range(n):
        q = zeta * Q[:, k]
        for _ in range(2):
            h = Q[:, : k + 1].conj().T @ q / M
            q -= Q[:, : k + 1] @ h
            H[: k + 1, k] += h
        H[k + 1, k] = np.linalg.norm(q) / np.sqrt(M)
        Q[:, k + 1] = q / H[k + 1, k]
    return Q, H


class TestArnoldi:
    @pytest.mark.parametrize("r", [1.05, 2.0, 8.0])
    def test_contract_on_the_zeros_input(self, r):
        # Bernoulli, n = 21, M = 512, centred and scaled as the solve does
        n, points = 21, sample_level_curve(BERNOULLI, r, 512).points
        center = points.mean()
        zeta = (points - center) / np.abs(points - center).max()
        Q, H = minimax._arnoldi(zeta, n)
        M = len(zeta)
        assert Q.shape == (M, n + 1) and H.shape == (n + 1, n)
        np.testing.assert_array_equal(Q[:, 0], 1.0)
        assert np.abs(Q.conj().T @ Q - M * np.eye(n + 1)).max() <= 1e-12 * M
        assert np.abs(zeta[:, None] * Q[:, :n] - Q @ H).max() <= 1e-12
        Q_ref, H_ref = arnoldi_by_columns(zeta, n)
        assert np.abs(Q - Q_ref).max() <= 1e-12
        assert np.abs(H - H_ref).max() <= 1e-12

    def test_three_distinct_points_break_down(self):
        with pytest.raises(RankDeficiencyError):
            minimax._arnoldi(np.array([1.0, -1.0, 0.5j, 1.0, -1.0, 0.5j]), 3)


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
        # T_3 on Bernoulli's lemniscate is not its start (odd degree, no
        # invariance), so neither start certificate passes and five steps
        # stop short of 1e-14
        s = sample_level_curve(BERNOULLI, 2.0, 256)
        sol = solve_chebyshev(s, 3, SolveOptions(tol_rel=1e-14, max_iter=5))
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
        # reported sup by more than the tolerance.  The preimages have
        # maxima next to symmetry angles, where the slope of |p|^2 is zero
        # to rounding (n = 14, the default cheb sample size; n = 3,
        # criterion 4's set), and at n = 20 one in a grid step whose start
        # point carries a dual weight 6.9e-7 of the largest
        cubic = InversePolynomialImage(ComplexPolynomial([0.1, -2.0, 0.0, 1.0]))
        cases = [
            (BERNOULLI, 1.2, 512, 3),
            (cubic, 1.05, 256, 14),
            (InversePolynomialImage(ComplexPolynomial([-3.0, 0.0, 1.0])), 1.5, 72, 3),
            (cubic, np.geomspace(1.05, 3, 8)[1], 320, 20),
        ]
        for family, r, M, n in cases:
            sol = solve_chebyshev(sample_level_curve(family, r, M), n)
            assert sol.converged
            fine = sample_level_curve(family, r, 2 ** 16).points
            assert np.abs(sol.polynomial(fine)).max() <= sol.sup_norm * (1 + 2e-10)

    @pytest.mark.parametrize(
        "P, r, M, n",
        [([0.1, -2.0, 0.0, 1.0], 1.05, 256, 14), ([-3.0, 0.0, 1.0], 1.5, 72, 3)],
    )
    def test_curve_maxima_never_step_downhill(self, P, r, M, n):
        # each maximum bracketed by a grid step is no lower than the sample
        # point nearest to it, and together with the sample they reach the
        # curve's maximum, which lies off the grid here
        family = InversePolynomialImage(ComplexPolynomial(P))
        sample = sample_level_curve(family, r, M)
        sol = chebyshev_on_points(sample.points, n)
        p = sol.polynomial
        z, _ = minimax._curve_maxima([(p, sample)])[0]
        nearest = sample.points[np.abs(z[:, None] - sample.points[None, :]).argmin(axis=1)]
        assert (np.abs(p(nearest)) - np.abs(p(z))).max() <= 1e-10 * sol.sup_norm
        curve = np.abs(p(sample_level_curve(family, r, 2 ** 14).points)).max()
        assert sol.sup_norm < curve <= np.abs(p(z)).max() * (1 + 1e-10)

    @pytest.mark.parametrize("N, keep", [
        pytest.param(8, slice(None, 7), id="one-angle-missing"),
        pytest.param(8, np.r_[0, 2, 1, 3:8], id="two-angles-swapped"),
        # five angles 4 pi/9 apart, each within half a 2 pi/5 step of that
        # grid: on them the scan measured 47.35 for |z^5 - 16|, sup 48
        pytest.param(9, slice(None, None, 2), id="every-other-of-nine"),
    ])
    def test_scan_refuses_a_sample_off_the_grid_layout(self, N, keep):
        # a grid step ends at the point at the next grid angle, 2 pi/size on:
        # seven of eight such angles, two swapped, or angles off the grid
        # leave steps without one
        r = 2.0
        thetas = (2.0 * np.pi * np.arange(N) / N)[keep]
        sample = CurveSample(r=r, points=r * np.exp(1j * thetas), family=Circle(1.0), thetas=thetas)
        with pytest.raises(ValueError):
            minimax.curve_sup_norms([(ComplexPolynomial([-16.0, 0, 0, 0, 0, 1.0]), sample)])

    def test_curve_maxima_bisect_off_a_zero_slope_end(self):
        # one grid step ends exactly at theta = 0, where |z^5 - r^5/2| on the
        # circle |z| = r has a minimum with a slope of exactly zero (real
        # coefficients); the secant stays on that end, and only bisection
        # reaches the maximum 1.5 r^5 at theta = -pi/5
        # (the step's other end, -pi/4, is at 44.77)
        r, N = 2.0, 8
        h = 2.0 * np.pi / N
        thetas = 2.0 * np.pi * np.arange(N) / N - h
        sample = CurveSample(r=r, points=r * np.exp(1j * thetas), family=Circle(1.0), thetas=thetas)
        p = ComplexPolynomial([-(r ** 5) / 2, 0, 0, 0, 0, 1.0])
        z, _ = minimax._curve_maxima([(p, sample)])[0]
        in_step = z[np.abs(np.angle(z) + np.pi / 5).argmin()]
        assert abs(p(in_step)) == pytest.approx(1.5 * r ** 5, rel=1e-12)

    @pytest.mark.parametrize("N, shift, target", [
        # the mirror of the case above: on the same sample the step [0, pi/4]
        # starts at the minimum theta = 0, slope exactly zero, and holds the
        # maximum at pi/5
        pytest.param(8, np.pi / 4, np.pi / 5, id="zero-slope-start"),
        # angles offset by 3 pi/20, the step [3 pi/20, 2 pi/5] ends on the
        # minimum at 2 pi/5 with a slope of -4.2e-13, not zero: the secant
        # lands an ulp inside the end, within the guard sqrt(eps) h of it,
        # so the step probes the guard's edge, whose slope points away from
        # the end, and then bisects and places the maximum at pi/5
        pytest.param(8, -3 * np.pi / 20, np.pi / 5, id="rounding-sized-end-slope"),
        # angles offset by half a grid step are still equispaced: the scan
        # takes the sample and brackets the maximum at pi/5 in [pi/8, 3 pi/8]
        pytest.param(8, np.pi / 8, np.pi / 5, id="half-step-offset"),
        # on 16 points the step ending at -pi/5 + sqrt(eps) h / 2 holds the
        # maximum at -pi/5 within the guard of its end and no minimum: a
        # secant proposal in the guard probes the guard's edge instead, where
        # the slope points to the end, and the maximum comes back 3.3e-9
        # rad from -pi/5
        pytest.param(16, np.pi / 5 - 0.5 * np.sqrt(np.finfo(float).eps) * np.pi / 8, -np.pi / 5,
                     id="maximum-within-guard-of-end"),
    ])
    def test_curve_maxima_places_the_maximum_of_a_step(self, N, shift, target):
        # |z^5 - r^5/2| on |z| = r has its maxima 1.5 r^5 at pi/5 + 2 pi j/5
        r = 2.0
        thetas = 2.0 * np.pi * np.arange(N) / N - shift
        sample = CurveSample(r=r, points=r * np.exp(1j * thetas), family=Circle(1.0), thetas=thetas)
        p = ComplexPolynomial([-(r ** 5) / 2, 0, 0, 0, 0, 1.0])
        z, _ = minimax._curve_maxima([(p, sample)])[0]
        near = np.abs(np.angle(z) - target) <= 1e-6
        assert near.any()
        assert np.abs(p(z[near])) == pytest.approx(1.5 * r ** 5, rel=1e-12)

    def test_curve_maxima_keep_the_highest_iterate(self):
        # Horner's noise in the slope keeps brackets of this scan live to
        # the cap, so iterates wander about each maximum: the last one a
        # bracket evaluates lies up to 2.3e-8 rad from its best and 5e-15
        # below it (relative), and the highest is kept.  Every maximum
        # returned is at least the 2^16-point maximum near it
        sample = sample_level_curve(BERNOULLI, 2.5, 512)
        p = chebyshev_on_points(sample.points, 21).polynomial
        z, _ = minimax._curve_maxima([(p, sample)])[0]
        fine = sample_level_curve(BERNOULLI, 2.5, 2 ** 16).points
        values = np.abs(p(fine))
        near = np.abs(z[:, None] - fine).argmin(axis=1)[:, None] + np.arange(-128, 129)
        assert (np.abs(p(z)) >= values[near % len(fine)].max(axis=1) * (1 - 1e-14)).all()

    def test_curve_maxima_see_a_maximum_on_a_grid_angle(self):
        # the start of the interval's n = 3 solve at r = 1.5 is T_3, whose
        # six maxima include theta = 0, a sample angle.  The slope of |p|^2
        # there is rounding-sized, +8.2e-17 at the continued end 2 pi of the
        # last grid step and -5.6e-17 at the sample point that starts the
        # first: read from both, neither step turned, and the scan returned
        # the other five, all below |p| at that sample point
        sample = sample_level_curve(Interval(), 1.5, 512)
        center = complex(sample.points.mean())
        scale = float(np.abs(sample.points - center).max())
        _, H = minimax._arnoldi((sample.points - center) / scale, 3)
        p = minimax._monic_polynomial(H, np.zeros(3, dtype=complex), center, scale)
        z, _ = minimax._curve_maxima([(p, sample)])[0]
        assert len(z) == 6
        assert np.abs(z - sample.points[0]).min() <= 1e-12
        assert np.abs(p(z)).min() >= abs(p(sample.points[0])) * (1 - 1e-14)

    @pytest.mark.parametrize("family", [
        BERNOULLI,
        Lemniscate(ComplexPolynomial([0.25, -1.0, 0.0, 1.0]), 1.0),
        InversePolynomialImage(ComplexPolynomial([0.1, -2.0, 0.0, 1.0])),
        Interval(),
    ])
    def test_curve_maxima_come_with_their_angles(self, family):
        # each maximum comes with the map angle the scan evaluated it at,
        # a grid end's or a secant iterate's: the curve point at that angle
        # is the maximum to rounding
        sample = sample_level_curve(family, 1.3, 256)
        p = chebyshev_on_points(sample.points, 7).polynomial
        z, theta = minimax._curve_maxima([(p, sample)])[0]
        assert len(z) == len(theta) > 0
        again = points_at_angles(family, sample.r, theta, z)[0]
        assert np.abs(again - z).max() <= 4 * np.finfo(float).eps * np.abs(z).max()

    def test_exchange_adds_each_maximum_once(self):
        # the weights hold the sample and each extremal point once, not
        # one point per search
        sol = solve_chebyshev(sample_level_curve(BERNOULLI, 1.2, 512), 3)
        assert sol.converged
        assert len(sol.weights) <= 600

    def test_exchange_cap_clears_converged(self, monkeypatch):
        # the discrete solution certifies on the sample but misses the curve
        # maxima by 1.7e-5; Newton on the extremal set, which ends the
        # exchange otherwise, gets no steps, so the exchange is refused and
        # the discrete solution comes back unconverged
        monkeypatch.setattr(minimax, "_NEWTON_STEPS", 0)
        sample = sample_level_curve(BERNOULLI, 1.2, 512)
        sol = solve_chebyshev(sample, 3)
        assert sol.equioscillation_gap <= SolveOptions().tol_rel
        assert not sol.converged
        assert sol.exchange == "none" and sol.newton_steps == 0
        assert sol.iterations == chebyshev_on_points(sample.points, 3).iterations

    def test_exchange_ends_in_newton(self):
        # the discrete solution on the sample misses the curve maxima by
        # 1.7e-5; Newton on its four extremal points ends the exchange
        # with the KKT point's weights on them as the certificate
        sample = sample_level_curve(BERNOULLI, 1.2, 512)
        sol = solve_chebyshev(sample, 3)
        assert sol.converged and sol.exchange == "newton"
        assert 1 <= sol.newton_steps <= minimax._NEWTON_STEPS
        assert sol.iterations == chebyshev_on_points(sample.points, 3).iterations
        assert sol.equioscillation_gap <= 1e-14
        extremal = sol.weights[sample.size:]
        assert len(sol.weights) == sample.size + 4 and not sol.weights[: sample.size].any()
        assert extremal.min() > 0 and sol.weights.sum() == pytest.approx(1.0, abs=1e-14)
        fine = sample_level_curve(BERNOULLI, 1.2, 2 ** 16).points
        assert np.abs(sol.polynomial(fine)).max() <= sol.sup_norm * (1 + 1e-14)

    def test_newton_starts_at_the_scan_angles(self, monkeypatch):
        # the extremal set starts at the maxima of the discrete solution's
        # scan, at the angles that scan found them at
        sample, sol, basis, (maxima, angles) = TestSolverRefusals.bernoulli_solve()
        jets, seen = minimax.curve_jets, []
        monkeypatch.setattr(minimax, "curve_jets",
                            lambda f, r, theta, near: seen.append(theta) or jets(f, r, theta, near))
        assert minimax._newton_exchange(sample, 3, SolveOptions(), sol, basis, maxima, angles)[0] is not None
        assert len(seen[0]) == 4 and np.isin(seen[0], angles).all()

    def test_json_diagnostics_name_the_path(self):
        sol = solve_chebyshev(sample_level_curve(BERNOULLI, 1.2, 512), 3)
        assert sol.to_json_dict()["diagnostics"] == {
            "equioscillation_gap": sol.equioscillation_gap,
            "exchange": "newton",
            "newton_steps": sol.newton_steps,
        }

    def test_json_diagnostics_name_the_curve_start(self):
        sol = solve_chebyshev(sample_level_curve(Interval(), 1.5, 512), 3)
        assert sol.to_json_dict()["diagnostics"] == {
            "equioscillation_gap": sol.equioscillation_gap,
            "exchange": "start",
            "newton_steps": 0,
        }

    def test_newton_refused_unforced(self, monkeypatch):
        # on the z^2 - 3 preimage at r = 1.05 and odd n the start is not
        # T_n.  Newton on the 28 extremal points the dual weights name
        # converges in 4 steps and certifies; a check of its maxima by
        # Horner's rule on monomial coefficients (Sigma |a_k| |z|^k / |p|
        # about 1e6 here) used to refuse it, the Arnoldi basis does not, so
        # one discrete solve and one Newton attempt end the exchange
        solves, attempts = [], []
        solve_on_points, newton_exchange = minimax._solve_on_points, minimax._newton_exchange

        def counted_solve(*args, **kwargs):
            solves.append(solve_on_points(*args, **kwargs))
            return solves[-1]

        def counted_newton(*args, **kwargs):
            attempts.append(newton_exchange(*args, **kwargs))
            return attempts[-1]

        monkeypatch.setattr(minimax, "_solve_on_points", counted_solve)
        monkeypatch.setattr(minimax, "_newton_exchange", counted_newton)
        family = InversePolynomialImage(ComplexPolynomial([-3.0, 0.0, 1.0]))
        sol = solve_chebyshev(sample_level_curve(family, 1.05, 256), 15)
        assert sol.converged and sol.exchange == "newton"
        assert len(solves) == len(attempts) == 1
        assert attempts[0][0] is sol and sol.newton_steps == attempts[0][1] == 4
        assert sol.iterations == solves[0][0].iterations
        fine = sample_level_curve(family, 1.05, 2 ** 15).points
        assert np.abs(sol.polynomial(fine)).max() <= sol.sup_norm * (1 + 2e-10)

    def test_newton_after_re_solves(self, kkt_sizes):
        # where the scan of Newton's converged point finds maxima above its
        # sup, they join the extremal set: here the first point, on 14
        # extremal points, has two maxima above it, and Newton ends on 16
        # after the discrete solve (14 steps; with re-solves the exchange
        # took 55).  The Horner bound on the curve is 3.2e-12 of the sup,
        # so double evaluation can check it
        family = InversePolynomialImage(ComplexPolynomial([0.1, -2.0, 0.0, 1.0]))
        r = np.geomspace(1.05, 3, 8)[3]
        sample = sample_level_curve(family, r, 256)
        sol = solve_chebyshev(sample, 13)
        assert sol.converged and sol.exchange == "newton"
        assert sol.iterations == chebyshev_on_points(sample.points, 13).iterations <= 20
        assert kkt_sizes[0] == 14 and kkt_sizes[-1] == 16 == len(sol.weights) - sample.size
        assert kkt_sizes == sorted(kkt_sizes)
        fine = sample_level_curve(family, r, 2 ** 15).points
        assert np.abs(sol.polynomial(fine)).max() <= sol.sup_norm * (1 + 2e-10)

    def test_newton_drops_a_point_whose_weight_turns_negative(self, kkt_sizes):
        # the preimage of z^3 - 2z + 0.1 just below its critical level
        # 1.2235, n = 19: Newton converges on the 30 extremal points the
        # dual weights name with two lambda_j < 0; those two leave the set
        # and Newton ends on the other 28 after the discrete solve (17
        # steps; with re-solves the exchange took 34)
        family = InversePolynomialImage(ComplexPolynomial([0.1, -2.0, 0.0, 1.0]))
        r = np.geomspace(1.05, 3, 8)[1]
        sample = sample_level_curve(family, r, 304)
        sol = solve_chebyshev(sample, 19)
        assert sol.converged and sol.exchange == "newton"
        assert sol.iterations == chebyshev_on_points(sample.points, 19).iterations
        assert kkt_sizes[0] == 30 and kkt_sizes[-1] == 28 == len(sol.weights) - sample.size
        assert kkt_sizes == sorted(kkt_sizes, reverse=True)
        assert sol.weights[sample.size:].min() > 0
        fine = sample_level_curve(family, r, 2 ** 15).points
        assert np.abs(sol.polynomial(fine)).max() <= sol.sup_norm * (1 + 2e-10)

    def test_newton_follows_every_discrete_solve(self, monkeypatch):
        # with Newton refused at once, it is still tried after the discrete
        # solve that leaves a maximum above the tolerance, from that solve
        # and its basis, built again for the exchange with the same bits;
        # the refused exchange returns the discrete solution unconverged
        solves, tried = [], []
        solve_on_points = minimax._solve_on_points

        def counted_solve(*args, **kwargs):
            solves.append(solve_on_points(*args, **kwargs))
            return solves[-1]

        def refused_newton(sample, n, opts, sol, basis, maxima, angles):
            tried.append((sol, basis))
            return None, 3

        monkeypatch.setattr(minimax, "_solve_on_points", counted_solve)
        monkeypatch.setattr(minimax, "_newton_exchange", refused_newton)
        sol = solve_chebyshev(sample_level_curve(BERNOULLI, 1.2, 512), 3)
        assert not sol.converged and sol.exchange == "none" and sol.newton_steps == 3
        assert len(solves) == len(tried) == 1
        (got, got_basis), (s, b) = tried[0], solves[0]
        assert got is s and all(np.array_equal(x, y) for x, y in zip(got_basis, b))
        assert sol.polynomial is s.polynomial and sol.iterations == s.iterations

    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_preimage_next_to_a_critical_level_reaches_the_closed_form(self, n):
        # the preimage of z^3 - 2z + 0.1 just below its critical level
        # 1.2235: fixed continuation steps from a grid neighbour left scan
        # points up to 1.3e-9 off L_r, and the solves ended 4.4e-10 to
        # 7.8e-10 above the closed form
        # 2^-k (rho^k + rho^-k), rho = r^3, k = n/3
        family = InversePolynomialImage(ComplexPolynomial([0.1, -2.0, 0.0, 1.0]))
        r = np.geomspace(1.05, 3, 8)[1]
        sample = sample_level_curve(family, r, max(256, 16 * n))
        maxima, _ = minimax._curve_maxima([(family.P, sample)])[0]
        assert np.abs(np.abs(family.P(maxima)) / ((r ** 3 + r ** -3) / 2) - 1).max() <= 1e-14
        sol = solve_chebyshev(sample, n)
        k, rho = n // 3, r ** 3
        assert sol.converged
        assert sol.sup_norm == pytest.approx(2.0 ** -k * (rho ** k + rho ** -k), rel=1e-10)

    @pytest.mark.parametrize("n", [3, 5, 6, 7])
    @pytest.mark.parametrize("r", [1.5, 2.0])
    def test_newton_reaches_the_closed_form(self, n, r, monkeypatch):
        # the maxima of T_n on the ellipse lie off a 512-point grid for these
        # n; re-solving with the maxima added left the coefficients 8e-12
        # to 2.1e-10 off.
        # The curve start certifies these levels in one step, and every
        # level with a closed form T_n has T_n as its start, so the curve
        # start is refused here to reach Newton
        monkeypatch.setattr(minimax, "_curve_start", lambda *args: None)
        sol = solve_chebyshev(sample_level_curve(Interval(), r, 512), n, SolveOptions(1e-8, 600))
        assert sol.converged and sol.exchange == "newton"
        assert sol.polynomial.coefficient_distance(monic_classical_chebyshev(n)) <= 1e-12

    @pytest.mark.parametrize("n", [3, 5, 7])
    @pytest.mark.parametrize("r", [1.5, 2.0])
    def test_newton_does_not_depend_on_the_sample(self, n, r):
        # Newton solves the curve's optimality conditions, so its polynomial
        # does not depend on the sample it starts from: on 384 and 512
        # points of Bernoulli's lemniscate (odd n: the start is not T_n and
        # does not certify) the solutions agree to 4e-14, where the
        # discrete solutions differ by 1e-3 and more
        sols = [solve_chebyshev(sample_level_curve(BERNOULLI, r, M), n, SolveOptions(1e-8, 600))
                for M in (384, 512)]
        assert all(sol.converged and sol.exchange == "newton" for sol in sols)
        assert sols[0].polynomial.coefficient_distance(sols[1].polynomial) <= 1e-13

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


class TestBatchedCurveScan:
    """One curve scan of a batch of (p, sample) pairs on one family places,
    for each pair, the maxima that a scan of that pair alone places."""

    @staticmethod
    def random_poly(rng, degree, scale=1.0):
        c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        return ComplexPolynomial(np.append(scale * c[:-1], 1.0))

    @staticmethod
    def assert_same_bits(pairs):
        batch = minimax._curve_maxima(pairs)
        assert len(batch) == len(pairs)
        counts = []
        for (p, sample), got in zip(pairs, batch):
            alone = minimax._curve_maxima([(p, sample)])[0]
            for x, y in zip(got, alone):  # the points, then their angles
                assert x.dtype == y.dtype and x.shape == y.shape
                assert x.tobytes() == y.tobytes()
            counts.append(len(alone[0]))
        return counts

    def test_mixed_levels_sizes_and_degrees(self):
        # widom's sample size goes from 512 to 544 at n = 17; a degree-1
        # polynomial leaves its derivative rows constant; a nonzero constant
        # has a zero slope everywhere, so no bracket
        rng = np.random.default_rng(11)
        pairs = [
            (self.random_poly(rng, 21, 0.3), sample_level_curve(BERNOULLI, 1.3, 512)),
            (self.random_poly(rng, 3), sample_level_curve(BERNOULLI, 2.5, 544)),
            (ComplexPolynomial([0.3 + 0.2j, 1.0]), sample_level_curve(BERNOULLI, 4.0, 512)),
            (ComplexPolynomial([2.0]), sample_level_curve(BERNOULLI, 1.7, 512)),
            (self.random_poly(rng, 3), sample_level_curve(BERNOULLI, 1.3, 512)),
        ]
        counts = self.assert_same_bits(pairs)
        assert counts[3] == 0 and min(counts[:3] + counts[4:]) > 0

    def test_identically_zero_polynomial(self):
        # on the circle T_n = Fhat_n = z^n, so T_n - Fhat_n is identically zero
        circle, n = Circle(1.0), 4
        fhat = ComplexPolynomial([0.0] * n + [1.0])
        zero = fhat - fhat
        assert zero.degree == 0 and zero.coeffs[0] == 0
        rng = np.random.default_rng(5)
        pairs = [
            (zero, sample_level_curve(circle, 2.0, 64)),
            (self.random_poly(rng, 5), sample_level_curve(circle, 3.0, 96)),
            (zero, sample_level_curve(circle, 3.0, 96)),
        ]
        counts = self.assert_same_bits(pairs)
        assert counts[0] == counts[2] == 0 and counts[1] > 0

    def test_closed_form_family(self):
        rng = np.random.default_rng(3)
        pairs = [(self.random_poly(rng, n), sample_level_curve(Interval(), r, M))
                 for n, r, M in [(1, 1.5, 512), (6, 2.0, 544), (21, 4.0, 672)]]
        assert min(self.assert_same_bits(pairs)) > 0

    def test_empty_batch(self):
        assert minimax._curve_maxima([]) == []
        assert minimax.curve_sup_norms([]) == []

    def test_mixed_families_refused(self):
        p = ComplexPolynomial([0.5, 0.0, 1.0])
        pairs = [(p, sample_level_curve(f, 2.0, 64)) for f in (BERNOULLI, Interval())]
        with pytest.raises(ValueError, match="one family"):
            minimax._curve_maxima(pairs)

    def test_sup_norms_match_one_pair_norms(self):
        rng = np.random.default_rng(8)
        pairs = [(self.random_poly(rng, n), sample_level_curve(BERNOULLI, r, 512))
                 for n, r in [(3, 2.0), (5, 4.0), (5, 2.0)]]
        assert minimax.curve_sup_norms(pairs) == [minimax.curve_sup_norms([pair])[0] for pair in pairs]


def solution_bits(sol):
    return (sol.polynomial.coeffs.tobytes(), repr(sol.sup_norm), sol.weights.tobytes(), sol.iterations,
            sol.exchange, sol.newton_steps, sol.precision_limited, sol.converged,
            repr(sol.equioscillation_gap))


def solve_path(sol):
    if not sol.converged:
        return "unconverged"
    return "precision-limited" if sol.precision_limited else sol.exchange


CRITERION_9 = [*np.geomspace(1.05, 8.0, 24), 32.0]  # r = 32: beyond double-double too


class TestSolveBatch:
    """A batch of levels of one family gives each level the solution that a
    solve_chebyshev call of its own gives, bit for bit."""

    @pytest.mark.parametrize("family, n, levels, M, opts, paths", [
        pytest.param(BERNOULLI, 21, CRITERION_9, 512, SolveOptions(5e-4, 4000),
                     {"none", "precision-limited", "unconverged"}, id="criterion-9-tol-5e-4"),
        pytest.param(BERNOULLI, 21, CRITERION_9, 512, SolveOptions(),
                     {"none", "newton", "precision-limited", "unconverged"}, id="criterion-9-defaults"),
        pytest.param(Interval(), 5, [1.05, 2.0], 256, SolveOptions(), {"start"}, id="interval-start"),
        pytest.param(InversePolynomialImage(ComplexPolynomial([-3.0, 0.0, 1.0])), 15, [1.05, 1.22], 256,
                     SolveOptions(), {"newton"}, id="preimage-resolve"),
    ])
    def test_each_level_gets_its_own_solve(self, family, n, levels, M, opts, paths):
        samples = [sample_level_curve(family, r, M) for r in levels]
        batch = minimax.solve_chebyshev_batch((sample for sample in samples), n, opts)
        alone = [solve_chebyshev(sample, n, opts) for sample in samples]
        assert [solution_bits(sol) for sol in batch] == [solution_bits(sol) for sol in alone]
        assert {solve_path(sol) for sol in alone} == paths

    def test_one_scan_tests_every_waiting_level(self, monkeypatch):
        # criterion 9's levels at the workload's tolerance: the 16 levels
        # that neither start nor refine are tested by one curve scan
        scans = []
        curve_maxima = minimax._curve_maxima

        def counted(pairs):
            scans.append(len(pairs))
            return curve_maxima(pairs)

        monkeypatch.setattr(minimax, "_curve_maxima", counted)
        samples = [sample_level_curve(BERNOULLI, r, 512) for r in np.geomspace(1.05, 8.0, 24)]
        sols = minimax.solve_chebyshev_batch(samples, 21, SolveOptions(5e-4, 4000))
        assert scans == [16]
        assert sum(sol.exchange == "none" and not sol.precision_limited for sol in sols) == 16

    def test_empty_batch(self):
        assert minimax.solve_chebyshev_batch([], 3) == []


class TestScanStops:
    """Each bracket of a curve scan stops once its maximum is settled, and
    the scan once no bracket is live."""

    @pytest.fixture
    def secant_steps(self, monkeypatch):
        steps, direct = [], minimax.points_at_angles
        monkeypatch.setattr(minimax, "points_at_angles", lambda *args: steps.append(1) or direct(*args))
        return steps

    @pytest.mark.parametrize("r", [1.5, 2.0, 4.0])
    def test_constant_modulus_takes_no_secant_step(self, r, secant_steps):
        # |z^n| on circles and |(z^2 - 1)^k| on the Bernoulli lemniscate are
        # r^n on L_r (n = 2k), so every bracket's two ends read a
        # rounding-sized slope: each maximum is an end of its grid step, a
        # sample point to rounding.  The sample points' own values of |p|
        # lie up to 16 eps from r^n at n = 10
        eps = np.finfo(float).eps
        cases = [(ComplexPolynomial([0.0] * n + [1.0]), sample_level_curve(Circle(1.0), r, 256), n)
                 for n in range(1, 11)]
        power = ComplexPolynomial([1.0])
        for k in range(1, 6):
            power = power * ComplexPolynomial([-1.0, 0.0, 1.0])
            cases.append((power, sample_level_curve(BERNOULLI, r, 512), 2 * k))
        for p, sample, n in cases:
            z, _ = minimax._curve_maxima([(p, sample)])[0]
            assert len(z) > 0 and np.abs(z[:, None] - sample.points).min(axis=1).max() <= 1e-12
            assert np.abs(np.abs(p(z)) / r ** n - 1).max() <= 4 * n * eps
        assert secant_steps == []

    def test_degree_21_settles_before_the_cap(self, secant_steps):
        # the 22 brackets of the discrete solution on Bernoulli at r = 1.5
        # settle within 4 secant steps; each maximum is at least the
        # 2^16-point maximum near it
        sample = sample_level_curve(BERNOULLI, 1.5, 512)
        p = chebyshev_on_points(sample.points, 21).polynomial
        z, _ = minimax._curve_maxima([(p, sample)])[0]
        assert len(z) == 22 and len(secant_steps) <= 5
        fine = sample_level_curve(BERNOULLI, 1.5, 2 ** 16).points
        values = np.abs(p(fine))
        near = np.abs(z[:, None] - fine).argmin(axis=1)[:, None] + np.arange(-128, 129)
        assert (np.abs(p(z)) >= values[near % len(fine)].max(axis=1) * (1 - 1e-14)).all()

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_secant_step_onto_its_bracket_end_settles(self, n, secant_steps):
        # the start q_n on the interval's L_1.5 (512 points) is T_n to
        # rounding, with maxima off the grid.  A rise moves the bracket's
        # lower end to the iterate, so a secant step that converges there
        # proposes that very end: the closed bracket settles it, in 3
        # rounds (a strict one bisects away, to the cap of 8).  The maxima
        # are T_n's, (r^n + r^-n) / 2^n
        r = 1.5
        sample = sample_level_curve(Interval(), r, 512)
        center = complex(sample.points.mean())
        scale = float(np.abs(sample.points - center).max())
        _, H = minimax._arnoldi((sample.points - center) / scale, n)
        p = minimax._monic_polynomial(H, np.zeros(n, dtype=complex), center, scale)
        z, _ = minimax._curve_maxima([(p, sample)])[0]
        assert len(z) == 2 * n and len(secant_steps) <= 3
        assert np.abs(np.abs(p(z)) / ((r ** n + r ** -n) / 2 ** n) - 1).max() <= 1e-14

    @pytest.mark.parametrize("n", [4, 8, 10])
    @pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
    def test_interval_start_maxima_at_the_closed_form_points(self, n, r):
        # the start q_n is T_n to rounding, with 2n maxima at
        # psi(r e^(i pi k/n)).  Near them |T_n| is flat to rounding over
        # up to 1e-4 rad at n = 10, r = 3, where eight secant steps on every
        # bracket placed one 6.4e-5 off; the bound is that measurement's
        sample = sample_level_curve(Interval(), r, 512)
        center = complex(sample.points.mean())
        scale = float(np.abs(sample.points - center).max())
        _, H = minimax._arnoldi((sample.points - center) / scale, n)
        p = minimax._monic_polynomial(H, np.zeros(n, dtype=complex), center, scale)
        z, _ = minimax._curve_maxima([(p, sample)])[0]
        w = r * np.exp(1j * np.pi * np.arange(2 * n) / n)
        exact = (w + 1 / w) / 2
        assert len(z) == 2 * n
        assert np.abs(z[:, None] - exact[None, :]).min(axis=1).max() <= 1e-4

    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_maximum_on_an_exact_zero_slope_placed_once(self, n):
        # T_n on the interval's L_1.5 has a maximum at theta = 0, on the real
        # axis, where the slope of |p|^2 is exactly 0: the step ending there
        # brackets it and the step starting there does not
        p = monic_classical_chebyshev(n)
        z, _ = minimax._curve_maxima([(p, sample_level_curve(Interval(), 1.5, 512))])[0]
        assert len(z) == 2 * n
        assert (np.abs(z[:, None] - z[None, :]) + np.eye(2 * n)).min() > 1e-3


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
        # at the two other levels the maxima at theta = 0 and pi lie on grid
        # points, where the slope is zero to rounding and bisection stops
        # short of them: a point added there instead of the grid point left
        # the coefficients 1.4e-5 and 7.6e-6 off
        for r in (1.5, 2.319217972410609, 2.3496991807422516):
            sample = sample_level_curve(Interval(), r, 512)
            sol = solve_chebyshev(sample, 3, SolveOptions(1e-8, 600))
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


def random_cones(rng, M, margin=0.5):
    """Interior cones (x0, xv) with x0 = |xv| (1 + margin u) + margin u', u, u' uniform."""
    xv = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    return np.abs(xv) * (1.0 + margin * rng.random(M)) + margin * rng.random(M), xv


def explicit_w_inv(u0, uv, beta):
    """W^-1 = (2 u u^T - J) / beta per cone as (M, 3, 3) real matrices."""
    u = np.stack([u0, uv.real, uv.imag], axis=1)
    return (2.0 * u[:, :, None] * u[:, None, :] - np.diag([1.0, -1.0, -1.0])) / beta[:, None, None]


def unpacked(x):
    return np.stack([x[0], x[1].real, x[1].imag], axis=1)


class TestStartCertificate:
    # the start q_n is the least-squares minimizer for the sample's uniform
    # weights; where it equioscillates on 2n or more of its points, weights
    # uniform on them certify it before the first step

    @pytest.mark.parametrize("r", [1.5, 2.0])
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_interval_certifies_in_one_step(self, n, r):
        # T_n's 2n extremal points on the ellipse, where w^n is real, lie
        # on the 512-point grid for these n
        sol = solve_chebyshev(sample_level_curve(Interval(), r, 512), n,
                              SolveOptions(tol_rel=1e-8, max_iter=600))
        assert sol.converged and sol.iterations == 1 and sol.exchange == "none"
        support = sol.weights[sol.weights > 0]
        assert len(support) == 2 * n and (support == support[0]).all()
        assert sol.equioscillation_gap <= 1e-14
        np.testing.assert_allclose(sol.polynomial.coeffs, monic_classical_chebyshev(n).coeffs,
                                   rtol=0, atol=1e-14)

    def test_preimage_certifies_every_solve_in_one_step(self, monkeypatch):
        period2 = InversePolynomialImage(
            ComplexPolynomial([-3.0, 0.0, 1.0]), alternation_points=[-2.0, -np.sqrt(2.0), 2.0]
        )
        steps, solve = [], minimax.solve_chebyshev

        def recorded(sample, n, opts=None):
            sol = solve(sample, n, opts)
            steps.append(sol.iterations)
            return sol

        monkeypatch.setattr(experiments, "solve_chebyshev", recorded)
        for n in (2, 4):
            invariance_experiment(period2, n, (1.5, 3.0), SolveOptions(3e-4, 8000), M=512)
        assert steps == [1, 1, 1, 1]

    def test_short_extremal_set_is_not_tried(self):
        # T_3 on Bernoulli's lemniscate peaks at 4 sample points, fewer
        # than 2n = 6: the interior point takes its steps
        sol = solve_chebyshev(sample_level_curve(BERNOULLI, 2.0, 512), 3,
                              SolveOptions(tol_rel=1e-8, max_iter=600))
        assert sol.converged and sol.iterations > 1

    @pytest.mark.parametrize("r", [1.5, 2.0, 4.0])
    @pytest.mark.parametrize("n", [3, 5, 6, 7])
    def test_curve_start_certifies_off_grid_levels(self, n, r):
        # for these n T_n's 2n extremal points on the ellipse miss the
        # 512-point grid, and the grid certificate refuses the start; the
        # start's curve maxima are those points, and weights uniform on
        # them certify it in one step
        sample = sample_level_curve(Interval(), r, 512)
        sol = solve_chebyshev(sample, n)
        assert sol.converged and sol.iterations == 1 and sol.exchange == "start"
        assert sol.newton_steps == 0 and sol.equioscillation_gap <= 1e-10
        assert not sol.weights[: sample.size].any()
        support = sol.weights[sample.size :]
        assert len(support) == 2 * n and (support == support[0]).all()
        assert sol.polynomial.coefficient_distance(monic_classical_chebyshev(n)) <= 1e-14
        fine = sample_level_curve(Interval(), r, 2 ** 15).points
        assert np.abs(sol.polynomial(fine)).max() <= sol.sup_norm * (1 + 1e-14)

    @staticmethod
    def record_curve_starts(monkeypatch) -> list:
        """(curve scans it ran, its result) for each curve-start attempt."""
        scans, attempts = [], []
        scan, curve_start = minimax._curve_maxima, minimax._curve_start

        def counted_start(*args):
            before = len(scans)
            out = curve_start(*args)
            attempts.append((len(scans) - before, out))
            return out

        monkeypatch.setattr(minimax, "_curve_maxima", lambda *args: scans.append(1) or scan(*args))
        monkeypatch.setattr(minimax, "_curve_start", counted_start)
        return attempts

    @pytest.mark.parametrize("n", [3, 5])
    def test_curve_start_gate_runs_no_scan(self, n, monkeypatch):
        # Bernoulli's T_n at odd n peaks n + 1 times along the curve, fewer
        # than 2n: the gate refuses the curve start without a scan
        attempts = self.record_curve_starts(monkeypatch)
        sol = solve_chebyshev(sample_level_curve(BERNOULLI, 2.0, 512), n)
        assert attempts == [(0, None)]
        assert sol.converged and sol.iterations > 1 and sol.exchange == "newton"

    @pytest.mark.parametrize("family, M, certified", [
        (Interval(), 512, True),
        (InversePolynomialImage(ComplexPolynomial([-3.0, 0.0, 1.0])), 256, False),
    ], ids=["interval-certified", "preimage-refused-after-scan"])
    def test_curve_start_takes_its_turns_once(self, family, M, certified, monkeypatch):
        # the gate's turns are the scan's: one _turns call per attempt, on
        # a start that certifies and on one refused after its scan
        attempts = self.record_curve_starts(monkeypatch)
        turns, direct = [], minimax._turns
        monkeypatch.setattr(minimax, "_turns", lambda *args: turns.append(len(attempts)) or direct(*args))
        sol = solve_chebyshev(sample_level_curve(family, 1.5, M), 3)
        assert [(scans, out is not None) for scans, out in attempts] == [(1, certified)]
        assert turns.count(0) == 1
        assert sol.converged and (sol.exchange == "start") == certified

    def test_refused_curve_start_leaves_the_solve_unchanged(self, monkeypatch):
        # on the z^2 - 3 preimage at n = 3 the start's grid steps bracket
        # at least 2n maxima, but they do not equioscillate: the
        # certificate is refused after its scan, and the solve is the one
        # made without the attempt, bit for bit
        family = InversePolynomialImage(ComplexPolynomial([-3.0, 0.0, 1.0]))
        sample = sample_level_curve(family, 1.5, 256)
        attempts = self.record_curve_starts(monkeypatch)
        tried = solve_chebyshev(sample, 3)
        assert attempts == [(1, None)]
        monkeypatch.setattr(minimax, "_curve_start", lambda *args: None)
        plain = solve_chebyshev(sample, 3)
        assert tried.polynomial.coeffs.tobytes() == plain.polynomial.coeffs.tobytes()
        assert tried.weights.tobytes() == plain.weights.tobytes()
        assert (tried.sup_norm, tried.iterations, tried.equioscillation_gap, tried.exchange,
                tried.newton_steps) == (plain.sup_norm, plain.iterations,
                                        plain.equioscillation_gap, plain.exchange,
                                        plain.newton_steps)

    def test_repeated_point_extremal_set_takes_steps(self):
        # for n = 2 the start peaks on the four copies of -1: weights on one
        # distinct point cannot pin the coefficients, and the steps run as
        # without the test, to (z + 1)^2 - 1/2, which equioscillates on
        # -2, -1 and 0
        sol = chebyshev_on_points(np.repeat([-2.0, -1.0, 0.0], [3, 4, 3]), 2)
        assert sol.converged and sol.iterations > 1
        np.testing.assert_allclose(sol.polynomial.coeffs, [0.5, 2.0, 1.0], rtol=0, atol=1e-9)


class TestSolverRefusals:
    """Safety branches of the curve start and of Newton's exchange that no
    solve in the suite or the default sweep reaches: a constant or a helper
    is patched, or the helper is called on inputs no solve hands it."""

    @staticmethod
    def bernoulli_solve():
        """Sample, discrete solution, basis and curve scan (maxima, angles)
        of Bernoulli's lemniscate at n = 3, r = 1.2, where Newton ends the
        exchange."""
        sample = sample_level_curve(BERNOULLI, 1.2, 512)
        sol, basis = minimax._solve_on_points(sample.points, 3, SolveOptions(), sample)
        assert sol.exchange == "none" and sol.converged
        return sample, sol, basis, minimax._curve_maxima([(sol.polynomial, sample)])[0]

    def test_precision_limited_start_is_not_certified_on_the_curve(self, monkeypatch):
        # the interval at n = 3, r = 1.5 is a one-step "start" solve; with a
        # budget no double solve meets, the curve start refuses the start
        # after its gate and the solve is refined in double-double instead
        sample = sample_level_curve(Interval(), 1.5, 512)
        assert solve_chebyshev(sample, 3).exchange == "start"
        starts, curve_start = [], minimax._curve_start
        monkeypatch.setattr(minimax, "_ROOT_ACCURACY_BUDGET", 1e-20)
        monkeypatch.setattr(minimax, "_curve_start",
                            lambda *args: starts.append(curve_start(*args)) or starts[-1])
        sol = solve_chebyshev(sample, 3)
        assert starts == [None]
        assert sol.precision_limited and sol.converged
        assert sol.exchange == "none" and sol.iterations > 1

    @pytest.mark.parametrize("z", [
        pytest.param(lambda s: np.full(4, s.points[0]), id="one-point-four-times"),
        pytest.param(lambda s: s.points[:2], id="two-points"),
    ])
    def test_curve_certificate_refuses_points_pinning_too_few_values(self, z):
        # n = 3 coefficients and fewer distinct curve points: even an
        # infinite tolerance, which passes any gap, refuses weights that
        # cannot pin the coefficients
        sample, _, basis, _ = self.bernoulli_solve()
        points = z(sample)
        lam = np.full(len(points), 1.0 / len(points))
        c = np.append(basis[3], 1.0)
        assert minimax._curve_certificate(basis, c, points, lam, np.inf) is None
        four = sample.points[:: len(sample.points) // 4]
        assert minimax._curve_certificate(basis, c, four, np.full(4, 0.25), np.inf, iterations=1)

    def test_newton_refuses_fewer_maxima_than_coefficients(self):
        # n + 1 extremal points at least fix the n coefficients and the sup;
        # given n maxima Newton takes no step
        sample, sol, basis, (maxima, angles) = self.bernoulli_solve()
        assert minimax._newton_exchange(sample, 3, SolveOptions(), sol, basis, maxima, angles)[0] is not None
        assert minimax._newton_exchange(sample, 3, SolveOptions(), sol, basis, maxima[:3], angles[:3]) == (None, 0)

    def test_newton_refuses_a_singular_jacobian(self, monkeypatch):
        # a zero Jacobian: the minimum-norm step is zero, so its linear
        # model leaves the KKT residual unreduced, and the first step refuses
        sample, sol, basis, scan = self.bernoulli_solve()
        kkt = minimax._kkt_system

        def singular(*args):
            res, jac = kkt(*args)
            return res, np.zeros_like(jac)

        monkeypatch.setattr(minimax, "_kkt_system", singular)
        assert minimax._newton_exchange(sample, 3, SolveOptions(), sol, basis, *scan) == (None, 1)

    def test_newton_refused_where_no_point_is_above_its_set(self, kkt_sizes, monkeypatch):
        # Bernoulli at n = 3, r = 1.2 with the first certificate refused:
        # Newton's converged point is the curve optimum, so no scan maximum
        # and no sample point exceeds its set's level by more than tol_rel.
        # No point joins and Newton is refused there, after 4 steps; a
        # sample point joined regardless would coalesce with an extremal
        # point and run out the 16-step budget
        certificate, calls = minimax._curve_certificate, []

        def refused_once(*args, **kwargs):
            calls.append(1)
            return None if len(calls) == 1 else certificate(*args, **kwargs)

        monkeypatch.setattr(minimax, "_curve_certificate", refused_once)
        sol = solve_chebyshev(sample_level_curve(BERNOULLI, 1.2, 512), 3)
        assert not sol.converged and sol.exchange == "none"
        assert len(calls) == 1 and sol.newton_steps <= 5
        assert set(kkt_sizes) == {4}

    def test_newton_joins_the_highest_sample_point_on_a_refused_certificate(self, kkt_sizes, monkeypatch):
        # the z^2 - 3 preimage at r = 1.05, n = 15, where Newton ends on 28
        # extremal points: handed 27 of them, with a blind scan, Newton
        # converges on the 27, and the certificate refuses them (a sample
        # point near the missing maximum is higher); the highest sample
        # point joins, and Newton ends on 28 points at the full set's
        # solution
        family = InversePolynomialImage(ComplexPolynomial([-3.0, 0.0, 1.0]))
        sample = sample_level_curve(family, 1.05, 256)
        sol, basis = minimax._solve_on_points(sample.points, 15, SolveOptions(), sample)
        maxima, angles = minimax._curve_maxima([(sol.polynomial, sample)])[0]
        full = minimax._newton_exchange(sample, 15, SolveOptions(), sol, basis, maxima, angles)[0]
        assert len(full.weights) - sample.size == len(maxima) == 28
        kkt_sizes.clear()
        monkeypatch.setattr(minimax, "_curve_maxima",
                            lambda pairs: [(np.empty(0, complex), np.empty(0)) for _ in pairs])
        point, steps = minimax._newton_exchange(sample, 15, SolveOptions(), sol, basis, maxima[1:], angles[1:])
        assert point is not None and point.exchange == "newton" and steps <= minimax._NEWTON_STEPS
        assert kkt_sizes[0] == 27 and kkt_sizes[-1] == 28 == len(point.weights) - sample.size
        assert point.polynomial.coefficient_distance(full.polynomial) <= 1e-10


def test_newton_refuses_an_angle_step_above_the_grid_step(monkeypatch):
    # the preimage of z^3 - 2z + 0.1 at the sweep's third level, n = 19:
    # Newton's first full step would move an angle by 1.24 grid steps h.
    # It is not refused (then re-solves took 32 interior-point steps): it
    # is shortened to move that angle by h, and Newton ends the exchange
    # after the discrete solve (16 steps)
    family = InversePolynomialImage(ComplexPolynomial([0.1, -2.0, 0.0, 1.0]))
    sample = sample_level_curve(family, np.geomspace(1.05, 3, 8)[2], 304)
    h = 2.0 * np.pi / sample.size
    full, angles = [], []
    kkt, jets = minimax._kkt_system, minimax.curve_jets

    def recorded_kkt(*args):
        res, jac = kkt(*args)
        full.append(np.linalg.lstsq(jac, -res, rcond=None)[0][-len(args[2]):])
        return res, jac

    def recorded_jets(family, r, theta, near):
        angles.append(theta)
        return jets(family, r, theta, near)

    monkeypatch.setattr(minimax, "_kkt_system", recorded_kkt)
    monkeypatch.setattr(minimax, "curve_jets", recorded_jets)
    sol = solve_chebyshev(sample, 19)
    assert sol.converged and sol.exchange == "newton"
    assert sol.iterations == chebyshev_on_points(sample.points, 19).iterations
    # the unknowns end with the K angles, after (Re a, Im a, s) and the K
    # lambdas; the first step's longest angle move is cut to h exactly
    assert np.abs(full[0]).max() > 1.2 * h
    assert np.abs(angles[1] - angles[0]).max() == pytest.approx(h, rel=1e-12)
    assert all(np.abs(step).max() <= h for step in full[1:])


class TestPackedCones:
    M = 64

    def test_scaling_takes_s_and_z_to_lam(self):
        rng = np.random.default_rng(1)
        s, z = random_cones(rng, self.M), random_cones(rng, self.M)
        u0, uv, beta, lam = minimax._nt_scaling(s, z)
        w_inv = explicit_w_inv(u0, uv, beta)
        w = np.linalg.inv(w_inv)
        for matrix, x in ((w_inv, s), (w, z)):
            got = np.einsum("jab,jb->ja", matrix, unpacked(x))
            np.testing.assert_allclose(got, unpacked(lam), rtol=1e-12)
        # the packed products: W^-1 s, and W z through (u0, -uv, 1 / beta)
        for got in (minimax._w_inv(u0, uv, beta, s), minimax._w_inv(u0, -uv, 1.0 / beta, z)):
            np.testing.assert_allclose(unpacked(got), unpacked(lam), rtol=1e-12)

    def test_closed_form_newton_matrix(self):
        # the Newton matrix from the closed-form K equals G^T W^-1 W^-1 G
        # formed from explicit 3 x 3 matrices, both scaled to unit diagonal
        rng = np.random.default_rng(2)
        n = 4
        B = rng.standard_normal((self.M, n)) + 1j * rng.standard_normal((self.M, n))
        b = rng.standard_normal(self.M) + 1j * rng.standard_normal(self.M)
        s, z = random_cones(rng, self.M), random_cones(rng, self.M)
        newton = np.empty((2 * n + 1, 2 * n + 1))
        minimax._newton_step(B, B.conj().T, b, 1.0, np.zeros(n, complex), s, z, newton)
        u0, uv, beta, _ = minimax._nt_scaling(s, z)
        w_inv = explicit_w_inv(u0, uv, beta)
        K = w_inv @ w_inv
        G = np.zeros((self.M, 3, 2 * n + 1))  # s = h - G x, x = (t, Re a, Im a)
        G[:, 0, 0] = -1.0
        G[:, 1, 1 : n + 1], G[:, 1, n + 1 :] = -B.real, B.imag
        G[:, 2, 1 : n + 1], G[:, 2, n + 1 :] = -B.imag, -B.real
        N = np.einsum("jai,jab,jbk->ik", G, K, G)
        d = 1.0 / np.sqrt(np.diag(N))
        np.testing.assert_allclose(newton, N * np.outer(d, d), atol=1e-12)

    def test_max_step_agrees_with_bisection(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = random_cones(rng, self.M)
            d = random_cones(rng, self.M)
            d = d[0] - 2.0 * np.abs(d[1]), d[1]  # mostly out of the cone: alpha is finite
            xn = minimax._hyperbolic_norm(x)
            alpha = minimax._max_step((x[0] / xn, x[1] / xn), xn, d)

            def inside(step):
                return np.all(x[0] + step * d[0] >= np.abs(x[1] + step * d[1]))

            lo, hi = 0.0, 1.0
            while inside(hi):
                lo, hi = hi, 2.0 * hi
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if inside(mid) else (lo, mid)
            assert alpha == pytest.approx(lo, rel=1e-10)
        # a direction into the cone never leaves it
        xn = minimax._hyperbolic_norm(x)
        assert minimax._max_step((x[0] / xn, x[1] / xn), xn, x) == np.inf

    def test_boundary_iterate_ends_on_the_certificate(self, monkeypatch):
        # the third step meets an iterate with one cone on the boundary: W is
        # singular there, the step raises LinAlgError and the solve ends with
        # the certificate of the dual weights it has
        pts = sample_level_curve(BERNOULLI, 2.0, 128).points
        center = complex(pts.mean())
        Q, _ = minimax._arnoldi((pts - center) / np.abs(pts - center).max(), 5)
        step, steps = minimax._newton_step, []

        def flattened(B, B_h, b, t, a, s, z, newton):
            steps.append(len(steps))
            if len(steps) == 3:
                s = (np.concatenate([[np.abs(s[1][0])], s[0][1:]]), s[1])
            return step(B, B_h, b, t, a, s, z, newton)

        monkeypatch.setattr(minimax, "_newton_step", flattened)
        with pytest.raises(np.linalg.LinAlgError):
            minimax._hyperbolic_norm((np.array([1.0, 2.0]), np.array([0.5, 2.0])))
        a, w, it, converged, gap = minimax._interior_point(Q[:, :5], Q[:, 5], SolveOptions())
        assert it == 3 and len(steps) == 3
        assert not converged and 0.0 < gap < 1.0
        assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_invariance_step_count(monkeypatch):
    # the inputs of criteria 1-4 at the settings of the benchmark's
    # invariance workload (seed 0): a cheaper step must not cost steps.
    # Every one of the 70 solves certifies its start in one step: the
    # circles, even-degree Bernoulli levels and criterion 4's z^2 - 3
    # levels on the grid, and the interval on the grid (n = 1, 2, 4, 8,
    # and n = 7 at r = 4) or on the curve (the other 11), so Newton never
    # runs
    steps, exchanges, interval = [], [], []
    solve = minimax.solve_chebyshev

    def recorded(sample, n, opts=None):
        sol = solve(sample, n, opts)
        steps.append(sol.iterations)
        exchanges.append(sol.exchange)
        return sol

    monkeypatch.setattr(experiments, "solve_chebyshev", recorded)
    exact = SolveOptions(tol_rel=1e-8, max_iter=600)
    levels = (1.5, 2.0, 4.0)
    for n in range(1, 11):
        for r in levels:
            recorded(sample_level_curve(Circle(1.0), r, max(256, 16 * n)), n)
    for family, degrees in ((Interval(), range(1, 9)), (BERNOULLI, (2, 4, 6, 8))):
        for n in degrees:
            for r in levels:
                sol = recorded(sample_level_curve(family, r, 512), n, exact)
                if isinstance(family, Interval):
                    interval.append((sol.iterations, sol.exchange))
    period2 = InversePolynomialImage(
        ComplexPolynomial([-3.0, 0.0, 1.0]), alternation_points=[-2.0, -np.sqrt(2.0), 2.0]
    )
    for n in (2, 4):
        invariance_experiment(period2, n, (1.5, 3.0), SolveOptions(3e-4, 8000), M=512)
    assert len(steps) == 70 and sum(steps) <= 70
    assert len(interval) == 24 and all(it == 1 for it, _ in interval)
    assert [path for _, path in interval].count("start") == 11
    assert exchanges.count("newton") == 0
