import json
from dataclasses import replace

import numpy as np
import pytest

from equicheb import curves, experiments, minimax
from equicheb.curves import (
    Circle,
    Interval,
    InversePolynomialImage,
    Lemniscate,
    faber_basis,
    sample_level_curve,
)
from equicheb.experiments import (
    ExperimentError,
    faber_error_decay,
    greedy_bijective_match,
    invariance_experiment,
    monic_classical_chebyshev,
    rate_experiment,
    rivlin_check,
    widom_experiment,
    zero_trajectories,
)
from equicheb.minimax import SolveOptions
from equicheb.series import ComplexPolynomial

BERNOULLI = Lemniscate(ComplexPolynomial([-1.0, 0.0, 1.0]), 1.0)
FAST = SolveOptions(tol_rel=1e-10, max_iter=6000)


class TestClassicalChebyshev:
    def test_small_degrees(self):
        # frozen from the recurrence T_{k+1} = 2 z T_k - T_{k-1}, made monic
        np.testing.assert_allclose(monic_classical_chebyshev(1).coeffs, [0, 1])
        np.testing.assert_allclose(monic_classical_chebyshev(2).coeffs, [-0.5, 0, 1])
        np.testing.assert_allclose(
            monic_classical_chebyshev(5).coeffs, [0, 5 / 16, 0, -5 / 4, 0, 1]
        )

    def test_equioscillation_on_interval(self):
        p = monic_classical_chebyshev(7)
        x = np.cos(np.linspace(0, np.pi, 4001)).astype(complex)
        vals = np.abs(p(x))
        assert vals.max() == pytest.approx(2.0 ** -6, rel=1e-12)


class TestRateExperiment:
    def test_circle_exact_match_flag(self):
        rep = rate_experiment(Circle(1.0), 3, [2, 4, 8, 16, 32], opts=FAST, M=256)
        assert rep.exact_match
        assert rep.slope is None

    def test_one_grid_continuation_per_level(self, monkeypatch):
        # the exchange's scans of a level and the sweep's one scan for D and
        # the Faber norm all scan one sample per level and share its grid
        # continuation: one M-point call a level
        M, calls = 512, []
        direct = curves.points_at_angles

        def counted(f, r, thetas, near):
            calls.append(np.size(thetas))
            return direct(f, r, thetas, near)

        monkeypatch.setattr(curves, "points_at_angles", counted)
        monkeypatch.setattr(minimax, "points_at_angles", counted)
        levels = [2, 4, 8, 16]
        rate_experiment(BERNOULLI, 3, levels, M=M)
        assert calls.count(M) == len(levels)

    def test_one_norm_scan_per_sweep(self, monkeypatch):
        # D and the Faber norm of every level come from one batched scan
        # of two pairs a level after the solves, not two more scans a level:
        # its secant steps make at most _SECANT_STEPS off-grid calls
        off_grid, scans = [], []
        direct_points, direct_scan = minimax.points_at_angles, minimax._curve_maxima

        def counted_points(f, r, thetas, near):
            off_grid.append(len(scans))  # the number of the scan that calls
            return direct_points(f, r, thetas, near)

        def counted_scan(pairs):
            scans.append(len(pairs))
            return direct_scan(pairs)

        monkeypatch.setattr(minimax, "points_at_angles", counted_points)
        monkeypatch.setattr(minimax, "_curve_maxima", counted_scan)
        levels = [2, 4, 8, 16]
        rate_experiment(BERNOULLI, 3, levels, M=512)
        exchange_tests = scans.count(1)
        assert exchange_tests >= len(levels)
        assert sorted(scans) == [1] * exchange_tests + [2 * len(levels)]
        batched = scans.index(2 * len(levels)) + 1
        assert 0 < off_grid.count(batched) <= minimax._SECANT_STEPS

    def test_bernoulli_rate(self):
        rep = rate_experiment(BERNOULLI, 3, [2, 4, 8, 16, 32], opts=FAST, M=512)
        assert not rep.exact_match
        assert rep.slope <= -0.9
        assert rep.D[-1] < rep.D[0] / 10
        assert np.all(np.diff(rep.r_values) > 0)
        assert all(s.converged for s in rep.solutions)

    def test_solutions_reach_the_curve_sup(self):
        # at the harness defaults each converged solve has no maximum of |p|
        # on the curve above its sup norm by more than the tolerance
        rep = rate_experiment(BERNOULLI, 3, [1.2, 2.4, 4.8, 9.6], M=512)
        for r, sol in zip(rep.r_values, rep.solutions):
            fine = sample_level_curve(BERNOULLI, r, 2 ** 14).points
            assert np.abs(sol.polynomial(fine)).max() <= sol.sup_norm * (1 + 2e-10)

    def test_norms_reach_the_curve_sup(self):
        # D and the Faber norm are curve sups from the solve's own sample,
        # never below the maximum over a dense sample of L_r; the Chebyshev
        # norm is the solve's certified sup_norm
        f = InversePolynomialImage(ComplexPolynomial([0.1, -2.0, 0.0, 1.0]))
        rep = rate_experiment(f, 4, [1.5, 3, 6, 12])
        fhat = faber_basis(f, 4)[4]
        for i, r in enumerate(rep.r_values):
            fine = sample_level_curve(f, r, 2 ** 16).points
            sol = rep.solutions[i]
            assert rep.faber_sup[i] >= (1 - 1e-12) * np.abs(fhat(fine)).max()
            assert rep.D[i] >= (1 - 1e-12) * np.abs((sol.polynomial - fhat)(fine)).max()
            assert rep.cheb_sup[i] == sol.sup_norm

    def test_bound_chain(self):
        rep = rate_experiment(BERNOULLI, 4, [2, 4, 8, 16], opts=FAST, M=256)
        assert np.all(rep.cheb_sup <= rep.faber_sup * (1 + 1e-12))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            rate_experiment(BERNOULLI, 3, [2, 3, 4], opts=FAST)
        with pytest.raises(ValueError):
            rate_experiment(BERNOULLI, 3, [2, 3, 4, 5], opts=FAST)

    def test_unconverged_aborts_with_diagnostics(self):
        starved = SolveOptions(tol_rel=1e-14, max_iter=3)
        with pytest.raises(ExperimentError) as exc:
            rate_experiment(BERNOULLI, 3, [2, 4, 8, 16, 32], opts=starved, M=256)
        assert exc.value.solution is not None
        assert not exc.value.solution.converged

    def test_interval_rate_decays(self):
        # T is level-independent here, so D(r) measures the distance of the
        # fixed classical polynomial to its own large-r limit: still decays
        rep = rate_experiment(Interval(), 4, [2, 4, 8, 16, 32], opts=FAST, M=256)
        assert rep.exact_match or rep.slope <= -0.9

    def test_determinism(self):
        a = rate_experiment(BERNOULLI, 3, [2, 4, 8, 16], opts=FAST, M=256)
        b = rate_experiment(BERNOULLI, 3, [2, 4, 8, 16], opts=FAST, M=256)
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )


class TestInvariance:
    def test_interval_oracle(self):
        rep = invariance_experiment(Interval(), 5, (1.5, 4.0), opts=FAST, M=256)
        assert rep.applicable
        assert rep.coefficient_distance < 1e-6
        np.testing.assert_allclose(
            rep.oracle.coeffs, [0, 5 / 16, 0, -5 / 4, 0, 1], atol=1e-15
        )
        assert max(rep.oracle_distances) < 1e-6

    def test_lemniscate_oracle(self):
        rep = invariance_experiment(BERNOULLI, 6, (1.5, 4.0), opts=FAST, M=256)
        expected = np.array([1.0])
        for _ in range(3):
            expected = np.convolve(expected, [-1.0, 0.0, 1.0])
        np.testing.assert_allclose(rep.oracle.coeffs, expected)
        assert rep.coefficient_distance < 1e-6
        assert max(rep.oracle_distances) < 1e-6

    def test_not_applicable_degree(self):
        rep = invariance_experiment(BERNOULLI, 3, (1.5, 4.0), opts=FAST)
        assert not rep.applicable
        assert rep.coefficient_distance is None

    def test_period2_family(self):
        # the oracle Fhat_n is the monic Chebyshev polynomial of the interval
        # composed with P: z^2 - 3 at n = 2, (z^2 - 3)^2 - 1/2 at n = 4
        fam = InversePolynomialImage(ComplexPolynomial([-3.0, 0.0, 1.0]))
        for n, expected in ((2, [-3.0, 0.0, 1.0]), (4, [8.5, 0.0, -6.0, 0.0, 1.0])):
            rep = invariance_experiment(fam, n, (1.5, 3.0), opts=FAST, M=256)
            assert rep.applicable
            np.testing.assert_allclose(rep.oracle.coeffs, expected, atol=1e-14)
            assert rep.coefficient_distance < 1e-5
            assert max(rep.oracle_distances) <= 1e-5

    def test_cubic_lemniscate(self):
        # degree-3 generator: T_3 on every level curve is the generator itself
        fam = Lemniscate(ComplexPolynomial([0.25, -1.0, 0.0, 1.0]), 1.0)
        rep = invariance_experiment(fam, 3, (1.5, 4.0), opts=FAST, M=384)
        assert rep.applicable
        np.testing.assert_allclose(rep.oracle.coeffs, [0.25, -1.0, 0.0, 1.0])
        assert rep.coefficient_distance < 1e-6
        assert max(rep.oracle_distances) < 1e-6

    def test_explicit_map_family(self):
        # psi-only family equal to the interval: same invariance behavior
        from equicheb.curves import ExplicitMap
        from equicheb.series import LaurentSeriesAtInfinity

        fam = ExplicitMap(psi=LaurentSeriesAtInfinity(0.5, [0.0, 0.5], exact=True))
        rep = invariance_experiment(fam, 3, (1.5, 3.0), opts=FAST, M=256)
        assert rep.applicable and rep.oracle is None
        # the series-evaluated sampler carries ulp-level asymmetries, so the
        # solve sits at certificate-level accuracy rather than the exactly
        # symmetric interval sampler's machine-level agreement
        assert rep.coefficient_distance < 1e-4
        oracle = monic_classical_chebyshev(3)
        assert rep.polynomials[0].coefficient_distance(oracle) < 1e-4


class TestWidom:
    def test_circle_identically_zero(self):
        rep = widom_experiment(Circle(1.0), 2.0, 6, opts=FAST)
        vals = [v for v in rep.values if v is not None]
        assert max(vals) < 1e-12

    def test_one_sample_per_size(self, monkeypatch):
        # every n <= 16 solves on the same 512 points; 17 and 18 take 544
        # and 576
        sizes = []
        direct = experiments.sample_level_curve

        def counted(f, r, M):
            sizes.append(M)
            return direct(f, r, M)

        monkeypatch.setattr(experiments, "sample_level_curve", counted)
        rep = widom_experiment(Interval(), 2.0, 18)
        assert sizes == [512, 544, 576]
        assert all(v is not None for v in rep.values)

    @pytest.mark.parametrize("r", [1.0, 0.5])
    def test_level_at_most_one_refused(self, r):
        with pytest.raises(ValueError, match="level r must be finite and exceed 1"):
            widom_experiment(Circle(1.0), r, 3)

    def test_lemniscate_even_degrees_zero(self):
        rep = widom_experiment(BERNOULLI, 2.0, 6, opts=FAST)
        for n in (2, 4, 6):
            v = rep.values[n - 1]
            assert v is not None and v < 1e-9


class TestTrajectories:
    def test_greedy_match_is_bijection(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        perm, dists = greedy_bijective_match(a, a[::-1])
        assert sorted(perm) == list(range(9))
        assert dists.max() == 0.0

    def test_greedy_match_refuses_unequal_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            greedy_bijective_match(np.zeros(3, complex), np.zeros(2, complex))

    def test_bernoulli_degree_two_constant(self):
        # exact invariance: both zero trajectories sit at +-1 for every r
        rep = zero_trajectories(BERNOULLI, 2, [1.5, 2.0, 3.0, 4.0], opts=FAST, M=128)
        assert rep.trajectories.shape == (2, 4)
        for row in rep.trajectories:
            assert np.abs(row - row[0]).max() < 1e-8
        assert sorted(np.round(rep.trajectories[:, 0].real, 6)) == [-1.0, 1.0]
        assert not rep.step_flagged.any()

    def test_faber_terminal_comparison(self):
        rep = zero_trajectories(BERNOULLI, 4, [2.0, 2.5, 3.0, 4.0], opts=FAST, M=128)
        # degree 4 is exactly invariant: endpoints equal Faber roots (+-1 double)
        assert rep.terminal_distances.max() < 1e-4

    def test_precision_limited_levels_reported(self):
        rep = zero_trajectories(BERNOULLI, 4, [2.0, 3000.0], opts=FAST, M=128)
        assert rep.precision_limited.tolist() == [False, True]
        assert rep.to_json_dict()["precision_limited"] == [False, True]

    def test_gaps_recorded(self):
        rep = zero_trajectories(BERNOULLI, 2, [1.5, 2.0, 4.0, 8.0], opts=FAST, M=128)
        assert len(rep.root_sets) == 4
        assert all(rs is not None for rs in rep.root_sets)

    def test_triple_faber_roots_certified(self):
        # F_6 = (z^2 - 1)^3 and T_6 on every level: triple roots at +-1,
        # certified by the root finder's backward-error test in a few steps
        rep = zero_trajectories(BERNOULLI, 6, [2.0, 4.0], opts=FAST, M=128)
        assert 1 <= rep.faber_roots.iterations <= 3
        assert all(1 <= rs.iterations <= 3 for rs in rep.root_sets)
        assert rep.terminal_distances.max() < 1e-3

    def test_root_finder_failure(self, monkeypatch):
        # a level whose roots cannot be certified is a gap; the Faber roots,
        # the last row of the root batch, are required
        from equicheb import experiments
        from equicheb.rootfind import all_roots_batch

        def failing_on(k):
            def find(polys):
                found = all_roots_batch(polys)
                found[k] = None
                return found
            return find

        monkeypatch.setattr(experiments, "all_roots_batch", failing_on(1))
        rep = zero_trajectories(BERNOULLI, 2, [1.5, 2.0, 3.0], opts=FAST, M=128)
        assert rep.root_sets[1] is None
        assert rep.successful_r.tolist() == [1.5, 3.0]
        monkeypatch.setattr(experiments, "all_roots_batch", failing_on(-1))
        with pytest.raises(ExperimentError, match="Faber"):
            zero_trajectories(BERNOULLI, 2, [1.5, 2.0, 3.0], opts=FAST, M=128)

    def test_no_converged_level(self, monkeypatch):
        # every level unconverged leaves nothing to track
        solve_batch = experiments.solve_chebyshev_batch
        monkeypatch.setattr(
            experiments, "solve_chebyshev_batch",
            lambda *args: [replace(sol, converged=False) for sol in solve_batch(*args)],
        )
        with pytest.raises(ExperimentError, match="no level produced a converged solve"):
            zero_trajectories(BERNOULLI, 2, [1.5, 2.0], opts=FAST, M=128)

    def test_default_settings_converge_at_low_levels(self):
        # criterion 9's two lowest levels, where T_21 is hardest to certify:
        # the default tolerance 1e-10 is reached there too
        rep = zero_trajectories(BERNOULLI, 21, [1.05, 1.1], M=512)
        assert all(rs is not None for rs in rep.root_sets)
        assert rep.successful_r.tolist() == [1.05, 1.1]

    def test_high_degree_endpoints_in_resolvable_regime(self):
        # terminal levels up to about 4 are resolved in double precision;
        # above that (eps * r^n > 1e-3, residuals scale like r^n) the solves
        # are precision-limited and refined in double-double, which
        # criterion 9 exercises up to r = 8
        opts = SolveOptions(tol_rel=5e-4, max_iter=4000)
        rep = zero_trajectories(
            BERNOULLI, 21, np.geomspace(1.5, 4.0, 8), opts=opts, M=512
        )
        assert rep.terminal_distances.max() <= 2e-3


class TestRivlin:
    def test_zero_polynomial_slack(self):
        # p = 0: both sides vanish (max|z^n| = 1); direct evaluation
        vals = np.abs(np.fft.fft(np.eye(1, 256, 4)[0]))
        assert vals.max() == pytest.approx(1.0)

    def test_constant_polynomial(self):
        # p = kappa: max|kappa + z^n| = |kappa| + 1, slack = (n-1)|kappa| >= 0
        kappa = 0.7 - 0.2j
        n, M = 5, 512
        padded = np.zeros(M, dtype=complex)
        padded[0] = kappa
        padded[n] = 1.0
        lhs = abs(kappa)
        rhs = np.abs(np.fft.fft(padded)).max()
        # grid max sits within one angular step of the aligned maximum
        assert rhs == pytest.approx(abs(kappa) + 1, abs=2e-5)
        assert n * (rhs - 1) - lhs >= 0

    def test_inequality_random_trials(self):
        rep = rivlin_check(8, 1000, 4096, seed=123)
        assert rep.worst_slack >= -1e-9 * 8
        assert rep.ratio_min >= 1 / 8 - 1e-6

    def test_determinism(self):
        a = rivlin_check(5, 200, 1024, seed=9)
        b = rivlin_check(5, 200, 1024, seed=9)
        assert a.to_json_dict() == b.to_json_dict()

    def test_grid_contract(self):
        with pytest.raises(ValueError):
            rivlin_check(8, 10, 256)  # 256 < 64*8

    @pytest.mark.parametrize("n, trials, message", [
        (0, 10, "degree must be at least 1"), (2, 0, "need at least one trial")])
    def test_degree_and_trials_refused(self, n, trials, message):
        with pytest.raises(ValueError, match=message):
            rivlin_check(n, trials, 256)


class TestFaberErrorDecay:
    def test_interval_slope(self):
        rep = faber_error_decay(Interval(), 4, [2, 4, 8, 16])
        assert rep.slope <= -0.9
        # closed form: the remainder is exactly phi^-4 / 2^4 in modulus;
        # atol covers cancellation noise (the two terms are ~r^4 each)
        np.testing.assert_allclose(
            rep.values, [r ** -4.0 / 16 for r in (2, 4, 8, 16)], rtol=1e-6, atol=1e-11
        )

    def test_circle_identically_zero(self):
        rep = faber_error_decay(Circle(1.0), 3, [2, 4, 8, 16])
        # pure rounding: two fp paths to the same value, scale r^3
        assert rep.values.max() < 1e-15 * 16 ** 3 * 4
        # no level rises above its rounding floor, so no slope is fitted
        # (a fit through the rounding read +3, the growth of r^3 eps)
        assert not rep.resolved.any() and rep.slope is None

    def test_rounding_levels_leave_the_fit(self):
        # the remainder (2r)^-10 falls below the cancellation of two terms
        # of size (r/2)^10 from r = 8 on: those levels read 1.6e-9 to 1.46
        # and pulled the slope over all six to +4.99.  Fitted over the
        # resolved r = 2, 4 it is the closed form's -10 (r = 4 reads 0.17%
        # high, its floor 9.1e-12 about 1% of its value)
        rep = faber_error_decay(Interval(), 10, [2, 4, 8, 16, 32, 64])
        assert rep.resolved.tolist() == [True, True, False, False, False, False]
        assert rep.slope == pytest.approx(-10.0, abs=0.01)
        np.testing.assert_allclose(rep.values[:2], [4.0 ** -10, 8.0 ** -10], rtol=0.01)

    def test_needs_map_values(self):
        with pytest.raises(ValueError):
            faber_error_decay(BERNOULLI, 3, [2, 4, 8, 16])

    @pytest.mark.parametrize("grid", [[], [2.0], [2.0, 2.0]], ids=["empty", "one", "repeated"])
    def test_needs_two_distinct_levels(self, grid):
        # one distinct level fixes no slope: polyfit used to return one
        # with a RankWarning, and an empty grid raised TypeError
        with pytest.raises(ValueError, match="2 distinct levels"):
            faber_error_decay(Interval(), 3, grid)

    def test_report_serialises(self):
        rep = faber_error_decay(Interval(), 4, [2, 4, 8, 16])
        d = json.loads(json.dumps(rep.to_json_dict()))
        assert list(d) == ["report", "family", "n", "r", "values", "resolved", "slope"]
        assert d["report"] == "faber-error" and d["family"] == {"family": "interval"}
        assert d["n"] == 4 and d["r"] == [2.0, 4.0, 8.0, 16.0]
        assert d["values"] == rep.values.tolist() and d["slope"] == rep.slope
        assert d["resolved"] == [True] * 4
