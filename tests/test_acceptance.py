"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines as they
complete.  Tolerances are the contract values, not calibrated knobs.
"""

import numpy as np
import pytest

from equicheb.curves import (
    Circle,
    Interval,
    InversePolynomialImage,
    Lemniscate,
    phi_series,
    sample_level_curve,
)
from equicheb.experiments import (
    EXPERIMENT_OPTS,
    faber_error_decay,
    invariance_experiment,
    monic_classical_chebyshev,
    rate_experiment,
    rivlin_check,
    widom_experiment,
    zero_trajectories,
)
from equicheb.minimax import solve_chebyshev
from equicheb.series import ComplexPolynomial, monic_faber

BERNOULLI = Lemniscate(ComplexPolynomial([-1.0, 0.0, 1.0]), 1.0)
PERIOD2 = InversePolynomialImage(
    ComplexPolynomial([-3.0, 0.0, 1.0]),
    alternation_points=[-2.0, -np.sqrt(2.0), 2.0],
)

# every criterion solves at the one harness setting, EXPERIMENT_OPTS (gap
# tolerance 1e-10, no sample doubling), so each measures T_n itself and not
# an early-certified iterate


def record(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def rate_n5():
    return rate_experiment(BERNOULLI, 5, [2, 4, 8, 16, 32], opts=EXPERIMENT_OPTS, M=512)


def test_criterion_1_circle_exactness():
    worst_coef, worst_norm = 0.0, 0.0
    for n in range(1, 11):
        for r in (1.5, 2.0, 4.0):
            sample = sample_level_curve(Circle(1.0), r, max(256, 16 * n))
            sol = solve_chebyshev(sample, n, EXPERIMENT_OPTS)
            assert sol.converged
            low = np.abs(sol.polynomial.coeffs[:-1]).max() if n > 0 else 0.0
            worst_coef = max(worst_coef, low)
            worst_norm = max(worst_norm, abs(sol.sup_norm - r ** n) / r ** n)
    ok = worst_coef <= 1e-8 and worst_norm <= 1e-8
    record(1, ok, f"circle: max lower-coefficient {worst_coef:.2e} (tol 1e-8), "
                  f"max relative norm error {worst_norm:.2e} (tol 1e-8)")


def test_criterion_2_ellipse_invariance():
    worst = 0.0
    for n in range(1, 9):
        oracle = monic_classical_chebyshev(n)
        for r in (1.5, 2.0, 4.0):
            sample = sample_level_curve(Interval(), r, 512)
            sol = solve_chebyshev(sample, n, EXPERIMENT_OPTS)
            worst = max(worst, sol.polynomial.coefficient_distance(oracle))
    record(2, worst <= 1e-6,
           f"ellipse levels vs classical Chebyshev: max coefficient distance "
           f"{worst:.2e} (tol 1e-6)")


def test_criterion_3_lemniscate_exactness():
    worst = 0.0
    for n in (2, 4, 6, 8):
        expected = np.array([1.0])
        for _ in range(n // 2):
            expected = np.convolve(expected, [-1.0, 0.0, 1.0])
        oracle = ComplexPolynomial(expected)
        for r in (1.5, 2.0, 4.0):
            sample = sample_level_curve(BERNOULLI, r, 512)
            sol = solve_chebyshev(sample, n, EXPERIMENT_OPTS)
            worst = max(worst, sol.polynomial.coefficient_distance(oracle))
    record(3, worst <= 1e-6,
           f"Bernoulli even degrees vs generator powers: max coefficient "
           f"distance {worst:.2e} (tol 1e-6)")


def test_criterion_4_period2_invariance():
    worst = 0.0
    for n in (2, 4):
        rep = invariance_experiment(PERIOD2, n, (1.5, 3.0), opts=EXPERIMENT_OPTS, M=512)
        assert rep.applicable
        worst = max(worst, rep.coefficient_distance)
    record(4, worst <= 1e-5,
           f"period-2 set level invariance: max coefficient distance "
           f"{worst:.2e} (tol 1e-5)")


def test_criterion_5_main_rate(rate_n5):
    rep3 = rate_experiment(BERNOULLI, 3, [2, 4, 8, 16, 32], opts=EXPERIMENT_OPTS, M=512)
    rep5 = rate_n5
    ok = True
    details = []
    for rep in (rep3, rep5):
        slope_ok = rep.slope is not None and rep.slope <= -0.9
        drop_ok = rep.D[-1] < rep.D[0] / 10
        ok = ok and slope_ok and drop_ok
        details.append(
            f"n={rep.n}: slope {rep.slope:+.3f} (tol <= -0.9), "
            f"D(32)/D(2) {rep.D[-1] / rep.D[0]:.2e} (tol < 0.1)"
        )
    record(5, ok, "; ".join(details))


def test_criterion_6_alpha_decay(rate_n5):
    # decay law: |alpha_k| r^(k+1) stays bounded over r in {4..32}; this is
    # a boundedness test with 50 as the concrete ceiling, since the sharp
    # constant is not known in closed form
    sub = rate_n5.scaled_alpha[rate_n5.r_values >= 4.0]
    worst = float(sub.max())
    record(6, worst <= 50.0,
           f"n=5 scaled Faber coefficients |alpha_k| r^(k+1) over r>=4: "
           f"max {worst:.3e} (bound 50)")


def test_criterion_7_rivlin():
    ok = True
    details = []
    for n in (2, 5, 8, 12):
        rep = rivlin_check(n, trials=1000, grid_M=4096, seed=20240517 + n)
        slack_ok = rep.worst_slack >= -1e-9 * n
        ratio_ok = rep.ratio_min >= 1.0 / n - 1e-6
        ok = ok and slack_ok and ratio_ok
        details.append(f"n={n}: slack {rep.worst_slack:.3e}, ratio "
                       f"{rep.ratio_min:.4f} (floor {1.0 / n:.4f})")
    record(7, ok, "; ".join(details))


def test_criterion_8_widom_remark():
    # On the interval, T_n on every ellipse is the monic classical Chebyshev
    # polynomial, which is also the monic Faber polynomial: the normalized
    # error (c/r)^n * D_n is exactly 0 for every n, and a computed value is
    # rounding.  The remark holds there as "zero up to rounding": no gaps,
    # and every value at most 1e-10 of the normalized sup of T_n (the floor
    # at which rate_experiment calls a level an exact match).
    rep = widom_experiment(Interval(), 2.0, 25)
    gaps = rep.values.count(None)
    present = [v for v in rep.values if v is not None]
    worst = max(
        (v / s for v, s in zip(rep.values, rep.normalized_sup) if v is not None),
        default=np.inf,
    )
    ok = gaps == 0 and worst <= 1e-10
    head = ", ".join(f"{v:.1e}" for v in present[:4])
    tail = ", ".join(f"{v:.1e}" for v in present[-3:])
    record(8, ok,
           f"interval normalized errors (gaps {gaps}): [{head} ... {tail}]; "
           f"max relative to the normalized sup of T_n {worst:.2e} (tol 1e-10)")


def test_criterion_9_zero_locations_and_trajectories():
    fhat21 = monic_faber(phi_series(BERNOULLI, 22), 21)
    from equicheb.rootfind import all_roots

    roots = all_roots(fhat21).roots
    near_zero = np.abs(roots) <= 1e-8
    others = roots[~near_zero]
    location_ok = near_zero.sum() == 1 and len(others) == 20 and (
        np.abs(others ** 2 - 1.0).max() < 1.0
    )
    traj = zero_trajectories(
        BERNOULLI, 21, np.geomspace(1.05, 8.0, 24), opts=EXPERIMENT_OPTS, M=512
    )
    endpoint = float(traj.terminal_distances.max())
    endpoint_ok = endpoint <= 1e-3
    record(9, location_ok and endpoint_ok,
           f"Faber degree 21: origin roots {near_zero.sum()} (want 1), "
           f"max |z^2-1| of others {np.abs(others ** 2 - 1.0).max():.4f} "
           f"(< 1); trajectory endpoint distance at r=8: {endpoint:.3e} "
           f"(tol 1e-3)")


def test_criterion_10_faber_error_decay():
    rep = faber_error_decay(Interval(), 4, [2, 4, 8, 16])
    record(10, rep.slope <= -0.9,
           f"interval remainder |Fhat_4 - (phi/c)^4|: log-log slope "
           f"{rep.slope:+.3f} (tol <= -0.9)")
