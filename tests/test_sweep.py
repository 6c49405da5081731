"""The default sweep: 960 solves at the default settings.

Six families (the circle, the interval, Bernoulli's lemniscate, the
lemniscate of z^3 - z + 1/4, and the preimages of z^2 - 3 and
z^3 - 2z + 0.1), n = 2..21, on the levels geomspace(1.05, 3, 8), with
M = max(256, 16n) sample points.  It takes about 8 s (2-core machine,
one or two BLAS threads), so the ``sweep`` marker keeps it out of the
default run; run it with

    python -m pytest -q -s -m sweep tests/test_sweep.py

Every solve converges and ends on the path none, start or newton.  It
prints the paths per family, the total interior-point and Newton steps,
the total secant rounds of its curve scans (calls of
``points_at_angles`` with an array of levels), and the curve starts
attempted, scanned (past the gate) and certified: 496, 156 and 135.  It
bounds the totals by STEP_BUDGET: 5,122 interior-point steps, 1,509
Newton steps and 4,205 secant rounds, the totals at one BLAS thread
(at two, the steps are the same and the rounds 4,204), so a change that
costs steps or rounds fails.  The path counts are not pinned:
moving each sample point by one ulp in each coordinate, in a random
direction, moves 7 solves on z^2 - 3 between none, start and newton.
"""

from collections import Counter

import numpy as np
import pytest

from equicheb import minimax
from equicheb.curves import Circle, Interval, InversePolynomialImage, Lemniscate, sample_level_curve
from equicheb.minimax import solve_chebyshev
from equicheb.series import ComplexPolynomial

FAMILIES = {
    "circle": Circle(),
    "interval": Interval(),
    "bernoulli": Lemniscate(ComplexPolynomial([-1.0, 0.0, 1.0]), 1.0),
    "cubic lemniscate": Lemniscate(ComplexPolynomial([0.25, -1.0, 0.0, 1.0]), 1.0),
    "z^2 - 3": InversePolynomialImage(ComplexPolynomial([-3.0, 0.0, 1.0])),
    "z^3 - 2z + 0.1": InversePolynomialImage(ComplexPolynomial([0.1, -2.0, 0.0, 1.0])),
}
PATHS = ("none", "start", "newton")
STEP_BUDGET = {"interior point": 5122, "newton": 1509, "secant rounds": 4205}


@pytest.mark.sweep
def test_default_sweep(monkeypatch):
    # a secant round of a curve scan calls points_at_angles with an array of
    # levels; the curve start places its moved points with one level
    rounds, direct = [], minimax.points_at_angles
    monkeypatch.setattr(minimax, "points_at_angles",
                        lambda *args: rounds.append(np.ndim(args[1]) > 0) or direct(*args))
    starts, direct_start, direct_scan = Counter(), minimax._curve_start, minimax._curve_maxima

    def curve_start(*args):
        sol = direct_start(*args)
        starts["attempted"] += 1
        starts["certified"] += sol is not None
        return sol

    def curve_maxima(pairs, turns=None):  # only the start's scan is handed its gate's turns
        starts["scanned"] += turns is not None
        return direct_scan(pairs, turns)

    monkeypatch.setattr(minimax, "_curve_start", curve_start)
    monkeypatch.setattr(minimax, "_curve_maxima", curve_maxima)
    paths, unconverged = {name: Counter() for name in FAMILIES}, []
    steps = newton_steps = 0
    for name, family in FAMILIES.items():
        for r in np.geomspace(1.05, 3, 8):
            for n in range(2, 22):
                sol = solve_chebyshev(sample_level_curve(family, r, max(256, 16 * n)), n)
                paths[name][sol.exchange] += 1
                steps += sol.iterations
                newton_steps += sol.newton_steps
                if not sol.converged:
                    unconverged.append((name, float(r), n))
    print()
    print(f"{'family':18}" + "".join(f"{path:>9}" for path in PATHS))
    for name, counts in paths.items():
        print(f"{name:18}" + "".join(f"{counts[path]:9d}" for path in PATHS))
    total = sum(paths.values(), Counter())
    print(f"{'all':18}" + "".join(f"{total[path]:9d}" for path in PATHS))
    print(f"interior-point steps {steps}, Newton steps {newton_steps}, secant rounds {sum(rounds)}")
    print(f"curve starts: {starts['attempted']} attempted, {starts['scanned']} scanned, "
          f"{starts['certified']} certified")
    assert sum(total.values()) == 960
    assert not unconverged
    assert sum(total[path] for path in PATHS) == 960
    assert steps <= STEP_BUDGET["interior point"]
    assert newton_steps <= STEP_BUDGET["newton"]
    assert sum(rounds) <= STEP_BUDGET["secant rounds"]
