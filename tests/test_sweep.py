"""The default sweep: 960 solves at the default settings.

Six families (the circle, the interval, Bernoulli's lemniscate, the
lemniscate of z^3 - z + 1/4, and the preimages of z^2 - 3 and
z^3 - 2z + 0.1), n = 2..21, on the levels geomspace(1.05, 3, 8), with
M = max(256, 16n) sample points.  It takes about 10 s, so the ``sweep``
marker keeps it out of the default run; run it with

    python -m pytest -q -s -m sweep tests/test_sweep.py

It prints the exchange paths per family and the total interior-point and
Newton steps.  The preimages' path counts are not pinned: their solves at
n >= 12 near r = 1 flip path under one-ulp changes to the sample or the
basis.
"""

from collections import Counter

import numpy as np
import pytest

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
# families whose every solve ends without a re-solve
NO_RESOLVE = ("circle", "interval", "bernoulli", "cubic lemniscate")
PATHS = ("none", "start", "newton", "resolve")


@pytest.mark.sweep
def test_default_sweep():
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
    print(f"interior-point steps {steps}, Newton steps {newton_steps}")
    assert sum(total.values()) == 960
    assert not unconverged
    assert not any(paths[name]["resolve"] for name in NO_RESOLVE)
