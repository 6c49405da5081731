from math import comb

import numpy as np
import pytest

from equicheb import dd
from equicheb.dd import DD, dot, polyval, recip, roots_of_unity

mp = pytest.importorskip("mpmath")


@pytest.fixture(autouse=True)
def fifty_digits():
    with mp.workdps(50):
        yield


def to_mp(x: DD):
    """mpmath values of a 1-d DD array."""
    return [
        mp.mpc(mp.mpf(h.real) + mp.mpf(l.real), mp.mpf(h.imag) + mp.mpf(l.imag))
        for h, l in zip(np.atleast_1d(x.hi), np.atleast_1d(x.lo))
    ]


def random_dd(rng, size):
    hi = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    lo = 1e-17 * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
    return DD(hi, lo)


def test_add_and_mul_carry_32_digits():
    rng = np.random.default_rng(1)
    a, b = random_dd(rng, 40), random_dd(rng, 40)
    for got, x, y in zip(to_mp(a + b), to_mp(a), to_mp(b)):
        assert abs(got - (x + y)) <= 1e-31 * (abs(x) + abs(y))
    for got, x, y in zip(to_mp(a - b), to_mp(a), to_mp(b)):
        assert abs(got - (x - y)) <= 1e-31 * (abs(x) + abs(y))
    for got, x, y in zip(to_mp(a * b), to_mp(a), to_mp(b)):
        assert abs(got - x * y) <= 1e-31 * abs(x) * abs(y)


def test_dot_recovers_what_double_cancellation_loses():
    a = DD(np.array([[1e16, 1.0, -1e16, 0.25]]))
    b = DD(np.ones(4))
    assert (a.hi @ b.hi)[0] != 1.25
    assert to_mp(dot(a, b))[0] == mp.mpf(1.25)


@pytest.mark.parametrize("shape", [(30, 22), (21, 512), (600, 22)])
def test_dot_carries_32_digits(shape):
    # rows spanning many binades, as the columns of a Vandermonde matrix do;
    # (21, 512) and (600, 22) are the shapes of V^T x and V y in the refinement
    rng = np.random.default_rng(5)
    m, k = shape
    a = random_dd(rng, m * k)
    scale = 2.0 ** rng.integers(-40, 40, size=m * k)
    a = DD(a.hi * scale, a.lo * scale)
    b = random_dd(rng, k)
    got = to_mp(dot(DD(a.hi.reshape(m, k), a.lo.reshape(m, k)), b))
    av, bv = to_mp(a), to_mp(b)
    for i in range(m):
        terms = [av[i * k + j] * bv[j] for j in range(k)]
        bound = mp.fsum(abs(t) for t in terms)
        assert abs(got[i] - mp.fsum(terms)) <= 1e-31 * bound


@pytest.mark.parametrize("n", [1, 8, 9, 21, 40])
def test_powers(n):
    rng = np.random.default_rng(3)
    z = random_dd(rng, 6)
    table = z.powers(n)
    assert table.hi.shape == (6, n + 1)
    for i, x in enumerate(to_mp(z)):
        for k, got in enumerate(to_mp(table[i])):
            assert abs(got - x**k) <= 1e-30 * abs(x) ** k


def test_recip_and_polyval():
    for x in (3.0, 8.0, 7.123):
        assert abs(to_mp(recip(x))[0] * x - 1) <= 1e-31
    rng = np.random.default_rng(4)
    z = random_dd(rng, 10)
    coeffs = np.array([0.25, -1.0, 0.0, 1.0])
    for got, x in zip(to_mp(polyval(coeffs, z)), to_mp(z)):
        assert abs(got - (x**3 - x + mp.mpf(0.25))) <= 1e-30 * (1 + abs(x)) ** 3


@pytest.mark.parametrize("N", [3, 512, 4096])
def test_roots_of_unity(N):
    table = roots_of_unity(N)
    assert not table.hi.flags.writeable
    for j in range(0, N, max(1, N // 64)):
        got = to_mp(table[j : j + 1])[0]
        assert abs(got - mp.expjpi(mp.mpf(2 * j) / N)) <= 1e-31


def test_binomial_table_built_once_per_degree():
    # the Taylor shift of the refinement reads C(k, j) at [j, k]: one
    # read-only table per degree, each entry Python's exact integer rounded
    # once, also above 2^53 (C(60, 30) = 1.2e17)
    assert comb(60, 30) > 2 ** 53
    for n in (0, 1, 21, 60):
        table = dd._binomials(n)
        assert table is dd._binomials(n) and not table.flags.writeable
        j, k = np.indices((n + 1, n + 1))
        loop = np.vectorize(comb, otypes=[object])(k, j).astype(float)
        assert table.tobytes() == loop.tobytes()
