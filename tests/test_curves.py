import numpy as np
import pytest

from equicheb.curves import (
    Circle,
    ExplicitMap,
    Interval,
    InversePolynomialImage,
    Lemniscate,
    capacity_leading_coefficient,
    curve_jets,
    faber_basis,
    family_from_json_dict,
    family_to_json_dict,
    phi_series,
    points_at_angles,
    sample_level_curve,
)
from equicheb import dd, minimax
from equicheb.experiments import monic_classical_chebyshev
from equicheb.series import ComplexPolynomial, DepthExhaustionError, LaurentSeriesAtInfinity


BERNOULLI = Lemniscate(ComplexPolynomial([-1.0, 0.0, 1.0]), 1.0)
PERIOD2 = InversePolynomialImage(
    ComplexPolynomial([-3.0, 0.0, 1.0]),
    alternation_points=[-2.0, -np.sqrt(2.0), 2.0],
)


def binom_half(k):
    b = 1.0
    for i in range(k):
        b *= (0.5 - i) / (i + 1)
    return b


def winding_number(path, z0):
    """Total winding of a closed polyline around z0, in turns."""
    rel = np.asarray(path) - z0
    angles = np.angle(rel)
    d = np.diff(np.append(angles, angles[0]))
    d = (d + np.pi) % (2 * np.pi) - np.pi
    return d.sum() / (2 * np.pi)


class TestCapacity:
    def test_circle(self):
        assert capacity_leading_coefficient(Circle(1.0)) == 1.0
        assert capacity_leading_coefficient(Circle(2.5)) == pytest.approx(0.4)

    def test_interval(self):
        assert capacity_leading_coefficient(Interval()) == 2.0

    def test_lemniscate(self):
        # derived from the level-set potential: c = R^(-1/m)
        assert capacity_leading_coefficient(BERNOULLI) == 1.0
        f = Lemniscate(ComplexPolynomial([0.0, 0.0, 0.0, 1.0]), 8.0)
        assert capacity_leading_coefficient(f) == pytest.approx(0.5)

    def test_inverse_image(self):
        assert capacity_leading_coefficient(PERIOD2) == pytest.approx(np.sqrt(2.0))

    def test_explicit(self):
        phi = LaurentSeriesAtInfinity(3.0, [0.0])
        assert capacity_leading_coefficient(ExplicitMap(phi=phi)) == 3.0


class TestPhiSeries:
    def test_circle_identity(self):
        phi = phi_series(Circle(1.0), 5)
        assert phi.leading_coefficient == 1.0
        assert np.abs(phi.tail).max() == 0.0
        assert phi.exact

    def test_interval_binomial_oracle(self):
        # z + sqrt(z^2-1): tail coefficient of z^(1-2k) is (-1)^k binom(1/2,k)
        phi = phi_series(Interval(), 11)
        assert phi.leading_coefficient == pytest.approx(2.0)
        for k in range(1, 6):
            assert phi.tail[2 * k - 1] == pytest.approx(binom_half(k) * (-1) ** k)
        assert np.abs(phi.tail[::2]).max() < 1e-15

    def test_bernoulli_branch(self):
        phi = phi_series(BERNOULLI, 9)
        assert phi.leading_coefficient == pytest.approx(1.0)
        np.testing.assert_allclose(
            phi.tail[:6].real, [0, -0.5, 0, -0.125, 0, -0.0625], atol=1e-15
        )

    def test_phi_matches_capacity(self):
        for fam in (Circle(2.0), Interval(), BERNOULLI, PERIOD2):
            phi = phi_series(fam, 6)
            assert phi.leading_coefficient == pytest.approx(
                capacity_leading_coefficient(fam)
            )

    def test_period2_square_is_interval_map_of_P(self):
        # phi^2 must equal P + sqrt(P^2-1) as a series (checked numerically
        # far from the set, on the exterior branch |w + s| > 1)
        phi = phi_series(PERIOD2, 24)
        z = np.array([9.0 + 4.0j, -7.0 + 11.0j])
        w = z * z - 3.0
        s = np.sqrt(w * w - 1.0)
        s = np.where(np.abs(w + s) >= np.abs(w - s), s, -s)
        closed = w + s
        got = phi.evaluate(z) ** 2
        np.testing.assert_allclose(got, closed, rtol=1e-12)

    def test_explicit_psi_gives_the_interval_basis(self):
        fam = ExplicitMap(psi=LaurentSeriesAtInfinity(0.5, [0.0, 0.5], exact=True))
        assert capacity_leading_coefficient(fam) == 2.0
        for p, q in zip(faber_basis(fam, 12), faber_basis(Interval(), 12)):
            assert np.array_equal(p.coeffs, q.coeffs)
        with pytest.raises(ValueError, match="psi"):
            phi_series(fam, 8)

    def test_explicit_phi_gives_faber_polynomials(self):
        # the interval's map series: the same basis as the interval's psi
        fam = ExplicitMap(phi=phi_series(Interval(), 13))
        assert capacity_leading_coefficient(fam) == 2.0
        for p, q in zip(faber_basis(fam, 12), faber_basis(Interval(), 12)):
            assert p.coefficient_distance(q) <= 1e-14 * np.abs(q.coeffs).max()

    def test_explicit_map_depth_contract(self):
        # phi and psi follow one rule: depth n - 1 gives degree n
        phi = LaurentSeriesAtInfinity(2.0, [0.0, -0.5, 0.0])  # inexact depth 2
        fam = ExplicitMap(phi=phi)
        with pytest.raises(DepthExhaustionError):
            phi_series(fam, 10)
        assert len(faber_basis(fam, 3)) == 4
        with pytest.raises(DepthExhaustionError):
            faber_basis(fam, 4)
        psi = LaurentSeriesAtInfinity(0.5, [0.0, 0.5, 0.0])  # inexact depth 2
        assert len(faber_basis(ExplicitMap(psi=psi), 3)) == 4
        with pytest.raises(DepthExhaustionError):
            faber_basis(ExplicitMap(psi=psi), 4)


class TestExplicitMapRule:
    PHI = LaurentSeriesAtInfinity(2.0, [0.0, -0.5])

    def test_exactly_one_map(self):
        # phi = psi = 2w are not inverse to each other: capacity from phi
        # would be 2, the sampled curve's is 1/2
        both = LaurentSeriesAtInfinity(2.0, [0.0])
        with pytest.raises(ValueError, match="exactly one"):
            ExplicitMap(phi=both, psi=both)
        with pytest.raises(ValueError, match="exactly one"):
            ExplicitMap()

    def test_phi_only_map_is_not_sampled(self):
        fam = ExplicitMap(phi=self.PHI)
        with pytest.raises(ValueError, match="psi"):
            sample_level_curve(fam, 2.0, 64)
        with pytest.raises(ValueError, match="psi"):
            points_at_angles(fam, 2.0, [0.1], [0.0])


class TestValidation:
    def test_lemniscate_requires_monic(self):
        with pytest.raises(ValueError):
            Lemniscate(ComplexPolynomial([1.0, 2.0]), 1.0)

    def test_lemniscate_requires_positive_level(self):
        with pytest.raises(ValueError):
            Lemniscate(ComplexPolynomial([0.0, 1.0]), 0.0)

    def test_alternation_certificate_checked(self):
        with pytest.raises(ValueError):
            InversePolynomialImage(
                ComplexPolynomial([-3.0, 0.0, 1.0]),
                alternation_points=[-2.0, 0.0, 2.0],  # P(0) = -3 != -1
            )

    def test_unverified_flag(self):
        # a family without alternation points is accepted unverified; a
        # verified one keeps the points its check passed
        f = InversePolynomialImage(ComplexPolynomial([-3.0, 0.0, 1.0]))
        assert f.alternation_points is None
        np.testing.assert_array_equal(PERIOD2.alternation_points, [-2.0, -np.sqrt(2.0), 2.0])

    def test_real_coefficients_required(self):
        with pytest.raises(ValueError):
            InversePolynomialImage(ComplexPolynomial([1.0j, 0.0, 1.0]))

    @pytest.mark.parametrize("make, message", [
        (lambda: Lemniscate(ComplexPolynomial([1.0]), 1.0), "generator degree must be at least 1"),
        (lambda: InversePolynomialImage(ComplexPolynomial([2.0])), "polynomial degree must be at least 1"),
        (lambda: InversePolynomialImage(ComplexPolynomial([3.0, 0.0, -1.0])), "leading coefficient must be positive"),
        (lambda: InversePolynomialImage(ComplexPolynomial([-3.0, 0.0, 1.0]), [-2.0, 2.0]),
         "need m\\+1 strictly increasing"),
        (lambda: InversePolynomialImage(ComplexPolynomial([-3.0, 0.0, 1.0]), [2.0, -np.sqrt(2.0), -2.0]),
         "need m\\+1 strictly increasing"),
        (lambda: phi_series(BERNOULLI, -1), "^depth must be nonnegative"),
        (lambda: sample_level_curve(BERNOULLI, 2.0, 0), "sample size must be positive"),
    ], ids=["lemniscate-degree-0", "preimage-degree-0", "preimage-negative-lead", "alternation-count",
            "alternation-decreasing", "phi-depth", "sample-size"])
    def test_refusals(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    @pytest.mark.parametrize("make", [
        lambda: Circle(np.inf),
        lambda: Circle(np.nan),
        lambda: Lemniscate(ComplexPolynomial([-1.0, 0.0, 1.0]), np.inf),
        lambda: Lemniscate(ComplexPolynomial([np.nan, 1.0]), 1.0),
        lambda: InversePolynomialImage(ComplexPolynomial([-np.inf, 0.0, 1.0])),
        lambda: ExplicitMap(psi=LaurentSeriesAtInfinity(np.inf, [0.0])),
        lambda: ExplicitMap(phi=LaurentSeriesAtInfinity(1.0, [0.0, np.nan])),
        lambda: LaurentSeriesAtInfinity.from_json_dict({"c": 1.0, "tail": [[0.0, np.nan]]}),
        lambda: sample_level_curve(Circle(1.0), np.nan, 16),
        lambda: sample_level_curve(Circle(1.0), np.inf, 16),
    ], ids=["circle-inf", "circle-nan", "lemniscate-R", "lemniscate-P", "preimage-P",
            "psi-c", "phi-tail", "series-json", "level-nan", "level-inf"])
    def test_non_finite_input_rejected(self, make):
        with pytest.raises(ValueError, match="finite"):
            make()


class TestSharedMaps:
    """The exact psi of a circle or the interval, and a root family's base,
    are built once per instance and shared by every read."""

    @pytest.mark.parametrize("family", [Circle(2.0), Interval()], ids=["circle", "interval"])
    def test_psi_built_once_with_read_only_tail(self, family):
        assert family.psi is family.psi
        with pytest.raises(ValueError):
            family.psi.tail[0] = 1.0

    def test_base_built_once(self):
        assert BERNOULLI.base is BERNOULLI.base
        assert PERIOD2.base is PERIOD2.base
        assert BERNOULLI.base.psi is BERNOULLI.base.psi

    def test_equality_and_hashing_unchanged(self):
        a, b = Circle(2.0), Circle(2.0)
        assert a.psi is not None  # a cached read must not enter the comparison
        assert a == b and hash(a) == hash(b)
        assert Circle(2.0) != Circle(3.0)
        assert Interval() == Interval() and hash(Interval()) == hash(Interval())
        twin = Lemniscate(BERNOULLI.P, 1.0)
        assert BERNOULLI == BERNOULLI and BERNOULLI != twin


class TestPointsAtLevels:
    """``points_at_angles`` given an array of levels aligned with the angles
    places each point with the bits of a call at that point's level alone."""

    FAMILIES = {
        "lemniscate": BERNOULLI,
        "interval": Interval(),
        "cubic-preimage": InversePolynomialImage(ComplexPolynomial([0.1, -2.0, 0.0, 1.0])),
    }

    @pytest.mark.parametrize("name", FAMILIES)
    def test_same_bits_as_per_level_calls(self, name):
        # 48 random levels, so that a vectorized r^m, which rounds some
        # levels' powers differently from Python's, would show
        f = self.FAMILIES[name]
        rng = np.random.default_rng(17)
        levels = np.exp(rng.uniform(np.log(1.05), np.log(40.0), 48))
        thetas, near, r, alone = [], [], [], []
        for level in levels:
            s = sample_level_curve(f, float(level), 12)
            t = s.thetas + rng.uniform(0.0, 2.0 * np.pi / s.size, s.size)
            alone.append(points_at_angles(f, float(level), t, s.points))
            thetas.append(t)
            near.append(s.points)
            r.append(np.full(s.size, level))
        z, dz = points_at_angles(f, np.concatenate(r), np.concatenate(thetas), np.concatenate(near))
        assert z.tobytes() == np.concatenate([a[0] for a in alone]).tobytes()
        assert dz.tobytes() == np.concatenate([a[1] for a in alone]).tobytes()


GRID_FAMILIES = {
    "circle": Circle(1.5),
    "interval": Interval(),
    "lemniscate": BERNOULLI,
    "preimage": PERIOD2,
    "explicit": ExplicitMap(psi=LaurentSeriesAtInfinity(1.5, [0.1, 0.3, 0.05j, 0.01], exact=True)),
}


class TestGridSteps:
    """A sample's grid continuation is computed once and shared by every
    curve scan on it, with the same bits as a direct continuation."""

    @pytest.mark.parametrize("name", GRID_FAMILIES)
    def test_equals_direct_continuation(self, name):
        # one point and tangent per sample point, at the sample's own angles
        f = GRID_FAMILIES[name]
        s = sample_level_curve(f, 1.7, 60)
        z, dz = points_at_angles(f, s.r, s.thetas, s.points)
        got_z, got_dz = s.grid_steps
        assert np.array_equal(got_z, z) and np.array_equal(got_dz, dz)
        assert s.grid_steps is s.grid_steps

    @pytest.mark.parametrize("family", [
        Circle(1.0),
        Interval(),
        BERNOULLI,
        Lemniscate(ComplexPolynomial([0.25, -1.0, 0.0, 1.0]), 1.0),
        PERIOD2,
        InversePolynomialImage(ComplexPolynomial([0.1, -2.0, 0.0, 1.0])),
    ], ids=["circle", "interval", "bernoulli", "cubic-lemniscate", "period2", "cubic-preimage"])
    @pytest.mark.parametrize("M", [256, 512])
    def test_successors_are_a_bijection(self, family, M):
        # every sample point ends exactly one grid step, also next to the
        # critical level r = 1 of the root families
        for r in [1.0005, *np.geomspace(1.05, 3, 8)]:
            s = sample_level_curve(family, r, M)
            assert np.array_equal(np.sort(s._successors), np.arange(s.size)), r

    @pytest.mark.parametrize("name", GRID_FAMILIES)
    def test_read_only(self, name):
        z, dz = sample_level_curve(GRID_FAMILIES[name], 1.7, 60).grid_steps
        with pytest.raises(ValueError):
            z[0] = 0.0
        with pytest.raises(ValueError):
            dz[0] = 0.0

    @pytest.mark.parametrize("name", GRID_FAMILIES)
    def test_repeated_scans_agree(self, name):
        f = GRID_FAMILIES[name]
        rng = np.random.default_rng(7)
        p = ComplexPolynomial(np.append(rng.standard_normal(5) + 1j * rng.standard_normal(5), 1.0))
        s = sample_level_curve(f, 1.7, 60)
        first, again = minimax._curve_maxima([(p, s)])[0], minimax._curve_maxima([(p, s)])[0]
        fresh = minimax._curve_maxima([(p, sample_level_curve(f, 1.7, 60))])[0]
        assert len(first[0]) > 0
        for x, y, z in zip(first, again, fresh):  # the points, then their angles
            assert np.array_equal(x, y) and np.array_equal(x, z)


@pytest.mark.parametrize("name", [*GRID_FAMILIES, "linear-lemniscate"])
def test_curve_jets_differentiate_the_continuation(name):
    # z and dz/dtheta are those of points_at_angles, bit for bit, and
    # d2z/dtheta2 is the central difference of dz/dtheta
    f = GRID_FAMILIES.get(name) or Lemniscate(ComplexPolynomial([2.0, 1.0]), 1.5)
    s = sample_level_curve(f, 1.7, 60)
    thetas = s.thetas + 0.3 * 2.0 * np.pi / s.size
    z, dz, d2z = curve_jets(f, s.r, thetas, s.points)
    direct = points_at_angles(f, s.r, thetas, s.points)
    assert z.tobytes() == direct[0].tobytes() and dz.tobytes() == direct[1].tobytes()
    e = 1e-5
    up, down = (points_at_angles(f, s.r, thetas + d, z)[1] for d in (e, -e))
    assert np.abs((up - down) / (2 * e) - d2z).max() <= 1e-7 * np.abs(d2z).max()


class TestSampling:
    def test_circle_four_points(self):
        s = sample_level_curve(Circle(1.0), 2.0, 4)
        np.testing.assert_allclose(
            s.points, [2.0, 2.0j, -2.0, -2.0j], atol=1e-14
        )

    def test_interval_theta_zero(self):
        s = sample_level_curve(Interval(), 2.0, 8)
        assert s.points[0] == pytest.approx(1.25)

    @pytest.mark.parametrize("r", [1.004, 1.5, 8.0, 32.0])
    def test_closed_form_inverse_maps_bit_for_bit(self, r):
        # the shared map evaluation c*w + tail(1/w) reproduces the closed
        # forms R*w and (w + 1/w)/2 exactly, not only to rounding
        thetas = 2.0 * np.pi * np.arange(512) / 512
        w = r * np.exp(1j * thetas)
        circle = sample_level_curve(Circle(2.5), r, 512)
        assert circle.points.tobytes() == (2.5 * w).tobytes()
        ellipse = sample_level_curve(Interval(), r, 512)
        assert ellipse.points.tobytes() == ((w + 1.0 / w) / 2.0).tobytes()

    def test_bernoulli_theta_zero(self):
        s = sample_level_curve(BERNOULLI, 2.0, 8)
        # solving z^2 - 1 = 4 puts +-sqrt(5) in the sample
        assert np.abs(s.points - np.sqrt(5.0)).min() < 1e-12
        assert np.abs(s.points + np.sqrt(5.0)).min() < 1e-12

    def test_rejects_low_level(self):
        with pytest.raises(ValueError):
            sample_level_curve(Circle(1.0), 1.0, 16)

    def test_lemniscate_level_invariant(self):
        for r in (1.5, 2.0, 4.0):
            s = sample_level_curve(BERNOULLI, r, 64)
            target = s.r ** 2
            vals = np.abs(s.points ** 2 - 1.0)
            assert np.abs(vals - target).max() <= 1e-9 * target

    def test_cubic_lemniscate_level_invariant(self):
        f = Lemniscate(ComplexPolynomial([0.5, -1.0, 0.0, 1.0]), 2.0)
        s = sample_level_curve(f, 3.0, 60)
        assert s.size == 60
        target = 2.0 * 3.0 ** 3
        vals = np.abs(f.P(s.points))
        assert np.abs(vals - target).max() <= 1e-9 * target

    def test_sample_count_rounding(self):
        s = sample_level_curve(BERNOULLI, 2.0, 7)  # 2*ceil(7/2) = 8
        assert s.size == 8

    def test_critical_level_keeps_the_double_root(self):
        # 0.5 |z^2 - 1| = r^2 / 2 passes through the critical point 0 at
        # r = sqrt(2): the theta = pi/2 row solves z^2 = 0 (up to rounding)
        # and both of its roots stay in the sample
        f = Lemniscate(ComplexPolynomial([-1.0, 0.0, 1.0]), 0.5)
        s = sample_level_curve(f, np.sqrt(2.0), 64)
        assert s.size == 64
        np.testing.assert_array_equal(s.thetas, np.repeat(np.pi * np.arange(32) / 32, 2))
        assert np.sum(np.abs(s.points) < 1e-6) == 2

    def test_phi_value_consistency(self):
        # |phi(z_j)| = r within 1e-9 r, checked through the series where it
        # converges comfortably (|z| >= 1.55; small-r interval points sit
        # inside the series' convergence region and are skipped, documented)
        for fam, r in ((Circle(1.0), 2.0), (Interval(), 2.0), (BERNOULLI, 2.0), (Interval(), 4.0)):
            s = sample_level_curve(fam, r, 64)
            phi = phi_series(fam, 240)
            zs = s.points[np.abs(s.points) >= 1.55]
            if len(zs) == 0:
                continue
            vals = np.abs(phi.evaluate(zs))
            assert np.abs(vals - r).max() <= 1e-9 * r

    def test_dedup(self):
        s = sample_level_curve(BERNOULLI, 2.0, 128)
        d = np.abs(s.points[:, None] - s.points[None, :])
        np.fill_diagonal(d, np.inf)
        span = np.abs(s.points[:, None] - s.points[None, :]).max()
        assert d.min() > 1e-12 * span

    def test_nesting_by_winding_number(self):
        # the r1 sample lies inside the Jordan curve through the r2 sample
        for fam in (Circle(1.0), Interval()):
            s1 = sample_level_curve(fam, 1.5, 64)
            s2 = sample_level_curve(fam, 3.0, 64)
            assert (
                np.abs(s1.points[:, None] - s2.points[None, :]).min() > 0
            )
            for probe in s1.points[::16]:
                # theta-ordered single-branch samples trace the Jordan curve
                assert winding_number(s2.points, probe) == pytest.approx(1.0)

    def test_nesting_bernoulli(self):
        s1 = sample_level_curve(BERNOULLI, 1.5, 64)
        s2 = sample_level_curve(BERNOULLI, 3.0, 64)
        # reorder the two-branch sample into a continuous loop: the +branch
        # over all target angles, then the -branch backwards
        plus = s2.points[0::2]
        minus = s2.points[1::2]
        loop = np.concatenate([plus, minus])
        for probe in s1.points[::8]:
            assert abs(winding_number(loop, probe)) == pytest.approx(1.0)

    def test_monotone_diameter(self):
        # growth ~ r*cap(K); the x^2-3 preimage has slower-decaying
        # corrections (|z| ~ sqrt(r^2/2 + 3)), so its window starts higher
        cases = [
            (Circle(1.0), (4.0, 8.0)),
            (Interval(), (4.0, 8.0)),
            (BERNOULLI, (4.0, 8.0)),
            (PERIOD2, (16.0, 32.0)),
        ]
        for fam, r_starts in cases:
            for r in r_starts:
                d1 = np.abs(sample_level_curve(fam, r, 128).points).max()
                d2 = np.abs(sample_level_curve(fam, 2 * r, 128).points).max()
                assert 1.9 <= d2 / d1 <= 2.1


class TestSamplePointsDD:
    """Double-double points (``dd._curve_points``, where ``dd.refine``
    starts) lie on L_r at the sampled map angles exactly, checked in
    40-digit arithmetic: P(z) = R r^m e^(i m theta) for a lemniscate,
    P(z) = J(r^m e^(i m theta)) for a polynomial preimage, z = J(r e^(i theta))
    for the interval, J(w) = (w + 1/w)/2, and z = psi(r e^(i theta)) for a
    circle (psi(w) = R w) or explicit map."""

    CUBIC = Lemniscate(ComplexPolynomial([0.25, -1.0, 0.0, 1.0]), 1.0)
    EXPLICIT = ExplicitMap(psi=LaurentSeriesAtInfinity(1.5, [0.1, 0.3, 0.05j, 0.01], exact=True))

    @staticmethod
    def defects(sample, points):
        mp = pytest.importorskip("mpmath")
        f, N = sample.family, sample.size
        out = []
        with mp.workdps(40):
            r = mp.mpf(sample.r)
            for theta, (hi, lo) in zip(sample.thetas, points):
                z = mp.mpc(hi) + mp.mpc(lo)
                angle = 2 * mp.pi * int(round(theta * N / (2 * np.pi))) / N
                w = r * mp.expj(angle)
                if isinstance(f, Interval):
                    out.append(abs(z - (w + 1 / w) / 2) / r)
                    continue
                if isinstance(f, Circle):
                    out.append(abs(z - f.radius * w) / (f.radius * r))
                    continue
                if isinstance(f, ExplicitMap):
                    psi = f.psi
                    tail = sum(mp.mpc(c) * w**-k for k, c in enumerate(psi.tail))
                    out.append(abs(z - (psi.leading_coefficient * w + tail)) / r)
                    continue
                m = f.P.degree
                u = mp.polyval([mp.mpc(c) for c in f.P.coeffs[::-1]], z)
                w = r**m * mp.expj(m * angle)
                if isinstance(f, Lemniscate):
                    out.append(abs(u - f.R * w) / (f.R * r**m))
                else:
                    out.append(abs(u - (w + 1 / w) / 2) / r**m)
        return float(max(out))

    @pytest.mark.parametrize("family", [CUBIC, PERIOD2, Interval(), Circle(2.5), EXPLICIT],
                             ids=["cubic-lemniscate", "period2", "interval", "circle", "explicit"])
    @pytest.mark.parametrize("r", [1.3, 8.0])
    def test_points_on_the_curve_to_double_double(self, family, r):
        sample = sample_level_curve(family, r, 64)
        pts = dd._curve_points(sample)
        assert pts.hi.shape == sample.points.shape
        assert self.defects(sample, zip(pts.hi, pts.lo)) <= 1e-29
        # the double points are off by rounding, so the check has teeth
        doubles = zip(sample.points, np.zeros_like(sample.points))
        assert self.defects(sample, doubles) > 1e-20


def _affine_composition(q: ComplexPolynomial, a: float, b: float) -> ComplexPolynomial:
    """q(a z + b) by Horner's rule."""
    out, lin = ComplexPolynomial([0.0]), ComplexPolynomial([b, a])
    for c in q.coeffs[::-1]:
        out = out * lin + ComplexPolynomial([c])
    return out


class TestDegreeOneGenerators:
    """Root families with a degree-1 generator, solved in closed form:
    Lemniscate(z - a, R) is Circle(R) translated by a, and the preimage of
    [-1, 1] under 2z + 1 is the interval mapped onto [-1, 0]."""

    SHIFT = 0.3 - 0.7j
    LEM = Lemniscate(ComplexPolynomial([-SHIFT, 1.0]), 2.0)
    HALF = InversePolynomialImage(ComplexPolynomial([1.0, 2.0]))
    # (degree-1 family, inverse-map family, scale, shift): the first family's
    # points are the second's times scale plus shift, both exact in binary
    CASES = [(LEM, Circle(2.0), 1.0, SHIFT), (HALF, Interval(), 0.5, -0.5)]

    @pytest.mark.parametrize("family, base, scale, shift", CASES, ids=["lemniscate", "preimage"])
    @pytest.mark.parametrize("r", [1.05, 4.0])
    def test_samples_and_points_at_angles(self, family, base, scale, shift, r):
        s, t = sample_level_curve(family, r, 128), sample_level_curve(base, r, 128)
        assert s.size == t.size == 128
        assert np.array_equal(s.thetas, t.thetas)
        assert np.array_equal(s.points, t.points * scale + shift)
        thetas = s.thetas + 0.4 * 2.0 * np.pi / 128
        z, dz = points_at_angles(family, r, thetas, s.points)
        zb, dzb = points_at_angles(base, r, thetas, t.points)
        assert np.array_equal(z, zb * scale + shift)
        assert np.array_equal(dz, dzb * scale)

    @pytest.mark.parametrize("family, base, scale, shift", CASES, ids=["lemniscate", "preimage"])
    def test_points_dd(self, family, base, scale, shift):
        s, t = sample_level_curve(family, 8.0, 64), sample_level_curve(base, 8.0, 64)
        got = dd._curve_points(s)
        defect = (got - (dd._curve_points(t) * scale + shift)).to_complex()
        assert np.abs(defect).max() <= 1e-30 * np.abs(got.hi).max()
        # one Newton step on the linear P places them on L_r (40 digits)
        assert TestSamplePointsDD.defects(s, zip(got.hi, got.lo)) <= 1e-29
        assert TestSamplePointsDD.defects(s, zip(s.points, np.zeros_like(s.points))) > 1e-20

    def test_capacity(self):
        assert capacity_leading_coefficient(self.LEM) == capacity_leading_coefficient(Circle(2.0))
        assert capacity_leading_coefficient(self.HALF) == 4.0  # cap [-1, 0] = 1/4

    def test_faber_basis(self):
        power = ComplexPolynomial([1.0])
        for k, p in enumerate(faber_basis(self.LEM, 10)):
            assert p.coefficient_distance(power) <= 1e-13 * np.abs(power.coeffs).max()
            power = power * ComplexPolynomial([-self.SHIFT, 1.0])
        for k, p in enumerate(faber_basis(self.HALF, 12)):
            want = _affine_composition(monic_classical_chebyshev(k), 2.0, 1.0) * 0.5 ** k
            assert p.coefficient_distance(want) <= 1e-13 * np.abs(want.coeffs).max()


class TestFamilyJson:
    def test_refusals(self):
        with pytest.raises(TypeError, match="unknown family object"):
            family_to_json_dict(object())
        with pytest.raises(ValueError, match="unknown family spec 'ellipse'"):
            family_from_json_dict({"family": "ellipse"})

    def test_round_trip_all_families(self):
        fams = [
            Circle(2.0),
            Interval(),
            BERNOULLI,
            PERIOD2,
            ExplicitMap(phi=LaurentSeriesAtInfinity(2.0, [0.0, -0.5])),
        ]
        for f in fams:
            d = family_to_json_dict(f)
            back = family_from_json_dict(d)
            assert family_to_json_dict(back) == d

    def test_round_trip_keeps_exactness(self):
        f = ExplicitMap(psi=LaurentSeriesAtInfinity(0.5, [0.0, 0.5], exact=True))
        back = family_from_json_dict(family_to_json_dict(f))
        assert back.psi.exact
        # specs written without the key load as before, inexact
        d = family_to_json_dict(f)
        del d["psi"]["exact"]
        assert not family_from_json_dict(d).psi.exact
