import math
import random
import re
import sys
import time
import warnings
from fractions import Fraction

import mpmath
import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellcover import (
    FiniteSubgroupSpec,
    InvalidPoint,
    InvalidSubgroup,
    LatticeTau,
    NoConvergence,
    TorusPoint,
    build_cover,
    eisenstein_g2_g3,
    quotient_lattice,
    reduce_point,
    wp,
    wp_inverse,
    wp_prime,
)
from ellcover.covers import MAX_QUOTIENT_IM_TAU
from ellcover.batch import _wrap_dist_array, lift_coords, map_coords, t_series_array, t_values, torus_z, wp_inverse_array
from ellcover.elliptic import EPS_NUM
from ellcover.weierstrass import centred_values, wp_both_values
from ellcover.symfun import ProjectivePoint, normalize_rows

from conftest import TAU, lattice_sum_g2_g3, laurent_wp, point_z, theta_t

# Frozen from the tail-corrected lattice sum at radius 200 (see conftest).
FROZEN_G2_G3 = {
    (0.3 + 1.1j): (
        120.05792111734831 + 29.370207407468381j,
        332.83105092489672 - 133.24570489453808j,
    ),
    (0.1 + 1.3j): (
        137.03612292878617 + 5.2165184559237847j,
        251.80530970359874 - 24.290454948804733j,
    ),
    (-0.4 + 1.05j): (
        95.644051617871213 - 24.496382872252344j,
        440.5300800842985 + 106.80369904993933j,
    ),
}

# Frozen from the Laurent expansion oracle (see conftest) at tau = 0.3+1.1i,
# z = a + b*tau for the listed (a, b).
FROZEN_WP = {
    (0.23, 0.11): (
        8.0085039028632572 - 8.5109960408181387j,
        -19.161617304921368 + 82.57277913151556j,
    ),
    (0.05, 0.31): (
        -5.9336719355362835 - 4.960987272331284j,
        35.353834352172491 - 9.9637404336495123j,
    ),
    (0.41, 0.37): (
        -0.77374428710548593 + 0.87816334966759035j,
        1.8579164775354091 + 14.570160164391529j,
    ),
}


class TestEisenstein:
    def test_frozen_lattice_sum_values(self):
        for tau, (g2_ref, g3_ref) in FROZEN_G2_G3.items():
            g2, g3 = eisenstein_g2_g3(LatticeTau.from_tau(tau))
            assert abs(g2 - g2_ref) < 1e-8 * abs(g2_ref)
            assert abs(g3 - g3_ref) < 1e-8 * abs(g3_ref)

    def test_live_lattice_sum_cross_check(self):
        tau = 0.21 + 1.17j
        g2_ref, g3_ref = lattice_sum_g2_g3(tau)
        g2, g3 = eisenstein_g2_g3(LatticeTau.from_tau(tau))
        assert abs(g2 - g2_ref) < 1e-8 * abs(g2_ref)
        assert abs(g3 - g3_ref) < 1e-8 * abs(g3_ref)

    def test_square_lattice_g3_vanishes(self):
        g2, g3 = eisenstein_g2_g3(LatticeTau.from_tau(1j))
        assert abs(g3) < 1e-12
        assert abs(g2.imag) < 1e-12
        assert g2.real > 0

    def test_hexagonal_lattice_g2_vanishes(self):
        rho = complex(math.cos(math.pi / 3), math.sin(math.pi / 3))
        g2, g3 = eisenstein_g2_g3(LatticeTau.from_tau(rho))
        assert abs(g2) < 1e-12

    def test_scaling_covariance(self):
        base = LatticeTau.from_tau(TAU)
        c = 1.3 - 0.7j
        scaled = LatticeTau(c, c * TAU)
        g2, g3 = eisenstein_g2_g3(base)
        g2c, g3c = eisenstein_g2_g3(scaled)
        assert abs(g2c - g2 / c ** 4) < 1e-10 * abs(g2)
        assert abs(g3c - g3 / c ** 6) < 1e-10 * abs(g3)


class TestLatticeReduction:
    def test_already_reduced(self):
        lat = LatticeTau.from_tau(TAU)
        assert lat.tau_reduced == pytest.approx(TAU)
        assert abs(lat.scale - 1) < 1e-15

    def test_reduction_reaches_fundamental_domain(self):
        for tau in (0.7 + 0.2j, 5.3 + 0.9j, -2.1 + 0.05j, 0.49 + 0.51j):
            lat = LatticeTau.from_tau(tau)
            red = lat.tau_reduced
            assert red.imag > 0
            assert abs(red.real) <= 0.5 + 1e-12
            assert abs(red) >= 1 - 1e-12

    def test_reduction_preserves_lattice(self):
        tau = 3.7 + 0.4j
        lat = LatticeTau.from_tau(tau)
        a, b, c, d = lat.basis_change
        assert a * d - b * c in (1, -1)
        # the reduced basis must generate the same lattice as (1, tau)
        s = lat.scale
        red = lat.tau_reduced
        for omega in (s, s * red):
            z = omega / 1.0
            # coordinates of omega in the original basis must be integers
            x = (z.real * tau.imag - z.imag * tau.real) / tau.imag
            y = z.imag / tau.imag
            assert abs(x - round(x)) < 1e-9
            assert abs(y - round(y)) < 1e-9

    def test_swapped_orientation(self):
        lat = LatticeTau(1.0, 1 / TAU)
        assert lat.tau_reduced.imag > 0

    def test_degenerate_periods_rejected(self):
        with pytest.raises(InvalidPoint):
            LatticeTau(1.0, 2.0)
        with pytest.raises(InvalidPoint):
            LatticeTau(0.0, 1j)

    def test_non_finite_ratio_rejected(self):
        # finite periods whose ratio overflows: reducing it used to raise OverflowError
        for omega1, omega2 in [(0.5, 1e308 + 1j), (1e-300, 1e300j), (1.0, -1e-320j)]:
            with pytest.raises(InvalidPoint, match="not finite"):
                LatticeTau(omega1, omega2)


class TestWeierstrass:
    def test_frozen_laurent_values(self, lattice):
        for (a, b), (p_ref, dp_ref) in FROZEN_WP.items():
            pt = TorusPoint.from_coords(lattice, a, b)
            assert abs(wp(pt).value - p_ref) < 1e-9 * abs(p_ref)
            assert abs(wp_prime(pt).value - dp_ref) < 1e-9 * abs(dp_ref)

    def test_live_laurent_cross_check(self, lattice):
        g2, g3 = lattice_sum_g2_g3(TAU)
        for (a, b) in ((0.17, 0.08), (0.33, 0.29)):
            z = a + b * TAU
            p_ref, dp_ref = laurent_wp(z, g2, g3)
            pt = TorusPoint.from_coords(lattice, a, b)
            assert abs(wp(pt).value - p_ref) < 1e-9 * abs(p_ref)
            assert abs(wp_prime(pt).value - dp_ref) < 1e-9 * abs(dp_ref)

    def test_differential_equation(self, lattice):
        import random

        g2, g3 = eisenstein_g2_g3(lattice)
        rng = random.Random(7)
        for _ in range(100):
            a = rng.uniform(0.05, 0.95)
            b = rng.uniform(0.05, 0.95)
            pt = TorusPoint.from_coords(lattice, a, b)
            p, dp = wp_both_values(pt)
            lhs = dp * dp
            rhs = 4 * p ** 3 - g2 * p - g3
            scale = max(1.0, abs(4 * p ** 3), abs(g2 * p), abs(g3))
            assert abs(lhs - rhs) / scale < 1e-10

    def test_pole_at_origin(self, lattice):
        origin = TorusPoint.from_coords(lattice, 0.0, 0.0)
        assert wp(origin).den == 0
        assert wp_prime(origin).den == 0

    def test_two_torsion_critical_points(self, lattice):
        g2, g3 = eisenstein_g2_g3(lattice)
        es = []
        for (a, b) in ((0.5, 0.0), (0.0, 0.5), (0.5, 0.5)):
            pt = TorusPoint.from_coords(lattice, a, b)
            assert abs(wp_prime(pt).value) < 1e-9
            es.append(wp(pt).value)
        e1, e2, e3 = es
        assert abs(e1 + e2 + e3) < 1e-9
        assert abs(e1 * e2 + e1 * e3 + e2 * e3 + g2 / 4) < 1e-8 * max(1, abs(g2))
        assert abs(e1 * e2 * e3 - g3 / 4) < 1e-8 * max(1, abs(g3))

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(0.02, 0.98),
        b=st.floats(0.02, 0.98),
    )
    def test_parity(self, a, b):
        lat = LatticeTau.from_tau(TAU)
        pt = TorusPoint.from_coords(lat, a, b)
        neg = -pt
        p_pos, dp_pos = wp_both_values(pt)
        p_neg, dp_neg = wp_both_values(neg)
        scale = max(1.0, abs(p_pos))
        assert abs(p_pos - p_neg) < 1e-9 * scale
        dscale = max(1.0, abs(dp_pos))
        assert abs(dp_pos + dp_neg) < 1e-9 * dscale

    def test_periodicity_through_reduction(self, lattice):
        z = 0.31 + 0.22 * TAU
        base = reduce_point(z, lattice)
        for omega in (1.0, TAU, 3 - 2 * TAU):
            shifted = reduce_point(z + omega, lattice)
            assert base.close_to(shifted)
            assert abs(wp(base).value - wp(shifted).value) < 1e-9

    def test_basis_change_invariance(self):
        # same lattice presented with a different basis gives the same wp
        lat1 = LatticeTau.from_tau(TAU)
        lat2 = LatticeTau(TAU + 2, 1.0 + 0j)
        z = 0.27 + 0.31j
        v1 = wp(reduce_point(z, lat1)).value
        v2 = wp(reduce_point(z, lat2)).value
        assert abs(v1 - v2) < 1e-9 * max(1, abs(v1))


def _quotient(tau: complex, generator: str) -> LatticeTau:
    return quotient_lattice(
        LatticeTau.from_tau(tau), FiniteSubgroupSpec.parse((generator,))
    ).target


# Lattices with reduced Im tau <= 2, where a point is well determined by its
# wp value, and quotients whose reduced Im tau' climbs to MAX_QUOTIENT_IM_TAU,
# where wp is nearly constant along the long period.
LOW_LATTICES = {
    "default": LatticeTau.from_tau(TAU),
    "square": LatticeTau.from_tau(1j),
    "hexagonal": LatticeTau.from_tau(complex(0.5, math.sqrt(3) / 2)),
    "quotient-1.7": _quotient(TAU, "0,1/2"),
    "rotated": LatticeTau(1j, -0.9 + 1j),
}
TALL_LATTICES = {
    "quotient-2.5": _quotient(2j, "0,1/5"),
    "quotient-7.7": _quotient(TAU, "1/7,0"),
    "quotient-9": _quotient(0.17 + 3j, "1/3,0"),
    "quotient-12": _quotient(4j, "1/3,0"),
}
ALL_LATTICES = {**LOW_LATTICES, **TALL_LATTICES}


def _branch_values(lat: LatticeTau) -> tuple[complex, complex, complex]:
    """e1, e2, e3: wp at the half periods 1/2, tau/2, (1+tau)/2 of the reduced basis."""
    d1, d3 = lat.branch_differences
    return lat.e2 + d1, lat.e2, lat.e2 + d3


def _within_contract(z: TorusPoint, x: complex) -> bool:
    return abs(wp(z).value - x) <= EPS_NUM * (1 + abs(x))


low = pytest.mark.parametrize("lat", LOW_LATTICES.values(), ids=LOW_LATTICES.keys())
every = pytest.mark.parametrize("lat", ALL_LATTICES.values(), ids=ALL_LATTICES.keys())


class TestWpInverse:
    def test_lattice_heights(self):
        assert all(lat.tau_reduced.imag <= 2 for lat in LOW_LATTICES.values())
        tallest = max(lat.tau_reduced.imag for lat in TALL_LATTICES.values())
        assert tallest == pytest.approx(MAX_QUOTIENT_IM_TAU)

    @low
    def test_roundtrip_from_wp(self, lat):
        rng = random.Random(11)
        coords = [(0.23, 0.11), (0.05, 0.31), (0.41, 0.37), (0.5, 0.25)]
        coords += [(rng.random(), rng.random()) for _ in range(20)]
        for (a, b) in coords:
            pt = TorusPoint.from_coords(lat, a, b)
            x = wp(pt).value
            plus, minus = wp_inverse(x, lat)
            assert plus.close_to(pt, tol=1e-7) or minus.close_to(pt, tol=1e-7)
            assert plus.close_to(-minus, tol=1e-7)

    @low
    def test_branch_values_give_two_torsion(self, lat):
        for e in _branch_values(lat):
            plus, minus = wp_inverse(e, lat)
            assert (plus + plus).is_zero(tol=1e-6)
            assert plus.close_to(minus, tol=1e-6)

    @every
    def test_values_match_target(self, lat):
        rng = random.Random(5)
        targets = [0j, 2.3 - 1.1j, -14.5 + 3j, 0.01 + 0.02j, 250 + 40j, 1e6, -6e5 + 8e5j]
        targets += [
            wp(TorusPoint.from_coords(lat, rng.random(), rng.random())).value
            for _ in range(20)
        ]
        # x - e3 on the negative reals, where the principal square root of
        # the AGM's c-step leaves the side of c
        e3 = _branch_values(lat)[2]
        targets += [e3 - t for t in (0.01, 1, 100)]
        for x in targets:
            plus, minus = wp_inverse(x, lat)
            assert _within_contract(plus, x) and _within_contract(minus, x)
            assert plus.close_to(-minus, tol=1e-12)

    @every
    @settings(max_examples=25, deadline=None)
    @given(
        re=st.floats(-20, 20),
        im=st.floats(-20, 20),
    )
    def test_random_targets(self, lat, re, im):
        x = complex(re, im)
        plus, _ = wp_inverse(x, lat)
        assert _within_contract(plus, x)

    def test_a_missed_value_is_marked_and_the_one_row_call_raises(self):
        # |t| = 1e16 is past the residual contract at this lattice, 1e14 is
        # not: the array marks the row it misses and solves each other row as
        # it would alone, bit for bit
        lat = LatticeTau.from_tau(0.3 + 1.1j)
        t = np.array([2.3 - 1.1j, 1e16, 1e14])
        stacked = wp_inverse_array(t, lat)
        assert stacked[2].tolist() == [False, True, False]
        for k in range(len(t)):
            alone = wp_inverse_array(t[k : k + 1], lat)
            assert all(a.tobytes() == s[k : k + 1].tobytes() for a, s in zip(alone, stacked))
        with pytest.raises(NoConvergence):
            wp_inverse(1e16, lat)
        wp_inverse(1e14, lat)

    @every
    def test_branch_values_are_cubic_roots(self, lat):
        g2, g3 = eisenstein_g2_g3(lat)
        size = abs(g2) ** 1.5 + abs(g3)
        for e in _branch_values(lat):
            assert abs(4 * e**3 - g2 * e - g3) <= 1e-10 * size
        assert abs(sum(_branch_values(lat))) <= 1e-10 * size ** (1 / 3)


def _from_reduced(lat: LatticeTau, alpha: float, beta: float) -> tuple[float, float]:
    """Coordinates (a, b) of the point alpha + beta*tau_reduced, up to scale."""
    ma, mb, mc, md = lat.basis_change
    return md * alpha + mb * beta, mc * alpha + ma * beta


def _series_coords(lat: LatticeTau) -> list[tuple[float, float]]:
    """Random points, the pole, the 2-torsion points and the edges of the reduced strip."""
    rng = random.Random(3)
    coords = [(rng.random(), rng.random()) for _ in range(40)]
    coords += [(0.0, 0.0), (1.0, 1.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)]
    # |u| = |q|^(-1/2) and |q|^(1/2): the ends of the reduced strip
    for beta in (0.5 - 1e-12, -0.5 + 1e-12):
        coords += [_from_reduced(lat, alpha, beta) for alpha in (0.0, 0.25, 0.5)]
    coords += [_from_reduced(lat, 1e-9, 0.0), _from_reduced(lat, 0.0, -1e-9)]
    return coords


def _off_half_periods(lat: LatticeTau) -> list[tuple[float, float]]:
    """The random points of `_series_coords` and strip-edge points away from the half periods."""
    coords = _series_coords(lat)[:40]
    for beta in (0.5 - 1e-12, -0.5 + 1e-12):
        coords += [_from_reduced(lat, alpha, beta) for alpha in (0.1, 0.25, 0.4)]
    return coords


def _random_coords(seed: int, count: int = 40) -> list[tuple[float, float]]:
    rng = random.Random(seed)
    return [(rng.random(), rng.random()) for _ in range(count)]


def _rounding_bound(lat: LatticeTau, ulps: float, size: float, slope: float) -> float:
    """ulps * eps * (size + reach * slope), reach = |scale| * (1 + |tau_reduced|).

    The error of a kernel value of modulus `size`, relative to it, plus how
    far rounding the point itself on the reduced basis moves a value whose
    z-derivative has modulus `slope`.  Near t's double zero at tau'/2 the
    second term is all of it.
    """
    reach = abs(lat.scale) * (1 + abs(lat.tau_reduced))
    return ulps * sys.float_info.epsilon * (size + reach * slope)


def _wp_second(lat: LatticeTau, wp_value: complex) -> float:
    """|wp''| = |6 wp^2 - g2/2|, the slope of wp' in `_rounding_bound`."""
    g2, _ = eisenstein_g2_g3(lat)
    return abs(6 * wp_value**2 - g2 / 2)


def _bits(values) -> list[str]:
    return [float.hex(v.real) + float.hex(v.imag) for v in values]


#: bound on the error of the kernel's t, and of wp = t + e2 with |t| + |e2|
#: for its size, in `_rounding_bound`'s units, with wp' the slope.  The worst
#: over seeds 11-20, 60 points on each lattice, was 5.7 for t and 4.8 for wp;
#: relative to |t| alone t was off by up to 385, at points near t's double
#: zero at tau'/2
T_ULPS = 12
#: the same for wp', with wp'' the slope: 1.2 at those points, and 12.2 at a
#: strip-edge point of `_off_half_periods` on quotient-9
WP_PRIME_ULPS = 24


class TestWpSeries:
    @every
    def test_bits_match_reference_loop(self, lat):
        # the scalar t = wp - e2 and wp' against theta functions at 40 digits,
        # off the half periods, at seeded random points and on the strip edges
        for a, b in _off_half_periods(lat) + _random_coords(13):
            t, t_prime = centred_values(TorusPoint(lat, a, b))
            want, want_prime = (complex(v) for v in theta_t(lat, point_z(lat, a, b)))
            assert abs(t - want) <= _rounding_bound(lat, T_ULPS, abs(want), abs(want_prime)), (a, b)
            slope = _wp_second(lat, want + lat.e2)
            assert abs(t_prime - want_prime) <= _rounding_bound(lat, WP_PRIME_ULPS, abs(want_prime), slope), (a, b)

    @every
    def test_t_at_random_points(self, lat):
        rng = random.Random(11)
        coords = [(rng.random(), rng.random()) for _ in range(60)]
        t, _ = t_values(lat, *np.array(coords).T)
        for k, (a, b) in enumerate(coords):
            want, want_prime = (complex(v) for v in theta_t(lat, point_z(lat, a, b)))
            assert abs(t[k] - want) <= _rounding_bound(lat, T_ULPS, abs(want), abs(want_prime)), (a, b)

    @every
    def test_scalar_values_are_row_zero(self, lat):
        # wp, wp' and (t, wp') of one point are its row of the stacked kernel, bit for bit
        coords = _series_coords(lat)
        a, b = np.array(coords).T
        num, den, nump, denp = t_series_array(lat, a, b)
        for k, (x, y) in enumerate(coords):
            p = TorusPoint(lat, x, y)
            assert _bits(wp_prime(p)) == _bits(ProjectivePoint.normalize((nump[k], denp[k])).coords)
            if den[k] == 0:
                assert wp(p) == (1, 0)
        off = _off_half_periods(lat)
        t, t_prime = t_values(lat, *np.array(off).T)
        for k, (x, y) in enumerate(off):
            p = TorusPoint(lat, x, y)
            assert _bits(centred_values(p)) == _bits((t[k], t_prime[k]))
            assert _bits(wp(p)) == _bits(ProjectivePoint.normalize((complex(t[k]) + lat.e2, 1.0)).coords)


class TestWpSeriesArray:
    """The numpy kernel against theta functions at 40 digits."""

    @every
    def test_matches_scalar_series(self, lat):
        # in `_rounding_bound`'s units off the half periods, at seeded random points
        # and on the strip edges; at the pole and the half periods as pairs
        extra = _random_coords(17)
        coords = _series_coords(lat) + extra
        checked = set(_off_half_periods(lat) + extra)
        a, b = np.array(coords).T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            num, den, nump, denp = t_series_array(lat, a, b)
            pairs = normalize_rows(np.stack([num, den], axis=1))[0].T
        for k, (x, y) in enumerate(coords):
            if (x, y) not in checked:
                continue
            want, want_prime = (complex(v) for v in theta_t(lat, point_z(lat, x, y)))
            assert abs(num[k] / den[k] - want) <= _rounding_bound(lat, T_ULPS, abs(want), abs(want_prime))
            slope = _wp_second(lat, want + lat.e2)
            assert abs(nump[k] / denp[k] - want_prime) <= _rounding_bound(lat, WP_PRIME_ULPS, abs(want_prime), slope)
            pair = (want, 1.0) if abs(want) <= 1.0 else (1.0, 1.0 / want)
            assert abs(pairs[0][k] - pair[0]) <= 1e-13 and abs(pairs[1][k] - pair[1]) <= 1e-13
        assert den[coords.index((0.0, 0.0))] == 0
        assert (pairs[0][coords.index((0.0, 0.0))], pairs[1][coords.index((0.0, 0.0))]) == (1, 0)

    @every
    def test_derivative_flag_leaves_wp_bits(self, lat):
        a, b = np.array(_series_coords(lat)).T
        num, den, _, _ = t_series_array(lat, a, b)
        bare = t_series_array(lat, a, b, derivative=False)
        assert len(bare) == 2
        assert _bits(bare[0]) == _bits(num) and _bits(bare[1]) == _bits(den)


def _theta_wp(lat: LatticeTau, a: float, b: float) -> tuple[complex, complex]:
    """(wp, wp') at a*omega1 + b*omega2 from Jacobi theta functions at 50 digits.

    DLMF 23.6.2 with 2*omega_1 = lat.omega1, 2*omega_3 = lat.omega2 and
    q = exp(i*pi*omega2/omega1): the lattice's own periods, not the reduced
    basis that the q-series runs on.
    """
    pi = mpmath.pi
    with mpmath.workdps(50):
        w1, w2 = mpmath.mpc(lat.omega1), mpmath.mpc(lat.omega2)
        q = mpmath.exp(1j * pi * w2 / w1)
        zeta = pi * (a * w1 + b * w2) / w1
        t1, t4 = (mpmath.jtheta(n, zeta, q) for n in (1, 4))
        d1, d4 = (mpmath.jtheta(n, zeta, q, 1) for n in (1, 4))
        t2, t3 = (mpmath.jtheta(n, 0, q) for n in (2, 3))
        amp = (pi * t2 * t3 / w1) ** 2
        ratio = t4 / t1
        value = amp * ratio**2 - (pi / w1) ** 2 / 3 * (t2**4 + t3**4)
        # d/dz = (pi / omega1) d/dzeta
        slope = 2 * amp * ratio * (d4 * t1 - t4 * d1) / t1**2 * pi / w1
        return complex(value), complex(slope)


#: bound on the error of wp' against `_theta_wp` at the 12 strip points of
#: `TestWpAccuracy`, relative to 1 + |wp'|.  The worst there is 0.29 of it.
#: The series cut one term short of `series_terms` misses it on four of the
#: nine lattices, by 1.3-5.7x, where `_rounding_bound` alone catches that cut
#: on one: its reach * |wp'| term loosens the strip-edge points up to
#: tenfold.  wp itself reaches 0.97 of this bound on the square lattice, so
#: it is held to `_rounding_bound` only.  `TestWpSeries` catches the cut on
#: four lattices and `TestWpSeriesArray` on three.
THETA_REL = 4e-15


class TestWpAccuracy:
    @every
    def test_matches_theta_functions(self, lat):
        # points alpha + beta*tau_reduced on the edges |u| = |q|^(-1/2) and
        # |q|^(1/2) of the reduced strip and on its centre line |u| = 1, wp'
        # there also within THETA_REL, and seeded random points, in `_rounding_bound`'s
        # units; no half period, where wp' is 0 and the series leaves rounding noise
        strip = [_from_reduced(lat, alpha, beta) for beta in (-0.5, 0.0, 0.5) for alpha in (0.1, 0.2, 0.3, 0.4)]
        for a, b in strip + _random_coords(12):
            p = TorusPoint.from_coords(lat, a, b)
            want, want_prime = _theta_wp(lat, p.a, p.b)
            size = abs(want - lat.e2) + abs(lat.e2)
            assert abs(wp(p).value - want) <= _rounding_bound(lat, T_ULPS, size, abs(want_prime)), (a, b)
            slope = _wp_second(lat, want)
            assert abs(wp_prime(p).value - want_prime) <= _rounding_bound(lat, WP_PRIME_ULPS, abs(want_prime), slope)
            if (a, b) in strip:
                assert abs(wp_prime(p).value - want_prime) <= THETA_REL * (1 + abs(want_prime)), (a, b)


class TestTorusPoints:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinates_are_rejected(self, lattice, bad):
        for a, b in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(InvalidPoint, match="non-finite"):
                TorusPoint(lattice, a, b)
            with pytest.raises(InvalidPoint, match="non-finite"):
                TorusPoint.from_coords(lattice, a, b)

    def test_reduce_wraps_into_unit_cell(self, lattice):
        p = TorusPoint.from_coords(lattice, 1.75, -0.25)
        assert p.a == pytest.approx(0.75)
        assert p.b == pytest.approx(0.75)

    def test_negative_zero_normalized(self, lattice):
        p = TorusPoint.from_coords(lattice, -0.0, 1.0)
        assert p.a == 0.0 and p.b == 0.0
        assert p.is_zero()

    def test_addition_matches_complex(self, lattice):
        p = TorusPoint.from_coords(lattice, 0.3, 0.4)
        q = TorusPoint.from_coords(lattice, 0.8, 0.9)
        s = p + q
        expected = reduce_point(complex(torus_z(lattice, np.array([(p.a, p.b), (q.a, q.b)])).sum()), lattice)
        assert s.close_to(expected)


def _closure(generators) -> tuple:
    """The subgroup the generators span, sorted: breadth-first closure under +."""
    zero = (Fraction(0), Fraction(0))
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for a, b in frontier:
            for ga, gb in generators:
                cand = ((a + ga) % 1, (b + gb) % 1)
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return tuple(sorted(seen))


def _random_generators(rng: random.Random) -> list[tuple[Fraction, Fraction]]:
    """One generator with denominators up to 100, or two over one denominator up to 100: order <= 10^4."""
    if rng.random() < 0.5:
        return [tuple(Fraction(rng.randrange(n), n) for n in (rng.randint(1, 100), rng.randint(1, 100)))]
    n = rng.randint(1, 100)
    return [(Fraction(rng.randrange(n), n), Fraction(rng.randrange(n), n)) for _ in range(2)]


class TestFiniteSubgroup:
    def test_elements_and_order_match_closure(self):
        rng = random.Random(5)
        for _ in range(24):
            gens = _random_generators(rng)
            spec = FiniteSubgroupSpec.from_generators(gens)
            assert spec.elements == _closure(spec.generators), gens
            assert spec.order == len(spec.elements)

    def test_oversized_subgroup_is_refused_from_its_basis(self):
        start = time.perf_counter()
        with pytest.raises(InvalidSubgroup, match="order 1000000 exceeds bound 100000"):
            FiniteSubgroupSpec.parse(("1/1000,0", "0,1/1000"))
        assert time.perf_counter() - start < 0.1

    def test_cover_never_lists_its_subgroup(self, lattice):
        q0 = FiniteSubgroupSpec.parse(("1/100,0", "0,1/100"))
        spec = build_cover("A", 1, lattice, q0)
        assert spec.q0.order == 10**4 and spec.quotient.subgroup.order == 10**4
        assert "elements" not in vars(q0)

    def test_parse_and_order(self):
        assert FiniteSubgroupSpec.parse(("1/2,0",)).order == 2
        assert FiniteSubgroupSpec.parse(("1/3,0",)).order == 3
        assert FiniteSubgroupSpec.parse(("1/2,0", "0,1/2")).order == 4
        assert FiniteSubgroupSpec.parse(("1/6,1/6",)).order == 6
        assert FiniteSubgroupSpec.trivial().order == 1

    def test_elements_closed_under_addition(self):
        spec = FiniteSubgroupSpec.parse(("1/4,0", "0,1/2"))
        elems = set(spec.elements)
        assert len(elems) == spec.order == 8
        for x in elems:
            for y in elems:
                s = ((x[0] + y[0]) % 1, (x[1] + y[1]) % 1)
                assert s in elems

    def test_parse_rejects_garbage(self):
        for bad in ("", "1/2", "a,b", "1/0,0"):
            with pytest.raises(InvalidSubgroup):
                FiniteSubgroupSpec.parse((bad,))

    def test_denominator_cap(self):
        # a coordinate's reduced denominator divides |Q0|, so the order bound
        # refuses it early, before any Hermite basis
        bound = FiniteSubgroupSpec.MAX_ORDER
        assert FiniteSubgroupSpec.from_generators([(Fraction(1, bound), Fraction(0))]).order == bound
        with pytest.raises(InvalidSubgroup, match=f"generator denominator {bound + 1} exceeds bound {bound}$"):
            FiniteSubgroupSpec.from_generators([(Fraction(1, bound + 1), Fraction(0))])
        # a denominator of 5001 digits is past what str() spells out
        with pytest.raises(InvalidSubgroup, match=f"denominator past 10\\^4300 exceeds bound {bound}$"):
            FiniteSubgroupSpec.from_generators([(Fraction(1, 10**5000), Fraction(0))])

    def test_exponents_change_no_value(self):
        # the value mod 1 that Fraction reads, with no power of ten past the
        # text's size: 1e5000 is an integer, and zero at any exponent is zero
        for text, value in (("1e5000", 0), ("0e-999999999", 0), ("25e-2", Fraction(1, 4)), ("-3.5e1", 0)):
            spec = FiniteSubgroupSpec.from_generators([(text, "1/7")])
            assert spec.generators[0][0] == value

    def test_texts_read_as_fraction_reads_them(self):
        # the integer parser against the one it replaced, Fraction(text) % 1
        # and the order bound, on each coordinate's denominator and then on
        # the order lcm(q, 7) of <(p/q, 1/7)>, on a seeded sample of texts and
        # on fixed ones: the values and the errors, messages included.  No
        # sample text has an underscore between digits, which Python 3.10
        # rejects, or whitespace next to '/', which 3.12 accepts
        def reference(text):
            try:
                value = Fraction(text) % 1
            except (ValueError, ZeroDivisionError):
                return f"not a rational coordinate: {text!r}"
            bound = FiniteSubgroupSpec.MAX_ORDER
            if value.denominator > bound:
                return f"generator denominator {value.denominator} exceeds bound {bound}"
            if math.lcm(value.denominator, 7) > bound:
                return f"subgroup order {math.lcm(value.denominator, 7)} exceeds bound {bound}"
            return value

        def parsed(text):
            try:
                spec = FiniteSubgroupSpec.from_generators([(text, "1/7")])
            except InvalidSubgroup as exc:
                return str(exc)
            return spec.generators[0][0]

        rng = random.Random(31)

        def digits(low, high):
            return "".join(rng.choice("0123456789") for _ in range(rng.randint(low, high)))

        texts = []
        while len(texts) < 3000:
            body = rng.choice([
                digits(1, 4),
                f"{digits(1, 4)}/{digits(1, 4)}",
                f"{digits(0, 3)}.{digits(0, 3)}",
                f"{digits(1, 3)}{rng.choice(['', '.', '.' + digits(1, 2)])}{rng.choice('eE')}"
                f"{rng.choice(['', '-', '+'])}{digits(1, 2)}",
            ])
            text = rng.choice(["", " ", "\t"]) + rng.choice(["", "-", "+"]) + body + rng.choice(["", " ", "\n"])
            if rng.random() < 0.3:
                k = rng.randrange(len(text) + 1)
                text = text[:k] + rng.choice("0123456789+-./eE _") + text[k + rng.randint(0, 1):]
            if not re.search(r"\s/|/\s|\d_\d", text):
                texts.append(text)
        fixed = [
            "1/0", "0/0", " -3/000 ",  # zero denominators
            "", " ", "1/2/3", "--1", "+-1", "1e", "e5", ".", ".e1", "1.2.3", "1/-2",
            "1/+2", "0x10", "inf", "nan", "1.d", "1.5/2", "1e5/2", "_1", "1_", "1__0",
            "1_/2", "\u00bd", "1 1",  # rejected
            "\u0663/\u0664", "-.5", "5.", "1.e3", "+0001/0002", " 2/2000 ", "0.001", "1E+2",
            "-0/5", "-7/3",  # accepted
            "1/1001", "7/2000", "1e-5", "1/14285",  # accepted, past the old denominator bound
            "1/100001", "2/200002", "7/200000", "1e-6", "1.5e-5", "99999/100003",  # past the bound
            "1/14286", "1/99991",  # an order past the bound
        ]
        outcomes = [reference(text) for text in texts + fixed]
        assert [parsed(text) for text in texts + fixed] == outcomes
        rejected = sum(isinstance(v, str) for v in outcomes)
        assert 500 < rejected < len(outcomes) - 500


class TestQuotientLattice:
    def test_index_two_quotient(self, lattice, q2):
        quo = quotient_lattice(lattice, q2)
        assert quo.subgroup.order == 2
        # the generator becomes a period of the target
        (img,) = map_coords(quo, np.array([[0.5, 0.0]])).tolist()
        assert TorusPoint(quo.target, *img).is_zero()

    def test_klein_four_quotient(self, lattice):
        q0 = FiniteSubgroupSpec.parse(("1/2,0", "0,1/2"))
        quo = quotient_lattice(lattice, q0)
        assert quo.subgroup.order == 4
        for img in map_coords(quo, np.array(q0.elements, dtype=float)).tolist():
            assert TorusPoint(quo.target, *img).is_zero()

    def test_cyclic_three_diagonal(self, lattice):
        q0 = FiniteSubgroupSpec.parse(("1/3,1/3",))
        quo = quotient_lattice(lattice, q0)
        assert quo.subgroup.order == 3
        (img,) = map_coords(quo, np.array([[1 / 3, 1 / 3]])).tolist()
        assert TorusPoint(quo.target, *img).is_zero()

    def test_trivial_quotient_is_identity(self, lattice):
        quo = quotient_lattice(lattice, FiniteSubgroupSpec.trivial())
        assert quo.subgroup.order == 1
        p = TorusPoint.from_coords(lattice, 0.3, 0.7)
        (img,) = map_coords(quo, np.array([[p.a, p.b]])).tolist()
        assert TorusPoint(quo.target, *img).close_to(p)

    @pytest.mark.parametrize(
        "generators", [("1/2,0",), ("1/3,0",), ("1/2,0", "0,1/2"), ("1/9,1/3",), ("4/17,1/17",), ("377/997,1/997",)]
    )
    def test_lifts_invert_map(self, lattice, generators):
        # phi maps the |Q0| lifts of phi(x) back to phi(x), x is one of
        # them, and they are distinct, at least 1/N apart
        q0 = FiniteSubgroupSpec.parse(generators)
        quo = quotient_lattice(lattice, q0)
        x = np.array(_random_coords(17, 5))
        w = map_coords(quo, x)
        lifts = lift_coords(quo, w)
        assert lifts.shape == (5, q0.order, 2)
        assert _wrap_dist_array(map_coords(quo, lifts), w[:, None]).max() <= 1e-9
        assert _wrap_dist_array(lifts, x[:, None]).max(axis=2).min(axis=1).max() < 1e-12
        apart = _wrap_dist_array(lifts[:, :, None], lifts[:, None]).max(axis=3)
        assert (apart + np.eye(q0.order) >= 1 / q0.denominator - 1e-12).all()

    def test_quotient_g2_differs(self, lattice, q2):
        # E and E/Q0 are non-isomorphic curves for |Q0| = 2
        quo = quotient_lattice(lattice, q2)
        g2_src, _ = eisenstein_g2_g3(lattice)
        g2_dst, _ = eisenstein_g2_g3(quo.target)
        assert abs(g2_src - g2_dst) > 1e-3
