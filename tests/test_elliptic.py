import cmath
import math
import random
import warnings
from fractions import Fraction

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellcover import (
    FiniteSubgroupSpec,
    InvalidOrder,
    InvalidPoint,
    InvalidSubgroup,
    LatticeTau,
    TorusPoint,
    eisenstein_g2_g3,
    quotient_lattice,
    reduce_point,
    torsion_points,
    wp,
    wp_inverse,
    wp_prime,
)
from ellcover.covers import MAX_QUOTIENT_IM_TAU
from ellcover.batch import norm_pairs, wp_series_array
from ellcover.elliptic import EPS_NUM, _norm_pair, _wp_series, wp_both_values

from conftest import TAU, lattice_sum_g2_g3, laurent_wp

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
        assert wp(origin).is_pole
        assert wp_prime(origin).is_pole

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
        for e in lat.branch_values:
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
        e3 = lat.branch_values[2]
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

    @every
    def test_branch_values_are_cubic_roots(self, lat):
        g2, g3 = lat.g2g3
        size = abs(g2) ** 1.5 + abs(g3)
        for e in lat.branch_values:
            assert abs(4 * e**3 - g2 * e - g3) <= 1e-10 * size
        assert abs(sum(lat.branch_values)) <= 1e-10 * size ** (1 / 3)


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


def _reference_wp_series(lat: LatticeTau, a: float, b: float) -> tuple[complex, ...]:
    """The scalar q-series written with Python's complex `**`: the bits `_wp_series` must keep."""
    alpha, beta = lat._reduced_coords(a, b)
    two_pi_i = 2j * math.pi
    q = cmath.exp(two_pi_i * lat.tau_reduced)
    u = cmath.exp(two_pi_i * (alpha + beta * lat.tau_reduced))
    tail = 1.0 / 12.0 + 0j
    dtail = 0j
    qn = 1.0 + 0j
    for _ in range(1, 64):
        qn *= q
        qu = qn * u
        qiu = qn / u
        t = qu / (1.0 - qu) ** 2 + qiu / (1.0 - qiu) ** 2 - 2.0 * qn / (1.0 - qn) ** 2
        dt = qu * (1.0 + qu) / (1.0 - qu) ** 3 - qiu * (1.0 + qiu) / (1.0 - qiu) ** 3
        tail += t
        dtail += dt
        if abs(qn) < 1e-14 * min(1.0, abs(u)):
            break
    s = lat.scale
    one_minus_u = 1.0 - u
    num = two_pi_i**2 * (u + one_minus_u**2 * tail)
    den = s**2 * one_minus_u**2
    nump = two_pi_i**3 * (u * (1.0 + u) + one_minus_u**3 * dtail)
    denp = s**3 * one_minus_u**3
    return num, den, nump, denp


def _bits(values) -> list[str]:
    return [float.hex(v.real) + float.hex(v.imag) for v in values]


class TestWpSeries:
    @every
    def test_bits_match_reference_loop(self, lat):
        for a, b in _series_coords(lat):
            want = _bits(_reference_wp_series(lat, a, b))
            assert _bits(_wp_series(lat, a, b)) == want
            assert _bits(_wp_series(lat, a, b, derivative=False)) == want[:2]


class TestWpSeriesArray:
    """The numpy kernel against the scalar series it vectorizes."""

    @every
    def test_matches_scalar_series(self, lat):
        coords = _series_coords(lat)
        a, b = np.array(coords).T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            num, den, nump, denp = wp_series_array(lat, a, b)
            pairs = norm_pairs(num, den)
        for k, (x, y) in enumerate(coords):
            want = _wp_series(lat, x, y)
            got = (num[k], den[k], nump[k], denp[k])
            # numpy and CPython round complex products differently; wp' at a
            # 2-torsion point with |u| large cancels terms ~100x its pair
            for pair, rel in ((slice(0, 2), 1e-13), (slice(2, 4), 1e-12)):
                size = abs(want[pair][0]) + abs(want[pair][1])
                assert all(abs(g - w) <= rel * size for g, w in zip(got[pair], want[pair]))
            want_pair = _norm_pair(*want[:2])
            assert abs(pairs[0][k] - want_pair.num) <= 1e-13
            assert abs(pairs[1][k] - want_pair.den) <= 1e-13
        assert den[coords.index((0.0, 0.0))] == 0
        assert (pairs[0][coords.index((0.0, 0.0))], pairs[1][coords.index((0.0, 0.0))]) == (1, 0)

    @every
    def test_derivative_flag_leaves_wp_bits(self, lat):
        a, b = np.array(_series_coords(lat)).T
        num, den, _, _ = wp_series_array(lat, a, b)
        bare = wp_series_array(lat, a, b, derivative=False)
        assert len(bare) == 2
        assert _bits(bare[0]) == _bits(num) and _bits(bare[1]) == _bits(den)


class TestTorusPoints:
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
        expected = reduce_point(p.z + q.z, lattice)
        assert s.close_to(expected)

    def test_toroidal_distance_wraps(self, lattice):
        p = TorusPoint.from_coords(lattice, 0.01, 0.5)
        q = TorusPoint.from_coords(lattice, 0.99, 0.5)
        assert p.toroidal_dist(q) < 0.05

    def test_torsion_counts_and_orders(self, lattice):
        for n in (1, 2, 3, 4):
            pts = torsion_points(lattice, n)
            assert len(pts) == n * n
            assert len({(round(p.a, 9), round(p.b, 9)) for p in pts}) == n * n
            for p in pts:
                acc = TorusPoint.from_coords(lattice, 0.0, 0.0)
                for _ in range(n):
                    acc = acc + p
                assert acc.is_zero()

    def test_torsion_rejects_bad_order(self, lattice):
        with pytest.raises(InvalidOrder):
            torsion_points(lattice, 0)
        with pytest.raises(InvalidOrder):
            torsion_points(lattice, -3)
        with pytest.raises(InvalidOrder):
            torsion_points(lattice, True)


class TestFiniteSubgroup:
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
        with pytest.raises(InvalidSubgroup):
            FiniteSubgroupSpec.from_generators([(Fraction(1, 5000), Fraction(0))])


class TestQuotientLattice:
    def test_index_two_quotient(self, lattice, q2):
        quo = quotient_lattice(lattice, q2)
        assert quo.index == 2
        # the generator becomes a period of the target
        img = quo.map(TorusPoint.from_coords(lattice, 0.5, 0.0))
        assert img.is_zero()

    def test_klein_four_quotient(self, lattice):
        q0 = FiniteSubgroupSpec.parse(("1/2,0", "0,1/2"))
        quo = quotient_lattice(lattice, q0)
        assert quo.index == 4
        for p in q0.points_on(lattice):
            assert quo.map(p).is_zero()

    def test_cyclic_three_diagonal(self, lattice):
        q0 = FiniteSubgroupSpec.parse(("1/3,1/3",))
        quo = quotient_lattice(lattice, q0)
        assert quo.index == 3
        assert quo.map(TorusPoint.from_coords(lattice, 1 / 3, 1 / 3)).is_zero()

    def test_trivial_quotient_is_identity(self, lattice):
        quo = quotient_lattice(lattice, FiniteSubgroupSpec.trivial())
        assert quo.index == 1
        p = TorusPoint.from_coords(lattice, 0.3, 0.7)
        assert quo.map(p).close_to(p)

    def test_lifts_invert_map(self, lattice, q2):
        quo = quotient_lattice(lattice, q2)
        w = TorusPoint.from_coords(quo.target, 0.37, 0.61)
        lifts = quo.lifts(w)
        assert len(lifts) == 2
        for z in lifts:
            assert quo.map(z).close_to(w, tol=1e-9)
        assert not lifts[0].close_to(lifts[1], tol=1e-6)

    def test_quotient_g2_differs(self, lattice, q2):
        # E and E/Q0 are non-isomorphic curves for |Q0| = 2
        quo = quotient_lattice(lattice, q2)
        g2_src, _ = eisenstein_g2_g3(lattice)
        g2_dst, _ = eisenstein_g2_g3(quo.target)
        assert abs(g2_src - g2_dst) > 1e-3
