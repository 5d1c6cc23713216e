import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellcover import (
    DegenerateSection,
    FiniteSubgroupSpec,
    HomPair,
    IllConditioned,
    InvalidOrder,
    InvalidPoint,
    LatticeTau,
    ProjectivePoint,
    SectionBasis,
    SumNotZero,
    TorusPoint,
    build_cover,
    divisor_to_coords,
    projective_spread,
    section_zeros,
    sym_fiber,
    sym_product,
    reduce_point,
    wp,
)

from ellcover.batch import coords_array, torus_z
from ellcover.weierstrass import centred_values
from ellcover.symfun import normalize_rows, projective_spreads
from ellcover import symfun

from conftest import TAU, scalar_sym_product


def _t(p):
    """t = wp - e2 at a point, the coordinate of the section basis."""
    return centred_values(p)[0]


def _values(basis, p):
    """The basis functions at a non-pole point."""
    return basis.jet(*centred_values(p))[0]


def _coords(points):
    """The coordinate rows that `projective_spread` takes, one per point."""
    return np.array([p.coords for p in points], dtype=complex)


def _finite(vals):
    return [HomPair(complex(v), 1.0 + 0j) for v in vals]


def _sym(pairs):
    """`sym_product` of one tuple of pairs, as a ProjectivePoint."""
    rows, invalid = sym_product(
        np.array([[p.num for p in pairs]]), np.array([[p.den for p in pairs]])
    )
    assert not invalid.any()
    return ProjectivePoint(tuple(rows[0].tolist()))


class TestProjectivePoint:
    def test_normalize_sets_largest_to_one(self):
        p = ProjectivePoint.normalize([3j, 6.0, 1.5])
        assert p.coords[1] == 1.0 + 0j
        assert abs(p.coords[0] - 0.5j) < 1e-15

    def test_scale_invariance(self):
        p = ProjectivePoint.normalize([1.0, 2.0, 3.0])
        q = ProjectivePoint.normalize([2.5j, 5.0j, 7.5j])
        assert p.chordal_dist(q) < 1e-15

    def test_rejects_zero_and_nonfinite(self):
        with pytest.raises(InvalidPoint):
            ProjectivePoint.normalize([0.0, 0.0])
        with pytest.raises(InvalidPoint):
            ProjectivePoint.normalize([1.0, float("nan")])
        with pytest.raises(InvalidPoint):
            ProjectivePoint.normalize([1.0, complex(float("inf"), 0)])

    def test_normalize_rows_matches_normalize(self):
        rng = np.random.default_rng(4)
        rows = rng.normal(size=(30, 4)) + 1j * rng.normal(size=(30, 4))
        # ties pivot on the last maximal entry, as in normalize
        ties = [[1, -1, 0, 0], [1j, 0, -1, 0], [2, 0, 0, 2j], [0, 0, 0, 3]]
        rows = np.concatenate([rows, np.array(ties, dtype=complex)])
        out, invalid = normalize_rows(rows)
        assert not invalid.any()
        for got, row in zip(out, rows):
            want = ProjectivePoint.normalize(row).coords
            assert [c == 1 for c in got] == [c == 1 for c in want]
            assert np.max(np.abs(got - np.array(want))) <= 1e-15
        # rows where normalize raises are marked, and only those
        for bad in ([0.0, 0.0], [1.0, float("nan")], [1.0, complex(float("inf"), 0)]):
            out, invalid = normalize_rows(np.array([[1.0, 2.0], bad], dtype=complex))
            assert invalid.tolist() == [False, True]
            assert out[0].tolist() == list(ProjectivePoint.normalize([1.0, 2.0]).coords)

    def test_chordal_dist_symmetric(self):
        p = ProjectivePoint.normalize([1.0, 2.0 + 1j])
        q = ProjectivePoint.normalize([0.5, 1.0])
        assert p.chordal_dist(q) == pytest.approx(q.chordal_dist(p))

    def test_spread(self):
        p = ProjectivePoint.normalize([1.0, 0.0])
        q = ProjectivePoint.normalize([1.0, 1e-9])
        r = ProjectivePoint.normalize([1.0, 3e-9])
        spread = projective_spread(_coords([p, q, r]))
        assert 1e-10 < spread < 1e-8
        assert projective_spread(_coords([p])) == 0.0
        assert projective_spread(_coords([])) == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_spread_equals_pairwise_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 120))
        m = int(rng.integers(2, 6))
        base = rng.normal(size=m) + 1j * rng.normal(size=m)
        noise = 10.0 ** -rng.integers(1, 16)
        points = [
            ProjectivePoint.normalize(
                base * complex(*rng.normal(size=2))
                + noise * (rng.normal(size=m) + 1j * rng.normal(size=m))
            )
            for _ in range(n)
        ]
        points += points[: n // 3]  # exact duplicates, as orbits produce
        worst = 0.0
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                worst = max(worst, points[i].chordal_dist(points[j]))
        assert projective_spread(_coords(points)) == worst


class TestProjectiveSpreads:
    def test_owners_match_the_pairwise_loop(self, lattice):
        # ragged owners: one row, two rows, a whole orbit's rows with exact
        # duplicates, and a failed owner whose rows hold nan; rows shuffled
        spec = build_cover("A", 2, lattice, FiniteSubgroupSpec.parse(("1/2,0",)))
        x = (TorusPoint.from_coords(lattice, 0.137, 0.261), TorusPoint.from_coords(lattice, 0.389, 0.731))
        orbit, _ = spec.map_array(coords_array(spec.group.orbit(x)))
        rng = np.random.default_rng(4)
        one = rng.normal(size=(1, 3)) + 1j * rng.normal(size=(1, 3))
        two = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
        whole = np.concatenate([orbit, orbit[:5]])
        bad = np.concatenate([orbit[:2], np.full((1, 3), np.nan)])
        groups = [one, two, whole, bad]
        coords = np.concatenate(groups)
        owner = np.repeat(np.arange(4), [len(g) for g in groups])
        failed = np.array([False, False, False, True])
        shuffle = rng.permutation(len(coords))
        got = projective_spreads(coords[shuffle], owner[shuffle], failed)
        for k, rows in enumerate(groups[:3]):
            points = [ProjectivePoint(tuple(r)) for r in rows.tolist()]
            want = max((p.chordal_dist(q) for i, p in enumerate(points) for q in points[i + 1 :]), default=0.0)
            assert got[k] == want
            assert projective_spread(rows) == want
        assert got[0] == 0.0 and got[2] > 0.0
        assert got[3] == np.inf


class TestSymProduct:
    def test_double_zero(self):
        # both factors at x = 0: coefficients (0 : 0 : 1)
        out = _sym(_finite([0.0, 0.0]))
        assert out.coords == (0j, 0j, 1.0 + 0j)

    def test_plus_minus_one(self):
        out = _sym(_finite([1.0, -1.0]))
        assert out.coords == (-1.0 + 0j, 0j, 1.0 + 0j)

    def test_single_point(self):
        out = _sym(_finite([2.5]))
        assert out.chordal_dist(ProjectivePoint.normalize([-2.5, 1.0])) <= 1e-7

    def test_pole_factor(self):
        # (1:0) and (2:1): (X - 2Y) * (-Y) has coefficients (2, -1, 0)
        pairs = [HomPair(1.0 + 0j, 0j), HomPair(2.0 + 0j, 1.0 + 0j)]
        out = _sym(pairs)
        assert out.chordal_dist(ProjectivePoint.normalize([2.0, -1.0, 0.0])) <= 1e-7
        assert out.chordal_dist(scalar_sym_product(pairs)) <= 1e-13

    def test_all_poles(self):
        out = _sym([HomPair(1.0 + 0j, 0j)] * 3)
        assert out.chordal_dist(ProjectivePoint.normalize([-1.0, 0.0, 0.0, 0.0])) <= 1e-7
        assert out.chordal_dist(scalar_sym_product([HomPair(1.0 + 0j, 0j)] * 3)) <= 1e-13

    @settings(max_examples=50, deadline=None)
    @given(
        vals=st.lists(
            st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
            min_size=2,
            max_size=5,
        ),
        seed=st.integers(0, 2 ** 16),
    )
    def test_permutation_invariance(self, vals, seed):
        pairs = _finite(vals)
        shuffled = list(pairs)
        random.Random(seed).shuffle(shuffled)
        num = np.array([[p.num for p in row] for row in (pairs, shuffled)])
        den = np.array([[p.den for p in row] for row in (pairs, shuffled)])
        rows, invalid = sym_product(num, den)
        assert not invalid.any()
        assert rows[0].tolist() == rows[1].tolist()
        want = scalar_sym_product(pairs)
        assert ProjectivePoint(tuple(rows[0])).chordal_dist(want) <= 1e-13


class TestSymFiber:
    def test_roundtrip_distinct(self):
        vals = [2.0 + 1j, -0.5, 3.3 - 2j]
        fiber = sym_fiber(_sym(_finite(vals)))
        assert sum(m for _, m in fiber) == 3
        got = sorted(
            (pair.value for pair, m in fiber for _ in range(m)),
            key=lambda v: (v.real, v.imag),
        )
        want = sorted(vals, key=lambda v: (complex(v).real, complex(v).imag))
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-8

    def test_roundtrip_with_multiplicity(self):
        vals = [1.5, 1.5, -2.0]
        fiber = sym_fiber(_sym(_finite(vals)))
        mults = sorted(m for _, m in fiber)
        assert mults == [1, 2]

    def test_infinity_roots(self):
        # one pole factor: top coefficient vanishes
        pairs = [HomPair(1.0 + 0j, 0j)] + _finite([1.0, 2.0])
        fiber = sym_fiber(_sym(pairs))
        poles = [m for pair, m in fiber if pair.den == 0]
        assert poles == [1]
        finite = sorted(pair.value.real for pair, m in fiber if pair.den != 0)
        assert np.allclose(finite, [1.0, 2.0], atol=1e-9)

    def test_zero_point_rejected(self):
        with pytest.raises(DegenerateSection):
            sym_fiber([0j, 0j, 0j])


class TestRootClusters:
    """Roots within _ROOT_CLUSTER of each other, relative to their size, join one cluster."""

    def test_multiplicities(self, monkeypatch):
        rng = np.random.default_rng(5)
        roots = rng.normal(size=(30, 4)) + 1j * rng.normal(size=(30, 4))
        roots[:10, 1] = roots[:10, 0] * (1 + 3e-6)  # a close pair: one cluster
        roots[10:15, 2] = roots[10:15, 0] * (1 + 3e-5)  # close, but not within _ROOT_CLUSTER
        roots[15:20, 3] = roots[15:20, 0]  # an exact double root
        roots[26] = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(1.0, -0.0), complex(-1.0, 0.0)]
        roots[27] = [0j, 0j, 1e-300 + 0j, -3.0 + 0j]  # repeated zeros: |0 - 0| <= 0
        monkeypatch.setattr(symfun, "poly_roots", lambda coeffs: roots)
        mults = [sorted(m for _, m in row) for row in symfun.root_clusters(np.ones((len(roots), 5)))]
        assert all(m == [1, 1, 2] for m in mults[:10]) and all(m == [1] * 4 for m in mults[10:15])
        assert all(m == [1, 1, 2] for m in mults[15:20]) and all(m == [1] * 4 for m in mults[20:26])
        assert mults[26] == [1, 1, 2] and mults[27] == [1, 1, 2]

    def test_double_root_of_a_real_polynomial(self):
        rng = np.random.default_rng(9)
        roots = rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
        roots[::4, 1] = roots[::4, 0]  # a double root, which np.roots splits by ~1e-8
        got = symfun.root_clusters(np.stack([np.poly(r) for r in roots]))
        assert [sorted(m for _, m in row) for row in got[::4]] == [[1, 2]] * 10
        for row, want in zip(got[::4], roots[::4, 0]):
            assert abs(next(x for x, m in row if m == 2) - want) <= 1e-12 * abs(want)


class TestSectionBasis:
    def test_pole_orders(self, lattice):
        assert SectionBasis(2, lattice).pole_orders == (0, 2)
        assert SectionBasis(3, lattice).pole_orders == (0, 2, 3)
        assert SectionBasis(5, lattice).pole_orders == (0, 2, 3, 4, 5)
        assert SectionBasis(6, lattice).pole_orders == (0, 2, 3, 4, 5, 6)

    def test_dimension_matches_order(self, lattice):
        for n in range(2, 8):
            assert len(SectionBasis(n, lattice).pole_orders) == n

    def test_rejects_small_order(self, lattice):
        for n in (1, 0, -2):
            with pytest.raises(InvalidOrder):
                SectionBasis(n, lattice)

    def test_evaluate_consistency(self, lattice):
        basis = SectionBasis(4, lattice)
        pt = TorusPoint.from_coords(lattice, 0.23, 0.37)
        vals = _values(basis, pt)
        assert vals[0] == 1.0
        x = wp(pt).value - lattice.e2
        assert abs(vals[1] - x) < 1e-9 * (1 + abs(x))
        assert abs(vals[3] - x * x) < 1e-8 * (1 + abs(x) ** 2)

    def test_derivative_matches_finite_difference(self, lattice):
        basis = SectionBasis(4, lattice)
        a, b = 0.31, 0.17
        h = 1e-5
        up = _values(basis, TorusPoint.from_coords(lattice, a + h, b))
        down = _values(basis, TorusPoint.from_coords(lattice, a - h, b))
        # d/dz = d/da when moving along the first period (scale 1 here)
        fd = (up - down) / (2 * h * abs(1.0))
        dv = basis.jet(*centred_values(TorusPoint.from_coords(lattice, a, b)), 1)[1]
        for got, want in zip(dv[1:], fd[1:]):
            assert abs(got - want) < 1e-4 * (1 + abs(want))

    @pytest.mark.parametrize("n", [4, 7])
    @pytest.mark.parametrize("center", [(0.31, 0.17), (0.5, 0.5), (0.62, 0.93)])
    def test_derivatives_of_every_order_match_contour_integrals(self, lattice, n, center):
        # f^(k)(z) = k!/r^k * mean_j f(z + r e^(i t_j)) e^(-i k t_j) on a circle
        # of radius r, exact up to (r/R)^m for the m points and R the
        # distance to the nearest pole, here 0.4 or more
        basis = SectionBasis(n, lattice)
        p = TorusPoint.from_coords(lattice, *center)
        r, m = 0.2, 64
        turns = np.exp(2j * np.pi * np.arange(m) / m)
        z = complex(torus_z(lattice, np.array([p.a, p.b])))
        values = np.array([_values(basis, reduce_point(z + r * t, lattice)) for t in turns])
        for k in range(n):
            want = math.factorial(k) / r**k * (turns[:, None] ** -k * values).mean(axis=0)
            got = basis.jet(*centred_values(p), k)[k]
            scale = math.factorial(k) / r**k * np.abs(values).max(axis=0)
            assert np.all(np.abs(got - want) <= 1e-11 * scale), k


def _points(lattice, coords):
    return [TorusPoint.from_coords(lattice, a, b) for a, b in coords]


class TestDivisorToCoords:
    def test_two_point_section_is_wp_shift(self, lattice):
        basis = SectionBasis(2, lattice)
        y = TorusPoint.from_coords(lattice, 0.28, 0.13)
        out = divisor_to_coords([y, -y], basis)
        expected = ProjectivePoint.normalize([-_t(y), 1.0])
        assert out.chordal_dist(expected) <= 1e-9

    def test_section_vanishes_on_divisor(self, lattice):
        basis = SectionBasis(3, lattice)
        pts = _points(lattice, [(0.21, 0.11), (0.43, 0.29)])
        last = -(pts[0] + pts[1])
        divisor = pts + [last]
        coeffs = divisor_to_coords(divisor, basis)
        for p in divisor:
            val = np.dot(np.asarray(coeffs.coords), _values(basis, p))
            assert abs(val) < 1e-7

    def test_sum_not_zero_rejected(self, lattice):
        basis = SectionBasis(3, lattice)
        pts = _points(lattice, [(0.2, 0.1), (0.3, 0.4), (0.25, 0.33)])
        with pytest.raises(SumNotZero):
            divisor_to_coords(pts, basis)

    def test_length_mismatch_rejected(self, lattice):
        basis = SectionBasis(3, lattice)
        y = TorusPoint.from_coords(lattice, 0.2, 0.3)
        with pytest.raises(InvalidPoint):
            divisor_to_coords([y, -y], basis)

    @pytest.mark.parametrize(
        "n, coords", [(4, (0.31, 0.21)), (5, (0.31, 0.21)), (4, (0.25, 0.25)), (5, (0.4, 0.2))]
    )
    def test_repeated_point_is_a_zero_of_its_multiplicity(self, lattice, n, coords):
        # n - 1 copies of y and -(n-1)y, or n copies of an n-torsion point
        basis = SectionBasis(n, lattice)
        y = TorusPoint.from_coords(lattice, *coords)
        divisor = [y] * (n - 1)
        rest = -(sum(divisor[1:], y))
        mult = n if rest.close_to(y) else n - 1
        divisor.append(rest)
        c = np.asarray(divisor_to_coords(divisor, basis).coords)
        jets = np.array(basis.jet(*centred_values(y), n - 1))
        sizes = np.abs(jets) @ np.abs(c)
        assert np.all(np.abs(jets[:mult] @ c) <= 1e-9 * sizes[:mult])
        if mult < n:
            assert abs(jets[mult] @ c) > 1e-3 * sizes[mult]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_copies_of_the_origin(self, lattice, n):
        # n copies give the constant section; n - 2 copies and y, -y give wp - wp(y)
        basis = SectionBasis(n, lattice)
        zero = TorusPoint.from_coords(lattice, 0.0, 0.0)
        y = TorusPoint.from_coords(lattice, 0.25, 0.35)
        constant = ProjectivePoint.normalize([1.0] + [0.0] * (n - 1))
        assert divisor_to_coords([zero] * n, basis).chordal_dist(constant) <= 1e-15
        shift = ProjectivePoint.normalize([-_t(y), 1.0] + [0.0] * (n - 2))
        assert divisor_to_coords([zero] * (n - 2) + [y, -y], basis).chordal_dist(shift) <= 1e-9

    @pytest.mark.parametrize("tau", [0.3 + 1.1j, -0.2 + 0.9j, 0.45 + 1.7j, 0.1 + 2.5j, 1j])
    def test_double_half_period(self, tau):
        # at n = 2, y + y sums to 0 only at a half period, where wp' vanishes:
        # the section is wp - wp(y), whatever rounding noise the series
        # leaves in wp'(y)
        lattice = LatticeTau.from_tau(tau)
        basis = SectionBasis(2, lattice)
        for coords in ((0.5, 0.0), (0.0, 0.5), (0.5, 0.5)):
            y = TorusPoint.from_coords(lattice, *coords)
            expected = ProjectivePoint.normalize([-_t(y), 1.0])
            try:
                out = divisor_to_coords([y, y], basis)
            except IllConditioned:
                continue
            assert out.chordal_dist(expected) <= 1e-13

    def test_double_point_divisor(self, lattice):
        basis = SectionBasis(4, lattice)
        y = TorusPoint.from_coords(lattice, 0.31, 0.21)
        rest = -(y + y)
        w = TorusPoint.from_coords(lattice, rest.a / 1, rest.b / 1)
        # split rest into two distinct points summing to it
        u = TorusPoint.from_coords(lattice, 0.11, 0.05)
        divisor = [y, y, u, w - u]
        coeffs = divisor_to_coords(divisor, basis)
        c = np.asarray(coeffs.coords)
        # double zero: value and derivative both vanish at y
        assert abs(np.dot(c, _values(basis, y))) < 1e-7
        assert abs(np.dot(c, basis.jet(*centred_values(y), 1)[1])) < 1e-5


class TestSectionZeros:
    def test_roundtrip_generic(self, lattice):
        basis = SectionBasis(3, lattice)
        pts = _points(lattice, [(0.21, 0.11), (0.43, 0.29)])
        divisor = pts + [-(pts[0] + pts[1])]
        coeffs = divisor_to_coords(divisor, basis)
        zeros = section_zeros(coeffs, basis)
        assert sum(m for _, m in zeros) == 3
        for target in divisor:
            assert any(z.close_to(target, tol=1e-7) for z, _ in zeros)

    def test_roundtrip_with_origin(self, lattice):
        basis = SectionBasis(3, lattice)
        y = TorusPoint.from_coords(lattice, 0.28, 0.4)
        zero = TorusPoint.from_coords(lattice, 0.0, 0.0)
        divisor = [zero, y, -y]
        coeffs = divisor_to_coords(divisor, basis)
        zeros = section_zeros(coeffs, basis)
        assert sum(m for _, m in zeros) == 3
        assert any(z.is_zero(tol=1e-7) for z, _ in zeros)
        assert any(z.close_to(y, tol=1e-7) for z, _ in zeros)

    def test_roundtrip_double_point(self, lattice):
        basis = SectionBasis(4, lattice)
        y = TorusPoint.from_coords(lattice, 0.31, 0.21)
        u = TorusPoint.from_coords(lattice, 0.11, 0.05)
        w = -(y + y) - u
        divisor = [y, y, u, w]
        coeffs = divisor_to_coords(divisor, basis)
        zeros = section_zeros(coeffs, basis)
        assert sum(m for _, m in zeros) == 4
        doubled = [z for z, m in zeros if m == 2]
        assert len(doubled) == 1 and doubled[0].close_to(y, tol=1e-6)

    def test_wp_prime_divisor(self, lattice):
        # pure odd section: zeros exactly at the three half periods
        basis = SectionBasis(3, lattice)
        zeros = section_zeros([0j, 0j, 1.0 + 0j], basis)
        got = sorted((round(z.a, 6) % 1, round(z.b, 6) % 1) for z, _ in zeros)
        assert got == [(0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]
        assert all(m == 1 for _, m in zeros)

    def test_even_section_splits_branches(self, lattice):
        basis = SectionBasis(3, lattice)
        y = TorusPoint.from_coords(lattice, 0.22, 0.37)
        zeros = section_zeros([-_t(y), 1.0 + 0j, 0j], basis)
        assert sum(m for _, m in zeros) == 3
        finite = [z for z, _ in zeros if not z.is_zero(tol=1e-9)]
        assert len(finite) == 2
        assert any(z.close_to(y, tol=1e-7) for z in finite)
        assert any(z.close_to(-y, tol=1e-7) for z in finite)

    def test_degenerate_rejected(self, lattice):
        basis = SectionBasis(3, lattice)
        with pytest.raises((DegenerateSection, InvalidPoint)):
            section_zeros([0j, 0j, 0j], basis)

    @settings(max_examples=20, deadline=None)
    @given(
        a1=st.floats(0.05, 0.95),
        b1=st.floats(0.05, 0.95),
        a2=st.floats(0.05, 0.95),
        b2=st.floats(0.05, 0.95),
    )
    def test_roundtrip_random_cubic(self, a1, b1, a2, b2):
        lattice = LatticeTau.from_tau(TAU)
        basis = SectionBasis(3, lattice)
        p = TorusPoint.from_coords(lattice, a1, b1)
        q = TorusPoint.from_coords(lattice, a2, b2)
        r = -(p + q)
        divisor = [p, q, r]
        coeffs = divisor_to_coords(divisor, basis)
        zeros = section_zeros(coeffs, basis)
        assert sum(m for _, m in zeros) == 3
        for target in divisor:
            assert any(z.close_to(target, tol=1e-5) for z, _ in zeros)
