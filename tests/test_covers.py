import math
import random
import warnings

import numpy as np
import pytest

from ellcover import (
    ConfigError,
    FiniteSubgroupSpec,
    HighMultiplicity,
    IllConditioned,
    LatticeTau,
    NonGenericTarget,
    NotVeryAmpleWarning,
    ProjectivePoint,
    TorusPoint,
    build_cover,
    criterion_check,
    fiber_A,
    fiber_B,
    galois_verify,
    reduce_point,
    very_ample_preconditions,
    wp,
)

from ellcover import batch, covers
from ellcover.covers import MAX_QUOTIENT_IM_TAU, _match_as_sets
from ellcover.batch import coords_array, divisors_to_coords, map_coords

from conftest import TAU


def _build(construction, d, q0spec, lattice):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotVeryAmpleWarning)
        return build_cover(construction, d, lattice, q0spec)


def _point(spec, coords):
    return tuple(
        TorusPoint.from_coords(spec.curve, a, b) for a, b in coords
    )


class TestPreconditions:
    def test_construction_a_needs_nontrivial_subgroup(self):
        trivial = FiniteSubgroupSpec.trivial()
        q2 = FiniteSubgroupSpec.parse(("1/2,0",))
        for d in (1, 2, 3):
            assert not very_ample_preconditions("A", d, trivial)
            assert very_ample_preconditions("A", d, q2)

    def test_construction_b_needs_three_points_on_the_line(self):
        q2 = FiniteSubgroupSpec.parse(("1/2,0",))
        q3 = FiniteSubgroupSpec.parse(("1/3,0",))
        assert not very_ample_preconditions("B", 1, q2)
        assert very_ample_preconditions("B", 1, q3)
        assert very_ample_preconditions("B", 2, q2)
        assert not very_ample_preconditions("B", 2, FiniteSubgroupSpec.trivial())


class TestBuildCover:
    def test_construction_a_assembly(self, lattice, q2):
        spec = build_cover("A", 2, lattice, q2)
        assert spec.group.order == 32
        assert spec.polarization.rows == ((4, 0), (0, 4))
        assert spec.theoretical_degree == 32
        assert spec.very_ample
        assert spec.quotient.index == 2

    def test_construction_b_assembly(self, lattice, q2):
        spec = build_cover("B", 2, lattice, q2)
        assert spec.group.order == 24
        assert spec.polarization.rows == ((2, 1), (1, 2))
        assert spec.theoretical_degree == 24
        assert spec.very_ample

    def test_degree_equals_group_order_across_grid(self, lattice):
        for construction in ("A", "B"):
            for d in (1, 2):
                for q in (2, 3):
                    q0 = FiniteSubgroupSpec.parse((f"1/{q},0",))
                    spec = _build(construction, d, q0, lattice)
                    assert spec.theoretical_degree == spec.group.order

    def test_invalid_inputs_rejected(self, lattice, q2):
        with pytest.raises(ConfigError):
            build_cover("C", 2, lattice, q2)
        with pytest.raises(ConfigError):
            build_cover("A", 0, lattice, q2)

    def test_warns_when_not_very_ample(self, lattice, q2):
        with pytest.warns(NotVeryAmpleWarning):
            build_cover("B", 1, lattice, q2)
        with pytest.warns(NotVeryAmpleWarning):
            build_cover("A", 2, lattice, FiniteSubgroupSpec.trivial())

    def test_no_warning_when_very_ample(self, lattice, q2):
        with warnings.catch_warnings():
            warnings.simplefilter("error", NotVeryAmpleWarning)
            build_cover("A", 2, lattice, q2)
            build_cover("B", 2, lattice, q2)


class TestCoverMaps:
    def test_map_a_dimension_one_is_wp(self, lattice, q2):
        spec = _build("A", 1, q2, lattice)
        x = _point(spec, [(0.23, 0.37)])
        image = spec.map(x)
        target = spec.quotient.target
        w = wp(reduce_point(x[0].z, target)).value
        assert abs(image.coords[0] + w * image.coords[1]) < 1e-9 * (1 + abs(w))

    def test_maps_agree_for_dimension_one(self, lattice, q3):
        a = _build("A", 1, q3, lattice)
        b = _build("B", 1, q3, lattice)
        for coords in ((0.23, 0.37), (0.61, 0.18)):
            x = _point(a, [coords])
            assert a.map(x).close_to(b.map(x), tol=1e-7)

    def test_map_a_invariant_under_group(self, lattice, q2):
        spec = build_cover("A", 2, lattice, q2)
        x = _point(spec, [(0.137, 0.261), (0.389, 0.731)])
        base = spec.map(x)
        for g in spec.group.elements[::5]:
            assert spec.map(g.apply(x)).close_to(base, tol=1e-7)

    def test_map_b_invariant_under_group(self, lattice, q2):
        spec = build_cover("B", 2, lattice, q2)
        x = _point(spec, [(0.137, 0.261), (0.389, 0.731)])
        base = spec.map(x)
        for g in spec.group.elements[::5]:
            assert spec.map(g.apply(x)).close_to(base, tol=1e-7)

    def test_map_separates_orbits(self, lattice, q2):
        spec = build_cover("A", 2, lattice, q2)
        x = _point(spec, [(0.137, 0.261), (0.389, 0.731)])
        y = _point(spec, [(0.211, 0.653), (0.449, 0.118)])
        assert not spec.map(x).close_to(spec.map(y), tol=1e-3)


class TestMapArray:
    """Batched maps over many tuples against the scalar `map_A` / `map_B`."""

    @pytest.mark.parametrize("construction", ["A", "B"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_rows_match_scalar_map(self, lattice, q2, construction, d):
        spec = _build(construction, d, q2, lattice)
        rng = random.Random(d)
        x = _point(spec, [(rng.random(), rng.random()) for _ in range(d)])
        points = [g.apply(x) for g in spec.group.elements[:: max(1, spec.group.order // 40)]]
        points += [
            _point(spec, [(rng.random(), rng.random()) for _ in range(d)]) for _ in range(20)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = spec.map_array(coords_array(points))
        assert rows.shape == (len(points), d + 1)
        for row, p in zip(rows, points):
            assert ProjectivePoint(tuple(row)).chordal_dist(spec.map(p)) <= 1e-13

    SPECIAL = {
        # Q0 = <1/2, 0>: (0.5, 0) maps to the origin of E/Q0, and tuples
        # 0.5 apart in a map to the same point of E/Q0
        "pole": [(0.0, 0.0), (0.31, 0.72), (0.13, 0.45)],
        "origin": [(0.5, 0.0), (0.31, 0.72), (0.13, 0.45)],
        "double origin": [(0.5, 0.0), (0.0, 0.0), (0.13, 0.45)],
        "all at origin": [(0.5, 0.0), (0.0, 0.0), (0.5, 0.0)],
        "collision": [(0.2, 0.3), (0.7, 0.3), (0.13, 0.45)],
        "triple": [(0.2, 0.3), (0.7, 0.3), (0.2, 0.3)],
        "sum collision": [(0.2, 0.3), (0.6, 0.4), (0.13, 0.45)],
    }

    @pytest.mark.parametrize("construction", ["A", "B"])
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("case", SPECIAL)
    def test_special_rows_follow_scalar_map(self, lattice, q2, construction, d, case):
        spec = _build(construction, d, q2, lattice)
        special = _point(spec, self.SPECIAL[case][:d])
        if case == "sum collision":
            # the last point is minus the sum of the others: y_(d+1) = y_1
            head = special[0]
            rest = TorusPoint.from_coords(spec.curve, 0.0, 0.0)
            for p in special[1:-1]:
                rest = rest + p
            last = -(head + head + rest)
            special = special[:-1] + (last,)
        points = [_point(spec, GENERIC[:d]), special]
        try:
            want = spec.map(special)
        except (HighMultiplicity, IllConditioned) as exc:
            with pytest.raises(type(exc)):
                spec.map_array(coords_array(points))
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = spec.map_array(coords_array(points))
        assert ProjectivePoint(tuple(rows[1])).chordal_dist(want) <= 1e-13
        assert ProjectivePoint(tuple(rows[0])).chordal_dist(spec.map(points[0])) <= 1e-13

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_permuted_images_map_to_equal_rows(self, lattice, q3, d):
        # each row's factors are sorted, so images that permute the same
        # coordinates give equal rows, which projective_spread drops
        spec = _build("A", d, q3, lattice)
        x = _point(spec, (GENERIC + [(0.83, 0.09)])[:d])
        orbit = spec.group.orbit(x)
        rows = spec.map_array(coords_array(orbit))
        assert len({tuple(row) for row in rows.tolist()}) <= len(orbit) // math.factorial(d)

    def test_divisor_rows_ignore_point_order(self, lattice, q2):
        # the batched B rows sort each divisor's points, as divisor_to_coords
        # does, so reordered divisors give equal rows
        spec = _build("B", 3, q2, lattice)
        ys = map_coords(spec.quotient, coords_array([_point(spec, GENERIC)]))[0]
        last = -(ys.sum(axis=0)) % 1.0
        divisor = np.concatenate([ys, last[None]])
        reordered = np.array([divisor, divisor[::-1], divisor[[2, 0, 3, 1]]])
        rows = divisors_to_coords(reordered, spec.basis)
        assert rows[0].tolist() == rows[1].tolist() == rows[2].tolist()

    def test_basis_is_built_once(self, lattice, q2):
        spec = _build("B", 2, q2, lattice)
        assert spec.basis is spec.basis


class TestFiberA:
    def test_fiber_matches_orbit(self, lattice, q2):
        spec = build_cover("A", 2, lattice, q2)
        x = _point(spec, [(0.137, 0.261), (0.389, 0.731)])
        target = spec.map(x)
        fiber = fiber_A(spec, target)
        assert len(fiber) == 32
        orb = spec.group.orbit(x)
        assert len(orb) == 32
        for p in fiber:
            assert any(
                all(a.close_to(b, tol=1e-6) for a, b in zip(p, q)) for q in orb
            )

    def test_branch_target_rejected(self, lattice, q2):
        spec = build_cover("A", 2, lattice, q2)
        # first slot at a half period maps to a branch value
        x = _point(spec, [(0.5, 0.0), (0.389, 0.731)])
        with pytest.raises(NonGenericTarget):
            fiber_A(spec, spec.map(x))

    def test_collided_roots_rejected(self, lattice, q2):
        spec = build_cover("A", 2, lattice, q2)
        # both slots on the same quotient class: double root downstairs
        x = _point(spec, [(0.2, 0.3), (0.7, 0.3)])
        with pytest.raises(NonGenericTarget):
            fiber_A(spec, spec.map(x))


GENERIC = [(0.137, 0.261), (0.389, 0.731), (0.613, 0.447)]


class TestFiberB:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_fiber_matches_orbit(self, lattice, q2, d):
        spec = _build("B", d, q2, lattice)
        x = _point(spec, GENERIC[:d])
        fiber = fiber_B(spec, spec.map(x))
        assert len(fiber) == spec.group.order
        assert _match_as_sets(coords_array(fiber), coords_array(spec.group.orbit(x)), 1e-6)

    def test_repeated_divisor_point_rejected(self, lattice, q2):
        spec = build_cover("B", 2, lattice, q2)
        # both slots on the same quotient class: y_1 = y_2 downstairs
        x = _point(spec, [(0.2, 0.3), (0.7, 0.3)])
        with pytest.raises(NonGenericTarget):
            fiber_B(spec, spec.map(x))

    def test_needs_construction_b(self, lattice, q2):
        spec = build_cover("A", 2, lattice, q2)
        x = _point(spec, GENERIC[:2])
        with pytest.raises(ConfigError):
            fiber_B(spec, spec.map(x))


class TestGaloisVerify:
    def test_construction_a_passes(self, lattice, q2):
        spec = build_cover("A", 2, lattice, q2)
        report = galois_verify(spec, samples=5, seed=42)
        assert report.passed
        assert len(report.samples) == 5
        for rec in report.samples:
            assert rec.generic
            assert rec.orbit_size == 32
            assert rec.image_spread < 1e-7
            assert rec.fiber_match

    def test_construction_b_passes(self, lattice, q2):
        spec = build_cover("B", 2, lattice, q2)
        report = galois_verify(spec, samples=5, seed=42)
        assert report.passed
        for rec in report.samples:
            assert rec.generic
            assert rec.orbit_size == 24
            assert rec.image_spread < 1e-7
            assert rec.fiber_match

    def test_seed_determinism(self, lattice, q2):
        spec = build_cover("A", 1, lattice, q2)
        r1 = galois_verify(spec, samples=4, seed=7)
        r2 = galois_verify(spec, samples=4, seed=7)
        assert [rec.point for rec in r1.samples] == [rec.point for rec in r2.samples]
        assert [rec.image_spread for rec in r1.samples] == [
            rec.image_spread for rec in r2.samples
        ]

    def test_different_seeds_draw_different_points(self, lattice, q2):
        spec = build_cover("A", 1, lattice, q2)
        r1 = galois_verify(spec, samples=2, seed=1)
        r2 = galois_verify(spec, samples=2, seed=2)
        assert r1.samples[0].point != r2.samples[0].point

    def test_recovered_divisor_is_polished(self, lattice, q3):
        # the lifted roots of the norm polynomial leave this sample's divisor
        # 1.2e-4 to 1.7e-4 off in torus coordinates, so its unpolished fiber
        # missed the orbit: a false FAIL
        spec = build_cover("B", 3, lattice, q3)
        report = galois_verify(spec, samples=1, seed=906133)
        (rec,) = report.samples
        assert rec.generic and rec.orbit_size == 648
        assert rec.fiber_match
        assert report.passed

    @pytest.mark.parametrize("construction, order", [("A", 6144), ("B", 1920)])
    def test_dimension_four(self, lattice, q2, construction, order):
        spec = build_cover(construction, 4, lattice, q2)
        report = galois_verify(spec, samples=1, seed=42)
        (rec,) = report.samples
        assert rec.generic and rec.orbit_size == order
        assert report.passed

    @pytest.mark.parametrize("construction", ["A", "B"])
    def test_moved_preimage_fails(self, lattice, q2, monkeypatch, construction):
        name = f"fiber_{construction}"
        recover = getattr(covers, name)

        def moved(spec, target):
            fiber = recover(spec, target)
            head = fiber[0][0]
            shifted = TorusPoint.from_coords(spec.curve, head.a + 1e-3, head.b)
            fiber[0] = (shifted,) + fiber[0][1:]
            return fiber

        monkeypatch.setattr(covers, name, moved)
        spec = build_cover(construction, 2, lattice, q2)
        report = galois_verify(spec, samples=3, seed=42)
        for rec in report.samples:
            assert rec.generic and not rec.fiber_match
        assert not report.passed

    @pytest.mark.parametrize("construction", ["A", "B"])
    def test_samples_are_mapped_only_in_batches(self, lattice, q2, monkeypatch, construction):
        # the fiber target is the sample's own row of the orbit's batch
        def scalar_map(spec, point):
            raise AssertionError("galois_verify called the scalar map")

        monkeypatch.setattr(covers, f"map_{construction}", scalar_map)
        spec = build_cover(construction, 2, lattice, q2)
        report = galois_verify(spec, samples=3, seed=42)
        assert all(rec.generic and rec.fiber_match for rec in report.samples)
        assert report.passed

    def test_jobs_do_not_change_results(self, lattice, q2):
        spec = _build("B", 1, q2, lattice)
        seq = galois_verify(spec, samples=4, seed=3, jobs=1)
        par = galois_verify(spec, samples=4, seed=3, jobs=4)
        assert [r.point for r in seq.samples] == [r.point for r in par.samples]
        assert [r.fiber_match for r in seq.samples] == [
            r.fiber_match for r in par.samples
        ]

    def test_images_are_computed_once_per_sample(self, lattice, q2, monkeypatch):
        # the stabilizer and the orbit both come from one array of images
        original = batch.images
        calls = []

        def counted(group, point):
            calls.append(point)
            return original(group, point)

        for module in (batch, covers):
            monkeypatch.setattr(module, "images", counted, raising=False)
        spec = build_cover("A", 2, lattice, q2)
        report = galois_verify(spec, samples=3, seed=42)
        assert calls == [rec.point for rec in report.samples]


def _scalar_match(left, right, tol):
    if len(left) != len(right):
        return False
    remaining = list(right)
    for p in left:
        for k, q in enumerate(remaining):
            if all(a.close_to(b, tol) for a, b in zip(p, q)):
                remaining.pop(k)
                break
        else:
            return False
    return True


@pytest.mark.parametrize("seed", range(6))
def test_match_as_sets_keeps_greedy_semantics(lattice, seed):
    # coordinates on a coarse grid, offset by about tol: chains of close
    # pairs in which a greedy pick can strand a later point.  The offsets
    # are uniform, or whole multiples of tol/4 with a dyadic tol, so that
    # pairs sit exactly at the tolerance edge; grid points at 0 put pairs
    # across the wrap
    rng = random.Random(seed)

    def tup(tol, offset):
        return tuple(
            TorusPoint.from_coords(
                lattice,
                rng.choice((0.0, 0.5)) + offset(tol),
                rng.choice((0.25, 0.75)) + offset(tol),
            )
            for _ in range(2)
        )

    def uniform(tol):
        return rng.uniform(-1.5, 1.5) * tol

    def edge(tol):
        return rng.randint(-6, 6) * tol / 4

    outcomes = set()
    for tol, offset in ((0.02, uniform), (2.0**-6, edge)):
        for _ in range(40):
            right = [tup(tol, offset) for _ in range(12)]
            if rng.random() < 0.5:
                left = [tup(tol, offset) for _ in range(12)]
            else:
                left = rng.sample(right, 12)
            expected = _scalar_match(left, right, tol)
            assert _match_as_sets(coords_array(left), coords_array(right), tol) == expected
            outcomes.add((offset, expected))
    assert len(outcomes) == 4

    # q lies within tol of right 1, 2 and 3, whose keys sort as 3, 1, 2;
    # each left point after the q's has a single partner, so both inputs
    # match only if every q takes the earliest free partner: 1, then 2
    def tuples(coords):
        return [(TorusPoint.from_coords(lattice, a, b),) for a, b in coords]

    tol = 1e-3
    right = tuples([(0.6, 0.1), (0.2, 0.3), (0.2 + 5e-4, 0.3), (0.2 - 5e-4, 0.3)])
    q = (0.2 + 2e-4, 0.3)
    for left in (tuples([q, (0.2 + 1.2e-3, 0.3), (0.2 - 1.2e-3, 0.3), (0.6, 0.1)]),
                 tuples([q, q, (0.2 - 1.2e-3, 0.3), (0.6, 0.1)])):
        assert _scalar_match(left, right, tol)
        assert _match_as_sets(coords_array(left), coords_array(right), tol)


class TestCriterionCheck:
    def test_all_true_for_very_ample_configuration(self, lattice, q2):
        spec = build_cover("A", 2, lattice, q2)
        crit = criterion_check(spec)
        assert crit.order_ok
        assert crit.invariance_ok
        assert crit.basepoint_ok
        assert crit.very_ample
        assert crit.all_ok

    def test_flags_excluded_line_configuration(self, lattice, q2):
        spec = _build("B", 1, q2, lattice)
        crit = criterion_check(spec)
        assert crit.order_ok and crit.invariance_ok and crit.basepoint_ok
        assert not crit.very_ample
        assert not crit.all_ok

    def test_flags_trivial_subgroup(self, lattice):
        spec = _build("A", 1, FiniteSubgroupSpec.trivial(), lattice)
        crit = criterion_check(spec)
        assert not crit.very_ample
        assert not crit.all_ok


class TestQuotientHeightBound:
    def test_bound_is_inclusive(self, q2):
        # Q0 = <1/2, 0> doubles the height: tau = 6i gives Im tau' = 12
        spec = build_cover("A", 1, LatticeTau.from_tau(6j), q2)
        assert spec.quotient.target.tau_reduced.imag == MAX_QUOTIENT_IM_TAU
        with pytest.raises(IllConditioned, match="Im tau'"):
            build_cover("A", 1, LatticeTau.from_tau(6.25j), q2)

    def test_tallest_benchmark_draw_builds(self):
        # Im tau <= 2 and |Q0| <= 5 reach at most Im tau' = 10
        q5 = FiniteSubgroupSpec.parse(("1/5,0",))
        spec = _build("B", 1, q5, LatticeTau.from_tau(2j))
        assert spec.quotient.target.tau_reduced.imag == pytest.approx(10.0)

    def test_tall_source_with_short_quotient_builds(self):
        # Q0 = <0, 1/2> halves the height: only the quotient is evaluated
        q = FiniteSubgroupSpec.parse(("0,1/2",))
        spec = build_cover("A", 1, LatticeTau.from_tau(20j), q)
        assert spec.quotient.target.tau_reduced.imag == pytest.approx(10.0)

