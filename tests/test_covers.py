import itertools
import math
import random
import re
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellcover import (
    ConfigError,
    CoverSpec,
    EllcoverError,
    FiniteSubgroupSpec,
    IllConditioned,
    InvalidPoint,
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
    quotient_lattice,
    reduce_point,
    very_ample_preconditions,
    wp,
)

from ellcover import FiniteActionGroup, batch, covers, groups
from ellcover.covers import (
    EPS_GENERIC,
    MAX_QUOTIENT_D_IM_TAU_B,
    MAX_QUOTIENT_IM_TAU,
)
from ellcover.batch import _wrap_dist_array, coords_array, divisors_to_coords, map_coords
from ellcover.construction import MAX_BASIS_CHANGE, MAX_D, MAX_JOBS
from ellcover.elliptic import EPS_PROJ, EPS_PT
from ellcover.weierstrass import centred_values
from ellcover.errors import InvalidOrder
from ellcover.symfun import projective_spread, sym_fibers, sym_product

from conftest import TAU, isogeny_z, scalar_map


def _build(construction, d, q0spec, lattice):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotVeryAmpleWarning)
        return build_cover(construction, d, lattice, q0spec)


def _match_one(left, right, tol):
    """Whether two lists of point tuples, N x d x 2 coordinates, are equal as multisets within tol.

    Greedily, in the toroidal sup metric: each left tuple in turn takes the
    earliest right tuple within tol that no earlier one took.
    """
    if len(left) != len(right):
        return False
    close = np.all(_wrap_dist_array(left[:, None], right[None]) <= tol, axis=(2, 3))
    free = np.ones(len(right), dtype=bool)
    for row in close:
        partners = np.flatnonzero(row & free)
        if not len(partners):
            return False
        free[partners[0]] = False
    return True


def _verify_sample(spec, coords, index, eps_pt=EPS_PT):
    """One sample of the protocol, alone, over the listed G: the oracle of `galois_verify`'s chunks.

    The sample is its d coordinate pairs on E, and its row is laid out as
    `galois_verify`'s rows are.

    The stabilizer comes from the sample's own |G| images, and the orbit
    size is |G| where it is trivial.  The images are mapped by themselves,
    and their spread is their own `projective_spread`.  The whole fiber is
    recovered from the target alone (`CoverSpec.fiber_array`) and must
    equal the orbit (`FiniteActionGroup.orbit`) as a set.
    """
    point = tuple(TorusPoint(spec.curve, a, b) for a, b in coords)
    found = batch.images(spec.group, [point])
    here = coords_array([point])
    stab = np.flatnonzero(batch.stabilizer_mask(found, here, eps_pt)[0])
    generic = len(stab) == 1
    fiber_match = False
    spread = math.inf
    mapped, failed = spec.map_array(found[0])
    if failed.any():
        generic = False
    else:
        spread = projective_spread(mapped)
    if generic:
        target = mapped[np.all(found[0] == here[0], axis=(1, 2))]
        fiber, (reason,) = spec.fiber_array(target)
        if reason is None:
            orbit = coords_array(spec.group.orbit(point))
            fiber_match = _match_one(fiber[0], orbit, EPS_GENERIC)
        else:
            generic = False
    return {
        "index": index,
        "point": [list(pair) for pair in coords],
        "generic": generic,
        "orbit_size": spec.group.order if len(stab) == 1 else None,
        "image_spread": spread,
        "fiber_match": fiber_match,
    }


#: tau whose quotient by <1/2, 0> has tau' = 0.4 + 1.4i: a term count
#: from min(1, |u|) would give 4 series terms near |u| = 1 and 5 near
#: |q|^(1/2), and at this height a fifth term moves some of the mapped rows
#: by an ulp, so a count that followed the other rows of a stack would show
TERMS_VARY = (0.2, 0.7)

def _bits(records):
    """Records with their spreads as exact bit patterns."""
    return [(r, r["image_spread"].hex()) for r in records]


def _verdicts(records):
    """Records with each spread read as its verdict: below EPS_PROJ, and finite.

    `galois_verify` spreads a sample and its images under L's generators
    on E/Q0, and the oracle `_verify_sample` its |G| images on E, each
    mapped through the isogeny, so their spreads differ.
    """
    return [
        (r["index"], r["point"], r["generic"], r["orbit_size"], r["fiber_match"])
        + (r["image_spread"] < EPS_PROJ, math.isfinite(r["image_spread"]))
        for r in records
    ]


def _rows_per_sample(spec):
    """How many rows `galois_verify` maps per sample: y and its images under L's generators."""
    return 1 + len(spec.group.linear.linear_generators)


def _linear_generators(spec):
    """L's generators, packed as `galois_verify` packs them for `_verify_chunk`."""
    return batch.pack(*spec.group.linear.integer_generators)


def _with_group(spec, group):
    """The cover `spec` with its deck group replaced by `group`: a negative control."""
    return CoverSpec(**{**{name: getattr(spec, name) for name in CoverSpec._fields}, "group": group})


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
        assert spec.quotient.subgroup.order == 2

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
        # the root of the form is t = wp - e2 on E/Q0
        spec = _build("A", 1, q2, lattice)
        x = _point(spec, [(0.23, 0.37)])
        image = spec.map(x)
        target = spec.quotient.target
        w = wp(reduce_point(complex(isogeny_z(spec, x[0])), target)).value - target.e2
        assert abs(image.coords[0] + w * image.coords[1]) < 1e-9 * (1 + abs(w))

    def test_maps_agree_for_dimension_one(self, lattice, q3):
        a = _build("A", 1, q3, lattice)
        b = _build("B", 1, q3, lattice)
        for coords in ((0.23, 0.37), (0.61, 0.18)):
            x = _point(a, [coords])
            assert a.map(x).chordal_dist(b.map(x)) <= 1e-7

    def test_map_a_invariant_under_group(self, lattice, q2):
        spec = build_cover("A", 2, lattice, q2)
        x = _point(spec, [(0.137, 0.261), (0.389, 0.731)])
        base = spec.map(x)
        for g in spec.group.elements[::5]:
            assert spec.map(g.apply(x)).chordal_dist(base) <= 1e-7

    def test_map_b_invariant_under_group(self, lattice, q2):
        spec = build_cover("B", 2, lattice, q2)
        x = _point(spec, [(0.137, 0.261), (0.389, 0.731)])
        base = spec.map(x)
        for g in spec.group.elements[::5]:
            assert spec.map(g.apply(x)).chordal_dist(base) <= 1e-7

    def test_map_separates_orbits(self, lattice, q2):
        spec = build_cover("A", 2, lattice, q2)
        x = _point(spec, [(0.137, 0.261), (0.389, 0.731)])
        y = _point(spec, [(0.211, 0.653), (0.449, 0.118)])
        assert spec.map(x).chordal_dist(spec.map(y)) > 1e-3


class TestMapArray:
    """Batched maps over many tuples against `scalar_map`, the map of one tuple at 40 digits."""

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
            rows, failed = spec.map_array(coords_array(points))
        assert rows.shape == (len(points), d + 1)
        assert not failed.any()
        for row, p in zip(rows, points):
            assert ProjectivePoint(tuple(row)).chordal_dist(scalar_map(spec, p)) <= 1e-13

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
        # both maps are total: every special row maps, next to a generic one
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
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, failed = spec.map_array(coords_array(points))
        assert not failed.any()
        for row, point in zip(rows, points):
            assert ProjectivePoint(tuple(row)).chordal_dist(scalar_map(spec, point)) <= 1e-13
        assert spec.map(special).coords == tuple(rows[1].tolist())

    @pytest.mark.parametrize("construction", ["A", "B"])
    @pytest.mark.parametrize("length", [1, 3])
    def test_tuples_of_the_wrong_length_are_rejected(self, lattice, q2, construction, length):
        spec = _build(construction, 2, q2, lattice)
        point = _point(spec, GENERIC[:length])
        with pytest.raises(InvalidOrder, match=f"{length} components, expected 2"):
            spec.map_array(coords_array([point]))
        with pytest.raises(InvalidOrder):
            spec.map(point)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_permuted_images_map_to_equal_rows(self, lattice, q3, d):
        # each row's factors are sorted, so images that permute the same
        # coordinates give equal rows, which projective_spread drops
        spec = _build("A", d, q3, lattice)
        x = _point(spec, (GENERIC + [(0.83, 0.09)])[:d])
        orbit = spec.group.orbit(x)
        rows, _ = spec.map_array(coords_array(orbit))
        assert len({tuple(row) for row in rows.tolist()}) <= len(orbit) // math.factorial(d)

    def test_divisor_rows_ignore_point_order(self, lattice, q2):
        # the batched B rows sort each divisor's points, as divisor_to_coords
        # does, so reordered divisors give equal rows
        spec = _build("B", 3, q2, lattice)
        ys = map_coords(spec.quotient, coords_array([_point(spec, GENERIC)]))[0]
        last = -(ys.sum(axis=0)) % 1.0
        divisor = np.concatenate([ys, last[None]])
        reordered = np.array([divisor, divisor[::-1], divisor[[2, 0, 3, 1]]])
        rows, _ = divisors_to_coords(reordered, spec.basis)
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
        # and two distinct roots t 5e-7 apart, relative: inside EPS_GENERIC,
        # so root clustering must have merged them into a double root
        (y,) = map_coords(spec.quotient, coords_array([x[:1]]))[0].tolist()
        w, _ = centred_values(TorusPoint(spec.quotient.target, *y))
        v = w + 5e-7 * abs(w)
        near = ProjectivePoint.normalize([w * v, -(w + v), 1.0])
        for target in (spec.map(x), near):
            with pytest.raises(NonGenericTarget, match="repeated roots"):
                fiber_A(spec, target)

    def test_far_root_is_at_infinity(self, lattice, q2):
        # E/Q0 is held at unit scale, so a root with |t| >= 1/EPS_GENERIC
        # counts as the root at infinity
        spec = build_cover("A", 2, lattice, q2)
        assert abs(spec.quotient.target.scale - 1) < 1e-15
        for t, generic in ((0.5 / EPS_GENERIC, True), (2 / EPS_GENERIC, False), (-2j / EPS_GENERIC, False)):
            rows, _ = sym_product(np.array([[t, 0.3 + 0.1j]], dtype=complex), np.ones((1, 2), dtype=complex))
            _, (reason,) = spec.fiber_array(rows)
            assert reason == (None if generic else "root at infinity is a branch value of wp")

    def test_needs_construction_a(self, lattice, q2):
        spec = build_cover("B", 2, lattice, q2)
        x = _point(spec, GENERIC[:2])
        with pytest.raises(ConfigError, match="fiber_A needs a construction-A cover"):
            fiber_A(spec, spec.map(x))


def test_large_quotient_roots_are_finite_at_unit_scale():
    # E/E[316] is held at unit scale: at the isogeny's scale 1/316, t grew
    # as 316^2 / z'^2, and the bound |t| >= 1/EPS_GENERIC called the roots
    # of 5 of these 20 samples infinite
    q0 = FiniteSubgroupSpec.parse(("1/316,0", "0,1/316"))
    spec = _build("A", 1, q0, LatticeTau.from_tau(TAU))
    report = galois_verify(spec, samples=20, seed=42)
    assert all(r["generic"] and r["fiber_match"] for r in report.samples) and report.passed
    targets, failed = spec.map_array(np.array([r["point"] for r in report.samples]))
    assert not failed.any()
    _, reasons = covers._quotient_points_A(spec, targets)
    assert reasons == [None] * 20
    roots = [t for row in sym_fibers(targets) for t, _ in row]
    assert max(abs(t) for t in roots) * EPS_GENERIC < 1e-3


@pytest.mark.parametrize("d, sample, top", [(8, 5, 7.2e-11), (10, 4, 7.1e-11), (12, 3, 1.1e-13), (16, 2, 5.3e-17)])
def test_large_finite_roots_are_not_at_infinity(lattice, q2, d, sample, top):
    # sample `sample` of the draws of Random(3) has |t| up to 9.1e3, and its
    # form's top coefficient is `top` of the largest: a cut at EPS_NUM of the
    # largest called a root infinite at d = 8-12, and two or three roots one
    # repeated root at infinity at d = 16.  The roots are judged by |t|, so
    # every target is generic and its roots are the t(y_i).  The map and
    # the recovery read only d and E/Q0, so d may pass MAX_D here
    quotient = build_cover("A", 1, lattice, q2).quotient
    cover = SimpleNamespace(d=d, quotient=quotient)
    ys = map_coords(quotient, covers._draw(random.Random(3), 20, d, 2))
    targets, _ = covers.map_A_array(cover, ys)
    assert abs(targets[sample, -1]) / np.abs(targets[sample]).max() == pytest.approx(top, rel=0.05)
    _, reasons = covers._quotient_points_A(cover, targets)
    assert reasons == [None] * 20
    t, _ = batch.t_values(quotient.target, ys[sample, :, 0], ys[sample, :, 1])
    assert np.abs(t).max() == pytest.approx(9.1e3, rel=0.01)
    roots = sym_fibers(targets[sample : sample + 1])[0]
    assert [m for _, m in roots] == [1] * d
    for root, value in zip(*(sorted(z, key=lambda z: (z.real, z.imag)) for z in ([r for r, _ in roots], t.tolist()))):
        assert abs(root - value) <= 1e-9 * abs(value)


#: subgroups that FiniteSubgroupSpec admits with |Q0| in the thousands: at
#: the isogeny's scale, t grew as |Q0| and 11 of these 30 cases (A at d = 2
#: and 3, B at d = 3 on E[200] and E[316]) missed generic samples or matches
LARGE_Q0 = [("1/64,0", "0,1/64"), ("1/100,0", "0,1/100"), ("1/200,0", "0,1/200"), ("1/316,0", "0,1/316"), ("377/997,1/997",)]


@pytest.mark.parametrize("construction", ["A", "B"])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("generators", LARGE_Q0, ids=["E64", "E100", "E200", "E316", "377-997"])
def test_large_quotients_verify_with_every_sample_generic(construction, d, generators):
    spec = _build(construction, d, FiniteSubgroupSpec.parse(generators), LatticeTau.from_tau(TAU))
    report = galois_verify(spec, samples=20, seed=42)
    assert all(r["generic"] and r["fiber_match"] for r in report.samples) and report.passed


GENERIC = [(0.137, 0.261), (0.389, 0.731), (0.613, 0.447)]


class TestFiberB:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_fiber_matches_orbit(self, lattice, q2, d):
        spec = _build("B", d, q2, lattice)
        x = _point(spec, GENERIC[:d])
        fiber = fiber_B(spec, spec.map(x))
        assert len(fiber) == spec.group.order
        assert _match_one(coords_array(fiber), coords_array(spec.group.orbit(x)), 1e-6)

    def test_repeated_divisor_point_rejected(self, lattice, q2):
        spec = build_cover("B", 2, lattice, q2)
        # both slots on the same quotient class: y_1 = y_2 downstairs
        x = _point(spec, [(0.2, 0.3), (0.7, 0.3)])
        with pytest.raises(NonGenericTarget):
            fiber_B(spec, spec.map(x))

    def test_needs_construction_b(self, lattice, q2):
        spec = build_cover("A", 2, lattice, q2)
        x = _point(spec, GENERIC[:2])
        with pytest.raises(ConfigError, match="fiber_B needs a construction-B cover"):
            fiber_B(spec, spec.map(x))


class TestGaloisVerify:
    def test_construction_a_passes(self, lattice, q2):
        spec = build_cover("A", 2, lattice, q2)
        report = galois_verify(spec, samples=5, seed=42)
        assert report.passed
        assert len(report.samples) == 5
        for rec in report.samples:
            assert rec["generic"]
            assert rec["orbit_size"] == 32
            assert rec["image_spread"] < 1e-7
            assert rec["fiber_match"]

    def test_construction_b_passes(self, lattice, q2):
        spec = build_cover("B", 2, lattice, q2)
        report = galois_verify(spec, samples=5, seed=42)
        assert report.passed
        for rec in report.samples:
            assert rec["generic"]
            assert rec["orbit_size"] == 24
            assert rec["image_spread"] < 1e-7
            assert rec["fiber_match"]

    @pytest.mark.parametrize("construction", ["A", "B"])
    def test_sample_points_are_the_seeded_tuples(self, lattice, q2, construction):
        # sample k's d points, bit for bit, are the coordinates of
        # TorusPoint.from_coords of draws 2dk ... 2d(k+1) - 1 of
        # Random(seed), point by point
        spec = _build(construction, 2, q2, lattice)
        rng = random.Random(9)
        drawn = [
            tuple(TorusPoint.from_coords(spec.curve, rng.random(), rng.random()) for _ in range(2))
            for _ in range(6)
        ]
        points = [rec["point"] for rec in galois_verify(spec, samples=6, seed=9).samples]
        assert points == [[[p.a, p.b] for p in t] for t in drawn]
        assert np.array(points).tobytes() == coords_array(drawn).tobytes()

    def test_seed_determinism(self, lattice, q2):
        spec = build_cover("A", 1, lattice, q2)
        r1 = galois_verify(spec, samples=4, seed=7)
        r2 = galois_verify(spec, samples=4, seed=7)
        assert [rec["point"] for rec in r1.samples] == [rec["point"] for rec in r2.samples]
        assert [rec["image_spread"] for rec in r1.samples] == [
            rec["image_spread"] for rec in r2.samples
        ]

    def test_different_seeds_draw_different_points(self, lattice, q2):
        spec = build_cover("A", 1, lattice, q2)
        r1 = galois_verify(spec, samples=2, seed=1)
        r2 = galois_verify(spec, samples=2, seed=2)
        assert r1.samples[0]["point"] != r2.samples[0]["point"]

    def test_recovered_divisor_is_polished(self, lattice, q3):
        # the lifted roots of the norm polynomial leave this sample's divisor
        # 1.2e-4 to 1.7e-4 off in torus coordinates, so its unpolished fiber
        # missed the orbit: a false FAIL
        spec = build_cover("B", 3, lattice, q3)
        report = galois_verify(spec, samples=1, seed=906133)
        (rec,) = report.samples
        assert rec["generic"] and rec["orbit_size"] == 648
        assert rec["fiber_match"]
        assert report.passed

    @pytest.mark.parametrize("construction, order", [("A", 6144), ("B", 1920)])
    def test_dimension_four(self, lattice, q2, construction, order):
        spec = build_cover(construction, 4, lattice, q2)
        report = galois_verify(spec, samples=1, seed=42)
        (rec,) = report.samples
        assert rec["generic"] and rec["orbit_size"] == order
        assert report.passed

    @pytest.mark.parametrize("construction", ["A", "B"])
    def test_moved_preimage_fails(self, lattice, q2, monkeypatch, construction):
        # the recovered preimage of every target moved by 1e-3 on E/Q0
        name = f"_quotient_points_{construction}"
        recover = getattr(covers, name)

        def moved(spec, targets):
            points, reasons = recover(spec, targets)
            points[:, 0, 0, 0] = (points[:, 0, 0, 0] + 1e-3) % 1.0
            return points, reasons

        monkeypatch.setattr(covers, name, moved)
        spec = build_cover(construction, 2, lattice, q2)
        report = galois_verify(spec, samples=3, seed=42)
        for rec in report.samples:
            assert rec["generic"] and not rec["fiber_match"]
        assert not report.passed

    @pytest.mark.parametrize("construction", ["A", "B"])
    def test_samples_are_mapped_only_in_batches(self, lattice, q2, monkeypatch, construction):
        # the fiber target is the sample's own row of the orbit's batch, not
        # a map of the sample's point alone
        def one_point(spec, point):
            raise AssertionError("galois_verify mapped a single point")

        monkeypatch.setattr(CoverSpec, "map", one_point)
        spec = build_cover(construction, 2, lattice, q2)
        report = galois_verify(spec, samples=3, seed=42)
        assert all(rec["generic"] and rec["fiber_match"] for rec in report.samples)
        assert report.passed

    def test_jobs_do_not_change_results(self, monkeypatch):
        # whole records, spread bits included, in the default chunks and
        # split into four chunks of 3 samples shared out to two threads; at
        # d = 3 each chunk solves its own distinct divisors
        lattice = LatticeTau.from_tau(complex(*TERMS_VARY))
        for d, q0 in ((1, "1/2,0"), (3, "1/3,0")):
            spec = _build("B", d, FiniteSubgroupSpec.parse((q0,)), lattice)
            seq = galois_verify(spec, samples=10, seed=3, jobs=1)
            with monkeypatch.context() as patch:
                patch.setattr(covers, "_CHUNK_ROWS", 3 * _rows_per_sample(spec))
                par = galois_verify(spec, samples=10, seed=3, jobs=2)
            assert _bits(seq.samples) == _bits(par.samples)
            assert seq.passed == par.passed

    def test_images_are_computed_once_per_sample(self, lattice, q2, monkeypatch):
        # the map reads one array of images under L's 3 generators, two
        # negations and a transposition, computed for the samples' images
        # on E/Q0, each once, in order; nothing lists L
        original = covers.move
        calls = []

        def counted(packed, coords):
            assert packed[0].tolist() == [list(map(list, m)) for m in spec.group.linear.linear_generators]
            assert not packed[1].any()
            calls.extend(coords.tolist())
            return original(packed, coords)

        monkeypatch.setattr(covers, "move", counted)
        spec = build_cover("A", 2, lattice, q2)
        report = galois_verify(spec, samples=3, seed=42)
        points = np.array([rec["point"] for rec in report.samples])
        assert calls == map_coords(spec.quotient, points).tolist()
        assert len(spec.group.linear.linear_generators) == 3 and spec.decomposed
        assert "matrices" not in vars(spec.group) and "matrices" not in vars(spec.group.linear)


ALONE_SPECS = [
    (construction, d, tau, q0)
    # the second quotient sits at the corner of the fundamental domain,
    # where the lattice takes the most series terms
    for tau, q0 in ((TERMS_VARY, "1/2,0"), ((0.5, 0.8660254), "1/3,1/3"))
    for d in (1, 2, 3)
    for construction in ("A", "B")
]


@pytest.mark.parametrize("construction, d, tau, q0", ALONE_SPECS)
def test_map_rows_do_not_depend_on_the_stack(construction, d, tau, q0):
    # each row of a stack of seeded tuples, and its failure mark, equals
    # the same tuple mapped alone, bit for bit
    lattice = LatticeTau.from_tau(complex(*tau))
    spec = _build(construction, d, FiniteSubgroupSpec.parse((q0,)), lattice)
    rng = random.Random(5)
    coords = np.array([[(rng.random(), rng.random()) for _ in range(d)] for _ in range(24)])
    rows, failed = spec.map_array(coords)
    for k in range(len(coords)):
        row, fail = spec.map_array(coords[k : k + 1])
        assert row[0].tobytes() == rows[k].tobytes()
        assert fail[0] == failed[k]


def _divisor_stack(d, rng):
    """Divisors of n = d+1 points on E/Q0 (coordinates, N x n x 2), most of them repeated.

    Every order of one generic divisor, exact copies of it, and a divisor
    with a repeated point, one with copies of the origin (also written with
    -0.0) and one with a half period, each in two orders; from d = 3 on,
    n points 1.01e-9 apart, one step more than EPS_PT, which leave the
    system degenerate.
    """

    def closed(points):
        points = np.array(points, dtype=float).reshape(-1, 2)
        return np.concatenate([points, [-points.sum(axis=0) % 1.0]])

    ys = [(rng.random(), rng.random()) for _ in range(d)]
    generic = closed(ys)
    special = [
        closed([ys[0], *ys[: d - 1]]) if d > 1 else np.array([[0.5, 0.0], [0.5, 0.0]]),
        closed([(0.0, 0.0), (0.0, 0.0), *ys[: d - 2]]) if d > 1 else np.zeros((2, 2)),
        closed([(0.5, 0.5), *ys[: d - 1]]),
    ]
    special.append(np.where(special[1] == 0, -0.0, special[1]))
    if d >= 3:
        special.append(np.array(ys[0]) + np.array([1.01e-9, 0.0]) * np.arange(d + 1)[:, None])
    stack = [generic[list(order)] for order in itertools.permutations(range(d + 1))]
    stack += [generic, generic] + special + [s[::-1] for s in special]
    return np.array(stack)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_repeated_divisors_are_solved_once(d, monkeypatch):
    # each row and mask entry equals its divisor solved alone, bit for bit,
    # and the solve sees each distinct sorted divisor once
    spec = _build("B", d, FiniteSubgroupSpec.parse(("1/2,0",)), LatticeTau.from_tau(complex(*TERMS_VARY)))
    stack = _divisor_stack(d, random.Random(7))
    solved = []
    original = batch._solve_sorted

    def spy(pts, basis):
        solved.extend(row.tobytes() for row in pts)
        return original(pts, basis)

    monkeypatch.setattr(batch, "_solve_sorted", spy)
    rows, failed = divisors_to_coords(stack, spec.basis)
    distinct = {np.array(sorted(map(tuple, div.tolist()))).tobytes() for div in stack}
    assert len(solved) == len(set(solved)) and set(solved) == distinct
    assert len(distinct) == (6 if d >= 3 else 5)
    for k in range(len(stack)):
        row, fail = divisors_to_coords(stack[k : k + 1], spec.basis)
        assert row[0].tobytes() == rows[k].tobytes()
        assert fail[0] == failed[k]
    # the degenerate divisor, in both orders, is the last special one
    assert np.flatnonzero(failed).tolist() == ([len(stack) - 6, len(stack) - 1] if d >= 3 else [])
    # a stack of one distinct divisor: every order of the generic one
    orders = stack[: math.factorial(d + 1)]
    alone, alone_failed = divisors_to_coords(orders[:1], spec.basis)
    rows, failed = divisors_to_coords(orders, spec.basis)
    assert all(row.tobytes() == alone[0].tobytes() for row in rows)
    assert failed.tolist() == alone_failed.tolist() * len(orders)
    rows, failed = divisors_to_coords(np.empty((0, d + 1, 2)), spec.basis)
    assert rows.shape == (0, d + 1) and failed.shape == (0,)


ORACLE_SPECS = [
    (construction, d, TERMS_VARY, ("1/2,0",), samples)
    for d, samples in ((1, 40), (2, 16), (3, 4))
    for construction in ("A", "B")
] + [
    # reduced Im tau' = 9 on the quotient: one or two series terms per sample
    ("A", 1, (0.17, 3.0), ("1/3,0",), 12),
    ("B", 1, (0.17, 3.0), ("1/3,0",), 12),
]


@pytest.mark.parametrize("construction, d, tau, q0, samples", ORACLE_SPECS)
def test_chunks_match_the_one_sample_oracle(monkeypatch, construction, d, tau, q0, samples):
    # chunks of four samples, the last one partial, against each sample alone
    lattice = LatticeTau.from_tau(complex(*tau))
    spec = _build(construction, d, FiniteSubgroupSpec.parse(q0), lattice)
    monkeypatch.setattr(covers, "_CHUNK_ROWS", 4 * _rows_per_sample(spec))
    report = galois_verify(spec, samples=samples, seed=11)
    oracle = [_verify_sample(spec, r["point"], r["index"]) for r in report.samples]
    assert _verdicts(report.samples) == _verdicts(oracle)


@pytest.mark.parametrize("construction", ["A", "B"])
def test_mixed_chunk_matches_the_one_sample_oracle(lattice, q2, construction):
    # generic samples around a 2-torsion point (stabilizer 4) and a diagonal
    # 6-torsion point, whose B divisor is one point three times: it maps,
    # but its stabilizer is not trivial
    spec = _build(construction, 2, q2, lattice)
    points = [
        _point(spec, GENERIC[:2]),
        _point(spec, [(0.5, 0.0), (0.0, 0.5)]),
        _point(spec, GENERIC[1:]),
        _point(spec, [(1 / 6, 0.0), (1 / 6, 0.0)]),
        _point(spec, [(0.83, 0.09), (0.25, 0.64)]),
    ]
    coords = coords_array(points)
    records = covers._verify_chunk(spec, _linear_generators(spec), coords, 0, EPS_PT)
    assert _verdicts(records) == _verdicts(_verify_sample(spec, p, k) for k, p in enumerate(coords.tolist()))
    assert [r["generic"] for r in records] == [True, False, True, False, True]
    assert records[1]["orbit_size"] is None and records[0]["orbit_size"] == spec.group.order
    assert math.isfinite(records[3]["image_spread"])


def _near_coincidences(construction, d, rng, count):
    """Tuples y on E/Q0, count x d x 2, most of them within 0-3e-9 of a coincidence of their points.

    For each tuple one of: y_j = y_i, y_j = -y_i, a 2-torsion y_i, for B
    y_i = -sum y (a point of its divisor twice), or none; then the point
    set moves by up to 3e-9 in the sup norm, either way.
    """
    ys = np.array([[[rng.random(), rng.random()] for _ in range(d)] for _ in range(count)])
    for y in ys:
        i, j = rng.sample(range(d), 2) if d > 1 else (0, 0)
        kind = rng.choice(["equal", "negative", "torsion", "divisor", "none"])
        if kind == "equal" and d > 1:
            y[j] = y[i]
        elif kind == "negative" and d > 1:
            y[j] = -y[i] % 1.0
        elif kind == "torsion":
            y[j] = rng.choice([(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)])
        elif kind == "divisor" and construction == "B":
            # 2 y_j = -sum of the others, up to a half period
            y[j] = (-(y.sum(axis=0) - y[j]) / 2 + rng.choice([(0.0, 0.0), (0.5, 0.5)])) % 1.0
        size = rng.uniform(0.0, 3e-9)
        y[j] += rng.sample([rng.choice([-size, size]), rng.uniform(-size, size)], 2)
    return ys % 1.0


@pytest.mark.parametrize("construction", ["A", "B"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_closed_form_stabilizer_agrees_with_the_listed_one(lattice, q2, construction, d):
    # the protocol's trivial stabilizer, its points pairwise more than
    # EPS_PT apart, against the stabilizer over the listed L: the orbit
    # size is |G| exactly where only the identity fixes y.  The samples are
    # recovered too, though B's divisor may hold a point 1e-9 from the origin
    spec = _build(construction, d, q2, lattice)
    ys = _near_coincidences(construction, d, random.Random(d), 400)
    coords = ys * [0.5, 1.0]  # phi(s, t) = (2s, t) for Q0 = <1/2, 0>
    assert map_coords(spec.quotient, coords).tobytes() == ys.tobytes()
    records = covers._verify_chunk(spec, _linear_generators(spec), coords, 0, EPS_PT)
    listed = batch.stabilizer_mask(batch.move(spec.group.linear._packed, ys), ys, EPS_PT).sum(axis=1) == 1
    assert [r["orbit_size"] is not None for r in records] == listed.tolist()
    assert min(listed.sum(), (~listed).sum()) > (20 if d > 1 else 10)
    assert all(r["orbit_size"] == spec.group.order for r in records if r["orbit_size"] is not None)


#: y_2 = -y_1 + (eps, -eps/2) on E/Q0 for B d=2: the divisor's third point,
#: -(y_1 + y_2), lies about eps from the origin.  t there is past what
#: `wp_inverse_array` inverts from eps = 3e-7 to 3e-9, where the recovery
#: raised NoConvergence and ended the run; at the other eps it recovers
NEAR_ORIGIN_RECOVERED = (1e-3, 1e-5, 3e-6, 1e-9, 3e-10, 1e-12, 0.0)
NEAR_ORIGIN_LOST = (3e-7, 1e-7, 3e-8, 1e-8, 3e-9)


def _near_origin(eps):
    y1 = np.array([0.0426383, 0.2937942])
    return np.array([y1, (-y1 + [eps, -eps / 2]) % 1.0])


def test_divisor_point_near_the_origin_is_non_generic_not_an_error(lattice, q2):
    spec = _build("B", 2, q2, lattice)
    epsilons = NEAR_ORIGIN_RECOVERED + NEAR_ORIGIN_LOST + (1e-6,)
    ys = np.array([_near_origin(eps) for eps in epsilons])
    targets, failed = spec.map_quotient(ys)
    assert not failed.any()
    points, reasons = covers._quotient_points(spec, targets)
    lost = "divisor point too near the origin to invert t"
    assert reasons[len(NEAR_ORIGIN_RECOVERED) : -1] == [lost] * len(NEAR_ORIGIN_LOST)
    assert np.isnan(points[[r is not None for r in reasons]]).all()
    for y, got, reason in zip(ys, points, reasons):
        if reason is None:
            # the divisor y_1, y_2, -(y_1 + y_2), as a set
            divisor = np.concatenate([y, [-y.sum(axis=0) % 1.0]])
            assert np.all(_wrap_dist_array(got[:, 0, None], divisor[None]) <= EPS_GENERIC, axis=2).any(axis=1).all()
    assert reasons[: len(NEAR_ORIGIN_RECOVERED)] == [None] * len(NEAR_ORIGIN_RECOVERED)
    # each row is its own target's, bit for bit, when the stack holds a lost one
    for k, target in enumerate(targets):
        alone, (reason,) = covers._quotient_points(spec, target[None])
        assert reason == reasons[k] and alone.tobytes() == points[k : k + 1].tobytes()
    # a verification sample there is excluded, and the run goes on
    coords = ys[len(NEAR_ORIGIN_RECOVERED) - 2 :] * [0.5, 1.0]  # phi(s, t) = (2s, t) for Q0 = <1/2, 0>
    records = covers._verify_chunk(spec, _linear_generators(spec), coords, 0, EPS_PT)
    assert [r["generic"] for r in records][:7] == [True, True] + [False] * len(NEAR_ORIGIN_LOST)


#: point tuples (first d points) whose targets are special under Q0 = <1/2, 0>
SPECIAL_TARGETS = {
    # y_1 = 0 on E/Q0: a root at infinity for A; for B, d >= 2, the origin
    # in the divisor, a section of pole order n - 1
    "origin": [(0.5, 0.0), (0.31, 0.72), (0.13, 0.45)],
    # y_1 a half period of E/Q0: a branch value for A; for B, d >= 2, a
    # 2-torsion root of the norm polynomial
    "half period": [(0.25, 0.0), (0.31, 0.72), (0.13, 0.45)],
    # y_1 = y_2 for d >= 2: a repeated root for A, a repeated point for B
    "repeated": [(0.31, 0.72), (0.81, 0.72), (0.13, 0.45)],
}

#: the reason each special target is not generic, by construction and d; None: generic
SPECIAL_REASONS = {
    ("A", "origin"): "root at infinity",
    ("A", "half period"): "root ",
    ("A", "repeated"): "repeated roots",
    ("B", "origin"): "repeated point",
    ("B", "half period"): "repeated point",
    ("B", "repeated"): "repeated point",
}


@pytest.mark.parametrize("construction", ["A", "B"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_stacked_fibers_match_the_scalar_oracle(lattice, q2, construction, d):
    # each generic row is the orbit of its own point, the true fiber, within
    # 1e-9; B at d = 1 always splits a double root of its norm polynomial
    # between y and -y.  Each row equals the same target recovered alone,
    # bit for bit, reason included
    spec = _build(construction, d, q2, lattice)
    rng = random.Random(d)
    points = [[(rng.random(), rng.random()) for _ in range(d)] for _ in range(6)]
    points += [coords[:d] for coords in SPECIAL_TARGETS.values()]
    targets, failed = spec.map_array(np.array(points))
    assert not failed.any()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fibers, reasons = spec.fiber_array(targets)
    assert fibers.shape == (len(points), spec.group.order, d, 2)
    assert reasons[:6] == [None] * 6
    for k, point in enumerate(points):
        alone, (reason,) = spec.fiber_array(targets[k : k + 1])
        assert reason == reasons[k] and alone[0].tobytes() == fibers[k].tobytes()
        if reason is not None:
            assert np.isnan(fibers[k]).all()
            continue
        orbit = coords_array(spec.group.orbit(_point(spec, point)))
        assert _match_one(fibers[k], orbit, 1e-9)
    special = reasons[6:]
    for name, reason in zip(SPECIAL_TARGETS, special):
        # at d = 1, y_1 = y_2 is no condition, and B's divisor {y, -y} repeats
        # y only where y = -y
        generic = d == 1 and name == "repeated" or d > 1 and construction == "B" and name != "repeated"
        if generic:
            assert reason is None
        else:
            assert reason.startswith(SPECIAL_REASONS[construction, name])


def test_origin_and_two_torsion_enter_the_divisor(lattice, q2):
    # the B d=2 special targets above: the origin once, then a half period
    spec = _build("B", 2, q2, lattice)
    targets, _ = spec.map_array(np.array([c[:2] for c in list(SPECIAL_TARGETS.values())[:2]]))
    points, mults = batch.section_zeros_array(targets, spec.basis)
    assert mults.tolist() == [[1, 1, 1], [1, 1, 1]]
    assert points[0, -1].tolist() == [0.0, 0.0]
    doubled = (2.0 * points[1]) % 1.0
    assert np.any(np.all(np.minimum(doubled, 1.0 - doubled) <= 1e-9, axis=1))


#: the <1/n, 0> family at the default tau, and a taller quotient
FAMILY = [
    (construction, d, TAU, n)
    for construction in ("A", "B")
    for d, ns in ((1, range(2, 10)), (2, range(2, 6)))
    for n in ns
] + [("B", 1, complex(0.17, 2.0), 5)]


@pytest.mark.parametrize("construction, d, tau, n", FAMILY)
def test_family_matches_the_scalar_oracle(construction, d, tau, n):
    # flags, sizes and spread verdicts against each sample verified alone
    # by the full protocol, and every generic sample's fiber matches its orbit
    spec = _build(construction, d, FiniteSubgroupSpec.parse((f"1/{n},0",)), LatticeTau.from_tau(tau))
    report = galois_verify(spec, samples=6, seed=3)
    oracle = [_verify_sample(spec, r["point"], r["index"]) for r in report.samples]
    assert _verdicts(report.samples) == _verdicts(oracle)
    assert all(r["fiber_match"] for r in report.samples if r["generic"])


def _assert_every_fiber_recovered(report):
    """At least 18 of 20 samples generic, and no generic sample misses its fiber match."""
    generic = [r for r in report.samples if r["generic"]]
    assert len(report.samples) == 20 and len(generic) >= 18
    assert [r["index"] for r in generic if not r["fiber_match"]] == []
    assert report.passed


@pytest.mark.parametrize(
    "d, height",
    [(2, h) for h in (6, 8, 10, MAX_QUOTIENT_IM_TAU)] + [(3, h) for h in (6, 7, MAX_QUOTIENT_D_IM_TAU_B / 3)],
)
def test_tall_quotients_recover_every_fiber(q2, d, height):
    # tau = 0.17 + i h/2, whose quotient by <1/2, 0> has Im tau' = h, up to
    # the bound of B at this d
    spec = _build("B", d, q2, LatticeTau.from_tau(complex(0.17, height / 2)))
    assert spec.quotient.target.tau_reduced.imag == pytest.approx(height)
    _assert_every_fiber_recovered(galois_verify(spec, samples=20, seed=5))


#: the paper's family at the default tau, as (d, generators, largest reduced
#: Im tau'): <1/n, 0> at d = 2, whose quotient has Im tau' = 1.1 n, up to 11;
#: balanced subgroups <k/n, 1/n> up to |Q0| = 4099, whose quotients stay at
#: Im tau' <= 1.1 (0.89, 0.88 and 0.93 at n = 1024, 4099 and 128); and at
#: d = 1 and 2, E[2] (Im tau' = 1.1), <0, 1/2> (1.69) and the oblique
#: <1/3, 1/3> (1.14), which take 2-7 ms each to build and verify
PAPER_FAMILY = (
    [pytest.param(2, f"1/{n},0", 1.1 * n, id=str(n)) for n in range(2, 11)]
    + [
        pytest.param(d, generator, 1.1, id=f"d{d}-{generator}")
        for d, generator in [
            (1, "2/5,1/5"), (1, "4/17,1/17"), (1, "24/31,1/31"), (1, "27/32,1/64"), (1, "57/127,1/127"),
            (1, "239/257,1/257"), (1, "800/1024,1/1024"), (1, "1324/4099,1/4099"),
            (2, "2/5,1/5"), (2, "4/17,1/17"), (2, "70/128,1/128"), (2, "58/129,1/129"),
        ]
    ]
    + [
        pytest.param(d, generators, height, id=f"d{d}-{generators.replace(' ', '+')}")
        for d in (1, 2)
        for generators, height in [("1/2,0 0,1/2", 1.1), ("0,1/2", 1.7), ("1/3,1/3", 1.14)]
    ]
)


@pytest.mark.parametrize("construction", ["A", "B"])
@pytest.mark.parametrize("d, generators, height", PAPER_FAMILY)
def test_paper_family_recovers_every_fiber(construction, d, generators, height):
    spec = _build(construction, d, FiniteSubgroupSpec.parse(generators.split()), LatticeTau.from_tau(TAU))
    assert spec.quotient.target.tau_reduced.imag <= height * (1 + 1e-12)
    _assert_every_fiber_recovered(galois_verify(spec, samples=20, seed=3))


@st.composite
def _covers(draw):
    """(construction, d, tau, generators): d up to MAX_D, tau in the fundamental domain, Q0 cyclic of order <= 10 or E[2]."""
    x = draw(st.floats(-0.5, 0.5))
    y = draw(st.floats(math.sqrt(1 - x * x), 3.0))
    n = draw(st.integers(1, 10))
    a, b = draw(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda ab: math.gcd(*ab, n) == 1)
    )
    generators = draw(st.sampled_from([(f"{a}/{n},{b}/{n}",), ("1/2,0", "0,1/2")]))
    return draw(st.sampled_from("AB")), draw(st.integers(1, MAX_D)), complex(x, y), generators


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_covers())
def test_every_drawn_cover_verifies_or_is_refused(case):
    # a cover either passes with a generic sample and the criterion's three
    # checks, or build_cover refuses it with a typed error; the domain is all
    # that build_cover admits, and only the number of draws is kept small
    construction, d, tau, generators = case
    try:
        spec = _build(construction, d, FiniteSubgroupSpec.parse(generators), LatticeTau.from_tau(tau))
    except EllcoverError:
        return
    report = galois_verify(spec, samples=8, seed=1)
    assert any(r["generic"] for r in report.samples) and report.passed
    criterion = criterion_check(spec, seed=1)
    assert criterion.order_ok and criterion.invariance_ok and criterion.basepoint_ok


@pytest.mark.parametrize("construction", ["A", "B"])
def test_index_two_subgroup_fails(lattice, q2, construction):
    # a negative control: verified against the elements of determinant +1,
    # an index-2 subgroup H, each orbit has |H| points, half the fiber, so
    # every generic sample misses its match
    spec = build_cover(construction, 2, lattice, q2)
    kept = tuple(
        g for g in spec.group.elements
        if g.matrix[0][0] * g.matrix[1][1] - g.matrix[0][1] * g.matrix[1][0] == 1
    )
    assert 2 * len(kept) == spec.group.order
    report = galois_verify(_with_group(spec, FiniteActionGroup(2, (), kept)), samples=10, seed=1)
    generic = [r for r in report.samples if r["generic"]]
    assert len(generic) == 10
    assert all(r["orbit_size"] == len(kept) and not r["fiber_match"] for r in generic)
    assert not report.passed


@pytest.mark.parametrize("construction, orders", [("A", (128, 32)), ("B", (96, 24))])
def test_translations_of_a_proper_subgroup_fail(construction, orders):
    # a negative control: the cover quotients by Q0 = <1/4, 0> but carries
    # L x| T' with T' = <1/2, 0>^d, a proper subgroup of Q0^d.  Each image
    # is a preimage of its target, so the spreads pass, but L x| T' has a
    # quarter of the fiber's points, and it is not L x| Q0^d
    spec = _build(construction, 2, FiniteSubgroupSpec.parse(("1/4,0",)), LatticeTau.from_tau(TAU))
    build = groups.build_group_A if construction == "A" else groups.build_group_B
    group = build(2, FiniteSubgroupSpec.parse(("1/2,0",)))
    assert (spec.group.order, group.order) == orders
    control = _with_group(spec, group)
    assert spec.decomposed and not control.decomposed
    report = galois_verify(control, samples=10, seed=1)
    generic = [r for r in report.samples if r["generic"]]
    assert len(generic) == 10
    assert all(r["orbit_size"] == group.order and r["image_spread"] < EPS_PROJ for r in generic)
    assert not any(r["fiber_match"] for r in generic)
    assert not report.passed


def _conjugated(g):
    """g conjugated by the translation s = (1/8, 0) in each coordinate: (M, t + s - Ms).

    (Ms)_i is the row sum of M_i times 1/8, in a.
    """
    shift = tuple(((a + (1 - sum(row)) * Fraction(1, 8)) % 1, b) for (a, b), row in zip(g.translation, g.matrix))
    return groups.AffineAutomorphism(g.matrix, shift)


@pytest.mark.parametrize("construction", ["A", "B"])
def test_group_that_does_not_act_through_its_linear_part_fails(lattice, q2, construction):
    # a negative control: G conjugated by the translation s = (1/8, 0) in
    # each coordinate, s not in Q0^d, has the elements (M, t + s - Ms) and
    # order |G|.  A's -1 in one coordinate then carries 2s = (1/4, 0), and
    # B's row of -1s (d+1)s, neither of them in Q0, so the group is not
    # L x| Q0^d and does not act on E/Q0 through L: its orbits are not fibers
    spec = build_cover(construction, 2, lattice, q2)
    group = FiniteActionGroup(2, (), tuple(map(_conjugated, spec.group.elements)))
    control = _with_group(spec, group)
    assert group.order == spec.group.order and group.linear.elements == spec.group.linear.elements
    assert spec.decomposed and not control.decomposed
    report = galois_verify(control, samples=10, seed=1)
    assert any(r["generic"] for r in report.samples)
    assert not any(r["fiber_match"] for r in report.samples)
    assert not report.passed


@pytest.mark.parametrize("construction", ["A", "B"])
def test_criterion_on_a_listed_copy_equals_the_builder_group(lattice, q2, construction):
    # a listed group takes its generators' integer form from their
    # fractions, or, given none, its elements as generators
    spec = build_cover(construction, 2, lattice, q2)
    expected = criterion_check(spec)
    assert expected.all_ok
    for generators in (spec.group.generators, ()):
        listed = FiniteActionGroup(2, generators, spec.group.elements)
        assert criterion_check(_with_group(spec, listed)) == expected


@pytest.mark.parametrize("construction", ["A", "B"])
def test_criterion_flags_the_conjugated_control(lattice, q2, construction):
    # its generators do not leave the map invariant: A's negation of one
    # coordinate and B's cycle carry a translation outside Q0
    spec = build_cover(construction, 2, lattice, q2)
    group = FiniteActionGroup(
        2, tuple(map(_conjugated, spec.group.generators)), tuple(map(_conjugated, spec.group.elements))
    )
    report = criterion_check(_with_group(spec, group))
    assert report.order_ok and not report.invariance_ok


@pytest.mark.parametrize("construction", ["A", "B"])
def test_fiber_match_at_its_tolerance_edge(lattice, q2, monkeypatch, construction):
    # three samples whose images y on E/Q0 are known, the last with
    # coordinates at 1 - 1e-12 and at 0, and recovered points with one
    # coordinate moved by 0.5 EPS_GENERIC (a match) or by 2 EPS_GENERIC
    # (none); the last two cases cross 0/1
    spec = _build(construction, 2, q2, lattice)
    ys = np.array([[[0.2, 0.3], [0.6, 0.1]], [[0.7, 0.4], [0.1, 0.9]], [[1 - 1e-12, 0.3], [0.0, 0.25]]])
    coords = ys * [0.5, 1.0]  # phi(s, t) = (2s, t) for Q0 = <1/2, 0>
    assert map_coords(spec.quotient, coords).tobytes() == ys.tobytes()
    recover = covers._quotient_points
    for k, slot, axis, sign in ((0, 0, 0, 1), (1, 1, 1, -1), (2, 0, 0, 1), (2, 1, 0, -1)):
        for scale, expected in ((0.5, True), (2.0, False)):

            def moved(spec, targets):
                points, reasons = recover(spec, targets)
                points[k, slot, 0, axis] = (points[k, slot, 0, axis] + sign * scale * EPS_GENERIC) % 1.0
                return points, reasons

            monkeypatch.setattr(covers, "_quotient_points", moved)
            records = covers._verify_chunk(spec, _linear_generators(spec), coords, 0, EPS_PT)
            assert all(r["generic"] for r in records)
            assert [r["fiber_match"] for r in records] == [j != k or expected for j in range(3)], (k, slot, axis, scale)
    # each recovered point matches, unless the group is one element short
    # of L x| Q0^d
    monkeypatch.setattr(covers, "_quotient_points", recover)
    for group, expected in ((spec.group, True), (FiniteActionGroup(2, (), spec.group.elements[:-1]), False)):
        control = _with_group(spec, group)
        records = covers._verify_chunk(control, _linear_generators(control), coords, 0, EPS_PT)
        assert [r["fiber_match"] for r in records] == [expected] * 3


def test_assignment_is_a_matching():
    # each row must take its own column: row 0 near columns 0 and 1 and row
    # 1 near column 0 alone match only as (1, 0), which a greedy pass in row
    # order misses; two rows near one column alone do not match
    near = np.array(
        [
            [[True, True, False], [True, False, False]],
            [[True, False, False], [True, False, False]],
            [[False, True, False], [False, False, True]],
            [[False, False, False], [True, True, True]],
        ]
    )
    assert covers._assigned(near).tolist() == [True, False, True, False]
    # rows 0-8 near columns k and k + 1, row 9 near column 0 alone: the
    # matching shifts all ten rows along one augmenting path
    near = np.zeros((1, 10, 10), dtype=bool)
    near[0, np.arange(9), np.arange(9)] = near[0, np.arange(9), np.arange(1, 10)] = near[0, 9, 0] = True
    assert covers._assigned(near).tolist() == [True]
    near[0, 8, 9] = False
    assert covers._assigned(near).tolist() == [False]


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


@pytest.mark.parametrize("construction", ["A", "B"])
@pytest.mark.parametrize("rotation", [1, 0.6 + 0.8j])
@pytest.mark.parametrize("scale", [1e-300, 1e-10, 1e10, 1e300])
def test_scaled_lattices_verify(q2, construction, rotation, scale):
    # the cover is built on the unit model, so omega1 changes no sample
    omega1 = scale * rotation
    spec = build_cover(construction, 2, LatticeTau(omega1, omega1 * TAU), q2)
    report = galois_verify(spec, samples=10, seed=3)
    assert report.passed
    assert all(r["generic"] for r in report.samples)


class TestPastTheOldProbeBound:
    # the criterion once listed (4|Q0|)^2 probes on E^d and refused |Q0| > 128

    @pytest.mark.parametrize("generators", [("1/16,0", "0,1/8"), ("1/1000,31/1000",)], ids=["128", "1000"])
    def test_criterion_maps_16_q0_probes(self, lattice, monkeypatch, generators):
        q0 = FiniteSubgroupSpec.parse(generators)
        spec = build_cover("A", 1, lattice, q0)
        sizes = []
        original = covers._map_in_chunks

        def spy(spec, pieces, keep):
            sizes.append(sum(map(len, pieces)) - keep)
            return original(spec, pieces, keep)

        monkeypatch.setattr(covers, "_map_in_chunks", spy)
        assert criterion_check(spec).all_ok
        assert sizes == [16 * q0.order + 17]


class TestSampleBound:
    def test_count_past_the_bound_is_refused_before_any_draw(self, lattice, q2, monkeypatch):
        from ellcover import construction

        def never(*args, **kwargs):
            raise AssertionError("samples were drawn")

        spec = build_cover("A", 1, lattice, q2)
        monkeypatch.setattr(construction, "MAX_SAMPLES", 5)
        assert len(galois_verify(spec, samples=5).samples) == 5  # the bound is inclusive
        monkeypatch.setattr(covers, "_draw", never)
        for samples in (6, 10**20, 0):
            with pytest.raises(ConfigError, match=f"samples must be .* got {samples}$"):
                galois_verify(spec, samples=samples)


def _never(*args, **kwargs):
    raise AssertionError("samples were drawn")


class TestMalformedInputs:
    """Every public entry point refuses each malformed input with an
    EllcoverError subclass: no raw exception, and no RuntimeWarning, which
    the suite makes an error."""

    @pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf, None, "1e-9", True])
    @pytest.mark.parametrize(
        "entry, name",
        [(galois_verify, "eps_pt"), (galois_verify, "eps_proj"), (criterion_check, "eps_proj")],
    )
    def test_tolerance_is_refused_before_any_draw(self, lattice, q2, monkeypatch, entry, name, value):
        spec = build_cover("A", 1, lattice, q2)
        monkeypatch.setattr(covers, "_draw", _never)
        with pytest.raises(ConfigError, match=f"^{name} must be positive and finite, got {value}$"):
            entry(spec, **{name: value})

    @pytest.mark.parametrize(
        "name, value", [("samples", None), ("samples", 2.5), ("jobs", "2"), ("samples", True), ("jobs", True)]
    )
    def test_count_that_is_not_an_integer_is_refused_before_any_draw(self, lattice, q2, monkeypatch, name, value):
        spec = build_cover("A", 1, lattice, q2)
        monkeypatch.setattr(covers, "_draw", _never)
        with pytest.raises(ConfigError, match=f"^{name} must be an integer, got {value!r}$"):
            galois_verify(spec, **{name: value})

    @pytest.mark.parametrize(
        "coords",
        [(1, 2), (1, 2, 3, 4), (1, 2, 3, 4, 5, 6), (), (math.nan, 1, 2), (1, 2, -math.inf), (0, 0, 0)],
    )
    @pytest.mark.parametrize("construction", ["A", "B"])
    def test_target_off_projective_space_is_invalid(self, lattice, q2, construction, coords):
        # a wrong length once raised ValueError or IndexError, a nan
        # LinAlgError or a RuntimeWarning, and an inf NonGenericTarget
        spec = build_cover(construction, 2, lattice, q2)
        fiber = fiber_A if construction == "A" else fiber_B
        with pytest.raises(InvalidPoint, match=rf"^fiber_{construction} needs a point of P\^2, got "):
            fiber(spec, ProjectivePoint(tuple(complex(c) for c in coords)))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("construction", "C", "construction must be A or B, got 'C'"),
            ("d", 0, "d must be >= 1, got 0"),
            ("d", 2.5, "d must be an integer, got 2.5"),
            ("d", None, "d must be an integer, got None"),
            ("d", MAX_D + 1, f"d must be <= {MAX_D}, got {MAX_D + 1}"),
            ("d", "3", "d must be an integer, got '3'"),
            ("d", 1e5, "d must be an integer, got 100000.0"),
            ("d", True, "d must be an integer, got True"),
        ],
    )
    def test_bad_cover_config_is_refused(self, lattice, q2, field, value, message):
        from ellcover.construction import RunConfig

        args = {"construction": "A", "d": 2, field: value}
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build_cover(args["construction"], args["d"], lattice, q2)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            RunConfig(**args).build_spec()

    @pytest.mark.parametrize(
        "name, text, value",
        [
            ("eps_pt", "-1", -1.0),
            ("eps_pt", "nan", math.nan),
            ("eps_proj", "0", 0.0),
            ("eps_proj", "inf", math.inf),
            ("samples", "0", 0),
            ("jobs", "33", 33),
            ("construction", "C", "C"),
            ("d", "0", 0),
            ("d", str(MAX_D + 1), MAX_D + 1),
        ],
    )
    def test_cli_and_library_refuse_with_one_text(self, lattice, q2, capsys, name, text, value):
        from ellcover.cli import main

        cover = {"construction": "A", "d": 1}
        with pytest.raises(ConfigError) as refused:
            if name in cover:
                cover[name] = value
                build_cover(cover["construction"], cover["d"], lattice, q2)
            else:
                galois_verify(build_cover("A", 1, lattice, q2), **{name: value})
        flags = {"construction": "A", "d": "1", name: text}
        assert main(["verify", *(w for k, v in flags.items() for w in (f"--{k.replace('_', '-')}", v))]) == 2
        assert capsys.readouterr().err == f"error: {refused.value}\n"


class TestJobsBound:
    def test_pool_is_sized_by_the_chunks_and_jobs_are_bounded(self, lattice, q2, monkeypatch):
        # a spy in place of the pool: no thread is started
        import concurrent.futures

        sizes = []

        class Spy:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Spy)
        spec = build_cover("A", 1, lattice, q2)
        galois_verify(spec, samples=3, jobs=MAX_JOBS)  # one chunk, so no pool
        monkeypatch.setattr(covers, "_CHUNK_ROWS", _rows_per_sample(spec))  # one sample a chunk
        galois_verify(spec, samples=3, jobs=MAX_JOBS)
        galois_verify(spec, samples=3, jobs=2)
        assert sizes == [3, 2]

        def never(*args, **kwargs):
            raise AssertionError("samples were drawn")

        monkeypatch.setattr(covers, "_draw", never)
        for jobs in (0, MAX_JOBS + 1, 10**5):
            with pytest.raises(ConfigError, match=f"jobs must be .* got {jobs}$"):
                galois_verify(spec, samples=10**5, jobs=jobs)
        assert sizes == [3, 2]


class TestBasisChangeBound:
    def test_bound_is_inclusive(self, q2):
        # tau = n + 1.1i reduces by subtracting n, and Q0 = <1/2, 0> doubles
        # tau, so the quotient's largest entry is 2n
        n = MAX_BASIS_CHANGE // 2
        spec = build_cover("A", 1, LatticeTau.from_tau(complex(n, 1.1)), q2)
        assert max(map(abs, spec.quotient.target.basis_change)) == MAX_BASIS_CHANGE
        with pytest.raises(IllConditioned, match=f"basis change with entry {2 * n + 2} > {MAX_BASIS_CHANGE}"):
            build_cover("A", 1, LatticeTau.from_tau(complex(n + 1, 1.1)), q2)

    def test_only_the_quotient_entry_counts(self):
        # Q0 = <0, 1/2> halves tau: E's entry is past the bound, but nothing
        # is evaluated on E, and the quotient's entry stays below it
        q = FiniteSubgroupSpec.parse(("0,1/2",))
        lattice = LatticeTau.from_tau(complex(MAX_BASIS_CHANGE + 2, 1.1))
        assert max(map(abs, lattice.basis_change)) == MAX_BASIS_CHANGE + 2
        spec = build_cover("A", 1, lattice, q)
        assert max(map(abs, spec.quotient.target.basis_change)) < MAX_BASIS_CHANGE
        assert galois_verify(spec, samples=5, seed=1).passed

    def test_benchmark_draws_are_far_below_the_bound(self):
        # |Re tau| <= 1/2, 0.9 <= Im tau <= 2 and |Q0| <= 5 stay far below the bound
        rng = random.Random(1)
        for _ in range(200):
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 2.0))
            n = rng.choice((2, 3, 4, 5))
            a, b = rng.choice([(a, b) for a in range(n) for b in range(n) if math.gcd(a, b, n) == 1])
            q = FiniteSubgroupSpec.from_generators([(Fraction(a, n), Fraction(b, n))])
            quotient = quotient_lattice(LatticeTau.from_tau(tau), q)
            for lat in (quotient.source, quotient.target):
                assert max(map(abs, lat.basis_change)) <= 10


class TestQuotientHeightBound:
    def test_bound_is_inclusive(self, q2):
        # Q0 = <1/2, 0> doubles the height: tau = 6i gives Im tau' = 12
        spec = build_cover("A", 1, LatticeTau.from_tau(6j), q2)
        assert spec.quotient.target.tau_reduced.imag == MAX_QUOTIENT_IM_TAU
        with pytest.raises(IllConditioned, match="Im tau'"):
            build_cover("A", 1, LatticeTau.from_tau(6.25j), q2)

    @pytest.mark.parametrize("d, height", [(3, 8), (4, 6), (6, 4), (8, 3), (10, 2.4)])
    def test_b_has_a_bound_on_d_times_the_height(self, q2, d, height):
        # B misses fiber matches, or fails base-point probes, past d Im tau' =
        # 24: at d = 3 above Im tau' = 8, and at d = 8-10 from d Im tau' = 29;
        # A, and B at d = 2, do not.  The bound is inclusive
        assert d * height == MAX_QUOTIENT_D_IM_TAU_B
        spec = build_cover("B", d, LatticeTau.from_tau(0.5j * height), q2)
        assert spec.quotient.target.tau_reduced.imag == height
        taller = LatticeTau.from_tau(0.53125j * height)
        with pytest.raises(IllConditioned, match=f"Im tau' = {1.0625 * height:g} > {height:g}, taller than B at d={d}"):
            build_cover("B", d, taller, q2)
        build_cover("A", d, taller, q2)
        build_cover("B", 2, taller, q2)

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

