import itertools
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellcover import (
    AffineAutomorphism,
    FiniteSubgroupSpec,
    InvalidOrder,
    LatticeTau,
    OrderCapExceeded,
    TorusPoint,
    build_group_A,
    build_group_B,
)
from ellcover import FiniteActionGroup, batch
from ellcover.batch import close_pairs
from ellcover.elliptic import _wrap_dist
from ellcover.groups import SemidirectProduct

from conftest import TAU

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)

LAT = LatticeTau.from_tau(TAU)


def pt(*pairs):
    return tuple(TorusPoint.from_coords(LAT, a, b) for a, b in pairs)


def _closure(generators):
    """Elements of the group the generators span, by breadth-first closure, sorted."""
    ident = AffineAutomorphism.identity(generators[0].dim)
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for f in frontier:
            for g in generators:
                h = f * g
                if h not in seen:
                    seen.add(h)
                    nxt.append(h)
        frontier = nxt
    return tuple(sorted(seen, key=lambda e: (e.matrix, e.translation)))


def _neg(d):
    return tuple(
        tuple(-1 if i == j else 0 for j in range(d)) for i in range(d)
    )


def _shift(d, *pairs):
    return AffineAutomorphism(
        tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d)),
        tuple(pairs),
    )


def _coords(point):
    return tuple((p.a, p.b) for p in point)


class TestAffineAutomorphism:
    def test_identity(self):
        e = AffineAutomorphism.identity(3)
        assert e.dim == 3
        x = pt((0.3, 0.4), (0.1, 0.9), (0.5, 0.5))
        assert _coords(e.apply(x)) == _coords(x)

    def test_compose_matches_pointwise(self):
        g = AffineAutomorphism(_neg(2), ((HALF, Fraction(0)), (Fraction(0), Fraction(0))))
        h = _shift(2, (THIRD, THIRD), (Fraction(0), HALF))
        x = pt((0.21, 0.77), (0.12, 0.68))
        lhs = (g * h).apply(x)
        rhs = g.apply(h.apply(x))
        for p, q in zip(lhs, rhs):
            assert p.close_to(q, tol=1e-12)

    def test_inverse(self):
        swap = AffineAutomorphism(
            ((0, 1), (1, 0)), ((HALF, Fraction(0)), (THIRD, THIRD))
        )
        assert swap * swap.inverse() == AffineAutomorphism.identity(2)
        assert swap.inverse() * swap == AffineAutomorphism.identity(2)

    def test_inverse_requires_unimodular(self):
        doubling = AffineAutomorphism(
            ((2, 0), (0, 1)), ((Fraction(0), Fraction(0)),) * 2
        )
        with pytest.raises(InvalidOrder):
            doubling.inverse()

    def test_apply_wraps_mod_one(self):
        g = _shift(1, (Fraction(3, 4), Fraction(1, 2)))
        ((a, b),) = _coords(g.apply(pt((0.5, 0.75))))
        assert math.isclose(a, 0.25, abs_tol=1e-12)
        assert math.isclose(b, 0.25, abs_tol=1e-12)

    def test_translations_are_exact(self):
        g = _shift(1, (THIRD, Fraction(0)))
        x = pt((0.0, 0.0))
        for _ in range(3):
            x = g.apply(x)
        assert x[0].a == 0.0 and x[0].b == 0.0

    def test_dimension_mismatch_rejected(self):
        e = AffineAutomorphism.identity(2)
        with pytest.raises(InvalidOrder):
            e.apply(pt((0.1, 0.2)))


class TestGroupGeneration:
    def test_cyclic_translation_group(self):
        g = _shift(1, (THIRD, Fraction(0)))
        assert len(_closure([g])) == 3

    def test_identity_in_elements(self):
        grp = build_group_A(1, FiniteSubgroupSpec.parse(("1/2,0",)))
        assert AffineAutomorphism.identity(1) in grp.elements

    def test_elements_closed_and_invertible(self):
        grp = build_group_A(2, FiniteSubgroupSpec.parse(("1/2,0",)))
        elems = set(grp.elements)
        sample = random.Random(0).sample(sorted(elems, key=repr), 8)
        for g in sample:
            assert g.inverse() in elems
            for h in sample:
                assert g * h in elems

    def test_canonical_element_order(self):
        grp = build_group_B(2, FiniteSubgroupSpec.parse(("1/2,0",)))
        keyed = [(e.matrix, e.translation) for e in grp.elements]
        assert keyed == sorted(keyed)

    def test_order_cap(self):
        # the cap bounds |L| = 48, not |G| = 3,072
        q0 = FiniteSubgroupSpec.parse(("1/4,0",))
        assert build_group_A(3, q0, cap=48).order == 3072
        with pytest.raises(OrderCapExceeded):
            build_group_A(3, q0, cap=47)

    @pytest.mark.parametrize("build", [build_group_A, build_group_B])
    def test_huge_d_is_refused_at_once(self, build):
        # the closed-form order is multiplied one factor at a time and
        # refused at the first partial product past the cap, before any of
        # the d generators of d x d matrices is built
        start = time.perf_counter()
        with pytest.raises(OrderCapExceeded, match="exceeds cap 100000"):
            build(10**6, FiniteSubgroupSpec.parse(("1/2,0",)))
        assert time.perf_counter() - start < 1


class TestConstructionA:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_orders(self, d, q):
        q0 = (
            FiniteSubgroupSpec.trivial()
            if q == 1
            else FiniteSubgroupSpec.parse((f"1/{q},0",))
        )
        grp = build_group_A(d, q0)
        assert grp.order == 2 ** d * math.factorial(d) * q ** d

    def test_klein_four_subgroup(self):
        q0 = FiniteSubgroupSpec.parse(("1/2,0", "0,1/2"))
        assert build_group_A(2, q0).order == 4 * 2 * 16

    def test_contains_negation_and_swap(self):
        grp = build_group_A(2, FiniteSubgroupSpec.trivial())
        mats = {e.matrix for e in grp.elements}
        assert ((-1, 0), (0, -1)) in mats
        assert ((0, 1), (1, 0)) in mats

    def test_generic_orbit_is_free(self):
        grp = build_group_A(2, FiniteSubgroupSpec.parse(("1/2,0",)))
        x = pt((0.137, 0.261), (0.389, 0.731))
        assert len(grp.stabilizer(x)) == 1
        assert len(grp.orbit(x)) == grp.order

    def test_two_torsion_is_not_free(self):
        grp = build_group_A(1, FiniteSubgroupSpec.parse(("1/2,0",)))
        x = pt((0.5, 0.0))
        stab = grp.stabilizer(x)
        assert len(stab) > 1
        stab_set = set(stab)
        for g in stab:
            for h in stab:
                assert g * h in stab_set

    def test_orbit_size_divides_order(self):
        grp = build_group_A(2, FiniteSubgroupSpec.parse(("1/2,0",)))
        x = pt((0.5, 0.5), (0.5, 0.5))
        assert grp.order % len(grp.orbit(x)) == 0


class TestConstructionB:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_orders(self, d, q):
        q0 = (
            FiniteSubgroupSpec.trivial()
            if q == 1
            else FiniteSubgroupSpec.parse((f"1/{q},0",))
        )
        grp = build_group_B(d, q0)
        assert grp.order == math.factorial(d + 1) * q ** d

    def test_order_24_landmark(self):
        q0 = FiniteSubgroupSpec.parse(("1/2,0",))
        assert build_group_B(2, q0).order == 24

    def test_matrix_part_is_full_permutation_action(self):
        for d in (2, 3):
            grp = build_group_B(d, FiniteSubgroupSpec.trivial())
            mats = {e.matrix for e in grp.elements}
            assert len(mats) == math.factorial(d + 1)

    def test_cycle_generator_has_order_d_plus_one(self):
        grp = build_group_B(3, FiniteSubgroupSpec.trivial())
        cyc = next(
            e
            for e in grp.elements
            if e.matrix == ((-1, -1, -1), (1, 0, 0), (0, 1, 0))
        )
        acc = cyc
        steps = 1
        while acc != AffineAutomorphism.identity(3):
            acc = acc * cyc
            steps += 1
        assert steps == 4

    def test_translations_form_normal_subgroup(self):
        grp = build_group_B(2, FiniteSubgroupSpec.parse(("1/2,0",)))
        identity_mat = AffineAutomorphism.identity(2).matrix
        translations = [e for e in grp.elements if e.matrix == identity_mat]
        assert len(translations) == 4
        for t in translations:
            for g in grp.elements:
                conj = g * t * g.inverse()
                assert conj.matrix == identity_mat

    def test_generic_orbit_is_free(self):
        grp = build_group_B(2, FiniteSubgroupSpec.parse(("1/2,0",)))
        x = pt((0.137, 0.261), (0.389, 0.731))
        assert len(grp.stabilizer(x)) == 1
        assert len(grp.orbit(x)) == 24


@settings(max_examples=30, deadline=None)
@given(
    i=st.integers(0, 23),
    j=st.integers(0, 23),
    k=st.integers(0, 23),
)
def test_associativity_on_group_elements(i, j, k):
    grp = build_group_B(2, FiniteSubgroupSpec.parse(("1/2,0",)))
    g, h, f = grp.elements[i], grp.elements[j], grp.elements[k]
    assert (g * h) * f == g * (h * f)


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(0.01, 0.99),
    b=st.floats(0.01, 0.99),
    idx=st.integers(0, 15),
)
def test_inverse_undoes_apply(a, b, idx):
    grp = build_group_A(1, FiniteSubgroupSpec.parse(("1/4,0",)))
    g = grp.elements[idx % grp.order]
    x = pt((a, b))
    back = g.inverse().apply(g.apply(x))
    assert back[0].close_to(x[0], tol=1e-9)


# Q0 shapes of the oracle grid: cyclic of order 2 to 4, and a Klein four-group
ORACLE_Q0 = [("1/2,0",), ("1/3,0",), ("1/4,0",), ("1/2,0", "0,1/2")]


@pytest.mark.parametrize("build", [build_group_A, build_group_B])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("q0", ORACLE_Q0)
def test_enumeration_matches_closure(build, d, q0):
    grp = build(d, FiniteSubgroupSpec.parse(q0))
    assert grp.elements == _closure(grp.generators)


def _scalar_orbit(grp, point, tol):
    reps = []
    for g in grp.elements:
        q = g.apply(point)
        if not any(all(a.close_to(b, tol) for a, b in zip(q, r)) for r in reps):
            reps.append(q)
    reps.sort(key=lambda t: tuple((p.a, p.b) for p in t))
    return reps


def _scalar_stabilizer(grp, point, tol):
    return [
        g for g in grp.elements
        if all(a.close_to(b, tol) for a, b in zip(g.apply(point), point))
    ]


def _action_points(d):
    # 2-torsion and diagonal points have nontrivial stabilizers; coordinates
    # within 1e-12 of 0 or 1 wrap; coordinates 1e-3 apart give distinct
    # images that merge at the coarse tolerances below, with keys near each
    # other (test_close_pairs_key_search_matches_every_pair pins the window
    # edge down exactly).  The last point has, at tol = 0.05 in every group
    # below, chains a-b-c of images with b dropped for a and c kept though
    # it lies within tol of b
    rng = random.Random(d)
    return [
        tuple(TorusPoint.from_coords(LAT, rng.random(), rng.random()) for _ in range(d)),
        pt(*[(0.5, 0.0)] * d),
        pt(*[(0.31, 0.72)] * d),
        tuple(TorusPoint(LAT, 1 - 1e-12 * (k + 1), 1e-12) for k in range(d)),
        pt(*[(0.25 + 1e-3 * k, 0.5 - 1e-3 * k) for k in range(d)]),
        pt((0.475, 0.025), *[(0.5, 0.0)] * (d - 1)),
    ]


ACTION_GROUPS = [
    (build_group_A, 2, ("1/3,0",)),
    (build_group_A, 3, ("1/2,0",)),
    (build_group_B, 2, ("1/2,0", "0,1/2")),
    (build_group_B, 3, ("1/3,0",)),
]


@pytest.mark.parametrize("build, d, q0", ACTION_GROUPS)
@pytest.mark.parametrize("tol", [1e-9, 2e-3, 0.05])
def test_packed_action_matches_scalar_reference(build, d, q0, tol):
    grp = build(d, FiniteSubgroupSpec.parse(q0))
    for x in _action_points(d):
        assert [_coords(q) for q in grp.orbit(x, tol)] == [
            _coords(q) for q in _scalar_orbit(grp, x, tol)
        ]
        assert grp.stabilizer(x, tol) == _scalar_stabilizer(grp, x, tol)


def test_packed_orbit_rejects_wrong_dimension():
    grp = build_group_A(2, FiniteSubgroupSpec.parse(("1/2,0",)))
    with pytest.raises(InvalidOrder):
        grp.orbit(pt((0.1, 0.2)))


def test_construct_does_not_pack():
    grp = build_group_B(2, FiniteSubgroupSpec.parse(("1/2,0",)))
    assert "_packed" not in vars(grp)
    grp.orbit(pt((0.137, 0.261), (0.389, 0.731)))
    assert "_packed" in vars(grp)


# the Q0 shapes of the on-demand listing: trivial, cyclic of order 2 and 3, E[2]
LISTING_Q0 = [(), ("1/2,0",), ("1/3,0",), ("1/2,0", "0,1/2")]


@pytest.mark.parametrize("build", [build_group_A, build_group_B])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("q0", LISTING_Q0)
def test_elements_are_listed_on_first_use(build, d, q0):
    spec = FiniteSubgroupSpec.parse(q0) if q0 else FiniteSubgroupSpec.trivial()
    grp = build(d, spec)
    assert "elements" not in vars(grp)
    # the eager listing: the matrix group, closed from the generators' matrices
    # and sorted, times Q0^d in lexicographic order
    zero = AffineAutomorphism.identity(d).translation
    linear = _closure([AffineAutomorphism(g.matrix, zero) for g in grp.generators])
    eager = tuple(
        AffineAutomorphism(m, t)
        for m in sorted(e.matrix for e in linear)
        for t in itertools.product(spec.elements, repeat=d)
    )
    assert grp.order == len(grp.elements)
    assert grp.elements == eager
    assert grp.elements is grp.elements


@pytest.mark.parametrize("construction, q0", [("A", "1/2,0"), ("B", "1/3,0")])
def test_construct_lists_no_element(monkeypatch, construction, q0):
    from ellcover import cli

    built = []
    init = SemidirectProduct.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(SemidirectProduct, "__init__", spy)
    assert cli.main(["construct", "--construction", construction, "--d", "4", "--q0", q0]) == 0
    assert len(built) == 1
    assert not {"elements", "matrices", "generators"} & set(vars(built[0]))


def _never_list(monkeypatch):
    """Make listing or packing the elements of any G but a matrix group L fail."""
    packed = SemidirectProduct._packed.func

    def never(self):
        raise AssertionError("G was listed")

    monkeypatch.setattr(SemidirectProduct, "elements", property(never))
    monkeypatch.setattr(
        SemidirectProduct, "_packed", property(lambda g: never(g) if g.q0.order > 1 else packed(g))
    )


@pytest.mark.parametrize("construction, d, samples", [("A", 5, 3), ("B", 6, 2)])
def test_no_command_lists_the_group(monkeypatch, tmp_path, construction, d, samples):
    # |G| = 122,880 and 322,560, past the default cap, which bounds |L| =
    # 3,840 and 5,040: construct and verify read the group as L x| Q0^d
    from ellcover import cli

    _never_list(monkeypatch)
    argv = ["--construction", construction, "--d", str(d), "--q0", "1/2,0"]
    assert cli.main(["construct", *argv]) == 0
    report = tmp_path / "r.json"
    assert cli.main(["verify", *argv, "--samples", str(samples), "--output", str(report)]) == 0
    assert '"pass": true' in report.read_text()


def test_copies_are_structural(monkeypatch):
    # a copy of a cover holds L's matrices, Q0 and the generators
    import copy
    import pickle

    from ellcover import build_cover

    spec = build_cover("A", 5, LAT, FiniteSubgroupSpec.parse(("1/2,0",)))
    _never_list(monkeypatch)
    for other in (copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
        assert (other.group.order, other.group.linear.order) == (122_880, 3_840)
        assert other.group.matrices == spec.group.matrices and other.q0 == spec.q0
        assert other.group.integer_generators == spec.group.integer_generators
        assert other.decomposed


#: subgroups of order at most 4, one of them twice with other generators;
#: <0,1/4> and <1/4,1/4> share N = 4 and c = 1 and differ in a and b only
SPLIT_Q0 = [
    (), ("1/2,0",), ("0,1/2",), ("1/3,0",), ("1/4,0",), ("3/4,0",), ("1/4,1/2",), ("0,1/4",),
    ("1/4,1/4",), ("1/2,0", "0,1/2"),
]


@pytest.mark.parametrize("build", [build_group_A, build_group_B])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_generator_split_check_matches_the_element_check(build, d):
    # for each builder group and each Q0, the split check on the generators
    # and on the listed copy of the group, element by element, agree
    from types import SimpleNamespace

    from ellcover.construction import CoverSpec

    def decomposed(group, q0):
        return CoverSpec.decomposed.func(SimpleNamespace(group=group, q0=q0, d=d))

    specs = [FiniteSubgroupSpec.parse(q) for q in SPLIT_Q0]
    verdicts = []
    for own in specs:
        grp = build(d, own)
        listed = FiniteActionGroup(d, grp.generators, grp.elements)
        for q0 in specs:
            verdicts.append(decomposed(grp, q0))
            assert verdicts[-1] == decomposed(listed, q0), (own, q0)
            assert verdicts[-1] == (set(own.elements) == set(q0.elements)), (own, q0)
    assert verdicts.count(True) == len(specs) + 2


#: every subgroup of order at most 4, and four of them again with other generators
SUBGROUPS_TO_4 = [
    (), ("1/2,0",), ("0,1/2",), ("1/2,1/2",), ("1/3,0",), ("0,1/3",), ("1/3,1/3",), ("1/3,2/3",),
    ("1/4,0",), ("0,1/4",), ("1/4,1/4",), ("1/4,1/2",), ("1/2,1/4",), ("1/4,3/4",), ("1/2,0", "0,1/2"),
    ("3/4,0",), ("2/3,1/3",), ("1/4,1/2", "1/2,0"), ("1/2,1/2", "0,1/2"),
]


@pytest.mark.parametrize("build", [build_group_A, build_group_B])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_split_check_is_subgroup_equality(build, d):
    # the Hermite-basis comparison, against the listed copy's element scan
    # at equal orders and against containment both ways of the subgroups
    specs = [FiniteSubgroupSpec.parse(q) for q in SUBGROUPS_TO_4]
    verdicts = []
    for own in specs:
        grp = build(d, own)
        listed = FiniteActionGroup(d, grp.generators, grp.elements)
        for q0 in specs:
            verdicts.append(grp.splits_over(q0))
            scanned = listed.order == grp.linear_order * q0.order**d and listed.splits_over(q0)
            assert verdicts[-1] == scanned, (own, q0)
            assert verdicts[-1] == (set(own.elements) <= set(q0.elements) <= set(own.elements)), (own, q0)
    assert verdicts.count(True) == len(specs) + 2 * 4


@pytest.mark.parametrize("build", [build_group_A, build_group_B])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_packed_generators_move_points_as_apply_does(build, d):
    grp = build(d, FiniteSubgroupSpec.parse(("1/3,0",)))
    gens = grp.generators
    points = _action_points(d)
    moved = batch.move(batch.pack(*grp.integer_generators), batch.coords_array(points))
    applied = batch.coords_array([g.apply(p) for p in points for g in gens])
    assert moved.tobytes() == applied.reshape(moved.shape).tobytes()


def test_torsion_orbit_runs_in_bounded_memory():
    # every image of (1/2, 0)^4 has the key 0 or 1/2, so the join meets
    # 6144 x 3072 candidate pairs; the child gets a timeout and a 1 GiB
    # address-space limit, so holding them all at once fails this test
    resource = pytest.importorskip("resource")
    limit = 1 << 30
    script = (
        "from ellcover import FiniteSubgroupSpec, LatticeTau, TorusPoint, build_group_A\n"
        f"lat = LatticeTau.from_tau({TAU!r})\n"
        "grp = build_group_A(4, FiniteSubgroupSpec.parse(('1/2,0',)))\n"
        "x = (TorusPoint.from_coords(lat, 0.5, 0.0),) * 4\n"
        "print(len(grp.orbit(x)), len(grp.stabilizer(x)))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    # OpenBLAS maps a buffer per thread at import, which would count
    # against the limit on a many-core machine
    env["OPENBLAS_NUM_THREADS"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["16", "384"]


def test_torsion_orbit_joins_distinct_images_only(monkeypatch):
    # the 6144 images of (1/2, 0)^4 take 16 distinct values; images equal to
    # an earlier one are dropped before the tolerance join
    grp = build_group_A(4, FiniteSubgroupSpec.parse(("1/2,0",)))
    sizes = []
    join = batch.close_pairs

    def spy(left, right, tol):
        sizes.append((len(left), len(right)))
        return join(left, right, tol)

    monkeypatch.setattr(batch, "close_pairs", spy)
    assert len(grp.orbit(pt(*[(0.5, 0.0)] * 4))) == 16
    assert sizes == [(16, 16)]


@pytest.mark.parametrize("sizes", [(10, 12), (70, 80)])
@pytest.mark.parametrize("tol", [2.0**-6, 0.3])
def test_close_pairs_key_search_matches_every_pair(tol, sizes, monkeypatch):
    # offsets in whole multiples of tol/4 from grid points put pairs exactly
    # at the edge and, around 0, across the wrap; tol = 0.3 makes the key
    # window wrap whole
    rng = random.Random(7)

    def row():
        return [(rng.choice((0.0, 0.5)) + rng.randint(-6, 6) * tol / 4) % 1.0 for _ in range(4)]

    left = [row() for _ in range(sizes[0])]
    right = [row() for _ in range(sizes[1])]
    # a close pair whose coordinates and keys lie on either side of the wrap
    left.append([1 - 1e-4, 1 - 1e-12, 0.0, 0.5])
    right.append([1e-4, 0.0, 0.0, 0.5])
    i, j = close_pairs(np.array(left), np.array(right), tol)
    found = list(zip(i.tolist(), j.tolist()))
    expected = [
        (a, b)
        for a, x in enumerate(left)
        for b, y in enumerate(right)
        if all(_wrap_dist(u, v) <= tol for u, v in zip(x, y))
    ]
    assert sorted(found) == expected
    assert i.tolist() == sorted(i.tolist())
    assert any(max(_wrap_dist(u, v) for u, v in zip(left[a], right[b])) == tol for a, b in expected)
    # blocks of 5 candidates split the rows, and hold alone a row with more
    monkeypatch.setattr(batch, "_JOIN_BLOCK", 5)
    i5, j5 = close_pairs(np.array(left), np.array(right), tol)
    assert (i5.tolist(), j5.tolist()) == (i.tolist(), j.tolist())

