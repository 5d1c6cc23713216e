"""`criterion_check` against the scalar probe loop it replaced.

`oracle_criterion` is `criterion_check` as it ran one map per point
(`CoverSpec.map`, the one-row call): an invariance loop that maps each
drawn point and its generator images in turn, and base-point probes that
try each probe's candidates in turn.  The batched check must report the
same four flags.
"""

import functools
import itertools
import random
import warnings

import numpy as np
import pytest

from ellcover import (
    CoverSpec,
    FiniteSubgroupSpec,
    IllConditioned,
    InvalidPoint,
    LatticeTau,
    NotVeryAmpleWarning,
    SumNotZero,
    TorusPoint,
    build_cover,
    criterion_check,
)
from ellcover import covers
from ellcover.batch import coords_array
from ellcover.construction import degree_identity
from ellcover.covers import CriterionReport, _probe_points
from ellcover.elliptic import EPS_PROJ

from conftest import TAU


def _perturbations(spec, point, rng):
    """The 3 seeded perturbations of a probe, each point's (a, b) shifted in turn by less than 1e-3."""
    delta = 1e-3
    return [
        tuple(
            TorusPoint.from_coords(
                spec.curve, p.a + delta * rng.random(), p.b + delta * rng.random()
            )
            for p in point
        )
        for _ in range(3)
    ]


def _tuple(spec, row):
    return tuple(TorusPoint(spec.curve, a, b) for a, b in row)


def _probe_valid(spec, point, rng, map_one):
    """True when `map_one` yields a projective point at `point` or at one of 3 perturbations.

    The candidates are drawn up front; the first that maps decides, and an
    InvalidPoint ends the probe as invalid.
    """
    for cand in [point, *_perturbations(spec, point, rng)]:
        try:
            image = map_one(spec, cand)
        except (IllConditioned, SumNotZero):
            continue
        except InvalidPoint:
            return False
        return max(abs(c) for c in image.coords) > 0
    return False


def oracle_criterion(spec, seed=42, eps_proj=EPS_PROJ, map_one=CoverSpec.map):
    """`criterion_check` one scalar map at a time."""
    order_ok = spec.group.order == degree_identity(spec.construction, spec.polarization, spec.q0)

    rng = random.Random(seed)
    invariance_ok = True
    checked = 0
    attempts = 0
    while checked < 10 and attempts < 40:
        attempts += 1
        p = tuple(
            TorusPoint.from_coords(spec.curve, rng.random(), rng.random())
            for _ in range(spec.d)
        )
        try:
            base = map_one(spec, p)
            for g in spec.group.generators:
                if base.chordal_dist(map_one(spec, g.apply(p))) >= eps_proj:
                    invariance_ok = False
        except (IllConditioned, SumNotZero):
            continue
        checked += 1
    if checked < 10:
        invariance_ok = False

    probe_rng = random.Random(seed + 1)
    probes = [_tuple(spec, row) for row in _probe_points(spec, seed).tolist()]
    basepoint_ok = all(_probe_valid(spec, probe, probe_rng, map_one) for probe in probes)
    return CriterionReport(order_ok, invariance_ok, basepoint_ok, spec.very_ample)


@functools.lru_cache(maxsize=None)
def _cover(construction, d, q0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotVeryAmpleWarning)
        q0 = FiniteSubgroupSpec.parse(q0)
        return build_cover(construction, d, LatticeTau.from_tau(TAU), q0)


GRID = [
    (construction, d, (f"1/{n},0",))
    for construction in "AB"
    for d in (1, 2, 3)
    for n in (2, 3, 4, 5)
] + [("A", 1, ()), ("A", 2, ()), ("B", 2, ())]


@pytest.mark.parametrize("seed", [3, 42])
@pytest.mark.parametrize(
    "construction,d,q0", GRID, ids=[f"{c}-d{d}-{q[0] if q else 'trivial'}" for c, d, q in GRID]
)
def test_batched_criterion_equals_scalar_loop(construction, d, q0, seed):
    spec = _cover(construction, d, q0)
    assert criterion_check(spec, seed=seed) == oracle_criterion(spec, seed=seed)


def _failing(monkeypatch, where, marks=None):
    """Make `map_array` mark the rows where `where(coords)` holds, and the oracle raise there.

    Returns the oracle's map, which raises IllConditioned at those tuples.
    Each call's marks are appended to `marks`.
    """
    original = CoverSpec.map_array

    def marked(self, coords):
        rows, failed = original(self, coords)
        if marks is not None:
            marks.append(where(coords))
        return rows, failed | where(coords)

    monkeypatch.setattr(CoverSpec, "map_array", marked)

    def map_one(spec, point):
        coords = np.array([[(p.a, p.b) for p in point]])
        if where(coords)[0]:
            raise IllConditioned("marked")
        return spec.map(point)

    return map_one


@pytest.mark.parametrize("construction", ["A", "B"])
def test_invariance_skips_points_that_fail_to_map(monkeypatch, construction):
    spec = _cover(construction, 2, ("1/2,0",))

    def where(coords):
        return coords[:, 0, 0] < 0.1

    marks = []
    map_one = _failing(monkeypatch, where, marks)
    report = criterion_check(spec)
    assert marks[0].any()  # the invariance probe's call
    assert report.invariance_ok
    assert report == oracle_criterion(spec, map_one=map_one)


def test_invariance_fails_when_too_few_points_map(monkeypatch):
    spec = _cover("A", 2, ("1/2,0",))

    def where(coords):
        return np.any(coords[..., 0] < 0.8, axis=1)

    map_one = _failing(monkeypatch, where)
    report = criterion_check(spec)
    assert not report.invariance_ok
    assert report == oracle_criterion(spec, map_one=map_one)


@pytest.mark.parametrize("construction", ["A", "B"])
def test_probe_whose_candidates_all_fail(monkeypatch, construction):
    spec = _cover(construction, 2, ("1/3,0",))

    # the first probe is the origin on the diagonal, and its perturbations
    # move each coordinate by less than 1e-3
    def where(coords):
        return np.all(coords < 2e-3, axis=(1, 2))

    map_one = _failing(monkeypatch, where)
    report = criterion_check(spec)
    assert report.invariance_ok and not report.basepoint_ok
    assert report == oracle_criterion(spec, map_one=map_one)


def test_maps_in_at_most_two_calls(monkeypatch):
    spec = _cover("B", 2, ("1/3,0",))
    # every probe of this cover maps; marking the origin, the first probe,
    # sends its perturbations through the second call
    _failing(monkeypatch, lambda coords: np.all(coords == 0.0, axis=(1, 2)))
    calls = []
    original = CoverSpec.map_array

    def counted(self, coords):
        calls.append(len(coords))
        return original(self, coords)

    monkeypatch.setattr(CoverSpec, "map_array", counted)
    assert criterion_check(spec).all_ok
    assert len(calls) == 2


@pytest.mark.parametrize("construction", ["A", "B"])
def test_maps_in_chunks_of_rows(monkeypatch, construction):
    spec = _cover(construction, 2, ("1/3,0",))
    probes = _probe_points(spec)
    rows, failed = spec.map_array(probes)
    whole = criterion_check(spec)
    calls = []
    original = CoverSpec.map_array

    def counted(self, coords):
        calls.append(len(coords))
        return original(self, coords)

    monkeypatch.setattr(CoverSpec, "map_array", counted)
    monkeypatch.setattr(covers, "_CHUNK_ROWS", 7)
    chunked, chunked_failed = covers._map_in_chunks(spec, probes)
    assert chunked.tobytes() == rows.tobytes()
    assert np.array_equal(chunked_failed, failed)
    assert criterion_check(spec) == whole
    assert max(calls) == 7 and sum(calls) > len(probes)


def test_invariance_spreads_in_one_call(monkeypatch):
    # the ten checked points and their generator images: one owner each
    spec = _cover("A", 2, ("1/2,0",))
    calls = []
    original = covers.projective_spreads

    def counted(coords, owner, failed):
        calls.append((len(coords), len(failed)))
        return original(coords, owner, failed)

    monkeypatch.setattr(covers, "projective_spreads", counted)
    assert criterion_check(spec).invariance_ok
    assert calls == [(10 * (1 + len(spec.group.generators)), 10)]


@pytest.mark.parametrize("seed", [3, 42])
@pytest.mark.parametrize("n", range(2, 8))
def test_paper_family_passes_the_criterion(n, seed):
    # construction B at d = 3 on Q0 = <1/n, 0>: its torsion-diagonal probes
    # repeat one point up to 4 times, and the bundle is base-point-free
    assert criterion_check(_cover("B", 3, (f"1/{n},0",)), seed=seed).all_ok


def _drawn_tuples(spec, rng, count):
    """`count` tuples of d points, each `TorusPoint.from_coords` of two draws of `rng`."""
    return [
        tuple(TorusPoint.from_coords(spec.curve, rng.random(), rng.random()) for _ in range(spec.d))
        for _ in range(count)
    ]


@pytest.mark.parametrize("construction", ["A", "B"])
def test_invariance_points_are_the_seeded_tuples(monkeypatch, construction):
    # the 40 points of the invariance check, bit for bit, are the tuples
    # drawn point by point from Random(seed)
    spec = _cover(construction, 2, ("1/2,0",))
    starts = []
    original = covers.move

    def spy(packed, coords):
        starts.append(coords.tobytes())
        return original(packed, coords)

    monkeypatch.setattr(covers, "move", spy)
    criterion_check(spec, seed=3)
    assert starts == [coords_array(_drawn_tuples(spec, random.Random(3), 40)).tobytes()]


def _torus_point_probes(spec, seed):
    """The probe grid built one `TorusPoint` tuple per probe, then laid out by `coords_array`."""
    rng = random.Random(seed)
    m = 4 * spec.q0.order
    probes = [(TorusPoint(spec.curve, i / m, j / m),) * spec.d for i in range(m) for j in range(m)]
    poles = [TorusPoint(spec.curve, float(a), float(b)) for a, b in spec.q0.elements]
    if len(poles) ** spec.d <= 512:
        probes.extend(itertools.product(poles, repeat=spec.d))
    for _ in range(16):
        probes.append(
            tuple(
                rng.choice(poles)
                if rng.random() < 0.5
                else TorusPoint.from_coords(spec.curve, rng.random(), rng.random())
                for _ in range(spec.d)
            )
        )
    return coords_array(probes)


PROBE_COVERS = [
    (d, q0) for d in (1, 2, 3) for q0 in (("1/2,0",), ("1/3,0",), ("1/2,0", "0,1/2"))
] + [(3, ("1/3,0", "0,1/3"))]  # 9^3 > 512: no pole combinations


@pytest.mark.parametrize("d,q0", PROBE_COVERS, ids=[f"d{d}-{'+'.join(q)}" for d, q in PROBE_COVERS])
def test_probes_equal_the_torus_point_probes(d, q0):
    spec = _cover("A", d, q0)
    for seed in (3, 42):
        probes = _probe_points(spec, seed)
        assert probes.tobytes() == _torus_point_probes(spec, seed).tobytes()
    if spec.q0.order ** d > 512:
        assert len(probes) == (4 * spec.q0.order) ** 2 + 16


@pytest.mark.parametrize("construction", ["A", "B"])
@pytest.mark.parametrize("marked", [None, 5, -1], ids=["none", "early-diagonal", "last-random"])
def test_perturbations_are_drawn_up_to_the_last_retried_probe(monkeypatch, construction, marked):
    # probe k's 3 perturbations are the oracle's, which draws every probe's
    # in turn from Random(seed + 1): marking probe k and exactly those three
    # fails the check only where the retry maps them.  Nothing is drawn past
    # the last retried probe, and no perturbation when no probe is marked.
    spec = _cover(construction, 2, ("1/3,0",))
    seed = 42
    probes = _probe_points(spec, seed)
    rows = np.empty((0, spec.d, 2))
    if marked is not None:
        k = marked % len(probes)
        rng = random.Random(seed + 1)
        for row in probes[: k + 1].tolist():
            point = _tuple(spec, row)
            candidates = _perturbations(spec, point, rng)
        rows = coords_array([point, *candidates])

    def where(coords):
        return (coords[:, None] == rows[None]).all(axis=(2, 3)).any(axis=1)

    map_one = _failing(monkeypatch, where)
    shapes = []
    original = covers._draw

    def spy(rng, *shape):
        shapes.append(shape)
        return original(rng, *shape)

    monkeypatch.setattr(covers, "_draw", spy)
    report = criterion_check(spec, seed=seed)
    assert report == oracle_criterion(spec, seed=seed, map_one=map_one)
    assert report.basepoint_ok == (marked is None)
    assert shapes == [(40, spec.d, 2)] + ([] if marked is None else [(k + 1, 3, spec.d, 2)])


def _concatenated_points(spec, seed):
    """The points `criterion_check` maps, laid out by two concatenations: the
    diagonal and the other probes, then the invariance rows and the probes."""
    d = spec.d
    rng = random.Random(seed)
    m = 4 * spec.q0.order
    grid = np.arange(m) / m
    diagonal = np.empty((m, m, d, 2))
    diagonal[..., 0] = grid[:, None, None]
    diagonal[..., 1] = grid[None, :, None]
    poles = [(float(a), float(b)) for a, b in spec.q0.elements]
    probes = list(itertools.product(poles, repeat=d)) if len(poles) ** d <= 512 else []
    probes += [
        [rng.choice(poles) if rng.random() < 0.5 else (rng.random(), rng.random()) for _ in range(d)]
        for _ in range(16)
    ]
    probes = np.concatenate([diagonal.reshape(m * m, d, 2), np.array(probes)])
    start = covers._draw(random.Random(seed), 40, d, 2)
    moved = covers.move(covers.pack(spec.group.generators, d), start)
    moved = np.concatenate([start[:, None], moved], axis=1).reshape(-1, d, 2)
    return np.concatenate([moved, probes])


POINT_COVERS = [
    (construction, d, q0)
    for construction in "AB"
    for d in (1, 2, 3)
    for q0 in (("1/2,0",), ("1/3,0",), ("1/2,0", "0,1/2"))
]


@pytest.mark.parametrize(
    "construction,d,q0", POINT_COVERS, ids=[f"{c}-d{d}-{'+'.join(q)}" for c, d, q in POINT_COVERS]
)
def test_criterion_points_are_one_array_in_the_concatenated_layout(monkeypatch, construction, d, q0):
    # the invariance rows and the probes are filled into one array, bit for
    # bit the parent layout of two concatenations, and mapped from it
    spec = _cover(construction, d, q0)
    mapped = []
    original = covers._map_in_chunks

    def spy(spec, coords, keep=None):
        mapped.append(coords)
        return original(spec, coords, keep)

    monkeypatch.setattr(covers, "_map_in_chunks", spy)
    criterion_check(spec, seed=3)
    expected = _concatenated_points(spec, 3)
    assert mapped[0].shape == expected.shape
    assert mapped[0].tobytes() == expected.tobytes()
