"""`criterion_check`, which maps on (E/Q0)^d, against the E^d probe loop it replaced.

`oracle_criterion` is `criterion_check` as it ran on E^d, one map per
point (`CoverSpec.map`, the one-row call of `map_array`): an invariance
loop that maps each drawn point and its generator images in turn, and
base-point probes over the (4|Q0|)^2 torsion-diagonal grid of E, the pole
tuples over Q0 and seeded tuples (`_reference_probes`), each probe's
perturbations tried in turn.  The check on the quotient must report the
same four flags.  Failures are injected into `CoverSpec.map_quotient`,
which both of them map through.
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
    galois_verify,
)
from ellcover import covers
from ellcover.batch import coords_array, map_coords, t_series_array
from ellcover.construction import degree_identity
from ellcover.covers import CriterionReport, _probe_points
from ellcover.elliptic import EPS_PROJ
from ellcover.symfun import normalize_rows

from conftest import TAU


def _perturbations(point, rng):
    """The 3 seeded perturbations of a probe, each point's (a, b) shifted in turn by less than 1e-3."""
    delta = 1e-3
    return [
        tuple(
            TorusPoint.from_coords(p.lattice, p.a + delta * rng.random(), p.b + delta * rng.random())
            for p in point
        )
        for _ in range(3)
    ]


def _probes(spec, seed=42):
    """`_probe_points` as the tuples that g maps: each diagonal point y as (y, ..., y), then the other 17."""
    diagonal, tuples = _probe_points(spec, seed)
    return np.concatenate([np.repeat(diagonal[:, None], spec.d, axis=1), tuples])


def _tuple(lattice, row):
    return tuple(TorusPoint(lattice, a, b) for a, b in row)


def _any_maps(spec, candidates):
    """True when `CoverSpec.map` yields a projective point at one of the candidates.

    The first that maps decides, and an InvalidPoint ends the probe as
    invalid.
    """
    for cand in candidates:
        try:
            image = spec.map(cand)
        except (IllConditioned, SumNotZero):
            continue
        except InvalidPoint:
            return False
        return max(abs(c) for c in image.coords) > 0
    return False


def _reference_probes(spec, seed):
    """The base-point probes as the criterion listed them on E^d, N x d x 2.

    The (4|Q0|)^2 torsion-diagonal grid, the pole tuples over Q0 when there
    are at most 512 of them, and 16 seeded tuples, each coordinate a pole
    or two draws with even odds.
    """
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
    return np.concatenate([diagonal.reshape(m * m, d, 2), np.array(probes)])


def oracle_criterion(spec, seed=42, eps_proj=EPS_PROJ):
    """`criterion_check` on E^d, one scalar map at a time.

    The probes that map at once are found in one `map_array` pass, in
    chunks, whose rows are `CoverSpec.map`'s; a probe that does not tries
    its 3 perturbations, draws 6dk ... 6d(k+1) - 1 of Random(seed + 1) for
    probe k, in turn.
    """
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
            base = spec.map(p)
            for g in spec.group.generators:
                if base.chordal_dist(spec.map(g.apply(p))) >= eps_proj:
                    invariance_ok = False
        except (IllConditioned, SumNotZero):
            continue
        checked += 1
    if checked < 10:
        invariance_ok = False

    probes = _reference_probes(spec, seed)
    chunk = 1 << 16
    failed = np.concatenate([spec.map_array(probes[k : k + chunk])[1] for k in range(0, len(probes), chunk)])
    probe_rng = random.Random(seed + 1)
    basepoint_ok = True
    drawn = 0
    for k in np.flatnonzero(failed).tolist():
        for _ in range(6 * spec.d * (k - drawn)):
            probe_rng.random()  # the perturbations of the probes that mapped
        drawn = k + 1
        basepoint_ok &= _any_maps(spec, _perturbations(_tuple(spec.curve, probes[k]), probe_rng))
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


def _failing(monkeypatch, where):
    """Make `map_quotient` mark the rows of (E/Q0)^d where `where(coords)` holds.

    `CoverSpec.map` maps through it too, so the oracle fails at the tuples
    of E^d whose images are marked.  Returns the list of each call's marks.
    """
    original = CoverSpec.map_quotient
    marks = []

    def marked(self, coords):
        rows, failed = original(self, coords)
        marks.append(where(coords))
        return rows, failed | marks[-1]

    monkeypatch.setattr(CoverSpec, "map_quotient", marked)
    return marks


def _invariance_rows(spec):
    """How many rows the invariance check maps: 40 points and their generator images."""
    return 40 * (1 + len(spec.group.integer_generators[0]))


@pytest.mark.parametrize("construction", ["A", "B"])
def test_invariance_skips_points_that_fail_to_map(monkeypatch, construction):
    spec = _cover(construction, 2, ("1/2,0",))

    def where(coords):
        return coords[:, 0, 0] < 0.1

    marks = _failing(monkeypatch, where)
    report = criterion_check(spec)
    assert marks[0][: _invariance_rows(spec)].any()  # the invariance rows' call
    assert report.invariance_ok
    assert report == oracle_criterion(spec)


def test_invariance_fails_when_too_few_points_map(monkeypatch):
    spec = _cover("A", 2, ("1/2,0",))

    def where(coords):
        return np.any(coords[..., 0] < 0.8, axis=1)

    marks = _failing(monkeypatch, where)
    report = criterion_check(spec)
    assert marks[0][: _invariance_rows(spec)].sum() > _invariance_rows(spec) // 2
    assert not report.invariance_ok
    assert report == oracle_criterion(spec)


@pytest.mark.parametrize("construction", ["A", "B"])
def test_probe_whose_candidates_all_fail(monkeypatch, construction):
    spec = _cover(construction, 2, ("1/3,0",))

    # the first probe is the origin on the diagonal, and its perturbations
    # move each coordinate by less than 1e-3; the oracle's move each
    # coordinate of E by less than 1e-3, which phi, (s, t) -> (3s, t) for
    # Q0 = <1/3, 0>, sends less than 3e-3 from the origin of E/Q0
    def where(coords):
        return np.all(coords < 4e-3, axis=(1, 2))

    marks = _failing(monkeypatch, where)
    report = criterion_check(spec)
    assert len(marks) == 2 and all(m.any() for m in marks)  # the probes' call and the retry's
    assert report.invariance_ok and not report.basepoint_ok
    assert report == oracle_criterion(spec)


def test_maps_in_at_most_two_calls(monkeypatch):
    spec = _cover("B", 2, ("1/3,0",))
    # every probe of this cover maps; marking the origin, the first probe,
    # sends its perturbations through the second call
    marks = _failing(monkeypatch, lambda coords: np.all(coords == 0.0, axis=(1, 2)))
    calls = []
    original = CoverSpec.map_quotient

    def counted(self, coords):
        calls.append(len(coords))
        return original(self, coords)

    monkeypatch.setattr(CoverSpec, "map_quotient", counted)
    assert criterion_check(spec).all_ok
    assert len(calls) == 2 and marks[0].any()


@pytest.mark.parametrize("construction", ["A", "B"])
def test_maps_in_chunks_of_rows(monkeypatch, construction):
    spec = _cover(construction, 2, ("1/3,0",))
    probes = _probes(spec)
    rows, failed = spec.map_quotient(probes)
    whole = criterion_check(spec)
    calls = []
    original = CoverSpec.map_quotient

    def counted(self, coords):
        calls.append(len(coords))
        return original(self, coords)

    monkeypatch.setattr(CoverSpec, "map_quotient", counted)
    monkeypatch.setattr(covers, "_CHUNK_ROWS", 7)
    # the diagonal probes as their points, which the chunks expand
    chunked, chunked_failed = covers._map_in_chunks(spec, list(_probe_points(spec)), len(probes))
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


#: the paper's family past the probe bound that the criterion had on E^d,
#: (4|Q0|)^2 <= 2^18: balanced subgroups of order 257 at d = 1 and 129 at d = 2
FAMILY = [
    (construction, d, generator)
    for construction in "AB"
    for d, generator in ((1, "239/257,1/257"), (2, "58/129,1/129"))
]
FAMILY_IDS = [f"{c}-d{d}-{g}" for c, d, g in FAMILY]


@pytest.mark.parametrize("seed", [3, 42])
@pytest.mark.parametrize(
    "construction,d,generator",
    [pytest.param("B", 3, f"1/{n},0", id=str(n)) for n in range(2, 8)]
    + [pytest.param(*case, id=i) for case, i in zip(FAMILY, FAMILY_IDS)],
)
def test_paper_family_passes_the_criterion(construction, d, generator, seed):
    # construction B at d = 3 on Q0 = <1/n, 0>, whose torsion-diagonal
    # probes on E^d repeated one point up to 4 times, and the balanced
    # subgroups past the old probe bound: the bundle is base-point-free
    assert criterion_check(_cover(construction, d, (generator,)), seed=seed).all_ok


@pytest.mark.parametrize("construction,d,generator", FAMILY, ids=FAMILY_IDS)
def test_paper_family_criterion_equals_the_e_d_loop(construction, d, generator):
    # the E^d reference maps (4|Q0|)^2 = 266,256 and 1,056,784 grid probes
    spec = _cover(construction, d, (generator,))
    assert criterion_check(spec) == oracle_criterion(spec) == CriterionReport(True, True, True, True)


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
    """The probes on E/Q0 built one `TorusPoint` tuple per probe, then laid out by `coords_array`.

    The diagonal runs over the images of E[4|Q0|]'s grid under the
    isogeny, which land on multiples of 1/D, D = 4N^2, sorted by (b, a);
    then the origin and the 16 seeded tuples.
    """
    target = spec.quotient.target
    m, den = 4 * spec.q0.order, 4 * spec.q0.denominator**2
    grid = np.stack(np.meshgrid(np.arange(m) / m, np.arange(m) / m, indexing="ij"), axis=-1)
    image = map_coords(spec.quotient, grid.reshape(-1, 2)) * den
    assert np.abs(image - np.rint(image)).max() < 1e-9 * den
    keys = {(b % den, a % den) for a, b in np.rint(image).astype(int).tolist()}
    origin = TorusPoint(target, 0.0, 0.0)
    probes = [(TorusPoint(target, a / den, b / den),) * spec.d for b, a in sorted(keys)]
    probes.append((origin,) * spec.d)
    rng = random.Random(seed)
    for _ in range(16):
        probes.append(
            tuple(
                origin if rng.random() < 0.5 else TorusPoint.from_coords(target, rng.random(), rng.random())
                for _ in range(spec.d)
            )
        )
    return coords_array(probes)


PROBE_COVERS = [
    (d, q0) for d in (1, 2, 3) for q0 in (("1/2,0",), ("1/3,0",), ("1/2,0", "0,1/2"))
] + [
    (3, ("1/3,0", "0,1/3")),  # 9^3 > 512: the E^d probes had no pole tuples
    (1, ("1/9,1/3",)),  # a Hermite basis (9, 3, 1, 3): -Nb mod Nc != Nb
    (2, ("4/17,1/17",)),
]


@pytest.mark.parametrize("d,q0", PROBE_COVERS, ids=[f"d{d}-{'+'.join(q)}" for d, q in PROBE_COVERS])
def test_probes_equal_the_torus_point_probes(d, q0):
    spec = _cover("A", d, q0)
    for seed in (3, 42):
        probes = _probes(spec, seed)
        assert probes.tobytes() == _torus_point_probes(spec, seed).tobytes()
    assert len(probes) == 16 * spec.q0.order + 17
    # the diagonal probes are held as their points, whatever d is
    assert _probe_points(spec)[0].shape == (16 * spec.q0.order, 2)


@pytest.mark.parametrize("construction", ["A", "B"])
@pytest.mark.parametrize("marked", [None, 5, -1], ids=["none", "early-diagonal", "last-random"])
def test_perturbations_are_drawn_up_to_the_last_retried_probe(monkeypatch, construction, marked):
    # probe k's 3 perturbations are drawn for every probe in turn from
    # Random(seed + 1): marking probe k and exactly those three fails the
    # check only where the retry maps them.  Nothing is drawn past the last
    # retried probe, and no perturbation when no probe is marked.
    spec = _cover(construction, 2, ("1/3,0",))
    seed = 42
    probes = _probes(spec, seed)
    rows = np.empty((0, spec.d, 2))
    if marked is not None:
        k = marked % len(probes)
        rng = random.Random(seed + 1)
        for row in probes[: k + 1].tolist():
            point = _tuple(spec.quotient.target, row)
            candidates = _perturbations(point, rng)
        rows = coords_array([point, *candidates])

    def where(coords):
        return (coords[:, None] == rows[None]).all(axis=(2, 3)).any(axis=1)

    marks = _failing(monkeypatch, where)
    shapes = []
    original = covers._draw

    def spy(rng, *shape):
        shapes.append(shape)
        return original(rng, *shape)

    monkeypatch.setattr(covers, "_draw", spy)
    report = criterion_check(spec, seed=seed)
    assert report.basepoint_ok == (marked is None)
    assert [int(m.sum()) for m in marks] == ([0] if marked is None else [1, 3])
    assert shapes == [(40, spec.d, 2)] + ([] if marked is None else [(k + 1, 3, spec.d, 2)])


def _concatenated_points(spec, seed):
    """The points `criterion_check` maps: the invariance rows after the isogeny, then the probes."""
    start = covers._draw(random.Random(seed), 40, spec.d, 2)
    moved = covers.move(covers.pack(*spec.group.integer_generators), start)
    moved = np.concatenate([start[:, None], moved], axis=1).reshape(-1, spec.d, 2)
    return np.concatenate([map_coords(spec.quotient, moved), _torus_point_probes(spec, seed)])


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
    # the invariance rows, mapped to (E/Q0)^d, and the probes are the
    # pieces of one array, the diagonal probes given by their points: put
    # together, bit for bit the rows that g maps
    spec = _cover(construction, d, q0)
    mapped = []
    original = covers._map_in_chunks

    def spy(spec, pieces, keep):
        mapped.append(np.concatenate([np.repeat(p[:, None], spec.d, axis=1) if p.ndim == 2 else p for p in pieces]))
        return original(spec, pieces, keep)

    monkeypatch.setattr(covers, "_map_in_chunks", spy)
    criterion_check(spec, seed=3)
    expected = _concatenated_points(spec, 3)
    assert mapped[0].shape == expected.shape
    assert mapped[0].tobytes() == expected.tobytes()


def _with_base_points(monkeypatch, p0):
    """Make `map_quotient` at d = 1 the map g' = h g, h = t - t(p0), whose base points are +-p0 on E/Q0.

    h is taken in homogeneous form, num * den(p0) - num(p0) * den, so it is
    finite at the pole and exactly zero at p0 itself; each row, multiplied
    by it, is normalized again, and a zero row fails to map.
    """
    original = CoverSpec.map_quotient

    def map_quotient(self, coords):
        rows, failed = original(self, coords)
        lattice = self.quotient.target
        num, den = t_series_array(lattice, coords[:, 0, 0], coords[:, 0, 1], derivative=False)
        num0, den0 = t_series_array(lattice, np.array([p0[0]]), np.array([p0[1]]), derivative=False)
        rows, zero = normalize_rows(rows * (num * den0 - num0 * den)[:, None])
        return rows, failed | zero

    monkeypatch.setattr(CoverSpec, "map_quotient", map_quotient)


#: (1/4, 0) is a probe, in (E/Q0)[4]; (0.3, 0.1) is not
BASE_POINTS = [(0.25, 0.0), (0.3, 0.1)]


@pytest.mark.parametrize("construction", ["A", "B"])
@pytest.mark.parametrize("p0", BASE_POINTS, ids=["probe", "off-probe"])
def test_base_point_controls_fail_only_at_their_base_points(monkeypatch, construction, p0):
    spec = _cover(construction, 1, ("1/3,0",))
    # p0 itself, the pole, a generic point and a point 1e-3 from p0; -p0
    # zeroes h only up to rounding, as t(-p0) = t(p0) holds only so
    ys = np.array([[p0], [(0.0, 0.0)], [(0.37, 0.61)], [(p0[0], p0[1] + 1e-3)]])
    plain, _ = spec.map_quotient(ys)
    _with_base_points(monkeypatch, p0)
    rows, failed = spec.map_quotient(ys)
    assert failed.tolist() == [True, False, False, False]
    assert np.abs(rows[1:] - plain[1:]).max() < 1e-12


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="basepoint_ok fails only where a probe and its 3 perturbations all fail (ROADMAP)",
)
@pytest.mark.parametrize("construction", ["A", "B"])
@pytest.mark.parametrize("p0", BASE_POINTS, ids=["probe", "off-probe"])
def test_an_isolated_base_point_fails_the_check(monkeypatch, construction, p0):
    # negative controls: g' has base points at +-p0 and is g elsewhere, as a
    # point of P^d; a check that measures base points must flag both
    _with_base_points(monkeypatch, p0)
    assert criterion_check(_cover(construction, 1, ("1/3,0",))).basepoint_ok is False


def _order_nine_b10():
    """B d=10 on <4/9,6/9> at tau = -0.425+1.5758i: d Im tau' = 15.8, which `build_cover` admits."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NotVeryAmpleWarning)
        q0 = FiniteSubgroupSpec.parse(("4/9,6/9",))
        return build_cover("B", 10, LatticeTau.from_tau(complex(-0.425, 1.5758)), q0)


#: seeds at which the order-9 B d=10 cover's criterion was run
ORDER_NINE_SEEDS = (1, 2, 3, 7, 42)


def test_order_nine_b10_verifies():
    # the samples of the false FAIL below are all generic and matched
    report = galois_verify(_order_nine_b10(), samples=10, seed=1)
    assert report.passed and all(row["generic"] and row["fiber_match"] for row in report.samples)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="false FAIL: basepoint_ok fails on a base-point-free B d=10 cover of order-9 Q0 (ROADMAP 2a, item 4)",
)
def test_order_nine_b10_is_base_point_free():
    # a positive control beside the negative ones: the bundle is base-point
    # free, yet a probe and its 3 perturbations all fail at every seed tried
    spec = _order_nine_b10()
    assert all(criterion_check(spec, seed=seed).basepoint_ok for seed in ORDER_NINE_SEEDS)
