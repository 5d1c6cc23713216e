"""The two covering maps E^d -> P^d and their verification protocol.

Construction A composes the coordinatewise quotient E -> E/Q0 with wp and the
symmetric-product identification Sym^d(P^1) = P^d.  Construction B sends a
tuple to the degree-(d+1) sum-zero divisor it spans on E/Q0 and returns the
coordinates of the matching section of O((d+1)[0]).  `galois_verify` checks,
on seeded random samples, that the associated group acts simply transitively
on fibers; `criterion_check` confirms the order identity, projective
invariance, and base-point-freeness probes.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .batch import (
    _frac_array,
    close_pairs,
    coords_array,
    divisors_to_coords,
    images,
    map_coords,
    norm_pairs,
    orbit_indices,
    stabilizer_indices,
    sym_product_rows,
    wp_series_array,
)
from .construction import (  # noqa: F401 - re-exported
    MAX_QUOTIENT_IM_TAU,
    CoverSpec,
    build_cover,
    degree_identity,
    very_ample_preconditions,
)
from .elliptic import EPS_NUM, EPS_PROJ, EPS_PT, TorusPoint, reduce_point, wp, wp_inverse
from .errors import (
    ConfigError,
    HighMultiplicity,
    IllConditioned,
    InvalidPoint,
    NonGenericTarget,
    SumNotZero,
)
from .groups import PointTuple
from .symfun import (
    ProjectivePoint,
    divisor_to_coords,
    projective_spread,
    section_zeros,
    sym_fiber,
    sym_product,
)

#: tolerance for declaring a fiber target non-generic (root collisions,
#: branch values) and for matching recovered fibers against orbits; looser
#: than eps_pt because fibers pass through polynomial root-finding
EPS_GENERIC = 1e-6


def map_A(spec: CoverSpec, point: PointTuple) -> ProjectivePoint:
    """Coordinatewise wp on E/Q0, then the symmetric product into P^d.

    Total on all of E^d: poles enter as the P^1 point (1:0) and the
    symmetric product of homogeneous pairs stays well-defined.
    """
    target = spec.quotient.target
    pairs = [wp(reduce_point(p.z, target)) for p in point]
    return sym_product(pairs)


def map_B(spec: CoverSpec, point: PointTuple) -> ProjectivePoint:
    """Divisor-of-sections map: y_i = images in E/Q0, y_(d+1) = -sum y_i.

    Propagates HighMultiplicity / IllConditioned on non-generic inputs whose
    divisor collides beyond what the evaluation matrix supports.
    """
    ys = [spec.quotient.map(p) for p in point]
    total = ys[0]
    for y in ys[1:]:
        total = total + y
    ys.append(-total)
    return divisor_to_coords(ys, spec.basis)


def map_A_array(spec: CoverSpec, coords: np.ndarray) -> np.ndarray:
    """`map_A` on N point tuples at once: one series pass over all N*d coordinates."""
    ys = map_coords(spec.quotient, coords)
    num, den = wp_series_array(spec.quotient.target, ys[..., 0], ys[..., 1], derivative=False)
    return sym_product_rows(*norm_pairs(num, den))


def map_B_array(spec: CoverSpec, coords: np.ndarray) -> np.ndarray:
    """`map_B` on N point tuples at once, through `divisors_to_coords`."""
    ys = map_coords(spec.quotient, coords)
    total = ys[:, 0]
    for k in range(1, spec.d):
        total = _frac_array(total + ys[:, k])
    divisors = np.concatenate([ys, _frac_array(-total)[:, None]], axis=1)
    return divisors_to_coords(divisors, spec.basis)


def _arrangements(lift_sets: list[list[TorusPoint]], d: int) -> list[PointTuple]:
    """Every d-tuple that takes one point from each of d distinct lift sets, in order."""
    return [
        tuple(choice)
        for arrangement in itertools.permutations(range(len(lift_sets)), d)
        for choice in itertools.product(*(lift_sets[i] for i in arrangement))
    ]


def fiber_A(spec: CoverSpec, target: ProjectivePoint) -> list[PointTuple]:
    """All d!(2|Q0|)^d preimages of a generic target of construction A.

    The binary form is factored into d distinct P^1 roots; each root pulls
    back through wp to a +-w pair on E/Q0 and through the isogeny to |Q0|
    lifts each.  Raises NonGenericTarget on repeated roots, roots at
    infinity, or roots at branch values e_i.
    """
    if spec.construction != "A":
        raise ConfigError("fiber_A needs a construction-A cover")
    lattice = spec.quotient.target
    roots = sym_fiber(target)
    if sum(m for _, m in roots) != spec.d or any(m > 1 for _, m in roots):
        raise NonGenericTarget("repeated roots in the target binary form")
    values = []
    for pair, _ in roots:
        if abs(pair.den) <= EPS_GENERIC:
            raise NonGenericTarget("root at infinity is a branch value of wp")
        values.append(pair.num / pair.den)
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if abs(values[i] - values[j]) <= EPS_GENERIC * (1.0 + abs(values[i])):
                raise NonGenericTarget("two roots collide")
    for x in values:
        if any(abs(x - e) <= EPS_GENERIC * (1.0 + abs(e)) for e in lattice.branch_values):
            raise NonGenericTarget(f"root {x:.6g} sits at a branch value")
    lift_sets: list[list[TorusPoint]] = []
    for x in values:
        w_plus, w_minus = wp_inverse(x, lattice)
        lifts = spec.quotient.lifts(w_plus) + spec.quotient.lifts(w_minus)
        lift_sets.append(lifts)
    return _arrangements(lift_sets, spec.d)


def fiber_B(spec: CoverSpec, target: ProjectivePoint) -> list[PointTuple]:
    """All (d+1)!|Q0|^d preimages of a generic target of construction B.

    The target's section vanishes on a sum-zero divisor of d+1 points of
    E/Q0; a preimage arranges d of them in order and lifts each through the
    isogeny to one of its |Q0| preimages.  Raises NonGenericTarget when the
    divisor has a repeated point.
    """
    if spec.construction != "B":
        raise ConfigError("fiber_B needs a construction-B cover")
    zeros = section_zeros(target, spec.basis)
    if any(m > 1 for _, m in zeros):
        raise NonGenericTarget("repeated point in the target divisor")
    divisor = sorted((y for y, _ in zeros), key=TorusPoint.sort_key)
    return _arrangements([spec.quotient.lifts(y) for y in divisor], spec.d)


@dataclass(frozen=True)
class SampleRecord:
    index: int
    point: PointTuple
    generic: bool
    stabilizer_size: int
    orbit_size: int
    image_spread: float
    fiber_match: bool

    def passes(self, group_order: int, eps_proj: float) -> bool:
        """Pass condition for a generic sample; non-generic records are excluded."""
        return (
            self.orbit_size == group_order
            and self.image_spread < eps_proj
            and self.fiber_match
        )


@dataclass(frozen=True)
class CriterionReport:
    order_ok: bool
    invariance_ok: bool
    basepoint_ok: bool
    very_ample: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.order_ok
            and self.invariance_ok
            and self.basepoint_ok
            and self.very_ample
        )


@dataclass(frozen=True)
class VerificationReport:
    construction: str
    group_order: int
    seed: int
    tolerances: dict
    samples: tuple[SampleRecord, ...]
    passed: bool


def _match_as_sets(left: np.ndarray, right: np.ndarray, tol: float) -> bool:
    """Multiset equality of point tuples given by coordinates, shape N x d x 2.

    Compared in the toroidal sup metric, greedily: each left tuple in turn
    takes the earliest unmatched right tuple within tol.  When every tuple
    has exactly one partner within tol on the other side, the greedy match
    pairs them all; when some tuple has none, it fails.  Only other cases,
    where the greedy order decides, walk the left tuples through the pairs
    `close_pairs` found.
    """
    if len(left) != len(right):
        return False
    i, j = close_pairs(left, right, tol)
    left_hits = np.bincount(i, minlength=len(left))
    right_hits = np.bincount(j, minlength=len(right))
    if np.all(left_hits == 1) and np.all(right_hits == 1):
        return True
    if np.any(left_hits == 0) or np.any(right_hits == 0):
        return False
    free = np.ones(len(right), dtype=bool)
    for partners in np.split(j, np.cumsum(left_hits)[:-1]):
        partners = partners[free[partners]]
        if not len(partners):
            return False
        free[partners.min()] = False
    return True


def _verify_sample(
    spec: CoverSpec, point: PointTuple, index: int, eps_pt: float
) -> SampleRecord:
    """One sample of the protocol: stabilizer, orbit, spread, fiber vs orbit.

    The stabilizer and the orbit both come from one array of the |G|
    images, and the orbit stays an array of coordinates, mapped in one
    batch; the fiber target is the point's own row of that batch.  A
    sample whose target is not a generic value of the map, for either
    construction, is recorded as non-generic rather than failed.
    """
    found = images(spec.group, point)
    stab = stabilizer_indices(found, point, eps_pt)
    generic = len(stab) == 1
    orbit = found[orbit_indices(found, eps_pt)]
    fiber_match = False
    spread = math.inf
    try:
        mapped = spec.map_array(orbit)
        spread = projective_spread(mapped)
        if generic:
            # the identity's image is the point itself, bit for bit, and for
            # a generic point no other image equals it
            here = np.all(orbit == coords_array([point])[0], axis=(1, 2))
            fiber = spec.fiber(ProjectivePoint(tuple(mapped[here][0].tolist())))
            fiber_match = _match_as_sets(coords_array(fiber), orbit, EPS_GENERIC)
    except (NonGenericTarget, HighMultiplicity, IllConditioned, SumNotZero, InvalidPoint):
        generic = False
    return SampleRecord(
        index=index,
        point=point,
        generic=generic,
        stabilizer_size=len(stab),
        orbit_size=len(orbit),
        image_spread=spread,
        fiber_match=fiber_match,
    )


def galois_verify(
    spec: CoverSpec,
    samples: int = 20,
    seed: int = 42,
    eps_pt: float = EPS_PT,
    eps_proj: float = EPS_PROJ,
    jobs: int = 1,
) -> VerificationReport:
    """Simple-transitivity protocol on seeded random samples.

    Per sample: the stabilizer must be trivial (genericity certificate), the
    orbit must have exactly |G| points, the map must be constant on the orbit
    within eps_proj, and the independent fiber computation must agree with
    the orbit.  Non-generic samples are recorded and excluded from pass/fail.
    """
    rng = random.Random(seed)
    points = [
        tuple(
            TorusPoint.from_coords(spec.curve, rng.random(), rng.random())
            for _ in range(spec.d)
        )
        for _ in range(samples)
    ]
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            records = list(
                pool.map(
                    lambda args: _verify_sample(spec, args[1], args[0], eps_pt),
                    enumerate(points),
                )
            )
    else:
        records = [
            _verify_sample(spec, p, i, eps_pt) for i, p in enumerate(points)
        ]

    generic_records = [r for r in records if r.generic]
    passed = bool(generic_records) and all(
        r.passes(spec.group.order, eps_proj) for r in generic_records
    )
    return VerificationReport(
        construction=spec.construction,
        group_order=spec.group.order,
        seed=seed,
        tolerances={"eps_pt": eps_pt, "eps_proj": eps_proj, "eps_num": EPS_NUM},
        samples=tuple(records),
        passed=passed,
    )


def _probe_points(
    spec: CoverSpec, seed: int = 42
) -> list[PointTuple]:
    """Base-point probe grid: torsion diagonals, pole patterns, seeded tuples.

    Includes every 4|Q0|-torsion point of E on the diagonal (all of E[4|Q0|]^d
    would be exponential; the diagonal meets every coordinate degeneration),
    all pole configurations (tuples over Q0, where the construction-A factors
    hit poles), and seeded random tuples mixing pole and generic coordinates.
    """
    curve = spec.curve
    d = spec.d
    rng = random.Random(seed)
    probes: list[PointTuple] = []
    m = 4 * spec.q0.order
    for i in range(m):
        for j in range(m):
            p = TorusPoint(curve, i / m, j / m)
            probes.append(tuple(p for _ in range(d)))
    pole_coords = spec.q0.points_on(curve)
    if len(pole_coords) ** d <= 512:
        for combo in itertools.product(pole_coords, repeat=d):
            probes.append(tuple(combo))
    for _ in range(16):
        tup = []
        for _ in range(d):
            if rng.random() < 0.5 and pole_coords:
                tup.append(rng.choice(pole_coords))
            else:
                tup.append(
                    TorusPoint.from_coords(curve, rng.random(), rng.random())
                )
        probes.append(tuple(tup))
    return probes


def _probe_valid(spec: CoverSpec, point: PointTuple, rng: random.Random) -> bool:
    """True when the map yields a valid projective point at (or near) `point`.

    Construction B rejects divisor collisions outright, so degenerate probe
    configurations are retried under a small seeded perturbation; the bundle
    is base-point-free, so nearby evaluations must stay valid.
    """
    candidates = [point]
    for _ in range(3):
        delta = 1e-3
        candidates.append(
            tuple(
                TorusPoint.from_coords(
                    spec.curve,
                    p.a + delta * rng.random(),
                    p.b + delta * rng.random(),
                )
                for p in point
            )
        )
    for cand in candidates:
        try:
            image = spec.map(cand)
        except (HighMultiplicity, IllConditioned, SumNotZero):
            continue
        except InvalidPoint:
            return False
        return max(abs(c) for c in image.coords) > 0
    return False


def criterion_check(
    spec: CoverSpec, seed: int = 42, eps_proj: float = EPS_PROJ
) -> CriterionReport:
    """The three cover-criterion checks plus the very-ampleness flag.

    (1) |G| = d! chi(L) times the isogeny factor, exactly; (2) the map is
    projectively invariant under every generator at 10 seeded points; (3)
    the map evaluates to a valid projective point across the probe grid.
    """
    expected = degree_identity(spec.construction, spec.polarization, spec.q0)
    order_ok = spec.group.order == expected

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
                moved = spec.map(g.apply(p))
                if base.chordal_dist(moved) >= eps_proj:
                    invariance_ok = False
        except (HighMultiplicity, IllConditioned, SumNotZero):
            continue
        checked += 1
    if checked < 10:
        invariance_ok = False

    probe_rng = random.Random(seed + 1)
    basepoint_ok = all(
        _probe_valid(spec, probe, probe_rng) for probe in _probe_points(spec, seed)
    )
    return CriterionReport(
        order_ok=order_ok,
        invariance_ok=invariance_ok,
        basepoint_ok=basepoint_ok,
        very_ample=spec.very_ample,
    )
