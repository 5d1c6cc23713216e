"""The two covering maps E^d -> P^d and their verification protocol.

Construction A composes the coordinatewise quotient E -> E/Q0 with the
centred coordinate t = wp - e2 and the symmetric-product identification
Sym^d(P^1) = P^d.  Construction B sends a
tuple to the degree-(d+1) sum-zero divisor it spans on E/Q0 and returns the
coordinates of the matching section of O((d+1)[0]).  Both maps work on
stacks of point tuples; `CoverSpec.map` maps one tuple as a stack of one.
`galois_verify` checks, on seeded random samples, that the associated group
acts simply transitively on fibers; `criterion_check` confirms the order
identity, projective invariance, and base-point-freeness probes.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

import numpy as np

from .batch import (
    _frac_array,
    divisors_to_coords,
    lift_coords,
    map_coords,
    move,
    pack,
    section_zeros_array,
    stabilizer_mask,
    t_series_array,
    two_torsion,
    wp_inverse_array,
)
from .construction import (  # noqa: F401 - re-exported
    MAX_QUOTIENT_IM_TAU,
    MAX_QUOTIENT_IM_TAU_B3,
    CoverSpec,
    build_cover,
    check_run_bounds,
    degree_identity,
    very_ample_preconditions,
)
from .elliptic import EPS_GENERIC, EPS_NUM, EPS_PROJ, EPS_PT, TorusPoint
from .errors import ConfigError, InvalidPoint, NonGenericTarget
from .groups import PointTuple, _identity
from .polarization import _Frozen
from .symfun import ProjectivePoint, normalize_rows, projective_spreads, sym_fibers, sym_product


def map_A_array(spec: CoverSpec, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinatewise t = wp - e2, then the symmetric product into P^d, for N point tuples of (E/Q0)^d.

    One kernel pass over all N*d coordinates.  Total on all of (E/Q0)^d:
    poles enter as the P^1 point (1:0), and the symmetric product of
    homogeneous pairs stays well-defined.  t differs from wp by a
    translation of P^1, which changes neither the deck group nor the fibers.
    """
    num, den = t_series_array(spec.quotient.target, ys[..., 0], ys[..., 1], derivative=False)
    pairs, _ = normalize_rows(np.stack([num.ravel(), den.ravel()], axis=1))
    return sym_product(*pairs.T.reshape(2, *num.shape))


def map_B_array(spec: CoverSpec, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divisor-of-sections map on N point tuples of (E/Q0)^d, through `divisors_to_coords`.

    A tuple's divisor is y_1, ..., y_d, -sum y_i.  Rows whose section
    system is degenerate are marked failed.
    """
    total = ys[:, 0]
    for k in range(1, spec.d):
        total = _frac_array(total + ys[:, k])
    divisors = np.concatenate([ys, _frac_array(-total)[:, None]], axis=1)
    return divisors_to_coords(divisors, spec.basis)


@functools.cache
def _arrangement(d: int, sets: int, per: int) -> np.ndarray:
    """(set, lift) indices, T x 2 x d, of every d-tuple taking a lift from d of `sets` sets, in order.

    Each set holds `per` lifts.
    """
    return np.array(
        list(
            itertools.product(
                itertools.permutations(range(sets), d), itertools.product(range(per), repeat=d)
            )
        )
    ).reshape(-1, 2, d)


def _arrange(spec: CoverSpec, points: np.ndarray) -> np.ndarray:
    """The fibers on E, N x T x d x 2, of the point sets on E/Q0, N x sets x per x 2: every arrangement of their lifts."""
    lifts = lift_coords(spec.quotient, points)
    lifts = lifts.reshape(*lifts.shape[:2], -1, 2)
    table = _arrangement(spec.d, *lifts.shape[1:3])
    return lifts[:, table[:, 0], table[:, 1]]


def _quotient_points_A(spec: CoverSpec, targets: np.ndarray) -> tuple[np.ndarray, list]:
    """Construction A's fibers on E/Q0: per target, its d roots' +-w pairs, N x d x 2 x 2, and its reason.

    Each binary form is factored into d distinct P^1 roots t; each root
    pulls back through t to the pair w, -w in (a, b) order.  Repeated
    roots, a root at infinity or a root whose w is 2-torsion make a target
    non-generic; its row holds nan.  t scales as s^-2 with the quotient's
    scale s, so a root is at infinity where |t| |s|^2 >= 1/EPS_GENERIC.
    """
    lattice = spec.quotient.target
    unit = EPS_GENERIC * abs(lattice.scale) ** 2
    reasons, values = [], []
    for roots in sym_fibers(targets):
        if any(m > 1 for _, m in roots):
            reasons.append("repeated roots in the target binary form")
        elif any(abs(t) * unit >= 1 for t, _ in roots):
            reasons.append("root at infinity is a branch value of wp")
        else:
            reasons.append(None)
            values.append([t for t, _ in roots])
    rows = np.flatnonzero([r is None for r in reasons])
    x = np.array(values, dtype=complex).reshape(-1, spec.d)
    w_plus, w_minus = wp_inverse_array(x.ravel(), lattice)
    branch = two_torsion(lattice, w_plus).reshape(x.shape)
    for k, row in enumerate(branch.tolist()):
        if any(row):
            reasons[rows[k]] = f"root t = {values[k][row.index(True)]:.6g} sits at a branch value"
    pairs = np.stack([w_plus, w_minus], axis=1).reshape(-1, spec.d, 2, 2)
    points = np.full((len(targets), spec.d, 2, 2), np.nan)
    points[rows] = np.where(branch.any(axis=1)[:, None, None, None], np.nan, pairs)
    return points, reasons


def _quotient_points_B(spec: CoverSpec, targets: np.ndarray) -> tuple[np.ndarray, list]:
    """Construction B's fibers on E/Q0: per target, its section's zero divisor, N x (d+1) x 1 x 2, and its reason.

    The d+1 points come in (a, b) order.  A repeated point makes a target
    non-generic; its row holds nan.
    """
    points, mults = section_zeros_array(targets, spec.basis)
    repeated = np.any(mults > 1, axis=1)
    order = np.lexsort((points[..., 1], points[..., 0]), axis=-1)
    divisor = np.take_along_axis(points, order[..., None], axis=1)
    divisor[repeated] = np.nan
    reasons = ["repeated point in the target divisor" if r else None for r in repeated.tolist()]
    return divisor[:, :, None], reasons


def _quotient_points(spec: CoverSpec, targets: np.ndarray) -> tuple[np.ndarray, list]:
    """The fibers on E/Q0 of N targets, with their reasons: `_quotient_points_A` or `_quotient_points_B`."""
    return (_quotient_points_A if spec.construction == "A" else _quotient_points_B)(spec, targets)


def _one_row(spec: CoverSpec, target: ProjectivePoint, construction: str) -> list[PointTuple]:
    """The fiber of one generic target, one row of `CoverSpec.fiber_array`; NonGenericTarget with its reason.

    Raises ConfigError unless the cover is of the given construction, and
    InvalidPoint unless the target has d+1 coordinates that `normalize_rows`
    accepts: finite and not all zero.
    """
    if spec.construction != construction:
        raise ConfigError(f"fiber_{construction} needs a construction-{construction} cover")
    row = np.array([target.coords], dtype=complex)
    if row.shape[1] != spec.d + 1 or normalize_rows(row)[1][0]:
        raise InvalidPoint(f"fiber_{construction} needs a point of P^{spec.d}, got {target.coords!r}")
    coords, (reason,) = spec.fiber_array(row)
    if reason is not None:
        raise NonGenericTarget(reason)
    return [tuple(TorusPoint(spec.curve, a, b) for a, b in t) for t in coords[0].tolist()]


def fiber_A(spec: CoverSpec, target: ProjectivePoint) -> list[PointTuple]:
    """All d!(2|Q0|)^d preimages of a generic target of construction A.

    Each root's +-w pair on E/Q0 (`_quotient_points_A`) lifts through the
    isogeny to 2|Q0| points, and the d roots are arranged in every order.
    """
    return _one_row(spec, target, "A")


def fiber_B(spec: CoverSpec, target: ProjectivePoint) -> list[PointTuple]:
    """All (d+1)!|Q0|^d preimages of a generic target of construction B.

    A target's section vanishes on a sum-zero divisor of d+1 points of
    E/Q0 (`_quotient_points_B`); a preimage arranges d of them in order and
    lifts each through the isogeny to one of its |Q0| preimages.
    """
    return _one_row(spec, target, "B")


class SampleRecord(_Frozen):
    index: int
    point: PointTuple
    generic: bool
    stabilizer_size: int
    orbit_size: int
    image_spread: float
    fiber_match: bool

    def __init__(
        self,
        index: int,
        point: PointTuple,
        generic: bool,
        stabilizer_size: int,
        orbit_size: int,
        image_spread: float,
        fiber_match: bool,
    ):
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "generic", generic)
        object.__setattr__(self, "stabilizer_size", stabilizer_size)
        object.__setattr__(self, "orbit_size", orbit_size)
        object.__setattr__(self, "image_spread", image_spread)
        object.__setattr__(self, "fiber_match", fiber_match)

    def passes(self, eps_proj: float) -> bool:
        """Pass condition for a generic sample, whose orbit has |G| points; non-generic records are excluded."""
        return self.image_spread < eps_proj and self.fiber_match


class CriterionReport(_Frozen):
    order_ok: bool
    invariance_ok: bool
    basepoint_ok: bool
    very_ample: bool

    @property
    def all_ok(self) -> bool:
        return all(self._key())


class VerificationReport(_Frozen):
    construction: str
    group_order: int
    seed: int
    tolerances: dict
    samples: tuple[SampleRecord, ...]
    passed: bool


def _fiber_match(spec: CoverSpec, images: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Whether each of N samples' recovered points on (E/Q0)^d, N x d x 2, lies within EPS_GENERIC of one of its images.

    `images` holds each sample's |L| images, N x |L| x d x 2, compared by
    `stabilizer_mask` on E/Q0.  A generic sample's images are |L| distinct
    points of its fiber of g, so when |L| is that fiber's size,
    d! 2^d for A and (d+1)! for B, they are the whole fiber, and a point
    recovered from the target alone lies among them exactly when L acts
    simply transitively on it.  G then acts so on the fibers of f, their
    phi-preimages, when it is L x| Q0^d (`CoverSpec.decomposed`).
    Otherwise no sample matches.
    """
    sets, per = (spec.d, 2) if spec.construction == "A" else (spec.d + 1, 1)
    if spec.group.linear.order != math.perm(sets, spec.d) * per**spec.d or not spec.decomposed:
        return np.zeros(len(points), dtype=bool)
    return stabilizer_mask(images, points, EPS_GENERIC).any(axis=1)


#: images per chunk of `galois_verify`: consecutive samples are verified
#: together, in numpy passes over at most this many rows or one sample's.
#: Larger chunks save no more time per sample, and the passes' temporaries
#: grow with them.
_CHUNK_ROWS = 1 << 10


def _draw(rng: random.Random, *shape: int) -> np.ndarray:
    """The next prod(shape) `rng.random()` values, in order, as an array of that shape.

    Every seeded coordinate comes from here but the 16 seeded tuples of
    `_probe_points`, which draw from their own `random.Random(seed)`.  A draw
    lies in [0, 1), where `_frac` is the identity, so a row (a, b) equals
    `TorusPoint.from_coords(curve, rng.random(), rng.random())` bit for bit.
    """
    n = math.prod(shape)
    return np.fromiter((rng.random() for _ in range(n)), float, count=n).reshape(shape)


def _verify_chunk(
    spec: CoverSpec, coords: np.ndarray, first: int, eps_pt: float, own: int
) -> list[SampleRecord]:
    """Samples first, first + 1, ... of the protocol, in numpy passes over all their images on (E/Q0)^d.

    `coords` holds the samples' points x, N x d x 2, each mapped once to
    y = phi(x).  (M, t) fixes x exactly when M fixes y (t = x - Mx then
    lies in ker phi), so stabilizers come from one array of the |L| images
    My of each y, and an orbit's size is |G| over its stabilizer's.  All
    images are mapped by g as one stack and their spreads taken in one
    `projective_spreads` call.  A generic sample's target is its identity
    row, g(y) = f(x), at `own`, the identity's index in sorted L; one point
    is recovered from each target alone, all as one stack, and compared
    with the sample's images (`_fiber_match`).
    Each mapped row and recovered point depends on its own tuple alone, so
    a record does not depend on its chunk.  A sample with an image that the
    map marks failed, or whose target is not a generic value of the map,
    is non-generic, not failed.
    """
    count, linear = len(coords), spec.group.linear
    ys = map_coords(spec.quotient, coords)
    found = move(linear._packed, ys)
    stabilizer = np.count_nonzero(stabilizer_mask(found, ys, eps_pt), axis=1)
    owner = np.repeat(np.arange(count), linear.order)
    mapped, failed = spec.map_quotient(found.reshape(-1, spec.d, 2))
    failed = np.bincount(owner, weights=failed, minlength=count) > 0
    spread = projective_spreads(mapped, owner, failed)
    generic = (stabilizer == 1) & ~failed
    matched = np.zeros(count, dtype=bool)
    samples = np.flatnonzero(generic)
    if len(samples):
        # the identity's image is y itself, bit for bit
        targets = mapped.reshape(count, linear.order, -1)[samples, own]
        points, reasons = _quotient_points(spec, targets)
        recovered = np.array([r is None for r in reasons], dtype=bool)
        generic[samples[~recovered]] = False
        samples = samples[recovered]
        # the recovered tuple: each set's first point
        matched[samples] = _fiber_match(spec, found[samples], points[recovered, : spec.d, 0])
    return [
        SampleRecord(
            index=first + s,
            point=tuple(TorusPoint(spec.curve, a, b) for a, b in row),
            generic=g,
            stabilizer_size=stab,
            orbit_size=spec.group.order // stab,
            image_spread=worst,
            fiber_match=g and m,
        )
        for s, (row, g, stab, worst, m) in enumerate(
            zip(*(a.tolist() for a in (coords, generic, stabilizer, spread, matched)))
        )
    ]


def galois_verify(
    spec: CoverSpec,
    samples: int = 20,
    seed: int = 42,
    eps_pt: float = EPS_PT,
    eps_proj: float = EPS_PROJ,
    jobs: int = 1,
) -> VerificationReport:
    """Simple-transitivity protocol on seeded random samples.

    Per sample x, on y = phi(x) in (E/Q0)^d and its images under the linear
    part L of the deck group: the stabilizer must be trivial (genericity
    certificate), so that the orbit has |G| points; g must be constant on
    the images within eps_proj; and one point recovered from the sample's
    image alone must lie among them, with |L| the exact size of g's fibers
    and the group L x| Q0^d, exactly (`_fiber_match`).  Non-generic samples
    are recorded and excluded from pass/fail.
    Samples are verified in chunks of `_CHUNK_ROWS` images (`_verify_chunk`),
    which at most `jobs` threads share out.  Raises ConfigError, before any
    draw, unless all four values lie in their bounds (`check_run_bounds`).
    """
    check_run_bounds(samples, jobs, eps_pt, eps_proj)
    coords = _draw(random.Random(seed), samples, spec.d, 2)
    size = max(1, _CHUNK_ROWS // spec.group.linear.order)
    starts = range(0, samples, size)
    own = spec.group.linear.matrices.index(_identity(spec.d))

    def verify(first: int) -> list[SampleRecord]:
        return _verify_chunk(spec, coords[first : first + size], first, eps_pt, own)

    workers = min(jobs, len(starts))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(verify, starts))
    else:
        chunks = [verify(first) for first in starts]
    records = [record for chunk in chunks for record in chunk]

    generic_records = [r for r in records if r.generic]
    passed = bool(generic_records) and all(
        r.passes(eps_proj) for r in generic_records
    )
    return VerificationReport(
        construction=spec.construction,
        group_order=spec.group.order,
        seed=seed,
        tolerances={"eps_pt": eps_pt, "eps_proj": eps_proj, "eps_num": EPS_NUM},
        samples=tuple(records),
        passed=passed,
    )


def _probe_points(spec: CoverSpec, seed: int = 42) -> np.ndarray:
    """Base-point probes of g on (E/Q0)^d, (16|Q0| + 17) x d x 2.

    f = g o phi has a base point at x exactly when g has one at phi(x).
    The tuples (y, ..., y), y in phi(E[m]) and m = 4|Q0|, stand for E[m]'s
    diagonal in E^d, which meets every coordinate degeneration; the origin
    for the pole tuples over Q0; 16 seeded tuples mix the origin and two
    draws, with even odds per coordinate.  phi(s, t) = (N(cs - bt)/(ac),
    Nt/c) for Q0's `hermite_basis` (N, a, b, c), so phi(E[m]) is the 16|Q0|
    points (-jNb mod Nc + iNc, jNa) / 4N^2, j < 4N/a and i < 4N/c, sorted
    by (b, a) and listed in integers.
    """
    n, a, b, c = spec.q0.hermite_basis
    j = np.arange(4 * n // a)[:, None]
    x = j * -n * b % (n * c) + np.arange(4 * n // c) * (n * c)
    points = np.zeros((x.size + 17, spec.d, 2))
    points[: x.size, :, 0] = (x / (4 * n * n)).reshape(-1, 1)
    points[: x.size, :, 1] = np.repeat(j * (n * a) / (4 * n * n), x.shape[1])[:, None]
    rng = random.Random(seed)
    points[x.size + 1 :] = [
        [(0.0, 0.0) if rng.random() < 0.5 else (rng.random(), rng.random()) for _ in range(spec.d)]
        for _ in range(16)
    ]
    return points


def _map_in_chunks(spec: CoverSpec, coords: np.ndarray, keep: int) -> tuple[np.ndarray, np.ndarray]:
    """`spec.map_quotient` of N point tuples of (E/Q0)^d, in calls of at most `_CHUNK_ROWS` rows.

    Returns the rows of the first `keep` tuples and the failure mask of all
    N.  A row depends on its own tuple alone, so the result is the single
    call's, bit for bit; only the temporaries shrink.
    """
    rows, failed = [], []
    for start in range(0, len(coords), _CHUNK_ROWS):
        part, fail = spec.map_quotient(coords[start : start + _CHUNK_ROWS])
        # a copy, so that the rows not kept are freed with their chunk
        rows.append(part[: max(keep - start, 0)].copy())
        failed.append(fail)
    return np.concatenate(rows), np.concatenate(failed)


def criterion_check(spec: CoverSpec, seed: int = 42, eps_proj: float = EPS_PROJ) -> CriterionReport:
    """The three cover-criterion checks plus the very-ampleness flag, every map on (E/Q0)^d.

    (1) |G| = d! chi(L) times the isogeny factor, exactly; (2) the map is
    projectively invariant under every generator: of 40 seeded points, the
    first 10 that map with all their generator images must each have a
    spread below eps_proj; (3) g maps each probe (`_probe_points`) or one
    of 3 seeded perturbations of it, drawn only up to the last probe that
    fails, since the bundle is base-point-free.  The points of (2) go
    through the isogeny, so that g gives f's rows bit for bit; with the
    probes, and then the perturbations, they are mapped in chunks
    (`_map_in_chunks`), keeping only the rows of (2), whose ten spreads are
    one `projective_spreads` call.  Raises ConfigError unless eps_proj is
    a finite number > 0 (`check_run_bounds`).
    """
    check_run_bounds(eps_proj=eps_proj)
    expected = degree_identity(spec.construction, spec.polarization, spec.q0)
    order_ok = spec.group.order == expected

    start = _draw(random.Random(seed), 40, spec.d, 2)
    # each point, then its images under the generators, in one pass over them all
    moved = move(pack(*spec.group.integer_generators), start)
    moved = np.concatenate([start[:, None], moved], axis=1).reshape(-1, spec.d, 2)
    points = np.concatenate([map_coords(spec.quotient, moved), _probe_points(spec, seed)])
    rows, failed = _map_in_chunks(spec, points, keep=len(moved))
    mapped = rows.reshape(len(start), -1, spec.d + 1)
    checked = np.flatnonzero(~failed[: len(moved)].reshape(len(start), -1).any(axis=1))[:10]
    owner = np.repeat(np.arange(len(checked)), mapped.shape[1])
    spreads = projective_spreads(
        mapped[checked].reshape(-1, spec.d + 1), owner, np.zeros(len(checked), dtype=bool)
    )
    invariance_ok = len(checked) == 10 and bool(np.all(spreads < eps_proj))

    retry = np.flatnonzero(failed[len(moved) :])
    basepoint_ok = True
    if len(retry):
        # probe k's 3 perturbations are draws 6dk ... 6d(k+1) - 1 of one
        # stream, each point's (a, b) shifted in turn: drawn up to the last
        # probe retried
        shifts = _draw(random.Random(seed + 1), int(retry[-1]) + 1, 3, spec.d, 2)
        perturbed = _frac_array(points[len(moved) + retry, None] + 1e-3 * shifts[retry])
        _, failed = _map_in_chunks(spec, perturbed.reshape(-1, spec.d, 2), keep=0)
        basepoint_ok = not failed.reshape(-1, 3).all(axis=1).any()
    return CriterionReport(
        order_ok=order_ok,
        invariance_ok=invariance_ok,
        basepoint_ok=basepoint_ok,
        very_ample=spec.very_ample,
    )
