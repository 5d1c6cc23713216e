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
    _wrap_dist_array,
    divisors_to_coords,
    lift_coords,
    map_coords,
    move,
    pack,
    section_zeros_array,
    t_series_array,
    two_torsion,
    wp_inverse_array,
)
from .construction import (  # noqa: F401 - re-exported
    MAX_QUOTIENT_D_IM_TAU_B,
    MAX_QUOTIENT_IM_TAU,
    CoverSpec,
    build_cover,
    check_run_bounds,
    degree_identity,
    very_ample_preconditions,
)
from .elliptic import EPS_GENERIC, EPS_NUM, EPS_PROJ, EPS_PT
from .errors import ConfigError, InvalidPoint, NoConvergence, NonGenericTarget
from .polarization import _Frozen
from .symfun import ProjectivePoint, normalize_rows, projective_spreads, sym_fibers, sym_product
from .weierstrass import PointTuple, TorusPoint


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
    non-generic; its row holds nan.  A root is at infinity where
    |t| >= 1/EPS_GENERIC.
    """
    lattice = spec.quotient.target
    reasons, values = [], []
    for roots in sym_fibers(targets):
        if any(m > 1 for _, m in roots):
            reasons.append("repeated roots in the target binary form")
        elif any(abs(t) * EPS_GENERIC >= 1 for t, _ in roots):
            reasons.append("root at infinity is a branch value of wp")
        else:
            reasons.append(None)
            values.append([t for t, _ in roots])
    rows = np.flatnonzero([r is None for r in reasons])
    x = np.array(values, dtype=complex).reshape(-1, spec.d)
    w_plus, w_minus, missed = wp_inverse_array(x.ravel(), lattice)
    if missed.any():
        raise NoConvergence(f"wp_inverse missed its residual contract at t={complex(x.ravel()[missed][0])!r}")
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
    non-generic, and so does a row that `section_zeros_array` marks lost,
    where `wp_inverse_array` misses a root t, such as a point 3e-9 to 3e-7
    from the origin at d = 2, where |t| is 1e13 to 1e17; its row holds nan.
    """
    points, mults, lost = section_zeros_array(targets, spec.basis)
    repeated = np.any(mults > 1, axis=1)
    order = np.lexsort((points[..., 1], points[..., 0]), axis=-1)
    divisor = np.take_along_axis(points, order[..., None], axis=1)
    divisor[repeated | lost] = np.nan
    reasons = [
        "divisor point too near the origin to invert t" if gone
        else "repeated point in the target divisor" if r else None
        for r, gone in zip(repeated.tolist(), lost.tolist())
    ]
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


class CriterionReport(_Frozen):
    """The flags of `criterion_check`, each a claim about the cover; `all_ok` holds when all four do.

    `order_ok`: |G| is d! chi(L) times the isogeny factor, exactly.
    `invariance_ok`: 10 seeded points of E^d map with their images under G's
    generators, and each lies within eps_proj of its images.  `basepoint_ok`:
    g maps every probe (`_probe_points`), so none is a base point.
    `very_ample`: the configuration meets `very_ample_preconditions`.
    """

    order_ok: bool
    invariance_ok: bool
    basepoint_ok: bool
    very_ample: bool

    @property
    def all_ok(self) -> bool:
        return all(self._key())


class VerificationReport(_Frozen):
    """The result of `galois_verify`: one row per sample, in the JSON report's layout.

    A row is a dict with the keys `index`, `point` (the sample's d
    coordinate pairs (a, b) on E), `generic`, `orbit_size` (|G|, or None
    for a nontrivial stabilizer), `image_spread` and `fiber_match`, in
    that order.  `passed` holds when some sample is generic and every
    generic one has a spread below eps_proj and its fiber match.
    """

    construction: str
    group_order: int
    seed: int
    tolerances: dict
    samples: tuple[dict, ...]
    passed: bool


def _assigned(close: np.ndarray) -> np.ndarray:
    """Whether each of N boolean d x m matrices gives its d rows distinct columns: a matching, by augmenting paths."""
    out = []
    for rows in close.tolist():
        owner = [None] * len(rows[0])

        def claim(k: int, seen: set) -> bool:
            for j in range(len(owner)):
                if rows[k][j] and j not in seen:
                    seen.add(j)
                    if owner[j] is None or claim(owner[j], seen):
                        owner[j] = k
                        return True
            return False

        out.append(all(claim(k, set()) for k in range(len(rows))))
    return np.array(out, dtype=bool)


#: rows per chunk of `galois_verify`: consecutive samples are verified
#: together, in numpy passes over at most this many mapped rows or one
#: sample's.  Larger chunks save no more time per sample, and the passes'
#: temporaries grow with them.
_CHUNK_ROWS = 1 << 10


def _draw(rng: random.Random, *shape: int) -> np.ndarray:
    """The next prod(shape) `rng.random()` values, in order, as an array of that shape.

    Every seeded coordinate comes from here, the verified samples and the
    criterion's 10 invariance points, but the 16 seeded tuples of
    `_probe_points`, which draw from their own `random.Random(seed)`.  A draw
    lies in [0, 1), where `_frac` is the identity, so a row (a, b) equals
    `TorusPoint.from_coords(curve, rng.random(), rng.random())` bit for bit.
    """
    n = math.prod(shape)
    return np.fromiter((rng.random() for _ in range(n)), float, count=n).reshape(shape)


def _verify_chunk(
    spec: CoverSpec, generators: tuple[np.ndarray, np.ndarray], coords: np.ndarray, first: int, eps_pt: float
) -> list[dict]:
    """Samples first, first + 1, ... of the protocol, in numpy passes over them all, on (E/Q0)^d.

    `coords` holds the samples' points x, N x d x 2, each mapped once to
    y = phi(x); (M, t) fixes x exactly when M fixes y.  L permutes y's
    points, the pairs y_i, -y_i for A and the divisor y_1, ..., y_d,
    -sum y_i for B, laid out as `_quotient_points` lays out a fiber, and
    fixes y exactly when two of them lie within eps_pt: otherwise the orbit
    has |G| points.  Each y and its images under L's packed `generators`
    are mapped by g as one stack, and their spreads taken in one
    `projective_spreads` call.  A point recovered from y's own row, g(y) =
    f(x), lies in the orbit L y exactly when its points lie within
    EPS_GENERIC of distinct sets of y's points (`_assigned`).  That orbit
    is all of g's fiber when |L| is its size, d! 2^d for A and (d+1)! for
    B, and then G acts simply transitively on the fibers of f if it is
    L x| Q0^d (`CoverSpec.decomposed`); otherwise no sample matches.  A
    sample's row, in `VerificationReport`'s layout, depends on its own
    tuple alone, not on its chunk.  A sample with a row that the map marks
    failed, or whose target is not a generic value of the map, is
    non-generic, not failed.
    """
    count, d = coords.shape[:2]
    ys = map_coords(spec.quotient, coords)
    stack = np.concatenate([ys[:, None], move(generators, ys)], axis=1)
    owner = np.repeat(np.arange(count), stack.shape[1])
    mapped, failed = spec.map_quotient(stack.reshape(-1, d, 2))
    failed = np.bincount(owner, weights=failed, minlength=count) > 0
    spread = projective_spreads(mapped, owner, failed)
    if spec.construction == "A":
        orbit = np.stack([ys, _frac_array(-ys)], axis=2)
    else:
        orbit = np.concatenate([ys, _frac_array(-ys.sum(axis=1))[:, None]], axis=1)[:, :, None]
    sets, per = orbit.shape[1:3]
    flat = orbit.reshape(count, -1, 1, 2)
    # each point is within eps_pt of itself only
    close = np.all(_wrap_dist_array(flat, flat.transpose(0, 2, 1, 3)) <= eps_pt, axis=3)
    trivial = np.count_nonzero(close, axis=(1, 2)) == sets * per
    generic = trivial & ~failed
    matched = np.zeros(count, dtype=bool)
    samples = np.flatnonzero(generic)
    if len(samples):
        # y's own row, g(y) = f(x)
        points, reasons = _quotient_points(spec, mapped.reshape(count, stack.shape[1], -1)[samples, 0])
        recovered = np.array([r is None for r in reasons], dtype=bool)
        generic[samples[~recovered]] = False
        samples, points = samples[recovered], points[recovered]
    if len(samples) and spec.group.linear.order == math.perm(sets, d) * per**d and spec.decomposed:
        # the recovered tuple, each set's first point, against every point of each of y's sets
        found = points[:, :d, 0, None, None]
        near = np.all(_wrap_dist_array(found, orbit[samples, None]) <= EPS_GENERIC, axis=4).any(axis=3)
        matched[samples] = _assigned(near)
    return [
        {
            "index": first + s,
            "point": row,
            "generic": g,
            "orbit_size": spec.group.order if t else None,
            "image_spread": worst,
            "fiber_match": g and m,
        }
        for s, (row, g, t, worst, m) in enumerate(
            zip(*(a.tolist() for a in (coords, generic, trivial, spread, matched)))
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

    Per sample x, on y = phi(x) in (E/Q0)^d: the stabilizer of y in the
    linear part L of the deck group must be trivial (genericity
    certificate); g must be constant within eps_proj on y and its images
    under L's generators, so under L; and a point recovered from g(y) alone
    must lie in the orbit L y, with |L| the exact size of g's fibers and
    the group L x| Q0^d (`_verify_chunk`).  Nothing lists L.  Non-generic
    samples are recorded and excluded from pass/fail.
    Samples are verified in chunks of `_CHUNK_ROWS` mapped rows, which at
    most `jobs` threads share out.  Raises ConfigError, before any draw,
    unless all four values lie in their bounds (`check_run_bounds`).
    """
    check_run_bounds(samples, jobs, eps_pt, eps_proj)
    coords = _draw(random.Random(seed), samples, spec.d, 2)
    generators = pack(*spec.group.linear.integer_generators)
    size = max(1, _CHUNK_ROWS // (1 + len(generators[0])))
    starts = range(0, samples, size)

    def verify(first: int) -> list[dict]:
        return _verify_chunk(spec, generators, coords[first : first + size], first, eps_pt)

    workers = min(jobs, len(starts))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(verify, starts))
    else:
        chunks = [verify(first) for first in starts]
    rows = [row for chunk in chunks for row in chunk]
    generic = [row for row in rows if row["generic"]]
    passed = bool(generic) and all(row["image_spread"] < eps_proj and row["fiber_match"] for row in generic)
    return VerificationReport(
        construction=spec.construction,
        group_order=spec.group.order,
        seed=seed,
        tolerances={"eps_pt": eps_pt, "eps_proj": eps_proj, "eps_num": EPS_NUM},
        samples=tuple(rows),
        passed=passed,
    )


def _probe_points(spec: CoverSpec, seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    """Base-point probes of g on (E/Q0)^d: the points y of the diagonal probes (y, ..., y), 16|Q0| x 2, then 17 tuples, 17 x d x 2.

    f = g o phi has a base point at x exactly when g has one at phi(x).
    The tuples (y, ..., y), y in phi(E[m]) and m = 4|Q0|, stand for E[m]'s
    diagonal in E^d, which meets every coordinate degeneration; the origin
    for the pole tuples over Q0; 16 seeded tuples mix the origin and two
    draws, with even odds per coordinate.  phi(s, t) = (N(cs - bt)/(ac),
    Nt/c) for Q0's `hermite_basis` (N, a, b, c), so phi(E[m]) is the 16|Q0|
    points (-jNb mod Nc + iNc, jNa) / 4N^2, j < 4N/a and i < 4N/c, sorted
    by (b, a) and listed in integers.  `_map_in_chunks` builds the diagonal
    tuples a chunk at a time.
    """
    n, a, b, c = spec.q0.hermite_basis
    j = np.arange(4 * n // a)[:, None]
    x = j * -n * b % (n * c) + np.arange(4 * n // c) * (n * c)
    diagonal = np.stack([x.ravel() / (4 * n * n), np.repeat(j * (n * a) / (4 * n * n), x.shape[1])], axis=1)
    rng = random.Random(seed)
    tuples = np.zeros((17, spec.d, 2))
    tuples[1:] = [
        [(0.0, 0.0) if rng.random() < 0.5 else (rng.random(), rng.random()) for _ in range(spec.d)]
        for _ in range(16)
    ]
    return diagonal, tuples


def _map_in_chunks(spec: CoverSpec, pieces: list, keep: int) -> tuple[np.ndarray, np.ndarray]:
    """`spec.map_quotient` of the point tuples of (E/Q0)^d that `pieces` hold in turn, in calls of at most `_CHUNK_ROWS` rows.

    A piece holds N tuples, N x d x 2, or the N points y, N x 2, of the
    diagonal tuples (y, ..., y), which each call builds for its own rows.
    Returns the rows of the first `keep` tuples and the failure mask of all.
    A row depends on its own tuple alone, so the result is the single
    call's, bit for bit; only the temporaries shrink.
    """
    offsets = np.cumsum([0] + [len(piece) for piece in pieces]).tolist()
    rows, failed = [], []
    for start in range(0, offsets[-1], _CHUNK_ROWS):
        parts = [piece[max(start - at, 0) : max(start + _CHUNK_ROWS - at, 0)] for at, piece in zip(offsets, pieces)]
        chunk = [np.repeat(part[:, None], spec.d, axis=1) if part.ndim == 2 else part for part in parts]
        part, fail = spec.map_quotient(np.concatenate(chunk))
        # a copy, so that the rows not kept are freed with their chunk
        rows.append(part[: max(keep - start, 0)].copy())
        failed.append(fail)
    return np.concatenate(rows), np.concatenate(failed)


def criterion_check(spec: CoverSpec, seed: int = 42, eps_proj: float = EPS_PROJ) -> CriterionReport:
    """The three cover-criterion checks plus the very-ampleness flag, every map on (E/Q0)^d.

    (1) |G| = d! chi(L) times the isogeny factor, exactly; (2) the map is
    projectively invariant under every generator: each of 10 seeded points
    must map with all its generator images and have a spread below
    eps_proj; (3) g maps every probe (`_probe_points`), since the bundle is
    base-point-free.  Every point drawn must map, so a row that fails to
    map fails its check: a point of (2) gets spread inf.  The points of (2)
    go through the isogeny, so that g gives f's rows bit for bit; with the
    probes, they are mapped in chunks (`_map_in_chunks`), keeping only the
    rows of (2), whose ten spreads are one `projective_spreads` call.
    Raises ConfigError unless eps_proj is a finite number > 0
    (`check_run_bounds`).
    """
    check_run_bounds(eps_proj=eps_proj)
    start = _draw(random.Random(seed), 10, spec.d, 2)
    # each point, then its images under the generators, in one pass over them all
    moved = move(pack(*spec.group.integer_generators), start)
    moved = np.concatenate([start[:, None], moved], axis=1).reshape(-1, spec.d, 2)
    diagonal, tuples = _probe_points(spec, seed)
    rows, failed = _map_in_chunks(spec, [map_coords(spec.quotient, moved), diagonal, tuples], keep=len(moved))
    owner = np.repeat(np.arange(len(start)), len(moved) // len(start))
    spreads = projective_spreads(rows, owner, failed[: len(moved)].reshape(len(start), -1).any(axis=1))
    return CriterionReport(
        order_ok=spec.group.order == degree_identity(spec.construction, spec.polarization, spec.q0),
        invariance_ok=bool(np.all(spreads < eps_proj)),
        basepoint_ok=not failed[len(moved) :].any(),
        very_ample=spec.very_ample,
    )
