"""Array forms of the per-point routines and the group action, for whole orbits at once.

Each routine here evaluates one scalar routine of `elliptic`, `groups` or
`symfun` on a stack of points in numpy passes, and the scalar routine stays
its test oracle; `divisors_to_coords` is the only divisor-to-section
solver, and its scalar oracle lives in the tests.  The covers' maps, the
only maps, are built from them: verification and the criterion probes both
run them.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .elliptic import (
    _TWO_PI_I,
    EPS_PT,
    IsogenyQuotient,
    LatticeTau,
    _wp_qseries,
)
from .errors import IllConditioned, InvalidOrder, InvalidPoint, SumNotZero
from .groups import FiniteActionGroup, PointTuple
from .symfun import _COND_FLOOR, SectionBasis, first_copies, normalize_rows


def _frac_array(x: np.ndarray) -> np.ndarray:
    """`elliptic._frac` on every entry: numpy's float mod rounds like Python's `%`."""
    r = np.mod(x, 1.0)
    r[r >= 1.0] = 0.0
    return r + 0.0


def _wrap_dist_array(x: np.ndarray, y: np.ndarray | float) -> np.ndarray:
    """`elliptic._wrap_dist` on every entry, computed the same way."""
    d = np.abs(x - y) % 1.0
    return np.minimum(d, 1.0 - d)


def map_coords(quotient: IsogenyQuotient, coords: np.ndarray) -> np.ndarray:
    """`IsogenyQuotient.map` on an array of source coordinates (a, b), shape (..., 2)."""
    z = coords[..., 0] * quotient.source.omega1 + coords[..., 1] * quotient.source.omega2
    return np.stack([_frac_array(c) for c in quotient.target.coords(z)], axis=-1)


def coords_array(points: Sequence[PointTuple]) -> np.ndarray:
    """Coordinates (a, b) of point tuples, len(points) x dim x 2, laid out as `images` does."""
    flat = np.array([c for point in points for p in point for c in (p.a, p.b)], dtype=float)
    return flat.reshape(len(points), -1, 2)


def pack(group: FiniteActionGroup) -> tuple[np.ndarray, np.ndarray]:
    """(matrices, translations) of all elements, shapes |G| x d x d and |G| x d x 2.

    Translations are integer numerators over one common denominator N,
    divided once: a single IEEE division of exact integers rounds like
    `float(Fraction)`, so the shifts equal those `AffineAutomorphism.apply`
    starts from.  `FiniteActionGroup._packed` keeps the result.
    """
    d = group.dim
    matrices = np.array([e.matrix for e in group.elements], dtype=np.int64)
    matrices = matrices.reshape(group.order, d, d)
    den = math.lcm(
        *(c.denominator for e in group.elements for pair in e.translation for c in pair)
    )
    numerators = np.fromiter(
        (
            c.numerator * (den // c.denominator)
            for e in group.elements
            for pair in e.translation
            for c in pair
        ),
        dtype=np.int64,
        count=group.order * d * 2,
    ).reshape(group.order, d, 2)
    return matrices, numerators / den


def images(group: FiniteActionGroup, points: Sequence[PointTuple]) -> np.ndarray:
    """Coordinates (a, b) of g(point) for every point and element g, shape P x |G| x d x 2.

    Bit-identical to `g.apply(point)`: each coordinate starts from the
    translation, adds m_ij * point_j for j = 0..d-1 in order (adding a
    zero product leaves the sum unchanged), and is reduced by `_frac`.
    """
    d = group.dim
    for point in points:
        if len(point) != d:
            raise InvalidOrder(f"point has {len(point)} components, expected {d}")
    matrices, shifts = group._packed
    coords = coords_array(points)[:, None]
    out = np.empty((len(points), group.order, d, 2))
    for i in range(d):
        acc = np.repeat(shifts[None, :, i], len(points), axis=0)
        for j in range(d):
            acc += matrices[:, i, j, None] * coords[:, :, j]
        out[:, :, i] = _frac_array(acc)
    return out


def orbit_indices(found: np.ndarray, tol: float = EPS_PT) -> np.ndarray:
    """Indices of the orbit representatives among the images `found` of P points.

    `found` is `images(group, points)`; the indices run over its P*|G|
    rows.  Of a point's images, one is kept unless it lies within tol of
    an image of the same point kept before it in element order.  Images
    equal to an earlier image of the same point are dropped first, as the
    earlier copy decides them; of the rest, only those with an earlier
    image of the same point within tol, found by one `close_pairs`, are
    decided one at a time.  The indices come point by point, each point's
    sorted by the coordinates of the rows they pick.
    """
    count, order = found.shape[:2]
    flat = found.reshape(count * order, -1)
    owner = np.repeat(np.arange(count), order)
    rows = first_copies(np.column_stack([owner, flat]))
    i, j = close_pairs(flat[rows], flat[rows], tol)
    earlier = (j < i) & (owner[rows[i]] == owner[rows[j]])
    i, j = i[earlier], j[earlier]
    keep = np.ones(len(rows), dtype=bool)
    heads, starts = np.unique(i, return_index=True)
    for k, partners in zip(heads.tolist(), np.split(j, starts[1:])):
        keep[k] = not keep[partners].any()
    keep = rows[keep]
    return keep[np.lexsort(np.vstack([flat[keep].T[::-1], owner[keep]]))]


def stabilizer_mask(found: np.ndarray, coords: np.ndarray, tol: float = EPS_PT) -> np.ndarray:
    """Which elements move every coordinate of each of P points by at most tol, P x |G|.

    `found` is `images(group, points)` and `coords` is `coords_array(points)`.
    """
    return np.all(_wrap_dist_array(found, coords[:, None]) <= tol, axis=(2, 3))


def _weighted_key(columns: np.ndarray) -> np.ndarray:
    """The key f = x_1 + 2 x_2 + ... + m x_m on R/Z of flat coordinates x.

    `columns` holds the m coordinates, one row each.  Integer weights make
    f well defined mod 1.  Over the orbit of a generic point, tuples share
    a key only when they differ by a translation in the kernel of f on
    Q0^d, about |Q0|^(d-1) of them; a single coordinate as key would also
    merge every permutation that fixes it.
    """
    return sum(k * x for k, x in enumerate(columns, 1)) % 1.0


def _key_window(m: int, tol: float) -> float:
    """2*W*tol, W = m(m+1)/2: twice the most that the keys of two tuples within tol differ by.

    The factor 2 leaves far more room than the rounding in a key.
    """
    return m * (m + 1) * tol


#: candidate pairs per block of `close_pairs`: each of its temporaries is
#: one array of this many entries, 2 MiB for 8-byte entries
_JOIN_BLOCK = 1 << 18


def close_pairs(
    left: np.ndarray, right: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i ascending, with left[i] within tol of right[j].

    The distance is the toroidal sup metric over the flattened rows,
    computed as `_wrap_dist` computes it.  Each left row is compared only
    with the right rows whose `_weighted_key` lies within `_key_window` of
    its own on R/Z, found by binary search in the sorted right keys; at
    most every right row is compared once.  The candidates are compared in
    blocks of consecutive left rows, `_JOIN_BLOCK` candidates or one row
    each, one coordinate at a time, so that memory beyond the pairs found
    stays bounded when many rows share a key.
    """
    m = math.prod(right.shape[1:])
    left = left.reshape(len(left), m)
    right = right.reshape(len(right), m)
    n = len(right)
    keys = _weighted_key(right.T)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    wrapped = np.concatenate([keys - 1.0, keys, keys + 1.0])
    query = _weighted_key(left.T)
    width = _key_window(m, tol)
    lo = np.searchsorted(wrapped, query - width, "left")
    hi = np.minimum(np.searchsorted(wrapped, query + width, "right"), lo + n)
    counts = hi - lo
    ends = np.cumsum(counts)
    found_i, found_j = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    first = 0
    while first < len(left):
        before = ends[first] - counts[first]
        stop = max(first + 1, int(np.searchsorted(ends, before + _JOIN_BLOCK, "right")))
        c = counts[first:stop]
        starts = np.cumsum(c) - c
        i = np.repeat(np.arange(first, stop), c)
        j = order[(np.arange(c.sum()) - np.repeat(starts - lo[first:stop], c)) % n]
        for k in range(m):
            close = _wrap_dist_array(left[i, k], right[j, k]) <= tol
            i, j = i[close], j[close]
        found_i.append(i)
        found_j.append(j)
        first = stop
    return np.concatenate(found_i), np.concatenate(found_j)


def wp_series_array(
    lattice: LatticeTau, a: np.ndarray, b: np.ndarray, derivative: bool = True
) -> tuple[np.ndarray, ...]:
    """`elliptic._wp_series` on arrays of coordinates (a, b), through the same kernel.

    Returns (num, den, num', den'), or (num, den) without the derivative.
    Every entry gets the lattice's `series_terms`, so it depends on its
    own coordinates alone.
    """
    ma, mb, mc, md = lattice.basis_change
    alpha = ma * a - mb * b
    beta = -mc * a + md * b
    u = np.exp(_TWO_PI_I * (alpha - np.rint(alpha) + (beta - np.rint(beta)) * lattice.tau_reduced))
    return _wp_qseries(lattice, u, derivative)


def norm_pairs(num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`elliptic._norm_pair` on arrays.

    Only the chosen quotient is taken, so a pole warns of nothing.
    """
    flip = np.abs(num) > np.abs(den)
    ones = np.ones_like(num)
    return (
        np.divide(num, den, out=ones.copy(), where=~flip),
        np.divide(den, num, out=ones, where=flip),
    )


#: what `divisor_to_coords` raises for a divisor that has no section it can
#: compute; `divisors_to_coords` marks such a row as failed
MAP_ERRORS = (IllConditioned, SumNotZero, InvalidPoint)


def divisors_to_coords(points: np.ndarray, basis: SectionBasis) -> tuple[np.ndarray, np.ndarray]:
    """Sections of O(n*[0]) vanishing on N divisors given by coordinates, N x n x 2.

    Returns the N x n coordinates of the sections, rows normalized as
    `ProjectivePoint.normalize` does, and a mask of the rows that hold no
    section: those whose points do not sum to 0, whose system is
    degenerate (`_COND_FLOOR`) or whose kernel does not normalize.  Each
    divisor's points are sorted and each is joined to the first earlier
    representative within EPS_PT, so the order of the points does not
    matter.  The k-th copy of a point contributes the (k-1)-th
    z-derivative of the basis there; the k-th copy of the origin strikes
    the basis element of pole order n+1-k, and the n-th has none to strike.
    At a point within EPS_PT of a half period, wp' is taken as 0, its
    exact value; so at n = 2 the second copy of a point, which the sum
    forces to a half period, gives a zero row, as every section of
    O(2*[0]) is even.  All N systems share one stacked evaluation and one
    batched SVD, and each row depends on its own divisor alone; no series
    is evaluated at the origin.
    """
    count = len(points)
    n = basis.n
    total = points[:, 0]
    for k in range(1, n):
        total = _frac_array(total + points[:, k])
    failed = np.any(_wrap_dist_array(total, 0.0) > 1e-6 * n, axis=1)
    index = np.arange(count)[:, None]
    pts = points[index, np.lexsort((points[..., 1], points[..., 0]), axis=-1)]
    rep = np.tile(np.arange(n), (count, 1))
    for k in range(1, n):
        for j in range(k - 1, -1, -1):  # the earliest representative wins
            close = np.all(_wrap_dist_array(pts[:, j], pts[:, k]) <= EPS_PT, axis=1)
            rep[close & (rep[:, j] == j), k] = j
    copies = np.sum((rep[:, :, None] == rep[:, None, :]) & np.tri(n, k=-1, dtype=bool), axis=2)
    pts = pts[index, rep]
    origin = np.all(_wrap_dist_array(pts, 0.0) <= EPS_PT, axis=2)
    live = ~origin
    num, den, nump, denp = wp_series_array(basis.lattice, *pts[live].T)
    w = np.zeros((count, n), dtype=complex)
    wprime = w.copy()
    w[live], wprime[live] = num / den, nump / denp
    # the series leaves rounding noise for wp' at a half period, which row scaling would blow up
    wprime[np.all(_wrap_dist_array(2.0 * pts, 0.0) <= EPS_PT, axis=2)] = 0.0
    # copy k of the origin strikes pole order n+1-k; no function has pole order 1
    strike = np.eye(n)[::-1]
    strike[-1] = 0.0
    matrix = np.empty((count, n, n), dtype=complex)
    matrix[origin] = strike[copies[origin]]
    for k in set(copies[live].tolist()):
        slots = live & (copies == k)
        matrix[slots] = basis.jet(w[slots], wprime[slots], k)[k]
    # row scaling does not change the kernel but tames wp-power growth
    norms = np.max(np.abs(matrix), axis=2, keepdims=True)
    matrix = matrix / np.where(norms == 0, 1.0, norms)
    _, s, vh = np.linalg.svd(matrix)
    out, invalid = normalize_rows(np.conj(vh[:, -1]))
    return out, failed | invalid | (s[:, -2] <= _COND_FLOOR * s[:, 0])
