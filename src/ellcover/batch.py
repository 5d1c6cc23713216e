"""Array forms of the per-point maps and the group action, for whole orbits at once.

Each routine here evaluates one scalar routine of `elliptic`, `groups` or
`symfun` on a stack of points in numpy passes, and the scalar routine stays
its test oracle.  Verification maps every image of a sample's orbit, so it
runs these; single points (fiber recovery, the criterion probes) keep the
scalar path.
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
    TorusPoint,
    _wp_qseries,
)
from .errors import IllConditioned, InvalidOrder, InvalidPoint
from .groups import FiniteActionGroup, PointTuple
from .symfun import _COND_FLOOR, SectionBasis, divisor_to_coords


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


def images(group: FiniteActionGroup, point: PointTuple) -> np.ndarray:
    """Coordinates (a, b) of g(point) for every element g, shape |G| x d x 2.

    Bit-identical to `g.apply(point)`: each coordinate starts from the
    translation, adds m_ij * point_j for j = 0..d-1 in order (adding a
    zero product leaves the sum unchanged), and is reduced by `_frac`.
    """
    d = group.dim
    if len(point) != d:
        raise InvalidOrder(f"point has {len(point)} components, expected {d}")
    matrices, shifts = group._packed
    coords = [np.array([p.a, p.b]) for p in point]
    out = np.empty((group.order, d, 2))
    for i in range(d):
        acc = shifts[:, i, :].copy()
        for j in range(d):
            acc += matrices[:, i, j, None] * coords[j]
        out[:, i, :] = _frac_array(acc)
    return out


def orbit_indices(found: np.ndarray, tol: float = EPS_PT) -> np.ndarray:
    """Indices of the orbit's representatives among the images `found` of a point.

    `found` is `images(group, point)`.  An image is kept unless it lies
    within tol of an image kept before it in element order; the indices
    come sorted by the coordinates of the rows they pick.  Only images with
    an earlier image within tol, found by `close_pairs`, are decided one at
    a time, in element order; when no two images are that close, all are
    kept.
    """
    flat = found.reshape(len(found), -1)
    i, j = close_pairs(flat, flat, tol)
    earlier = j < i
    i, j = i[earlier], j[earlier]
    keep = np.ones(len(flat), dtype=bool)
    rows, starts = np.unique(i, return_index=True)
    for k, partners in zip(rows.tolist(), np.split(j, starts[1:])):
        keep[k] = not keep[partners].any()
    keep = np.flatnonzero(keep)
    return keep[np.lexsort(flat[keep].T[::-1])]


def stabilizer_indices(found: np.ndarray, point: PointTuple, tol: float = EPS_PT) -> np.ndarray:
    """Indices of the elements that move every coordinate of a point by at most tol.

    `found` is `images(group, point)`.
    """
    here = np.array([[p.a, p.b] for p in point])
    return np.flatnonzero(np.all(_wrap_dist_array(found, here) <= tol, axis=(1, 2)))


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
    Terms are added until the smallest min(1, |u|) of the batch bounds them,
    so every point gets at least the terms `_wp_series` gives it.
    """
    ma, mb, mc, md = lattice.basis_change
    alpha = ma * a - mb * b
    beta = -mc * a + md * b
    u = np.exp(_TWO_PI_I * (alpha - np.rint(alpha) + (beta - np.rint(beta)) * lattice.tau_reduced))
    return _wp_qseries(lattice, u, float(np.min(np.abs(u), initial=1.0)), derivative)


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


def normalize_rows(vecs: np.ndarray) -> np.ndarray:
    """`ProjectivePoint.normalize` on every row of an N x (m+1) array.

    Raises InvalidPoint if any row is zero or not finite.
    """
    mags = np.abs(vecs)
    top = np.max(mags, axis=1, initial=0.0)  # nan or inf if any entry is
    if not np.all(np.isfinite(top) & (top > 0)):
        raise InvalidPoint("invalid projective coordinates in a batch")
    # ties pivot on the last maximal entry
    pivot = np.zeros(len(vecs), dtype=int)
    for k in range(vecs.shape[1]):
        pivot[mags[:, k] == top] = k
    rows = np.arange(len(vecs))
    out = vecs / vecs[rows, pivot, None]
    out[rows, pivot] = 1.0
    return out


def sym_product_rows(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """`symfun.sym_product` of every row of factors (num, den), shape N x d.

    Returns the N x (d+1) coordinates of the products.

    Each row's factors are sorted by `symfun._pair_sort_key` before the
    running product, so rows that hold the same factors in any order come
    out equal bit for bit, as `sym_product` makes them.
    """
    order = np.lexsort((den.imag, den.real, num.imag, num.real), axis=-1)
    count, d = num.shape
    rows = np.arange(count)[:, None]
    num, den = num[rows, order], den[rows, order]
    # coefficients of decreasing X-power, multiplied by (den*X - num*Y) in turn
    coeffs = np.zeros((count, d + 1), dtype=complex)
    coeffs[:, 0] = 1.0
    for k in range(d):
        coeffs[:, 1 : k + 2] = (
            coeffs[:, 1 : k + 2] * den[:, k, None] - coeffs[:, : k + 1] * num[:, k, None]
        )
        coeffs[:, 0] *= den[:, k]
    return normalize_rows(coeffs[:, ::-1])


def _section_values(basis: SectionBasis, w: np.ndarray, wprime: np.ndarray) -> np.ndarray:
    """`SectionBasis.evaluate` from arrays of wp and wp' values, along a new last axis."""
    powers = [np.ones_like(w)]
    for _ in range(basis.n // 2):
        powers.append(powers[-1] * w)
    return np.stack(
        [powers[a] * wprime if e else powers[a] for _, a, e in basis.terms], axis=-1
    )


def divisors_to_coords(points: np.ndarray, basis: SectionBasis) -> np.ndarray:
    """`symfun.divisor_to_coords` on N divisors given by coordinates, N x n x 2.

    Returns the N x n coordinates of the sections, rows normalized as
    `ProjectivePoint.normalize` does.  Divisors of n distinct points off the
    origin with sum 0 share one stacked evaluation matrix and one batched
    SVD; as in `divisor_to_coords`, the order of their points does not
    matter.  The rest need derivative or unit rows, or raise: they go
    through `divisor_to_coords` one at a time, which returns or raises for
    them exactly as it does alone.
    """
    n = basis.n
    lattice = basis.lattice
    total = points[:, 0]
    for k in range(1, n):
        total = _frac_array(total + points[:, k])
    special = np.any(_wrap_dist_array(total, 0.0) > 1e-6 * n, axis=1)
    special |= np.any(np.all(_wrap_dist_array(points, 0.0) <= EPS_PT, axis=2), axis=1)
    for i in range(n):
        for j in range(i + 1, n):
            special |= np.all(_wrap_dist_array(points[:, i], points[:, j]) <= EPS_PT, axis=1)
    out = np.empty((len(points), n), dtype=complex)
    batch = np.flatnonzero(~special)
    if len(batch):
        # points sorted as `_group_divisor` sorts them, so that divisors
        # listing the same points in another order give equal rows
        pts = points[batch]
        order = np.lexsort((pts[..., 1], pts[..., 0]), axis=-1)
        pts = pts[np.arange(len(pts))[:, None], order]
        num, den, nump, denp = wp_series_array(lattice, pts[..., 0], pts[..., 1])
        matrix = _section_values(basis, num / den, nump / denp)
        norms = np.max(np.abs(matrix), axis=2, keepdims=True)
        matrix = matrix / np.where(norms == 0, 1.0, norms)
        _, s, vh = np.linalg.svd(matrix)
        degenerate = s[:, -2] <= _COND_FLOOR * s[:, 0]
        if np.any(degenerate):
            k = np.argmax(degenerate)
            raise IllConditioned(
                f"section system is numerically degenerate (s2/s0={s[k, -2] / s[k, 0]:.2e})"
            )
        out[batch] = normalize_rows(np.conj(vh[:, -1]))
    for k in np.flatnonzero(special):
        divisor = [TorusPoint(lattice, a, b) for a, b in points[k].tolist()]
        out[k] = divisor_to_coords(divisor, basis).coords
    return out

