"""Array forms of the per-point routines and the group action, for whole orbits at once.

Each routine here evaluates one per-point routine of `weierstrass`, `affine`
or `symfun` on a stack of points in numpy passes.  `t_series_array` (wp),
`wp_inverse_array`, `divisors_to_coords` and `section_zeros_array` are the
only ones of their kind: the scalar `wp`, `wp_prime`, `centred_values`,
`wp_inverse`, `divisor_to_coords` and `section_zeros` are their one-row
calls.  `divisors_to_coords` solves each distinct sorted divisor once.
A row that one of them cannot compute is marked in a mask that it returns,
never raised; the one-row calls raise.  The covers' maps and fibers, the
only ones, are built from them: verification and the criterion probes
both run them.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .elliptic import EPS_GENERIC, EPS_NUM, EPS_PT, IsogenyQuotient, LatticeTau
from .errors import DegenerateSection, InvalidOrder, InvalidPoint
from .groups import IntMatrix
from .symfun import (
    _COND_FLOOR,
    SectionBasis,
    first_copies,
    normalize_rows,
    root_clusters,
    row_blocks,
)
from .weierstrass import _AGM_MAX_STEPS, _AGM_REL, _TWO_PI_I, PointTuple, TorusPoint, _on_side, _wp_kernel

if TYPE_CHECKING:
    from .affine import FiniteActionGroup


def _frac_array(x: np.ndarray) -> np.ndarray:
    """`weierstrass._frac` on every entry: numpy's float mod rounds like Python's `%`."""
    r = np.mod(x, 1.0)
    r[r >= 1.0] = 0.0
    return r + 0.0


def _wrap_dist_array(x: np.ndarray, y: np.ndarray | float) -> np.ndarray:
    """`weierstrass._wrap_dist` on every entry, computed the same way."""
    d = np.abs(x - y) % 1.0
    return np.minimum(d, 1.0 - d)


def map_coords(quotient: IsogenyQuotient, coords: np.ndarray) -> np.ndarray:
    """The isogeny on coordinates (x, y) on E, (..., 2): ((N/a) x - (bN/(ac)) y, (N/c) y) mod 1, Q0's `hermite_basis` (N, a, b, c)."""
    n, a, b, c = quotient.subgroup.hermite_basis
    x, y = coords[..., 0], coords[..., 1]
    return _frac_array(np.stack([n // a * x - b * n // (a * c) * y, n // c * y], axis=-1))


def coords_array(points: Sequence[PointTuple]) -> np.ndarray:
    """Coordinates (a, b) of point tuples, len(points) x dim x 2, laid out as `images` does."""
    flat = np.array([c for point in points for p in point for c in (p.a, p.b)], dtype=float)
    return flat.reshape(len(points), -1, 2)


def pack(matrices: Sequence[IntMatrix], numerators: Sequence, den: int) -> tuple[np.ndarray, np.ndarray]:
    """(matrices, translations) of K automorphisms of E^d, shapes K x d x d and K x d x 2.

    From integers: the K matrices, and the translations' numerators over
    one common denominator, divided once: a single IEEE division of exact
    integers rounds like `float(Fraction)`, so the shifts equal those
    `AffineAutomorphism.apply` starts from.  `FiniteActionGroup._packed`
    keeps a group's elements packed.
    """
    return np.array(matrices, dtype=np.int64), np.array(numerators, dtype=np.int64) / den


def move(packed: tuple[np.ndarray, np.ndarray], coords: np.ndarray) -> np.ndarray:
    """Coordinates of g(point) for the P points `coords` and the K packed g, P x K x d x 2.

    Bit-identical to `g.apply(point)`: each coordinate starts from the
    translation, adds m_ij * point_j for j = 0..d-1 in order (adding a
    zero product leaves the sum unchanged), and is reduced by `_frac`.
    """
    matrices, shifts = packed
    count, d = shifts.shape[:2]
    coords = coords[:, None]
    out = np.empty((len(coords), count, d, 2))
    for i in range(d):
        acc = np.repeat(shifts[None, :, i], len(coords), axis=0)
        for j in range(d):
            acc += matrices[:, i, j, None] * coords[:, :, j]
        out[:, :, i] = _frac_array(acc)
    return out


def images(group: FiniteActionGroup, points: Sequence[PointTuple]) -> np.ndarray:
    """Coordinates (a, b) of g(point) for every point and element g, shape P x |G| x d x 2."""
    d = group.dim
    for point in points:
        if len(point) != d:
            raise InvalidOrder(f"point has {len(point)} components, expected {d}")
    return move(group._packed, coords_array(points))


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
    each (`row_blocks`), one coordinate at a time, so that memory beyond the pairs found
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
    found_i, found_j = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for i, rank in row_blocks(hi - lo, _JOIN_BLOCK):
        j = order[(rank + lo[i]) % n]
        for k in range(m):
            close = _wrap_dist_array(left[i, k], right[j, k]) <= tol
            i, j = i[close], j[close]
        found_i.append(i)
        found_j.append(j)
    return np.concatenate(found_i), np.concatenate(found_j)


def t_series_array(
    lattice: LatticeTau, a: np.ndarray, b: np.ndarray, derivative: bool = True
) -> tuple[np.ndarray, ...]:
    """`weierstrass._wp_kernel` (t = wp - e2 and wp') at arrays of coordinates (a, b), moved onto its strip: (num, den[, num', den'])."""
    ma, mb, mc, md = lattice.basis_change
    alpha = ma * a - mb * b
    beta = -mc * a + md * b
    u = np.exp(_TWO_PI_I * (alpha - np.rint(alpha) + (beta - np.rint(beta)) * lattice.tau_reduced))
    return _wp_kernel(lattice, u, derivative)


def t_values(lattice: LatticeTau, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`weierstrass.centred_values` on arrays of coordinates of non-pole points: (t, wp')."""
    num, den, nump, denp = t_series_array(lattice, a, b)
    return num / den, nump / denp


def torus_z(lattice: LatticeTau, coords: np.ndarray) -> np.ndarray:
    """The complex representatives a*omega1 + b*omega2 of an array of coordinates (a, b), shape (..., 2)."""
    return coords[..., 0] * lattice.omega1 + coords[..., 1] * lattice.omega2


def reduce_coords(lattice: LatticeTau, z: np.ndarray) -> np.ndarray:
    """`reduce_point` on an array of finite complex representatives: coordinates, shape (..., 2)."""
    return np.stack([_frac_array(x) for x in lattice.coords(z)], axis=-1)


def lift_coords(quotient: IsogenyQuotient, coords: np.ndarray) -> np.ndarray:
    """The |Q0| preimages on E of coordinates (x, y) on E/Q0, (..., 2) -> (..., |Q0|, 2): ((a x + b y)/N, c y/N) plus Q0's `points` over N."""
    n, a, b, c = quotient.subgroup.hermite_basis
    x, y = coords[..., 0, None], coords[..., 1, None]
    px, py = np.array(quotient.subgroup.points, dtype=float).T
    return _frac_array(np.stack([(a * x + b * y + px) / n, (c * y + py) / n], axis=-1))


def wp_inverse_array(t, lattice: LatticeTau) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The solutions z and -z of wp(z) - e2 = t for N values t, two N x 2 arrays, each pair in (a, b) order, and a mask.

    The AGM elliptic logarithm of Cremona and Thongjunthug (J. Number
    Theory 133, 2013) from the branch differences: with a = sqrt(d1 - d3),
    b = sqrt(d1), c = sqrt(t - d3), z = int_c^oo ds / sqrt((s^2 - a^2)(s^2 -
    a^2 + b^2)).  Landen's step (a, b, c) -> ((a+b)/2, sqrt(ab), (c + sqrt(c^2
    + b^2 - a^2))/2) keeps the integral, which is asin(a/c)/a once b^2 - a^2
    vanishes; b^2 - a^2 is d3 at the first step and -(a - b)^2/4 after.
    Only c is an array.  Raises InvalidPoint for a non-finite value; the
    mask marks each value missed, where |t(z) - t| > EPS_NUM * (1 + |t|).
    """
    t = np.asarray(t, dtype=complex)
    finite = np.isfinite(t.real) & np.isfinite(t.imag)
    if not finite.all():
        raise InvalidPoint(f"non-finite target value: {complex(t[~finite][0])!r}")
    d1, d3 = lattice.branch_differences
    c = np.sqrt(t - d3)
    at_half = c == 0
    c[at_half] = 1.0  # the half period (1 + tau')/2 solves these; c is not read
    a = cmath.sqrt(d1 - d3)
    b = _on_side(cmath.sqrt(d1), a)
    gap = d3  # b^2 - a^2
    for _ in range(_AGM_MAX_STEPS):
        # a tall quotient starts with a = b but delta3 ~ c^2, so the test is on the gap
        if abs(gap) <= (_AGM_REL * abs(a)) ** 2:
            break
        root = np.sqrt(c * c + gap)
        c = (c + np.where(np.abs(root - c) <= np.abs(root + c), root, -root)) / 2
        gap = -((a - b) / 2) ** 2
        a, b = (a + b) / 2, _on_side(cmath.sqrt(a * b), (a + b) / 2)
    p = reduce_coords(lattice, np.arcsin(a / c) / a)
    p[at_half] = reduce_coords(lattice, np.array([lattice.scale * (1.0 + lattice.tau_reduced) / 2]))
    num, den = t_series_array(lattice, p[:, 0], p[:, 1], derivative=False)
    pole = den == 0
    residual = np.abs(num / np.where(pole, 1.0, den) - t)
    missed = pole | ~(residual <= EPS_NUM * (1.0 + np.abs(t)))
    # the two solutions in (a, b) order
    q = _frac_array(-p)
    swap = ((q[:, 0] < p[:, 0]) | ((q[:, 0] == p[:, 0]) & (q[:, 1] < p[:, 1])))[:, None]
    return np.where(swap, q, p), np.where(swap, p, q), missed


def two_torsion(lattice: LatticeTau, coords: np.ndarray) -> np.ndarray:
    """Which of N points (coordinates) lie within EPS_GENERIC of their negatives: both fibers' 2-torsion test."""
    points = [TorusPoint(lattice, a, b) for a, b in coords.tolist()]
    return np.array([p.close_to(-p, tol=EPS_GENERIC) for p in points], dtype=bool)


#: least column scale, relative to the largest: a zero column is a spurious kernel
_COLUMN_FLOOR = 1e-8


def divisors_to_coords(points: np.ndarray, basis: SectionBasis) -> tuple[np.ndarray, np.ndarray]:
    """Sections of O(n*[0]) vanishing on N divisors given by coordinates, N x n x 2.

    Each divisor must sum to 0 (`symfun.divisor_to_coords` checks one).
    Returns the N x n section coordinates, rows normalized as
    `ProjectivePoint.normalize` does, and a mask of the rows with no
    section: a degenerate system (`_COND_FLOOR`) or a kernel that does not
    normalize.  A divisor's points are sorted, so their order does not
    matter, and each distinct sorted divisor, told apart by its bytes
    (-0.0 is not 0.0), is solved once (`_solve_sorted`); its copies take
    its row and mask.  Each row depends on its own divisor alone.
    """
    count, n = points.shape[:2]
    pts = points[np.arange(count)[:, None], np.lexsort((points[..., 1], points[..., 0]), axis=-1)]
    flat = pts.reshape(count, 2 * n)
    keys = flat.view(np.dtype((np.void, flat.itemsize * 2 * n)))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    out, invalid = _solve_sorted(pts[first], basis)
    return out[inverse], invalid[inverse]


def _solve_sorted(pts: np.ndarray, basis: SectionBasis) -> tuple[np.ndarray, np.ndarray]:
    """`divisors_to_coords` of N divisors whose points are sorted by (a, b), one solve each.

    Each point is joined to the first earlier one within EPS_PT.  The
    k-th copy of a point gives the (k-1)-th z-derivative of the basis there; the k-th copy of
    the origin strikes the basis element of pole order n+1-k, the n-th
    none.  Within EPS_PT of a half period wp' is taken as 0, its exact
    value, so at n = 2 a second copy, which the sum forces to a half
    period, gives a zero row: every section of O(2*[0]) is even.
    """
    count = len(pts)
    n = basis.n
    index = np.arange(count)[:, None]
    rep = np.tile(np.arange(n), (count, 1))
    for k in range(1, n):
        for j in range(k - 1, -1, -1):  # the earliest representative wins
            close = np.all(_wrap_dist_array(pts[:, j], pts[:, k]) <= EPS_PT, axis=1)
            rep[close & (rep[:, j] == j), k] = j
    copies = np.sum((rep[:, :, None] == rep[:, None, :]) & np.tri(n, k=-1, dtype=bool), axis=2)
    pts = pts[index, rep]
    origin = np.all(_wrap_dist_array(pts, 0.0) <= EPS_PT, axis=2)
    live = ~origin
    w = np.zeros((count, n), dtype=complex)
    wprime = w.copy()
    w[live], wprime[live] = t_values(basis.lattice, *pts[live].T)
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
    # the coefficients span many decades where t is small: a second solve
    # scales the columns by the moduli of the first kernel; scaling the rows
    # or the columns does not change the kernel
    kernel = np.ones((count, n))
    for _ in range(2):
        scale = np.maximum(np.abs(kernel), _COLUMN_FLOOR * np.max(np.abs(kernel), axis=1, keepdims=True))
        scaled = matrix * scale[:, None, :]
        norms = np.max(np.abs(scaled), axis=2, keepdims=True)
        _, s, vh = np.linalg.svd(scaled / np.where(norms == 0, 1.0, norms))
        kernel = np.conj(vh[:, -1]) * scale
    out, invalid = normalize_rows(kernel)
    return out, invalid | (s[:, -2] <= _COND_FLOOR * s[:, 0])


#: cap on the Newton steps that polish a simple zero of a section; from the
#: 1e-4 error an inexact root of the norm polynomial can leave, two steps
#: reach the accuracy of the coefficients
_POLISH_STEPS = 6


def _norm_polynomials(c: np.ndarray, basis: SectionBasis, order: int) -> np.ndarray:
    """N(t) = P(t)^2 - 4t(t - d1)(t - d3) Q(t)^2 for sections P(t) + wp' Q(t) of one pole order.

    Rows of coefficients, highest degree first, of degree exactly `order`.
    """

    def times(x, y):
        out = np.zeros((len(x), x.shape[1] + y.shape[1] - 1), dtype=complex)
        for j in range(y.shape[1]):
            out[:, j : j + x.shape[1]] += x * y[:, j, None]
        return out

    P = np.zeros((len(c), order // 2 + 1), dtype=complex)
    Q = np.zeros((len(c), max((order - 3) // 2 + 1, 0)), dtype=complex)
    for (pole, a, odd), cj in zip(basis.terms, c.T):
        if pole <= order:
            (Q if odd else P)[:, a] += cj
    norm = times(P, P)
    if Q.shape[1]:
        d1, d3 = basis.lattice.branch_differences
        cubic = np.broadcast_to(np.array([0.0, 4.0 * d1 * d3, -4.0 * (d1 + d3), 4.0]), (len(c), 4))
        norm_q = times(times(Q, Q), cubic)
        # one of the two has degree `order`, the other one less
        norm, norm_q = (np.pad(x, ((0, 0), (0, order + 1 - x.shape[1]))) for x in (norm, norm_q))
        norm = norm - norm_q
    # a copy, not a reversed view: numpy's abs of a strided view rounds by the stack's size
    return norm[:, ::-1].copy()


def _section_jets(basis: SectionBasis, points: np.ndarray, c: np.ndarray):
    """Values and first z-derivatives of the sections with coefficient rows c at non-pole points."""
    return [np.sum(c * jet, axis=1) for jet in basis.jet(*t_values(basis.lattice, *points.T), 1)]


def _newton_polish(points: np.ndarray, c: np.ndarray, basis: SectionBasis) -> np.ndarray:
    """Newton steps on f = sum c_j f_j from approximate simple zeros, one per row of points and c.

    A row keeps each step that lowers |f|; its first step that does not
    ends its polish, as do a zero derivative, a non-finite step and a step
    onto the pole at the origin.  Returns the polished points.
    """
    lattice = basis.lattice
    points = points.copy()
    f, df = _section_jets(basis, points, c)
    live = np.arange(len(points))
    for _ in range(_POLISH_STEPS):
        moving = df != 0
        live, f, df = live[moving], f[moving], df[moving]
        # an overflowing step is inf, not an error
        with np.errstate(over="ignore", invalid="ignore"):
            step = f / df
        moving = np.isfinite(step.real) & np.isfinite(step.imag)
        live, f, step = live[moving], f[moving], step[moving]
        w = reduce_coords(lattice, torus_z(lattice, points[live]) - step)
        moving = ~np.all(_wrap_dist_array(w, 0.0) <= EPS_PT, axis=1)
        live, f, w = live[moving], f[moving], w[moving]
        fw, dfw = _section_jets(basis, w, c[live])
        moving = np.abs(fw) < np.abs(f)
        live, f, df = live[moving], fw[moving], dfw[moving]
        points[live] = w[moving]
        if not len(live):
            break
    return points


def section_zeros_array(coeffs: np.ndarray, basis: SectionBasis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`symfun.section_zeros` of N sections: their zeros (N x n x 2), multiplicities (N x n) and a lost-row mask (N).

    Row r lists its zeros in the order of `section_zeros`, then slots of
    multiplicity 0.  The norm polynomials of all sections of one pole order
    are solved as one stack, and all roots are lifted, tested on both sign
    branches and polished in numpy passes; only the clustering of a row's
    roots, the split of a cluster between z and -z and the 2-torsion test
    run root by root.  The roots are t-values (`root_clusters`).  A row with
    a root that `wp_inverse_array` misses is lost, and holds no zeros.
    Raises DegenerateSection on a zero or non-finite row.
    """
    c = np.asarray(coeffs, dtype=complex)
    count, n = c.shape
    lattice = basis.lattice
    top = np.max(np.abs(c), axis=1)
    if not np.all(np.isfinite(top) & (top > 0)):
        raise DegenerateSection("zero or non-finite coefficient vector")
    # pole order of a section = largest pole order with surviving coefficient
    alive = np.abs(c) > 1e-12 * top[:, None]
    p_order = np.array(basis.pole_orders)[n - 1 - np.argmax(alive[:, ::-1], axis=1)]
    clusters: list[list] = [[] for _ in range(count)]
    for order in sorted(set(p_order.tolist()) - {0}):
        rows = np.flatnonzero(p_order == order)
        norm = _norm_polynomials(c[rows], basis, order)
        scale = np.max(np.abs(norm), axis=1)
        if not scale.all():
            raise DegenerateSection("norm polynomial vanishes identically")
        for r, row in zip(rows.tolist(), root_clusters(norm / scale[:, None])):
            clusters[r] = [(r, x, m) for x, m in row]
    roots = [root for row in clusters for root in row]
    owner = [r for r, _, _ in roots]
    plus, minus, missed = wp_inverse_array([x for _, x, _ in roots], lattice)
    lost = np.bincount(owner, weights=missed, minlength=count) > 0
    kept = ~lost[owner]
    roots, plus, minus = [root for root, k in zip(roots, kept.tolist()) if k], plus[kept], minus[kept]
    torsion = two_torsion(lattice, plus).tolist()
    # t is even and wp' odd: the basis at -z is read off the series at z with wp' negated
    w, wprime = t_values(lattice, *plus.T)
    rows = c[[r for r, _, _ in roots]]
    at_plus = basis.jet(w, wprime)[0]
    f_plus = np.abs(np.sum(rows * at_plus, axis=1)).tolist()
    f_minus = np.abs(np.sum(rows * basis.jet(w, -wprime)[0], axis=1)).tolist()
    # scale of the two nearly-cancelling halves of the section at x
    size = (np.max(np.abs(at_plus) * np.abs(rows), axis=1) + 1e-300).tolist()
    zeros: list[list] = [[] for _ in range(count)]
    for (r, _, mult), z_plus, z_minus, fp, fm, big, at_torsion in zip(
        roots, plus.tolist(), minus.tolist(), f_plus, f_minus, size, torsion
    ):
        if at_torsion:
            # 2-torsion: both branches coincide, full multiplicity
            zeros[r].append((z_plus, mult))
        elif fp < 1e-4 * big and fm < 1e-4 * big:
            # both branches vanish: split the cluster between them
            low, high = mult // 2, mult - mult // 2
            split = [(z_plus, high), (z_minus, low)] if fp <= fm else [(z_plus, low), (z_minus, high)]
            zeros[r].extend((z, m) for z, m in split if m)
        else:
            zeros[r].append((z_plus if fp < fm else z_minus, mult))
    # a root of the norm polynomial is off by its conditioning, and where wp'
    # is small that moves z by far more than the matching tolerances
    simple = [(r, j) for r, row in enumerate(zeros) for j, (_, m) in enumerate(row) if m == 1]
    if simple:
        start = np.array([zeros[r][j][0] for r, j in simple])
        polished = _newton_polish(start, c[[r for r, _ in simple]], basis)
        for (r, j), z in zip(simple, polished.tolist()):
            zeros[r][j] = (z, 1)
    # the origin absorbs the remaining degree
    for row, order, gone in zip(zeros, p_order.tolist(), lost.tolist()):
        if order < n and not gone:
            row.append(((0.0, 0.0), n - order))
    slots = [(r, j, z, m) for r, row in enumerate(zeros) for j, (z, m) in enumerate(row)]
    index = tuple(np.array([s[:2] for s in slots], dtype=int).reshape(-1, 2).T)
    points = np.zeros((count, n, 2))
    mults = np.zeros((count, n), dtype=int)
    points[index] = np.array([z for _, _, z, _ in slots]).reshape(-1, 2)
    mults[index] = [m for _, _, _, m in slots]
    return points, mults, lost
