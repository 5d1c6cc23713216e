"""Projective coordinates, symmetric products, and section calculus on E.

Two coordinate engines live here.  `sym_product` turns rows of d-tuples of
P^1 points into the coefficient vectors of the degree-d binary forms with
those roots, which is the quotient map (P^1)^d -> P^d on a whole stack of
tuples at once; `sym_fibers` inverts it on a stack, as roots t = X/Y, and
`sym_fiber` is its one-row call, as pairs (num, den).
`SectionBasis` / `divisor_to_coords` / `section_zeros` realize the linear
system L(n*[0]) on E concretely enough to map divisors to coordinate vectors
and back: the basis gives values and z-derivatives of every order from
t = wp - e2 and wp', and `divisor_to_coords` and `section_zeros` are the
one-row calls of the stacked `batch.divisors_to_coords` and
`batch.section_zeros_array`.
"""

from __future__ import annotations

import cmath
import math
from typing import Sequence

import numpy as np

from .elliptic import EPS_GENERIC, LatticeTau
from .errors import (
    DegenerateSection,
    IllConditioned,
    InvalidOrder,
    InvalidPoint,
    NoConvergence,
    SumNotZero,
)
from .polarization import _Frozen
from .weierstrass import HomPair, TorusPoint, _pair

#: relative threshold below which the SVD kernel is considered ambiguous
_COND_FLOOR = 1e-10

#: relative clustering radius for repeated polynomial roots
_ROOT_CLUSTER = 1e-5

#: Newton steps that `polish_roots` takes on each root of a polynomial
_ROOT_POLISH_STEPS = 3


class ProjectivePoint(_Frozen):
    """A point of P^m with a canonical representative.

    Coordinates are divided by the entry of largest modulus, which therefore
    becomes exactly 1+0j.  Points are compared by their Fubini-Study chordal
    distance, `chordal_dist`.
    """

    coords: tuple[complex, ...]

    @classmethod
    def normalize(cls, coords: Sequence[complex]) -> "ProjectivePoint":
        vec = [complex(c) for c in coords]
        if not vec:
            raise InvalidPoint("empty coordinate vector")
        mags = [abs(c) for c in vec]
        if not all(math.isfinite(m) for m in mags):
            raise InvalidPoint(f"invalid projective coordinates: {coords!r}")
        top = max(mags)
        if top == 0:
            raise InvalidPoint(f"invalid projective coordinates: {coords!r}")
        # ties pivot on the last maximal entry: (1:1),(-1:1) maps to (-1:0:1)
        k = len(mags) - 1 - mags[::-1].index(top)
        pivot = vec[k]
        out = tuple(c / pivot for c in vec)
        out = out[:k] + (1.0 + 0j,) + out[k + 1 :]
        return cls(out)

    def chordal_dist(self, other: "ProjectivePoint") -> float:
        """Chordal metric |p ^ q| / (|p| |q|) on P^m.

        The wedge form sum |p_i q_j - p_j q_i|^2 equals |p|^2|q|^2 - |<p,q>|^2
        exactly but avoids the cancellation that flattens distances below
        1e-8 in the inner-product form.
        """
        p = self.coords
        q = other.coords
        if len(p) != len(q):
            raise InvalidPoint("projective points of different dimension")
        wedge = 0.0
        for i in range(len(p)):
            for j in range(i + 1, len(p)):
                w = p[i] * q[j] - p[j] * q[i]
                wedge += w.real * w.real + w.imag * w.imag
        norms = sum(c.real * c.real + c.imag * c.imag for c in p)
        norms *= sum(c.real * c.real + c.imag * c.imag for c in q)
        return math.sqrt(wedge / norms)


def first_copies(rows: np.ndarray) -> np.ndarray:
    """Indices, ascending, of the rows of a 2-d float array that equal no earlier row.

    Rows are equal when their entries are, by `==`, as for tuples of floats.
    """
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    first = np.zeros(len(rows), dtype=bool)
    first[order[new]] = True
    return np.flatnonzero(first)


def row_blocks(counts: np.ndarray, limit: int):
    """Blocks of consecutive rows with at most `limit` pairs, or one row; row r has `counts[r]` pairs.

    Yields, per block, the row `i` of every pair and its rank among the
    pairs of its row, from 0.
    """
    ends = np.cumsum(counts)
    first = 0
    while first < len(counts):
        stop = max(first + 1, int(np.searchsorted(ends, ends[first] - counts[first] + limit, "right")))
        c = counts[first:stop]
        i = np.repeat(np.arange(first, stop), c)
        yield i, np.arange(len(i)) - np.repeat(np.cumsum(c) - c, c)
        first = stop


#: coordinates per block of `projective_spreads`: a block of pairs of rows
#: of m coordinates holds _SPREAD_BLOCK // m pairs, and each of its four
#: gathered arrays holds this many floats (32 KiB), about 0.2 MB in all
_SPREAD_BLOCK = 1 << 12


def projective_spreads(coords: np.ndarray, owner: np.ndarray, failed: np.ndarray) -> np.ndarray:
    """Per owner, the largest chordal distance between two of its rows of `coords`.

    Row k holds a ProjectivePoint's coordinates and belongs to owner
    `owner[k]` in range(len(failed)).  A `failed` owner gets inf; one with
    fewer than two distinct rows gets 0.  Each entry is the maximum of
    `chordal_dist` over the owner's pairs: exact duplicates are dropped
    (their distance is 0), and the pairs of all owners are compared in
    `row_blocks`, with the wedge form in real arithmetic as `chordal_dist`
    computes it.
    """
    spread = np.where(failed, np.inf, 0.0)
    live = ~failed[owner]
    coords, owner = coords[live], owner[live]
    rows = first_copies(np.column_stack([owner, np.ascontiguousarray(coords).view(np.float64)]))
    rows = rows[np.argsort(owner[rows], kind="stable")]
    coords, owner = coords[rows].T, owner[rows]
    re, im = coords.real.copy(), coords.imag.copy()
    m = len(coords)
    norms = 0.0
    for k in range(m):
        norms = norms + (re[k] * re[k] + im[k] * im[k])
    # row i is paired with the later rows of its owner
    later = np.searchsorted(owner, owner, "right") - np.arange(len(owner)) - 1
    for i, rank in row_blocks(later, _SPREAD_BLOCK // m):
        j = i + 1 + rank
        pr, pi, qr, qi = re[:, i], im[:, i], re[:, j], im[:, j]
        wedge = 0.0
        for k in range(m):
            for l in range(k + 1, m):
                wr = (pr[k] * qr[l] - pi[k] * qi[l]) - (pr[l] * qr[k] - pi[l] * qi[k])
                wi = (pr[k] * qi[l] + pi[k] * qr[l]) - (pr[l] * qi[k] + pi[l] * qr[k])
                wedge = wedge + (wr * wr + wi * wi)
        np.maximum.at(spread, owner[i], np.sqrt(wedge / (norms[i] * norms[j])))
    return spread


def projective_spread(coords: np.ndarray) -> float:
    """Largest pairwise chordal distance between the rows of `coords`; one owner of `projective_spreads`."""
    if len(coords) < 2:
        return 0.0
    owner = np.zeros(len(coords), dtype=int)
    return float(projective_spreads(coords, owner, np.zeros(1, dtype=bool))[0])


def normalize_rows(vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`ProjectivePoint.normalize` on every row of an N x (m+1) array.

    Returns the rows and a mask of those that are zero or not finite,
    where `normalize` raises InvalidPoint; those rows hold nan.
    """
    mags = np.abs(vecs)
    top = np.max(mags, axis=1, initial=0.0)  # nan or inf if any entry is
    invalid = ~(np.isfinite(top) & (top > 0))
    # ties pivot on the last maximal entry
    pivot = np.zeros(len(vecs), dtype=int)
    for k in range(vecs.shape[1]):
        pivot[mags[:, k] == top] = k
    rows = np.arange(len(vecs))
    vecs = np.where(invalid[:, None], 1.0, vecs)
    out = vecs / vecs[rows, pivot, None]
    out[rows, pivot] = 1.0
    out[invalid] = np.nan
    return out, invalid


def sym_product(num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (c_0 : ... : c_d) of prod_i (den_i*X - num_i*Y) in P^d, per row.

    `num` and `den` hold N rows of d homogeneous pairs (num_i : den_i).
    Index k of a row holds the coefficient of X^k Y^(d-k), so the roots
    num_i/den_i of the dehomogenization in t = X/Y are the roots of
    c_d*t^d + ... + c_0.  Returns the N x (d+1) coordinates, normalized as
    `ProjectivePoint.normalize` normalizes them, and the mask of
    `normalize_rows`.  Each row's factors are multiplied in sorted order,
    so rows that hold the same factors in any order come out equal bit for
    bit.
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
        # not in place: numpy takes a scalar loop for an in-place product of
        # one row, which rounds otherwise than its vector loop for many
        coeffs[:, 0] = coeffs[:, 0] * den[:, k]
    return normalize_rows(coeffs[:, ::-1])


def poly_roots(coeffs: np.ndarray) -> np.ndarray:
    """`np.roots` of every row of an N x (m+1) array, highest degree first: N x m roots.

    Each row's leading coefficient must be nonzero.  As `np.roots` does, a
    row's trailing exact zeros give roots at 0, after the eigenvalues of
    the companion matrix of the rest; the rows with the same number of them
    share one stacked `eigvals`, which gives `np.roots`' bits row by row.
    """
    m = coeffs.shape[1] - 1
    out = np.zeros((len(coeffs), m), dtype=complex)
    degree = m - np.argmax(coeffs[:, ::-1] != 0, axis=1)
    for k in sorted(set(degree.tolist()) - {0}):
        rows = degree == k
        p = coeffs[rows, : k + 1]
        companion = np.zeros((len(p), k, k), dtype=complex)
        companion[:, 1:, :-1] = np.eye(k - 1)
        companion[:, 0] = -p[:, 1:] / p[:, :1]
        out[rows, :k] = np.linalg.eigvals(companion)
    return out


def polish_roots(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Newton steps on each row's polynomial (N x (m+1), highest degree first) from roots of it, N x k.

    Companion eigenvalues are accurate only relative to the largest root;
    a root takes each step that is finite and lowers |p|.
    """
    slope = coeffs[:, :-1] * np.arange(coeffs.shape[1] - 1, 0, -1)

    def horner(c, x):
        value = 0 * x
        for k in range(c.shape[1]):
            value = value * x + c[:, k : k + 1]
        return value

    value = horner(coeffs, roots)
    with np.errstate(all="ignore"):
        for _ in range(_ROOT_POLISH_STEPS):
            moved = roots - value / horner(slope, roots)
            moved_value = horner(coeffs, moved)
            better = np.isfinite(moved) & (np.abs(moved_value) < np.abs(value))
            roots, value = np.where(better, moved, roots), np.where(better, moved_value, value)
    return roots


def root_clusters(coeffs: np.ndarray) -> list[list[tuple[complex, int]]]:
    """The roots of every row of `poly_roots`' input, with multiplicity: per row, (root, multiplicity) pairs.

    Roots within _ROOT_CLUSTER of a cluster's centre, relative to its size,
    join it greedily.  A repeated root is the mean of its cluster.
    """
    out = []
    for row in poly_roots(coeffs).tolist():
        clusters: list[list[int]] = []
        for k in sorted(range(len(row)), key=lambda k: (row[k].real, row[k].imag)):
            for cl in clusters:
                center = sum(row[i] for i in cl) / len(cl)
                if abs(row[k] - center) <= _ROOT_CLUSTER * abs(center):
                    cl.append(k)
                    break
            else:
                clusters.append([k])
        out.append([(sum(row[i] for i in cl) / len(cl), len(cl)) for cl in clusters])
    return out


def sym_fibers(rows: np.ndarray) -> list[list[tuple[complex, int]]]:
    """The roots t = X/Y, with multiplicity, of every row of an N x (d+1) array of binary-form coefficients.

    Callers judge a root by its size, |t| >= 1/EPS_GENERIC as infinite.
    Leading (top X-power) coefficients within (EPS_GENERIC/2)^d of the
    largest give the root at infinity, t = inf, only where some root has
    |t| >= 1/EPS_GENERIC anyway: the largest coefficient is the top one
    times a sum of at most 2^d products of roots.  The rows whose leading
    coefficients vanish to the same count share one `root_clusters`;
    simple roots take Newton steps on their polynomial (`polish_roots`).
    """
    coeffs = rows[:, ::-1]  # decreasing degree in t = X/Y
    mags = np.abs(coeffs)
    small = mags[:, :-1] <= (EPS_GENERIC / 2) ** (coeffs.shape[1] - 1) * mags.max(axis=1, keepdims=True)
    leads = np.cumprod(small, axis=1).sum(axis=1)
    out: list[list[tuple[complex, int]]] = [[] for _ in range(len(rows))]
    for lead in sorted(set(leads.tolist())):
        picked = np.flatnonzero(leads == lead).tolist()
        finite = coeffs[picked, lead:]
        clusters = root_clusters(finite)
        simple = [(i, j) for i, row in enumerate(clusters) for j, (_, m) in enumerate(row) if m == 1]
        if simple:
            start = np.array([[clusters[i][j][0]] for i, j in simple])
            for (i, j), x in zip(simple, polish_roots(finite[[i for i, _ in simple]], start)[:, 0].tolist()):
                clusters[i][j] = (x, 1)
        for r, row in zip(picked, clusters):
            if lead:
                out[r].append((complex(math.inf), lead))
            out[r].extend(row)
    return out


def sym_fiber(point: ProjectivePoint | Sequence[complex]) -> list[tuple[HomPair, int]]:
    """Roots (with multiplicity) of the binary form with coefficients `point`: one row of `sym_fibers`.

    Returns (num, den) pairs normalized by `ProjectivePoint.normalize`;
    (1, 0) stands for the root at infinity.
    """
    if not isinstance(point, ProjectivePoint):
        vec = [complex(c) for c in point]
        if not vec or not any(abs(c) > 0 for c in vec):
            raise DegenerateSection("zero coefficient vector has no roots")
        point = ProjectivePoint.normalize(vec)
    roots = sym_fibers(np.array([point.coords], dtype=complex))[0]
    return [(_pair(1.0, 0.0) if cmath.isinf(t) else _pair(t, 1.0), m) for t, m in roots]


def _derive(even: list, odd: list, d1: complex, d3: complex) -> tuple[list, list]:
    """The z-derivative of P(t) + wp' Q(t), as the coefficients of P and Q, lowest degree first.

    d/dz P(t) = wp' P'(t) and d/dz wp' Q(t) = wp'' Q(t) + wp'^2 Q'(t), with
    wp'^2 = 4t(t - d1)(t - d3) and wp'' = 2[t(t - d1) + t(t - d3) + (t - d1)(t - d3)],
    d1 and d3 the branch differences.
    """
    total, product = d1 + d3, d1 * d3
    new_even = [0] * (len(odd) + 2 if odd else 0)
    for i, q in enumerate(odd):
        new_even[i + 2] += (4 * i + 6) * q
        new_even[i + 1] -= (4 * i + 4) * total * q
        new_even[i] += (4 * i + 2) * product * q
    return new_even, [i * p for i, p in enumerate(even)][1:]


class SectionBasis:
    """Monomial basis of L(n*[0]): {1} u {t^a : 2a <= n} u {t^b wp' : 2b+3 <= n}, t = wp - e2.

    The n basis functions have pairwise distinct pole orders at 0, namely
    {0, 2, 3, ..., n}, and are listed in increasing pole order.  Their
    z-derivatives of every order k < n are tabulated once, each written as
    P(t) + wp' Q(t), so that `jet` needs only arithmetic on t and wp'.
    """

    def __init__(self, n: int, lattice: LatticeTau):
        if n < 2:
            raise InvalidOrder(f"line bundle degree must be >= 2, got {n}")
        self.n = n
        self.lattice = lattice
        terms: list[tuple[int, int, int]] = [(0, 0, 0)]  # (pole order, t power, wp' power)
        terms.extend((2 * a, a, 0) for a in range(1, n // 2 + 1))
        terms.extend((2 * b + 3, b, 1) for b in range((n - 3) // 2 + 1) if 2 * b + 3 <= n)
        terms.sort()
        self.terms = tuple(terms)
        self.pole_orders = tuple(t[0] for t in terms)
        d1, d3 = lattice.branch_differences
        # _jets[k][j]: the terms (i, c, odd) of the k-th derivative of
        # function j, c t^i (wp')^odd with c != 0
        self._jets: list[list[tuple]] = [[] for _ in range(n)]
        for _, a, e in terms:
            pair = ([], [0] * a + [1]) if e else ([0] * a + [1], [])
            for jets in self._jets:
                jets.append(
                    tuple((i, c, odd) for odd, p in enumerate(pair) for i, c in enumerate(p) if c != 0)
                )
                pair = _derive(*pair, d1, d3)

    def __len__(self) -> int:
        return self.n

    def jet(self, w, wprime, k: int = 0) -> list[np.ndarray]:
        """The k-jet of the basis, k < n: its z-derivatives of orders 0, 1, ..., k.

        `w` and `wprime` are the values of t and wp' at non-pole points:
        complex numbers, or 1-d arrays of one length, touched only by
        arithmetic.  Entry m holds the m-th derivatives of all basis
        functions along a new last axis.
        """
        powers = [w**0]
        # a k-th derivative has pole order at most n + k, and t^i has 2i
        for _ in range((self.n + k) // 2):
            powers.append(powers[-1] * w)
        out = []
        for jets in self._jets[: k + 1]:
            rows = []
            for terms in jets:
                value = None
                for i, c, odd in terms:
                    term = c * powers[i]
                    if odd:
                        term = term * wprime
                    value = term if value is None else value + term
                rows.append(0 * powers[0] if value is None else value)
            out.append(np.array(rows).T)
        return out


def divisor_to_coords(points: Sequence[TorusPoint], basis: SectionBasis) -> ProjectivePoint:
    """Coordinates in P^(n-1) of the section of O(n*[0]) vanishing on `points`.

    The divisor must be effective of degree n = basis.n with sum 0 in E;
    otherwise no section exists and SumNotZero is raised.  The section is
    the one row of `batch.divisors_to_coords`, which states the rule for
    repeated points; IllConditioned is raised where it marks that row.
    """
    n = basis.n
    if len(points) != n:
        raise InvalidPoint(f"divisor degree {len(points)} does not match n={n}")
    total = points[0]
    for p in points[1:]:
        total = total + p
    if not total.is_zero(tol=1e-6 * n):
        raise SumNotZero(
            f"divisor sum ({total.a:.3e}, {total.b:.3e}) is not the origin"
        )
    from .batch import divisors_to_coords

    rows, failed = divisors_to_coords(np.array([[(p.a, p.b) for p in points]]), basis)
    if failed[0]:
        raise IllConditioned("section system is numerically degenerate")
    return ProjectivePoint(tuple(rows[0].tolist()))


def section_zeros(
    coeffs: Sequence[complex] | ProjectivePoint, basis: SectionBasis
) -> list[tuple[TorusPoint, int]]:
    """Zero divisor of the section sum(c_j f_j) of O(n*[0]), n = basis.n.

    Writes the section as P(t) + wp' Q(t) and factors its norm
    N(t) = P(t)^2 - 4t(t - d1)(t - d3) Q(t)^2, whose roots are the t-values
    of the finite zeros; each root is lifted by `wp_inverse` and assigned to
    the sign branch where the section actually vanishes, and each simple zero
    is then polished by Newton steps on the section itself.  The origin
    absorbs the remaining degree.  The one row of `batch.section_zeros_array`; a lost row raises NoConvergence.
    """
    if isinstance(coeffs, ProjectivePoint):
        coeffs = coeffs.coords
    if len(coeffs) != basis.n:
        raise InvalidPoint(f"coefficient vector length {len(coeffs)} != n={basis.n}")
    from .batch import section_zeros_array

    points, mults, lost = section_zeros_array(np.array([coeffs], dtype=complex), basis)
    if lost[0]:
        raise NoConvergence("a zero of the section is past what wp_inverse inverts")
    return [
        (TorusPoint(basis.lattice, a, b), m)
        for (a, b), m in zip(points[0].tolist(), mults[0].tolist())
        if m
    ]
