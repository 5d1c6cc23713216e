"""Projective coordinates, symmetric products, and section calculus on E.

Two coordinate engines live here.  `sym_product` turns rows of d-tuples of
P^1 points into the coefficient vectors of the degree-d binary forms with
those roots, which is the quotient map (P^1)^d -> P^d on a whole stack of
tuples at once; `sym_fiber` inverts it for one point.
`SectionBasis` / `divisor_to_coords` / `section_zeros` realize the linear
system L(n*[0]) on E concretely enough to map divisors to coordinate vectors
and back: the basis gives values and z-derivatives of every order from wp
and wp', and `divisor_to_coords` is the one-row call of the stacked solver
`batch.divisors_to_coords`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .elliptic import (
    EPS_NUM,
    EPS_PROJ,
    HomPair,
    LatticeTau,
    TorusPoint,
    reduce_point,
    wp_both_values,
    wp_inverse,
)
from .errors import (
    DegenerateSection,
    IllConditioned,
    InvalidOrder,
    InvalidPoint,
    SumNotZero,
)

#: relative threshold below which the SVD kernel is considered ambiguous
_COND_FLOOR = 1e-10

#: relative clustering radius for repeated polynomial roots
_ROOT_CLUSTER = 1e-5

#: cap on the Newton steps that polish a simple zero of a section; from the
#: 1e-4 error an inexact root of the norm polynomial can leave, two steps
#: reach the accuracy of the coefficients
_POLISH_STEPS = 6


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of P^m with a canonical representative.

    Coordinates are divided by the entry of largest modulus, which therefore
    becomes exactly 1+0j; equality is Fubini-Study chordal distance below tol.
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

    @property
    def dim(self) -> int:
        return len(self.coords) - 1

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
                wedge += abs(p[i] * q[j] - p[j] * q[i]) ** 2
        norms = sum(abs(c) ** 2 for c in p) * sum(abs(c) ** 2 for c in q)
        return math.sqrt(wedge / norms)

    def close_to(self, other: "ProjectivePoint", tol: float = EPS_PROJ) -> bool:
        return self.chordal_dist(other) <= tol


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


#: pairs per block of `projective_spread`: each of its temporaries is one
#: float array of this many entries (32 KiB), about 0.3 MB for all of them
_SPREAD_BLOCK = 1 << 12


def projective_spread(coords: np.ndarray) -> float:
    """Largest pairwise chordal distance between the rows of `coords`; 0 for fewer than two.

    Each row holds the coordinates of a ProjectivePoint.  Equal to the
    maximum of `chordal_dist` over all pairs, bit for bit.  Exact
    duplicates are dropped first (their distance is exactly 0), then blocks
    of rows are compared against all later points with the wedge form
    written out in real arithmetic, in the order `chordal_dist` uses: the
    products of Python's complex multiply, `np.hypot` for `abs`, and
    `np.float_power` for `** 2`, which calls the same libm `pow`.
    """
    if len(coords) < 2:
        return 0.0
    coords = coords[first_copies(np.ascontiguousarray(coords).view(np.float64))].T
    n = coords.shape[1]
    if n < 2:
        return 0.0
    re, im = coords.real.copy(), coords.imag.copy()
    m = len(coords)
    norms = 0.0
    for k in range(m):
        norms = norms + np.float_power(np.hypot(re[k], im[k]), 2.0)
    worst = 0.0
    start = 0
    while start < n - 1:
        cols = slice(start + 1, n)
        stop = min(n - 1, start + max(1, _SPREAD_BLOCK // (n - start - 1)))
        rows = slice(start, stop)
        pr, pi = re[:, rows, None], im[:, rows, None]
        qr, qi = re[:, None, cols], im[:, None, cols]
        wedge = 0.0
        for k in range(m):
            for l in range(k + 1, m):
                xr = pr[k] * qr[l] - pi[k] * qi[l]
                xi = pr[k] * qi[l] + pi[k] * qr[l]
                yr = pr[l] * qr[k] - pi[l] * qi[k]
                yi = pr[l] * qi[k] + pi[l] * qr[k]
                wedge = wedge + np.float_power(np.hypot(xr - yr, xi - yi), 2.0)
        dist = np.sqrt(wedge / (norms[rows, None] * norms[None, cols]))
        # entries with column <= row repeat a pair of this block bit for bit
        # (chordal_dist is exactly symmetric) or are 0, so the max keeps them
        worst = max(worst, float(dist.max()))
        start = stop
    return worst


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


def _cluster_roots(roots: Sequence[complex], rel_tol: float = _ROOT_CLUSTER) -> list[tuple[complex, int]]:
    """Greedy clustering of numerically split repeated roots."""
    clusters: list[list[complex]] = []
    for r in sorted(roots, key=lambda c: (c.real, c.imag)):
        for cl in clusters:
            center = sum(cl) / len(cl)
            if abs(r - center) <= rel_tol * (1.0 + abs(center)):
                cl.append(r)
                break
        else:
            clusters.append([r])
    return [(sum(cl) / len(cl), len(cl)) for cl in clusters]


def sym_fiber(point: ProjectivePoint | Sequence[complex]) -> list[tuple[HomPair, int]]:
    """Roots (with multiplicity) of the binary form with coefficients `point`.

    Returns normalized (num, den) pairs; (1, 0) stands for the root at
    infinity, contributed by vanishing leading (top X-power) coefficients.
    """
    if not isinstance(point, ProjectivePoint):
        vec = [complex(c) for c in point]
        if not vec or not any(abs(c) > 0 for c in vec):
            raise DegenerateSection("zero coefficient vector has no roots")
        point = ProjectivePoint.normalize(vec)
    coeffs = list(point.coords)[::-1]  # decreasing degree in t = X/Y
    top = max(abs(c) for c in coeffs)
    lead = 0
    while lead < len(coeffs) - 1 and abs(coeffs[lead]) <= EPS_NUM * top:
        lead += 1
    out: list[tuple[HomPair, int]] = []
    if lead:
        out.append((HomPair(1.0 + 0j, 0j), lead))
    finite = coeffs[lead:]
    if len(finite) > 1:
        roots = np.roots(np.array(finite))
        for center, mult in _cluster_roots(list(roots)):
            if abs(center) <= 1.0:
                out.append((HomPair(complex(center), 1.0 + 0j), mult))
            else:
                out.append((HomPair(1.0 + 0j, 1.0 / complex(center)), mult))
    return out


def _derive(even: list, odd: list, g2: complex, g3: complex) -> tuple[list, list]:
    """The z-derivative of P(wp) + wp' Q(wp), as the coefficients of P and Q, lowest degree first.

    d/dz P(wp) = wp' P'(wp) and d/dz wp' Q(wp) = wp'' Q(wp) + wp'^2 Q'(wp),
    with wp'' = 6 wp^2 - g2/2 and wp'^2 = 4 wp^3 - g2 wp - g3.
    """
    new_even = [0] * (len(odd) + 2 if odd else 0)
    for i, q in enumerate(odd):
        new_even[i + 2] += (4 * i + 6) * q
        new_even[i] -= (i + 0.5) * g2 * q
        if i:
            new_even[i - 1] -= i * g3 * q
    return new_even, [i * p for i, p in enumerate(even)][1:]


class SectionBasis:
    """Monomial basis of L(n*[0]): {1} u {wp^a : 2a <= n} u {wp^b wp' : 2b+3 <= n}.

    The n basis functions have pairwise distinct pole orders at 0, namely
    {0, 2, 3, ..., n}, and are listed in increasing pole order.  Their
    z-derivatives of every order k < n are tabulated once, each written as
    P(wp) + wp' Q(wp), so that `jet` needs only arithmetic on wp and wp'.
    """

    def __init__(self, n: int, lattice: LatticeTau):
        if n < 2:
            raise InvalidOrder(f"line bundle degree must be >= 2, got {n}")
        self.n = n
        self.lattice = lattice
        terms: list[tuple[int, int, int]] = [(0, 0, 0)]  # (pole order, wp power, wp' power)
        terms.extend((2 * a, a, 0) for a in range(1, n // 2 + 1))
        terms.extend((2 * b + 3, b, 1) for b in range((n - 3) // 2 + 1) if 2 * b + 3 <= n)
        terms.sort()
        self.terms = tuple(terms)
        self.pole_orders = tuple(t[0] for t in terms)
        g2, g3 = lattice.g2g3
        # _jets[k][j]: the terms (i, c, odd) of the k-th derivative of
        # function j, c wp^i (wp')^odd with c != 0
        self._jets: list[list[tuple]] = [[] for _ in range(n)]
        for _, a, e in terms:
            pair = ([], [0] * a + [1]) if e else ([0] * a + [1], [])
            for jets in self._jets:
                jets.append(
                    tuple((i, c, odd) for odd, p in enumerate(pair) for i, c in enumerate(p) if c != 0)
                )
                pair = _derive(*pair, g2, g3)

    def __len__(self) -> int:
        return self.n

    def jet(self, w, wprime, k: int = 0) -> list[np.ndarray]:
        """The k-jet of the basis, k < n: its z-derivatives of orders 0, 1, ..., k.

        `w` and `wprime` are the values of wp and wp' at non-pole points:
        complex numbers, or 1-d arrays of one length, touched only by
        arithmetic.  Entry m holds the m-th derivatives of all basis
        functions along a new last axis.  A unit coefficient multiplies
        nothing, so the values keep the bits of the powers of wp.
        """
        powers = [w**0]
        # a k-th derivative has pole order at most n + k, and wp^i has 2i
        for _ in range((self.n + k) // 2):
            powers.append(powers[-1] * w)
        out = []
        for jets in self._jets[: k + 1]:
            rows = []
            for terms in jets:
                value = None
                for i, c, odd in terms:
                    term = powers[i] if c == 1 else c * powers[i]
                    if odd:
                        term = term * wprime
                    value = term if value is None else value + term
                rows.append(0 * powers[0] if value is None else value)
            out.append(np.array(rows).T)
        return out

    def evaluate(self, p: TorusPoint) -> np.ndarray:
        """Values of all basis functions at a non-pole point."""
        return self.jet(*wp_both_values(p))[0]


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


def _newton_polish(z: TorusPoint, c: np.ndarray, basis: SectionBasis) -> TorusPoint:
    """Newton steps on f = sum c_j f_j from an approximate simple zero.

    Each step is kept only if it lowers |f|; the first that does not ends
    the polish.
    """
    f, df = (complex(np.dot(c, row)) for row in basis.jet(*wp_both_values(z), 1))
    for _ in range(_POLISH_STEPS):
        if df == 0:
            break
        step = f / df
        if not (math.isfinite(step.real) and math.isfinite(step.imag)):
            break
        w = reduce_point(z.z - step, basis.lattice)
        if w.is_zero():  # the pole of every basis function
            break
        fw, dfw = (complex(np.dot(c, row)) for row in basis.jet(*wp_both_values(w), 1))
        if not abs(fw) < abs(f):
            break
        z, f, df = w, fw, dfw
    return z


def section_zeros(
    coeffs: Sequence[complex] | ProjectivePoint, basis: SectionBasis
) -> list[tuple[TorusPoint, int]]:
    """Zero divisor of the section sum(c_j f_j) of O(n*[0]), n = basis.n.

    Writes the section as P(wp) + wp' Q(wp) and factors its norm
    N(x) = P(x)^2 - (4x^3 - g2 x - g3) Q(x)^2, whose roots are the wp-values
    of the finite zeros; each root is lifted by `wp_inverse` and assigned to
    the sign branch where the section actually vanishes, and each simple zero
    is then polished by Newton steps on the section itself.  The origin
    absorbs the remaining degree.
    """
    if isinstance(coeffs, ProjectivePoint):
        coeffs = coeffs.coords
    n = basis.n
    lattice = basis.lattice
    if len(coeffs) != n:
        raise InvalidPoint(f"coefficient vector length {len(coeffs)} != n={n}")
    c = np.asarray(coeffs, dtype=complex)
    top = float(np.max(np.abs(c)))
    if top == 0 or not math.isfinite(top):
        raise DegenerateSection("zero or non-finite coefficient vector")

    # pole order of the section = largest pole order with surviving coefficient
    p_order = 0
    for j in range(n - 1, -1, -1):
        if abs(c[j]) > 1e-12 * top:
            p_order = basis.pole_orders[j]
            break

    # split into even part P(x) and odd part x-polynomials: f = P(wp) + wp' Q(wp)
    degP = p_order // 2
    degQ = max((p_order - 3) // 2, -1)
    P = np.zeros(degP + 1, dtype=complex)
    Q = np.zeros(degQ + 1, dtype=complex) if degQ >= 0 else np.zeros(0, dtype=complex)
    for (order, a, e), cj in zip(basis.terms, c):
        if order > p_order:
            continue
        if e == 0:
            P[a] += cj
        else:
            Q[a] += cj

    divisor: list[tuple[TorusPoint, int]] = []
    if p_order == 0:
        divisor.append((TorusPoint(lattice, 0.0, 0.0), n))
        return divisor

    g2, g3 = lattice.g2g3
    # N(x) = P^2 - (4x^3 - g2 x - g3) Q^2, degree exactly p_order
    Pd = P[::-1]  # numpy poly convention: highest degree first
    norm = np.convolve(Pd, Pd)
    if len(Q):
        Qd = Q[::-1]
        cubic = np.array([4.0, 0.0, -g2, -g3])
        norm_q = np.convolve(np.convolve(Qd, Qd), cubic)
        width = max(len(norm), len(norm_q))
        norm = np.pad(norm, (width - len(norm), 0)) - np.pad(
            norm_q, (width - len(norm_q), 0)
        )
    # strip numerically void leading terms down to the true degree
    norm = norm[len(norm) - (p_order + 1) :]

    scale = float(np.max(np.abs(norm)))
    if scale == 0:
        raise DegenerateSection("norm polynomial vanishes identically")
    roots = np.roots(norm / scale)
    for x0, mult in _cluster_roots(list(roots)):
        z_plus, z_minus = wp_inverse(x0, lattice)
        if z_plus.close_to(-z_plus, tol=1e-6):
            # 2-torsion: both branches coincide, full multiplicity
            divisor.append((z_plus, mult))
            continue
        # wp is even and wp' odd: the basis at z_minus = -z_plus is read off
        # the same series values with wp' negated
        w, wprime = wp_both_values(z_plus)
        at_plus = basis.jet(w, wprime)[0]
        f_plus = abs(complex(np.dot(c, at_plus)))
        f_minus = abs(complex(np.dot(c, basis.jet(w, -wprime)[0])))
        # scale of the two nearly-cancelling halves of the section at x0
        vals = np.abs(at_plus) * np.abs(c)
        size = float(np.max(vals)) + 1e-300
        if f_plus < 1e-4 * size and f_minus < 1e-4 * size:
            # both branches vanish: split the cluster between them
            low = mult // 2
            high = mult - low
            if f_plus <= f_minus:
                split = [(z_plus, high), (z_minus, low)]
            else:
                split = [(z_plus, low), (z_minus, high)]
            divisor.extend((z, m) for z, m in split if m)
        elif f_plus < f_minus:
            divisor.append((z_plus, mult))
        else:
            divisor.append((z_minus, mult))
    # np.roots leaves each x0 off by the norm polynomial's conditioning, and
    # where wp' is small that moves z by far more than the matching tolerances
    divisor = [(_newton_polish(z, c, basis) if m == 1 else z, m) for z, m in divisor]
    if n > p_order:
        divisor.append((TorusPoint(lattice, 0.0, 0.0), n - p_order))
    return divisor
