import cmath
import itertools
import math

import numpy as np
import pytest

from ellcover import (
    FiniteSubgroupSpec,
    HomPair,
    IllConditioned,
    InvalidPoint,
    LatticeTau,
    NoConvergence,
    NonGenericTarget,
    ProjectivePoint,
    SumNotZero,
    TorusPoint,
    reduce_point,
    wp,
)
from ellcover.batch import _POLISH_STEPS
from ellcover.covers import EPS_GENERIC
from ellcover.elliptic import (
    _AGM_MAX_STEPS,
    _AGM_REL,
    EPS_NUM,
    EPS_PT,
    _on_side,
    _wp_series,
    wp_both_values,
)
from ellcover.symfun import _COND_FLOOR, _cluster_roots, first_copies

TAU = complex(0.3, 1.1)


def lattice_sum_g2_g3(tau: complex, radius: int = 200) -> tuple[complex, complex]:
    """Direct Eisenstein sums over |m|, |n| <= radius on Z + Z*tau.

    Row sums decay exponentially in |n| for reduced tau, but each row's tail
    in m only decays algebraically; the midpoint-rule integral correction per
    row pushes the truncation error below 1e-9 relative at radius 200.
    """
    idx = np.arange(-radius, radius + 1)
    m, n = np.meshgrid(idx, idx)
    mask = (m != 0) | (n != 0)
    w = (m + n * tau)[mask].astype(complex)
    g4 = np.sum(w ** -4.0)
    g6 = np.sum(w ** -6.0)
    edge = radius + 0.5
    for k in idx:
        right = edge + k * tau
        left = edge - k * tau
        g4 += (right ** -3 + left ** -3) / 3
        g6 += (right ** -5 + left ** -5) / 5
    return 60 * g4, 140 * g6


def laurent_wp(z: complex, g2: complex, g3: complex, terms: int = 60):
    """(wp, wp') at z from the Laurent expansion around 0.

    Coefficient recursion c_k = 3/((2k+3)(k-2)) * sum c_m c_(k-1-m); valid for
    |z| below the shortest lattice vector, independent of the q-series route.
    """
    c = [0.0 + 0.0j, g2 / 20.0, g3 / 28.0]
    for k in range(3, terms):
        s = sum(c[m] * c[k - 1 - m] for m in range(1, k - 1))
        c.append(3.0 * s / ((2 * k + 3) * (k - 2)))
    p = 1.0 / z ** 2
    dp = -2.0 / z ** 3
    for k in range(1, terms):
        p += c[k] * z ** (2 * k)
        dp += 2 * k * c[k] * z ** (2 * k - 1)
    return p, dp


@pytest.fixture(scope="session")
def lattice() -> LatticeTau:
    return LatticeTau.from_tau(TAU)


@pytest.fixture(scope="session")
def q2() -> FiniteSubgroupSpec:
    return FiniteSubgroupSpec.parse(("1/2,0",))


@pytest.fixture(scope="session")
def q3() -> FiniteSubgroupSpec:
    return FiniteSubgroupSpec.parse(("1/3,0",))


@pytest.fixture(scope="session")
def q4() -> FiniteSubgroupSpec:
    return FiniteSubgroupSpec.parse(("1/4,0",))


def scalar_sym_product(pairs):
    """`sym_product` of one tuple of `HomPair`s, factor by factor: its scalar oracle.

    Coefficients (c_0 : ... : c_d) of prod_i (den_i*X - num_i*Y), index k
    holding the coefficient of X^k Y^(d-k); factors are multiplied in
    sorted order, as the array form sorts them.
    """
    ordered = sorted(pairs, key=lambda p: (p.num.real, p.num.imag, p.den.real, p.den.imag))
    coeffs = np.array([1.0 + 0j])
    for num, den in ordered:
        coeffs = np.convolve(coeffs, np.array([den, -num]))
    return ProjectivePoint.normalize(coeffs[::-1])


def scalar_map_A(spec, point):
    """Construction A on one point tuple: scalar `wp` on E/Q0, then `scalar_sym_product`."""
    target = spec.quotient.target
    return scalar_sym_product([wp(reduce_point(p.z, target)) for p in point])


def scalar_divisor_to_coords(points, basis):
    """`divisor_to_coords` of one divisor, one group of points at a time: its scalar oracle.

    The points are sorted, and each joins the first earlier representative
    within EPS_PT.  A group of m copies of a point off the origin gives the
    rows of its z-derivatives of orders 0, ..., m-1, with wp' taken as 0 at
    a half period; m copies of the origin strike the basis elements of pole
    orders n, n-1, ..., n+1-m, down to 2.
    The kernel comes from the SVD of the row-scaled matrix; a collapsing
    second-smallest singular value raises IllConditioned.
    """
    n = basis.n
    if len(points) != n:
        raise InvalidPoint(f"divisor degree {len(points)} does not match n={n}")
    total = points[0]
    for p in points[1:]:
        total = total + p
    if not total.is_zero(tol=1e-6 * n):
        raise SumNotZero("divisor sum is not the origin")
    groups = []
    for p in sorted(points, key=TorusPoint.sort_key):
        for rep, members in groups:
            if p.close_to(rep, EPS_PT):
                members.append(p)
                break
        else:
            groups.append((p, [p]))
    rows = []
    for rep, members in groups:
        if rep.is_zero(EPS_PT):
            for k in range(len(members)):
                unit = np.zeros(n, dtype=complex)
                if k < n - 1:  # no basis function has a simple pole
                    unit[n - 1 - k] = 1.0
                rows.append(unit)
        else:
            w, wprime = wp_both_values(rep)
            if (rep + rep).is_zero(EPS_PT):
                wprime = 0j
            rows.extend(basis.jet(w, wprime, len(members) - 1))
    matrix = np.array(rows)
    norms = np.max(np.abs(matrix), axis=1, keepdims=True)
    matrix = matrix / np.where(norms == 0, 1.0, norms)
    _, s, vh = np.linalg.svd(matrix)
    if s[-2] <= _COND_FLOOR * s[0]:
        raise IllConditioned(f"section system is numerically degenerate (s2/s0={s[-2] / s[0]:.2e})")
    return ProjectivePoint.normalize(np.conj(vh[-1]))


def scalar_map_B(spec, point):
    """Construction B on one point tuple: `scalar_divisor_to_coords` of y_1, ..., y_d, -sum y_i.

    Raises what `divisor_to_coords` raises on a divisor it cannot map.
    """
    ys = [spec.quotient.map(p) for p in point]
    total = ys[0]
    for y in ys[1:]:
        total = total + y
    ys.append(-total)
    return scalar_divisor_to_coords(ys, spec.basis)


def scalar_map(spec, point):
    """The scalar oracle of `spec.map_array` on one point tuple."""
    return (scalar_map_A if spec.construction == "A" else scalar_map_B)(spec, point)


# Scalar oracles of the fiber recovery: one target, one root, one zero at a
# time in Python's complex arithmetic, as the package recovered fibers
# before its array forms.


def scalar_wp_inverse(x, lattice):
    """`wp_inverse` by the AGM elliptic logarithm in cmath, one value at a time."""
    x = complex(x)
    if not (math.isfinite(x.real) and math.isfinite(x.imag)):
        raise InvalidPoint(f"non-finite target value: {x!r}")
    e1, e2, e3 = lattice.branch_values
    c = cmath.sqrt(x - e3)
    if c == 0:
        p = lattice._half_period(1, 1)
    else:
        a = cmath.sqrt(e1 - e3)
        b = _on_side(cmath.sqrt(e1 - e2), a)
        for _ in range(_AGM_MAX_STEPS):
            if abs(a - b) <= _AGM_REL * abs(a):
                break
            c = (c + _on_side(cmath.sqrt(c * c + b * b - a * a), c)) / 2
            a, b = (a + b) / 2, _on_side(cmath.sqrt(a * b), (a + b) / 2)
        p = reduce_point(cmath.asin(a / c) / a, lattice)
    num, den = _wp_series(lattice, p.a, p.b, derivative=False)
    if den == 0 or not abs(num / den - x) <= EPS_NUM * (1.0 + abs(x)):
        raise NoConvergence(f"wp_inverse missed its residual contract at x={x!r}")
    pair = sorted([p, -p], key=TorusPoint.sort_key)
    return pair[0], pair[1]


def scalar_sym_fiber(point):
    """`sym_fiber` of one ProjectivePoint, through `np.roots`."""
    coeffs = list(point.coords)[::-1]  # decreasing degree in t = X/Y
    top = max(abs(c) for c in coeffs)
    lead = 0
    while lead < len(coeffs) - 1 and abs(coeffs[lead]) <= EPS_NUM * top:
        lead += 1
    out = []
    if lead:
        out.append((HomPair(1.0 + 0j, 0j), lead))
    finite = coeffs[lead:]
    if len(finite) > 1:
        for center, mult in _cluster_roots(list(np.roots(np.array(finite)))):
            if abs(center) <= 1.0:
                out.append((HomPair(complex(center), 1.0 + 0j), mult))
            else:
                out.append((HomPair(1.0 + 0j, 1.0 / complex(center)), mult))
    return out


def scalar_newton_polish(z, c, basis):
    """Newton steps on f = sum c_j f_j from an approximate simple zero, until one does not lower |f|."""
    f, df = (complex(np.dot(c, row)) for row in basis.jet(*wp_both_values(z), 1))
    for _ in range(_POLISH_STEPS):
        if df == 0:
            break
        step = f / df
        if not (math.isfinite(step.real) and math.isfinite(step.imag)):
            break
        w = reduce_point(z.z - step, basis.lattice)
        if w.is_zero():
            break
        fw, dfw = (complex(np.dot(c, row)) for row in basis.jet(*wp_both_values(w), 1))
        if not abs(fw) < abs(f):
            break
        z, f, df = w, fw, dfw
    return z


def scalar_section_zeros(coeffs, basis):
    """`section_zeros` of one section: its norm polynomial through `np.convolve` and `np.roots`."""
    n = basis.n
    lattice = basis.lattice
    c = np.asarray(coeffs, dtype=complex)
    top = float(np.max(np.abs(c)))
    p_order = 0
    for j in range(n - 1, -1, -1):
        if abs(c[j]) > 1e-12 * top:
            p_order = basis.pole_orders[j]
            break
    if p_order == 0:
        return [(TorusPoint(lattice, 0.0, 0.0), n)]
    P = np.zeros(p_order // 2 + 1, dtype=complex)
    Q = np.zeros(max((p_order - 3) // 2 + 1, 0), dtype=complex)
    for (order, a, e), cj in zip(basis.terms, c):
        if order <= p_order:
            (Q if e else P)[a] += cj
    g2, g3 = lattice.g2g3
    norm = np.convolve(P[::-1], P[::-1])
    if len(Q):
        norm_q = np.convolve(np.convolve(Q[::-1], Q[::-1]), np.array([4.0, 0.0, -g2, -g3]))
        width = max(len(norm), len(norm_q))
        norm = np.pad(norm, (width - len(norm), 0)) - np.pad(norm_q, (width - len(norm_q), 0))
    norm = norm[len(norm) - (p_order + 1) :]
    divisor = []
    for x0, mult in _cluster_roots(list(np.roots(norm / float(np.max(np.abs(norm)))))):
        z_plus, z_minus = scalar_wp_inverse(x0, lattice)
        if z_plus.close_to(-z_plus, tol=1e-6):
            divisor.append((z_plus, mult))
            continue
        w, wprime = wp_both_values(z_plus)
        at_plus = basis.jet(w, wprime)[0]
        f_plus = abs(complex(np.dot(c, at_plus)))
        f_minus = abs(complex(np.dot(c, basis.jet(w, -wprime)[0])))
        size = float(np.max(np.abs(at_plus) * np.abs(c))) + 1e-300
        if f_plus < 1e-4 * size and f_minus < 1e-4 * size:
            low, high = mult // 2, mult - mult // 2
            split = [(z_plus, high), (z_minus, low)]
            if f_plus > f_minus:
                split = [(z_plus, low), (z_minus, high)]
            divisor.extend((z, m) for z, m in split if m)
        else:
            divisor.append((z_plus if f_plus < f_minus else z_minus, mult))
    divisor = [(scalar_newton_polish(z, c, basis) if m == 1 else z, m) for z, m in divisor]
    if n > p_order:
        divisor.append((TorusPoint(lattice, 0.0, 0.0), n - p_order))
    return divisor


def _arrangements(lift_sets, d):
    """Every d-tuple that takes one point from each of d distinct lift sets, in order."""
    return [
        tuple(choice)
        for arrangement in itertools.permutations(range(len(lift_sets)), d)
        for choice in itertools.product(*(lift_sets[i] for i in arrangement))
    ]


def scalar_fiber(spec, target):
    """The fiber of one target, root by root: the scalar oracle of `spec.fiber_array`.

    Raises NonGenericTarget where the target is not a generic value.
    """
    if spec.construction == "B":
        zeros = scalar_section_zeros(target.coords, spec.basis)
        if any(m > 1 for _, m in zeros):
            raise NonGenericTarget("repeated point in the target divisor")
        divisor = sorted((y for y, _ in zeros), key=TorusPoint.sort_key)
        return _arrangements([spec.quotient.lifts(y) for y in divisor], spec.d)
    lattice = spec.quotient.target
    roots = scalar_sym_fiber(target)
    if any(m > 1 for _, m in roots):
        raise NonGenericTarget("repeated roots in the target binary form")
    if any(abs(pair.den) <= EPS_GENERIC for pair, _ in roots):
        raise NonGenericTarget("root at infinity is a branch value of wp")
    values = [pair.num / pair.den for pair, _ in roots]
    for x in values:
        if any(abs(x - e) <= EPS_GENERIC * (1.0 + abs(e)) for e in lattice.branch_values):
            raise NonGenericTarget(f"root {x:.6g} sits at a branch value")
    lift_sets = []
    for x in values:
        w_plus, w_minus = scalar_wp_inverse(x, lattice)
        lift_sets.append(spec.quotient.lifts(w_plus) + spec.quotient.lifts(w_minus))
    return _arrangements(lift_sets, spec.d)


def scalar_projective_spread(coords):
    """`projective_spread` of one orbit's rows, block by block: its oracle.

    Exact duplicates are dropped, then blocks of rows are compared with all
    later rows in the wedge form of `chordal_dist`, in real arithmetic.
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
        stop = min(n - 1, start + max(1, 4096 // (n - start - 1)))
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
        worst = max(worst, float(dist.max()))
        start = stop
    return worst
