import numpy as np
import pytest

from ellcover import (
    FiniteSubgroupSpec,
    IllConditioned,
    InvalidPoint,
    LatticeTau,
    ProjectivePoint,
    SumNotZero,
    TorusPoint,
    reduce_point,
    wp,
)
from ellcover.elliptic import EPS_PT, wp_both_values
from ellcover.symfun import _COND_FLOOR

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
