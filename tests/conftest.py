import mpmath
import numpy as np
import pytest

from ellcover import FiniteSubgroupSpec, LatticeTau, ProjectivePoint

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


# Oracles at 40 digits (mpmath), one point at a time: Jacobi theta functions
# on the reduced basis of a lattice, recomputed from its periods.

DIGITS = 40


def _reduced(lattice):
    """(s, tau') with lattice = s (Z + Z tau'), from the periods and `basis_change`."""
    a, b, c, d = lattice.basis_change
    w1, w2 = mpmath.mpc(lattice.omega1), mpmath.mpc(lattice.omega2)
    tau = w2 / w1
    return w1 * (c * tau + d), (a * tau + b) / (c * tau + d)


def _thetas(s, tau, z, derivative=False):
    """theta1, theta4 at pi z / s, theta2(0), theta3(0), and theta1', theta4' if asked, nome exp(i pi tau)."""
    q = mpmath.exp(1j * mpmath.pi * tau)
    zeta = mpmath.pi * z / s
    out = [mpmath.jtheta(n, zeta, q) for n in (1, 4)] + [mpmath.jtheta(n, 0, q) for n in (2, 3)]
    if derivative:
        out += [mpmath.jtheta(n, zeta, q, 1) for n in (1, 4)]
    return out


def point_z(lattice, a, b):
    """a*omega1 + b*omega2 in mpmath, with the floats a and b taken as exact."""
    return mpmath.mpf(a) * mpmath.mpc(lattice.omega1) + mpmath.mpf(b) * mpmath.mpc(lattice.omega2)


def _t_pair(lattice, z):
    """t = wp - wp(tau'/2) at z as (num, den), den = 0 at a lattice point (DLMF 23.6.4)."""
    s, tau = _reduced(lattice)
    t1, t4, t2, t3 = _thetas(s, tau, mpmath.mpc(z))
    return (mpmath.pi * t2 * t3 * t4 / s) ** 2, t1**2


def theta_t(lattice, z):
    """(t, wp') at the complex point z, t = wp - wp(tau'/2) on the reduced basis."""
    with mpmath.workdps(DIGITS):
        s, tau = _reduced(lattice)
        t1, t4, t2, t3, d1, d4 = _thetas(s, tau, mpmath.mpc(z), derivative=True)
        amp = (mpmath.pi * t2 * t3 / s) ** 2
        ratio = t4 / t1
        return amp * ratio**2, 2 * amp * ratio * (d4 * t1 - t4 * d1) / t1**2 * mpmath.pi / s


def _normalized(coeffs):
    top = max(coeffs, key=abs)
    return ProjectivePoint.normalize([complex(c / top) for c in coeffs])


def scalar_sym_product(pairs):
    """The binary form prod_i (den_i X - num_i Y) of pairs (num_i, den_i), at 40 digits.

    Index k holds the coefficient of X^k Y^(d-k), as `sym_product` has it.
    """
    with mpmath.workdps(DIGITS):
        coeffs = [mpmath.mpf(1)]
        for num, den in pairs:
            num, den = mpmath.mpc(num), mpmath.mpc(den)
            coeffs = [den * x - num * y for x, y in zip([0] + coeffs, coeffs + [0])]
        return _normalized(coeffs)


def _section(basis, zeros):
    """The coefficients of the section of O(n[0]) whose zeros are the complex points `zeros`, summing to 0.

    The section is prod theta1(pi (w - y)/s) / theta1(pi w/s)^n, elliptic
    because the zeros sum to 0 as complex numbers; its coordinates solve
    the basis at n fixed points.
    """
    lattice = basis.lattice
    with mpmath.workdps(DIGITS):
        s, tau = _reduced(lattice)
        rows, values = [], []
        for k in range(basis.n):
            w = point_z(lattice, 0.1 + 0.13 * k, 0.27 + 0.19 * k)
            t, wprime = theta_t(lattice, w)
            rows.append([t**a * wprime**e for _, a, e in basis.terms])
            value = _thetas(s, tau, w)[0] ** -basis.n
            for y in zeros:
                value *= _thetas(s, tau, w - y)[0]
            values.append(value)
        c = mpmath.lu_solve(mpmath.matrix(rows), mpmath.matrix(values))
        return _normalized([c[k] for k in range(basis.n)])


def isogeny_z(spec, p):
    """The image on E/Q0 of the point p of E, a complex number at the working precision.

    The isogeny is z -> lam*z: it sends (a/N)*omega1, the first period of
    E/Q0 before `quotient_lattice` scales it, to E/Q0's period omega1', so
    lam = N*omega1' / (a*omega1), for Q0's `hermite_basis` (N, a, b, c).
    """
    n, a, _, _ = spec.q0.hermite_basis
    lam = n * mpmath.mpc(spec.quotient.target.omega1) / (a * mpmath.mpc(spec.curve.omega1))
    return lam * point_z(spec.curve, p.a, p.b)


def scalar_map(spec, point):
    """The image of one point tuple at 40 digits: the oracle of `spec.map_array`.

    Each point goes through the isogeny (`isogeny_z`).  A: the binary form
    whose roots are the t-values of the images on E/Q0.  B: the section
    vanishing on y_1, ..., y_d, -sum y_i, each y_i taken at the image of
    the point's own representative.  Exact in both, so it has an image
    wherever the map is defined, at poles, the origin and repeated points.
    """
    with mpmath.workdps(DIGITS):
        zs = [isogeny_z(spec, p) for p in point]
        if spec.construction == "B":
            return _section(spec.basis, zs + [-sum(zs)])
        return scalar_sym_product([_t_pair(spec.quotient.target, z) for z in zs])
