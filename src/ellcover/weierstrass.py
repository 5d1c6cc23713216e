"""Points of C/Lambda and the Weierstrass functions on them: the numeric half of `elliptic`.

`verify` and the one-row API load this module; `construct`, which builds a
cover in integers, never does.  The theta-product kernel of t = wp - e2 and
wp' (`_wp_kernel`) serves `LatticeTau.branch_differences` and the array
path through `batch.t_series_array`; `wp`, `wp_prime` and `centred_values`
read one row of it, imported when called.  Weierstrass values are returned
as homogeneous pairs (num, den) so that poles degrade to (1, 0) instead of
overflowing.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .elliptic import EPS_PT, LatticeTau
from .errors import InvalidPoint, NoConvergence
from .polarization import _Frozen

# the AGM in wp_inverse stops once |b^2 - a^2| falls below (this * |a|)^2
_AGM_REL = 1e-15
_AGM_MAX_STEPS = 32

_TWO_PI_I = 2j * math.pi


def _frac(x: float) -> float:
    """Fractional part in [0, 1), safe against the `(-eps) % 1.0 == 1.0` edge."""
    r = x % 1.0
    if r >= 1.0:
        r = 0.0
    return r + 0.0  # normalize -0.0


def _wrap_dist(x: float, y: float) -> float:
    """Distance between x and y on R/Z."""
    d = abs(x - y) % 1.0
    return min(d, 1.0 - d)


class HomPair(NamedTuple):
    """A function value as a ratio num/den of holomorphic quantities.

    Pairs are stored normalized so the larger component has modulus 1; a pole
    is exactly (1, 0).
    """

    num: complex
    den: complex

    @property
    def value(self) -> complex:
        """Plain complex value; raises ZeroDivisionError at a pole."""
        return self.num / self.den


class TorusPoint(_Frozen):
    """A point of C/Lambda stored by reduced lattice coordinates in [0, 1)^2."""

    lattice: LatticeTau
    a: float
    b: float

    def __init__(self, lattice: LatticeTau, a: float, b: float):
        if not (math.isfinite(a) and math.isfinite(b)):
            raise InvalidPoint(f"non-finite point coordinates: ({a!r}, {b!r})")
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def from_coords(cls, lattice: LatticeTau, a: float, b: float) -> "TorusPoint":
        return cls(lattice, _frac(float(a)), _frac(float(b)))

    def __neg__(self) -> "TorusPoint":
        return TorusPoint(self.lattice, _frac(-self.a), _frac(-self.b))

    def __add__(self, other: "TorusPoint") -> "TorusPoint":
        return TorusPoint(self.lattice, _frac(self.a + other.a), _frac(self.b + other.b))

    def __sub__(self, other: "TorusPoint") -> "TorusPoint":
        return TorusPoint(self.lattice, _frac(self.a - other.a), _frac(self.b - other.b))

    def close_to(self, other: "TorusPoint", tol: float = EPS_PT) -> bool:
        """Toroidal sup-metric equality within tol."""
        return (
            _wrap_dist(self.a, other.a) <= tol
            and _wrap_dist(self.b, other.b) <= tol
        )

    def is_zero(self, tol: float = EPS_PT) -> bool:
        return _wrap_dist(self.a, 0.0) <= tol and _wrap_dist(self.b, 0.0) <= tol


#: a point of E^d, as d torus points
PointTuple = tuple[TorusPoint, ...]


def reduce_point(z: complex, lattice: LatticeTau) -> TorusPoint:
    """Reduce a complex representative into the fundamental parallelogram."""
    a, b = lattice.coords(complex(z))
    return TorusPoint(lattice, _frac(a), _frac(b))


def eisenstein_g2_g3(lattice: LatticeTau) -> tuple[complex, complex]:
    """Weierstrass invariants (scale included): 4x^3 - g2 x - g3 = 4(x - e1)(x - e2)(x - e3)."""
    d1, d3 = lattice.branch_differences
    e2 = lattice.e2
    return 12.0 * e2 * e2 - 4.0 * d1 * d3, 4.0 * e2 * (d1 * d3 - 2.0 * e2 * e2)


def _wp_kernel(lattice: LatticeTau, u, derivative: bool = True) -> tuple:
    """(num, den, num', den') of t = wp - e2 and of wp' at u = exp(2*pi*i*z'), z' on the reduced basis.

    t = (pi theta2(0) theta3(0) theta4(pi z') / theta1(pi z'))^2 / scale^2
    (DLMF 23.6.4) as products over Q = exp(i*pi*tau') (DLMF 20.5): each
    factor 1 - Q^k u^(+-1) is formed directly, so t stays accurate relative
    to its size where it is small, in the middle band of a tall quotient.
    wp' is the q-series in q = Q^2.  `u`, a complex or a numpy array, is
    touched only by arithmetic, so one loop serves `branch_differences` and
    `batch.t_series_array`.  The pole u = 1 only zeroes the denominators.
    """
    Q = lattice._half_nome
    # the theta products over odd and even powers of Q, and
    # theta2(0) theta3(0) / (2 Q^(1/4)) = prod (1 + Q^(2n-1))^2 (1 - Q^(4n))^2, squared
    odd = even = const = 1.0 + 0j
    dtail = 0j
    qk = 1.0 + 0j
    for _ in range(lattice.series_terms):
        qk = qk * Q
        odd = odd * (1.0 - qk * u) * (1.0 - qk / u)
        const = const * (1.0 + qk)
        qk = qk * Q
        const = const * (1.0 - qk) * (1.0 + qk)
        qu, qiu = qk * u, qk / u
        r, ri = 1.0 - qu, 1.0 - qiu
        even = even * r * ri
        if derivative:
            dtail += qu * (1.0 + qu) / r**3 - qiu * (1.0 + qiu) / ri**3
    s = lattice.scale
    one_minus_u = 1.0 - u
    num = -4.0 * math.pi**2 * const**4 * u * odd * odd
    den = s**2 * (one_minus_u * even) ** 2
    if not derivative:
        return num, den
    nump = _TWO_PI_I**3 * (u * (1.0 + u) + one_minus_u**3 * dtail)
    denp = s**3 * one_minus_u**3
    return num, den, nump, denp


def _batch_row(p: TorusPoint, form: str, *args) -> list[complex]:
    """Row 0 of `batch.<form>` at the one point p."""
    import numpy as np

    from . import batch

    return [complex(x[0]) for x in getattr(batch, form)(p.lattice, np.array([p.a]), np.array([p.b]), *args)]


def _pair(num: complex, den: complex) -> HomPair:
    """(num : den) normalized by `ProjectivePoint.normalize`."""
    from .symfun import ProjectivePoint

    return HomPair(*ProjectivePoint.normalize((num, den)).coords)


def wp(p: TorusPoint) -> HomPair:
    """Weierstrass wp(z) = t + e2, t from `centred_values`, as a normalized homogeneous pair; (1, 0) at poles."""
    if _batch_row(p, "t_series_array", False)[1] == 0:
        return _pair(1.0, 0.0)
    return _pair(centred_values(p)[0] + p.lattice.e2, 1.0)


def wp_prime(p: TorusPoint) -> HomPair:
    """Derivative wp'(z) as a normalized homogeneous pair; odd, pole order 3."""
    return _pair(*_batch_row(p, "t_series_array")[2:])


def centred_values(p: TorusPoint) -> tuple[complex, complex]:
    """(t, wp') at a non-pole point, t = wp - e2 the coordinate of the maps and fibers."""
    return tuple(_batch_row(p, "t_values"))


def wp_both_values(p: TorusPoint) -> tuple[complex, complex]:
    """(wp(z), wp'(z)) as plain complex values; requires a non-pole point."""
    t, wprime = centred_values(p)
    return t + p.lattice.e2, wprime


def _on_side(r: complex, ref: complex) -> complex:
    """The square root r or -r, whichever lies on the side of ref."""
    return r if abs(r - ref) <= abs(r + ref) else -r


def wp_inverse(x: complex, lattice: LatticeTau) -> tuple[TorusPoint, TorusPoint]:
    """The two solutions {z, -z} of wp(z) = x, sorted: the one row of `batch.wp_inverse_array` at x - e2; a missed row raises NoConvergence."""
    from .batch import wp_inverse_array

    plus, minus, missed = wp_inverse_array([complex(x) - lattice.e2], lattice)
    if missed[0]:
        raise NoConvergence(f"wp_inverse missed its residual contract at x={complex(x)!r}")
    return TorusPoint(lattice, *plus[0].tolist()), TorusPoint(lattice, *minus[0].tolist())
