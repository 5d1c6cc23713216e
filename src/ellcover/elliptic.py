"""Complex-torus arithmetic for an elliptic curve E = C/(Z*omega1 + Z*omega2).

Lattices are normalized internally: the period ratio tau is brought into the
standard fundamental domain (|Re| <= 1/2, |tau| >= 1) by a unimodular change
of basis, so every series below runs at nome |q| <= exp(-pi*sqrt(3)) and a
single accuracy budget covers all inputs.  Weierstrass values are returned as
homogeneous pairs (num, den) so that poles degrade to (1, 0) instead of
overflowing.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Union

from .errors import (
    InvalidOrder,
    InvalidPoint,
    InvalidSubgroup,
    NoConvergence,
)
from .polarization import _hermite_2x2

#: default tolerance for torus-point equality (toroidal sup metric on (a, b))
EPS_PT = 1e-9
#: default relative tolerance for function-value comparisons
EPS_NUM = 1e-10
#: default tolerance for projective-point equality (Fubini-Study chordal)
EPS_PROJ = 1e-7

# q-series terms are added until they fall below this relative size.
_SERIES_TAIL_REL = 1e-14
_SERIES_MAX_TERMS = 64

# the AGM in wp_inverse stops once |a - b| falls below this relative size
_AGM_REL = 1e-15
_AGM_MAX_STEPS = 32

_TWO_PI_I = 2j * math.pi

RationalLike = Union[int, str, Fraction]


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


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, float):
        if not value.is_integer():
            raise InvalidSubgroup(
                f"generator coordinate {value!r} is a non-integral float; "
                "pass an exact rational (int, Fraction, or 'p/q' string)"
            )
        value = int(value)
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InvalidSubgroup(f"not a rational coordinate: {value!r}") from exc


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

    @property
    def is_pole(self) -> bool:
        return self.den == 0


def _norm_pair(num: complex, den: complex) -> HomPair:
    # ties pivot on the denominator so unit values stay in (x : 1) form
    if abs(num) > abs(den):
        return HomPair(1.0 + 0j, den / num)
    return HomPair(num / den, 1.0 + 0j)


class LatticeTau:
    """Rank-2 lattice Z*omega1 + Z*omega2 with Im(omega2/omega1) > 0.

    Generators are swapped at construction if needed so the period ratio lies
    in the upper half plane.  The SL2(Z)-reduced ratio and the recorded basis
    change drive all series evaluation.
    """

    def __init__(self, omega1: complex, omega2: complex):
        omega1 = complex(omega1)
        omega2 = complex(omega2)
        for w in (omega1, omega2):
            if not (math.isfinite(w.real) and math.isfinite(w.imag)) or w == 0:
                raise InvalidPoint(f"invalid lattice period: {w!r}")
        tau = omega2 / omega1
        if tau.imag == 0:
            raise InvalidPoint("degenerate lattice: periods are R-linearly dependent")
        if tau.imag < 0:
            omega1, omega2 = omega2, omega1
            tau = omega2 / omega1
        self.omega1 = omega1
        self.omega2 = omega2
        self.tau = tau

    @classmethod
    def from_tau(cls, tau: complex) -> "LatticeTau":
        return cls(1.0, tau)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LatticeTau)
            and self.omega1 == other.omega1
            and self.omega2 == other.omega2
        )

    def __hash__(self) -> int:
        return hash((self.omega1, self.omega2))

    def __repr__(self) -> str:
        return f"LatticeTau(omega1={self.omega1!r}, omega2={self.omega2!r})"

    @cached_property
    def _reduction(self) -> tuple[complex, tuple[int, int, int, int], complex]:
        """(tau_red, (a, b, c, d), scale) with tau_red = (a*tau+b)/(c*tau+d).

        The lattice equals scale * (Z + Z*tau_red) with scale = omega1*(c*tau+d).
        """
        t = self.tau
        a, b, c, d = 1, 0, 0, 1
        for _ in range(256):
            n = round(t.real)
            if n != 0:
                t = t - n
                a, b = a - n * c, b - n * d
            if abs(t) < 1.0 - 1e-15:
                t = -1.0 / t
                a, b, c, d = c, d, -a, -b
            else:
                break
        else:  # pragma: no cover - reduction always terminates for Im > 0
            raise InvalidPoint("period ratio reduction did not terminate")
        # recompute tau_red from the exact matrix for consistency
        tau_red = (a * self.tau + b) / (c * self.tau + d)
        scale = self.omega1 * (c * self.tau + d)
        return tau_red, (a, b, c, d), scale

    @property
    def tau_reduced(self) -> complex:
        return self._reduction[0]

    @property
    def basis_change(self) -> tuple[int, int, int, int]:
        """Unimodular (a, b, c, d) with tau_reduced = (a*tau+b)/(c*tau+d)."""
        return self._reduction[1]

    @property
    def scale(self) -> complex:
        """Complex s with Lambda = s * (Z + Z*tau_reduced)."""
        return self._reduction[2]

    @cached_property
    def _nome(self) -> complex:
        return cmath.exp(_TWO_PI_I * self.tau_reduced)

    @cached_property
    def g2g3(self) -> tuple[complex, complex]:
        """Weierstrass invariants of this lattice (scale included)."""
        q = self._nome
        e4 = 1.0 + 0j
        e6 = 1.0 + 0j
        qn = 1.0 + 0j
        for n in range(1, _SERIES_MAX_TERMS):
            qn *= q
            t4 = 240.0 * n**3 * qn / (1.0 - qn)
            t6 = 504.0 * n**5 * qn / (1.0 - qn)
            e4 += t4
            e6 -= t6
            if abs(t4) < _SERIES_TAIL_REL * abs(e4) and abs(t6) < _SERIES_TAIL_REL * abs(e6):
                break
        s = self.scale
        g2 = (4.0 * math.pi**4 / 3.0) * e4 / s**4
        g3 = (8.0 * math.pi**6 / 27.0) * e6 / s**6
        return g2, g3

    def _half_period(self, alpha: int, beta: int) -> "TorusPoint":
        """The half period scale * (alpha + beta * tau_reduced) / 2 as a torus point."""
        ma, mb, mc, md = self.basis_change
        return TorusPoint.from_coords(
            self, (md * alpha + mb * beta) / 2, (mc * alpha + ma * beta) / 2
        )

    @cached_property
    def branch_values(self) -> tuple[complex, complex, complex]:
        """e1, e2, e3: wp at the half periods 1/2, tau/2, (1+tau)/2 of the reduced basis.

        On a tall lattice e2 and e3 are the close pair.
        """
        return tuple(
            wp_both_values(self._half_period(alpha, beta))[0]
            for alpha, beta in ((1, 0), (0, 1), (1, 1))
        )

    def coords(self, z: complex) -> tuple[float, float]:
        """Real (a, b) with z = a*omega1 + b*omega2 (not reduced)."""
        w = z / self.omega1
        b = w.imag / self.tau.imag
        a = w.real - b * self.tau.real
        return a, b

    def _reduced_coords(self, a: float, b: float) -> tuple[float, float]:
        """Coordinates w.r.t. the reduced basis, centered into [-1/2, 1/2]."""
        ma, mb, mc, md = self.basis_change
        alpha = ma * a - mb * b
        beta = -mc * a + md * b
        alpha -= round(alpha)
        beta -= round(beta)
        return alpha, beta


@dataclass(frozen=True)
class TorusPoint:
    """A point of C/Lambda stored by reduced lattice coordinates in [0, 1)^2."""

    lattice: LatticeTau
    a: float
    b: float

    @property
    def z(self) -> complex:
        return self.a * self.lattice.omega1 + self.b * self.lattice.omega2

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

    def toroidal_dist(self, other: "TorusPoint") -> float:
        return max(_wrap_dist(self.a, other.a), _wrap_dist(self.b, other.b))

    def is_zero(self, tol: float = EPS_PT) -> bool:
        return _wrap_dist(self.a, 0.0) <= tol and _wrap_dist(self.b, 0.0) <= tol

    def sort_key(self) -> tuple[float, float]:
        return (self.a, self.b)


def reduce_point(z: complex, lattice: LatticeTau) -> TorusPoint:
    """Reduce a complex representative into the fundamental parallelogram."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise InvalidPoint(f"non-finite point: {z!r}")
    a, b = lattice.coords(z)
    return TorusPoint(lattice, _frac(a), _frac(b))


def torsion_points(lattice: LatticeTau, n: int) -> list[TorusPoint]:
    """The n^2 points of the n-torsion subgroup, sorted by coordinates."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidOrder(f"torsion order must be a positive integer, got {n!r}")
    return [
        TorusPoint(lattice, i / n, j / n) for i in range(n) for j in range(n)
    ]


@dataclass(frozen=True)
class FiniteSubgroupSpec:
    """A finite subgroup of E given by at most two rational generators.

    Coordinates are exact rationals (a, b) meaning a*omega1 + b*omega2; every
    finite subgroup of E is a product of at most two cyclic groups, so two
    generators are always enough.
    """

    generators: tuple[tuple[Fraction, Fraction], ...]

    MAX_DENOMINATOR = 1000
    MAX_ORDER = 100_000

    @classmethod
    def from_generators(
        cls, generators: Iterable[tuple[RationalLike, RationalLike]]
    ) -> "FiniteSubgroupSpec":
        gens = []
        for pair in generators:
            if len(pair) != 2:
                raise InvalidSubgroup(f"generator must be a coordinate pair, got {pair!r}")
            a = _as_fraction(pair[0]) % 1
            b = _as_fraction(pair[1]) % 1
            for c in (a, b):
                if c.denominator > cls.MAX_DENOMINATOR:
                    raise InvalidSubgroup(
                        f"generator denominator {c.denominator} exceeds bound "
                        f"{cls.MAX_DENOMINATOR}"
                    )
            if (a, b) != (Fraction(0), Fraction(0)):
                gens.append((a, b))
        if len(gens) > 2:
            raise InvalidSubgroup("a finite subgroup of E needs at most 2 generators")
        return cls(tuple(gens))

    @classmethod
    def trivial(cls) -> "FiniteSubgroupSpec":
        return cls(())

    @classmethod
    def parse(cls, specs: Iterable[str]) -> "FiniteSubgroupSpec":
        """Parse generator strings of the form 'p/q,r/s'."""
        gens = []
        for text in specs:
            parts = text.split(",")
            if len(parts) != 2:
                raise InvalidSubgroup(f"expected 'a,b' rational pair, got {text!r}")
            gens.append((parts[0].strip(), parts[1].strip()))
        return cls.from_generators(gens)

    @cached_property
    def elements(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """All subgroup elements, sorted; closure of the generators under +."""
        zero = (Fraction(0), Fraction(0))
        seen = {zero}
        frontier = [zero]
        while frontier:
            nxt = []
            for a, b in frontier:
                for ga, gb in self.generators:
                    cand = ((a + ga) % 1, (b + gb) % 1)
                    if cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
                        if len(seen) > self.MAX_ORDER:
                            raise InvalidSubgroup("subgroup closure exceeded cap")
            frontier = nxt
        return tuple(sorted(seen))

    @property
    def order(self) -> int:
        return len(self.elements)

    def points_on(self, lattice: LatticeTau) -> list[TorusPoint]:
        return [
            TorusPoint(lattice, float(a), float(b)) for a, b in self.elements
        ]

    def __str__(self) -> str:
        gens = "; ".join(f"({a},{b})" for a, b in self.generators) or "trivial"
        return f"<{gens}> of order {self.order}"


@dataclass(frozen=True)
class IsogenyQuotient:
    """The quotient isogeny E = C/Lambda -> E/Q0 = C/Lambda' of degree |Q0|."""

    source: LatticeTau
    target: LatticeTau
    index: int
    subgroup: FiniteSubgroupSpec

    def map(self, p: TorusPoint) -> TorusPoint:
        """Image of a source point: same representative, reduced mod Lambda'."""
        return reduce_point(p.z, self.target)

    @cached_property
    def _lift_offsets(self) -> tuple[complex, ...]:
        """The |Q0| source points that `lifts` adds, as complex representatives."""
        return tuple(q.z for q in self.subgroup.points_on(self.source))

    def lifts(self, w: TorusPoint) -> list[TorusPoint]:
        """All |Q0| preimages on the source curve of a target point."""
        return [reduce_point(w.z + z, self.source) for z in self._lift_offsets]


def quotient_lattice(lattice: LatticeTau, q0: FiniteSubgroupSpec) -> IsogenyQuotient:
    """Lambda' = Lambda + Z-span of the lifted Q0 generators.

    The index [Lambda' : Lambda] is computed by exact integer linear algebra
    on the rational generator coordinates and always equals |Q0|.
    """
    rows: list[tuple[Fraction, Fraction]] = [
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    ]
    rows.extend(q0.generators)
    den = math.lcm(*(f.denominator for row in rows for f in row))
    int_rows = [[int(f * den) for f in row] for row in rows]
    # the columns of the Hermite normal form are a basis of the row lattice
    hnf = _hermite_2x2(int_rows)
    cols = [(Fraction(hnf[0][j], den), Fraction(hnf[1][j], den)) for j in (0, 1)]
    det = cols[0][0] * cols[1][1] - cols[0][1] * cols[1][0]
    index = Fraction(1) / abs(det)
    if index.denominator != 1:  # pragma: no cover - HNF keeps this integral
        raise InvalidSubgroup("quotient lattice index is not an integer")
    index = int(index)
    if index != q0.order:  # pragma: no cover - consistency guard
        raise InvalidSubgroup(
            f"index {index} disagrees with subgroup order {q0.order}"
        )
    w1 = cols[0][0] * lattice.omega1 + cols[0][1] * lattice.omega2
    w2 = cols[1][0] * lattice.omega1 + cols[1][1] * lattice.omega2
    target = lattice if index == 1 else LatticeTau(complex(w1), complex(w2))
    return IsogenyQuotient(source=lattice, target=target, index=index, subgroup=q0)


def eisenstein_g2_g3(lattice: LatticeTau) -> tuple[complex, complex]:
    """Invariants g2, g3; q-series on the reduced ratio, rescaled to the lattice."""
    return lattice.g2g3


def _wp_qseries(lattice: LatticeTau, u, floor: float, derivative: bool = True) -> tuple:
    """(num, den, num', den') of wp and wp' at u = exp(2*pi*i*z'), z' on the reduced basis.

    `u` is a complex or a numpy array, touched only by arithmetic, so one
    loop serves `_wp_series` and `batch.wp_series_array`.  Terms are added
    until |q^n| < _SERIES_TAIL_REL * floor, floor = min(1, |u|) (the least
    of a batch).  Without the derivative: (num, den).  The pole u = 1 only
    zeroes the denominators; nothing is divided by 1 - u.
    """
    q = lattice._nome
    tail = 1.0 / 12.0 + 0j
    dtail = 0j
    qn = 1.0 + 0j
    for _ in range(1, _SERIES_MAX_TERMS):
        qn *= q
        qu = qn * u
        qiu = qn / u
        # Python's complex ** 2 and ** 3 are these products, so shared factors keep the bits
        r, ri = 1.0 - qu, 1.0 - qiu
        r2, ri2 = r * r, ri * ri
        tail += qu / r2 + qiu / ri2 - 2.0 * qn / (1.0 - qn) ** 2
        if derivative:
            dtail += qu * (1.0 + qu) / (r * r2) - qiu * (1.0 + qiu) / (ri * ri2)
        if abs(qn) < _SERIES_TAIL_REL * floor:
            break
    s = lattice.scale
    one_minus_u = 1.0 - u
    num = _TWO_PI_I**2 * (u + one_minus_u**2 * tail)
    den = s**2 * one_minus_u**2
    if not derivative:
        return num, den
    nump = _TWO_PI_I**3 * (u * (1.0 + u) + one_minus_u**3 * dtail)
    denp = s**3 * one_minus_u**3
    return num, den, nump, denp


def _wp_series(lattice: LatticeTau, a: float, b: float, derivative: bool = True) -> tuple:
    """Raw homogeneous pairs (num, den, num', den') for wp and wp' at a point.

    Coordinates (a, b) are w.r.t. (omega1, omega2); evaluation runs on the
    reduced basis where the Fourier series converges geometrically with ratio
    |q| <= exp(-pi*sqrt(3)).
    """
    alpha, beta = lattice._reduced_coords(a, b)
    u = cmath.exp(_TWO_PI_I * (alpha + beta * lattice.tau_reduced))
    return _wp_qseries(lattice, u, min(1.0, abs(u)), derivative)


def wp(p: TorusPoint) -> HomPair:
    """Weierstrass wp(z) as a normalized homogeneous pair; (1, 0) at poles."""
    return _norm_pair(*_wp_series(p.lattice, p.a, p.b, derivative=False))


def wp_prime(p: TorusPoint) -> HomPair:
    """Derivative wp'(z) as a normalized homogeneous pair; odd, pole order 3."""
    _, _, nump, denp = _wp_series(p.lattice, p.a, p.b)
    return _norm_pair(nump, denp)


def wp_both_values(p: TorusPoint) -> tuple[complex, complex]:
    """(wp(z), wp'(z)) as plain complex values; requires a non-pole point."""
    num, den, nump, denp = _wp_series(p.lattice, p.a, p.b)
    return num / den, nump / denp


def _on_side(r: complex, ref: complex) -> complex:
    """The square root r or -r, whichever lies on the side of ref."""
    return r if abs(r - ref) <= abs(r + ref) else -r


def wp_inverse(x: complex, lattice: LatticeTau) -> tuple[TorusPoint, TorusPoint]:
    """The two solutions {z, -z} of wp(z) = x, by the AGM elliptic logarithm.

    With e_i the branch values, a = sqrt(e1-e3), b = sqrt(e1-e2) and
    c = sqrt(x-e3), z = int_c^oo dt / sqrt((t^2-a^2)(t^2-a^2+b^2)).  Landen's
    step (a, b, c) -> ((a+b)/2, sqrt(ab), (c + sqrt(c^2+b^2-a^2))/2) keeps the
    integral fixed, and once a = b it equals asin(a/c)/a (Cremona and
    Thongjunthug, J. Number Theory 133, 2013).  Residual contract:
    |wp(z) - x| <= EPS_NUM * (1 + |x|); NoConvergence if it is missed.
    """
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
