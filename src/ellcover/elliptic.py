"""Exact lattices, finite subgroups and quotient isogenies of an elliptic curve E = C/(Z*omega1 + Z*omega2).

Lattices are normalized internally: the period ratio tau is brought into the
standard fundamental domain (|Re| <= 1/2, |tau| >= 1) by a unimodular change
of basis, so every series runs at nome |q| <= exp(-pi*sqrt(3)) and a single
accuracy budget covers all inputs.  Q0 and the quotient E/Q0 are read off
integers.  This is all that `construct` needs of E: points of C/Lambda, wp
and its inverse live in `weierstrass`, which `verify` loads.
`elliptic.TorusPoint`, `elliptic.wp` and `elliptic.wp_inverse` resolve to
it too, imported on first use.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from .errors import InvalidPoint, InvalidSubgroup
from .polarization import _Frozen

if TYPE_CHECKING:
    from fractions import Fraction

    RationalLike = Union[int, str, Fraction]

#: default tolerance for torus-point equality (toroidal sup metric on (a, b))
EPS_PT = 1e-9
#: default relative tolerance for function-value comparisons
EPS_NUM = 1e-10
#: default tolerance for projective-point equality (Fubini-Study chordal)
EPS_PROJ = 1e-7
#: tolerance for declaring a fiber target non-generic (root collisions,
#: branch values) and for matching recovered fibers against orbits; looser
#: than EPS_PT because fibers pass through polynomial root-finding
EPS_GENERIC = 1e-6

# q-series terms are added until they fall below this relative size.
_SERIES_TAIL_REL = 1e-14
_SERIES_MAX_TERMS = 64


def __getattr__(name: str):
    # the names of `weierstrass` that perfbench/tracing.py wraps here
    if name in ("TorusPoint", "wp", "wp_inverse"):
        from . import weierstrass

        return getattr(weierstrass, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _digits(text: str) -> bool:
    """Whether text is decimal digits with single underscores between them."""
    return all(part.isdecimal() for part in text.split("_"))


#: digits of the largest denominator that an error message spells out:
#: Python's default limit on integer texts, past which str() raises
_SHOWN_DIGITS = 4300


def _as_ratio(value: RationalLike) -> tuple[int, int]:
    """(p, q) with q > 0 and p/q the value that `Fraction(value)` gives, mod 1.

    A text is read by the grammar of `Fraction`, in integer arithmetic, so
    that `--q0` loads no `fractions`: whitespace, a sign, then p/q, or a
    decimal with an optional exponent.  Its powers of ten stay small: a
    positive exponent e scales p by pow(10, e, q), and a negative one more
    than `_SHOWN_DIGITS` past the text's digits is refused, as the reduced
    denominator then exceeds 10 to that power.  Any other value goes
    through `Fraction`.
    """
    if isinstance(value, str):
        text = value.strip()
        sign = text[:1] if text[:1] in ("+", "-") else ""
        head, slash, den = text[len(sign) :].partition("/")
        head, e, exp = head.replace("E", "e").partition("e")
        whole, dot, decimal = head.partition(".")
        if (
            (_digits(whole) or not whole and _digits(decimal))
            and (not decimal or _digits(decimal))
            and (not e or _digits(exp[1:] if exp[:1] in ("+", "-") else exp))
            and (not slash or not (dot or e) and _digits(den))
        ):
            decimal = decimal.replace("_", "")
            try:
                p, q, shift = int(whole + decimal), int(den or 1), (int(exp) if e else 0) - len(decimal)
            except ValueError:  # a part past Python's limit on integer texts
                p = q = 0
            if p and -shift > len(whole + decimal) + _SHOWN_DIGITS:
                bound = FiniteSubgroupSpec.MAX_ORDER
                raise InvalidSubgroup(f"generator denominator past 10^{_SHOWN_DIGITS} exceeds bound {bound}")
            if q:
                q = q * 10 ** max(-shift, 0) if p else 1  # zero at any exponent is 0/1
                p *= pow(10, max(shift, 0), q)
                return (-p if sign == "-" else p), q
        raise InvalidSubgroup(f"not a rational coordinate: {value!r}")
    if isinstance(value, float) and not value.is_integer():
        raise InvalidSubgroup(
            f"generator coordinate {value!r} is a non-integral float; "
            "pass an exact rational (int, Fraction, or 'p/q' string)"
        )
    from fractions import Fraction

    try:
        value = Fraction(value)
    except (ValueError, TypeError) as exc:
        raise InvalidSubgroup(f"not a rational coordinate: {value!r}") from exc
    return value.numerator, value.denominator


class LatticeTau(_Frozen):
    """Rank-2 lattice Z*omega1 + Z*omega2 with Im(omega2/omega1) > 0.

    Generators are swapped at construction if needed so the period ratio
    `tau` lies in the upper half plane.  The SL2(Z)-reduced ratio and the
    recorded basis change drive all series evaluation.  Raises InvalidPoint
    on a zero or non-finite period and on a degenerate or non-finite ratio.
    """

    omega1: complex
    omega2: complex

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
        if not (math.isfinite(tau.real) and math.isfinite(tau.imag)):
            raise InvalidPoint(f"period ratio {tau!r} is not finite")
        object.__setattr__(self, "omega1", omega1)
        object.__setattr__(self, "omega2", omega2)
        object.__setattr__(self, "tau", tau)

    @classmethod
    def from_tau(cls, tau: complex) -> "LatticeTau":
        return cls(1.0, tau)

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
    def _half_nome(self) -> complex:
        """Q = exp(i*pi*tau_reduced), the nome of the theta products."""
        from cmath import exp

        return exp(1j * math.pi * self.tau_reduced)

    @cached_property
    def series_terms(self) -> int:
        """Factors n = 1, 2, ... of the wp kernel, up to the first with |Q^(2n)| < 1e-14 |Q|.

        A point alpha + beta*tau_reduced, |beta| <= 1/2, has |Q| <= |u| <=
        1/|Q|, so no omitted factor 1 - Q^k u^(+-1) differs from 1 by more
        than _SERIES_TAIL_REL * |Q|.  At most _SERIES_MAX_TERMS - 1.
        """
        bound = _SERIES_TAIL_REL * abs(self._half_nome)
        q = self._half_nome * self._half_nome
        qn = 1.0 + 0j
        for n in range(1, _SERIES_MAX_TERMS):
            qn *= q
            if abs(qn) < bound:
                return n
        return _SERIES_MAX_TERMS - 1

    @cached_property
    def branch_differences(self) -> tuple[complex, complex]:
        """delta1 = e1 - e2 and delta3 = e3 - e2: the kernel's t at 1/2 and (1 + tau)/2 of the reduced basis."""
        from .weierstrass import _wp_kernel

        num, den = _wp_kernel(self, -1.0 + 0j, derivative=False)
        num3, den3 = _wp_kernel(self, -self._half_nome, derivative=False)
        return num / den, num3 / den3

    @cached_property
    def e2(self) -> complex:
        """wp(tau/2) on the reduced basis, -(delta1 + delta3)/3 since e1 + e2 + e3 = 0."""
        d1, d3 = self.branch_differences
        return -(d1 + d3) / 3.0

    def coords(self, z):
        """Real (a, b) with z = a*omega1 + b*omega2 (not reduced); z may be a numpy array."""
        w = z / self.omega1
        b = w.imag / self.tau.imag
        a = w.real - b * self.tau.real
        return a, b


class FiniteSubgroupSpec(_Frozen):
    """A finite subgroup of E given by at most two rational generators.

    Coordinates are exact rationals (a, b) meaning a*omega1 + b*omega2; every
    finite subgroup of E is a product of at most two cyclic groups, so two
    generators are always enough.  Held in integers, as numerators over N,
    the common denominator of the generators reduced mod 1; `generators`
    and `elements` are `Fraction`s.  Its order, its elements and the
    quotient lattice are all read off one Hermite basis, `hermite_basis`.
    """

    denominator: int
    numerators: tuple[tuple[int, int], ...]

    #: largest |Q0|; a coordinate's reduced denominator divides its
    #: generator's order, which divides |Q0|, so it bounds each one too
    MAX_ORDER = 100_000

    @classmethod
    def from_generators(
        cls, generators: Iterable[tuple[RationalLike, RationalLike]]
    ) -> "FiniteSubgroupSpec":
        gens = []
        for pair in generators:
            if len(pair) != 2:
                raise InvalidSubgroup(f"generator must be a coordinate pair, got {pair!r}")
            coords = []
            for p, q in (_as_ratio(pair[0]), _as_ratio(pair[1])):
                g = math.gcd(p, q)  # which divides p % q too
                p, q = p % q // g, q // g
                if q > cls.MAX_ORDER:
                    shown = q if q < 10**_SHOWN_DIGITS else f"past 10^{_SHOWN_DIGITS}"
                    raise InvalidSubgroup(f"generator denominator {shown} exceeds bound {cls.MAX_ORDER}")
                coords.append((p, q))
            if coords[0][0] or coords[1][0]:
                gens.append(coords)
        if len(gens) > 2:
            raise InvalidSubgroup("a finite subgroup of E needs at most 2 generators")
        n = math.lcm(*(q for g in gens for _, q in g))
        spec = cls(n, tuple(tuple(p * (n // q) for p, q in g) for g in gens))
        if spec.order > cls.MAX_ORDER:
            raise InvalidSubgroup(f"subgroup order {spec.order} exceeds bound {cls.MAX_ORDER}")
        return spec

    @classmethod
    def trivial(cls) -> "FiniteSubgroupSpec":
        return cls(1, ())

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

    @property
    def generators(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return self._fractions(self.numerators)

    @cached_property
    def points(self) -> tuple[tuple[int, int], ...]:
        """All subgroup elements as numerators over N, sorted: i*(a, 0) + j*(b, c) mod N, for i < N/a and j < N/c."""
        n, a, b, c = self.hermite_basis
        return tuple(sorted(
            ((i * a + j * b) % n, j * c)
            for i in range(n // a)
            for j in range(n // c)
        ))

    @cached_property
    def elements(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """`points` as pairs of `Fraction`s."""
        return self._fractions(self.points)

    def _fractions(self, pairs: Iterable[tuple[int, int]]) -> tuple[tuple[Fraction, Fraction], ...]:
        """Pairs of numerators over N as pairs of `Fraction`s."""
        from fractions import Fraction

        return tuple((Fraction(x, self.denominator), Fraction(y, self.denominator)) for x, y in pairs)

    @cached_property
    def hermite_basis(self) -> tuple[int, int, int, int]:
        """(N, a, b, c): (a, 0), (b, c) span N*Z^2 + N*Q0 in Hermite form, N the generators' common denominator.

        Q0 is that lattice modulo N*Z^2, so |Q0| = N^2 / (a*c).  N, the lcm
        of the generators' orders, is Q0's exponent and the form is unique,
        so two specs of one subgroup have one basis (`splits_over`).
        """
        n = self.denominator
        (a, b), (_, c) = _hermite_2x2([(n, 0), (0, n), *self.numerators])
        return n, a, b, c

    @property
    def order(self) -> int:
        n, a, _, c = self.hermite_basis
        return n * n // (a * c)

class IsogenyQuotient(_Frozen):
    """The quotient isogeny E = C/Lambda -> E/Q0 = C/Lambda' of degree |Q0|."""

    source: LatticeTau
    target: LatticeTau
    subgroup: FiniteSubgroupSpec


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b and g >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def _hermite_2x2(vectors: Sequence[Sequence[int]]) -> tuple[tuple[int, int], tuple[int, int]]:
    """Column Hermite normal form [[a, b], [0, c]] of the lattice the vectors span.

    c is the gcd of the second coordinates, a*c the gcd of the 2x2 minors
    (the covolume), and b the first coordinate of a lattice vector with
    second coordinate c, reduced to 0 <= b < a.  The form is unique, so the
    basis (a, 0), (b, c) does not depend on how the vectors are listed.
    """
    x, c = 0, 0  # a lattice vector whose second coordinate c is the gcd so far
    for u, v in vectors:
        c, s, t = _xgcd(c, v)
        x = s * x + t * u
    covolume = 0
    for p, q in itertools.combinations(vectors, 2):
        covolume = math.gcd(covolume, p[0] * q[1] - p[1] * q[0])
    if covolume == 0:
        raise InvalidSubgroup("vectors do not span a rank-2 lattice")
    a = covolume // c
    return ((a, x % a), (0, c))


def quotient_lattice(lattice: LatticeTau, q0: FiniteSubgroupSpec) -> IsogenyQuotient:
    """E/Q0 at unit scale, from E's period ratio tau and Q0's `hermite_basis` (N, a, b, c).

    Z + Z*tau and the lifts of Q0 span a/N and b/N + (c/N)*tau, divided
    here by their reduction scale, so that t = wp - e2 has one size on
    every quotient.  Scaling moves no coordinates: the isogeny is the
    integer matrix [[N/a, -bN/(ac)], [0, N/c]] on them (`batch.map_coords`).
    """
    n, a, b, c = q0.hermite_basis
    w1, w2 = a / n, b / n + c / n * lattice.tau
    s = LatticeTau(w1, w2).scale
    return IsogenyQuotient(source=lattice, target=LatticeTau(w1 / s, w2 / s), subgroup=q0)
