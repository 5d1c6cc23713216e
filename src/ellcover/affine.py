"""Listed groups of affine automorphisms of E^d, with exact rational translations: the reference half of `groups`.

An automorphism is a pair (M, t): an integer matrix M acting coordinatewise
on C/Lambda tuples and a translation t whose components are rational torsion
points, as `Fraction`s.  Products and inverses are exact.  The reference
type of a group's listed elements and generators: a group given by them
(`FiniteActionGroup`), with orbits and stabilizers.  `SemidirectProduct`
lists its elements as `AffineAutomorphism`s and takes its orbits and
stabilizers from `FiniteActionGroup`, importing this module when asked.  No
command lists a group, so no command loads this module, `fractions` or
`isogeny`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

from .elliptic import EPS_PT, FiniteSubgroupSpec
from .errors import InvalidOrder
from .groups import IntMatrix, SemidirectProduct, _identity
from .isogeny import _adjugate
from .polarization import _Frozen, _matmul
from .weierstrass import TorusPoint, _frac

if TYPE_CHECKING:
    from .weierstrass import PointTuple

Translation = tuple[tuple[Fraction, Fraction], ...]


def _zero_translation(d: int) -> Translation:
    return tuple((Fraction(0), Fraction(0)) for _ in range(d))


_ZERO = Fraction(0)


def _is_zero_translation(t: Translation) -> bool:
    return all(a == 0 and b == 0 for a, b in t)


def _mat_apply_translation(m: IntMatrix, t: Translation) -> Translation:
    d = len(m)
    out = []
    for i in range(d):
        a = _ZERO
        b = _ZERO
        for j in range(d):
            mij = m[i][j]
            if mij:
                a += mij * t[j][0]
                b += mij * t[j][1]
        out.append((a % 1, b % 1))
    return tuple(out)


def _unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Exact inverse adj / det of an integer matrix, which is integral exactly when det = +-1."""
    det, adj = _adjugate(m)
    if abs(det) != 1:
        raise InvalidOrder(f"matrix with det {det} is not an automorphism of E^d")
    return tuple(tuple(det * v for v in row) for row in adj)


class AffineAutomorphism(_Frozen):
    """z |-> M z + t on E^d, with M integral and t rational torsion."""

    matrix: IntMatrix
    translation: Translation

    def __init__(self, matrix: IntMatrix, translation: Translation):
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "translation", translation)

    @classmethod
    def identity(cls, d: int) -> "AffineAutomorphism":
        return cls(_identity(d), _zero_translation(d))

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def compose(self, other: "AffineAutomorphism") -> "AffineAutomorphism":
        """self after other: (M1, t1) * (M2, t2) = (M1 M2, M1 t2 + t1)."""
        m = _matmul(self.matrix, other.matrix)
        if _is_zero_translation(other.translation):
            return AffineAutomorphism(m, self.translation)
        moved = _mat_apply_translation(self.matrix, other.translation)
        if _is_zero_translation(self.translation):
            return AffineAutomorphism(m, moved)
        t = tuple(
            ((a + b) % 1, (c + e) % 1)
            for (a, c), (b, e) in zip(moved, self.translation)
        )
        return AffineAutomorphism(m, t)

    def __mul__(self, other: "AffineAutomorphism") -> "AffineAutomorphism":
        return self.compose(other)

    def inverse(self) -> "AffineAutomorphism":
        minv = _unimodular_inverse(self.matrix)
        t = _mat_apply_translation(minv, self.translation)
        t = tuple(((-a) % 1, (-b) % 1) for a, b in t)
        return AffineAutomorphism(minv, t)

    def apply(self, point: PointTuple) -> PointTuple:
        """Image of a tuple of torus points; float arithmetic mod 1."""
        d = self.dim
        if len(point) != d:
            raise InvalidOrder(f"point has {len(point)} components, expected {d}")
        lattice = point[0].lattice
        out = []
        for i in range(d):
            a = float(self.translation[i][0])
            b = float(self.translation[i][1])
            for j in range(d):
                mij = self.matrix[i][j]
                if mij:
                    a += mij * point[j].a
                    b += mij * point[j].b
            out.append(TorusPoint(lattice, _frac(a), _frac(b)))
        return tuple(out)


def _integer_form(automorphisms: Sequence[AffineAutomorphism]) -> tuple[list, list, int]:
    """`batch.pack`'s arguments for affine automorphisms: matrices, translation numerators, their denominator."""
    den = math.lcm(*(c.denominator for g in automorphisms for t in g.translation for c in t))
    shifts = [[(int(a * den), int(b * den)) for a, b in g.translation] for g in automorphisms]
    return [g.matrix for g in automorphisms], shifts, den


class FiniteActionGroup:
    """A finite group of affine automorphisms, listed: its elements, sorted for reproducibility.

    The reference form, which the tests build their controls in; the deck
    groups are `SemidirectProduct`s.  Given no generators, the elements
    generate it.  `orbit` and `stabilizer` act with every element at once
    through `batch`, imported at call time.
    """

    def __init__(self, dim: int, generators: Sequence[AffineAutomorphism],
                 elements: Sequence[AffineAutomorphism]):
        self.dim = dim
        self.elements = tuple(elements)
        self.generators = tuple(generators) or self.elements
        self.order = len(self.elements)

    @property
    def integer_generators(self) -> tuple[list, list, int]:
        """The generators' matrices, their translations' numerators, and their common denominator."""
        return _integer_form(self.generators)

    @cached_property
    def _packed(self):
        """`batch.pack` of the elements, kept for the next orbit or stabilizer."""
        from .batch import pack

        return pack(*_integer_form(self.elements))

    @cached_property
    def linear(self) -> SemidirectProduct:
        """L: the distinct matrices of the elements, sorted, with zero translations, generated by the generators' matrices."""
        matrices = sorted({g.matrix for g in self.elements})
        generators = sorted({g.matrix for g in self.generators})
        return SemidirectProduct(self.dim, FiniteSubgroupSpec.trivial(), len(matrices), matrices, generators)

    def splits_over(self, q0: FiniteSubgroupSpec) -> bool:
        """Whether every element's translation lies in Q0^d, checked element by element."""
        shifts = set(q0.elements)
        return all(t in shifts for g in self.elements for t in g.translation)

    def orbit(self, point: PointTuple, tol: float = EPS_PT) -> list[PointTuple]:
        """Distinct images of a point, deduplicated in the toroidal metric.

        An image is kept unless it lies within tol of an image kept before it
        in element order.  Canonically sorted, so the result is independent
        of element order.
        """
        from .batch import images, orbit_indices

        found = images(self, [point])
        lattice = point[0].lattice
        return [
            tuple(TorusPoint(lattice, a, b) for a, b in row)
            for row in found[0, orbit_indices(found, tol)].tolist()
        ]

    def stabilizer(self, point: PointTuple, tol: float = EPS_PT) -> list[AffineAutomorphism]:
        from .batch import coords_array, images, stabilizer_mask

        found = images(self, [point])
        fixes = stabilizer_mask(found, coords_array([point]), tol)[0].tolist()
        return [g for g, fixed in zip(self.elements, fixes) if fixed]

