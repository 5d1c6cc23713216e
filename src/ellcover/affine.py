"""Affine automorphisms of E^d, with exact rational translations.

An automorphism is a pair (M, t): an integer matrix M acting coordinatewise
on C/Lambda tuples and a translation t whose components are rational torsion
points, as `Fraction`s.  Products and inverses are exact.  The reference
type of a group's listed elements and generators (`groups`): no command
lists them, so no command loads this module, `fractions` or `isogeny`.
"""

from __future__ import annotations

from fractions import Fraction

from .elliptic import TorusPoint, _frac
from .errors import InvalidOrder
from .groups import IntMatrix, PointTuple, _identity
from .isogeny import _fraction_inverse
from .polarization import _det_bareiss, _Frozen, _matmul

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
    """Exact inverse of an integer matrix with det +-1, which is integral."""
    det = _det_bareiss(m)
    if det not in (1, -1):
        raise InvalidOrder(f"matrix with det {det} is not an automorphism of E^d")
    return tuple(tuple(int(v) for v in row) for row in _fraction_inverse(m))


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


