"""Abelian subvarieties of E^d, norm endomorphisms and pullbacks, exactly.

An abelian subvariety is a saturated integer sublattice inclusion; its norm
endomorphism with respect to a polarization is an exact rational projector
scaled to be integral.  Saturation is the gcd of the inclusion's maximal
minors (`polarization._maximal_minor_gcd`).  The restricted form's inverse
is its adjugate over its determinant, both from integer cofactors, so
`polarization._det_bareiss` is the package's one elimination; the scale is
|det| over the gcd of det and the adjugate's entries.  No command runs this
calculus, so it lives apart from `polarization`, whose determinants the
`intersection` command needs.  All of it is exact; no tolerances.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import InvalidOrder, InvalidSubgroup
from .polarization import (
    IntRows,
    PolarizationMatrix,
    _det_bareiss,
    _freeze,
    _Frozen,
    _matmul,
    _maximal_minor_gcd,
    _transpose,
)


def _adjugate(rows: Sequence[Sequence[int]]) -> tuple[int, list[list[int]]]:
    """(det, adj) of a square integer matrix, from its cofactors; adj / det is the inverse."""
    n = len(rows)
    cof = [
        [
            (-1) ** (i + j) * _det_bareiss(
                [row[:j] + row[j + 1:] for k, row in enumerate(rows) if k != i]
            )
            for j in range(n)
        ]
        for i in range(n)
    ]
    det = sum(a * c for a, c in zip(rows[0], cof[0]))
    return det, [list(col) for col in zip(*cof)]


class SublatticeInclusion(_Frozen):
    """An abelian subvariety Z of E^d as a saturated integer column span.

    The columns of the d x r matrix span the tangent sublattice; it is
    saturated, a subtorus and not a finite extension, exactly when the gcd
    of its r x r minors, its index in its saturation, is 1.
    """

    columns: IntRows  # stored row-major, shape d x r

    def __init__(self, columns: Sequence[Sequence[int]]):
        self._set_columns(columns, saturated=True)

    @classmethod
    def unchecked(cls, columns: Sequence[Sequence[int]]) -> "SublatticeInclusion":
        """Construct without the saturation check (rank is still required)."""
        obj = cls.__new__(cls)
        obj._set_columns(columns, saturated=False)
        return obj

    def _set_columns(self, columns: Sequence[Sequence[int]], saturated: bool) -> None:
        cols = _freeze(columns)
        if not cols or not cols[0]:
            raise InvalidSubgroup("empty sublattice inclusion")
        if any(len(row) != len(cols[0]) for row in cols):
            raise InvalidSubgroup("ragged inclusion matrix")
        index = _maximal_minor_gcd(cols)
        if index == 0:
            raise InvalidSubgroup("inclusion matrix does not have full column rank")
        if saturated and index != 1:
            raise InvalidSubgroup(
                f"sublattice is not saturated (index {index} in its saturation); "
                "use SublatticeInclusion.unchecked to model a finite-index sublattice"
            )
        object.__setattr__(self, "columns", cols)

    @property
    def d(self) -> int:
        return len(self.columns)


def norm_endomorphism(
    l: PolarizationMatrix, z: SublatticeInclusion
) -> tuple[IntRows, int]:
    """(N, e) with N = e * I * (I^T L I)^(-1) * I^T L on the subvariety Z.

    e, the exponent of coker(I^T L I), is the lcm of the denominators of
    (I^T L I)^(-1) = adj / det, that is |det| / gcd(det, adj's entries).
    e * adj / det is then an integer matrix, and so is N.
    """
    if z.d != l.d:
        raise InvalidOrder(
            f"sublattice ambient dimension {z.d} != polarization dimension {l.d}"
        )
    i_mat = z.columns
    i_t = _transpose(i_mat)
    phi = _matmul(i_t, _matmul(l.rows, i_mat))
    det, adj = _adjugate(phi)
    if det == 0:
        raise InvalidOrder(
            "restricted form I^T L I is singular; L must be definite on Z"
        )
    g = math.gcd(det, *(v for row in adj for v in row))
    e = abs(det) // g
    scaled = [[v * e // det for v in row] for row in adj]
    return _matmul(i_mat, _matmul(scaled, _matmul(i_t, l.rows))), e


def pullback(alpha: Sequence[Sequence[int]], s: PolarizationMatrix) -> PolarizationMatrix:
    """Pullback of the bundle along the endomorphism alpha: alpha^T S alpha."""
    a = _freeze(alpha)
    if len(a) != s.d:
        raise InvalidOrder(
            f"endomorphism has {len(a)} rows, polarization dimension is {s.d}"
        )
    if not a or not a[0] or any(len(row) != len(a[0]) for row in a):
        raise InvalidOrder("endomorphism must be a rectangular matrix with a column")
    return PolarizationMatrix(_matmul(_transpose(a), _matmul(s.rows, a)))
