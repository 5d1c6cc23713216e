"""Abelian subvarieties of E^d, norm endomorphisms and pullbacks, exactly.

An abelian subvariety is a saturated integer sublattice inclusion; its norm
endomorphism with respect to a polarization is an exact rational projector
scaled to be integral.  Saturation is the gcd of the inclusion's maximal
minors (`polarization._maximal_minor_gcd`), and the scale the lcm of the
denominators of the restricted form's exact inverse.  No command runs this
calculus, so it lives apart from `polarization`, whose determinants the
`intersection` command needs.  All of it is exact; no tolerances.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Sequence

from .errors import InvalidOrder, InvalidSubgroup, NonIntegralNorm
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

if TYPE_CHECKING:
    from fractions import Fraction


def _fraction_inverse(rows: Sequence[Sequence[int]]) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan over Q; raises on singular input."""
    from fractions import Fraction

    n = len(rows)
    aug = [
        [Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise InvalidOrder("singular matrix has no inverse")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


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
    (I^T L I)^(-1).  Each entry of N is checked to be integral.
    """
    if z.d != l.d:
        raise InvalidOrder(
            f"sublattice ambient dimension {z.d} != polarization dimension {l.d}"
        )
    i_mat = z.columns
    i_t = _transpose(i_mat)
    phi = _matmul(i_t, _matmul(l.rows, i_mat))
    if _det_bareiss(phi) == 0:
        raise InvalidOrder(
            "restricted form I^T L I is singular; L must be definite on Z"
        )
    phi_inv = _fraction_inverse(phi)
    e = math.lcm(*(v.denominator for row in phi_inv for v in row))
    n_frac = _matmul(i_mat, _matmul(phi_inv, _matmul(i_t, l.rows)))
    n_rows = []
    for row in n_frac:
        out_row = []
        for v in row:
            scaled = e * v
            if scaled.denominator != 1:
                raise NonIntegralNorm(
                    f"entry {scaled} of the norm endomorphism is not integral"
                )
            out_row.append(int(scaled))
        n_rows.append(tuple(out_row))
    return tuple(n_rows), e


def pullback(alpha: Sequence[Sequence[int]], s: PolarizationMatrix) -> PolarizationMatrix:
    """Pullback of the bundle along the endomorphism alpha: alpha^T S alpha."""
    a = _freeze(alpha)
    if len(a) != s.d:
        raise InvalidOrder(
            f"endomorphism has {len(a)} rows, polarization dimension is {s.d}"
        )
    return PolarizationMatrix(_matmul(_transpose(a), _matmul(s.rows, a)))
