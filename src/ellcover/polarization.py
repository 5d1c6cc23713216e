"""Exact intersection theory on E^d in the integer-matrix model (End(E) = Z).

Line bundles on E^d correspond to symmetric integer matrices; the Euler
characteristic is the determinant, the d-fold self-intersection is d! times
it, and abelian subvarieties are saturated sublattice inclusions.  Every
operation here is exact integer or rational arithmetic; no tolerances.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Sequence

from .errors import (
    ExponentMismatch,
    InvalidOrder,
    InvalidSubgroup,
    NonIntegralNorm,
)

if TYPE_CHECKING:
    from fractions import Fraction

IntRows = tuple[tuple[int, ...], ...]


def _freeze(rows: Sequence[Sequence[int]]) -> IntRows:
    out = []
    for row in rows:
        frozen = []
        for v in row:
            if isinstance(v, bool) or int(v) != v:
                raise InvalidOrder(f"matrix entry {v!r} is not an integer")
            frozen.append(int(v))
        out.append(tuple(frozen))
    return tuple(out)


def _det_bareiss(rows: Sequence[Sequence[int]]) -> int:
    """Fraction-free exact determinant of an integer matrix."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def _transpose(rows: IntRows) -> IntRows:
    return tuple(zip(*rows)) if rows else ()


def _matmul(a: Sequence[Sequence], b: Sequence[Sequence]):
    cols = len(b[0])
    inner = len(b)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols))
        for i in range(len(a))
    )


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
        covolume = math.gcd(covolume, _det_bareiss([p, q]))
    if covolume == 0:
        raise InvalidSubgroup("vectors do not span a rank-2 lattice")
    a = covolume // c
    return ((a, x % a), (0, c))


def _invariant_factors(rows: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero Smith invariant factors d_1 | d_2 | ... of an integer matrix.

    The k-th determinantal divisor D_k (gcd of all k x k minors) equals
    d_1 * ... * d_k.  D_(k-1) divides D_k, so a scan stops as soon as its
    running gcd reaches D_(k-1); the scan ends at the rank, where D_k = 0.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    out: list[int] = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        dk = 0
        for ri, ci in itertools.product(
            itertools.combinations(range(m), k), itertools.combinations(range(n), k)
        ):
            dk = math.gcd(dk, _det_bareiss([[rows[i][j] for j in ci] for i in ri]))
            if dk == prev:
                break
        if dk == 0:
            break
        out.append(dk // prev)
        prev = dk
    return out


class _Frozen:
    """An immutable value whose fields, listed in `_fields`, set its `==`, hash and repr.

    The package's one value-class mechanism, in place of frozen
    dataclasses: `dataclasses` loads `inspect`, `ast`, `dis` and
    `tokenize`, and execs generated methods for each class, several ms of
    every command's startup.  The repr keeps the dataclass form
    `Name(field=value, ...)`.  The generic `__init__` takes the fields by
    position or keyword; a class built thousands of times per command sets
    them in its own `__init__` with `object.__setattr__`, which is faster.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        values = dict(zip(self._fields, args), **kwargs)
        if len(values) != len(args) + len(kwargs) or set(values) != set(self._fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(self._fields)}")
        for name in self._fields:
            object.__setattr__(self, name, values[name])

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PolarizationMatrix(_Frozen):
    """A line bundle on E^d as a symmetric d x d integer matrix.

    Positive definite matrices are polarizations; semidefinite ones arise as
    pullbacks (e.g. along norm endomorphisms) and are accepted too.
    """

    _fields = ("rows",)
    rows: IntRows

    def __init__(self, rows: Sequence[Sequence[int]]):
        rows = _freeze(rows)
        d = len(rows)
        if any(len(r) != d for r in rows):
            raise InvalidOrder("polarization matrix must be square")
        if rows != _transpose(rows):
            raise InvalidOrder("polarization matrix must be symmetric")
        object.__setattr__(self, "rows", rows)

    @classmethod
    def identity(cls, d: int) -> "PolarizationMatrix":
        return cls(tuple(tuple(int(i == j) for j in range(d)) for i in range(d)))

    @classmethod
    def ones(cls, d: int) -> "PolarizationMatrix":
        return cls(tuple(tuple(1 for _ in range(d)) for _ in range(d)))

    @classmethod
    def scaled_identity(cls, d: int, c: int) -> "PolarizationMatrix":
        return cls(tuple(tuple(c * int(i == j) for j in range(d)) for i in range(d)))

    @classmethod
    def identity_plus_ones(cls, d: int) -> "PolarizationMatrix":
        return cls(
            tuple(tuple(int(i == j) + 1 for j in range(d)) for i in range(d))
        )

    @property
    def d(self) -> int:
        return len(self.rows)

    @property
    def is_positive_definite(self) -> bool:
        """Sylvester test: all leading principal minors positive."""
        return all(
            _det_bareiss([row[: k + 1] for row in self.rows[: k + 1]]) > 0
            for k in range(self.d)
        )


class SublatticeInclusion(_Frozen):
    """An abelian subvariety Z of E^d as a saturated integer column span.

    The columns of the d x r matrix span the tangent sublattice; saturation
    (all Smith invariant factors equal to 1) is exactly the condition that
    the subgroup they generate is a subtorus and not a finite extension.
    """

    _fields = ("columns",)
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
        d = len(cols)
        if d == 0 or len(cols[0]) == 0:
            raise InvalidSubgroup("empty sublattice inclusion")
        r = len(cols[0])
        if any(len(row) != r for row in cols):
            raise InvalidSubgroup("ragged inclusion matrix")
        if r > d:
            raise InvalidSubgroup(f"more columns ({r}) than ambient dimension ({d})")
        factors = _invariant_factors(cols)
        if len(factors) != r:
            raise InvalidSubgroup("inclusion matrix does not have full column rank")
        if saturated and any(f != 1 for f in factors):
            raise InvalidSubgroup(
                f"sublattice is not saturated (invariant factors {factors}); "
                "use SublatticeInclusion.unchecked to model a finite-index sublattice"
            )
        object.__setattr__(self, "columns", cols)

    @property
    def d(self) -> int:
        return len(self.columns)

    @property
    def r(self) -> int:
        return len(self.columns[0])


def chi(s: PolarizationMatrix) -> int:
    """Euler characteristic of the bundle: det(S), exact."""
    return _det_bareiss(s.rows)


def self_intersection(s: PolarizationMatrix) -> int:
    """d-fold self-intersection (D^d) = d! * det(S)."""
    return math.factorial(s.d) * chi(s)


def mixed_intersection(
    terms: Sequence[tuple[PolarizationMatrix, int]]
) -> int:
    """Intersection number (S_1^a_1 ... S_k^a_k) with sum(a_i) = d.

    Equals (prod a_i!) times the coefficient of prod t_i^a_i in
    det(sum t_i S_i), that is the mixed discriminant of the d matrices
    with S_i listed a_i times.  Inclusion-exclusion over the sub-sums
    gives it exactly from prod (a_i + 1) <= 2^d determinants:
    sum over 0 <= b_i <= a_i of (-1)^(d - sum b_i) prod C(a_i, b_i)
    det(sum b_i S_i).
    """
    if not terms:
        raise ExponentMismatch("no intersection terms")
    d = terms[0][0].d
    for s, a in terms:
        if s.d != d:
            raise ExponentMismatch(
                f"matrix sizes disagree: {s.d} vs {d}"
            )
        if a < 0:
            raise ExponentMismatch(f"negative exponent {a}")
    total = sum(a for _, a in terms)
    if total != d:
        raise ExponentMismatch(
            f"exponents sum to {total}, need the dimension {d}"
        )
    acc = 0
    for counts in itertools.product(*(range(a + 1) for _, a in terms)):
        weight = math.prod(math.comb(a, b) for (_, a), b in zip(terms, counts))
        summed = [
            [sum(b * s.rows[i][j] for (s, _), b in zip(terms, counts)) for j in range(d)]
            for i in range(d)
        ]
        sign = -1 if (d - sum(counts)) % 2 else 1
        acc += sign * weight * _det_bareiss(summed)
    return acc


def norm_endomorphism(
    l: PolarizationMatrix, z: SublatticeInclusion
) -> tuple[IntRows, int]:
    """(N, e) with N = e * I * (I^T L I)^(-1) * I^T L on the subvariety Z.

    e is the exponent of coker(I^T L I), i.e. the largest Smith invariant
    factor of the restricted polarization.  N is asserted integral; a
    failure indicates a violated saturation precondition.
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
    e = _invariant_factors(phi)[-1]
    phi_inv = _fraction_inverse(phi)
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


def isogeny_degree_factor(q0, d: int) -> int:
    """Degree |Q0|^d of the coordinatewise quotient isogeny E^d -> (E/Q0)^d."""
    if d < 1:
        raise InvalidOrder(f"need d >= 1, got {d}")
    return q0.order**d
