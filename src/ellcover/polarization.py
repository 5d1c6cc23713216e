"""Exact intersection theory on E^d in the integer-matrix model (End(E) = Z).

Line bundles on E^d correspond to symmetric integer matrices; the Euler
characteristic is the determinant, and the d-fold self-intersection is d!
times it.  This is all that `intersection`, `construct` and `verify` run:
abelian subvarieties, norm endomorphisms and pullbacks are in `isogeny`,
and the 2x2 Hermite form of the quotient lattice is in `elliptic`.  Every
operation here is exact integer arithmetic; no tolerances.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from .errors import ExponentMismatch, InvalidOrder

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


def _maximal_minor_gcd(rows: Sequence[Sequence[int]]) -> int:
    """gcd of the r x r minors of an n x r integer matrix, stopping at 1.

    0 exactly when the columns are dependent; else the product of their
    Smith invariant factors, the index of their span in its saturation.
    """
    g = 0
    for minor in itertools.combinations(rows, len(rows[0])):
        g = math.gcd(g, _det_bareiss(minor))
        if g == 1:
            break
    return g


def _transpose(rows: IntRows) -> IntRows:
    return tuple(zip(*rows)) if rows else ()


def _matmul(a: Sequence[Sequence], b: Sequence[Sequence]):
    cols = len(b[0])
    inner = len(b)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols))
        for i in range(len(a))
    )


class _Frozen:
    """An immutable value whose fields set its `==`, hash and repr.

    Every annotation in a subclass body is a field, in order:
    `__init_subclass__` reads them into `_fields`, so a class attribute
    that is not a field carries no annotation.  The package's one
    value-class mechanism, in place of frozen dataclasses: `dataclasses`
    loads `inspect`, `ast`, `dis` and `tokenize`, and execs generated
    methods for each class, several ms of every command's startup.  The
    repr keeps the dataclass form `Name(field=value, ...)`.  The generic
    `__init__` takes the fields by position or keyword; a class built
    thousands of times per command sets them in its own `__init__` with
    `object.__setattr__`, which is faster.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

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
        if isinstance(a, bool) or not hasattr(a, "__index__"):
            raise ExponentMismatch(f"exponent {a!r} is not an integer")
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


def isogeny_degree_factor(q0, d: int) -> int:
    """Degree |Q0|^d of the coordinatewise quotient isogeny E^d -> (E/Q0)^d."""
    if d < 1:
        raise InvalidOrder(f"need d >= 1, got {d}")
    return q0.order**d
