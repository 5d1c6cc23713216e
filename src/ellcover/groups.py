"""Finite groups of affine automorphisms of E^d, represented exactly.

An automorphism is a pair (M, t): an integer matrix M acting coordinatewise
on C/Lambda tuples and a translation t whose components are rational torsion
points.  Products, inverses, and enumeration are all exact, so group orders
are certificates rather than floating-point artifacts.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .elliptic import EPS_PT, FiniteSubgroupSpec, TorusPoint, _frac
from .errors import InvalidOrder, OrderCapExceeded
from .polarization import _det_bareiss, _Frozen, _matmul

IntMatrix = tuple[tuple[int, ...], ...]
Translation = tuple[tuple[Fraction, Fraction], ...]
PointTuple = tuple[TorusPoint, ...]

DEFAULT_ORDER_CAP = 100_000


def _identity(d: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


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
    from .isogeny import _fraction_inverse  # no command inverts an element

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


class FiniteActionGroup:
    """A finite group of affine automorphisms; element list sorted for reproducibility.

    `elements` is the sorted tuple itself, or a function that lists it on
    first use, in which case `order` gives its length: `construct` needs
    only the order.  `orbit` and `stabilizer` act with every element at
    once through `batch`, imported at call time so that building a group
    loads no numpy.
    """

    def __init__(self, dim: int, generators: Sequence[AffineAutomorphism],
                 elements: tuple[AffineAutomorphism, ...] | Callable[[], tuple],
                 order: int | None = None):
        self.dim = dim
        self.generators = tuple(generators)
        if callable(elements):
            self._list_elements = elements
            self.order = order
        else:
            self.elements = elements
            self.order = len(elements)

    @cached_property
    def elements(self) -> tuple[AffineAutomorphism, ...]:
        return self._list_elements()

    def __reduce__(self):
        # a copy holds the listed elements, not the function that lists them
        return FiniteActionGroup, (self.dim, self.generators, self.elements)

    @cached_property
    def _packed(self):
        """`batch.pack` of the elements, kept for the next orbit or verify chunk."""
        from .batch import pack

        return pack(self.elements, self.dim)

    @cached_property
    def linear(self) -> FiniteActionGroup:
        """L: the distinct matrices of the elements, sorted, with zero translations."""
        zero = _zero_translation(self.dim)
        matrices = sorted({g.matrix for g in self.elements})
        return FiniteActionGroup(self.dim, (), tuple(AffineAutomorphism(m, zero) for m in matrices))

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


def _translation_generators(d: int, q0: FiniteSubgroupSpec) -> list[AffineAutomorphism]:
    ident = _identity(d)
    gens = []
    for ga, gb in q0.generators:
        for slot in range(d):
            t = list(_zero_translation(d))
            t[slot] = (ga % 1, gb % 1)
            gens.append(AffineAutomorphism(ident, tuple(t)))
    return gens


def _transposition_generators(d: int) -> list[AffineAutomorphism]:
    gens = []
    for i in range(d - 1):
        rows = [list(r) for r in _identity(d)]
        rows[i], rows[i + 1] = rows[i + 1], rows[i]
        gens.append(
            AffineAutomorphism(tuple(tuple(r) for r in rows), _zero_translation(d))
        )
    return gens


def _capped_order(d: int, q0: FiniteSubgroupSpec, cap: int, factor: Callable[[int], int]) -> int:
    """The closed-form order, the product of factor(k) * |Q0| over k = 1..d, if it is at most cap.

    Raises OrderCapExceeded at the first partial product above cap: every
    factor(k) is at least 2, so a huge d costs at most log2(cap) + 1 steps.
    """
    order = 1
    for k in range(1, d + 1):
        order *= factor(k) * q0.order
        if order > cap:
            raise OrderCapExceeded(f"group order exceeds cap {cap} (at least {order})")
    return order


def _semidirect_product(
    d: int,
    generators: Sequence[AffineAutomorphism],
    matrices: Callable[[], Iterable[IntMatrix]],
    order: int,
    q0: FiniteSubgroupSpec,
) -> FiniteActionGroup:
    """All pairs (M, t) with M in a finite matrix group that preserves Q0^d, t in Q0^d.

    `order` comes from the closed form (`_capped_order`); the matrices that
    `matrices()` yields are listed only when the elements are first used.
    Sorted matrices times the translations in lexicographic order list the
    elements sorted by (matrix, translation).
    """

    def elements() -> tuple[AffineAutomorphism, ...]:
        shifts = list(itertools.product(q0.elements, repeat=d))
        return tuple(AffineAutomorphism(m, t) for m in sorted(matrices()) for t in shifts)

    return FiniteActionGroup(d, generators, elements, order)


def build_group_A(
    d: int, q0: FiniteSubgroupSpec, cap: int = DEFAULT_ORDER_CAP
) -> FiniteActionGroup:
    """Deck group of the wp-quotient cover: order 2^d * d! * |Q0|^d.

    Per coordinate: negation (wp is even) and translation by Q0 (the fibers
    of E -> E/Q0); across coordinates: the symmetric group S_d.  Listed
    directly as the signed permutation matrices times Q0^d.
    """
    if d < 1:
        raise InvalidOrder(f"need d >= 1, got {d}")
    order = _capped_order(d, q0, cap, lambda k: 2 * k)
    gens = []
    for slot in range(d):
        neg = [list(r) for r in _identity(d)]
        neg[slot][slot] = -1
        gens.append(
            AffineAutomorphism(tuple(tuple(r) for r in neg), _zero_translation(d))
        )
    gens.extend(_transposition_generators(d))
    gens.extend(_translation_generators(d, q0))

    def matrices():
        return (
            tuple(
                tuple(sign[i] if j == perm[i] else 0 for j in range(d)) for i in range(d)
            )
            for perm in itertools.permutations(range(d))
            for sign in itertools.product((1, -1), repeat=d)
        )

    return _semidirect_product(d, gens, matrices, order, q0)


def build_group_B(
    d: int, q0: FiniteSubgroupSpec, cap: int = DEFAULT_ORDER_CAP
) -> FiniteActionGroup:
    """Deck group of the sum-zero divisor cover: order (d+1)! * |Q0|^d.

    S_(d+1) permutes the divisor points (y_1, ..., y_d, y_(d+1) = -sum y_i).
    Generators: sigma_1 swaps the first two coordinates; sigma_2 cycles,
    sending (y_1, ..., y_d) to (-(y_1+...+y_d), y_1, ..., y_(d-1)), so its
    matrix has first row all -1 over a subdiagonal identity.  Coordinatewise
    Q0 translations account for the isogeny factor.  Listed directly: the
    permutation sigma sends y_i to y_sigma(i), whose matrix row i is a unit
    row, or all -1 where sigma(i) = d+1.
    """
    if d < 1:
        raise InvalidOrder(f"need d >= 1, got {d}")
    order = _capped_order(d, q0, cap, lambda k: k + 1)
    gens = []
    if d >= 2:
        gens.extend(_transposition_generators(d)[:1])
    cyc = [[0] * d for _ in range(d)]
    cyc[0] = [-1] * d
    for i in range(1, d):
        cyc[i][i - 1] = 1
    gens.append(
        AffineAutomorphism(tuple(tuple(r) for r in cyc), _zero_translation(d))
    )
    gens.extend(_translation_generators(d, q0))

    def matrices():
        return (
            tuple(
                (-1,) * d if sigma[i] == d else tuple(int(j == sigma[i]) for j in range(d))
                for i in range(d)
            )
            for sigma in itertools.permutations(range(d + 1))
        )

    return _semidirect_product(d, gens, matrices, order, q0)
