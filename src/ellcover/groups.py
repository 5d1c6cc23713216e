"""Finite groups of affine automorphisms of E^d, represented exactly.

A deck group is L x| Q0^d held as integers (`SemidirectProduct`): integer
matrices acting coordinatewise on C/Lambda tuples, and translations by
rational torsion points, as numerators over Q0's denominator.  Orders come
from closed forms and enumeration is exact, so group orders are
certificates rather than floating-point artifacts.  Listed elements are
`affine.AffineAutomorphism`s, and no command lists them: L is listed only
on a caller's request, up to DEFAULT_ORDER_CAP matrices.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, partial
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .elliptic import EPS_PT, FiniteSubgroupSpec, TorusPoint
from .errors import InvalidOrder, OrderCapExceeded

if TYPE_CHECKING:
    from .affine import AffineAutomorphism

IntMatrix = tuple[tuple[int, ...], ...]
PointTuple = tuple[TorusPoint, ...]

#: most matrices that `SemidirectProduct.matrices` lists
DEFAULT_ORDER_CAP = 100_000
#: largest d that the deck-group builders accept: on a measured grid every A
#: verify and every B verify on <1/2,0> passes to it, B to d = 12 (README)
MAX_D = 10


def _identity(d: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def __getattr__(name: str):
    # `groups.AffineAutomorphism` still resolves, imported on first use, for
    # callers that name it here, such as perfbench/tracing.py
    if name == "AffineAutomorphism":
        from .affine import AffineAutomorphism

        return AffineAutomorphism
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    through `batch`, imported at call time so that building a group loads
    no numpy.
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


class SemidirectProduct(FiniteActionGroup):
    """L x| Q0^d as data, in integers: L's matrices and generators, and Q0.

    `matrices` is L's sequence, or a function that lists it on first use;
    `linear_order` = |L| in closed form gives |G| = |L| |Q0|^d unlisted.
    The generators are L's, with zero translations, then the translations
    by Q0's generators in each slot.  `elements` lists G sorted by
    (matrix, translation) on first use; no command asks for it, nor for L.
    """

    def __init__(self, dim: int, q0: FiniteSubgroupSpec, linear_order: int,
                 matrices: Sequence[IntMatrix] | Callable[[], Iterable[IntMatrix]],
                 linear_generators: Sequence[IntMatrix]):
        self.dim, self.q0, self.linear_order, self._matrices = dim, q0, linear_order, matrices
        self.linear_generators = tuple(linear_generators)
        self.order = linear_order * q0.order**dim

    @cached_property
    def matrices(self) -> tuple[IntMatrix, ...]:
        """L's matrices, sorted; OrderCapExceeded past DEFAULT_ORDER_CAP of them."""
        if self.linear_order > DEFAULT_ORDER_CAP:
            raise OrderCapExceeded(f"listing {self.linear_order} matrices of L exceeds cap {DEFAULT_ORDER_CAP}")
        return tuple(sorted(self._matrices() if callable(self._matrices) else self._matrices))

    def __reduce__(self):
        # a copy holds what lists L, never G's elements
        return SemidirectProduct, (self.dim, self.q0, self.linear_order, self._matrices, self.linear_generators)

    @cached_property
    def linear(self) -> SemidirectProduct:
        """L, with zero translations, unlisted."""
        trivial = FiniteSubgroupSpec.trivial()
        return SemidirectProduct(self.dim, trivial, self.linear_order, self._matrices, self.linear_generators)

    @property
    def integer_generators(self) -> tuple[list, list, int]:
        """The generators' matrices, their translations' numerators, and the denominator N of Q0."""
        d, zero = self.dim, ((0, 0),) * self.dim
        shifts = [zero[:slot] + (g,) + zero[slot + 1 :] for g in self.q0.numerators for slot in range(d)]
        gens = list(self.linear_generators)
        return gens + [_identity(d)] * len(shifts), [zero] * len(gens) + shifts, self.q0.denominator

    @cached_property
    def generators(self) -> tuple[AffineAutomorphism, ...]:
        from .affine import AffineAutomorphism

        matrices, numerators, _ = self.integer_generators
        return tuple(AffineAutomorphism(m, self.q0._fractions(t)) for m, t in zip(matrices, numerators))

    @cached_property
    def elements(self) -> tuple[AffineAutomorphism, ...]:
        from .affine import AffineAutomorphism

        shifts = list(itertools.product(self.q0.elements, repeat=self.dim))
        return tuple(AffineAutomorphism(m, t) for m in self.matrices for t in shifts)

    @cached_property
    def _packed(self):
        """`batch.pack` of G in the order of `elements`, from the integers."""
        from .batch import pack

        shifts = list(itertools.product(self.q0.points, repeat=self.dim))
        return pack([m for m in self.matrices for _ in shifts], shifts * len(self.matrices), self.q0.denominator)

    def splits_over(self, q0: FiniteSubgroupSpec) -> bool:
        """Whether G is L x| q0^d: whether q0 is this group's own Q0, read off their canonical `hermite_basis`."""
        return self.q0.hermite_basis == q0.hermite_basis


def _transpositions(d: int) -> list[IntMatrix]:
    ident = _identity(d)
    return [ident[:i] + (ident[i + 1], ident[i]) + ident[i + 2 :] for i in range(d - 1)]


def _check_dimension(d: int) -> None:
    """Raise InvalidOrder unless 1 <= d <= MAX_D, before any O(d) work."""
    if not 1 <= d <= MAX_D:
        raise InvalidOrder(f"need 1 <= d <= {MAX_D}, got {d}")


def _signed_permutations(d: int) -> Iterable[IntMatrix]:
    """The 2^d d! signed permutation matrices."""
    return (
        tuple(tuple(sign[i] if j == perm[i] else 0 for j in range(d)) for i in range(d))
        for perm in itertools.permutations(range(d))
        for sign in itertools.product((1, -1), repeat=d)
    )


def _divisor_permutations(d: int) -> Iterable[IntMatrix]:
    """The (d+1)! matrices of S_(d+1) on (y_1, ..., y_d, -sum y_i): row i is a unit row, or all -1 where sigma(i) = d+1."""
    return (
        tuple((-1,) * d if sigma[i] == d else tuple(int(j == sigma[i]) for j in range(d)) for i in range(d))
        for sigma in itertools.permutations(range(d + 1))
    )


def build_group_A(d: int, q0: FiniteSubgroupSpec) -> SemidirectProduct:
    """Deck group of the wp-quotient cover: order 2^d * d! * |Q0|^d.

    Per coordinate: negation (wp is even) and translation by Q0 (the fibers
    of E -> E/Q0); across coordinates: the symmetric group S_d.  L is the
    signed permutation matrices, generated by the negations of one
    coordinate and the adjacent transpositions.
    """
    _check_dimension(d)
    ident = _identity(d)
    negations = [ident[:i] + (tuple(-v for v in ident[i]),) + ident[i + 1 :] for i in range(d)]
    order = 2**d * math.factorial(d)
    return SemidirectProduct(d, q0, order, partial(_signed_permutations, d), negations + _transpositions(d))


def build_group_B(d: int, q0: FiniteSubgroupSpec) -> SemidirectProduct:
    """Deck group of the sum-zero divisor cover: order (d+1)! * |Q0|^d.

    S_(d+1) permutes the divisor points (y_1, ..., y_d, y_(d+1) = -sum y_i).
    Generators: sigma_1 swaps the first two coordinates; sigma_2 cycles,
    sending (y_1, ..., y_d) to (-(y_1+...+y_d), y_1, ..., y_(d-1)), so its
    matrix has first row all -1 over a subdiagonal identity.  Coordinatewise
    Q0 translations account for the isogeny factor.
    """
    _check_dimension(d)
    cycle = ((-1,) * d,) + _identity(d)[:-1]
    order = math.factorial(d + 1)
    return SemidirectProduct(d, q0, order, partial(_divisor_permutations, d), _transpositions(d)[:1] + [cycle])
