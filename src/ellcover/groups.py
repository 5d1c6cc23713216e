"""The deck groups of the two covers, as integer data: L x| Q0^d (`SemidirectProduct`).

Integer matrices act coordinatewise on C/Lambda tuples, and translations by
rational torsion points are numerators over Q0's denominator.  Orders come
from closed forms, so group orders are certificates rather than
floating-point artifacts, and no command lists an element.  Listing L or G,
orbits and stabilizers are `SemidirectProduct`'s own methods, which import
the reference half, `affine` (`AffineAutomorphism`, `FiniteActionGroup`),
and `batch` when called.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, partial
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .elliptic import EPS_PT, FiniteSubgroupSpec
from .errors import InvalidOrder, OrderCapExceeded, check_integer

if TYPE_CHECKING:
    from .affine import AffineAutomorphism
    from .weierstrass import PointTuple

IntMatrix = tuple[tuple[int, ...], ...]

#: largest d that the deck-group builders accept: on a measured grid every A
#: verify and every B verify on <1/2,0> passes to it, B to d = 12 (README)
MAX_D = 10
#: most matrices that `SemidirectProduct.matrices` lists
DEFAULT_ORDER_CAP = 100_000


def _identity(d: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def __getattr__(name: str):
    # the names of `affine` that perfbench/tracing.py wraps here
    if name in ("AffineAutomorphism", "FiniteActionGroup"):
        from . import affine

        return getattr(affine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SemidirectProduct:
    """L x| Q0^d as data, in integers: L's matrices and generators, and Q0.

    `matrices` is L's sequence, or a function that lists it on first use;
    `linear_order` = |L| in closed form gives |G| = |L| |Q0|^d unlisted.
    The generators are L's, with zero translations, then the translations
    by Q0's generators in each slot.  No command lists L or G, nor asks
    for an orbit or a stabilizer.
    """

    def __init__(self, dim: int, q0: FiniteSubgroupSpec, linear_order: int,
                 matrices: Sequence[IntMatrix] | Callable[[], Iterable[IntMatrix]],
                 linear_generators: Sequence[IntMatrix]):
        self.dim, self.q0, self.linear_order, self._matrices = dim, q0, linear_order, matrices
        self.linear_generators = tuple(linear_generators)
        self.order = linear_order * q0.order**dim

    def __reduce__(self):
        # a copy holds what lists L, never G's elements
        return SemidirectProduct, (self.dim, self.q0, self.linear_order, self._matrices, self.linear_generators)

    @cached_property
    def matrices(self) -> tuple[IntMatrix, ...]:
        """L's matrices, sorted; OrderCapExceeded past DEFAULT_ORDER_CAP of them."""
        if self.linear_order > DEFAULT_ORDER_CAP:
            raise OrderCapExceeded(f"listing {self.linear_order} matrices of L exceeds cap {DEFAULT_ORDER_CAP}")
        return tuple(sorted(self._matrices() if callable(self._matrices) else self._matrices))

    @cached_property
    def generators(self) -> tuple[AffineAutomorphism, ...]:
        from .affine import AffineAutomorphism

        matrices, numerators, _ = self.integer_generators
        return tuple(AffineAutomorphism(m, self.q0._fractions(t)) for m, t in zip(matrices, numerators))

    @cached_property
    def elements(self) -> tuple[AffineAutomorphism, ...]:
        """G listed, sorted by (matrix, translation)."""
        from .affine import AffineAutomorphism

        shifts = list(itertools.product(self.q0.elements, repeat=self.dim))
        return tuple(AffineAutomorphism(m, t) for m in self.matrices for t in shifts)

    @cached_property
    def _packed(self):
        """`batch.pack` of G in the order of `elements`, from the integers."""
        from .batch import pack

        shifts = list(itertools.product(self.q0.points, repeat=self.dim))
        return pack([m for m in self.matrices for _ in shifts], shifts * len(self.matrices), self.q0.denominator)

    def orbit(self, point: PointTuple, tol: float = EPS_PT) -> list[PointTuple]:
        """`FiniteActionGroup.orbit` over G's elements."""
        from .affine import FiniteActionGroup

        return FiniteActionGroup.orbit(self, point, tol)

    def stabilizer(self, point: PointTuple, tol: float = EPS_PT) -> list[AffineAutomorphism]:
        """`FiniteActionGroup.stabilizer` over G's elements."""
        from .affine import FiniteActionGroup

        return FiniteActionGroup.stabilizer(self, point, tol)

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

    def splits_over(self, q0: FiniteSubgroupSpec) -> bool:
        """Whether G is L x| q0^d: whether q0 is this group's own Q0, read off their canonical `hermite_basis`."""
        return self.q0.hermite_basis == q0.hermite_basis


def _transpositions(d: int) -> list[IntMatrix]:
    ident = _identity(d)
    return [ident[:i] + (ident[i + 1], ident[i]) + ident[i + 2 :] for i in range(d - 1)]


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
    coordinate and the adjacent transpositions.  Raises InvalidOrder, before
    any O(d) work, unless d is an integer, not a bool, with 1 <= d <= MAX_D.
    """
    check_integer("d", d, MAX_D, InvalidOrder)
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
    Q0 translations account for the isogeny factor.  d is checked as in
    `build_group_A`.
    """
    check_integer("d", d, MAX_D, InvalidOrder)
    cycle = ((-1,) * d,) + _identity(d)[:-1]
    order = math.factorial(d + 1)
    return SemidirectProduct(d, q0, order, partial(_divisor_permutations, d), _transpositions(d)[:1] + [cycle])
