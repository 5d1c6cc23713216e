"""Cover assembly: quotient isogeny, deck group and polarization, all exact.

`construct` needs only this, so it loads no numpy.  `covers` re-exports it
and holds the maps, which the `CoverSpec` methods import when called.
`RunConfig`, the resolved configuration of `construct` and `verify`, lives
here too.  Their records are plain classes on `polarization._Frozen`, so no
command loads `dataclasses`.
"""

from __future__ import annotations

import math
import operator
import warnings
from functools import cached_property
from typing import TYPE_CHECKING, Optional, get_type_hints

from .elliptic import EPS_PROJ, EPS_PT, FiniteSubgroupSpec, IsogenyQuotient, LatticeTau
from .elliptic import quotient_lattice
from .errors import ConfigError, IllConditioned, InvalidOrder, NotVeryAmpleWarning
from .groups import (
    DEFAULT_ORDER_CAP,
    FiniteActionGroup,
    PointTuple,
    build_group_A,
    build_group_B,
)
from .polarization import (
    PolarizationMatrix,
    _Frozen,
    isogeny_degree_factor,
    self_intersection,
)

if TYPE_CHECKING:
    import numpy as np

    from .symfun import ProjectivePoint, SectionBasis

#: tallest quotient E/Q0 (largest reduced Im tau') that build_cover accepts,
#: and the lower one for construction B at d >= 3 (README)
MAX_QUOTIENT_IM_TAU = 12.0
MAX_QUOTIENT_IM_TAU_B3 = 8.0
#: largest entry of the unimodular change that reduces the period ratio of E
#: or of E/Q0 that build_cover accepts: the kernel reduces a point's
#: coordinates through it and loses about log10(entry) digits of them; the
#: first verify to fail in a sweep over Re tau had entry 1e5 (README)
MAX_BASIS_CHANGE = 10_000


def very_ample_preconditions(construction: str, d: int, q0: FiniteSubgroupSpec) -> bool:
    """Very-ampleness preconditions of the two constructions.

    A needs a nontrivial Q0; B needs |Q0| >= 2 for d >= 2 but |Q0| >= 3
    when d = 1.
    """
    if construction == "A":
        return q0.order >= 2
    return (d >= 2 and q0.order >= 2) or (d == 1 and q0.order >= 3)


class CoverSpec(_Frozen):
    """A configured covering map E^d -> P^d with its group and polarization."""

    construction: str
    d: int
    curve: LatticeTau
    q0: FiniteSubgroupSpec
    quotient: IsogenyQuotient
    group: FiniteActionGroup
    polarization: PolarizationMatrix
    theoretical_degree: int
    very_ample: bool

    @cached_property
    def basis(self) -> SectionBasis:
        """Section basis of O((d+1)[0]) on E/Q0 (construction B target system)."""
        from .symfun import SectionBasis

        return SectionBasis(self.d + 1, self.quotient.target)

    @cached_property
    def decomposed(self) -> bool:
        """Whether the deck group is L x| Q0^d, exactly, so that it acts through L on (E/Q0)^d.

        |G| = |L| |Q0|^d, and the group splits over Q0 (`splits_over`): a
        deck group when its own Q0 is Q0; a listed group's translations all
        lie in Q0^d, so, the elements being distinct, those with matrix 1
        are all of Q0^d.
        """
        group = self.group
        return group.order == group.linear.order * self.q0.order**self.d and group.splits_over(self.q0)

    def map(self, point: PointTuple) -> ProjectivePoint:
        """The image of one point tuple in P^d: the single row of `map_array`.

        Raises IllConditioned where `map_array` marks that row as failed.
        """
        from .batch import coords_array
        from .symfun import ProjectivePoint

        rows, failed = self.map_array(coords_array([point]))
        if failed[0]:
            raise IllConditioned("the map has no computable image at this point")
        return ProjectivePoint(tuple(rows[0].tolist()))

    def map_array(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The map f = g o phi on N point tuples given by coordinates, shape N x d x 2.

        phi is the isogeny E^d -> (E/Q0)^d and g is `map_quotient`.
        Returns the N x (d+1) coordinates of the images, normalized as
        `ProjectivePoint.normalize` normalizes them, and a mask of the rows
        that have no image, such as a divisor whose section system is
        degenerate (`batch.divisors_to_coords`).  Each row depends on its
        own tuple alone, bit for bit, whatever else the stack holds.
        Raises InvalidOrder unless the tuples have d points.
        """
        if coords.shape[1] != self.d:
            raise InvalidOrder(f"point has {coords.shape[1]} components, expected {self.d}")
        from .batch import map_coords

        return self.map_quotient(map_coords(self.quotient, coords))

    def map_quotient(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """g, the map that `map_array` applies after the isogeny, on N point tuples of (E/Q0)^d."""
        from . import covers

        return (covers.map_A_array if self.construction == "A" else covers.map_B_array)(self, coords)

    def fiber_array(self, targets: np.ndarray) -> tuple[np.ndarray, list]:
        """The preimages of N targets given by normalized coordinates, N x (d+1).

        Returns the N x |G| x d x 2 coordinates of the fibers and, per
        target, None or why it is not a generic value of the map (its row
        then holds nan): every arrangement of the lifts of the target's
        points on E/Q0.  Each row depends on its own target alone.
        """
        from . import covers

        points, reasons = covers._quotient_points(self, targets)
        return covers._arrange(self, points), reasons


def degree_identity(
    construction: str, polarization: PolarizationMatrix, q0: FiniteSubgroupSpec
) -> int:
    """The cover degree d! chi(L), times the isogeny factor |Q0|^d for B."""
    degree = self_intersection(polarization)
    if construction == "B":
        degree *= isogeny_degree_factor(q0, polarization.d)
    return degree


def build_cover(
    construction: str,
    d: int,
    curve: LatticeTau,
    q0: FiniteSubgroupSpec,
    order_cap: int = DEFAULT_ORDER_CAP,
) -> CoverSpec:
    """Assemble the cover: quotient isogeny, deck group, and polarization.

    The quotient is built on `LatticeTau.from_tau(curve.tau)`: the same
    cover, in the same coordinates (a, b), at every scale of the lattice.
    Warns with NotVeryAmpleWarning when the configuration misses the
    very-ampleness preconditions; the cover is still built and verifiable.
    Raises IllConditioned when E/Q0 is taller than its bound,
    MAX_QUOTIENT_IM_TAU or MAX_QUOTIENT_IM_TAU_B3 for B at d >= 3, and when
    reducing the period ratio of E or E/Q0 takes a basis change with an
    entry above MAX_BASIS_CHANGE, and ConfigError unless construction is
    A or B and d and order_cap are integers >= 1.
    """
    if construction not in ("A", "B"):
        raise ConfigError(f"construction must be A or B, got {construction!r}")
    _check_integer("d", d)
    _check_integer("order_cap", order_cap)
    quotient = quotient_lattice(LatticeTau.from_tau(curve.tau), q0)
    height = quotient.target.tau_reduced.imag
    bound = MAX_QUOTIENT_IM_TAU_B3 if construction == "B" and d >= 3 else MAX_QUOTIENT_IM_TAU
    if height > bound:
        raise IllConditioned(
            f"quotient E/Q0 has reduced Im tau' = {height:.6g} > {bound:g}, "
            f"taller than {construction} at d={d} is verified for"
        )
    entry = max(abs(v) for lat in (quotient.source, quotient.target) for v in lat.basis_change)
    if entry > MAX_BASIS_CHANGE:
        raise IllConditioned(
            f"reducing the period ratio of E or E/Q0 takes a basis change with entry "
            f"{entry} > {MAX_BASIS_CHANGE}, past what point coordinates resolve"
        )
    if construction == "A":
        group = build_group_A(d, q0, cap=order_cap)
        polarization = PolarizationMatrix.scaled_identity(d, 2 * q0.order)
    else:
        group = build_group_B(d, q0, cap=order_cap)
        polarization = PolarizationMatrix.identity_plus_ones(d)
    degree = degree_identity(construction, polarization, q0)
    flag = very_ample_preconditions(construction, d, q0)
    if not flag:
        warnings.warn(
            f"construction {construction} with d={d}, |Q0|={q0.order} misses "
            "the very-ampleness preconditions; criterion will flag it",
            NotVeryAmpleWarning,
            stacklevel=2,
        )
    return CoverSpec(
        construction=construction,
        d=d,
        curve=curve,
        q0=q0,
        quotient=quotient,
        group=group,
        polarization=polarization,
        theoretical_degree=degree,
        very_ample=flag,
    )


#: most samples that `galois_verify` draws and reports: at d=1 a sample
#: costs about 1.6 KB of records and report, so about 190 MB at the bound (README)
MAX_SAMPLES = 100_000
#: most threads that `galois_verify` shares chunks out to, which hold the
#: interpreter lock for most of their time (README)
MAX_JOBS = 32


def _check_integer(name: str, value, bound: float = math.inf) -> None:
    """Raise ConfigError unless `value` is an integer with 1 <= value <= bound."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if value < 1:
        raise ConfigError(f"{name} must be >= 1, got {value}")
    if value > bound:
        raise ConfigError(f"{name} must be <= {bound}, got {value}")


def check_run_bounds(
    samples: int = 1, jobs: int = 1, eps_pt: float = EPS_PT, eps_proj: float = EPS_PROJ
) -> None:
    """Raise ConfigError, before anything is drawn, unless every value lies in its bound.

    Integers 1 <= samples <= MAX_SAMPLES and 1 <= jobs <= MAX_JOBS, and
    numbers 0 < eps_pt, eps_proj < inf.  The CLI, `galois_verify` and
    `criterion_check` all check here; a value not given is its default.
    """
    _check_integer("samples", samples, MAX_SAMPLES)
    _check_integer("jobs", jobs, MAX_JOBS)
    for name, value in (("eps_pt", eps_pt), ("eps_proj", eps_proj)):
        if not (isinstance(value, (int, float)) and 0 < value < math.inf):
            raise ConfigError(f"{name} must be positive and finite, got {value}")


class RunConfig:
    """Resolved run configuration; field defaults are the documented defaults.

    Mutable: `commands._resolve_config` sets fields in turn from a config
    file, flags and the environment.  A field typed Optional admits null in
    a config file, which keeps the default.  Its annotations are its fields,
    as on `_Frozen`, and `cli` reads the flags of `construct` and `verify`
    off them."""

    construction: str = "A"
    d: int = 2
    tau: str = "0.3+1.1i"
    q0: tuple[str, ...] = ("1/2,0",)
    samples: int = 20
    seed: int = 42
    eps_pt: Optional[float] = EPS_PT
    eps_proj: Optional[float] = EPS_PROJ
    order_cap: Optional[int] = DEFAULT_ORDER_CAP
    output: Optional[str] = None
    jobs: int = 1

    def __init__(self, **values):
        for name, value in values.items():
            if name not in self._fields:
                raise TypeError(f"RunConfig() has no field {name!r}")
            setattr(self, name, value)

    _key = _Frozen._key
    __eq__ = _Frozen.__eq__
    __repr__ = _Frozen.__repr__

    def parse_tau(self) -> complex:
        text = self.tau.strip().replace("i", "j").replace(" ", "")
        try:
            value = complex(text)
        except ValueError as exc:
            raise ConfigError(f"cannot parse tau {self.tau!r}") from exc
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise ConfigError(f"tau must be finite, got {self.tau!r}")
        if value.imag <= 0:
            raise ConfigError(f"tau must have positive imaginary part, got {self.tau!r}")
        return value

    def build_spec(self) -> CoverSpec:
        lattice = LatticeTau.from_tau(self.parse_tau())
        subgroup = FiniteSubgroupSpec.parse(self.q0)
        return build_cover(
            self.construction, self.d, lattice, subgroup, order_cap=self.order_cap
        )

    def as_json_dict(self) -> dict:
        """The `config` block of reports.

        Every field but `output` and `jobs`, which cannot change a result.
        """
        out = {
            name: getattr(self, name) for name in self._fields if name not in ("output", "jobs")
        }
        out["q0"] = list(self.q0)
        return out


# set once the class exists: under PEP 649 (Python 3.14) its body has no
# `__annotations__` name to read.  `_types` holds each field's type,
# evaluated once, for `cli`'s flags and `commands`' config files
RunConfig._types = get_type_hints(RunConfig)
RunConfig._fields = tuple(RunConfig._types)
