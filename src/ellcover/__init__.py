"""Explicit Galois covers of P^d built from self-products of an elliptic curve.

Two constructions are provided: quotient by signed permutations with rational
translations, and quotient by a faithful permutation action of S_{d+1} twisted
by translations.  Both come with numerical verification of the Galois property
(the group acts simply transitively on generic fibers) and an exact integer
calculus for the associated polarizations and intersection numbers.

The exports below are resolved lazily (PEP 562): `import ellcover` loads no
submodule, and `ellcover.wp` imports `ellcover.weierstrass` only when first
asked for.  Only `covers`, `symfun` and `batch` load numpy; building a cover
(`construction`, `groups`, `elliptic`, `polarization`) never does.
"""

from importlib import import_module

__version__ = "0.1.0"

#: home module of every exported name
_EXPORTS = {
    "construction": ("CoverSpec", "build_cover", "very_ample_preconditions"),
    "covers": (
        "CriterionReport", "VerificationReport", "criterion_check",
        "fiber_A", "fiber_B", "galois_verify",
    ),
    "elliptic": ("FiniteSubgroupSpec", "IsogenyQuotient", "LatticeTau", "quotient_lattice"),
    "errors": (
        "ConfigError", "DegenerateSection", "EllcoverError", "ExponentMismatch",
        "IllConditioned", "InvalidOrder", "InvalidPoint", "InvalidSubgroup",
        "NoConvergence", "NonGenericTarget", "NotVeryAmpleWarning",
        "OrderCapExceeded", "SumNotZero",
    ),
    "affine": ("AffineAutomorphism", "FiniteActionGroup"),
    "groups": ("build_group_A", "build_group_B"),
    "isogeny": ("SublatticeInclusion", "norm_endomorphism", "pullback"),
    "polarization": (
        "PolarizationMatrix", "chi", "isogeny_degree_factor", "mixed_intersection",
        "self_intersection",
    ),
    "symfun": (
        "ProjectivePoint", "SectionBasis", "divisor_to_coords", "projective_spread",
        "section_zeros", "sym_fiber", "sym_product",
    ),
    "weierstrass": (
        "HomPair", "TorusPoint", "eisenstein_g2_g3", "reduce_point", "wp", "wp_inverse", "wp_prime",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))
