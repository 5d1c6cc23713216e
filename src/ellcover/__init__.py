"""Explicit Galois covers of P^d built from self-products of an elliptic curve.

Two constructions are provided: quotient by signed permutations with rational
translations, and quotient by a faithful permutation action of S_{d+1} twisted
by translations.  Both come with numerical verification of the Galois property
(the group acts simply transitively on generic fibers) and an exact integer
calculus for the associated polarizations and intersection numbers.

The exports below are resolved lazily (PEP 562): `import ellcover` loads no
submodule, and `ellcover.wp` imports `ellcover.elliptic`, and so numpy, only
when first asked for.  The exact layers (`polarization`, `errors`) never
load numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

#: home module of every exported name
_EXPORTS = {
    "covers": (
        "CoverSpec", "CriterionReport", "SampleRecord", "VerificationReport",
        "build_cover", "criterion_check", "fiber_A", "fiber_B", "galois_verify",
        "map_A", "map_B", "very_ample_preconditions",
    ),
    "elliptic": (
        "FiniteSubgroupSpec", "HomPair", "IsogenyQuotient", "LatticeTau",
        "TorusPoint", "eisenstein_g2_g3", "quotient_lattice", "reduce_point",
        "torsion_points", "wp", "wp_inverse", "wp_prime",
    ),
    "errors": (
        "ConfigError", "DegenerateSection", "EllcoverError", "ExponentMismatch",
        "HighMultiplicity", "IllConditioned", "InvalidOrder", "InvalidPoint",
        "InvalidSubgroup", "NoConvergence", "NonGenericTarget", "NonIntegralNorm",
        "NotVeryAmpleWarning", "OrderCapExceeded", "SumNotZero",
    ),
    "groups": (
        "AffineAutomorphism", "FiniteActionGroup", "build_group_A", "build_group_B",
    ),
    "polarization": (
        "PolarizationMatrix", "SublatticeInclusion", "chi", "isogeny_degree_factor",
        "mixed_intersection", "norm_endomorphism", "pullback", "self_intersection",
    ),
    "symfun": (
        "ProjectivePoint", "SectionBasis", "divisor_to_coords", "projective_spread",
        "section_zeros", "sym_fiber", "sym_product",
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
