"""Value semantics of the record classes on `polarization._Frozen`, and `RunConfig`.

Each record compares, hashes and prints by its fields, as a frozen
dataclass would, refuses assignment and deletion, keeps its cached
properties, and survives `copy.deepcopy` and pickle.
"""

import copy
import pickle

import numpy as np
import pytest

from ellcover import (
    AffineAutomorphism,
    CoverSpec,
    FiniteSubgroupSpec,
    IsogenyQuotient,
    LatticeTau,
    ProjectivePoint,
    TorusPoint,
    build_cover,
    galois_verify,
    quotient_lattice,
)
from ellcover.batch import lift_coords
from ellcover.construction import RunConfig
from ellcover.covers import CriterionReport, VerificationReport
from ellcover.errors import InvalidPoint

RECORDS = [
    LatticeTau,
    TorusPoint,
    FiniteSubgroupSpec,
    IsogenyQuotient,
    AffineAutomorphism,
    ProjectivePoint,
    CoverSpec,
    CriterionReport,
    VerificationReport,
]


@pytest.fixture(scope="module")
def records(lattice, q2):
    """Per class, two instances with different fields."""
    q3 = FiniteSubgroupSpec.parse(("1/3,0",))
    spec = build_cover("B", 2, lattice, q3)
    report = galois_verify(spec, samples=2, seed=1)
    return {
        LatticeTau: (lattice, LatticeTau.from_tau(0.1 + 1.3j)),
        TorusPoint: (TorusPoint(lattice, 0.25, 0.5), TorusPoint(lattice, 0.5, 0.25)),
        FiniteSubgroupSpec: (q2, q3),
        IsogenyQuotient: (spec.quotient, quotient_lattice(lattice, q2)),
        AffineAutomorphism: spec.group.elements[:2],
        ProjectivePoint: (
            ProjectivePoint.normalize([1, 2, 3]),
            ProjectivePoint.normalize([3, 2, 1]),
        ),
        CoverSpec: (spec, build_cover("A", 2, lattice, q2)),
        CriterionReport: (
            CriterionReport(order_ok=True, invariance_ok=True, basepoint_ok=True, very_ample=True),
            CriterionReport(order_ok=True, invariance_ok=True, basepoint_ok=False, very_ample=True),
        ),
        VerificationReport: (report, galois_verify(spec, samples=2, seed=2)),
    }


def _fields(record) -> dict:
    return {name: getattr(record, name) for name in record._fields}


@pytest.fixture(params=RECORDS, ids=lambda cls: cls.__name__)
def pair(request, records):
    return records[request.param]


def test_equality_and_hash(pair):
    record, other = pair
    twin = type(record)(**_fields(record))
    assert twin == record and twin is not record
    assert record != other
    assert record != tuple(_fields(record).values())
    if isinstance(record, VerificationReport):
        with pytest.raises(TypeError):  # its tolerances are a dict
            hash(record)
    else:
        assert hash(twin) == hash(record)
        assert len({record, twin, other}) == 2


def test_repr_names_every_field(pair):
    record, _ = pair
    body = ", ".join(f"{name}={value!r}" for name, value in _fields(record).items())
    assert repr(record) == f"{type(record).__name__}({body})"


def test_repr_is_the_dataclass_form(lattice, q2):
    assert repr(lattice) == "LatticeTau(omega1=(1+0j), omega2=(0.3+1.1j))"
    assert repr(TorusPoint(lattice, 0.25, 0.5)) == (
        "TorusPoint(lattice=LatticeTau(omega1=(1+0j), omega2=(0.3+1.1j)), a=0.25, b=0.5)"
    )
    assert repr(q2) == "FiniteSubgroupSpec(denominator=2, numerators=((1, 0),))"
    assert repr(AffineAutomorphism.identity(1)) == (
        "AffineAutomorphism(matrix=((1,),), translation=((Fraction(0, 1), Fraction(0, 1)),))"
    )
    assert repr(CriterionReport(True, False, True, False)) == (
        "CriterionReport(order_ok=True, invariance_ok=False, basepoint_ok=True, very_ample=False)"
    )


def test_assignment_and_deletion_raise(pair):
    record, _ = pair
    before = _fields(record)
    for name in (*record._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _fields(record) == before


def test_deepcopy_and_pickle_round_trip(pair):
    record, _ = pair
    for twin in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        if isinstance(record, CoverSpec):
            # a FiniteActionGroup compares by identity; its elements are the value
            assert twin.group.elements == record.group.elements
            twin = CoverSpec(**{**_fields(twin), "group": record.group})
        assert twin == record


def test_cached_properties_still_cache(lattice, q2):
    spec = build_cover("B", 1, lattice, FiniteSubgroupSpec.parse(("1/3,0",)))
    assert spec.basis is spec.basis
    assert "basis" in vars(spec)
    quotient = quotient_lattice(lattice, q2)
    assert lift_coords(quotient, np.array([[0.1, 0.2]])).shape == (1, 2, 2)
    assert q2.elements is q2.elements


def test_generic_init_takes_each_field_once():
    fields = dict(order_ok=True, invariance_ok=True, basepoint_ok=True, very_ample=False)
    assert CriterionReport(True, True, True, False) == CriterionReport(**fields)
    assert CriterionReport(True, True, basepoint_ok=True, very_ample=False) == CriterionReport(**fields)
    for args, kwargs in [
        ((True, True, True), {}),  # a field missing
        ((True, True, True, False, True), {}),  # one too many
        ((True,), fields),  # order_ok twice
        ((), {**fields, "extra": 1}),  # an unknown field
    ]:
        with pytest.raises(TypeError, match="takes the fields order_ok"):
            CriterionReport(*args, **kwargs)


def test_torus_point_rejects_non_finite(lattice):
    for a, b in [(float("nan"), 0.0), (0.0, float("inf"))]:
        with pytest.raises(InvalidPoint, match="non-finite"):
            TorusPoint(lattice, a, b)


class TestRunConfig:
    def test_class_defaults_and_keyword_construction(self):
        cfg = RunConfig(construction="B", d=3)
        assert (cfg.construction, cfg.d, cfg.samples, cfg.q0) == ("B", 3, 20, ("1/2,0",))
        assert "samples" not in vars(cfg)
        with pytest.raises(TypeError, match="no field 'eps_num'"):
            RunConfig(eps_num=1e-8)

    def test_mutable_with_value_equality(self):
        cfg = RunConfig()
        cfg.d = 3
        assert cfg == RunConfig(d=3) and cfg != RunConfig()
        assert repr(cfg).startswith("RunConfig(construction='A', d=3, tau='0.3+1.1i', q0=('1/2,0',),")
        with pytest.raises(TypeError):
            hash(cfg)

    def test_json_dict_in_field_order_without_output_and_jobs(self):
        out = RunConfig(output="r.json", jobs=2).as_json_dict()
        assert list(out) == [n for n in RunConfig._fields if n not in ("output", "jobs")]
        assert out["q0"] == ["1/2,0"]
