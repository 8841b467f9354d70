"""The value-class contract of the package's immutable records.

Each record class is built from a small real instance and checked against
a frozen dataclass with the same fields, the oracle: equal instances are
equal and hash alike, a record equals no plain tuple of its values, its
repr is the dataclass text, and its fields can be neither assigned nor
deleted.  The table lists the fields in their order, so a reordered
__slots__ fails here, and it must name every subclass of Record.
"""

import copy
import dataclasses
import pickle

import pytest

from cuspidal import errors, geometry
from cuspidal._record import Record
from cuspidal.abelian import AbelianStructure, abelianization
from cuspidal.alexander import LaurentPolynomial
from cuspidal.geometry import (PrimeField, ProjectivePoint, SplittingReport,
                               SuperabundanceReport, splitting_check_n2,
                               superabundance, superabundance_multi)
from cuspidal.homcount import (HomCountReport, TrivialityReport,
                               TrivialityWitness, count_homs,
                               relator_triviality_check)
from cuspidal.presentations import (Battery, MapCheckReport, curve_program,
                                    invariant_battery, map_check)
from cuspidal.rewriting import AbelianTarget
from cuspidal.words import GroupMap, Presentation, StraightLineProgram

Z2 = Presentation(("a",), [(1, 1)])
Z3 = Presentation(("b",), [(1, 1, 1)])
S3 = Presentation(("x", "y"), [(1, 1), (2, 2), (1, 2) * 3])


def bad_map():
    """Z/2 -> Z/3, a -> b: not a homomorphism, so it has witnesses."""
    return GroupMap(Z2, Z3, ((1,),))


# class -> (its fields in order, a builder of a small real instance)
CASES = {
    AbelianStructure: (("free_rank", "torsion"),
                       lambda: abelianization(S3)),
    LaurentPolynomial: (("low", "coeffs"),
                        lambda: LaurentPolynomial(-1, (0, 1, -1, 1, 0))),
    ProjectivePoint: (("coords", "p"),
                      lambda: ProjectivePoint((2, 4, 6), PrimeField(7))),
    SuperabundanceReport: (("n", "prime", "rank", "h0", "s"),
                           lambda: superabundance(3, PrimeField(19))),
    SplittingReport: (
        ("prime", "linear_forms", "intersection_points"),
        lambda: splitting_check_n2(PrimeField(13))),
    HomCountReport: (("symbols", "total", "surjective", "nodes"),
                     lambda: count_homs(S3, 3, count_surjective=True)),
    TrivialityWitness: (
        ("symbols", "relator_index", "assignment", "image"),
        lambda: relator_triviality_check(bad_map(), 3).witnesses[0]),
    TrivialityReport: (
        ("passed", "homs_checked", "witnesses"),
        lambda: relator_triviality_check(bad_map(), 3)),
    Battery: (
        ("h1", "hom_counts"), lambda: invariant_battery(Z2, S3, [2, 3])),
    MapCheckReport: (
        ("source_h1", "target_h1", "h1_well_defined", "h1_surjective",
         "h1_isomorphism", "triviality", "hom_counts"),
        lambda: map_check(bad_map(), 3)),
    AbelianTarget: (("moduli", "generators", "images"),
                    lambda: AbelianTarget((2, 3), ("x", "y"),
                                          ((1, 0), (0, 4)))),
    Presentation: (("generators", "relators"),
                   lambda: Presentation(S3.generators, S3.relators)),
    StraightLineProgram: (("generators", "nodes", "relators"),
                          lambda: curve_program(3)),
    GroupMap: (("source", "target", "images"), bad_map),
}
IDS = [cls.__name__ for cls in CASES]
# the homs_checked dict of a triviality report makes it unhashable
UNHASHABLE = {TrivialityReport, MapCheckReport}


def values(record) -> tuple:
    return tuple(getattr(record, name) for name in CASES[type(record)][0])


def oracle(record):
    """A frozen dataclass instance with the record's name and fields."""
    cls = dataclasses.make_dataclass(type(record).__name__,
                                     CASES[type(record)][0], frozen=True)
    return cls(*values(record))


def test_the_table_names_every_record_class():
    assert set(CASES) == set(Record.__subclasses__())
    assert len(CASES) == 14
    for cls, (fields, _) in CASES.items():
        assert cls.__slots__ == fields, cls.__name__


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_equality_and_hash(cls):
    build = CASES[cls][1]
    a, b = build(), build()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert a != values(a) and values(a) != a
    assert a != oracle(a)
    if cls not in UNHASHABLE:
        assert hash(a) == hash(b) == hash(oracle(a))
        assert len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)


# Presentation keeps its own repr, pinned in test_repr_pins
@pytest.mark.parametrize("cls", [cls for cls in CASES
                                 if "__repr__" not in vars(cls)],
                         ids=lambda cls: cls.__name__)
def test_repr_is_the_dataclass_text(cls):
    record = CASES[cls][1]()
    assert repr(record) == repr(oracle(record))


def test_repr_pins():
    assert repr(HomCountReport(3, 84)) == (
        "HomCountReport(symbols=3, total=84, surjective=None, nodes=0)")
    assert repr(AbelianStructure(0, ())) == (
        "AbelianStructure(free_rank=0, torsion=())")
    assert repr(LaurentPolynomial(2, (0, 1, 0))) == (
        "LaurentPolynomial(low=3, coeffs=(1,))")
    assert repr(S3) == "Presentation(2 generators, 3 relators)"


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(cls):
    record = CASES[cls][1]()
    before = values(record)
    for name in (*CASES[cls][0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert values(record) == before


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_copy_and_pickle_keep_the_values(cls):
    record = CASES[cls][1]()
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and values(twin) == values(record)


def test_keyword_construction_and_defaults():
    assert HomCountReport(3, 84) == HomCountReport(
        total=84, symbols=3, surjective=None, nodes=0)
    assert HomCountReport(3, 84, nodes=5).nodes == 5
    assert AbelianStructure(torsion=(2,), free_rank=1) == AbelianStructure(
        1, (2,))
    assert LaurentPolynomial(coeffs=(1,), low=2) == LaurentPolynomial(2, (1,))
    assert GroupMap(source=Z2, target=Z3, images=((1,),)) == bad_map()


def test_construction_rejects_missing_and_unexpected_fields():
    with pytest.raises(TypeError, match="missing field 'total'"):
        HomCountReport(3)
    with pytest.raises(TypeError, match="unexpected or repeated field"):
        HomCountReport(3, 84, depth=1)
    with pytest.raises(TypeError, match="unexpected or repeated field"):
        HomCountReport(3, 84, symbols=3)
    with pytest.raises(TypeError, match="takes 4 fields, 5 given"):
        HomCountReport(3, 84, None, 0, 1)
    with pytest.raises(TypeError):
        AbelianStructure(0)


def test_the_superabundance_disagreement_message(monkeypatch):
    # the message embeds the reports' repr
    def disagree(n, field):
        rank = {13: 5, 19: 6}[field.p]
        return SuperabundanceReport(n, field.p, rank, 1, 4)

    monkeypatch.setattr(geometry, "superabundance", disagree)
    with pytest.raises(errors.RankDeficiencySuspect) as raised:
        superabundance_multi(3, [13, 19])
    assert str(raised.value) == (
        "superabundance disagrees across primes: ["
        "SuperabundanceReport(n=3, prime=13, rank=5, h0=1, s=4), "
        "SuperabundanceReport(n=3, prime=19, rank=6, h0=1, s=4)]")
