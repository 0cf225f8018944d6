"""The package's value types are ``nlie.record.Record`` classes.  Each must
keep what callers rely on: equality field by field within one class, a
hash wherever its fields are hashable (and ``Matrix``'s own hash), the
repr ``Name(field=value, ...)``, immutability, its defaults, and the
checks its constructor makes.
"""

from fractions import Fraction

import pytest

import nlie.cli  # noqa: F401  (loads every module of the package)
from nlie.algebra import (CheckResult, NLieAlgebra, Representation,
                          WedgeElement)
from nlie.algebroid import PolyMultiderivation
from nlie.chevalley import CECochain
from nlie.cochains import Cochain
from nlie.cohomology import CohomologyReport
from nlie.deformations import (DeformationPath, EquivalenceMap,
                               InfinitesimalClass, OOperatorLift,
                               RigidityReport, RigidityTrial)
from nlie.errors import DimensionMismatch
from nlie.linalg import Matrix, RankBound, RankNullspace, Refusal
from nlie.poly import MultiPoly, PolySection, make_section
from nlie.record import Record

F = Fraction

X = MultiPoly(1, {(1,): 1})
ZERO = MultiPoly(1, {})
ALG = NLieAlgebra(2, 2, {(0, 1): (F(1), F(0))})
TERM = Cochain(2, 2, 1, {((), (0, 1)): (1, F(2, 3))})
ID2 = Matrix(2, 2, [[1, 0], [0, 1]])
TRIAL = RigidityTrial("sampled", True, None)

# Two field tuples per record class; the second differs in one field.
SAMPLES = {
    NLieAlgebra: ((2, 2, {(0, 1): (F(1), F(0))}), (2, 2, {})),
    CheckResult: ((False, {"tuple": (0, 1)}), (False, {"tuple": (0, 2)})),
    WedgeElement: ((1, 2, {(0,): F(1)}), (1, 2, {(1,): F(1)})),
    Representation: ((2, 1, 2, {((0,), 0): (F(1),)}), (2, 1, 2, {})),
    PolySection: ((1, 1, (X,)), (1, 1, (ZERO,))),
    PolyMultiderivation: ((1, 1, 2, 0, {(0,): (X,)}, {}),
                          (1, 1, 2, 1, {(0,): (X,)}, {})),
    CECochain: ((2, 1, {(0,): (F(1), F(0))}), (2, 1, {})),
    Cochain: ((2, 2, 1, {((), (0, 1)): (1, F(2, 3))}), (2, 2, 1, {})),
    CohomologyReport: ((2, 4, 1, 0, 3, ()), (2, 4, 1, 0, 3, (TERM,))),
    DeformationPath: ((ALG, 1, (TERM,)), (ALG, 0, ())),
    EquivalenceMap: ((1, (ID2,)), (1, ())),
    InfinitesimalClass: ((1, True, 1, (F(1),), False),
                         (1, True, 1, (F(2),), False)),
    OOperatorLift: ((ID2, True, True), (ID2, True, False)),
    RigidityTrial: (("sampled", True, None), ("sampled", False, 2)),
    RigidityReport: ((1, 2, (TRIAL,), True, "note"),
                     (1, 2, (), True, "note")),
    Matrix: ((2, 2, [[1, 0], [F(1, 3), 2]]), (2, 2, [[1, 0], [0, 2]])),
    RankNullspace: ((1, ((F(1), F(-1, 2)),), (0,)), (2, (), (0, 1))),
    RankBound: ((2, (0, 3), 5, 3), (2, (0, 4), 5, 3)),
    Refusal: (({0: 1, 2: -1},), ({0: 1},)),
    MultiPoly: ((2, {(1, 0): 3, (0, 2): F(1, 2)}), (2, {(1, 0): 3})),
}


def _hashable(values) -> bool:
    try:
        hash(values)
    except TypeError:
        return False
    return True


def test_samples_cover_every_record_class():
    assert set(SAMPLES) == set(Record.__subclasses__())


@pytest.mark.parametrize("cls", sorted(SAMPLES, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_record_behaviour(cls):
    first, second = SAMPLES[cls]
    a, again, other = cls(*first), cls(*first), cls(*second)
    assert a == again and not a != again
    assert a != other and not a == other
    # a record equals no object of another class, not even its field tuple
    assert a != first and a != tuple(getattr(a, f) for f in cls.__slots__)
    if cls is Matrix or _hashable(first):
        assert hash(a) == hash(again)
    else:
        with pytest.raises(TypeError):
            hash(a)
    name = cls.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(a, name, getattr(other, name))
    with pytest.raises(AttributeError):
        setattr(a, "extra", 1)
    with pytest.raises(AttributeError):
        delattr(a, name)
    assert a == again
    assert repr(a).startswith(f"{cls.__name__}({cls._fields[0]}=")
    with pytest.raises(TypeError):
        cls(*first, None, None, None)


# captured from the ``dataclasses`` implementation these classes replaced
REPRS = [
    (CheckResult(True), "CheckResult(holds=True, witness=None)"),
    (CheckResult(False, {"a": (F(1, 2),)}),
     "CheckResult(holds=False, witness={'a': (Fraction(1, 2),)})"),
    (RankNullspace(1, ((F(1), F(-1, 2)),), (0,), 5, 2),
     "RankNullspace(rank=1, nullspace=((Fraction(1, 1), Fraction(-1, 2)),),"
     " pivots=(0,))"),
    (MultiPoly(2, {(1, 0): 3, (0, 2): F(1, 2)}),
     "MultiPoly(num_vars=2, terms={(1, 0): 3, (0, 2): Fraction(1, 2)})"),
    (PolySection(1, 1, (X,)),
     "PolySection(num_vars=1, rank=1, comps=(MultiPoly(num_vars=1, "
     "terms={(1,): 1}),))"),
    (Matrix(2, 2, [[1, 0], [F(1, 3), 2]]),
     "Matrix(rows=2, cols=2, data=({0: 1}, {0: Fraction(1, 3), 1: 2}))"),
    (TERM, "Cochain(arity=2, dim=2, degree=1, "
           "entries={((), (0, 1)): (1, Fraction(2, 3))})"),
    (CheckResult(False, {"first_failing_power": 2}),
     "CheckResult(holds=False, witness={'first_failing_power': 2})"),
    (ALG, "NLieAlgebra(arity=2, dim=2, "
          "structure={(0, 1): (Fraction(1, 1), Fraction(0, 1))})"),
]


@pytest.mark.parametrize("record, text", REPRS,
                         ids=[type(r).__name__ for r, _ in REPRS])
def test_record_repr(record, text):
    assert repr(record) == text


def test_record_defaults_and_counters():
    assert CheckResult(True) == CheckResult(True, None)
    assert CheckResult(True).witness is None
    plain = RankNullspace(2, (), (0, 1))
    assert (plain.sample_rows, plain.rounds) == (0, 0)
    counted = RankNullspace(2, (), (0, 1), 40, 3)
    assert counted == plain and hash(counted) == hash(plain)
    assert repr(counted) == repr(plain)


def test_vector_field_checks_its_components():
    # a vector field on R^m is a section of rank m, and ``make_section``
    # is where a section's components are checked
    with pytest.raises(DimensionMismatch):
        make_section(2, 2, (X,))
    with pytest.raises(DimensionMismatch):
        make_section(1, 1, (MultiPoly(2, {}),))
