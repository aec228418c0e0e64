"""Every record of the package behaves as the frozen dataclass it
stands for: same equality, hash, repr, pickling and copying, checked
against a dataclass built from its fields.  The query meter and the
child-process handles hold changing state and are plain classes."""

import copy
import dataclasses
import importlib
import operator
import pickle
import pkgutil

import pytest

import tukeykit
from tukeykit.adversary import (
    AdversaryCertificate,
    DecidedFact,
    FamilyReport,
    FunctionMachine,
    ImagePinning,
    MeteredMachine,
    Predictor,
    SplitterTrace,
)
from tukeykit.apfuncs import APFunc
from tukeykit.branchmap import (
    BoundCertificate,
    Branch,
    ColumnTuple,
    CommonWitnesses,
    ExactIntersection,
    ImagePrefix,
)
from tukeykit.catalog import (
    BuiltinMorphism,
    GluedImage,
    IterateColoring,
)
from tukeykit.gadgets import MaxPairViolation, ThreeSetsViolation
from tukeykit.records import Record, set_field
from tukeykit.splitorder import (
    AntichainReport,
    Diagram,
    EdgeRecord,
    EdgeVerdict,
    IndexSetVerdict,
    SplitSpec,
)
from tukeykit.triples import (
    CodedTriple,
    FamilyProperty,
    FiniteTriple,
    Kind,
    MorphismCandidate,
    MorphismReport,
    Violation,
)
from tukeykit.upsets import EVENS, ODDS
from tukeykit.wire import LineProcess, SubprocessMachine, SubprocessMap

# callables are builtins and operator functions, so the samples pickle
F = APFunc((1,), (0, 2), 3)
PREDICTOR = Predictor((0, 1, 3), ({"": "1"}, {"0": "01", "1": "10"}))
TRACE = SplitterTrace("0110", 2, 1, ((1, 1), (2, 0)))
PINNING = ImagePinning("0110", 2, 0, (0, 2))
CT = ColumnTuple(1, ((0, 1, 0),))
KIND = Kind("k", callable, (1, 2))
CANDIDATE = MorphismCandidate(abs, abs, "abs")
PROPERTY = FamilyProperty("all", all, "a note")
EDGE = EdgeRecord("d", "b", "BT-morphism", "successor")
SPEC = SplitSpec(4, 2)
VERDICT = EdgeVerdict(SPEC, SplitSpec(3, 2), True, "bound_holds", 1)
VIOLATION = Violation("relation", "detail", (1, 2))

# one sample per record class
SAMPLES = {
    FunctionMachine: FunctionMachine("m", max),
    Predictor: PREDICTOR,
    DecidedFact: DecidedFact(1, "0", 3),
    AdversaryCertificate: AdversaryCertificate("m", PREDICTOR, (0, 2), 4),
    SplitterTrace: TRACE,
    ImagePinning: PINNING,
    FamilyReport: FamilyReport((2, 0), "0110", (TRACE,), (PINNING,), (1,)),
    APFunc: F,
    Branch: Branch(2, F),
    ColumnTuple: CT,
    ImagePrefix: ImagePrefix((3, 7), 10, 4),
    CommonWitnesses: CommonWitnesses(1, (CT,), (5,)),
    ExactIntersection: ExactIntersection(1, 4, (CT,)),
    BoundCertificate: BoundCertificate(1, (CT,), False, (0, 1), 2),
    IterateColoring: IterateColoring(APFunc((), (0,), 2)),
    GluedImage: GluedImage(F),
    BuiltinMorphism: BuiltinMorphism("d", "b", CANDIDATE, ((EVENS,),)),
    EdgeRecord: EDGE,
    Diagram: Diagram("borel_diagram", ("d", "b"), (EDGE,)),
    MaxPairViolation: MaxPairViolation(F, "O", ODDS, EVENS, F),
    ThreeSetsViolation: ThreeSetsViolation(
        "family", "detail", pair=(EVENS, ODDS), images=(EVENS, ODDS)
    ),
    SplitSpec: SPEC,
    EdgeVerdict: VERDICT,
    AntichainReport: AntichainReport(3, ((3, 4),), ((VERDICT, VERDICT),)),
    IndexSetVerdict: IndexSetVerdict(
        frozenset({3}), frozenset({3, 4}), False, 4, ((VERDICT, VERDICT),)
    ),
    FiniteTriple: FiniteTriple(("x",), ("y", "z"), ((True, False),)),
    FamilyProperty: PROPERTY,
    Kind: KIND,
    CodedTriple: CodedTriple("c", KIND, KIND, operator.eq, PROPERTY, "equals"),
    MorphismCandidate: CANDIDATE,
    Violation: VIOLATION,
    MorphismReport: MorphismReport("c", "s", "t", (VIOLATION,), 4, 2, 1),
}

# the fields Kind's own repr leaves out
HIDDEN = {Kind: {"validate", "probes"}}

PROCESS = LineProcess(["true"], 2.0)

# one instance per class that holds changing state instead of a value
PLAIN = {
    MeteredMachine: MeteredMachine(FunctionMachine("m", max), 10),
    LineProcess: PROCESS,
    SubprocessMap: SubprocessMap(PROCESS),
    SubprocessMachine: SubprocessMachine(PROCESS, "m"),
}


def record_classes() -> list[type]:
    found = []
    for info in pkgutil.iter_modules(tukeykit.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"tukeykit.{info.name}")
        found += [
            value
            for value in vars(module).values()
            if isinstance(value, type)
            and issubclass(value, Record)
            and value.__module__ == module.__name__
            and value is not Record
        ]
    return sorted(found, key=lambda cls: (cls.__module__, cls.__name__))


def hash_of(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


def as_dataclass(cls: type, values: tuple):
    """The dataclass the record stands for, holding the same values."""
    spec = [
        (f, object, dataclasses.field(repr=f not in HIDDEN.get(cls, ())))
        for f in cls.__slots__
    ]
    twin = dataclasses.make_dataclass(cls.__name__, spec, frozen=True)
    twin.__qualname__ = cls.__qualname__
    return twin(*values)


@pytest.mark.parametrize("cls", record_classes(), ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    assert cls in SAMPLES, f"{cls.__name__} has no sample in SAMPLES"
    r = SAMPLES[cls]
    assert type(r) is cls
    values = tuple(getattr(r, f) for f in cls.__slots__)
    reference = as_dataclass(cls, values)
    assert repr(r) == repr(reference)

    for clone in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
        assert type(clone) is cls and clone == r and not clone != r

    # a record of another class with the same fields, or the bare tuple
    # of the values, is never equal
    other = type("Other", (Record,), {"__slots__": cls.__slots__})
    twin = other.__new__(other)
    for f, v in zip(cls.__slots__, values):
        set_field(twin, f, v)
    assert r != twin and twin != r
    assert r != values and r != reference

    assert hash_of(r) == hash_of(values) == hash_of(reference)
    name = cls.__slots__[0]
    for attr in (name, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(r, attr, None)
        with pytest.raises(AttributeError):
            delattr(r, attr)
    assert getattr(r, name) is values[0]


@pytest.mark.parametrize("cls", record_classes(), ids=lambda cls: cls.__name__)
def test_record_arity(cls):
    r = SAMPLES[cls]
    values = tuple(getattr(r, f) for f in cls.__slots__)
    assert cls(*values) == r
    with pytest.raises(TypeError):
        cls(*values, None)
    if cls.__init__ is Record.__init__:
        with pytest.raises(TypeError) as caught:
            cls(*values[:-1])
        assert cls.__name__ in str(caught.value)
        assert ", ".join(cls.__slots__) in str(caught.value)


@pytest.mark.parametrize("keyword", ["frozen", "hidden"])
def test_record_takes_no_class_keywords(keyword):
    with pytest.raises(TypeError):
        type("X", (Record,), {"__slots__": ("a",)}, **{keyword: False})


@pytest.mark.parametrize("cls", sorted(PLAIN, key=lambda cls: cls.__name__),
                         ids=lambda cls: cls.__name__)
def test_plain_class(cls):
    # a counter or a live child process: no record, so equal and hashed
    # as itself only, and slotted like the records
    r = PLAIN[cls]
    assert type(r) is cls and not issubclass(cls, Record)
    assert not hasattr(r, "__dict__")
    other = cls.__new__(cls)
    assert r == r and r != other and hash(r) != hash(other)
