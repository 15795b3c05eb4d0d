"""The value types keep the semantics of frozen data classes.

Every subclass of ``dflag._value.Value`` is found by walking the
package and checked here: its repr, eq and hash are over its
``_fields`` only, it never equals a value of another class, it cannot
be changed, and copies and pickles come back equal.  The package
imports no code generator for them.
"""

import ast
import copy
import importlib
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import dflag
from dflag._value import Value
from dflag.clans import Clan
from dflag.classify import (
    DoubleFlagVerdict,
    MatchedRow,
    Status,
    SummaryRow,
    TripleFlagVerdict,
    Witness,
)
from dflag.compositions import Composition, SymplecticComposition
from dflag.groups import GroupDatum, GroupFamily, ParabolicSpec
from dflag.lr import LRDecomposition, Partition, RestrictionProbeResult, TensorProbeResult
from dflag.orbits import OrbitCountReport
from dflag.pairs import KFactor, KParabolicSpec, PairKind, SymmetricPairSpec
from dflag.weyl import DoubleCosetResult, WeylElement

SRC = Path(dflag.__file__).resolve().parent.parent
GL, SP = GroupFamily.GENERAL_LINEAR, GroupFamily.SYMPLECTIC


def _pair():
    return SymmetricPairSpec(PairKind.AIII, GroupDatum(GL, 3), 2, 1)


def _row():
    return MatchedRow("A", "A1", (0, 1, 2))


def _witness():
    return Witness("triple", (("triple", "1,1;2;2"),), "A1", None)


# one value of each class; every call builds it again from new objects
EXAMPLES = {
    Composition: lambda: Composition((2, 1)),
    SymplecticComposition: lambda: SymplecticComposition((1,), 2),
    GroupDatum: lambda: GroupDatum(SP, 2),
    ParabolicSpec: lambda: ParabolicSpec(GroupDatum(GL, 3), Composition((2, 1))),
    SymmetricPairSpec: _pair,
    KFactor: lambda: KFactor("gl", 2, (0, 1)),
    KParabolicSpec: lambda: KParabolicSpec(_pair(), (Composition((1, 1)), Composition((1,)))),
    WeylElement: lambda: WeylElement(GroupDatum(SP, 2), (-2, 1)),
    DoubleCosetResult: lambda: DoubleCosetResult(1, (WeylElement(GroupDatum(GL, 2), (1, 2)),)),
    Clan: lambda: Clan(("+", 1, 1), 2, 1),
    MatchedRow: _row,
    TripleFlagVerdict: lambda: TripleFlagVerdict(True, (_row(),), ((1, 1), (2,), (2,))),
    Witness: _witness,
    DoubleFlagVerdict: lambda: DoubleFlagVerdict(Status.FINITE_PROVEN, _witness()),
    SummaryRow: lambda: SummaryRow(PairKind.AIII, 1, "P or Q a Borel"),
    Partition: lambda: Partition((3, 1, 0)),
    LRDecomposition: lambda: LRDecomposition(((Partition((2, 1)), 2),)),
    RestrictionProbeResult: lambda: RestrictionProbeResult(True, 3),
    TensorProbeResult: lambda: TensorProbeResult(False, 2, 2, (1, 2), Partition((2,))),
    OrbitCountReport: lambda: OrbitCountReport(((2, 3, 1), (3, 4, 1)), "Bounded"),
}


def _value_classes():
    """Every subclass of Value defined in a module of the package."""
    found = set()
    for info in pkgutil.iter_modules(dflag.__path__):
        module = importlib.import_module(f"dflag.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and issubclass(obj, Value) and obj is not Value:
                if obj.__module__ == module.__name__:
                    found.add(obj)
    return found


def _fields(value):
    return tuple(getattr(value, name) for name in type(value)._fields)


def _twin(cls):
    """A Value class with the name and fields of cls, and nothing else."""

    def __init__(self, *values):
        for name, value in zip(cls._fields, values):
            object.__setattr__(self, name, value)

    attrs = {"__slots__": cls._fields, "__init__": __init__, "__qualname__": cls.__qualname__}
    return type(cls.__name__, (Value,), attrs)


def test_every_value_class_has_an_example():
    assert _value_classes() == set(EXAMPLES)
    assert len(EXAMPLES) == 20


CLASSES = pytest.mark.parametrize("cls", list(EXAMPLES), ids=lambda cls: cls.__name__)


@CLASSES
def test_the_repr_names_the_fields(cls):
    value = EXAMPLES[cls]()
    body = ", ".join(f"{name}={getattr(value, name)!r}" for name in cls._fields)
    assert repr(value) == f"{cls.__qualname__}({body})"
    if cls is not SymmetricPairSpec:
        assert cls._fields == cls.__slots__


@CLASSES
def test_equal_fields_give_equal_values_and_hashes(cls):
    a, b = EXAMPLES[cls](), EXAMPLES[cls]()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(_fields(a))
    assert len({a, b}) == 1


@CLASSES
def test_no_value_equals_one_of_another_class(cls):
    value = EXAMPLES[cls]()
    twin = _twin(cls)(*_fields(value))
    assert repr(twin) == repr(value) and hash(twin) == hash(value)
    assert value != twin and twin != value
    assert value.__eq__(twin) is NotImplemented
    assert value != _fields(value)


def test_a_composition_is_not_a_partition():
    composition, partition = Composition((2, 1)), Partition((2, 1))
    assert composition.parts == partition.parts
    assert composition != partition
    assert len({composition, partition}) == 2


@CLASSES
def test_fields_cannot_be_assigned_or_deleted(cls):
    value = EXAMPLES[cls]()
    before = _fields(value)
    for name in cls.__slots__:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert _fields(value) == before


@CLASSES
def test_copies_and_pickles_are_equal(cls):
    value = EXAMPLES[cls]()
    for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(other) is cls and other == value and repr(other) == repr(value)


def test_k_factors_take_no_part_in_eq_hash_or_repr():
    pair, other = _pair(), _pair()
    assert pair.k_factors and "k_factors" not in repr(pair)
    object.__setattr__(other, "k_factors", ())
    assert other == pair and hash(other) == hash(pair) and repr(other) == repr(pair)
    assert pickle.loads(pickle.dumps(pair)).k_factors == pair.k_factors


# each check of a value's constructor, with its message
INVALID = [
    (lambda: Composition(()), "invalid composition ()"),
    (lambda: Composition((2, 0)), "invalid composition (2, 0)"),
    (lambda: SymplecticComposition((0,), 2), "invalid left parts (0,)"),
    (lambda: SymplecticComposition((1,), 3), "middle part must be even and >= 0, got 3"),
    (lambda: SymplecticComposition((), 0), "empty symplectic composition"),
    (lambda: GroupDatum(GL, 0), "rank must be >= 1, got 0"),
    (lambda: ParabolicSpec(GroupDatum(GL, 2), SymplecticComposition((1,), 0)),
     "GL parabolics take a Composition"),
    (lambda: ParabolicSpec(GroupDatum(SP, 1), Composition((2,))),
     "Sp parabolics take a SymplecticComposition"),
    (lambda: ParabolicSpec(GroupDatum(GL, 3), Composition((2,))),
     "shape size 2 != module dimension 3"),
    (lambda: SymmetricPairSpec(PairKind.AI, GroupDatum(SP, 2)), "AI needs a general linear group"),
    (lambda: SymmetricPairSpec(PairKind.CI, GroupDatum(GL, 2)), "CI needs a symplectic group"),
    (lambda: SymmetricPairSpec(PairKind.AII, GroupDatum(GL, 3)), "AII needs even ambient rank"),
    (lambda: SymmetricPairSpec(PairKind.AIII, GroupDatum(GL, 3), 1, 1),
     "AIII needs p, q >= 1 with p + q = 3"),
    (lambda: SymmetricPairSpec(PairKind.CI, GroupDatum(SP, 2), 1, 1), "CI takes no (p, q) datum"),
    (lambda: KParabolicSpec(_pair(), (Composition((2,)),)), "AIII needs 2 factor shape(s)"),
    (lambda: KParabolicSpec(_pair(), (Composition((2,)), SymplecticComposition((), 2))),
     "AIII factor needs Composition"),
    (lambda: KParabolicSpec(_pair(), (Composition((1,)), Composition((1,)))),
     "AIII factor size 1, expected 2"),
    (lambda: KParabolicSpec(SymmetricPairSpec(PairKind.AI, GroupDatum(GL, 3)), (Composition((2, 1)),)),
     "AI flag shapes must be palindromic"),
    (lambda: WeylElement(GroupDatum(GL, 2), (1, 1)), "not a one-line notation for rank 2: (1, 1)"),
    (lambda: WeylElement(GroupDatum(GL, 2), (-1, 2)), "sign data is only allowed in type C"),
    (lambda: Clan(("+",), 1, 1), "clan length must be p + q"),
    (lambda: Clan(("+", "+"), 1, 1), "signature mismatch: (#+) - (#-) != p - q"),
    (lambda: Clan((1, 1, 1, 1), 2, 2), "every pair label must occur exactly twice"),
    (lambda: Clan((2, 2), 1, 1), "pair labels not canonical: (2, 2)"),
    (lambda: TripleFlagVerdict(True, (), ((1,), (1,), (1,))),
     "finite must hold exactly when some row matches"),
    (lambda: DoubleFlagVerdict(Status.UNKNOWN, _witness()),
     "proven verdicts carry a witness; Unknown never does"),
    (lambda: DoubleFlagVerdict(Status.FINITE_PROVEN, None),
     "proven verdicts carry a witness; Unknown never does"),
    (lambda: Partition((1, 2)), "not weakly decreasing: (1, 2)"),
    (lambda: Partition((2, -1)), "negative part in (2, -1)"),
    (lambda: LRDecomposition(((Partition((1,)), 0),)), "multiplicities must be positive"),
]


@pytest.mark.parametrize("build, message", INVALID, ids=[m for _, m in INVALID])
def test_each_check_keeps_its_message(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is ValueError and str(info.value) == message


def _imports_of(tree: ast.AST, module: str) -> list[int]:
    """Lines that import module, in any spelling."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == module for name in names):
            lines.append(node.lineno)
    return lines


def test_no_module_imports_dataclasses():
    # they would bring inspect, ast and dis into every dflag process
    modules = sorted((SRC / "dflag").glob("*.py"))
    assert len(modules) > 10
    for path in modules:
        lines = _imports_of(ast.parse(path.read_text()), "dataclasses")
        assert lines == [], f"{path.name} imports dataclasses at lines {lines}"
    # the check itself sees each spelling
    for source in ("import dataclasses", "from dataclasses import dataclass, field"):
        assert _imports_of(ast.parse(source), "dataclasses") == [1], source
    assert _imports_of(ast.parse("from . import dataclasses_like"), "dataclasses") == []


def test_importing_the_cli_loads_no_code_generator():
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import dflag.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
