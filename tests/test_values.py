"""Value semantics of the twelve immutable record types.

Each type is built from its constructor arguments, cannot be changed after
construction, compares and hashes by its fields, never equals an instance
of another class, and has a Name(field=value, ...) repr.  Private slots,
such as Ledger's memo, a LedgerNode's leaf value or a FactoredInteger's kept
int, are outside that contract.  Every type stores its slots through the
one `_fill` that Value generates for it, and no library module stores a
slot any other way.
"""

from __future__ import annotations

import ast
import copy
import itertools
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import glbounds
from glbounds.bounds import (
    GroupFamily, pgl2_admissible, schur_bound, schur_exponent, serre_exponent,
)
from glbounds.cyclotomic import (
    Conductor,
    CycloInvariants,
    DegreeOnly,
    ExactCyclotomic,
    contains_root_of_unity,
)
from glbounds.diophantine import EquationSolution, SolutionConstraints
from glbounds.exactnum import DomainError, FactoredInteger, Value, factorial_valuation
from glbounds.ledger import Ledger, LedgerNode, VerificationReport, VerificationRow

EIGHT = FactoredInteger(((2, 3),))
NINE = FactoredInteger(((3, 2),))
NODE = LedgerNode("a", "Constant", {}, (), EIGHT, "cite")

# name -> (class, positional args, the same as keywords, another value's args)
CASES = {
    "FactoredInteger": (
        FactoredInteger, (((2, 3),),), {"factors": ((2, 3),)}, (((3, 2),),)),
    "Conductor": (Conductor, (12,), {"value": 12}, (15,)),
    "ExactCyclotomic": (
        ExactCyclotomic, (Conductor(5),), {"conductor": Conductor(5)}, (Conductor(7),)),
    "DegreeOnly": (
        DegreeOnly, (4, "yes", "no"),
        {"degree": 4, "minus1_sum_of_two_squares": "yes", "contains_sqrt5": "no"},
        (4, "yes", "unknown")),
    "CycloInvariants": (
        CycloInvariants, (3, 1, 2, 2, False),
        {"p": 3, "t_p": 1, "m_p": 2, "e_p": 2, "xi4_in_k": False},
        (3, 1, 2, 2, True)),
    "GroupFamily": (GroupFamily, ("dihedral", 6), {"kind": "dihedral", "m": 6}, ("cyclic", 6)),
    "EquationSolution": (EquationSolution, (1, 2, 3), {"m": 1, "e": 2, "t": 3}, (1, 3, 2)),
    "SolutionConstraints": (
        SolutionConstraints, (2, 4, ("e even",)),
        {"e_min": 2, "t_max": 4, "extra": ("e even",)}, (2, None, ("e even",))),
    "LedgerNode": (
        LedgerNode, ("a", "Constant", {}, (), EIGHT, "cite", "8", "n"),
        {"id": "a", "kind": "Constant", "args": {}, "children": (), "declared": EIGHT,
         "citation": "cite", "paper_prints": "8", "note": "n"},
        ("a", "Constant", {}, (), NINE, "cite", "8", "n")),
    "Ledger": (
        Ledger, (1, "a", (), {"a": NODE}),
        {"schema_version": 1, "root": "a", "whitelist": (), "nodes": {"a": NODE}},
        (1, None, (), {"a": NODE})),
    "VerificationRow": (
        VerificationRow, ("a", EIGHT, NINE, "Mismatch", "note"),
        {"id": "a", "declared": EIGHT, "computed": NINE, "status": "Mismatch",
         "annotation": "note"},
        ("a", EIGHT, EIGHT, "Match", "note")),
    "VerificationReport": (
        VerificationReport, ((),), {"rows": ()},
        ((VerificationRow("a", EIGHT, EIGHT, "Match"),),)),
}

UNHASHABLE = {"LedgerNode", "Ledger"}  # they hold dicts
LIBRARY = ("exactnum", "cyclotomic", "bounds", "diophantine", "ledger")
# slots that are no constructor argument, by class
PRIVATE_SLOTS = {
    "FactoredInteger": ("_int",),
    "LedgerNode": ("_parsed", "_source", "_text", "_leaf", "__weakref__"),
    "Ledger": ("node_values", "_parents"),
    "SolutionConstraints": ("_preds",),
}


def _fields(name):
    return list(CASES[name][2])


@pytest.mark.parametrize("name", sorted(CASES))
def test_positional_and_keyword_construction_agree(name):
    cls, args, kwargs, _ = CASES[name]
    by_position, by_keyword = cls(*args), cls(**kwargs)
    assert by_position == by_keyword
    for field, value in kwargs.items():
        assert getattr(by_position, field) == value


def _value_classes():
    found, todo = [], list(Value.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.__module__ in ["glbounds." + name for name in LIBRARY]:
            found.append(cls)
    return found


def test_every_library_value_class_is_a_case():
    classes = _value_classes()
    assert sorted([cls.__qualname__ for cls in classes]) == sorted(CASES)
    assert all(CASES[cls.__qualname__][0] is cls for cls in classes)


@pytest.mark.parametrize("name", sorted(CASES))
def test_fill_stores_its_arguments_into_the_slots_in_order(name):
    cls = CASES[name][0]
    assert cls.__slots__ == cls._fields + PRIVATE_SLOTS.get(name, ())
    value = object.__new__(cls)
    slots = [slot for slot in cls.__slots__ if slot != "__weakref__"]  # Python keeps that one
    marks = [object() for _ in slots]
    cls._fill(value, *marks)
    assert all([getattr(value, slot) is mark for slot, mark in zip(slots, marks)])
    assert cls._fill.__qualname__ == name + ".__init__"
    assert cls._fill.__module__ == cls.__module__


def test_fill_is_the_init_of_a_class_with_no_checks_and_no_private_slots():
    plain = {name for name, (cls, *_) in CASES.items() if cls.__init__ is cls._fill}
    assert plain == {"CycloInvariants", "EquationSolution", "GroupFamily", "VerificationReport",
                     "VerificationRow"}
    for name in plain:
        cls, args = CASES[name][:2]
        with pytest.raises(TypeError) as info:
            cls(*args[:len(args) - len(cls._defaults) - 1])
        assert str(info.value).startswith(name + ".__init__() missing 1 required positional")


def test_a_fill_takes_its_classs_defaults_for_the_last_fields():
    assert GroupFamily._defaults == (0,) and VerificationRow._defaults == (None,)
    assert GroupFamily("A4") == GroupFamily("A4", 0) == GroupFamily(kind="A4")
    assert GroupFamily("A4").m == 0
    row = VerificationRow("a", EIGHT, EIGHT, "Match")
    assert row == VerificationRow("a", EIGHT, EIGHT, "Match", None)
    assert row.annotation is None
    assert pickle.loads(pickle.dumps(row)) == row and copy.copy(row) == row
    assert [cls.__name__ for cls in _value_classes()
            if cls._defaults and cls.__slots__ != cls._fields] == []


def test_a_subclass_without_slots_keeps_its_bases_fill():
    class Shadow(EquationSolution):
        pass

    assert Shadow._fill is EquationSolution._fill
    assert (Shadow(1, 2, 3).m, Shadow(1, 2, 3).t) == (1, 3)


def test_import_generates_only_the_fills_of_the_values_it_builds():
    # ONE and QQ are built at import; every other class gets its _fill on
    # its first build, so importing the package compiles no other filler.
    code = ("import glbounds.cli\n"
            "from glbounds.exactnum import Value\n"
            "todo, built = Value.__subclasses__(), []\n"
            "while todo:\n"
            "    cls = todo.pop()\n"
            "    todo += cls.__subclasses__()\n"
            "    built += [cls.__name__] if '_fill' in cls.__dict__ else []\n"
            "print(sorted(built))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "['Conductor', 'ExactCyclotomic', 'FactoredInteger']\n"


# The one named setter of each slot a value fills lazily, once it is built:
# FactoredInteger's `_int` and LedgerNode's `_text` and `_leaf`.
LAZY_SETTERS = ("_set_int", "_set_text", "_set_leaf")


def _slot_stores(source: str) -> list[tuple[int, str]]:
    """(line, name) for each object.__setattr__ and each __set__ read outside
    class Value and the bindings of LAZY_SETTERS."""
    found = []

    def visit(node, allowed):
        if isinstance(node, ast.ClassDef) and node.name == "Value":
            allowed = True
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 and getattr(
                node.targets[0], "id", None) in LAZY_SETTERS:
            allowed = True
        elif isinstance(node, ast.Attribute):
            if (node.attr == "__setattr__" and isinstance(node.value, ast.Name)
                    and node.value.id == "object"):
                found.append((node.lineno, "object.__setattr__"))
            elif node.attr == "__set__" and not allowed:
                found.append((node.lineno, "__set__"))
        for child in ast.iter_child_nodes(node):
            visit(child, allowed)

    visit(ast.parse(source), False)
    return found


def test_the_slot_store_scan_finds_both_idioms():
    source = ("class Row:\n"
              "    def __init__(self, a):\n"
              "        object.__setattr__(self, 'a', a)\n"
              "_set_a = Row.__dict__['a'].__set__\n"
              "_set_int = Row.__dict__['a'].__set__\n"
              "_set_text = Row.a.__set__\n"
              "_set_int = _set_text = Row.a.__set__\n")
    assert _slot_stores(source) == [(3, "object.__setattr__"), (4, "__set__"), (7, "__set__")]


def test_library_stores_slots_only_through_fill():
    package = Path(glbounds.__file__).parent
    found = {path.name: _slot_stores(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    assert {name: stores for name, stores in found.items() if stores} == {}
    assert {"exactnum.py", "ledger.py"} <= set(found)
    # Each lazily kept slot has exactly one named setter, bound once.
    bound = [target.id for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assign) for target in node.targets
             if getattr(target, "id", None) in LAZY_SETTERS]
    assert sorted(bound) == sorted(LAZY_SETTERS)


def test_constructor_defaults():
    assert GroupFamily("A4").m == 0
    flags = DegreeOnly(3)
    assert (flags.minus1_sum_of_two_squares, flags.contains_sqrt5) == ("unknown", "unknown")
    c = SolutionConstraints()
    assert (c.e_min, c.t_max, c.extra) == (1, None, ())
    n = LedgerNode("a", "Constant", {}, (), EIGHT, "cite")
    assert (n.paper_prints, n.note) == (None, None)
    assert VerificationRow("a", EIGHT, EIGHT, "Match").annotation is None


@pytest.mark.parametrize("name", sorted(CASES))
def test_constructor_rejects_unknown_and_missing_arguments(name):
    cls, args, kwargs, _ = CASES[name]
    with pytest.raises(TypeError):
        cls(*args, bogus=1)
    if cls is not SolutionConstraints:  # its every argument has a default
        with pytest.raises(TypeError):
            cls()
    with pytest.raises(TypeError):
        cls(*args, *args)


def test_validation_messages():
    cases = [
        (lambda: FactoredInteger(((4, 1),)), "base 4 is not prime"),
        (lambda: FactoredInteger(((2, 0),)), "exponent for 2 must be >= 1, got 0"),
        (lambda: FactoredInteger(((3, 1), (2, 1))),
         "factors must be strictly increasing by prime"),
        (lambda: Conductor(6), "6 is not a canonical conductor"),
        (lambda: DegreeOnly(0), "degree must be >= 1, got 0"),
        (lambda: DegreeOnly(2, contains_sqrt5="maybe"), "flag must be yes/no/unknown, got 'maybe'"),
        (lambda: SolutionConstraints(e_min=0), "e_min must be >= 1, got 0"),
        (lambda: SolutionConstraints(t_max=0), "t_max must be >= 1, got 0"),
        # the three shapes every plain int or prime argument is refused in
        (lambda: contains_root_of_unity(Conductor(5), 2.0), "k must be an int, got 2.0"),
        (lambda: factorial_valuation(2, -1), "k must be >= 0, got -1"),
        (lambda: schur_exponent(3, 4, CycloInvariants(4, 1, 1, 1, False)), "4 is not prime"),
        # each invariant is refused under its own name (t_p once reached euler_phi as "n")
        (lambda: serre_exponent(3, 3, CycloInvariants(3, 1.5, 1, 1, False)),
         "t_p must be an int, got 1.5"),
        (lambda: schur_exponent(3, 3, CycloInvariants(3, 2, -1, 1, False)),
         "m_p must be >= 0, got -1"),
        (lambda: schur_exponent(3, 2, CycloInvariants(2, 1, 2, 1, 1)),
         "xi4_in_k must be a bool, got 1"),
    ]
    for build, message in cases:
        with pytest.raises(DomainError) as info:
            build()
        assert str(info.value) == message


# Field constructors take exact types: an int, not a bool, float or string,
# and a Conductor, not the int it holds.
_MISTYPED_FIELDS = {
    "schur-bound-of-an-int-conductor": (
        lambda: schur_bound(3, ExactCyclotomic(12)), "conductor must be a Conductor, got 12"),
    "degree-str": (lambda: DegreeOnly("x"), "degree must be an int, got 'x'"),
    "conductor-str": (lambda: Conductor("12"), "'12' is not a canonical conductor"),
    "degree-float": (lambda: DegreeOnly(2.5), "degree must be an int, got 2.5"),
    "conductor-bool": (lambda: Conductor(True), "True is not a canonical conductor"),
    "pgl2-of-a-float-degree": (
        lambda: pgl2_admissible(DegreeOnly(2.5)), "degree must be an int, got 2.5"),
}


@pytest.mark.parametrize("case", sorted(_MISTYPED_FIELDS))
def test_field_constructors_refuse_mistyped_values(case):
    build, message = _MISTYPED_FIELDS[case]
    with pytest.raises(DomainError) as info:
        build()
    assert type(info.value) is DomainError and str(info.value) == message


@pytest.mark.parametrize("name", sorted(CASES))
def test_fields_cannot_be_assigned_or_deleted(name):
    cls, args, kwargs, _ = CASES[name]
    value = cls(*args)
    for field in _fields(name) + ["not_a_field"]:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value == cls(**kwargs)


@pytest.mark.parametrize("name", sorted(CASES))
def test_equality_is_by_fields(name):
    cls, args, _, other = CASES[name]
    assert cls(*args) == cls(*args)
    assert not cls(*args) != cls(*args)
    assert cls(*args) != cls(*other)
    assert not cls(*args) == cls(*other)


def test_never_equal_across_classes():
    values = {name: cls(*args) for name, (cls, args, _, _) in CASES.items()}
    for a, b in itertools.permutations(values, 2):
        assert values[a] != values[b], (a, b)
    assert EquationSolution(1, 2, 3) != (1, 2, 3)
    assert Conductor(5) != 5
    assert FactoredInteger(()) != ()

    class Shadow(EquationSolution):
        pass

    assert Shadow(1, 2, 3) != EquationSolution(1, 2, 3)
    assert EquationSolution(1, 2, 3) != Shadow(1, 2, 3)


@pytest.mark.parametrize("name", sorted(CASES))
def test_pickle_and_copy_rebuild_an_equal_value(name):
    cls, args, _, _ = CASES[name]
    value = cls(*args)
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls
        assert twin == value


@pytest.mark.parametrize("name", sorted(set(CASES) - UNHASHABLE))
def test_hash_is_by_fields(name):
    cls, args, _, other = CASES[name]
    assert hash(cls(*args)) == hash(cls(*args))
    assert len({cls(*args), cls(*args), cls(*other)}) == 2


@pytest.mark.parametrize("name", sorted(UNHASHABLE))
def test_values_holding_dicts_are_unhashable(name):
    cls, args, _, _ = CASES[name]
    with pytest.raises(TypeError):
        hash(cls(*args))


def test_reprs():
    assert repr(EIGHT) == "FactoredInteger(factors=((2, 3),))"
    assert repr(FactoredInteger(())) == "FactoredInteger(factors=())"
    assert repr(CycloInvariants(3, 1, 2, 2, False)) == (
        "CycloInvariants(p=3, t_p=1, m_p=2, e_p=2, xi4_in_k=False)")
    assert repr(ExactCyclotomic(Conductor(5))) == (
        "ExactCyclotomic(conductor=Conductor(value=5))")
    assert repr(GroupFamily("A5")) == "GroupFamily(kind='A5', m=0)"
    assert repr(SolutionConstraints()) == "SolutionConstraints(e_min=1, t_max=None, extra=())"
    # a ledger's nodes and a node's args are read-only views
    assert repr(Ledger(1, None, (), {})) == (
        "Ledger(schema_version=1, root=None, whitelist=(), nodes=mappingproxy({}))")
    assert repr(NODE) == (
        "LedgerNode(id='a', kind='Constant', args=mappingproxy({}), children=(), "
        "declared=FactoredInteger(factors=((2, 3),)), citation='cite', paper_prints=None, "
        "note=None)")


def test_leaf_memo_is_per_instance_and_outside_the_contract():
    a, b = Ledger(1, None, (), {}), Ledger(1, None, (), {})
    assert a.node_values == {} and a.node_values is not b.node_values
    a.node_values["x"] = EIGHT
    assert a == b
    assert "node_values" not in repr(a)
    with pytest.raises(TypeError):
        Ledger(1, None, (), {}, {})
    with pytest.raises(TypeError):
        Ledger(1, None, (), {}, node_values={})
    with pytest.raises(TypeError):
        Ledger(1, None, (), {}, order=())
    with pytest.raises(AttributeError):
        a.node_values = {}


def test_a_kept_int_is_outside_the_contract():
    kept, fresh = FactoredInteger(((2, 3), (3, 1))), FactoredInteger(((2, 3), (3, 1)))
    assert str(kept) == "24" and kept._int == 24 and fresh._int is None
    assert kept == fresh and hash(kept) == hash(fresh)
    assert repr(kept) == repr(fresh) == "FactoredInteger(factors=((2, 3), (3, 1)))"
    for twin in (pickle.loads(pickle.dumps(kept)), copy.copy(kept), copy.deepcopy(kept)):
        assert twin == kept and twin._int is None
    assert pickle.dumps(kept) == pickle.dumps(fresh)
    with pytest.raises(TypeError):
        FactoredInteger(((2, 3),), 8)
    with pytest.raises(AttributeError):
        kept._int = 25


def test_importing_the_cli_loads_no_dataclasses_inspect_typing_or_decimal():
    # -S keeps site-packages' start-up hooks from importing any of them first.
    code = ("import sys, glbounds.cli; print(sorted("
            "{'dataclasses', 'inspect', 'typing', 'decimal'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "[]\n"
