from __future__ import annotations

import copy
import gc
import json
import math
import pickle
import sys
import threading
import time
import weakref
from collections import OrderedDict
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glbounds.exactnum import DomainError, FactoredInteger, ONE, fi_to_decimal
from glbounds.ledger import (
    KINDS,
    BadDeclaredValue,
    CycleError,
    DanglingChild,
    Ledger,
    LedgerError,
    LedgerNode,
    ScaleNotExact,
    SchemaError,
    dumps_ledger,
    eval_node,
    explain,
    final_bound,
    load_ledger,
    paper_ledger,
    verify_ledger,
)

from conftest import diamond, to_document


def fi(n: int) -> FactoredInteger:
    return FactoredInteger.from_int(n)


def node(nid, kind, declared, *, args=None, children=None, **opt):
    value = FactoredInteger.from_map({int(p): e for p, e in declared.items()})
    out = {
        "id": nid,
        "kind": kind,
        "args": args or {},
        "children": children or [],
        "declared": declared,
        "decimal": fi_to_decimal(value, group=True),
        "citation": "crafted for tests",
    }
    out.update(opt)
    return out


def doc(*nodes, root=None, whitelist=()):
    out = {"schema_version": 1, "whitelist": list(whitelist), "nodes": list(nodes)}
    if root is not None:
        out["root"] = root
    return out


# ----------------------------------------------------------------- loading

def test_load_accepts_dict_string_and_path(tmp_path):
    d = doc(node("c", "Constant", {"2": 3}), root="c")
    by_dict = load_ledger(d)
    by_string = load_ledger(json.dumps(d))
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    by_path = load_ledger(path)
    for ledger in (by_dict, by_string, by_path):
        assert ledger.root == "c"
        assert ledger.nodes["c"].declared == fi(8)
    with pytest.raises(SchemaError):
        load_ledger(42)


def test_the_source_type_alone_decides_how_it_is_read(tmp_path, monkeypatch):
    # A path is read whatever its first character; a str is JSON text even
    # when it names a file.
    text = json.dumps(doc(node("c", "Constant", {"2": 3}), root="c"))
    path = tmp_path / "[draft] ledger.json"
    path.write_text(text, encoding="utf-8")
    assert load_ledger(path) == load_ledger(text)
    monkeypatch.chdir(tmp_path)
    for name, column in ((str(path), 1), (path.name, 2)):
        with pytest.raises(SchemaError) as info:
            load_ledger(name)
        assert str(info.value) == (
            "ledger is not valid JSON: Expecting value: line 1 column %d (char %d)"
            % (column, column - 1))


def test_schema_rejections():
    good = node("c", "Constant", {})
    with pytest.raises(SchemaError):
        load_ledger({"schema_version": 2, "whitelist": [], "nodes": [good]})
    with pytest.raises(SchemaError):
        load_ledger({"schema_version": 1, "nodes": [good], "color": "red"})
    with pytest.raises(SchemaError):
        load_ledger({"schema_version": 1, "nodes": "not-a-list"})
    with pytest.raises(SchemaError):
        load_ledger(doc(good, dict(good)))  # duplicate id
    with pytest.raises(SchemaError):
        load_ledger(doc(node("x", "Banana", {})))
    with pytest.raises(SchemaError):
        load_ledger(doc(good, root="missing"))
    with pytest.raises(SchemaError):
        load_ledger(doc(good, whitelist=["missing"]))
    with pytest.raises(SchemaError):
        load_ledger(doc(good, whitelist=["c", "c"]))


def test_schema_rejects_bad_node_shapes():
    stray = node("c", "Constant", {})
    stray["surprise"] = 1
    with pytest.raises(SchemaError):
        load_ledger(doc(stray))
    short = node("c", "Constant", {})
    del short["citation"]
    with pytest.raises(SchemaError):
        load_ledger(doc(short))
    with pytest.raises(SchemaError):
        load_ledger(doc(node("", "Constant", {})))


def test_schema_checks_args_per_kind():
    with pytest.raises(SchemaError):
        load_ledger(doc(node("m", "Minkowski", {"2": 1}, args={})))
    with pytest.raises(SchemaError):
        load_ledger(doc(node("m", "Minkowski", {"2": 1}, args={"n": 0})))
    with pytest.raises(SchemaError):
        load_ledger(doc(node("m", "Minkowski", {"2": 1}, args={"n": 1, "d": 2})))
    with pytest.raises(SchemaError):
        load_ledger(doc(node("e", "EquationCase", {}, args={"p": 2, "n": 3, "d": 4})))
    with pytest.raises(SchemaError):
        load_ledger(doc(node("e", "EquationCase", {},
                             args={"p": 3, "n": 3, "d": 4, "constraints": "e = 2"})))
    with pytest.raises(SchemaError):
        load_ledger(doc(node("p", "Pgl2", {}, args={"degree": 2, "contains_sqrt5": "maybe"})))


def test_children_arity_by_kind():
    with pytest.raises(SchemaError):
        load_ledger(doc(
            node("a", "Constant", {}),
            node("b", "Constant", {}, children=["a"]),
        ))
    with pytest.raises(SchemaError):
        load_ledger(doc(node("m", "Max", {})))


# One minimal node per kind: exactly its required args, the children an
# inner kind combines (the Constants six = 2 * 3 and ten = 2 * 5), and its
# value: M(4) = 5760, the rough row n = 3, d = 1, Serre's bound for n = 3
# over Q, S4 in PGL2 when nothing rules it out, the GL2 maximum at degree 6,
# and 3^7 from the standard equation for p = 3, n = 3, d = 12.
_MINIMAL = {
    "Constant": ({}, [], 8),  # its declared value
    "Minkowski": ({"n": 4}, [], 5760),
    "SchurRough": ({"n": 3, "d": 1}, [], 288),
    "SerreQ": ({"n": 3}, [], 10080),
    "Pgl2": ({"degree": 1}, [], 24),
    "Gl2": ({"degree": 6}, [], 1512),
    "EquationCase": ({"p": 3, "n": 3, "d": 12}, [], 3**7),
    "Product": ({}, ["six", "ten"], 60),
    "Max": ({}, ["six", "ten"], 10),
    "AppendixProp": ({"n": 3, "d_max": 2}, ["six", "ten"], 10),
    "ScaledProduct": ({"num": 1, "den": 2}, ["six", "ten"], 30),
}


def _one_of_kind(kind, args, children, value=1):
    declared = {str(p): e for p, e in fi(value).factors}
    return doc(node("six", "Constant", {"2": 1, "3": 1}),
               node("ten", "Constant", {"2": 1, "5": 1}),
               node("x", kind, declared, args=args, children=children), root="x")


def _load_error(document):
    with pytest.raises(SchemaError) as info:
        load_ledger(document)
    return str(info.value)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_each_kind_loads_evaluates_and_checks_its_args_and_arity(kind):
    args, children, value = _MINIMAL[kind]
    assert KINDS[kind].required == set(args)
    ledger = load_ledger(_one_of_kind(kind, args, children, value))
    assert final_bound(ledger) == fi(value)
    row = verify_ledger(ledger).rows[-1]
    assert (row.id, row.status) == ("x", "Unchecked" if kind == "Constant" else "Match")

    def args_message(keys):
        return "x: %s args must have %s, got %s" % (kind, sorted(args), sorted(keys))

    for key in args:
        fewer = {k: v for k, v in args.items() if k != key}
        assert _load_error(_one_of_kind(kind, fewer, children)) == args_message(fewer)
    more = dict(args, bogus=1)
    assert _load_error(_one_of_kind(kind, more, children)) == args_message(more)
    if KINDS[kind].leaf:
        assert _load_error(_one_of_kind(kind, args, ["six"])) == "x: %s takes no children" % kind
    else:
        assert _load_error(_one_of_kind(kind, args, [])) == "x: %s needs children" % kind


def test_declared_value_validation():
    def raw(declared, decimal):
        return {"id": "c", "kind": "Constant", "args": {}, "children": [],
                "declared": declared, "decimal": decimal, "citation": "crafted"}

    with pytest.raises(BadDeclaredValue):
        load_ledger(doc(raw({"4": 1}, "4")))
    with pytest.raises(BadDeclaredValue):
        load_ledger(doc(raw({"2": 0}, "1")))
    with pytest.raises(BadDeclaredValue):
        load_ledger(doc(raw({"two": 1}, "2")))
    with pytest.raises(BadDeclaredValue):
        load_ledger(doc(raw({"2": 2}, "5")))
    with pytest.raises(BadDeclaredValue):
        load_ledger(doc(raw({"2": 20}, "1048576")))  # grouping is part of the format
    # the digit limit counts only what follows the leading zeros
    padded = load_ledger(doc(raw({"0" * 20 + "43": 1, "02": 1}, "86")))
    assert padded.nodes["c"].declared == fi(86)


def test_dangling_child_and_cycle():
    with pytest.raises(DanglingChild):
        load_ledger(doc(node("m", "Max", {"2": 1}, children=["ghost"])))
    with pytest.raises(CycleError):
        load_ledger(doc(
            node("a", "Max", {"2": 1}, children=["b"]),
            node("b", "Max", {"2": 1}, children=["a"]),
        ))


def test_a_later_nodes_bad_args_are_reported_before_an_earlier_dangling_child():
    # Each node parses its args as it is built, before Ledger looks at any child.
    dangling = node("m", "Max", {"2": 1}, children=["ghost"])
    for args, message in (({"p": 9, "n": 3, "d": 4}, "e: EquationCase needs an odd prime p"),
                          ({"p": 3, "n": 3, "d": 4, "constraints": ["bogus"]},
                           "e: unknown constraint tag 'bogus'")):
        with pytest.raises(LedgerError) as info:
            load_ledger(doc(dangling, node("e", "EquationCase", {}, args=args)))
        assert type(info.value) is SchemaError and str(info.value) == message


def _first_back_edge(nodes):
    """Oracle: an iterative three-colour depth-first search from each node
    in document order, children left to right; the CycleError message of
    the first edge it meets into a node on its own path, or None."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {nid: WHITE for nid in nodes}
    for start in nodes:
        if color[start] != WHITE:
            continue
        stack = [(start, 0)]
        while stack:
            nid, i = stack.pop()
            if i == 0:
                color[nid] = GRAY
            kids = nodes[nid].children
            if i < len(kids):
                stack.append((nid, i + 1))
                kid = kids[i]
                if color[kid] == GRAY:
                    return "cycle through %r and %r" % (nid, kid)
                if color[kid] == WHITE:
                    stack.append((kid, 0))
            else:
                color[nid] = BLACK
    return None


@st.composite
def _digraphs(draw):
    """1 to 9 nodes, each with up to four children, self-loops and repeats
    allowed, in a shuffled document order.  Half the draws take node i's
    children only from the nodes created after it, so they are acyclic."""
    ids = ["n%d" % i for i in range(draw(st.integers(1, 9)))]
    acyclic = draw(st.booleans())
    children = {}
    for i, nid in enumerate(ids):
        pool = ids[i + 1:] if acyclic else ids
        children[nid] = draw(st.lists(st.sampled_from(pool), max_size=4)) if pool else []
    return draw(st.permutations(ids)), children


@settings(deadline=None, max_examples=300)
@given(_digraphs(), st.booleans())
def test_cycles_are_refused_as_a_depth_first_search_names_them(graph, loaded):
    order, children = graph
    nodes = {nid: LedgerNode(nid, "Max" if children[nid] else "Constant", {},
                             tuple(children[nid]), ONE, "crafted for tests") for nid in order}
    message = _first_back_edge(nodes)
    try:
        if loaded:
            ledger = load_ledger(doc(*[node(nid, nodes[nid].kind, {}, children=children[nid])
                                       for nid in order]))
        else:
            ledger = Ledger(1, None, (), nodes)
    except CycleError as exc:
        assert str(exc) == message
        return
    assert message is None
    parents = {nid: [] for nid in order}
    for nid in order:
        for kid in children[nid]:
            parents[kid].append(nid)
    assert ledger._parents == parents


# -------------------------------------------------------------- evaluation

def test_eval_combinators():
    ledger = load_ledger(doc(
        node("six", "Constant", {"2": 1, "3": 1}),
        node("ten", "Constant", {"2": 1, "5": 1}),
        node("prod", "Product", {"2": 2, "3": 1, "5": 1}, children=["six", "ten"]),
        node("best", "Max", {"2": 1, "5": 1}, children=["six", "ten"]),
        node("appx", "AppendixProp", {"2": 1, "5": 1},
             args={"n": 3, "d_max": 2}, children=["six", "ten"]),
        node("half", "ScaledProduct", {"2": 1, "3": 1, "5": 1},
             args={"num": 1, "den": 2}, children=["prod"]),
    ))
    assert eval_node(ledger, "prod") == fi(60)
    assert eval_node(ledger, "best") == fi(10)
    assert eval_node(ledger, "appx") == fi(10)
    assert eval_node(ledger, "half") == fi(30)
    with pytest.raises(LedgerError):
        eval_node(ledger, "nowhere")
    with pytest.raises(LedgerError) as info:  # an unhashable id is no node either
        eval_node(ledger, ["x"])
    assert str(info.value) == "no node ['x']"


def test_eval_recomputable_leaves():
    ledger = load_ledger(doc(
        node("mink", "Minkowski", {"2": 7, "3": 2, "5": 1}, args={"n": 4}),
        node("row", "SchurRough", {"2": 5, "3": 2}, args={"n": 3, "d": 1}),
        node("serre", "SerreQ", {"2": 5, "3": 2, "5": 1, "7": 1}, args={"n": 3}),
        node("pgl", "Pgl2", {"2": 2, "3": 1},
             args={"degree": 1, "minus1_sum_of_two_squares": "no"}),
        node("gl", "Gl2", {"2": 3, "3": 3, "7": 1}, args={"degree": 6}),
        node("eq", "EquationCase", {"3": 7}, args={"p": 3, "n": 3, "d": 12, "e_min": 2}),
        node("eq0", "EquationCase", {}, args={"p": 37, "n": 3, "d": 12,
                                              "constraints": ["e = 2"]}),
    ))
    assert eval_node(ledger, "mink") == fi(5760)
    assert eval_node(ledger, "row") == fi(288)
    assert eval_node(ledger, "serre") == fi(10080)
    assert eval_node(ledger, "pgl") == fi(12)
    assert eval_node(ledger, "gl") == fi(1512)
    assert eval_node(ledger, "eq") == FactoredInteger.from_map({3: 7})
    assert eval_node(ledger, "eq0") == ONE


def test_scaled_product_must_divide():
    ledger = load_ledger(doc(
        node("ten", "Constant", {"2": 1, "5": 1}),
        node("bad", "ScaledProduct", {"2": 1}, args={"num": 1, "den": 7},
             children=["ten"]),
    ))
    with pytest.raises(ScaleNotExact):
        eval_node(ledger, "bad")


def test_overrides():
    ledger = load_ledger(doc(
        node("a", "Constant", {"2": 2}),
        node("b", "Constant", {"3": 1}),
        node("best", "Max", {"2": 2}, children=["a", "b"]),
        root="best",
    ))
    assert final_bound(ledger) == fi(4)
    assert final_bound(ledger, {"a": 0}) == fi(3)
    assert final_bound(ledger, {"a": 100}) == fi(100)
    assert final_bound(ledger, {"a": fi(99)}) == fi(99)
    with pytest.raises(LedgerError):
        final_bound(ledger, {"ghost": 1})
    with pytest.raises(LedgerError):
        final_bound(ledger, {"a": True})
    with pytest.raises(LedgerError):
        final_bound(ledger, {"a": "12"})
    with pytest.raises(LedgerError) as info:
        final_bound(ledger, {"a": -1})
    assert str(info.value) == "override for 'a' must be >= 0, got -1"
    # prime factors must lie below 10^8, the domain of declared keys
    assert final_bound(ledger, {"a": 99999989 * 2}) == fi(99999989 * 2)
    for big in (100000007, 2 * 100000007, 3**40 * 100000037):
        with pytest.raises(LedgerError) as info:
            final_bound(ledger, {"a": big})
        assert str(info.value) == "override for 'a' has a prime factor of 10^8 or more"


def test_a_plain_int_override_builds_what_from_int_builds():
    # Overrides skip FactoredInteger's checks, so their factors must come out
    # sorted, with exponents >= 1, exactly as the checked constructor's.
    ledger = load_ledger(doc(node("a", "Constant", {"2": 2}), root="a"))
    values = (0, 1, 12 * 99999989, 2**40 * 3**2 * 99999971, 97**3 * 101**2 * 99991**2,
              99989 * 99991 * 7**5)
    for value in values:
        got = eval_node(ledger, "a", {"a": value})
        want = fi(value or 1)
        assert got == want and hash(got) == hash(want), value
        assert got.factors == want.factors, value


def test_final_bound_needs_root():
    ledger = load_ledger(doc(node("c", "Constant", {})))
    with pytest.raises(LedgerError):
        final_bound(ledger)


# Each public entry point refuses a ledger or overrides argument of the wrong
# type with a LedgerError naming the type; every one of these once raised a
# bare AttributeError.
_WRONG_TYPES = {
    "verify-a-str": (lambda led: verify_ledger("x"), "expected a Ledger, got str"),
    "final-a-str": (lambda led: final_bound("x"), "expected a Ledger, got str"),
    "dumps-a-str": (lambda led: dumps_ledger("x"), "expected a Ledger, got str"),
    "explain-none": (lambda led: explain(None, "g10"), "expected a Ledger, got NoneType"),
    "eval-a-node-map": (
        lambda led: eval_node(dict(led.nodes), "g10"), "expected a Ledger, got dict"),
    "final-override-list": (
        lambda led: final_bound(led, [("g10", 0)]), "overrides must be a mapping, got list"),
    "eval-override-str": (
        lambda led: eval_node(led, "g10", "g10"), "overrides must be a mapping, got str"),
    "final-override-set": (
        lambda led: final_bound(led, {"g10"}), "overrides must be a mapping, got set"),
    "final-override-empty-list": (
        lambda led: final_bound(led, []), "overrides must be a mapping, got list"),
}


@pytest.mark.parametrize("case", sorted(_WRONG_TYPES))
def test_entry_points_refuse_wrong_types_cleanly(ledger, case):
    call, message = _WRONG_TYPES[case]
    with pytest.raises(LedgerError) as info:
        call(ledger)
    assert str(info.value) == message


def test_overrides_may_be_any_mapping(ledger):
    want = final_bound(ledger, {"g10": 0})
    assert final_bound(ledger, MappingProxyType({"g10": 0})) == want
    assert eval_node(ledger, "g10", MappingProxyType({"g10": 7})) == fi(7)
    assert final_bound(ledger, MappingProxyType({})) == final_bound(ledger)


def test_verify_statuses_and_whitelist():
    ledger = load_ledger(doc(
        node("c", "Constant", {"2": 1}),
        node("ok", "Minkowski", {"2": 4, "3": 1}, args={"n": 3}),
        node("off", "Minkowski", {"2": 1}, args={"n": 3}),
        whitelist=["off"],
    ))
    report = verify_ledger(ledger)
    by_id = {r.id: r for r in report.rows}
    assert by_id["c"].status == "Unchecked"
    assert by_id["ok"].status == "Match"
    assert by_id["off"].status == "Mismatch"
    assert by_id["off"].computed == fi(48)
    assert [r.id for r in report.mismatches()] == ["off"]
    assert report.unexpected(ledger.whitelist) == []
    assert [r.id for r in report.unexpected([])] == ["off"]


def test_paper_prints_annotation():
    ledger = load_ledger(doc(
        node("quiet", "Constant", {"2": 2}, paper_prints="4"),
        node("loud", "Constant", {"2": 2}, paper_prints="5"),
    ))
    rows = {r.id: r for r in verify_ledger(ledger).rows}
    assert rows["quiet"].annotation is None
    assert rows["loud"].annotation == "source text prints 5"


def test_explain_renders_tree():
    ledger = load_ledger(doc(
        node("six", "Constant", {"2": 1, "3": 1}),
        node("double", "ScaledProduct", {"2": 2, "3": 1},
             args={"num": 2, "den": 1}, children=["six"]),
    ))
    text = explain(ledger, "double")
    lines = text.splitlines()
    assert lines[0] == "double [ScaledProduct] = 2^2 * 3 = 12  (crafted for tests)"
    assert lines[1] == "  six [Constant] = 2 * 3 = 6  (crafted for tests)"
    with pytest.raises(LedgerError):
        explain(ledger, "ghost")
    with pytest.raises(LedgerError) as info:
        explain(ledger, ["x"])
    assert str(info.value) == "no node ['x']"


def test_explain_evaluates_once(monkeypatch):
    import glbounds.ledger as ledger_mod

    ledger = paper_ledger()
    want = explain(ledger, "theorem-cr3")
    calls = []
    real = ledger_mod._eval

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(ledger_mod, "_eval", counting)
    fresh = paper_ledger()
    assert explain(fresh, "theorem-cr3") == want
    assert calls == [["theorem-cr3"]]


def test_round_trip_document():
    d = doc(
        node("six", "Constant", {"2": 1, "3": 1}, note="a note"),
        node("best", "Max", {"2": 1, "3": 1}, children=["six"],
             paper_prints="6"),
        root="best",
        whitelist=["six"],
    )
    ledger = load_ledger(d)
    again = to_document(ledger)
    assert again == d
    assert dumps_ledger(ledger) == dumps_ledger(load_ledger(again))


# Text for the writer: non-ASCII, quotes, backslashes, control characters
# and U+2028, besides whatever hypothesis draws but a lone surrogate, which
# no ledger holds (see the lone-surrogate cases of _LOADER_ERRORS).
_text = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'),
              st.characters(exclude_categories=("Cs",))),
    max_size=12,
)
# Declared values, as documents hold them and as values, rendered once.
_HUGE = {"2": 14999, "5": 14999, "3": 1}  # 3 * 10^14999
_WRITER_VALUES = [FactoredInteger.from_map({int(p): e for p, e in d.items()})
                  for d in ({}, {"2": 1}, {"3": 2, "5": 1}, {"2": 12, "7": 3}, _HUGE)]
_WRITER_DECLARED = [({str(p): e for p, e in v.factors}, fi_to_decimal(v, group=True))
                    for v in _WRITER_VALUES]
_writer_values = st.sampled_from(_WRITER_VALUES) | st.dictionaries(
    st.sampled_from((2, 3, 5, 97, 1000003, 99999989)), st.integers(1, 60), max_size=4,
).map(FactoredInteger.from_map)
# (kind, args) pairs the loader accepts, with constraint lists and tristates;
# an AppendixProp's d_max becomes the number of children drawn for it.
_LOADABLE_ARGS = (
    ("Constant", {}), ("Minkowski", {"n": 3}), ("Gl2", {"degree": 2}),
    ("Pgl2", {"degree": 4, "contains_sqrt5": "no", "minus1_sum_of_two_squares": "unknown"}),
    ("EquationCase", {"p": 7, "n": 3, "d": 12, "e_min": 2, "constraints": ["e even", "t >= 1"]}),
    ("EquationCase", {"p": 3, "n": 2, "d": 2, "constraints": []}),
    ("Product", {}), ("Max", {}), ("AppendixProp", {"n": 3, "d_max": 2}),
    ("ScaledProduct", {"num": 2, "den": 3}),
)


def _draw_graph(draw):
    """Ids, one (kind, args, children) per id, a root and a whitelist: zero
    to five nodes of the kinds and args the loader accepts, children drawn
    from the nodes before, ids from _text."""
    ids = draw(st.lists(_text.filter(bool), unique=True, max_size=5))
    shapes = []
    for i in range(len(ids)):
        kind, args = draw(st.sampled_from(
            [pair for pair in _LOADABLE_ARGS if i or KINDS[pair[0]].leaf]))
        children = [] if KINDS[kind].leaf else draw(
            st.lists(st.sampled_from(ids[:i]), min_size=1, max_size=3))
        if "d_max" in args:
            args = dict(args, d_max=len(children))
        shapes.append((kind, args, children))
    root = draw(st.none() | st.sampled_from(ids)) if ids else None
    whitelist = draw(st.lists(st.sampled_from(ids), unique=True, max_size=2)) if ids else []
    return ids, shapes, root, whitelist


@st.composite
def _loaded_ledgers(draw):
    """load_ledger of a document drawn by _draw_graph, text fields from _text."""
    ids, shapes, root, whitelist = _draw_graph(draw)
    nodes = []
    for nid, (kind, args, children) in zip(ids, shapes):
        declared, decimal = draw(st.sampled_from(_WRITER_DECLARED))
        nodes.append(draw(st.fixed_dictionaries(
            {"id": st.just(nid), "kind": st.just(kind), "args": st.just(args),
             "children": st.just(children), "declared": st.just(declared),
             "decimal": st.just(decimal), "citation": _text},
            optional={"paper_prints": _text, "note": _text})))
    return load_ledger(doc(*nodes, root=root, whitelist=whitelist))


@st.composite
def _hand_built_ledgers(draw):
    """The same graphs built directly through LedgerNode and Ledger, with
    any declared value and children and whitelist as tuples."""
    ids, shapes, root, whitelist = _draw_graph(draw)
    nodes = {nid: LedgerNode(nid, kind, args, tuple(children), draw(_writer_values),
                             draw(_text), draw(st.none() | _text), draw(st.none() | _text))
             for nid, (kind, args, children) in zip(ids, shapes)}
    return Ledger(1, root, tuple(whitelist), nodes)


@settings(deadline=None)
@given(st.one_of(_loaded_ledgers(), _hand_built_ledgers()))
@example(Ledger(1, None, (), {"c": LedgerNode(
    "c", "Constant", {}, (), _WRITER_VALUES[-1],
    "\u00e9 \"q\" \\ \x01\u2028")}))
@example(Ledger(1, None, (), {}))
def test_writer_matches_json_dumps_of_the_document(ledger):
    want = json.dumps(to_document(ledger), indent=2, ensure_ascii=False) + "\n"
    assert dumps_ledger(ledger) == want
    assert dumps_ledger(ledger) == want  # from the texts the first export kept
    assert load_ledger(want) == ledger


def test_bounded_leaves_past_the_invphi_limit_are_domain_errors():
    ledger = load_ledger(doc(
        node("serre", "SerreQ", {}, args={"n": 10**6 + 2}),
        node("pgl2", "Pgl2", {}, args={"degree": 500001}),
        node("gl2", "Gl2", {}, args={"degree": 10**6 + 1}),
    ))
    for nid, bound in (("serre", 10**6 + 1), ("pgl2", 10**6 + 2), ("gl2", 10**6 + 1)):
        with pytest.raises(DomainError, match=r"^bound must be <= 1000000, got %d$" % bound):
            eval_node(ledger, nid)


def test_overriding_a_cached_leaf_still_wins():
    ledger = load_ledger(doc(
        node("m3", "Minkowski", {"2": 4, "3": 1}, args={"n": 3}),
        node("two", "Constant", {"2": 1}),
        node("best", "Max", {"2": 4, "3": 1}, children=["m3", "two"]),
        root="best",
    ))
    assert final_bound(ledger) == fi(48)
    assert "m3" in ledger.node_values
    assert final_bound(ledger, {"m3": 5}) == fi(5)
    assert final_bound(ledger, {"m3": 0}) == fi(2)
    assert eval_node(ledger, "m3", {"m3": 7}) == fi(7)
    assert ledger.node_values["m3"] == fi(48)
    assert final_bound(ledger) == fi(48)


def test_a_failing_leaf_is_not_memoized(monkeypatch):
    import glbounds.ledger as ledger_mod

    ledger = load_ledger(doc(node("m", "Minkowski", {"2": 1}, args={"n": 1}), root="m"))

    def broken(n):
        raise ArithmeticError("transient")

    monkeypatch.setattr(ledger_mod, "minkowski_bound", broken)
    with pytest.raises(ArithmeticError):
        final_bound(ledger)
    assert ledger.node_values == {}
    monkeypatch.undo()
    assert final_bound(ledger) == fi(2)


def test_leaf_memo_is_not_part_of_equality():
    d = doc(node("m", "Minkowski", {"2": 1}, args={"n": 1}), root="m")
    warm, cold = load_ledger(d), load_ledger(d)
    final_bound(warm)
    final_bound(warm, {"m": 3})  # builds the parent lists
    assert warm == cold
    assert repr(warm) == repr(cold)
    assert "node_values" not in repr(warm)


def test_deep_chain_evaluates_without_recursion():
    depth = 3000
    # Root first, so no evaluation order finds the children already known.
    chain = [node("p%d" % i, "Product", {"2": 1}, children=["p%d" % (i - 1)])
             for i in range(depth, 0, -1)]
    ledger = load_ledger(doc(*chain, node("p0", "Constant", {"2": 1}),
                             root="p%d" % depth))
    assert final_bound(ledger) == fi(2)
    assert eval_node(ledger, "p1500") == fi(2)
    lines = explain(ledger, "p%d" % depth).splitlines()
    assert len(lines) == depth + 1
    assert lines[-1] == "  " * depth + "p0 [Constant] = 2 = 2  (crafted for tests)"
    rows = verify_ledger(ledger).rows
    assert [r.status for r in rows] == ["Match"] * depth + ["Unchecked"]


def test_explain_refuses_a_tree_past_its_budget():
    # 16 levels render 262 141 lines, 25.7 million characters, in about a
    # second; 14 levels render 5.9 million, inside the budget.
    ledger = load_ledger(diamond(16))
    assert len(explain(ledger, "t13").splitlines()) == 2**16 - 3
    with pytest.raises(LedgerError) as info:
        explain(ledger, "t15")
    assert str(info.value) == "t15: explain would render more than 10000000 characters"


def test_explain_refuses_a_value_past_its_budget_before_rendering_it():
    # big = 2^40000000 has 12 041 200 digits, a render of minutes; its bound
    # from the factors alone passes the budget.
    ledger = load_ledger(doc(node("c", "Constant", {"2": 20000}),
                             node("big", "Product", {}, children=["c"] * 2000)))
    start = time.perf_counter()
    with pytest.raises(LedgerError, match="^big: explain would render more than 10000000 "):
        explain(ledger, "big")
    assert time.perf_counter() - start < 1.0


def test_a_declared_value_past_the_digit_budget_is_refused_before_it_is_rendered():
    # 2^10000000 has 3 010 300 digits, whose rendering ran for minutes.
    import glbounds.ledger as ledger_mod

    text = json.dumps({"schema_version": 1, "root": "m", "nodes": [
        {"id": "m", "kind": "Constant", "args": {}, "children": [],
         "declared": {"2": 10000000}, "decimal": "1", "citation": "m"}]})
    cached = ledger_mod._rendered.cache_info().currsize
    start = time.perf_counter()
    with pytest.raises(BadDeclaredValue) as info:
        load_ledger(text)
    assert time.perf_counter() - start < 1.0
    assert str(info.value) == (
        "m: the value has up to 3010301 digits; at most 1000000 are printed")
    assert ledger_mod._rendered.cache_info().currsize == cached


def test_explain_refuses_a_value_past_the_digit_budget_before_rendering_it():
    # big = 3^5000000 has 2 385 607 digits, a render of about a minute; its
    # grouped decimal fits explain's character budget, not the digit budget.
    ledger = load_ledger(doc(node("c", "Constant", {"3": 5000}),
                             node("big", "Product", {}, children=["c"] * 1000)))
    start = time.perf_counter()
    with pytest.raises(DomainError) as info:
        explain(ledger, "big")
    assert time.perf_counter() - start < 1.0
    assert str(info.value) == "the value has up to 2385607 digits; at most 1000000 are printed"


def test_an_inexact_scale_of_a_value_past_the_digit_budget_is_scale_not_exact():
    # The quotient's refusal names the values factored, rendering neither.
    ledger = Ledger(1, "s", (), {
        "c": LedgerNode("c", "Constant", {}, (), FactoredInteger(((2, 10000000),)), "c"),
        "s": LedgerNode("s", "ScaledProduct", {"num": 1, "den": 3}, ("c",), ONE, "s")})
    start = time.perf_counter()
    with pytest.raises(ScaleNotExact, match="^s: 1/3 of the child product is not an integer$"):
        final_bound(ledger)
    assert time.perf_counter() - start < 1.0


def test_export_refuses_a_declared_value_past_the_digit_budget():
    # A ledger built directly, whose declared value no loader has rendered.
    ledger = Ledger(1, "m", (), {"m": LedgerNode(
        "m", "Constant", {}, (), FactoredInteger(((2, 10000000),)), "m")})
    start = time.perf_counter()
    with pytest.raises(DomainError) as info:
        dumps_ledger(ledger)
    assert time.perf_counter() - start < 1.0
    assert str(info.value) == "the value has up to 3010301 digits; at most 1000000 are printed"


def test_evaluation_reaches_only_what_it_needs_left_to_right():
    ledger = load_ledger(doc(
        node("ten", "Constant", {"2": 1, "5": 1}),
        node("bad", "ScaledProduct", {"2": 1}, args={"num": 1, "den": 3}, children=["ten"]),
        node("worse", "ScaledProduct", {"2": 1}, args={"num": 1, "den": 7}, children=["ten"]),
        node("good", "Product", {"2": 1, "5": 1}, children=["ten"]),
        node("both", "Product", {"2": 1}, children=["bad", "worse"]),
        root="good",
    ))
    assert final_bound(ledger) == fi(10)
    with pytest.raises(ScaleNotExact, match="^bad: "):
        eval_node(ledger, "both")
    with pytest.raises(ScaleNotExact, match="^worse: "):
        eval_node(ledger, "both", {"bad": 1})


def test_values_of_fifteen_thousand_digits_load_verify_and_round_trip():
    huge = {"2": 14999, "5": 14999, "3": 1}  # 3 * 10^14999
    d = doc(
        node("big", "Constant", huge),
        node("same", "Product", huge, children=["big"]),
        root="same",
    )
    assert len(d["nodes"][0]["decimal"].replace(" ", "")) == 15000
    ledger = load_ledger(d)
    assert [r.status for r in verify_ledger(ledger).rows] == ["Unchecked", "Match"]
    assert final_bound(ledger) == ledger.nodes["big"].declared
    assert to_document(ledger) == d
    text = dumps_ledger(ledger)
    assert dumps_ledger(load_ledger(text)) == text


# ------------------------------------------------------------ shipped data

def test_paper_ledger_shape(ledger):
    assert len(ledger.order) == 218
    assert ledger.root == "theorem-cr3"
    assert ledger.whitelist == ("lemma-degree-4-input", "gq-mfs-typo-note")
    assert ledger.order[-1] == "theorem-cr3"


def test_paper_ledger_verifies_with_known_exceptions(ledger):
    report = verify_ledger(ledger)
    counts = {"Match": 0, "Mismatch": 0, "Unchecked": 0}
    for row in report.rows:
        counts[row.status] += 1
    assert counts == {"Match": 167, "Unchecked": 49, "Mismatch": 2}
    assert {r.id for r in report.mismatches()} == set(ledger.whitelist)
    assert report.unexpected(ledger.whitelist) == []
    annotated = {r.id: r.annotation for r in report.rows if r.annotation}
    assert annotated == {"mfs-positive-dim": "source text prints 5148"}


def test_paper_ledger_root_value(ledger):
    root = final_bound(ledger)
    assert root == fi(24103053950976000)
    assert fi_to_decimal(root, group=True) == "24 103 053 950 976 000"
    assert final_bound(ledger, {"g10": 0}) == fi(735746457600)


def test_paper_ledger_serialization_is_stable(ledger):
    text = dumps_ledger(ledger)
    assert dumps_ledger(load_ledger(json.loads(text))) == text
    packaged = (
        __import__("importlib.resources", fromlist=["files"])
        .files("glbounds")
        .joinpath("data/paper_ledger.json")
        .read_text("utf-8")
    )
    assert text == packaged


def _count_calls(monkeypatch, owner, names):
    """Log the arguments of each call to owner's attributes names."""
    logs = {name: [] for name in names}

    def counting(log, real):
        def wrapper(*args, **kw):
            log.append(args or kw)
            return real(*args, **kw)
        return wrapper

    for name, log in logs.items():
        monkeypatch.setattr(owner, name, counting(log, getattr(owner, name)))
    return logs


def _clear_ledger_caches():
    import glbounds.ledger as ledger_mod

    for cached in (ledger_mod._constraints, ledger_mod._factor_small, ledger_mod._rendered):
        cached.cache_clear()
    ledger_mod._leaf_factors.clear()
    ledger_mod._live_nodes.clear()


def test_each_declared_value_is_rendered_once_per_load_and_per_export(monkeypatch):
    import glbounds.ledger as ledger_mod

    text = dumps_ledger(paper_ledger())
    document = json.loads(text)
    calls = _count_calls(monkeypatch, ledger_mod, ["fi_to_decimal"])["fi_to_decimal"]
    # The caches live for the process; earlier tests may have warmed them.
    _clear_ledger_caches()
    loaded = load_ledger(document)
    assert len(loaded.order) == 218
    # One rendering per distinct value, which its nodes share.
    values = {n.declared for n in loaded.nodes.values()}
    assert len(calls) == len(values) == len({id(v) for v in values}) == 99
    # A second load and an export of the same values render nothing new.
    again = load_ledger(document)
    assert again == loaded and dumps_ledger(again) == text
    assert len(calls) == 99


def _export_oracle(ledger):
    return json.dumps(to_document(ledger), indent=2, ensure_ascii=False) + "\n"


def _packaged_text():
    import glbounds.ledger as ledger_mod

    return (Path(ledger_mod.__file__).parent / "data" / "paper_ledger.json").read_text("utf-8")


def test_a_second_export_and_an_export_of_reused_nodes_match_the_oracle():
    _clear_ledger_caches()
    text = _packaged_text()
    ledger = load_ledger(text)
    assert all(node._text is None for node in ledger.nodes.values())
    want = _export_oracle(ledger)
    assert want == text
    assert dumps_ledger(ledger) == want and dumps_ledger(ledger) == want
    assert all(node._text is not None for node in ledger.nodes.values())
    # A load of the same text reuses every node, kept text and all.
    reused = load_ledger(text)
    assert all(reused.nodes[nid] is ledger.nodes[nid] for nid in ledger.order)
    assert dumps_ledger(reused) == _export_oracle(reused) == want


def test_two_live_ledgers_that_differ_in_one_node_each_export_their_own_text():
    _clear_ledger_caches()
    text = _packaged_text()
    document = json.loads(text)
    entry = next(e for e in document["nodes"] if e["id"] == "pgl2-q")
    entry["citation"] = "Théorème 1.2 – Serre"
    other_text = json.dumps(document, indent=2, ensure_ascii=False) + "\n"
    first, other = load_ledger(text), load_ledger(other_text)
    assert [nid for nid in first.order if other.nodes[nid] is not first.nodes[nid]] == ["pgl2-q"]
    for _ in range(2):  # each export, and each load, after one of the other text
        for ledger, want in ((first, text), (other, other_text), (load_ledger(text), text),
                             (load_ledger(other_text), other_text)):
            assert dumps_ledger(ledger) == _export_oracle(ledger) == want
    assert '"citation": "Théorème 1.2 – Serre"' in other.nodes["pgl2-q"]._text


def test_a_second_export_renders_no_node(monkeypatch):
    import glbounds.ledger as ledger_mod

    ledger = load_ledger(json.loads(_packaged_text()))  # a Mapping: nodes of its own
    calls = _count_calls(monkeypatch, ledger_mod, ["_node_text"])["_node_text"]
    text = dumps_ledger(ledger)
    assert len(calls) == 218
    assert dumps_ledger(ledger) == text and len(calls) == 218


def test_shared_node_args_are_parsed_once_per_load(monkeypatch):
    import glbounds.ledger as ledger_mod

    document = json.loads(dumps_ledger(paper_ledger()))
    logs = _count_calls(monkeypatch, ledger_mod, ["SolutionConstraints"])
    logs.update(_count_calls(monkeypatch, FactoredInteger, ["from_int"]))
    # The caches live for the process; earlier tests may have warmed them.
    _clear_ledger_caches()
    loaded = load_ledger(document)
    cases = [n for n in loaded.nodes.values() if n.kind == "EquationCase"]
    scaled = [n for n in loaded.nodes.values() if n.kind == "ScaledProduct"]
    assert len(cases) == 74 and len(scaled) == 18
    # One record per distinct (e_min, t_max as given, tags), shared by its nodes.
    assert len(logs["SolutionConstraints"]) == len({id(n._parsed) for n in cases}) == 10
    assert len({n._parsed for n in cases}) == 10
    # One factoring per distinct int the loader reads, which also answers
    # whether a declared key or a p is prime.
    keys = {p for n in loaded.nodes.values() for p, _ in n.declared.factors}
    scales = {n.args[name] for n in scaled for name in ("num", "den")}
    read = keys | {n.args["p"] for n in cases} | scales
    assert sorted(value for value, in logs["from_int"]) == sorted(read) and len(read) == 17
    assert len({id(f) for n in scaled for f in n._parsed}) == len(scales)
    assert all(type(n._parsed) is tuple and len(n._parsed) == 2 for n in scaled)
    # A second load of the same document parses nothing new.
    counts = {name: len(log) for name, log in logs.items()}
    again = load_ledger(document)
    assert again == loaded
    assert {name: len(log) for name, log in logs.items()} == counts
    assert final_bound(again) == fi(24103053950976000)
    # A plain-int override is factored once, however often the what-if runs.
    want = fi(735746457600)
    logs["from_int"].clear()
    for _ in range(3):
        assert final_bound(again, {"g10": 2592}) == want
    assert logs["from_int"] == [(2592,)]


def test_a_shared_constraint_set_still_checks_each_p():
    shared = {"n": 3, "d": 12, "constraints": ["e even"]}
    good = node("good", "EquationCase", {}, args=dict(shared, p=37))
    with pytest.raises(SchemaError) as info:
        load_ledger(doc(good, node("bad", "EquationCase", {}, args=dict(shared, p=39))))
    assert str(info.value) == "bad: EquationCase needs an odd prime p"
    half = {"num": 1, "den": 2}
    loaded = load_ledger(doc(
        node("two", "Constant", {"2": 1}),
        node("a", "ScaledProduct", {}, args=half, children=["two"]),
        node("b", "ScaledProduct", {}, args=dict(half), children=["two"])))
    a, b = loaded.nodes["a"]._parsed, loaded.nodes["b"]._parsed
    assert a == b and all(x is y for x, y in zip(a, b))
    assert eval_node(loaded, "b") == ONE


def test_a_repeated_value_with_a_wrong_decimal_is_still_refused():
    first = node("a", "Constant", {"2": 10, "3": 1})
    again = dict(node("b", "Constant", {"3": 1, "02": 10}), decimal="3072")
    with pytest.raises(BadDeclaredValue) as info:
        load_ledger(doc(first, again))
    assert str(info.value) == (
        "b: decimal '3072' does not match declared factorization (3 072)")


def test_a_repeated_decimal_in_another_spelling_loads_to_the_same_value():
    loaded = load_ledger(_repeat({"02": 10}))
    assert loaded.nodes["b"].declared == loaded.nodes["a"].declared == fi(1024)
    assert dumps_ledger(loaded).count('"2": 10') == 2


def _one(declared, decimal):
    return doc(dict(node("a", "Constant", {}), declared=declared, decimal=decimal))


def test_each_load_gives_its_own_value_or_error_whatever_was_loaded_before():
    # One decimal, three maps: each document gives its own value or error,
    # whatever was loaded before it.
    for _ in range(2):
        assert load_ledger(_one({"2": 10}, "1 024")).nodes["a"].declared == fi(1024)
        with pytest.raises(BadDeclaredValue) as info:
            load_ledger(_one({"2": 9}, "1 024"))
        assert str(info.value) == "a: decimal '1 024' does not match declared factorization (512)"
        assert load_ledger(_one({"02": 10}, "1 024")).nodes["a"].declared == fi(1024)
        with pytest.raises(BadDeclaredValue) as info:
            load_ledger(_one({"2": True}, "1 024"))
        assert str(info.value) == "a: declared exponent for 2 must be a positive integer"


def _load_outcome(source, kept):
    """What loading source gives: its declared factors, or its error.  A
    loaded ledger goes to kept, so its nodes stay alive for later loads."""
    try:
        ledger = load_ledger(source)
    except LedgerError as exc:
        return type(exc), str(exc)
    kept.append(ledger)
    return ledger.nodes["a"].declared.factors


one_node_documents = st.builds(
    _one,
    st.dictionaries(st.sampled_from(["2", "02"]), st.sampled_from([10, True, 10.0, 0, 1]),
                    max_size=2),
    st.sampled_from(["1 024", "1024", "2", "1"]))


@given(st.lists(one_node_documents, min_size=1, max_size=6))
@example([_one({"2": 1}, "2"), _one({"2": True}, "2")])
@example([_one({"2": 10}, "1 024"), _one({"2": 10.0}, "1 024"), _one({"02": 10}, "1 024")])
def test_a_load_gives_what_it_gives_with_every_cache_cleared_first(documents):
    # The oracle clears every ledger cache before each load; the loads under
    # test share whatever the loads before them left, twice over.  Each
    # document loads as a Mapping and as text, whose nodes the loader may
    # take from an earlier load.
    sources = [form for document in documents for form in (document, json.dumps(document))]
    fresh = []
    for source in sources:
        _clear_ledger_caches()
        fresh.append(_load_outcome(source, []))
    _clear_ledger_caches()
    kept = []
    assert [_load_outcome(source, kept) for source in sources * 2] == fresh * 2


def _packaged_document():
    return json.loads(dumps_ledger(paper_ledger()))


def test_the_live_node_map_pins_no_node():
    import glbounds.ledger as ledger_mod

    _clear_ledger_caches()
    text = dumps_ledger(paper_ledger())
    ledgers = [load_ledger(text) for _ in range(3)]
    # The first load builds and enters every node; the next two take them.
    assert len(ledger_mod._live_nodes) == 218
    assert all(type(ref) is weakref.ref for ref in ledger_mod._live_nodes.values())
    assert all(later.nodes[nid] is ledgers[0].nodes[nid]
               for later in ledgers[1:] for nid in ledgers[0].order)
    del ledgers
    gc.collect()
    assert [ref for ref in ledger_mod._live_nodes.values() if ref() is not None] == []
    # A load that fails after building its nodes leaves none alive either.
    document = _packaged_document()
    document["root"] = "missing"
    with pytest.raises(SchemaError):
        load_ledger(json.dumps(document))
    gc.collect()
    assert [ref for ref in ledger_mod._live_nodes.values() if ref() is not None] == []


def test_the_live_node_map_stays_bounded_under_a_stream_of_documents():
    import glbounds.ledger as ledger_mod

    _clear_ledger_caches()
    bound = 2 * ledger_mod._CACHE_SIZE
    kept = load_ledger(dumps_ledger(paper_ledger()))
    sizes = []
    for i in range(2000):
        text = json.dumps(doc(node("n%d" % i, "Constant", {"2": i % 7 + 1})))
        assert load_ledger(text).nodes["n%d" % i].declared == fi(2 ** (i % 7 + 1))
        sizes.append(len(ledger_mod._live_nodes))
    assert max(sizes) == bound - 1 and min(sizes) == 219
    # Pruning drops the dead entries first: the kept ledger's stay.
    assert all(ledger_mod._live_nodes[nid]() is kept.nodes[nid] for nid in kept.order)
    # A ledger of more nodes than the bound, all alive, loads with the map
    # keeping only its newest entries.
    chain = [node("c%d" % i, "Product", {"2": 1}, children=["c%d" % (i - 1)])
             for i in range(1, 3 * bound)]
    big = load_ledger(json.dumps(doc(node("c0", "Constant", {"2": 1}), *chain)))
    assert len(big.order) == 3 * bound and len(ledger_mod._live_nodes) < bound
    assert ledger_mod._live_nodes["c%d" % (3 * bound - 1)]() is big.nodes["c%d" % (3 * bound - 1)]


def test_loads_in_several_threads_keep_the_live_node_map_correct_and_bounded(monkeypatch):
    import glbounds.ledger as ledger_mod

    class Slow(dict):
        """Gives up the interpreter before each store and between the items a
        prune reads, so a store or a prune that is not guarded meets another
        thread's store half done."""

        def __setitem__(self, key, value):
            time.sleep(0.0005)
            super().__setitem__(key, value)

        def items(self):
            for item in super().items():
                time.sleep(0.0001)
                yield item

    _clear_ledger_caches()
    monkeypatch.setattr(ledger_mod, "_CACHE_SIZE", 4)
    monkeypatch.setattr(ledger_mod, "_live_nodes", Slow())
    # Every document has a node "a" of its own value, and a node of its own id.
    documents = [json.dumps(doc(node("a", "Constant", {"2": e}),
                                node("n%d" % e, "Constant", {"3": 1})))
                 for e in range(1, 25)]
    kept, wrong = [], []

    def work(offset):
        for i in range(20):
            e = (offset + i) % 24 + 1
            try:
                ledger = load_ledger(documents[e - 1])
            except Exception as exc:  # noqa: BLE001 - any error is a wrong answer
                wrong.append((e, exc))
                continue
            if ledger.nodes["a"].declared != fi(2**e) or list(ledger.nodes) != ["a", "n%d" % e]:
                wrong.append(e)
            kept.append(ledger)  # live nodes for the other threads to hit

    threads = [threading.Thread(target=work, args=(k * 5,)) for k in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == [] and len(ledger_mod._live_nodes) < 8


def test_a_mapping_source_is_never_looked_up_or_entered():
    import glbounds.ledger as ledger_mod

    _clear_ledger_caches()
    text = dumps_ledger(paper_ledger())
    live = load_ledger(text)
    entered = dict(ledger_mod._live_nodes)
    document = json.loads(text)
    mapped = load_ledger(document)
    assert mapped == live and dumps_ledger(mapped) == text
    assert not any(mapped.nodes[nid] is live.nodes[nid] for nid in live.order)
    assert all(n._source is None for n in mapped.nodes.values())
    assert ledger_mod._live_nodes == entered
    # The caller changes its dict after the load: no later load sees it, and
    # a load of the changed dict reads it as it is now.
    entry = next(e for e in document["nodes"] if e["id"] == "pgl2-q")
    entry["citation"] = "changed"
    entry["declared"]["3"] = 2
    assert load_ledger(text).nodes["pgl2-q"] is live.nodes["pgl2-q"]
    with pytest.raises(BadDeclaredValue, match="^pgl2-q: decimal '12' does not match"):
        load_ledger(document)
    entry["decimal"] = "36"
    assert load_ledger(document).nodes["pgl2-q"].citation == "changed"
    assert load_ledger(text).nodes["pgl2-q"].citation != "changed"


def test_a_nodes_source_takes_no_part_in_its_value():
    text = dumps_ledger(paper_ledger())
    loaded = load_ledger(text)
    leaf = loaded.nodes["pgl2-q"]
    assert leaf._source == next(e for e in json.loads(text)["nodes"] if e["id"] == "pgl2-q")
    built = LedgerNode(leaf.id, leaf.kind, leaf.args, leaf.children, leaf.declared,
                       leaf.citation, leaf.paper_prints, leaf.note)
    dumps_ledger(loaded)  # the first export keeps each node's text
    assert leaf._text.startswith('{\n      "id": "pgl2-q",') and leaf._text.endswith("\n    }")
    for twin in (built, pickle.loads(pickle.dumps(leaf)), copy.copy(leaf), copy.deepcopy(leaf)):
        assert twin._source is None and twin._text is None
        assert twin == leaf and hash(twin.declared) == hash(leaf.declared)
        assert repr(twin) == repr(leaf)
    assert "_source" not in repr(leaf) and "_text" not in repr(leaf)
    assert pickle.dumps(leaf) == pickle.dumps(built)


def _mutations(document):
    """(name, mutated copy of document) for each way an entry can differ from
    a packaged one that == alone does not see, or that the checks refuse."""
    def entry(doc_, nid):
        return next(e for e in doc_["nodes"] if e["id"] == nid)

    def mutated(name, change):
        copy_ = copy.deepcopy(document)
        change(copy_)
        return name, copy_

    def set_arg(nid, key, value):
        return lambda d: entry(d, nid)["args"].__setitem__(key, value)

    def set_exponent(nid, key, value):
        return lambda d: entry(d, nid)["declared"].__setitem__(key, value)

    def reverse_args(d):
        e = entry(d, "pgl2-q")
        e["args"] = dict(reversed(list(e["args"].items())))

    def respell_key(d):
        e = entry(d, "pgl2-q")
        e["declared"] = {("0" + k if k == "2" else k): v for k, v in e["declared"].items()}

    def repeat(d):
        d["nodes"].insert(3, copy.deepcopy(d["nodes"][1]))

    def null_field(field):
        return lambda d: entry(d, "pgl2-q").__setitem__(field, None)

    return [
        mutated("args value true", set_arg("pgl2-q", "degree", True)),
        mutated("args value 12.0", set_arg("conic-deg6", "degree", 12.0)),
        mutated("args value 1.0", set_arg("pgl2-q", "degree", 1.0)),
        mutated("args keys reversed", reverse_args),
        mutated("declared key 02", respell_key),
        mutated("exponent 2.0", set_exponent("pgl2-q", "2", 2.0)),
        mutated("exponent true", set_exponent("pgl2-q", "3", True)),
        mutated("repeated node", repeat),
        mutated("paper_prints null", null_field("paper_prints")),
        mutated("note null", null_field("note")),
        mutated("citation changed", lambda d: entry(d, "pgl2-q").__setitem__("citation", "x")),
        mutated("unchanged", lambda d: None),
    ]


def _load_text_outcome(text):
    """What loading text gives: the ledger and its export, or its error."""
    try:
        ledger = load_ledger(text)
    except LedgerError as exc:
        return None, (type(exc), str(exc))
    return ledger, dumps_ledger(ledger)


def test_a_load_gives_what_it_gives_with_the_live_node_map_emptied():
    import glbounds.ledger as ledger_mod

    document = _packaged_document()
    shared = {}
    for name, mutated in _mutations(document):
        text = json.dumps(mutated, indent=2, ensure_ascii=False)
        _clear_ledger_caches()
        packaged = paper_ledger()  # its nodes are the live ones
        warm, warm_outcome = _load_text_outcome(text)
        ledger_mod._live_nodes.clear()
        cold, cold_outcome = _load_text_outcome(text)
        assert (warm_outcome, warm) == (cold_outcome, cold), name
        if warm is not None:
            shared[name] = sum(warm.nodes[nid] is packaged.nodes.get(nid) for nid in warm.order)
    # Each mutation that loads took every packaged node it did not change.
    assert shared == {"args keys reversed": 217, "declared key 02": 217,
                      "citation changed": 217, "unchanged": 218}
def _minkowski(n):
    return doc(node("m", "Minkowski", {}, args={"n": n}), root="m")


def test_a_bound_function_bound_anew_runs_in_a_warm_process(monkeypatch):
    import glbounds.ledger as ledger_mod

    real = ledger_mod.minkowski_bound
    assert final_bound(load_ledger(_minkowski(2))) == real(2)  # the memo holds n = 2
    seen = []

    def doubled(n):
        seen.append(n)
        return real(n) * fi(2)

    monkeypatch.setattr(ledger_mod, "minkowski_bound", doubled)
    for _ in range(2):
        assert final_bound(load_ledger(_minkowski(2))) == real(2) * fi(2)
    assert seen == [2]  # the function bound now runs, once
    monkeypatch.undo()
    assert final_bound(load_ledger(_minkowski(2))) == real(2)
    assert seen == [2]


def test_a_failing_leaf_stores_nothing_across_ledgers(monkeypatch):
    import glbounds.ledger as ledger_mod

    real = ledger_mod.minkowski_bound
    seen = []

    def flaky(n):
        seen.append(n)
        if len(seen) == 1:
            raise ArithmeticError("transient")
        return real(n)

    monkeypatch.setattr(ledger_mod, "minkowski_bound", flaky)
    with pytest.raises(ArithmeticError):
        final_bound(load_ledger(_minkowski(3)))
    assert not any(entry[0] is flaky for entry in ledger_mod._leaf_factors.values())
    for _ in range(2):
        assert final_bound(load_ledger(_minkowski(3))) == fi(48)
    assert seen == [3, 3]
    # A leaf past the invphi limit raises in every ledger and leaves no entry.
    gl2 = doc(node("g", "Gl2", {}, args={"degree": 10**6 + 1}), root="g")
    for _ in range(2):
        with pytest.raises(DomainError, match=r"^bound must be <= 1000000, got 1000001$"):
            final_bound(load_ledger(gl2))
    assert not any(key[:2] == ("Gl2", (("degree", 10**6 + 1),))
                   for key in ledger_mod._leaf_factors)


def test_each_leaf_memo_hit_is_a_value_of_its_own_with_no_kept_int():
    first = final_bound(load_ledger(_minkowski(4)))
    assert first.to_int() == 5760  # keeps its int
    hits = [final_bound(load_ledger(_minkowski(4))) for _ in range(3)]
    assert all(hit == first for hit in hits)
    assert len({id(value) for value in [first, *hits]}) == 4
    assert all(hit._int is None for hit in hits)


def test_the_leaf_memo_is_bounded_and_keeps_no_long_value(monkeypatch):
    import glbounds.ledger as ledger_mod
    from glbounds.bounds import minkowski_bound
    from glbounds.exactnum import _STR_BITS, _bits_bound

    _clear_ledger_caches()
    monkeypatch.setattr(ledger_mod, "_CACHE_SIZE", 4)
    for n in range(1, 11):
        assert final_bound(load_ledger(_minkowski(n))) == minkowski_bound(n)
    assert [key[1] for key in ledger_mod._leaf_factors] == [(("n", n),) for n in range(7, 11)]
    # minkowski_bound(10000) has some 13 000 digits: evaluated, never kept.
    ledger_mod._leaf_factors.clear()
    big = final_bound(load_ledger(_minkowski(10000)))
    assert big == minkowski_bound(10000) and _bits_bound(big) > _STR_BITS
    assert len(ledger_mod._leaf_factors) == 0


def test_evaluations_in_several_threads_keep_the_leaf_memo_bounded(monkeypatch):
    import glbounds.ledger as ledger_mod
    from glbounds.bounds import minkowski_bound

    class Slow(OrderedDict):
        """Gives up the interpreter between the size check and each store,
        so a store that is not guarded overfills the memo."""

        def __setitem__(self, key, value):
            time.sleep(0.0005)
            super().__setitem__(key, value)

    _clear_ledger_caches()
    monkeypatch.setattr(ledger_mod, "_CACHE_SIZE", 4)
    monkeypatch.setattr(ledger_mod, "_leaf_factors", Slow())
    documents = [_minkowski(n) for n in range(1, 25)]
    want = [minkowski_bound(n) for n in range(1, 25)]
    wrong = []

    def work(offset):
        for i in range(20):
            k = (offset + i) % 24
            if final_bound(load_ledger(documents[k])) != want[k]:
                wrong.append(k + 1)

    threads = [threading.Thread(target=work, args=(k * 5,)) for k in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == [] and len(ledger_mod._leaf_factors) <= 4
    assert all(entry[1] == want[dict(key[1])["n"] - 1].factors
               for key, entry in ledger_mod._leaf_factors.items())


def test_rebound_functions_leave_one_memo_entry_per_leaf_and_pin_no_wrapper(monkeypatch):
    import glbounds.ledger as ledger_mod

    names = sorted({spec.bound for spec in ledger_mod.KINDS.values() if spec.bound})
    assert len(names) == 6
    document = json.loads(dumps_ledger(paper_ledger()))

    def audit():
        ledger = load_ledger(document)
        verify_ledger(ledger)
        assert final_bound(ledger) == fi(24103053950976000)

    def rebind():
        """Bind each name to a fresh wrapper of its function, as a tracer
        does; weak references to the wrappers."""
        refs = []
        for name in names:
            def wrapper(*args, _real=getattr(ledger_mod, name)):
                return _real(*args)
            monkeypatch.setattr(ledger_mod, name, wrapper)
            refs.append(weakref.ref(wrapper))
        return refs

    _clear_ledger_caches()
    for _ in range(6):
        refs = rebind()
        audit()
        monkeypatch.undo()
        audit()
        # The packaged ledger's 102 distinct recomputed leaves, each computed
        # last by the function bound now.
        assert len(ledger_mod._leaf_factors) == 102
        assert all(entry[0] is getattr(ledger_mod, KINDS[kind].bound)
                   for (kind, _), entry in ledger_mod._leaf_factors.items())
        gc.collect()
        assert [ref() for ref in refs] == [None] * 6


def test_keeping_a_kept_key_in_a_full_map_evicts_nothing():
    import glbounds.ledger as ledger_mod

    size = ledger_mod._CACHE_SIZE
    kept = OrderedDict()
    for key in range(size):
        ledger_mod._keep(kept, key, key)
    ledger_mod._keep(kept, 7, "again")
    assert list(kept) == list(range(size)) and kept[7] == "again"
    ledger_mod._keep(kept, size, size)  # a new key drops the oldest
    assert list(kept) == list(range(1, size + 1))


def test_clearing_the_ledger_caches_empties_every_process_wide_table():
    import glbounds.ledger as ledger_mod

    def size(table):
        return table.cache_info().currsize if callable(table) else len(table)

    audit_ledger = load_ledger(dumps_ledger(paper_ledger()))
    verify_ledger(audit_ledger)
    final_bound(audit_ledger, {"g10": 2592})
    # Every lru_cache, every module-level OrderedDict and every dict of weak
    # references of the module, found by what they are, so that a table
    # added later is found too.
    tables = {name: obj for name, obj in vars(ledger_mod).items()
              if callable(getattr(obj, "cache_clear", None)) or isinstance(obj, OrderedDict)
              or type(obj) is dict and obj
              and all(type(ref) is weakref.ref for ref in obj.values())}
    assert sorted(tables) == ["_constraints", "_factor_small", "_leaf_factors", "_live_nodes",
                              "_rendered"]
    assert all(size(table) for table in tables.values())
    _clear_ledger_caches()
    assert {name: size(table) for name, table in tables.items()} == dict.fromkeys(tables, 0)


# Leaves that evaluate quickly, drawn with replacement so that the ledgers of
# one sequence share leaf args; the last raises in every ledger.
_SHARED_LEAVES = (
    ("Constant", {}), ("Minkowski", {"n": 2}), ("Minkowski", {"n": 3}),
    ("SchurRough", {"n": 3, "d": 2}), ("SerreQ", {"n": 3}), ("Gl2", {"degree": 2}),
    ("Pgl2", {"degree": 4, "contains_sqrt5": "no"}),
    ("Pgl2", {"contains_sqrt5": "no", "degree": 4}),
    ("EquationCase", {"p": 3, "n": 3, "d": 12}),
    ("EquationCase", {"p": 7, "n": 3, "d": 12, "e_min": 2, "constraints": ["e even"]}),
    ("Gl2", {"degree": 10**6 + 1}),
)


@st.composite
def _small_ledger_documents(draw):
    """One to four leaves from _SHARED_LEAVES under a Product or Max root,
    each with a declared value that may or may not match."""
    picks = draw(st.lists(st.sampled_from(_SHARED_LEAVES), min_size=1, max_size=4))
    declared = st.sampled_from([{}, {"2": 1}, {"2": 4, "3": 1}, {"3": 1}])
    leaves = [node("l%d" % i, kind, draw(declared), args=args)
              for i, (kind, args) in enumerate(picks)]
    root = node("r", draw(st.sampled_from(["Product", "Max"])), draw(declared),
                children=[leaf["id"] for leaf in leaves])
    return doc(*leaves, root, root="r")


def _audit_outcome(source, kept):
    """What auditing source gives: its export, verify rows and final bound,
    or its error.  The ledger goes to kept, so its nodes stay alive for
    later loads."""
    ledger = load_ledger(source)
    kept.append(ledger)
    try:
        return dumps_ledger(ledger), verify_ledger(ledger).rows, final_bound(ledger)
    except (LedgerError, DomainError) as exc:
        return type(exc), str(exc)


@settings(deadline=None, max_examples=50)
@given(st.lists(_small_ledger_documents(), min_size=1, max_size=4))
def test_audits_give_what_they_give_with_every_cache_cleared_first(documents):
    # The oracle clears every ledger cache before each audit; the audits
    # under test share whatever the audits before them left, twice over.
    # Each document loads as a Mapping and as text, whose nodes the loader
    # may take from an earlier load.
    sources = [form for document in documents for form in (document, json.dumps(document))]
    fresh = []
    for source in sources:
        _clear_ledger_caches()
        fresh.append(_audit_outcome(source, []))
    _clear_ledger_caches()
    kept = []
    assert [_audit_outcome(source, kept) for source in sources * 2] == fresh * 2


def test_a_mismatch_names_a_long_value_factored_and_a_long_decimal_by_its_length():
    cases = [
        ({"2": 20000}, "1", "a: decimal '1' does not match declared factorization (2^20000)"),
        ({"2": 75, "5": 75}, "1",
         "a: decimal '1' does not match declared factorization (2^75 * 5^75)"),
        ({"2": 74, "5": 74}, "1", "a: decimal '1' does not match declared factorization (100%s)"
         % (" 000" * 24)),
        ({"2": 10}, "9" * 101,
         "a: decimal of 101 characters does not match declared factorization (1 024)"),
        ({"2": 10}, "9" * 100,
         "a: decimal '%s' does not match declared factorization (1 024)" % ("9" * 100)),
    ]
    for declared, decimal, message in cases:
        with pytest.raises(BadDeclaredValue) as info:
            load_ledger(_one(declared, decimal))
        assert str(info.value) == message
    assert len(cases[0][2]) < 200


def test_an_args_name_is_formatted_only_when_it_is_refused():
    import glbounds.ledger as ledger_mod

    class Unprintable:
        def __repr__(self):
            raise AssertionError("formatted on success")

    assert ledger_mod._factor_arg(12, SchemaError, "%s: arg %r", "s", Unprintable()) == fi(12)
    with pytest.raises(SchemaError) as info:
        ledger_mod._factor_arg(100000007, SchemaError, "%s: arg %r", "s", "num")
    assert str(info.value) == "s: arg 'num' has a prime factor of 10^8 or more"


def _python_calls(fn) -> int:
    """The Python-level calls that one run of fn makes, fn's own included,
    counted by sys.setprofile; the profiler set before is put back."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "call"

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(before)
    return count


def test_a_warm_audit_and_round_trip_stay_within_their_python_calls():
    # A guard on the loader's and evaluator's repeat work.  Read on CPython
    # 3.11: 1 619 and 256 calls (2 679 and 1 316 before the loader reused
    # live nodes, 5 769 before the leaf memo, and 7 439 and 1 552 before the
    # declared values were kept across loads, the fillers took defaults and a
    # product was built as one record).
    text = dumps_ledger(paper_ledger())
    ledger = load_ledger(text)

    def audit():
        fresh = load_ledger(text)
        verify_ledger(fresh)
        final_bound(fresh)

    def round_trip():
        load_ledger(dumps_ledger(ledger))

    for op in (audit, audit, round_trip, round_trip):  # warm every cache
        op()
    assert _python_calls(audit) <= 1700
    assert _python_calls(round_trip) <= 270


def test_a_loaded_nodes_constraints_are_its_own():
    document = json.loads(dumps_ledger(paper_ledger()))
    ledger = load_ledger(document)
    text = dumps_ledger(ledger)
    nid = "sch3-d12-e2-q5"
    node_ = ledger.nodes[nid]
    assert node_.args["constraints"] == ("t >= 2",)
    assert eval_node(ledger, nid) == fi(5)
    # neither the caller's list nor the node's read-only args can change it
    raw = next(raw for raw in document["nodes"] if raw["id"] == nid)
    raw["args"]["constraints"].append("e = 999")
    with pytest.raises(AttributeError):
        node_.args["constraints"].append("e = 999")
    assert node_.args["constraints"] == ("t >= 2",)
    assert node_._parsed.extra == ("t >= 2",)
    assert dumps_ledger(ledger) == text
    assert eval_node(load_ledger(dumps_ledger(ledger)), nid) == fi(5)
    assert eval_node(ledger, nid) == fi(5)


def test_constraints_may_be_a_list_or_a_tuple():
    args = {"p": 3, "n": 3, "d": 4}
    built = [LedgerNode("e", "EquationCase", dict(args, constraints=tags), (), ONE, "cite")
             for tags in (["e even"], ("e even",))]
    assert built[0] == built[1] and built[0].args["constraints"] == ("e even",)
    assert '"constraints": [\n          "e even"\n        ]' in dumps_ledger(
        Ledger(1, None, (), {"e": built[1]}))
    with pytest.raises(SchemaError) as info:
        LedgerNode("e", "EquationCase", dict(args, constraints=("e even", 2)), (), ONE, "cite")
    assert str(info.value) == "e: constraints must be a list of tag strings"


def test_each_distinct_leaf_bound_is_computed_once_per_process(monkeypatch):
    import glbounds.ledger as ledger_mod

    calls = []
    real = ledger_mod.max_schur_exponent

    def counting(p, n, d, *rest, **kw):
        calls.append((p, n, d))
        return real(p, n, d, *rest, **kw)

    # A function bound anew finds no entry, however warm the leaf memo is.
    monkeypatch.setattr(ledger_mod, "max_schur_exponent", counting)
    fresh = paper_ledger()
    cases = [nid for nid in fresh.order if fresh.nodes[nid].kind == "EquationCase"]
    verify_ledger(fresh)
    assert final_bound(fresh) == fi(24103053950976000)
    assert final_bound(fresh, {"g10": 0}) == fi(735746457600)
    final_bound(fresh, {cases[0]: 1})
    final_bound(fresh, {"theorem-cr3": 6})
    # One solve per distinct arg set: two of the 74 cases share theirs.
    distinct = {tuple(fresh.nodes[nid].args.items()) for nid in cases}
    assert len(cases) == 74 and len(calls) == len(distinct) == 73
    # A second fresh ledger solves nothing and gives the same rows.
    again = paper_ledger()
    assert verify_ledger(again) == verify_ledger(fresh)
    assert final_bound(again) == fi(24103053950976000)
    assert len(calls) == 73


def test_paper_ledger_eval_is_deterministic(ledger):
    first = {nid: eval_node(ledger, nid) for nid in ledger.order}
    second = {nid: eval_node(ledger, nid) for nid in ledger.order}
    assert first == second


def test_doubling_one_node_moves_the_root_only_through_g10():
    warm = paper_ledger()
    verify_ledger(warm)
    root = final_bound(warm)
    moved = [nid for nid in warm.order
             if final_bound(warm, {nid: 2 * as_int(warm.node_values[nid])}) != root]
    assert moved == ["g10", "prop-gorenstein-rho1", "theorem-cr3"]


# ------------------------------------------------- what-ifs against ints
#
# An evaluator of its own, on plain ints: Product multiplies, Max and
# AppendixProp take the largest child, ScaledProduct divides exactly or
# fails.  Leaf values come from verify_ledger on a fresh ledger, so what is
# checked is how what-ifs recombine, not the leaf bounds themselves.

def as_int(value: FactoredInteger) -> int:
    return math.prod(p ** e for p, e in value.factors)


class _Inexact(Exception):
    pass


def _oracle(ledger, leaf_ints, overrides, nid):
    # An override of 0 stands for the empty product, as in final_bound.
    memo = {k: v or 1 for k, v in overrides.items()}

    def value(node_id):
        if node_id not in memo:
            node = ledger.nodes[node_id]
            # children left to right, so the first inexact node is the one
            # final_bound names
            kids = [value(kid) for kid in node.children]
            if not kids:
                memo[node_id] = leaf_ints[node_id]
            elif node.kind == "Product":
                memo[node_id] = math.prod(kids)
            elif node.kind in ("Max", "AppendixProp"):
                memo[node_id] = max(kids)
            else:
                scaled = node.args["num"] * math.prod(kids)
                if scaled % node.args["den"]:
                    raise _Inexact(node_id)
                memo[node_id] = scaled // node.args["den"]
        return memo[node_id]

    return value(nid)


_WARM = paper_ledger()
_LEAVES = {row.id: as_int(row.computed) for row in verify_ledger(paper_ledger()).rows
           if KINDS[_WARM.nodes[row.id].kind].leaf}
verify_ledger(_WARM)
_WARM_VALUES = dict(_WARM.node_values)
_DECLARED = sorted({as_int(n.declared) for n in _WARM.nodes.values()})


def test_the_oracle_reproduces_every_node_without_overrides():
    assert len(_WARM_VALUES) == len(_WARM.order)  # inner nodes are memoized too
    for nid in _WARM.order:
        assert _oracle(_WARM, _LEAVES, {}, nid) == as_int(_WARM_VALUES[nid])


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(
    st.sampled_from(_WARM.order),
    st.one_of(st.just(0), st.sampled_from(_DECLARED)),
    min_size=1, max_size=3,
))
# Zeroing the child of a ScaledProduct with den 2 leaves an odd product; with
# both, the first inexact node in child order is the one named.
@example({"appendix-prop-sch4-7": 0})
@example({"appendix-prop-sch3-15": 0, "appendix-prop-sch4-7": 0, "g10": 0})
def test_what_ifs_match_a_plain_int_evaluator(overrides):
    try:
        want = _oracle(_WARM, _LEAVES, overrides, _WARM.root)
    except _Inexact as inexact:
        with pytest.raises(ScaleNotExact, match="^%s: " % inexact.args[0]):
            final_bound(_WARM, overrides)
    else:
        assert as_int(final_bound(_WARM, overrides)) == want
    assert _WARM.node_values == _WARM_VALUES


def _outcome(query):
    """query()'s value, or the class and message of the LedgerError it raised."""
    try:
        return query()
    except LedgerError as exc:
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(st.sampled_from(_WARM.order),
                    st.one_of(st.just(0), st.sampled_from(_DECLARED)), min_size=1, max_size=3),
    st.lists(st.sampled_from(_WARM.order), max_size=4),
    st.sampled_from(_WARM.order),
)
@example({"appendix-prop-sch3-15": 0, "appendix-prop-sch4-7": 0, "g10": 0}, [], _WARM.root)
def test_a_what_if_is_the_same_on_a_cold_and_a_warm_ledger(overrides, before, nid):
    # A child already in node_values is read from there, one not yet there is
    # computed; either way the value and the first error are the same.
    cold, warm = paper_ledger(), paper_ledger()
    for other in before:
        eval_node(warm, other)
    want = _outcome(lambda: eval_node(cold, nid, overrides))
    assert _outcome(lambda: eval_node(warm, nid, overrides)) == want
    assert _outcome(lambda: eval_node(_WARM, nid, overrides)) == want
    assert _WARM.node_values == _WARM_VALUES
    for ledger in (cold, warm):  # what the what-if computed unaffected is kept
        assert all(ledger.node_values[k] == v for k, v in _WARM_VALUES.items()
                   if k in ledger.node_values)


def test_a_what_if_off_the_queried_subtree_keeps_the_first_error():
    # The example of ROADMAP item 6: both = Product[worse, bad] meets worse
    # first, though bad comes first in document order; spare is no
    # descendant of both, so an override on it changes nothing below it.
    ledger = load_ledger(doc(
        node("ten", "Constant", {"2": 1, "5": 1}),
        node("bad", "ScaledProduct", {"2": 1}, args={"num": 1, "den": 3}, children=["ten"]),
        node("worse", "ScaledProduct", {"2": 1}, args={"num": 1, "den": 7}, children=["ten"]),
        node("both", "Product", {"2": 1}, children=["worse", "bad"]),
        node("spare", "Constant", {"3": 1}),
        node("top", "Max", {"3": 1}, children=["spare", "ten"]),
        root="both",
    ))
    for warm_up in ([], ["ten"], ["spare", "top"]):
        for nid in warm_up:
            eval_node(ledger, nid)
        for overrides in ({"spare": 7}, {"spare": 0, "top": 1}):
            with pytest.raises(ScaleNotExact, match="^worse: "):
                final_bound(ledger, overrides)
        with pytest.raises(ScaleNotExact, match="^worse: "):
            final_bound(ledger)
    with pytest.raises(ScaleNotExact, match="^bad: "):  # with worse overridden, bad is next
        final_bound(ledger, {"worse": 3})
    assert eval_node(ledger, "top", {"spare": 1}) == fi(10)


def _reached(ledger, nid):
    """The ids nid reaches, itself included."""
    seen, stack = set(), [nid]
    while stack:
        top = stack.pop()
        if top not in seen:
            seen.add(top)
            stack.extend(ledger.nodes[top].children)
    return seen


def test_a_what_if_recombines_only_the_overridden_ancestors(monkeypatch):
    import glbounds.ledger as ledger_mod

    combined = []
    real = ledger_mod._combine

    def counting(node, kids):
        combined.append(node.id)
        return real(node, kids)

    monkeypatch.setattr(ledger_mod, "_combine", counting)
    warm = paper_ledger()
    # cold, each node the root reaches is combined once, even the 21 with
    # several parents
    assert final_bound(warm) == fi(24103053950976000)
    assert sorted(combined) == sorted(_reached(warm, warm.root))
    assert len(combined) == 170
    assert warm.root in warm.node_values and "g10" in warm.node_values
    ancestors, frontier = set(), {"g10"}
    while frontier:
        frontier = {nid for nid in warm.order
                    if set(warm.nodes[nid].children) & frontier} - ancestors
        ancestors |= frontier
    combined.clear()
    before = dict(warm.node_values)
    assert final_bound(warm, {"g10": 0}) == fi(735746457600)
    assert final_bound(warm) == fi(24103053950976000)
    assert sorted(combined) == sorted(ancestors)
    assert warm.node_values == before


def test_the_walk_folds_to_explains_line_counts():
    # A second interpretation of the one walk: a node's line count in
    # explain is one plus its children's, for a tree or a shared subtree.
    from glbounds.ledger import _walk

    ledger = paper_ledger()
    for nid in ledger.order:
        lines: dict[str, int] = {}
        for node, kids in _walk(ledger.nodes, [nid], lines):
            lines[node.id] = 1 + sum(kids)
        assert lines.keys() == _reached(ledger, nid)
        assert lines[nid] == len(explain(ledger, nid).splitlines())


# Generated ledgers of the combinators on Constants: levels of one to three
# nodes, each node taking a child from the level below and up to two more
# from anywhere beneath, so children are shared; shuffled into document
# order, so verify_ledger meets parents before their children.  Every choice
# is one integer draw, which keeps generation cheap.  An AppendixProp's d_max
# is the number of children drawn for it.
_CONSTANTS = ({}, {"2": 1}, {"3": 1}, {"2": 1, "3": 1}, {"2": 3}, {"3": 2, "5": 1},
              {"2": 12, "7": 3})
_COMBINATORS = [("Product", {}), ("Max", {}), ("AppendixProp", {"n": 3, "d_max": 2})] + [
    ("ScaledProduct", {"num": num, "den": den}) for num in (1, 2, 3) for den in (1, 2, 3)]


@st.composite
def _combinator_ledgers(draw):
    def pick(items):
        return items[draw(st.integers(0, len(items) - 1))]

    below = ["c%d" % i for i in range(draw(st.integers(1, 4)))]
    nodes = [node(nid, "Constant", pick(_CONSTANTS)) for nid in below]
    ids: list[str] = []
    for level in range(1, draw(st.integers(1, 8)) + 1):
        ids += below
        this_level = ["n%d-%d" % (level, j) for j in range(draw(st.integers(1, 3)))]
        for nid in this_level:
            kids = [pick(ids) for _ in range(draw(st.integers(0, 2)))]
            kids.insert(draw(st.integers(0, len(kids))), pick(below))
            kind, args = pick(_COMBINATORS)
            if "d_max" in args:
                args = dict(args, d_max=len(kids))
            nodes.append(node(nid, kind, {}, args=args, children=kids))
        below = this_level
    return doc(*draw(st.permutations(nodes)), root=pick(below))


@settings(max_examples=200, deadline=None)
@given(_combinator_ledgers())
def test_generated_ledgers_match_a_plain_int_evaluator(document):
    ledger = load_ledger(document)
    leaves = {nid: as_int(n.declared) for nid, n in ledger.nodes.items() if not n.children}
    try:
        want = _oracle(ledger, leaves, {}, ledger.root)
    except _Inexact as inexact:
        with pytest.raises(ScaleNotExact, match="^%s: " % inexact.args[0]):
            final_bound(ledger)
    else:
        assert as_int(final_bound(ledger)) == want
    # verify_ledger walks the nodes in document order, so the first error it
    # meets is in the walk of the first node whose walk has one.
    want_all = {}
    for nid in ledger.order:
        try:
            want_all[nid] = _oracle(ledger, leaves, {}, nid)
        except _Inexact as inexact:
            with pytest.raises(ScaleNotExact, match="^%s: " % inexact.args[0]):
                verify_ledger(ledger)
            return
    assert {row.id: as_int(row.computed) for row in verify_ledger(ledger).rows} == want_all


# ------------------------------------------------------- loader messages
#
# One case per place the loader raises, in the order the loader checks.
# The CLI prints these messages verbatim as "error: ...", so the class and
# the exact text are both part of the interface.

def _edit(nid, kind, declared, edit, **kw):
    """A one-node document whose node is changed by edit(raw_node)."""
    raw = node(nid, kind, declared, **kw)
    edit(raw)
    return doc(raw)


def _set(key, value):
    return lambda raw: raw.__setitem__(key, value)


def _appendix(args, children):
    """An AppendixProp "a" over children drawn from the rough rows r1 and r2
    of n = 3 and a Max "m", which stands for a degree's branches: a child
    of a kind other than SchurRough is not read."""
    return doc(node("r1", "SchurRough", {}, args={"n": 3, "d": 1}),
               node("r2", "SchurRough", {}, args={"n": 3, "d": 2}),
               node("m", "Max", {}, children=["r1"]),
               node("a", "AppendixProp", {}, args=args, children=children))


def _repeat(declared, decimal="1 024"):
    """Node a declares 2^10 = "1 024"; node b repeats a decimal with its own
    declared map."""
    return doc(node("a", "Constant", {"2": 10}),
               dict(node("b", "Constant", {}), declared=declared, decimal=decimal))


_NODE_FIELD_LIST = (
    "['args', 'children', 'citation', 'decimal', 'declared', 'id', 'kind'] "
    "(+ optional ['note', 'paper_prints'])"
)

_LOADER_ERRORS = {
    "unsupported-source": (
        lambda: 42, SchemaError, "unsupported ledger source <class 'int'>"),
    "document-not-object": (
        lambda: __import__("types").MappingProxyType(doc()),
        SchemaError, "document must be an object"),
    "json-text-array": (
        lambda: "[]", SchemaError, "document must be an object"),
    "json-text-array-after-blanks": (
        lambda: " \n[1]", SchemaError, "document must be an object"),
    "json-text-string": (
        lambda: '"x"', SchemaError, "document must be an object"),
    "unknown-top-level-keys": (
        lambda: {"schema_version": 1, "nodes": [], "color": "red", "b": 1},
        SchemaError, "unknown top-level keys ['b', 'color']"),
    "schema-version": (
        lambda: {"schema_version": 2, "nodes": []},
        SchemaError, "schema_version must be 1"),
    "schema-version-true": (
        lambda: {"schema_version": True, "nodes": []},
        SchemaError, "schema_version must be 1"),
    "schema-version-float": (
        lambda: {"schema_version": 1.0, "nodes": []},
        SchemaError, "schema_version must be 1"),
    "not-json": (
        lambda: '{"schema_version": 1, nodes: []}',
        SchemaError, "ledger is not valid JSON: "
        "Expecting property name enclosed in double quotes: line 1 column 23 (char 22)"),
    "nodes-not-list": (
        lambda: {"schema_version": 1, "nodes": "x"}, SchemaError, "nodes must be a list"),
    "node-not-object": (
        lambda: doc(1), SchemaError, "node entries must be objects"),
    "node-fields": (
        lambda: _edit("c", "Constant", {}, lambda raw: raw.pop("citation")),
        SchemaError,
        "node fields must be %s, got ['args', 'children', 'decimal', 'declared', 'id', 'kind']"
        % _NODE_FIELD_LIST),
    "empty-id": (
        lambda: doc(node("", "Constant", {})), SchemaError, "empty node id"),
    "id-lone-surrogate": (
        lambda: doc(node("\ud800x", "Constant", {})),
        SchemaError, "'\\ud800x': id holds a lone surrogate"),
    "duplicate-id": (
        lambda: doc(node("c", "Constant", {}), node("c", "Constant", {})),
        SchemaError, "duplicate node id 'c'"),
    "unknown-kind": (
        lambda: doc(node("x", "Banana", {})), SchemaError, "x: unknown kind 'Banana'"),
    "kind-not-string": (
        lambda: _edit("x", "Constant", {}, _set("kind", [])),
        SchemaError, "x: unknown kind []"),
    "args-not-object": (
        lambda: _edit("c", "Constant", {}, _set("args", [1])),
        SchemaError, "c: args must be an object"),
    "args-missing": (
        lambda: doc(node("m", "Minkowski", {}, args={})),
        SchemaError, "m: Minkowski args must have ['n'], got []"),
    "args-keys": (
        lambda: doc(node("m", "Minkowski", {}, args={"n": 1, "d": 2})),
        SchemaError, "m: Minkowski args must have ['n'], got ['d', 'n']"),
    "equation-xi4": (
        lambda: doc(node("e", "EquationCase", {},
                         args={"p": 3, "n": 3, "d": 4, "xi4": "yes"})),
        SchemaError, "e: EquationCase args must have ['d', 'n', 'p'], got ['d', 'n', 'p', 'xi4']"),
    "arg-not-positive": (
        lambda: doc(node("m", "Minkowski", {}, args={"n": 0})),
        SchemaError, "m: arg 'n' must be a positive integer"),
    "arg-not-tristate": (
        lambda: doc(node("g", "Pgl2", {}, args={"degree": 2, "contains_sqrt5": "maybe"})),
        SchemaError, "g: arg 'contains_sqrt5' must be yes/no/unknown"),
    "arg-not-tristate-before-arg-not-positive": (
        lambda: doc(node("g", "Pgl2", {}, args={"contains_sqrt5": "maybe", "degree": 0})),
        SchemaError, "g: arg 'degree' must be a positive integer"),
    "arg-true": (
        lambda: doc(node("m", "Minkowski", {}, args={"n": True})),
        SchemaError, "m: arg 'n' must be a positive integer"),
    "arg-float": (
        lambda: doc(node("m", "Minkowski", {}, args={"n": 1.0})),
        SchemaError, "m: arg 'n' must be a positive integer"),
    "constraints-not-tags": (
        lambda: doc(node("e", "EquationCase", {},
                         args={"p": 3, "n": 3, "d": 4, "constraints": "e = 2"})),
        SchemaError, "e: constraints must be a list of tag strings"),
    "constraint-tag-unknown": (
        lambda: doc(node("e", "EquationCase", {},
                         args={"p": 3, "n": 3, "d": 4, "constraints": ["e even", "bogus"]})),
        SchemaError, "e: unknown constraint tag 'bogus'"),
    "constraint-tag-not-decimal": (
        lambda: doc(node("e", "EquationCase", {},
                         args={"p": 3, "n": 3, "d": 4, "constraints": ["e = x"]})),
        SchemaError, "e: constraint tag 'e = x' needs a plain decimal constant"),
    "constraint-tag-past-digit-limit": (
        lambda: doc(node("e", "EquationCase", {},
                         args={"p": 3, "n": 3, "d": 4, "constraints": ["t >= " + "7" * 5000]})),
        SchemaError, "e: constraint tag %r needs a plain decimal constant" % ("t >= " + "7" * 5000)),
    "equation-even-p": (
        lambda: doc(node("e", "EquationCase", {}, args={"p": 2, "n": 3, "d": 4})),
        SchemaError, "e: EquationCase needs an odd prime p"),
    "equation-p-past-domain": (
        lambda: doc(node("e", "EquationCase", {}, args={"p": 2**61 - 1, "n": 3, "d": 4})),
        SchemaError, "e: EquationCase p must be below 10^8"),
    "equation-p-10^8": (
        lambda: doc(node("e", "EquationCase", {}, args={"p": 10**8, "n": 3, "d": 4})),
        SchemaError, "e: EquationCase p must be below 10^8"),
    "equation-bad-tag-and-even-p": (
        lambda: doc(node("e", "EquationCase", {},
                         args={"p": 2, "n": 3, "d": 4, "constraints": ["bogus"]})),
        SchemaError, "e: unknown constraint tag 'bogus'"),
    "scaled-num-past-domain": (
        lambda: doc(node("s", "ScaledProduct", {}, args={"num": 2**61 - 1, "den": 1})),
        SchemaError, "s: arg 'num' has a prime factor of 10^8 or more"),
    "scaled-num-undecided": (
        lambda: doc(node("s", "ScaledProduct", {}, args={"num": 3 * (2**89 - 1), "den": 1})),
        SchemaError, "s: arg 'num': a cofactor of 89 bits is a strong probable prime past "
        "3317044064679887385961981, where primality is not decided"),
    "scaled-den-past-domain": (
        lambda: doc(node("s", "ScaledProduct", {}, args={"num": 1, "den": 2 * 100000007})),
        SchemaError, "s: arg 'den' has a prime factor of 10^8 or more"),
    "children-not-ids": (
        lambda: _edit("p", "Product", {}, _set("children", "a")),
        SchemaError, "p: children must be a list of ids"),
    "children-empty-string": (
        lambda: _edit("p", "Product", {}, _set("children", "")),
        SchemaError, "p: children must be a list of ids"),
    "children-empty-object": (
        lambda: _edit("p", "Product", {}, _set("children", {})),
        SchemaError, "p: children must be a list of ids"),
    "leaf-with-children": (
        lambda: doc(node("a", "Constant", {}), node("b", "Constant", {}, children=["a"])),
        SchemaError, "b: Constant takes no children"),
    "inner-without-children": (
        lambda: doc(node("m", "Max", {})), SchemaError, "m: Max needs children"),
    "declared-not-map": (
        lambda: _edit("c", "Constant", {}, _set("declared", [[2, 1]])),
        BadDeclaredValue, "c: declared must be a map prime -> exponent"),
    "declared-key-not-digits": (
        lambda: _edit("c", "Constant", {}, _set("declared", {"two": 1})),
        BadDeclaredValue, "c: declared key 'two' is not a prime string"),
    "declared-key-superscript-digit": (
        lambda: _edit("c", "Constant", {}, _set("declared", {"\u00b2": 1})),
        BadDeclaredValue, "c: declared key '\u00b2' is not a prime string"),
    "declared-key-too-long": (
        lambda: _edit("c", "Constant", {}, _set("declared", {"1" + "0" * 4999: 1})),
        BadDeclaredValue, "c: declared key of 5000 digits is not a prime below 10^8"),
    "declared-key-13-digit-prime": (
        lambda: _edit("c", "Constant", {}, _set("declared", {"1000000000039": 1})),
        BadDeclaredValue, "c: declared key of 13 digits is not a prime below 10^8"),
    "declared-key-not-prime": (
        lambda: _edit("c", "Constant", {}, _set("declared", {"4": 1})),
        BadDeclaredValue, "c: declared key 4 is not prime"),
    "declared-exponent": (
        lambda: _edit("c", "Constant", {}, _set("declared", {"2": 0})),
        BadDeclaredValue, "c: declared exponent for 2 must be a positive integer"),
    "declared-exponent-true": (
        lambda: _edit("c", "Constant", {}, _set("declared", {"2": True})),
        BadDeclaredValue, "c: declared exponent for 2 must be a positive integer"),
    "declared-exponent-float": (
        lambda: _edit("c", "Constant", {}, _set("declared", {"2": 1.0})),
        BadDeclaredValue, "c: declared exponent for 2 must be a positive integer"),
    "declared-duplicate-prime": (
        lambda: _edit("c", "Constant", {}, _set("declared", {"2": 1, "02": 1})),
        BadDeclaredValue, "c: duplicate prime 02 in declared"),
    "repeat-exponent-true": (
        lambda: _repeat({"2": True}),
        BadDeclaredValue, "b: declared exponent for 2 must be a positive integer"),
    "repeat-exponent-float": (
        lambda: _repeat({"2": 10.0}),
        BadDeclaredValue, "b: declared exponent for 2 must be a positive integer"),
    "repeat-other-map": (
        lambda: _repeat({"2": 9}),
        BadDeclaredValue, "b: decimal '1 024' does not match declared factorization (512)"),
    "repeat-extra-prime": (
        lambda: _repeat({"2": 10, "3": 1}),
        BadDeclaredValue, "b: decimal '1 024' does not match declared factorization (3 072)"),
    "repeat-key-not-prime": (
        lambda: _repeat({"4": 5}), BadDeclaredValue, "b: declared key 4 is not prime"),
    "repeat-not-map": (
        lambda: _repeat([["2", 10]]),
        BadDeclaredValue, "b: declared must be a map prime -> exponent"),
    "decimal-not-string": (
        lambda: _edit("c", "Constant", {"2": 3}, _set("decimal", 8)),
        BadDeclaredValue, "c: decimal must be a string"),
    "decimal-mismatch": (
        lambda: _edit("c", "Constant", {"2": 20}, _set("decimal", "1048576")),
        BadDeclaredValue,
        "c: decimal '1048576' does not match declared factorization (1 048 576)"),
    "citation-not-string": (
        lambda: _edit("c", "Constant", {}, _set("citation", None)),
        SchemaError, "c: citation must be a string"),
    "citation-lone-surrogate": (
        lambda: _edit("c", "Constant", {}, _set("citation", "lemme \u00e9 \udfff")),
        SchemaError, "'c': citation holds a lone surrogate"),
    "optional-not-string": (
        lambda: doc(node("c", "Constant", {}, note=5)),
        SchemaError, "c: note must be a string"),
    "optional-null": (
        lambda: doc(node("c", "Constant", {}, paper_prints=None)),
        SchemaError, "c: paper_prints must be a string"),
    "optional-null-both": (
        lambda: doc(node("c", "Constant", {}, note=None, paper_prints=None)),
        SchemaError, "c: paper_prints must be a string"),
    "note-lone-surrogate": (
        lambda: doc(node("c", "Constant", {}, note="\udc80")),
        SchemaError, "'c': note holds a lone surrogate"),
    "dangling-child": (
        lambda: doc(node("m", "Max", {"2": 1}, children=["ghost"])),
        DanglingChild, "m: child 'ghost' does not exist"),
    "cycle": (
        lambda: doc(node("a", "Max", {"2": 1}, children=["b"]),
                    node("b", "Max", {"2": 1}, children=["a"])),
        CycleError, "cycle through 'b' and 'a'"),
    "appendix-too-few-children": (
        lambda: _appendix({"n": 3, "d_max": 3}, ["r1", "r2"]),
        SchemaError, "a: AppendixProp has 2 children, not d_max = 3"),
    "appendix-too-many-children": (
        lambda: _appendix({"n": 3, "d_max": 1}, ["r1", "r2"]),
        SchemaError, "a: AppendixProp has 2 children, not d_max = 1"),
    "appendix-row-wrong-d": (
        lambda: _appendix({"n": 3, "d_max": 2}, ["m", "r1"]),
        SchemaError, "a: child 'r1' must have n = 3, d = 2"),
    "appendix-row-wrong-n": (
        lambda: _appendix({"n": 4, "d_max": 2}, ["r1", "r2"]),
        SchemaError, "a: child 'r1' must have n = 4, d = 1"),
    "root-not-node": (
        lambda: doc(node("c", "Constant", {}), root="missing"),
        SchemaError, "root 'missing' is not a node id"),
    "whitelist-not-ids": (
        lambda: {"schema_version": 1, "nodes": [], "whitelist": "c"},
        SchemaError, "whitelist must be a list of ids"),
    "whitelist-unknown-id": (
        lambda: doc(node("c", "Constant", {}), whitelist=["missing"]),
        SchemaError, "whitelisted id 'missing' is not a node"),
    "whitelist-duplicate": (
        lambda: doc(node("c", "Constant", {}), whitelist=["c", "c"]),
        SchemaError, "duplicate whitelist entry"),
}


@pytest.mark.parametrize("case", sorted(_LOADER_ERRORS))
def test_loader_error_class_and_message(case):
    source, exc, message = _LOADER_ERRORS[case]
    with pytest.raises(LedgerError) as info:
        load_ledger(source())
    assert type(info.value) is exc
    assert str(info.value) == message


@pytest.mark.parametrize("case", sorted(c for c in _LOADER_ERRORS if c.startswith("repeat-")))
def test_a_repeated_decimal_raises_what_a_first_occurrence_raises(case):
    document = _LOADER_ERRORS[case][0]()
    messages = []
    for source in (document, doc(document["nodes"][1])):
        with pytest.raises(BadDeclaredValue) as info:
            load_ledger(source)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


# --------------------------------------------------- constructor messages
#
# LedgerNode and Ledger built directly from an invalid value raise what the
# loader raises for the same fault in a document: the class and message of
# the _LOADER_ERRORS case named, or, for a fault only a built value can
# have, the class and message given.

def _bnode(nid, kind, args=None, children=(), declared=ONE, citation="crafted for tests"):
    return LedgerNode(nid, kind, {} if args is None else args, children, declared, citation)


def _built(*nodes, version=1, root=None, whitelist=()):
    return Ledger(version, root, whitelist, {n.id: n for n in nodes})


_CONSTANT = _bnode("c", "Constant")
_BUILT_ERRORS = {
    "unknown-kind": (lambda: _bnode("x", "Banana"), "unknown-kind"),
    "args-missing": (lambda: _bnode("m", "Minkowski", {}), "args-missing"),
    "args-extra": (lambda: _bnode("m", "Minkowski", {"n": 1, "d": 2}), "args-keys"),
    "arg-not-positive": (lambda: _bnode("m", "Minkowski", {"n": 0}), "arg-not-positive"),
    "arg-true": (lambda: _bnode("m", "Minkowski", {"n": True}), "arg-true"),
    "constraints-not-tags": (
        lambda: _bnode("e", "EquationCase", {"p": 3, "n": 3, "d": 4, "constraints": "e = 2"}),
        "constraints-not-tags"),
    "bad-tag": (
        lambda: _bnode("e", "EquationCase",
                       {"p": 3, "n": 3, "d": 4, "constraints": ["e even", "bogus"]}),
        "constraint-tag-unknown"),
    "even-p": (lambda: _bnode("e", "EquationCase", {"p": 2, "n": 3, "d": 4}), "equation-even-p"),
    "children-not-ids": (lambda: _bnode("p", "Product", children="a"), "children-not-ids"),
    "leaf-with-children": (
        lambda: _built(_bnode("a", "Constant"), _bnode("b", "Constant", children=("a",))),
        "leaf-with-children"),
    "inner-without-children": (lambda: _built(_bnode("m", "Max")), "inner-without-children"),
    "empty-id": (lambda: _bnode("", "Constant"), "empty-id"),
    "citation-lone-surrogate": (
        lambda: _bnode("c", "Constant", citation="lemme \u00e9 \udfff"),
        "citation-lone-surrogate"),
    "declared-not-a-value": (
        lambda: _bnode("c", "Constant", declared=8),
        (BadDeclaredValue, "c: declared must be a FactoredInteger")),
    "dangling-child": (
        lambda: _built(_bnode("m", "Max", children=("ghost",))), "dangling-child"),
    "two-node-cycle": (
        lambda: _built(_bnode("a", "Max", children=("b",)), _bnode("b", "Max", children=("a",))),
        "cycle"),
    "appendix-row-wrong-n": (
        lambda: _built(_bnode("r1", "SchurRough", {"n": 3, "d": 1}),
                       _bnode("a", "AppendixProp", {"n": 4, "d_max": 1}, children=("r1",))),
        (SchemaError, "a: child 'r1' must have n = 4, d = 1")),
    "key-not-id": (
        lambda: Ledger(1, None, (), {"k": _CONSTANT}),
        (SchemaError, "nodes['k'] is no LedgerNode of that id")),
    "value-not-node": (
        lambda: Ledger(1, None, (), {"c": "c"}),
        (SchemaError, "nodes['c'] is no LedgerNode of that id")),
    "nodes-not-mapping": (
        lambda: Ledger(1, None, (), [_CONSTANT]),
        (SchemaError, "nodes must map ids to nodes")),
    "root-not-node": (lambda: _built(_CONSTANT, root="missing"), "root-not-node"),
    "whitelist-unknown-id": (
        lambda: _built(_CONSTANT, whitelist=("missing",)), "whitelist-unknown-id"),
    "whitelist-duplicate": (
        lambda: _built(_CONSTANT, whitelist=("c", "c")), "whitelist-duplicate"),
    "schema-version-2": (lambda: _built(_CONSTANT, version=2), "schema-version"),
    "schema-version-true": (lambda: _built(version=True), "schema-version-true"),
}


@pytest.mark.parametrize("case", sorted(_BUILT_ERRORS))
def test_constructors_raise_the_loader_class_and_message(case):
    build, expected = _BUILT_ERRORS[case]
    exc, message = _LOADER_ERRORS[expected][1:] if isinstance(expected, str) else expected
    with pytest.raises(LedgerError) as info:
        build()
    assert type(info.value) is exc
    assert str(info.value) == message


def test_pickle_and_deepcopy_rebuild_the_paper_ledger_through_the_constructors():
    original = paper_ledger()
    verify_ledger(original)  # a warm memo is not carried over
    for twin in (pickle.loads(pickle.dumps(original)), copy.deepcopy(original)):
        assert type(twin) is Ledger and twin == original and twin.node_values == {}
        # _parsed is no field: only LedgerNode's constructor can have filled it
        parsed = [n._parsed for n in twin.nodes.values()
                  if n.kind in ("EquationCase", "ScaledProduct")]
        assert len(parsed) == 74 + 18 and None not in parsed
        report = verify_ledger(twin)
        counts = {"Match": 0, "Mismatch": 0, "Unchecked": 0}
        for row in report.rows:
            counts[row.status] += 1
        assert counts == {"Match": 167, "Unchecked": 49, "Mismatch": 2}
        assert {r.id for r in report.mismatches()} == set(twin.whitelist)
        assert final_bound(twin) == fi(24103053950976000)


def test_nodes_and_args_are_read_only_views_of_the_constructors_copies():
    ledger = paper_ledger()
    with pytest.raises(TypeError):
        del ledger.nodes["g10"]
    with pytest.raises(TypeError):
        ledger.nodes["g10"] = ledger.nodes["theorem-cr3"]
    with pytest.raises(TypeError):
        ledger.nodes["sch3-d12-final"].args["n"] = 4
    assert final_bound(ledger) == fi(24103053950976000)
    # what the caller handed in stays the caller's
    args, nodes = {"n": 3}, {}
    leaf = LedgerNode("m", "Minkowski", args, (), fi(48), "cite")
    nodes["m"] = leaf
    small = Ledger(1, "m", (), nodes)
    args["n"], nodes["x"] = 4, leaf
    assert dict(leaf.args) == {"n": 3} and list(small.nodes) == ["m"]
    assert final_bound(small) == fi(48)
    # a node's own args build a node again
    assert LedgerNode(leaf.id, leaf.kind, leaf.args, (), leaf.declared, leaf.citation) == leaf
