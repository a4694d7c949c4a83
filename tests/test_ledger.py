from __future__ import annotations

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glbounds.exactnum import DomainError, FactoredInteger, ONE, fi_to_decimal
from glbounds.ledger import (
    KINDS,
    BadDeclaredValue,
    CycleError,
    DanglingChild,
    LedgerError,
    ScaleNotExact,
    SchemaError,
    _dumps_indented,
    dumps_ledger,
    eval_node,
    explain,
    final_bound,
    load_ledger,
    paper_ledger,
    to_document,
    verify_ledger,
)


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
    by_path = load_ledger(str(path))
    for ledger in (by_dict, by_string, by_path):
        assert ledger.root == "c"
        assert ledger.nodes["c"].declared == fi(8)
    with pytest.raises(SchemaError):
        load_ledger(42)


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
    # prime factors must lie below 10^8, the domain of declared keys
    assert final_bound(ledger, {"a": 99999989 * 2}) == fi(99999989 * 2)
    for big in (100000007, 2 * 100000007, 3**40 * 100000037):
        with pytest.raises(LedgerError) as info:
            final_bound(ledger, {"a": big})
        assert str(info.value) == "override for 'a' has a prime factor of 10^8 or more"


def test_final_bound_needs_root():
    ledger = load_ledger(doc(node("c", "Constant", {})))
    with pytest.raises(LedgerError):
        final_bound(ledger)


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


# Text for the string encoder: non-ASCII, quotes, backslashes and control
# characters, besides whatever hypothesis draws.
_text = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'), st.characters()),
    max_size=12,
)
_HUGE = fi_to_decimal(FactoredInteger.from_map({2: 14999, 5: 14999, 3: 1}), group=True)
_ledger_node = st.fixed_dictionaries(
    {
        "id": _text,
        "kind": st.sampled_from(sorted(KINDS)),
        "args": st.dictionaries(
            _text,
            st.one_of(st.integers(min_value=1, max_value=10**6), _text,
                      st.lists(_text, max_size=3)),  # constraint lists
            max_size=4,
        ),
        "children": st.lists(_text, max_size=3),
        "declared": st.dictionaries(st.integers(min_value=2, max_value=10**8).map(str),
                                    st.integers(min_value=1, max_value=20000), max_size=4),
        "decimal": st.one_of(_text, st.just(_HUGE)),
        "citation": _text,
    },
    optional={"paper_prints": _text, "note": _text},
)
_ledger_document = st.fixed_dictionaries(
    {"schema_version": st.just(1), "whitelist": st.lists(_text, max_size=2),
     "nodes": st.lists(_ledger_node, max_size=4)},
    optional={"root": _text},
)
_any_json = st.recursive(
    st.one_of(_text, st.integers(), st.booleans(), st.none(), st.floats()),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(_text, inner, max_size=4)),
    max_leaves=20,
)


@given(st.one_of(_ledger_document, _any_json))
@example({"schema_version": 1, "whitelist": [], "nodes": [
    {"id": "", "kind": "Max", "args": {}, "children": [], "declared": {},
     "decimal": _HUGE, "citation": "\u00e9 \"q\" \\ \x01"}]})
def test_emitter_matches_json_dumps(document):
    assert _dumps_indented(document) == json.dumps(document, indent=2, ensure_ascii=False)


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


def test_each_declared_value_is_rendered_once_per_load_and_per_export(monkeypatch):
    import glbounds.ledger as ledger_mod

    text = dumps_ledger(paper_ledger())
    calls = []
    real = ledger_mod.fi_to_decimal

    def counting(value, group=False):
        calls.append(value)
        return real(value, group)

    monkeypatch.setattr(ledger_mod, "fi_to_decimal", counting)
    loaded = load_ledger(json.loads(text))
    assert len(loaded.order) == 218
    assert len(calls) == len({node.declared for node in loaded.nodes.values()}) == 99
    calls.clear()
    assert dumps_ledger(loaded) == text
    assert len(calls) == 99


def test_a_repeated_value_with_a_wrong_decimal_is_still_refused():
    first = node("a", "Constant", {"2": 10, "3": 1})
    again = dict(node("b", "Constant", {"3": 1, "02": 10}), decimal="3072")
    with pytest.raises(BadDeclaredValue) as info:
        load_ledger(doc(first, again))
    assert str(info.value) == (
        "b: decimal '3072' does not match declared factorization (3 072)")


def test_each_leaf_bound_is_computed_once_per_ledger(monkeypatch):
    import glbounds.ledger as ledger_mod

    calls = []
    real = ledger_mod.max_schur_exponent

    def counting(p, n, d, *rest, **kw):
        calls.append((p, n, d))
        return real(p, n, d, *rest, **kw)

    monkeypatch.setattr(ledger_mod, "max_schur_exponent", counting)
    fresh = paper_ledger()
    cases = [nid for nid in fresh.order if fresh.nodes[nid].kind == "EquationCase"]
    assert cases
    verify_ledger(fresh)
    assert final_bound(fresh) == fi(24103053950976000)
    assert final_bound(fresh, {"g10": 0}) == fi(735746457600)
    final_bound(fresh, {cases[0]: 1})
    final_bound(fresh, {"theorem-cr3": 6})
    assert len(calls) == len(cases)


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


def test_a_what_if_recombines_only_the_overridden_ancestors(monkeypatch):
    import glbounds.ledger as ledger_mod

    warm = paper_ledger()
    assert final_bound(warm) == fi(24103053950976000)
    assert warm.root in warm.node_values and "g10" in warm.node_values
    ancestors, frontier = set(), {"g10"}
    while frontier:
        frontier = {nid for nid in warm.order
                    if set(warm.nodes[nid].children) & frontier} - ancestors
        ancestors |= frontier
    combined = []
    real = ledger_mod._combine

    def counting(node, kids):
        combined.append(node.id)
        return real(node, kids)

    monkeypatch.setattr(ledger_mod, "_combine", counting)
    before = dict(warm.node_values)
    assert final_bound(warm, {"g10": 0}) == fi(735746457600)
    assert final_bound(warm) == fi(24103053950976000)
    assert sorted(combined) == sorted(ancestors)
    assert warm.node_values == before


# Generated ledgers of the combinators on Constants: levels of one to three
# nodes, each node taking a child from the level below and up to two more
# from anywhere beneath, so children are shared; shuffled into document
# order, so verify_ledger meets parents before their children.  Every choice
# is one integer draw, which keeps generation cheap.
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
    "scaled-num-past-domain": (
        lambda: doc(node("s", "ScaledProduct", {}, args={"num": 2**61 - 1, "den": 1})),
        SchemaError, "s: arg 'num' has a prime factor of 10^8 or more"),
    "scaled-den-past-domain": (
        lambda: doc(node("s", "ScaledProduct", {}, args={"num": 1, "den": 2 * 100000007})),
        SchemaError, "s: arg 'den' has a prime factor of 10^8 or more"),
    "children-not-ids": (
        lambda: _edit("p", "Product", {}, _set("children", "a")),
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
    "declared-duplicate-prime": (
        lambda: _edit("c", "Constant", {}, _set("declared", {"2": 1, "02": 1})),
        BadDeclaredValue, "c: duplicate prime 02 in declared"),
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
    "optional-not-string": (
        lambda: doc(node("c", "Constant", {}, note=5)),
        SchemaError, "c: note must be a string"),
    "dangling-child": (
        lambda: doc(node("m", "Max", {"2": 1}, children=["ghost"])),
        DanglingChild, "m: child 'ghost' does not exist"),
    "cycle": (
        lambda: doc(node("a", "Max", {"2": 1}, children=["b"]),
                    node("b", "Max", {"2": 1}, children=["a"])),
        CycleError, "cycle through 'b' and 'a'"),
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
