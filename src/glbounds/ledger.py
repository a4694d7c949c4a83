"""Bound-composition DAG: load, evaluate, verify, explain.

A ledger is a JSON document holding a list of nodes.  Leaves are either
plain constants or recomputable quantities (Minkowski products, rough
table rows, degree-only PGL2/GL2 maxima, single standard-equation
cases); inner nodes combine children by product, maximum, or an exact
integer scaling i/r.  Every node carries the value it is supposed to
have, in factored form, so the whole case analysis can be replayed and
audited step by step.

Each kind is one record of the table KINDS: its argument keys, leaf or
inner, an extra load check if it has one, and how it evaluates from its
children's values.  The loader and the evaluator read kinds only there.
"""

from __future__ import annotations

import json
import os
import sys
from collections.abc import Iterable, Mapping
from json.encoder import encode_basestring

from .cyclotomic import DegreeOnly, QQ, TRISTATE
from .diophantine import SolutionConstraints, max_schur_exponent
from .exactnum import (
    ONE,
    DomainError,
    FactoredInteger,
    NonDivisible,
    Value,
    _factor_below,
    fi_cmp,
    fi_div_exact,
    fi_mul,
    fi_to_decimal,
    fi_to_factored_str,
    is_prime,
)
from .bounds import (
    gl2_max_order,
    minkowski_bound,
    pgl2_admissible,
    rough_bound,
    serre_bound,
)


class LedgerError(ValueError):
    """Base class for everything the loader or evaluator can reject."""


class SchemaError(LedgerError):
    pass


class CycleError(LedgerError):
    pass


class DanglingChild(LedgerError):
    pass


class BadDeclaredValue(LedgerError):
    pass


class ScaleNotExact(LedgerError):
    pass


SCHEMA_VERSION = 1

_NODE_FIELDS = frozenset(
    {"id", "kind", "args", "children", "declared", "decimal", "citation"}
)
_NODE_OPTIONAL = frozenset({"paper_prints", "note"})
_NODE_ALLOWED = _NODE_FIELDS | _NODE_OPTIONAL  # built once, not per node
# yes/no/unknown arguments; every other but "constraints" is a positive integer
_TRISTATE_ARGS = frozenset({"minus1_sum_of_two_squares", "contains_sqrt5"})


class LedgerNode(Value):
    __slots__ = _fields = (
        "id", "kind", "args", "children", "declared", "citation", "paper_prints", "note"
    )

    def __init__(
        self,
        id: str,
        kind: str,
        args: Mapping[str, object],
        children: tuple[str, ...],
        declared: FactoredInteger,
        citation: str,
        paper_prints: str | None = None,
        note: str | None = None,
    ):
        # Each slot's own setter, bound once below the class: cheaper than
        # object.__setattr__, and the loader builds one node per entry.
        _set_id(self, id)
        _set_kind(self, kind)
        _set_args(self, args)
        _set_children(self, children)
        _set_declared(self, declared)
        _set_citation(self, citation)
        _set_paper_prints(self, paper_prints)
        _set_note(self, note)


(_set_id, _set_kind, _set_args, _set_children, _set_declared, _set_citation,
 _set_paper_prints, _set_note) = [LedgerNode.__dict__[name].__set__ for name in LedgerNode._fields]


class Ledger(Value):
    """Validated DAG.  `order` preserves document order.

    The document is immutable once loaded, but the ledger memoizes what it
    computes: `node_values` maps a node's id to its value without overrides,
    leaf or inner, filled by whichever evaluation reaches the node first.
    Repeated verify / final / explain calls on one ledger therefore compute
    each node once.  A what-if recomputes only the overridden nodes and
    their ancestors, in a memo of its own, and reads every other node from
    `node_values`; override-derived values never enter it.  The memo and the
    parent lists a what-if walks are no constructor arguments and take no
    part in ==, hash or repr.
    """

    _fields = ("schema_version", "root", "whitelist", "nodes", "order")
    __slots__ = _fields + ("node_values", "_parents")

    def __init__(
        self,
        schema_version: int,
        root: str | None,
        whitelist: tuple[str, ...],
        nodes: Mapping[str, LedgerNode],
        order: tuple[str, ...],
    ):
        object.__setattr__(self, "schema_version", schema_version)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "whitelist", whitelist)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "node_values", {})
        object.__setattr__(self, "_parents", None)  # built by the first what-if


class VerificationRow(Value):
    __slots__ = _fields = ("id", "declared", "computed", "status", "annotation")

    def __init__(
        self,
        id: str,
        declared: FactoredInteger,
        computed: FactoredInteger,
        status: str,  # Match | Mismatch | Unchecked
        annotation: str | None = None,
    ):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "declared", declared)
        object.__setattr__(self, "computed", computed)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "annotation", annotation)


class VerificationReport(Value):
    __slots__ = _fields = ("rows",)

    def __init__(self, rows: tuple[VerificationRow, ...]):
        object.__setattr__(self, "rows", rows)

    def mismatches(self) -> list[VerificationRow]:
        return [r for r in self.rows if r.status == "Mismatch"]

    def unexpected(self, whitelist: Iterable[str]) -> list[VerificationRow]:
        allowed = set(whitelist)
        return [r for r in self.mismatches() if r.id not in allowed]


# ---------------------------------------------------------------- node kinds

class _Kind:
    """One node kind: the argument keys it requires and allows, leaf (no
    children) or inner (at least one child), an optional check(node_id, args)
    run last among the loader's argument checks, and value(node, kids), the
    node's value from its children's values in child order."""

    __slots__ = ("required", "allowed", "leaf", "check", "value")

    def __init__(self, value, *, required=(), optional=(), leaf=True, check=None):
        self.required = frozenset(required)
        self.allowed = self.required | frozenset(optional)
        self.leaf = leaf
        self.check = check
        self.value = value


# is_prime and trial division are cheap only inside the domain of declared
# keys, primes below 10^8.
def _check_equation_case(node_id: str, args: dict) -> None:
    if args["p"] >= 10**8:
        raise SchemaError("%s: EquationCase p must be below 10^8" % node_id)
    if not (args["p"] % 2 == 1 and is_prime(args["p"])):
        raise SchemaError("%s: EquationCase needs an odd prime p" % node_id)


def _check_scaled_product(node_id: str, args: dict) -> None:
    for key in ("num", "den"):
        if _factor_below(args[key], 10**8)[1] != 1:
            raise SchemaError("%s: arg %r has a prime factor of 10^8 or more" % (node_id, key))


# Value functions reach the bound functions, fi_mul and fi_cmp through this
# module's globals at call time, so whatever is bound to those names here runs.

def _equation_case(node: LedgerNode, kids) -> FactoredInteger:
    """p to the largest exponent the standard equation allows for p."""
    args = node.args
    n, t_max = args["n"], args.get("t_max")
    if t_max is None or t_max > n:
        t_max = n  # what max_schur_exponent clamps to, so it builds no second record
    c = SolutionConstraints(e_min=args.get("e_min", 1), t_max=t_max,
                            extra=tuple(args.get("constraints", ())))
    exponent = max_schur_exponent(args["p"], n, args["d"], c)
    if exponent == 0:
        return ONE
    return FactoredInteger._trusted(((args["p"], exponent),))  # p was checked at load


def _product(node: LedgerNode, kids: list[FactoredInteger]) -> FactoredInteger:
    value = kids[0]
    for kid in kids[1:]:
        value = fi_mul(value, kid)
    return value


def _max(node: LedgerNode, kids: list[FactoredInteger]) -> FactoredInteger:
    value = kids[0]
    for kid in kids[1:]:
        if fi_cmp(kid, value) > 0:
            value = kid
    return value


def _scaled_product(node: LedgerNode, kids: list[FactoredInteger]) -> FactoredInteger:
    num, den = node.args["num"], node.args["den"]
    value = fi_mul(FactoredInteger.from_int(num), _product(node, kids))
    try:
        return fi_div_exact(value, FactoredInteger.from_int(den))
    except NonDivisible:
        raise ScaleNotExact("%s: %d/%d of the child product is not an integer"
                            % (node.id, num, den)) from None


# Kind name -> record.  AppendixProp evaluates as Max; its n and d_max are
# required but never read, kept so the file states which proposition it is.
KINDS = {
    "Constant": _Kind(lambda node, kids: node.declared),
    "Minkowski": _Kind(lambda node, kids: minkowski_bound(node.args["n"]), required={"n"}),
    "SchurRough": _Kind(
        lambda node, kids: rough_bound(node.args["n"], node.args["d"]), required={"n", "d"}),
    "SerreQ": _Kind(lambda node, kids: serre_bound(node.args["n"], QQ), required={"n"}),
    "Pgl2": _Kind(  # the arg keys are DegreeOnly's parameters
        lambda node, kids: pgl2_admissible(DegreeOnly(**node.args))[1],
        required={"degree"}, optional=_TRISTATE_ARGS),
    "Gl2": _Kind(lambda node, kids: gl2_max_order(node.args["degree"]), required={"degree"}),
    "EquationCase": _Kind(
        _equation_case, required={"p", "n", "d"}, optional={"e_min", "t_max", "constraints"},
        check=_check_equation_case),
    "Product": _Kind(_product, leaf=False),
    "Max": _Kind(_max, leaf=False),
    "AppendixProp": _Kind(_max, required={"n", "d_max"}, leaf=False),
    "ScaledProduct": _Kind(
        _scaled_product, required={"num", "den"}, leaf=False, check=_check_scaled_product),
}


# ------------------------------------------------------------------- loading
#
# Each check raises with its message built only on failure: the loader runs
# dozens of checks per node, and formatting a message costs more than the test.

def _is_int(x) -> bool:
    return type(x) is int


def _check_args(node_id: str, kind: str, spec: _Kind, args) -> dict:
    if not isinstance(args, dict):
        raise SchemaError("%s: args must be an object" % node_id)
    keys = args.keys()
    if not spec.required <= keys <= spec.allowed:
        raise SchemaError(
            "%s: %s args must have %s, got %s"
            % (node_id, kind, sorted(spec.required), sorted(keys))
        )
    # Keys are checked in document order, so the first bad one is named.
    for key, value in args.items():
        if (key not in _TRISTATE_ARGS and key != "constraints"
                and not (_is_int(value) and value >= 1)):
            raise SchemaError("%s: arg %r must be a positive integer" % (node_id, key))
    for key, value in args.items():
        if key in _TRISTATE_ARGS and value not in TRISTATE:
            raise SchemaError("%s: arg %r must be yes/no/unknown" % (node_id, key))
    if "constraints" in keys:
        tags = args["constraints"]
        if not (isinstance(tags, list) and all(isinstance(t, str) for t in tags)):
            raise SchemaError("%s: constraints must be a list of tag strings" % node_id)
        try:
            SolutionConstraints(extra=tuple(tags))  # parses every tag
        except DomainError as exc:
            raise SchemaError("%s: %s" % (node_id, exc)) from None
    if spec.check is not None:
        spec.check(node_id, args)
    return dict(args)


def _parse_declared(
    node_id: str,
    raw,
    decimal,
    primes: dict[str, int],
    rendered: dict[tuple, tuple[FactoredInteger, str]],
) -> FactoredInteger:
    """The declared value, checked against its decimal.

    primes maps each declared key already accepted during this load to its
    prime, so a key repeated across nodes is parsed and prime-tested once.
    rendered maps each factors tuple already seen during this load to its
    value and grouped decimal, so a value repeated across nodes is rendered
    once and every node declaring it shares one FactoredInteger.
    """
    if not isinstance(raw, dict):
        raise BadDeclaredValue("%s: declared must be a map prime -> exponent" % node_id)
    factors: dict[int, int] = {}
    for key, exp in raw.items():
        p = primes.get(key)
        if p is None:
            # isdigit alone also accepts non-ASCII digits such as "²", which int() refuses.
            if not (isinstance(key, str) and key.isascii() and key.isdigit()):
                raise BadDeclaredValue(
                    "%s: declared key %r is not a prime string" % (node_id, key))
            # is_prime's domain ends below 10**8; longer keys are refused unparsed.
            digits = key.lstrip("0")
            if len(digits) > 8:
                raise BadDeclaredValue(
                    "%s: declared key of %d digits is not a prime below 10^8"
                    % (node_id, len(digits))
                )
            p = int(digits or "0")
            if not is_prime(p):
                raise BadDeclaredValue("%s: declared key %s is not prime" % (node_id, key))
            primes[key] = p
        if not (_is_int(exp) and exp >= 1):
            raise BadDeclaredValue(
                "%s: declared exponent for %s must be a positive integer" % (node_id, key)
            )
        if p in factors:
            raise BadDeclaredValue("%s: duplicate prime %s in declared" % (node_id, key))
        factors[p] = exp
    if not isinstance(decimal, str):
        raise BadDeclaredValue("%s: decimal must be a string" % node_id)
    key = tuple(sorted(factors.items()))
    seen = rendered.get(key)
    if seen is None:
        # Prime bases, positive exponents, no prime twice: the checks above
        # are the validation, so sorting is all that is left.
        value = FactoredInteger._trusted(key)
        seen = rendered[key] = (value, fi_to_decimal(value, group=True))
    value, expect = seen
    if decimal != expect:
        raise BadDeclaredValue(
            "%s: decimal %r does not match declared factorization (%s)"
            % (node_id, decimal, expect)
        )
    return value


def _check_acyclic(nodes: Mapping[str, LedgerNode]):
    # Iterative three-color DFS; recursion depth is unbounded by schema.
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {nid: WHITE for nid in nodes}
    for start in nodes:
        if color[start] != WHITE:
            continue
        stack: list[tuple[str, int]] = [(start, 0)]
        while stack:
            nid, i = stack.pop()
            if i == 0:
                color[nid] = GRAY
            kids = nodes[nid].children
            if i < len(kids):
                stack.append((nid, i + 1))
                kid = kids[i]
                if color[kid] == GRAY:
                    raise CycleError("cycle through %r and %r" % (nid, kid))
                if color[kid] == WHITE:
                    stack.append((kid, 0))
            else:
                color[nid] = BLACK


def _decode(parse, source):
    """parse(source), with every way JSON decoding fails as a SchemaError:
    bad syntax, bytes that are not UTF-8, nesting past the recursion limit,
    an integer past the str-digit limit."""
    try:
        return parse(source)
    except (ValueError, RecursionError) as exc:
        raise SchemaError("ledger is not valid JSON: %s" % exc) from None


def load_ledger(source) -> Ledger:
    """Parse and validate a ledger document.

    Accepts an already-parsed mapping, JSON text (a string whose first
    non-blank character is {, [ or "), or a filesystem path.  All
    structural and declared-value invariants are checked here so that
    evaluation can assume a well-formed DAG.
    """
    if isinstance(source, (str, os.PathLike)) and not isinstance(source, Mapping):
        text = str(source)
        if isinstance(source, os.PathLike) or not text.lstrip().startswith(("{", "[", '"')):
            with open(source, "r", encoding="utf-8") as handle:
                doc = _decode(json.load, handle)
        else:
            doc = _decode(json.loads, text)
    elif isinstance(source, Mapping):
        doc = source
    else:
        raise SchemaError("unsupported ledger source %r" % type(source))

    if not isinstance(doc, dict):
        raise SchemaError("document must be an object")
    extra = set(doc) - {"schema_version", "root", "whitelist", "nodes"}
    if extra:
        raise SchemaError("unknown top-level keys %s" % sorted(extra))
    version = doc.get("schema_version")
    if not (_is_int(version) and version == SCHEMA_VERSION):  # not True, not 1.0
        raise SchemaError("schema_version must be %d" % SCHEMA_VERSION)
    raw_nodes = doc.get("nodes")
    if not isinstance(raw_nodes, list):
        raise SchemaError("nodes must be a list")

    nodes: dict[str, LedgerNode] = {}
    order: list[str] = []
    primes: dict[str, int] = {}  # declared key -> its prime, for this load only
    rendered: dict[tuple, tuple[FactoredInteger, str]] = {}  # for this load only
    for raw in raw_nodes:
        if not isinstance(raw, dict):
            raise SchemaError("node entries must be objects")
        fields = raw.keys()
        if not _NODE_FIELDS <= fields <= _NODE_ALLOWED:
            raise SchemaError(
                "node fields must be %s (+ optional %s), got %s"
                % (sorted(_NODE_FIELDS), sorted(_NODE_OPTIONAL), sorted(fields))
            )
        nid = raw["id"]
        if not (isinstance(nid, str) and nid != ""):
            raise SchemaError("empty node id")
        if nid in nodes:
            raise SchemaError("duplicate node id %r" % nid)
        kind = raw["kind"]
        spec = KINDS.get(kind) if isinstance(kind, str) else None
        if spec is None:
            raise SchemaError("%s: unknown kind %r" % (nid, kind))
        args = _check_args(nid, kind, spec, raw["args"])
        children = raw["children"]
        if not (isinstance(children, list) and all(isinstance(c, str) for c in children)):
            raise SchemaError("%s: children must be a list of ids" % nid)
        if spec.leaf and children:
            raise SchemaError("%s: %s takes no children" % (nid, kind))
        if not (spec.leaf or children):
            raise SchemaError("%s: %s needs children" % (nid, kind))
        declared = _parse_declared(nid, raw["declared"], raw["decimal"], primes, rendered)
        citation = raw["citation"]
        if not isinstance(citation, str):
            raise SchemaError("%s: citation must be a string" % nid)
        for opt in ("paper_prints", "note"):
            if opt in fields and not isinstance(raw[opt], str):
                raise SchemaError("%s: %s must be a string" % (nid, opt))
        nodes[nid] = LedgerNode(
            id=nid,
            kind=kind,
            args=args,
            children=tuple(children),
            declared=declared,
            citation=citation,
            paper_prints=raw.get("paper_prints"),
            note=raw.get("note"),
        )
        order.append(nid)

    for node in nodes.values():
        for kid in node.children:
            if kid not in nodes:
                raise DanglingChild("%s: child %r does not exist" % (node.id, kid))
    _check_acyclic(nodes)

    root = doc.get("root")
    if root is not None and not (isinstance(root, str) and root in nodes):
        raise SchemaError("root %r is not a node id" % root)
    whitelist = doc.get("whitelist", [])
    if not (isinstance(whitelist, list) and all(isinstance(w, str) for w in whitelist)):
        raise SchemaError("whitelist must be a list of ids")
    for wid in whitelist:
        if wid not in nodes:
            raise SchemaError("whitelisted id %r is not a node" % wid)
    if len(set(whitelist)) != len(whitelist):
        raise SchemaError("duplicate whitelist entry")

    return Ledger(
        schema_version=SCHEMA_VERSION,
        root=root,
        whitelist=tuple(whitelist),
        nodes=nodes,
        order=tuple(order),
    )


# ---------------------------------------------------------------- evaluation

def _combine(node: LedgerNode, kids: list[FactoredInteger]) -> FactoredInteger:
    """Value of a node from its children's values, in child order (a leaf has none)."""
    return KINDS[node.kind].value(node, kids)


def _dirty(ledger: Ledger, overrides: Mapping[str, FactoredInteger]) -> set[str]:
    """The overridden nodes and all their ancestors: what a what-if changes."""
    parents = ledger._parents
    if parents is None:
        parents = {}
        for nid in ledger.order:
            for kid in ledger.nodes[nid].children:
                parents.setdefault(kid, []).append(nid)
        object.__setattr__(ledger, "_parents", parents)
    dirty = set(overrides)
    stack = list(dirty)
    while stack:
        for parent in parents.get(stack.pop(), ()):
            if parent not in dirty:
                dirty.add(parent)
                stack.append(parent)
    return dirty


def _eval(
    ledger: Ledger,
    nids: list[str] | tuple[str, ...],
    overrides: Mapping[str, FactoredInteger] | None = None,
) -> dict[str, FactoredInteger]:
    """Evaluate the nodes nids, left to right, and return the memo holding
    their values; only the nodes they reach are evaluated.

    Without overrides the evaluation memo is the ledger's node_values.  With
    overrides it is a dict of this call seeded with them: the overridden
    nodes and their ancestors are combined there, while every other node is
    unaffected by the overrides and reads, or fills, node_values.  One
    explicit stack, seeded with nids, visits children left to right before
    their parent, so depth is bounded by memory, not by the interpreter's
    recursion limit, and a node that raises stores nothing.
    """
    nodes, values = ledger.nodes, ledger.node_values
    if overrides:
        dirty, memo = _dirty(ledger, overrides), dict(overrides)
    else:
        dirty, memo = (), values
    stack = list(reversed(nids))
    while stack:
        top = stack[-1]
        if top in memo:
            stack.pop()
            continue
        if top not in dirty and top in values:
            memo[top] = values[top]
            stack.pop()
            continue
        node = nodes[top]
        pending = [kid for kid in node.children if kid not in memo]
        if pending:
            stack.extend(reversed(pending))
            continue
        value = _combine(node, [memo[kid] for kid in node.children])
        memo[top] = value
        if top not in dirty:
            values[top] = value
        stack.pop()
    return memo


def _normalize_overrides(
    ledger: Ledger,
    overrides: Mapping[str, FactoredInteger | int] | None,
) -> dict[str, FactoredInteger]:
    """Coerce override values to FactoredInteger.

    Plain ints are accepted; 0 maps to the empty product, which removes
    the branch from maxima without deleting the node.  Their prime factors
    must lie below 10^8, the domain of declared keys, where trial division
    stops.
    """
    out: dict[str, FactoredInteger] = {}
    for nid, value in (overrides or {}).items():
        if nid not in ledger.nodes:
            raise LedgerError("override names unknown node %r" % nid)
        if isinstance(value, FactoredInteger):
            out[nid] = value
        elif isinstance(value, int) and not isinstance(value, bool):
            factors, rest = _factor_below(value or 1, 10**8)
            if rest != 1:
                raise LedgerError("override for %r has a prime factor of 10^8 or more" % nid)
            out[nid] = FactoredInteger.from_map(factors)
        else:
            raise LedgerError("override for %r is not an integer" % nid)
    return out


def eval_node(
    ledger: Ledger,
    nid: str,
    overrides: Mapping[str, FactoredInteger | int] | None = None,
) -> FactoredInteger:
    if nid not in ledger.nodes:
        raise LedgerError("no node %r" % nid)
    return _eval(ledger, [nid], _normalize_overrides(ledger, overrides))[nid]


def verify_ledger(ledger: Ledger) -> VerificationReport:
    """Recompute every node and compare against its declared value.

    Constants have nothing independent to compare against, so they are
    reported as Unchecked.  A paper_prints entry that differs from the
    declared decimal is surfaced as an annotation on the row.
    """
    values = _eval(ledger, ledger.order)  # one walk, nodes in document order
    rows = []
    for nid in ledger.order:
        node = ledger.nodes[nid]
        computed = values[nid]
        if node.kind == "Constant":
            status = "Unchecked"
        elif computed.factors == node.declared.factors:  # factors tuples are canonical
            status = "Match"
        else:
            status = "Mismatch"
        annotation = None
        if node.paper_prints is not None:
            declared_plain = fi_to_decimal(node.declared)
            if node.paper_prints.replace(" ", "") != declared_plain:
                annotation = "source text prints %s" % node.paper_prints
        rows.append(VerificationRow(nid, node.declared, computed, status, annotation))
    return VerificationReport(tuple(rows))


def final_bound(
    ledger: Ledger,
    overrides: Mapping[str, FactoredInteger | int] | None = None,
) -> FactoredInteger:
    if ledger.root is None:
        raise LedgerError("ledger has no designated root")
    return eval_node(ledger, ledger.root, overrides)


def explain(ledger: Ledger, nid: str) -> str:
    """Indented derivation tree for a node, children in document order."""
    if nid not in ledger.nodes:
        raise LedgerError("no node %r" % nid)
    _eval(ledger, [nid])  # fills node_values for nid and everything below it
    lines: list[str] = []
    stack = [(nid, 0)]
    while stack:
        node_id, depth = stack.pop()
        node = ledger.nodes[node_id]
        value = ledger.node_values[node_id]
        lines.append(
            "%s%s [%s] = %s = %s  (%s)"
            % (
                "  " * depth,
                node_id,
                node.kind,
                fi_to_factored_str(value),
                fi_to_decimal(value, group=True),
                node.citation,
            )
        )
        stack.extend((kid, depth + 1) for kid in reversed(node.children))
    return "\n".join(lines)


# -------------------------------------------------------------- (de)serial.

def to_document(ledger: Ledger) -> dict:
    """Rebuild the JSON document; load(to_document(x)) is x again."""
    out: dict = {"schema_version": ledger.schema_version}
    if ledger.root is not None:
        out["root"] = ledger.root
    out["whitelist"] = list(ledger.whitelist)
    nodes = []
    decimals: dict[tuple, str] = {}  # factors -> grouped decimal, for this call only
    for nid in ledger.order:
        node = ledger.nodes[nid]
        factors = node.declared.factors
        decimal = decimals.get(factors)
        if decimal is None:
            decimal = decimals[factors] = fi_to_decimal(node.declared, group=True)
        entry = {
            "id": node.id,
            "kind": node.kind,
            "args": dict(node.args),
            "children": list(node.children),
            "declared": {str(p): e for p, e in factors},
            "decimal": decimal,
            "citation": node.citation,
        }
        if node.paper_prints is not None:
            entry["paper_prints"] = node.paper_prints
        if node.note is not None:
            entry["note"] = node.note
        nodes.append(entry)
    out["nodes"] = nodes
    return out


def _emit(value, indent: str, out: list[str]) -> None:
    """Append json.dumps(value, indent=2, ensure_ascii=False) to out, nested
    at indent, for documents of str, int, list and dict with str keys.

    Strings go through json's own encode_basestring (its C function where
    built); any other scalar goes to json.dumps, whose rendering of a
    scalar does not depend on indent.  The str and int items of a dict or
    list, most of a ledger document, are appended in place, not recursed on.
    """
    if type(value) is str:
        out.append(encode_basestring(value))
    elif type(value) is int:
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key, item in value.items():
            out.append(sep)
            out.append(encode_basestring(key))
            out.append(": ")
            if type(item) is str:
                out.append(encode_basestring(item))
            elif type(item) is int:
                out.append(int.__repr__(item))
            else:
                _emit(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            if type(item) is str:
                out.append(encode_basestring(item))
            elif type(item) is int:
                out.append(int.__repr__(item))
            else:
                _emit(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    else:
        out.append(json.dumps(value, ensure_ascii=False))


def _dumps_indented(doc) -> str:
    """json.dumps(doc, indent=2, ensure_ascii=False) through _emit."""
    out: list[str] = []
    _emit(doc, "", out)
    return "".join(out)


def dumps_ledger(ledger: Ledger) -> str:
    doc = to_document(ledger)
    # Below 3.13 json.dumps with indent runs CPython's pure-Python encoder,
    # which _emit outpaces; from 3.13 the C encoder handles indent and wins.
    if sys.version_info < (3, 13):
        return _dumps_indented(doc) + "\n"
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def paper_ledger() -> Ledger:
    """The ledger distributed with the package."""
    from importlib import resources  # here, not at the top: ~20 ms, and inspect on 3.12+

    text = resources.files("glbounds").joinpath("data/paper_ledger.json").read_text("utf-8")
    return load_ledger(json.loads(text))
