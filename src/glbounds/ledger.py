"""Bound-composition DAG: load, evaluate, verify, explain.

A ledger is a JSON document holding a list of nodes.  Leaves are either
plain constants or recomputable quantities (Minkowski products, rough
table rows, degree-only PGL2/GL2 maxima, single standard-equation
cases); inner nodes combine children by product, maximum, or an exact
integer scaling i/r.  Every node carries the value it is supposed to
have, in factored form, so the whole case analysis can be replayed and
audited step by step.

Each kind is one record of the table KINDS: its argument keys, leaf or inner,
how it parses its args or checks its children if it must, and how it evaluates
from its children's values; the constructors and the evaluator read kinds only
there.  LedgerNode and Ledger check every invariant as they are built, so a
value of either is valid however it was made, and evaluation and export assume
it.  Each LedgerNode parses its own args (EquationCase's constraints,
ScaledProduct's num and den in factored form) as it is built and keeps the
result in its private `_parsed` slot.  Five tables live for the whole process,
each bounded and keyed by plain data.  Three are lru_caches of _CACHE_SIZE
entries: _constraints, by (e_min, t_max, tags), one solver record per distinct
set; _factor_small, by int, one factoring per distinct int a load or a what-if
reads, which also decides a declared key's or an EquationCase p's primality;
and _rendered, by factors tuple, a declared value and its grouped decimal, for
the loader and _node_text.  _leaf_factors maps a leaf's kind and args to the
bound function that computed it and the value's factors: a leaf of any ledger
that repeats both, while that function is bound, takes a value object of its
own built from the factors, and calls nothing.  It holds at most _CACHE_SIZE
entries and admits no value past _STR_BITS bits, so it pins no long factors
tuple.  _live_nodes maps a node id to a weak reference to the last node the
loader built for that id from a document it decoded itself: an identical entry
of a later such document takes that node, checked once.  It holds fewer than
2 * _CACHE_SIZE entries.  No table keeps a computed value object, the leaf
memo keeps a factors tuple only within its bound, and the weak map pins no
node: a node lives while a ledger holds it.

dumps_ledger writes the ledger in the layout json.dumps(indent=2,
ensure_ascii=False) gives the document that loads back to the same ledger,
each node's block as _node_text writes it from the node's fields once and
keeps it on the node; the tests rebuild that document as their oracle.
"""

from __future__ import annotations

__all__ = [
    "BadDeclaredValue", "CycleError", "DanglingChild", "Ledger", "LedgerError",
    "LedgerNode", "ScaleNotExact", "SchemaError", "VerificationReport", "VerificationRow",
    "dumps_ledger", "eval_node", "explain", "final_bound", "load_ledger", "paper_ledger",
    "verify_ledger",
]

import os
import weakref
from collections import OrderedDict
from collections.abc import Iterable, Mapping
from functools import lru_cache
from threading import Lock
from types import MappingProxyType

from .cyclotomic import DegreeOnly, QQ, TRISTATE
from .diophantine import SolutionConstraints, max_schur_exponent
from .exactnum import (
    ONE,
    _STR_BITS,
    _TRIAL_LIMIT,
    DomainError,
    FactoredInteger,
    NonDivisible,
    Value,
    _bits_bound,
    _digits_bound,
    fi_cmp,
    fi_div_exact,
    fi_mul,
    fi_to_decimal,
    fi_to_factored_str,
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
_NODE_OPTIONAL = ("paper_prints", "note")  # in the order the loader checks them
_NODE_ALLOWED = _NODE_FIELDS.union(_NODE_OPTIONAL)  # built once, not per node
# DegreeOnly's yes/no/unknown flags; every other arg but "constraints" is an int >= 1
_TRISTATE_ARGS = frozenset(DegreeOnly._fields[1:])
# Types that compare equal to an int the checks accept, and that they refuse
_INEXACT = frozenset({bool, float})
# Entries each parse and render cache and the leaf memo keep, and half the
# entries the map of live nodes may reach.  The packaged ledger fills at most
# about a hundred (its distinct declared values, its 102 distinct recomputed
# leaves) and enters 218 nodes, so loading and evaluating it evicts nothing,
# and a stream of other ledgers cannot grow the tables past this.
_CACHE_SIZE = 512
# Longest decimal a declared-value mismatch quotes: past it the message
# names the given decimal by its length and the expected value factored.
_QUOTE_CHARS = 100
# Most characters explain renders for one query: about 300 times the
# packaged ledger's largest tree, theorem-cr3's 32 780.
_EXPLAIN_CHARS = 10**7


class LedgerNode(Value):
    """One node, checked as it is built: a known kind, the arg keys and
    values the kind takes and the kind's parse of them, children a list or
    tuple of ids (kept as a tuple), declared a FactoredInteger, and id,
    citation, paper_prints and note strings without a lone surrogate.  What
    needs the other nodes, the Ledger that holds the node checks.  args is
    kept as a read-only view of the node's own copy, a constraints list
    kept as a tuple, so nothing can change what was checked.  What the kind
    parses from args is kept in `_parsed` (None for a kind with no parse),
    which is no constructor argument and takes no part in ==, hash or
    repr.  Neither is `_source`, the decoded JSON entry the loader built the
    node from, None for a node built any other way; the loader reuses a
    live node whose entry is identical to a new one.  Nor is `_text`, the
    node's block in dumps_ledger's output from its own fields, None until
    its first export and then shared by every ledger holding the node.  A
    node lives while a ledger or a caller holds it: the loader's map of
    nodes pins none."""

    _fields = ("id", "kind", "args", "children", "declared", "citation", "paper_prints", "note")
    __slots__ = _fields + ("_parsed", "_source", "_text", "__weakref__")

    def __init__(self, id: str, kind: str, args: Mapping[str, object], children: tuple[str, ...],
                 declared: FactoredInteger, citation: str, paper_prints: str | None = None,
                 note: str | None = None):
        self._check(None, id, kind, args, children, declared, citation, paper_prints, note)

    def _check(self, source, id, kind, args, children, declared, citation, paper_prints, note):
        """The constructor's checks, then the fill, with source as `_source`."""
        # Each check raises with its message built only on failure: a load
        # builds one node per entry, and formatting costs more than the test.
        # An ASCII str passes _check_text, so only other text goes through it.
        if not (isinstance(id, str) and id != ""):
            raise SchemaError("empty node id")
        if not id.isascii():
            _check_text(id, "id", id)
        spec = KINDS.get(kind) if isinstance(kind, str) else None
        if spec is None:
            raise SchemaError("%s: unknown kind %r" % (id, kind))
        args = _check_args(id, kind, spec, args)
        if not (isinstance(children, (list, tuple))
                and all([isinstance(item, str) for item in children])):
            raise SchemaError("%s: children must be a list of ids" % id)
        if not isinstance(declared, FactoredInteger):
            raise BadDeclaredValue("%s: declared must be a FactoredInteger" % id)
        if not (type(citation) is str and citation.isascii()):
            _check_text(id, "citation", citation)
        if paper_prints is not None:
            _check_text(id, "paper_prints", paper_prints)
        if note is not None:
            _check_text(id, "note", note)
        self._fill(id, kind, MappingProxyType(args), tuple(children), declared, citation,
                   paper_prints, note, None if spec.parse is None else spec.parse(id, args),
                   source, None)


class Ledger(Value):
    """A DAG of LedgerNodes, checked as it is built: schema_version 1, nodes
    a mapping from each node's id to the node, no children for a leaf kind
    and some for an inner one, children that exist, each kind's claims about
    its children held, no cycle, and root and whitelist ids of nodes.  A
    failed check raises the LedgerError that load_ledger raises for the same
    fault.  nodes is kept as a read-only view of the ledger's own copy, so
    no node can be added, replaced or deleted once checked.  `order` reads
    the node ids off nodes, in the document order.  Ledgers loaded from
    identical entries may share nodes, which are immutable; each ledger
    runs these checks on its own nodes whatever they share.

    The ledger memoizes what it computes: `node_values` maps a node's id to
    its value without overrides, leaf or inner, filled by whichever
    evaluation reaches the node first.  Repeated verify / final / explain
    calls on one ledger therefore compute each node once.  A recomputed
    leaf is also looked up in the process-wide leaf memo first, so each
    distinct (kind, args) is computed once per process while the memo holds
    it and its kind's bound function stays the same, whichever ledger
    reaches it.  A what-if recomputes only the overridden nodes and their
    ancestors, in a memo of its own, and reads every other node from
    `node_values`; override-derived values never enter it.  `_parents` maps
    each id to its parents' ids in document order, one per edge; the
    constructor builds it with the acyclicity check, and a what-if walks it
    up from the overridden nodes.
    Neither is a constructor argument or takes part in ==, hash or repr.
    """

    _fields = ("schema_version", "root", "whitelist", "nodes")
    __slots__ = _fields + ("node_values", "_parents")

    def __init__(
        self,
        schema_version: int,
        root: str | None,
        whitelist: tuple[str, ...],
        nodes: Mapping[str, LedgerNode],
    ):
        if not (type(schema_version) is int and schema_version == SCHEMA_VERSION):  # not True, 1.0
            raise SchemaError("schema_version must be %d" % SCHEMA_VERSION)
        if not isinstance(nodes, Mapping):
            raise SchemaError("nodes must map ids to nodes")
        nodes = dict(nodes)
        for key, node in nodes.items():
            if not (isinstance(node, LedgerNode) and node.id == key):
                raise SchemaError("nodes[%r] is no LedgerNode of that id" % (key,))
        # Node by node: arity, children that exist, each edge in its child's
        # parent list, then what the kind claims about the children.
        parents: dict[str, list[str]] = {nid: [] for nid in nodes}
        for node in nodes.values():
            spec = KINDS[node.kind]
            if spec.leaf and node.children:
                raise SchemaError("%s: %s takes no children" % (node.id, node.kind))
            if not (spec.leaf or node.children):
                raise SchemaError("%s: %s needs children" % (node.id, node.kind))
            for kid in node.children:
                if kid not in nodes:
                    raise DanglingChild("%s: child %r does not exist" % (node.id, kid))
                parents[kid].append(node.id)
            if spec.check is not None:
                spec.check(node, nodes)
        _check_acyclic(nodes, parents)
        if root is not None and not (isinstance(root, str) and root in nodes):
            raise SchemaError("root %r is not a node id" % root)
        if not (isinstance(whitelist, (list, tuple))
                and all([isinstance(item, str) for item in whitelist])):
            raise SchemaError("whitelist must be a list of ids")
        for wid in whitelist:
            if wid not in nodes:
                raise SchemaError("whitelisted id %r is not a node" % wid)
        if len(set(whitelist)) != len(whitelist):
            raise SchemaError("duplicate whitelist entry")
        self._fill(schema_version, root, tuple(whitelist), MappingProxyType(nodes), {}, parents)

    @property
    def order(self) -> tuple[str, ...]:
        return tuple(self.nodes)


class VerificationRow(Value):
    """status is Match, Mismatch or Unchecked; annotation defaults to None."""

    __slots__ = _fields = ("id", "declared", "computed", "status", "annotation")
    _defaults = (None,)


class VerificationReport(Value):
    __slots__ = _fields = ("rows",)

    def mismatches(self) -> list[VerificationRow]:
        return [r for r in self.rows if r.status == "Mismatch"]

    def unexpected(self, whitelist: Iterable[str]) -> list[VerificationRow]:
        allowed = set(whitelist)
        return [r for r in self.mismatches() if r.id not in allowed]


# ---------------------------------------------------------------- node kinds

class _Kind:
    """One node kind: the argument keys it requires and allows, leaf (no
    children) or inner (at least one child), value(node, kids), the node's
    value from its children's values in child order, and, for a kind whose
    args need more than a type check, parse(node_id, args), which checks them
    and returns what value() reads from the node's `_parsed` slot; LedgerNode
    calls it once its args pass the type check.  A kind whose args
    make a claim about its children has check(node, nodes), which Ledger
    runs once the children are known to exist and which raises SchemaError
    if the claim fails.  A leaf that recomputes its value names in `bound`
    the module global of the bound function it calls, and its value is
    value(node, function), the function the evaluator read from that name;
    the leaf memo keeps that function beside the value's factors."""

    __slots__ = ("required", "allowed", "leaf", "value", "parse", "check", "bound")

    def __init__(self, value, *, required=(), optional=(), leaf=True, parse=None, check=None,
                 bound=None):
        self.required = frozenset(required)
        self.allowed = self.required | frozenset(optional)
        self.leaf = leaf
        self.value = value
        self.parse = parse
        self.check = check
        self.bound = bound


# The cached functions below are pure in their hashable arguments and reach
# what they call through this module's globals, as the value functions do.

@lru_cache(maxsize=_CACHE_SIZE)
def _constraints(e_min: int, t_max: int | None, tags: tuple[str, ...]) -> SolutionConstraints:
    """The solver's constraints, one record per distinct argument set.
    DomainError for a bad tag."""
    return SolutionConstraints(e_min=e_min, extra=tags, t_max=t_max)


# An int p >= 2 is prime exactly when it factors as ((p, 1),).  The loader
# asks only below 10^8, the domain of declared keys, where trial division is
# cheap.
@lru_cache(maxsize=_CACHE_SIZE)
def _factor_small(value: int) -> FactoredInteger:
    """FactoredInteger.from_int(value), once per distinct value."""
    return FactoredInteger.from_int(value)


def _parse_equation_case(node_id: str, args: Mapping[str, object]) -> SolutionConstraints:
    """The solver's constraints, with t_max as the node gives it, None if
    absent: max_schur_exponent clamps it to n."""
    try:
        constraints = _constraints(args.get("e_min", 1), args.get("t_max"),
                                   args.get("constraints", ()))
    except DomainError as exc:  # a bad tag
        raise SchemaError("%s: %s" % (node_id, exc)) from None
    p = args["p"]
    if p >= _TRIAL_LIMIT:
        raise SchemaError("%s: EquationCase p must be below 10^8" % node_id)
    if not (p % 2 == 1 and _factor_small(p).factors == ((p, 1),)):
        raise SchemaError("%s: EquationCase needs an odd prime p" % node_id)
    return constraints


def _factor_arg(value: int, error: type, what: str, *parts) -> FactoredInteger:
    """value (>= 1) factored, or an error naming what % parts if from_int
    refuses it or it has a prime factor of 10^8 or more, past the declared
    keys' domain.  The name is formatted only for the error."""
    try:
        factored = _factor_small(value)
    except DomainError as exc:
        raise error("%s: %s" % (what % parts, exc)) from None
    if factored.factors and factored.factors[-1][0] >= _TRIAL_LIMIT:
        raise error("%s has a prime factor of 10^8 or more" % (what % parts))
    return factored


def _parse_scaled_product(node_id: str, args: Mapping[str, object]
                          ) -> tuple[FactoredInteger, FactoredInteger]:
    """num and den as FactoredIntegers."""
    return (_factor_arg(args["num"], SchemaError, "%s: arg %r", node_id, "num"),
            _factor_arg(args["den"], SchemaError, "%s: arg %r", node_id, "den"))


# Value functions reach fi_mul and fi_cmp through this module's globals at
# call time, and the evaluator reads a leaf's bound function (minkowski_bound,
# ..., max_schur_exponent) from them by the name its kind gives, so whatever
# is bound to those names here runs.  The leaf memo is keyed by kind and args,
# and each entry keeps the function that computed it: a function bound in place
# of another, such as a test's monkeypatch or the wrappers perfbench/tracer.py
# installs, runs and replaces the entry, so the memo holds one entry per
# distinct leaf, whatever was bound before.

def _equation_case(node: LedgerNode, bound) -> FactoredInteger:
    """p to the largest exponent the standard equation allows for p."""
    args = node.args
    exponent = bound(args["p"], args["n"], args["d"], node._parsed)
    if exponent == 0:
        return ONE
    return FactoredInteger._trusted(((args["p"], exponent),))  # p was checked by parse


def _max(node: LedgerNode, kids: list[FactoredInteger]) -> FactoredInteger:
    value = kids[0]
    for kid in kids[1:]:
        if fi_cmp(kid, value) > 0:
            value = kid
    return value


def _scaled_product(node: LedgerNode, kids: list[FactoredInteger]) -> FactoredInteger:
    num, den = node._parsed
    try:
        return fi_div_exact(fi_mul(num, *kids), den)
    except NonDivisible:
        raise ScaleNotExact("%s: %d/%d of the child product is not an integer"
                            % (node.id, node.args["num"], node.args["den"])) from None


def _check_appendix_prop(node: LedgerNode, nodes: Mapping[str, LedgerNode]) -> None:
    """The claim "over all degrees d <= d_max": one child per degree, in order,
    and a SchurRough child at degree d has the node's n and that d.  A child
    of another kind, such as the branch Max of a degree, is not read."""
    n, d_max = node.args["n"], node.args["d_max"]
    if len(node.children) != d_max:
        raise SchemaError("%s: AppendixProp has %d children, not d_max = %d"
                          % (node.id, len(node.children), d_max))
    for d, kid in enumerate(node.children, 1):
        child = nodes[kid]
        if child.kind == "SchurRough" and child.args != {"n": n, "d": d}:
            raise SchemaError("%s: child %r must have n = %d, d = %d" % (node.id, kid, n, d))


# Kind name -> record.  AppendixProp evaluates as Max; its n and d_max state
# which rows it takes the maximum of, and its check holds them to that.
KINDS = {
    "Constant": _Kind(lambda node, kids: node.declared),
    "Minkowski": _Kind(lambda node, bound: bound(node.args["n"]),
                       bound="minkowski_bound", required={"n"}),
    "SchurRough": _Kind(lambda node, bound: bound(node.args["n"], node.args["d"]),
                        bound="rough_bound", required={"n", "d"}),
    "SerreQ": _Kind(lambda node, bound: bound(node.args["n"], QQ),
                    bound="serre_bound", required={"n"}),
    "Pgl2": _Kind(  # the arg keys are DegreeOnly's parameters
        lambda node, bound: bound(DegreeOnly(**node.args))[1],
        bound="pgl2_admissible", required={"degree"}, optional=_TRISTATE_ARGS),
    "Gl2": _Kind(lambda node, bound: bound(node.args["degree"]),
                 bound="gl2_max_order", required={"degree"}),
    "EquationCase": _Kind(
        _equation_case, bound="max_schur_exponent", required={"p", "n", "d"},
        optional={"e_min", "t_max", "constraints"}, parse=_parse_equation_case),
    "Product": _Kind(lambda node, kids: fi_mul(*kids), leaf=False),
    "Max": _Kind(_max, leaf=False),
    "AppendixProp": _Kind(_max, required={"n", "d_max"}, leaf=False, check=_check_appendix_prop),
    "ScaledProduct": _Kind(
        _scaled_product, required={"num", "den"}, leaf=False, parse=_parse_scaled_product),
}


# ---------------------------------------------------------- checks, loading

def _check_text(node_id: str, field: str, text) -> None:
    """Refuse a text field that is no string, or holds a lone surrogate,
    which a JSON escape can carry but no export can write.  repr names the
    node in the second message, so the error line itself encodes."""
    if not isinstance(text, str):
        raise SchemaError("%s: %s must be a string" % (node_id, field))
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise SchemaError("%r: %s holds a lone surrogate" % (node_id, field)) from None


def _check_args(node_id: str, kind: str, spec: _Kind, args) -> dict:
    """A copy of args, checked for kind, with a constraints list or tuple
    kept as a tuple, so the node shares no mutable value with the caller."""
    if not isinstance(args, (dict, MappingProxyType)):  # a node's own args build a node again
        raise SchemaError("%s: args must be an object" % node_id)
    if not (args or spec.required):
        return {}
    keys = args.keys()
    # The view on the left of each test: frozenset <= view returns
    # NotImplemented, and the reflected test that follows costs twice as much.
    if not (keys >= spec.required and keys <= spec.allowed):
        raise SchemaError(
            "%s: %s args must have %s, got %s"
            % (node_id, kind, sorted(spec.required), sorted(keys))
        )
    # One pass in document order, so the first bad key is named; a bad
    # integer arg is named before a bad yes/no/unknown arg or constraints
    # list, wherever it is.  No kind takes both.
    late = tags = None
    for key, value in args.items():
        if key in _TRISTATE_ARGS:
            if late is None and value not in TRISTATE:
                late = "arg %r must be yes/no/unknown" % key
        elif key == "constraints":
            if isinstance(value, (list, tuple)) and all([isinstance(tag, str) for tag in value]):
                tags = tuple(value)
            else:
                late = "constraints must be a list of tag strings"
        elif not (type(value) is int and value >= 1):
            raise SchemaError("%s: arg %r must be a positive integer" % (node_id, key))
    if late is not None:
        raise SchemaError("%s: %s" % (node_id, late))
    own = dict(args)
    if tags is not None:
        own["constraints"] = tags
    return own


def _declared_prime(key) -> int:
    """The prime a declared key names; BadDeclaredValue, its message without
    the node id, if the key is no decimal string of a prime below 10^8."""
    # isdigit alone also accepts non-ASCII digits such as "²", which int() refuses.
    if not (isinstance(key, str) and key.isascii() and key.isdigit()):
        raise BadDeclaredValue("declared key %r is not a prime string" % (key,))
    # Longer keys are refused unparsed: declared primes are below 10**8.
    digits = key.lstrip("0")
    if len(digits) > 8:
        raise BadDeclaredValue(
            "declared key of %d digits is not a prime below 10^8" % len(digits))
    p = int(digits or "0")
    if p < 2 or _factor_small(p).factors != ((p, 1),):
        raise BadDeclaredValue("declared key %s is not prime" % key)
    return p


@lru_cache(maxsize=_CACHE_SIZE)
def _rendered(factors: tuple[tuple[int, int], ...]) -> tuple[FactoredInteger, str]:
    """The value of a canonical factors tuple and its grouped decimal."""
    value = FactoredInteger._trusted(factors)
    return value, fi_to_decimal(value, group=True)


def _parse_declared(node_id: str, raw, decimal) -> FactoredInteger:
    """The declared value, checked against its decimal.  node_id is still
    unchecked, LedgerNode checks it next, so each message formats it as one
    item of a tuple, whatever its type.
    """
    if not isinstance(raw, dict):
        raise BadDeclaredValue("%s: declared must be a map prime -> exponent" % (node_id,))
    factors: dict[int, int] = {}
    for key, exp in raw.items():
        try:
            p = _declared_prime(key)
        except BadDeclaredValue as exc:
            raise BadDeclaredValue("%s: %s" % (node_id, exc)) from None
        if not (type(exp) is int and exp >= 1):
            raise BadDeclaredValue(
                "%s: declared exponent for %s must be a positive integer" % (node_id, key)
            )
        if p in factors:
            raise BadDeclaredValue("%s: duplicate prime %s in declared" % (node_id, key))
        factors[p] = exp
    if not isinstance(decimal, str):
        raise BadDeclaredValue("%s: decimal must be a string" % (node_id,))
    # Prime bases, positive exponents, no prime twice: the checks above are
    # the validation, so sorting is all that is left.
    try:
        value, expect = _rendered(tuple(sorted(factors.items())))
    except DomainError as exc:  # past the digit budget
        raise BadDeclaredValue("%s: %s" % (node_id, exc)) from None
    if decimal != expect:
        # A long decimal is named by its length, a long value factored, so
        # the message grows with the declared map, not with its value.
        raise BadDeclaredValue("%s: decimal %s does not match declared factorization (%s)" % (
            node_id,
            repr(decimal) if len(decimal) <= _QUOTE_CHARS else "of %d characters" % len(decimal),
            expect if len(expect) <= _QUOTE_CHARS else fi_to_factored_str(value)))
    return value


# node id -> a weak reference to the last node the loader built for that id
# from a document it decoded itself: what every load shares of the nodes
# still alive.  It pins no node, and holds fewer than 2 * _CACHE_SIZE entries.
# One node per id is the accepted cost: ledgers whose entries for an id differ
# rebuild it in turn and render its text again, about 10 us a load and export.
_live_nodes: dict[str, weakref.ref] = {}
_storing = Lock()


def _keep(kept: OrderedDict, key, value) -> None:
    """kept[key] = value, dropping the oldest entry when a new key finds kept
    holding _CACHE_SIZE.  Under a lock: loads and evaluations in other
    threads may add at the same time."""
    with _storing:
        if key not in kept and len(kept) >= _CACHE_SIZE:
            kept.popitem(last=False)
        kept[key] = value


def _enter(nodes: list[LedgerNode]) -> None:
    """_live_nodes[node.id] = a weak reference to node, for each node in
    order.  When the map reaches 2 * _CACHE_SIZE entries, its dead entries
    go, and so do its live ones past the _CACHE_SIZE whose ids it took in
    last (a new node for a kept id keeps the id's place).  Under the lock
    _keep takes."""
    with _storing:
        for node in nodes:
            _live_nodes[node.id] = weakref.ref(node)
        if len(_live_nodes) >= 2 * _CACHE_SIZE:
            live = [(nid, ref) for nid, ref in _live_nodes.items() if ref() is not None]
            _live_nodes.clear()
            _live_nodes.update(live[-_CACHE_SIZE:])


def _check_acyclic(nodes: Mapping[str, LedgerNode], parents: Mapping[str, list[str]]) -> None:
    """Kahn's algorithm: finish the leaves, then each node whose children are
    all finished.  From the first node left in document order, follow first
    unfinished children until a node repeats; CycleError names the edge that
    closes the loop, the one a depth-first walk in document order meets first."""
    pending = {nid: len(node.children) for nid, node in nodes.items()}
    finished = [nid for nid, count in pending.items() if not count]
    for nid in finished:  # grows as nodes finish
        for parent in parents[nid]:
            pending[parent] -= 1
            if not pending[parent]:
                finished.append(parent)
    if len(finished) == len(nodes):
        return
    nid = next(nid for nid, count in pending.items() if count)
    path = set()
    while nid not in path:
        path.add(nid)
        parent, nid = nid, next(kid for kid in nodes[nid].children if pending[kid])
    raise CycleError("cycle through %r and %r" % (parent, nid))


def _decode(source):
    """The JSON document in source, a str or a text file, with every way
    decoding fails as a SchemaError: bad syntax, bytes that are not UTF-8,
    nesting past the recursion limit, an integer past the str-digit limit."""
    import json  # here, not at import: a command that reads no ledger skips it
    try:
        return json.loads(source) if isinstance(source, str) else json.load(source)
    except (ValueError, RecursionError) as exc:
        raise SchemaError("ledger is not valid JSON: %s" % exc) from None


def load_ledger(source) -> Ledger:
    """Parse a ledger document and build it through LedgerNode and Ledger.

    The source's type decides how it is read: a Mapping is the document, a
    str is always JSON text, and an os.PathLike names a UTF-8 JSON file.  The
    constructors check every invariant of a ledger; the loader checks what
    only the document form can get wrong: its top-level keys and node
    fields, a duplicate id, an optional field given as null, and each
    declared map against its decimal.

    In a document it decodes itself, from a str or a path, the loader
    reuses a node still alive that it built from an identical entry: equal
    entries, args keys in the same order, and no true or float (such as
    12.0) among the args values or declared exponents, which compare equal
    to an int but which the checks refuse.  The checks would pass that
    entry again and build an equal node.  A reused node is still checked
    for a duplicate id, and Ledger checks the whole DAG on every load.  Every
    other node is built and checked, and once the ledger is, _live_nodes
    keeps a weak reference to it.  A caller's Mapping is neither looked up
    nor entered, since the caller may change it after the load.
    """
    if isinstance(source, Mapping):
        doc, live = source, None
    elif isinstance(source, str):
        doc, live = _decode(source), _live_nodes
    elif isinstance(source, os.PathLike):
        with open(source, "r", encoding="utf-8") as handle:
            doc, live = _decode(handle), _live_nodes
    else:
        raise SchemaError("unsupported ledger source %r" % type(source))

    if not isinstance(doc, dict):
        raise SchemaError("document must be an object")
    extra = set(doc) - {"schema_version", "root", "whitelist", "nodes"}
    if extra:
        raise SchemaError("unknown top-level keys %s" % sorted(extra))
    raw_nodes = doc.get("nodes")
    if not isinstance(raw_nodes, list):
        raise SchemaError("nodes must be a list")

    nodes: dict[str, LedgerNode] = {}
    built = []  # the nodes built, not reused, in this load
    for raw in raw_nodes:
        if not isinstance(raw, dict):
            raise SchemaError("node entries must be objects")
        nid = raw.get("id")
        ref = live.get(nid) if live is not None and type(nid) is str else None
        node = None if ref is None else ref()
        # Equal entries still differ for the export in the order of the args
        # keys, and for the checks where a bool or a float equals an int:
        # only args values and declared exponents can hold a number.
        if node is not None and node._source == raw:
            args = raw["args"]
            if (list(args) == list(node._source["args"])
                    and _INEXACT.isdisjoint(map(type, args.values()))
                    and _INEXACT.isdisjoint(map(type, raw["declared"].values()))):
                if nid in nodes:
                    raise SchemaError("duplicate node id %r" % nid)
                nodes[nid] = node
                continue
        fields = raw.keys()
        if not (fields >= _NODE_FIELDS and fields <= _NODE_ALLOWED):  # as in _check_args
            raise SchemaError(
                "node fields must be %s (+ optional %s), got %s"
                % (sorted(_NODE_FIELDS), sorted(_NODE_OPTIONAL), sorted(fields))
            )
        node = object.__new__(LedgerNode)
        node._check(None if live is None else raw, nid, raw["kind"], raw["args"],
                    raw["children"], _parse_declared(nid, raw["declared"], raw["decimal"]),
                    raw["citation"], raw.get("paper_prints"), raw.get("note"))
        if nid in nodes:
            raise SchemaError("duplicate node id %r" % nid)
        if len(fields) > len(_NODE_FIELDS):  # an optional field: null would read as absent
            for field in _NODE_OPTIONAL:
                if field in fields and raw[field] is None:
                    raise SchemaError("%s: %s must be a string" % (nid, field))
        nodes[nid] = node
        built.append(node)
    ledger = Ledger(doc.get("schema_version"), doc.get("root"), doc.get("whitelist", []), nodes)
    if live is not None and built:
        _enter(built)
    return ledger


# ---------------------------------------------------------------- evaluation

# (kind, args items) -> (the bound function that leaf called, the factors of
# the value it evaluated to): what every ledger shares of its recomputed
# leaves.  It holds at most _CACHE_SIZE values, each of at most _STR_BITS
# bits, so it pins no long factors tuple.
_leaf_factors: OrderedDict[tuple, tuple] = OrderedDict()
_GLOBALS = globals()  # where a leaf kind's bound function is read, at each call


def _combine(node: LedgerNode, kids: list[FactoredInteger]) -> FactoredInteger:
    """Value of a node from its children's values, in child order (a leaf has
    none).  A leaf whose kind names a bound function is looked up in
    _leaf_factors first, and hits only if its entry was computed by the
    function bound to that name now; a miss replaces the entry.  A hit is a
    value object of its own, so no caller shares it or the int it may keep.
    A leaf that raises stores nothing."""
    spec = KINDS[node.kind]
    if spec.bound is None:
        return spec.value(node, kids)
    bound = _GLOBALS[spec.bound]
    key = (node.kind, tuple(node.args.items()))
    entry = _leaf_factors.get(key)
    if entry is not None and entry[0] is bound:
        return FactoredInteger._trusted(entry[1])
    value = spec.value(node, bound)
    if _bits_bound(value) <= _STR_BITS:
        _keep(_leaf_factors, key, (bound, value.factors))
    return value


def _dirty(ledger: Ledger, overrides: Mapping[str, FactoredInteger]) -> set[str]:
    """The overridden nodes and all their ancestors: what a what-if changes."""
    parents = ledger._parents
    dirty = set(overrides)
    stack = list(dirty)
    while stack:
        for parent in parents[stack.pop()]:
            if parent not in dirty:
                dirty.add(parent)
                stack.append(parent)
    return dirty


def _walk(nodes, nids, values, dirty=(), memo=None):
    """Yield (node, kids) once for each node that nids reach and that has no
    stored value, kids its children's values in child order; the caller
    stores the node's value (in memo if the node is in dirty, else in
    values) before the walk resumes.  One explicit stack, seeded with nids,
    visits children left to right before their parent, so depth is bounded
    by memory, not by the recursion limit.  A node whose caller raises
    stores nothing, so the first error is the first one this walk meets."""
    stack = list(reversed(nids))
    while stack:
        top = stack[-1]
        if top in (memo if top in dirty else values):
            stack.pop()
            continue
        node = nodes[top]
        kids = []
        for kid in node.children:
            value = (memo if kid in dirty else values).get(kid)
            if value is None:  # push every child still missing, then come back
                stack.extend(reversed([child for child in node.children
                                       if child not in (memo if child in dirty else values)]))
                break
            kids.append(value)
        else:
            yield node, kids
            stack.pop()


def _eval(ledger: Ledger, nids: list[str] | tuple[str, ...],
          overrides: Mapping[str, FactoredInteger] | None = None) -> list[FactoredInteger]:
    """The values of the nodes nids: _walk folded with _combine.  The
    overridden nodes and their ancestors, the dirty ones, live in a memo
    seeded with the overrides; every other node lives in node_values."""
    values = ledger.node_values
    dirty, memo = (_dirty(ledger, overrides), dict(overrides)) if overrides else ((), values)
    for node, kids in _walk(ledger.nodes, nids, values, dirty, memo):
        (memo if node.id in dirty else values)[node.id] = _combine(node, kids)
    return [(memo if nid in dirty else values)[nid] for nid in nids]


def _check_ledger(ledger) -> None:  # the public entry points' one check of a ledger
    if not isinstance(ledger, Ledger):
        raise LedgerError("expected a Ledger, got %s" % type(ledger).__name__)


def _normalize_overrides(
    ledger: Ledger,
    overrides: Mapping[str, FactoredInteger | int] | None,
) -> dict[str, FactoredInteger]:
    """Coerce override values to FactoredInteger.

    Plain ints >= 0 are accepted; 0 maps to the empty product, which
    removes the branch from maxima without deleting the node.  Their prime
    factors must lie below 10^8, the domain of declared keys.
    """
    if not (overrides is None or isinstance(overrides, Mapping)):
        raise LedgerError("overrides must be a mapping, got %s" % type(overrides).__name__)
    out: dict[str, FactoredInteger] = {}
    for nid, value in (overrides or {}).items():
        if nid not in ledger.nodes:
            raise LedgerError("override names unknown node %r" % nid)
        if isinstance(value, FactoredInteger):
            out[nid] = value
        elif isinstance(value, int) and not isinstance(value, bool):
            if value < 0:
                raise LedgerError("override for %r must be >= 0, got %d" % (nid, value))
            out[nid] = _factor_arg(value or 1, LedgerError, "override for %r", nid)
        else:
            raise LedgerError("override for %r is not an integer" % nid)
    return out


def eval_node(
    ledger: Ledger,
    nid: str,
    overrides: Mapping[str, FactoredInteger | int] | None = None,
) -> FactoredInteger:
    _check_ledger(ledger)
    if not (isinstance(nid, str) and nid in ledger.nodes):
        raise LedgerError("no node %r" % (nid,))
    return _eval(ledger, [nid], _normalize_overrides(ledger, overrides))[0]


def verify_ledger(ledger: Ledger) -> VerificationReport:
    """Recompute every node and compare against its declared value.

    Constants have nothing independent to compare against, so they are
    reported as Unchecked.  A paper_prints entry that differs from the
    declared decimal is surfaced as an annotation on the row.
    """
    _check_ledger(ledger)
    values = _eval(ledger, ledger.order)  # one walk, nodes in document order
    rows = []
    for nid, computed in zip(ledger.order, values):
        node = ledger.nodes[nid]
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
    _check_ledger(ledger)
    if ledger.root is None:
        raise LedgerError("ledger has no designated root")
    return eval_node(ledger, ledger.root, overrides)


def explain(ledger: Ledger, nid: str) -> str:
    """Indented derivation tree for a node, children in document order.

    A subtree shared by several parents is rendered once per path, so the
    text can grow exponentially in a ledger's depth.  LedgerError refuses a
    tree whose lines, each with its newline, pass _EXPLAIN_CHARS characters.
    A value is refused before it is rendered if even its decimal may pass
    what is left, by exactnum's bound on its digits, and grouping adds a
    space per three; past the digit budget, fi_to_decimal raises DomainError.
    """
    _check_ledger(ledger)
    if not (isinstance(nid, str) and nid in ledger.nodes):
        raise LedgerError("no node %r" % (nid,))
    _eval(ledger, [nid])  # fills node_values for nid and everything below it
    lines: list[str] = []
    left = _EXPLAIN_CHARS
    stack = [(nid, 0)]
    while stack:
        node_id, depth = stack.pop()
        node = ledger.nodes[node_id]
        value = ledger.node_values[node_id]
        digits = _digits_bound(_bits_bound(value))
        if digits + digits // 3 > left:
            break
        line = "%s%s [%s] = %s = %s  (%s)" % (
            "  " * depth, node_id, node.kind, fi_to_factored_str(value),
            fi_to_decimal(value, group=True), node.citation)
        left -= len(line) + 1
        if left < 0:
            break
        lines.append(line)
        stack.extend((kid, depth + 1) for kid in reversed(node.children))
    else:
        return "\n".join(lines)
    raise LedgerError("%s: explain would render more than %d characters" % (nid, _EXPLAIN_CHARS))


# -------------------------------------------------------------- (de)serial.

def _join(items: list[str], brackets: str, indent: str) -> str:
    """Rendered items in brackets ("[]" or "{}"), nested at indent, laid out
    as json.dumps(indent=2) lays out a container: one item a line."""
    if not items:
        return brackets
    inner = "\n" + indent + "  "
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + indent + brackets[1]


def _node_text(node: LedgerNode) -> str:
    """node's block in dumps_ledger's output, kept in its `_text` slot."""
    from json.encoder import encode_basestring as enc
    args = "{}"  # no args, like no children, is written as is
    if node.args:
        pairs = []
        for key, value in node.args.items():
            if type(value) is int:
                pairs.append("%s: %d" % (enc(key), value))
            elif isinstance(value, str):  # yes/no/unknown
                pairs.append(enc(key) + ": " + enc(value))
            else:  # constraints, a tuple of tags
                pairs.append(enc(key) + ": " + _join(list(map(enc, value)), "[]", "        "))
        args = _join(pairs, "{}", "      ")
    text = ('{\n      "id": %s,\n      "kind": %s,\n      "args": %s,\n      "children": %s,'
            '\n      "declared": %s,\n      "decimal": %s,\n      "citation": %s' % (
                enc(node.id), enc(node.kind), args,
                _join(list(map(enc, node.children)), "[]", "      ") if node.children else "[]",
                _join(['"%d": %d' % pair for pair in node.declared.factors], "{}", "      "),
                enc(_rendered(node.declared.factors)[1]), enc(node.citation)))
    if node.paper_prints is not None:
        text += ',\n      "paper_prints": ' + enc(node.paper_prints)
    if node.note is not None:
        text += ',\n      "note": ' + enc(node.note)
    _set_text(node, text + "\n    }")
    return node._text


_set_text = LedgerNode._text.__set__  # for _node_text, once the node is built


def dumps_ledger(ledger: Ledger) -> str:
    """The ledger as JSON text: json.dumps(indent=2, ensure_ascii=False) of
    the document that loads back to it, plus "\n", written from the
    ledger's fields and the text each node keeps."""
    from json.encoder import encode_basestring as enc
    _check_ledger(ledger)
    top = ['"schema_version": %d' % ledger.schema_version]
    if ledger.root is not None:
        top.append('"root": ' + enc(ledger.root))
    top.append('"whitelist": ' + _join(list(map(enc, ledger.whitelist)), "[]", "  "))
    nodes = [node._text or _node_text(node) for node in ledger.nodes.values()]
    # _join's layout, written out so that only two long strings are built, the
    # nodes' join and the whole text: its concatenations would copy both again.
    return "".join(["{\n  ", ",\n  ".join(top), ',\n  "nodes": [', "\n    " if nodes else "",
                    ",\n    ".join(nodes), "\n  ]" if nodes else "]", "\n}\n"])


def paper_ledger() -> Ledger:
    """The ledger distributed with the package."""
    path = os.path.join(os.path.dirname(__file__), "data", "paper_ledger.json")
    with open(path, encoding="utf-8") as handle:
        return load_ledger(handle.read())  # text, so its nodes are shared as any document's
