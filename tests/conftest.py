from __future__ import annotations

import math

import pytest

from glbounds.cyclotomic import Conductor
from glbounds.diophantine import EquationSolution
from glbounds.exactnum import fi_to_decimal
from glbounds.ledger import Ledger, paper_ledger


@pytest.fixture(scope="session")
def ledger():
    return paper_ledger()


def member_by_cosines(m: int, n: Conductor) -> bool:
    """Numeric Galois-orbit oracle for z_m + 1/z_m lying in Q(z_n).

    An automorphism of the compositum fixing Q(z_n) sends the element to
    2cos(2*pi*a/m); cosine distinguishes residues a != +-1 (mod m), and
    for m <= 64 distinct values differ by far more than float noise.
    """
    if m in (1, 2, 3, 4, 6):
        return True
    base = n.value
    big = math.lcm(base, m)
    target = math.cos(2 * math.pi / m)
    for a in range(1, big, base):
        if math.gcd(a, big) != 1:
            continue
        if abs(math.cos(2 * math.pi * a / m) - target) > 1e-9:
            return False
    return True


def member_by_units(m: int, n: Conductor) -> bool:
    """Galois-group oracle for z_m + 1/z_m lying in Q(z_n).

    The element lies in Q(z_L), L = lcm(n, m), and is fixed by the
    automorphism z_L -> z_L^a exactly when a = +-1 (mod m).  It lies in
    Q(z_n) when every unit a = 1 (mod n) of Z/L fixes it.
    """
    if m in (1, 2, 3, 4, 6):
        return True
    base = n.value
    big = math.lcm(base, m)
    for a in range(1, big, base):
        if math.gcd(a, big) != 1:
            continue
        r = a % m
        if r != 1 and r != m - 1:
            return False
    return True


def brute_solutions(p: int, d: int, m_max: int, e_max: int, t_max: int) -> list[EquationSolution]:
    """Reference enumeration of p^(m-1)(p-1)e = dt by exhaustive triple loop."""
    out = []
    for t in range(1, t_max + 1):
        for m in range(1, m_max + 1):
            for e in range(1, e_max + 1):
                if p ** (m - 1) * (p - 1) * e == d * t:
                    out.append(EquationSolution(m=m, e=e, t=t))
    return out


def decimal_value(text: str) -> int:
    """int(text) for a decimal string of any length.

    int() refuses strings past the interpreter's digit limit (4300 by
    default), so the digits are read 1000 at a time.
    """
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i : i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def to_document(ledger: Ledger) -> dict:
    """The JSON document of a ledger, built field by field as plain data:
    load_ledger(to_document(x)) is x again, and json.dumps of it, with
    indent=2 and ensure_ascii=False, is the oracle for dumps_ledger."""
    out: dict = {"schema_version": ledger.schema_version}
    if ledger.root is not None:
        out["root"] = ledger.root
    out["whitelist"] = list(ledger.whitelist)
    nodes = []
    for nid in ledger.order:
        node = ledger.nodes[nid]
        entry = {
            "id": node.id,
            "kind": node.kind,
            "args": dict(node.args),
            "children": list(node.children),
            "declared": {str(p): e for p, e in node.declared.factors},
            "decimal": fi_to_decimal(node.declared, group=True),
            "citation": node.citation,
        }
        if node.paper_prints is not None:
            entry["paper_prints"] = node.paper_prints
        if node.note is not None:
            entry["note"] = node.note
        nodes.append(entry)
    out["nodes"] = nodes
    return out


def diamond(levels: int) -> dict:
    """A ledger document whose explain grows exponentially: t_i = Max(a_i, b_i)
    with a_i and b_i both Max(t_{i-1}), over a Constant c = 2.  It has
    3 * levels + 1 nodes, and explain renders 2^(levels + 2) - 3 lines for
    its root t_{levels-1}."""
    def entry(nid, kind, children):
        return {"id": nid, "kind": kind, "args": {}, "children": children,
                "declared": {"2": 1}, "decimal": "2", "citation": "crafted for tests"}

    nodes, below = [entry("c", "Constant", [])], "c"
    for i in range(levels):
        nodes += [entry("%s%d" % (half, i), "Max", [below]) for half in "ab"]
        below = "t%d" % i
        nodes.append(entry(below, "Max", ["a%d" % i, "b%d" % i]))
    return {"schema_version": 1, "root": below, "nodes": nodes}
