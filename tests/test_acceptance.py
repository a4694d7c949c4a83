"""Acceptance checks, one test per criterion.

Every number here is an exact integer; run with -v to get one pass/fail
line per criterion.  Expected table rows and solution sets are written
out literally so a regression in the library cannot hide behind recomputation.
"""

from __future__ import annotations

import json

from glbounds.bounds import (
    minkowski_bound,
    minkowski_exponent,
    pgl2_admissible,
    pgl2_max_order,
    rough_bound,
    schur_bound,
    schur_exponent,
    serre_bound,
    table,
)
from glbounds.cyclotomic import QQ, Conductor, ExactCyclotomic, all_invariants
from glbounds.diophantine import SolutionConstraints, solve_standard_equation
from glbounds.exactnum import FactoredInteger, fi_cmp, is_prime
from glbounds.ledger import eval_node, final_bound, verify_ledger
from glbounds.totient import invphi_max

from conftest import brute_solutions, member_by_cosines, to_document


def fi(n: int) -> FactoredInteger:
    return FactoredInteger.from_int(n)


# rank 3, degrees 1..15: factored entry and decimal, row by row
TABLE_3 = {
    1: ({2: 5, 3: 2}, 288),
    2: ({2: 7, 3: 4, 5: 1, 7: 1}, 362_880),
    3: ({2: 5, 3: 3, 7: 1}, 6_048),
    4: ({2: 10, 3: 4, 5: 3, 7: 1, 13: 1}, 943_488_000),
    5: ({2: 5, 3: 2, 11: 1}, 3_168),
    6: ({2: 7, 3: 7, 5: 1, 7: 3, 13: 1, 19: 1}, 118_582_289_280),
    7: ({2: 5, 3: 2}, 288),
    8: ({2: 13, 3: 4, 5: 3, 7: 1, 13: 1, 17: 1}, 128_314_368_000),
    9: ({2: 5, 3: 4, 7: 1, 19: 1}, 344_736),
    10: ({2: 7, 3: 4, 5: 2, 7: 1, 11: 3, 31: 1}, 74_863_958_400),
    11: ({2: 5, 3: 2, 23: 1}, 6_624),
    12: ({2: 10, 3: 7, 5: 3, 7: 3, 13: 3, 19: 1, 37: 1}, 148_299_010_973_568_000),
    13: ({2: 5, 3: 2}, 288),
    14: ({2: 7, 3: 4, 5: 1, 7: 2, 29: 1, 43: 1}, 3_167_579_520),
    15: ({2: 5, 3: 3, 7: 1, 11: 1, 31: 1}, 2_062_368),
}

# rank 4, degrees 1..7
TABLE_4 = {
    1: ({2: 9, 3: 3, 5: 1}, 69_120),
    2: ({2: 11, 3: 5, 5: 2, 7: 1}, 87_091_200),
    3: ({2: 9, 3: 5, 5: 1, 7: 2, 13: 1}, 396_264_960),
    4: ({2: 15, 3: 5, 5: 4, 7: 1, 13: 1, 17: 1}, 7_698_862_080_000),
    5: ({2: 9, 3: 3, 5: 2, 11: 2}, 41_817_600),
    6: ({2: 11, 3: 9, 5: 2, 7: 4, 13: 2, 19: 1}, 7_769_511_593_625_600),
    7: ({2: 9, 3: 3, 5: 1, 29: 1}, 2_004_480),
}


def test_criterion_01_minkowski_values():
    assert minkowski_bound(4) == fi(5_760)
    assert minkowski_bound(11) == fi(735_746_457_600)
    assert minkowski_bound(12) == fi(24_103_053_950_976_000)


def test_criterion_02_tables_bit_exact():
    for n, expected in ((3, TABLE_3), (4, TABLE_4)):
        rows = dict(table(n, max(expected)))
        assert sorted(rows) == sorted(expected)
        for d, (factors, decimal) in expected.items():
            assert rows[d].as_map() == factors, (n, d)
            assert int(rows[d]) == decimal, (n, d)


def test_criterion_03_serre_over_q():
    assert serre_bound(3, QQ) == fi(10_080)
    assert serre_bound(4, QQ) == fi(362_880)
    assert serre_bound(5, QQ) == fi(87_178_291_200)


def test_criterion_04_appendix_propositions(ledger):
    expected = {
        "appendix-prop-sch4-7": 1_132_185_600,
        "appendix-prop-sch3-15": 240_045_120,
        "cor-gl4-deg2": 87_091_200,
        "cor-gl3-deg2": 2_903_040,
        "serre-pgl3-deg2": 2_620_800,
        "serre-pgl4-deg2": 943_488_000,
    }
    for nid, value in expected.items():
        assert eval_node(ledger, nid) == fi(value), nid
        assert ledger.nodes[nid].declared == fi(value), nid


def test_criterion_05_standard_equation_lemmas(ledger):
    # the two solution sets that decide the degree-12 closing case
    one = solve_standard_equation(13, 12, SolutionConstraints(e_min=3, t_max=3))
    assert [(s.m, s.e, s.t) for s in one] == [(1, 3, 3)]
    two = solve_standard_equation(7, 12, SolutionConstraints(e_min=3, t_max=3))
    assert [(s.m, s.e, s.t) for s in two] == [(1, 4, 2), (1, 6, 3)]

    # every per-prime exponent step is an EquationCase leaf;
    # recomputing each one must land on its declared prime power
    degrees = set()
    count = 0
    for nid in ledger.order:
        node = ledger.nodes[nid]
        if node.kind != "EquationCase":
            continue
        degrees.add(node.args["d"])
        assert eval_node(ledger, nid) == node.declared, nid
        count += 1
    assert degrees == {4, 6, 8, 10, 12, 14}
    assert count >= 40


def test_criterion_06_geometry_section_arithmetic(ledger):
    points = {
        "lemma-del-pezzo": 432,
        "mfs-positive-dim": 5_184,
        "lemma-1.2.7": 444_528_000,
        "lemma-1.2.2": 1_886_976_000,
        "lemma-1.2.4": 125_798_400,
        "curve-line": 21_337_344,
        "lemma-1.2.6": 64_012_032,
        "lemma-1.2.3-singular": 174_182_400,
        "lemma-1.2.8": 1_778_112_000,
        "non-gor-no-cyclic": 3_962_649_600,
        "g7-bpf": 5_573_836_800,
        "lemma-degree-4": 1_902_071_808,
    }
    for nid, value in points.items():
        computed = eval_node(ledger, nid)
        assert computed == fi(value), nid
        assert computed == ledger.nodes[nid].declared, nid


def test_criterion_07_root_and_override(ledger):
    assert final_bound(ledger) == fi(24_103_053_950_976_000)
    assert final_bound(ledger, {"g10": 0}) == fi(735_746_457_600)


def test_criterion_08_discrepancy_audit(ledger, tmp_path):
    report = verify_ledger(ledger)
    assert {r.id for r in report.mismatches()} == {
        "gq-mfs-typo-note",
        "lemma-degree-4-input",
    }
    assert set(ledger.whitelist) == {r.id for r in report.mismatches()}
    assert report.unexpected(ledger.whitelist) == []

    # a fresh mismatch must flip the CLI to exit code 3
    from glbounds.cli import main

    doc = to_document(ledger)
    for node in doc["nodes"]:
        if node["id"] == "dp5":
            node["declared"] = {"2": 3, "3": 1, "5": 2}
            node["decimal"] = "600"
            node["kind"] = "Minkowski"
            node["args"] = {"n": 5}
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["ledger", "verify", "--file", str(tampered)]) == 3
    assert main(["ledger", "verify"]) == 0


def test_criterion_09_property_suites():
    # Schur equals Minkowski at odd primes over Q, and gives away
    # exactly floor(n/2) twos
    inv2 = all_invariants(QQ, 2)
    for n in range(1, 15):
        for p in range(3, n + 2):
            if is_prime(p):
                assert schur_exponent(n, p, all_invariants(QQ, p)) == minkowski_exponent(n, p)
        assert schur_exponent(n, 2, inv2) - minkowski_exponent(n, 2) == n // 2

    # degree-only rough bounds dominate every exact cyclotomic bound
    for c in range(1, 49):
        if c != 1 and (c < 3 or c % 4 == 2):
            continue
        k = ExactCyclotomic(Conductor(c))
        for n in (2, 3, 4):
            assert fi_cmp(schur_bound(n, k), rough_bound(n, k.degree)) <= 0

    # the fast solver agrees with the brute-force triple loop
    for p in [q for q in range(2, 44) if is_prime(q)]:
        for d in range(1, 16):
            fast = solve_standard_equation(p, d, SolutionConstraints(t_max=6))
            slow = brute_solutions(p, d, m_max=9, e_max=6 * d, t_max=6)
            assert set(fast) == set(slow), (p, d)

    # real-subfield membership against the numeric Galois orbit
    from glbounds.cyclotomic import real_cyclo_member

    for c in range(1, 65):
        if c != 1 and (c < 3 or c % 4 == 2):
            continue
        cond = Conductor(c)
        for m in range(1, 65):
            assert real_cyclo_member(m, cond) == member_by_cosines(m, cond)

    # inverse-totient maxima
    assert invphi_max(8) == 30
    assert invphi_max(12) == 42
    assert invphi_max(24) == 90
    assert invphi_max(48) == 210


def test_criterion_10_pgl2_classification():
    families, top = pgl2_admissible(QQ)
    assert [f.label for f in families] == [
        "mu2", "mu3", "mu4", "mu6", "D4", "D6", "D8", "D12",
    ]
    assert top == fi(12)
    for d, value in ((2, 24), (4, 60), (6, 84), (12, 180), (24, 420)):
        assert pgl2_max_order(d) == fi(value), d
