"""The package's public names, and the python -O contract of its source."""

from __future__ import annotations

import ast
from pathlib import Path

import glbounds
import glbounds.exactnum
import glbounds.ledger

SOURCE = Path(__file__).resolve().parents[1] / "src" / "glbounds"

# Every name `from glbounds import *` gives, the submodules the package
# imports included.  A helper only the tests call belongs in the tests.
PUBLIC = [
    "BadDeclaredValue", "Conductor", "CycleError", "CycloInvariants", "DanglingChild",
    "DegreeOnly", "DomainError", "EquationSolution", "ExactCyclotomic", "FactoredInteger",
    "Ledger", "LedgerError", "LedgerNode", "NonDivisible", "ONE", "QQ", "ScaleNotExact",
    "SchemaError", "SolutionConstraints", "VerificationReport", "VerificationRow",
    "all_invariants", "bounds", "canonical_conductor", "contains_root_of_unity", "cyclotomic",
    "diophantine", "dumps_ledger", "euler_phi", "eval_node", "exactnum", "explain",
    "factorial_valuation", "fi_cmp", "fi_div_exact", "fi_mul", "fi_to_decimal",
    "fi_to_factored_str", "final_bound", "gl2_max_order", "invphi_all", "invphi_max", "ledger",
    "load_ledger", "max_schur_exponent", "minkowski_bound", "minkowski_exponent",
    "paper_ledger", "pgl2_admissible", "pgl2_max_order", "real_cyclo_member", "rough_bound",
    "rough_exponent", "schur_bound", "schur_exponent", "serre_bound", "serre_exponent",
    "solve_standard_equation", "table", "totient", "verify_ledger",
]


def test_public_names_are_pinned():
    assert sorted(glbounds.__all__) == PUBLIC
    # test-only helpers live in the tests: the writer's oracle in conftest,
    # the plain valuation as the private _valuation
    assert not hasattr(glbounds.ledger, "to_document")
    assert not hasattr(glbounds.exactnum, "valuation_int")


def test_the_package_holds_no_assert_statement():
    # python -O strips assert, so no check of the program may be one.
    paths = sorted(SOURCE.glob("*.py"))
    assert len(paths) >= 8  # the source was found
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
