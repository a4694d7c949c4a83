"""The package's public names, the python -O contract of its source, the
README's short session and the distribution's name and version."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import glbounds
import glbounds.exactnum
import glbounds.ledger

SUBMODULES = ("exactnum", "totient", "cyclotomic", "bounds", "diophantine", "ledger")

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "glbounds"

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


def _defined_at_top_level(path: Path) -> set[str]:
    """Names a module binds by its own def, class or assignment, not by import."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def test_each_name_is_declared_once_in_its_module_and_republished():
    lists = {name: getattr(glbounds, name).__all__ for name in SUBMODULES}
    for name, names in lists.items():
        assert set(names) <= _defined_at_top_level(SOURCE / (name + ".py")), name
        module = getattr(glbounds, name)
        for attr in names:  # the package republishes the module's own object
            assert getattr(glbounds, attr) is getattr(module, attr)
    union = [attr for names in lists.values() for attr in names]
    assert len(set(union)) == len(union)  # no list repeats a name, and the six are disjoint
    assert sorted(glbounds.__all__) == sorted(list(SUBMODULES) + union)
    assert len(glbounds.__all__) == len(set(glbounds.__all__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_a_wildcard_import_binds_exactly_the_modules_all(name):
    namespace: dict = {}
    exec("from glbounds.%s import *" % name, namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(getattr(glbounds, name).__all__)


def test_the_package_lists_no_names_of_its_own():
    # No public name is spelled out in __init__.py: they live in the
    # submodules' __all__.
    tree = ast.parse((SOURCE / "__init__.py").read_text(encoding="utf-8"))
    strings = {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert not strings & set(PUBLIC)


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


def test_the_readme_session_prints_what_its_comments_say(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("A short session:\n\n```python\n", 1)[1].split("```", 1)[0]
    printed = [line for line in block.splitlines() if line.startswith("print(")]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == [line.partition("# ")[2] for line in printed]
    assert len(printed) == 5


def test_the_distribution_is_glbounds_at_the_package_version():
    # a regex, not tomllib, which Python 3.10 lacks
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)^\[", pyproject, re.M | re.S).group(1)
    assert re.findall(r'^name = "(.*)"$', project, re.M) == ["glbounds"]
    assert re.findall(r'^version = "(.*)"$', project, re.M) == [glbounds.__version__]
