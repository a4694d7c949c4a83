"""Exact upper bounds for finite subgroups of GL_n and PGL_n over number
fields, plus a verifiable ledger that composes them into the order bound
24 103 053 950 976 000 for birational automorphism groups of rational
threefolds over Q.
"""

from .exactnum import (
    ONE,
    DomainError,
    FactoredInteger,
    NonDivisible,
    factorial_valuation,
    fi_cmp,
    fi_div_exact,
    fi_mul,
    fi_to_decimal,
    fi_to_factored_str,
)
from .totient import euler_phi, invphi_all, invphi_max
from .cyclotomic import (
    Conductor,
    CycloInvariants,
    DegreeOnly,
    ExactCyclotomic,
    QQ,
    all_invariants,
    canonical_conductor,
    contains_root_of_unity,
    real_cyclo_member,
)
from .bounds import (
    gl2_max_order,
    minkowski_bound,
    minkowski_exponent,
    pgl2_admissible,
    pgl2_max_order,
    rough_bound,
    rough_exponent,
    schur_bound,
    schur_exponent,
    serre_bound,
    serre_exponent,
    table,
)
from .diophantine import (
    EquationSolution,
    SolutionConstraints,
    max_schur_exponent,
    solve_standard_equation,
)
from .ledger import (
    BadDeclaredValue,
    CycleError,
    DanglingChild,
    Ledger,
    LedgerError,
    LedgerNode,
    ScaleNotExact,
    SchemaError,
    VerificationReport,
    VerificationRow,
    dumps_ledger,
    eval_node,
    explain,
    final_bound,
    load_ledger,
    paper_ledger,
    verify_ledger,
)

# Written out, so that a name a later import brings in joins the API only
# when it is listed here.  The submodules are public too.
__all__ = [
    "bounds", "cyclotomic", "diophantine", "exactnum", "ledger", "totient",
    # exactnum
    "ONE", "DomainError", "FactoredInteger", "NonDivisible", "factorial_valuation", "fi_cmp",
    "fi_div_exact", "fi_mul", "fi_to_decimal", "fi_to_factored_str",
    # totient
    "euler_phi", "invphi_all", "invphi_max",
    # cyclotomic
    "Conductor", "CycloInvariants", "DegreeOnly", "ExactCyclotomic", "QQ", "all_invariants",
    "canonical_conductor", "contains_root_of_unity", "real_cyclo_member",
    # bounds
    "gl2_max_order", "minkowski_bound", "minkowski_exponent", "pgl2_admissible",
    "pgl2_max_order", "rough_bound", "rough_exponent", "schur_bound", "schur_exponent",
    "serre_bound", "serre_exponent", "table",
    # diophantine
    "EquationSolution", "SolutionConstraints", "max_schur_exponent", "solve_standard_equation",
    # ledger
    "BadDeclaredValue", "CycleError", "DanglingChild", "Ledger", "LedgerError", "LedgerNode",
    "ScaleNotExact", "SchemaError", "VerificationReport", "VerificationRow", "dumps_ledger",
    "eval_node", "explain", "final_bound", "load_ledger", "paper_ledger", "verify_ledger",
]
__version__ = "0.1.0"
