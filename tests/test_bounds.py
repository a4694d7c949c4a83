from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from glbounds.bounds import (
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
from glbounds.cyclotomic import QQ, DegreeOnly, ExactCyclotomic, all_invariants, canonical_conductor
from glbounds.exactnum import DomainError, FactoredInteger, fi_cmp, is_prime


def fi(n: int) -> FactoredInteger:
    return FactoredInteger.from_int(n)


def field(n: int) -> ExactCyclotomic:
    return ExactCyclotomic(canonical_conductor(n))


def test_minkowski_exponent_spot_values():
    assert minkowski_exponent(12, 2) == 12 + 6 + 3 + 1
    assert minkowski_exponent(12, 3) == 6 + 2
    assert minkowski_exponent(12, 13) == 1
    assert minkowski_exponent(3, 5) == 0
    with pytest.raises(DomainError):
        minkowski_exponent(3, 4)
    with pytest.raises(DomainError):
        minkowski_exponent(0, 2)


def test_minkowski_bound_values():
    assert minkowski_bound(1) == fi(2)
    assert minkowski_bound(2) == fi(24)
    assert minkowski_bound(3) == fi(48)
    assert minkowski_bound(4) == fi(5760)
    assert minkowski_bound(5) == fi(11520)
    assert minkowski_bound(9) == fi(2786918400)


def test_schur_equals_minkowski_for_odd_primes_over_q():
    for n in range(1, 15):
        for p in range(3, n + 2, 2):
            if not is_prime(p):
                continue
            inv = all_invariants(QQ, p)
            assert schur_exponent(n, p, inv) == minkowski_exponent(n, p), (n, p)


def test_schur_two_exponent_slack_over_q():
    # at p = 2 the cyclotomic machinery gives away exactly floor(n/2)
    inv = all_invariants(QQ, 2)
    for n in range(1, 15):
        assert schur_exponent(n, 2, inv) - minkowski_exponent(n, 2) == n // 2


def test_schur_bound_over_q():
    assert schur_bound(3, QQ) == fi(96)
    assert schur_bound(4, QQ) == FactoredInteger.from_map({2: 9, 3: 2, 5: 1})


def test_schur_bound_grows_with_field():
    # passing to Q(z_12) can only enlarge each exponent
    small = schur_bound(3, QQ)
    large = schur_bound(3, field(12))
    assert fi_cmp(small, large) <= 0


def test_serre_bound_over_q():
    assert serre_bound(3, QQ) == fi(10080)
    assert serre_bound(4, QQ) == fi(362880)
    assert serre_bound(5, QQ) == fi(87178291200)
    assert serre_bound(1, QQ) == fi(1)


def test_serre_exponent_spot_values():
    assert serre_exponent(3, 2, all_invariants(QQ, 2)) == 2 * 2 + 1
    assert serre_exponent(3, 13, all_invariants(QQ, 13)) == 0
    assert serre_exponent(5, 5, all_invariants(QQ, 5)) == 2 + 0


def test_rough_bound_spot_values():
    assert rough_bound(3, 1) == fi(288)
    assert rough_bound(3, 2) == fi(362880)
    assert rough_bound(3, 12) == fi(148299010973568000)
    assert rough_bound(4, 1) == fi(69120)
    assert rough_bound(4, 7) == fi(2004480)
    with pytest.raises(DomainError):
        rough_bound(3, 0)


def test_rough_exponent_odd_prime_shape():
    # d = 12, p = 7: t can drop to (7-1)/gcd(6,12) = 1, v_7(12) = 0
    assert rough_exponent(3, 12, 7) == 1 * 3 + 0
    # d = 1, p = 3: t >= 2, so floor(3/2) = 1 plus the Sylow tail 1
    assert rough_exponent(3, 1, 3) == 1 + 1


def test_rough_dominates_schur_small_conductors():
    conductors = [c for c in range(1, 49) if c == 1 or (c >= 3 and c % 4 != 2)]
    for c in conductors:
        k = field(c)
        for n in (2, 3, 4):
            assert fi_cmp(schur_bound(n, k), rough_bound(n, k.degree)) <= 0, (c, n)


def test_table_matches_individual_rows():
    rows = table(3, 15)
    assert [d for d, _ in rows] == list(range(1, 16))
    for d, value in rows:
        assert value == rough_bound(3, d)
    with pytest.raises(DomainError):
        table(3, 0)


def test_pgl2_over_q_is_twelve():
    families, top = pgl2_admissible(QQ)
    labels = [f.label for f in families]
    assert labels == ["mu2", "mu3", "mu4", "mu6", "D4", "D6", "D8", "D12"]
    assert top == fi(12)


def test_pgl2_flags_gate_polyhedral_groups():
    # unknown flags keep A4/S4 on the table even in degree 1
    families, top = pgl2_admissible(DegreeOnly(degree=1))
    kinds = {f.kind for f in families}
    assert "A4" in kinds and "S4" in kinds and "A5" not in kinds
    assert top == fi(24)
    # the icosahedron needs sqrt(5), a usable -1, and degree above 2
    families, top = pgl2_admissible(
        DegreeOnly(degree=4, minus1_sum_of_two_squares="yes", contains_sqrt5="yes")
    )
    assert "A5" in {f.kind for f in families}
    assert top == fi(60)
    families, _ = pgl2_admissible(
        DegreeOnly(degree=2, minus1_sum_of_two_squares="yes", contains_sqrt5="yes")
    )
    assert "A5" not in {f.kind for f in families}
    families, _ = pgl2_admissible(DegreeOnly(degree=4, contains_sqrt5="no"))
    assert "A5" not in {f.kind for f in families}


def test_pgl2_max_order_by_degree():
    assert pgl2_max_order(2) == fi(24)
    assert pgl2_max_order(4) == fi(60)
    assert pgl2_max_order(6) == fi(84)
    assert pgl2_max_order(12) == fi(180)
    assert pgl2_max_order(24) == fi(420)


def test_gl2_max_order():
    assert gl2_max_order(6) == fi(1512)
    assert gl2_max_order(1) == fi(48)


@given(st.integers(min_value=1, max_value=30))
def test_gl2_factorization(d):
    from glbounds.totient import invphi_max

    assert gl2_max_order(d) == fi(invphi_max(d)) * pgl2_max_order(d)
