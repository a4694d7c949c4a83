from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from glbounds.cyclotomic import (
    QQ,
    Conductor,
    DegreeOnly,
    ExactCyclotomic,
    all_invariants,
    canonical_conductor,
    contains_root_of_unity,
    lcm_conductor,
    real_cyclo_member,
)
from glbounds.exactnum import DomainError
from glbounds.totient import euler_phi


def field(n: int) -> ExactCyclotomic:
    return ExactCyclotomic(canonical_conductor(n))


def test_conductor_canonical_form():
    for bad in (0, -1, 2, 6, 10, 22):
        with pytest.raises(DomainError):
            Conductor(bad)
    assert Conductor(1).value == 1
    assert Conductor(3).value == 3
    assert Conductor(4).value == 4


def test_canonical_conductor_halves_twice_odd():
    assert canonical_conductor(1).value == 1
    assert canonical_conductor(2).value == 1
    assert canonical_conductor(6).value == 3
    assert canonical_conductor(10).value == 5
    assert canonical_conductor(12).value == 12
    assert canonical_conductor(14).value == 7


def test_lcm_conductor():
    assert lcm_conductor(Conductor(3), 4).value == 12
    assert lcm_conductor(Conductor(1), 2).value == 1
    assert lcm_conductor(Conductor(5), 10).value == 5


def test_contains_root_of_unity():
    assert contains_root_of_unity(Conductor(1), 2)
    assert contains_root_of_unity(Conductor(3), 6)
    assert contains_root_of_unity(Conductor(12), 4)
    assert not contains_root_of_unity(Conductor(3), 4)
    assert not contains_root_of_unity(Conductor(5), 3)


def test_real_cyclo_member_rational_cases():
    # z_m + 1/z_m is 2, -2, -1, 0 or 1 for these m, hence in every field
    for m in (1, 2, 3, 4, 6):
        assert real_cyclo_member(m, Conductor(1))
        assert real_cyclo_member(m, Conductor(7))


def test_real_cyclo_member_examples():
    assert real_cyclo_member(5, Conductor(5))
    assert not real_cyclo_member(5, Conductor(1))
    assert not real_cyclo_member(5, Conductor(7))
    assert real_cyclo_member(8, Conductor(8))
    assert not real_cyclo_member(16, Conductor(8))
    assert real_cyclo_member(7, Conductor(7))


def test_degree_is_phi_of_conductor():
    assert QQ.degree == 1
    assert field(7).degree == 6
    assert field(12).degree == 4
    assert field(36).degree == 12


def test_degree_only_validation():
    with pytest.raises(DomainError):
        DegreeOnly(degree=0)
    with pytest.raises(DomainError):
        DegreeOnly(degree=2, contains_sqrt5="maybe")
    DegreeOnly(degree=2)


def test_invariants_over_q():
    for p in (3, 5, 7, 11, 13):
        inv = all_invariants(QQ, p)
        assert (inv.t_p, inv.m_p, inv.e_p) == (p - 1, 1, 1)
        assert inv.xi4_in_k is False
    inv2 = all_invariants(QQ, 2)
    assert (inv2.t_p, inv2.m_p) == (2, 2)
    assert inv2.xi4_in_k is False


def test_invariants_on_own_conductor():
    inv = all_invariants(field(7), 7)
    assert (inv.t_p, inv.m_p, inv.e_p) == (1, 1, 1)
    inv = all_invariants(field(9), 3)
    assert (inv.t_p, inv.m_p) == (1, 2)
    inv = all_invariants(field(4), 2)
    assert inv.xi4_in_k is True
    assert inv.t_p == 1


def test_invariants_satisfy_standard_equation():
    """p^(m-1) * (p-1) * e = d * t for every odd p and cyclotomic field."""
    for n in (1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 21, 36, 40):
        k = field(n)
        d = k.degree
        for p in (3, 5, 7, 11, 13):
            inv = all_invariants(k, p)
            lhs = p ** (inv.m_p - 1) * (p - 1) * inv.e_p
            assert lhs == d * inv.t_p, (n, p, inv)


@given(st.integers(min_value=3, max_value=40), st.sampled_from([3, 5, 7, 11]))
def test_t_p_divides_p_minus_1_times_power(n, p):
    k = field(n)
    inv = all_invariants(k, p)
    # t_p is the degree of K(z_p)/K, a divisor of phi(p^m_p) at full depth
    assert euler_phi(p ** inv.m_p) % inv.t_p == 0
    assert inv.t_p >= 1 and inv.m_p >= 1 and inv.e_p >= 1


def test_real_membership_matches_numeric_galois_orbit():
    from conftest import member_by_cosines

    conductors = [c for c in range(1, 65) if c == 1 or (c >= 3 and c % 4 != 2)]
    for cval in conductors:
        cond = Conductor(cval)
        for m in range(1, 65):
            assert real_cyclo_member(m, cond) == member_by_cosines(m, cond), (m, cval)
