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
    cyclo_e_p,
    cyclo_m_p,
    lcm_conductor,
    real_cyclo_member,
)
from glbounds.exactnum import DomainError, primes_upto
from glbounds.totient import euler_phi

from conftest import member_by_cosines, member_by_units

# Canonical conductors below 3 000 (1, and N >= 3 with N not 2 mod 4) and
# the primes up to 59: the sweep the closed forms are checked on.
SWEEP_CONDUCTORS = [n for n in range(1, 3000) if n == 1 or (n >= 3 and n % 4 != 2)]
SWEEP_PRIMES = primes_upto(59)


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
    """The identities all_invariants does not check at run time, on the sweep.

    Odd p: p^(m-1) * (p-1) divides d * t and times e equals it.  p = 2:
    m_2 >= 2, and t_2 = 1 exactly when z_4 is in K.  And t_p in closed
    form: 1 when p | N, else p - 1; for p = 2, 1 when 4 | N, else 2.
    """
    for n in SWEEP_CONDUCTORS:
        k = ExactCyclotomic(Conductor(n))
        d = k.degree
        for p in SWEEP_PRIMES:
            inv = all_invariants(k, p)
            if p != 2:
                den = p ** (inv.m_p - 1) * (p - 1)
                assert d * inv.t_p % den == 0, (n, p, inv)
                assert den * inv.e_p == d * inv.t_p, (n, p, inv)
                assert inv.t_p == (1 if n % p == 0 else p - 1), (n, p, inv)
            else:
                assert inv.m_p >= 2, (n, inv)
                assert (inv.t_p == 1) == inv.xi4_in_k, (n, inv)
                assert inv.t_p == (1 if n % 4 == 0 else 2), (n, inv)


@given(st.integers(min_value=3, max_value=40), st.sampled_from([3, 5, 7, 11]))
def test_t_p_divides_p_minus_1_times_power(n, p):
    k = field(n)
    inv = all_invariants(k, p)
    # t_p is the degree of K(z_p)/K, a divisor of phi(p^m_p) at full depth
    assert euler_phi(p ** inv.m_p) % inv.t_p == 0
    assert inv.t_p >= 1 and inv.m_p >= 1 and inv.e_p >= 1


def test_real_membership_matches_numeric_galois_orbit():
    conductors = [c for c in range(1, 65) if c == 1 or (c >= 3 and c % 4 != 2)]
    for cval in conductors:
        cond = Conductor(cval)
        for m in range(1, 65):
            assert real_cyclo_member(m, cond) == member_by_cosines(m, cond), (m, cval)


def test_real_membership_matches_the_unit_group():
    conductors = [c for c in SWEEP_CONDUCTORS if c < 400]
    for cval in conductors:
        cond = Conductor(cval)
        for m in range(1, 200):
            assert real_cyclo_member(m, cond) == member_by_units(m, cond), (m, cval)


def test_real_cyclo_member_domain():
    with pytest.raises(DomainError, match="m must be >= 1, got 0"):
        real_cyclo_member(0, Conductor(5))


def m_by_definition(k: ExactCyclotomic, p: int) -> int:
    """m_p by its definition, searching n upwards.

    Odd p: the largest n with z_{p^n} in K(z_p).  p = 2: the largest n with
    z_{2^n} in K when z_4 is in K, else the largest n >= 2 with
    z_{2^n} + 1/z_{2^n} in K.
    """
    if p != 2:
        ext = lcm_conductor(k.conductor, p)
        m = 1
        while contains_root_of_unity(ext, p ** (m + 1)):
            m += 1
        return m
    if contains_root_of_unity(k.conductor, 4):
        m = 2
        while contains_root_of_unity(k.conductor, 2 ** (m + 1)):
            m += 1
        return m
    m = 2
    while member_by_units(2 ** (m + 1), k.conductor):
        m += 1
    return m


def test_m_p_matches_its_definition():
    for n in SWEEP_CONDUCTORS:
        k = ExactCyclotomic(Conductor(n))
        for p in SWEEP_PRIMES:
            want = m_by_definition(k, p)
            assert cyclo_m_p(k, p) == want, (n, p)
            assert all_invariants(k, p).m_p == want, (n, p)


def test_e_2_times_the_real_subfield_degree_is_d_t():
    """2^(m_2 - 2) * e_2 = d * t_2, with and without z_4 in K."""
    seen = set()
    for n in SWEEP_CONDUCTORS:
        k = ExactCyclotomic(Conductor(n))
        inv = all_invariants(k, 2)
        assert cyclo_e_p(k, 2) == inv.e_p
        ext_degree = euler_phi(lcm_conductor(k.conductor, 4).value)  # [K(z_4) : Q]
        assert 2 ** (inv.m_p - 2) * inv.e_p == ext_degree == k.degree * inv.t_p, (n, inv)
        seen.add(inv.xi4_in_k)
    assert seen == {True, False}


def test_invariants_reject_a_non_prime():
    for p in (0, 1, 4, 9):
        with pytest.raises(DomainError, match="%d is not prime" % p):
            cyclo_m_p(QQ, p)
        with pytest.raises(DomainError, match="%d is not prime" % p):
            cyclo_e_p(QQ, p)
