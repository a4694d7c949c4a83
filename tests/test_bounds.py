from __future__ import annotations

import math

import pytest
from hypothesis import example, given
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
from glbounds.cyclotomic import (
    QQ,
    TRISTATE,
    CycloInvariants,
    DegreeOnly,
    ExactCyclotomic,
    all_invariants,
    canonical_conductor,
)
from glbounds.exactnum import DomainError, FactoredInteger, fi_cmp, is_prime, primes_upto


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


# ------------------------------------------------ sum-of-floors oracles
#
# The exponents are computed as a linear term plus a Legendre sum; these
# oracles write each one out as the plain sum of floors it stands for.

# p = 2 has branches of its own, so half the draws take it.
primes = st.one_of(st.just(2), st.sampled_from(primes_upto(200)))


def floors(n: int, q: int, p: int) -> int:
    """floor(n/q) + floor(n/(q p)) + floor(n/(q p^2)) + ..."""
    total = 0
    while q <= n:
        total += n // q
        q *= p
    return total


def v(p: int, d: int) -> int:
    count = 0
    while d % p == 0:
        d //= p
        count += 1
    return count


@given(st.integers(min_value=1, max_value=500), primes)
@example(n=37, p=2)
def test_minkowski_exponent_is_its_sum_of_floors(n, p):
    assert minkowski_exponent(n, p) == floors(n, p - 1, p)


@given(
    st.integers(min_value=1, max_value=500),
    primes,
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=6),
    st.booleans(),
)
@example(n=37, p=2, t=1, m=3, xi4=True)
@example(n=37, p=2, t=1, m=3, xi4=False)
def test_schur_exponent_is_its_sum_of_floors(n, p, t, m, xi4):
    inv = CycloInvariants(p=p, t_p=t, m_p=m, e_p=1, xi4_in_k=xi4)
    if p != 2:
        want = m * (n // t) + floors(n, p * t, p)
    elif xi4:
        want = m * n + floors(n, 2, 2)
    else:
        want = n + m * (n // 2) + floors(n, 4, 2)
    assert schur_exponent(n, p, inv) == want


@given(
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=300),
    primes,
)
@example(n=37, d=12, p=2)
@example(n=37, d=15, p=2)
def test_rough_exponent_is_its_sum_of_floors(n, d, p):
    if p != 2:
        tmin = (p - 1) // math.gcd(p - 1, d)
        want = (v(p, d) + 1) * (n // tmin) + floors(n, p, p)
    elif d % 2 == 0:
        want = n * (v(2, d) + 1) + floors(n, 2, 2)
    else:
        want = n + 2 * (n // 2) + floors(n, 4, 2)
    assert rough_exponent(n, d, p) == want


@pytest.mark.parametrize("p", [0, 1, 4])
def test_exponents_refuse_non_primes(p):
    for exponent in (lambda: minkowski_exponent(5, p), lambda: rough_exponent(5, 3, p)):
        with pytest.raises(DomainError) as info:
            exponent()
        assert str(info.value) == "%d is not prime" % p


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


def test_pgl2_maximum_is_the_largest_family_order():
    # the maximum is read off the largest m and the exceptional families;
    # the order of every family it returns is the reference
    for d in range(1, 31):
        for minus1 in TRISTATE:
            for sqrt5 in TRISTATE:
                families, top = pgl2_admissible(DegreeOnly(d, minus1, sqrt5))
                assert top == fi(max(f.order for f in families)), (d, minus1, sqrt5)
    for n in range(1, 121):
        if n % 4 != 2:
            families, top = pgl2_admissible(field(n))
            assert top == fi(max(f.order for f in families)), n


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


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=60),
)
def test_bounds_pass_the_public_constructor(n, d, conductor):
    # The four bounds build their results unchecked from sieved primes;
    # the public constructor must accept every one of them unchanged.
    for value in (
        minkowski_bound(n),
        rough_bound(n, d),
        schur_bound(n, field(conductor)),
        serre_bound(n, field(conductor)),
    ):
        assert type(value.factors) is tuple
        assert FactoredInteger(value.factors) == value


def test_rough_bound_prime_tests_each_sieved_prime_once(monkeypatch):
    import glbounds.bounds as bounds_mod
    import glbounds.exactnum as exactnum_mod

    calls = []

    def counting(p):
        calls.append(p)
        return is_prime(p)

    monkeypatch.setattr(bounds_mod, "is_prime", counting)
    monkeypatch.setattr(exactnum_mod, "is_prime", counting)
    rough_bound(3, 200)
    assert len(primes_upto(3 * 200 + 1)) == 110
    assert sorted(calls) == primes_upto(3 * 200 + 1)
