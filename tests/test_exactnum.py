from __future__ import annotations

import math
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from glbounds.exactnum import (
    ONE,
    SIEVE_LIMIT,
    DomainError,
    FactoredInteger,
    NonDivisible,
    _factor_below,
    _strong_probable_prime,
    factorial_valuation,
    factorize,
    fi_cmp,
    fi_div_exact,
    fi_mul,
    fi_to_decimal,
    fi_to_factored_str,
    is_prime,
    primes_upto,
    valuation_int,
)

from conftest import decimal_value

positive = st.integers(min_value=1, max_value=10**9)


def fi(n: int) -> FactoredInteger:
    return FactoredInteger.from_int(n)


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 97, 101, 103, 9973]
    non_primes = [-7, 0, 1, 4, 9, 91, 100, 10201]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(n) for n in non_primes)


def test_factorize_basics():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(2**10 * 97) == {2: 10, 97: 1}
    with pytest.raises(DomainError):
        factorize(0)


@given(st.integers(min_value=1, max_value=10**7), st.integers(min_value=98, max_value=10**4))
def test_factor_below_splits_at_the_limit(n, limit):
    factors, rest = _factor_below(n, limit)
    whole = factorize(n)
    assert factors == {p: e for p, e in whole.items() if p < limit}
    assert rest == math.prod(p**e for p, e in whole.items() if p >= limit)


def test_factor_below_stops_at_the_limit():
    # 10^20 + 39 is prime; unbounded trial division would run to 10^10
    assert _factor_below(10**20 + 39, 1000) == ({}, 10**20 + 39)
    assert _factor_below(2**5 * 1009 * 1013, 1010) == ({2: 5, 1009: 1}, 1013)
    with pytest.raises(DomainError):
        _factor_below(0, 1000)


M61 = 2**61 - 1  # prime


@pytest.mark.parametrize("n, factors, rest", [
    (M61, {}, M61),
    (101 * M61, {101: 1}, M61),
    (99991 * M61, {99991: 1}, M61),
    # a strong pseudoprime to every prime base up to 23
    (3825123056546413051, {149491: 1, 747451: 1, 34233211: 1}, 1),
    ((10**6 + 3) * (10**6 + 33), {10**6 + 3: 1, 10**6 + 33: 1}, 1),
])
def test_factor_below_a_large_prime_cofactor_is_quick(n, factors, rest):
    # without the primality test each call divides on to d = 10^8, ~7 s
    start = time.perf_counter()
    assert _factor_below(n, 10**8) == (factors, rest)
    assert time.perf_counter() - start < 1.0


def test_strong_probable_prime_is_exact():
    assert all(_strong_probable_prime(n) == is_prime(n) for n in range(43, 200000, 2))
    # strong pseudoprimes to the first 9 and the first 12 prime bases
    assert not _strong_probable_prime(3825123056546413051)
    assert not _strong_probable_prime(318665857834031151167461)
    assert _strong_probable_prime(M61)
    assert _strong_probable_prime(10**20 + 39)
    assert factorize(M61) == {M61: 1}


def test_construction_rejects_bad_factors():
    with pytest.raises(DomainError):
        FactoredInteger(((4, 1),))
    with pytest.raises(DomainError):
        FactoredInteger(((2, 0),))
    with pytest.raises(DomainError):
        FactoredInteger(((3, 1), (2, 1)))
    with pytest.raises(DomainError):
        FactoredInteger(((2, 1), (2, 1)))


def test_from_map_drops_zero_exponents():
    assert FactoredInteger.from_map({2: 3, 5: 0}) == fi(8)


def test_one_is_empty_product():
    assert ONE.factors == ()
    assert ONE.to_int() == 1
    assert str(ONE) == "1"
    assert fi_to_factored_str(ONE) == "1"
    assert fi_mul(ONE, fi(360)) == fi(360)


@given(positive)
def test_int_round_trip(n):
    assert FactoredInteger.from_int(n).to_int() == n


@given(positive, positive)
def test_mul_matches_integers(a, b):
    assert fi_mul(fi(a), fi(b)).to_int() == a * b


@given(positive, positive)
def test_cmp_matches_integers(a, b):
    assert fi_cmp(fi(a), fi(b)) == (a > b) - (a < b)


def test_cmp_beyond_machine_words():
    # cancellation plus exact expansion, so widths way past 2**63 are fine
    a = FactoredInteger.from_map({2: 200})
    b = FactoredInteger.from_map({3: 127})
    assert fi_cmp(a, b) == (2**200 > 3**127) - (2**200 < 3**127)
    assert fi_cmp(a, a) == 0


# Prime -> exponent maps with exponents up to 200, so values run far past
# 2**63 and most pairs share some primes but not all.
big_maps = st.dictionaries(
    st.sampled_from([2, 3, 5, 7, 11, 13, 43, 97, 101]),
    st.integers(min_value=0, max_value=200),
    max_size=6,
)


def _expand(factors: dict[int, int]) -> int:
    n = 1
    for p, e in factors.items():
        n *= p**e
    return n


@given(big_maps, big_maps)
def test_cmp_matches_integers_on_large_exponents(a, b):
    x, y = _expand(a), _expand(b)
    fa, fb = FactoredInteger.from_map(a), FactoredInteger.from_map(b)
    assert fi_cmp(fa, fb) == (x > y) - (x < y)
    assert fi_cmp(fb, fa) == (y > x) - (y < x)
    assert fi_cmp(fa, fa) == 0


@given(positive, positive)
def test_div_exact_inverts_mul(a, b):
    assert fi_div_exact(fi_mul(fi(a), fi(b)), fi(b)) == fi(a)


def test_div_exact_rejects_non_divisor():
    with pytest.raises(NonDivisible):
        fi_div_exact(fi(10), fi(4))


def test_operators():
    assert fi(6) * fi(4) == fi(24)
    assert fi(5) < fi(7)
    assert fi(7) <= fi(7)
    assert int(fi(360)) == 360


def test_decimal_rendering():
    v = fi(24103053950976000)
    assert fi_to_decimal(v) == "24103053950976000"
    assert fi_to_decimal(v, group=True) == "24 103 053 950 976 000"
    assert fi_to_decimal(fi(288), group=True) == "288"
    assert fi_to_decimal(fi(5760), group=True) == "5 760"


@given(positive)
@example(2**1999)  # 2000 bits, the last size grouped by format()
@example(2**2000)  # 2001 bits, grouped after the split rendering
@example(7 * 10**601)
def test_grouping_only_inserts_spaces(n):
    grouped = fi_to_decimal(fi(n), group=True)
    assert grouped.replace(" ", "") == str(n)
    for chunk in grouped.split(" ")[1:]:
        assert len(chunk) == 3


def test_decimal_past_the_str_digit_limit():
    # 10^14999 * 7 has 15 000 digits, past the 4 300 that str(int) accepts
    value = FactoredInteger.from_map({2: 14999, 5: 14999, 7: 1})
    text = fi_to_decimal(value)
    assert text == "7" + "0" * 14999
    grouped = fi_to_decimal(value, group=True)
    assert grouped == "700" + " 000" * 4999
    big = FactoredInteger.from_map({3: 20000, 11: 77})
    assert decimal_value(fi_to_decimal(big)) == 3**20000 * 11**77
    assert fi_to_decimal(big, group=True).replace(" ", "") == fi_to_decimal(big)


def test_primes_upto_matches_is_prime():
    for limit in (-1, 0, 1, 2, 3, 4, 97, 100, 1000):
        assert primes_upto(limit) == [p for p in range(2, limit + 1) if is_prime(p)]


def test_primes_upto_refuses_past_the_sieve_limit():
    assert SIEVE_LIMIT == 10**7
    with pytest.raises(DomainError) as info:
        primes_upto(SIEVE_LIMIT + 1)
    assert str(info.value) == "primes are sieved up to SIEVE_LIMIT = 10000000, got 10000001"


def test_factored_str():
    assert fi_to_factored_str(fi(1440)) == "2^5 * 3^2 * 5"
    assert fi_to_factored_str(fi(30)) == "2 * 3 * 5"
    assert fi_to_factored_str(FactoredInteger.from_map({13: 1})) == "13"


def test_valuation():
    assert valuation_int(3, 162) == 4
    with pytest.raises(DomainError):
        valuation_int(6, 48)
    with pytest.raises(DomainError):
        valuation_int(2, 0)


@given(st.sampled_from([2, 3, 5, 7]), st.integers(min_value=0, max_value=40))
def test_factorial_valuation_matches_naive(p, k):
    naive = 0
    for i in range(2, k + 1):
        naive += valuation_int(p, i)
    assert factorial_valuation(p, k) == naive


def test_factorial_valuation_domain():
    with pytest.raises(DomainError):
        factorial_valuation(4, 10)
    with pytest.raises(DomainError):
        factorial_valuation(2, -1)


def _revalidated(value: FactoredInteger) -> FactoredInteger:
    """value rebuilt through the public, validating constructor."""
    assert type(value.factors) is tuple
    return FactoredInteger(value.factors)


@given(big_maps, big_maps)
def test_arithmetic_results_pass_the_public_constructor(a, b):
    # fi_mul and fi_div_exact build their results unchecked; the public
    # constructor must accept every one of them unchanged.
    x, y = FactoredInteger.from_map(a), FactoredInteger.from_map(b)
    product = fi_mul(x, y)
    assert _revalidated(product) == product
    assert product.to_int() == _expand(a) * _expand(b)
    quotient = fi_div_exact(product, y)
    assert _revalidated(quotient) == quotient == x
    assert _revalidated(fi_div_exact(product, product)) == ONE
