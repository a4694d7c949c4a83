from __future__ import annotations

import functools
import itertools
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
    _MAX_DIGITS,
    _SPRP_EXACT_BELOW,
    _STR_BITS,
    _bits_bound,
    _digits_bound,
    _factor_below,
    _strong_probable_prime,
    _valuation,
    factorial_valuation,
    factorize,
    fi_cmp,
    fi_div_exact,
    fi_mul,
    fi_to_decimal,
    fi_to_factored_str,
    is_prime,
    primes_upto,
)

from conftest import decimal_value

positive = st.integers(min_value=1, max_value=10**9)


def fi(n: int) -> FactoredInteger:
    return FactoredInteger.from_int(n)


# Independent oracles: a smallest-prime-factor table built here by its own
# sieve, so no test of is_prime or trial division compares them with
# themselves or with each other.
SPF_LIMIT = 2 * 10**5


@functools.cache
def _smallest_prime_factors() -> list[int]:
    """spf[n] is the smallest prime factor of n, for 2 <= n <= SPF_LIMIT."""
    spf = list(range(SPF_LIMIT + 1))
    for p in range(2, math.isqrt(SPF_LIMIT) + 1):
        if spf[p] == p:
            for multiple in range(p * p, SPF_LIMIT + 1, p):
                if spf[multiple] == multiple:
                    spf[multiple] = p
    return spf


def _sieve_prime(n: int) -> bool:
    return n >= 2 and _smallest_prime_factors()[n] == n


def _sieve_factors(*parts: int) -> dict[int, int]:
    """The factorization of the product of parts, each at most SPF_LIMIT."""
    spf = _smallest_prime_factors()
    out: dict[int, int] = {}
    for n in parts:
        while n > 1:
            p = spf[n]
            out[p] = out.get(p, 0) + 1
            n //= p
    return out


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 97, 101, 103, 9973]
    non_primes = [-7, 0, 1, 4, 9, 91, 100, 10201]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(n) for n in non_primes)


def test_is_prime_matches_the_sieve():
    assert [n for n in range(-5, SPF_LIMIT + 1) if is_prime(n)] == [
        n for n in range(-5, SPF_LIMIT + 1) if _sieve_prime(n)]


@pytest.mark.parametrize("n", [
    97**2, 101**2, 97 * 101, 89 * 97, 101 * 103, 97**3, 9973**2, 99991 * 99989])
def test_is_prime_rejects_squares_and_products_at_the_small_prime_edge(n):
    # 97^2 is the first n the small-prime loop runs through to its end
    assert not is_prime(n)


def test_is_prime_on_powers_of_two():
    assert [k for k in range(0, 200) if is_prime(2**k)] == [1]


def test_factorize_basics():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(2**10 * 97) == {2: 10, 97: 1}
    with pytest.raises(DomainError):
        factorize(0)


def test_factorize_matches_the_sieve_below_its_limit():
    for n in list(range(1, 20000)) + list(range(SPF_LIMIT - 2000, SPF_LIMIT + 1)):
        assert factorize(n) == _sieve_factors(n), n


sieved = st.integers(min_value=1, max_value=SPF_LIMIT)


@given(sieved, sieved)
@example(4, 1)
@example(97, 97)
@example(101, 101)
@example(2 * 89, 1)
def test_factorize_matches_the_sieve(a, b):
    assert factorize(a * b) == _sieve_factors(a, b)


@given(sieved, sieved, st.integers(min_value=2, max_value=10**4))
@example(2 * 89, 1, 50)
@example(105, 1, 4)
@example(4, 1, 2)
@example(4, 1, 3)
@example(97, 97, 97)
@example(97, 97, 98)
@example(101, 103, 102)
def test_factor_below_splits_at_the_limit(a, b, limit):
    factors, rest = _factor_below(a * b, limit)
    whole = _sieve_factors(a, b)
    assert factors == {p: e for p, e in whole.items() if p < limit}
    assert rest == math.prod(p**e for p, e in whole.items() if p >= limit)


def test_factor_below_stops_at_the_limit():
    # 10^20 + 39 is prime; unbounded trial division would run to 10^10
    assert _factor_below(10**20 + 39, 1000) == ({}, 10**20 + 39)
    assert _factor_below(2**5 * 1009 * 1013, 1010) == ({2: 5, 1009: 1}, 1013)
    # it takes an int n >= 1 unchecked; factorize, its public caller, checks n
    with pytest.raises(DomainError, match="^n must be >= 1, got 0$"):
        factorize(0)


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
    assert all(_strong_probable_prime(n) == _sieve_prime(n) for n in range(43, SPF_LIMIT, 2))
    # strong pseudoprimes to the first 9 and the first 12 prime bases
    assert not _strong_probable_prime(3825123056546413051)
    assert not _strong_probable_prime(318665857834031151167461)
    assert _strong_probable_prime(M61)
    assert _strong_probable_prime(10**20 + 39)
    assert factorize(M61) == {M61: 1}


M89 = 2**89 - 1  # prime, but past the range where Miller-Rabin decides primality
UNDECIDED_M89 = ("a cofactor of 89 bits is a strong probable prime past %d, where "
                 "primality is not decided" % _SPRP_EXACT_BELOW)


@pytest.mark.parametrize("call", [
    lambda: factorize(M89),
    lambda: FactoredInteger.from_int(M89),
    lambda: FactoredInteger.from_int(2**5 * 101 * M89),
    lambda: _factor_below(M89, 10**8),
    lambda: _factor_below(99991 * M89, 10**8),
])
def test_an_undecided_cofactor_is_refused_at_once(call):
    # trial division on to 10^8 took about 10 s; unbounded, to 2^44.5, years
    start = time.perf_counter()
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == UNDECIDED_M89
    assert time.perf_counter() - start < 1.0


def test_factorize_accepts_a_cofactor_only_when_it_is_proved_prime(monkeypatch):
    start = time.perf_counter()
    # below 10^16 trial division to 10^8 proves it; from there on Miller-Rabin
    assert factorize(6 * 100000007) == {2: 1, 3: 1, 100000007: 1}
    assert factorize(3 * 99999989) == {3: 1, 99999989: 1}
    assert factorize(3 * (10**20 + 39)) == {3: 1, 10**20 + 39: 1}
    assert FactoredInteger.from_int(7 * M61).to_int() == 7 * M61
    assert time.perf_counter() - start < 2.0
    # a cofactor with no prime factor below the limit that is no prime; with
    # the limit at 10^8 trial division would take about 8 s to get there
    import glbounds.exactnum as exactnum_mod
    monkeypatch.setattr(exactnum_mod, "_TRIAL_LIMIT", 1000)
    assert factorize(1009 * 997) == {997: 1, 1009: 1}  # below 1000^2: prime
    with pytest.raises(DomainError) as info:
        factorize(8 * 1009 * 1013)
    assert str(info.value) == (
        "a cofactor of 20 bits has no prime factor below 1000 and is composite; it is not factored")


def test_is_prime_past_trial_division_is_quick_and_bounded():
    start = time.perf_counter()
    assert is_prime(M61)
    assert FactoredInteger(((M61, 1),)).to_int() == M61
    assert time.perf_counter() - start < 1.0
    # strong pseudoprimes to the first 9 and the first 12 prime bases
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    assert is_prime(10**20 + 39) and not is_prime(10**20 + 41)
    assert is_prime(10**10 + 19) and not is_prime(10**10 + 1)  # from _SPRP_FROM on
    assert not is_prime(_SPRP_EXACT_BELOW + 2)  # a small factor settles it: 3
    # past the exact range Miller-Rabin still proves a composite composite
    assert is_prime(101 * M89) is False
    # the bound is itself a strong pseudoprime to every base up to 41
    assert _strong_probable_prime(_SPRP_EXACT_BELOW)
    for n in (_SPRP_EXACT_BELOW, 2**127 - 1):
        with pytest.raises(DomainError) as info:
            is_prime(n)
        assert str(info.value) == (
            "a cofactor of %d bits is a strong probable prime past %d, where primality is "
            "not decided" % (n.bit_length(), _SPRP_EXACT_BELOW))


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
    assert FactoredInteger.from_map({5: 0}) == ONE
    assert FactoredInteger.from_map({5: 1, 2: 3}).factors == ((2, 3), (5, 1))


def test_a_list_of_factors_is_kept_as_a_tuple():
    value = FactoredInteger([(2, 3)])
    assert value.factors == ((2, 3),) and value == fi(8) and hash(value) == hash(fi(8))


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


@given(st.lists(positive, max_size=6))
def test_a_product_of_many_is_the_chained_product_of_two(ns):
    values = [fi(n) for n in ns]
    chained = ONE
    for value in values:
        chained = fi_mul(chained, value)
    product = fi_mul(*values)
    assert product == chained and product.to_int() == math.prod(ns)
    assert _revalidated(product) == product


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


# Either side of the 2 000-bit bound up to which a value keeps its int, in
# bits and in the bound sum(e * bit_length(p)) that fi_cmp reads first.
# M61^32 * q for the largest prime q below 2^47, 2^48, 2^49 is 1 999, 2 000
# and 2 001 bits, with the same bound; 2^1000 is 1 001 bits with bound 2 000.
# The others are small in bits but not in the bound (3 * 2^1000: 2 002,
# 3^1261: 1 999 bits and 2 522), or large in both.
Q47, Q48, Q49 = 2**47 - 115, 2**48 - 59, 2**49 - 81
BOUNDARY_MAPS = [
    {M61: 32, Q47: 1}, {M61: 32, Q48: 1}, {M61: 32, Q49: 1}, {M61: 32}, {M61: 33},
    {2: 1000}, {2: 1000, 3: 1}, {2: 1999}, {2: 2000}, {3: 1261}, {3: 1262},
    {2: 47, M61: 32}, {2: 48, M61: 32}, {2: 49, M61: 32},
    {2: 1000, 3: 1, M61: 16}, {2: 999, 3: 1, M61: 16},
]


def _boundary_values(warm: str) -> list[FactoredInteger]:
    """Fresh values of BOUNDARY_MAPS, then every other one rendered or
    compared (or none), so each pair meets every mix of kept and not kept."""
    values = [FactoredInteger.from_map(m) for m in BOUNDARY_MAPS]
    for value in values[::2] if warm != "none" else ():
        if warm == "rendered":
            fi_to_decimal(value)
        else:
            fi_cmp(value, ONE)
    return values


@pytest.mark.parametrize("warm", ["none", "rendered", "compared"])
def test_cmp_on_either_side_of_the_kept_int_bound(warm):
    ints = [_expand(m) for m in BOUNDARY_MAPS]
    assert {n.bit_length() for n in ints} >= {1001, 1999, 2000, 2001}
    values = _boundary_values(warm)
    for _ in range(2):  # the second pass compares what the first one kept
        for (a, x), (b, y) in itertools.product(zip(values, ints), repeat=2):
            assert fi_cmp(a, b) == (x > y) - (x < y), (x.bit_length(), y.bit_length())
    for value, n in zip(values, ints):
        # a value keeps its int only when small, and the int it keeps is its own
        assert value._int in (None, n)
        assert value._int is None or n.bit_length() <= 2000
    if warm == "none":  # only compared: kept exactly when the bound is at most 2 000
        assert [value._int is not None for value in values[:3]] == [True, True, False]


@pytest.mark.parametrize("warm", ["none", "rendered", "compared"])
def test_bits_bound_is_exact_for_a_kept_int_and_the_sum_otherwise(warm):
    for value, m in zip(_boundary_values(warm), BOUNDARY_MAPS):
        n, bits = _expand(m), _bits_bound(value)
        if value._int is None:
            assert bits == sum([e * p.bit_length() for p, e in m.items()])
        else:
            assert bits == n.bit_length()
        assert n < 2**bits and len(str(n)) <= _digits_bound(bits)
    assert _bits_bound(FactoredInteger(())) == 1  # the empty product 1 < 2^1


def test_digits_bound_is_at_most_one_past_the_digits_below_its_power_of_two():
    for bits in itertools.chain(range(1, 3000), [99999, 100000, 100001]):
        digits = len(fi_to_decimal(FactoredInteger(((2, bits),))))  # those of 2^bits - 1
        assert digits <= _digits_bound(bits) <= digits + 1, bits
    # the bits of minkowski_bound(9999999) and (1000000), and the digits the
    # CLI prints when it refuses them
    assert _digits_bound(236138287) == 71084709
    assert _digits_bound(20295748) == 6109630


def test_a_kept_int_is_inside_the_digit_budget():
    # fi_to_decimal checks only a value with no kept int, since a kept int
    # has at most _STR_BITS bits.
    assert _digits_bound(_STR_BITS) <= _MAX_DIGITS


def test_decimal_refuses_a_value_past_the_digit_budget_unexpanded():
    past = FactoredInteger(((2, 3321928),))  # 1 000 001 digits by the bound
    for group in (False, True):
        with pytest.raises(DomainError) as info:
            fi_to_decimal(past, group=group)
        assert str(info.value) == (
            "the value has up to 1000001 digits; at most 1000000 are printed")
    with pytest.raises(DomainError):
        str(past)
    assert past._int is None


def test_comparing_huge_values_multiplies_out_only_what_differs():
    # 10^100000 * 3 and 10^100000 * 7: the common power of ten cancels
    a = FactoredInteger.from_map({2: 100000, 3: 1, 5: 100000})
    b = FactoredInteger.from_map({2: 100000, 5: 100000, 7: 1})
    start = time.perf_counter()
    for _ in range(100):
        assert fi_cmp(a, b) == -1 and fi_cmp(b, a) == 1 and fi_cmp(a, a) == 0
    assert time.perf_counter() - start < 0.5
    assert a._int is None and b._int is None


@pytest.mark.parametrize("warm", ["none", "rendered", "compared"])
def test_decimal_on_either_side_of_the_kept_int_bound(warm):
    for value, m in zip(_boundary_values(warm), BOUNDARY_MAPS):
        n = _expand(m)
        for _ in range(2):  # the second rendering reads the int the first one kept
            assert fi_to_decimal(value) == str(n)
            assert fi_to_decimal(value, group=True) == format(n, ",").replace(",", " ")
            assert value.to_int() == n == int(value)


@given(positive, positive)
def test_div_exact_inverts_mul(a, b):
    assert fi_div_exact(fi_mul(fi(a), fi(b)), fi(b)) == fi(a)


def test_div_exact_rejects_non_divisor():
    with pytest.raises(NonDivisible) as info:
        fi_div_exact(fi(10), fi(4))
    assert str(info.value) == "2^2 does not divide 2 * 5"


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
    # below 100 the answer is a prefix of the small-prime table, from 100 on the sieve's
    for limit in [*range(-1, 201), 1000]:
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
    assert _valuation(3, 162) == 4


@given(st.sampled_from([2, 3, 5, 7]), st.integers(min_value=0, max_value=40))
def test_factorial_valuation_matches_naive(p, k):
    naive = 0
    for i in range(2, k + 1):
        naive += _valuation(p, i)
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
