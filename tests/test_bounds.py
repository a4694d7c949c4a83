from __future__ import annotations

import inspect
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glbounds import bounds, cyclotomic, diophantine, exactnum, totient
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
    Conductor,
    CycloInvariants,
    DegreeOnly,
    ExactCyclotomic,
    all_invariants,
    canonical_conductor,
    contains_root_of_unity,
    real_cyclo_member,
)
from glbounds.diophantine import SolutionConstraints, max_schur_exponent, solve_standard_equation
from glbounds.exactnum import (
    ONE,
    DomainError,
    FactoredInteger,
    factorial_valuation,
    factorize,
    fi_cmp,
    is_prime,
    primes_upto,
)
from glbounds.totient import euler_phi, invphi_all, invphi_max


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


def test_exponents_refuse_invariants_of_another_prime():
    with pytest.raises(DomainError) as info:
        schur_exponent(5, 3, all_invariants(QQ, 5))
    assert str(info.value) == "invariants are for p=5, not p=3"
    with pytest.raises(DomainError) as info:
        serre_exponent(5, 3, all_invariants(QQ, 2))
    assert str(info.value) == "invariants are for p=2, not p=3"
    # python -O strips assert statements; the check must hold there too.
    code = (
        "from glbounds.bounds import schur_exponent, serre_exponent\n"
        "from glbounds.cyclotomic import QQ, all_invariants\n"
        "from glbounds.exactnum import DomainError\n"
        "print(__debug__)\n"
        "for exponent, q in ((schur_exponent, 5), (serre_exponent, 2)):\n"
        "    try:\n"
        "        print(exponent(5, 3, all_invariants(QQ, q)))\n"
        "    except DomainError as exc:\n"
        "        print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (
        "False\ninvariants are for p=5, not p=3\ninvariants are for p=2, not p=3\n")


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


@pytest.mark.xfail(strict=True, reason=(
    "serre_bound(2, K) is half the lcm of the PGL_2(K) family orders: over Q, "
    "D8 has order 8 and serre_bound(2, QQ) is 12"))
def test_every_pgl2_family_order_divides_serre_bound_at_n_2():
    # A lower-bound oracle: each admissible family is a subgroup of PGL_2(K),
    # so an upper bound on every finite subgroup's order is a multiple of it.
    for conductor in (1, 3, 4, 5, 12):
        field = ExactCyclotomic(Conductor(conductor))
        bound = int(serre_bound(2, field))
        families, _ = pgl2_admissible(field)
        assert [f.label for f in families if bound % f.order] == [], conductor


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


# (function, arguments, the mistyped one)
_MISTYPED = [
    (minkowski_bound, (2.5,), 2.5),
    (minkowski_bound, ("3",), "3"),
    (rough_bound, (2.5, 1), 2.5),
    (rough_bound, (True, 2), True),
    (rough_bound, (3, 2.0), 2.0),
    (rough_exponent, (2.5, 2, 3), 2.5),
    (rough_exponent, (3, True, 5), True),
    (rough_exponent, (3, 2, 3.0), 3.0),
    (minkowski_exponent, (2.5, 3), 2.5),
    (minkowski_exponent, (3, 2.0), 2.0),
    (factorial_valuation, (2.0, 5), 2.0),
    (factorial_valuation, (2, -1), -1),
    (schur_exponent, (2.5, 3, QQ), 2.5),
    (schur_exponent, (3, 2, QQ), QQ),
    (schur_exponent, (3, 4, CycloInvariants(4, 1, 1, 1, False)), 4),
    (schur_exponent, (3, 3, CycloInvariants(3, 1.5, 1, 1, False)), 1.5),
    (schur_exponent, (3, 3, CycloInvariants(3, 0, 1, 1, False)), 0),
    (schur_exponent, (3, 3, CycloInvariants(3, 2, -1, 1, False)), -1),
    (schur_exponent, (3, 3, CycloInvariants(3, 2, 1, 2.0, False)), 2.0),
    (schur_exponent, (3, 2, CycloInvariants(2, 1, 2, 1, "yes")), "yes"),
    (serre_exponent, (2.5, 3, QQ), 2.5),
    (serre_exponent, (3, 2.0, QQ), 2.0),
    (serre_exponent, (3, 2, QQ), QQ),
    (serre_exponent, (3, 3, CycloInvariants(3, 1.5, 1, 1, False)), 1.5),
    (serre_exponent, (3, 3, CycloInvariants(3, 2, -1, 1, False)), -1),
    (pgl2_admissible, (Conductor(12),), Conductor(12)),
    (pgl2_max_order, (2.5,), 2.5),
    (gl2_max_order, (2.5,), 2.5),
    (table, ("3", 2), "3"),
    (table, (3, 2.0), 2.0),
    (schur_bound, (2.5, QQ), 2.5),
    (schur_bound, (3, Conductor(12)), Conductor(12)),
    (serre_bound, (2.5, QQ), 2.5),
    (serre_bound, (1, 12), 12),
    (Conductor, ("12",), "12"),
    (DegreeOnly, (2.5,), 2.5),
    (canonical_conductor, ("12",), "12"),
    (real_cyclo_member, (5, 5), 5),
    (real_cyclo_member, (5.0, Conductor(5)), 5.0),
    (contains_root_of_unity, (12, 4), 12),
    (contains_root_of_unity, (Conductor(5), 2.0), 2.0),
    (all_invariants, (Conductor(12), 3), Conductor(12)),
    (all_invariants, (QQ, 2.0), 2.0),
    (euler_phi, (2.0,), 2.0),
    (invphi_all, (2.5,), 2.5),
    (invphi_max, (2.5,), 2.5),
    (SolutionConstraints, (2.5,), 2.5),
    (SolutionConstraints, (1, 2.5), 2.5),
    (SolutionConstraints, (1, None, (1,)), (1,)),
    (SolutionConstraints, (1, None, None), None),
    (solve_standard_equation, (7.0, 12, SolutionConstraints(t_max=3)), 7.0),
    (solve_standard_equation, (7, 2.5, SolutionConstraints(t_max=3)), 2.5),
    (max_schur_exponent, (7.0, 3, 12), 7.0),
    (max_schur_exponent, (7, 2.5, 12), 2.5),
    (max_schur_exponent, (7, 3, 2.5), 2.5),
    (solve_standard_equation, (7, 12, "x"), "x"),
    (max_schur_exponent, (7, 3, 12, "x"), "x"),
    (FactoredInteger, (((2.0, 1),),), 2.0),
    (FactoredInteger, (((2, 1.5),),), 1.5),
    (FactoredInteger, (((2,),),), ((2,),)),
    (FactoredInteger, (None,), None),
    (FactoredInteger.from_map, ([(2, 1)],), [(2, 1)]),
    (FactoredInteger.from_int, (2.0,), 2.0),
    (factorize, (2.0,), 2.0),
]


@pytest.mark.parametrize("func, args, value", _MISTYPED,
                         ids=["%s%r" % (func.__name__, args) for func, args, _ in _MISTYPED])
def test_mistyped_arguments_are_domain_errors_naming_the_value(func, args, value):
    with pytest.raises(DomainError) as info:
        func(*args)
    assert repr(value) in str(info.value)


# Public records the package builds for its own results, one per prime or
# solution, whose int fields no entry point reads unchecked as an argument.
_RESULT_RECORDS = {"CycloInvariants", "EquationSolution"}


def _int_parameters(func) -> list[str]:
    return [name for name, param in inspect.signature(func).parameters.items()
            if param.annotation in ("int", "int | None")]


def test_every_int_parameter_of_the_public_api_has_a_mistyped_row():
    covered = set()
    for func, args, value in _MISTYPED:
        bound = inspect.signature(func).bind(*args).arguments
        names = [name for name, arg in bound.items() if arg is value]
        if len(names) == 1:  # the row's value is passed as exactly one argument
            covered.add((func.__qualname__, names[0]))
    missing = []
    for module in (exactnum, totient, cyclotomic, bounds, diophantine):
        for name in module.__all__:
            obj = getattr(module, name)
            entries = []
            if inspect.isfunction(obj):
                entries.append(obj)
            elif inspect.isclass(obj) and name not in _RESULT_RECORDS:
                if "__init__" in vars(obj):
                    entries.append(obj)
                entries += [getattr(obj, attr) for attr, member in vars(obj).items()
                            if isinstance(member, classmethod) and not attr.startswith("_")]
            for entry in entries:
                missing += ["%s(%s)" % (entry.__qualname__, param)
                            for param in _int_parameters(entry)
                            if (entry.__qualname__, param) not in covered]
    assert missing == []


def test_table_matches_individual_rows():
    rows = table(3, 15)
    assert [d for d, _ in rows] == list(range(1, 16))
    for d, value in rows:
        assert value == rough_bound(3, d)
    with pytest.raises(DomainError):
        table(3, 0)


@pytest.mark.parametrize("n", [1, 3, 12, 4 * 10**6])
def test_a_table_past_the_total_sieve_limit_is_refused_before_any_row(monkeypatch, n):
    # the first d_max whose rows sieve n*d + 1 numbers each, more than
    # SIEVE_LIMIT in all, counted row by row
    total, d_max = 0, 0
    while total <= bounds.SIEVE_LIMIT:
        d_max += 1
        total += n * d_max + 1
    rows = []
    monkeypatch.setattr(bounds, "rough_bound", lambda n, d: rows.append(d) or ONE)
    start = time.perf_counter()
    with pytest.raises(DomainError) as exc:
        table(n, d_max)
    assert time.perf_counter() - start < 1.0
    assert str(exc.value) == (
        "the rows d = 1 .. %d would sieve %d numbers in all; a table sieves at most "
        "SIEVE_LIMIT = 10000000" % (d_max, total))
    assert rows == []  # refused before any row was computed
    if d_max > 1:  # one row fewer is within the limit
        assert [d for d, _ in table(n, d_max - 1)] == rows == list(range(1, d_max))


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
    # The four bounds build their results unchecked from their candidate
    # primes: the sieve's primes up to a cutoff, and for rough_bound also the
    # candidates above n + 1 that passed is_prime.  The public constructor
    # must accept every one of them unchanged.
    for value in (
        minkowski_bound(n),
        rough_bound(n, d),
        schur_bound(n, field(conductor)),
        serre_bound(n, field(conductor)),
    ):
        assert type(value.factors) is tuple
        assert FactoredInteger(value.factors) == value


def _count_prime_tests(monkeypatch) -> list[int]:
    """Route every is_prime call of bounds and exactnum through a recorder."""
    calls = []

    def counting(p):
        calls.append(p)
        return is_prime(p)

    monkeypatch.setattr(bounds, "is_prime", counting)
    monkeypatch.setattr(exactnum, "is_prime", counting)
    return calls


@pytest.mark.parametrize("n", [1, 50, 300, 3000])
def test_minkowski_bound_trusts_the_sieve(monkeypatch, n):
    calls = _count_prime_tests(monkeypatch)
    value = minkowski_bound(n)
    assert calls == []
    assert [p for p, _ in value.factors] == primes_upto(n + 1)


def test_rough_bound_tests_each_candidate_above_n_plus_1_once(monkeypatch):
    n, d = 3, 200
    calls = _count_prime_tests(monkeypatch)
    value = rough_bound(n, d)
    assert len(calls) == len(set(calls))
    divisors = [g for g in range(2, d + 1) if d % g == 0]
    for c in calls:
        assert c > n + 1 and any((c - 1) % g == 0 and (c - 1) // g <= n for g in divisors), c
    # every prime of the bound above n + 1 was one of the candidates
    assert [p for p, _ in value.factors if p > n + 1] == sorted(filter(is_prime, calls))


# ----------------------------------- products over every sieved prime
#
# minkowski_bound and rough_bound multiply over candidate primes only; these
# oracles multiply the public exponent over every prime up to the old cutoff.

def _every_prime_product(limit: int, exponent) -> FactoredInteger:
    return FactoredInteger.from_map({p: exponent(p) for p in primes_upto(limit)})


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=1, max_value=3000))
@example(n=1)
@example(n=3000)
def test_minkowski_bound_is_the_product_over_every_sieved_prime(n):
    want = _every_prime_product(n + 1, lambda p: minkowski_exponent(n, p))
    assert minkowski_bound(n) == want


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=2000))
@example(n=3, d=720)
@example(n=2, d=5040)
@example(n=1, d=55440)
@example(n=40, d=1)
def test_rough_bound_is_the_product_over_every_sieved_prime(n, d):
    want = _every_prime_product(n * d + 1, lambda p: rough_exponent(n, d, p))
    assert rough_bound(n, d) == want


@pytest.mark.parametrize("n", [1, 3])
def test_rough_bound_keeps_the_domain_of_a_sieve_to_n_d_plus_1(monkeypatch, n):
    # n*d + 1 = SIEVE_LIMIT is accepted; one more d is refused before any prime test
    d = (bounds.SIEVE_LIMIT - 1) // n
    assert rough_bound(n, d).factors[0][0] == 2
    calls = _count_prime_tests(monkeypatch)
    with pytest.raises(DomainError) as info:
        rough_bound(n, d + 1)
    assert str(info.value) == (
        "primes are sieved up to SIEVE_LIMIT = 10000000, got %d" % (n * (d + 1) + 1))
    assert calls == []


def test_rough_bound_of_a_degree_with_many_divisors_is_quick():
    # 720720 has 240 divisors.  Every prime up to 3*720720 + 1 comes from a
    # bytearray sieve written here, and the exponents are written out as in
    # test_rough_exponent_is_its_sum_of_floors.
    n, d = 3, 720720
    limit = n * d + 1
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for q in range(2, math.isqrt(limit) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes(len(range(q * q, limit + 1, q)))
    want = {2: n * (v(2, d) + 1) + floors(n, 2, 2)}
    for p in range(3, limit + 1, 2):
        if sieve[p]:
            want[p] = (v(p, d) + 1) * (n // ((p - 1) // math.gcd(p - 1, d))) + floors(n, p, p)
    start = time.perf_counter()
    value = rough_bound(n, d)
    assert time.perf_counter() - start < 1.0
    assert value == FactoredInteger.from_map(want)


# ------------------------------------------- an independent group-order oracle
#
# A finite subgroup of GL_n(K) embeds in GL_n(F_q) for the residue field F_q
# of almost every prime of K, so its order divides every
# |GL_n(F_q)| = prod_{i<n} (q^n - q^i) (Minkowski, J. reine angew. Math. 101,
# 1887; Serre 2007).  Over K = Q(z_N) and a prime l not dividing N, q = l^f
# with f the order of l mod N.  The primes l and the orders f are found here
# by plain trial division, so the oracle shares no code with the sieve, the
# valuations or the cyclotomic invariants.  It pins equality over the primes
# 3 <= l < 3000 only; it proves no theorem.

_ORACLE_PRIMES = [l for l in range(3, 3000, 2)
                  if all(l % q for q in range(3, math.isqrt(l) + 1, 2))]
_ORACLE_CONDUCTORS = (1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 21, 24)


def _gl_order_gcd(n: int, conductor: int) -> int:
    """gcd of |GL_n(F_q)| over the residue fields of Q(z_conductor) above
    the primes of _ORACLE_PRIMES that do not divide the conductor."""
    g = 0
    for l in _ORACLE_PRIMES:
        if conductor % l == 0:
            continue
        f, power = 1, l % conductor
        while power != 1 % conductor:
            f, power = f + 1, power * l % conductor
        q = l**f
        g = math.gcd(g, math.prod(q**n - q**i for i in range(n)))
    return g


def _odd_part(k: int) -> int:
    while k % 2 == 0:
        k //= 2
    return k


def test_schur_bound_is_the_gcd_of_the_residue_gl_n_orders():
    for conductor in _ORACLE_CONDUCTORS:
        field = ExactCyclotomic(canonical_conductor(conductor))
        for n in range(1, 7):
            assert int(schur_bound(n, field)) == _gl_order_gcd(n, conductor), (n, conductor)


def test_minkowski_bound_has_the_odd_part_of_the_gcd_and_divides_it():
    # Minkowski's 2-exponent comes from a finer argument than reduction mod
    # l: at n = 2 the gcd is 48 and the bound 24.
    assert _gl_order_gcd(2, 1) == 48
    for n in range(1, 13):
        bound, g = int(minkowski_bound(n)), _gl_order_gcd(n, 1)
        assert _odd_part(bound) == _odd_part(g), n
        assert g % bound == 0, n
