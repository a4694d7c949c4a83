from __future__ import annotations

import itertools
import pickle
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glbounds.bounds import schur_exponent
from glbounds.cyclotomic import CycloInvariants
from glbounds.diophantine import (
    T_MAX_LIMIT,
    EquationSolution,
    SolutionConstraints,
    max_schur_exponent,
    solve_standard_equation,
)
from glbounds.exactnum import DomainError, is_prime

from conftest import brute_solutions

ODD_PRIMES = [p for p in range(3, 44) if is_prime(p)]


def sols(p, d, **kw):
    return solve_standard_equation(p, d, SolutionConstraints(**kw))


def triples(rows):
    return [(s.m, s.e, s.t) for s in rows]


def test_constraint_validation():
    with pytest.raises(DomainError):
        SolutionConstraints(e_min=0)
    with pytest.raises(DomainError):
        SolutionConstraints(t_max=0)
    with pytest.raises(DomainError):
        SolutionConstraints(extra=("e > 2",))
    with pytest.raises(DomainError):
        SolutionConstraints(extra=("nonsense",))
    SolutionConstraints(extra=("e = 2", "e even", "e odd", "m = 1", "t >= 3"))


def test_constraints_compare_print_and_pickle_by_their_fields():
    c = SolutionConstraints(e_min=2, t_max=3, extra=("e even",))
    assert c == SolutionConstraints(2, 3, ("e even",))
    assert hash(c) == hash(SolutionConstraints(2, 3, ("e even",)))
    assert repr(c) == "SolutionConstraints(e_min=2, t_max=3, extra=('e even',))"
    again = pickle.loads(pickle.dumps(c))
    assert again == c
    assert solve_standard_equation(7, 12, again) == solve_standard_equation(7, 12, c)


def test_solver_needs_concrete_tmax():
    with pytest.raises(DomainError):
        solve_standard_equation(7, 12, SolutionConstraints())
    with pytest.raises(DomainError):
        solve_standard_equation(4, 12, SolutionConstraints(t_max=3))
    with pytest.raises(DomainError):
        solve_standard_equation(7, 0, SolutionConstraints(t_max=3))


def test_degree_twelve_solution_sets():
    # the two case splits that decide the worst table row
    assert triples(sols(13, 12, e_min=3, t_max=3)) == [(1, 3, 3)]
    assert triples(sols(7, 12, e_min=3, t_max=3)) == [(1, 4, 2), (1, 6, 3)]
    # the primes that die in degree 12 once e is pinned to 2
    assert sols(37, 12, t_max=3, extra=("e = 2",)) == []
    assert sols(5, 12, t_max=3, extra=("e = 2",)) == []
    assert triples(sols(19, 12, t_max=3, extra=("e = 2",))) == [(1, 2, 3)]


def test_ordering_is_t_then_m():
    rows = sols(3, 12, t_max=4)
    keys = [(s.t, s.m) for s in rows]
    assert keys == sorted(keys)


def test_constraint_tags_filter():
    base = triples(sols(7, 12, t_max=3))
    assert (1, 2, 1) in base
    assert triples(sols(7, 12, t_max=3, extra=("e = 2",))) == [(1, 2, 1)]
    assert triples(sols(7, 12, t_max=3, extra=("e = 02",))) == [(1, 2, 1)]
    even = triples(sols(7, 12, t_max=3, extra=("e even",)))
    assert all(e % 2 == 0 for _, e, _ in even)
    odd = triples(sols(7, 12, t_max=3, extra=("e odd",)))
    assert set(base) == set(even) | set(odd)
    assert triples(sols(3, 12, t_max=2, extra=("m = 2",))) == [
        (m, e, t) for m, e, t in triples(sols(3, 12, t_max=2)) if m == 2
    ]
    deep = triples(sols(5, 12, t_max=3, extra=("t >= 3",)))
    assert all(t >= 3 for _, _, t in deep)


def test_completeness_against_brute_oracle():
    for p in ODD_PRIMES + [2]:
        for d in range(1, 16):
            t_max = 8
            fast = solve_standard_equation(p, d, SolutionConstraints(t_max=t_max))
            # m is capped well above anything satisfiable: p^(m-1) <= d*t
            slow = brute_solutions(p, d, m_max=9, e_max=d * t_max, t_max=t_max)
            assert set(fast) == set(slow), (p, d)


@settings(max_examples=60)
@given(
    st.sampled_from(ODD_PRIMES),
    st.integers(min_value=1, max_value=15),
    st.integers(min_value=1, max_value=6),
)
def test_every_solution_satisfies_the_equation(p, d, t_max):
    for s in sols(p, d, t_max=t_max):
        assert p ** (s.m - 1) * (p - 1) * s.e == d * s.t
        assert 1 <= s.t <= t_max


def test_max_schur_exponent_rejects_two():
    with pytest.raises(DomainError):
        max_schur_exponent(2, 3, 12)


def test_max_schur_exponent_degree_twelve_steps():
    # rank 3, d = 12, everything assuming e >= 2
    assert max_schur_exponent(3, 3, 12, SolutionConstraints(e_min=2)) == 7
    assert max_schur_exponent(5, 3, 12, SolutionConstraints(e_min=2, extra=("t >= 2",))) == 1
    assert max_schur_exponent(7, 3, 12, SolutionConstraints(extra=("e = 2",))) == 3
    assert max_schur_exponent(7, 3, 12, SolutionConstraints(e_min=2, extra=("t >= 3",))) == 1
    assert max_schur_exponent(13, 3, 12, SolutionConstraints(extra=("e = 2",))) == 1
    assert max_schur_exponent(5, 3, 12, SolutionConstraints(extra=("e = 2",))) == 0
    assert max_schur_exponent(37, 3, 12, SolutionConstraints(extra=("e = 2",))) == 0
    # same row, the closing case with e >= 3 everywhere
    assert max_schur_exponent(3, 3, 12, SolutionConstraints(e_min=3)) == 4
    assert max_schur_exponent(5, 3, 12, SolutionConstraints(e_min=3)) == 3
    assert max_schur_exponent(13, 3, 12, SolutionConstraints(e_min=3)) == 1
    assert max_schur_exponent(7, 3, 12, SolutionConstraints(extra=("e = 4",))) == 1
    assert max_schur_exponent(7, 3, 12, SolutionConstraints(extra=("e = 6",))) == 1


def test_max_schur_exponent_checks_n_before_t_max():
    # n is the caller's argument; the clamped t_max it would become is not
    for c in (None, SolutionConstraints(t_max=5)):
        with pytest.raises(DomainError) as info:
            max_schur_exponent(3, 0, 2, c)
        assert str(info.value) == "matrix size n must be >= 1, got 0"


# The test's own reading of each constraint tag form.
_TAG_READINGS = {
    "e = 2": lambda s: s.e == 2,
    "e = 03": lambda s: s.e == 3,
    "e even": lambda s: s.e % 2 == 0,
    "e odd": lambda s: s.e % 2 == 1,
    "m = 1": lambda s: s.m == 1,
    "m = 2": lambda s: s.m == 2,
    "t >= 2": lambda s: s.t >= 2,
}
_TAG_SETS = [()] + [(tag,) for tag in _TAG_READINGS] + [("e even", "t >= 2")]


def test_max_schur_exponent_against_brute_solutions_and_schur_exponent():
    n_max, d_max = 8, 24
    for p in (3, 5, 7, 11, 13):
        for d in range(1, d_max + 1):
            # every solution with t <= n_max: p^(m-1) <= d t caps m, d t caps e
            brute = brute_solutions(p, d, m_max=6, e_max=d * n_max, t_max=n_max)
            for n, e_min, tags in itertools.product(range(1, n_max + 1), (1, 2, 3), _TAG_SETS):
                for t_max in (None, n - 1, n + 3):  # none, below n, above n
                    if t_max == 0:
                        continue
                    t_top = n if t_max is None else min(t_max, n)
                    want = max(
                        [schur_exponent(n, p, CycloInvariants(p, s.t, s.m, s.e, False))
                         for s in brute
                         if s.t <= t_top and s.e >= e_min
                         and all(_TAG_READINGS[tag](s) for tag in tags)],
                        default=0,
                    )
                    c = SolutionConstraints(e_min=e_min, t_max=t_max, extra=tags)
                    assert max_schur_exponent(p, n, d, c) == want, (p, n, d, c)


def test_max_schur_exponent_defaults_tmax_to_n():
    # explicit t_max = n, or any t_max above it, must agree with the default
    for p in (3, 5, 7):
        for d in (4, 6, 12):
            for t_max in (3, 4, 30):
                assert max_schur_exponent(p, 3, d) == max_schur_exponent(
                    p, 3, d, SolutionConstraints(t_max=t_max)
                )


def test_max_schur_exponent_never_runs_t_past_n():
    # t > n contributes exponent 0, so any t_max beyond n changes nothing;
    # unclamped, 10^11 values of t would take hours.
    start = time.perf_counter()
    assert max_schur_exponent(3, 2, 2, SolutionConstraints(t_max=10**11)) == (
        max_schur_exponent(3, 2, 2, SolutionConstraints(t_max=2)))
    assert time.perf_counter() - start < 1.0


def test_solver_refuses_tmax_past_the_limit():
    assert T_MAX_LIMIT == 100_000
    with pytest.raises(DomainError) as info:
        solve_standard_equation(7, 12, SolutionConstraints(t_max=T_MAX_LIMIT + 1))
    assert str(info.value) == "t_max must be <= 100000, got 100001"
    # max_schur_exponent clamps to n first, so a huge t_max still answers
    assert max_schur_exponent(7, 3, 12, SolutionConstraints(t_max=10**11)) == (
        max_schur_exponent(7, 3, 12))


@pytest.mark.parametrize("tag", [
    "e = x", "m = -1", "t >= +2", "e = 1_0", "e = \u0661", "t >= " + "9" * 5000,
])
def test_tag_constants_must_be_plain_ascii_decimals(tag):
    with pytest.raises(DomainError) as info:
        SolutionConstraints(extra=(tag,))
    assert str(info.value) == "constraint tag %r needs a plain decimal constant" % tag


def test_equation_solution_is_plain_data():
    s = EquationSolution(m=1, e=2, t=1)
    assert (s.m, s.e, s.t) == (1, 2, 1)
