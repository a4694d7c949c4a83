from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from glbounds.exactnum import DomainError
from glbounds.totient import INVPHI_LIMIT, euler_phi, invphi_all, invphi_max

# phi(n) for n <= 2 * 200**2, the reach of the largest scan below
_PHI = [0] + [euler_phi(n) for n in range(1, 2 * 200**2 + 1)]


def scan_invphi_all(bound: int) -> list[int]:
    """Reference inverse totient: test every n up to the cutoff 2*bound**2,
    which is exhaustive because phi(n) >= sqrt(n/2)."""
    return [n for n in range(1, 2 * bound * bound + 1) if _PHI[n] <= bound]


def test_phi_small_values():
    known = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 7: 6, 8: 4, 9: 6,
             10: 4, 12: 4, 30: 8, 42: 12, 90: 24, 210: 48}
    for n, phi in known.items():
        assert euler_phi(n) == phi
    with pytest.raises(DomainError):
        euler_phi(0)


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=1, max_value=300))
def test_phi_multiplicative_on_coprimes(a, b):
    if math.gcd(a, b) == 1:
        assert euler_phi(a * b) == euler_phi(a) * euler_phi(b)


def test_invphi_all_is_exhaustive():
    for bound in (1, 2, 4, 6, 8, 12):
        hits = invphi_all(bound)
        assert hits == sorted(hits)
        assert 1 in hits
        lookup = set(hits)
        cutoff = 2 * bound * bound
        for n in range(1, cutoff + 1):
            assert (euler_phi(n) <= bound) == (n in lookup)
        # the phi(n) >= sqrt(n/2) cutoff really is safe: scan twice as far
        for n in range(cutoff + 1, 2 * cutoff + 1):
            assert euler_phi(n) > bound


def test_invphi_matches_the_scan():
    for bound in range(1, 201):
        want = scan_invphi_all(bound)
        assert invphi_all(bound) == want, bound
        assert invphi_max(bound) == want[-1], bound


def test_invphi_at_ten_thousand():
    # 19 452 and 46 410 come from a phi sieve to 10**5; every n >= 10**5
    # has phi(n) > 18 595 (Rosser-Schoenfeld), so the sieve misses none.
    hits = invphi_all(10**4)
    assert len(hits) == 19452
    assert hits[-1] == invphi_max(10**4) == 46410
    assert all(euler_phi(n) <= 10**4 for n in hits)


def test_invphi_max_fixed_points():
    assert invphi_max(8) == 30
    assert invphi_max(12) == 42
    assert invphi_max(24) == 90
    assert invphi_max(48) == 210


@given(st.integers(min_value=1, max_value=30))
def test_invphi_max_agrees_with_all(bound):
    assert invphi_max(bound) == max(invphi_all(bound))


def test_invphi_domain():
    with pytest.raises(DomainError):
        invphi_all(0)
    with pytest.raises(DomainError):
        invphi_max(-3)
    assert INVPHI_LIMIT == 10**6
    for search in (invphi_all, invphi_max):
        with pytest.raises(DomainError, match=r"^bound must be <= 1000000, got 1000001$"):
            search(INVPHI_LIMIT + 1)
