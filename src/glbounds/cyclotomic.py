"""Cyclotomic fields and the local invariants (t_p, m_p, e_p).

A field K is either an exact cyclotomic field Q(z_N), represented by its
canonical conductor, or a degree-only stand-in carrying tristate flags for
the few facts the group-theoretic bounds actually consult.

For K = Q(z_N) and a prime p the invariants are

  t_p = [K(z_p) : K]          (for p = 2 the adjoined root is z_4)
  m_p = sup { n : z_{p^n} in K(z_p) }       for odd p
  m_2 = sup { n : z_{2^n} in K }                 if z_4 in K
        sup { n : z_{2^n} + 1/z_{2^n} in K }     otherwise
  e_p = [K(z_p) : Q(z_{p^{m_p}})]           for odd p
  e_2 = [K(z_4) : Q(z_{2^{m_2}} + 1/z_{2^{m_2}})]

and they satisfy p^(m_p - 1) * (p - 1) * e_p = d * t_p for odd p, with
d = [K : Q].  That identity, m_2 >= 2, and t_2 = 1 exactly when z_4 is in
K hold by construction; tests/test_cyclotomic.py pins them.

Each supremum has a closed form, because an abelian field lies in Q(z_N)
exactly when its conductor divides N:

  - z_k lies in Q(z_N) iff the canonical conductor of k divides N, and
    K(z_p) = Q(z_lcm(N, p)), so m_p = max(1, v_p(N)) for odd p;
  - z_m + 1/z_m is rational for m in {1, 2, 3, 4, 6}; for any other m it
    generates Q(z_m)+, whose conductor is that of Q(z_m) (Washington,
    Introduction to Cyclotomic Fields, GTM 83), so it lies in Q(z_N) iff
    the canonical conductor of m divides N;
  - hence m_2 = v_2(N) when 4 | N, and otherwise N is odd, Q(z_8)+ =
    Q(sqrt 2) of conductor 8 is not in K, and m_2 = 2 (z_4 + 1/z_4 = 0);
  - e_p = d * t_p / [Q(z_{p^m_p}) : Q] for odd p, and e_2 = d * t_2 /
    2^(m_2 - 2), the degree of Q(z_{2^m} + 1/z_{2^m}) for every m >= 2.
"""

from __future__ import annotations

__all__ = [
    "Conductor", "CycloInvariants", "DegreeOnly", "ExactCyclotomic", "QQ", "all_invariants",
    "canonical_conductor", "contains_root_of_unity", "real_cyclo_member",
]

import math

from .exactnum import DomainError, Value, _valuation, is_prime
from .totient import euler_phi

TRISTATE = ("yes", "no", "unknown")


class Conductor(Value):
    """Canonical conductor: the int 1, or an int N >= 3 with N not 2 mod 4."""

    __slots__ = _fields = ("value",)

    def __init__(self, value: int):
        if not (type(value) is int  # not True, 12.0 or "12"
                and (value == 1 or (value >= 3 and value % 4 != 2))):
            raise DomainError("%r is not a canonical conductor" % (value,))
        object.__setattr__(self, "value", value)


def canonical_conductor(n: int) -> Conductor:
    """Smallest N' with Q(z_N') = Q(z_n): halve n when n = 2 mod 4."""
    if n < 1:
        raise DomainError("conductor must be positive, got %r" % n)
    if n % 4 == 2:
        n //= 2
    return Conductor(n)


def lcm_conductor(a: Conductor, k: int) -> Conductor:
    """Canonical conductor of the compositum Q(z_a, z_k)."""
    return canonical_conductor(math.lcm(a.value, k))


def contains_root_of_unity(n: Conductor, k: int) -> bool:
    """Whether z_k lies in Q(z_n)."""
    return n.value % canonical_conductor(k).value == 0


def real_cyclo_member(m: int, n: Conductor) -> bool:
    """Whether z_m + 1/z_m lies in Q(z_n).

    The element is rational for m in {1, 2, 3, 4, 6}.  Otherwise it
    generates Q(z_m)+, which has the conductor of Q(z_m).
    """
    if m < 1:
        raise DomainError("m must be positive, got %r" % m)
    return m in (1, 2, 3, 4, 6) or n.value % canonical_conductor(m).value == 0


class ExactCyclotomic(Value):
    """K = Q(z_N) for a canonical conductor N."""

    __slots__ = _fields = ("conductor",)

    def __init__(self, conductor: Conductor):
        if not isinstance(conductor, Conductor):
            raise DomainError("conductor must be a Conductor, got %r" % (conductor,))
        object.__setattr__(self, "conductor", conductor)

    @property
    def degree(self) -> int:
        return euler_phi(self.conductor.value)


class DegreeOnly(Value):
    """A number field known only by degree plus a few tristate facts."""

    __slots__ = _fields = ("degree", "minus1_sum_of_two_squares", "contains_sqrt5")

    def __init__(
        self,
        degree: int,
        minus1_sum_of_two_squares: str = "unknown",
        contains_sqrt5: str = "unknown",
    ):
        if type(degree) is not int:  # not True, 2.5 or "x"
            raise DomainError("degree must be an int, got %r" % (degree,))
        if degree < 1:
            raise DomainError("degree must be >= 1, got %r" % degree)
        for flag in (minus1_sum_of_two_squares, contains_sqrt5):
            if flag not in TRISTATE:
                raise DomainError("flag must be yes/no/unknown, got %r" % flag)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "minus1_sum_of_two_squares", minus1_sum_of_two_squares)
        object.__setattr__(self, "contains_sqrt5", contains_sqrt5)


QQ = ExactCyclotomic(Conductor(1))


class CycloInvariants(Value):
    __slots__ = _fields = ("p", "t_p", "m_p", "e_p", "xi4_in_k")

    def __init__(self, p: int, t_p: int, m_p: int, e_p: int, xi4_in_k: bool):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "t_p", t_p)
        object.__setattr__(self, "m_p", m_p)
        object.__setattr__(self, "e_p", e_p)
        object.__setattr__(self, "xi4_in_k", xi4_in_k)


def _adjoined_conductor(k: ExactCyclotomic, p: int) -> Conductor:
    # conductor of K(z_p), where for p = 2 we adjoin z_4
    return lcm_conductor(k.conductor, p if p != 2 else 4)


def cyclo_t_p(k: ExactCyclotomic, p: int) -> int:
    if not is_prime(p):
        raise DomainError("%r is not prime" % p)
    big = euler_phi(_adjoined_conductor(k, p).value)
    small = euler_phi(k.conductor.value)
    return big // small


def cyclo_m_p(k: ExactCyclotomic, p: int) -> int:
    if not is_prime(p):
        raise DomainError("%r is not prime" % p)
    v = _valuation(p, k.conductor.value)
    if p != 2:
        return max(1, v)
    return v if v >= 2 else 2


def cyclo_e_p(k: ExactCyclotomic, p: int) -> int:
    t = cyclo_t_p(k, p)  # refuses a non-prime p
    m = cyclo_m_p(k, p)
    # degree over Q of Q(z_{p^m}) for odd p, of Q(z_{2^m} + 1/z_{2^m}) for p = 2
    if p != 2:
        den = p ** (m - 1) * (p - 1)
    else:
        den = 2 ** (m - 2)
    return k.degree * t // den


def all_invariants(k: ExactCyclotomic, p: int) -> CycloInvariants:
    """Compute (t_p, m_p, e_p, xi4) together."""
    t = cyclo_t_p(k, p)
    m = cyclo_m_p(k, p)
    e = cyclo_e_p(k, p)
    xi4 = contains_root_of_unity(k.conductor, 4)
    return CycloInvariants(p=p, t_p=t, m_p=m, e_p=e, xi4_in_k=xi4)

