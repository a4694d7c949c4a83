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
d = [K : Q].  That identity is re-checked on every construction.
"""

from __future__ import annotations

import math

from .exactnum import DomainError, Value, is_prime, valuation_int
from .totient import euler_phi

TRISTATE = ("yes", "no", "unknown")

# m_2 could in principle grow without bound for a weird input; every field
# handled here has m_2 <= 6, so hitting this cap means the code is wrong.
_M_SEARCH_CAP = 64


class InternalInconsistency(RuntimeError):
    """An invariant identity failed; indicates a bug, not bad input."""


class Conductor(Value):
    """Canonical conductor: 1, or N >= 3 with N not 2 mod 4."""

    __slots__ = _fields = ("value",)

    def __init__(self, value: int):
        if value < 1 or (value != 1 and (value < 3 or value % 4 == 2)):
            raise DomainError("%r is not a canonical conductor" % value)
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

    The element is rational for m in {1, 2, 3, 4, 6}.  Otherwise it lives in
    Q(z_L) for L = lcm(n, m) and membership means every automorphism fixing
    Q(z_n), i.e. every unit a = 1 mod n, satisfies a = +-1 mod m.
    """
    if m < 1:
        raise DomainError("m must be positive, got %r" % m)
    if m in (1, 2, 3, 4, 6):
        return True
    base = n.value
    big = math.lcm(base, m)
    for a in range(1, big, base):
        if math.gcd(a, big) != 1:
            continue
        r = a % m
        if r != 1 and r != m - 1:
            return False
    return True


class ExactCyclotomic(Value):
    """K = Q(z_N) for a canonical conductor N."""

    __slots__ = _fields = ("conductor",)

    def __init__(self, conductor: Conductor):
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
    assert big % small == 0
    return big // small


def cyclo_m_p(k: ExactCyclotomic, p: int) -> int:
    if not is_prime(p):
        raise DomainError("%r is not prime" % p)
    if p != 2:
        ext = _adjoined_conductor(k, p)
        m = 1
        while contains_root_of_unity(ext, p ** (m + 1)):
            m += 1
            if m > _M_SEARCH_CAP:
                raise InternalInconsistency("m_%d search ran past %d" % (p, _M_SEARCH_CAP))
        return m
    if contains_root_of_unity(k.conductor, 4):
        return valuation_int(2, k.conductor.value)
    m = 2
    while real_cyclo_member(2 ** (m + 1), k.conductor):
        m += 1
        if m > _M_SEARCH_CAP:
            raise InternalInconsistency("m_2 search ran past %d" % _M_SEARCH_CAP)
    return m


def cyclo_e_p(k: ExactCyclotomic, p: int) -> int:
    if not is_prime(p):
        raise DomainError("%r is not prime" % p)
    t = cyclo_t_p(k, p)
    m = cyclo_m_p(k, p)
    if p != 2:
        num = k.degree * t
        den = p ** (m - 1) * (p - 1)
        if num % den != 0:
            raise InternalInconsistency(
                "p^(m-1)(p-1) does not divide d*t for p=%d, N=%d" % (p, k.conductor.value)
            )
        return num // den
    # base field Q(z_{2^m} + 1/z_{2^m}) has degree 2^(m-2) once m >= 3,
    # and is Q itself for m = 2
    ext_degree = euler_phi(_adjoined_conductor(k, 2).value)
    base_degree = 2 ** (m - 2) if m >= 3 else 1
    assert ext_degree % base_degree == 0
    return ext_degree // base_degree


def all_invariants(k: ExactCyclotomic, p: int) -> CycloInvariants:
    """Compute (t_p, m_p, e_p, xi4) together and check their relations."""
    t = cyclo_t_p(k, p)
    m = cyclo_m_p(k, p)
    e = cyclo_e_p(k, p)
    xi4 = contains_root_of_unity(k.conductor, 4)
    if p != 2:
        if p ** (m - 1) * (p - 1) * e != k.degree * t:
            raise InternalInconsistency(
                "relation p^(m-1)(p-1)e = dt failed for p=%d, N=%d" % (p, k.conductor.value)
            )
    else:
        if m < 2:
            raise InternalInconsistency("m_2 must be >= 2 (z_4 + 1/z_4 = 0 is rational)")
        if t not in (1, 2) or (t == 1) != xi4:
            raise InternalInconsistency("t_2 must be 1 exactly when z_4 in K")
    return CycloInvariants(p=p, t_p=t, m_p=m, e_p=e, xi4_in_k=xi4)

