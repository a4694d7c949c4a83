"""Upper bounds for orders of finite subgroups of GL_n(K) and PGL_2(K).

Four families of bounds, all returned in factored form:

  minkowski_bound   GL_n(Q), sharp for every n
  schur_bound       GL_n(K) for an exact cyclotomic K, prime by prime
  serre_bound       PGL_n(K), prime by prime; not claimed at n = 2
  rough_bound       GL_n(K) knowing only d = [K : Q]

plus the classification of finite subgroups of PGL_2 (cyclic, dihedral,
A4, S4, A5) filtered by what the field can support.

Every exponent below is a linear term plus a Legendre sum
L_p(k) = sum_{i>=1} floor(k / p^i) = v_p(k!), taken at k = floor(n / q)
through the identity floor(n / (q p^i)) = floor(floor(n / q) / p^i).
"""

from __future__ import annotations

__all__ = [
    "gl2_max_order", "minkowski_bound", "minkowski_exponent", "pgl2_admissible",
    "pgl2_max_order", "rough_bound", "rough_exponent", "schur_bound", "schur_exponent",
    "serre_bound", "serre_exponent", "table",
]

import math
from collections.abc import Callable

from .cyclotomic import (
    CycloInvariants,
    DegreeOnly,
    ExactCyclotomic,
    _check_field,
    all_invariants,
    real_cyclo_member,
)
from .exactnum import (
    ONE,
    SIEVE_LIMIT,
    DomainError,
    FactoredInteger,
    Value,
    _legendre,
    _valuation,
    factorial_valuation,
    fi_mul,
    is_prime,
    primes_upto,
)
from .totient import euler_phi, invphi_all, invphi_max


def _check_n(n: int):
    if type(n) is not int or n < 1:  # not True, 2.5 or "3"
        raise DomainError(_not_positive("matrix size n", n))


def _not_positive(name: str, value) -> str:
    if type(value) is not int:
        return "%s must be an int, got %r" % (name, value)
    return "%s must be >= 1, got %r" % (name, value)


def _check_invariants(p: int, inv: CycloInvariants):
    if inv.p != p:
        raise DomainError("invariants are for p=%d, not p=%d" % (inv.p, p))


def _prime_product(limit: int, exponent: Callable[[int], int]) -> FactoredInteger:
    """Product of p^exponent(p) over the primes p <= limit.

    The sieve yields primes in increasing order and zero exponents are
    dropped, so the factors need no re-validation.
    """
    out = []
    for p in primes_upto(limit):
        e = exponent(p)
        if e:
            out.append((p, e))
    return FactoredInteger._trusted(tuple(out))


# ---------------------------------------------------------------- Minkowski

def minkowski_exponent(n: int, p: int) -> int:
    """Largest power of p dividing the order of a finite subgroup of GL_n(Q).

    Sum of floor(n / (p^i * (p-1))) over i >= 0, that is q + L_p(q) with
    q = floor(n / (p-1)).
    """
    _check_n(n)
    if not is_prime(p):
        raise DomainError("%r is not prime" % p)
    q = n // (p - 1)
    return q + _legendre(p, q)


def minkowski_bound(n: int) -> FactoredInteger:
    _check_n(n)
    return _prime_product(n + 1, lambda p: minkowski_exponent(n, p))


# -------------------------------------------------------------------- Schur

def schur_exponent(n: int, p: int, inv: CycloInvariants) -> int:
    """Exponent bound for p in |G|, G a finite subgroup of GL_n(K).

    Driven entirely by the field invariants:

      p odd:            m*floor(n/t) + L_p(floor(n/t))
      p = 2, z_4 in K:  m*n + L_2(n)
      p = 2 otherwise:  n + m*floor(n/2) + L_2(floor(n/2))
    """
    _check_n(n)
    _check_invariants(p, inv)
    m = inv.m_p
    if p != 2:
        return _schur_odd_exponent(n, p, inv.t_p, m)
    if inv.xi4_in_k:
        return m * n + _legendre(2, n)
    h = n // 2
    return n + m * h + _legendre(2, h)


def _schur_odd_exponent(n: int, p: int, t: int, m: int) -> int:
    """m*floor(n/t) + L_p(floor(n/t)): schur_exponent for an odd p, unchecked."""
    k = n // t
    return m * k + _legendre(p, k)


def schur_bound(n: int, field: ExactCyclotomic) -> FactoredInteger:
    """Product of p^schur_exponent over the finitely many contributing p.

    Primes dividing the conductor satisfy p - 1 <= d, so every contributing
    prime is at most n*d + 1.
    """
    _check_n(n)
    _check_field(field)
    return _prime_product(
        n * field.degree + 1, lambda p: schur_exponent(n, p, all_invariants(field, p))
    )


# -------------------------------------------------------------------- Serre

def serre_exponent(n: int, p: int, inv: CycloInvariants) -> int:
    """Exponent bound for p in |G|, G a finite subgroup of PGL_n(K):
    m * floor((n-1) / phi(t)) + v_p((n-1)!).

    Not claimed at n = 2, where it fails at p = 2: over Q, A = [[1, -1],
    [1, 1]] has order 4 in PGL_2(Q) and B = [[0, 1], [1, 0]] inverts it, so
    they make a dihedral group of order 8 (pgl2_admissible lists D8), while
    serre_bound(2, QQ) = 12.  For PGL_2 use pgl2_admissible.
    """
    _check_n(n)
    _check_invariants(p, inv)
    return inv.m_p * ((n - 1) // euler_phi(inv.t_p)) + factorial_valuation(p, n - 1)


def serre_bound(n: int, field: ExactCyclotomic) -> FactoredInteger:
    """Product over the contributing primes of p^serre_exponent; not an
    upper bound at n = 2 (see serre_exponent).

    The first term survives only while phi(t_p) <= n - 1.  For p prime to
    the conductor t_p = p - 1, so contributing primes are bounded by
    invphi_max(n-1) + 1; primes dividing the conductor stay below d + 2.
    """
    _check_n(n)
    _check_field(field)
    if n == 1:
        return ONE
    cutoff = max(field.degree + 1, invphi_max(n - 1) + 1, n - 1)
    return _prime_product(cutoff, lambda p: serre_exponent(n, p, all_invariants(field, p)))


# -------------------------------------------------- rough degree-only bound

def rough_exponent(n: int, d: int, p: int) -> int:
    """Exponent bound for p knowing only the degree d of the field.

      p odd:     (v_p(d)+1) * floor(n / ((p-1)/gcd(p-1, d))) + L_p(n)
      p = 2:     n*(v_2(d)+1) + L_2(n)                         for even d
                 n + 2*floor(n/2) + L_2(floor(n/2))            for odd d
    """
    _check_n(n)
    if type(d) is not int or d < 1:  # inline: this runs once per prime
        raise DomainError(_not_positive("degree d", d))
    if not is_prime(p):
        raise DomainError("%r is not prime" % p)
    if p != 2:
        tmin = (p - 1) // math.gcd(p - 1, d)
        return (_valuation(p, d) + 1) * (n // tmin) + _legendre(p, n)
    if d % 2 == 0:
        return n * (_valuation(2, d) + 1) + _legendre(2, n)
    h = n // 2
    return n + 2 * h + _legendre(2, h)


def rough_bound(n: int, d: int) -> FactoredInteger:
    """B_{n,d}: order bound for GL_n over any field of degree d.

    A prime with nonzero exponent satisfies (p-1)/gcd(p-1,d) <= n, hence
    p <= n*d + 1.
    """
    _check_n(n)
    if type(d) is not int or d < 1:
        raise DomainError(_not_positive("degree d", d))
    return _prime_product(n * d + 1, lambda p: rough_exponent(n, d, p))


def table(n: int, d_max: int) -> list[tuple[int, FactoredInteger]]:
    """Rows (d, rough_bound(n, d)) for d = 1 .. d_max.

    Row d sieves n*d + 1 numbers, so a table costs about n * d_max^2; it is
    refused before any row is computed when its rows would sieve more than
    SIEVE_LIMIT numbers in all, the cost of one largest rough_bound.
    """
    if type(d_max) is not int or d_max < 1:
        raise DomainError(_not_positive("d_max", d_max))
    _check_n(n)
    sieved = n * d_max * (d_max + 1) // 2 + d_max  # sum of n*d + 1 over d <= d_max
    if sieved > SIEVE_LIMIT:
        raise DomainError("the rows d = 1 .. %d would sieve %d numbers in all; a table "
                          "sieves at most SIEVE_LIMIT = %d" % (d_max, sieved, SIEVE_LIMIT))
    return [(d, rough_bound(n, d)) for d in range(1, d_max + 1)]


# ----------------------------------------------------- PGL_2 classification

class GroupFamily(Value):
    """One admissible finite subgroup type of PGL_2 over the field.

    kind is "cyclic", "dihedral", "A4", "S4" or "A5"; m is the m of mu_m or
    D_2m, and 0 for the exceptional types.
    """

    __slots__ = _fields = ("kind", "m")

    def __init__(self, kind: str, m: int = 0):
        # One per family and pgl2_admissible call: the slots' own setters, bound below.
        _family_kind(self, kind)
        _family_m(self, m)

    @property
    def order(self) -> int:
        if self.kind == "cyclic":
            return self.m
        if self.kind == "dihedral":
            return 2 * self.m
        return {"A4": 12, "S4": 24, "A5": 60}[self.kind]

    @property
    def label(self) -> str:
        if self.kind == "cyclic":
            return "mu%d" % self.m
        if self.kind == "dihedral":
            return "D%d" % (2 * self.m)
        return self.kind


_family_kind, _family_m = [GroupFamily.__dict__[name].__set__ for name in GroupFamily._fields]


def _flags(field) -> tuple[str, str]:
    """(minus1 is a sum of two squares, sqrt5 in K) as tristates."""
    if isinstance(field, DegreeOnly):
        return field.minus1_sum_of_two_squares, field.contains_sqrt5
    n = field.conductor.value
    sqrt5 = "yes" if n % 5 == 0 else "no"
    if n % 4 == 0:
        minus1 = "yes"  # -1 = z_4^2 + 0^2
    elif n == 1:
        minus1 = "no"
    else:
        minus1 = "unknown"
    return minus1, sqrt5


def _admissible_m(field) -> list[int]:
    """m >= 2 with z_m + 1/z_m in K; degree-only fields use phi(m)/2 <= d."""
    d = field.degree
    if isinstance(field, ExactCyclotomic):
        return [
            m
            for m in invphi_all(2 * d)
            if m >= 2 and real_cyclo_member(m, field.conductor)
        ]
    return [m for m in invphi_all(2 * d) if m >= 2]


def pgl2_admissible(field) -> tuple[list[GroupFamily], FactoredInteger]:
    """Finite subgroup families of PGL_2(K) and the largest order among them.

    Cyclic mu_m and dihedral D_2m need z_m + 1/z_m in K.  A4 and S4 need -1
    to be a sum of two squares; A5 additionally needs sqrt(5).  A field of
    degree <= 2 containing sqrt(5) is the real field Q(sqrt 5), where -1 is
    not a sum of two squares, so A5 is never admitted for d <= 2.  Tristate
    "unknown" admits the family, keeping the result an upper bound.
    """
    minus1, sqrt5 = _flags(field)
    ms = _admissible_m(field)
    fams = [GroupFamily("cyclic", m) for m in ms]
    fams += [GroupFamily("dihedral", m) for m in ms]
    exceptional = []
    if minus1 != "no":
        exceptional += [GroupFamily("A4"), GroupFamily("S4")]
    if minus1 != "no" and sqrt5 != "no" and field.degree > 2:
        exceptional.append(GroupFamily("A5"))
    # ms ascends and always holds 2, 3, 4 and 6, and D_2m has twice the
    # order of mu_m, so D_2m for the last m is the largest of those families.
    top = max([2 * ms[-1]] + [f.order for f in exceptional])
    return fams + exceptional, FactoredInteger.from_int(top)


def pgl2_max_order(d: int) -> FactoredInteger:
    """Largest admissible order over any field of degree d, flags unknown."""
    return pgl2_admissible(DegreeOnly(d))[1]


def gl2_max_order(d: int) -> FactoredInteger:
    """GL_2 bound over degree-d fields: the center mu_N with phi(N) <= d
    times the PGL_2 part, i.e. invphi_max(d) * pgl2_max_order(d).
    """
    return fi_mul(FactoredInteger.from_int(invphi_max(d)), pgl2_max_order(d))

