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

Each bound is the product of p to its exponent over candidate primes that
hold every prime with a nonzero exponent.  The exponents come from
unchecked helpers that the public *_exponent wraps in its argument checks,
so a bound checks its arguments once, not once per candidate.  The
candidates are listed at each bound; minkowski_bound and rough_bound prove
none of them prime twice.
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
    _check_int,
    _check_prime,
    _check_sieve_limit,
    _legendre,
    _valuation,
    fi_mul,
    is_prime,
    primes_upto,
)
from .totient import euler_phi, invphi_all, invphi_max


def _check_invariants(p: int, inv: CycloInvariants):
    _check_prime(p)
    if not isinstance(inv, CycloInvariants):
        raise DomainError("invariants must be a CycloInvariants, got %r" % (inv,))
    if inv.p != p:
        raise DomainError("invariants are for p=%d, not p=%d" % (inv.p, p))
    # CycloInvariants takes any field values, and the exponents read them
    # unchecked; m_p = 0 still gives each formula a valid exponent.
    _check_int("t_p", inv.t_p)
    _check_int("m_p", inv.m_p, 0)
    _check_int("e_p", inv.e_p)
    if type(inv.xi4_in_k) is not bool:
        raise DomainError("xi4_in_k must be a bool, got %r" % (inv.xi4_in_k,))


def _prime_product(primes: list[int], exponent: Callable[[int], int]) -> FactoredInteger:
    """Product of p^exponent(p) over primes, which ascend and are all prime.

    Zero exponents are dropped, so the factors need no re-validation.
    """
    out = []
    for p in primes:
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
    _check_int("matrix size n", n)
    _check_prime(p)
    return _minkowski_exponent(n, p)


def _minkowski_exponent(n: int, p: int) -> int:
    """minkowski_exponent for an int n >= 1 and a prime p, unchecked."""
    q = n // (p - 1)
    return q + _legendre(p, q)


def minkowski_bound(n: int) -> FactoredInteger:
    """Minkowski's bound for GL_n(Q): p^minkowski_exponent over the primes p
    <= n + 1, the ones with p - 1 <= n, taken from the sieve unchecked.
    """
    _check_int("matrix size n", n)
    return _prime_product(primes_upto(n + 1), lambda p: _minkowski_exponent(n, p))


# -------------------------------------------------------------------- Schur

def schur_exponent(n: int, p: int, inv: CycloInvariants) -> int:
    """Exponent bound for p in |G|, G a finite subgroup of GL_n(K).

    Driven entirely by the field invariants:

      p odd:            m*floor(n/t) + L_p(floor(n/t))
      p = 2, z_4 in K:  m*n + L_2(n)
      p = 2 otherwise:  n + m*floor(n/2) + L_2(floor(n/2))
    """
    _check_int("matrix size n", n)
    _check_invariants(p, inv)
    return _schur_exponent(n, p, inv)


def _schur_exponent(n: int, p: int, inv: CycloInvariants) -> int:
    """schur_exponent for an int n >= 1 and the invariants at p, unchecked."""
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
    _check_int("matrix size n", n)
    _check_field(field)
    return _prime_product(
        primes_upto(n * field.degree + 1),
        lambda p: _schur_exponent(n, p, all_invariants(field, p)),
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
    _check_int("matrix size n", n)
    _check_invariants(p, inv)
    return _serre_exponent(n, p, inv)


def _serre_exponent(n: int, p: int, inv: CycloInvariants) -> int:
    """serre_exponent for an int n >= 1 and the invariants at p, unchecked."""
    return inv.m_p * ((n - 1) // euler_phi(inv.t_p)) + _legendre(p, n - 1)


def serre_bound(n: int, field: ExactCyclotomic) -> FactoredInteger:
    """Product over the contributing primes of p^serre_exponent; not an
    upper bound at n = 2 (see serre_exponent).

    The first term survives only while phi(t_p) <= n - 1.  For p prime to
    the conductor t_p = p - 1, so contributing primes are bounded by
    invphi_max(n-1) + 1; primes dividing the conductor stay below d + 2.
    """
    _check_int("matrix size n", n)
    _check_field(field)
    if n == 1:
        return ONE
    cutoff = max(field.degree + 1, invphi_max(n - 1) + 1, n - 1)
    return _prime_product(primes_upto(cutoff),
                          lambda p: _serre_exponent(n, p, all_invariants(field, p)))


# -------------------------------------------------- rough degree-only bound

def rough_exponent(n: int, d: int, p: int) -> int:
    """Exponent bound for p knowing only the degree d of the field.

      p odd:     (v_p(d)+1) * floor(n / ((p-1)/gcd(p-1, d))) + L_p(n)
      p = 2:     n*(v_2(d)+1) + L_2(n)                         for even d
                 n + 2*floor(n/2) + L_2(floor(n/2))            for odd d
    """
    _check_int("matrix size n", n)
    _check_int("degree d", d)
    _check_prime(p)
    return _rough_exponent(n, d, p)


def _rough_exponent(n: int, d: int, p: int) -> int:
    """rough_exponent for ints n, d >= 1 and a prime p, unchecked."""
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
    p <= n*d + 1, and the bound is refused when n*d + 1 passes SIEVE_LIMIT,
    the domain of a sieve up to there.  The product runs over _rough_primes
    only, so its work grows with n times the number of divisors of d, not
    with n*d.
    """
    _check_int("matrix size n", n)
    _check_int("degree d", d)
    _check_sieve_limit(n * d + 1)
    return _prime_product(_rough_primes(n, d), lambda p: _rough_exponent(n, d, p))


def _rough_primes(n: int, d: int) -> list[int]:
    """The primes with a nonzero rough exponent, ascending.

    Every prime p <= n + 1 has one: L_p(n) >= 1 for p <= n, and for
    p = n + 1, (p-1)/gcd(p-1, d) <= n.  Above n + 1, L_p(n) = 0 and p
    counts exactly when k = (p-1)/g <= n for g = gcd(p-1, d); then g >= 2
    divides d and gcd(k, d/g) = 1.  So each larger prime is g*k + 1 for
    exactly one such pair, and only those candidates are tested.  p - 1 is
    even, so for even d so is g, and for odd d so is k.
    """
    large = []
    even = d % 2 == 0
    for g in _divisors(d):
        if g == 1 or (even and g % 2):
            continue
        rest, step = d // g, 2 if g % 2 else 1
        first = n // g + 1  # the least k with g*k + 1 > n + 1
        if step == 2 and first % 2:
            first += 1
        for k in range(first, n + 1, step):
            if math.gcd(k, rest) == 1 and is_prime(g * k + 1):
                large.append(g * k + 1)
    large.sort()
    return primes_upto(n + 1) + large


def _divisors(d: int) -> list[int]:
    """The divisors of d >= 1, in no particular order."""
    out = []
    for g in range(1, math.isqrt(d) + 1):
        if d % g == 0:
            out.append(g)
            if g * g != d:
                out.append(d // g)
    return out


def table(n: int, d_max: int) -> list[tuple[int, FactoredInteger]]:
    """Rows (d, rough_bound(n, d)) for d = 1 .. d_max.

    A table is refused before any row is computed when its rows would sieve
    more than SIEVE_LIMIT numbers in all, the sum of n*d + 1 over d <= d_max
    as if each row sieved up to its cutoff; row d itself tests only about n
    times the number of divisors of d candidates.
    """
    _check_int("d_max", d_max)
    _check_int("matrix size n", n)
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
    _defaults = (0,)

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
    return invphi_all(2 * d)[1:]  # it ascends from 1


def pgl2_admissible(field) -> tuple[list[GroupFamily], FactoredInteger]:
    """Finite subgroup families of PGL_2(K) and the largest order among them.

    Cyclic mu_m and dihedral D_2m need z_m + 1/z_m in K.  A4 and S4 need -1
    to be a sum of two squares; A5 additionally needs sqrt(5).  A field of
    degree <= 2 containing sqrt(5) is the real field Q(sqrt 5), where -1 is
    not a sum of two squares, so A5 is never admitted for d <= 2.  Tristate
    "unknown" admits the family, keeping the result an upper bound.
    """
    if not isinstance(field, (ExactCyclotomic, DegreeOnly)):
        raise DomainError("field must be an ExactCyclotomic or a DegreeOnly, got %r" % (field,))
    minus1, sqrt5 = _flags(field)
    ms = _admissible_m(field)
    fams = list(map(GroupFamily, ["cyclic"] * len(ms), ms))
    fams += map(GroupFamily, ["dihedral"] * len(ms), ms)
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
    _check_int("degree d", d)
    return fi_mul(FactoredInteger.from_int(invphi_max(d)), pgl2_max_order(d))

