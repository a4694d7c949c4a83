"""Exact arithmetic on positive integers kept in factored form.

Every bound in this package is a product of explicit prime powers, often far
beyond 2**63, so values are carried as maps prime -> exponent and only
expanded to decimal for display.  No floats anywhere.
"""

from __future__ import annotations

import math


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class NonDivisible(ValueError):
    """Exact division was requested but the divisor does not divide."""


# Primes below 100 are enough to factor every cofactor that actually shows up
# (the largest prime in any shipped value is 43); is_prime falls back to trial
# division for anything bigger.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # trial division; values handled here are < 10**8 so this is cheap
    d = 101
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# Largest limit primes_upto sieves: a bytearray of 10 MB, about 0.6 s.
SIEVE_LIMIT = 10**7


def primes_upto(limit: int) -> list[int]:
    """Primes <= limit, ascending, by the sieve of Eratosthenes."""
    if limit > SIEVE_LIMIT:
        raise DomainError(
            "primes are sieved up to SIEVE_LIMIT = %d, got %d" % (SIEVE_LIMIT, limit))
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [p for p in range(2, limit + 1) if sieve[p]]


# Below _SPRP_FROM trial division to the square root takes at most 50 000
# steps.  Above it a cofactor is first tested by Miller-Rabin with the 13
# primes up to 41 as bases, which is exact below _SPRP_EXACT_BELOW (Sorenson
# and Webster, Math. Comp. 86 (2017)), so a large prime cofactor ends the
# search at once instead of after up to limit / 2 divisions.
_SPRP_FROM = 10**10
_SPRP_EXACT_BELOW = 3317044064679887385961981


def _strong_probable_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2 .. 41 for odd n > 41."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES[:13]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Factor a positive integer by trial division."""
    return _factor_below(n, n + 1)[0]


def _factor_below(n: int, limit: int) -> tuple[dict[int, int], int]:
    """Prime factors below limit (> 97 or > n) of a positive n by trial
    division that stops at limit, and the cofactor: 1 or primes >= limit."""
    if n < 1:
        raise DomainError("can only factor positive integers, got %r" % n)
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 101
    fresh = True  # n changed since it was last tested for primality
    while d * d <= n and d < limit:
        if fresh and _SPRP_FROM <= n < _SPRP_EXACT_BELOW and _strong_probable_prime(n):
            break  # n is prime: trial division would run to its square root
        fresh = False
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
            fresh = True
        d += 2
    if 1 < n < limit:  # prime: no factor up to its square root, or tested above
        out[n] = out.get(n, 0) + 1
        n = 1
    return out, n


class Value:
    """Base of the package's immutable record types.

    A subclass names its fields in `_fields`, in constructor order, lists
    them in `__slots__` and sets them in its own `__init__` through
    object.__setattr__.  Values compare and hash by their fields, are never
    equal to an instance of another class, refuse assignment and deletion,
    print as Name(field=value, ...), and pickle and copy by their fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields),
        )

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, which
        # __setattr__ would otherwise refuse them
        return self.__class__, self._key()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class FactoredInteger(Value):
    """A positive integer as a sorted tuple of (prime, exponent) pairs.

    The empty tuple is 1.  The public constructor, from_map and from_int
    validate primality of every base and positivity of every exponent, so a
    value that exists is well formed.  Code that already holds such a tuple
    (a product of valid values, primes from a sieve, keys the ledger loader
    has checked) builds through _trusted instead and skips the checks.
    """

    __slots__ = _fields = ("factors",)

    def __init__(self, factors: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "factors", factors)
        self.__post_init__()  # looked up by name: perfbench/tracer.py wraps it to count

    def __post_init__(self):
        last = 0
        for p, e in self.factors:
            if not is_prime(p):
                raise DomainError("base %r is not prime" % p)
            if e < 1:
                raise DomainError("exponent for %d must be >= 1, got %r" % (p, e))
            if p <= last:
                raise DomainError("factors must be strictly increasing by prime")
            last = p

    @classmethod
    def _trusted(cls, factors: tuple[tuple[int, int], ...]) -> "FactoredInteger":
        """Wrap factors sorted by prime, with prime bases and exponents >= 1,
        unchecked."""
        self = object.__new__(cls)
        object.__setattr__(self, "factors", factors)
        return self

    @classmethod
    def from_map(cls, factors: dict[int, int]) -> "FactoredInteger":
        """Build from a prime -> exponent map, dropping zero exponents."""
        return cls(tuple(sorted((p, e) for p, e in factors.items() if e != 0)))

    @classmethod
    def from_int(cls, n: int) -> "FactoredInteger":
        return cls.from_map(factorize(n))

    def as_map(self) -> dict[int, int]:
        return dict(self.factors)

    def to_int(self) -> int:
        n = 1
        for p, e in self.factors:
            n *= p**e
        return n

    def __int__(self) -> int:
        return self.to_int()

    def __str__(self) -> str:
        return fi_to_decimal(self)

    def __mul__(self, other: "FactoredInteger") -> "FactoredInteger":
        return fi_mul(self, other)

    def __lt__(self, other: "FactoredInteger") -> bool:
        return fi_cmp(self, other) < 0

    def __le__(self, other: "FactoredInteger") -> bool:
        return fi_cmp(self, other) <= 0


ONE = FactoredInteger(())


def fi_mul(a: FactoredInteger, b: FactoredInteger) -> FactoredInteger:
    m = a.as_map()
    for p, e in b.factors:
        m[p] = m.get(p, 0) + e
    return FactoredInteger._trusted(tuple(sorted(m.items())))


def fi_div_exact(a: FactoredInteger, b: FactoredInteger) -> FactoredInteger:
    """a / b when b divides a exactly, else NonDivisible."""
    m = a.as_map()
    for p, e in b.factors:
        r = m.get(p, 0) - e
        if r < 0:
            raise NonDivisible("%s does not divide %s" % (b, a))
        m[p] = r
    return FactoredInteger._trusted(tuple(sorted((p, e) for p, e in m.items() if e)))


def fi_cmp(a: FactoredInteger, b: FactoredInteger) -> int:
    """-1, 0 or 1 as a <, =, > b.

    Common prime powers are cancelled first.  What is left of a is the
    product of p^(e_a - e_b) over the primes where a has the larger exponent,
    and what is left of b is the product of the other differences; both
    residuals are multiplied out as plain ints and compared, so the answer
    never depends on a rounded logarithm.  The inputs are already valid, so
    the residuals are not built (and re-validated) as FactoredIntegers.
    """
    rest = dict(a.factors)
    ra = rb = 1
    for p, e in b.factors:
        d = rest.pop(p, 0) - e
        if d > 0:
            ra *= p**d
        elif d < 0:
            rb *= p ** (-d)
    for p, e in rest.items():
        ra *= p**e
    return (ra > rb) - (ra < rb)


# Below this many bits str() is used as is: about 600 digits, under the
# smallest limit sys.set_int_max_str_digits accepts.
_STR_BITS = 2000


def _decimal(n: int) -> str:
    """str(n) for n >= 0 of any size: split on a power of ten, then recurse.

    Python refuses str() on ints beyond a digit limit (4300 by default), so
    big values are cut into halves whose strings it accepts.
    """
    bits = n.bit_length()
    if bits <= _STR_BITS:
        return str(n)
    # About half of n's digits; 10^k < n because 301/1000 < log10(2).
    k = bits * 301 // 2000
    high, low = divmod(n, 10**k)
    return _decimal(high) + _decimal(low).rjust(k, "0")


def fi_to_decimal(a: FactoredInteger, group: bool = False) -> str:
    """Decimal rendering; group=True inserts spaces in groups of three.

    grouped:  24 103 053 950 976 000
    plain:    24103053950976000
    """
    n = a.to_int()
    if group and n.bit_length() <= _STR_BITS:
        return format(n, ",").replace(",", " ")
    s = _decimal(n)
    if not group:
        return s
    head = len(s) % 3 or 3
    return " ".join([s[:head]] + [s[i : i + 3] for i in range(head, len(s), 3)])


def fi_to_factored_str(a: FactoredInteger) -> str:
    """Power-product rendering, e.g. 2^7 * 3^2 * 5; the empty product is 1."""
    if not a.factors:
        return "1"
    parts = []
    for p, e in a.factors:
        parts.append(str(p) if e == 1 else "%d^%d" % (p, e))
    return " * ".join(parts)


def valuation_int(p: int, n: int) -> int:
    """Exponent of p in a plain positive integer."""
    if not is_prime(p):
        raise DomainError("%r is not prime" % p)
    if n < 1:
        raise DomainError("valuation of a non-positive integer")
    return _valuation(p, n)


def _valuation(p: int, n: int) -> int:
    """Exponent of p in n, unchecked (p >= 2, n >= 1)."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _legendre(p: int, k: int) -> int:
    """v_p(k!) = sum of floor(k / p^i) over i >= 1, unchecked (p >= 2, k >= 0)."""
    total = 0
    while k >= p:
        k //= p
        total += k
    return total


def factorial_valuation(p: int, k: int) -> int:
    """v_p(k!) by Legendre: sum of floor(k / p^i)."""
    if not is_prime(p):
        raise DomainError("%r is not prime" % p)
    if k < 0:
        raise DomainError("factorial of a negative integer")
    return _legendre(p, k)
