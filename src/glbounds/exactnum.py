"""Exact arithmetic on positive integers kept in factored form.

Every bound in this package is a product of explicit prime powers, often far
beyond 2**63, so values are carried as maps prime -> exponent and only
expanded to decimal for display, by fi_to_decimal, at most _MAX_DIGITS
digits.  No floats anywhere but _power_bits' e * log2(p), trusted only
where a proven margin settles its floor.
"""

from __future__ import annotations

__all__ = [
    "ONE", "DomainError", "FactoredInteger", "NonDivisible", "factorial_valuation",
    "fi_cmp", "fi_div_exact", "fi_mul", "fi_to_decimal", "fi_to_factored_str",
]

import bisect
import itertools
import math
from types import MappingProxyType


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class NonDivisible(ValueError):
    """Exact division was requested but the divisor does not divide."""


# Primes below 100: trial division by them settles every n below 101^2, and
# the largest prime in any shipped value is 43.  Both loops over them stop at
# the first p with p^2 > n, where what is left of n is 1 or a prime.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)


# Below _SPRP_FROM trial division to the square root takes at most 50 000
# steps.  From there on is_prime and the factoring loop ask _sprp_verdict,
# Miller-Rabin with the 13 primes up to 41 as bases, which is exact below
# _SPRP_EXACT_BELOW (Sorenson and Webster, Math. Comp. 86 (2017)).
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


def _sprp_verdict(n: int) -> bool:
    """Whether an odd n > 41 is prime, by Miller-Rabin; DomainError for a
    strong probable prime past _SPRP_EXACT_BELOW, where that is not decided."""
    if not _strong_probable_prime(n):
        return False
    if n >= _SPRP_EXACT_BELOW:
        raise DomainError("a cofactor of %d bits is a strong probable prime past %d, where "
                          "primality is not decided" % (n.bit_length(), _SPRP_EXACT_BELOW))
    return True


def is_prime(n: int) -> bool:
    """Trial division to the square root of n below _SPRP_FROM, _sprp_verdict
    from there on."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if p * p > n:
            return True  # no prime factor up to the square root
        if n % p == 0:
            return False  # p < n, since p * p <= n
    if n >= _SPRP_FROM:
        return _sprp_verdict(n)  # odd and > 41: no small prime divides it
    d = 101
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# Largest limit primes_upto sieves: a bytearray of 10 MB, about 0.3 s.
SIEVE_LIMIT = 10**7


def _check_sieve_limit(limit: int) -> None:
    if limit > SIEVE_LIMIT:
        raise DomainError(
            "primes are sieved up to SIEVE_LIMIT = %d, got %d" % (SIEVE_LIMIT, limit))


def primes_upto(limit: int) -> list[int]:
    """Primes <= limit, ascending: below 100 from _SMALL_PRIMES, from there
    by the sieve of Eratosthenes.

    Every entry is prime by construction, so callers use them unchecked."""
    _check_sieve_limit(limit)
    if limit < 100:  # every ledger leaf asks below 100
        return list(_SMALL_PRIMES[: bisect.bisect_right(_SMALL_PRIMES, limit)])
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return list(itertools.compress(range(limit + 1), sieve))


# factorize divides by trial up to here: 5 * 10^7 odd divisors, about 8 s.
# Primes below it are the factoring domain of the whole package: declared
# ledger keys, ScaledProduct scales, overrides, and the CLI's conductors and
# primes.
_TRIAL_LIMIT = 10**8


def factorize(n: int) -> dict[int, int]:
    """Factor a positive integer by trial division below _TRIAL_LIMIT.

    What is left is accepted as one more prime when that is proved: it is
    below _TRIAL_LIMIT^2, or _sprp_verdict calls it prime.  Any other
    cofactor is refused with a DomainError.
    """
    if type(n) is not int or n < 1:  # inline: euler_phi runs this once per prime
        _check_int("n", n)
    factors, rest = _factor_below(n, _TRIAL_LIMIT)
    if rest != 1:
        if rest >= _TRIAL_LIMIT**2 and not _sprp_verdict(rest):
            raise DomainError("a cofactor of %d bits has no prime factor below %d and is "
                              "composite; it is not factored" % (rest.bit_length(), _TRIAL_LIMIT))
        factors[rest] = 1
    return factors


def _factor_below(n: int, limit: int) -> tuple[dict[int, int], int]:
    """Prime factors below limit of an int n >= 1 by trial division that stops
    at limit, and the cofactor: 1 or a product of primes >= limit.

    Each new cofactor from _SPRP_FROM on goes to _sprp_verdict first: one it
    proves prime ends the division, and an undecided one raises at once,
    since division would run on to the limit.
    """
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n or p >= limit:
            break  # n is 1 or a prime, or has no prime factor below limit
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 101  # the loop below runs only if the one above tried every small prime
    fresh = True  # n changed since it was last tested for primality
    while d * d <= n and d < limit:
        if fresh and n >= _SPRP_FROM and _sprp_verdict(n):
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


def _check_tuple(name: str, value, items: str, is_item) -> tuple:
    """The package's one check of a record's tuple argument, each item passing
    is_item; a list becomes a tuple, so the record stays hashable."""
    if not (isinstance(value, (tuple, list)) and all([is_item(item) for item in value])):
        raise DomainError("%s must be a tuple of %s, got %r" % (name, items, value))
    return tuple(value)


class Value:
    """Base of the package's immutable record types.

    A subclass names its fields in `_fields`, in constructor order, and
    lists them in `__slots__`, then any private slots.  Each class has
    `_fill(self, <its slots in order>)`, generated on its first build, which
    its `__init__` calls once its checks pass; `_fill` itself is the
    `__init__` of a class with neither checks nor private slots.  Such a
    class may name `_defaults`, the values of its last fields when a call
    leaves them out, as namedtuple's defaults do, and its `_fill` takes them.
    Values compare and hash by their fields, are never equal to an instance
    of another class, refuse assignment and deletion, print as
    Name(field=value, ...), and pickle and copy by their fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()

    def __init_subclass__(cls):  # no checks and no private slot: _fill is __init__
        if "__init__" not in cls.__dict__ and cls.__dict__.get("__slots__") == cls._fields:
            cls.__init__ = Value._fill

    def _fill(self, *args, **kwargs):
        """The _fill of self's class until its first build, which generates
        the class's own, as namedtuple and dataclasses generate their code:
        each slot but `__weakref__`, which Python keeps, is stored by its
        member_descriptor.__set__, since __setattr__ refuses.  It replaces
        this stand-in, also as __init__, and fills self.  Generating on first
        use keeps the compiling out of import, which every CLI run pays."""
        cls = next(klass for klass in type(self).__mro__ if klass.__dict__.get("__slots__"))
        slots = tuple([name for name in cls.__slots__ if name != "__weakref__"])
        namespace = {"_set_%d" % i: cls.__dict__[name].__set__ for i, name in enumerate(slots)}
        exec("def __init__(%s):\n%s" % (", ".join(("self",) + slots), "".join(
            ["    _set_%d(self, %s)\n" % (i, name) for i, name in enumerate(slots)])), namespace)
        fill = cls._fill = namespace["__init__"]
        fill.__defaults__ = cls._defaults or None
        fill.__qualname__ = cls.__qualname__ + ".__init__"  # as TypeError names it
        fill.__module__ = cls.__module__
        if cls.__dict__.get("__init__") is Value._fill:
            cls.__init__ = fill
        fill(self, *args, **kwargs)

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
        # __setattr__ would otherwise refuse them; a read-only mapping goes
        # back as a plain dict, since a mappingproxy does not pickle
        return self.__class__, tuple([dict(field) if type(field) is MappingProxyType else field
                                      for field in self._key()])

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


# Values of at most this many bits are small: a FactoredInteger keeps its int
# once it is multiplied out, fi_cmp compares kept ints, and str() renders it
# as is.  About 600 digits, under the smallest limit sys.set_int_max_str_digits
# accepts.
_STR_BITS = 2000


class FactoredInteger(Value):
    """A positive integer as a sorted tuple of (prime, exponent) pairs.

    The empty tuple is 1.  The public constructor, from_map and from_int
    check that every base is a prime int and every exponent an int >= 1, so a
    value that exists is well formed.  Code that already holds such a tuple
    (a product of valid values, primes from a sieve or trial division, keys
    the ledger loader has checked) builds through _trusted, skipping them.

    A small value keeps its int in the private `_int` slot once to_int or
    fi_cmp has multiplied it out; the slot is no constructor argument and
    takes no part in ==, hash, repr, pickle or copy.
    """

    _fields = ("factors",)
    __slots__ = _fields + ("_int",)

    def __init__(self, factors: tuple[tuple[int, int], ...]):
        factors = _check_tuple("factors", factors, "(prime, exponent) pairs",
                               lambda pair: type(pair) is tuple and len(pair) == 2)
        self._fill(factors, None)
        self.__post_init__()  # looked up by name: perfbench/tracer.py wraps it to count

    def __post_init__(self):
        last = 0
        for p, e in self.factors:
            if type(p) is not int:
                _check_int("base", p)
            if not is_prime(p):
                raise DomainError("base %r is not prime" % p)
            if type(e) is not int or e < 1:
                _check_int("exponent for %d" % p, e)
            if p <= last:
                raise DomainError("factors must be strictly increasing by prime")
            last = p

    @classmethod
    def _trusted(cls, factors: tuple[tuple[int, int], ...]) -> "FactoredInteger":
        """Wrap factors sorted by prime, with prime bases and exponents >= 1,
        unchecked."""
        self = object.__new__(cls)
        cls._fill(self, factors, None)
        return self

    @classmethod
    def from_map(cls, factors: dict[int, int]) -> "FactoredInteger":
        """Build from a prime -> exponent map, dropping zero exponents."""
        if not isinstance(factors, dict):
            raise DomainError("factors must be a dict of prime -> exponent, got %r" % (factors,))
        pairs = factors.items()
        if 0 in factors.values():
            pairs = [(p, e) for p, e in pairs if e != 0]
        return cls(tuple(sorted(pairs)))

    @classmethod
    def from_int(cls, n: int) -> "FactoredInteger":
        return cls.from_map(factorize(n))

    def as_map(self) -> dict[int, int]:
        return dict(self.factors)

    def to_int(self) -> int:
        """The value as an int, kept if it is small."""
        n = self._int
        if n is None:
            n = 1
            for p, e in self.factors:
                n *= p**e
            if n.bit_length() <= _STR_BITS:
                _set_int(self, n)
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


_set_int = FactoredInteger.__dict__["_int"].__set__  # for to_int, once the value is built
ONE = FactoredInteger(())


def fi_mul(*values: FactoredInteger) -> FactoredInteger:
    """The product of any number of values, built as one record."""
    m: dict[int, int] = {}
    for value in values:
        for p, e in value.factors:
            m[p] = m.get(p, 0) + e
    return FactoredInteger._trusted(tuple(sorted(m.items())))


def fi_div_exact(a: FactoredInteger, b: FactoredInteger) -> FactoredInteger:
    """a / b when b divides a exactly, else NonDivisible, naming both factored."""
    m = a.as_map()
    for p, e in b.factors:
        r = m.get(p, 0) - e
        if r < 0:
            raise NonDivisible("%s does not divide %s"
                               % (fi_to_factored_str(b), fi_to_factored_str(a)))
        m[p] = r
    return FactoredInteger._trusted(tuple(sorted((p, e) for p, e in m.items() if e)))


def _bits_bound(a: FactoredInteger) -> int:
    """bits with a < 2^bits, read before anything is multiplied out: a kept
    int's bit_length(), else the sum of e * bit_length(p), at least 1."""
    if a._int is not None:
        return a._int.bit_length()
    return sum([e * p.bit_length() for p, e in a.factors]) or 1


def _digits_bound(bits: int) -> int:
    """Most decimal digits of an int below 2^bits: bits * log10(2) rounded
    up, with 30103/100000 > log10(2)."""
    return -(-bits * 30103 // 100000)


# Most digits fi_to_decimal renders for one value.  Rendering grows with the
# square of the digits: 509 886 take seconds, 6 098 582 take minutes.
_MAX_DIGITS = 10**6
_LOG_MARGIN = 2.0**-40  # how far, relative, _power_bits trusts e * log2(p) from an integer


def _power_bits(p: int, e: int) -> int:
    """(p**e).bit_length(), without building p**e where an estimate settles
    it: e + 1 for p = 2, and floor(e * log2 p) + 1 for odd p, whose powers
    are no power of 2.  In floating point, t = e * math.log2(p) is within
    (k + 1) * 2^-52 * t of e * log2 p when math.log2 is within k units in
    the last place (C libraries document k = 1).  The floor of t is taken
    only when t - t/2^40 and t + t/2^40 have the same floor: that margin
    covers any k up to 2^11.  (p**e).bit_length() decides the rest."""
    if p == 2:
        return e + 1
    t = e * math.log2(p)
    margin = t * _LOG_MARGIN
    low = math.floor(t - margin)
    if low == math.floor(t + margin):
        return low + 1
    return (p**e).bit_length()


def _check_digits(value: FactoredInteger) -> None:
    """Refuse a value that may have more than _MAX_DIGITS digits, judged from
    its prime powers unbuilt: _bits_bound passes nearly every value at once,
    and the rest have their powers' bit lengths summed exactly by _power_bits."""
    if _digits_bound(_bits_bound(value)) <= _MAX_DIGITS:
        return
    digits = _digits_bound(sum([_power_bits(p, e) for p, e in value.factors]))
    if digits > _MAX_DIGITS:
        raise DomainError("the value has up to %d digits; at most %d are printed"
                          % (digits, _MAX_DIGITS))


def fi_cmp(a: FactoredInteger, b: FactoredInteger) -> int:
    """-1, 0 or 1 as a <, =, > b.

    When both values are small their ints are compared, multiplied out once
    and kept on the values.  Otherwise common prime powers are cancelled
    first.  What is left of a is the product of p^(e_a - e_b) over the
    primes where a has the larger exponent, and what is left of b is the
    product of the other differences; both residuals are multiplied out as
    plain ints and compared, so the answer never depends on a rounded
    logarithm, and no value past _STR_BITS bits is multiplied out whole.
    The inputs are already valid, so the residuals are not built (and
    re-validated) as FactoredIntegers.
    """
    x, y = a._int, b._int
    if (x is None or y is None) and _bits_bound(a) <= _STR_BITS and _bits_bound(b) <= _STR_BITS:
        x, y = a.to_int(), b.to_int()
    if x is not None and y is not None:
        return (x > y) - (x < y)
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

    A value past _MAX_DIGITS digits is a DomainError before it is multiplied out.
    """
    if a._int is None:  # a kept int has at most _STR_BITS bits, inside the budget
        _check_digits(a)
    n = a.to_int()  # a small value keeps its int
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


def _check_int(name: str, value: int, least: int = 1) -> None:
    """The package's one check of a plain int argument: refuse a value that
    is no int (True, 2.0 and "2" are none) or is below least."""
    if type(value) is not int:
        raise DomainError("%s must be an int, got %r" % (name, value))
    if value < least:
        raise DomainError("%s must be >= %d, got %r" % (name, least, value))


def _check_prime(p: int) -> None:
    """The package's one check of a prime argument p."""
    if type(p) is not int:
        _check_int("p", p)  # raises
    if not is_prime(p):
        raise DomainError("%r is not prime" % p)


def factorial_valuation(p: int, k: int) -> int:
    """v_p(k!) by Legendre: sum of floor(k / p^i)."""
    _check_prime(p)
    _check_int("k", k, 0)
    return _legendre(p, k)
