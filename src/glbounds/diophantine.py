"""Enumeration of the invariant equation p^(m-1) * (p-1) * e = d * t.

Every appendix-style case split reduces to: which triples (m, e, t) can the
invariants of a degree-d field take at the prime p, subject to side
constraints read off from gcd and parity lemmas.  Solutions are scored by
the odd-p schur_exponent formula; an empty solution list is meaningful and
yields exponent 0.
"""

from __future__ import annotations

from .bounds import _check_n, _schur_odd_exponent
from .exactnum import DomainError, Value, is_prime


class EquationSolution(Value):
    __slots__ = _fields = ("m", "e", "t")

    def __init__(self, m: int, e: int, t: int):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "t", t)


class SolutionConstraints(Value):
    """Side conditions for the enumeration.

    e_min: lower bound for e (default 1, i.e. no constraint).
    t_max: upper bound for t; None means "decided by the caller"
           (max_schur_exponent substitutes the matrix size n).
    extra: tags, each one of
             "e = K"   e equals the constant K
             "e even" / "e odd"
             "m = K"   m equals K
             "t >= K"  t at least K

    The tags are parsed once, here, and their predicates kept for the
    solver in a slot that is no constructor argument and takes no part in
    ==, hash, repr or pickling.
    """

    _fields = ("e_min", "t_max", "extra")
    __slots__ = _fields + ("_preds",)

    def __init__(self, e_min: int = 1, t_max: int | None = None, extra: tuple[str, ...] = ()):
        if e_min < 1:
            raise DomainError("e_min must be >= 1, got %r" % e_min)
        if t_max is not None and t_max < 1:
            raise DomainError("t_max must be >= 1, got %r" % t_max)
        preds = tuple([_parse_tag(tag) for tag in extra])  # validates every tag
        object.__setattr__(self, "e_min", e_min)
        object.__setattr__(self, "t_max", t_max)
        object.__setattr__(self, "extra", extra)
        object.__setattr__(self, "_preds", preds)


def _parse_tag(tag: str):
    """Turn a constraint tag into a predicate on the ints (m, e, t)."""
    words = tag.split()
    if words == ["e", "even"]:
        return lambda m, e, t: e % 2 == 0
    if words == ["e", "odd"]:
        return lambda m, e, t: e % 2 == 1
    if len(words) == 3 and words[0] == "e" and words[1] == "=":
        k = _tag_constant(tag, words[2])
        return lambda m, e, t: e == k
    if len(words) == 3 and words[0] == "m" and words[1] == "=":
        k = _tag_constant(tag, words[2])
        return lambda m, e, t: m == k
    if len(words) == 3 and words[0] == "t" and words[1] == ">=":
        k = _tag_constant(tag, words[2])
        return lambda m, e, t: t >= k
    raise DomainError("unknown constraint tag %r" % tag)


def _tag_constant(tag: str, word: str) -> int:
    # int() alone also takes signs, underscores and non-ASCII digits, and
    # raises ValueError past the interpreter's digit limit.
    if word.isascii() and word.isdigit():
        try:
            return int(word)
        except ValueError:
            pass
    raise DomainError("constraint tag %r needs a plain decimal constant" % tag)


# Largest t_max the solver enumerates: the solution list grows about
# linearly in t_max (116 662 rows for p = 7, d = 12 at 10^5).
T_MAX_LIMIT = 100_000


def solve_standard_equation(p: int, d: int, c: SolutionConstraints) -> list[EquationSolution]:
    """All (m, e, t) with p^(m-1)(p-1)e = dt meeting the constraints.

    Ordered by t then m.  Requires a concrete t_max of at most T_MAX_LIMIT.
    """
    if not is_prime(p):
        raise DomainError("%r is not prime" % p)
    if d < 1:
        raise DomainError("degree d must be >= 1, got %r" % d)
    if c.t_max is None:
        raise DomainError("solve_standard_equation needs a concrete t_max")
    if c.t_max > T_MAX_LIMIT:
        raise DomainError("t_max must be <= %d, got %d" % (T_MAX_LIMIT, c.t_max))
    e_min, preds = c.e_min, c._preds
    out = []
    for t in range(1, c.t_max + 1):
        rhs = d * t
        m = 1
        lhs = p - 1  # p^(m-1) * (p-1)
        while lhs <= rhs:
            if rhs % lhs == 0:
                e = rhs // lhs
                if e >= e_min and all([pred(m, e, t) for pred in preds]):
                    out.append(EquationSolution(m, e, t))
            m += 1
            lhs *= p
    return out


def max_schur_exponent(
    p: int,
    n: int,
    d: int,
    c: SolutionConstraints | None = None,
) -> int:
    """Largest schur_exponent(n, p, .) over all admissible (m, e, t).

    Odd p only; the p = 2 analysis never goes through this equation.  t
    never runs past n, whatever t_max says: t > n forces exponent 0, so a
    missing or larger t_max means n.
    """
    if not is_prime(p) or p == 2:
        raise DomainError("p must be an odd prime, got %r" % p)
    _check_n(n)
    if c is None:
        c = SolutionConstraints(t_max=n)
    elif c.t_max is None or c.t_max > n:
        c = SolutionConstraints(e_min=c.e_min, t_max=n, extra=c.extra)
    best = 0
    for sol in solve_standard_equation(p, d, c):
        best = max(best, _schur_odd_exponent(n, p, sol.t, sol.m))
    return best

