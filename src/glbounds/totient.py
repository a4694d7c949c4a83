"""Euler's totient and its exact inversion.

invphi_all(B) lists every n with phi(n) <= B by a depth-first search over
prime powers, on one explicit stack.  A prime p divides such an n only if phi(p) = p - 1 <= B, and
phi is multiplicative, so n is built one prime at a time in increasing
order of prime while the running phi(n) stays <= B.  Every extension the
search tries either yields a new n or ends its branch, so the cost grows with
the output: about (zeta(2) zeta(3) / zeta(6)) * B ~ 1.94 * B values
(Bateman 1972), plus a sieve and one euler_phi call per prime up to B + 1.
invphi_max(B) is the last of them.

The bound phi(n) >= sqrt(n/2) caps every such n at 2*B**2; that cutoff now
only justifies the exhaustive scan the tests keep as the reference.

B is at most INVPHI_LIMIT: the output, and with it time and memory, grows
linearly in B (about 2 s and 114 MiB at the limit).
"""

from __future__ import annotations

__all__ = [
    "euler_phi", "invphi_all", "invphi_max",
]

from .exactnum import DomainError, _check_int, factorize, primes_upto


def euler_phi(n: int) -> int:
    """phi(n); factorize refuses an n that is no int >= 1."""
    out = 1
    for p, e in factorize(n).items():
        out *= p ** (e - 1) * (p - 1)
    return out


# Largest bound the inverse totient accepts; it serves invphi -b, pgl2 -d
# (as 2d), serre -n (as n - 1) and the ledger's SerreQ, Pgl2 and Gl2 leaves.
INVPHI_LIMIT = 10**6


def _invphi(bound: int) -> list[int]:
    _check_int("bound", bound)
    if bound > INVPHI_LIMIT:
        raise DomainError("bound must be <= %d, got %d" % (INVPHI_LIMIT, bound))
    # (p, phi(p)) for every prime that can divide an n with phi(n) <= bound;
    # phi(p) grows with p, so a search may stop at the first that overshoots.
    primes = [(p, euler_phi(p)) for p in primes_upto(bound + 1)]
    out = [1]
    # (n, phi(n), i): extend n by the prime primes[i] and the ones after it.
    # An entry tries one prime and leaves one entry for the next, so the
    # stack holds a few entries per prime of the n being built.
    stack = [(1, 1, 0)]
    while stack:
        n, phi_n, i = stack.pop()
        if i == len(primes):
            continue
        p, phi_p = primes[i]
        m, phi = n * p, phi_n * phi_p
        if phi > bound:
            continue
        stack.append((n, phi_n, i + 1))
        # phi(n p^k) = phi(n) phi(p^k), and phi(p^(k+1)) = p phi(p^k)
        while phi <= bound:
            out.append(m)
            stack.append((m, phi, i + 1))
            m *= p
            phi *= p
    out.sort()
    return out


def invphi_all(bound: int) -> list[int]:
    """All n with phi(n) <= bound, ascending.  Includes 1."""
    return _invphi(bound)


def invphi_max(bound: int) -> int:
    """The largest n with phi(n) <= bound."""
    return _invphi(bound)[-1]

