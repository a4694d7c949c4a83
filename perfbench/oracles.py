"""Reference answers for the benchmark, computed without calling glbounds.

Every check here is plain-int arithmetic written from the definitions the
package documents: sieves instead of trial division, the conductor criterion
instead of the Galois-orbit loop, a recursive evaluator over the ledger's
declared values instead of the FactoredInteger DAG walk.  A fast wrong
answer from the program therefore cannot agree with these by sharing code.
Each check returns None when the output is right and a one-line reason
otherwise.
"""

from __future__ import annotations

import math

TRISTATE = ("yes", "no", "unknown")


class NumberTables:
    """Totient and smallest-prime-factor tables, grown on demand by the
    calls that scan a range; single values past the table are factored."""

    def __init__(self):
        self.limit = 0
        self.phi_table = [0]
        self.spf = [0]

    def ensure(self, n: int) -> None:
        if n <= self.limit:
            return
        limit = max(n, 2 * self.limit, 1024)
        phi = list(range(limit + 1))
        spf = [0] * (limit + 1)
        for p in range(2, limit + 1):
            if spf[p] == 0:
                for k in range(p, limit + 1, p):
                    if spf[k] == 0:
                        spf[k] = p
                    phi[k] -= phi[k] // p
        self.limit, self.phi_table, self.spf = limit, phi, spf

    def phi(self, n: int) -> int:
        if n <= self.limit:
            return self.phi_table[n]
        return math.prod(p ** (e - 1) * (p - 1) for p, e in factor(n).items())

    def primes_upto(self, n: int) -> list[int]:
        self.ensure(n)
        return [p for p in range(2, n + 1) if self.spf[p] == p]

    def invphi_all(self, bound: int) -> list[int]:
        # phi(n) >= sqrt(n / 2), so nothing above 2 * bound**2 qualifies.
        cutoff = 2 * bound * bound
        self.ensure(cutoff)
        phi = self.phi_table
        return [n for n in range(1, cutoff + 1) if phi[n] <= bound]


def factor(n: int) -> dict[int, int]:
    """Trial-division factorization for values of any size whose prime
    factors are small, which is every value the ledger holds."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def as_int(factors) -> int:
    """Value of a FactoredInteger read only through its `factors` tuple."""
    out = 1
    for p, e in factors:
        out *= p**e
    return out


def as_map(factors) -> dict[int, int]:
    return {p: e for p, e in factors}


def vp(p: int, n: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def canonical(n: int) -> int:
    return n // 2 if n % 4 == 2 else n


def _tail(n: int, start: int, step: int) -> int:
    """floor(n/start) + floor(n/(start*step)) + ... while the terms are > 0."""
    total, q = 0, start
    while q <= n:
        total += n // q
        q *= step
    return total


def _keep_positive(exps: dict[int, int]) -> dict[int, int]:
    return {p: e for p, e in exps.items() if e > 0}


# ------------------------------------------------------------- bound formulas

def minkowski(tab: NumberTables, n: int) -> dict[int, int]:
    """sum_{i >= 0} floor(n / (p^i (p-1))) for each prime p <= n + 1."""
    out = {}
    for p in tab.primes_upto(n + 1):
        total, q = 0, p - 1
        while q <= n:
            total += n // q
            q *= p
        out[p] = total
    return _keep_positive(out)


def rough_exponent(n: int, d: int, p: int) -> int:
    if p != 2:
        tmin = (p - 1) // math.gcd(p - 1, d)
        return (vp(p, d) + 1) * (n // tmin) + _tail(n, p, p)
    if d % 2 == 0:
        return n * (vp(2, d) + 1) + _tail(n, 2, 2)
    return n + 2 * (n // 2) + _tail(n, 4, 2)


def rough(tab: NumberTables, n: int, d: int) -> dict[int, int]:
    # (p-1)/gcd(p-1, d) <= n is needed for a nonzero exponent, so p <= n*d + 1.
    return _keep_positive({p: rough_exponent(n, d, p) for p in tab.primes_upto(n * d + 1)})


def invariants(tab: NumberTables, conductor: int, p: int) -> tuple[int, int, int, bool]:
    """(t_p, m_p, e_p, z_4 in K) for K = Q(z_N), N canonical.

    t_p = [K(z_p) : K] is phi(lcm(N, p)) / phi(N), which by multiplicativity
    is 1 when p | N and p - 1 otherwise (z_4 and 2 for p = 2).  m_p is read
    off the conductor of K(z_p) (odd p) or of K (p = 2, z_4 in K), and is 2
    when N is odd because Q(z_8)^+ = Q(sqrt 2) has conductor 8.
    """
    d = tab.phi(conductor)
    xi4 = conductor % 4 == 0
    if p != 2:
        t = 1 if conductor % p == 0 else p - 1
        m = max(1, vp(p, conductor))
        return t, m, d * t // (p ** (m - 1) * (p - 1)), xi4
    t = 1 if xi4 else 2
    m = vp(2, conductor) if xi4 else 2
    return t, m, d * t // (2 ** (m - 2) if m >= 3 else 1), xi4


def schur_exponent(n: int, p: int, t: int, m: int, xi4: bool) -> int:
    if p != 2:
        return m * (n // t) + _tail(n, p * t, p)
    if xi4:
        return m * n + _tail(n, 2, 2)
    return n + m * (n // 2) + _tail(n, 4, 2)


def schur(tab: NumberTables, n: int, conductor: int) -> dict[int, int]:
    # A prime not dividing N has t_p = p - 1, which must be <= n.
    out = {}
    for p in tab.primes_upto(max(conductor, n + 1) + 1):
        t, m, _, xi4 = invariants(tab, conductor, p)
        out[p] = schur_exponent(n, p, t, m, xi4)
    return _keep_positive(out)


def serre(tab: NumberTables, n: int, conductor: int) -> dict[int, int]:
    """m * floor((n-1) / phi(t)) + v_p((n-1)!) for every prime that can
    contribute: p <= n - 1, p | N, or phi(p - 1) <= n - 1."""
    if n == 1:
        return {}
    top = max(tab.invphi_all(n - 1)) + 1
    out = {}
    for p in tab.primes_upto(max(conductor, top, n)):
        t, m, _, _ = invariants(tab, conductor, p)
        out[p] = m * ((n - 1) // tab.phi(t)) + _tail(n - 1, p, p)
    return _keep_positive(out)


def admissible_m(tab: NumberTables, degree: int, conductor: int | None) -> list[int]:
    """m >= 2 with z_m + 1/z_m in K.

    For K = Q(z_N) that holds exactly when Q(z_m)^+ is Q or its conductor,
    which is canonical(m), divides N.  Degree-only fields admit every m with
    phi(m) <= 2d.
    """
    out = []
    for m in tab.invphi_all(2 * degree):
        if m < 2:
            continue
        if conductor is not None:
            mc = canonical(m)
            if mc not in (1, 3, 4) and conductor % mc:
                continue
        out.append(m)
    return out


def pgl2(tab: NumberTables, degree: int, conductor: int | None, minus1: str, sqrt5: str):
    """Expected (families as (kind, m) pairs, largest order)."""
    ms = admissible_m(tab, degree, conductor)
    fams = [("cyclic", m) for m in ms] + [("dihedral", m) for m in ms]
    orders = ms + [2 * m for m in ms]
    if minus1 != "no":
        fams += [("A4", 0), ("S4", 0)]
        orders += [12, 24]
        if sqrt5 != "no" and degree > 2:
            fams.append(("A5", 0))
            orders.append(60)
    return fams, max(orders)


def flags_of_conductor(conductor: int) -> tuple[str, str]:
    minus1 = "yes" if conductor % 4 == 0 else ("no" if conductor == 1 else "unknown")
    sqrt5 = "yes" if conductor % 5 == 0 else "no"
    return minus1, sqrt5


def gl2(tab: NumberTables, d: int) -> int:
    return max(tab.invphi_all(d)) * pgl2(tab, d, None, "unknown", "unknown")[1]


def max_schur_exponent(p: int, n: int, d: int, e_min: int) -> int:
    """Largest odd-p Schur exponent over the (m, e, t), t <= n, solving
    p^(m-1) (p-1) e = d t with e >= e_min; 0 when there is none."""
    best = 0
    for t in range(1, n + 1):
        m = 1
        while p ** (m - 1) * (p - 1) <= d * t:
            lhs = p ** (m - 1) * (p - 1)
            if (d * t) % lhs == 0 and (d * t) // lhs >= e_min:
                best = max(best, schur_exponent(n, p, t, m, False))
            m += 1
    return best


def compare_map(got_factors, want: dict[int, int]) -> str | None:
    got = as_map(got_factors)
    if got != want:
        return "factors %s, expected %s" % (sorted(got.items()), sorted(want.items()))
    return None


# ------------------------------------------------------------------- ledger

class ScaleNotExactPredicted(Exception):
    """The reference evaluator met a ScaledProduct that is not an integer."""


class LedgerReference:
    """Plain-int evaluator and renderer over the packaged document.

    Leaves take their declared value (the audit check confirms the program
    recomputes each of them to exactly that); inner nodes are recomputed
    from their children, so the two whitelisted inner nodes get their true
    computed value rather than the declared one.
    """

    def __init__(self, doc: dict):
        self.nodes = {raw["id"]: raw for raw in doc["nodes"]}
        self.order = [raw["id"] for raw in doc["nodes"]]
        self.root = doc["root"]
        self.whitelist = set(doc["whitelist"])
        self.declared = {
            nid: math.prod(int(p) ** e for p, e in raw["declared"].items())
            for nid, raw in self.nodes.items()
        }
        self.plain = {nid: self.value(nid, {}, {}) for nid in self.order}

    def value(self, nid: str, overrides: dict[str, int], memo: dict[str, int]) -> int:
        if nid in overrides:
            return overrides[nid]
        if nid in memo:
            return memo[nid]
        raw = self.nodes[nid]
        kids = [self.value(kid, overrides, memo) for kid in raw["children"]]
        kind = raw["kind"]
        if not kids:
            out = self.declared[nid]
        elif kind == "Product":
            out = math.prod(kids)
        elif kind in ("Max", "AppendixProp"):
            out = max(kids)
        else:  # ScaledProduct
            top = raw["args"]["num"] * math.prod(kids)
            if top % raw["args"]["den"]:
                raise ScaleNotExactPredicted(nid)
            out = top // raw["args"]["den"]
        memo[nid] = out
        return out

    def final(self, overrides: dict[str, int]) -> int:
        """Root value with overrides (0 meaning the empty product)."""
        ov = {nid: (1 if v == 0 else v) for nid, v in overrides.items()}
        return self.value(self.root, ov, {})

    def explain(self, nid: str) -> str:
        lines = []

        def render(node_id: str, depth: int) -> None:
            raw = self.nodes[node_id]
            value = self.plain[node_id]
            lines.append(
                "%s%s [%s] = %s = %s  (%s)"
                % ("  " * depth, node_id, raw["kind"], factored_str(value),
                   grouped(value), raw["citation"])
            )
            for kid in raw["children"]:
                render(kid, depth + 1)

        render(nid, 0)
        return "\n".join(lines)

    def expected_status(self, nid: str) -> str:
        raw = self.nodes[nid]
        if raw["kind"] == "Constant":
            return "Unchecked"
        return "Match" if self.plain[nid] == self.declared[nid] else "Mismatch"


def grouped(n: int) -> str:
    s = str(n)
    head = len(s) % 3 or 3
    return " ".join([s[:head]] + [s[i:i + 3] for i in range(head, len(s), 3)])


def factored_str(n: int) -> str:
    fac = factor(n)
    if not fac:
        return "1"
    return " * ".join(str(p) if e == 1 else "%d^%d" % (p, e) for p, e in sorted(fac.items()))
