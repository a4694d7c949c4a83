"""The three workloads: seeded inputs, the calls that run them, their checks.

A workload's inputs are one fixed "round" of operations generated from the
seed.  The timed loop replays the round until the time is up, so every run
holds whole rounds and the operation mix does not drift with run length.
Sizes are drawn stratified on a log scale, one draw per stratum, and the
round is shuffled, so two seeds give different queries of nearly the same
total cost.

Each operation carries a key naming its distinct query.  The check (the
oracle in oracles.py) runs once per key and run; a repeat of the query must
then reproduce the checked output exactly.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import oracles
from oracles import NumberTables, as_int, compare_map

PACKAGE = "glbounds"
HEADLINE = 24_103_053_950_976_000


@dataclass
class Op:
    kind: str
    key: tuple
    call: Callable[[], Any]
    # check(result, exception) -> None if right, else a reason
    check: Callable[[Any, BaseException | None], str | None]
    # digest(result) -> comparable form, for repeats of a checked query
    digest: Callable[[Any], Any]


def import_program(root: Path):
    """Import glbounds afresh from the checkout's src/ and return it.

    Dropping the cached modules first makes every set-up pay the import, so
    work moved into import time shows in setup_s.
    """
    sys.dont_write_bytecode = False  # measure imports from cached byte code
    src = str(root / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mod = importlib.import_module(PACKAGE)
    if not Path(mod.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise RuntimeError("imported %s from %s, not from this checkout" % (PACKAGE, mod.__file__))
    return mod


def log_strata(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """k integers in [lo, hi], one per equal slice of [log lo, log(hi + 1)),
    in slice order."""
    a, b = math.log(lo), math.log(hi + 1)
    return [min(hi, int(math.exp(a + (i + rng.random()) / k * (b - a)))) for i in range(k)]


def paired(xs: list, ys: list) -> list[tuple]:
    """Latin-hypercube pairs of two stratified draws.

    The pairing permutation depends only on the count, not on the seed: the
    cost of a call grows with products such as n * d, so a seeded pairing
    would change the cost of a round from seed to seed.  The seed still moves
    every draw within its slice.
    """
    order = random.Random(len(ys)).sample(range(len(ys)), len(ys))
    return [(x, ys[j]) for x, j in zip(xs, order)]


def _expect_value(want: dict[int, int]):
    def check(result, exc):
        if exc is not None:
            return "raised %r" % exc
        return compare_map(result.factors, want)
    return check


def _expect_equal(want):
    def check(result, exc):
        if exc is not None:
            return "raised %r" % exc
        return None if result == want else "got %r, expected %r" % (result, want)
    return check


def _factors(result):
    return result.factors


def _same(result):
    return result


# ------------------------------------------------------------- ledger-audit

class LedgerAudit:
    """Audit, what-if, explain and round trip over the packaged ledger."""

    name = "ledger-audit"
    in_process = True
    # Operations per round, by kind.  About half the time goes to `audit`.
    MIX = {"audit": 12, "whatif": 24, "explain": 12, "roundtrip": 8}
    # What-ifs whose first override zeroes the child of a ScaledProduct with
    # den != 1, so the ScaleNotExact path runs on every seed.
    FORCED_INEXACT = 2

    expected_sites = (
        ("ledger.load_ledger", PACKAGE),
        ("ledger.verify_ledger", PACKAGE),
        ("ledger.final_bound", PACKAGE),
        ("ledger.explain", PACKAGE),
        ("ledger.dumps_ledger", PACKAGE),
        ("exactnum.fi_mul", PACKAGE + ".ledger"),
        ("exactnum.fi_cmp", PACKAGE + ".ledger"),
        ("exactnum.fi_to_decimal", PACKAGE + ".ledger"),
        ("bounds.pgl2_admissible", PACKAGE + ".ledger"),
        ("diophantine.max_schur_exponent", PACKAGE + ".ledger"),
        ("diophantine.solve_standard_equation", PACKAGE + ".diophantine"),
        ("totient.invphi_all", PACKAGE + ".bounds"),
        ("totient.invphi_max", PACKAGE + ".bounds"),
        ("totient.euler_phi", PACKAGE + ".totient"),
        ("exactnum.factorize", PACKAGE + ".totient"),
        ("exactnum.is_prime", PACKAGE + ".exactnum"),
        ("exactnum.construct", PACKAGE + ".exactnum.FactoredInteger"),
    )

    def setup(self, root: Path, seed: int) -> dict:
        G = import_program(root)
        text = (Path(G.__file__).parent / "data" / "paper_ledger.json").read_text("utf-8")
        ledger = G.load_ledger(text)
        return {"G": G, "text": text, "ledger": ledger,
                "specs": self.generate(random.Random("%s:%d" % (self.name, seed)), text)}

    def generate(self, rng: random.Random, text: str) -> list[tuple]:
        doc = json.loads(text)
        ids = [raw["id"] for raw in doc["nodes"]]
        non_root = [nid for nid in ids if nid != doc["root"]]
        inexact = [kid for raw in doc["nodes"]
                   if raw["kind"] == "ScaledProduct" and raw["args"]["den"] != 1
                   for kid in raw["children"]]
        declared = {raw["id"]: math.prod(int(p) ** e for p, e in raw["declared"].items())
                    for raw in doc["nodes"]}
        specs: list[tuple] = [("audit",)] * self.MIX["audit"]
        for i in range(self.MIX["whatif"]):
            overrides = {}
            if i < self.FORCED_INEXACT:
                overrides[rng.choice(inexact)] = 0
            for nid in rng.sample(non_root, rng.randint(1, 3)):
                overrides.setdefault(nid, 0 if rng.random() < 0.5 else declared[rng.choice(ids)])
            specs.append(("whatif", tuple(sorted(overrides.items()))))
        specs += [("explain", rng.choice(ids)) for _ in range(self.MIX["explain"])]
        specs += [("roundtrip",)] * self.MIX["roundtrip"]
        rng.shuffle(specs)
        return specs

    def bind(self, state: dict, tables: NumberTables) -> list[Op]:
        G, text, ledger = state["G"], state["text"], state["ledger"]
        ref = oracles.LedgerReference(json.loads(text))
        return [self._op(G, text, ledger, ref, spec) for spec in state["specs"]]

    def _op(self, G, text, ledger, ref, spec) -> Op:
        kind = spec[0]
        if kind == "audit":
            def audit():
                fresh = G.load_ledger(text)
                return G.verify_ledger(fresh), G.final_bound(fresh)
            return Op(kind, spec, audit, lambda r, e: self._check_audit(ref, r, e),
                      lambda r: (tuple((row.id, row.status, row.computed.factors)
                                       for row in r[0].rows), r[1].factors))
        if kind == "whatif":
            overrides = dict(spec[1])
            return Op(kind, spec, lambda: G.final_bound(ledger, overrides),
                      lambda r, e: self._check_whatif(G, ref, overrides, r, e), _factors)
        if kind == "explain":
            nid = spec[1]
            return Op(kind, spec, lambda: G.explain(ledger, nid),
                      lambda r, e: self._check_text(ref.explain(nid), r, e), _same)

        def roundtrip():
            out = G.dumps_ledger(ledger)
            return out, G.load_ledger(out)
        return Op(kind, spec, roundtrip, lambda r, e: self._check_roundtrip(ref, text, r, e),
                  lambda r: (r[0], r[1].order))

    @staticmethod
    def _check_audit(ref, result, exc):
        if exc is not None:
            return "raised %r" % exc
        report, final = result
        if [row.id for row in report.rows] != ref.order:
            return "report rows are not in document order"
        for row in report.rows:
            want = ref.expected_status(row.id)
            if row.status != want:
                return "%s: status %s, expected %s" % (row.id, row.status, want)
            if as_int(row.computed.factors) != ref.plain[row.id]:
                return "%s: computed %d, expected %d" % (
                    row.id, as_int(row.computed.factors), ref.plain[row.id])
            if as_int(row.declared.factors) != ref.declared[row.id]:
                return "%s: declared value changed" % row.id
        mismatched = {row.id for row in report.rows if row.status == "Mismatch"}
        if mismatched != ref.whitelist:
            return "mismatches %s, expected the whitelist" % sorted(mismatched)
        got = as_int(final.factors)
        if got != ref.plain[ref.root] or got != HEADLINE:
            return "final bound %d, expected %d" % (got, HEADLINE)
        return None

    @staticmethod
    def _check_whatif(G, ref, overrides, result, exc):
        try:
            want = ref.final(overrides)
        except oracles.ScaleNotExactPredicted:
            if isinstance(exc, G.ScaleNotExact):
                return None
            return "expected ScaleNotExact, got %r" % (exc if exc is not None else result)
        if exc is not None:
            return "raised %r" % exc
        got = as_int(result.factors)
        return None if got == want else "final %d, expected %d" % (got, want)

    @staticmethod
    def _check_text(want, result, exc):
        if exc is not None:
            return "raised %r" % exc
        return None if result == want else "text differs from the reference rendering"

    @staticmethod
    def _check_roundtrip(ref, text, result, exc):
        if exc is not None:
            return "raised %r" % exc
        out, again = result
        if out != text:
            return "dumps_ledger is not byte-identical to the packaged file"
        if list(again.order) != ref.order or again.root != ref.root:
            return "reloaded ledger has different node order or root"
        for nid in ref.order:
            if as_int(again.nodes[nid].declared.factors) != ref.declared[nid]:
                return "%s: reloaded declared value differs" % nid
        return None


# --------------------------------------------------------------- bound-scan

class BoundScan:
    """Direct calls into bounds, cyclotomic, totient and diophantine."""

    name = "bound-scan"
    in_process = True
    # (kind, draws per round).  The ranges keep the costliest single call
    # near 20 ms at the benchmark's first commit, and keep the calls that
    # reduce to the quadratic inverse-totient scan (pgl2, gl2, invphi) to a
    # minority of a round, so bounds and cyclotomic do most of the work.
    # Many draws per kind keep the strata narrow, so the cost of a round is
    # nearly the same for every seed.
    MIX = (
        ("minkowski", 32), ("rough", 32), ("table", 24), ("schur", 64),
        ("serre", 32), ("invariants", 48), ("pgl2_exact", 24),
        ("pgl2_degree", 24), ("gl2", 16), ("invphi_max", 16), ("invphi_all", 16),
        ("max_schur", 32),
    )
    PHI_MAX = 192  # largest [Q(z_N) : Q] drawn
    CONDUCTOR_MAX = 5000  # conductors are drawn from N <= this
    PGL2_PHI_MAX = 12  # smaller for pgl2 and gl2, quadratic in the degree

    expected_sites = (
        ("bounds.minkowski_bound", PACKAGE),
        ("bounds.rough_bound", PACKAGE),
        ("bounds.table", PACKAGE),
        ("bounds.schur_bound", PACKAGE),
        ("bounds.serre_bound", PACKAGE),
        ("bounds.pgl2_admissible", PACKAGE),
        ("bounds.gl2_max_order", PACKAGE),
        ("cyclotomic.all_invariants", PACKAGE),
        ("totient.invphi_all", PACKAGE),
        ("totient.invphi_max", PACKAGE),
        ("diophantine.max_schur_exponent", PACKAGE),
        ("totient.invphi_all", PACKAGE + ".bounds"),
        ("totient.invphi_max", PACKAGE + ".bounds"),
        ("cyclotomic.all_invariants", PACKAGE + ".bounds"),
        ("cyclotomic.real_cyclo_member", PACKAGE + ".bounds"),
        ("exactnum.is_prime", PACKAGE + ".bounds"),
        ("exactnum.is_prime", PACKAGE + ".exactnum"),
    )

    def setup(self, root: Path, seed: int) -> dict:
        G = import_program(root)
        return {"G": G, "specs": self.generate(random.Random("%s:%d" % (self.name, seed)))}

    def generate(self, rng: random.Random) -> list[tuple]:
        tables = NumberTables()
        tables.ensure(self.CONDUCTOR_MAX)
        by_phi: dict[int, list[int]] = {}
        for n in range(1, self.CONDUCTOR_MAX + 1):
            if (n == 1 or (n >= 3 and n % 4 != 2)) and tables.phi(n) <= self.PHI_MAX:
                by_phi.setdefault(tables.phi(n), []).append(n)

        def conductors(k: int, top: int) -> list[int]:
            out = []
            for target in log_strata(rng, 1, top, k):
                phi = max(v for v in by_phi if v <= target)
                out.append(rng.choice(by_phi[phi]))
            return out

        def primes(k: int, lo: int, hi: int) -> list[int]:
            pool = [p for p in tables.primes_upto(hi) if p >= lo]
            return [rng.choice(pool) for _ in range(k)]

        count = dict(self.MIX)
        specs: list[tuple] = []
        specs += [("minkowski", n) for n in log_strata(rng, 1, 5000, count["minkowski"])]
        k = count["rough"]
        specs += [("rough", n, d) for n, d in paired(log_strata(rng, 1, 24, k), log_strata(rng, 1, 120, k))]
        k = count["table"]
        specs += [("table", n, d) for n, d in paired(log_strata(rng, 1, 12, k), log_strata(rng, 1, 60, k))]
        k = count["schur"]
        specs += [("schur", n, c) for n, c in paired(log_strata(rng, 1, 32, k), conductors(k, self.PHI_MAX))]
        k = count["serre"]
        specs += [("serre", n, c) for n, c in paired(log_strata(rng, 1, 20, k), conductors(k, self.PHI_MAX))]
        k = count["invariants"]
        specs += [("invariants", c, p) for c, p in paired(conductors(k, self.PHI_MAX), primes(k, 2, 200))]
        specs += [("pgl2_exact", c) for c in conductors(count["pgl2_exact"], self.PGL2_PHI_MAX)]
        specs += [("pgl2_degree", d, rng.choice(oracles.TRISTATE), rng.choice(oracles.TRISTATE))
                  for d in log_strata(rng, 1, self.PGL2_PHI_MAX, count["pgl2_degree"])]
        specs += [("gl2", d) for d in log_strata(rng, 1, self.PGL2_PHI_MAX, count["gl2"])]
        specs += [("invphi_max", b) for b in log_strata(rng, 1, 30, count["invphi_max"])]
        specs += [("invphi_all", b) for b in log_strata(rng, 1, 30, count["invphi_all"])]
        k = count["max_schur"]
        specs += [("max_schur", p, n, d, rng.randint(1, 3))
                  for p, (n, d) in zip(primes(k, 3, 50),
                                       paired(log_strata(rng, 1, 24, k), log_strata(rng, 1, 120, k)))]
        rng.shuffle(specs)
        return specs

    def bind(self, state: dict, tables: NumberTables) -> list[Op]:
        G = state["G"]
        return [self._op(G, tables, spec) for spec in state["specs"]]

    @staticmethod
    def _op(G, tables: NumberTables, spec: tuple) -> Op:
        kind, args = spec[0], spec[1:]

        def field(conductor):
            return G.ExactCyclotomic(G.canonical_conductor(conductor))

        if kind == "minkowski":
            (n,) = args
            return Op(kind, spec, lambda: G.minkowski_bound(n),
                      _expect_value(oracles.minkowski(tables, n)), _factors)
        if kind == "rough":
            n, d = args
            return Op(kind, spec, lambda: G.rough_bound(n, d),
                      _expect_value(oracles.rough(tables, n, d)), _factors)
        if kind == "table":
            n, d_max = args
            want = [(d, oracles.rough(tables, n, d)) for d in range(1, d_max + 1)]

            def check_table(result, exc):
                if exc is not None:
                    return "raised %r" % exc
                if [d for d, _ in result] != [d for d, _ in want]:
                    return "table rows cover the wrong degrees"
                for (d, value), (_, expect) in zip(result, want):
                    problem = compare_map(value.factors, expect)
                    if problem:
                        return "row d=%d: %s" % (d, problem)
                return None
            return Op(kind, spec, lambda: G.table(n, d_max), check_table,
                      lambda r: tuple((d, v.factors) for d, v in r))
        if kind == "schur":
            n, c = args
            k = field(c)
            return Op(kind, spec, lambda: G.schur_bound(n, k),
                      _expect_value(oracles.schur(tables, n, c)), _factors)
        if kind == "serre":
            n, c = args
            k = field(c)
            return Op(kind, spec, lambda: G.serre_bound(n, k),
                      _expect_value(oracles.serre(tables, n, c)), _factors)
        if kind == "invariants":
            c, p = args
            k = field(c)
            t, m, e, xi4 = oracles.invariants(tables, c, p)

            def check_invariants(result, exc):
                if exc is not None:
                    return "raised %r" % exc
                got = (result.p, result.t_p, result.m_p, result.e_p, result.xi4_in_k)
                if got != (p, t, m, e, xi4):
                    return "invariants %r, expected %r" % (got, (p, t, m, e, xi4))
                if p != 2 and p ** (m - 1) * (p - 1) * e != tables.phi(c) * t:
                    return "p^(m-1)(p-1)e = d t fails"
                return None
            return Op(kind, spec, lambda: G.all_invariants(k, p), check_invariants,
                      lambda r: (r.p, r.t_p, r.m_p, r.e_p, r.xi4_in_k))
        if kind in ("pgl2_exact", "pgl2_degree"):
            if kind == "pgl2_exact":
                (c,) = args
                k = field(c)
                want = oracles.pgl2(tables, tables.phi(c), c, *oracles.flags_of_conductor(c))
            else:
                d, minus1, sqrt5 = args
                k = G.DegreeOnly(d, minus1_sum_of_two_squares=minus1, contains_sqrt5=sqrt5)
                want = oracles.pgl2(tables, d, None, minus1, sqrt5)

            def check_pgl2(result, exc):
                if exc is not None:
                    return "raised %r" % exc
                fams = [(f.kind, f.m) for f in result[0]]
                if fams != want[0]:
                    return "families %r, expected %r" % (fams, want[0])
                got = as_int(result[1].factors)
                return None if got == want[1] else "max %d, expected %d" % (got, want[1])
            return Op(kind, spec, lambda: G.pgl2_admissible(k), check_pgl2,
                      lambda r: (tuple((f.kind, f.m) for f in r[0]), r[1].factors))
        if kind == "gl2":
            (d,) = args
            return Op(kind, spec, lambda: G.gl2_max_order(d),
                      _expect_value(oracles.factor(oracles.gl2(tables, d))), _factors)
        if kind == "invphi_max":
            (b,) = args
            return Op(kind, spec, lambda: G.invphi_max(b),
                      _expect_equal(max(tables.invphi_all(b))), _same)
        if kind == "invphi_all":
            (b,) = args
            return Op(kind, spec, lambda: G.invphi_all(b),
                      _expect_equal(tables.invphi_all(b)), tuple)
        p, n, d, e_min = args
        cons = G.SolutionConstraints(e_min=e_min)
        return Op(kind, spec, lambda: G.max_schur_exponent(p, n, d, cons),
                  _expect_equal(oracles.max_schur_exponent(p, n, d, e_min)), _same)


# ----------------------------------------------------------------- cli-cold

def golden_cases(root: Path) -> dict[str, list[str]]:
    """CASES from tests/regen_golden.py, read without importing the module."""
    tree = ast.parse((root / "tests" / "regen_golden.py").read_text("utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "CASES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise RuntimeError("tests/regen_golden.py defines no CASES")


def child_env(root: Path) -> dict[str, str]:
    """Environment for `python -m glbounds` children.  Byte-code caching is
    on whatever the caller's environment says, as for an installed package."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(root / "src")
    env["NO_COLOR"] = "1"
    return env


def _cli_kind(argv) -> str:
    return "-".join(argv[:2]) if argv[0] == "ledger" else argv[0]


def _expect_output(name: str, want):
    def check(result, exc):
        if exc is not None:
            return "raised %r" % exc
        code, out = result
        if code != 0:
            return "exit code %d" % code
        return None if out == want else "stdout differs from tests/golden/%s" % name
    return check


class CliCold:
    """One `python -m glbounds` child per golden command."""

    name = "cli-cold"
    in_process = False

    # The traced run replays the commands through cli.main in process.
    expected_sites = (
        ("cli.main", PACKAGE + ".cli"),
        ("bounds.minkowski_bound", PACKAGE + ".cli"),
        ("totient.invphi_max", PACKAGE + ".cli"),
        ("ledger.verify_ledger", PACKAGE + ".ledger"),
        ("exactnum.fi_mul", PACKAGE + ".ledger"),
        ("totient.invphi_all", PACKAGE + ".bounds"),
        ("exactnum.is_prime", PACKAGE + ".exactnum"),
    )

    @staticmethod
    def commands(root: Path, seed: int | None = None) -> dict:
        """Golden outputs and (file name, argv) pairs, shuffled by the seed."""
        cases = golden_cases(root)
        specs = [(name, tuple(argv)) for name, argv in sorted(cases.items())]
        if seed is not None:
            random.Random("cli-cold:%d" % seed).shuffle(specs)
        golden = {name: (root / "tests" / "golden" / name).read_bytes() for name in cases}
        return {"golden": golden, "specs": specs}

    def setup(self, root: Path, seed: int) -> dict:
        state = self.commands(root, seed)
        state["root"], state["env"] = root, child_env(root)
        # Warm-up child: byte-compiles the package so no timed child does.
        subprocess.run([sys.executable, "-m", PACKAGE, "minkowski", "-n", "1"], cwd=root,
                       env=state["env"], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       check=True)
        return state

    def bind(self, state: dict, tables: NumberTables) -> list[Op]:
        root, env, golden = state["root"], state["env"], state["golden"]

        def make(name, argv):
            cmd = [sys.executable, "-m", PACKAGE, *argv]

            def run_child():
                done = subprocess.run(cmd, cwd=root, env=env, capture_output=True)
                return done.returncode, done.stdout
            return Op(_cli_kind(argv), ("cli",) + argv, run_child,
                      _expect_output(name, golden[name]), _same)
        return [make(name, argv) for name, argv in state["specs"]]

    def bind_in_process(self, state: dict, cli) -> list[Op]:
        """The same commands through cli.main in this process, for tracing."""
        def make(name, argv):
            def run_main():
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(list(argv))
                return code, buf.getvalue()
            return Op(_cli_kind(argv), ("main",) + argv, run_main,
                      _expect_output(name, state["golden"][name].decode("utf-8")), _same)
        return [make(name, argv) for name, argv in state["specs"]]


WORKLOADS = {w.name: w for w in (LedgerAudit(), BoundScan(), CliCold())}
