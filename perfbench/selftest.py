"""Self-test: a deliberately wrong answer must be counted as a failure.

    python3 perfbench/selftest.py

For each workload one round runs clean (no failures allowed), then a wrong
answer is planted and the round runs twice more: once judged by the same
Verdicts (the repeat of a checked query must match it) and once by fresh
Verdicts (the oracle itself must reject it).  Exits 0 when every planted
answer is caught, 1 otherwise.
"""

from __future__ import annotations

import sys

import run
from oracles import NumberTables
from workloads import WORKLOADS


def plant_ledger_audit(state, ops):
    G = state["G"]
    real = G.final_bound
    G.final_bound = lambda ledger, overrides=None: G.fi_mul(
        real(ledger, overrides), G.FactoredInteger.from_int(2))


def plant_bound_scan(state, ops):
    G = state["G"]
    real = G.minkowski_bound
    G.minkowski_bound = lambda n: real(n + 1)


def plant_cli_cold(state, ops):
    # The first command prints the output of the second one.
    ops[0].call = ops[1].call


PLANTS = {"ledger-audit": plant_ledger_audit, "bound-scan": plant_bound_scan,
          "cli-cold": plant_cli_cold}


def frac(verdicts: run.Verdicts) -> float:
    return verdicts.failed / verdicts.attempted


def main() -> int:
    run.check_checkout()
    ok = True
    for name, plant in PLANTS.items():
        workload = WORKLOADS[name]
        state = workload.setup(run.ROOT, 1)
        ops = workload.bind(state, NumberTables())
        seen = run.Verdicts()
        run.run_round(ops, seen)
        clean = frac(seen)
        plant(state, ops)
        run.run_round(ops, seen)
        fresh = run.Verdicts()
        run.run_round(ops, fresh)
        caught = clean == 0 and fresh.failed > 0 and seen.failed == fresh.failed
        ok &= caught
        print("%-13s clean failed_frac %.4f; planted: failed_frac %.4f (oracle), "
              "%d failures on repeat -> %s"
              % (name, clean, frac(fresh), seen.failed, "caught" if caught else "MISSED"))
        for reason in fresh.reasons[:1]:
            print("    e.g. " + reason)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
