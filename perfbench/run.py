"""Benchmark for glbounds: ledger-audit, bound-scan and cli-cold.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ledger-audit --seed 1 --seconds 20 --trace 0

One caller runs one operation at a time (a closed loop), with no threads and
at most one child process alive.  Set-up (import, input generation, ledger
load) is repeated SETUP_REPEATS times and its median reported as setup_s.
Then whole rounds of the workload's operations run until --seconds have
passed and at least MIN_SAMPLES operations are timed.  Every output is
checked against an oracle outside the timed region; a wrong answer or an
exception the oracle did not predict counts as a failed operation.  Every
end-to-end time is scaled to a nominal host speed by a probe taken between
operations and between set-ups (hostspeed.py); raw times stay in the report.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the same rounds alternately plain and under the tracer (tracer.py) and
prints the per-layer metrics.  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Lines before it are a
readable report.  A record of the run is written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import NoReturn

import tracer as tracing
from hostspeed import HostSpeed
from oracles import NumberTables
from workloads import PACKAGE, WORKLOADS, child_env, import_program

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

SETUP_REPEATS = 9
MIN_SAMPLES = 100  # so that at least 10 lie beyond op_p90_ms
HARD_STOP_S = 150.0  # the run must end within 180 s whatever --seconds says
PROBE_REPEATS = 5


def fail(message: str) -> NoReturn:
    print("perfbench: " + message, file=sys.stderr)
    raise SystemExit(1)


def check_checkout() -> dict:
    """The benchmark needs the program's sources and golden files."""
    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / PACKAGE / "__init__.py",
              ROOT / "tests" / "regen_golden.py", ROOT / "tests" / "golden"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        fail("not a glbounds checkout, missing: %s" % ", ".join(missing))
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


# ------------------------------------------------------------------- running

def run_round(ops, verdicts, tracer=None, speed=None) -> list[float]:
    """Run each op once and judge it outside the timed region; returns the
    seconds of each op, which also go to `speed` if given.  Results are
    dropped once judged, so the benchmark's own garbage does not grow the
    heap the program's collector walks."""
    times = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(i, op.kind)
        start = perf_counter()
        try:
            result, exc = op.call(), None
        except Exception as caught:  # judged by the oracle, which may predict it
            result, exc = None, caught
        times.append(tracer.end_op() if tracer is not None else perf_counter() - start)
        verdicts.judge(op, result, exc)
        if speed is not None:
            speed.add(times[-1])
    return times


class Verdicts:
    """Checks each distinct query once; a repeat must match the checked output."""

    def __init__(self):
        self.seen: dict[tuple, tuple] = {}
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def judge(self, op, result, exc) -> None:
        self.attempted += 1
        try:
            digest = (("raise", type(exc).__name__, str(exc)) if exc is not None
                      else ("ok", op.digest(result)))
        except Exception as caught:  # a malformed result is a wrong answer
            digest = ("malformed", repr(caught))
        known = self.seen.get(op.key)
        if known is None:
            try:
                problem = op.check(result, exc)
            except Exception as caught:
                problem = "output could not be checked: %r" % caught
            known = self.seen[op.key] = (digest, problem)
        problem = known[1]
        if problem is None and known[0] != digest:
            problem = "repeat of a checked query gave a different output"
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append("%s %r: %s" % (op.kind, op.key, problem))


def timed_loop(ops, seconds: float, deadline: float):
    """Whole rounds until `seconds` have passed and MIN_SAMPLES ops are timed.

    Op times are scaled to nominal host speed (hostspeed.py); the HostSpeed
    holding the raw times and probes is returned too."""
    verdicts = Verdicts()
    speed = HostSpeed()
    start = perf_counter()
    while True:
        run_round(ops, verdicts, speed=speed)
        now = perf_counter()
        if (now - start >= seconds and len(speed.raw) >= MIN_SAMPLES) or now >= deadline:
            break
    durations = speed.scaled()
    by_kind: defaultdict = defaultdict(list)
    for i, secs in enumerate(durations):
        by_kind[ops[i % len(ops)].kind].append(secs)
    return durations, by_kind, round_sums(durations, len(ops)), verdicts, speed


def round_sums(times: list[float], per_round: int) -> list[float]:
    return [sum(times[i:i + per_round]) for i in range(0, len(times), per_round)]


# --------------------------------------------------------------- set-up

def setup_repeated(workload, seed: int):
    """Set up SETUP_REPEATS times; each time scaled to nominal host speed."""
    state = None
    speed = HostSpeed()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        state = workload.setup(ROOT, seed)
        speed.add(perf_counter() - start, force=True)
    return state, speed.scaled()


# ------------------------------------------------------------------ metrics

def peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def end_to_end(workload, durations, by_kind, round_times, setup_times, verdicts, speed):
    # Throughput is taken per round and the median reported: a median round
    # ignores a slow spell that the host-speed probe did not catch.
    per_round = len(durations) // len(round_times)
    metrics = {
        "ops_per_s": statistics.median(per_round / t for t in round_times),
        "op_p50_ms": statistics.median(durations) * 1e3,
        "op_p90_ms": statistics.quantiles(durations, n=10)[8] * 1e3,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mib": peak_rss_mib(children=not workload.in_process),
    }
    extra = {
        "ops": len(durations),
        "rounds": len(round_times),
        "round_s": [round(t, 5) for t in round_times],
        "raw_ops_per_s": statistics.median(
            per_round / t for t in round_sums(speed.raw, per_round)),
        "raw_op_p50_ms": statistics.median(speed.raw) * 1e3,
        "raw_op_p90_ms": statistics.quantiles(speed.raw, n=10)[8] * 1e3,
        "probe_ms": speed.probe_ms(),
        "failed_frac": verdicts.failed / verdicts.attempted,
        "kind_p50_ms": {k: round(statistics.median(v) * 1e3, 3) for k, v in sorted(by_kind.items())},
    }
    if "audit" in by_kind:
        extra["audit_p50_ms"] = statistics.median(by_kind["audit"]) * 1e3
    return metrics, extra


def loglog_slope(points) -> float:
    """Least-squares slope of log(median seconds) against log(size), sizes >= 4.

    0.0 when fewer than two distinct sizes were seen."""
    by_size: defaultdict = defaultdict(list)
    for size, secs in points:
        if size >= 4:
            by_size[size].append(secs)
    if len(by_size) < 2:
        return 0.0
    xs = [math.log(s) for s in by_size]
    ys = [math.log(statistics.median(v)) for v in by_size.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def count_metrics(tr: tracing.Tracer) -> dict:
    """Per-layer metrics that are counts; they repeat exactly for a seed."""
    calls = {name: tr.calls(name) for name in (
        "totient.euler_phi", "totient.invphi_all", "totient.invphi_max",
        "exactnum.construct", "exactnum.is_prime", "exactnum.factorize",
        "exactnum.fi_mul", "exactnum.fi_cmp", "exactnum.fi_to_decimal",
        "cyclotomic.all_invariants", "cyclotomic.real_cyclo_member",
        "bounds.minkowski_bound", "bounds.rough_bound", "bounds.schur_bound",
        "bounds.serre_bound", "bounds.pgl2_admissible", "bounds.gl2_max_order",
        "diophantine.max_schur_exponent", "diophantine.solve_standard_equation",
        "ledger.load_ledger", "ledger.final_bound")}
    out = {name + ".calls": n for name, n in calls.items()}
    invphi = ("totient.invphi_all", "totient.invphi_max")
    returned = sum(tr.results[name] for name in invphi)
    out["totient.phi_calls_per_result"] = (
        tr.calls_under("totient.euler_phi", invphi) / returned if returned else 0.0)
    finals = calls["ledger.final_bound"]
    leaves = sum(tr.edges[("ledger.final_bound", leaf)] for leaf in tracing.LEAF_BOUNDS)
    out["ledger.leaf_calls_per_final"] = leaves / finals if finals else 0.0
    out["ledger.errors"] = tr.errors["ledger"]
    return out


def time_metrics(tr: tracing.Tracer, rounds: int) -> dict:
    """Per-layer seconds, per traced round."""
    out = {}
    for name in ("totient.invphi_all", "totient.invphi_max", "exactnum.fi_mul",
                 "exactnum.fi_cmp", "exactnum.fi_to_decimal",
                 "cyclotomic.all_invariants", "cyclotomic.real_cyclo_member",
                 "bounds.minkowski_bound", "bounds.rough_bound", "bounds.schur_bound",
                 "bounds.serre_bound", "bounds.pgl2_admissible", "bounds.gl2_max_order",
                 "diophantine.max_schur_exponent", "ledger.final_bound"):
        out[name + ".self_s"] = tr.self_time[name] / rounds
    for name in ("ledger.load_ledger", "ledger.verify_ledger", "ledger.final_bound",
                 "ledger.explain", "ledger.dumps_ledger"):
        out[name + ".busy_s"] = tr.busy[name] / rounds
    for layer in ("exactnum", "cyclotomic", "bounds", "ledger"):
        out[layer + ".self_s"] = tr.layer_self(layer) / rounds
    out["totient.invphi.slope_B"] = loglog_slope(
        tr.sized_spans("totient.invphi_all") + tr.sized_spans("totient.invphi_max"))
    out["bounds.pgl2_admissible.slope_d"] = loglog_slope(tr.sized_spans("bounds.pgl2_admissible"))
    return out


def share_by_kind(tr: tracing.Tracer, name: str) -> dict:
    """Share of each op kind's time spent in spans of `name` (first traced round)."""
    idx = tr.name_index.get(name)
    op_kind, op_time, inside = {}, defaultdict(float), defaultdict(float)
    for s in tr.spans:
        if tr.names[s[0]].startswith(tracing.OP_LAYER + "."):
            op_kind[s[4]] = tr.names[s[0]].split(".", 1)[1]
            op_time[op_kind[s[4]]] += s[2] - s[1]
    for s in tr.spans:
        if s[0] == idx:
            inside[op_kind[s[4]]] += s[2] - s[1]
    return {k: round(inside[k] / t, 4) for k, t in sorted(op_time.items()) if t > 0}


# -------------------------------------------------------------- cli probes

def median_child_ms(cmd, env) -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL, check=True)
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e3


def cli_probes() -> dict:
    """Bare interpreter start, import of glbounds.cli, and in-process main
    over the golden commands (untraced)."""
    env = child_env(ROOT)
    startup = median_child_ms([sys.executable, "-c", "pass"], env)
    imported = median_child_ms([sys.executable, "-c", "import %s.cli" % PACKAGE], env)
    cli = importlib.import_module(PACKAGE + ".cli")
    mirror = WORKLOADS["cli-cold"].bind_in_process(WORKLOADS["cli-cold"].commands(ROOT), cli)
    verdicts = Verdicts()
    times = run_round(mirror, verdicts)
    if verdicts.failed:
        fail("cli probe: " + "; ".join(verdicts.reasons))
    return {
        "cli.python_startup_ms": startup,
        "cli.import_ms": imported - startup,
        "cli.main_ms": statistics.median(times) * 1e3,
    }


# ------------------------------------------------------------------- traced

def source_hash() -> str:
    """Hash of the program and of the benchmark code, which together fix the counts."""
    digest = hashlib.sha256()
    paths = sorted((ROOT / "src" / PACKAGE).rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in paths + [ROOT / "src" / PACKAGE / "data" / "paper_ledger.json"]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_counts_repeat(name: str, seed: int, counts: dict) -> str:
    """Compare with the last traced run of this workload, seed and source."""
    path = RESULTS / ("counts-%s-seed%d.json" % (name, seed))
    source = source_hash()
    before = json.loads(path.read_text("utf-8")) if path.exists() else {"source": None}
    path.write_text(json.dumps({"source": source, "counts": counts}, indent=1))
    if before["source"] != source:
        return "first traced run for this seed and source: counts saved to %s" % path.name
    changed = sorted(k for k in set(before["counts"]) | set(counts)
                     if before["counts"].get(k) != counts.get(k))
    if changed:
        fail("counts differ from the previous traced run with seed %d: %s"
             % (seed, ", ".join(changed[:10])))
    return "repeat of %s: all %d counts identical" % (path.name, len(counts))


def traced_run(workload, ops, args, deadline):
    tr = tracing.Tracer(NumberTables())
    verdicts = Verdicts()
    plain = traced = 0.0
    rounds = 0
    start = perf_counter()
    counts = None
    while True:
        plain += sum(run_round(ops, verdicts))
        tr.record = counts is None
        tr.install()
        try:
            traced += sum(run_round(ops, verdicts, tr))
        finally:
            tr.uninstall()
        rounds += 1
        if counts is None:
            site_calls = tr.site_calls()
            silent = ["%s at %s" % site for site in workload.expected_sites if not site_calls[site]]
            if silent:
                fail("wrappers that %s should exercise never fired: %s"
                     % (workload.name, ", ".join(silent)))
            counts = count_metrics(tr)
            raw_counts = tr.counts()
        now = perf_counter()
        if now - start >= args.seconds or now >= deadline:
            break

    metrics = dict(counts)
    metrics.update(time_metrics(tr, rounds))
    metrics.update(cli_probes())
    metrics["trace_overhead_frac"] = 1.0 - plain / traced
    op_self = sum(t for name, t in tr.self_time.items() if name.startswith(tracing.OP_LAYER + "."))
    metrics["trace.self_coverage_frac"] = 1.0 - op_self / traced
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / ("trace-%s-seed%d.json" % (workload.name, args.seed))).write_text(
        json.dumps(tr.dump()))
    extra = {
        "rounds": rounds,
        "counts": check_counts_repeat(workload.name, args.seed, raw_counts),
        "invphi_all_share_by_kind": share_by_kind(tr, "totient.invphi_all"),
        "layer_self_s_per_round": {layer: round(tr.layer_self(layer) / rounds, 6)
                                   for layer in tracing.LAYERS + (tracing.OP_LAYER,)},
    }
    return metrics, extra, verdicts


# ------------------------------------------------------------------- report

def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = check_checkout()
    deadline = perf_counter() + HARD_STOP_S
    workload = WORKLOADS[args.workload]
    state, setup_times = setup_repeated(workload, args.seed)
    if not args.trace:
        ops = workload.bind(state, NumberTables())
        durations, by_kind, round_times, verdicts, speed = timed_loop(ops, args.seconds, deadline)
        metrics, extra = end_to_end(workload, durations, by_kind, round_times, setup_times,
                                    verdicts, speed)
    else:
        if not workload.in_process:
            import_program(ROOT)
        # The tracer wraps every layer, cli included.
        cli = importlib.import_module(PACKAGE + ".cli")
        ops = (workload.bind(state, NumberTables()) if workload.in_process
               else workload.bind_in_process(state, cli))
        metrics, extra, verdicts = traced_run(workload, ops, args, deadline)

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        fail("metrics computed %s differ from BENCHMARK.json %s"
             % (sorted(set(metrics) - set(units)), sorted(set(units) - set(metrics))))
    result = {
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    env = environment(args)
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S") + "-%d" % os.getpid()
    (RESULTS / ("run-%s-seed%d-trace%d-%s.json" % (args.workload, args.seed, args.trace, stamp))
     ).write_text(json.dumps({"env": env, "extra": extra, "result": result}, indent=1))

    print("env " + json.dumps(env))
    print("setup_s samples " + " ".join("%.4f" % t for t in setup_times))
    for reason in verdicts.reasons:
        print("FAILED " + reason)
    print("report " + json.dumps(extra))
    for name, unit in units.items():
        print("%-40s %14.6g %s" % (name, metrics[name], unit))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
