"""Command line front end.

Each bound is a subcommand; `ledger` groups the composition-DAG tools.
Values print as plain decimals in text mode, or as
{"factored": {...}, "decimal": "..."} with --format json.  Ledger values
additionally show the power product, since declared node values are stored
factored and that is the form worth eyeballing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import ledger as ledger_mod
from .bounds import (
    minkowski_bound,
    pgl2_admissible,
    rough_bound,
    schur_bound,
    serre_bound,
    table,
)
from .cyclotomic import (
    TRISTATE,
    DegreeOnly,
    ExactCyclotomic,
    all_invariants,
    canonical_conductor,
)
from .diophantine import T_MAX_LIMIT, SolutionConstraints, solve_standard_equation
from .exactnum import (
    _TRIAL_LIMIT,
    DomainError,
    FactoredInteger,
    fi_to_decimal,
    fi_to_factored_str,
)
from .totient import invphi_all, invphi_max

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_MISMATCH = 3

# Most decimal digits a bound subcommand prints for one value.  Rendering
# grows with the square of the digits: minkowski -n 100000 prints 509 886 in
# seconds, while minkowski -n 1000000, 6 098 582 digits, runs for minutes.
_MAX_DIGITS = 10**6


# ------------------------------------------------------------ small helpers

def _positive_int(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError("%r is not an integer" % text)
    if value < 1:
        raise argparse.ArgumentTypeError("expected a positive integer, got %s" % text)
    return value


def _below_1e8(text: str) -> int:
    """A positive integer below 10^8, where primality and factoring of
    conductors and primes stay cheap."""
    value = _positive_int(text)
    if value >= _TRIAL_LIMIT:
        raise argparse.ArgumentTypeError("expected an integer below 10^8, got %s" % text)
    return value


def _override_pair(text: str) -> tuple[str, int]:
    nid, sep, raw = text.partition("=")
    if not sep or not nid:
        raise argparse.ArgumentTypeError("override must look like ID=VALUE, got %r" % text)
    try:
        value = int(raw, 10)
    except ValueError:
        raise argparse.ArgumentTypeError("override value must be an integer, got %r" % raw)
    if value < 0:
        raise argparse.ArgumentTypeError("override value must be >= 0, got %s" % value)
    return nid, value


def _check_digits(value: FactoredInteger) -> None:
    """Refuse a value that may have more than _MAX_DIGITS digits, judged from
    its prime powers before they are multiplied out.  value < 2^bits, bits
    the sum of their bit lengths, so it has at most bits * log10(2) digits,
    rounded up, and 30103/100000 > log10(2)."""
    bits = sum([(p**e).bit_length() for p, e in value.factors])
    if bits * 30103 > _MAX_DIGITS * 100000:
        raise DomainError("the value has up to %d digits; at most %d are printed"
                          % (-(-bits * 30103 // 100000), _MAX_DIGITS))


def _fi_json(value: FactoredInteger) -> dict:
    return {
        "factored": {str(p): e for p, e in value.factors},
        "decimal": str(value),
    }


def _print_json(obj) -> None:
    print(json.dumps(obj, ensure_ascii=False))


def _emit_plain(value: FactoredInteger, fmt: str) -> int:
    _check_digits(value)
    if fmt == "json":
        _print_json(_fi_json(value))
    else:
        print(str(value))
    return EXIT_OK


def _emit_factored(value: FactoredInteger, fmt: str) -> int:
    if fmt == "json":
        _print_json(_fi_json(value))
    else:
        print("%s = %s" % (fi_to_factored_str(value), fi_to_decimal(value, group=True)))
    return EXIT_OK


def _use_color(stream) -> bool:
    return getattr(stream, "isatty", lambda: False)() and "NO_COLOR" not in os.environ


_STATUS_COLOR = {"Match": "\x1b[32m", "Mismatch": "\x1b[31m", "Unchecked": "\x1b[2m"}


def _paint(status: str, colored: bool) -> str:
    if not colored:
        return status
    return "%s%s\x1b[0m" % (_STATUS_COLOR.get(status, ""), status)


def _field(conductor: int) -> ExactCyclotomic:
    return ExactCyclotomic(canonical_conductor(conductor))


def _load(ns) -> ledger_mod.Ledger:
    if ns.file:
        # A Path, since load_ledger reads a str as JSON text; pathlib loads
        # only when a file is named.
        from pathlib import Path

        return ledger_mod.load_ledger(Path(ns.file))
    return ledger_mod.paper_ledger()


# --------------------------------------------------------------- subcommands

def _cmd_minkowski(ns) -> int:
    return _emit_plain(minkowski_bound(ns.n), ns.format)


def _cmd_schur(ns) -> int:
    return _emit_plain(schur_bound(ns.n, _field(ns.conductor)), ns.format)


def _cmd_serre(ns) -> int:
    return _emit_plain(serre_bound(ns.n, _field(ns.conductor)), ns.format)


def _cmd_rough(ns) -> int:
    return _emit_plain(rough_bound(ns.n, ns.d), ns.format)


def _cmd_table(ns) -> int:
    rows = table(ns.n, ns.dmax)
    for _, value in rows:
        _check_digits(value)
    if ns.format == "json":
        _print_json({
            "n": ns.n,
            "rows": [
                {"d": d, **_fi_json(value)}
                for d, value in rows
            ],
        })
        return EXIT_OK
    for d, value in rows:
        print("%d\t%s\t%s" % (d, fi_to_factored_str(value), fi_to_decimal(value, group=True)))
    return EXIT_OK


def _cmd_invariants(ns) -> int:
    field = _field(ns.conductor)
    inv = all_invariants(field, ns.prime)
    _print_json({
        "p": inv.p,
        "t": inv.t_p,
        "m": inv.m_p,
        "e": inv.e_p,
        "xi4": inv.xi4_in_k,
        "degree": field.degree,
    })
    return EXIT_OK


def _cmd_invphi(ns) -> int:
    if not (ns.format == "json" or ns.all):
        print(invphi_max(ns.bound))
        return EXIT_OK
    found = invphi_all(ns.bound)  # ascending, so its maximum is the last
    if ns.format == "json":
        _print_json({"bound": ns.bound, "max": found[-1], "all": found})
    else:  # one write: with unbuffered output, a print per row is a system call per row
        print("\n".join(map(str, found)))
    return EXIT_OK


def _cmd_solve_eq(ns) -> int:
    cons = SolutionConstraints(
        e_min=ns.emin,
        t_max=ns.tmax,
        extra=tuple(ns.constraint or ()),
    )
    rows = solve_standard_equation(ns.p, ns.d, cons)
    _print_json([{"m": s.m, "e": s.e, "t": s.t} for s in rows])
    return EXIT_OK


def _cmd_pgl2(ns) -> int:
    field = DegreeOnly(
        degree=ns.d,
        minus1_sum_of_two_squares=ns.minus1_sum_of_two_squares,
        contains_sqrt5=ns.contains_sqrt5,
    )
    families, top = pgl2_admissible(field)
    if ns.format == "json":
        _print_json({
            "families": [
                {"label": f.label, "kind": f.kind, "m": f.m, "order": f.order}
                for f in families
            ],
            "max": _fi_json(top),
        })
        return EXIT_OK
    for f in families:
        print("%s order %d" % (f.label, f.order))
    print("max %s" % str(top))
    return EXIT_OK


def _cmd_ledger_verify(ns) -> int:
    ledger = _load(ns)
    report = ledger_mod.verify_ledger(ledger)
    whitelisted = set(ledger.whitelist)
    unexpected = report.unexpected(ledger.whitelist)
    if ns.format == "json":
        _print_json({
            "ok": not unexpected,
            "rows": [
                {
                    "id": row.id,
                    "status": row.status,
                    "declared": str(row.declared),
                    "computed": str(row.computed),
                    "whitelisted": row.id in whitelisted,
                    "annotation": row.annotation,
                }
                for row in report.rows
            ],
        })
        return EXIT_MISMATCH if unexpected else EXIT_OK
    colored = _use_color(sys.stdout)
    counts = {"Match": 0, "Mismatch": 0, "Unchecked": 0}
    for row in report.rows:
        counts[row.status] += 1
        if row.status == "Mismatch":
            tail = "declared %s, computed %s" % (
                fi_to_decimal(row.declared, group=True),
                fi_to_decimal(row.computed, group=True),
            )
            if row.id in whitelisted:
                tail += " (whitelisted)"
        else:
            tail = fi_to_decimal(row.declared, group=True)
        if row.annotation:
            tail += "  [%s]" % row.annotation
        print("%-9s  %-28s %s" % (_paint(row.status, colored), row.id, tail))
    print(
        "%d nodes: %d match, %d unchecked, %d mismatch (%d whitelisted)"
        % (
            len(report.rows),
            counts["Match"],
            counts["Unchecked"],
            counts["Mismatch"],
            sum(1 for row in report.mismatches() if row.id in whitelisted),
        )
    )
    return EXIT_MISMATCH if unexpected else EXIT_OK


def _cmd_ledger_eval(ns) -> int:
    ledger = _load(ns)
    return _emit_factored(ledger_mod.eval_node(ledger, ns.id), ns.format)


def _cmd_ledger_explain(ns) -> int:
    ledger = _load(ns)
    print(ledger_mod.explain(ledger, ns.id))
    return EXIT_OK


def _cmd_ledger_final(ns) -> int:
    ledger = _load(ns)
    overrides = dict(ns.override or ())
    return _emit_factored(ledger_mod.final_bound(ledger, overrides), ns.format)


def _cmd_ledger_export(ns) -> int:
    ledger = _load(ns)
    # UTF-8 bytes to a file or to stdout, whatever the stream's encoding, so
    # that a redirected export loads back.
    data = ledger_mod.dumps_ledger(ledger).encode("utf-8")
    if ns.output:
        with open(ns.output, "wb") as handle:
            handle.write(data)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
    else:  # a stream of text only, such as io.StringIO
        sys.stdout.write(data.decode("utf-8"))
    return EXIT_OK


# -------------------------------------------------------------------- parser

def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glbounds",
        description="Exact bounds for finite subgroups of GL_n and PGL_n over number fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("minkowski", help="bound for GL_n(Q)")
    p.add_argument("-n", type=_positive_int, required=True, help="matrix size")
    _add_format(p)
    p.set_defaults(func=_cmd_minkowski)

    p = sub.add_parser("schur", help="bound for GL_n over a cyclotomic field")
    p.add_argument("-n", type=_positive_int, required=True, help="matrix size")
    p.add_argument("--conductor", type=_below_1e8, default=1,
                   help="cyclotomic conductor of the field (default 1 = Q)")
    _add_format(p)
    p.set_defaults(func=_cmd_schur)

    p = sub.add_parser("serre", help="bound for PGL_n over a cyclotomic field")
    p.add_argument("-n", type=_positive_int, required=True, help="matrix size")
    p.add_argument("--conductor", type=_below_1e8, default=1,
                   help="cyclotomic conductor of the field (default 1 = Q)")
    _add_format(p)
    p.set_defaults(func=_cmd_serre)

    p = sub.add_parser("rough", help="degree-only bound for GL_n over degree-d fields")
    p.add_argument("-n", type=_positive_int, required=True, help="matrix size")
    p.add_argument("-d", type=_positive_int, required=True, help="field degree")
    _add_format(p)
    p.set_defaults(func=_cmd_rough)

    p = sub.add_parser("table", help="rough-bound table rows d = 1 .. dmax")
    p.add_argument("-n", type=_positive_int, required=True, help="matrix size")
    p.add_argument("--dmax", type=_positive_int, required=True, help="largest degree")
    _add_format(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("invariants", help="cyclotomic invariants at a prime (JSON)")
    p.add_argument("--conductor", type=_below_1e8, required=True)
    p.add_argument("--prime", type=_below_1e8, required=True)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("invphi", help="largest n with phi(n) <= bound")
    p.add_argument("-b", "--bound", type=_positive_int, required=True)
    p.add_argument("--all", action="store_true", help="list every such n")
    _add_format(p)
    p.set_defaults(func=_cmd_invphi)

    p = sub.add_parser(
        "solve-eq",
        help="solutions (m, e, t) of p^(m-1)(p-1)e = d*t as JSON rows",
    )
    p.add_argument("-p", type=_below_1e8, required=True, help="prime below 10^8")
    p.add_argument("-d", type=_positive_int, required=True, help="field degree")
    p.add_argument("--tmax", type=_positive_int, default=15,
                   help="upper bound for t, at most %d (default 15; when "
                        "bounding subgroups of GL_n only t <= n matters)" % T_MAX_LIMIT)
    p.add_argument("--emin", type=_positive_int, default=1,
                   help="lower bound for e (default 1)")
    p.add_argument("--constraint", action="append", metavar="TAG",
                   help='extra side condition, e.g. "e = 2" or "t >= 3"; repeatable')
    p.set_defaults(func=_cmd_solve_eq)

    p = sub.add_parser("pgl2", help="admissible finite subgroup families of PGL_2")
    p.add_argument("-d", type=_positive_int, required=True, help="field degree")
    p.add_argument("--minus1-sum-of-two-squares", choices=TRISTATE, default="unknown",
                   help="whether -1 is a sum of two squares in the field")
    p.add_argument("--contains-sqrt5", choices=TRISTATE, default="unknown",
                   help="whether the field contains sqrt(5)")
    _add_format(p)
    p.set_defaults(func=_cmd_pgl2)

    p = sub.add_parser("ledger", help="bound-composition DAG tools")
    lsub = p.add_subparsers(dest="ledger_command", required=True)

    q = lsub.add_parser("verify", help="recompute every node and compare")
    q.add_argument("--file", help="ledger JSON path (default: the packaged one)")
    _add_format(q)
    q.set_defaults(func=_cmd_ledger_verify)

    q = lsub.add_parser("eval", help="evaluate one node")
    q.add_argument("id", help="node id")
    q.add_argument("--file", help="ledger JSON path (default: the packaged one)")
    _add_format(q)
    q.set_defaults(func=_cmd_ledger_eval)

    q = lsub.add_parser("explain", help="render the subtree below a node")
    q.add_argument("id", help="node id")
    q.add_argument("--file", help="ledger JSON path (default: the packaged one)")
    q.set_defaults(func=_cmd_ledger_explain)

    q = lsub.add_parser("final", help="evaluate the root")
    q.add_argument("--override", type=_override_pair, action="append", metavar="ID=VALUE",
                   help="replace a node's value, whose prime factors must be below "
                        "10^8; 0 removes the branch (empty product)")
    q.add_argument("--file", help="ledger JSON path (default: the packaged one)")
    _add_format(q)
    q.set_defaults(func=_cmd_ledger_final)

    q = lsub.add_parser("export", help="write the ledger JSON back out")
    q.add_argument("-o", "--output", help="destination path (default: stdout)")
    q.add_argument("--file", help="ledger JSON path (default: the packaged one)")
    q.set_defaults(func=_cmd_ledger_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return ns.func(ns)
    except UnicodeEncodeError as exc:  # text the output stream cannot encode
        print("error: cannot write the output: %s" % exc, file=sys.stderr)
        return EXIT_DOMAIN
    except (DomainError, ledger_mod.LedgerError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
