"""Command line front end.

Each bound is a subcommand; `ledger` groups the composition-DAG tools.
Values print as plain decimals in text mode, or as
{"factored": {...}, "decimal": "..."} with --format json.  Ledger values
additionally show the power product, since declared node values are stored
factored and that is the form worth eyeballing.

Each command builds its whole output as one text, which main writes to
stdout at once, so a command that fails writes nothing there.  Every value
becomes text through exactnum's fi_to_decimal, which refuses one of more
than 10^6 digits with a DomainError before rendering it; that covers every
value any subcommand prints, ledger values and declared values too.
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


# ------------------------------------------------------------ small helpers

def _int(text: str, what: str, not_int: str) -> int:
    """int(text, 10), else an ArgumentTypeError: not_int % text, or, for a
    decimal that int() refuses past the interpreter's int_max_str_digits,
    what named by its digit count rather than quoted.  A limit of 0 sets
    none, as does Python before 3.10.7, where getattr's default int() gives 0."""
    try:
        return int(text, 10)
    except ValueError:
        digits = text.strip().lstrip("+-").replace("_", "")
        if digits.isdecimal() and 0 < getattr(sys, "get_int_max_str_digits", int)() < len(digits):
            raise argparse.ArgumentTypeError("%s of %d digits is too long" % (what, len(digits)))
        raise argparse.ArgumentTypeError(not_int % (text,))


def _positive_int(text: str) -> int:
    value = _int(text, "an integer", "%r is not an integer")
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
    value = _int(raw, "override value", "override value must be an integer, got %r")
    if value < 0:
        raise argparse.ArgumentTypeError("override value must be >= 0, got %s" % value)
    return nid, value


def _render(value: FactoredInteger, form: str = "plain"):
    """value as the CLI prints it: its "plain" or "grouped" decimal, its
    "factored" power product = grouped decimal, or its "json" object
    {"factored": {...}, "decimal": "..."}."""
    if form == "json":
        return {"factored": {str(p): e for p, e in value.factors}, "decimal": str(value)}
    if form == "plain":
        return str(value)
    grouped = fi_to_decimal(value, group=True)
    return grouped if form == "grouped" else "%s = %s" % (fi_to_factored_str(value), grouped)


def _json(obj) -> str:
    return json.dumps(obj, ensure_ascii=False) + "\n"


def _value_text(value: FactoredInteger, fmt: str, form: str = "plain") -> str:
    """One value's output: its JSON object with --format json, else form."""
    return _json(_render(value, "json")) if fmt == "json" else _render(value, form) + "\n"


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

def _cmd_minkowski(ns) -> str:
    return _value_text(minkowski_bound(ns.n), ns.format)


def _cmd_schur(ns) -> str:
    return _value_text(schur_bound(ns.n, _field(ns.conductor)), ns.format)


def _cmd_serre(ns) -> str:
    return _value_text(serre_bound(ns.n, _field(ns.conductor)), ns.format)


def _cmd_rough(ns) -> str:
    return _value_text(rough_bound(ns.n, ns.d), ns.format)


def _cmd_table(ns) -> str:
    rows = table(ns.n, ns.dmax)
    if ns.format == "json":
        return _json({"n": ns.n, "rows": [{"d": d, **_render(value, "json")} for d, value in rows]})
    return "".join("%d\t%s\t%s\n" % (d, fi_to_factored_str(value), _render(value, "grouped"))
                   for d, value in rows)


def _cmd_invariants(ns) -> str:
    field = _field(ns.conductor)
    inv = all_invariants(field, ns.prime)
    return _json({
        "p": inv.p,
        "t": inv.t_p,
        "m": inv.m_p,
        "e": inv.e_p,
        "xi4": inv.xi4_in_k,
        "degree": field.degree,
    })


def _cmd_invphi(ns) -> str:
    if not (ns.format == "json" or ns.all):
        return "%d\n" % invphi_max(ns.bound)
    found = invphi_all(ns.bound)  # ascending, so its maximum is the last
    if ns.format == "json":
        return _json({"bound": ns.bound, "max": found[-1], "all": found})
    return "".join("%d\n" % n for n in found)


def _cmd_solve_eq(ns) -> str:
    cons = SolutionConstraints(e_min=ns.emin, t_max=ns.tmax, extra=ns.constraint or ())
    rows = solve_standard_equation(ns.p, ns.d, cons)
    return _json([{"m": s.m, "e": s.e, "t": s.t} for s in rows])


def _cmd_pgl2(ns) -> str:
    field = DegreeOnly(
        degree=ns.d,
        minus1_sum_of_two_squares=ns.minus1_sum_of_two_squares,
        contains_sqrt5=ns.contains_sqrt5,
    )
    families, top = pgl2_admissible(field)
    if ns.format == "json":
        return _json({
            "families": [
                {"label": f.label, "kind": f.kind, "m": f.m, "order": f.order}
                for f in families
            ],
            "max": _render(top, "json"),
        })
    return "".join("%s order %d\n" % (f.label, f.order) for f in families) + (
        "max %s\n" % _render(top))


def _cmd_ledger_verify(ns) -> tuple[str, int]:
    ledger = _load(ns)
    report = ledger_mod.verify_ledger(ledger)
    whitelisted = set(ledger.whitelist)
    status = EXIT_MISMATCH if report.unexpected(ledger.whitelist) else EXIT_OK
    if ns.format == "json":
        return _json({
            "ok": status == EXIT_OK,
            "rows": [
                {
                    "id": row.id,
                    "status": row.status,
                    "declared": _render(row.declared),
                    "computed": _render(row.computed),
                    "whitelisted": row.id in whitelisted,
                    "annotation": row.annotation,
                }
                for row in report.rows
            ],
        }), status
    colored = _use_color(sys.stdout)
    counts = {"Match": 0, "Mismatch": 0, "Unchecked": 0}
    lines = []
    for row in report.rows:
        counts[row.status] += 1
        tail = _render(row.declared, "grouped")
        if row.status == "Mismatch":
            tail = "declared %s, computed %s" % (tail, _render(row.computed, "grouped"))
            if row.id in whitelisted:
                tail += " (whitelisted)"
        if row.annotation:
            tail += "  [%s]" % row.annotation
        lines.append("%-9s  %-28s %s\n" % (_paint(row.status, colored), row.id, tail))
    lines.append(
        "%d nodes: %d match, %d unchecked, %d mismatch (%d whitelisted)\n"
        % (
            len(report.rows),
            counts["Match"],
            counts["Unchecked"],
            counts["Mismatch"],
            sum(1 for row in report.mismatches() if row.id in whitelisted),
        )
    )
    return "".join(lines), status


def _cmd_ledger_eval(ns) -> str:
    ledger = _load(ns)
    return _value_text(ledger_mod.eval_node(ledger, ns.id), ns.format, "factored")


def _cmd_ledger_explain(ns) -> str:
    return ledger_mod.explain(_load(ns), ns.id) + "\n"


def _cmd_ledger_final(ns) -> str:
    ledger = _load(ns)
    overrides = dict(ns.override or ())
    return _value_text(ledger_mod.final_bound(ledger, overrides), ns.format, "factored")


def _cmd_ledger_export(ns) -> str:
    ledger = _load(ns)
    # UTF-8 bytes to a file or to stdout's buffer, whatever the stream's
    # encoding, so that a redirected export loads back; main writes only the
    # text a stream without a buffer takes.
    data = ledger_mod.dumps_ledger(ledger).encode("utf-8")
    if ns.output:
        with open(ns.output, "wb") as handle:
            handle.write(data)
    elif hasattr(sys.stdout, "buffer"):
        sys.stdout.flush()
        sys.stdout.buffer.write(data)
    else:  # a stream of text only, such as io.StringIO
        return data.decode("utf-8")
    return ""


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
        # Each command returns its whole output, and ledger verify its exit
        # status too, so an error leaves stdout empty.
        out = ns.func(ns)
        text, status = out if isinstance(out, tuple) else (out, EXIT_OK)
        sys.stdout.write(text)
        return status
    except UnicodeEncodeError as exc:  # text the output stream cannot encode
        print("error: cannot write the output: %s" % exc, file=sys.stderr)
        return EXIT_DOMAIN
    except (DomainError, ledger_mod.LedgerError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
