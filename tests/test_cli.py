from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glbounds import exactnum
from glbounds.bounds import minkowski_bound, pgl2_admissible, table
from glbounds.cli import _use_color, build_parser, main
from glbounds.exactnum import (
    ONE, DomainError, FactoredInteger, _check_digits, _power_bits, fi_to_decimal,
    fi_to_factored_str,
)
from glbounds.ledger import dumps_ledger, explain, load_ledger, paper_ledger
from glbounds.totient import invphi_all

from conftest import decimal_value, diamond, to_document
from regen_golden import CASES, GOLDEN


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_transcripts(name, capsys, monkeypatch):
    monkeypatch.setenv("NO_COLOR", "1")
    assert main(CASES[name]) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


def test_every_subcommand_has_a_golden():
    covered = {argv[0] for argv in CASES.values()}
    ledger_sub = {argv[1] for argv in CASES.values() if argv[0] == "ledger"}
    assert covered == {"minkowski", "schur", "serre", "rough", "table",
                       "invariants", "invphi", "solve-eq", "pgl2", "ledger"}
    assert {"verify", "eval", "explain", "final"} <= ledger_sub


@pytest.mark.parametrize("name", [n for n in sorted(CASES) if n.endswith("json")])
def test_json_round_trips(name, capsys):
    assert main(CASES[name]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n")
    parsed = json.loads(out)
    assert json.dumps(parsed, ensure_ascii=False) + "\n" == out


def test_no_scientific_notation_anywhere(capsys):
    for argv in CASES.values():
        assert main(argv) == 0
    blob = capsys.readouterr().out
    assert "e+" not in blob and "E+" not in blob


def test_exit_codes(capsys, tmp_path):
    assert main(["minkowski"]) == 2  # -n is required
    assert main(["no-such-command"]) == 2
    assert main(["ledger", "final", "--override", "g10"]) == 2
    assert main(["ledger", "final", "--override", "g10=-3"]) == 2
    assert main(["solve-eq", "-p", "4", "-d", "12"]) == 1
    assert main(["ledger", "eval", "ghost-node"]) == 1
    assert main(["ledger", "verify", "--file", str(tmp_path / "missing.json")]) == 1
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_error_goes_to_stderr(capsys):
    assert main(["ledger", "explain", "ghost"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_unhashable_kind_is_a_clean_error(capsys, tmp_path):
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps({"schema_version": 1, "nodes": [{
        "id": "x", "kind": [], "args": {}, "children": [], "declared": {},
        "decimal": "1", "citation": "crafted"}]}), encoding="utf-8")
    assert main(["ledger", "verify", "--file", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: x: unknown kind []\n"


def test_table_takes_any_positive_n(capsys):
    assert main(["table", "-n", "5", "--dmax", "3"]) == 0
    want = "".join("%d\t%s\t%s\n" % (d, fi_to_factored_str(v), fi_to_decimal(v, group=True))
                   for d, v in table(5, 3))
    assert capsys.readouterr().out == want
    assert main(["table", "-n", "0", "--dmax", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: glbounds table")
    assert captured.err.endswith(
        "error: argument -n: expected a positive integer, got 0\n")


def test_non_ascii_declared_key_is_a_clean_error(capsys, tmp_path):
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps({"schema_version": 1, "nodes": [{
        "id": "x", "kind": "Constant", "args": {}, "children": [],
        "declared": {"\u00b2": 1}, "decimal": "2", "citation": "crafted"}]}),
        encoding="utf-8")
    assert main(["ledger", "verify", "--file", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: x: declared key '\u00b2' is not a prime string\n"


def test_bad_constraint_constant_is_a_clean_error(capsys, tmp_path):
    assert main(["solve-eq", "-p", "7", "-d", "12", "--constraint", "e = x"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: constraint tag 'e = x' needs a plain decimal constant\n"
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps({"schema_version": 1, "nodes": [{
        "id": "e", "kind": "EquationCase", "args": {"p": 7, "n": 3, "d": 12,
                                                   "constraints": ["e = x"]},
        "children": [], "declared": {}, "decimal": "1", "citation": "crafted"}]}),
        encoding="utf-8")
    assert main(["ledger", "verify", "--file", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: e: constraint tag 'e = x' needs a plain decimal constant\n")


def test_verify_exit_three_on_new_mismatch(capsys, tmp_path):
    doc = to_document(paper_ledger())
    for node in doc["nodes"]:
        if node["id"] == "mink-gl3-q":
            node["declared"] = {"2": 4}
            node["decimal"] = "16"
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["ledger", "verify", "--file", str(bad)]) == 3
    assert main(["ledger", "verify", "--file", str(bad), "--format", "json"]) == 3
    out = capsys.readouterr().out
    assert "mink-gl3-q" in out


def test_verify_json_shape(capsys):
    assert main(["ledger", "verify", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    rows = payload["rows"]
    assert len(rows) == 218
    flagged = [r for r in rows if r["status"] == "Mismatch"]
    assert {r["id"] for r in flagged} == {"gq-mfs-typo-note", "lemma-degree-4-input"}
    assert all(r["whitelisted"] for r in flagged)


def test_ledger_export_round_trip(capsys, tmp_path):
    assert main(["ledger", "export"]) == 0
    out = capsys.readouterr().out
    assert out == dumps_ledger(paper_ledger())

    target = tmp_path / "copy.json"
    assert main(["ledger", "export", "-o", str(target)]) == 0
    assert target.read_text(encoding="utf-8") == out
    # the exported file is a fully usable ledger again
    assert main(["ledger", "final", "--file", str(target)]) == 0
    assert capsys.readouterr().out.strip().endswith("24 103 053 950 976 000")
    # a stream of text only takes the same text
    with contextlib.redirect_stdout(io.StringIO()) as text_only:
        assert main(["ledger", "export"]) == 0
    assert text_only.getvalue() == out


def _glbounds(*argv, encoding):
    """python -m glbounds argv, with stdin, stdout and stderr in encoding."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
               PYTHONIOENCODING=encoding)
    return subprocess.run([sys.executable, "-m", "glbounds", *argv], env=env,
                          capture_output=True, timeout=60)


@pytest.fixture
def non_ascii_ledger(tmp_path):
    doc = json.loads(dumps_ledger(paper_ledger()))
    doc["nodes"][0]["citation"] = "lemme \u00e9 \u2264 8"
    path = tmp_path / "u.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    return path


def test_export_to_stdout_is_utf_8_whatever_the_stream_encoding(non_ascii_ledger, tmp_path):
    target = tmp_path / "copy.json"
    assert main(["ledger", "export", "--file", str(non_ascii_ledger), "-o", str(target)]) == 0
    done = _glbounds("ledger", "export", "--file", str(non_ascii_ledger), encoding="ascii")
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout == target.read_bytes()
    assert "lemme \u00e9 \u2264 8" in done.stdout.decode("utf-8")
    redirected = tmp_path / "redirected.json"
    redirected.write_bytes(done.stdout)
    assert dumps_ledger(load_ledger(redirected)).encode("utf-8") == done.stdout


def test_text_the_stream_cannot_encode_is_a_clean_error(non_ascii_ledger):
    nid = json.loads(non_ascii_ledger.read_text(encoding="utf-8"))["nodes"][0]["id"]
    done = _glbounds("ledger", "explain", nid, "--file", str(non_ascii_ledger),
                     encoding="ascii")
    assert done.returncode == 1
    assert done.stdout == b""
    assert done.stderr.decode("ascii") == (
        "error: cannot write the output: 'ascii' codec can't encode character '\\xe9' "
        "in position %d: ordinal not in range(128)\n"
        % explain(load_ledger(non_ascii_ledger), nid).index("\u00e9"))


def test_a_lone_surrogate_is_a_clean_export_error_that_writes_no_file(capsys, tmp_path):
    doc = json.loads(dumps_ledger(paper_ledger()))
    doc["nodes"][0]["citation"] = "lone \ud800"
    path, target = tmp_path / "s.json", tmp_path / "out.json"
    path.write_text(json.dumps(doc), encoding="utf-8")  # ASCII: the surrogate is escaped
    assert main(["ledger", "export", "--file", str(path), "-o", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # refused at load, so no command, export or other, meets the surrogate
    assert captured.err == "error: %r: citation holds a lone surrogate\n" % doc["nodes"][0]["id"]
    assert captured.err.count("\n") == 1
    assert not target.exists()


def test_multiple_overrides(capsys):
    assert main(["ledger", "final", "--override", "g10=0",
                 "--override", "g-le-9=0"]) == 0
    out = capsys.readouterr().out
    # with both big Minkowski leaves silenced the max moves to PGL_5(Q)
    assert out.strip().endswith("87 178 291 200")


def test_override_unknown_node_is_a_clean_error(capsys):
    assert main(["ledger", "final", "--override", "no-such-node=5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: override names unknown node 'no-such-node'\n"


def test_solve_eq_tmax_past_the_limit_is_a_quick_clean_error(capsys):
    start = time.perf_counter()
    assert main(["solve-eq", "-p", "7", "-d", "12", "--tmax", "100000000000"]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: t_max must be <= 100000, got 100000000000\n"


@pytest.mark.parametrize("argv, bound", [
    (["invphi", "-b", "1000001"], 1000001),
    (["pgl2", "-d", "500001"], 1000002),
])
def test_invphi_past_the_limit_is_a_quick_clean_error(capsys, argv, bound):
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bound must be <= 1000000, got %d\n" % bound


@pytest.mark.parametrize("argv, want", [
    (["minkowski", "-n", "x"], "error: argument -n: 'x' is not an integer\n"),
    (["ledger", "final", "--override", "g10=x"],
     "error: argument --override: override value must be an integer, got 'x'\n"),
])
def test_non_integer_arguments_are_usage_errors(capsys, argv, want):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: glbounds %s" % argv[0])
    assert captured.err.endswith(want)


# int() refuses a decimal past the interpreter's digit limit (4 300 by
# default) as it refuses a non-integer; the error names it by its length.
@pytest.mark.parametrize("argv, want", [
    (["minkowski", "-n", "9" * 5000],
     "error: argument -n: an integer of 5000 digits is too long\n"),
    (["ledger", "final", "--override", "g10=1" + "0" * 5000],
     "error: argument --override: override value of 5001 digits is too long\n"),
])
def test_integers_past_the_digit_limit_are_short_usage_errors(capsys, argv, want):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: glbounds %s" % argv[0])
    assert captured.err.endswith(want)
    assert len(captured.err.encode()) < 300 and "not an integer" not in captured.err


@pytest.mark.parametrize("argv, arg, value", [
    (["solve-eq", "-p", "2305843009213693951", "-d", "4"], "-p", "2305843009213693951"),
    (["schur", "-n", "2", "--conductor", "2305843009213693951"],
     "--conductor", "2305843009213693951"),
    (["serre", "-n", "2", "--conductor", "100000000"], "--conductor", "100000000"),
    (["invariants", "--conductor", "7", "--prime", "100000000"], "--prime", "100000000"),
])
def test_primes_and_conductors_past_10_8_are_usage_errors(capsys, argv, arg, value):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: glbounds %s" % argv[0])
    assert captured.err.endswith(
        "error: argument %s: expected an integer below 10^8, got %s\n" % (arg, value))
    assert captured.err.count("error:") == 1
    assert "Traceback" not in captured.err


# 97^2 is where trial division by the primes below 100 runs to its end; 101^2
# is the first square past them.
@pytest.mark.parametrize("prime", ["9409", "10201"])
def test_invariants_refuses_the_square_of_a_prime(capsys, prime):
    assert main(["invariants", "--conductor", "7", "--prime", prime]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s is not prime\n" % prime


def test_invariants_accepts_a_prime_past_the_small_primes(capsys):
    assert main(["invariants", "--conductor", "7", "--prime", "9973"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["p"] == 9973


@pytest.mark.parametrize("argv, limit", [
    (["rough", "-n", "100000", "-d", "100000"], 10000000001),
    (["minkowski", "-n", "100000000000"], 100000000001),
])
def test_bounds_past_the_sieve_limit_are_quick_clean_errors(capsys, argv, limit):
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: primes are sieved up to SIEVE_LIMIT = 10000000, got %d\n" % limit)


_PAST_THE_DOMAIN = {
    "minkowski": ({"kind": "Minkowski", "args": {"n": 10**11}, "children": []},
                  "primes are sieved up to SIEVE_LIMIT = 10000000, got 100000000001"),
    "schur-rough": ({"kind": "SchurRough", "args": {"n": 10**5, "d": 10**5}, "children": []},
                    "primes are sieved up to SIEVE_LIMIT = 10000000, got 10000000001"),
    "equation-p": ({"kind": "EquationCase", "args": {"p": 2**61 - 1, "n": 3, "d": 4},
                    "children": []},
                   "x: EquationCase p must be below 10^8"),
    "scaled-num": ({"kind": "ScaledProduct", "args": {"num": 2**61 - 1, "den": 1},
                    "children": ["c"]},
                   "x: arg 'num' has a prime factor of 10^8 or more"),
}


@pytest.mark.parametrize("name", sorted(_PAST_THE_DOMAIN))
def test_ledger_integers_past_the_domain_are_quick_clean_errors(capsys, tmp_path, name):
    fields, message = _PAST_THE_DOMAIN[name]
    const = {"id": "c", "kind": "Constant", "args": {}, "children": [], "declared": {},
             "decimal": "1", "citation": "crafted"}
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps({"schema_version": 1, "root": "x", "nodes": [const, dict(
        {"id": "x", "declared": {}, "decimal": "1", "citation": "crafted"}, **fields)]}),
        encoding="utf-8")
    start = time.perf_counter()
    assert main(["ledger", "verify", "--file", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


_NOT_JSON = {
    "python-source": "import json\nprint(json.dumps({}))\n".encode(),
    "utf-16-bom": b"\xff\xfe{\x00}\x00",
    "nested-past-the-recursion-limit": b"[" * 100000,
    "integer-past-the-digit-limit": b"7" * 5000,
}


@pytest.mark.parametrize("name", sorted(_NOT_JSON))
def test_a_ledger_file_that_is_not_json_is_a_clean_error(capsys, tmp_path, name):
    path = tmp_path / "ledger.json"
    path.write_bytes(_NOT_JSON[name])
    assert main(["ledger", "verify", "--file", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ledger is not valid JSON: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("name", ["[draft] ledger.json", "{draft}.json", '"draft".json'])
def test_a_ledger_path_that_looks_like_json_text_is_read_as_a_path(capsys, tmp_path, name):
    path = tmp_path / name
    packaged = Path(__file__).resolve().parents[1] / "src" / "glbounds" / "data"
    path.write_bytes((packaged / "paper_ledger.json").read_bytes())
    assert main(["ledger", "final", "--file", str(path)]) == 0
    assert capsys.readouterr().out == (GOLDEN / "ledger_final.txt").read_text(encoding="utf-8")


def test_a_ledger_file_that_cannot_be_read_is_a_clean_error(capsys, tmp_path):
    for path, reason in [(tmp_path / "[missing].json", "[Errno 2] No such file or directory"),
                         (tmp_path, "[Errno 21] Is a directory")]:
        assert main(["ledger", "final", "--file", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s: %r\n" % (reason, str(path))


@pytest.mark.parametrize("argv", [
    ["invphi", "-b", "12"],
    ["invphi", "-b", "12", "--format", "json"],
    ["invphi", "-b", "4", "--all"],
])
def test_invphi_enumerates_the_inverse_totient_once(capsys, monkeypatch, argv):
    import glbounds.totient as totient

    calls = []
    enumerate_all = totient._invphi
    monkeypatch.setattr(totient, "_invphi", lambda bound: calls.append(bound) or enumerate_all(bound))
    assert main(argv) == 0
    assert len(calls) == 1
    name = next(name for name, golden_argv in CASES.items() if golden_argv == argv)
    assert capsys.readouterr().out == (GOLDEN / name).read_text(encoding="utf-8")


class _CountedWrites(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def test_invphi_all_writes_its_rows_at_once(monkeypatch):
    out = _CountedWrites()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["invphi", "-b", "100", "--all"]) == 0
    assert out.getvalue() == "".join("%d\n" % n for n in invphi_all(100))
    assert len(out.writes) == 1  # however many rows


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_command_writes_its_whole_output_once(name, monkeypatch):
    monkeypatch.setenv("NO_COLOR", "1")
    out = _CountedWrites()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(CASES[name]) == 0
    assert out.writes == [(GOLDEN / name).read_text(encoding="utf-8")]


def test_a_table_past_the_total_sieve_limit_is_a_quick_clean_error(capsys):
    start = time.perf_counter()
    assert main(["table", "-n", "3", "--dmax", "10000"]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the rows d = 1 .. 10000 would sieve 150025000 numbers in all; a table sieves "
        "at most SIEVE_LIMIT = 10000000\n")


def test_the_cold_commands_load_no_heavy_module():
    # A clean interpreter, without site, which may preload modules: the
    # commonest commands stay off decimal, dataclasses, typing, pathlib and
    # importlib.resources, which would cost every invocation their import.
    code = (
        "import contextlib, io, json, sys\n"
        "from glbounds.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['minkowski', '-n', '12']), main(['ledger', 'final'])]\n"
        "heavy = ('decimal', 'dataclasses', 'inspect', 'typing', 'pathlib', 'zipfile',\n"
        "         'tempfile', 'importlib.resources')\n"
        "print(json.dumps([codes, [name for name in heavy if name in sys.modules]]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, b"")
    assert json.loads(done.stdout) == [[0, 0], []]


def test_override_with_a_prime_factor_past_the_declared_domain(capsys):
    # 2 * 100000007: the cofactor left after trial division is a prime >= 10^8
    assert main(["ledger", "final", "--override", "g10=200000014"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: override for 'g10' has a prime factor of 10^8 or more\n"
    assert main(["ledger", "final", "--override", "g10=24103053950976000"]) == 0
    assert capsys.readouterr().out == (
        "2^22 * 3^8 * 5^3 * 7^2 * 11 * 13 = 24 103 053 950 976 000\n")


def test_override_with_an_undecided_cofactor_is_refused_at_once(capsys):
    # 2^89 - 1 passes Miller-Rabin past the range where it decides primality;
    # trial division on to 10^8 took about 10 s
    start = time.perf_counter()
    assert main(["ledger", "final", "--override", "g10=618970019642690137449562111"]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: override for 'g10': a cofactor of 89 bits is a strong probable prime past "
        "3317044064679887385961981, where primality is not decided\n")


def test_override_one_is_the_empty_product(capsys):
    assert main(["ledger", "final", "--override", "g10=1"]) == 0
    one = capsys.readouterr().out
    assert main(["ledger", "final", "--override", "g10=0"]) == 0
    assert one == capsys.readouterr().out


def test_minkowski_past_the_str_digit_limit(capsys):
    # 10 746 digits: str(int) alone refuses anything past 4 300
    want = minkowski_bound(3000).to_int()
    assert main(["minkowski", "-n", "3000"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1
    digits = out.strip()
    assert len(digits) == 10746 and digits.isdigit()
    assert decimal_value(digits) == want
    assert main(["minkowski", "-n", "3000", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["decimal"] == digits


def test_a_value_past_the_digit_limit_is_a_clean_error(capsys):
    # 6 098 582 digits, whose rendering ran for minutes; the bound from the
    # factors refuses them as soon as minkowski_bound returns
    assert main(["minkowski", "-n", "1000000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the value has up to 6109630 digits; at most 1000000 are printed\n")


# Both have 1 000 000 digits; the bound reads 1 000 000 for the first and
# 1 000 001 for the second, whose bit length is one more.
_AT_THE_LIMIT = ((2, 3321927),)
_PAST_THE_LIMIT = ((2, 3321928),)


def test_the_digit_limit_on_either_side():
    _check_digits(FactoredInteger(_AT_THE_LIMIT))
    with pytest.raises(DomainError) as info:
        _check_digits(FactoredInteger(_PAST_THE_LIMIT))
    assert str(info.value) == "the value has up to 1000001 digits; at most 1000000 are printed"


# Each value-printing subcommand, the function it takes its value from, and
# a stand-in for that function, given the value past the limit first.
_PAST_THE_LIMIT_COMMANDS = {
    "minkowski": (["minkowski", "-n", "3"], "glbounds.cli.minkowski_bound",
                  lambda past, *args: past),
    "schur": (["schur", "-n", "3"], "glbounds.cli.schur_bound", lambda past, *args: past),
    "serre": (["serre", "-n", "3"], "glbounds.cli.serre_bound", lambda past, *args: past),
    "rough": (["rough", "-n", "3", "-d", "2"], "glbounds.cli.rough_bound",
              lambda past, *args: past),
    "table": (["table", "-n", "3", "--dmax", "2"], "glbounds.cli.table",
              lambda past, *args: [(1, ONE), (2, past)]),
    "pgl2": (["pgl2", "-d", "2"], "glbounds.cli.pgl2_admissible",
             lambda past, field: (pgl2_admissible(field)[0], past)),
    "ledger eval": (["ledger", "eval", "g10"], "glbounds.ledger.eval_node",
                    lambda past, *args: past),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", sorted(_PAST_THE_LIMIT_COMMANDS))
def test_every_value_printing_command_is_held_to_the_digit_limit(capsys, monkeypatch, name, fmt):
    argv, target, stand_in = _PAST_THE_LIMIT_COMMANDS[name]
    monkeypatch.setattr(target, functools.partial(stand_in, FactoredInteger(_PAST_THE_LIMIT)))
    assert main(argv + ["--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # no row is printed before the refusal
    assert captured.err == (
        "error: the value has up to 1000001 digits; at most 1000000 are printed\n")


@pytest.fixture
def budget_ledger(tmp_path):
    """A constant 8, then a Minkowski leaf m of 24 103 053 950 976 000, whose
    17 digits the budget bounds at 18, declared 1 so verify reports it."""
    path = tmp_path / "budget.json"
    path.write_text(json.dumps({"schema_version": 1, "root": "m", "nodes": [
        {"id": "c", "kind": "Constant", "args": {}, "children": [], "declared": {"2": 3},
         "decimal": "8", "citation": "c"},
        {"id": "m", "kind": "Minkowski", "args": {"n": 12}, "children": [], "declared": {},
         "decimal": "1", "citation": "m"},
    ]}), encoding="utf-8")
    return str(path)


_LEDGER_VALUE_COMMANDS = [
    ["final"], ["final", "--format", "json"], ["eval", "m"], ["eval", "m", "--format", "json"],
    ["verify"], ["verify", "--format", "json"], ["explain", "m"],
]


@pytest.mark.parametrize("argv", _LEDGER_VALUE_COMMANDS, ids=" ".join)
def test_ledger_values_are_held_to_the_digit_budget(capsys, monkeypatch, budget_ledger, argv):
    argv = ["ledger", *argv, "--file", budget_ledger]
    monkeypatch.setattr(exactnum, "_MAX_DIGITS", 18)
    assert main(argv) == (3 if "verify" in argv else 0)  # m is no whitelisted mismatch
    assert "24" in capsys.readouterr().out
    monkeypatch.setattr(exactnum, "_MAX_DIGITS", 17)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the value has up to 18 digits; at most 17 are printed\n"


def test_a_verify_row_past_the_budget_prints_none_of_the_rows_before_it(
        capsys, monkeypatch, budget_ledger):
    monkeypatch.setattr(exactnum, "_MAX_DIGITS", 18)
    assert main(["ledger", "verify", "--file", budget_ledger]) == 3
    assert capsys.readouterr().out.startswith("Unchecked  c ")
    monkeypatch.setattr(exactnum, "_MAX_DIGITS", 17)
    assert main(["ledger", "verify", "--file", budget_ledger]) == 1
    assert capsys.readouterr().out == ""
    # explain holds only the values below its node to the budget
    assert main(["ledger", "explain", "c", "--file", budget_ledger]) == 0
    assert capsys.readouterr().out == "c [Constant] = 2^3 = 8  (c)\n"


def test_an_explain_past_its_character_budget_is_a_clean_error(capsys, tmp_path):
    # The values pass the digit budget; the tree of 262 141 lines does not
    # pass explain's own.
    path = tmp_path / "diamond.json"
    path.write_text(json.dumps(diamond(16)), encoding="utf-8")
    assert main(["ledger", "explain", "t15", "--file", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: t15: explain would render more than 10000000 characters\n"


def test_power_bits_are_the_bit_lengths_of_the_powers():
    cases = [(p, e) for p in (2, 3, 5, 7, 97, 65537, 99999989, 2**61 - 1)
             for e in (1, 2, 3, 10, 53, 64, 1000, 4099)]
    # e * log2(p) within the margin of an integer: the power decides these
    cases += [(3, 190537), (7, 453601)]
    for p, e in cases:
        assert _power_bits(p, e) == (p**e).bit_length(), (p, e)


@settings(deadline=None, max_examples=200)
@given(st.dictionaries(st.sampled_from((2, 3, 5, 7, 97, 65537, 99999989)), st.integers(1, 400),
                       max_size=4).map(FactoredInteger.from_map), st.integers(1, 1200))
def test_the_digit_bound_reads_the_exact_bit_lengths(value, limit):
    bits = sum([(p**e).bit_length() for p, e in value.factors])
    real = exactnum._MAX_DIGITS
    exactnum._MAX_DIGITS = limit
    try:
        if bits * 30103 > limit * 100000:
            with pytest.raises(DomainError) as info:
                _check_digits(value)
            assert str(info.value) == "the value has up to %d digits; at most %d are printed" % (
                -(-bits * 30103 // 100000), limit)
        else:
            _check_digits(value)
    finally:
        exactnum._MAX_DIGITS = real


@settings(deadline=None)
@given(st.dictionaries(st.sampled_from((2, 3, 5, 7, 97, 65537, 99999989)), st.integers(1, 40),
                       max_size=4).map(FactoredInteger.from_map))
def test_no_value_of_more_digits_than_the_limit_is_printed(value):
    real = exactnum._MAX_DIGITS
    exactnum._MAX_DIGITS = 40
    try:
        _check_digits(value)
    except DomainError:
        pass
    else:
        assert len(str(value.to_int())) <= 40
    finally:
        exactnum._MAX_DIGITS = real


def test_color_gating(monkeypatch):
    class Tty(io.StringIO):
        def isatty(self):
            return True

    monkeypatch.delenv("NO_COLOR", raising=False)
    assert _use_color(Tty()) is True
    # on a terminal each status is painted, and the reset follows it
    out = Tty()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["ledger", "verify"]) == 0
    lines = out.getvalue().splitlines()
    assert sum(line.startswith("\x1b[32mMatch\x1b[0m  ") for line in lines) == 167
    assert sum(line.startswith("\x1b[2mUnchecked\x1b[0m  ") for line in lines) == 49
    assert sum(line.startswith("\x1b[31mMismatch\x1b[0m  ") for line in lines) == 2
    monkeypatch.setenv("NO_COLOR", "1")
    assert _use_color(Tty()) is False
    assert _use_color(io.StringIO()) is False


def test_no_ansi_codes_without_tty(capsys, monkeypatch):
    monkeypatch.delenv("NO_COLOR", raising=False)
    assert main(["ledger", "verify"]) == 0
    assert "\x1b[" not in capsys.readouterr().out


def test_parser_grammar_round_trip():
    parser = build_parser()
    ns = parser.parse_args(["schur", "-n", "4", "--conductor", "12"])
    assert (ns.n, ns.conductor, ns.format) == (4, 12, "text")
    ns = parser.parse_args(["ledger", "final", "--override", "g10=7"])
    assert ns.override == [("g10", 7)]
