"""Command-line behavior: outputs, determinism, and the exit-code table."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from recset import write_automaton
from recset.cli import main
from conftest import finite_set, full_set, multiples_of, powers_of_two, prime_cycles


@pytest.fixture()
def files(tmp_path):
    """Automaton files used across the invocation matrix."""
    paths = {}

    def put(name, s):
        path = tmp_path / f"{name}.aut"
        write_automaton(path, s)
        paths[name] = str(path)

    from recset import example1
    put("example1", example1())
    put("mult3b2", multiples_of(3, 2))
    put("mult3b3", multiples_of(3, 3))
    put("nat3", full_set(3))
    put("powers2", powers_of_two())
    put("finite", finite_set({1, 2, 3}, 2))
    paths["tmp"] = str(tmp_path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_encode_decode(capsys):
    code, out, _ = run(capsys, "encode", "6", "2")
    assert (code, out) == (0, "[1,1,0]\n")
    code, out, _ = run(capsys, "encode", "0", "5")
    assert (code, out) == (0, "[]\n")
    code, out, _ = run(capsys, "decode", "1,1,0", "2")
    assert (code, out) == (0, "6\n")
    code, out, _ = run(capsys, "decode", "", "2")
    assert (code, out) == (0, "0\n")


def test_member_exit_codes(capsys, files):
    code, out, _ = run(capsys, "member", files["example1"], "5")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "member", files["example1"], "8")
    assert (code, out) == (1, "false\n")


def test_enum_output(capsys, files):
    code, out, _ = run(capsys, "enum", files["example1"], "7")
    assert code == 0
    assert out.split() == ["1", "4", "5", "6", "7", "16", "17"]


def test_enum_takes_a_limit_past_the_largest_list(capsys, files):
    code, out, _ = run(capsys, "enum", files["finite"], str(2**64))
    assert (code, out) == (0, "1\n2\n3\n")


def test_right_dense_true_false(capsys, files):
    assert run(capsys, "right-dense", files["example1"])[:2] == (0, "true\n")
    assert run(capsys, "right-dense", files["powers2"])[:2] == (1, "false\n")


def test_minimize_and_trim_emit_documents(capsys, files):
    code, out, _ = run(capsys, "minimize", files["example1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["state_count"] == 3
    code, out, _ = run(capsys, "trim", files["example1"])
    assert code == 0
    assert json.loads(out)["state_count"] == 3


def test_example1_roundtrip_through_files(capsys, files):
    out_path = files["tmp"] + "/fresh.aut"
    code, out, _ = run(capsys, "example1", "--out", out_path)
    assert (code, out) == (0, "")
    code, out, _ = run(capsys, "right-dense", out_path)
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "syndetic", out_path)
    assert code == 1
    assert "verdict: not-syndetic" in out
    assert "m: 1" in out and "a: 1" in out and "b: 2" in out


def test_profile_output(capsys, files):
    code, out, _ = run(capsys, "profile", files["example1"], "0")
    assert code == 0
    assert "preperiod: 0" in out
    assert "period: 2" in out
    assert "cycle: [0,1]" in out
    assert "cofinite_threshold: absent" in out


def test_witness_commands(capsys, files):
    code, out, _ = run(capsys, "witness-nonempty", files["mult3b2"])
    assert code == 0
    assert "kind: nonempty" in out
    code, out, _ = run(capsys, "witness-empty", files["example1"])
    assert code == 0
    assert "kind: empty" in out and "m: 1" in out
    code, out, _ = run(capsys, "witness-empty", files["mult3b2"])
    assert (code, out) == (1, "absent\n")


def test_syndetic_verdicts(capsys, files):
    code, out, _ = run(capsys, "syndetic", files["mult3b2"])
    assert code == 0
    assert "verdict: syndetic" in out
    assert "C: 2" in out and "bound: 8" in out
    code, out, _ = run(capsys, "syndetic", files["finite"])
    assert (code, out) == (0, "verdict: finite\n")
    assert run(capsys, "syndetic", files["example1"])[0] == 1


def test_kronecker_golden(capsys):
    code, out, _ = run(capsys, "kronecker", "2", "1", "1", "1", "1", "1", "2", "3")
    assert code == 0
    assert "k: 3\n" in out and "l: 2\n" in out
    assert "chain: 27 <= 32 < 48 <= 54" in out


def test_kronecker_error_exit_codes(capsys):
    code, _, err = run(capsys, "kronecker", "2", "1", "1", "1", "1", "1", "2", "8")
    assert code == 2
    assert err.startswith("error: ")
    # no certificate within the 2**23-bit bound holds these powers: the size
    # guard stops at the pair (1, 1), before building any power
    for exponents in ([str(10**400), "1", "1", "1"], ["1", "1", str(10**20), "1"]):
        code, out, err = run(capsys, "kronecker", "2", "1", *exponents, "2", "3")
        assert (code, out) == (3, "")
        assert err.startswith("error: exponent pair l=1, k=1 needs a power of about ")
        assert err.endswith(" bits, past the 8388608-bit bound\n") and err.count("\n") == 1
    # an answer far past l = 10 000, found at once
    code, out, err = run(capsys, "kronecker", "1000", "999", "1", "1", "1", "1", "2", "3")
    assert (code, err) == (0, "")
    assert out.startswith("k: 149984\nl: 94629\nchain: ")


def test_profile_recurrences_past_the_cap_exit_3(capsys, files, tmp_path):
    # lengths accepted after the leading 1 recur only every lcm(2..29) digits
    fan, primes = str(tmp_path / "fan.aut"), (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    write_automaton(fan, prime_cycles(primes=primes, fan_out=True))
    for argv in (["syndetic", fan], ["witness-empty", fan], ["refute", files["mult3b2"], fan]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: no length recurrence within")
    # no depth is run: the cycles' lengths recur together only after 2*3*5*...*29 digits
    assert err.endswith(f"-state component cannot recur before depth {math.prod(primes)}\n")


def test_kronecker_prints_numbers_past_the_int_str_digit_limit(capsys):
    from recset import KroneckerWitness, verify_kronecker
    argv = ["kronecker", "20", "19", "3", "3", "5", "5", "2", "3"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    fields = dict(line.split(": ", 1) for line in out.splitlines())
    m, n, a, b, c, d, p, q = (int(x) for x in argv[1:])
    w = KroneckerWitness(int(fields["k"]), int(fields["l"]))
    assert verify_kronecker(w, m, n, a, b, c, d, p, q)
    # main lifted the int-to-str limit for this process, so int() parses them too
    numbers = fields["chain"].split(" ")[::2]
    assert max(len(x) for x in numbers) > 4300  # Python's default int-to-str limit
    big_p, big_q = p ** (a + b * w.k), q ** (c + d * w.ell)
    assert [int(x) for x in numbers] == [n * big_q, m * big_p, (m + 1) * big_p, (n + 1) * big_q]


def test_failed_self_check_exits_4(capsys, files, monkeypatch):
    import recset.witnesses as witnesses
    from recset import (PreconditionError, RecsetError, SearchCapExceededError,
                        ValidationError, example1)
    monkeypatch.setattr(witnesses, "verify_interval_witness", lambda s, w: False)
    with pytest.raises(RecsetError) as raised:
        witnesses.nonempty_interval_witness(example1())
    assert not isinstance(raised.value,
                          (PreconditionError, SearchCapExceededError, ValidationError))
    code, out, err = run(capsys, "witness-empty", files["example1"])
    assert (code, out) == (4, "")
    assert err.startswith("error: internal: ") and err.count("\n") == 1


@pytest.mark.parametrize("raised", [MemoryError("out of memory"), ValueError("bad value")],
                         ids=["MemoryError", "ValueError"])
def test_unexpected_exception_exits_4(capsys, files, monkeypatch, raised):
    import recset.cli as cli

    def crash(dfa):
        raise raised

    monkeypatch.setattr(cli, "minimize", crash)
    code, out, err = run(capsys, "minimize", files["example1"])
    assert (code, out) == (4, "")
    assert err == f"error: internal: {type(raised).__name__}: {raised}\n"


def test_indep_outputs(capsys):
    code, out, _ = run(capsys, "indep", "2", "3")
    assert (code, out) == (0, "independent\n")
    code, out, _ = run(capsys, "indep", "4", "8")
    assert code == 1
    assert "4^3 = 8^2" in out


def test_indep_prints_a_high_dependent_power_in_linear_time(capsys):
    # 2^(2000*1999) has 1 203 518 digits: str() of that int takes seconds before Python 3.12
    p, q = 2**2000, 2**1999
    start = time.perf_counter()
    code, out, _ = run(capsys, "indep", str(p), str(q))
    elapsed = time.perf_counter() - start
    prefix = f"dependent: {p}^1999 = {q}^2000 = "
    assert code == 1 and out.startswith(prefix) and out.endswith("\n")
    assert len(out) - len(prefix) - 1 == 1_203_518
    assert elapsed < 2


def test_gaps_output(capsys, files):
    code, out, _ = run(capsys, "gaps", files["example1"], "--horizon", "128")
    assert code == 0
    assert "max_gap: 33" in out
    assert "first: 31 64" in out
    code, _, err = run(capsys, "gaps", files["finite"], "--horizon", "1")
    assert code == 2 and err.startswith("error: ")


def test_refute_end_to_end(capsys, files):
    code, out, _ = run(capsys, "refute", files["nat3"], files["example1"])
    assert code == 0
    assert "refuted: true" in out
    assert "element: 162" in out
    assert "chain: 128 <= 162 < 243 <= 256" in out
    code, out, _ = run(capsys, "refute", files["mult3b2"], files["mult3b3"])
    assert code == 1
    assert out.startswith("absent")
    code, _, err = run(capsys, "refute", files["example1"], files["example1"])
    assert code == 2 and "dependent" in err


def test_validation_exit_codes(capsys, files, tmp_path):
    assert run(capsys, "encode", "5", "1")[0] == 2
    assert run(capsys, "decode", "3", "2")[0] == 2
    assert run(capsys, "member", str(tmp_path / "missing.aut"), "1")[0] == 2
    bad = tmp_path / "bad.aut"
    bad.write_text("{ nope }")
    assert run(capsys, "member", str(bad), "1")[0] == 2
    assert run(capsys, "profile", files["example1"], "9")[0] == 2
    assert run(capsys, "witness-nonempty", files["finite"])[0] == 2
    assert run(capsys, "witness-empty", files["finite"])[0] == 2
    assert run(capsys, "member", files["example1"], "-1")[0] == 2
    assert run(capsys, "enum", files["example1"], "-1")[0] == 2
    assert run(capsys, "decode", "1,x", "2")[0] == 2
    assert run(capsys, "indep", "1", "3")[0] == 2
    assert run(capsys, "witness-nonempty", files["example1"], "--m-min", "0")[0] == 2


def test_usage_errors(capsys):
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "encode", "x", "2")[0] == 2
    assert run(capsys, "encode")[0] == 2


def test_strict_vs_lenient_loading(capsys, tmp_path):
    doc = {
        "format_version": 1, "base": 2, "state_count": 2, "initial": 0,
        "finals": [1], "contains_zero": False,
        "transitions": [[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]],
    }
    path = tmp_path / "zeroleads.aut"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "member", str(path), "5")
    assert code == 2 and "leading zero" in err
    code, out, _ = run(capsys, "member", str(path), "5", "--lenient")
    assert (code, out) == (0, "true\n")


# accepts "0", so only lenient loading takes it; state 0 reads "0" and "10"
_LEADING_ZERO_DOC = {
    "format_version": 1, "base": 2, "state_count": 4, "initial": 0,
    "finals": [1, 3], "contains_zero": False,
    "transitions": [[0, 0, 1], [0, 1, 2], [2, 0, 3]],
}


@pytest.mark.parametrize("state, lines", [
    (0, ["preperiod: 3", "period: 1", "head: [0,1,1]", "cycle: [0]"]),
    (1, ["preperiod: 1", "period: 1", "head: [1]", "cycle: [0]"]),
    (3, ["preperiod: 1", "period: 1", "head: [1]", "cycle: [0]"]),
    (4, ["preperiod: 3", "period: 1", "head: [0,0,1]", "cycle: [0]"]),  # the fresh start
])
def test_lenient_loading_keeps_the_document_state_numbers(capsys, tmp_path, state, lines):
    path = tmp_path / "lz.aut"
    path.write_text(json.dumps(_LEADING_ZERO_DOC))
    code, out, _ = run(capsys, "profile", str(path), str(state), "--lenient")
    assert (code, out) == (0, "\n".join(lines + ["cofinite_threshold: absent"]) + "\n")


def test_lenient_trim_lists_document_states_before_the_fresh_start(capsys, tmp_path):
    path = tmp_path / "lz.aut"
    path.write_text(json.dumps(_LEADING_ZERO_DOC))
    code, out, _ = run(capsys, "trim", str(path), "--lenient")
    assert code == 0
    assert '  "initial": 2,\n' in out
    assert '  "transitions": [[0,0,1],[2,1,0]]\n' in out


def test_output_determinism(capsys, files):
    first = run(capsys, "syndetic", files["mult3b2"])
    second = run(capsys, "syndetic", files["mult3b2"])
    assert first == second
    first = run(capsys, "refute", files["nat3"], files["example1"])
    second = run(capsys, "refute", files["nat3"], files["example1"])
    assert first == second


@pytest.mark.parametrize("argv", [["trim"], ["minimize"], ["right-dense"], ["syndetic"],
                                  ["profile", "1"], ["witness-empty"], ["enum", "3"]])
def test_cost_follows_reachable_states_not_declared_ones(capsys, tmp_path, argv):
    # example1's 3-state language in a document that declares a million states
    from recset import document_from_set, example1
    doc = document_from_set(example1())
    doc["state_count"] = 1_000_000
    path = tmp_path / "overdeclared.aut"
    path.write_text(json.dumps(doc), encoding="utf-8")
    tracemalloc.start()
    try:
        code = main([argv[0], str(path)] + argv[1:])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code in (0, 1)
    assert peak < 40 << 20


TOO_LONG = f"error: alphabet size and state count must be <= {sys.maxsize}\n"


def _one_state_document(base: int, state_count: int) -> bytes:
    return json.dumps({"format_version": 1, "base": base, "state_count": state_count,
                       "initial": 0, "finals": [], "transitions": [],
                       "contains_zero": False}).encode()


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe{}", "error: cannot read {path}: 'utf-8' codec can't decode byte 0xff"),
    (b"[" * 200_000 + b"]" * 200_000, "error: parse error: the document nests too deeply\n"),
    # no row table can be indexed that far: these exited 4 with an OverflowError
    (_one_state_document(10**19, 1), TOO_LONG),
    (_one_state_document(2, 10**19), TOO_LONG),
], ids=["not-utf-8", "deep-nesting", "base-past-maxsize", "state-count-past-maxsize"])
def test_malformed_documents_exit_2(capsys, tmp_path, content, message):
    path = tmp_path / "bad.aut"
    path.write_bytes(content)
    code, out, err = run(capsys, "member", str(path), "3")
    assert (code, out) == (2, "")
    assert err.startswith(message.format(path=path)) and err.count("\n") == 1


def test_an_out_path_that_cannot_be_written_exits_2(capsys, tmp_path):
    # a missing directory and a directory itself: these exited 4 with an internal error
    for path in (tmp_path / "missing" / "x.aut", tmp_path):
        code, out, err = run(capsys, "example1", "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


def test_no_subcommand_takes_a_cap(capsys, files):
    # the witness searches are exact and the Kronecker cap is a fixed constant
    for argv in (["witness-nonempty", files["example1"]], ["witness-empty", files["example1"]],
                 ["syndetic", files["example1"]], ["refute", files["nat3"], files["example1"]],
                 ["kronecker", "2", "1", "1", "1", "1", "1", "2", "3"]):
        code, out, err = run(capsys, *argv, "--cap", "10")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --cap 10" in err


def test_refute_answers_past_a_profile_cap_as_the_shape_requires(capsys, files, tmp_path):
    fan, fin = str(tmp_path / "fan.aut"), str(tmp_path / "fin.aut")
    write_automaton(fan, prime_cycles(primes=(2, 3, 5, 7, 11, 13, 17, 19), fan_out=True))
    write_automaton(fin, finite_set({1, 2}, 3))
    code, out, err = run(capsys, "refute", fan, files["nat3"])
    assert (code, err) == (1, "") and out.startswith("absent: ")
    for argv in (["refute", fan, fin], ["refute", fin, fan]):
        assert run(capsys, *argv) == (2, "", "error: both sets must be infinite\n")


def test_cached_parser_answers_as_a_fresh_one(capsys, files, monkeypatch):
    import recset.cli as cli
    argvs = [["no-such-command"], ["--help"], ["enum", files["example1"], "3", "--lenient"],
             ["enum", files["example1"], "3"], ["syndetic", files["example1"]]]
    cached = [run(capsys, *argv) for argv in argvs]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert cached == [run(capsys, *argv) for argv in argvs]
    assert [code for code, _, _ in cached] == [2, 0, 0, 0, 1]


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    import argparse
    import recset.cli as cli
    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli.build_parser.cache_clear()
    try:
        assert run(capsys, "encode", "6", "2")[:2] == (0, "[1,1,0]\n")
        assert built[0] == "recset" and len(built) > 1  # the parser and its subparsers
        built.clear()
        assert run(capsys, "decode", "1,1,0", "2")[:2] == (0, "6\n")
        assert built == []
    finally:
        cli.build_parser.cache_clear()


def test_a_reader_that_leaves_early_gets_exit_141(tmp_path):
    # the reader closes the pipe after one line: the shell's code for a writer
    # whose reader left (128 + SIGPIPE), and nothing on stderr
    import recset
    doc = tmp_path / "nat2.aut"
    doc.write_text('{"format_version": 1, "base": 2, "contains_zero": false, "state_count": 2, '
                   '"initial": 0, "finals": [1], "transitions": [[0,1,1],[1,0,1],[1,1,1]]}')
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(recset.__file__)))
    with subprocess.Popen([sys.executable, "-m", "recset.cli", "enum", str(doc), "200000"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"1\n"
        proc.stdout.close()
        assert (proc.wait(timeout=60), proc.stderr.read()) == (141, b"")
