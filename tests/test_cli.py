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

import recset
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


CLI = ("-m", "recset.cli")


def child(*args, **kwargs) -> subprocess.Popen:
    """`python *args` in a child process that imports this checkout's recset, output piped."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(recset.__file__)))
    return subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, **kwargs)


def within_10_s(*args) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of `child(*args)`; a run past 10 s fails its test."""
    with child(*args) as proc:
        try:
            out, err = proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    return proc.returncode, out, err


def put_document(tmp_path, name, **fields) -> str:
    """A base-2 automaton document from `fields`, written as JSON; its path."""
    path = tmp_path / f"{name}.aut"
    path.write_text(json.dumps({"format_version": 1, "base": 2, "contains_zero": False,
                                "initial": 0, **fields}))
    return str(path)


@pytest.fixture()
def no_int_digit_limit():
    """int and str convert numbers of any length, as the CLI lets them."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_encode_decode(capsys):
    code, out, _ = run(capsys, "encode", "6", "2")
    assert (code, out) == (0, "[1,1,0]\n")
    code, out, _ = run(capsys, "encode", "0", "5")
    assert (code, out) == (0, "[]\n")
    code, out, _ = run(capsys, "decode", "1,1,0", "2")
    assert (code, out) == (0, "6\n")
    code, out, _ = run(capsys, "decode", "", "2")
    assert (code, out) == (0, "0\n")


def test_codec_round_trips_past_2_to_the_1536(capsys):
    # numbers past 2^1536 encode in halves: a round trip, and a split at the base itself
    n = 3**5000 - 1
    code, out, _ = run(capsys, "encode", str(n), "3")
    assert (code, out) == (0, "[" + ",".join(["2"] * 5000) + "]\n")
    assert run(capsys, "decode", out.strip("[]\n"), "3")[:2] == (0, f"{n}\n")
    assert run(capsys, "encode", str(3 * 2**4000 + 5), str(2**2000))[:2] == (0, "[3,0,5]\n")
    # a one-digit word in a base past 2^1536
    assert run(capsys, "decode", "5", str(2**2000))[:2] == (0, "5\n")


def test_member_exit_codes(capsys, files):
    code, out, _ = run(capsys, "member", files["example1"], "5")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "member", files["example1"], "8")
    assert (code, out) == (1, "false\n")


def test_enum_output(capsys, files):
    code, out, _ = run(capsys, "enum", files["example1"], "7")
    assert (code, out) == (0, "1\n4\n5\n6\n7\n16\n17\n")


@pytest.mark.parametrize("base", [10, 2])
def test_enum_of_the_naturals_walks_digit_blocks(capsys, tmp_path, base):
    # blocks of 2 digits in base 10 and of 7 in base 2
    moves = [[0, d, 1] for d in range(1, base)] + [[1, d, 1] for d in range(base)]
    path = put_document(tmp_path, f"nat{base}", base=base, state_count=2, finals=[1],
                        transitions=moves)
    code, out, _ = run(capsys, "enum", path, "1234")
    assert (code, out) == (0, "".join(f"{n}\n" for n in range(1, 1235)))


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
    code, trimmed, _ = run(capsys, "trim", files["example1"])
    assert code == 0
    assert json.loads(trimmed)["state_count"] == 3
    # example1 is already minimal and laid out breadth-first
    assert out == trimmed


def test_trim_drops_a_reachable_state_without_transitions(capsys, tmp_path):
    # state 3 is reachable but has no transitions, so the set is not right dense
    path = put_document(tmp_path, "stub", state_count=4, finals=[1],
                        transitions=[[0, 1, 1], [1, 0, 2], [1, 1, 3], [2, 0, 1], [2, 1, 1]])
    code, out, _ = run(capsys, "trim", path)
    assert code == 0 and '"state_count": 3' in out
    assert run(capsys, "right-dense", path)[:2] == (1, "false\n")


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
    assert (code, out) == (0, "preperiod: 0\nperiod: 2\nhead: []\ncycle: [0,1]\n"
                              "cofinite_threshold: absent\n")


def test_profile_ignores_declared_states_past_the_reachable_ones(tmp_path):
    # example1 in a document that declares 5 000 000 states
    from recset import document_from_set, example1
    doc = document_from_set(example1())
    path = put_document(tmp_path, "big", **{**doc, "state_count": 5_000_000})
    code, out, err = within_10_s(*CLI, "profile", path, "1")
    assert (code, err) == (0, b"") and b"\nperiod: 2\n" in out


def test_witness_commands(capsys, files):
    code, out, _ = run(capsys, "witness-nonempty", files["mult3b2"])
    assert code == 0
    assert "kind: nonempty" in out
    code, out, _ = run(capsys, "witness-empty", files["example1"])
    assert code == 0
    assert "kind: empty" in out and "m: 1" in out
    code, out, _ = run(capsys, "witness-empty", files["mult3b2"])
    assert (code, out) == (1, "absent\n")
    # a is the first length of the kind's bit past the preperiod: a cycle bit
    # after the first, or the first
    for argv, expected in ((["witness-empty"], "kind: empty\nm: 1\na: 1\nb: 2\nstate: 1\n"),
                           (["witness-nonempty"], "kind: nonempty\nm: 1\na: 2\nb: 2\nstate: 1\n"),
                           (["witness-nonempty", "--m-min", "2"],
                            "kind: nonempty\nm: 2\na: 1\nb: 2\nstate: 2\n")):
        assert run(capsys, argv[0], files["example1"], *argv[1:])[:2] == (0, expected)


def test_syndetic_verdicts(capsys, files):
    code, out, _ = run(capsys, "syndetic", files["mult3b2"])
    assert code == 0
    assert "verdict: syndetic" in out
    assert "C: 2" in out and "bound: 8" in out
    code, out, _ = run(capsys, "syndetic", files["finite"])
    assert (code, out) == (0, "verdict: finite\n")
    assert run(capsys, "syndetic", files["example1"])[0] == 1


def test_syndetic_on_the_numbers_with_exactly_20000_binary_digits(tmp_path):
    # finite, so no length recurrence runs
    n = 20_000
    path = put_document(tmp_path, "long", state_count=n + 1, finals=[n],
                        transitions=[[0, 1, 1]] + [[i, d, i + 1] for i in range(1, n)
                                                   for d in (0, 1)])
    assert within_10_s(*CLI, "syndetic", path) == (0, b"verdict: finite\n", b"")


def test_syndetic_on_a_path_of_2000_singleton_components(capsys, tmp_path):
    # the numbers with at least 2000 binary digits
    n = 2_000
    path = put_document(tmp_path, "path", state_count=n + 1, finals=[n],
                        transitions=[[0, 1, 1]] + [[i, d, min(i + 1, n)] for i in range(1, n + 1)
                                                   for d in (0, 1)])
    code, out, err = within_10_s(*CLI, "syndetic", path)
    assert (code, err) == (0, b"")
    assert {b"verdict: syndetic", b"C: 1999"} <= set(out.splitlines())
    code, out, _ = run(capsys, "profile", path, "2000")
    assert code == 0 and {"period: 1", "cycle: [1]"} <= set(out.splitlines())


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


def test_kronecker_guard_exits_3_within_10_s():
    # an exponent of 10^400: the certificate-size guard exits 3 before building a power
    code, out, err = within_10_s(*CLI, "kronecker", "2", "1", str(10**400), "1", "1", "1", "2", "3")
    assert (code, out) == (3, b"") and err.startswith(b"error:")


@pytest.mark.parametrize("k, ell, params", [
    (15912, 6023, (20, 19, 3, 3, 5, 5, 2, 3)),
    (98, 51, (5, 4, 2, 3, 1, 7, 7, 5)),
    (149984, 94629, (1000, 999, 1, 1, 1, 1, 2, 3)),  # found without a scan over l
], ids=["l=6023", "l=51", "l=94629"])
def test_kronecker_output_matches_an_integer_reference(no_int_digit_limit, k, ell, params):
    code, out, err = within_10_s(*CLI, "kronecker", *map(str, params))
    m, n, a, b, c, d, p, q = params
    big_p, big_q = p ** (a + b * k), q ** (c + d * ell)
    chain = f"{n * big_q} <= {m * big_p} < {(m + 1) * big_p} <= {(n + 1) * big_q}"
    assert (code, err) == (0, b"")
    assert out.decode() == f"k: {k}\nl: {ell}\nchain: {chain}\n"


# Does any pair with l below the bound nest for `kronecker 20 19 3 3 5 5 2 3`?  Exact
# powers stepped by multiplication, no logarithms; the least k that meets the lower
# end only grows with l.
_NESTING_SCAN = """
import sys
m, n, a, b, c, d, p, q = 20, 19, 3, 3, 5, 5, 2, 3
k, big_p, big_q = 1, p ** (a + b), q ** c
for l in range(1, int(sys.argv[1])):
    big_q *= q ** d
    while m * big_p < n * big_q:
        k, big_p = k + 1, big_p * p ** b
    if (m + 1) * big_p <= (n + 1) * big_q:
        sys.exit(f"l={l}, k={k} nests")
"""


def test_kronecker_l_6023_is_the_least_by_brute_force():
    assert within_10_s("-c", _NESTING_SCAN, "6023") == (0, b"", b"")
    assert within_10_s("-c", _NESTING_SCAN, "6024") == (1, b"", b"l=6023, k=15912 nests\n")


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
    assert (code, out) == (1, "dependent: 4^3 = 8^2 = 64\n")
    assert within_10_s(*CLI, "indep", str(2**61 - 1), "3") == (0, b"independent\n", b"")


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
    # 2^(3000*2999): its digits are counted, not rebuilt with str()
    code, out, _ = within_10_s(*CLI, "indep", str(2**3000), str(2**2999))
    assert code == 1
    assert out.startswith(b"dependent: ") and len(out.split()[-1]) == 2_708_367


def test_gaps_output(capsys, files):
    code, out, _ = run(capsys, "gaps", files["example1"], "--horizon", "128")
    assert code == 0
    assert "max_gap: 33" in out
    assert "first: 31 64" in out
    code, out, _ = run(capsys, "gaps", files["example1"], "--horizon", "100000")
    assert (code, out) == (0, "max_gap: 32769\noccurrences: 1\nfirst: 32767 65536\n")
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
    assert run(capsys, "decode", "1,2", "2")[0] == 2
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


@pytest.mark.parametrize("lenient", [[], ["--lenient"]], ids=["strict", "lenient"])
@pytest.mark.parametrize("fields", [{"finals": [1, True]}, {"contains_zero": 1}],
                         ids=["boolean-final", "integer-contains-zero"])
def test_a_wrongly_typed_document_is_one_usage_error(capsys, tmp_path, fields, lenient):
    path = put_document(tmp_path, "typed", **{"state_count": 2, "finals": [1],
                                              "transitions": [[0, 1, 1]], **fields})
    code, out, err = run(capsys, "syndetic", path, *lenient)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


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
    assert run(capsys, "profile", str(path), str(state))[0] == 2


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


def _one_gib_of_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("limit", [200_000, 10**12])
def test_a_reader_that_leaves_early_gets_exit_141(tmp_path, limit):
    # the reader closes the pipe after one line: the shell's code for a writer
    # whose reader left (128 + SIGPIPE), and nothing on stderr.  enum prints each
    # element as the walk yields it, so a limit past memory costs nothing; a child
    # that gathered them first would stop at the ceiling with exit 4
    doc = put_document(tmp_path, "nat2", state_count=2, finals=[1],
                       transitions=[[0, 1, 1], [1, 0, 1], [1, 1, 1]])
    with child(*CLI, "enum", doc, str(limit), preexec_fn=_one_gib_of_address_space) as proc:
        assert proc.stdout.readline() == b"1\n"
        proc.stdout.close()
        assert (proc.wait(timeout=60), proc.stderr.read()) == (141, b"")
