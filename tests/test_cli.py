"""Command-line behavior: outputs, determinism, and the exit-code table."""

from __future__ import annotations

import json

import pytest

from recset import write_automaton
from recset.cli import main
from conftest import finite_set, full_set, multiples_of, powers_of_two


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
    code, _, err = run(capsys, "kronecker", "2", "1", "1", "1", "1", "1", "2", "3", "--cap", "1")
    assert code == 3
    assert err.startswith("error: ")


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


def test_output_determinism(capsys, files):
    first = run(capsys, "syndetic", files["mult3b2"])
    second = run(capsys, "syndetic", files["mult3b2"])
    assert first == second
    first = run(capsys, "refute", files["nat3"], files["example1"])
    second = run(capsys, "refute", files["nat3"], files["example1"])
    assert first == second
