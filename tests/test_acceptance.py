"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion carries its stated tolerance and runtime budget.
"""

from __future__ import annotations

import json
import random
import time

from recset import (
    NotSyndetic,
    Syndetic,
    complete,
    cross_base_refute,
    decode,
    empty_interval_witness,
    encode,
    equivalent,
    example1,
    gap_scan,
    kronecker_witness,
    length_profile,
    member,
    minimize,
    nonempty_interval_witness,
    read_automaton,
    right_dense,
    syndetic_decide,
    trim,
    verify_contradiction,
    verify_interval_witness,
    verify_kronecker,
    write_automaton,
)
from recset.cli import main as cli_main
from conftest import (
    example1_oracle,
    finite_set,
    full_set,
    multiples_of,
    powers_of_two,
    random_dfa,
    random_recognizable_sets,
)

BIG_ENOUGH = 10**6


def _report(n: int, name: str) -> None:
    print(f"[criterion {n}] PASS: {name}")


def _acceptance_corpus():
    named = [example1(), multiples_of(3, 2), multiples_of(3, 3), powers_of_two()]
    return named + random_recognizable_sets(2024, 20)


def test_criterion_1_right_dense_but_not_syndetic():
    start = time.perf_counter()
    s = example1()

    assert right_dense(s)
    verdict = syndetic_decide(s)
    assert isinstance(verdict, NotSyndetic)
    w = verdict.witness
    assert w.kind == "empty"
    assert verify_interval_witness(s, w)
    for k in range(11):
        lo = w.m * 2 ** (w.a + w.b * k)
        hi = (w.m + 1) * 2 ** (w.a + w.b * k)
        assert not example1_oracle(lo) and not example1_oracle(hi - 1)

    expected = []
    i = 0
    while 4**i <= BIG_ENOUGH:
        expected.extend(range(4**i, min(2 * 4**i, BIG_ENOUGH + 1)))
        i += 1
    from recset import enumerate_elements
    got = list(enumerate_elements(s, len(expected)))
    assert got == expected
    assert got[-1] <= BIG_ENOUGH

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"
    _report(1, "right dense, not syndetic, enumeration matches closed form "
               f"({elapsed:.2f}s)")


def test_criterion_2_length_profiles_match_brute_force():
    start = time.perf_counter()
    rng = random.Random(1202)
    checked = 0
    produced = 0
    while produced < 200:
        dfa = trim(random_dfa(rng, 6, rng.choice([2, 3])))
        if not dfa.finals:  # empty language: nothing to profile
            continue
        produced += 1
        finals = set(dfa.finals)
        for state in range(dfa.state_count):
            prof = length_profile(dfa, state)
            assert prof.preperiod + prof.period <= 2**dfa.state_count
            window = prof.preperiod + 4 * prof.period
            current = {state}
            for n in range(window):
                brute = 1 if current & finals else 0
                assert prof.bit(n) == brute
                current = {dfa.transitions[(r, d)]
                           for r in current for d in range(dfa.alphabet_size)
                           if (r, d) in dfa.transitions}
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.2f}s"
    _report(2, f"{checked} state profiles match brute-force layers ({elapsed:.2f}s)")


def test_criterion_3_exponent_pairs_exact_and_deterministic():
    start = time.perf_counter()
    rng = random.Random(1203)
    for _ in range(50):
        p, q = rng.choice([(2, 3), (2, 5), (3, 5)])
        n = rng.randint(1, 19)
        m = rng.randint(n + 1, 20)
        a, b, c, d = (rng.randint(1, 5) for _ in range(4))
        w = kronecker_witness(m, n, a, b, c, d, p, q)
        big_p = p ** (a + b * w.k)
        big_q = q ** (c + d * w.ell)
        assert n * big_q <= m * big_p < (m + 1) * big_p <= (n + 1) * big_q
        assert verify_kronecker(w, m, n, a, b, c, d, p, q)
        assert kronecker_witness(m, n, a, b, c, d, p, q) == w
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.2f}s"
    _report(3, f"50 exponent pairs verify exactly and deterministically ({elapsed:.2f}s)")


def _qualifying_all_cofinite(s) -> bool:
    """Independent recomputation: completed minimal automaton, BFS from the
    nonzero first digits, cofiniteness read off raw forward layers."""
    dfa = complete(minimize(s.dfa))
    rows = dfa.rows
    frontier = {rows[dfa.initial][d] for d in range(1, dfa.alphabet_size)}
    seen = set(frontier)
    stack = list(frontier)
    while stack:
        st = stack.pop()
        for t in rows[st]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    for st in seen:
        prof = length_profile(dfa, st)
        if not all(prof.cycle_bits):
            return False
    return True


def test_criterion_4_interval_witnesses_sound_on_corpus():
    start = time.perf_counter()
    corpus = _acceptance_corpus()
    absents = 0
    for s in corpus:
        nw = nonempty_interval_witness(s, 1)
        assert nw.kind == "nonempty"
        assert verify_interval_witness(s, nw)
        ew = empty_interval_witness(s)
        if ew is None:
            absents += 1
            assert _qualifying_all_cofinite(s)
        else:
            assert ew.kind == "empty"
            assert verify_interval_witness(s, ew)
            assert not _qualifying_all_cofinite(s)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.2f}s"
    _report(4, f"witnesses verify on {len(corpus)} sets "
               f"({absents} with no empty family) ({elapsed:.2f}s)")


def test_criterion_5_syndetic_bound_sound_on_corpus():
    start = time.perf_counter()
    syndetic_count = 0
    for s in _acceptance_corpus():
        verdict = syndetic_decide(s)
        if not isinstance(verdict, Syndetic):
            continue
        syndetic_count += 1
        bound = verdict.bound
        horizon = max(100_000, 4 * bound * s.base)
        assert gap_scan(s, horizon).max_gap <= bound
    m3 = syndetic_decide(multiples_of(3, 2))
    assert isinstance(m3, Syndetic)
    empirical = gap_scan(multiples_of(3, 2), 10_000).max_gap
    assert empirical == 3 <= m3.bound
    elapsed = time.perf_counter() - start
    _report(5, f"gap bound holds on {syndetic_count} syndetic sets; "
               f"multiples of 3: max gap {empirical} <= {m3.bound} "
               f"({elapsed:.2f}s)")


def test_criterion_6_cross_base_certificate_end_to_end():
    nat3 = full_set(3)
    ex1 = example1()
    cert = cross_base_refute(nat3, ex1)
    assert cert is not None
    assert verify_contradiction(cert, nat3, ex1)
    assert member(nat3, cert.element)
    ew, kw = cert.base_q_witness, cert.kronecker
    lo_q = ew.m * 2 ** (ew.a + ew.b * kw.ell)
    hi_q = (ew.m + 1) * 2 ** (ew.a + ew.b * kw.ell)
    assert lo_q <= cert.element < hi_q
    assert not member(ex1, cert.element)
    nw = cert.base_p_witness
    lo_p = nw.m * 3 ** (nw.a + nw.b * kw.k)
    hi_p = (nw.m + 1) * 3 ** (nw.a + nw.b * kw.k)
    assert lo_q <= lo_p and hi_p <= hi_q

    assert cross_base_refute(multiples_of(3, 2), multiples_of(3, 3)) is None
    _report(6, f"certificate separates the sets at element {cert.element}; "
               "equal sets yield no certificate")


def test_criterion_7_plumbing(tmp_path, capsys):
    start = time.perf_counter()
    for p in range(2, 17):
        for n in range(100_000):
            word = encode(n, p)
            assert decode(word, p) == n
            assert word[:1] != (0,)

    for s in random_recognizable_sets(1207, 15, require_infinite=False):
        m = minimize(s.dfa)
        assert minimize(m) == m
        assert equivalent(m, s.dfa)
        path = tmp_path / "roundtrip.aut"
        write_automaton(path, s)
        assert equivalent(read_automaton(path).dfa, s.dfa)

    ex_path = str(tmp_path / "ex1.aut")
    m3_path = str(tmp_path / "m3.aut")
    m33_path = str(tmp_path / "m33.aut")
    nat3_path = str(tmp_path / "nat3.aut")
    fin_path = str(tmp_path / "fin.aut")
    write_automaton(ex_path, example1())
    write_automaton(m3_path, multiples_of(3, 2))
    write_automaton(m33_path, multiples_of(3, 3))
    write_automaton(nat3_path, full_set(3))
    write_automaton(fin_path, finite_set({1, 2, 3}, 2))
    bad_path = str(tmp_path / "bad.aut")
    with open(bad_path, "w") as fh:
        fh.write("{ not json }")
    zero_doc = {
        "format_version": 1, "base": 2, "state_count": 2, "initial": 0,
        "finals": [1], "contains_zero": False,
        "transitions": [[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]],
    }
    zero_path = str(tmp_path / "zero.aut")
    with open(zero_path, "w") as fh:
        json.dump(zero_doc, fh)

    matrix = [
        (["encode", "6", "2"], 0),
        (["encode", "6", "1"], 2),
        (["decode", "1,1,0", "2"], 0),
        (["decode", "7", "2"], 2),
        (["member", ex_path, "5"], 0),
        (["member", ex_path, "8"], 1),
        (["member", str(tmp_path / "missing.aut"), "1"], 2),
        (["member", bad_path, "1"], 2),
        (["enum", ex_path, "10"], 0),
        (["minimize", ex_path], 0),
        (["trim", ex_path], 0),
        (["right-dense", ex_path], 0),
        (["right-dense", fin_path], 1),
        (["profile", ex_path, "0"], 0),
        (["profile", ex_path, "9"], 2),
        (["witness-nonempty", m3_path], 0),
        (["witness-nonempty", fin_path], 2),
        (["witness-empty", ex_path], 0),
        (["witness-empty", m3_path], 1),
        (["witness-empty", fin_path], 2),
        (["syndetic", m3_path], 0),
        (["syndetic", ex_path], 1),
        (["syndetic", fin_path], 0),
        (["kronecker", "2", "1", "1", "1", "1", "1", "2", "3"], 0),
        (["kronecker", "2", "1", "1", "1", "1", "1", "2", "8"], 2),
        (["kronecker", "2", "1", str(10**400), "1", "1", "1", "2", "3"], 3),
        (["indep", "2", "3"], 0),
        (["indep", "4", "8"], 1),
        (["gaps", ex_path, "--horizon", "128"], 0),
        (["gaps", fin_path, "--horizon", "1"], 2),
        (["refute", nat3_path, ex_path], 0),
        (["refute", m3_path, m33_path], 1),
        (["refute", ex_path, ex_path], 2),
        (["example1"], 0),
        (["member", zero_path, "5"], 2),
        (["member", zero_path, "5", "--lenient"], 0),
        (["no-such-command"], 2),
    ]
    for argv, expected in matrix:
        code = cli_main(argv)
        capsys.readouterr()  # keep per-command output out of the report
        assert code == expected, f"{argv} -> exit {code}, expected {expected}"

    elapsed = time.perf_counter() - start
    _report(7, f"round trips, canonical minimization, serialization, and "
               f"{len(matrix)} CLI exit codes ({elapsed:.2f}s)")
