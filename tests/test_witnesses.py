"""Interval witnesses, syndeticity verdicts, gap scans, and cross-base refutation."""

from __future__ import annotations

import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from recset import (
    Dfa,
    FiniteSetError,
    Finite,
    InsufficientDataError,
    NotSyndetic,
    PreconditionError,
    RecognizableSet,
    SearchCapExceededError,
    Syndetic,
    complete,
    cross_base_refute,
    empty_interval_witness,
    encode,
    enumerate_elements,
    example1,
    gap_scan,
    length_profile,
    member,
    minimize,
    nonempty_interval_witness,
    restrict_to_canonical,
    syndetic_decide,
    verify_contradiction,
    verify_interval_witness,
)
from recset import lengths
from conftest import (
    chain,
    example1_oracle,
    fan_out_cycles,
    finite_set,
    full_set,
    is_infinite_language,
    multiples_of,
    powers_of_two,
    prime_cycles,
    random_recognizable_sets,
    scan_elements,
    subset_step,
    walk_profile,
)


def _interval_has_member_scan(s, lo, hi):
    """Direct scan oracle; only for small intervals."""
    return any(member(s, x) for x in range(lo, hi))


def _interval_has_multiple_of(k, lo, hi):
    """Arithmetic oracle: does [lo, hi) contain a multiple of k?"""
    return (hi - 1) // k >= (lo + k - 1) // k


# -- nonempty witnesses -------------------------------------------------------

def test_nonempty_witness_multiples_of_3():
    s = multiples_of(3, 2)
    w = nonempty_interval_witness(s, 1)
    assert w.kind == "nonempty"
    for k in range(9):
        lo = w.m * 2 ** (w.a + w.b * k)
        hi = (w.m + 1) * 2 ** (w.a + w.b * k)
        assert _interval_has_multiple_of(3, lo, hi)
    assert verify_interval_witness(s, w)


def test_nonempty_witness_example1_golden():
    s = example1()
    w = nonempty_interval_witness(s, 1)
    assert (w.m, w.a, w.b) == (1, 2, 2)
    # closed form: [2^t, 2^(t+1)) is inside the set iff t is even
    for k in range(9):
        t = w.a + w.b * k
        assert t % 2 == 0
        assert example1_oracle(2**t)


def test_nonempty_witness_respects_m_min():
    s = example1()
    w = nonempty_interval_witness(s, 2)
    assert w.m == 2
    for k in range(6):
        lo = w.m * 2 ** (w.a + w.b * k)
        hi = (w.m + 1) * 2 ** (w.a + w.b * k)
        if hi - lo <= 1 << 16:
            assert _interval_has_member_scan(s, lo, hi)
    w5 = nonempty_interval_witness(s, 5)
    assert w5.m >= 5
    assert verify_interval_witness(s, w5)


def test_nonempty_witness_minimality_of_m():
    # smallest valid m is found: for powers of two every path state has
    # infinite length set, so m_min itself qualifies whenever its path exists
    s = powers_of_two()
    assert nonempty_interval_witness(s, 1).m == 1
    assert nonempty_interval_witness(s, 3).m == 4  # 3 has no live path


def test_nonempty_witness_finite_set_errors():
    with pytest.raises(FiniteSetError):
        nonempty_interval_witness(finite_set({1, 2, 3}, 2), 1)


# -- empty witnesses ----------------------------------------------------------

def test_empty_witness_example1_golden():
    s = example1()
    w = empty_interval_witness(s)
    assert w is not None
    assert (w.m, w.a, w.b) == (1, 1, 2)
    # the family covers exactly the gaps [2*4^i, 4^(i+1))
    for k in range(11):
        lo = w.m * 2 ** (w.a + w.b * k)
        hi = (w.m + 1) * 2 ** (w.a + w.b * k)
        assert not example1_oracle(lo) and not example1_oracle(hi - 1)
        if hi - lo <= 1 << 16:
            assert not _interval_has_member_scan(s, lo, hi)
    assert verify_interval_witness(s, w)


def test_empty_witness_powers_of_two():
    s = powers_of_two()
    w = empty_interval_witness(s)
    assert w is not None
    assert (w.m, w.a, w.b) == (3, 1, 1)
    for k in range(11):
        lo, hi = 3 * 2 ** (1 + k), 4 * 2 ** (1 + k)
        assert not any(x & (x - 1) == 0 for x in range(lo, hi))


def test_empty_witness_absent_for_cofinite_length_sets():
    assert empty_interval_witness(multiples_of(3, 2)) is None
    assert empty_interval_witness(multiples_of(3, 3)) is None
    assert empty_interval_witness(full_set(2)) is None


def test_empty_witness_finite_set_errors():
    with pytest.raises(FiniteSetError):
        empty_interval_witness(finite_set({4}, 2))


def test_empty_witness_from_dying_paths():
    # every length set of the live states is all of N here, yet the set has
    # unbounded gaps because most digit paths fall off the automaton
    s = powers_of_two()
    dfa = complete(minimize(s.dfa))
    live_profiles = [length_profile(dfa, st) for st in (0, 1)]
    assert all(all(p.cycle_bits) for p in live_profiles)
    w = empty_interval_witness(s)
    assert w is not None  # the completion sink carries the witness


def _ones_then_parity(c: int) -> RecognizableSet:
    """Base 2: the canonical words, less 1^(c+1) followed by an odd number of digits.

    A word with a 0 among its first c+1 digits leads to a state that accepts
    everything; 1^j, j <= c, accepts every length.  Only 1^(c+1) and its
    extensions miss infinitely many lengths, so the least m of an empty
    witness is 2^(c+1) - 1, c digit lengths longer than m = 1.
    """
    free, even, odd = c + 1, c + 2, c + 3
    transitions = {(0, 1): 1, (c, 1): even}
    for j in range(1, c + 1):
        transitions[(j, 0)] = free
        if j < c:
            transitions[(j, 1)] = j + 1
    for d in (0, 1):
        transitions.update({(free, d): free, (even, d): odd, (odd, d): even})
    return RecognizableSet(Dfa(2, c + 4, 0, set(range(1, c + 1)) | {free, even}, transitions))


@pytest.mark.parametrize("c", [2, 5])
def test_empty_search_runs_past_the_first_length(c):
    # the least m has c + 1 digits, c lengths past the first one searched
    assert empty_interval_witness(_ones_then_parity(c)).m == 2 ** (c + 1) - 1


def test_nonempty_search_runs_one_length_on():
    # words starting 10: after 11 nothing qualifies, so from m_min = 3 the
    # least m is 4, one digit length on.  No set needs more: a qualifying
    # nonempty state's one-digit-shorter prefix qualifies too
    s = RecognizableSet(Dfa(2, 3, 0, {2}, {(0, 1): 1, (1, 0): 2, (2, 0): 2, (2, 1): 2}))
    assert nonempty_interval_witness(s, m_min=3).m == 4


def test_witnesses_on_random_corpus():
    for s in random_recognizable_sets(808, 12):
        nw = nonempty_interval_witness(s, 1)
        assert verify_interval_witness(s, nw)
        ew = empty_interval_witness(s)
        if ew is not None:
            assert verify_interval_witness(s, ew)
            for k in range(4):
                lo = ew.m * s.base ** (ew.a + ew.b * k)
                hi = (ew.m + 1) * s.base ** (ew.a + ew.b * k)
                if hi - lo <= 1 << 14:
                    assert not _interval_has_member_scan(s, lo, hi)


def _brute_first_m(s, m_min, predicate):
    """Scan m upward on the completed minimal automaton; reference for witness m."""
    from recset import encode
    dfa = complete(minimize(s.dfa))
    profiles = {}
    for m in range(m_min, m_min + 4096):
        end = dfa.walk(dfa.initial, encode(m, s.base))
        if end not in profiles:
            profiles[end] = length_profile(dfa, end)
        if predicate(profiles[end]):
            return m
    raise AssertionError("oracle scan exhausted")


def _infinite(prof):
    return any(prof.cycle_bits)


def _coinfinite(prof):
    return not all(prof.cycle_bits)


def test_witness_m_is_minimal_against_brute_force():
    def check_a_and_b(s, w):
        # b is the state's period, a the least length past its preperiod of the kind's bit
        prof = walk_profile(complete(minimize(s.dfa)), w.state)
        assert w.b == prof.period
        bit = 1 if w.kind == "nonempty" else 0
        assert w.a == next(n for n in range(prof.preperiod + 1, prof.preperiod + prof.period + 1)
                           if prof.bit(n) == bit)

    cases = [(example1(), 1), (example1(), 3), (multiples_of(3, 2), 1),
             (multiples_of(3, 2), 7), (powers_of_two(), 1), (powers_of_two(), 5)]
    cases += [(s, m) for s in random_recognizable_sets(1001, 8) for m in (1, 4)]
    for s, m_min in cases:
        w = nonempty_interval_witness(s, m_min)
        assert w.m == _brute_first_m(s, m_min, _infinite)
        check_a_and_b(s, w)
    for s in [example1(), powers_of_two()] + random_recognizable_sets(1002, 8):
        w = empty_interval_witness(s)
        if w is not None:
            assert w.m == _brute_first_m(s, 1, _coinfinite)
            check_a_and_b(s, w)


@st.composite
def _canonical_sets(draw) -> RecognizableSet:
    base = draw(st.sampled_from((2, 3, 5, 10)))
    n = draw(st.integers(1, 5))
    state = st.integers(0, n - 1)
    transitions = draw(st.dictionaries(st.tuples(state, st.integers(0, base - 1)), state))
    dfa = Dfa(base, n, draw(state), draw(st.frozensets(state)), transitions)
    return RecognizableSet(restrict_to_canonical(dfa), contains_zero=draw(st.booleans()))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_canonical_sets(), st.integers(1, 200))
def test_enumeration_and_witness_m_match_brute_force(s, m_min):
    bound = 600
    expected = scan_elements(s, bound)
    got = list(enumerate_elements(s, len(expected) + 1))
    assert got[:len(expected)] == expected
    assert all(x > bound for x in got[len(expected):])
    if is_infinite_language(s.dfa):
        # m_min's digits bound the first length searched, so this exercises backtracking
        assert nonempty_interval_witness(s, m_min).m == _brute_first_m(s, m_min, _infinite)
        w = empty_interval_witness(s)
        if w is not None:
            assert w.m == _brute_first_m(s, 1, _coinfinite)


def test_verify_rejects_tampered_witness():
    s = example1()
    w = empty_interval_witness(s)
    from recset import IntervalWitness
    bad_a = IntervalWitness(w.m, w.a + 1, w.b, w.state, w.kind)
    assert not verify_interval_witness(s, bad_a)
    bad_kind = IntervalWitness(w.m, w.a, w.b, w.state, "nonempty")
    assert not verify_interval_witness(s, bad_kind)
    bad_state = IntervalWitness(w.m, w.a, w.b, w.state + 1, w.kind)
    assert not verify_interval_witness(s, bad_state)
    from recset import ValidationError
    for params in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
        with pytest.raises(ValidationError):
            IntervalWitness(*params, w.state, w.kind)
    with pytest.raises(ValidationError):
        IntervalWitness(w.m, w.a, w.b, w.state, "full")
    # a parameter of 0 set past the constructor: the verifiers check again, as
    # b = 0 would divide by zero in the stride count
    from dataclasses import replace
    cert = cross_base_refute(full_set(3), s)
    assert verify_contradiction(cert, full_set(3), s)
    for field in ("m", "a", "b"):
        bad = replace(w)
        object.__setattr__(bad, field, 0)
        assert not verify_interval_witness(s, bad)
        ew = replace(cert.base_q_witness)
        object.__setattr__(ew, field, 0)
        assert not verify_contradiction(replace(cert, base_q_witness=ew), full_set(3), s)


def test_verify_rejects_family_that_fails_only_at_k_9():
    # 1 followed by a 10-cycle c0..c9 that every digit advances, all of it
    # final except c0: [2^(1+k), 2^(2+k)) meets the set unless 1+k is a
    # multiple of 10, so the first empty interval is [1024, 2048), at k = 9
    from recset import Dfa, IntervalWitness, RecognizableSet
    transitions = {(0, 1): 1}
    transitions.update({(1 + i, d): 1 + (i + 1) % 10 for i in range(10) for d in (0, 1)})
    s = RecognizableSet(Dfa(2, 11, 0, frozenset(range(2, 11)), transitions))
    dfa = complete(minimize(s.dfa))
    c0 = dfa.walk(dfa.initial, [1])
    assert not _interval_has_member_scan(s, 1024, 2048)
    assert not verify_interval_witness(s, IntervalWitness(1, 1, 1, c0, "nonempty"))
    assert verify_interval_witness(s, IntervalWitness(1, 1, 10, c0, "nonempty"))
    assert verify_interval_witness(s, IntervalWitness(1, 10, 10, c0, "empty"))
    # depths are reduced onto the walk's recurrence, so huge a and b cost nothing extra
    assert verify_interval_witness(s, IntervalWitness(1, 10**12, 10**13, c0, "empty"))
    assert not verify_interval_witness(s, IntervalWitness(1, 10**12, 10**13 + 1, c0, "empty"))


def test_verify_matches_a_deep_stride_walk():
    # reference: the subset walk taken stride by stride for 200 strides, far
    # past every preperiod and period of these small automata
    import itertools
    from recset import IntervalWitness, encode

    def deep_walk(s, w):
        dfa = s.normal_form
        current = frozenset({w.state})
        for _ in range(w.a):
            current = subset_step(dfa, current)
        for _ in range(200):
            if bool(current & dfa.finals) != (w.kind == "nonempty"):
                return False
            for _ in range(w.b):
                current = subset_step(dfa, current)
        return True

    checked = held = 0
    for s in [example1(), powers_of_two()] + random_recognizable_sets(4242, 10):
        dfa = s.normal_form
        for m in range(1, 7):
            state = dfa.walk(dfa.initial, encode(m, s.base))
            for a, b, kind in itertools.product((1, 2, 5), (1, 2, 3, 4), ("nonempty", "empty")):
                w = IntervalWitness(m, a, b, state, kind)
                result = verify_interval_witness(s, w)
                assert result == deep_walk(s, w), w
                checked += 1
                held += result
    assert 0 < held < checked


def _record_calls(monkeypatch, function: str, owner: str = "automata") -> list:
    """Route every recset binding of an `owner` module's function through a recorder.

    The recorder keeps each call's first argument.
    """
    original = getattr(sys.modules[f"recset.{owner}"], function)
    inputs = []

    def recording(first, *args, **kwargs):
        inputs.append(first)
        return original(first, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "recset" and getattr(module, function, None) is original:
            monkeypatch.setattr(module, function, recording)
    return inputs


# the four decisions, each called on a known-different pair
DECISIONS = {
    "refute": lambda p, q: cross_base_refute(p, q),
    "syndetic": lambda p, q: syndetic_decide(q),
    "nonempty": lambda p, q: nonempty_interval_witness(p, 1),
    "empty": lambda p, q: empty_interval_witness(q),
}
ENTRY_POINTS = pytest.mark.parametrize("call", DECISIONS.values(), ids=DECISIONS)


@ENTRY_POINTS
def test_minimize_runs_at_most_once_per_set(monkeypatch, call):
    set_p, set_q = full_set(3), example1()
    inputs = _record_calls(monkeypatch, "minimize")
    assert call(set_p, set_q) is not None
    assert inputs
    assert all(d is set_p.dfa or d is set_q.dfa for d in inputs)
    assert sum(d is set_p.dfa for d in inputs) <= 1
    assert sum(d is set_q.dfa for d in inputs) <= 1


@ENTRY_POINTS
def test_profiles_run_at_most_once_per_set(monkeypatch, call):
    # the searches and the verifiers all read one table of qualifying profiles per set
    set_p, set_q = full_set(3), example1()
    inputs = _record_calls(monkeypatch, "_reachable_profiles", "lengths")
    assert call(set_p, set_q) is not None
    forms = (set_p.normal_form, set_q.normal_form)
    assert inputs
    assert all(any(d is nf for nf in forms) for d in inputs)
    assert all(sum(d is nf for d in inputs) <= 1 for nf in forms)


@ENTRY_POINTS
def test_components_run_at_most_once_per_set(monkeypatch, call):
    # finiteness and the profile table read one walk of each set's qualifying components
    set_p, set_q = full_set(3), example1()
    inputs = _record_calls(monkeypatch, "_components", "lengths")
    assert call(set_p, set_q) is not None
    forms = (set_p.normal_form.rows, set_q.normal_form.rows)
    assert inputs
    assert all(any(rows is r for r in forms) for rows in inputs)
    assert all(sum(rows is r for rows in inputs) <= 1 for r in forms)


def test_verifier_on_a_fresh_set_accepts_found_witnesses_and_rejects_tampered_ones(corpus):
    # a fresh set has no profile table yet: the verifier builds it and reads w.state's row
    from dataclasses import replace
    rejected = dict.fromkeys(("m", "a", "b", "state"), 0)
    for s in corpus.values():
        nf = s.normal_form
        for w in filter(None, (nonempty_interval_witness(s), empty_interval_witness(s))):
            assert verify_interval_witness(RecognizableSet(s.dfa, s.contains_zero), w)
            prof = walk_profile(nf, w.state)
            wrong = [n for n in range(1, w.a + prof.period + 1) if prof.bit(n) != (w.kind == "nonempty")]
            tampered = {"state": [replace(w, state=(w.state + 1) % nf.state_count)],
                        "a": [replace(w, a=n) for n in wrong[:1]],
                        "b": [replace(w, b=n - w.a) for n in wrong if n > w.a][:1],
                        "m": [replace(w, m=m) for m in range(1, 100)
                              if nf.walk(nf.initial, encode(m, s.base)) != w.state][:1]}
            for field, bad in tampered.items():
                for b in bad:
                    assert not verify_interval_witness(RecognizableSet(s.dfa, s.contains_zero), b), b
                    rejected[field] += 1
    assert all(rejected.values()), rejected


def test_verifier_profiles_the_whole_qualifying_table():
    # m = 10 reaches the entry of the 2-cycle, whose own profile has period 2, but
    # the qualifying table holds the fan-out state, whose lengths recur only after
    # lcm(2..19) depths, past the cap.  No search returns this witness: each reads
    # that same table
    from recset import IntervalWitness
    s = prime_cycles(primes=(2, 3, 5, 7, 11, 13, 17, 19), fan_out=True)
    nf = s.normal_form
    state = nf.walk(nf.initial, encode(10, 10))
    assert length_profile(nf, state).period == 2
    with pytest.raises(SearchCapExceededError):
        verify_interval_witness(s, IntervalWitness(10, 2, 2, state, "nonempty"))


@pytest.mark.parametrize("call", [
    *DECISIONS.values(),
    lambda p, q: minimize(p.dfa),
    lambda p, q: list(enumerate_elements(q, 5)),
], ids=[*DECISIONS, "minimize", "enum"])
def test_decisions_never_trim(monkeypatch, call):
    # the normal form and enumeration read only the reachable part, and
    # refinement merges the dead states into one class: nothing trims the input
    set_p, set_q = full_set(3), example1()
    inputs = _record_calls(monkeypatch, "trim")
    assert call(set_p, set_q) is not None
    assert not any(d is set_p.dfa or d is set_q.dfa for d in inputs)


@pytest.mark.parametrize("s", [
    finite_set((), 3),
    finite_set({0}, 3),
    finite_set({7}, 3),
], ids=["empty", "zero", "seven"])
def test_finite_sets_read_off_the_profiles(s):
    assert syndetic_decide(s) == Finite()
    with pytest.raises(FiniteSetError, match="^the set is finite: no nonempty interval family exists$"):
        nonempty_interval_witness(s)
    with pytest.raises(FiniteSetError, match="^the set is finite: use a direct scan instead$"):
        empty_interval_witness(s)


def _numbers_of_length(length: int) -> RecognizableSet:
    """The binary numbers with exactly `length` digits: a path of length + 1 states."""
    transitions = {(0, 1): 1}
    transitions.update({(i, d): i + 1 for i in range(1, length) for d in (0, 1)})
    return RecognizableSet(Dfa(2, length + 1, 0, frozenset({length}), transitions))


def test_finiteness_never_meets_the_cap(monkeypatch):
    # the 20-digit numbers' profile table runs 20 depths, past a cap of 8; finiteness
    # is read off the normal form's cycles, so no decision builds that table
    fin, nat3 = _numbers_of_length(20), full_set(3)
    monkeypatch.setattr(lengths, "DEFAULT_SUBSET_CAP", 8)
    passes = _record_calls(monkeypatch, "_reachable_profiles", "lengths")
    assert syndetic_decide(fin) == Finite()
    with pytest.raises(FiniteSetError, match="^the set is finite: no nonempty interval family exists$"):
        nonempty_interval_witness(fin)
    with pytest.raises(FiniteSetError, match="^the set is finite: use a direct scan instead$"):
        empty_interval_witness(fin)
    for pair in (nat3, fin), (fin, nat3):
        with pytest.raises(FiniteSetError, match="^both sets must be infinite$"):
            cross_base_refute(*pair)
    assert passes == []


def test_a_long_finite_set_runs_no_length_engine():
    # the engine would hold about L**2/2 vectors on this path of L = 3000 states
    s = _numbers_of_length(3000)
    s.normal_form
    tracemalloc.start()
    try:
        assert syndetic_decide(s) == Finite()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_a_long_acyclic_path_keeps_its_table_small():
    # the numbers with at least 2000 binary digits: a path of 2000 singleton
    # components, each filing its own profile and no history of its successors
    length = 2000
    transitions = {(0, 1): 1}
    transitions.update({(i, d): min(i + 1, length) for i in range(1, length + 1) for d in (0, 1)})
    s = RecognizableSet(Dfa(2, length + 1, 0, frozenset({length}), transitions))
    s.normal_form
    tracemalloc.start()
    try:
        verdict = syndetic_decide(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(verdict, Syndetic) and verdict.threshold == 1999
    assert peak < 8 << 20


def test_qualifying_profiles_take_no_single_state_walk(monkeypatch):
    # 2001 qualifying states share one component, profiled in one pass that
    # files each of them; no single-state profile runs beside it
    walks = _record_calls(monkeypatch, "length_profile", "lengths")
    passes = _record_calls(monkeypatch, "_reachable_profiles", "lengths")
    s = multiples_of(2001, 2)
    assert isinstance(syndetic_decide(s), Syndetic)
    assert (len(walks), len(passes), len(s.profiles)) == (0, 1, 2001)


def test_prime_cycles_are_profiled_one_component_at_a_time(monkeypatch):
    # one pass over all seven cycles together would run lcm(2..17) = 510510 depths;
    # `_min_period` receives each pass's whole history of vectors.  The decision
    # profiles the seven cycles once, and the verifier reads the same table
    histories = _record_calls(monkeypatch, "_min_period", "lengths")
    s = prime_cycles()
    verdict = syndetic_decide(s)
    assert isinstance(verdict, NotSyndetic)
    lengths_seen = [len(h) for h in histories]
    assert sorted(lengths_seen[:7]) == [2, 3, 5, 7, 11, 13, 17]
    assert len(lengths_seen) == 7


@pytest.mark.parametrize("last_prime", [19, 29])
def test_qualifying_profiles_keep_the_subset_cap(last_prime):
    # the fan-out state's lengths recur after lcm(2..19) = 9 699 690 or
    # lcm(2..29) = 6 469 693 230 depths, both past the cap; the engine stops
    # before its first depth instead of storing a million vectors
    primes = tuple(p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29) if p <= last_prime)
    s = prime_cycles(primes=primes, fan_out=True)
    tracemalloc.start()
    try:
        for search in (syndetic_decide, empty_interval_witness):
            with pytest.raises(SearchCapExceededError) as err:
                search(s)
            assert err.value.cap == lengths.DEFAULT_SUBSET_CAP
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_a_cap_error_is_never_kept(monkeypatch):
    s = example1()
    monkeypatch.setattr(lengths, "DEFAULT_SUBSET_CAP", 1)
    with pytest.raises(SearchCapExceededError):
        s.profiles
    assert "profiles" not in s.__dict__
    monkeypatch.undo()
    assert s.profiles == example1().profiles
    assert "profiles" in s.__dict__


def test_verifier_reads_the_witness_state_profile(capsys, tmp_path):
    # every profile has period 1, while the subsets reached from the fan-out
    # state recur only after lcm(2..29) = 6 469 693 230 digits: the verifier
    # reads the fan-out state's profile, not a walk over those subsets
    from recset import IntervalWitness, write_automaton
    from recset.cli import main
    s = fan_out_cycles(primes=(2, 3, 5, 7, 11, 13, 17, 19, 23, 29))
    tracemalloc.start()
    try:
        w = nonempty_interval_witness(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (w.m, w.a, w.b, w.kind) == (1, 2, 1, "nonempty")
    assert verify_interval_witness(s, w)
    assert not verify_interval_witness(s, IntervalWitness(1, 2, 1, w.state, "empty"))
    assert peak < 2 << 20
    assert isinstance(syndetic_decide(s), Syndetic)
    path = tmp_path / "fan.aut"
    write_automaton(path, s)
    assert main(["witness-nonempty", str(path)]) == 0
    assert capsys.readouterr().out.startswith("kind: nonempty\nm: 1\na: 2\nb: 1\n")


def test_single_state_profile_reads_its_cycle_period():
    # state 5 lies on a 999-state cycle: one component, all of whose states
    # share the period 999
    prof = length_profile(chain(1000, 2).dfa, 5)
    assert prof.period == 999


# -- syndeticity --------------------------------------------------------------

def test_syndetic_verdicts_on_corpus(corpus):
    assert isinstance(syndetic_decide(corpus["example1"]), NotSyndetic)
    assert isinstance(syndetic_decide(corpus["powers2"]), NotSyndetic)
    assert isinstance(syndetic_decide(corpus["mult3_base2"]), Syndetic)
    assert isinstance(syndetic_decide(corpus["mult3_base3"]), Syndetic)
    assert isinstance(syndetic_decide(corpus["naturals2"]), Syndetic)
    assert isinstance(syndetic_decide(finite_set({1, 5, 9}, 2)), Finite)


def test_syndetic_certificate_multiples_of_3():
    verdict = syndetic_decide(multiples_of(3, 2))
    assert verdict.threshold == 2
    assert verdict.bound == 8
    assert verdict.per_state_thresholds == {1: 1, 2: 2, 3: 0}
    assert gap_scan(multiples_of(3, 2), 10_000).max_gap == 3 <= verdict.bound


def test_syndetic_certificate_naturals():
    verdict = syndetic_decide(full_set(2))
    assert verdict.threshold == 0
    assert verdict.bound == 2


def test_syndetic_bound_is_sound_on_random_corpus():
    for s in random_recognizable_sets(909, 10):
        verdict = syndetic_decide(s)
        if isinstance(verdict, Syndetic):
            bound = verdict.bound
            horizon = max(100_000, 4 * bound * s.base)
            assert gap_scan(s, horizon).max_gap <= bound
        else:
            assert isinstance(verdict, NotSyndetic)
            # the family is empty for every k, so empty intervals of every
            # size exist within it
            assert verify_interval_witness(s, verdict.witness)


def test_not_syndetic_when_digit_paths_die():
    # language 1 + 10{0,1}*: the set {1} and all of [2^(t+1), 3*2^t).
    # Every surviving state accepts all large lengths, but words starting 11
    # fall off the automaton, so [3*2^t, 4*2^t) is always empty and the gaps
    # are unbounded.  The completion sink must carry the verdict.
    from recset import Dfa, RecognizableSet
    dfa = Dfa(2, 3, 0, frozenset({1, 2}),
              {(0, 1): 1, (1, 0): 2, (2, 0): 2, (2, 1): 2})
    s = RecognizableSet(dfa)
    for st in range(minimize(dfa).state_count):
        prof = length_profile(minimize(dfa), st)
        assert all(prof.cycle_bits)  # every surviving state is cofinite
    verdict = syndetic_decide(s)
    assert isinstance(verdict, NotSyndetic)
    w = verdict.witness
    assert (w.m, w.a, w.b) == (3, 1, 1)
    assert verify_interval_witness(s, w)
    for k in range(8):
        lo, hi = 3 * 2 ** (1 + k), 4 * 2 ** (1 + k)
        assert not _interval_has_member_scan(s, lo, hi)
    assert gap_scan(s, 3 * 2**10).max_gap >= 2**8


def test_syndetic_and_witness_verdicts_are_exclusive(corpus):
    for s in list(corpus.values()) + random_recognizable_sets(707, 10):
        verdict = syndetic_decide(s)
        if isinstance(verdict, Syndetic):
            assert empty_interval_witness(s) is None
        elif isinstance(verdict, NotSyndetic):
            assert empty_interval_witness(s) is not None


# -- gap scans ----------------------------------------------------------------

def test_gap_scan_example1():
    result = gap_scan(example1(), 128)
    assert result.max_gap == 33
    assert result.positions == ((31, 64),)


def test_gap_scan_multiples_and_naturals():
    assert gap_scan(multiples_of(3, 2), 10_000).max_gap == 3
    assert gap_scan(full_set(2), 100).max_gap == 1
    assert gap_scan(full_set(2), 100).positions[0] == (0, 1)


def test_gap_scan_reaches_into_a_second_length():
    # elements have 9 or 18 binary digits below this horizon: [256, 512) and [2**17, ...)
    s, horizon = chain(10, 2), 2**17 + 1000
    xs = scan_elements(s, horizon)
    gaps = [(y - x, (x, y)) for x, y in zip(xs, xs[1:])]
    best = max(g for g, _ in gaps)
    result = gap_scan(s, horizon)
    assert result.max_gap == best == 2**17 - 511
    assert result.positions == tuple(pair for g, pair in gaps if g == best)


def test_gap_scan_insufficient_data():
    with pytest.raises(InsufficientDataError):
        gap_scan(finite_set({5}, 2), 100)
    with pytest.raises(InsufficientDataError):
        gap_scan(example1(), 3)  # only the element 1 is <= 3
    with pytest.raises(PreconditionError):
        gap_scan(example1(), 0)


# -- cross-base refutation ----------------------------------------------------

def test_refute_naturals_vs_example1_golden():
    nat3 = full_set(3)
    ex1 = example1()
    cert = cross_base_refute(nat3, ex1)
    assert cert is not None
    assert (cert.base_p, cert.base_q) == (3, 2)
    nw, ew, kw = cert.base_p_witness, cert.base_q_witness, cert.kronecker
    assert (nw.m, nw.a, nw.b) == (2, 1, 1)
    assert (ew.m, ew.a, ew.b) == (1, 1, 2)
    assert (kw.k, kw.ell) == (3, 3)
    assert cert.element == 162
    # nesting chain recomputed by hand: 128 <= 162 < 243 <= 256
    assert 1 * 2**7 <= 2 * 3**4 < 3 * 3**4 <= 2 * 2**7
    assert verify_contradiction(cert, nat3, ex1)
    assert member(nat3, cert.element)
    assert not member(ex1, cert.element)


def test_refute_absent_for_genuinely_equal_sets():
    assert cross_base_refute(multiples_of(3, 2), multiples_of(3, 3)) is None


def test_refute_rejects_dependent_bases():
    with pytest.raises(PreconditionError):
        cross_base_refute(full_set(2), full_set(4))
    with pytest.raises(PreconditionError):
        cross_base_refute(full_set(2), example1())  # same base


def test_refute_rejects_finite_inputs():
    with pytest.raises(FiniteSetError, match="^both sets must be infinite$"):
        cross_base_refute(finite_set({1, 2}, 3), example1())
    # the second set has no empty family, but the first is still checked
    with pytest.raises(FiniteSetError, match="^both sets must be infinite$"):
        cross_base_refute(finite_set({1, 2}, 3), full_set(2))
    with pytest.raises(FiniteSetError, match="^both sets must be infinite$"):
        cross_base_refute(full_set(3), finite_set({1, 2}, 2))


def test_refute_defers_a_profile_cap_until_the_profiles_are_needed():
    # the fan-out set's recurrence passes the subset cap, so its profiles raise
    fan = prime_cycles(primes=(2, 3, 5, 7, 11, 13, 17, 19), fan_out=True)
    # the second set has no empty family, so the first set's profiles are never read
    assert cross_base_refute(fan, full_set(3)) is None
    # a finite set is found whichever side it is on
    with pytest.raises(FiniteSetError, match="^both sets must be infinite$"):
        cross_base_refute(fan, finite_set({1, 2}, 3))
    with pytest.raises(FiniteSetError, match="^both sets must be infinite$"):
        cross_base_refute(finite_set({1, 2}, 3), fan)
    # when the profiles are needed, the cap error still surfaces
    with pytest.raises(SearchCapExceededError):
        cross_base_refute(fan, example1())
    with pytest.raises(SearchCapExceededError):
        cross_base_refute(full_set(3), fan)


def test_refute_certificate_tampering_detected():
    from dataclasses import replace
    nat3 = full_set(3)
    ex1 = example1()
    cert = cross_base_refute(nat3, ex1)
    hi_p = (cert.base_p_witness.m + 1) * 3 ** (cert.base_p_witness.a
                                               + cert.base_p_witness.b * cert.kronecker.k)
    assert not verify_contradiction(replace(cert, element=hi_p), nat3, ex1)
    assert not verify_contradiction(replace(cert, element=0), nat3, ex1)
    assert not verify_contradiction(replace(cert, base_p=5), nat3, ex1)
    from recset import KroneckerWitness
    assert not verify_contradiction(
        replace(cert, kronecker=KroneckerWitness(cert.kronecker.k + 1, cert.kronecker.ell)),
        nat3, ex1)
    swapped = replace(cert, base_p_witness=cert.base_q_witness, base_q_witness=cert.base_p_witness)
    assert not verify_contradiction(swapped, nat3, ex1)
    # bases 2 and 4 are dependent, so no certificate holds for them
    assert not verify_contradiction(replace(cert, base_p=2, base_q=4), full_set(2), full_set(4))
    # the element must lie in the first set
    assert not member(multiples_of(5, 3), cert.element)
    assert not verify_contradiction(cert, multiples_of(5, 3), ex1)


def test_refute_random_cross_base_pairs():
    lhs = random_recognizable_sets(2101, 6, bases=(2,))
    rhs = random_recognizable_sets(2102, 6, bases=(3,))
    certified = 0
    for set_p, set_q in zip(lhs, rhs):
        cert = cross_base_refute(set_p, set_q)
        if cert is None:
            assert empty_interval_witness(set_q) is None
        else:
            certified += 1
            assert verify_contradiction(cert, set_p, set_q)
    assert certified > 0  # seed chosen so the pipeline actually fires


def test_refute_certificate_layers_scan_only_to_the_first_repeat(monkeypatch):
    import recset.automata as automata
    set_p, set_q = chain(7, 5), chain(8, 2)
    nf = set_p.normal_form
    # reference: exact-depth layers, scanned up to and including the first repeat
    ref = [nf.finals]
    while ref[-1] not in ref[:-1]:
        ref.append(frozenset(s for s in range(nf.state_count)
                             if any(t in ref[-1] for t in nf.rows[s])))
    pre = ref.index(ref[-1])
    period = len(ref) - 1 - pre
    calls = []
    original = automata._exact_depth_layers

    def spy(dfa, targets):
        calls.append((dfa, targets, []))
        for layer in original(dfa, targets):
            calls[-1][2].append(layer)
            yield layer

    monkeypatch.setattr(automata, "_exact_depth_layers", spy)
    cert = cross_base_refute(set_p, set_q)
    assert cert is not None and verify_contradiction(cert, set_p, set_q)
    # the last walk is the certificate element's: m's digits, then depth more
    dfa, targets, layers = calls[-1]
    assert dfa is nf and targets == nf.finals
    nw = cert.base_p_witness
    depth = nw.a + nw.b * cert.kronecker.k
    assert depth > 10 * (pre + period)  # 377 digits after m, against 7 distinct layers
    length = len(encode(nw.m, 5)) + depth
    assert layers == [ref[i] if i < pre else ref[pre + (i - pre) % period] for i in range(length)]
    scans = len({id(layer) for layer in layers}) - 1  # layers[0] is the finals, not a scan
    assert scans <= pre + period


def test_refute_more_pairs():
    # multiples of 3 in base 2 against the naturals in base 3: the second set
    # has cofinite length sets everywhere, so this route cannot separate them
    assert cross_base_refute(multiples_of(3, 2), full_set(3)) is None
    # but with the gappy set second it does separate
    cert = cross_base_refute(multiples_of(3, 3), example1())
    assert cert is not None
    assert verify_contradiction(cert, multiples_of(3, 3), example1())
