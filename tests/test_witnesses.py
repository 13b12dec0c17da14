"""Interval witnesses, syndeticity verdicts, gap scans, and cross-base refutation."""

from __future__ import annotations

import sys

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
    Syndetic,
    complete,
    cross_base_refute,
    empty_interval_witness,
    enumerate_elements,
    example1,
    gap_scan,
    has_infinite_language,
    length_profile,
    member,
    minimize,
    nonempty_interval_witness,
    restrict_to_canonical,
    syndetic_decide,
    verify_contradiction,
    verify_interval_witness,
)
from conftest import (
    chain,
    example1_oracle,
    finite_set,
    full_set,
    multiples_of,
    powers_of_two,
    random_recognizable_sets,
    scan_elements,
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


def test_witness_m_is_minimal_against_brute_force():
    coinfinite = lambda prof: not all(prof.cycle_bits)
    cases = [(example1(), 1), (example1(), 3), (multiples_of(3, 2), 1),
             (multiples_of(3, 2), 7), (powers_of_two(), 1), (powers_of_two(), 5)]
    cases += [(s, m) for s in random_recognizable_sets(1001, 8) for m in (1, 4)]
    for s, m_min in cases:
        w = nonempty_interval_witness(s, m_min)
        assert w.m == _brute_first_m(s, m_min, _infinite)
    for s in [example1(), powers_of_two()] + random_recognizable_sets(1002, 8):
        w = empty_interval_witness(s)
        if w is not None:
            assert w.m == _brute_first_m(s, 1, coinfinite)


@st.composite
def _canonical_sets(draw) -> RecognizableSet:
    base = draw(st.sampled_from((2, 3)))
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
    got = enumerate_elements(s, len(expected) + 1)
    assert got[:len(expected)] == expected
    assert all(x > bound for x in got[len(expected):])
    if has_infinite_language(s.dfa):
        # m_min's digits bound the first length searched, so this exercises backtracking
        assert nonempty_interval_witness(s, m_min).m == _brute_first_m(s, m_min, _infinite)


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
    from recset import IntervalWitness, encode, subset_step

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


def _record_calls(monkeypatch, function: str) -> list:
    """Route every recset binding of an automata function through a recorder of its inputs."""
    from recset import automata
    original = getattr(automata, function)
    inputs = []

    def recording(dfa):
        inputs.append(dfa)
        return original(dfa)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "recset" and getattr(module, function, None) is original:
            monkeypatch.setattr(module, function, recording)
    return inputs


@pytest.mark.parametrize("call", [
    lambda p, q: cross_base_refute(p, q),
    lambda p, q: syndetic_decide(q),
    lambda p, q: nonempty_interval_witness(p, 1),
    lambda p, q: empty_interval_witness(q),
], ids=["refute", "syndetic", "nonempty", "empty"])
def test_minimize_runs_at_most_once_per_set(monkeypatch, call):
    set_p, set_q = full_set(3), example1()  # a known-different pair
    inputs = _record_calls(monkeypatch, "minimize")
    assert call(set_p, set_q) is not None
    assert inputs
    assert all(d is set_p.dfa or d is set_q.dfa for d in inputs)
    assert sum(d is set_p.dfa for d in inputs) <= 1
    assert sum(d is set_q.dfa for d in inputs) <= 1


def test_refute_checks_each_set_for_infiniteness_once(monkeypatch):
    set_p, set_q = full_set(3), example1()
    inputs = _record_calls(monkeypatch, "has_infinite_language")
    assert cross_base_refute(set_p, set_q) is not None
    assert inputs
    assert sum(d is set_p.dfa for d in inputs) <= 1
    assert sum(d is set_q.dfa for d in inputs) <= 1


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
    cert = verdict.certificate
    assert cert.threshold == 2
    assert cert.bound == 8
    assert cert.per_state_thresholds == {1: 1, 2: 2, 3: 0}
    assert gap_scan(multiples_of(3, 2), 10_000).max_gap == 3 <= cert.bound


def test_syndetic_certificate_naturals():
    verdict = syndetic_decide(full_set(2))
    assert verdict.certificate.threshold == 0
    assert verdict.certificate.bound == 2


def test_syndetic_bound_is_sound_on_random_corpus():
    for s in random_recognizable_sets(909, 10):
        verdict = syndetic_decide(s)
        if isinstance(verdict, Syndetic):
            bound = verdict.certificate.bound
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
    with pytest.raises(FiniteSetError):
        cross_base_refute(finite_set({1, 2}, 3), example1())


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
    import recset.witnesses as witnesses
    set_p, set_q = chain(7, 5), chain(8, 2)
    nf = set_p.normal_form
    # reference: exact-depth layers, scanned up to and including the first repeat
    ref = [nf.finals]
    while ref[-1] not in ref[:-1]:
        ref.append(frozenset(s for s in range(nf.state_count)
                             if any(t in ref[-1] for t in nf.rows[s].values())))
    pre = ref.index(ref[-1])
    period = len(ref) - 1 - pre
    captured = []
    original = witnesses._ordered_paths

    def spy(rows, p, start, layers, t, first=1, bound=None):
        if first == 0:  # the certificate element's extension, not a witness search
            captured.append((list(layers), t))
        return original(rows, p, start, layers, t, first, bound)

    monkeypatch.setattr(witnesses, "_ordered_paths", spy)
    cert = cross_base_refute(set_p, set_q)
    assert cert is not None and verify_contradiction(cert, set_p, set_q)
    [(layers, depth)] = captured
    assert depth > 10 * (pre + period)  # 377 digits after m, against 7 distinct layers
    assert layers == [ref[i] if i < pre else ref[pre + (i - pre) % period] for i in range(depth)]
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
