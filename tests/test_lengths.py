"""Length-set profiles: the per-component engine against the forward walk, reduction, cofiniteness."""

from __future__ import annotations

import itertools
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from recset import (
    Dfa,
    SearchCapExceededError,
    UltimatePeriod,
    ValidationError,
    cofinite_threshold,
    complete,
    example1,
    length_profile,
    trim,
)
from recset.automata import _reachable
from recset import lengths
from recset.lengths import _components, _reachable_profiles
from conftest import full_set, multiples_of, random_dfa, subset_step, walk_profile


def _oracle_bits(dfa: Dfa, state: int, upto: int) -> list[int]:
    """Forward layered reachability, recomputed from the raw transition map."""
    finals = set(dfa.finals)
    current = {state}
    bits = []
    for _ in range(upto):
        bits.append(1 if current & finals else 0)
        current = {dfa.transitions[(s, d)]
                   for s in current for d in range(dfa.alphabet_size)
                   if (s, d) in dfa.transitions}
    return bits


# -- the forward-walk oracle's subset step ------------------------------------

def test_subset_step_example1():
    dfa = example1().dfa
    assert subset_step(dfa, frozenset({1})) == frozenset({2})
    assert subset_step(dfa, frozenset({2})) == frozenset({1})
    assert subset_step(dfa, frozenset({0})) == frozenset({1})


def test_subset_step_empty_is_absorbing():
    assert subset_step(example1().dfa, frozenset()) == frozenset()


def test_subset_step_full_on_complete_automaton():
    dfa = complete(example1().dfa)
    everything = frozenset(range(dfa.state_count))
    stepped = subset_step(dfa, everything)
    assert stepped <= everything
    assert stepped == frozenset(dfa.transitions.values())


def test_profile_example1_states():
    dfa = example1().dfa
    q0 = length_profile(dfa, 0)
    assert (q0.preperiod, q0.period, q0.cycle_bits) == (0, 2, bytes((0, 1)))
    accepting = length_profile(dfa, 1)
    assert (accepting.preperiod, accepting.period, accepting.cycle_bits) == (0, 2, bytes((1, 0)))
    other = length_profile(dfa, 2)
    assert (other.preperiod, other.period, other.cycle_bits) == (0, 2, bytes((0, 1)))


def test_profile_accepting_self_loop():
    dfa = Dfa(2, 1, 0, frozenset({0}), {(0, 0): 0, (0, 1): 0})
    prof = length_profile(dfa, 0)
    assert (prof.preperiod, prof.period, prof.cycle_bits) == (0, 1, bytes((1,)))


def test_profile_dead_end_state():
    dfa = Dfa(2, 2, 0, frozenset({0}), {(0, 0): 1})
    prof = length_profile(dfa, 1)  # no transitions out of state 1
    assert (prof.preperiod, prof.period, prof.head_bits, prof.cycle_bits) == (0, 1, b"", bytes((0,)))


def test_profile_word_enumeration_oracle():
    # truly independent check against exhaustive word enumeration
    rng = random.Random(31)
    for _ in range(20):
        dfa = random_dfa(rng, 4, 2)
        for state in range(dfa.state_count):
            prof = length_profile(dfa, state)
            for n in range(7):
                exists = any(
                    (lambda end: end is not None and end in dfa.finals)(dfa.walk(state, w))
                    for w in itertools.product(range(2), repeat=n))
                assert prof.bit(n) == (1 if exists else 0)


def test_profile_matches_layered_oracle_on_random_dfas():
    rng = random.Random(13)
    for _ in range(60):
        dfa = trim(random_dfa(rng, 6, rng.choice([2, 3])))
        for state in range(dfa.state_count):
            prof = length_profile(dfa, state)
            window = prof.preperiod + 4 * prof.period
            assert _oracle_bits(dfa, state, window) == [prof.bit(n) for n in range(window)]


def test_profile_pigeonhole_and_minimality():
    rng = random.Random(17)
    for _ in range(40):
        dfa = trim(random_dfa(rng, 6, 2))
        for state in range(dfa.state_count):
            prof = length_profile(dfa, state)
            assert prof.preperiod + prof.period <= 2**dfa.state_count
            # periodicity past the preperiod over a generous window
            bits = _oracle_bits(dfa, state, prof.preperiod + 3 * prof.period)
            for n in range(prof.preperiod, len(bits) - prof.period):
                assert bits[n] == bits[n + prof.period]


def test_profile_minimality_is_tight():
    rng = random.Random(19)
    checked = 0
    for _ in range(60):
        dfa = trim(random_dfa(rng, 5, 2))
        for state in range(dfa.state_count):
            prof = length_profile(dfa, state)
            window = prof.preperiod + 6 * prof.period
            bits = _oracle_bits(dfa, state, window)
            # no strictly smaller period works from the same preperiod
            for smaller in range(1, prof.period):
                assert any(bits[n] != bits[n + smaller]
                           for n in range(prof.preperiod, window - smaller))
            # the preperiod cannot shrink for the minimal period
            if prof.preperiod > 0:
                n = prof.preperiod - 1
                assert bits[n] != bits[n + prof.period]
                checked += 1
    assert checked > 0


def test_profile_validation():
    with pytest.raises(ValidationError):
        length_profile(example1().dfa, 3)


def test_profile_cap(monkeypatch):
    dfa = multiples_of(5, 2).dfa
    monkeypatch.setattr(lengths, "DEFAULT_SUBSET_CAP", 1)
    with pytest.raises(SearchCapExceededError) as err:
        length_profile(dfa, 0)
    assert err.value.cap == 1
    # the message says how far the search got: here one depth of a 5-cycle
    assert str(err.value) == "no length recurrence within 1 steps: a 5-state component stopped at depth 1"
    dfa = full_set(2).dfa  # the final state 1 loops onto itself: step 1 repeats
    assert length_profile(dfa, 1).cycle_bits == bytes((1,))
    monkeypatch.setattr(lengths, "DEFAULT_SUBSET_CAP", 0)
    with pytest.raises(SearchCapExceededError) as err:
        length_profile(dfa, 1)
    assert err.value.cap == 0
    # no depth is run: the message names the first depth a key could repeat at
    assert str(err.value) == ("no length recurrence within 0 steps: "
                              "a 1-state component cannot recur before depth 1")


def test_cofinite_threshold_cases():
    always = UltimatePeriod((), (1,))
    assert cofinite_threshold(always) == 0
    odd_lengths = length_profile(example1().dfa, 0)
    assert cofinite_threshold(odd_lengths) is None
    delayed = UltimatePeriod((0, 1, 0), (1,))
    assert cofinite_threshold(delayed) == 3
    trailing_ones = UltimatePeriod((0, 1, 1), (1,))
    assert cofinite_threshold(trailing_ones) == 1


def test_cofinite_threshold_absent_iff_cycle_has_zero():
    rng = random.Random(37)
    for _ in range(40):
        dfa = trim(random_dfa(rng, 6, 2))
        for state in range(dfa.state_count):
            prof = length_profile(dfa, state)
            assert (cofinite_threshold(prof) is None) == (0 in prof.cycle_bits)


def test_ultimate_period_validation():
    with pytest.raises(ValidationError):
        UltimatePeriod((), ())


def test_profiles_of_mod3_base2_states():
    dfa = multiples_of(3, 2).dfa
    # from the initial state, lengths of accepted words are 2, 4, ... plus length 2k >= 2
    prof = length_profile(dfa, dfa.initial)
    assert prof.bit(0) == 0
    assert all(prof.bit(n) == 1 for n in range(2, 20))


# -- the per-component engine against the forward-walk oracle ----------------

@st.composite
def _blocked_dfas(draw):
    """Partial automata of up to 40 states over bases 2, 3, 5 and 10, with sources.

    States come in blocks, and no transition leads back to an earlier block.
    A cycle block follows its cycle on digit 0 (a self-loop for a block of
    one); its other digits follow the cycle too, go missing, or exit to a
    later block.  A free block's transitions go anywhere in it or later, or
    are missing.  So there are several components, sinks, and exits into
    cycles of different periods.
    """
    base = draw(st.sampled_from((2, 3, 5, 10)))
    sizes, n = [], 0
    for size in draw(st.lists(st.integers(1, 17), min_size=1, max_size=6)):
        if n + size <= 40:
            sizes.append(size)
            n += size
    transitions, lo = {}, 0
    for size in sizes:
        cycle = draw(st.booleans())
        for s in range(lo, lo + size):
            following = lo + (s - lo + 1) % size
            later = st.integers(lo + size, n - 1) if lo + size < n else st.nothing()
            for d in range(base):
                if cycle:
                    t = following if d == 0 else draw(st.sampled_from((None, following)) | later)
                else:
                    t = draw(st.none() | st.integers(lo, n - 1))
                if t is not None:
                    transitions[(s, d)] = t
        lo += size
    finals = draw(st.frozensets(st.integers(0, n - 1)))
    dfa = Dfa(base, n, 0, finals, transitions)
    return dfa, draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_blocked_dfas())
# component {1, 2} recurs from a = 1, though state 1's own preperiod is 0
@example((Dfa(2, 3, 0, frozenset({0, 1}), {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 1,
                                           (2, 0): 1, (2, 1): 2}), [0]))
def test_component_engine_equals_the_forward_walk(case):
    dfa, sources = case
    profiles = _reachable_profiles(dfa, _components(dfa.rows, sources))
    assert set(profiles) == set(_reachable(dfa.rows, sources))
    for state, prof in profiles.items():
        assert prof == walk_profile(dfa, state)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_blocked_dfas())
def test_single_state_profiles_equal_the_forward_walk(case):
    # each call files its state's whole component and returns its own profile
    dfa, _ = case
    for state in range(dfa.state_count):
        assert length_profile(dfa, state) == walk_profile(dfa, state)


def test_component_engine_keeps_the_subset_cap(monkeypatch):
    # a 5-cycle left only from state 0, into a 7-cycle whose entry is final:
    # state 0 accepts the lengths 5i + 7j + 1, all of them from 25 on, so the
    # 5-cycle's vectors settle long after its exits' lcm of 7 and the key
    # (vector, depth mod 7) first repeats at depth 36
    transitions = {(i, d): 5 if (i, d) == (0, 1) else (i + 1) % 5
                   for i in range(5) for d in (0, 1)}
    transitions.update({(5 + j, d): 5 + (j + 1) % 7 for j in range(7) for d in (0, 1)})
    dfa = Dfa(2, 12, 0, frozenset({5}), transitions)
    monkeypatch.setattr(lengths, "DEFAULT_SUBSET_CAP", 36)
    assert _reachable_profiles(dfa, _components(dfa.rows, [0]))[0] == walk_profile(dfa, 0)
    monkeypatch.setattr(lengths, "DEFAULT_SUBSET_CAP", 35)
    with pytest.raises(SearchCapExceededError) as err:
        _reachable_profiles(dfa, _components(dfa.rows, [0]))
    assert err.value.cap == 35
    assert str(err.value).endswith(": a 5-state component stopped at depth 35")


def test_engine_allocates_for_visited_states_not_declared_ones():
    # example1's rows in an automaton that declares a million states
    dfa = Dfa(2, 1_000_000, 0, example1().dfa.finals, example1().dfa.transitions)
    tracemalloc.start()
    try:
        prof = length_profile(dfa, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prof.period == 2
    assert peak < 1 << 20
