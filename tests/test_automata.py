"""Automaton operations: membership, trimming, minimization, products, density, enumeration."""

from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from recset import (
    Dfa,
    RecognizableSet,
    ValidationError,
    accepts,
    canonical_words_dfa,
    complete,
    empty_dfa,
    encode,
    enumerate_elements,
    equivalent,
    example1,
    has_infinite_language,
    is_empty_language,
    member,
    minimize,
    product,
    restrict_to_canonical,
    right_dense,
    trim,
)
from conftest import (
    chain,
    example1_oracle,
    finite_set,
    full_set,
    moore_minimize,
    multiples_of,
    powers_of_two,
    random_dfa,
    random_recognizable_sets,
    scan_elements,
)


def _example1_with_dead_state() -> Dfa:
    # same language as example1(), plus an explicit dead state 3
    return Dfa(2, 4, 0, frozenset({1}),
               {(0, 0): 3, (0, 1): 1, (1, 0): 2, (1, 1): 2,
                (2, 0): 1, (2, 1): 1, (3, 0): 3, (3, 1): 3})


def _example1_unrolled() -> Dfa:
    # naive 5-state version: the two-state flip-flop unrolled once
    return Dfa(2, 5, 0, frozenset({1, 3}),
               {(0, 1): 1, (1, 0): 2, (1, 1): 2, (2, 0): 3, (2, 1): 3,
                (3, 0): 4, (3, 1): 4, (4, 0): 3, (4, 1): 3})


def test_dfa_validation():
    with pytest.raises(ValidationError):
        Dfa(1, 1, 0, frozenset(), {})
    with pytest.raises(ValidationError):
        Dfa(2, 1, 1, frozenset(), {})
    with pytest.raises(ValidationError):
        Dfa(2, 1, 0, frozenset({1}), {})
    with pytest.raises(ValidationError):
        Dfa(2, 1, 0, frozenset(), {(0, 0): 1})
    with pytest.raises(ValidationError):
        Dfa(2, 1, 0, frozenset(), {(0, 2): 0})


def test_accepts_on_example1():
    dfa = example1().dfa
    assert accepts(dfa, [1, 0, 1])
    assert not accepts(dfa, [1, 0])
    assert not accepts(dfa, [])
    with pytest.raises(ValidationError):
        accepts(dfa, [2])


def test_accepts_empty_word_iff_initial_final():
    dfa = Dfa(2, 1, 0, frozenset({0}), {})
    assert accepts(dfa, [])
    assert not accepts(empty_dfa(2), [])


def test_member_example1():
    s = example1()
    assert member(s, 5)
    assert not member(s, 8)
    assert not member(s, 0)
    for n in range(10_001):
        assert member(s, n) == example1_oracle(n)


def test_member_example1_block_endpoints():
    s = example1()
    for i in range(11):
        assert member(s, 4**i)
        assert not member(s, 2 * 4**i)


def test_trim_removes_dead_state():
    trimmed = trim(_example1_with_dead_state())
    assert trimmed.state_count == 3
    assert equivalent(trimmed, example1().dfa)


def test_trim_is_identity_on_trim_input():
    t = trim(_example1_with_dead_state())
    assert trim(t) == t


def test_trim_empty_language():
    dfa = Dfa(2, 2, 0, frozenset(), {(0, 0): 1, (0, 1): 1})
    assert trim(dfa) == empty_dfa(2)


def test_minimize_example1_unrolled():
    minimal = minimize(_example1_unrolled())
    assert minimal.state_count == 3
    assert minimal == example1().dfa
    assert equivalent(minimal, _example1_unrolled())


def test_minimize_fixed_point():
    for dfa in (example1().dfa, _example1_unrolled(), _example1_with_dead_state()):
        m = minimize(dfa)
        assert minimize(m) == m


def test_minimize_preserves_membership_on_random_sets():
    for s in random_recognizable_sets(101, 25, require_infinite=False):
        m = RecognizableSet(minimize(s.dfa), s.contains_zero)
        for n in range(500):
            assert member(m, n) == member(s, n)


def test_minimize_on_200_random_dfas():
    rng = random.Random(202)
    for _ in range(200):
        dfa = random_dfa(rng, 6, rng.choice([2, 3]))
        m = minimize(dfa)
        assert minimize(m) == m
        assert equivalent(m, dfa)
        assert m.state_count <= max(trim(dfa).state_count, 1)


def test_minimize_output_states_pairwise_distinguishable():
    # independent minimality oracle: in a minimal trimmed automaton no two
    # states recognize the same residual language
    rng = random.Random(606)
    def reroot(dfa, state):
        return Dfa(dfa.alphabet_size, dfa.state_count, state, dfa.finals, dfa.transitions)
    dfas = [example1().dfa] + [random_dfa(rng, 6, rng.choice([2, 3])) for _ in range(30)]
    for dfa in dfas:
        m = minimize(dfa)
        for i in range(m.state_count):
            for j in range(i + 1, m.state_count):
                assert not equivalent(reroot(m, i), reroot(m, j))


def test_minimize_canonical_equality_matches_equivalence():
    rng = random.Random(55)
    dfas = [restrict_to_canonical(random_dfa(rng, 5, 2)) for _ in range(40)]
    for i in range(0, len(dfas) - 1, 2):
        d1, d2 = dfas[i], dfas[i + 1]
        assert (minimize(d1) == minimize(d2)) == equivalent(d1, d2)


@st.composite
def _dfas(draw) -> Dfa:
    """Partial or complete automata of up to 60 states over bases 2, 3, 5 and 10.

    A core of up to 20 states is laid out in 1-3 copies, and each transition
    lands in a drawn copy of its core target, so copies of a state are
    equivalent and refinement has classes to merge, not only to split.
    """
    base = draw(st.sampled_from((2, 3, 5, 10)))
    core, copies = draw(st.integers(1, 20)), draw(st.integers(1, 3))
    state = st.integers(0, core - 1)
    if draw(st.booleans()):
        keys = [(s, d) for s in range(core) for d in range(base)]
        moves = dict(zip(keys, draw(st.lists(state, min_size=len(keys), max_size=len(keys)))))
    else:
        moves = draw(st.dictionaries(st.tuples(state, st.integers(0, base - 1)), state))
    copy = st.integers(0, copies - 1)
    transitions = {(s + core * i, d): t + core * draw(copy)
                   for i in range(copies) for (s, d), t in moves.items()}
    finals = frozenset(s + core * i for s in draw(st.frozensets(state)) for i in range(copies))
    return Dfa(base, core * copies, draw(st.integers(0, core * copies - 1)), finals, transitions)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_dfas())
def test_minimize_matches_moore_refinement(dfa):
    assert minimize(dfa) == moore_minimize(dfa)


def test_minimize_long_chain():
    # words of up to n-2 digits are needed to tell the cycle's states apart, so
    # Moore refinement takes about n rounds here (seconds); Hopcroft's does not
    assert minimize(chain(2000, 2).dfa).state_count == 2000


def test_product_boolean_algebra():
    rng = random.Random(77)
    sets = random_recognizable_sets(303, 8, bases=(2,), require_infinite=False)
    for i in range(0, len(sets), 2):
        d1, d2 = sets[i].dfa, sets[i + 1].dfa
        union = product(d1, d2, "union")
        inter = product(d1, d2, "intersection")
        diff = product(d1, d2, "difference")
        for _ in range(200):
            w = [rng.randrange(2) for _ in range(rng.randrange(10))]
            a1, a2 = accepts(d1, w), accepts(d2, w)
            assert accepts(union, w) == (a1 or a2)
            assert accepts(inter, w) == (a1 and a2)
            assert accepts(diff, w) == (a1 and not a2)


def test_product_identities():
    d = example1().dfa
    assert equivalent(product(d, d, "intersection"), d)
    assert is_empty_language(product(d, d, "difference"))


def test_product_alphabet_mismatch():
    with pytest.raises(ValidationError):
        product(example1().dfa, full_set(3).dfa, "union")
    with pytest.raises(ValidationError):
        product(example1().dfa, example1().dfa, "xor")


def test_union_with_complement_gives_all_canonical_words():
    d = example1().dfa
    canon = canonical_words_dfa(2)
    complement = product(canon, d, "difference")
    assert equivalent(product(d, complement, "union"), canon)


def test_equivalent_basics():
    d = example1().dfa
    assert equivalent(d, d)
    assert equivalent(d, minimize(_example1_unrolled()))
    assert not equivalent(d, empty_dfa(2))


def test_complete_adds_single_sink():
    c = complete(example1().dfa)
    assert c.is_complete
    assert c.state_count == 4
    assert complete(c) == c


def test_right_dense_examples():
    assert right_dense(example1())
    assert right_dense(full_set(2))
    assert right_dense(multiples_of(3, 2))
    assert not right_dense(finite_set({1, 2, 3}, 2))
    assert not right_dense(powers_of_two())


def test_right_dense_zero_only_set():
    s = finite_set({0}, 2)
    assert not right_dense(s)


def test_enumerate_example1():
    assert enumerate_elements(example1(), 7) == [1, 4, 5, 6, 7, 16, 17]


def test_enumerate_empty_and_finite():
    assert enumerate_elements(finite_set(set(), 2), 10) == []
    assert enumerate_elements(finite_set({0, 3, 9}, 2), 10) == [0, 3, 9]
    assert enumerate_elements(finite_set({5}, 3), 0) == []


def test_enumerate_matches_scan_on_random_sets():
    for s in random_recognizable_sets(404, 6, require_infinite=False):
        bound = 5000
        expected = scan_elements(s, bound)
        got = [x for x in enumerate_elements(s, len(expected) + 50) if x <= bound]
        assert got == expected


def test_enumerate_big_scan_cross_check():
    s = random_recognizable_sets(505, 1)[0]
    expected = scan_elements(s, 100_000)
    got = enumerate_elements(s, len(expected))
    assert got == expected


def test_enumeration_is_lazy_within_a_length():
    # the first length of this chain holds 2**18 elements; only 3 are asked for
    tracemalloc.start()
    try:
        got = enumerate_elements(chain(20, 2), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [2**18, 2**18 + 1, 2**18 + 2]
    assert peak < 1 << 20


def test_recognizable_set_rejects_leading_zero_acceptance():
    dfa = Dfa(2, 2, 0, frozenset({1}), {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    with pytest.raises(ValidationError):
        RecognizableSet(dfa)
    repaired = RecognizableSet(restrict_to_canonical(dfa))
    for n in range(1, 64):
        assert member(repaired, n)


def test_canonical_word_invariant_on_corpus(corpus):
    rng = random.Random(9)
    for s in list(corpus.values()) + random_recognizable_sets(606, 10):
        for _ in range(100):
            w = [0] + [rng.randrange(s.base) for _ in range(rng.randrange(12))]
            assert not accepts(s.dfa, w)


def test_has_infinite_language():
    assert has_infinite_language(example1().dfa)
    assert not has_infinite_language(finite_set({1, 2, 3}, 2).dfa)
    assert not has_infinite_language(empty_dfa(2))


def test_example1_closed_form_prefix():
    s = example1()
    got = [x for x in enumerate_elements(s, 400) if x <= 600]
    expected = [n for n in range(601) if example1_oracle(n)]
    assert got == expected


def test_encode_feeds_accepts_consistently():
    s = multiples_of(3, 2)
    for n in range(1, 2000):
        assert accepts(s.dfa, encode(n, 2)) == (n % 3 == 0)
