"""Automaton operations: membership, trimming, minimization, products, density, enumeration."""

from __future__ import annotations

import random
import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from recset import (
    Dfa,
    Finite,
    RecognizableSet,
    ValidationError,
    accepts,
    complete,
    document_from_set,
    encode,
    enumerate_elements,
    equivalent,
    example1,
    length_profile,
    member,
    minimize,
    product,
    restrict_to_canonical,
    right_dense,
    set_from_document,
    syndetic_decide,
    trim,
)
from recset import witnesses
from recset.automata import (
    _exact_depth_layers,
    _ordered_values,
    _reachable,
    empty_dfa,
    is_empty_language,
)
from recset.lengths import _components
from conftest import (
    chain,
    example1_oracle,
    finite_set,
    full_set,
    is_infinite_language,
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
    # a map key that is not a (state, digit) pair
    for key in (5, (0,), (0, 0, 0), "ab"):
        with pytest.raises(ValidationError, match=r"^transition #0 must be an integer triple"):
            Dfa(2, 1, 0, frozenset(), {key: 0})


def test_walk_and_length_profile_check_the_state():
    # -1 would read the last row and True state 1's, as Python indexes them
    dfa = example1().dfa
    for state in (-1, dfa.state_count, True):
        with pytest.raises(ValidationError, match=f"^state {state!r} out of range$"):
            dfa.walk(state, [0])
        with pytest.raises(ValidationError, match=f"^state {state!r} out of range$"):
            length_profile(dfa, state)
    assert dfa.walk(dfa.state_count - 1, [0]) == 1


def test_accepts_on_example1():
    dfa = example1().dfa
    assert accepts(dfa, [1, 0, 1])
    assert not accepts(dfa, [1, 0])
    assert not accepts(dfa, [])
    for bad in ([2], [-1], [1, 0, 2]):
        with pytest.raises(ValidationError):
            accepts(dfa, bad)


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


def test_minimize_drops_a_dead_class_that_completion_did_not_add():
    # example1 whose leading 0 enters a non-final 2-cycle with no exit: the
    # input is complete, so the dead class comes from the cycle, not a sink
    dfa = Dfa(2, 5, 0, {1}, {(0, 0): 3, (0, 1): 1, (1, 0): 2, (1, 1): 2, (2, 0): 1, (2, 1): 1,
                             (3, 0): 4, (3, 1): 4, (4, 0): 3, (4, 1): 3})
    assert dfa.is_complete
    minimal = minimize(dfa)
    assert minimal == moore_minimize(dfa)
    assert (minimal.initial, minimal.finals, minimal.rows) == (0, {1}, ((-1, 1), (2, 2), (1, 1)))


def test_minimize_of_an_unreachable_final_is_empty():
    dfa = Dfa(3, 3, 0, {2}, {(0, 0): 1, (1, 1): 0, (2, 2): 2, (2, 0): 0})
    assert minimize(dfa) == empty_dfa(3)


def test_enumeration_of_a_finite_set_ignores_stray_cycles():
    # {1, 2, 3} in base 2, beside a reachable dead 2-cycle (entered by a
    # leading 0 and after two digits) and an unreachable final self-loop;
    # exact-depth layers over every row would never empty out
    dfa = Dfa(2, 6, 0, {1, 2, 5}, {(0, 0): 3, (0, 1): 1, (1, 0): 2, (1, 1): 2, (2, 0): 3,
                                   (2, 1): 3, (3, 0): 4, (3, 1): 4, (4, 0): 3, (4, 1): 3,
                                   (5, 0): 5, (5, 1): 5})
    assert list(enumerate_elements(RecognizableSet(dfa), 100)) == [1, 2, 3]


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


def test_minimize_lays_out_states_breadth_first():
    # minimize numbers the classes by first appearance along the input's
    # breadth-first order: that must be the result's own breadth-first order
    from recset.automata import _reachable
    rng = random.Random(303)
    for _ in range(300):
        m = minimize(random_dfa(rng, rng.choice([6, 20, 60]), rng.choice([2, 3, 5])))
        assert _reachable(m.rows, [0]) == list(range(m.state_count))
        assert m.initial == 0


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


@st.composite
def _partial_dfas(draw, base: int) -> Dfa:
    """Partial automata of up to 40 states over digits 0..base-1.

    Transitions run among the first `live` states only, so the states from
    `live` on are isolated; the initial state may be one of them.
    """
    n = draw(st.integers(1, 40))
    live = st.integers(0, draw(st.integers(1, n)) - 1)
    transitions = draw(st.dictionaries(st.tuples(live, st.integers(0, base - 1)), live))
    finals = draw(st.frozensets(st.integers(0, n - 1)))
    return Dfa(base, n, draw(st.integers(0, n - 1)), finals, transitions)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from((2, 3, 5, 10)).flatmap(lambda base: st.tuples(_partial_dfas(base),
                                                                       _partial_dfas(base))),
       st.booleans())
def test_builders_output_what_the_validating_constructor_accepts(pair, contains_zero):
    # trim, complete, minimize, product and restrict_to_canonical skip validation
    d1, d2 = pair
    built = [trim(d1), complete(d1), complete(trim(d1)), minimize(d1),
             restrict_to_canonical(d1)]
    built += [product(d1, d2, mode) for mode in ("union", "intersection", "difference")]
    for d in built:
        assert Dfa(d.alphabet_size, d.state_count, d.initial, d.finals, d.transitions) == d
    s = RecognizableSet(restrict_to_canonical(d1), contains_zero)
    assert set_from_document(document_from_set(s)) == s


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


def _canonical_words(p: int) -> Dfa:
    """Every word with no leading zero, the empty word included."""
    return restrict_to_canonical(Dfa(p, 1, 0, {0}, {(0, d): 0 for d in range(p)}))


def test_union_with_complement_gives_all_canonical_words():
    d = example1().dfa
    canon = _canonical_words(2)
    complement = product(canon, d, "difference")
    assert equivalent(product(d, complement, "union"), canon)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_dfas())
def test_restrict_to_canonical_adds_only_a_fresh_start(d):
    # the old route, the trimmed intersection with the canonical words, is the
    # oracle; those are written out here, not built by restrict_to_canonical
    p = d.alphabet_size
    moves = {(0, x): 1 for x in range(1, p)} | {(1, x): 1 for x in range(p)}
    canon = Dfa(p, 2, 0, {0, 1}, moves)
    r = restrict_to_canonical(d)
    assert r.rows[:d.state_count] == d.rows
    assert equivalent(r, trim(product(d, canon, "intersection")))


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
    assert list(enumerate_elements(example1(), 7)) == [1, 4, 5, 6, 7, 16, 17]


def test_enumerate_empty_and_finite():
    assert list(enumerate_elements(finite_set(set(), 2), 10)) == []
    assert list(enumerate_elements(finite_set({0, 3, 9}, 2), 10)) == [0, 3, 9]
    assert list(enumerate_elements(finite_set({5}, 3), 0)) == []


def test_enumerate_takes_a_limit_past_the_largest_list():
    assert list(enumerate_elements(finite_set({0, 3, 9}, 2), 2**64)) == [0, 3, 9]


def test_enumerate_matches_scan_on_random_sets():
    sets = random_recognizable_sets(404, 6, require_infinite=False)
    for s in sets + random_recognizable_sets(405, 6, bases=(5, 10), require_infinite=False):
        bound = 5000
        expected = scan_elements(s, bound)
        got = [x for x in enumerate_elements(s, len(expected) + 50) if x <= bound]
        assert got == expected


def _words_into(dfa, targets, first_len, max_len):
    """{t: sorted values} of the words of each length t in first_len..max_len that
    start with a nonzero digit and lead into `targets`; every prefix is kept."""
    p, prefixes, out = dfa.alphabet_size, [(0, dfa.initial)], {}
    for length in range(1, max_len + 1):
        prefixes = [(v * p + d, t) for v, s in prefixes for d, t in enumerate(dfa.rows[s])
                    if t >= 0 and (d or length > 1)]
        if length >= first_len:
            out[length] = sorted(v for v, s in prefixes if s in targets)
    return out


# g, the digits per block of the ordered walk, is 7, 4, 3, 2, 1, 1 for these
# bases; the longest words cross at least one block boundary
@pytest.mark.parametrize("base, longest", [(2, 12), (3, 8), (5, 5), (10, 4), (12, 3), (16, 3)])
def test_ordered_values_match_every_word(base, longest):
    rng = random.Random(base)
    for _ in range(40):
        n = rng.randint(1, 6)
        rows = [tuple(rng.randrange(n) if rng.random() < 0.85 else -1 for _ in range(base))
                for _ in range(n)]
        dfa = Dfa._from_rows(base, rng.randrange(n), (), rows)
        targets = frozenset(rng.sample(range(n), rng.randint(1, n)))  # not the finals
        first_len = rng.randint(1, longest)
        max_len = rng.randint(first_len, longest)
        words = _words_into(dfa, targets, first_len, max_len)
        if words[first_len] and rng.random() < 0.5:  # a bound met with equality
            bound = encode(rng.choice(words[first_len]), base)
        else:
            bound = (rng.randrange(1, base),) + tuple(rng.randrange(base) for _ in range(first_len - 1))
        low = sum(d * base**i for i, d in enumerate(reversed(bound)))
        expected = [v for length in sorted(words) for v in words[length]
                    if length > first_len or v >= low]
        assert list(_ordered_values(dfa, targets, bound, max_len)) == expected


def test_enumerate_big_scan_cross_check():
    s = random_recognizable_sets(505, 1)[0]
    expected = scan_elements(s, 100_000)
    got = list(enumerate_elements(s, len(expected)))
    assert got == expected


def test_enumeration_is_lazy_within_a_length():
    # the first length of this chain holds 2**18 elements; only 3 are asked for
    tracemalloc.start()
    try:
        got = list(enumerate_elements(chain(20, 2), 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [2**18, 2**18 + 1, 2**18 + 2]
    assert peak < 1 << 20


def test_enumeration_scans_layers_only_to_the_first_repeat(monkeypatch):
    import recset.automata as automata
    seen = []
    original = automata._exact_depth_layers

    def spy(dfa, targets):
        for layer in original(dfa, targets):
            seen.append(layer)
            yield layer

    monkeypatch.setattr(automata, "_exact_depth_layers", spy)
    got = list(enumerate_elements(example1(), 100))
    assert got == [n for n in range(1, 1 << 9) if example1_oracle(n)][:100]
    scans = len({id(layer) for layer in seen}) - 1  # the first layer is the finals, not a scan
    assert scans <= 3
    # example1 with only the digit 0 after the first: the powers of 4, one
    # element per odd length 1..199
    seen.clear()
    powers_of_4 = RecognizableSet(Dfa(2, 3, 0, {1}, {(0, 1): 1, (1, 0): 2, (2, 0): 1}))
    got = list(enumerate_elements(powers_of_4, 100))
    assert got == [4**i for i in range(100)]
    scans = len({id(layer) for layer in seen}) - 1
    assert scans <= 3


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


def test_finite_verdicts_on_small_sets():
    assert not isinstance(syndetic_decide(example1()), Finite)
    assert isinstance(syndetic_decide(finite_set({1, 2, 3}, 2)), Finite)
    assert isinstance(syndetic_decide(RecognizableSet(empty_dfa(2))), Finite)


@st.composite
def _cyclic_dfas(draw) -> Dfa:
    """Partial automata of up to 20 states over bases 2 and 3, with planted cycles.

    Besides drawn transitions, some states get a self-loop and some runs of
    states a cycle, so finite and infinite languages both come up often.
    """
    base = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 20))
    state, digit = st.integers(0, n - 1), st.integers(0, base - 1)
    transitions = draw(st.dictionaries(st.tuples(state, digit), state, max_size=2 * n))
    for s in draw(st.lists(state, max_size=2)):
        transitions[(s, draw(digit))] = s
    for _ in range(draw(st.integers(0, 2))):
        ring = draw(st.lists(state, min_size=1, max_size=min(5, n), unique=True))
        for s, t in zip(ring, ring[1:] + ring[:1]):
            transitions[(s, draw(digit))] = t
    finals = draw(st.frozensets(state))
    return Dfa(base, n, draw(state), finals, transitions)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_cyclic_dfas())
def test_cycle_check_and_components_against_oracles(dfa):
    # the decision reads finiteness off the normal form's cycles; the qualifying
    # profiles' cycle bits give the same answer by another route
    canonical = restrict_to_canonical(dfa)
    s = RecognizableSet(canonical)
    verdict = syndetic_decide(s)
    assert isinstance(verdict, Finite) != is_infinite_language(canonical)
    assert witnesses._is_infinite(s) == any(1 in p.cycle_bits for p in s.profiles.values())
    # the components partition the reachable states, successors first
    comps = list(_components(dfa.rows, [dfa.initial]))
    reach = _reachable(dfa.rows, [dfa.initial])
    assert sorted(s for comp in comps for s in comp) == sorted(reach)
    position = {s: i for i, comp in enumerate(comps) for s in comp}
    for s in reach:
        assert set(_reachable(dfa.rows, [s])) >= set(comps[position[s]])
        for t in dfa.rows[s]:
            assert t < 0 or position[t] <= position[s]

    def forward(d, sources):  # brute force over the (state, digit) -> state map
        moves, seen, todo = d.transitions, set(sources), list(sources)
        while todo:
            s = todo.pop()
            new = {t for (r, _), t in moves.items() if r == s} - seen
            seen |= new
            todo.extend(new)
        return seen

    # the backward walk: trim, right density and the exact-depth layers
    reachable = forward(dfa, [dfa.initial])
    live = {s for s in reachable if forward(dfa, [s]) & dfa.finals}
    if dfa.initial in live:
        assert trim(dfa).state_count == len(live)
    else:
        assert trim(dfa) == empty_dfa(dfa.alphabet_size)
    # the untrimmed product is complete, so only co-accessibility can fail there
    for d in canonical, product(dfa, _canonical_words(dfa.alphabet_size), "intersection"):
        firsts = d.rows[d.initial][1:]
        dense = -1 not in firsts and all(
            -1 not in d.rows[r] and forward(d, [r]) & d.finals for r in forward(d, firsts))
        assert right_dense(RecognizableSet(d)) == dense
    n, layer, scanned = dfa.state_count, frozenset(dfa.finals), []
    for _ in range(2 * n + 2):
        scanned.append(layer)
        layer = frozenset(s for s in reachable if any(t in layer for t in dfa.rows[s]))
    assert list(islice(_exact_depth_layers(dfa, dfa.finals), 2 * n + 2)) == scanned


def test_example1_closed_form_prefix():
    s = example1()
    got = [x for x in enumerate_elements(s, 400) if x <= 600]
    expected = [n for n in range(601) if example1_oracle(n)]
    assert got == expected


def test_encode_feeds_accepts_consistently():
    s = multiples_of(3, 2)
    for n in range(1, 2000):
        assert accepts(s.dfa, encode(n, 2)) == (n % 3 == 0)
