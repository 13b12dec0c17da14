"""Document round trips and validation of the on-disk automaton format."""

from __future__ import annotations

import json
import sys
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from recset import (
    Dfa,
    RecognizableSet,
    ValidationError,
    accepts,
    document_from_set,
    dumps_automaton,
    equivalent,
    example1,
    loads_automaton,
    member,
    minimize,
    read_automaton,
    restrict_to_canonical,
    set_from_document,
    write_automaton,
)
from recset.automata import _accepts_leading_zero, empty_dfa
from conftest import finite_set, multiples_of, powers_of_two, random_recognizable_sets


def test_round_trip_example1(tmp_path):
    path = tmp_path / "x.aut"
    write_automaton(path, example1())
    loaded = read_automaton(path)
    assert loaded == example1()
    assert equivalent(loaded.dfa, example1().dfa)


def test_round_trip_preserves_language_on_corpus(tmp_path):
    sets = [multiples_of(3, 2), powers_of_two(), finite_set({0, 7, 9}, 3)]
    sets += random_recognizable_sets(111, 5, require_infinite=False)
    # a document lists only the transitions it has: a large base, a short document
    powers = Dfa(1000, 2, 0, {1}, {(0, 1): 1, (1, 0): 1})
    sets += [RecognizableSet(d) for d in (empty_dfa(1000), minimize(powers))] + [finite_set([5], 1000)]
    for i, s in enumerate(sets):
        path = tmp_path / f"s{i}.aut"
        write_automaton(path, s)
        loaded = read_automaton(path)
        assert equivalent(loaded.dfa, s.dfa)
        assert loaded.contains_zero == s.contains_zero


def test_dumps_is_deterministic_and_parseable():
    text = dumps_automaton(example1())
    assert text == dumps_automaton(example1())
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc == document_from_set(example1())


def test_document_triples_follow_the_transition_map_order(corpus):
    # read straight off the rows, in the (state, digit) order of `Dfa.transitions`;
    # the partial automaton has a state without transitions and rows with gaps
    partial = Dfa(3, 5, 2, {0}, [[4, 2, 0], [2, 1, 4], [0, 0, 0], [2, 0, 3]])
    sets = [*corpus.values(), RecognizableSet(partial)]
    sets += [RecognizableSet(minimize(s.dfa)) for s in sets]
    for s in sets:
        expected = [[src, d, dst] for (src, d), dst in s.dfa.transitions.items()]
        assert document_from_set(s)["transitions"] == expected


def test_document_shape():
    doc = document_from_set(example1())
    assert doc["format_version"] == 1
    assert doc["base"] == 2
    assert doc["finals"] == [1]
    assert doc["transitions"] == [[0, 1, 1], [1, 0, 2], [1, 1, 2], [2, 0, 1], [2, 1, 1]]
    assert doc["contains_zero"] is False


def _doc(**overrides):
    doc = document_from_set(example1())
    doc.update(overrides)
    return doc


def test_duplicate_transition_rejected():
    doc = _doc(transitions=[[0, 1, 1], [0, 1, 2], [1, 0, 2]])
    with pytest.raises(ValidationError, match="duplicate"):
        set_from_document(doc)


def test_digit_out_of_range_rejected():
    doc = _doc(transitions=[[0, 2, 1]])
    with pytest.raises(ValidationError, match="digit"):
        set_from_document(doc)


def test_state_out_of_range_rejected():
    doc = _doc(transitions=[[0, 1, 7]])
    with pytest.raises(ValidationError):
        set_from_document(doc)


def test_missing_field_rejected():
    doc = _doc()
    del doc["finals"]
    with pytest.raises(ValidationError, match="missing"):
        set_from_document(doc)


def test_unknown_field_strict_vs_lenient():
    doc = _doc(color="green")
    with pytest.raises(ValidationError, match="unknown"):
        set_from_document(doc)
    loaded = set_from_document(doc, strict=False)
    assert equivalent(loaded.dfa, example1().dfa)


def test_wrong_format_version_rejected():
    with pytest.raises(ValidationError, match="format_version"):
        set_from_document(_doc(format_version=2))


def test_type_errors_rejected():
    with pytest.raises(ValidationError):
        set_from_document(_doc(contains_zero="no"))
    with pytest.raises(ValidationError):
        set_from_document(_doc(initial=True))
    with pytest.raises(ValidationError):
        set_from_document(_doc(finals=[0.5]))
    with pytest.raises(ValidationError):
        set_from_document(_doc(transitions=[[0, 1]]))
    with pytest.raises(ValidationError, match="'finals' must be a list"):
        set_from_document(_doc(finals=1))
    with pytest.raises(ValidationError, match="'transitions' must be a list"):
        set_from_document(_doc(transitions={"0": [0, 1, 1]}))
    with pytest.raises(ValidationError):
        set_from_document([1, 2, 3])


def test_parse_error_reports_position():
    with pytest.raises(ValidationError, match=r"line \d+, column \d+"):
        loads_automaton("{ not json }")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit before Python 3.10.7")
def test_integer_past_the_digit_limit_is_validation_error():
    # the CLI lifts the limit for the whole process; a library caller may not
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValidationError, match="parse error"):
            loads_automaton('{"base": ' + "9" * 5000 + "}")
    finally:
        sys.set_int_max_str_digits(old)


def _count_repairs(monkeypatch) -> list:
    """Count the loader's `restrict_to_canonical` calls, one list entry each."""
    calls = []

    def counted(dfa):
        calls.append(dfa)
        return restrict_to_canonical(dfa)

    monkeypatch.setattr("recset.fileformat.restrict_to_canonical", counted)
    return calls


def test_leading_zero_acceptance_strict_vs_lenient(monkeypatch):
    repairs = _count_repairs(monkeypatch)
    doc = {
        "format_version": 1, "base": 2, "state_count": 2, "initial": 0,
        "finals": [1], "contains_zero": False,
        "transitions": [[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]],
    }
    with pytest.raises(ValidationError, match="leading zero"):
        set_from_document(doc)
    repaired = set_from_document(doc, strict=False)
    assert len(repairs) == 1
    assert not accepts(repaired.dfa, [0, 1])
    for n in range(1, 50):
        assert member(repaired, n)
    # a document that accepts no leading zero loads leniently as it loads strictly
    assert set_from_document(_doc(), strict=False).dfa == set_from_document(_doc()).dfa
    assert len(repairs) == 1


def test_read_missing_file_is_validation_error(tmp_path):
    with pytest.raises(ValidationError, match="cannot read"):
        read_automaton(tmp_path / "nope.aut")


def _with_triple(index, triple):
    transitions = document_from_set(example1())["transitions"]
    transitions[index] = triple
    return {"transitions": transitions}


# example1's document with one fault each, and the message that names it
SINGLE_FAULTS = {
    "non-list": (_with_triple(1, 7), "transition #1 must be an integer triple [from, digit, to]"),
    "wrong length": (_with_triple(1, [1, 0]), "transition #1 must be an integer triple [from, digit, to]"),
    "bool": (_with_triple(1, [1, True, 2]), "transition #1 must be an integer triple [from, digit, to]"),
    "float": (_with_triple(1, [1, 0, 2.0]), "transition #1 must be an integer triple [from, digit, to]"),
    "digit": (_with_triple(1, [1, 2, 2]), "transition #1: digit 2 out of range for base 2"),
    "duplicate": (_with_triple(2, [1, 0, 1]), "duplicate transition for state 1, digit 0"),
    "from": (_with_triple(1, [3, 0, 2]), "transition (3,0)->2 references a missing state"),
    "to": (_with_triple(1, [1, 0, -1]), "transition (1,0)->-1 references a missing state"),
    "initial": ({"initial": 3}, "initial state 3 out of range"),
    "final": ({"finals": [1, 3]}, "final state 3 out of range"),
    "base": ({"base": 1, "transitions": [[0, 0, 1], [1, 0, 2], [2, 0, 1]]},
             "alphabet size must be >= 2, got 1"),
    # no state at all leaves no valid initial state; the count is reported first
    "state_count": ({"state_count": 0, "finals": [], "transitions": []},
                    "state count must be >= 1, got 0"),
    # booleans and floats are not integers, even where they equal one
    "bool final": ({"finals": [1, True]}, "final state must be an integer, not bool"),
    "float initial": ({"initial": 0.0}, "initial state must be an integer, not float"),
    "bool base": ({"base": True}, "alphabet size must be an integer, not bool"),
    "float state_count": ({"state_count": 3.0}, "state count must be an integer, not float"),
}


@pytest.mark.parametrize("fault", sorted(SINGLE_FAULTS))
def test_single_fault_messages_from_loader_and_constructor(fault):
    overrides, message = SINGLE_FAULTS[fault]
    doc = _doc(**overrides)
    with pytest.raises(ValidationError) as loaded:
        loads_automaton(json.dumps(doc))
    with pytest.raises(ValidationError) as built:
        Dfa(doc["base"], doc["state_count"], doc["initial"], doc["finals"], doc["transitions"])
    assert str(loaded.value) == str(built.value) == message


def test_contains_zero_message_from_loader_and_constructor(monkeypatch):
    repairs = _count_repairs(monkeypatch)
    text = json.dumps(_doc(contains_zero=1))
    with pytest.raises(ValidationError) as strict:
        loads_automaton(text)
    with pytest.raises(ValidationError) as lenient:
        loads_automaton(text, strict=False)
    assert repairs == []  # example1 accepts no leading zero: nothing to repair
    with pytest.raises(ValidationError) as built:
        RecognizableSet(example1().dfa, 1)
    assert str(strict.value) == str(lenient.value) == str(built.value) == \
        "contains_zero must be a boolean, not int"


def _mostly(values):
    """Mostly `values`, now and then as a bool or a float of the same value."""
    return st.tuples(values, st.integers(0, 19)).map(
        lambda vk: vk[0] if vk[1] > 1 else (bool(vk[0]) if vk[1] else float(vk[0])))


@st.composite
def _constructor_arguments(draw):
    base, count = draw(_mostly(st.integers(2, 3))), draw(_mostly(st.integers(1, 4)))
    state = _mostly(st.integers(0, int(count) - 1))
    moves = draw(st.dictionaries(st.tuples(state, _mostly(st.integers(0, int(base) - 1))), state,
                                 max_size=6))
    transitions = moves if draw(st.booleans()) else [[s, d, t] for (s, d), t in moves.items()]
    return (base, count, draw(state), draw(st.lists(state, max_size=3)), transitions,
            draw(st.one_of(st.booleans(), st.sampled_from([0, 1, 1.0]))))


@settings(max_examples=300, deadline=None)
@given(_constructor_arguments())
def test_every_set_the_constructors_accept_reads_back(args):
    *dfa_args, contains_zero = args
    try:
        s = RecognizableSet(Dfa(*dfa_args), contains_zero)
    except ValidationError:
        return
    loaded = loads_automaton(dumps_automaton(s))
    assert loaded.dfa == s.dfa
    assert loaded.contains_zero is s.contains_zero


@st.composite
def _small_partial_dfas(draw) -> Dfa:
    """Partial automata of up to 4 states over bases 2, 3 and 10."""
    base, n = draw(st.sampled_from((2, 3, 10))), draw(st.integers(1, 4))
    state = st.integers(0, n - 1)
    transitions = draw(st.dictionaries(st.tuples(state, st.integers(0, base - 1)), state))
    return Dfa(base, n, draw(state), draw(st.frozensets(state)), transitions)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_small_partial_dfas())
def test_leading_zero_rule_is_one_predicate_for_both_loaders(dfa):
    # a word 0w with |w| >= state_count repeats a state, so shorter words suffice
    brute = any(accepts(dfa, (0, *w)) for k in range(dfa.state_count)
                for w in product(range(dfa.alphabet_size), repeat=k))
    assert _accepts_leading_zero(dfa) == brute
    doc = {"format_version": 1, "base": dfa.alphabet_size, "state_count": dfa.state_count,
           "initial": dfa.initial, "finals": sorted(dfa.finals), "contains_zero": False,
           "transitions": [[s, d, t] for (s, d), t in dfa.transitions.items()]}
    lenient = set_from_document(doc, strict=False).dfa
    if brute:
        with pytest.raises(ValidationError, match="leading zero"):
            set_from_document(doc)
        assert lenient == restrict_to_canonical(dfa)
    else:
        assert set_from_document(doc).dfa == lenient == dfa
