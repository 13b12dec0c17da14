"""Deterministic finite automata over digit alphabets and the integer sets they recognize.

A Dfa may be partial: a missing transition rejects immediately.  Completion
(adding a single non-final sink) is an explicit internal step where a total
transition function is needed.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, cycle, islice
from typing import Iterator

from .errors import ValidationError
from .lengths import UltimatePeriod, _components, _reachable_profiles
from .numeration import decode, encode


@dataclass(frozen=True, init=False)
class Dfa:
    """A deterministic automaton over digits 0..alphabet_size-1.

    States are the integers 0..state_count-1.  `rows[s]` is the tuple of the
    alphabet_size targets of state s, with -1 for a missing transition;
    missing transitions reject.  All states without transitions share one
    row, so a declared state costs one reference.

    The constructor takes the (state, digit) -> state map, or a document's
    list of [from, digit, to] integer triples, and validates it in the same
    pass that fills the rows; `transitions` gives the map back.  Every count,
    state and digit must be an `int`, not a `bool` or `float`, so whatever it
    accepts is written as a document that reads back.  The
    library's own builders make rows directly with `_from_rows`, which skips
    validation.
    """

    alphabet_size: int
    initial: int
    finals: frozenset[int]
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, alphabet_size: int, state_count: int, initial: int,
                 finals, transitions) -> None:
        finals = tuple(finals)  # each final checked as given: a set would merge True into 1
        for name, value in (("alphabet size", alphabet_size), ("state count", state_count),
                            ("initial state", initial), *(("final state", s) for s in finals)):
            if type(value) is not int:  # bool and float are not int
                raise ValidationError(f"{name} must be an integer, not {type(value).__name__}")
        if alphabet_size < 2:
            raise ValidationError(f"alphabet size must be >= 2, got {alphabet_size}")
        if state_count < 1:
            raise ValidationError(f"state count must be >= 1, got {state_count}")
        if max(alphabet_size, state_count) > sys.maxsize:  # no row table is that long
            raise ValidationError(f"alphabet size and state count must be <= {sys.maxsize}")
        if not 0 <= initial < state_count:
            raise ValidationError(f"initial state {initial} out of range")
        for s in finals:
            if not 0 <= s < state_count:
                raise ValidationError(f"final state {s} out of range")
        if isinstance(transitions, dict):
            # a key that is not a (state, digit) pair makes a list the shape check rejects
            transitions = [[*k, t] if type(k) is tuple else [k, t] for k, t in transitions.items()]
        partial: dict[int, list[int]] = {}
        for i, triple in enumerate(transitions):
            if not (isinstance(triple, list) and len(triple) == 3
                    and type(triple[0]) is type(triple[1]) is type(triple[2]) is int):
                raise ValidationError(f"transition #{i} must be an integer triple [from, digit, to]")
            s, d, t = triple
            if not 0 <= d < alphabet_size:
                raise ValidationError(f"transition #{i}: digit {d} out of range for base {alphabet_size}")
            if not 0 <= s < state_count or not 0 <= t < state_count:
                raise ValidationError(f"transition ({s},{d})->{t} references a missing state")
            row = partial.get(s)
            if row is None:
                row = partial[s] = [-1] * alphabet_size
            elif row[d] != -1:
                raise ValidationError(f"duplicate transition for state {s}, digit {d}")
            row[d] = t
        rows = [(-1,) * alphabet_size] * state_count
        for s, row in partial.items():
            rows[s] = tuple(row)
        self.__dict__.update(alphabet_size=alphabet_size, initial=initial,
                             finals=frozenset(finals), rows=tuple(rows))

    @classmethod
    def _from_rows(cls, alphabet_size: int, initial: int, finals, rows) -> Dfa:
        dfa = object.__new__(cls)
        dfa.__dict__.update(alphabet_size=alphabet_size, initial=initial,
                            finals=frozenset(finals), rows=tuple(rows))
        return dfa

    @property
    def state_count(self) -> int:
        return len(self.rows)

    @property
    def transitions(self) -> dict[tuple[int, int], int]:
        """The (state, digit) -> state map, in state and digit order."""
        return {(s, d): t for s, row in enumerate(self.rows)
                for d, t in enumerate(row) if t >= 0}

    @property
    def is_complete(self) -> bool:
        return all(-1 not in row for row in self.rows)

    def walk(self, state: int, word) -> int | None:
        """Follow a digit word; None as soon as a transition is missing."""
        if type(state) is not int or not 0 <= state < len(self.rows):
            raise ValidationError(f"state {state!r} out of range")
        for d in word:
            if not 0 <= d < self.alphabet_size:
                raise ValidationError(f"digit {d} out of range for alphabet size {self.alphabet_size}")
            state = self.rows[state][d]
            if state < 0:
                return None
        return state


def empty_dfa(alphabet_size: int) -> Dfa:
    """Canonical automaton of the empty language: one non-final state, no transitions."""
    return Dfa._from_rows(alphabet_size, 0, (), [(-1,) * alphabet_size])


def accepts(dfa: Dfa, word) -> bool:
    """True iff the word drives the automaton from its initial state into a final state."""
    end = dfa.walk(dfa.initial, word)
    return end is not None and end in dfa.finals


def _reachable(rows, sources) -> list[int]:
    """The states reachable from `sources` along `rows`, sources included.

    The one graph walk.  `rows` maps a state to its targets, -1 skipped:
    `dfa.rows` forward, `_predecessors` backward.  Breadth-first in row
    order, so from the initial state along `dfa.rows` it is the canonical layout.
    """
    queue = list(dict.fromkeys(sources))
    seen = set(queue)
    for s in queue:
        for t in rows[s]:
            if t >= 0 and t not in seen:
                seen.add(t)
                queue.append(t)
    return queue


def _predecessors(rows, reach) -> dict[int, list[int]]:
    """The predecessors of each state of `reach`, a set of states closed under `rows`."""
    preds: dict[int, list[int]] = {s: [] for s in reach}
    for s in reach:
        for t in rows[s]:
            if t >= 0:
                preds[t].append(s)
    return preds


def is_empty_language(dfa: Dfa) -> bool:
    """True iff the automaton accepts no word at all."""
    return dfa.finals.isdisjoint(_reachable(dfa.rows, [dfa.initial]))


def trim(dfa: Dfa) -> Dfa:
    """Keep exactly the states that are reachable from the initial state and can reach a final state.

    The language is unchanged.  When nothing survives, the canonical empty
    automaton is returned.  Surviving states keep their relative order, so an
    already-trim automaton comes back unchanged.  Only reachable states are
    visited.
    """
    reach = _reachable(dfa.rows, [dfa.initial])
    keep = set(_reachable(_predecessors(dfa.rows, reach), dfa.finals.intersection(reach)))
    if dfa.initial not in keep:
        return empty_dfa(dfa.alphabet_size)
    new, missing = {old: i for i, old in enumerate(sorted(keep))}, (-1,) * dfa.alphabet_size
    rows = [tuple(map(new.get, dfa.rows[s], missing)) for s in new]
    return Dfa._from_rows(dfa.alphabet_size, new[dfa.initial], [new[s] for s in dfa.finals if s in new], rows)


def complete(dfa: Dfa) -> Dfa:
    """Total version of the automaton; adds one non-final sink if any transition is missing."""
    if dfa.is_complete:
        return dfa
    p, sink = dfa.alphabet_size, dfa.state_count
    fill = {-1: sink}.get  # fill(t, t): the sink for -1, else t
    rows = [tuple(map(fill, row, row)) for row in dfa.rows]
    rows.append((sink,) * p)
    return Dfa._from_rows(p, dfa.initial, dfa.finals, rows)


def minimize(dfa: Dfa) -> Dfa:
    """Canonical minimal trimmed automaton of the language.

    Hopcroft's refinement runs on the reachable part, in `_reachable` order,
    and a sink for the missing transitions.  It starts from {finals,
    non-finals}, the smaller on the worklist.  A popped block splits, for
    each digit, every block that the states with that step into it partly
    cover.  The smaller part gets a new number and is pushed; the larger
    keeps the old one, still pending if it was, and needs no turn of its own
    once the smaller has had one.  So a state is only pushed in a part at
    most half its block, is in at most log2(n) + 1 popped blocks, and each
    transition is read once per pop of its target: O(n*p*log n).  The empty
    language's states end in the sink's class, dropped; the others, by first
    appearance along `reach`, are the quotient's breadth-first layout, as a
    class's later members follow its first and share its successor classes.
    The result is canonical: equal languages give equal minimized forms.
    """
    reach = _reachable(dfa.rows, [dfa.initial])
    if dfa.finals.isdisjoint(reach):
        return empty_dfa(dfa.alphabet_size)
    p, n = dfa.alphabet_size, len(reach) + 1
    # renumbered and completed in one pass: about 10 % faster on the benchmark documents
    new = {old: i for i, old in enumerate(reach)}
    new[-1] = n - 1
    rows = [tuple(map(new.__getitem__, dfa.rows[s])) for s in reach] + [(n - 1,) * p]
    preds = [[[] for _ in range(n)] for _ in range(p)]  # preds[d][t]: the s with s -d-> t
    for pred, column in zip(preds, zip(*rows)):
        for s, t in enumerate(column):
            pred[t].append(s)
    finals = {new[s] for s in dfa.finals if s in new}
    blocks = [set(finals), set(range(n)).difference(finals)]
    block_of = [0 if s in finals else 1 for s in range(n)]
    work = [int(len(blocks[1]) < len(blocks[0]))]
    while work:
        splitter = list(blocks[work.pop()])
        for pred in preds:
            cut: dict[int, list[int]] = {}
            for t in splitter:
                for s in pred[t]:
                    cut.setdefault(block_of[s], []).append(s)
            for y, inside in cut.items():
                whole = blocks[y]
                if len(inside) == len(whole):
                    continue
                if 2 * len(inside) <= len(whole):
                    small = set(inside)
                    whole -= small
                else:
                    small = whole.difference(inside)
                    blocks[y] = set(inside)
                work.append(len(blocks))
                for s in small:
                    block_of[s] = len(blocks)
                blocks.append(small)
    # the live classes by first appearance along reach: the sink's, block_of[-1], is the dead class
    new = {b: i for i, b in enumerate(b for b in dict.fromkeys(block_of) if b != block_of[-1])}
    cls = [new.get(b, -1) for b in block_of]
    rows = [tuple(map(cls.__getitem__, rows[next(iter(blocks[b]))])) for b in new]
    return Dfa._from_rows(p, 0, {cls[s] for s in finals}, rows)


_PRODUCT_MODES = {
    "union": lambda x, y: x or y,
    "intersection": lambda x, y: x and y,
    "difference": lambda x, y: x and not y,
}


def product(d1: Dfa, d2: Dfa, mode: str) -> Dfa:
    """Boolean combination of two languages over the same digit alphabet.

    The reachable pair automaton of the two inputs, complete; a component
    whose input has no transition becomes -1, the dead state, which no digit
    leaves.  `mode` is one of "union", "intersection", "difference".
    """
    if mode not in _PRODUCT_MODES:
        raise ValidationError(f"unknown product mode {mode!r}")
    if d1.alphabet_size != d2.alphabet_size:
        raise ValidationError(
            f"alphabet size mismatch: {d1.alphabet_size} vs {d2.alphabet_size}")
    combine = _PRODUCT_MODES[mode]
    p = d1.alphabet_size
    dead = (-1,) * p
    index = {(d1.initial, d2.initial): 0}
    queue = list(index)
    rows = []
    for s1, s2 in queue:
        row = []
        for nxt in zip(d1.rows[s1] if s1 >= 0 else dead, d2.rows[s2] if s2 >= 0 else dead):
            if nxt not in index:
                index[nxt] = len(index)
                queue.append(nxt)
            row.append(index[nxt])
        rows.append(tuple(row))
    finals = [i for (s1, s2), i in index.items()
              if combine(s1 in d1.finals, s2 in d2.finals)]
    return Dfa._from_rows(p, 0, finals, rows)


def equivalent(d1: Dfa, d2: Dfa) -> bool:
    """Language equality, decided by emptiness of both set differences."""
    return (is_empty_language(product(d1, d2, "difference"))
            and is_empty_language(product(d2, d1, "difference")))


def _accepts_leading_zero(dfa: Dfa) -> bool:
    """Does the automaton accept a word that starts with the digit 0?"""
    target = dfa.rows[dfa.initial][0]
    return target >= 0 and not dfa.finals.isdisjoint(_reachable(dfa.rows, [target]))


def restrict_to_canonical(dfa: Dfa) -> Dfa:
    """The accepted words with no leading zero: a fresh start numbered `state_count`,
    final iff the old start is, reads the old start's nonzero digits; nothing else changes."""
    finals = dfa.finals | {dfa.state_count} if dfa.initial in dfa.finals else dfa.finals
    fresh = (-1,) + dfa.rows[dfa.initial][1:]
    return Dfa._from_rows(dfa.alphabet_size, dfa.state_count, finals, dfa.rows + (fresh,))


@dataclass(frozen=True)
class RecognizableSet:
    """A set of natural numbers recognized by a digit automaton.

    The automaton accepts the canonical (no leading zero) representations of
    the positive elements.  Membership of zero is carried by `contains_zero`;
    the automaton's acceptance of the empty word is deliberately ignored, so
    zero never needs an ambiguous empty representation.

    Construction rejects a `contains_zero` that is not a `bool`, and
    automata that accept any word with a leading zero;
    use `restrict_to_canonical` first, or lenient document loading, to repair
    such automata.
    """

    dfa: Dfa
    contains_zero: bool = False

    def __post_init__(self):
        if type(self.contains_zero) is not bool:
            raise ValidationError(
                f"contains_zero must be a boolean, not {type(self.contains_zero).__name__}")
        if _accepts_leading_zero(self.dfa):
            raise ValidationError(
                "automaton accepts a word with a leading zero; "
                "apply restrict_to_canonical() or load leniently")

    @property
    def base(self) -> int:
        return self.dfa.alphabet_size

    @cached_property
    def normal_form(self) -> Dfa:
        """The completed canonical minimal automaton; every witness `state` refers to it."""
        return complete(minimize(self.dfa))

    @cached_property
    def _qualifying(self) -> list[list[int]]:
        """The strongly connected components of the qualifying states of `normal_form`, successors first.

        A state qualifies when the digits of some positive integer reach it,
        so the sink does when digit paths of `dfa` die mid-word.  One Tarjan
        walk per set, which `_is_infinite` and `profiles` both read.
        """
        nf = self.normal_form
        return list(_components(nf.rows, nf.rows[nf.initial][1:]))

    @cached_property
    def profiles(self) -> dict[int, UltimatePeriod]:
        """Length profile of each qualifying state of `normal_form`, computed once per set.

        The engine runs over the components of `_qualifying`.  A cap error is
        raised on every read: a cached property keeps no failed value.
        """
        return _reachable_profiles(self.normal_form, self._qualifying)


def _is_infinite(s: RecognizableSet) -> bool:
    """Is the set infinite?  True iff a cycle of the normal form follows a nonzero first digit.

    An infinite set has words of unbounded length, which run round a cycle.
    Conversely every state of the normal form but the dead class (the
    non-final state whose every digit leads back to it) reaches a final
    state, so a cycle outside it extends to elements of unbounded length.
    The walk is `s._qualifying`, which reads no length profile, so no cap applies.
    """
    rows, finals = s.normal_form.rows, s.normal_form.finals
    return any(rest or st in rows[st] and (st in finals or set(rows[st]) != {st})
               for st, *rest in s._qualifying)


def member(s: RecognizableSet, n: int) -> bool:
    """Is n an element of the set?"""
    if n < 0:
        raise ValidationError(f"set membership is defined for naturals, got {n}")
    if n == 0:
        return s.contains_zero
    return accepts(s.dfa, encode(n, s.base))


def _exact_depth_layers(dfa: Dfa, targets) -> Iterator[frozenset[int]]:
    """Layers r = 0, 1, 2, ...: the reachable states with a path of exactly r steps into `targets`.

    Layer 0 is `targets` itself, and each layer steps to the reachable
    predecessors of the one before, so the layers empty out exactly when
    finitely many words lead into `targets`.  The sequence is periodic from
    its first repeated layer on, and at most preperiod + period layers are
    stepped; later ones are yielded again by reference.
    """
    preds = _predecessors(dfa.rows, _reachable(dfa.rows, [dfa.initial]))
    layer = frozenset(targets)
    stepped: dict[frozenset[int], int] = {}
    while layer not in stepped:
        stepped[layer] = len(stepped)
        yield layer
        layer = frozenset(s for t in layer for s in preds.get(t, ()))
    yield from cycle(list(stepped)[stepped[layer]:])


def _ordered_values(dfa: Dfa, targets, bound=(1,), max_len=None) -> Iterator[int]:
    """The values >= `bound` of the words from the initial state into `targets`, ascending.

    `bound` is a digit tuple with a nonzero first digit.  Word lengths run
    upward from len(bound) to `max_len`, or to the first empty exact-depth
    layer, after which every layer is empty.  A word of length t is walked
    depth-first in blocks, g digits each but the first, of t % g or g; g is
    the largest with p**g <= 128.  A frame with r digits left lists the
    (value, target) pairs of its h-digit block, ascending, whose i-th digit
    leads into layers[r-1-i], so every block entered ends in a word.  The
    lists are memoized by (state, h, layers[r-h], leading-digit flag): each
    layer is a function of the one before, so layers[r-h] fixes every layer
    the pruning reads.  Only pushed frames build lists, of at most p**g
    pairs each, so memory is O(t) plus that memo, never a whole length.
    Words of length len(bound) are bounded below block by block, the only
    source of dead ends; a word's first digit is nonzero.
    """
    rows, p, first_len = dfa.rows, dfa.alphabet_size, len(bound)
    g = next(h for h in range(1, 8) if p ** (h + 1) > 128)
    layers: list[frozenset[int]] = []
    memo: dict[tuple, list[tuple[int, int]]] = {}

    def frame(state, r, tight, value, depth):
        # [pairs, next index, tight, value before the block * p**h, digits after the block]
        h = r % g or g
        key = (state, h, layers[r - h], not depth)
        if (pairs := memo.get(key)) is None:
            pairs = [(0, state)]
            for i in range(h):
                pairs = [(v * p + d, nxt) for v, s in pairs for d, nxt in enumerate(rows[s])
                         if nxt in layers[r - 1 - i] and (d or i or depth)]
            memo[key] = pairs
        return [pairs, bisect_left(pairs, (blocks[depth],)) if tight else 0, tight, value * p**h, r - h]

    for layer in _exact_depth_layers(dfa, targets):
        if not layer or len(layers) == max_len:
            return
        layers.append(layer)
        if (t := len(layers)) < first_len:
            continue
        blocks = encode(decode(bound, p), p**g) if t == first_len else ()
        stack = [frame(dfa.initial, t, t == first_len, 0, 0)]
        while stack:
            top = stack[-1]
            pairs, i, tight, base, rest = top
            if not rest:
                for v, _ in pairs[i:]:
                    yield base + v
            elif i < len(pairs):
                top[1] = i + 1
                v, nxt = pairs[i]
                stack.append(frame(nxt, rest, tight and v == blocks[len(stack) - 1], base + v, len(stack)))
                continue
            del stack[-1]


def iter_elements(s: RecognizableSet) -> Iterator[int]:
    """The elements of the set in increasing order, as a lazy iterator.

    Word lengths ascend, and within a length `_ordered_values` yields values
    in ascending order, which is numeric order because canonical words of
    length t occupy [p**(t-1), p**t).  The exact-depth layers of the
    untrimmed automaton empty out exactly when the set is finite.
    """
    values = _ordered_values(s.dfa, s.dfa.finals)
    return chain((0,), values) if s.contains_zero else values


def enumerate_elements(s: RecognizableSet, limit: int) -> Iterator[int]:
    """The first `limit` elements in increasing order (all of them if fewer exist), lazily."""
    if limit < 0:
        raise ValidationError(f"limit must be >= 0, got {limit}")
    # islice takes no stop past sys.maxsize, and no run reads that far
    return islice(iter_elements(s), min(limit, sys.maxsize))


def right_dense(s: RecognizableSet) -> bool:
    """Does every digit word extend to a zero-padded representation of an element?

    In the automaton of the zero-padded language, a fresh start state reads
    leading zeros and then hands over to the set's automaton.  The language
    is right dense iff every state reachable from that start has every
    transition and can still reach a final state.  The start itself then
    qualifies through its nonzero digits, so only the states reachable from
    the initial state's nonzero-digit targets are visited.
    """
    dfa = s.dfa
    firsts = dfa.rows[dfa.initial][1:]
    if -1 in firsts:
        return False
    reach = _reachable(dfa.rows, firsts)
    return (all(-1 not in dfa.rows[r] for r in reach)
            and len(_reachable(_predecessors(dfa.rows, reach), dfa.finals.intersection(reach))) == len(reach))


def example1() -> RecognizableSet:
    """The built-in right-dense-but-gappy set over base 2.

    Its elements are exactly the integers whose binary representation has odd
    length, i.e. the union of the blocks [4**i, 2*4**i).  Every digit word
    extends to a zero-padded representation of an element, yet the gaps
    [2*4**i, 4**(i+1)) grow without bound, so the set is not syndetic.
    """
    dfa = Dfa(2, 3, 0, frozenset({1}),
              {(0, 1): 1, (1, 0): 2, (1, 1): 2, (2, 0): 1, (2, 1): 1})
    return RecognizableSet(dfa, contains_zero=False)
