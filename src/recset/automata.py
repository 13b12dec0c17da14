"""Deterministic finite automata over digit alphabets and the integer sets they recognize.

A Dfa may be partial: a missing transition rejects immediately.  Completion
(adding a single non-final sink) is an explicit internal step where a total
transition function is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import count, islice
from typing import Iterator

from .errors import RecsetError, ValidationError
from .numeration import DigitWord, encode


@dataclass(frozen=True)
class Dfa:
    """A deterministic automaton over digits 0..alphabet_size-1.

    States are the integers 0..state_count-1.  `transitions` maps
    (state, digit) to a state and may omit pairs; omitted pairs reject.
    """

    alphabet_size: int
    state_count: int
    initial: int
    finals: frozenset[int]
    transitions: dict[tuple[int, int], int]

    def __post_init__(self):
        object.__setattr__(self, "finals", frozenset(self.finals))
        object.__setattr__(self, "transitions", dict(self.transitions))
        if self.alphabet_size < 2:
            raise ValidationError(f"alphabet size must be >= 2, got {self.alphabet_size}")
        if self.state_count < 1:
            raise ValidationError(f"state count must be >= 1, got {self.state_count}")
        if not 0 <= self.initial < self.state_count:
            raise ValidationError(f"initial state {self.initial} out of range")
        for s in self.finals:
            if not 0 <= s < self.state_count:
                raise ValidationError(f"final state {s} out of range")
        for (s, d), t in self.transitions.items():
            if not 0 <= s < self.state_count or not 0 <= t < self.state_count:
                raise ValidationError(f"transition ({s},{d})->{t} references a missing state")
            if not 0 <= d < self.alphabet_size:
                raise ValidationError(f"transition digit {d} out of range")

    @cached_property
    def rows(self) -> tuple[dict[int, int], ...]:
        """Per-state view of the transition map: rows[s][digit] -> state."""
        rows: list[dict[int, int]] = [{} for _ in range(self.state_count)]
        for (s, d), t in self.transitions.items():
            rows[s][d] = t
        return tuple(rows)

    @property
    def is_complete(self) -> bool:
        return len(self.transitions) == self.state_count * self.alphabet_size

    def step(self, state: int, digit: int) -> int | None:
        return self.transitions.get((state, digit))

    def walk(self, state: int, word) -> int | None:
        """Follow a digit word; None as soon as a transition is missing."""
        for d in word:
            if not 0 <= d < self.alphabet_size:
                raise ValidationError(f"digit {d} out of range for alphabet size {self.alphabet_size}")
            nxt = self.transitions.get((state, d))
            if nxt is None:
                return None
            state = nxt
        return state


def empty_dfa(alphabet_size: int) -> Dfa:
    """Canonical automaton of the empty language: one non-final state, no transitions."""
    return Dfa(alphabet_size, 1, 0, frozenset(), {})


def accepts(dfa: Dfa, word) -> bool:
    """True iff the word drives the automaton from its initial state into a final state."""
    if isinstance(word, DigitWord) and word.base != dfa.alphabet_size:
        raise ValidationError(f"word base {word.base} does not match alphabet size {dfa.alphabet_size}")
    end = dfa.walk(dfa.initial, word)
    return end is not None and end in dfa.finals


def _reachable(dfa: Dfa, sources=None) -> set[int]:
    """States reachable from `sources` (default: the initial state), sources included."""
    seen = {dfa.initial} if sources is None else set(sources)
    stack = list(seen)
    while stack:
        s = stack.pop()
        for t in dfa.rows[s].values():
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def _coaccessible(dfa: Dfa) -> set[int]:
    preds: list[list[int]] = [[] for _ in range(dfa.state_count)]
    for (s, _d), t in dfa.transitions.items():
        preds[t].append(s)
    seen = set(dfa.finals)
    stack = list(dfa.finals)
    while stack:
        s = stack.pop()
        for r in preds[s]:
            if r not in seen:
                seen.add(r)
                stack.append(r)
    return seen


def is_empty_language(dfa: Dfa) -> bool:
    """True iff the automaton accepts no word at all."""
    return not (_reachable(dfa) & dfa.finals)


def trim(dfa: Dfa) -> Dfa:
    """Keep exactly the states that are reachable from the initial state and can reach a final state.

    The language is unchanged.  When nothing survives, the canonical empty
    automaton is returned.  Surviving states keep their relative order, so an
    already-trim automaton comes back unchanged.
    """
    keep = _reachable(dfa) & _coaccessible(dfa)
    if dfa.initial not in keep:
        return empty_dfa(dfa.alphabet_size)
    remap = {old: new for new, old in enumerate(sorted(keep))}
    transitions = {(remap[s], d): remap[t]
                   for (s, d), t in dfa.transitions.items()
                   if s in keep and t in keep}
    finals = frozenset(remap[s] for s in dfa.finals if s in keep)
    return Dfa(dfa.alphabet_size, len(keep), remap[dfa.initial], finals, transitions)


def complete(dfa: Dfa) -> Dfa:
    """Total version of the automaton; adds one non-final sink if any transition is missing."""
    if dfa.is_complete:
        return dfa
    sink = dfa.state_count
    transitions = dict(dfa.transitions)
    for s in range(dfa.state_count + 1):
        for d in range(dfa.alphabet_size):
            transitions.setdefault((s, d), sink)
    return Dfa(dfa.alphabet_size, dfa.state_count + 1, dfa.initial, dfa.finals, transitions)


def _bfs_renumber(dfa: Dfa) -> Dfa:
    """Renumber states breadth-first from the initial state, digits ascending.

    Assumes every state is reachable (true after trim); the result is the
    canonical layout, so language-equal minimal automata become structurally
    identical.
    """
    order = {dfa.initial: 0}
    queue = [dfa.initial]
    qi = 0
    while qi < len(queue):
        s = queue[qi]
        qi += 1
        row = dfa.rows[s]
        for d in range(dfa.alphabet_size):
            t = row.get(d)
            if t is not None and t not in order:
                order[t] = len(order)
                queue.append(t)
    if len(order) != dfa.state_count:
        raise RecsetError("internal: renumbering requires a fully reachable automaton")
    transitions = {(order[s], d): order[t] for (s, d), t in dfa.transitions.items()}
    return Dfa(dfa.alphabet_size, dfa.state_count, 0,
               frozenset(order[s] for s in dfa.finals), transitions)


def minimize(dfa: Dfa) -> Dfa:
    """Canonical minimal trimmed automaton of the language.

    Hopcroft's partition refinement runs on the completed automaton, the dead
    class is trimmed away again, and states are renumbered breadth-first.
    Refinement starts from {finals, non-finals} and a worklist of (block,
    digit) splitters; the states with a digit-d step into the splitter block
    cut every block they partly cover.  The smaller half of a cut block gets
    the new block number and goes on the worklist for every digit: if the old
    block was pending it still is, and either half serves as splitter once the
    other has been used, so each state is in a splitter at most log2(n) times
    per digit, O(n*p*log n) in all.  Because the result is canonical, two
    automata recognize the same language iff their minimized forms are equal.
    """
    trimmed = trim(dfa)
    if not trimmed.finals:
        return trimmed  # canonical empty automaton
    c = complete(trimmed)
    p, n, delta = c.alphabet_size, c.state_count, c.transitions
    preds: list[list[int]] = [[] for _ in range(p * n)]  # preds[d*n + t]: s with s -d-> t
    for (s, d), t in delta.items():
        preds[d * n + t].append(s)
    blocks = [set(c.finals), set(range(n)).difference(c.finals)]
    block_of = [0 if s in c.finals else 1 for s in range(n)]
    work = [(int(len(blocks[1]) < len(blocks[0])), d) for d in range(p)]
    if not blocks[1]:
        blocks.pop()
        work = []
    while work:
        b, d = work.pop()
        cut: dict[int, list[int]] = {}
        for t in blocks[b]:
            for s in preds[d * n + t]:
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
            new = len(blocks)
            blocks.append(small)
            for s in small:
                block_of[s] = new
            work.extend((new, e) for e in range(p))
    reps = [next(iter(members)) for members in blocks]
    transitions = {(b, d): block_of[delta[(r, d)]] for b, r in enumerate(reps) for d in range(p)}
    quotient = Dfa(p, len(blocks), block_of[c.initial],
                   frozenset(block_of[s] for s in c.finals), transitions)
    return _bfs_renumber(trim(quotient))


_PRODUCT_MODES = {
    "union": lambda x, y: x or y,
    "intersection": lambda x, y: x and y,
    "difference": lambda x, y: x and not y,
}


def product(d1: Dfa, d2: Dfa, mode: str) -> Dfa:
    """Boolean combination of two languages over the same digit alphabet.

    Both inputs are completed first, then the reachable pair automaton is
    built; `mode` is one of "union", "intersection", "difference".
    """
    if mode not in _PRODUCT_MODES:
        raise ValidationError(f"unknown product mode {mode!r}")
    if d1.alphabet_size != d2.alphabet_size:
        raise ValidationError(
            f"alphabet size mismatch: {d1.alphabet_size} vs {d2.alphabet_size}")
    combine = _PRODUCT_MODES[mode]
    c1, c2 = complete(d1), complete(d2)
    p = c1.alphabet_size
    start = (c1.initial, c2.initial)
    index = {start: 0}
    queue = [start]
    qi = 0
    transitions = {}
    while qi < len(queue):
        pair = queue[qi]
        src = index[pair]
        qi += 1
        s1, s2 = pair
        for d in range(p):
            nxt = (c1.rows[s1][d], c2.rows[s2][d])
            if nxt not in index:
                index[nxt] = len(index)
                queue.append(nxt)
            transitions[(src, d)] = index[nxt]
    finals = frozenset(i for (s1, s2), i in index.items()
                       if combine(s1 in c1.finals, s2 in c2.finals))
    return Dfa(p, len(index), 0, finals, transitions)


def equivalent(d1: Dfa, d2: Dfa) -> bool:
    """Language equality, decided by emptiness of both set differences."""
    if d1.alphabet_size != d2.alphabet_size:
        raise ValidationError(
            f"alphabet size mismatch: {d1.alphabet_size} vs {d2.alphabet_size}")
    return (is_empty_language(product(d1, d2, "difference"))
            and is_empty_language(product(d2, d1, "difference")))


def has_infinite_language(dfa: Dfa) -> bool:
    """True iff the automaton accepts infinitely many words.

    Equivalent to the trimmed automaton containing a cycle, checked with a
    topological sort.
    """
    t = trim(dfa)
    if not t.finals:
        return False
    n = t.state_count
    succ = [set(t.rows[s].values()) for s in range(n)]
    indeg = [0] * n
    for s in range(n):
        for v in succ[s]:
            indeg[v] += 1
    queue = [s for s in range(n) if indeg[s] == 0]
    seen = 0
    while queue:
        s = queue.pop()
        seen += 1
        for v in succ[s]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return seen < n


def canonical_words_dfa(alphabet_size: int) -> Dfa:
    """The language of words with no leading zero (the empty word included)."""
    transitions = {(0, d): 1 for d in range(1, alphabet_size)}
    transitions.update({(1, d): 1 for d in range(alphabet_size)})
    return Dfa(alphabet_size, 2, 0, frozenset({0, 1}), transitions)


def restrict_to_canonical(dfa: Dfa) -> Dfa:
    """Intersect with the canonical-word language and trim the result."""
    return trim(product(dfa, canonical_words_dfa(dfa.alphabet_size), "intersection"))


@dataclass(frozen=True)
class RecognizableSet:
    """A set of natural numbers recognized by a digit automaton.

    The automaton accepts the canonical (no leading zero) representations of
    the positive elements.  Membership of zero is carried by `contains_zero`;
    the automaton's acceptance of the empty word is deliberately ignored, so
    zero never needs an ambiguous empty representation.

    Construction rejects automata that accept any word with a leading zero;
    use `restrict_to_canonical` first, or lenient document loading, to repair
    such automata.
    """

    dfa: Dfa
    contains_zero: bool = False

    def __post_init__(self):
        target = self.dfa.step(self.dfa.initial, 0)
        if target is not None and target in _coaccessible(self.dfa):
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


def member(s: RecognizableSet, n: int) -> bool:
    """Is n an element of the set?"""
    if n < 0:
        raise ValidationError(f"set membership is defined for naturals, got {n}")
    if n == 0:
        return s.contains_zero
    return accepts(s.dfa, encode(n, s.base))


def _extend_layers(layers: list[frozenset[int]], rows, n: int, upto: int) -> None:
    """Grow exact-depth coreachability layers until layers[upto] exists.

    layers[r] holds the states with a path of exactly r steps into layers[0].
    """
    while len(layers) <= upto:
        prev = layers[-1]
        layers.append(frozenset(s for s in range(n)
                                if any(t in prev for t in rows[s].values())))


def _ordered_paths(rows, p: int, start: int, layers, t: int, first: int = 1,
                   bound=None) -> Iterator[int]:
    """The values of every length-t path from `start` into layers[0], ascending.

    Depth-first, digits ascending; a digit is taken only if its target is in
    the exact-depth layer for the steps left, so every branch entered ends in
    a path.  `first` is the least first digit (0 for extension words).
    `bound`, a digit tuple of length t, keeps only values >= its value and is
    the only source of dead ends.  Memory is O(t), never a whole length.
    """
    # frame: [state, next digit to try, prefix still equal to bound]; `value`
    # is the top frame's prefix, kept once so long words cost O(t) digits, not O(t**2)
    tight = bound is not None
    stack = [[start, max(first, bound[0]) if tight else first, tight]]
    value = 0
    while stack:
        frame = stack[-1]
        state, lo, tight = frame
        depth = len(stack) - 1
        row = rows[state]
        layer = layers[t - depth - 1]
        for d in range(lo, p):
            if (nxt := row.get(d)) in layer:
                if depth == t - 1:
                    yield value * p + d
                    continue
                frame[1] = d + 1
                child_tight = tight and d == bound[depth]
                stack.append([nxt, bound[depth + 1] if child_tight else 0, child_tight])
                value = value * p + d
                break
        else:
            del stack[-1]
            value //= p


def iter_elements(s: RecognizableSet) -> Iterator[int]:
    """Yield the elements of the set in increasing order, lazily.

    Word lengths ascend, and within a length `_ordered_paths` yields values in
    ascending order, which is numeric order because canonical words of length
    t occupy [p**(t-1), p**t).  Memory grows with the word length, not with
    the number of words of a length.  In a trimmed automaton the exact-depth
    layers empty out exactly when the language is finite, which ends the walk.
    """
    if s.contains_zero:
        yield 0
    dfa = trim(s.dfa)
    if not dfa.finals:
        return
    layers: list[frozenset[int]] = [frozenset(dfa.finals)]
    for t in count(1):
        _extend_layers(layers, dfa.rows, dfa.state_count, t - 1)
        if not layers[t - 1]:
            return
        yield from _ordered_paths(dfa.rows, dfa.alphabet_size, dfa.initial, layers, t)


def enumerate_elements(s: RecognizableSet, limit: int) -> list[int]:
    """The first `limit` elements in increasing order (all of them if fewer exist)."""
    if limit < 0:
        raise ValidationError(f"limit must be >= 0, got {limit}")
    return list(islice(iter_elements(s), limit))


def right_dense(s: RecognizableSet) -> bool:
    """Does every digit word extend to a zero-padded representation of an element?

    Built on the automaton of the zero-padded language (a fresh start state
    absorbs leading zeros, then hands over to the set's automaton): after
    completion, the language is right dense iff every reachable state can
    still reach a final state.
    """
    dfa = s.dfa
    p = dfa.alphabet_size
    pad = dfa.state_count  # fresh state that reads leading zeros
    transitions = dict(dfa.transitions)
    transitions[(pad, 0)] = pad
    for d in range(1, p):
        t = dfa.step(dfa.initial, d)
        if t is not None:
            transitions[(pad, d)] = t
    finals = set(dfa.finals)
    if s.contains_zero:
        finals.add(pad)
    padded = complete(Dfa(p, dfa.state_count + 1, pad, frozenset(finals), transitions))
    return _reachable(padded) <= _coaccessible(padded)


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
