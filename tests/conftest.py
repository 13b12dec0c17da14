"""Shared corpus builders and independent oracles."""

from __future__ import annotations

import random

import pytest

from recset import (
    Dfa,
    RecognizableSet,
    UltimatePeriod,
    complete,
    encode,
    example1,
    member,
    restrict_to_canonical,
    trim,
)


def multiples_of(k: int, base: int) -> RecognizableSet:
    """Divisibility-by-k set in the given base (0 included)."""
    init = k
    transitions = {}
    for d in range(1, base):
        transitions[(init, d)] = d % k
    for r in range(k):
        for d in range(base):
            transitions[(r, d)] = (r * base + d) % k
    dfa = Dfa(base, k + 1, init, frozenset({0}), transitions)
    return RecognizableSet(dfa, contains_zero=True)


def powers_of_two() -> RecognizableSet:
    """{1, 2, 4, 8, ...} over base 2 (language: a one followed by zeros)."""
    dfa = Dfa(2, 2, 0, frozenset({1}), {(0, 1): 1, (1, 0): 1})
    return RecognizableSet(dfa, contains_zero=False)


def full_set(base: int) -> RecognizableSet:
    """All of the naturals in the given base."""
    transitions = {(0, d): 1 for d in range(1, base)}
    transitions.update({(1, d): 1 for d in range(base)})
    return RecognizableSet(Dfa(base, 2, 0, frozenset({1}), transitions), contains_zero=True)


def chain(n: int, base: int) -> RecognizableSet:
    """Numbers whose digit count is a positive multiple of n-1.

    A start state feeds a single cycle of n-1 states with one final state, so
    each word length holds either no element or all base**(t-1) canonical
    words of length t.
    """
    transitions = {(0, d): 1 for d in range(1, base)}
    for i in range(1, n):
        for d in range(base):
            transitions[(i, d)] = i + 1 if i < n - 1 else 1
    return RecognizableSet(Dfa(base, n, 0, frozenset({n - 1}), transitions))


def prime_cycles(base: int = 10, primes=(2, 3, 5, 7, 11, 13, 17),
                 fan_out: bool = False) -> RecognizableSet:
    """The leading digit picks one of the cycles of the given prime lengths.

    Each cycle's entry state is its only final state, so a number belongs iff
    its digit count less one is a multiple of its cycle's length.  With
    `fan_out`, the only leading digit is 1, it leads to one state, and the
    second digit picks the cycle from there: the lengths accepted from that
    state recur only after the lcm of the primes.
    """
    transitions, entries, n = {}, [], 2 if fan_out else 1
    for p in primes:
        entries.append(n)
        for j in range(p):
            for d in range(base):
                transitions[(n + j, d)] = n + (j + 1) % p
        n += p
    picker = 1 if fan_out else 0
    if fan_out:
        transitions[(0, 1)] = picker
    for d in range(1 - picker, base):
        transitions[(picker, d)] = entries[(d - 1 + picker) % len(entries)]
    return RecognizableSet(Dfa(base, n, 0, frozenset(entries), transitions))


def fan_out_cycles(primes=(2, 3, 5, 7, 11, 13)) -> RecognizableSet:
    """A syndetic set whose length profiles all have period 1, but not its subsets.

    In base len(primes) + 1, the leading digit 1 leads to one fan-out state,
    whose digit i enters the i-th cycle; digit 0 walks each cycle, whose entry
    is its only final state, and every other digit goes to a final sink.  The
    subsets reached from the fan-out state recur only after the lcm of the
    primes.
    """
    base, sink, n = len(primes) + 1, 2, 3
    transitions = {(0, 1): 1, (1, 0): sink}
    transitions.update({(0, d): sink for d in range(2, base)})
    transitions.update({(sink, d): sink for d in range(base)})
    finals = {sink}
    for i, p in enumerate(primes, 1):
        transitions[(1, i)] = n
        finals.add(n)
        for j in range(p):
            transitions[(n + j, 0)] = n + (j + 1) % p
            transitions.update({(n + j, d): sink for d in range(1, base)})
        n += p
    return RecognizableSet(Dfa(base, n, 0, frozenset(finals), transitions))


def finite_set(values, base: int) -> RecognizableSet:
    """Trie automaton accepting exactly the given values."""
    words = [encode(v, base) for v in sorted(set(values)) if v > 0]
    states = {(): 0}
    transitions = {}
    finals = set()
    for w in words:
        cur = ()
        for d in w:
            nxt = cur + (d,)
            if nxt not in states:
                states[nxt] = len(states)
            transitions[(states[cur], d)] = states[nxt]
            cur = nxt
        finals.add(states[cur])
    dfa = Dfa(base, len(states), 0, frozenset(finals), transitions)
    return RecognizableSet(dfa, contains_zero=0 in values)


def random_dfa(rng: random.Random, max_states: int = 6, alphabet: int = 2,
               density: float = 0.85) -> Dfa:
    n = rng.randint(1, max_states)
    transitions = {}
    for s in range(n):
        for d in range(alphabet):
            if rng.random() < density:
                transitions[(s, d)] = rng.randrange(n)
    finals = frozenset(s for s in range(n) if rng.random() < 0.4)
    return Dfa(alphabet, n, rng.randrange(n), finals, transitions)


def random_recognizable_sets(seed: int, count: int, bases=(2, 3),
                             max_states: int = 6,
                             require_infinite: bool = True) -> list[RecognizableSet]:
    rng = random.Random(seed)
    out: list[RecognizableSet] = []
    while len(out) < count:
        dfa = restrict_to_canonical(random_dfa(rng, max_states, rng.choice(bases)))
        if require_infinite and not is_infinite_language(dfa):
            continue
        out.append(RecognizableSet(dfa, contains_zero=rng.random() < 0.5))
    return out


# -- Independent oracles ------------------------------------------------------

def example1_oracle(n: int) -> bool:
    """Closed form: n belongs iff its binary representation has odd length."""
    return n >= 1 and n.bit_length() % 2 == 1


def moore_minimize(dfa: Dfa) -> Dfa:
    """Minimization by Moore's quadratic refinement, the slow reference for `minimize`.

    Every round re-splits all states by (block, block of each successor)
    until the block count stops growing; the quotient is then trimmed and
    laid out breadth-first from the initial state, digits ascending, which
    is `minimize`'s canonical layout, so outputs compare with ==.
    """
    trimmed = trim(dfa)
    if not trimmed.finals:
        return trimmed
    c = complete(trimmed)
    p, n, rows = c.alphabet_size, c.state_count, c.rows
    block = [0 if s in c.finals else 1 for s in range(n)]
    nblocks = len(set(block))
    while True:
        sigs: dict = {}
        block = [sigs.setdefault((block[s], tuple(block[rows[s][d]] for d in range(p))), len(sigs))
                 for s in range(n)]
        if len(sigs) == nblocks:
            break
        nblocks = len(sigs)
    transitions = {(block[s], d): block[rows[s][d]] for s in range(n) for d in range(p)}
    quotient = Dfa(p, nblocks, block[c.initial], frozenset(block[s] for s in c.finals), transitions)
    live = trim(quotient)
    order, queue = {live.initial: 0}, [live.initial]
    for s in queue:
        for t in live.rows[s]:
            if t >= 0 and t not in order:
                order[t] = len(order)
                queue.append(t)
    transitions = {(order[s], d): order[t] for (s, d), t in live.transitions.items()}
    return Dfa(p, len(order), 0, frozenset(order[s] for s in live.finals), transitions)


def subset_step(dfa: Dfa, states) -> frozenset[int]:
    """One synchronous step: every state reachable from `states` by one digit.

    Undefined transitions contribute nothing; the empty subset is absorbing.
    """
    return frozenset(t for s in states for t in dfa.rows[s] if t >= 0)


def is_infinite_language(dfa: Dfa) -> bool:
    """Brute-force finiteness test: is some word of a length in [n, 2n) accepted?

    n is the state count.  An accepted word of n or more digits repeats a
    state, so it pumps to infinitely many; and cutting a repeat of at most n
    steps out of a shortest accepted word of 2n or more digits leaves one of
    n or more, so the shortest such word is shorter than 2n.
    """
    n, subset = dfa.state_count, frozenset({dfa.initial})
    for length in range(2 * n):
        if length >= n and subset & dfa.finals:
            return True
        subset = subset_step(dfa, subset)
    return False


def walk_profile(dfa: Dfa, state: int) -> UltimatePeriod:
    """Length profile by the forward subset walk, the slow reference for the engine.

    Walks the subsets reached from {state} to the first repeated one, records
    whether each meets the finals, and cuts the observed recurrence down to
    its least period and then its least preperiod.
    """
    walk, first_seen = [frozenset({state})], {}
    while walk[-1] not in first_seen:
        first_seen[walk[-1]] = len(walk) - 1
        walk.append(subset_step(dfa, walk[-1]))
    pre = first_seen[walk.pop()]
    bits = [1 if subset & dfa.finals else 0 for subset in walk]
    window = len(bits) - pre
    period = next(c for c in range(1, window + 1) if window % c == 0
                  and all(bits[pre + i] == bits[pre + (i + c) % window] for i in range(window)))
    while pre > 0 and bits[pre - 1] == bits[pre - 1 + period]:
        pre -= 1
    return UltimatePeriod(bytes(bits[:pre]), bytes(bits[pre:pre + period]))


def scan_elements(s: RecognizableSet, bound: int) -> list[int]:
    """Membership scan, the slow reference for enumeration."""
    return [n for n in range(bound + 1) if member(s, n)]


@pytest.fixture(scope="session")
def corpus() -> dict[str, RecognizableSet]:
    return {
        "example1": example1(),
        "mult3_base2": multiples_of(3, 2),
        "mult3_base3": multiples_of(3, 3),
        "powers2": powers_of_two(),
        "naturals2": full_set(2),
        "naturals3": full_set(3),
    }
