"""Shared corpus builders and independent oracles."""

from __future__ import annotations

import random

import pytest

from recset import (
    Dfa,
    RecognizableSet,
    complete,
    encode,
    example1,
    has_infinite_language,
    member,
    restrict_to_canonical,
    trim,
)
from recset.automata import _bfs_renumber


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


def finite_set(values, base: int) -> RecognizableSet:
    """Trie automaton accepting exactly the given values."""
    words = [encode(v, base).digits for v in sorted(set(values)) if v > 0]
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
        if require_infinite and not has_infinite_language(dfa):
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
    until the block count stops growing; the quotient then goes through the
    same trim and breadth-first layout as `minimize`, so outputs compare with ==.
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
    return _bfs_renumber(trim(quotient))


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
