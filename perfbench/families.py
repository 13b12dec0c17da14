"""Seeded automaton families, built as plain documents (format_version 1).

Nothing here imports recset: the inputs a run measures must not depend on the
code under test, so that two commits can be compared on identical documents.
"""

from __future__ import annotations

import random

PRIMES = (2, 3, 5, 7, 11, 13, 17)


def document(base, state_count, initial, finals, transitions, contains_zero):
    return {
        "base": base,
        "contains_zero": bool(contains_zero),
        "finals": sorted(finals),
        "format_version": 1,
        "initial": initial,
        "state_count": state_count,
        "transitions": sorted([s, d, t] for (s, d), t in transitions.items()),
    }


def _reach(start, succ):
    seen = set(start)
    stack = list(start)
    while stack:
        s = stack.pop()
        for t in succ[s]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def trimmed_document(base, n, initial, finals, transitions, contains_zero):
    """Document of the reachable and co-reachable part, states kept in order."""
    succ = [[] for _ in range(n)]
    pred = [[] for _ in range(n)]
    for (s, _d), t in transitions.items():
        succ[s].append(t)
        pred[t].append(s)
    keep = _reach([initial], succ) & _reach(finals, pred)
    if initial not in keep:
        return document(base, 1, 0, (), {}, contains_zero)
    remap = {old: new for new, old in enumerate(sorted(keep))}
    trans = {(remap[s], d): remap[t] for (s, d), t in transitions.items()
             if s in keep and t in keep}
    return document(base, len(keep), remap[initial],
                    [remap[f] for f in finals if f in keep], trans, contains_zero)


def raw_random(rng: random.Random, n: int, base: int) -> dict:
    """Random partial DFA on n states as drawn: it usually accepts words with
    leading zeros, so only lenient loading takes it."""
    transitions = {}
    for s in range(n):
        for d in range(base):
            if rng.random() < 0.9:
                transitions[(s, d)] = rng.randrange(n)
    finals = [s for s in range(n) if rng.random() < 0.3]
    return document(base, n, rng.randrange(n), finals, transitions, rng.random() < 0.5)


def random_trimmed(rng: random.Random, n: int, base: int) -> dict:
    """`raw_random` behind a fresh start state that reads only the nonzero
    leading digits of the drawn start, trimmed."""
    raw = raw_random(rng, n, base)
    transitions = {(s, d): t for s, d, t in raw["transitions"]}
    transitions.update({(n, d): t for s, d, t in raw["transitions"]
                        if s == raw["initial"] and d != 0})
    return trimmed_document(base, n + 1, n, raw["finals"], transitions, raw["contains_zero"])


def multiples(k: int, base: int) -> dict:
    """Multiples of k (0 included): residues 0..k-1 plus a start state k."""
    transitions = {(k, d): d % k for d in range(1, base)}
    for r in range(k):
        for d in range(base):
            transitions[(r, d)] = (r * base + d) % k
    return document(base, k + 1, k, [0], transitions, True)


def periodic(residues, k: int, base: int) -> dict:
    """{x : x mod k in residues}; the same set is recognizable in every base."""
    transitions = {(k, d): d % k for d in range(1, base)}
    for r in range(k):
        for d in range(base):
            transitions[(r, d)] = (r * base + d) % k
    return document(base, k + 1, k, sorted(residues), transitions, 0 in residues)


def chain(n: int, base: int) -> dict:
    """Moore-worst chain: numbers whose digit count is a multiple of n-1.

    A start state feeds a single cycle of n-1 states with one final state, so
    every state is distinguished only at its own distance from the final and
    Moore refinement needs about n rounds.  The minimal automaton has n states.
    """
    transitions = {(0, d): 1 for d in range(1, base)}
    for i in range(1, n):
        nxt = i + 1 if i < n - 1 else 1
        for d in range(base):
            transitions[(i, d)] = nxt
    return document(base, n, 0, [n - 1], transitions, False)


def prime_cycles(rng: random.Random) -> dict:
    """Base 10: the leading digit picks one of the cycles of lengths 2..17,
    whose final positions are a random nonempty subset."""
    transitions = {}
    finals = []
    entry = []
    nxt = 1
    for p in PRIMES:
        entry.append(nxt)
        for j in range(p):
            for d in range(10):
                transitions[(nxt + j, d)] = nxt + (j + 1) % p
        marked = [j for j in range(p) if rng.random() < 0.5] or [rng.randrange(p)]
        finals.extend(nxt + j for j in marked)
        nxt += p
    for d in range(1, 10):
        transitions[(0, d)] = entry[(d - 1) % len(PRIMES)]
    return document(10, nxt, 0, finals, transitions, False)


def overdeclared(rng: random.Random, declared: int, base: int) -> dict:
    """A small random set whose document declares `declared` states, almost
    all of them isolated."""
    doc = random_trimmed(rng, rng.randint(8, 24), base)
    doc["state_count"] = max(declared, doc["state_count"])
    return doc


def example1() -> dict:
    """Binary numbers of odd digit length."""
    return document(2, 3, 0, [1], {(0, 1): 1, (1, 0): 2, (1, 1): 2,
                                   (2, 0): 1, (2, 1): 1}, False)


def naturals(base: int) -> dict:
    transitions = {(0, d): 1 for d in range(1, base)}
    transitions.update({(1, d): 1 for d in range(base)})
    return document(base, 2, 0, [1], transitions, True)


def grid(lo: int, hi: int, count: int) -> list[int]:
    """`count` evenly spaced sizes across [lo, hi], the middle of each slice.

    Sizes are fixed rather than drawn: the cost of most operations grows
    steeply with size, and a drawn size would make the total work of a pass
    depend on the seed.  The seed decides the structure of each document.
    """
    return [lo + int((hi - lo) * (i + 0.5) / count) for i in range(count)]
