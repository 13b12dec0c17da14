"""Independent reference computations on automaton documents.

This module re-derives every fact the checks need from the document itself,
with its own code: walking, trimming, completion, equivalence, minimal state
counts, length profiles, exact interval-family checks, counting and ordered
enumeration.  It imports nothing from recset, so a defect in the program
cannot hide itself by also breaking its reference.
"""

from __future__ import annotations

import json


def digits_of(x: int, base: int) -> list[int]:
    out = []
    while x:
        x, d = divmod(x, base)
        out.append(d)
    return out[::-1]


class Auto:
    """A document's automaton: partial rows, no validation beyond shape."""

    def __init__(self, doc: dict):
        self.base = doc["base"]
        self.n = doc["state_count"]
        self.initial = doc["initial"]
        self.finals = frozenset(doc["finals"])
        self.contains_zero = bool(doc["contains_zero"])
        self.rows = [dict() for _ in range(self.n)]
        for s, d, t in doc["transitions"]:
            self.rows[s][d] = t

    @classmethod
    def from_text(cls, text: str) -> "Auto":
        return cls(json.loads(text))

    def walk(self, state, word):
        for d in word:
            state = self.rows[state].get(d)
            if state is None:
                return None
        return state

    def member(self, x: int) -> bool:
        if x == 0:
            return self.contains_zero
        end = self.walk(self.initial, digits_of(x, self.base))
        return end is not None and end in self.finals

    def reachable(self) -> set:
        seen = {self.initial}
        stack = [self.initial]
        while stack:
            s = stack.pop()
            for t in self.rows[s].values():
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen

    def coreachable(self) -> set:
        pred: dict = {}
        for s, row in enumerate(self.rows):
            for t in row.values():
                pred.setdefault(t, []).append(s)
        seen = set(self.finals)
        stack = list(seen)
        while stack:
            s = stack.pop()
            for r in pred.get(s, ()):
                if r not in seen:
                    seen.add(r)
                    stack.append(r)
        return seen

    def useful(self) -> set:
        return self.reachable() & self.coreachable()


class Total:
    """The trimmed automaton made total with one sink (index `sink`).

    States are the useful states of the document plus the sink; every state
    of a Total is reachable from its initial state, or the sink is unused.
    """

    def __init__(self, a: Auto):
        keep = sorted(a.useful())
        self.base = a.base
        self.index = {s: i for i, s in enumerate(keep)}
        self.sink = len(keep)
        self.n = len(keep) + 1
        self.initial = self.index.get(a.initial, self.sink)
        self.finals = frozenset(self.index[f] for f in a.finals if f in self.index)
        self.rows = []
        for s in keep:
            row = a.rows[s]
            self.rows.append([self.index.get(row.get(d), self.sink) for d in range(a.base)])
        self.rows.append([self.sink] * a.base)
        self.pred = [[] for _ in range(self.n)]
        for s, row in enumerate(self.rows):
            for t in set(row):
                self.pred[t].append(s)

    def step(self, states) -> frozenset:
        rows = self.rows
        return frozenset(t for s in states for t in rows[s])

    def walk(self, state: int, word) -> int:
        for d in word:
            state = self.rows[state][d]
        return state

    def qualifying(self) -> set:
        """States reached by some positive integer's digits."""
        start = {self.rows[self.initial][d] for d in range(1, self.base)}
        seen = set(start)
        stack = list(start)
        while stack:
            s = stack.pop()
            for t in self.rows[s]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen

    def set_is_infinite(self) -> bool:
        return bool(self.qualifying() & self.infinite_states())

    def infinite_states(self) -> set:
        """States with infinitely many accepted lengths: those that can reach
        a cycle of useful states (peel off useful states that cannot)."""
        useful = set(range(self.sink))
        out = {s: len({t for t in self.rows[s] if t in useful}) for s in useful}
        stack = [s for s, k in out.items() if k == 0]
        finite = set(stack)
        while stack:
            t = stack.pop()
            for s in self.pred[t]:
                if s in useful and s not in finite:
                    out[s] -= 1
                    if out[s] == 0:
                        finite.add(s)
                        stack.append(s)
        return useful - finite

    def cofinite_thresholds(self, states, cap: int = 20000):
        """Least C per state with every length >= C accepted, or None if some
        state misses infinitely many lengths.

        Runs the backward exact-length layers F_t (states accepting some word
        of length exactly t) to their first repeat; a state is cofinite iff
        it lies in every layer of the repeating part.
        """
        layers = [self.finals]
        seen = {self.finals: 0}
        while True:
            nxt = frozenset(s for t in layers[-1] for s in self.pred[t])
            if nxt in seen:
                start = seen[nxt]
                break
            seen[nxt] = len(layers)
            layers.append(nxt)
            if len(layers) > cap:
                return None
        cycle = layers[start:]
        thresholds = {}
        for s in states:
            if not all(s in layer for layer in cycle):
                return None
            c = start
            while c > 0 and s in layers[c - 1]:
                c -= 1
            thresholds[s] = c
        return thresholds

    def family_holds(self, m: int, a: int, b: int, nonempty: bool) -> bool:
        """Exact check, for every k >= 0, that the states reached from m's
        digits in exactly a+b*k more steps meet (or avoid) the finals.

        The subsets at k = 0, 1, 2, ... follow a deterministic map on a finite
        set, so checking up to the first repeat covers all k.
        """
        current = frozenset({self.walk(self.initial, digits_of(m, self.base))})
        for _ in range(a):
            current = self.step(current)
        seen = set()
        while current not in seen:
            if bool(current & self.finals) != nonempty:
                return False
            seen.add(current)
            for _ in range(b):
                current = self.step(current)
        return True


def profile(a: Auto, state: int, cap: int = 1 << 20):
    """Minimal (preperiod, period, head, cycle) of the lengths accepted from
    `state` of the document's own automaton, by forward subset layers."""
    current = frozenset({state})
    seen = {current: 0}
    bits = [1 if current & a.finals else 0]
    for n in range(1, cap + 1):
        current = frozenset(t for s in current for t in a.rows[s].values())
        if current in seen:
            first, window = seen[current], n - seen[current]
            break
        seen[current] = n
        bits.append(1 if current & a.finals else 0)
    else:
        return None
    period = next(p for p in range(1, window + 1) if window % p == 0 and all(
        bits[first + i] == bits[first + (i + p) % window] for i in range(window)))
    pre = first
    while pre > 0 and bits[pre - 1] == bits[pre - 1 + period]:
        pre -= 1
    return pre, period, bits[:pre], bits[pre:pre + period]


def minimal_state_count(a: Auto) -> int:
    """States of the minimal trimmed automaton, by Moore refinement."""
    t = Total(a)
    if not t.finals:
        return 1  # the canonical empty automaton has one state
    block = [1 if s in t.finals else 0 for s in range(t.n)]
    count = len(set(block))
    while True:
        sigs: dict = {}
        block = [sigs.setdefault((block[s], tuple(block[x] for x in t.rows[s])), len(sigs))
                 for s in range(t.n)]
        if len(sigs) == count:
            break
        count = len(sigs)
    # every other state is useful, so the sink is alone in its (dead) class,
    # which trimming removes
    return count - 1


def equivalent(a: Auto, b: Auto) -> bool:
    """Same set: the same zero flag and the same canonical words.

    Only words with a nonzero first digit are compared, so leading-zero words
    (repaired away by lenient loading) and the empty word do not count.
    """
    if a.base != b.base or a.contains_zero != b.contains_zero:
        return False
    starts = {(a.rows[a.initial].get(d), b.rows[b.initial].get(d)) for d in range(1, a.base)}
    seen = starts - {(None, None)}
    stack = list(seen)
    while stack:
        x, y = stack.pop()
        if (x is not None and x in a.finals) != (y is not None and y in b.finals):
            return False
        for d in range(a.base):
            nxt = (None if x is None else a.rows[x].get(d),
                   None if y is None else b.rows[y].get(d))
            if nxt != (None, None) and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return True


def accepts_leading_zero(a: Auto) -> bool:
    target = a.rows[a.initial].get(0)
    return target is not None and target in a.coreachable()


def split_start(a: Auto) -> Auto:
    """The automaton lenient loading builds: a fresh start state that reads
    the old start's nonzero digits only, so no leading zero is accepted."""
    fresh = a.n
    transitions = [[s, d, t] for s, row in enumerate(a.rows) for d, t in row.items()]
    transitions += [[fresh, d, t] for d, t in a.rows[a.initial].items() if d != 0]
    finals = set(a.finals) | ({fresh} if a.initial in a.finals else set())
    return Auto({"base": a.base, "state_count": a.n + 1, "initial": fresh, "finals": sorted(finals),
                 "transitions": transitions, "contains_zero": a.contains_zero})


def is_canonical_minimal_layout(m: Auto) -> bool:
    """Breadth-first numbering from 0, every state useful, no leading zero."""
    if m.initial != 0:
        return False
    if not m.finals:
        return m.n == 1 and not any(m.rows[0].values())
    order = [0]
    index = {0: 0}
    for s in order:
        for d in sorted(m.rows[s]):
            t = m.rows[s][d]
            if t not in index:
                index[t] = len(order)
                order.append(t)
    return order == list(range(m.n)) and m.useful() == set(range(m.n))


def right_dense(a: Auto) -> bool:
    """Every digit word extends to a zero-padded representation of an element.

    Leading zeros lead back to the padding state, and any other word leads to
    a state reached by some positive integer's digits; every one of those must
    still reach a final state, which in the trimmed total automaton means it
    is not the sink.  The padding state itself is then live as well.
    """
    t = Total(a)
    return t.sink not in t.qualifying()


def count_upto(a: Auto, x: int) -> int:
    """Number of elements <= x, by a digit dynamic programme."""
    if x < 0:
        return 0
    total = 1 if a.contains_zero else 0
    if x == 0:
        return total
    word = digits_of(x, a.base)
    length = len(word)
    # ways[r][s]: words of length r accepted from s
    live = a.reachable()
    ways = [{s: 1 if s in a.finals else 0 for s in live}]
    for _ in range(length):
        prev = ways[-1]
        ways.append({s: sum(prev[t] for t in a.rows[s].values()) for s in live})
    init = a.rows[a.initial]
    for r in range(1, length):  # all shorter canonical words
        total += sum(ways[r - 1][t] for d, t in init.items() if d != 0)
    state = a.initial
    for i, digit in enumerate(word):  # words of full length below x, then x
        lo = 1 if i == 0 else 0
        for d in range(lo, digit):
            t = a.rows[state].get(d)
            if t is not None:
                total += ways[length - i - 1][t]
        state = a.rows[state].get(digit)
        if state is None:
            return total
    return total + (1 if state in a.finals else 0)


def elements_upto(a: Auto, x: int) -> list[int]:
    """All elements <= x in increasing order, by depth-first digit search
    pruned with exact-length co-reachability."""
    out = [0] if a.contains_zero else []
    if x < 1:
        return out
    length = len(digits_of(x, a.base))
    layers = [set(a.finals)]
    for _ in range(length):
        prev = layers[-1]
        layers.append({s for s in range(a.n) if any(t in prev for t in a.rows[s].values())})
    p = a.base
    for t in range(1, length + 1):
        stack = [(a.initial, 0, t)]
        while stack:
            state, value, left = stack.pop()
            if left == 0:
                if value > x:
                    break
                out.append(value)
                continue
            row = a.rows[state]
            for d in range(p - 1, 0 if left == t else -1, -1):
                nxt = row.get(d)
                if nxt is not None and nxt in layers[left - 1]:
                    stack.append((nxt, value * p + d, left - 1))
    return out
