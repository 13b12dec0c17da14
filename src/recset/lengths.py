"""Per-state length sets and their ultimately periodic structure.

For a state s, the length set is { |w| : w drives s into a final state }; its
indicator sequence is ultimately periodic.  One recurrence computes it:
`_reachable_profiles` runs bit_s(r) = OR over digits d of bit_delta(s,d)(r - 1)
over the states reachable from some sources, one strongly connected component
at a time, successors first (`_components`), and reduces each profile to
minimal (preperiod, period) form.  `length_profile`, the syndeticity decision
and its finiteness test, the witness searches and the witness verifier all
read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .automata import Dfa
from .errors import SearchCapExceededError, ValidationError

# The most depths one component's recurrence may run.  Each depth holds a vector
# and a (vector, depth mod lcm) key: 190 bytes for a one-state component on 64-bit
# CPython (tracemalloc, 97 MB at 510 510 depths), so 2**20 depths stay near 200 MB.
DEFAULT_SUBSET_CAP = 1 << 20


@dataclass(frozen=True)
class UltimatePeriod:
    """Minimal eventually-periodic description of a 0/1 sequence.

    bit(n) == head_bits[n] for n < preperiod, and
    bit(n) == cycle_bits[(n - preperiod) % period] for n >= preperiod.
    Both preperiod and period are minimal for the sequence.
    """

    preperiod: int
    period: int
    head_bits: tuple[int, ...]
    cycle_bits: tuple[int, ...]

    def __post_init__(self):
        if self.period < 1:
            raise ValidationError(f"period must be >= 1, got {self.period}")
        if len(self.head_bits) != self.preperiod or len(self.cycle_bits) != self.period:
            raise ValidationError("bit sequences do not match preperiod/period")

    def bit(self, n: int) -> int:
        if n < self.preperiod:
            return self.head_bits[n]
        return self.cycle_bits[(n - self.preperiod) % self.period]


def _min_period(seq, a: int, window: int) -> int:
    """Least period of seq[a:a + window], read cyclically; it divides the window."""
    return next(c for c in range(1, window + 1) if window % c == 0
                and all(seq[a + i] == seq[a + (i + c) % window] for i in range(window)))


def _reduced(bits, a: int, period: int) -> UltimatePeriod:
    """The minimal profile of bits, known to have `period` as its least period from a on."""
    pre = a
    while pre > 0 and bits[pre - 1] == bits[pre - 1 + period]:
        pre -= 1
    return UltimatePeriod(pre, period, tuple(bits[:pre]), tuple(bits[pre:pre + period]))


def _components(rows, sources) -> Iterator[list[int]]:
    """The strongly connected components of the states reachable from `sources`, successors first.

    Tarjan's algorithm on an explicit stack of [state, targets, low link]
    frames, so no recursion: a component is yielded only after every
    component it has a transition into.  Only visited states get an index;
    it becomes len(rows), as -1's is, once their component is out, so
    neither a finished state nor a missing target lowers a low link.
    """
    n, stack, index = len(rows), [], {-1: len(rows)}
    get = index.get
    for root in sources:
        if root in index:
            continue
        index[root] = len(index)
        stack.append(root)
        work = [[root, iter(rows[root]), index[root]]]
        while work:
            frame = work[-1]
            s, targets, low = frame
            for t in targets:
                i = get(t)
                if i is None:
                    frame[2] = low
                    index[t] = i = len(index)
                    stack.append(t)
                    work.append([t, iter(rows[t]), i])
                    break
                if i < low:
                    low = i
            else:
                work.pop()
                if work and low < work[-1][2]:
                    work[-1][2] = low
                if low == index[s]:
                    comp = [stack.pop()]
                    while comp[-1] != s:
                        comp.append(stack.pop())
                    for v in comp:
                        index[v] = n
                    yield comp


def _component_vectors(dfa: Dfa, comp: list[int], profiles: dict):
    """(vectors, a, period) of one strongly connected component, its successors profiled.

    Bit i of v(r) says whether comp[i] accepts a length-r word.  Past every
    exit's preperiod the exit bits depend only on r mod the lcm of the exit
    periods, so the sequence recurs once (v(r), r mod lcm) repeats.  All
    states of a component share one minimal period: each length set holds a
    shift of every other one.  `vectors` runs up to v(a + period - 1).  A
    recurrence past DEFAULT_SUBSET_CAP depths raises SearchCapExceededError.
    """
    local = {s: i for i, s in enumerate(comp)}
    preds, exits = [0] * len(comp), {}
    for i, s in enumerate(comp):
        bit = 1 << i
        for t in dfa.rows[s]:
            j = local.get(t)
            if j is not None:
                preds[j] |= bit
            elif t >= 0:
                exits[t] = exits.get(t, 0) | bit
    outside = [(profiles[t], mask) for t, mask in exits.items()]
    settled = max((prof.preperiod for prof, _ in outside), default=0)
    lcm = math.lcm(*(prof.period for prof, _ in outside))
    # no key can repeat before depth settled + lcm: stop at once if that is past the cap
    stop = 0 if settled + lcm > DEFAULT_SUBSET_CAP else DEFAULT_SUBSET_CAP
    v = sum(1 << i for i, s in enumerate(comp) if s in dfa.finals)
    vectors, seen = [], {}
    while (r := len(vectors)) < settled or (v, r % lcm) not in seen:
        if r == stop:
            raise SearchCapExceededError(f"no length recurrence within {DEFAULT_SUBSET_CAP} steps",
                                         cap=DEFAULT_SUBSET_CAP)
        if r >= settled:
            seen[v, r % lcm] = r
        vectors.append(v)
        nxt = 0
        for prof, mask in outside:
            if prof.bit(r):
                nxt |= mask
        while v:  # the predecessors of every set bit
            low = v & -v
            nxt |= preds[low.bit_length() - 1]
            v ^= low
        v = nxt
    a = seen[v, r % lcm]
    period = _min_period(vectors, a, r - a)
    return vectors[:a + period], a, period


class _Profiles(dict):
    """Length profiles by state, each reduced from its component's vectors when first read."""

    def __init__(self):
        super().__init__()
        self.pending = {}

    def __missing__(self, s):
        vectors, i, a, period = self.pending.pop(s)
        prof = self[s] = _reduced([w >> i & 1 for w in vectors], a, period)
        return prof


def _reachable_profiles(dfa: Dfa, sources, every: bool = True) -> dict[int, UltimatePeriod]:
    """Length profile of every state reachable from `sources`, sources included.

    With every=False each is reduced only when read: by the caller, or by a
    component with an edge into it.
    """
    profiles = _Profiles()
    for comp in _components(dfa.rows, sources):
        vectors, a, period = _component_vectors(dfa, comp, profiles)
        profiles.pending.update((s, (vectors, i, a, period)) for i, s in enumerate(comp))
        if every:
            for s in comp:
                profiles[s]  # a read: __missing__ reduces it
    return profiles


def length_profile(dfa: Dfa, state: int) -> UltimatePeriod:
    """Ultimately periodic profile of the lengths accepted from `state`, by one engine run."""
    if not 0 <= state < dfa.state_count:
        raise ValidationError(f"state {state} out of range")
    return _reachable_profiles(dfa, [state], every=False)[state]


def cofinite_threshold(profile: UltimatePeriod) -> int | None:
    """Least C with bit(n) == 1 for all n >= C, or None when zeros recur forever.

    Present exactly when every cycle bit is 1; then C never exceeds the
    preperiod.
    """
    if not all(profile.cycle_bits):
        return None
    c = profile.preperiod
    while c > 0 and profile.head_bits[c - 1] == 1:
        c -= 1
    return c
