"""Per-state length sets and their ultimately periodic structure.

For a state s, the length set is { |w| : w drives s into a final state }; its
indicator sequence is ultimately periodic.  One recurrence computes it:
`_reachable_profiles` runs bit_s(r) = OR over digits d of bit_delta(s,d)(r - 1)
one strongly connected component at a time, over the components it is given,
successors first (`_components`), and files each state's minimal profile, the
one record a component above reads its exits from.  That table is the set's
`RecognizableSet.profiles`; `length_profile` files its state's component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from .errors import SearchCapExceededError, ValidationError

# The most depths one component's recurrence may run.  Each depth holds a vector
# and a (vector, depth mod lcm) key: 165 bytes for a one-state component on 64-bit
# CPython (tracemalloc, 84 MB at 510 510 depths), so 2**20 depths stay near 175 MB.
DEFAULT_SUBSET_CAP = 1 << 20
_BIT = [bytes(byte >> k & 1 for byte in range(256)) for k in range(8)]  # byte -> its bit k

if TYPE_CHECKING:
    from .automata import Dfa


@dataclass(frozen=True)
class UltimatePeriod:
    """Minimal eventually-periodic description of a 0/1 sequence.

    bit(n) == head_bits[n] for n < preperiod, and
    bit(n) == cycle_bits[(n - preperiod) % period] for n >= preperiod; both
    lengths, preperiod and period, are minimal for the sequence.  The engine
    files the bits as bytes of 0/1 values, one byte per length.
    """

    head_bits: bytes
    cycle_bits: bytes

    def __post_init__(self):
        if not self.cycle_bits:
            raise ValidationError("cycle_bits must be nonempty: the period is >= 1")

    @property
    def preperiod(self) -> int:
        return len(self.head_bits)

    @property
    def period(self) -> int:
        return len(self.cycle_bits)

    def bit(self, n: int) -> int:
        if n < len(self.head_bits):
            return self.head_bits[n]
        return self.cycle_bits[(n - len(self.head_bits)) % len(self.cycle_bits)]


def _min_period(seq, a: int, window: int) -> int:
    """Least period of seq[a:a + window], read cyclically; it divides the window."""
    return next(c for c in range(1, window + 1) if window % c == 0
                and all(seq[a + i] == seq[a + (i + c) % window] for i in range(window)))


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


def _reachable_profiles(dfa: Dfa, comps) -> dict[int, UltimatePeriod]:
    """Length profile of every state of `comps`, components as `_components` yields them.

    Bit i of v(r) says whether comp[i] accepts a length-r word.  An exit's
    bit r is read from its own profile, so past the largest exit preperiod the
    sequence recurs once (v(r), r mod the lcm of exit periods) repeats.  All
    states of a component share one minimal period: each length set holds a
    shift of every other one.  The vectors up to v(a + period - 1), joined as
    little-endian bytes, give each state's column of 0/1 bytes in C; its
    preperiod is then cut down from a.  The table holds every preperiod, so a
    path of L states costs about L**2/2 bytes and as many steps.  A recurrence
    past DEFAULT_SUBSET_CAP depths raises SearchCapExceededError.
    """
    profiles = {}
    for comp in comps:
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
        outside = [(p.head_bits + p.cycle_bits, len(p.head_bits), len(p.cycle_bits), mask)
                   for t, mask in exits.items() for p in (profiles[t],)]
        settled = max((start for _, start, _, _ in outside), default=0)
        lcm = math.lcm(*(cycle for _, _, cycle, _ in outside))
        # no key can repeat before depth settled + lcm: stop at once if that is past the cap
        stop = 0 if settled + lcm > DEFAULT_SUBSET_CAP else DEFAULT_SUBSET_CAP
        v = sum(1 << i for i, s in enumerate(comp) if s in dfa.finals)
        vectors, seen = [], {}
        while (r := len(vectors)) < settled or (v, r % lcm) not in seen:
            if r == stop:
                where = f"stopped at depth {r}" if r else f"cannot recur before depth {settled + lcm}"
                raise SearchCapExceededError(f"no length recurrence within {DEFAULT_SUBSET_CAP} steps: "
                                             f"a {len(comp)}-state component {where}", cap=DEFAULT_SUBSET_CAP)
            if r >= settled:
                seen[v, r % lcm] = r
            vectors.append(v)
            nxt = 0
            for bits, start, cycle, mask in outside:
                if bits[r if r < start else start + (r - start) % cycle]:
                    nxt |= mask
            while v:  # the predecessors of every set bit
                low = v & -v
                nxt |= preds[low.bit_length() - 1]
                v ^= low
            v = nxt
        a = seen[v, r % lcm]
        del seen  # its keys outweigh the columns built below
        period = _min_period(vectors, a, r - a)
        width = (len(comp) + 7) // 8
        rows = b"".join(w.to_bytes(width, "little") for w in vectors[:a + period])
        for i, s in enumerate(comp):
            bits, pre = rows[i // 8::width].translate(_BIT[i % 8]), a
            while pre > 0 and bits[pre - 1] == bits[pre - 1 + period]:
                pre -= 1
            profiles[s] = UltimatePeriod(bits[:pre], bits[pre:pre + period])
    return profiles


def length_profile(dfa: Dfa, state: int) -> UltimatePeriod:
    """Ultimately periodic profile of the lengths accepted from `state`, by one engine run."""
    dfa.walk(state, ())  # checks the state
    return _reachable_profiles(dfa, _components(dfa.rows, [state]))[state]


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
