"""Per-state length sets and their ultimately periodic structure.

For a state s, the length set is { |w| : w drives s into a final state }; its
indicator sequence is ultimately periodic.  `length_profile` (and the witness
verifiers) walk the subset map forward from {s} to its first repeat;
`_reachable_profiles` profiles every state reachable from some sources in one
pass over the strongly connected components, successors first, in the order
`automata._components` yields them, by the backward recurrence
bit_s(r) = OR over digits d of bit_delta(s,d)(r - 1).  Both reduce
to minimal (preperiod, period) form the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .automata import Dfa, _components
from .errors import SearchCapExceededError, ValidationError

DEFAULT_SUBSET_CAP = 1 << 20


def subset_step(dfa: Dfa, states) -> frozenset[int]:
    """One synchronous step: every state reachable from `states` by one digit.

    Undefined transitions contribute nothing; the empty subset is absorbing.
    """
    out: set[int] = set()
    for s in states:
        out.update(dfa.rows[s])
    out.discard(-1)
    return frozenset(out)


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


def _forward_walk(dfa: Dfa, state: int):
    """(walk, preperiod, period): the subsets reached from {state} up to the first repeat.

    Depth n >= preperiod reaches walk[preperiod + (n - preperiod) % period].  A
    recurrence longer than DEFAULT_SUBSET_CAP steps raises SearchCapExceededError.
    """
    cap = DEFAULT_SUBSET_CAP
    walk = [frozenset({state})]
    first_seen = {walk[0]: 0}
    while len(walk) <= cap:  # step len(walk) is the next one
        nxt = subset_step(dfa, walk[-1])
        if nxt in first_seen:
            pre = first_seen[nxt]
            return walk, pre, len(walk) - pre
        first_seen[nxt] = len(walk)
        walk.append(nxt)
    raise SearchCapExceededError(f"no subset recurrence within {cap} steps", cap=cap)


def length_profile(dfa: Dfa, state: int) -> UltimatePeriod:
    """Ultimately periodic profile of the lengths accepted from `state`.

    Walks the subset map forward from {state} to its first repeated subset,
    recording whether each reached subset meets the final states, and reduces
    the observed recurrence to minimal form.
    """
    if not 0 <= state < dfa.state_count:
        raise ValidationError(f"state {state} out of range")
    walk, a, window = _forward_walk(dfa, state)
    bits = [1 if subset & dfa.finals else 0 for subset in walk]
    return _reduced(bits, a, _min_period(bits, a, window))


def _component_profiles(dfa: Dfa, comp: list[int], profiles: dict) -> None:
    """Profile one strongly connected component, its successors already profiled.

    Bit i of v(r) says whether comp[i] accepts a length-r word.  Past every
    exit's preperiod the exit bits depend only on r mod the lcm of the exit
    periods, so the sequence recurs once (v(r), r mod lcm) repeats.  All
    states of a component share one minimal period: each length set holds a
    shift of every other one.  A recurrence longer than DEFAULT_SUBSET_CAP
    depths raises SearchCapExceededError, as the forward walk does.
    """
    local = {s: i for i, s in enumerate(comp)}
    preds, exits = [0] * len(comp), {}
    for i, s in enumerate(comp):
        for t in dfa.rows[s]:
            if t in local:
                preds[local[t]] |= 1 << i
            elif t >= 0:
                exits[t] = exits.get(t, 0) | 1 << i
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
    for i, s in enumerate(comp):
        profiles[s] = _reduced([w >> i & 1 for w in vectors[:a + period]], a, period)


def _reachable_profiles(dfa: Dfa, sources) -> dict[int, UltimatePeriod]:
    """Length profile of every state reachable from `sources`, sources included."""
    profiles: dict[int, UltimatePeriod] = {}
    for comp in _components(dfa.rows, sources):
        _component_profiles(dfa, comp, profiles)
    return profiles


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
