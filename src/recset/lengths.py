"""Per-state length sets and their ultimately periodic structure.

For a state s, the length set is { |w| : w drives s into a final state }.
Its indicator sequence is ultimately periodic because the one-step subset map
ranges over the finite powerset of states; this module finds that recurrence
and reduces it to minimal (preperiod, period) form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Dfa
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


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def length_profile(dfa: Dfa, state: int, *, cap: int = DEFAULT_SUBSET_CAP) -> UltimatePeriod:
    """Ultimately periodic profile of the lengths accepted from `state`.

    Iterates the subset map from {state}, recording for each depth whether the
    reached subset meets the final states, until a subset repeats (guaranteed
    within 2**state_count steps).  The observed recurrence (a, b) is then
    reduced: the minimal period divides b - a, and the minimal preperiod is
    found by walking backwards.
    """
    if not 0 <= state < dfa.state_count:
        raise ValidationError(f"state {state} out of range")
    finals = dfa.finals
    current: frozenset[int] = frozenset({state})
    seen = {current: 0}
    bits = [1 if current & finals else 0]
    a = b = 0
    for n in range(1, cap + 1):
        current = subset_step(dfa, current)
        if current in seen:
            a, b = seen[current], n
            break
        seen[current] = n
        bits.append(1 if current & finals else 0)
    else:
        raise SearchCapExceededError(f"no subset recurrence within {cap} steps", cap=cap)

    window = b - a
    period = window
    for cand in _divisors(window):
        if all(bits[a + i] == bits[a + (i + cand) % window] for i in range(window)):
            period = cand
            break
    pre = a
    while pre > 0 and bits[pre - 1] == bits[pre - 1 + period]:
        pre -= 1
    return UltimatePeriod(pre, period, tuple(bits[:pre]), tuple(bits[pre:pre + period]))


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
