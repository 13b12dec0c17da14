"""Interval witnesses, the syndeticity decision, and cross-base refutation certificates.

The central objects are families of intervals [m*p**(a+b*k), (m+1)*p**(a+b*k))
for k = 0, 1, 2, ...  Such an interval holds exactly the integers whose
canonical base-p representation is the digit word of m followed by a+b*k more
digits, so whether the family uniformly meets or uniformly misses a
recognizable set is read off the length profile of the state reached by m's
digits.  Every returned witness and certificate is re-checked exactly, for
every k, before it is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

from .automata import Dfa, RecognizableSet, _is_infinite, _ordered_values, iter_elements, member
from .errors import (
    FiniteSetError,
    InsufficientDataError,
    PreconditionError,
    RecsetError,
    ValidationError,
)
from .lengths import cofinite_threshold
from .numeration import (
    KroneckerWitness,
    encode,
    kronecker_witness,
    mult_independent,
    nested_chain,
    require_independent,
    verify_kronecker,
)


@dataclass(frozen=True)
class IntervalWitness:
    """Parameters (m, a, b) of a uniformly nonempty or uniformly empty interval family.

    kind="nonempty": every [m*p**(a+b*k), (m+1)*p**(a+b*k)) meets the set.
    kind="empty":    every such interval misses the set.
    `state` is the state reached by the digits of m in the set's normal form
    (`RecognizableSet.normal_form`, the completed canonical minimal automaton),
    which is what makes the witness re-checkable by depth-(a+b*k) reachability.
    """

    m: int
    a: int
    b: int
    state: int
    kind: str

    def __post_init__(self):
        if self.m < 1 or self.a < 1 or self.b < 1:
            raise ValidationError("witness parameters m, a, b must all be >= 1")
        if self.kind not in ("nonempty", "empty"):
            raise ValidationError(f"unknown witness kind {self.kind!r}")


@dataclass(frozen=True)
class Finite:
    """Verdict: the set is finite, so syndeticity does not apply."""


@dataclass(frozen=True)
class NotSyndetic:
    """Verdict: gaps are unbounded, witnessed by an empty interval family."""

    witness: IntervalWitness


@dataclass(frozen=True)
class Syndetic:
    """Verdict: every interval of length `bound` = 2*base**threshold meets the set.

    `threshold` is the largest of `per_state_thresholds`: for each qualifying
    state, the first length from which it accepts every longer extension.
    """

    threshold: int
    bound: int
    per_state_thresholds: dict[int, int]


SyndeticVerdict = Union[Finite, NotSyndetic, Syndetic]


@dataclass(frozen=True)
class ContradictionCertificate:
    """Proof that two automata over independent bases recognize different sets.

    A provably nonempty base-p interval of the first set sits, by the
    exponent pair `kronecker`, strictly inside a provably empty base-q
    interval of the second set; `element` is a concrete member of the first
    set inside both.
    """

    base_p: int
    base_q: int
    base_p_witness: IntervalWitness  # kind="nonempty", parameters (m, a, b)
    base_q_witness: IntervalWitness  # kind="empty", parameters (n, c, d)
    kronecker: KroneckerWitness
    element: int


class GapScanResult(NamedTuple):
    max_gap: int
    positions: tuple[tuple[int, int], ...]


def _min_value_path(dfa: Dfa, targets, min_value: int) -> tuple[int, int]:
    """Smallest integer >= min_value whose canonical digit path ends in `targets`.

    The first value `_ordered_values` yields from the length of min_value on;
    `targets` are the states of one witness kind in the complete normal form,
    and state_count more lengths bound the search exactly, not as a cap:

    - nonempty kind: every nonempty prefix of a word into a target also ends
      in a target, and every target has a target successor, so targets are
      reached at every length >= 1: the answer has at most one digit more.
    - empty kind: every successor of a state that misses infinitely many
      lengths misses infinitely many too, so the shortest path into a
      target, at most state_count steps, extends to every longer length.

    Returns (value, end_state).
    """
    bound = encode(min_value, dfa.alphabet_size)
    value = next(_ordered_values(dfa, targets, bound, len(bound) + dfa.state_count), None)
    if value is None:
        raise RecsetError(f"internal: no qualifying integer within {dfa.state_count} "
                          f"digit lengths of {min_value}")
    return value, dfa.walk(dfa.initial, encode(value, dfa.alphabet_size))


def verify_interval_witness(s: RecognizableSet, w: IntervalWitness) -> bool:
    """Re-check a witness against its set, exactly and for every k.

    The digits of m must reach w.state in the set's normal form, and w.state
    must accept a word of length a+b*k (nonempty kind) or none (empty kind).
    That walk makes w.state qualifying, so its profile is read from the set's
    table, `s.profiles`: past the preperiod the depths a+b*k repeat once k
    has run through period/gcd(b, period) values, whatever the sizes of a
    and b.  The searches read that same table, so this checks the walk and
    the bits a+b*k, not the recurrence that built the table.  A table past
    `lengths.DEFAULT_SUBSET_CAP` depths raises SearchCapExceededError, even
    where w.state's own part is not; no search returns a witness there.
    """
    if w.m < 1 or w.a < 1 or w.b < 1:
        return False
    dfa = s.normal_form
    if dfa.walk(dfa.initial, encode(w.m, s.base)) != w.state:
        return False
    prof = s.profiles[w.state]
    want = w.kind == "nonempty"
    pre, period = prof.preperiod, prof.period
    strides = -(-max(0, pre - w.a) // w.b) + period // math.gcd(w.b, period)
    return all(prof.bit(w.a + w.b * k) == want for k in range(strides))


def _witness(s: RecognizableSet, kind: str, m_min: int) -> IntervalWitness | None:
    """Least-m witness of the given kind, re-checked; None if no state qualifies.

    The target states are the qualifying states (`s.profiles`) whose length
    set holds infinitely many lengths (nonempty kind) or misses infinitely
    many (empty kind); a is the first such length past the state's preperiod
    and b its period.  The re-check reads `s.profiles` too, so it checks the
    walk and the choice of a and b, not the engine behind the table.
    """
    bit = 1 if kind == "nonempty" else 0
    targets = frozenset(st for st, prof in s.profiles.items() if bit in prof.cycle_bits)
    if not targets:
        return None
    value, state = _min_value_path(s.normal_form, targets, m_min)
    prof = s.profiles[state]  # bit(preperiod + j) is cycle_bits[j % period]
    a = prof.preperiod + 1 + (prof.cycle_bits[1:] + prof.cycle_bits[:1]).index(bit)
    w = IntervalWitness(value, a, prof.period, state, kind)
    if not verify_interval_witness(s, w):
        raise RecsetError(f"internal: generated witness {w} fails its exact check")
    return w


def nonempty_interval_witness(s: RecognizableSet, m_min: int = 1) -> IntervalWitness:
    """Witness that the intervals [m*p**(a+b*k), (m+1)*p**(a+b*k)) all meet the set.

    m is the smallest integer >= m_min whose digit path ends in a state with
    infinitely many accepted lengths; a is the least accepted length past that
    state's preperiod and b its period.  The witness is re-verified exactly,
    for every k, before being returned.  Such a state exists exactly when the
    set is infinite, which `_is_infinite` checks before any profile is read.
    """
    if m_min < 1:
        raise PreconditionError(f"m_min must be >= 1, got {m_min}")
    if not _is_infinite(s):
        raise FiniteSetError("the set is finite: no nonempty interval family exists")
    return _witness(s, "nonempty", m_min)


def empty_interval_witness(s: RecognizableSet) -> IntervalWitness | None:
    """Witness that the intervals [m*p**(a+b*k), (m+1)*p**(a+b*k)) all miss the set.

    Exists iff some qualifying state of the set's normal form misses
    infinitely many lengths; returns None when every qualifying state's length
    set is cofinite (then no such family exists).  The witness is re-verified
    exactly, for every k, before being returned.  A finite set, found by
    `_is_infinite` before any profile is read, raises FiniteSetError.
    """
    if not _is_infinite(s):
        raise FiniteSetError("the set is finite: use a direct scan instead")
    return _witness(s, "empty", 1)


def syndetic_decide(s: RecognizableSet) -> SyndeticVerdict:
    """Decide whether the set has bounded gaps between consecutive elements.

    A finite set, found by `_is_infinite` on the normal form's cycles, gets
    the Finite verdict and runs no length engine.  Otherwise every qualifying
    state of the normal form is profiled, and:

    - some state misses infinitely many lengths -> NotSyndetic, with an empty
      interval family whose interval lengths grow without bound (the set is
      infinite, so elements exist beyond every such interval and the gaps are
      unbounded); the family is re-verified exactly, for every k;
    - all states eventually accept every length -> Syndetic with C the largest
      per-state threshold: every positive n then has an element of the set in
      [n*p**C, (n+1)*p**C), so any interval of length 2*p**C meets the set.
    """
    if not _is_infinite(s):
        return Finite()
    profiles = s.profiles
    w = _witness(s, "empty", 1)
    if w is not None:
        return NotSyndetic(w)
    thresholds = {st: cofinite_threshold(profiles[st]) for st in sorted(profiles)}
    c = max(thresholds.values(), default=0)
    return Syndetic(c, 2 * s.base**c, thresholds)


def gap_scan(s: RecognizableSet, horizon: int) -> GapScanResult:
    """Maximum gap between consecutive elements up to `horizon`, with the pairs attaining it."""
    if horizon < 1:
        raise PreconditionError(f"horizon must be >= 1, got {horizon}")
    best = 0
    positions: list[tuple[int, int]] = []
    prev = None
    for x in iter_elements(s):
        if x > horizon:
            break
        if prev is not None:
            gap = x - prev
            if gap > best:
                best = gap
                positions = [(prev, x)]
            elif gap == best:
                positions.append((prev, x))
        prev = x
    if not positions:  # every gap is at least 1, so two elements give a pair
        raise InsufficientDataError(
            f"fewer than two elements are <= {horizon}; no gaps to report")
    return GapScanResult(best, tuple(positions))


def cross_base_refute(set_p: RecognizableSet,
                      set_q: RecognizableSet) -> ContradictionCertificate | None:
    """Nested-interval proof that two automata recognize different sets, if one exists this way.

    The second set must admit an empty interval family (n, c, d); the first,
    being infinite, admits a nonempty family (m, a, b) with m > n, and a
    suitable exponent pair (K, L) nests the nonempty base-p interval inside
    the empty base-q interval.  The certificate carries a concrete element of
    the first set inside both intervals, and is re-verified exactly by
    `verify_contradiction` before being returned.

    Returns None when the second automaton has no empty interval family;
    that is NOT a proof that the sets are equal, only that no refutation of
    this shape exists.  A finite set, found by `_is_infinite` on either side
    before any profile is read, raises FiniteSetError.  Each set's table,
    `RecognizableSet.profiles`, is first read by its search, the second
    set's before the first's, so a table past `lengths.DEFAULT_SUBSET_CAP`
    raises SearchCapExceededError only when that set's profiles are needed.
    """
    p, q = set_p.base, set_q.base
    require_independent(p, q)
    if not (_is_infinite(set_p) and _is_infinite(set_q)):
        raise FiniteSetError("both sets must be infinite")
    ew = _witness(set_q, "empty", 1)
    if ew is None:
        return None
    nw = _witness(set_p, "nonempty", ew.m + 1)
    kw = kronecker_witness(nw.m, ew.m, nw.a, nw.b, ew.a, ew.b, p, q)
    nf = set_p.normal_form
    # the least element >= m*p**depth with as many digits, depth = a + b*K
    bound = encode(nw.m, p) + (0,) * (nw.a + nw.b * kw.k)
    element = next(_ordered_values(nf, nf.finals, bound, len(bound)), None)
    if element is None:
        raise RecsetError("internal: no accepted extension at certified depth")
    cert = ContradictionCertificate(p, q, nw, ew, kw, element)
    if not verify_contradiction(cert, set_p, set_q):
        raise RecsetError("internal: generated contradiction certificate fails its exact check")
    return cert


def verify_contradiction(cert: ContradictionCertificate,
                         set_p: RecognizableSet, set_q: RecognizableSet) -> bool:
    """Exact re-verification of every claim a contradiction certificate makes.

    Both interval families are checked for every k, which covers the exponents
    K and L the certificate nests.
    """
    p, q = set_p.base, set_q.base
    if (cert.base_p, cert.base_q) != (p, q):
        return False
    nw, ew, kw = cert.base_p_witness, cert.base_q_witness, cert.kronecker
    if nw.kind != "nonempty" or ew.kind != "empty" or not ew.m < nw.m:
        return False
    if not mult_independent(p, q).independent:
        return False
    if not verify_kronecker(kw, nw.m, ew.m, nw.a, nw.b, ew.a, ew.b, p, q):
        return False
    _, lo_p, hi_p, _ = nested_chain(kw, nw.m, ew.m, nw.a, nw.b, ew.a, ew.b, p, q)
    if not lo_p <= cert.element < hi_p:
        return False
    if not member(set_p, cert.element) or member(set_q, cert.element):
        return False
    return verify_interval_witness(set_p, nw) and verify_interval_witness(set_q, ew)
