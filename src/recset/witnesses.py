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

from .automata import (
    Dfa,
    RecognizableSet,
    _extend_layers,
    _ordered_paths,
    _reachable,
    has_infinite_language,
    iter_elements,
    member,
)
from .errors import (
    FiniteSetError,
    InsufficientDataError,
    PreconditionError,
    RecsetError,
    SearchCapExceededError,
    ValidationError,
)
from .lengths import UltimatePeriod, cofinite_threshold, length_profile, subset_step
from .numeration import (
    DEFAULT_KRONECKER_CAP,
    KroneckerWitness,
    encode,
    kronecker_witness,
    mult_independent,
    verify_kronecker,
)

DEFAULT_LENGTH_CAP = 10_000


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
class SyndeticCertificate:
    """Certificate that every interval of length `bound` = 2*base**threshold meets the set.

    `per_state_thresholds` maps each qualifying state (reachable by a digit
    word with nonzero leading digit) to the first length from which all longer
    extensions are accepted; `threshold` is their maximum.
    """

    threshold: int
    bound: int
    per_state_thresholds: dict[int, int]


@dataclass(frozen=True)
class Finite:
    """Verdict: the set is finite, so syndeticity does not apply."""


@dataclass(frozen=True)
class NotSyndetic:
    """Verdict: gaps are unbounded, witnessed by an empty interval family."""

    witness: IntervalWitness


@dataclass(frozen=True)
class Syndetic:
    """Verdict: gaps are bounded by the certified bound."""

    certificate: SyndeticCertificate


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


def _min_value_path(dfa: Dfa, targets, min_value: int,
                    length_cap: int) -> tuple[int, int]:
    """Smallest integer >= min_value whose canonical digit path ends in `targets`.

    Lengths are searched in increasing order, and at each length the first
    path `_ordered_paths` yields is the least; only the first length, the one
    of min_value itself, is bounded below by min_value's digits.  Returns
    (value, end_state).
    """
    layers = [frozenset(targets)]
    bound = encode(min_value, dfa.alphabet_size).digits
    first_len = len(bound)
    for t in range(first_len, first_len + length_cap + 1):
        _extend_layers(layers, dfa.rows, dfa.state_count, t - 1)
        value = next(_ordered_paths(dfa.rows, dfa.alphabet_size, dfa.initial, layers, t,
                                    bound=bound if t == first_len else None), None)
        if value is not None:
            return value, dfa.walk(dfa.initial, encode(value, dfa.alphabet_size))
    raise SearchCapExceededError(
        f"no qualifying integer found within {length_cap} digit lengths", cap=length_cap)


def _first_bit_past_preperiod(profile: UltimatePeriod, wanted: int) -> int:
    """Least n strictly past the preperiod with bit(n) == wanted."""
    for n in range(profile.preperiod + 1, profile.preperiod + profile.period + 1):
        if profile.bit(n) == wanted:
            return n
    raise RecsetError("internal: requested bit value does not occur in the cycle")


def verify_interval_witness(s: RecognizableSet, w: IntervalWitness) -> bool:
    """Re-check a witness against its set, exactly and for every k.

    The digits of m must reach w.state in the set's normal form, and the
    subset reached from {w.state} in a+b*k steps must meet the finals
    (nonempty kind) or avoid them (empty kind).  A forward subset walk from
    {w.state} runs to its first repeated subset, which fixes a preperiod and
    period; every depth a+b*k is reduced onto that walk, and past the
    preperiod the depths repeat once k has run through period/gcd(b, period)
    values.  The cost is one walk, whatever the sizes of a and b.
    """
    if w.m < 1 or w.a < 1 or w.b < 1:
        return False
    dfa = s.normal_form
    if dfa.walk(dfa.initial, encode(w.m, s.base)) != w.state:
        return False
    walk = [frozenset({w.state})]
    first_seen = {walk[0]: 0}
    while (nxt := subset_step(dfa, walk[-1])) not in first_seen:
        first_seen[nxt] = len(walk)
        walk.append(nxt)
    pre = first_seen[nxt]
    period = len(walk) - pre
    want = w.kind == "nonempty"
    strides = -(-max(0, pre - w.a) // w.b) + period // math.gcd(w.b, period)
    for k in range(strides):
        depth = w.a + w.b * k
        subset = walk[depth] if depth < pre else walk[pre + (depth - pre) % period]
        if bool(subset & dfa.finals) != want:
            return False
    return True


def _qualifying_profiles(s: RecognizableSet) -> dict[int, UltimatePeriod]:
    """Length profile of every qualifying state of the set's normal form.

    Qualifying states are those reachable by a path whose first digit is
    nonzero.  On the completed normal form these are exactly the states
    reached by the digits of some positive integer; paths of the original
    automaton that die mid-word land in the sink, which therefore qualifies
    too.
    """
    dfa = s.normal_form
    firsts = [t for d, t in dfa.rows[dfa.initial].items() if d]
    return {st: length_profile(dfa, st) for st in _reachable(dfa, firsts)}


def _witness(s: RecognizableSet, profiles: dict[int, UltimatePeriod], kind: str,
             m_min: int, length_cap: int) -> IntervalWitness | None:
    """Least-m witness of the given kind, exactly re-checked; None if no state qualifies.

    The target states are those whose length set holds infinitely many lengths
    (nonempty kind) or misses infinitely many (empty kind); a is the first such
    length past the state's preperiod and b its period.
    """
    bit = 1 if kind == "nonempty" else 0
    targets = frozenset(st for st, prof in profiles.items() if bit in prof.cycle_bits)
    if not targets:
        return None
    value, state = _min_value_path(s.normal_form, targets, m_min, length_cap)
    prof = profiles[state]
    w = IntervalWitness(value, _first_bit_past_preperiod(prof, bit), prof.period, state, kind)
    if not verify_interval_witness(s, w):
        raise RecsetError(f"internal: generated witness {w} fails its exact check")
    return w


def nonempty_interval_witness(s: RecognizableSet, m_min: int = 1, *,
                              length_cap: int = DEFAULT_LENGTH_CAP) -> IntervalWitness:
    """Witness that the intervals [m*p**(a+b*k), (m+1)*p**(a+b*k)) all meet the set.

    m is the smallest integer >= m_min whose digit path ends in a state with
    infinitely many accepted lengths; a is the least accepted length past that
    state's preperiod and b its period.  The witness is re-verified exactly,
    for every k, before being returned.
    """
    if m_min < 1:
        raise PreconditionError(f"m_min must be >= 1, got {m_min}")
    if not has_infinite_language(s.dfa):
        raise FiniteSetError("the set is finite: no nonempty interval family exists")
    return _witness(s, _qualifying_profiles(s), "nonempty", m_min, length_cap)


def empty_interval_witness(s: RecognizableSet, *,
                           length_cap: int = DEFAULT_LENGTH_CAP) -> IntervalWitness | None:
    """Witness that the intervals [m*p**(a+b*k), (m+1)*p**(a+b*k)) all miss the set.

    Exists iff some qualifying state of the set's normal form misses
    infinitely many lengths; returns None when every qualifying state's length
    set is cofinite (then no such family exists).  The witness is re-verified
    exactly, for every k, before being returned.
    """
    if not has_infinite_language(s.dfa):
        raise FiniteSetError("the set is finite: use a direct scan instead")
    return _witness(s, _qualifying_profiles(s), "empty", 1, length_cap)


def syndetic_decide(s: RecognizableSet, *,
                    length_cap: int = DEFAULT_LENGTH_CAP) -> SyndeticVerdict:
    """Decide whether the set has bounded gaps between consecutive elements.

    Finite sets get the Finite verdict.  Otherwise every qualifying state of
    the set's normal form is profiled:

    - some state misses infinitely many lengths -> NotSyndetic, with an empty
      interval family whose interval lengths grow without bound (the set is
      infinite, so elements exist beyond every such interval and the gaps are
      unbounded); the family is re-verified exactly, for every k;
    - all states eventually accept every length -> Syndetic with C the largest
      per-state threshold: every positive n then has an element of the set in
      [n*p**C, (n+1)*p**C), so any interval of length 2*p**C meets the set.
    """
    if not has_infinite_language(s.dfa):
        return Finite()
    profiles = _qualifying_profiles(s)
    w = _witness(s, profiles, "empty", 1, length_cap)
    if w is not None:
        return NotSyndetic(w)
    thresholds = {st: cofinite_threshold(profiles[st]) for st in sorted(profiles)}
    c = max(thresholds.values(), default=0)
    return Syndetic(SyndeticCertificate(c, 2 * s.base**c, thresholds))


def gap_scan(s: RecognizableSet, horizon: int) -> GapScanResult:
    """Maximum gap between consecutive elements up to `horizon`, with the pairs attaining it."""
    if horizon < 1:
        raise PreconditionError(f"horizon must be >= 1, got {horizon}")
    best = 0
    positions: list[tuple[int, int]] = []
    prev = None
    count = 0
    for x in iter_elements(s):
        if x > horizon:
            break
        count += 1
        if prev is not None:
            gap = x - prev
            if gap > best:
                best = gap
                positions = [(prev, x)]
            elif gap == best:
                positions.append((prev, x))
        prev = x
    if count < 2:
        raise InsufficientDataError(
            f"fewer than two elements are <= {horizon}; no gaps to report")
    return GapScanResult(best, tuple(positions))


def cross_base_refute(set_p: RecognizableSet, set_q: RecognizableSet, *,
                      cap: int = DEFAULT_KRONECKER_CAP,
                      length_cap: int = DEFAULT_LENGTH_CAP) -> ContradictionCertificate | None:
    """Nested-interval proof that two automata recognize different sets, if one exists this way.

    The second set must admit an empty interval family (n, c, d); the first,
    being infinite, admits a nonempty family (m, a, b) with m > n, and a
    suitable exponent pair (K, L) nests the nonempty base-p interval inside
    the empty base-q interval.  The certificate carries a concrete element of
    the first set inside both intervals, and is re-verified exactly by
    `verify_contradiction` before being returned.

    Returns None when the second automaton has no empty interval family;
    that is NOT a proof that the sets are equal, only that no refutation of
    this shape exists.
    """
    p, q = set_p.base, set_q.base
    verdict = mult_independent(p, q)
    if not verdict.independent:
        wk, wl = verdict.dependence_witness
        raise PreconditionError(
            f"bases {p} and {q} are multiplicatively dependent: {p}^{wk} = {q}^{wl}")
    if not has_infinite_language(set_p.dfa) or not has_infinite_language(set_q.dfa):
        raise FiniteSetError("both sets must be infinite")
    ew = _witness(set_q, _qualifying_profiles(set_q), "empty", 1, length_cap)
    if ew is None:
        return None
    nw = _witness(set_p, _qualifying_profiles(set_p), "nonempty", ew.m + 1, length_cap)
    kw = kronecker_witness(nw.m, ew.m, nw.a, nw.b, ew.a, ew.b, p, q, cap=cap)
    depth = nw.a + nw.b * kw.k
    nf = set_p.normal_form
    layers: list[frozenset[int]] = [nf.finals]
    first_at: dict[frozenset[int], int] = {}
    while len(layers) < depth:
        last = layers[-1]
        if last in first_at:  # each layer is a function of the one before: periodic from here
            layers.append(layers[first_at[last] + 1])
        else:
            first_at[last] = len(layers) - 1
            _extend_layers(layers, nf.rows, nf.state_count, len(layers))
    # the least accepted extension word; leading zeros are fine after m's digits
    tail = next(_ordered_paths(nf.rows, p, nw.state, layers, depth, first=0), None)
    if tail is None:
        raise RecsetError("internal: no accepted extension at certified depth")
    element = nw.m * p**depth + tail
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
    lo_p = nw.m * p ** (nw.a + nw.b * kw.k)
    hi_p = (nw.m + 1) * p ** (nw.a + nw.b * kw.k)
    lo_q = ew.m * q ** (ew.a + ew.b * kw.ell)
    hi_q = (ew.m + 1) * q ** (ew.a + ew.b * kw.ell)
    if not (lo_q <= lo_p and hi_p <= hi_q):
        return False
    if not lo_p <= cert.element < hi_p:
        return False
    if not member(set_p, cert.element) or member(set_q, cert.element):
        return False
    return verify_interval_witness(set_p, nw) and verify_interval_witness(set_q, ew)
