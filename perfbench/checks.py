"""Check one job's outcome: the exit-code contract, then the answer itself.

The parser reads `key: value` lines and ignores any line it does not know, so
added diagnostics (such as `verified_k:`) do not break it.  Answers are never
compared with recorded output of the program; each is re-derived from the
input documents:

- certificates and witnesses are re-checked with recset's own verifiers
  (`verify_interval_witness`, `verify_kronecker`, `verify_contradiction`) and
  again, exactly and for every k, by the reference code in `oracle`;
- answers known by construction are compared directly (multiples of k are
  syndetic with gaps of k, a chain minimises to its own size, example1 is
  not syndetic);
- the rest are compared with reference computations: forward subset layers
  for profiles, Moore refinement and product search for minimisation,
  digit counting and depth-first enumeration for elements and gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import oracle as O

# failure classes; the first two mean the program gave a wrong answer, the
# others that it gave none (a crash, a search cap, the memory ceiling)
WRONG, BAD_EXIT, EXCEPTION, CAP, MEMORY = "wrong-output", "bad-exit", "exception", "cap", "memory"
INCORRECT = (WRONG, BAD_EXIT)


@dataclass(frozen=True)
class Outcome:
    rc: int | None
    out: str
    err: str
    exc: str | None = None   # "memory" or a description of an escaped exception


class Mismatch(Exception):
    pass


def require(condition, reason: str) -> None:
    if not condition:
        raise Mismatch(reason)


def fields(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in out:
            out[key] = value.strip()
    return out


def pairs(text: str) -> dict:
    """'m=3 a=1 b=2' -> {'m': 3, 'a': 1, 'b': 2}"""
    return {k: int(v) for k, v in (item.split("=") for item in text.split())}


def digit_list(text: str) -> list[int]:
    text = text.strip()
    require(text.startswith("[") and text.endswith("]"), f"not a digit list: {text!r}")
    return [int(x) for x in text[1:-1].split(",")] if text != "[]" else []


class Context:
    def __init__(self, job, outcome: Outcome, docs: dict, metas: dict):
        self.job, self.outcome = job, outcome
        self.docs, self.metas = docs, metas
        self.f = fields(outcome.out)

    def auto(self, i: int = 0) -> O.Auto:
        return O.Auto(self.docs[self.job.docs[i]])

    def total(self, i: int = 0) -> O.Total:
        return O.Total(self.auto(i))

    def meta(self, i: int = 0) -> dict:
        return self.metas[self.job.docs[i]]

    @property
    def lenient(self) -> bool:
        return "--lenient" in self.job.argv

    def loaded(self) -> O.Auto:
        """The automaton the program holds after loading the first document:
        lenient loading repairs only a document that accepts a leading zero."""
        a = self.auto()
        return O.split_start(a) if self.lenient and O.accepts_leading_zero(a) else a

    def recset_set(self, i: int = 0):
        from recset.fileformat import set_from_document
        return set_from_document(self.docs[self.job.docs[i]], strict=not self.lenient)

    def rc(self, *allowed) -> None:
        require(self.outcome.rc in allowed,
                f"exit code {self.outcome.rc}, expected one of {allowed}")


def check(job, outcome: Outcome, docs: dict, metas: dict) -> tuple[str | None, str]:
    """(None, "") when the outcome is right, else (failure class, reason)."""
    if outcome.exc == "memory":
        return MEMORY, "MemoryError under the address-space ceiling"
    if outcome.exc:
        return EXCEPTION, outcome.exc
    if outcome.rc not in (0, 1, 2, 3):
        return BAD_EXIT, f"exit code {outcome.rc} is outside 0/1/2/3"
    err_lines = outcome.err.splitlines()
    if outcome.rc in (2, 3) and not (err_lines and err_lines[0].startswith("error: ")):
        return BAD_EXIT, f"exit code {outcome.rc} without an 'error: ' line"
    if outcome.rc == 3:
        return CAP, err_lines[0]
    from recset.errors import RecsetError
    try:
        CHECKERS[job.command](Context(job, outcome, docs, metas))
    except Mismatch as e:
        return WRONG, str(e)
    except (ValueError, TypeError, KeyError, IndexError, RecsetError) as e:
        return WRONG, f"unparsable or inconsistent output: {type(e).__name__}: {e}"
    return None, ""


# -- decide ------------------------------------------------------------------

def _interval_witness(c: Context, kind: str):
    from recset.witnesses import IntervalWitness, verify_interval_witness
    w = IntervalWitness(int(c.f["m"]), int(c.f["a"]), int(c.f["b"]), int(c.f["state"]), kind)
    require(verify_interval_witness(c.recset_set(), w), f"verify_interval_witness rejects {w}")
    require(c.total().family_holds(w.m, w.a, w.b, kind == "nonempty"),
            f"reference check: the {kind} family {w} fails for some k")
    return w


def _check_syndetic(c: Context) -> None:
    t = c.total()
    infinite = t.set_is_infinite()
    verdict = c.f.get("verdict")
    family = c.meta().get("family")
    if verdict == "finite":
        c.rc(0)
        require(not infinite, "verdict finite, but the set is infinite")
    elif verdict == "not-syndetic":
        c.rc(1)
        require(family != "multiples", "multiples of k are syndetic")
        require(infinite, "not-syndetic verdict for a finite set")
        require(c.f.get("kind") == "empty", "not-syndetic witness must be of kind empty")
        _interval_witness(c, "empty")
    elif verdict == "syndetic":
        c.rc(0)
        require(family not in ("chain", "example1"), f"a {family} set is not syndetic")
        require(infinite, "syndetic verdict for a finite set")
        threshold, bound = int(c.f["C"]), int(c.f["bound"])
        require(bound == 2 * t.base ** threshold, "bound is not 2*p^C")
        own = t.cofinite_thresholds(t.qualifying())
        require(own is not None, "reference: some reachable state misses infinitely many lengths")
        require(threshold == max(own.values(), default=0), f"C={threshold}, reference {max(own.values())}")
        claimed = {int(v) for v in pairs(c.f.get("state_thresholds", "")).values()}
        require(claimed == set(own.values()), "per-state thresholds differ from the reference")
        if family == "multiples":
            require(bound >= c.meta()["k"], "bound below the true maximal gap k")
    else:
        raise Mismatch(f"unknown verdict {verdict!r}")


def _finite_error(c: Context) -> None:
    c.rc(2)
    require(not c.total().set_is_infinite(), "precondition error, but the set is infinite")


def _check_witness_nonempty(c: Context) -> None:
    if c.outcome.rc == 2:
        return _finite_error(c)
    c.rc(0)
    require(c.f.get("kind") == "nonempty", "witness kind")
    w = _interval_witness(c, "nonempty")
    t = c.total()
    live = t.infinite_states()
    require(t.walk(t.initial, O.digits_of(w.m, t.base)) in live, "m does not reach an infinite state")
    for smaller in range(1, min(w.m, 5000)):
        require(t.walk(t.initial, O.digits_of(smaller, t.base)) not in live,
                f"m={w.m} is not the least: {smaller} qualifies")


def _all_cofinite(t: O.Total) -> bool:
    return t.cofinite_thresholds(t.qualifying()) is not None


def _check_witness_empty(c: Context) -> None:
    if c.outcome.rc == 2:
        return _finite_error(c)
    if c.outcome.rc == 1:
        require(c.outcome.out.strip() == "absent", "exit 1 without 'absent'")
        require(c.meta().get("family") != "chain", "a chain has an empty family")
        require(_all_cofinite(c.total()), "absent, but some reachable state misses infinitely many lengths")
        return
    c.rc(0)
    require(c.f.get("kind") == "empty", "witness kind")
    _interval_witness(c, "empty")


def _check_profile(c: Context) -> None:
    c.rc(0)
    state = int(c.job.argv[2])
    own = O.profile(c.auto(), state)
    require(own is not None, "reference profile did not close")
    pre, period, head, cycle = own
    got = (int(c.f["preperiod"]), int(c.f["period"]), digit_list(c.f["head"]), digit_list(c.f["cycle"]))
    require(got == (pre, period, head, cycle), f"profile {got} differs from reference {own}")
    if all(cycle):
        threshold = pre
        while threshold > 0 and head[threshold - 1] == 1:
            threshold -= 1
        want = str(threshold)
    else:
        want = "absent"
    require(c.f["cofinite_threshold"] == want, "cofinite_threshold")
    meta = c.meta()
    if meta.get("family") == "chain" and state > 0:
        require(period == meta["n"] - 1, "a chain state's period is n-1")


def _check_minimize(c: Context) -> None:
    c.rc(0)
    a, m = c.auto(), O.Auto.from_text(c.outcome.out)
    require(O.equivalent(a, m), "minimized automaton recognizes a different set")
    require(O.is_canonical_minimal_layout(m), "not in trimmed breadth-first canonical layout")
    meta = c.meta()
    want = meta["n"] if meta.get("family") == "chain" else O.minimal_state_count(c.loaded())
    require(m.n == want, f"{m.n} states, minimal is {want}")


def _check_trim(c: Context) -> None:
    c.rc(0)
    a, t = c.auto(), O.Auto.from_text(c.outcome.out)
    require(O.equivalent(a, t), "trimmed automaton recognizes a different set")
    loaded = c.loaded()
    useful = loaded.useful()
    want = len(useful) if loaded.initial in useful else 1
    require(t.n == want, f"{t.n} states, expected {want}")
    require(not t.finals or t.useful() == set(range(t.n)), "useless states remain")


def _check_right_dense(c: Context) -> None:
    want = O.right_dense(c.auto())
    if c.meta().get("family") == "example1":
        require(want, "reference disagrees with example1 being right dense")
    c.rc(0 if want else 1)
    require(c.outcome.out.strip() == ("true" if want else "false"), "right-dense answer")


# -- refute ------------------------------------------------------------------

def _check_refute(c: Context) -> None:
    expect = c.job.meta.get("expect")
    if c.outcome.rc == 2:
        require(expect is None, f"expected {expect}")
        require(not (c.total(0).set_is_infinite() and c.total(1).set_is_infinite()),
                "precondition error, but both sets are infinite")
        return
    if c.outcome.rc == 1:
        require(expect in (None, "absent"), f"expected {expect}")
        require(c.outcome.out.startswith("absent"), "exit 1 without 'absent'")
        require(_all_cofinite(c.total(1)), "absent, but the second set has an empty family")
        return
    c.rc(0)
    require(expect in (None, "refuted"), f"expected {expect}")
    require(c.f.get("refuted") == "true", "missing 'refuted: true'")
    from recset.numeration import KroneckerWitness
    from recset.witnesses import ContradictionCertificate, IntervalWitness, verify_contradiction
    p, q = int(c.f["base_p"]), int(c.f["base_q"])
    nwf, ewf, kwf = pairs(c.f["nonempty_witness"]), pairs(c.f["empty_witness"]), pairs(c.f["kronecker"])
    nw = IntervalWitness(nwf["m"], nwf["a"], nwf["b"], nwf["state"], "nonempty")
    ew = IntervalWitness(ewf["m"], ewf["a"], ewf["b"], ewf["state"], "empty")
    kw = KroneckerWitness(kwf["K"], kwf["L"])
    element = int(c.f["element"])
    cert = ContradictionCertificate(p, q, nw, ew, kw, element)
    require(verify_contradiction(cert, c.recset_set(0), c.recset_set(1)), "verify_contradiction rejects")
    # the same claims again, with the reference code only
    a_p, a_q = c.auto(0), c.auto(1)
    require((p, q) == (a_p.base, a_q.base), "bases")
    require(a_p.member(element) and not a_q.member(element), "element is not in P \\ Q")
    lo_p, hi_p = nw.m * p ** (nw.a + nw.b * kw.k), (nw.m + 1) * p ** (nw.a + nw.b * kw.k)
    lo_q, hi_q = ew.m * q ** (ew.a + ew.b * kw.ell), (ew.m + 1) * q ** (ew.a + ew.b * kw.ell)
    require(ew.m < nw.m and lo_q <= lo_p <= element < hi_p <= hi_q, "intervals do not nest")
    require(c.f.get("chain") == f"{lo_q} <= {lo_p} < {hi_p} <= {hi_q}", "printed chain")
    require(c.total(0).family_holds(nw.m, nw.a, nw.b, True), "reference: nonempty family fails")
    require(c.total(1).family_holds(ew.m, ew.a, ew.b, False), "reference: empty family fails")


def _least_k(m, n, a, b, c, d, p, q, ell) -> int:
    """Least k >= 1 with n*q^(c+d*ell) <= m*p^(a+b*k); floats only give the
    starting point, the comparisons are exact."""
    target = n * q ** (c + d * ell)
    guess = (math.log(n) + (c + d * ell) * math.log(q) - math.log(m) - a * math.log(p)) / (b * math.log(p))
    k = max(1, int(guess) - 2)
    while k > 1 and m * p ** (a + b * (k - 1)) >= target:
        k -= 1
    while m * p ** (a + b * k) < target:
        k += 1
    return k


def _check_kronecker(c: Context) -> None:
    c.rc(0)
    m, n, a, b, cc, d, p, q = (int(x) for x in c.job.argv[1:9])
    k, ell = int(c.f["k"]), int(c.f["l"])
    from recset.numeration import KroneckerWitness, verify_kronecker
    require(verify_kronecker(KroneckerWitness(k, ell), m, n, a, b, cc, d, p, q), "verify_kronecker rejects")
    lo, mid_lo = n * q ** (cc + d * ell), m * p ** (a + b * k)
    mid_hi, hi = (m + 1) * p ** (a + b * k), (n + 1) * q ** (cc + d * ell)
    require(k >= 1 and ell >= 1 and lo <= mid_lo < mid_hi <= hi, "chain does not hold")
    require(c.f.get("chain") == f"{lo} <= {mid_lo} < {mid_hi} <= {hi}", "printed chain")
    # smallest by l, then k: for each l only the least k meeting the lower
    # end can also meet the upper end
    for smaller in range(1, ell):
        kk = _least_k(m, n, a, b, cc, d, p, q, smaller)
        require((m + 1) * p ** (a + b * kk) > (n + 1) * q ** (cc + d * smaller),
                f"l={smaller} already admits k={kk}")
    require(k == _least_k(m, n, a, b, cc, d, p, q, ell), "k is not the least for this l")


def _check_indep(c: Context) -> None:
    p, q = int(c.job.argv[1]), int(c.job.argv[2])
    dependent = None
    for k in range(1, q.bit_length() + 1):
        for ell in range(1, p.bit_length() + 1):
            if p ** k == q ** ell:
                dependent = dependent or (k, ell)
    if dependent is None:
        c.rc(0)
        require(c.outcome.out.strip() == "independent", "expected 'independent'")
        return
    c.rc(1)
    text = c.outcome.out.strip()
    require(text.startswith("dependent: "), "expected 'dependent: ...'")
    left, mid, value = text[len("dependent: "):].split(" = ")
    bp, k = (int(x) for x in left.split("^"))
    bq, ell = (int(x) for x in mid.split("^"))
    require((bp, bq) == (p, q) and k >= 1 and ell >= 1 and p ** k == q ** ell == int(value),
            "dependence witness does not hold")


# -- elements ----------------------------------------------------------------

def _check_member(c: Context) -> None:
    x = int(c.job.argv[2])
    want = c.auto().member(x)
    meta = c.meta()
    if meta.get("family") == "multiples":
        require(want == (x % meta["k"] == 0), "reference walker disagrees with divisibility")
    if meta.get("family") == "example1":
        require(want == (x.bit_length() % 2 == 1), "reference walker disagrees with example1")
    c.rc(0 if want else 1)
    require(c.outcome.out.strip() == ("true" if want else "false"), "membership answer")


def _check_enum(c: Context) -> None:
    c.rc(0)
    limit = int(c.job.argv[2])
    got = [int(line) for line in c.outcome.out.split()]
    a = c.auto()
    require(len(got) <= limit, "more elements than asked for")
    require(all(x < y for x, y in zip(got, got[1:])), "not strictly increasing")
    require(all(a.member(x) for x in got), "a listed number is not an element")
    if got:
        require(O.count_upto(a, got[-1]) == len(got), "an element below the last one is missing")
        if got[-1] <= 20000:
            require([x for x in range(got[-1] + 1) if a.member(x)] == got, "membership scan differs")
    if len(got) < limit:
        t = c.total()
        require(not t.set_is_infinite(), "fewer elements than asked for from an infinite set")
        require(O.count_upto(a, a.base ** t.n) == len(got), "elements missing from a finite set")


def _check_gaps(c: Context) -> None:
    horizon = int(c.job.argv[3])
    els = O.elements_upto(c.auto(), horizon)
    if c.outcome.rc == 2:
        require(len(els) < 2, "insufficient-data error, but two elements exist")
        return
    c.rc(0)
    gaps = [(y - x, x, y) for x, y in zip(els, els[1:])]
    require(gaps, "gaps reported with fewer than two elements")
    best = max(g for g, _, _ in gaps)
    at = [(x, y) for g, x, y in gaps if g == best]
    require(int(c.f["max_gap"]) == best, f"max_gap {c.f['max_gap']}, reference {best}")
    require(int(c.f["occurrences"]) == len(at), "occurrences")
    require(c.f["first"] == f"{at[0][0]} {at[0][1]}", "first pair")


def _check_encode(c: Context) -> None:
    c.rc(0)
    n, base = int(c.job.argv[1]), int(c.job.argv[2])
    require(digit_list(c.outcome.out) == O.digits_of(n, base), "digits")


def _check_decode(c: Context) -> None:
    c.rc(0)
    base = int(c.job.argv[2])
    value = 0
    for d in c.job.argv[1].split(","):
        value = value * base + int(d)
    require(int(c.outcome.out.strip()) == value, "value")


CHECKERS = {
    "syndetic": _check_syndetic,
    "witness-nonempty": _check_witness_nonempty,
    "witness-empty": _check_witness_empty,
    "profile": _check_profile,
    "minimize": _check_minimize,
    "trim": _check_trim,
    "right-dense": _check_right_dense,
    "refute": _check_refute,
    "kronecker": _check_kronecker,
    "indep": _check_indep,
    "member": _check_member,
    "enum": _check_enum,
    "gaps": _check_gaps,
    "encode": _check_encode,
    "decode": _check_decode,
}
