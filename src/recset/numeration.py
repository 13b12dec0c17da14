"""Base-p positional numeration and exact Diophantine witness search.

Digit words are most-significant-digit first throughout: the value of a word
w of length t extended by a word v of length r is value(w) * p**r + value(v),
which is what makes prefix-interval arguments work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PreconditionError, RecsetError, SearchCapExceededError, ValidationError

DEFAULT_KRONECKER_CAP = 10_000
_LOOP_BITS = 1536  # encode and decode keep the per-digit loop up to here: splitting saves microseconds


def encode(n: int, p: int) -> tuple[int, ...]:
    """Canonical base-p digits of n, most significant first, () for 0; long numbers split in halves."""
    if p < 2:
        raise ValidationError(f"base must be >= 2, got {p}")
    if n < 0:
        raise ValidationError(f"cannot encode negative integer {n}")
    if n.bit_length() > _LOOP_BITS and (half := n.bit_length() // (2 * (p - 1).bit_length())):
        hi, lo = divmod(n, p**half)
        low = encode(lo, p)
        return encode(hi, p) + (0,) * (half - len(low)) + low
    digits = []
    while n:
        n, d = divmod(n, p)
        digits.append(d)
    return tuple(digits[::-1])


def decode(w, p: int) -> int:
    """Value of a digit string in base p, leading zeros ignored; long words split in halves."""
    if p < 2:
        raise ValidationError(f"base must be >= 2, got {p}")
    if len(w := tuple(w)) > 1 and len(w) * (p - 1).bit_length() > _LOOP_BITS:
        half = len(w) // 2
        return decode(w[:half], p) * p ** (len(w) - half) + decode(w[half:], p)
    value = 0
    for d in w:
        if not 0 <= d < p:
            raise ValidationError(f"digit {d} out of range for base {p}")
        value = value * p + d
    return value


@dataclass(frozen=True)
class IndependenceVerdict:
    """Outcome of the multiplicative-independence test.

    `dependence_witness` is present exactly when the bases are dependent, and
    then holds positive (k, l) with p**k == q**l.
    """

    independent: bool
    dependence_witness: tuple[int, int] | None = None


def mult_independent(p: int, q: int) -> IndependenceVerdict:
    """Decide whether no positive k, l satisfy p**k == q**l, by Euclid on the bases.

    Keep x = p**e1 * q**f1 and y = p**e2 * q**f2 with their exponent pairs,
    from x = p and y = q, and replace the larger by its quotient by the
    smaller until x == y.  Dependent bases are powers of one r >= 2, and then
    so is every x and y, so the smaller divides the larger: when it does not,
    the bases are independent.  When x == y, p**(e1-e2) == q**(f2-f1), so the
    two differences share a sign, and their absolute values are the least
    witness (k, l): each step keeps the 2x2 exponent matrix at determinant
    +-1, so the difference is primitive, and the witnesses are the multiples
    of one primitive pair; the same determinant makes the final x the common
    root, p == x**l and q == x**k.  A step divides by the largest y**j, j a
    power of two, that divides x and stays below it: j steps by y, and x * y
    at least halves per such step, so the cost grows with the bit lengths.
    """
    if p < 2 or q < 2:
        raise ValidationError(f"bases must be >= 2, got {p} and {q}")
    (x, e1, f1), (y, e2, f2) = (p, 1, 0), (q, 0, 1)
    while x != y:
        if x < y:
            (x, e1, f1), (y, e2, f2) = (y, e2, f2), (x, e1, f1)
        if x % y:
            return IndependenceVerdict(True)
        power, j = y, 1
        while (square := power * power) < x and x % square == 0:
            power, j = square, 2 * j
        x, e1, f1 = x // power, e1 - j * e2, f1 - j * f2
    k, ell = abs(e1 - e2), abs(f1 - f2)
    if p != x**ell or q != x**k:
        raise RecsetError(f"internal: dependence witness {p}^{k} = {q}^{ell} does not hold")
    return IndependenceVerdict(False, (k, ell))


def require_independent(p: int, q: int) -> None:
    """PreconditionError naming p**k == q**l unless the bases are independent."""
    verdict = mult_independent(p, q)
    if not verdict.independent:
        wk, wl = verdict.dependence_witness
        raise PreconditionError(
            f"bases {p} and {q} are multiplicatively dependent: {p}^{wk} = {q}^{wl}")


@dataclass(frozen=True)
class KroneckerWitness:
    """Exponent pair (k, l) placing one scaled power interval inside another.

    Together with parameters (m, n, a, b, c, d, p, q) it satisfies
    n*q**(c+d*l) <= m*p**(a+b*k) < (m+1)*p**(a+b*k) <= (n+1)*q**(c+d*l),
    checked in exact integer arithmetic.
    """

    k: int
    ell: int


def nested_chain(w: KroneckerWitness, m: int, n: int, a: int, b: int,
                 c: int, d: int, p: int, q: int) -> tuple[int, int, int, int]:
    """The ends (lo_q, lo_p, hi_p, hi_q) of the two intervals the exponent pair nests."""
    big_p = p ** (a + b * w.k)
    big_q = q ** (c + d * w.ell)
    return n * big_q, m * big_p, (m + 1) * big_p, (n + 1) * big_q


def verify_kronecker(w: KroneckerWitness, m: int, n: int, a: int, b: int,
                     c: int, d: int, p: int, q: int) -> bool:
    """Exact re-check of the nested-interval inequality chain."""
    if w.k < 1 or w.ell < 1:
        return False
    lo_q, lo_p, hi_p, hi_q = nested_chain(w, m, n, a, b, c, d, p, q)
    return lo_q <= lo_p and hi_p <= hi_q


def kronecker_witness(m: int, n: int, a: int, b: int, c: int, d: int,
                      p: int, q: int) -> KroneckerWitness:
    """Smallest (by l, then k) exponent pair nesting the intervals.

    For l = 1, 2, ... and t = (c+d*l)*log q, the pair nests exactly when b*k*log p
    lies in [log n - log m - a*log p + t, log(n+1) - log(m+1) - a*log p + t].  Each
    of the about 15 roundings behind an end (logarithms, int to float, products,
    sums, one division) errs by at most 2**-52*S, S = 1 + t + a*log p + log(m+1) +
    log(n+1), so widening both ends by 2**-40*S, over 250 times their sum, skips
    no integer k.  `verify_kronecker` checks only the k left in the widened bracket,
    in exact integers: the floats only narrow the search and never decide.
    Termination is guaranteed for independent bases; DEFAULT_KRONECKER_CAP bounds l
    as a safety valve only, and a search past it raises SearchCapExceededError.
    """
    for name, value in (("m", m), ("n", n), ("a", a), ("b", b), ("c", c), ("d", d)):
        if value < 1:
            raise PreconditionError(f"{name} must be >= 1, got {value}")
    if not n < m:
        raise PreconditionError(f"need n < m, got n={n}, m={m}")
    require_independent(p, q)

    log_p, log_q = math.log(p), math.log(q)
    lo_0 = math.log(n) - math.log(m) - a * log_p
    hi_0 = math.log(n + 1) - math.log(m + 1) - a * log_p
    size = 1 + a * log_p + math.log(m + 1) + math.log(n + 1)
    for ell in range(1, DEFAULT_KRONECKER_CAP + 1):
        t = (c + d * ell) * log_q
        margin = 2**-40 * (size + t)
        k_lo = max(1, math.ceil((lo_0 + t - margin) / (b * log_p)))
        for k in range(k_lo, math.floor((hi_0 + t + margin) / (b * log_p)) + 1):
            if verify_kronecker(w := KroneckerWitness(k, ell), m, n, a, b, c, d, p, q):
                return w
    raise SearchCapExceededError(f"no exponent pair found with l <= {DEFAULT_KRONECKER_CAP}",
                                 cap=DEFAULT_KRONECKER_CAP)
