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


@dataclass(frozen=True)
class DigitWord:
    """A finite digit string in a fixed base, most-significant digit first."""

    base: int
    digits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "digits", tuple(self.digits))
        if self.base < 2:
            raise ValidationError(f"base must be >= 2, got {self.base}")
        for d in self.digits:
            if not 0 <= d < self.base:
                raise ValidationError(f"digit {d} out of range for base {self.base}")

    @property
    def canonical(self) -> bool:
        """True when the word is empty or carries no leading zero."""
        return not self.digits or self.digits[0] != 0

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self):
        return iter(self.digits)

    def __getitem__(self, i):
        return self.digits[i]


def encode(n: int, p: int) -> DigitWord:
    """Canonical base-p digits of n, most significant first; 0 encodes as the empty word."""
    if p < 2:
        raise ValidationError(f"base must be >= 2, got {p}")
    if n < 0:
        raise ValidationError(f"cannot encode negative integer {n}")
    digits = []
    while n:
        n, d = divmod(n, p)
        digits.append(d)
    return DigitWord(p, tuple(reversed(digits)))


def decode(w, p: int) -> int:
    """Value of a digit string in base p.  Leading zeros are permitted and ignored."""
    if p < 2:
        raise ValidationError(f"base must be >= 2, got {p}")
    if isinstance(w, DigitWord) and w.base != p:
        raise ValidationError(f"word has base {w.base}, expected {p}")
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
    of one primitive pair.  A step divides by the largest y**j, j a power of
    two, that divides x and stays below it: j steps by y, and x * y at least
    halves per such step, so the cost grows with the bit lengths of p and q.
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
    if p**k != q**ell:
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

    Enumerates l = 1, 2, ... and brackets the candidate k range with real
    logarithms, then confirms candidates in exact integer arithmetic; the
    floats only narrow the search and never decide.  Termination is
    guaranteed for multiplicatively independent bases; the fixed constant
    DEFAULT_KRONECKER_CAP bounds l as a safety valve only, and a search
    past it raises SearchCapExceededError.
    """
    for name, value in (("m", m), ("n", n), ("a", a), ("b", b), ("c", c), ("d", d)):
        if value < 1:
            raise PreconditionError(f"{name} must be >= 1, got {value}")
    if not n < m:
        raise PreconditionError(f"need n < m, got n={n}, m={m}")
    require_independent(p, q)

    log_p, log_q = math.log(p), math.log(q)
    step_q = q**d
    big_q = q**c
    for ell in range(1, DEFAULT_KRONECKER_CAP + 1):
        big_q *= step_q
        # k must satisfy n*big_q <= m*p^(a+bk) and (m+1)*p^(a+bk) <= (n+1)*big_q
        t = (c + d * ell) * log_q
        lo = (math.log(n) + t - math.log(m) - a * log_p) / (b * log_p)
        hi = (math.log(n + 1) + t - math.log(m + 1) - a * log_p) / (b * log_p)
        k_lo = max(1, math.floor(lo) - 2)
        k_hi = math.ceil(hi) + 2
        n_q, n1_q = n * big_q, (n + 1) * big_q
        for k in range(k_lo, k_hi + 1):
            big_p = p ** (a + b * k)
            if n_q <= m * big_p and (m + 1) * big_p <= n1_q:
                return KroneckerWitness(k, ell)
    raise SearchCapExceededError(f"no exponent pair found with l <= {DEFAULT_KRONECKER_CAP}",
                                 cap=DEFAULT_KRONECKER_CAP)
