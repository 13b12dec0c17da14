"""Base-p positional numeration and exact Diophantine witness search.

Digit words are most-significant-digit first throughout: the value of a word
w of length t extended by a word v of length r is value(w) * p**r + value(v),
which is what makes prefix-interval arguments work.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError, RecsetError, SearchCapExceededError, ValidationError

MAX_CERTIFICATE_BITS = 1 << 23  # building 3**e took 1.6 s at this size, 0.63 s at half of it
_SCALE = 1 << 64  # kronecker_witness's fixed point
_LN2 = sum((2 << 272) // ((2 * j + 1) * 3 ** (2 * j + 1)) for j in range(88)) >> 16  # floor(2**256 ln 2)
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


def _first_hit(a: int, b: int, m: int, w: int) -> int | None:
    """Least x >= 0 with (a*x + b) % m <= w, or None if there is none; 0 <= a, b < m.

    A rotation's first return to [0, w] (Sos 1958; Cassels 1957, ch. III).  As
    z -> w - z maps [0, w] onto itself, a and b may become m - a and (w - b) % m,
    so take a <= m/2.  From b > w the orbit lands in [0, w] only just past some
    j*m, at x = ceil((j*m - b)/a), on (b - j*m) % a: the least j >= 1 is a first
    hit modulo a, and the modulus halves at each step.
    """
    if b <= w:
        return 0
    if 2 * a > m:
        a, b = m - a, (w - b) % m
    if a == 0:
        return None
    j = _first_hit(-m % a, (b - m) % a, a, w)
    return None if j is None else ((j + 1) * m - b + a - 1) // a


def _ln_fixed(u: int, v: int) -> int:
    """round(ln(u/v) * _SCALE) within one unit, for positive ints u and v (bound: kronecker_witness)."""
    e = u.bit_length() - v.bit_length()
    u, v = (u, v << e) if e >= 0 else (u << -e, v)  # u/v in (1/2, 2)
    shift = (3 * u > 4 * v) - (3 * u < 2 * v)  # u/v in [2/3, 4/3] after it
    e, u, v = e + shift, u << (shift < 0), v << (shift > 0)
    prec = 76 + abs(e).bit_length()  # at most 256 while |e| < 2**180
    term = (abs(u - v) << prec) // (u + v)  # |z|: a floor shift of a negative term never reaches 0
    z2, series, j = term * term >> prec, 0, 1
    while term:
        series, term, j = series + term // j, term * z2 >> prec, j + 2
    total = e * (_LN2 >> (256 - prec)) + (2 * series if u >= v else -2 * series)
    return (total + (1 << (prec - 65))) >> (prec - 64)


def kronecker_witness(m: int, n: int, a: int, b: int, c: int, d: int,
                      p: int, q: int) -> KroneckerWitness:
    """Smallest (by l, then k) exponent pair nesting the intervals, by an exact search.

    The pair nests exactly when b*k*ln p is in [t + ln(n/m), t + ln((n+1)/(m+1))],
    t = (c+d*l)*ln q - a*ln p.  Times F = _SCALE, ln p, ln q and the two ends round
    to integers lp, lq, r0, r1 within one unit, by `_ln_fixed`: e from the bit
    lengths puts y = u/(v*2**e) in [2/3, 4/3], so z = (y-1)/(y+1) has |z| <= 1/5,
    and ln(u/v) = e*ln 2 + 2*atanh(z), atanh(z) = sum of z**(2j+1)/(2j+1).  At
    P = 76 + bitlen(|e|) bits z floors low by under a unit of 2**-P, and each term,
    a floored product with floored z**2, by under 1.25, 2.25 once divided; terms
    shrink 25-fold, so at most P/4 + 1 are added before one floors to 0, and the
    tail left is under 1.5.  So 2*atanh(z) is low by under 2**9 units, 1/8 of a unit
    of F.  _LN2 sums 2*atanh(1/3) to 2**-272, low by under 2**-9 of a unit of
    2**-256, and 2**256 ln 2 has fraction 0.905, so _LN2 is its floor; cut to P
    bits, times |e| < 2**bitlen(|e|), it errs by under 2**-11 of F (P <= 256 for any
    |e| < 2**180), and the rounded sum is within 5/8.  A pair whose powers fit
    B = MAX_CERTIFICATE_BITS bits has exponents under B, as p**(a+b*k) < q**(c+d*l),
    so its integer chain errs by at most (c+d*l) + (a+b*k) + 1 < E = 4*B units:
    k*b*lp is in [Y(l), Y(l) + W], Y(l) = (c+d*l)*lq - a*lp + r0 - E,
    W = r1 - r0 + 2*E.  So its l is a hit (-Y(l)) % (b*lp) <= W of a rotation, found
    in order by `_first_hit`, and `verify_kronecker` checks each hit's one or two k
    exactly; at B = 2**23, E is 2**-38 of a turn, so few hits fail.  Independent
    bases always have a pair ({l*d*ln q / (b*ln p)} is dense), so B only guards
    outside input: a pair whose larger power would pass it, (1, 1) first, raises
    SearchCapExceededError naming l, k and the size.
    """
    for name, value in (("m", m), ("n", n), ("a", a), ("b", b), ("c", c), ("d", d)):
        if value < 1:
            raise PreconditionError(f"{name} must be >= 1, got {value}")
    if not n < m:
        raise PreconditionError(f"need n < m, got n={n}, m={m}")
    require_independent(p, q)

    lp, lq, r0, r1 = _ln_fixed(p, 1), _ln_fixed(q, 1), _ln_fixed(n, m), _ln_fixed(n + 1, m + 1)

    def guard(ell: int, k: int) -> None:
        if (size := (max((a + b * k) * lp, (c + d * ell) * lq) << 192) // _LN2 + 1) > MAX_CERTIFICATE_BITS:
            # str() of a size past 2**8192 could pass the int-to-str limit: name its bit length
            text = f"about {size}" if size.bit_length() <= 8192 else f"more than 2^{size.bit_length() - 1}"
            raise SearchCapExceededError(f"exponent pair l={ell}, k={k} needs a power of {text} bits,"
                                         f" past the {MAX_CERTIFICATE_BITS}-bit bound", cap=MAX_CERTIFICATE_BITS)

    guard(1, 1)
    slack = 4 * MAX_CERTIFICATE_BITS
    g, step, y0, window = b * lp, d * lq, c * lq - a * lp + r0 - slack, r1 - r0 + 2 * slack
    ell = max(1, -((y0 + window - g) // step))  # below it no k >= 1 fits
    while (x := _first_hit(-step % g, -(y0 + step * ell) % g, g, window)) is not None:
        ell += x
        y = y0 + step * ell
        for k in range(-(-y // g), (y + window) // g + 1):
            guard(ell, k)
            if verify_kronecker(w := KroneckerWitness(k, ell), m, n, a, b, c, d, p, q):
                return w
        ell += 1
    raise SearchCapExceededError(f"no exponent pair within the {MAX_CERTIFICATE_BITS}-bit bound",
                                 cap=MAX_CERTIFICATE_BITS)
