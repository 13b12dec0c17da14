"""Encoding, decoding, independence, and the exponent-pair search."""

from __future__ import annotations

import decimal
import math
import random
import re
import sys
import time
import tracemalloc

import pytest

from recset import (
    KroneckerWitness,
    PreconditionError,
    SearchCapExceededError,
    ValidationError,
    decode,
    encode,
    kronecker_witness,
    mult_independent,
    verify_kronecker,
)
from recset.numeration import _LN2, IndependenceVerdict, _first_hit, _ln_fixed


def test_encode_basics():
    assert encode(6, 2) == (1, 1, 0)
    assert encode(0, 5) == ()
    assert encode(4, 2) == (1, 0, 0)
    assert encode(255, 16) == (15, 15)


def test_encode_is_canonical():
    for n in range(0, 2000, 7):
        for p in (2, 3, 10, 16):
            assert encode(n, p)[:1] != (0,)


def test_encode_errors():
    with pytest.raises(ValidationError):
        encode(5, 1)
    with pytest.raises(ValidationError):
        encode(-1, 2)


def _loop_digits(n, p):
    digits = []
    while n:
        n, d = divmod(n, p)
        digits.append(d)
    return tuple(reversed(digits))


def test_long_encode_matches_the_digit_loop():
    # past a cutoff encode splits in halves, at p**half; the low halves keep
    # their leading zeros, so runs of zeros and numbers next to powers of p are
    # the cases a wrong pad would break
    rng = random.Random(5)
    cases = [(p**w + delta, p) for p in (2, 3, 10, 36)
             for w in (1000, 1024, 2048, 5000) for delta in (-1, 0, 1)]
    cases += [(rng.getrandbits(rng.randint(1500, 20000)), rng.randint(2, 36)) for _ in range(40)]
    cases += [(7 * 5**4000 + 3 * 5**1999 + 2, 5), (2**3000 + 1, 2**2000 + 1)]
    # just past the cutoff
    cases += [(2**1536 + delta, p) for delta in (0, 1) for p in (2, 3)]
    # a base of more than half n's bits takes the loop; one digit more splits at the base
    P = 2**2000 + 1
    cases += [(P**2 - 1, P), (3 * P**3 + 5, P)]
    for n, p in cases:
        assert encode(n, p) == _loop_digits(n, p)


def test_long_encode_is_not_quadratic():
    # the per-digit loop takes seconds on this number; splitting takes a fraction
    start = time.perf_counter()
    assert encode(3**200_000 - 1, 3) == (2,) * 200_000
    assert time.perf_counter() - start < 2


def test_decode_basics():
    assert decode([1, 0, 1], 2) == 5
    assert decode([0, 0, 7], 10) == 7
    assert decode([], 7) == 0
    assert decode((1, 1, 0), 2) == 6


def test_decode_errors():
    with pytest.raises(ValidationError):
        decode([2], 2)
    with pytest.raises(ValidationError):
        decode([1], 1)


def test_long_decode_splits_in_halves():
    # past a cutoff decode splits the word; the low half keeps its leading zeros
    n = random.Random(11).randrange(3**19_999, 3**20_000)
    word = encode(n, 3)
    assert len(word) == 20_000
    assert decode(word, 3) == n
    assert decode((0,) * 7_777 + word, 3) == n
    assert decode((1,) + (0,) * 9_999, 2) == 2**9_999
    for p in (2, 10, 36):
        m = p**3000 - 1
        assert decode(encode(m, p), p) == m
    # a one-digit word in a base past the cutoff is not split again
    P = 2**2000
    assert decode([5], P) == 5
    assert decode((1, 0), 2**1537) == 2**1537
    for m in (5, 3 * P**2 + 5, P**5 - 1):
        assert decode(encode(m, P), P) == m


def test_long_decode_checks_every_digit():
    digits = list(encode(3**20_000 - 1, 3))
    for i in (0, 12_345, len(digits) - 1):
        bad = digits.copy()
        bad[i] = 3
        with pytest.raises(ValidationError):
            decode(bad, 3)
    digits[15_000] = -1
    with pytest.raises(ValidationError):
        decode(digits, 3)


def test_round_trip_sample():
    for p in range(2, 17):
        for n in range(0, 3000):
            assert decode(encode(n, p), p) == n


def test_radix_order_preserved():
    rng = random.Random(7)
    for _ in range(500):
        p = rng.choice([2, 3, 10, 16])
        m, n = sorted(rng.sample(range(100_000), 2))
        wm, wn = encode(m, p), encode(n, p)
        assert (len(wm), wm) < (len(wn), wn)


def test_independence_dependent_pair():
    verdict = mult_independent(4, 8)
    assert not verdict.independent
    k, ell = verdict.dependence_witness
    assert (k, ell) == (3, 2)
    assert 4**k == 8**ell


def test_independence_brute_force():
    verdict = mult_independent(2, 3)
    assert verdict.independent
    assert verdict.dependence_witness is None
    # exponent-vector reasoning cross-checked by exhaustion
    assert all(2**k != 3**ell for k in range(1, 41) for ell in range(1, 41))


def test_independence_of_non_powers():
    # 6^k = 12^l forces k = l (3-adic) and k = 2l (2-adic)
    assert mult_independent(6, 12).independent
    assert mult_independent(6, 36).dependence_witness == (2, 1)
    assert mult_independent(12, 18).independent


def test_independence_against_brute_force_powers():
    # for p, q <= 200 a dependence has p = r**i and q = r**j with i, j <= 7,
    # so its least witness (j/g, i/g) has both exponents <= 8
    for p in range(2, 201):
        for q in range(2, 201):
            verdict = mult_independent(p, q)
            dependent = any(p**k == q**ell for k in range(1, 9) for ell in range(1, 9))
            assert verdict.independent is not dependent
            if dependent:
                k, ell = verdict.dependence_witness
                assert math.gcd(k, ell) == 1 and p**k == q**ell


def test_independence_of_large_bases_costs_their_bit_length():
    # 2**61 - 1 is prime: trial division would run to its square root
    mersenne = 2**61 - 1
    assert mult_independent(mersenne**2, mersenne**3).dependence_witness == (3, 2)
    assert mult_independent(mersenne, 3) == IndependenceVerdict(True)
    assert mult_independent(10**40 + 121, 10**40 + 121).dependence_witness == (1, 1)


def test_independence_of_a_high_power_costs_its_bit_length():
    # one division per unit of exponent costs seconds on these bases;
    # dividing by repeated squares costs milliseconds
    for p, q, witness in [(2**100000, 2, (1, 100000)), (2, 2**100000, (100000, 1))]:
        start = time.perf_counter()
        assert mult_independent(p, q).dependence_witness == witness
        assert time.perf_counter() - start < 1


def test_independence_self_check_costs_the_bit_length_of_the_bases():
    # checking p**k == q**l here would build numbers of 2999 * 3000 * log2(6) bits
    for p, q, witness in [(6**3000, 6**2999, (2999, 3000)), (6**2999, 6**3000, (3000, 2999))]:
        start = time.perf_counter()
        assert mult_independent(p, q).dependence_witness == witness
        assert time.perf_counter() - start < 1


def test_independence_symmetry_and_witnesses():
    rng = random.Random(11)
    for _ in range(200):
        p, q = rng.randint(2, 64), rng.randint(2, 64)
        v1, v2 = mult_independent(p, q), mult_independent(q, p)
        assert v1.independent == v2.independent
        if not v1.independent:
            k, ell = v1.dependence_witness
            assert k >= 1 and ell >= 1 and p**k == q**ell
    with pytest.raises(ValidationError):
        mult_independent(1, 3)


def _kronecker_oracle(m, n, a, b, c, d, p, q, limit=60):
    """Exhaustive minimal (l, k) search; independent of the library's bracketing."""
    for ell in range(1, limit + 1):
        big_q = q ** (c + d * ell)
        for k in range(1, limit + 1):
            big_p = p ** (a + b * k)
            if n * big_q <= m * big_p and (m + 1) * big_p <= (n + 1) * big_q:
                return k, ell
    return None


def test_kronecker_golden_value():
    w = kronecker_witness(2, 1, 1, 1, 1, 1, 2, 3)
    assert (w.k, w.ell) == _kronecker_oracle(2, 1, 1, 1, 1, 1, 2, 3) == (3, 2)
    assert verify_kronecker(w, 2, 1, 1, 1, 1, 1, 2, 3)
    # the chain concretely: 27 <= 32 < 48 <= 54
    assert 1 * 3**3 <= 2 * 2**4 < 3 * 2**4 <= 2 * 3**3
    # exponents must be positive, even where the chain 3 <= 4 < 6 <= 6 holds
    assert 1 * 3**1 <= 2 * 2**1 < 3 * 2**1 <= 2 * 3**1
    assert not verify_kronecker(KroneckerWitness(0, 0), 2, 1, 1, 1, 1, 1, 2, 3)


def test_kronecker_lower_bound_met_with_equality():
    # n*q**(c+d*l) <= m*p**(a+b*k) holds with equality at the answer,
    # 8 * 3**2 == 9 * 2**3 == 72, so the window's lower end is exact and the
    # search must admit an integer sitting right on the bound
    assert 8 * 3**2 == 9 * 2**3 and 10 * 2**3 <= 9 * 3**2
    w = kronecker_witness(9, 8, 1, 1, 1, 1, 2, 3)
    assert w == KroneckerWitness(k=2, ell=1)
    assert verify_kronecker(w, 9, 8, 1, 1, 1, 1, 2, 3)


def test_kronecker_upper_bound_met_with_equality():
    # (m+1)*p**(a+b*k) <= (n+1)*q**(c+d*l) holds with equality at the answer,
    # 9 * 2**2 == 4 * 3**2 == 36, so the window's upper end is exact and the
    # search must admit an integer sitting right on it
    assert 9 * 2**2 == 4 * 3**2 and 3 * 3**2 <= 8 * 2**2
    w = kronecker_witness(8, 3, 1, 1, 1, 1, 2, 3)
    assert w == KroneckerWitness(k=1, ell=1)
    assert verify_kronecker(w, 8, 3, 1, 1, 1, 1, 2, 3)


def test_kronecker_exact_check_rejects_a_bracket_survivor(monkeypatch):
    # 3**24 == 32*m + 1, so at l = 1 the lower bound misses by one part in
    # 2**38; l = 2 then nests with k = 6
    m = (3**24 - 1) // 32
    assert 3**24 == 32 * m + 1
    args = (m, 1, 1, 1, 23, 1, 2, 3)
    assert not verify_kronecker(KroneckerWitness(4, 1), *args)
    assert kronecker_witness(*args) == KroneckerWitness(k=6, ell=2)
    assert _kronecker_oracle(*args) == (6, 2)
    # 3**48 == 64*m + 1 misses by one part in 2**76, inside the search's error
    # bound: l = 1 is a hit, and its window, nearly a whole turn wide, holds
    # two k; only the exact check turns both down before l = 2 nests
    import recset.numeration as numeration
    checked = []
    monkeypatch.setattr(numeration, "verify_kronecker",
                        lambda w, *rest: checked.append(w) or verify_kronecker(w, *rest))
    m = (3**48 - 1) // 64
    assert 3**48 == 64 * m + 1
    args = (m, 1, 1, 1, 47, 1, 2, 3)
    assert kronecker_witness(*args) == KroneckerWitness(k=7, ell=2)
    assert checked == [KroneckerWitness(5, 1), KroneckerWitness(6, 1), KroneckerWitness(7, 2)]
    assert _least_exact_pair(*args, limit=2) == (7, 2)


class _NoLnContext(decimal.Context):
    def ln(self, x):
        raise AssertionError("decimal ln called")


class _NoLnDecimal(decimal.Decimal):
    def ln(self, context=None):
        raise AssertionError("decimal ln called")


@pytest.fixture
def no_decimal_ln(monkeypatch):
    """The search runs on integer logarithms: any `decimal` ln raises (its types are immutable, so swap them)."""
    import recset.numeration as numeration
    assert not hasattr(numeration, "decimal")
    monkeypatch.setattr(decimal, "Context", _NoLnContext)
    monkeypatch.setattr(decimal, "Decimal", _NoLnDecimal)
    with pytest.raises(AssertionError, match="decimal ln called"):
        decimal.Context(prec=20).ln(2)


@pytest.mark.parametrize("args, witness", [
    ((20, 19, 3, 3, 5, 5, 2, 3), KroneckerWitness(k=15912, ell=6023)),
    ((101, 100, 2, 1, 3, 2, 10, 3), KroneckerWitness(k=2490, ell=2610)),
    # from an uncapped run of the float-bracketed scan `_float_scan`
    ((300, 299, 1, 1, 1, 1, 2, 3), KroneckerWitness(k=4868, ell=3071)),
    ((1000, 999, 1, 1, 1, 1, 2, 3), KroneckerWitness(k=149984, ell=94629)),
])
def test_kronecker_golden_least_witness_for_a_long_search(args, witness, no_decimal_ln):
    # thousands of l to try: building every power exactly took seconds;
    # the search jumps from hit to hit and builds only the answer's powers
    start = time.perf_counter()
    assert kronecker_witness(*args) == witness
    assert time.perf_counter() - start < 1
    assert verify_kronecker(witness, *args)


def _least_exact_pair(m, n, a, b, c, d, p, q, limit):
    """Least (l, k) with l <= limit, by bisection on k in integers only."""
    for ell in range(1, limit + 1):
        big_q = q ** (c + d * ell)
        # n*big_q <= m*p**(a+b*k) is monotone in k; find its least k by bisection
        lo, hi = 1, (n * big_q).bit_length() + 1
        while lo < hi:
            mid = (lo + hi) // 2
            if n * big_q <= m * p ** (a + b * mid):
                hi = mid
            else:
                lo = mid + 1
        if (m + 1) * p ** (a + b * lo) <= (n + 1) * big_q:
            return lo, ell
    return None


def test_kronecker_matches_exact_oracle_on_large_exponents():
    # large c, d and a make the scaled logarithms' errors add up the most
    rng = random.Random(31)
    for _ in range(150):
        p, q = rng.choice([(2, 3), (2, 5), (3, 5), (2, 7), (7, 2)])
        n = rng.randint(1, 30)
        m = rng.randint(n + 1, 40)
        a, c, d = rng.randint(1, 200), rng.randint(1, 50), rng.randint(1, 50)
        b = rng.randint(1, 4)
        expected = _least_exact_pair(m, n, a, b, c, d, p, q, limit=60)
        try:
            w = kronecker_witness(m, n, a, b, c, d, p, q)
        except SearchCapExceededError:
            assert expected is None
            continue
        if expected is None:
            assert w.ell > 60
        else:
            assert (w.k, w.ell) == expected
        assert verify_kronecker(w, m, n, a, b, c, d, p, q)


def test_kronecker_admits_bounds_met_with_equality_at_large_exponents():
    # n = p**(a+b*k), m = q**(c+d*l) meet the lower bound with equality at
    # (k, l), and n + 1, m + 1 the upper one: the window then ends on an
    # integer up to rounding, and a search without a slack skips it
    rng = random.Random(3)
    checked = 0
    while checked < 150:
        p, q = rng.choice([(2, 3), (3, 2), (2, 5), (5, 2), (2, 7), (3, 5), (10, 3)])
        k, ell = rng.randint(1, 3), rng.randint(1, 3)
        a, b, c, d = rng.randint(1, 40), rng.randint(1, 3), rng.randint(1, 40), rng.randint(1, 3)
        n, m = p ** (a + b * k), q ** (c + d * ell)
        if rng.random() < 0.5:
            n, m = n - 1, m - 1
        if not n < m:
            continue
        checked += 1
        w = kronecker_witness(m, n, a, b, c, d, p, q)
        assert (w.k, w.ell) == _least_exact_pair(m, n, a, b, c, d, p, q, limit=ell)


def test_kronecker_matches_oracle_on_small_tuples():
    rng = random.Random(23)
    for _ in range(25):
        p, q = rng.choice([(2, 3), (2, 5), (3, 5)])
        n = rng.randint(1, 10)
        m = rng.randint(n + 1, 20)
        a, b, c, d = (rng.randint(1, 3) for _ in range(4))
        expected = _kronecker_oracle(m, n, a, b, c, d, p, q)
        if expected is None:
            continue
        w = kronecker_witness(m, n, a, b, c, d, p, q)
        assert (w.k, w.ell) == expected


def test_kronecker_random_tuples_verify():
    rng = random.Random(42)
    for _ in range(50):
        p, q = rng.choice([(2, 3), (2, 5), (3, 5)])
        n = rng.randint(1, 19)
        m = rng.randint(n + 1, 20)
        a, b, c, d = (rng.randint(1, 5) for _ in range(4))
        w = kronecker_witness(m, n, a, b, c, d, p, q)
        assert verify_kronecker(w, m, n, a, b, c, d, p, q)
        again = kronecker_witness(m, n, a, b, c, d, p, q)
        assert w == again


def test_kronecker_rejects_dependent_bases():
    with pytest.raises(PreconditionError):
        kronecker_witness(2, 1, 1, 1, 1, 1, 2, 8)


def test_kronecker_rejects_bad_parameters():
    with pytest.raises(PreconditionError):
        kronecker_witness(1, 1, 1, 1, 1, 1, 2, 3)  # needs n < m
    with pytest.raises(PreconditionError):
        kronecker_witness(2, 1, 0, 1, 1, 1, 2, 3)  # a must be >= 1


def _float_scan(m, n, a, b, c, d, p, q, limit):
    """A float-bracketed scan over l = 1 .. limit, a reference for the exact search.

    b*k*log p must lie in [log(n/m) - a*log p + t, log((n+1)/(m+1)) - a*log p + t],
    t = (c+d*l)*log q; both ends are widened by 2**-40 times the size of the
    terms, far more than their rounding, and each k left is checked exactly.
    """
    log_p, log_q = math.log(p), math.log(q)
    lo_0 = math.log(n) - math.log(m) - a * log_p
    hi_0 = math.log(n + 1) - math.log(m + 1) - a * log_p
    size = 1 + a * log_p + math.log(m + 1) + math.log(n + 1)
    for ell in range(1, limit + 1):
        t = (c + d * ell) * log_q
        margin = 2**-40 * (size + t)
        k_lo = max(1, math.ceil((lo_0 + t - margin) / (b * log_p)))
        for k in range(k_lo, math.floor((hi_0 + t + margin) / (b * log_p)) + 1):
            if verify_kronecker(w := KroneckerWitness(k, ell), m, n, a, b, c, d, p, q):
                return w
    return None


def test_kronecker_matches_the_float_scan_on_a_grid(no_decimal_ln):
    # 3 300 tuples: 10 base pairs, every 1 <= n < m <= 12, five (a, b, c, d)
    bases = [(2, 3), (3, 2), (2, 5), (5, 2), (3, 5), (2, 7), (7, 3), (10, 3), (3, 10), (6, 5)]
    exponents = [(1, 1, 1, 1), (2, 1, 3, 2), (1, 3, 1, 2), (5, 2, 1, 1), (3, 4, 7, 3)]
    checked = 0
    for p, q in bases:
        for m in range(2, 13):
            for n in range(1, m):
                for abcd in exponents:
                    args = (m, n, *abcd, p, q)
                    assert kronecker_witness(*args) == _float_scan(*args, limit=20_000), args
                    checked += 1
    assert checked == 3300


def test_ln_fixed_matches_a_decimal_oracle():
    # 2**64 * ln(u/v) from an 80-digit reference; the integer series is within one unit of it
    rng = random.Random(64)
    cases = [(p, 1) for p in range(2, 201)]
    cases += [(n + i, m + i) for m in range(2, 61) for n in range(1, m) for i in (0, 1)]
    for digits in (20, 400):
        cases += [(rng.randrange(10 ** (digits - 1), 10**digits), rng.randrange(10 ** (digits - 1), 10**digits))
                  for _ in range(100)]
    # the ends of the reduced range [2/3, 4/3], exactly and within 10**-30, also after a shift by 2**40
    for u, v in ((2, 3), (4, 3)):
        cases += [(u, v), (u << 40, v), (u, v << 40)]
        cases += [(u * 10**30 + delta, v * 10**30) for delta in (-3, -1, 1, 3)]
    cases += [(7, 7), (10**400, 1), (1, 10**400), (2**5000 + 1, 2**5000), (2**64 + 1, 1), (2**64 - 1, 1)]
    assert len(cases) == 3_959
    ctx = decimal.Context(prec=80)
    for u, v in cases:
        exact = ctx.multiply(ctx.ln(ctx.divide(u, v)), 2**64)
        assert abs(ctx.subtract(_ln_fixed(u, v), exact)) < 1, (u, v)


def test_ln2_constant_is_the_floor_of_its_256_bit_scaling():
    # 2**256 * ln 2 has 77 integer digits, so 100 digits leave 23 after the point; int() floors it
    ctx = decimal.Context(prec=100)
    assert _LN2 == int(ctx.multiply(ctx.ln(2), 2**256))


def test_first_hit_matches_brute_force():
    for m in range(1, 41):
        for a in range(m):
            for b in range(m):
                # the orbit repeats within m steps; best is the least x landing in [0, w]
                first: dict[int, int] = {}
                for x in range(m):
                    first.setdefault((a * x + b) % m, x)
                best = None
                for w in range(m + 1):
                    if w in first and (best is None or first[w] < best):
                        best = first[w]
                    assert _first_hit(a, b, m, w) == best, (a, b, m, w)


def test_kronecker_cap_error_carries_cap(monkeypatch):
    # the size guard names the pair it stopped at and its size, and carries its bound
    import recset.numeration as numeration
    monkeypatch.setattr(numeration, "MAX_CERTIFICATE_BITS", 1000)
    args = (300, 299, 1, 1, 1, 1, 2, 3)
    with pytest.raises(SearchCapExceededError) as err:
        kronecker_witness(*args)
    assert err.value.cap == 1000
    ell, k, size = (int(x) for x in re.fullmatch(
        r"exponent pair l=(\d+), k=(\d+) needs a power of about (\d+) bits, past the 1000-bit bound",
        str(err.value)).groups())
    # the search stops at its first hit past the bound, here the answer (4868, 3071),
    # before building 3**3072: no pair with a smaller l nests
    assert (k, ell) == (4868, 3071) and _float_scan(*args, limit=ell - 1) is None
    assert size == (3 ** (1 + ell)).bit_length()
    # a rotation that never hits the window leaves no pair within the bound either
    monkeypatch.setattr(numeration, "_first_hit", lambda *hit: None)
    with pytest.raises(SearchCapExceededError, match="no exponent pair within the 1000-bit bound"):
        kronecker_witness(*args)


def test_kronecker_guard_message_keeps_the_int_to_str_limit():
    # a size of 5 001 digits is named by its bit length, so a library call under
    # the default limit gets the cap error, not a ValueError from str()
    import recset.numeration as numeration
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int-to-str limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(SearchCapExceededError) as err:
            kronecker_witness(2, 1, 10**5000, 1, 1, 1, 2, 3)
    finally:
        sys.set_int_max_str_digits(limit)
    assert err.value.cap == numeration.MAX_CERTIFICATE_BITS
    assert re.fullmatch(r"exponent pair l=1, k=1 needs a power of more than 2\^\d+ bits, past the "
                        r"8388608-bit bound", str(err.value))


@pytest.mark.parametrize("args, size", [
    ((2, 1, 10**400, 1, 1, 1, 2, 3), 10**400 + 2),
    # 3**(10**20 + 1) has floor((10**20 + 1) * log2(3)) + 1 bits
    ((2, 1, 1, 1, 10**20, 1, 2, 3), 158_496_250_072_115_618_147),
], ids=["a=10**400", "c=10**20"])
def test_kronecker_guard_builds_no_power(args, size):
    # a float bracket overflows on a = 10**400, and c = 10**20 makes q**(c+d*l)
    # too large to build; the size guard stops both at the pair (1, 1)
    tracemalloc.start()
    try:
        with pytest.raises(SearchCapExceededError) as err:
            kronecker_witness(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the size of the larger power of the pair (1, 1), to one part in 2**60
    got = int(re.fullmatch(r"exponent pair l=1, k=1 needs a power of about (\d+) bits, past the "
                           r"8388608-bit bound", str(err.value)).group(1))
    assert abs(got - size) < size >> 60
