"""Encoding, decoding, independence, and the exponent-pair search."""

from __future__ import annotations

import random

import pytest

from recset import (
    DigitWord,
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


def test_encode_basics():
    assert encode(6, 2).digits == (1, 1, 0)
    assert encode(0, 5).digits == ()
    assert encode(4, 2).digits == (1, 0, 0)
    assert encode(255, 16).digits == (15, 15)


def test_encode_is_canonical():
    for n in range(0, 2000, 7):
        for p in (2, 3, 10, 16):
            assert encode(n, p).canonical


def test_encode_errors():
    with pytest.raises(ValidationError):
        encode(5, 1)
    with pytest.raises(ValidationError):
        encode(-1, 2)


def test_decode_basics():
    assert decode([1, 0, 1], 2) == 5
    assert decode([0, 0, 7], 10) == 7
    assert decode([], 7) == 0
    assert decode(DigitWord(2, (1, 1, 0)), 2) == 6


def test_decode_errors():
    with pytest.raises(ValidationError):
        decode([2], 2)
    with pytest.raises(ValidationError):
        decode([1], 1)
    with pytest.raises(ValidationError):
        decode(DigitWord(3, (1,)), 2)


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
        assert (len(wm), wm.digits) < (len(wn), wn.digits)


def test_digit_word_validation():
    with pytest.raises(ValidationError):
        DigitWord(2, (0, 2))
    with pytest.raises(ValidationError):
        DigitWord(1, ())
    assert not DigitWord(2, (0, 1)).canonical
    assert DigitWord(2, ()).canonical


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


def test_independence_symmetry_and_witnesses():
    rng = random.Random(11)
    for _ in range(200):
        p, q = rng.randint(2, 64), rng.randint(2, 64)
        v1, v2 = mult_independent(p, q), mult_independent(q, p)
        assert v1.independent == v2.independent
        if not v1.independent:
            k, ell = v1.dependence_witness
            assert k >= 1 and ell >= 1 and p**k == q**ell


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


def test_kronecker_lower_bound_met_with_equality():
    # n*q**(c+d*l) <= m*p**(a+b*k) holds with equality at the answer,
    # 8 * 3**2 == 9 * 2**3 == 72, so the float bracket's lower end is exact and
    # any gate on it must admit an integer sitting right on the bound
    assert 8 * 3**2 == 9 * 2**3 and 10 * 2**3 <= 9 * 3**2
    w = kronecker_witness(9, 8, 1, 1, 1, 1, 2, 3)
    assert w == KroneckerWitness(k=2, ell=1)
    assert verify_kronecker(w, 9, 8, 1, 1, 1, 1, 2, 3)


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


def test_kronecker_cap_error_carries_cap():
    with pytest.raises(SearchCapExceededError) as err:
        kronecker_witness(2, 1, 1, 1, 1, 1, 2, 3, cap=1)  # minimal l is 2
    assert err.value.cap == 1
