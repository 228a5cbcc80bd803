import random
from fractions import Fraction

import pytest

from juna.chp import (
    MAX_FILE_BYTES,
    MAX_INT_DIGITS,
    ChpParams,
    chp_hash,
    chp_setup,
    compare_costs,
    parse_chp,
    serialize_chp,
    validate_chp,
)
from juna.errors import DomainError, ParseError
from juna.numtheory import ModContext
from prime_oracle import composite_safe_form


def test_setup_five_bits_is_forced():
    # the only 5-bit safe prime is 23; the smallest generators are 5 and 7
    params = chp_setup(5, random.Random(0))
    assert (params.p, params.q, params.alpha, params.beta) == (23, 11, 5, 7)
    assert validate_chp(params)


def test_setup_deterministic_given_seed():
    a = chp_setup(12, random.Random(3))
    b = chp_setup(12, random.Random(3))
    assert a == b
    assert validate_chp(a)


def test_generators_are_reduced_mod_p():
    # 28 is 5 mod 23: with both, w = (3, 4) and (4, 3) hashed alike
    for alpha, beta in ((5, 28), (28, 5), (0, 5), (1, 5), (22, 5), (5, 22)):
        with pytest.raises(DomainError, match=r"must lie in \(1, p - 1\)"):
            ChpParams(p=23, alpha=alpha, beta=beta)


def test_hash_examples():
    params = ChpParams(p=23, alpha=5, beta=7)
    assert chp_hash(params, 3, 4) == 21
    assert chp_hash(params, 0, 0) == 1
    assert chp_hash(params, 1, 0) == params.alpha


def test_hash_domain_checks():
    params = ChpParams(p=23, alpha=5, beta=7)
    with pytest.raises(DomainError):
        chp_hash(params, 11, 0)
    with pytest.raises(DomainError):
        chp_hash(params, 0, -1)


def test_hash_agrees_with_counting_context():
    params = chp_setup(10, random.Random(1))
    ctx = ModContext(params.p)
    rng = random.Random(2)
    for _ in range(100):
        w1 = rng.randrange(params.q)
        w2 = rng.randrange(params.q)
        independent = ctx.mod_mul(
            ctx.mod_pow(params.alpha, w1), ctx.mod_pow(params.beta, w2)
        )
        assert chp_hash(params, w1, w2) == independent


def test_hash_homomorphic_sanity():
    params = ChpParams(p=23, alpha=5, beta=7)
    for w1, w2, x1, x2 in ((1, 2, 3, 4), (0, 5, 2, 2), (4, 4, 1, 6)):
        lhs = chp_hash(params, w1 + x1, w2 + x2)
        rhs = chp_hash(params, w1, w2) * chp_hash(params, x1, x2) % params.p
        assert lhs == rhs


def test_compare_costs_published_values():
    table = compare_costs(80, 2048, 1024)
    assert table["chp_bit_ops"] == 8_589_934_592
    assert table["juna_bit_ops"] == 52_428_800
    table = compare_costs(80, 2046, 1024)
    assert table["juna_rate"] == Fraction(80, 2046)
    assert f"{float(table['juna_rate']) * 100:.2f}" == "3.91"
    assert f"{float(table['chp_rate']) * 100:.2f}" == "50.05"
    assert table["chp_birthday_inputs"] == 1 << 512
    assert table["juna_birthday_inputs"] == 1 << 40


def test_serialize_round_trip():
    params = ChpParams(p=23, alpha=5, beta=7)
    assert parse_chp(serialize_chp(params)) == params
    assert serialize_chp(params) == "CHP 2\np=23\nalpha=5\nbeta=7\n"
    with pytest.raises(ParseError, match="line 1: unknown header 'CHP 1'"):
        parse_chp("CHP 1\np=23\nq=11\nalpha=5\nbeta=7\n")
    with pytest.raises(ParseError, match="line 3: expected key 'alpha', got 'q'"):
        parse_chp(serialize_chp(params).replace("alpha", "q=11\nalpha"))
    with pytest.raises(ParseError, match="line 5: trailing content"):
        parse_chp(serialize_chp(params) + "q=11\n")
    with pytest.raises(ParseError, match="line 1: unknown header ''"):
        parse_chp("")
    with pytest.raises(ParseError):
        parse_chp(serialize_chp(params).replace("alpha=5", "alpha=\u00b2"))
    with pytest.raises(ParseError):
        parse_chp(serialize_chp(params).replace("alpha=5", "alpha=" + "9" * 5000))


def test_validate_tests_q_once_and_proves_p(tested):
    params = parse_chp(serialize_chp(chp_setup(64, random.Random(2))))
    tested.clear()
    assert validate_chp(params)
    assert tested == [params.q]
    q = composite_safe_form(64)
    assert not validate_chp(ChpParams(p=2 * q + 1, alpha=2, beta=3))
    # p = 19 is prime, but q = 9 is not
    assert not validate_chp(ChpParams(p=19, alpha=2, beta=3))


def test_parse_round_trip_at_the_digit_cap():
    top = 10**MAX_INT_DIGITS - 1
    params = ChpParams(p=top, alpha=top - 2, beta=top - 3)
    text = serialize_chp(params)
    assert len(text) <= MAX_FILE_BYTES
    assert parse_chp(text) == params
    with pytest.raises(ParseError, match=f"line 2: 'p' has over {MAX_INT_DIGITS} digits"):
        parse_chp(text.replace("p=", "p=1"))

