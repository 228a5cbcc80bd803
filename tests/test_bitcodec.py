import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from juna.attacks import BirthdayStats, CollisionPair, SubsetSumInstance
from juna.bitcodec import (
    MAX_BITS,
    MIN_BITS,
    BitString,
    ShadowString,
    bit_long_shadow,
    bit_shadow,
    leading_bits,
    pad_to_length,
    recover_bits,
)
from juna.chp import ChpParams
from juna.compress import Digest
from juna.coprime import CoprimeSequence
from juna.errors import (
    DomainError,
    InconsistentEncodingError,
    JunaError,
    LengthMismatchError,
    OddLengthError,
    ParseError,
    ZeroMessageError,
)
from juna.keyfile import PrivateParams, PublicParams
from juna.params import CheckResult, CollisionCertificate, ValidationReport
from juna.reform import ReformProfile

from shadow_oracle import bit_shadow_streaming, dense_long_shadows, dense_shadows


def bs(text):
    return BitString.from_string(text)


def test_shadow_published_example():
    assert str(bit_shadow(bs("01010110"))) == "03020210"


def test_shadow_all_ones():
    assert str(bit_shadow(bs("11111111"))) == "11111111"


def test_shadow_single_leading_one_absorbs_tail():
    assert str(bit_shadow(bs("10000000"))) == "80000000"


def test_long_shadow_published_example():
    assert str(bit_long_shadow(bs("01010110"))) == "06020410"


def test_long_shadow_single_bit_keeps_plain_shadow():
    assert str(bit_long_shadow(bs("10000000"))) == "80000000"


def test_long_shadow_all_ones_doubles_everything():
    ls = bit_long_shadow(bs("11111111"))
    assert str(ls) == "22222222"
    assert sum(ls.values) == 16


def test_zero_message_rejected():
    with pytest.raises(ZeroMessageError):
        bit_shadow(bs("0000"))
    with pytest.raises(ZeroMessageError):
        bit_shadow_streaming(bs("0000"))


def test_odd_length_rejected():
    with pytest.raises(OddLengthError):
        BitString(0b101, 3)


def test_length_bounds():
    with pytest.raises(LengthMismatchError):
        BitString(0b10, 2)
    BitString.from_int(1, 4096)
    with pytest.raises(LengthMismatchError):
        BitString.from_int(1, 4098)


def test_from_hex_takes_leading_bits():
    assert str(BitString.from_hex("ff", 8)) == "11111111"
    assert str(BitString.from_hex("a3", 4)) == "1010"
    with pytest.raises(LengthMismatchError):
        BitString.from_hex("f", 8)


def test_from_int_round_trip():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.choice((4, 8, 16, 62))
        v = rng.getrandbits(n)
        assert int(str(BitString.from_int(v, n)), 2) == v


def test_shadow_sum_and_long_shadow_bounds():
    rng = random.Random(11)
    for n in (4, 8, 16, 64):
        for _ in range(500):
            v = rng.getrandbits(n) or 1
            msg = BitString.from_int(v, n)
            sh = bit_shadow(msg)
            assert sum(sh.values) == n
            ls = bit_long_shadow(msg)
            assert n <= sum(ls.values) <= 2 * n
            assert max(ls.values) <= n
            # doubling happens exactly where the opposite bit is set
            half = n // 2
            bits = str(msg)
            for i, v_ls in enumerate(ls.values):
                partner = bits[i + half] if i < half else bits[i - half]
                assert v_ls == sh.values[i] << (partner == "1")


def test_streaming_agrees_with_rules():
    # the single-pass form and the positional rules are the same function
    rng = random.Random(5)
    for n in (8, 16, 64, 256):
        for _ in range(10_000):
            v = rng.getrandbits(n) or 1
            msg = BitString.from_int(v, n)
            assert bit_shadow(msg) == bit_shadow_streaming(msg)


def test_injectivity_exhaustive():
    for n in (8, 10):
        shadows = set()
        longs = set()
        for v in range(1, 1 << n):
            msg = BitString.from_int(v, n)
            shadows.add(bit_shadow(msg).values)
            longs.add(bit_long_shadow(msg).values)
        assert len(shadows) == (1 << n) - 1
        assert len(longs) == (1 << n) - 1


def test_recover_round_trip_exhaustive():
    for v in range(1, 1 << 8):
        msg = BitString.from_int(v, 8)
        assert recover_bits(bit_long_shadow(msg)) == msg


def test_recover_examples():
    assert str(recover_bits(ShadowString.from_string("06020410"))) == "01010110"
    assert str(recover_bits(ShadowString.from_string("22222222"))) == "11111111"
    assert str(recover_bits(ShadowString.from_string("80000000"))) == "10000000"


def test_recover_rejects_fabricated_string():
    # mask 1100 encodes to 3100, so 1100 itself is not an encoding
    with pytest.raises(InconsistentEncodingError):
        recover_bits(ShadowString((1, 1, 0, 2)))


def test_shadow_string_invariants_enforced():
    with pytest.raises(DomainError):
        ShadowString((1, 1, 1, 0))  # sums to 3, below n = 4
    with pytest.raises(DomainError):
        ShadowString((0, 0, 0, 0))  # below the lower sum bound
    with pytest.raises(DomainError):
        ShadowString((5, 0, 0, 0))  # entry above n
    with pytest.raises(DomainError):
        ShadowString((4, 4, 1, 0))  # sums to 9, above 2n
    with pytest.raises(ParseError):
        ShadowString.from_string("x")


def test_pad_to_length():
    padded = pad_to_length("101", 8)
    assert str(padded) == "10110000"
    with pytest.raises(LengthMismatchError):
        pad_to_length("10101010", 8)
    # padding always yields a nonzero message
    assert pad_to_length("0", 6).value


def test_streaming_agrees_on_edge_messages():
    for n in (256, 4096):
        full = (1 << n) - 1
        for v in (1, 1 << (n - 1), 1 << (n // 2), full, full - 1, full >> 1,
                  int("01" * (n // 2), 2), int("0011" * (n // 4), 2)):
            msg = BitString.from_int(v, n)
            assert bit_shadow(msg) == bit_shadow_streaming(msg)
            assert recover_bits(bit_long_shadow(msg)) == msg


@pytest.mark.parametrize("text", ["0xff", "f_f", "+f", "-f", "", "  ", "f f", "٣f"])
def test_hex_accepts_bare_digits_only(text):
    with pytest.raises(ParseError):
        BitString.from_hex(text, 4)
    with pytest.raises(ParseError):
        leading_bits(text)


def test_leading_bits_of_hex_and_bytes():
    assert leading_bits(" A3\n") == (0b10100011, 8)
    assert leading_bits("a3", 3) == (0b101, 3)
    assert leading_bits(b"\x56\xff", 8) == (0b01010110, 8)
    assert leading_bits(b"\x01") == (1, 8)
    for data, take in ((b"", None), (b"\x01", 9), (b"\x01", 0), ("f", -4)):
        with pytest.raises(LengthMismatchError):
            leading_bits(data, take)


def test_bit_string_rejects_values_that_do_not_fit():
    with pytest.raises(DomainError):
        BitString.from_int(16, 4)
    with pytest.raises(DomainError):
        BitString(-1, 4)


def test_shadow_string_parses_both_renderings():
    wide = ShadowString((10,) + (0,) * 9)
    assert str(wide) == "10 0 0 0 0 0 0 0 0 0"
    assert ShadowString.from_string(str(wide)) == wide
    for text in ("100 0 0 0", "1  1 1 1", "1,1,1,1", "١111"):
        with pytest.raises(ParseError):
            ShadowString.from_string(text)


_FUZZ = settings(max_examples=300, deadline=None)
_BIT_TEXT = st.one_of(st.text(), st.text(alphabet="01", max_size=MAX_BITS + 2))
_HEX_TEXT = st.one_of(st.text(), st.text(alphabet="0123456789abcdefABCDEF x_+-", max_size=40))


@_FUZZ
@given(_BIT_TEXT)
def test_fuzz_from_string(text):
    try:
        msg = BitString.from_string(text)
    except JunaError:
        return
    assert str(msg) == text


# text near what int(text, 2) takes: non-ASCII digits, whitespace, _, + and a 0b prefix
_NEAR_BIT_TEXT = st.one_of(
    st.lists(st.sampled_from(["0", "1", "\u0661", "\uff10", "\uff11", " ", "\t", "\n",
                              "_", "+", "-", "0b", "\x00", "\xff"]), max_size=40).map("".join),
    st.builds(lambda pre, bits, post: pre + bits + post,
              st.sampled_from(["", "0b", "+", " ", "_", "\u0661"]),
              st.text(alphabet="01", max_size=MAX_BITS + 2),
              st.sampled_from(["", "_", " ", "\n", "\uff10", "2"])),
)


def _outcome(parse, text):
    try:
        msg = parse(text)
    except JunaError as exc:
        return type(exc), str(exc)
    return msg.value, msg.n


def _strip_rule(text):
    if not text or text.strip("01"):
        raise ParseError(f"not a bit string: {text!r}")
    return BitString(int(text, 2), len(text))


@_FUZZ
@given(_NEAR_BIT_TEXT)
def test_from_string_accepts_what_the_strip_rule_accepts(text):
    assert _outcome(BitString.from_string, text) == _outcome(_strip_rule, text)


@_FUZZ
@given(_HEX_TEXT, st.integers(-8, 200))
def test_fuzz_from_hex(text, n):
    try:
        msg = BitString.from_hex(text, n)
    except JunaError:
        return
    digits = text.strip()
    assert set(digits) <= set("0123456789abcdefABCDEF")
    assert str(msg) == "".join(format(int(d, 16), "04b") for d in digits)[:n]


@_FUZZ
@given(st.binary(max_size=MAX_BITS // 8 + 2), st.integers(-8, MAX_BITS + 16))
def test_fuzz_from_bytes(data, n):
    try:
        msg = BitString(*leading_bits(data, n))
    except JunaError:
        return
    assert str(msg) == "".join(format(b, "08b") for b in data)[:n]


@_FUZZ
@given(st.one_of(st.text(), st.text(alphabet="0123456789 ", max_size=30)))
def test_fuzz_shadow_string_from_string(text):
    try:
        sh = ShadowString.from_string(text)
    except JunaError:
        return
    assert ShadowString.from_string(str(sh)) == sh


_MESSAGES = st.integers(MIN_BITS // 2, MAX_BITS // 2).flatmap(
    lambda half: st.tuples(st.integers(1, (1 << 2 * half) - 1), st.just(2 * half))
)


@_FUZZ
@given(_MESSAGES)
def test_fuzz_codec_round_trip(case):
    v, n = case
    msg = BitString.from_int(v, n)
    sh = bit_shadow(msg)
    ls = bit_long_shadow(msg)
    assert sum(sh.values) == n
    assert n <= sum(ls.values) <= 2 * n
    assert sh == bit_shadow_streaming(msg)
    assert recover_bits(ls) == msg


def check_codec(msg):
    """Both encoders against the dense oracle, and the grouped form's own
    invariants: one position per 1-bit, and a ShadowString rebuilt from the
    dense entries equal to the codec's, hash included."""
    bits = str(msg)
    ones = [i for i, b in enumerate(bits) if b == "1"]
    for encode, oracle in ((bit_shadow, dense_shadows), (bit_long_shadow, dense_long_shadows)):
        sh = encode(msg)
        assert sh.values == tuple(oracle(bits))
        assert len(sh) == sh.n == msg.n
        assert sorted(i for ps in sh.groups.values() for i in ps) == ones
        assert all(ps == sorted(ps) for ps in sh.groups.values())
        rebuilt = ShadowString(sh.values)
        assert rebuilt == sh and hash(rebuilt) == hash(sh)
        assert rebuilt.groups == sh.groups


def test_codec_matches_dense_oracle_exhaustive():
    for n in range(MIN_BITS, 13, 2):
        for v in range(1, 1 << n):
            check_codec(BitString.from_int(v, n))


@_FUZZ
@given(_MESSAGES)
def test_fuzz_codec_matches_dense_oracle(case):
    check_codec(BitString.from_int(*case))


def test_one_bit_message_is_one_group():
    n = MAX_BITS
    for i in (0, 1, n // 2 - 1, n // 2, n - 1):
        msg = BitString.from_int(1 << (n - 1 - i), n)
        assert bit_shadow(msg).groups == {n: [i]}
        assert bit_long_shadow(msg).groups == {n: [i]}


def test_shadow_string_is_immutable():
    for sh in (bit_long_shadow(bs("01010110")), ShadowString((0, 3, 0, 2, 0, 2, 1, 0))):
        before = sh.values
        for name in ("n", "groups", "values", "other"):
            with pytest.raises(AttributeError):
                setattr(sh, name, 1)
        with pytest.raises(AttributeError):
            del sh.n
        assert sh.values == before
        assert len(sh) == 8
    # every record is a tuple of its fields, read-only; only PublicParams
    # takes new attributes, for its context() cache
    pub = PublicParams(m=4, n=8, M=11, C=(2, 3, 4, 5, 6, 7, 8, 9))
    A = CoprimeSequence((2, 3, 5, 7, 11, 13, 17, 19))
    records = [
        BitString(5, 8), Digest(5, 8), pub, A,
        PrivateParams(m=4, n=8, M=11, P=19, nbar=8, W=2, delta=3, A=A, ell=tuple(range(5, 21, 2))),
        CheckResult("x", True), ValidationReport((CheckResult("x", True),)),
        CollisionCertificate(k=1, kprime=1, kappa=None, psi=None, lhs=1, rhs=1, holds=True),
        SubsetSumInstance(c=(1, 2), s=3),
        BirthdayStats(trials=1, collision=None, threshold=1.0, seed=1, mask_bits=1),
        CollisionPair(msg1=BitString(5, 8), msg2=BitString(6, 8), digest_value=1, ydiff=(0,) * 8,
                      product_is_one=True),
        ChpParams(p=23, alpha=5, beta=7), ReformProfile(pub),
    ]
    for record in records:
        fields = getattr(record, "_fields", ("elements", "n"))
        for name in fields + (() if record is pub else ("other",)):
            with pytest.raises(AttributeError):
                setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, fields[0])
    assert repr(BitString(5, 8)) == "BitString(value=5, n=8)"
    assert len(BitString(5, 8)) == 8
