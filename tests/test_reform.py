import random

import pytest

from juna.attacks import birthday_search
from juna.bitcodec import BitString
from juna.compress import digest
from juna.errors import DomainError, LengthMismatchError, ZeroMessageError
from juna.keyfile import load, save
from juna.params import certify_collision, initialize
from juna.reform import ReformProfile, reform_digest


@pytest.fixture(scope="module")
def profile_32():
    # 32-bit underlying hash compressed to 16 bits; stands in for the
    # 128->64 and 160->80 shapes at test scale
    return ReformProfile(initialize(m=16, n=32, P=1201, nbar=32, rng=random.Random(5))[0])


def test_profile_width_contract(profile_32):
    assert profile_32.underlying_bits == 32
    assert profile_32.output_bits == 16
    d = reform_digest(profile_32, BitString.from_hex("deadbeef", 32))
    assert len(d.hex) == 4  # 16 bits -> 4 hex digits


def test_profile_rejects_wrong_shape(toy_pub):
    # toy params have m=12, n=8, which is not the half-width shape
    with pytest.raises(DomainError):
        ReformProfile(pub=toy_pub)


def test_reform_delegates_to_digest(profile_32):
    rng = random.Random(6)
    for _ in range(50):
        v = rng.getrandbits(32) or 1
        msg = BitString.from_int(v, 32)
        assert reform_digest(profile_32, msg) == digest(profile_32.pub, msg)


def test_reform_input_errors(profile_32):
    with pytest.raises(LengthMismatchError):
        reform_digest(profile_32, BitString.from_int(1, 16))
    with pytest.raises(ZeroMessageError):
        reform_digest(profile_32, BitString.from_int(0, 32))


def test_profile_file_round_trip(profile_32, tmp_path):
    path = tmp_path / "profile.pub"
    save(profile_32.pub, path)
    again = ReformProfile(load(path))
    assert again.pub == profile_32.pub


def test_full_width_profile_160_to_80():
    # the shape used to halve a 160-bit classical digest
    profile = ReformProfile(initialize(m=80, n=160, P=1 << 10, nbar=160, rng=random.Random(8))[0])
    assert profile.pub.m == 80
    assert profile.pub.n == 160
    assert (profile.pub.M - 1).bit_length() == 80
    d = reform_digest(profile, BitString.from_int((1 << 159) | 5, 160))
    assert len(d.hex) == 20


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_whole_digest_birthday_search_on_a_profile(seed):
    # the output of a 32 -> 16 bit profile is a 16-bit digest, so a search on
    # the whole digest meets a collision near 1.18 * 2**8 trials: a budget of
    # 2**12 finds one, and the private side certifies it without hashing
    pub, priv = initialize(m=16, n=32, P=1 << 16, nbar=32, rng=random.Random(7))
    profile = ReformProfile(pub)
    stats = birthday_search(profile.pub, mask_bits=profile.output_bits, budget=1 << 12, seed=seed)
    assert stats.collision is not None
    m1, m2 = stats.collision
    assert m1 != m2
    assert reform_digest(profile, m1) == reform_digest(profile, m2)
    assert certify_collision(priv, pub, m1, m2).holds
