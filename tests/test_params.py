import builtins
import os
import random
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from juna import coprime, keyfile, params
from juna.bitcodec import BitString
from juna.compress import digest
from juna.errors import (
    DomainError,
    InconsistentParamsError,
    JunaError,
    ParseError,
    SearchExhaustedError,
)
from juna.keyfile import (
    MAX_FILE_BYTES,
    MAX_INT_DIGITS,
    MAX_M,
    MAX_N,
    PRIV_HEADER,
    PUB_HEADER,
    PrivateParams,
    PublicParams,
    bundled_public_params,
    load,
    parse,
    serialize,
)
from juna.numtheory import ModContext, ceil_lg, is_probable_prime
from juna.params import (
    capacity_report,
    certify_collision,
    initialize,
    omega_magnitudes,
    sample_omega,
    validate,
)

from params_oracle import initial_values_one_at_a_time, parse_line_by_line
from prime_oracle import composite_safe_form

REFERENCE_M = 636743755563737235857207


def sieve_safe_primes_12bit():
    limit = 1 << 12
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, 65):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    out = set()
    for M in range((1 << 11) + 1, limit + 1):
        if flags[M] and (M - 1) % 2 == 0 and flags[(M - 1) // 2]:
            out.add(M)
    return out


def test_find_modulus_12bit_against_sieve():
    safe = sieve_safe_primes_12bit()
    assert 2879 in safe  # 2879 = 2*1439 + 1
    for seed in range(5):
        pub, _ = initialize(m=12, n=8, P=1201, nbar=8, rng=random.Random(seed))
        assert pub.M in safe
        assert ceil_lg(pub.M) == 12


def test_find_modulus_zero_budget():
    with pytest.raises(SearchExhaustedError):
        initialize(m=12, n=8, P=1201, nbar=8, rng=random.Random(0), budget=0)
    # a negative budget is refused before the basis draws anything
    rng = random.Random(0)
    with pytest.raises(DomainError, match="budget must be at least 0"):
        initialize(m=12, n=8, P=1201, nbar=8, rng=rng, budget=-1)
    assert rng.getstate() == random.Random(0).getstate()


def test_sample_omega_shape():
    omega = sample_omega(256, random.Random(0))
    assert len(omega) == 256
    assert tuple(abs(x) for x in omega) == tuple(omega_magnitudes(256))
    assert omega_magnitudes(256)[-1] == 515


def test_sample_omega_sign_frequency():
    # each magnitude's sign should be an unbiased coin
    counts = [0] * 16
    draws = 10_000
    rng = random.Random(99)
    for _ in range(draws):
        omega = sample_omega(16, rng)
        for i, x in enumerate(omega):
            if x > 0:
                counts[i] += 1
    for c in counts:
        assert abs(c / draws - 0.5) < 0.05


def test_check_capacity_published_cases():
    assert capacity_report(80, 80, 80, 1 << 10)["main_ok"]
    assert capacity_report(232, 232, 1 << 32, 1 << 32)["main_ok"]
    assert not capacity_report(232, 8, 8, 1 << 10)["main_ok"]
    rep = capacity_report(80, 80, 80, 1 << 10)
    assert rep["main_ok"] and rep["main_lg"] > 80


def test_initialize_consistency_and_validate(toy_pub, toy_priv):
    report = validate(toy_pub, toy_priv)
    assert report.passed, report.lines()
    # recompute C_i from the private side
    ctx = toy_pub.context()
    w_inv = ctx.mod_inverse(toy_priv.W)
    for a, l, c in zip(toy_priv.A, toy_priv.ell, toy_pub.C):
        wl = ctx.mod_pow(toy_priv.W if l >= 0 else w_inv, abs(l))
        assert ctx.mod_pow(ctx.mod_mul(a, wl), toy_priv.delta) == c


def test_initialize_deterministic():
    a = initialize(m=12, n=8, P=1201, nbar=8, rng=random.Random(7))
    b = initialize(m=12, n=8, P=1201, nbar=8, rng=random.Random(7))
    assert a[0] == b[0]
    assert serialize(a[1]) == serialize(b[1])


def test_initialize_rejects_bad_inputs():
    rng = random.Random(0)
    with pytest.raises(DomainError):
        initialize(m=12, n=7, P=1201, nbar=8, rng=rng)  # odd n
    with pytest.raises(DomainError):
        initialize(m=11, n=8, P=1201, nbar=8, rng=rng)  # m below test floor
    with pytest.raises(DomainError):
        initialize(m=12, n=8, P=1201, nbar=4, rng=rng)  # nbar < n
    with pytest.raises(DomainError):
        initialize(m=12, n=8, P=1201, nbar=8, rng=rng, production=True)
    with pytest.raises(DomainError):
        initialize(m=232, n=232, P=3, nbar=232, rng=rng)  # capacity fails


def test_production_floor_accepts_80_96():
    pub, priv = initialize(
        m=80, n=96, P=1 << 12, nbar=96, rng=random.Random(2), production=True
    )
    assert validate(pub, priv).passed


def test_validate_flags_tampering(toy_pub, toy_priv):
    tampered = toy_pub._replace(C=(toy_pub.C[1],) + toy_pub.C[1:])
    report = validate(tampered, None)
    assert not report.passed
    failing = {c.name for c in report.checks if not c.ok and not c.informative}
    assert "initial_values_distinct" in failing

    bad_priv = toy_priv._replace(ell=(toy_priv.ell[1],) + toy_priv.ell[1:])
    report = validate(toy_pub, bad_priv)
    assert not report.passed
    failing = {c.name for c in report.checks if not c.ok and not c.informative}
    assert "lever_injective" in failing


def test_reference_params_fixture(reference_pub):
    pub = reference_pub
    assert pub.m == 80 and pub.n == 256
    assert pub.M == REFERENCE_M
    assert pub.C[0] == 394375509141369037703184
    assert is_probable_prime(pub.M)
    assert ceil_lg(pub.M) == 80
    assert len(set(pub.C)) == 256
    assert all(1 < c < pub.M for c in pub.C)
    report = validate(pub)
    assert report.passed, report.lines()


def test_serialize_round_trip(toy_pub, toy_priv):
    assert parse(serialize(toy_pub)) == toy_pub
    back = parse(serialize(toy_priv))
    assert isinstance(back, PrivateParams)
    assert back == toy_priv
    assert serialize(back) == serialize(toy_priv)


def test_validate_report_same_for_generated_and_parsed_private_side(toy_pub, toy_priv):
    # the audit reads nothing that a private file does not carry
    lines = validate(toy_pub, toy_priv).lines()
    assert validate(toy_pub, parse(serialize(toy_priv))).lines() == lines
    assert validate(parse(serialize(toy_pub)), parse(serialize(toy_priv))).lines() == lines


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("NOT-A-HEADER\n")
    good = serialize(PublicParams(m=7, n=4, M=101, C=(2, 3, 5, 7)))
    # drop one C line: the count no longer matches the header
    with pytest.raises(ParseError):
        parse("\n".join(good.split("\n")[:-2]) + "\n")
    with pytest.raises(ParseError):
        parse(good.replace("M=101", "Z=101"))
    with pytest.raises(ParseError):
        parse(good + "extra\n")
    with pytest.raises(ParseError):
        parse(good.replace("m=7", "m=seven"))


def test_parse_rejects_oversized_and_non_ascii_integers():
    # 5000 digits pass Python's own 4300-digit conversion limit
    with pytest.raises(ParseError) as err:
        parse(f"{PUB_HEADER}\nm=80\nn=4\nM={'9' * 5000}\n")
    assert err.value.line == 4
    with pytest.raises(ParseError):
        parse(f"{PUB_HEADER}\nm=80\nn=4\nM=\u00b2\n")  # superscript two


def test_public_params_reject_modulus_wider_than_m():
    with pytest.raises(DomainError):
        PublicParams(m=12, n=4, M=2**61 - 1, C=(2, 3, 5, 7))
    with pytest.raises(ParseError):
        parse(serialize(PublicParams(m=7, n=4, M=101, C=(2, 3, 5, 7))).replace("m=7", "m=6"))


@pytest.mark.parametrize(
    "m, n, M, message",
    [
        (12, 5, 2447, "n = 5 is not an even length in range"),
        (12, 2, 2447, "n = 2 is not an even length in range"),
        (12, MAX_N + 2, 2447, f"n = {MAX_N + 2} is not an even length in range"),
        (MAX_M + 1, 8, 2447, f"m = {MAX_M + 1} exceeds {MAX_M}"),
        (12, 8, 2, "modulus too small"),
        (11, 8, 2447, "modulus needs 12 bits, m = 11"),
    ],
)
def test_private_file_meets_the_public_header_checks(m, n, M, message):
    head = f"m={m}\nn={n}\nM={M}\n"
    pub = f"{PUB_HEADER}\n{head}" + "".join(f"C={c}\n" for c in range(2, n + 2))
    priv = (f"{PRIV_HEADER}\n{head}P=1024\nnbar={n}\nW=2\ndelta=3\n"
            + "".join(f"A={a}\n" for a in range(2, n + 2))
            + "".join(f"L={2 * i + 5}\n" for i in range(n)))
    for text in (pub, priv):
        for parser in (parse, parse_line_by_line):
            with pytest.raises(ParseError) as err:
                parser(text)
            assert str(err.value) == message, (text.partition("\n")[0], parser)
            assert err.value.line is None


def test_parse_error_carries_line_number():
    text = f"{PUB_HEADER}\nm=7\nn=four\n"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == 3


def test_certify_identical_messages(toy_pub, toy_priv):
    msg = BitString.from_string("01010110")
    cert = certify_collision(toy_priv, toy_pub, msg, msg)
    assert cert.k == cert.kprime
    assert cert.lhs == cert.rhs == 1
    assert cert.holds
    assert cert.kappa is None


def test_certify_matches_digest_equality_exhaustively(toy_pub, toy_priv):
    # the certificate must agree with digest comparison on every pair of
    # nonzero 8-bit messages
    msgs = [BitString.from_int(v, 8) for v in range(1, 256)]
    digests = [digest(toy_pub, m).value for m in msgs]
    bound = 4 * toy_pub.n * (2 * toy_priv.nbar + 3)
    agree = 0
    for i in range(255):
        for j in range(i + 1, 255):
            cert = certify_collision(toy_priv, toy_pub, msgs[i], msgs[j])
            assert cert.holds == (digests[i] == digests[j])
            assert abs(cert.k - cert.kprime) <= bound
            agree += 1
    assert agree == 255 * 254 // 2


def test_certificate_root_on_real_collisions(toy_pub, toy_priv):
    # on a genuine collision the certificate's odd-part root must equal
    # the blinder raised to the recorded power of two
    from juna.attacks import brute_force_collision

    ctx = toy_pub.context()
    pairs = brute_force_collision(toy_pub)
    assert pairs
    for pair in pairs:
        cert = certify_collision(toy_priv, toy_pub, pair.msg1, pair.msg2)
        assert cert.holds
        if cert.psi is not None:
            assert cert.psi == ctx.mod_pow(toy_priv.W, 1 << cert.kappa)


def test_certify_rejects_inconsistent_private_side(toy_pub, toy_priv):
    other = toy_priv._replace(W=toy_priv.W + 1)
    msg = BitString.from_string("01010110")
    with pytest.raises(InconsistentParamsError):
        certify_collision(other, toy_pub, msg, msg)


def test_validate_reports_cofactor_informatively():
    pub = bundled_public_params()
    info = {c.name: c for c in validate(pub).checks if c.informative}
    assert "cofactor_prime" in info
    assert info["cofactor_prime"].ok  # the published modulus is a safe prime


# (M-1)/2 = 1099511627791 * 1099511628401, two primes just above 2**40.
_NON_SAFE_M = 2417851640636633232984383


@pytest.mark.parametrize("M, nbar, ok, detail", [
    pytest.param(69143, 4, True, "no prime factor of (M-1)/2 up to 176", id="pass"),
    pytest.param(69143, 8, False, "(M-1)/2 is composite and at most 304^2",
                 id="below-bound-squared"),
    pytest.param(65537, 4, False, "(M-1)/2 divisible by 2", id="even"),
    pytest.param(120067, 4, False, "(M-1)/2 divisible by 3", id="odd-factor"),
    pytest.param(_NON_SAFE_M, 8, True, "no prime factor of (M-1)/2 up to 304", id="pass-wide"),
    pytest.param(_NON_SAFE_M, 1 << 32, False, "undetermined: no factor of (M-1)/2 up to the "
                 "search limit 16777216, bound 137438953520", id="undetermined"),
])
def test_cofactor_structure_outcomes(M, nbar, ok, detail):
    # 69143 = 2*181*191 + 1 and 120067 = 6*20011 + 1 are primes, not safe;
    # the bound is validate's 4n(2*nbar + 3) at n = 4
    assert params._cofactor_structure((M - 1) // 2, 16 * (2 * nbar + 3)) == (ok, detail)


def test_context_tests_modulus_and_cofactor_once(tested, reference_pub):
    M = reference_pub.M
    ctx = PublicParams(m=80, n=256, M=M, C=reference_pub.C).context()
    assert tested == [(M - 1) // 2]  # M itself is proven from (M-1)/2
    assert ctx.q == (M - 1) // 2
    tested.clear()
    assert PublicParams(m=17, n=4, M=69143, C=(2, 3, 5, 7)).context().q is None
    assert tested == [34571, 69143]
    with pytest.raises(DomainError):
        PublicParams(m=17, n=4, M=69145, C=(2, 3, 5, 7)).context()


def test_validate_audit_tests_each_prime_once(tested, toy_pub, toy_priv):
    pub, priv = parse(serialize(toy_pub)), parse(serialize(toy_priv))
    tested.clear()
    assert validate(pub, priv).passed
    assert tested == [(pub.M - 1) // 2]


def test_validate_fails_composite_safe_form(tested):
    q = composite_safe_form(232)
    M = 2 * q + 1
    tested.clear()
    lines = validate(PublicParams(m=232, n=4, M=M, C=(2, 3, 5, 7))).lines()
    assert tested == [q]  # the failed proof decides M; q is not tested again
    assert f"FAIL modulus_prime (M = {M})" in lines
    assert f"INFO cofactor_prime ok=true ((M-1)/2 = {q})" in lines


def test_validate_tests_composite_cofactor_once(tested):
    # 69145 = 5 * 13829 and (69145 - 1)/2 = 34572 is even
    lines = validate(PublicParams(m=17, n=4, M=69145, C=(2, 3, 5, 7))).lines()
    assert tested == [34572, 69145]
    assert "FAIL modulus_prime (M = 69145)" in lines
    assert "INFO cofactor_prime ok=false ((M-1)/2 = 34572)" in lines
    tested.clear()
    # an even M fails before its cofactor is looked at, so validate tests it
    lines = validate(PublicParams(m=17, n=4, M=69142, C=(2, 3, 5, 7))).lines()
    assert tested == [34570] and "INFO cofactor_prime ok=false ((M-1)/2 = 34570)" in lines


def test_validate_report_lines_for_reference(reference_pub):
    M, q = REFERENCE_M, (REFERENCE_M - 1) // 2
    assert validate(reference_pub).lines() == [
        f"PASS modulus_prime (M = {M})",
        "PASS modulus_bit_length (ceil(lg M) = 80, m = 80)",
        f"INFO cofactor_prime ok=true ((M-1)/2 = {q})",
        "PASS cofactor_structure ((M-1)/2 is prime)",
        "PASS initial_values_range",
        "PASS initial_values_distinct",
    ]


def test_load_rejects_non_ascii_and_oversized_files(tmp_path):
    path = tmp_path / "p.pub"
    path.write_bytes(f"{PUB_HEADER}\nm=\u00b2\n".encode())
    with pytest.raises(ParseError, match="non-ASCII byte at offset 13"):
        load(path)
    path.write_bytes(b"\n" * MAX_FILE_BYTES)
    with pytest.raises(ParseError, match="unknown header"):
        load(path)  # at the cap the file is read and parsed
    path.write_bytes(b"\n" * (MAX_FILE_BYTES + 1))
    with pytest.raises(ParseError, match=f"over {MAX_FILE_BYTES} bytes"):
        load(path)


def test_load_reads_one_byte_past_the_cap_at_most(tmp_path, monkeypatch):
    path = tmp_path / "big.pub"
    path.write_bytes(b"\n" * (2 * MAX_FILE_BYTES))
    got = []

    class Counting:
        def __init__(self, *args):
            self.fh = builtins.open(*args)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def read(self, size=-1):
            data = self.fh.read(size)
            got.append(len(data))
            return data

    monkeypatch.setattr(keyfile, "open", Counting, raising=False)
    with pytest.raises(ParseError, match="over"):
        load(path)
    assert got == [MAX_FILE_BYTES + 1]


def test_load_asks_for_the_file_size_plus_one_byte(keygen_4096, monkeypatch):
    _, pub, _, _ = keygen_4096
    asked = []

    class Counting:
        def __init__(self, *args):
            self.fh = builtins.open(*args)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def read(self, size=-1):
            asked.append(size)
            return self.fh.read(size)

    monkeypatch.setattr(keyfile, "open", Counting, raising=False)
    loaded = load(pub)
    monkeypatch.undo()
    assert loaded == load(pub)
    assert 0 < sum(asked) <= os.path.getsize(pub) + 1


def test_load_of_a_fifo_reads_on_past_its_zero_size(tmp_path):
    # a pipe's size reads 0, so only the second read brings its bytes
    data = (Path(params.__file__).parent / "data" / "m80_n256.pub").read_bytes()
    fifo = tmp_path / "p.pub"
    os.mkfifo(fifo)

    def write():
        with open(fifo, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        assert load(fifo) == parse(data)
    finally:
        writer.join(10)


def test_file_cap_holds_the_widest_private_file():
    # every field at the full modulus width and every L negative
    big = 10 ** MAX_INT_DIGITS - 1
    lines = [PRIV_HEADER] + [f"{k}={big}" for k in ("m", "n", "M", "P", "nbar", "W", "delta")]
    lines += [f"A={big}"] * MAX_N + [f"L=-{big}"] * MAX_N
    assert len("\n".join(lines) + "\n") <= MAX_FILE_BYTES


def _seed_files():
    pub, priv = initialize(m=12, n=8, P=1201, nbar=8, rng=random.Random(1))
    return (serialize(pub), serialize(priv))


_PARAM_FILES = _seed_files()


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.text(),
        st.tuples(st.sampled_from(_PARAM_FILES), st.integers(0, 400),
                  st.integers(0, 12), st.text(alphabet="0123456789=-\nACLMPWnmx ", max_size=12))
        .map(lambda t: t[0][: t[1]] + t[3] + t[0][t[1] + t[2]:]),
    )
)
def test_fuzz_parse(text):
    try:
        obj = parse(text)
    except JunaError:
        return
    assert parse(serialize(obj)) == obj


_BYTE_FILES = [f.encode() for f in _PARAM_FILES] + [
    (Path(params.__file__).parent / "data" / "m80_n256.pub").read_bytes()]


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.binary(),
        st.tuples(st.sampled_from(_BYTE_FILES), st.integers(0, len(_BYTE_FILES[-1])),
                  st.integers(128, 255))
        .map(lambda t: t[0][: t[1]] + bytes([t[2]]) + t[0][t[1]:]),
    )
)
def test_fuzz_parse_bytes(data):
    try:
        obj = parse(data)
    except JunaError:
        return
    assert parse(serialize(obj)) == obj


@pytest.mark.parametrize("data, offset", [
    (b"\xff\n", 0),
    (b"JUNA-PUB 1\nm=\xff\n", 13),
    (b"JUNA-PUB 1\nm=\xc3\xa9\n", 13),  # UTF-8 text is still not ASCII
])
def test_parse_of_bytes_names_the_first_non_ascii_byte(data, offset):
    with pytest.raises(ParseError) as err:
        parse(data)
    assert str(err.value) == f"non-ASCII byte at offset {offset}"


def test_reference_file_with_missing_value_line():
    from importlib.resources import files

    text = files("juna.data").joinpath("m80_n256.pub").read_text(encoding="ascii")
    lines = text.strip().split("\n")
    assert len(lines) == 4 + 256
    with pytest.raises(ParseError):
        parse("\n".join(lines[:-1]) + "\n")  # 255 value lines under an n=256 header


def _parse_outcome(parser, text):
    """The parsed object, or the message and line of the ParseError."""
    try:
        return parser(text)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line)


def _wide_files():
    """A public and a private file whose values are up to 70 digits wide."""
    rng = random.Random(232)
    M = rng.getrandbits(231) | 1 << 231 | 1
    big = [rng.randrange(2, M) for _ in range(6)]
    pub = PublicParams(m=232, n=4, M=M, C=tuple(big[:4]))
    priv = PrivateParams(m=232, n=4, M=M, P=1 << 32, nbar=4, W=big[4], delta=big[5],
                         A=coprime.CoprimeSequence((2, 3, 5, 7)),
                         ell=(5, -7, 9, -11))
    return serialize(pub), serialize(priv)


_ALL_FILES = _PARAM_FILES + _wide_files()
_LINE = st.tuples(
    st.sampled_from(["m", "n", "M", "P", "nbar", "W", "delta", "C", "A", "L", "", "x"]),
    st.sampled_from(["=", "", "==", "=-", "=+", "= "]),
    st.text(alphabet="0123456789", max_size=75),
    st.sampled_from(["", "\u00b2", "\u0663", "-", " ", "\r", "_0"]),
).map("".join)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.tuples(st.sampled_from(_ALL_FILES), st.integers(0, 600), st.integers(0, 12),
                  st.text(alphabet="0123456789=-\nACLMPWnmx \u00b2\u0663", max_size=12))
        .map(lambda t: t[0][: t[1]] + t[3] + t[0][t[1] + t[2]:]),
        st.tuples(st.sampled_from(_ALL_FILES), st.integers(0, 16), st.integers(0, 2),
                  st.lists(_LINE, max_size=3))
        .map(lambda t: "\n".join(t[0].split("\n")[: t[1]] + t[3]
                                 + t[0].split("\n")[t[1] + t[2]:])),
    )
)
def test_fuzz_parse_matches_line_by_line_reader(text):
    assert _parse_outcome(parse, text) == _parse_outcome(parse_line_by_line, text)


@pytest.mark.parametrize("lineno, bad, message", [
    (5, "C=12x", "bad integer '12x' for key 'C'"),
    (132, "C=", "bad integer '' for key 'C'"),
    (260, "A=5", "expected key 'C', got 'A'"),
    (132, "C=" + "1" * 71, "'C' has over 70 digits"),
    (5, "C=-5", "bad integer '-5' for key 'C'"),
    (260, "C=1\u00b2", "bad integer '1\u00b2' for key 'C'"),
    (200, "C=\u0663", "bad integer '\u0663' for key 'C'"),  # an Arabic-Indic digit three
    (261, "C=5", "trailing content 'C=5'"),
])
def test_parse_error_names_the_bad_value_line(reference_pub, lineno, bad, message):
    lines = serialize(reference_pub).split("\n")
    lines[lineno - 1 : lineno] = [bad] if lineno <= 260 else [bad, ""]
    text = "\n".join(lines)
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (str(err.value), err.value.line) == (f"line {lineno}: {message}", lineno)
    assert _parse_outcome(parse_line_by_line, text) == ("ParseError", str(err.value), lineno)


@pytest.fixture(scope="module")
def files_4096(keygen_4096):
    """The text of the seed-4096 public and private files, 232/4096."""
    _, pub, priv, _ = keygen_4096
    return pub.read_text(encoding="ascii"), priv.read_text(encoding="ascii")


def test_full_size_files_parse_as_line_by_line(files_4096):
    for text in files_4096:
        obj = parse(text)
        assert obj == parse_line_by_line(text)
        assert serialize(obj) == text


# Values int() takes, or that look like one value, but that no value line
# may hold; {k} is the line's key.
_NOT_A_VALUE = ["+5", " 5", "5 ", "5_000", "5\r", "\u0663", "--5", "-", "", "0" * 66 + "12345",
                "5{k}=6"]


@pytest.mark.parametrize("key", ["C", "A", "L"])
@pytest.mark.parametrize("bad", _NOT_A_VALUE)
def test_full_size_bad_value_matches_line_by_line(files_4096, key, bad):
    # first, middle and last line of each block, so that the whole-block
    # check is the one rejecting it
    lines = files_4096[key != "C"].split("\n")
    first = {"C": 4, "A": 8, "L": 8 + 4096}[key]
    for i in (first, first + 2048, first + 4095):
        assert lines[i].startswith(key + "=")
        text = "\n".join(lines[:i] + [f"{key}={bad.format(k=key)}"] + lines[i + 1 :])
        outcome = _parse_outcome(parse, text)
        assert outcome[0] == "ParseError" and outcome[2] == i + 1
        assert outcome == _parse_outcome(parse_line_by_line, text)


@pytest.mark.parametrize("key", ["C", "A", "L"])
@pytest.mark.parametrize("bad", _NOT_A_VALUE)
def test_full_size_bad_value_file_matches_line_by_line(keygen_4096, tmp_path, key, bad):
    # the same cases read from a file by load, so the bytes as read are parsed
    _, pub, priv, _ = keygen_4096
    lines = (pub if key == "C" else priv).read_text(encoding="ascii").split("\n")
    first = {"C": 4, "A": 8, "L": 8 + 4096}[key]
    path = tmp_path / "bad"
    for i in (first, first + 2048, first + 4095):
        text = "\n".join(lines[:i] + [f"{key}={bad.format(k=key)}"] + lines[i + 1 :])
        path.write_bytes(text.encode())
        outcome = _parse_outcome(lambda _: load(path), None)
        if bad.isascii():
            assert outcome[0] == "ParseError" and outcome[2] == i + 1
            assert outcome == _parse_outcome(parse_line_by_line, text)
        else:  # refused as read, before any parse
            assert outcome == ("ParseError", f"non-ASCII byte at offset {text.index(bad)}", None)


def test_load_of_full_size_public_file_peaks_below_four_file_sizes(keygen_4096):
    # the read buffer, the value pieces and the ints; a decoded or joined
    # copy of the file on top of those would cross the bound
    _, pub, _, _ = keygen_4096
    load(pub)
    tracemalloc.start()
    try:
        load(pub)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * pub.stat().st_size


def test_parse_takes_signed_values_on_l_lines_only():
    pub_text, priv_text = _wide_files()
    last_l = priv_text.rstrip("\n").rsplit("\n", 1)[0] + "\n"
    for text in (
        priv_text.replace("L=-11\n", f"L=-{'9' * 70}\n"),
        priv_text.replace("L=-11\n", f"L=-{'9' * 71}\n"),
        last_l + "L=-0",  # no final LF
        priv_text.replace("A=7\n", "A=-7\n"),
        pub_text.replace("\nC=", "\nC=-", 1),
    ):
        assert _parse_outcome(parse, text) == _parse_outcome(parse_line_by_line, text)
    assert parse(last_l + "L=-0").ell[-1] == 0
    assert parse(priv_text.replace("L=-11\n", f"L=-{'9' * 70}\n")).ell[-1] == -(10**70 - 1)


# ---------------------------------------------------------------------------
# The batch test behind the audit's initial_values_consistent check.


@pytest.fixture(scope="module")
def pair80():
    """A pair whose cofactor q exceeds 2**64, so one batch round suffices."""
    return initialize(m=80, n=32, P=1201, nbar=32, rng=random.Random(80))


def _mutations(pub, priv):
    """(name, C, priv) for each wrong private/public pairing the test must catch."""
    M, C = pub.M, list(pub.C)
    times_order_q = C[:]
    times_order_q[3] = C[3] * 4 % M  # 4 = 2**2 has order q
    negated = C[:]
    negated[5] = M - C[5]
    swapped = C[:]
    swapped[1], swapped[6] = C[6], C[1]
    flipped = list(priv.ell)
    flipped[2] = -flipped[2]
    return [
        ("times an element of order q", times_order_q, priv),
        ("negated", negated, priv),
        ("swapped", swapped, priv),
        ("ell sign flipped", C, priv._replace(ell=tuple(flipped))),
    ]


@pytest.mark.parametrize("fixture", ["pair80", "toy_pair"])
def test_batch_test_catches_each_mutation(fixture, request):
    pub, priv = request.getfixturevalue(fixture)
    ctx = pub.context()
    rng = random.Random(9)
    assert params._initial_values_consistent(ctx, pub, priv)[0]
    for name, C, bad_priv in _mutations(pub, priv):
        bad_pub = pub._replace(C=tuple(C))
        # the full audit, with exponents from secrets
        ok, detail = params._initial_values_consistent(ctx, bad_pub, bad_priv)
        assert not ok and detail.startswith("batch test"), name
        assert "FAIL initial_values_consistent" in " ".join(validate(bad_pub, bad_priv).lines())
        if fixture == "pair80":  # one round, with exponents the test picks
            for _ in range(5):
                r = [rng.getrandbits(params.BATCH_BITS) for _ in C]
                assert not params._batch_consistent(ctx, C, bad_priv, r), name
                assert params._batch_consistent(ctx, pub.C, priv, r)


def _product_test_holds(pub, priv, C, r):
    """The product equation of the batch test alone, by builtin pow."""
    M = pub.M
    lhs = rhs = 1
    for c, a, x in zip(C, priv.A, r):
        lhs = lhs * pow(c, x, M) % M
        rhs = rhs * pow(a, x, M) % M
    w = pow(priv.W, sum(x * l for x, l in zip(r, priv.ell)), M)
    return lhs == pow(rhs * w % M, priv.delta, M)


def test_negated_value_with_even_exponent_is_caught_by_legendre_part(pair80):
    pub, priv = pair80
    ctx = pub.context()
    rng = random.Random(10)
    C = list(pub.C)
    C[5] = pub.M - C[5]
    for _ in range(5):
        r = [rng.getrandbits(params.BATCH_BITS) for _ in C]
        r[5] &= ~1  # even: (-1)**r_5 = 1, so the product test cannot see it
        assert _product_test_holds(pub, priv, C, r)
        assert not params._batch_consistent(ctx, C, priv, r)
    # the product test does see it when r_5 is odd
    r[5] |= 1
    assert not _product_test_holds(pub, priv, C, r)


def test_one_round_is_not_enough_at_m12(toy_pair):
    pub, priv = toy_pair
    q = (pub.M - 1) // 2
    assert pub.m == 12 and q < 1 << 64
    # r_3 a multiple of q hides the order-q factor from one round
    C = list(pub.C)
    C[3] = C[3] * 4 % pub.M
    r = [random.Random(i).getrandbits(params.BATCH_BITS) for i in range(len(C))]
    r[3] = 2 * q
    assert params._batch_consistent(pub.context(), C, priv, r)
    # so a round misses with probability about 1/q, and the audit repeats it
    rounds = params._batch_rounds(q)
    per_class = -(-(1 << params.BATCH_BITS) // q)
    assert rounds > 1
    assert per_class**rounds <= 1 << (params.BATCH_BITS * (rounds - 1))
    assert per_class ** (rounds - 1) > 1 << (params.BATCH_BITS * (rounds - 2))
    line = f"PASS initial_values_consistent (batch test, {rounds} rounds, "
    assert line + "miss probability at most 2^-64)" in validate(pub, priv).lines()


def test_batch_rounds():
    assert params._batch_rounds(3) == 41
    assert params._batch_rounds(1229) == 7
    assert params._batch_rounds((1 << 64) + 13) == 1
    assert params._batch_rounds(2498732052648325835743793466367516330172530491183997457039303822448719) == 1


def test_validate_lines_repeat_exactly(toy_pub, toy_priv, pair80):
    # the exponents are fresh on every call, and the report never shows them
    for pub, priv in ((toy_pub, toy_priv), pair80):
        lines = validate(pub, priv).lines()
        assert all(validate(pub, priv).lines() == lines for _ in range(3))
        assert validate(parse(serialize(pub)), parse(serialize(priv))).lines() == lines


def test_batch_test_charges_the_context(pair80):
    pub, priv = pair80
    ctx = pub.context()
    before = ctx.mulcount
    params._initial_values_consistent(ctx, pub, priv)
    assert ctx.mulcount > before


def test_values_outside_the_group_are_recomputed_exactly(toy_pub, toy_priv):
    # C_i = c + M is c modulo M: the batch test would pass it, exact comparison does not
    C = list(toy_pub.C)
    C[0] += toy_pub.M
    bad = PublicParams(m=toy_pub.m + 1, n=toy_pub.n, M=toy_pub.M, C=tuple(C))
    assert params._initial_values_consistent(bad.context(), bad, toy_priv) == (False, "")


def test_modulus_without_prime_cofactor_keeps_exact_recomputation(toy_priv):
    M = 2069  # prime, and (M - 1)/2 = 1034 is not
    priv = toy_priv._replace(M=M)
    ctx = ModContext(M)
    C = params._compute_initial_values(ctx, priv.A, priv.ell, priv.W, priv.delta)
    pub = PublicParams(m=12, n=priv.n, M=M, C=C)
    assert pub.context().q is None
    assert "PASS initial_values_consistent" in validate(pub, priv).lines()
    bad = pub._replace(C=(C[1], C[0]) + C[2:])
    assert "FAIL initial_values_consistent" in validate(bad, priv).lines()


def test_validate_reports_undetermined_pair_scan(toy_priv):
    # A_i = 2 * p_i at n = 4096: admissible, but past the pair scan's work limit
    n = 4096
    odd_primes = [p for p in range(3, 1 << 16) if is_probable_prime(p)][:n]
    A = coprime.CoprimeSequence(tuple(2 * p for p in odd_primes))
    ell = tuple(range(5, 5 + 2 * n, 2))
    priv = toy_priv._replace(n=n, P=1 << 17, nbar=n, A=A, ell=ell)
    pub = PublicParams(m=12, n=n, M=toy_priv.M, C=tuple(range(2, n + 2)))
    lines = validate(pub, priv).lines()
    (line,) = [l for l in lines if " basis_admissible " in l]
    assert line.startswith("FAIL basis_admissible (undetermined: pair scan stopped at the work limit")


def test_batch_test_modulo_5(toy_priv):
    # M = 5, q = 2: the group is cyclic of order 4, and 64 rounds bound the miss
    A = coprime.CoprimeSequence((2, 3, 7, 11))
    priv = toy_priv._replace(m=3, n=4, M=5, P=11, nbar=4, W=2, delta=3, A=A, ell=(5, -7, 9, 11))
    C = params._compute_initial_values(ModContext(5), A, priv.ell, priv.W, priv.delta)
    pub = PublicParams(m=3, n=4, M=5, C=C)
    assert params._initial_values_consistent(pub.context(), pub, priv) == (
        True, "batch test, 64 rounds, miss probability at most 2^-64")
    negated = pub._replace(C=(5 - C[0],) + C[1:])
    for _ in range(20):
        assert not params._initial_values_consistent(pub.context(), negated, priv)[0]


def test_batch_test_passes_consistent_values_with_even_delta(toy_priv):
    # delta_invertible fails, but the values the private side gives still match:
    # then every C_i is a square, and the Legendre part expects +1 throughout
    priv = toy_priv._replace(delta=toy_priv.delta + 1)
    ctx = ModContext(priv.M)
    C = params._compute_initial_values(ctx, priv.A, priv.ell, priv.W, priv.delta)
    pub = PublicParams(m=12, n=priv.n, M=priv.M, C=C)
    lines = validate(pub, priv).lines()
    assert "FAIL delta_invertible" in lines
    assert any(l.startswith("PASS initial_values_consistent (batch test") for l in lines)


# Keygen's initial values in forked parts.

# A 232-bit safe prime, keygen's at seed 4096 before its search used windows.
M232 = 4997464105296651671487586932735032660345060982367994914078607644897439


@pytest.fixture(scope="module")
def values_232():
    """1030 pairs at 232 bits, with their values and the count of one
    ModContext.mod_pow and mod_mul call at a time, and the count of one
    process."""
    rng = random.Random(12)
    A = [rng.randrange(2, 1 << 32) for _ in range(1030)]
    ell = [rng.choice((-1, 1)) * rng.randrange(5, 8196, 2) for _ in A]
    W, delta = rng.randrange(2, M232 - 1), rng.randrange(2, M232 - 1)
    ctx = ModContext(M232)
    C = initial_values_one_at_a_time(ctx, A, ell, W, delta)
    serial = ModContext(M232)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(params, "part_count", lambda work, least: 1)
        assert params._compute_initial_values(serial, A, ell, W, delta) == C
    assert serial.mulcount <= ctx.mulcount
    return (A, ell, W, delta), C, serial.mulcount


@pytest.mark.parametrize("failure", [None, "fork-refused", "child-raises", "child-short"])
def test_forked_parts_give_the_serial_values_and_count(
    values_232, failure, monkeypatch, setaffinity_calls
):
    args, C, mulcount = values_232
    last = len(C) - 1
    affinity = getattr(os, "sched_getaffinity", lambda pid: None)
    before = affinity(0)
    parent, real, computed_here = os.getpid(), params._initial_value, []

    def value(M, delta, a, *rest):
        if os.getpid() == parent:
            computed_here.append((a, affinity(0)))
        elif a == args[0][last] and failure == "child-raises":
            raise RuntimeError("the child of the last part fails")
        elif a == args[0][last] and failure == "child-short":
            os._exit(0)  # before it writes its part, which it sends whole
        return real(M, delta, a, *rest)

    def refused(*args):
        raise OSError("refused")

    monkeypatch.setattr(params, "_initial_value", value)
    monkeypatch.setattr(params, "part_count", lambda work, least: 3)
    if failure == "fork-refused":
        monkeypatch.setattr(os, "fork", refused)
    ctx = ModContext(M232)
    assert params._compute_initial_values(ctx, *args) == C
    assert ctx.mulcount == mulcount
    # parts of 344, 344 and 342: this process computes the values of the
    # first, and those of each part whose child sent none of them
    parts = {"fork-refused": [(0, 1030)], "child-raises": [(0, 344), (688, 1030)],
             "child-short": [(0, 344), (688, 1030)]}
    expected = [a for lo, hi in parts.get(failure, [(0, 344)]) for a in args[0][lo:hi]]
    assert [a for a, _ in computed_here] == expected
    # the caller's CPU set is never changed, not even while its part runs
    assert setaffinity_calls == []
    assert all(cpus == before for _, cpus in computed_here)
    assert affinity(0) == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # every child was reaped


@settings(max_examples=60, deadline=None)
@given(
    M=st.sampled_from([5, 23, 2069, 2879, 636743755563737235857207, M232]),
    nbar_bits=st.integers(2, 32),
    data=st.data(),
)
def test_initial_values_are_the_one_at_a_time_values_for_every_split(M, nbar_bits, data):
    # 2069 is a prime whose (M - 1)/2 is not; small n and nbar make the walk
    # save less than W**delta costs, and repeated magnitudes and both signs
    # of one magnitude come up
    n = data.draw(st.integers(1, 24))
    A = data.draw(st.lists(st.integers(2, 1 << 32), min_size=n, max_size=n))
    mags = st.integers(2, 1 << nbar_bits).map(lambda x: 2 * x + 1)
    ell = data.draw(st.lists(st.tuples(st.sampled_from([1, -1]), mags), min_size=n, max_size=n))
    ell = [sign * mag for sign, mag in ell]
    W, delta = data.draw(st.integers(1, M - 1)), data.draw(st.integers(0, M - 2))
    one_at_a_time = ModContext(M)
    C = initial_values_one_at_a_time(one_at_a_time, A, ell, W, delta)
    counts = set()
    for k in (1, 2, 3):
        ctx = ModContext(M)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(params, "part_count", lambda work, least: k)
            assert params._compute_initial_values(ctx, A, ell, W, delta) == C
        counts.add(ctx.mulcount)
    (count,) = counts
    assert count <= one_at_a_time.mulcount
