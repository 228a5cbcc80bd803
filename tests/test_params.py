import builtins
import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from juna import coprime, params
from juna.bitcodec import BitString
from juna.compress import digest
from juna.errors import (
    DomainError,
    InconsistentParamsError,
    JunaError,
    ParseError,
    SearchExhaustedError,
)
from juna.numtheory import ceil_lg, is_probable_prime
from juna.params import (
    MAX_FILE_BYTES,
    MAX_INT_DIGITS,
    MAX_N,
    PRIV_HEADER,
    PUB_HEADER,
    PrivateParams,
    PublicParams,
    bundled_public_params,
    capacity_report,
    certify_collision,
    initialize,
    load,
    omega_magnitudes,
    parse,
    sample_omega,
    serialize,
    validate,
)

from params_oracle import parse_line_by_line
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
    tampered = dataclasses.replace(toy_pub, C=(toy_pub.C[1],) + toy_pub.C[1:])
    report = validate(tampered, None)
    assert not report.passed
    failing = {c.name for c in report.checks if not c.ok and not c.informative}
    assert "initial_values_distinct" in failing

    bad_priv = dataclasses.replace(toy_priv, ell=(toy_priv.ell[1],) + toy_priv.ell[1:])
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
    other = dataclasses.replace(toy_priv, W=toy_priv.W + 1)
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
    # 69143 = 2*181*191 + 1 and 120067 = 6*20011 + 1 are primes, not safe
    pub = PublicParams(m=ceil_lg(M), n=4, M=M, C=(2, 3, 5, 7))
    line = f"{'PASS' if ok else 'FAIL'} cofactor_structure ({detail})"
    assert line in validate(pub, nbar=nbar).lines()


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

    monkeypatch.setattr(params, "open", Counting, raising=False)
    with pytest.raises(ParseError, match="over"):
        load(path)
    assert got == [MAX_FILE_BYTES + 1]


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
                         A=coprime.CoprimeSequence((2, 3, 5, 7), bound=1 << 32),
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
