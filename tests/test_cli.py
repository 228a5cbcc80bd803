import hashlib
import random

import pytest

from juna.bitcodec import BitString
from juna.cli import main
from juna.compress import digest
from juna.params import bundled_public_params, initialize, save
from juna.reform import build_profile

REFERENCE_MSG_HEX = "f3f49249dc28ff90a5aec7978306d03bf38b2ffc80a4df5a51c9bc701e7ea419"
REFERENCE_DIGEST = "0ea2759806423903744c"


@pytest.fixture(scope="module")
def pub_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("params") / "ref.pub"
    save(bundled_public_params(), path)
    return str(path)


@pytest.fixture(scope="module")
def toy_files(tmp_path_factory):
    pub, priv = initialize(m=12, n=8, P=1201, nbar=8, rng=random.Random(1))
    base = tmp_path_factory.mktemp("toy")
    save(pub, base / "toy.pub")
    save(priv, base / "toy.priv")
    return str(base / "toy.pub"), str(base / "toy.priv")


def grab(capsys):
    out = capsys.readouterr()
    return dict(
        line.split("=", 1) for line in out.out.strip().splitlines() if "=" in line
    )


def test_keygen_roundtrip(tmp_path, capsys):
    out_pub = str(tmp_path / "a.pub")
    out_priv = str(tmp_path / "a.priv")
    rc = main(
        [
            "keygen", "--m", "12", "--n", "8", "--p-bits", "10", "--nbar", "8",
            "--out-pub", out_pub, "--out-priv", out_priv,
            "--seed", "5", "--test-mode",
        ]
    )
    assert rc == 0
    vals = grab(capsys)
    assert vals["seed"] == "5"
    rc = main(["validate", "--pub", out_pub, "--priv", out_priv])
    assert rc == 0


def test_keygen_enforces_production_floor(tmp_path, capsys):
    rc = main(
        [
            "keygen", "--m", "12", "--n", "8", "--p-bits", "10", "--nbar", "8",
            "--out-pub", str(tmp_path / "x.pub"),
            "--out-priv", str(tmp_path / "x.priv"),
            "--seed", "5",
        ]
    )
    assert rc == 2
    capsys.readouterr()


def test_keygen_exhausted_budget_is_exit_3(tmp_path, capsys):
    rc = main(
        [
            "keygen", "--m", "12", "--n", "8", "--p-bits", "10", "--nbar", "8",
            "--out-pub", str(tmp_path / "y.pub"),
            "--out-priv", str(tmp_path / "y.priv"),
            "--seed", "5", "--test-mode", "--budget", "0",
        ]
    )
    assert rc == 3
    capsys.readouterr()


def test_hash_reference_golden(pub_file, capsys):
    rc = main(
        ["hash", "--pub", pub_file, "--msg-hex", REFERENCE_MSG_HEX, "--bits", "256"]
    )
    assert rc == 0
    vals = grab(capsys)
    assert vals["digest"] == REFERENCE_DIGEST
    assert vals["padded"] == "false"
    assert int(vals["mulcount"]) <= 2 * 256


def test_hash_bits_argument(toy_files, capsys):
    pub_path, _ = toy_files
    rc = main(["hash", "--pub", pub_path, "--msg-bits", "01010110"])
    assert rc == 0
    first = grab(capsys)["digest"]
    rc = main(["hash", "--pub", pub_path, "--msg-bits", "01010110"])
    assert rc == 0
    assert grab(capsys)["digest"] == first


def test_hash_pad_flag(toy_files, capsys):
    pub_path, _ = toy_files
    rc = main(["hash", "--pub", pub_path, "--msg-bits", "101", "--pad"])
    assert rc == 0
    vals = grab(capsys)
    assert vals["padded"] == "true"
    # padding is 1-then-zeros
    from juna.params import load

    pub = load(pub_path)
    expect = digest(pub, BitString.from_string("10110000")).hex
    assert vals["digest"] == expect


def test_hash_msg_file(toy_files, tmp_path, capsys):
    pub_path, _ = toy_files
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"\x56")
    rc = main(["hash", "--pub", pub_path, "--msg-file", str(msg)])
    assert rc == 0
    vals = grab(capsys)
    from juna.params import load

    pub = load(pub_path)
    assert vals["digest"] == digest(pub, BitString.from_string("01010110")).hex


@pytest.mark.parametrize("hx", ["0x" + REFERENCE_MSG_HEX, REFERENCE_MSG_HEX[:32] + "_" + REFERENCE_MSG_HEX[32:]])
def test_hash_hex_with_prefix_or_separator_fails(pub_file, hx, capsys):
    rc = main(["hash", "--pub", pub_file, "--msg-hex", hx, "--bits", "256"])
    assert rc == 2
    assert "not a hex string" in capsys.readouterr().err


@pytest.mark.parametrize("hx", ["f_f", "+ff", "-ff", "0xff", ""])
def test_hash_hex_short_forms_fail(toy_files, hx, capsys):
    pub_path, _ = toy_files
    # the = form lets argparse take "-ff" as a value, not an option
    rc = main(["hash", "--pub", pub_path, f"--msg-hex={hx}", "--bits", "8"])
    assert rc == 2
    capsys.readouterr()


def test_hash_msg_file_reads_only_the_bits_asked_for(toy_files, tmp_path, capsys):
    pub_path, _ = toy_files
    msg = tmp_path / "big.bin"
    msg.write_bytes(b"\x56" + b"\xff" * ((1 << 20) - 1))
    rc = main(["hash", "--pub", pub_path, "--msg-file", str(msg), "--bits", "8"])
    assert rc == 0
    from juna.params import load

    pub = load(pub_path)
    assert grab(capsys)["digest"] == digest(pub, BitString.from_string("01010110")).hex


def test_hash_msg_file_over_max_bits_fails(toy_files, tmp_path, capsys):
    pub_path, _ = toy_files
    msg = tmp_path / "long.bin"
    msg.write_bytes(b"\x01" * 513)
    assert main(["hash", "--pub", pub_path, "--msg-file", str(msg)]) == 2
    assert main(["hash", "--pub", pub_path, "--msg-file", str(msg), "--bits", "4104"]) == 2
    assert "4096 bits" in capsys.readouterr().err


def test_hash_pad_after_decoding_hex(toy_files, capsys):
    pub_path, _ = toy_files
    rc = main(["hash", "--pub", pub_path, "--msg-hex", "bf", "--bits", "3", "--pad"])
    assert rc == 0
    vals = grab(capsys)
    assert vals["padded"] == "true"
    from juna.params import load

    pub = load(pub_path)
    assert vals["digest"] == digest(pub, BitString.from_string("10110000")).hex


def test_hash_wrong_length_fails(toy_files, capsys):
    pub_path, _ = toy_files
    rc = main(["hash", "--pub", pub_path, "--msg-bits", "1111"])
    assert rc == 2
    capsys.readouterr()


def test_usage_error_is_exit_1(capsys):
    assert main(["hash"]) == 1
    capsys.readouterr()


def test_validate_reference(pub_file, capsys):
    rc = main(["validate", "--pub", pub_file])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS modulus_prime" in out
    assert "INFO cofactor_prime ok=true" in out


def test_validate_failing_file_is_exit_2(toy_files, tmp_path, capsys):
    pub_path, _ = toy_files
    text = open(pub_path).read()
    lines = text.strip().split("\n")
    lines[4] = lines[5]  # duplicate one initial value
    bad = tmp_path / "dup.pub"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(["validate", "--pub", str(bad)])
    assert rc == 2
    out = capsys.readouterr().out
    assert "FAIL initial_values_distinct" in out


def test_validate_non_ascii_file_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.pub"
    bad.write_bytes("JUNA-PUB 1\nm=\u00b2\n".encode())
    assert main(["validate", "--pub", str(bad)]) == 2
    assert "error: non-ASCII byte at offset 13" in capsys.readouterr().err


def test_chp_flow(tmp_path, capsys):
    out = str(tmp_path / "chp.txt")
    rc = main(["chp", "setup", "--bits", "5", "--seed", "1", "--out", out])
    assert rc == 0
    vals = grab(capsys)
    assert vals["p"] == "23" and vals["alpha"] == "5" and vals["beta"] == "7"
    rc = main(["chp", "hash", "--params", out, "--w1", "3", "--w2", "4"])
    assert rc == 0
    assert grab(capsys)["value"] == "21"
    rc = main(["chp", "compare", "--m", "80", "--n", "2048", "--lgp", "1024"])
    assert rc == 0
    vals = grab(capsys)
    assert vals["juna_bit_ops"] == "52428800"
    assert vals["chp_bit_ops"] == "8589934592"
    with open(out, "ab") as fh:
        fh.write("\u00b2".encode())
    assert main(["chp", "hash", "--params", out, "--w1", "3", "--w2", "4"]) == 2
    assert "error: non-ASCII byte at offset" in capsys.readouterr().err


def test_reform_flow(tmp_path, capsys):
    profile = build_profile(32, P=1201, nbar=32, rng=random.Random(5))
    path = tmp_path / "prof.pub"
    save(profile.pub, path)
    rc = main(["reform", "--profile", str(path), "--digest-hex", "deadbeef"])
    assert rc == 0
    vals = grab(capsys)
    assert vals["underlying_bits"] == "32"
    assert vals["output_bits"] == "16"
    assert len(vals["reformed"]) == 4
    # wrong width is a parse failure
    rc = main(["reform", "--profile", str(path), "--digest-hex", "dead"])
    assert rc == 2
    capsys.readouterr()


def test_attack_mitm(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    inst.write_text("s=11\nc=1\nc=2\nc=4\nc=8\n")
    rc = main(["attack", "mitm", "--instance", str(inst)])
    assert rc == 0
    assert grab(capsys)["solution"] == "1101"
    inst.write_text("s=16\nc=1\nc=2\nc=4\nc=8\n")
    rc = main(["attack", "mitm", "--instance", str(inst)])
    assert rc == 0
    assert grab(capsys)["solution"] == "none"
    inst.write_text("s=1\nc=\u00b2\n", encoding="utf-8")
    assert main(["attack", "mitm", "--instance", str(inst)]) == 2
    assert "error: non-ASCII byte at offset 6" in capsys.readouterr().err


def test_attack_birthday(toy_files, tmp_path, capsys):
    pub_path, _ = toy_files
    csv = tmp_path / "stats.csv"
    rc = main(
        [
            "attack", "birthday", "--pub", pub_path, "--mask-bits", "6",
            "--budget", "500", "--seed", "4", "--csv", str(csv),
        ]
    )
    assert rc == 0
    vals = grab(capsys)
    assert "truncated" in vals["note"]
    assert int(vals["trials"]) >= 1
    assert csv.read_text().startswith("seed,mask_bits,budget,trials,found")


def test_attack_brute_with_certificates(toy_files, capsys):
    pub_path, priv_path = toy_files
    rc = main(["attack", "brute", "--pub", pub_path, "--priv", priv_path])
    assert rc == 0
    out = capsys.readouterr().out
    lines = dict(l.split("=", 1) for l in out.strip().splitlines())
    npairs = int(lines["pairs"])
    assert npairs > 0
    for i in range(npairs):
        assert lines[f"pair{i}_product_is_one"] == "true"
        assert lines[f"pair{i}_certified"] == "true"


def test_bench(toy_files, capsys):
    pub_path, _ = toy_files
    rc = main(["bench", "--pub", pub_path, "--iters", "50", "--seed", "2"])
    assert rc == 0
    vals = grab(capsys)
    assert vals["bound_respected"] == "true"
    assert int(vals["mulcount_max"]) <= int(vals["mulcount_bound"])
    assert int(vals["bit_ops_estimate"]) == 4 * 8 * 12 * 12


def test_parse_failure_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.pub"
    bad.write_text("JUNA-PUB 1\nm=12\nn=8\n")
    rc = main(["hash", "--pub", str(bad), "--msg-bits", "1" * 8])
    assert rc == 2
    capsys.readouterr()


def test_production_keygen_validate_bench_flow(tmp_path, capsys):
    out_pub = str(tmp_path / "prod.pub")
    out_priv = str(tmp_path / "prod.priv")
    rc = main(
        [
            "keygen", "--m", "80", "--n", "96", "--p-bits", "12", "--nbar", "96",
            "--out-pub", out_pub, "--out-priv", out_priv, "--seed", "11",
        ]
    )
    assert rc == 0
    capsys.readouterr()
    assert main(["validate", "--pub", out_pub, "--priv", out_priv]) == 0
    capsys.readouterr()
    rc = main(["bench", "--pub", out_pub, "--iters", "25", "--seed", "1"])
    assert rc == 0
    vals = grab(capsys)
    assert int(vals["mulcount_max"]) <= 192  # 2n at n = 96
    assert vals["bound_respected"] == "true"


def test_keygen_232_4096_is_byte_identical(tmp_path, capsys):
    # the safe-prime search must keep every verdict, so the seeded keys stay put
    pub, priv = tmp_path / "k.pub", tmp_path / "k.priv"
    rc = main(["keygen", "--seed", "4096", "--m", "232", "--n", "4096", "--p-bits", "32",
               "--nbar", "4096", "--out-pub", str(pub), "--out-priv", str(priv)])
    assert rc == 0
    assert hashlib.sha256(pub.read_bytes()).hexdigest() == (
        "dc485de865ed5369e8f2e7183c14fa307f5b60f451d0511ae6336ba3a7c3e13f")
    assert hashlib.sha256(priv.read_bytes()).hexdigest() == (
        "d9be3cffae1495a5fbdf68b4f3726db15c846463b0590cb03e1425b50be0aeef")
    M = int(grab(capsys)["M"])
    assert main(["validate", "--pub", str(pub)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"PASS modulus_prime (M = {M})",
        "PASS modulus_bit_length (ceil(lg M) = 232, m = 232)",
        f"INFO cofactor_prime ok=true ((M-1)/2 = {(M - 1) // 2})",
        "PASS cofactor_structure ((M-1)/2 is prime)",
        "PASS initial_values_range",
        "PASS initial_values_distinct",
    ]
