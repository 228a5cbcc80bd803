import contextlib
import hashlib
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from juna import params
from juna.attacks import MAX_INSTANCE_BYTES
from juna.bitcodec import BitString
from juna.cli import main
from juna.compress import digest
from juna.keyfile import bundled_public_params, load, save
from juna.params import initialize

from conftest import KEYGEN_4096

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


def test_keygen_unwritable_private_file_leaves_no_public_file(tmp_path, capsys):
    out_pub = tmp_path / "t.pub"
    rc = main(
        [
            "keygen", "--m", "12", "--n", "8", "--p-bits", "10", "--nbar", "8",
            "--out-pub", str(out_pub),
            "--out-priv", str(tmp_path / "missing" / "t.priv"),
            "--seed", "3", "--test-mode",
        ]
    )
    assert rc == 2
    out = capsys.readouterr()
    assert out.out == "seed=3\n" and out.err.startswith("error: ")
    assert not out_pub.exists()


_KEYGEN = ["keygen", "--n", "8", "--p-bits", "10",
           "--out-pub", "never.pub", "--out-priv", "never.priv", "--seed", "5"]


@pytest.mark.parametrize(
    "argv",
    [
        _KEYGEN + ["--m", "500", "--nbar", "8", "--test-mode"],
        _KEYGEN + ["--m", "12", "--nbar", "8", "--test-mode", "--budget", "-5"],
        _KEYGEN + ["--m", "12", "--nbar", "4", "--test-mode"],
        _KEYGEN + ["--m", "12", "--nbar", "8"],
        ["chp", "setup", "--bits", "3", "--seed", "1"],
        ["chp", "setup", "--bits", "100000", "--seed", "1"],
        ["attack", "birthday", "--mask-bits", "0", "--budget", "5", "--seed", "1"],
        ["attack", "birthday", "--mask-bits", "81", "--budget", "5", "--seed", "1"],
        ["attack", "birthday", "--mask-bits", "8", "--budget", "0", "--seed", "1"],
        ["attack", "birthday", "--mask-bits", "8", "--budget", "5", "--pub", "missing.pub"],
        _KEYGEN + ["--m", "12", "--nbar", "8", "--test-mode", "--out-priv", "./never.pub"],
    ],
)
def test_out_of_range_options_are_refused_before_any_output(argv, pub_file, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if argv[:2] == ["attack", "birthday"] and "--pub" not in argv:
        argv = argv + ["--pub", pub_file]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")
    assert not list(tmp_path.iterdir())


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
    from juna.keyfile import load

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
    from juna.keyfile import load

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
    from juna.keyfile import load

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
    from juna.keyfile import load

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
    text = Path(pub_path).read_text()
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


_NOT_CHP = "error: p is not a safe prime, or alpha or beta does not generate its group\n"


@pytest.mark.parametrize(
    "text, err",
    [
        ("CHP 2\np=21\nalpha=2\nbeta=3\n", _NOT_CHP),  # p composite
        ("CHP 2\np=19\nalpha=2\nbeta=3\n", _NOT_CHP),  # p prime, q = 9 composite
        ("CHP 2\np=23\nalpha=4\nbeta=5\n", _NOT_CHP),  # 4 is a square mod 23
        ("CHP 2\np=23\nalpha=0\nbeta=5\n", "error: alpha must lie in (1, p - 1)\n"),
        ("CHP 2\np=23\nalpha=5\nbeta=28\n", "error: beta must lie in (1, p - 1)\n"),  # 28 = 5 mod 23
        ("CHP 1\np=23\nq=11\nalpha=5\nbeta=7\n", "error: line 1: unknown header 'CHP 1'\n"),
        ("CHP 2\np=23\nalpha=5\nbeta=7\n", None),
    ],
    ids=["p-composite", "q-composite", "alpha-square", "alpha-zero", "beta-unreduced", "chp-1", "valid"],
)
def test_chp_hash_checks_what_it_reads(text, err, tmp_path, capsys):
    path = tmp_path / "chp.txt"
    path.write_text(text)
    rc = main(["chp", "hash", "--params", str(path), "--w1", "3", "--w2", "4"])
    out = capsys.readouterr()
    if err is None:
        assert (rc, out.out, out.err) == (0, "value=21\n", "")
    else:
        assert (rc, out.out, out.err) == (2, "", err)


def test_reform_flow(tmp_path, capsys):
    pub, priv = initialize(m=16, n=32, P=1201, nbar=32, rng=random.Random(5))
    path = tmp_path / "prof.pub"
    save(pub, path)
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
    # so is a profile file that holds the private side
    priv_path = tmp_path / "prof.priv"
    save(priv, priv_path)
    assert main(["reform", "--profile", str(priv_path), "--digest-hex", "deadbeef"]) == 2
    assert capsys.readouterr().err == f"error: {priv_path} does not hold public parameters\n"


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
    assert capsys.readouterr().err == "error: non-ASCII byte at offset 6\n"
    inst.write_bytes(b"c=1\ns=1\n" + b" " * MAX_INSTANCE_BYTES)
    assert main(["attack", "mitm", "--instance", str(inst)]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: file is over {MAX_INSTANCE_BYTES} bytes\n")


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


PUB_4096_SHA256 = "6d6028e8abd9c2dca21d180d98b297fdf129b5c54c0eb0c3915480f6feaf8dfb"
PRIV_4096_SHA256 = "abb757038f9a4edd8edcbf4b6a4390e4d8c9f78649c355035075d6e073dba37f"


def test_keygen_232_4096_is_byte_identical(keygen_4096, capsys):
    # the safe-prime search must keep every verdict, so the seeded keys stay put
    out, pub, priv, mulcount = keygen_4096
    assert hashlib.sha256(pub.read_bytes()).hexdigest() == PUB_4096_SHA256
    assert hashlib.sha256(priv.read_bytes()).hexdigest() == PRIV_4096_SHA256
    # the search, the order checks and the initial values, however split
    assert mulcount == 1429482
    M = int(dict(line.split("=", 1) for line in out.splitlines())["M"])
    assert main(["validate", "--pub", str(pub)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"PASS modulus_prime (M = {M})",
        "PASS modulus_bit_length (ceil(lg M) = 232, m = 232)",
        f"INFO cofactor_prime ok=true ((M-1)/2 = {(M - 1) // 2})",
        "PASS cofactor_structure ((M-1)/2 is prime)",
        "PASS initial_values_range",
        "PASS initial_values_distinct",
    ]



# stdout of the full audit of the seed-4096 pair, which parses all three
# blocks of values at n = 4096
AUDIT_4096_SHA256 = "9d947d74e48deb179d68c97b8dd228d26608c532ddbd84bb9726f541aece5a91"


def test_full_audit_of_4096_pair_is_pinned(keygen_4096, capsys):
    _, pub, priv, _ = keygen_4096
    assert main(["validate", "--pub", str(pub), "--priv", str(priv)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == AUDIT_4096_SHA256


# stdout of validate --pub alone on the seed-4096 key, the public check that
# each cli-4096 benchmark cycle times
VALIDATE_PUB_4096_SHA256 = "09e0a862a7693a9686369093cadf94def977048c82c7ba06d48ee1f1b097c321"


def test_public_check_of_4096_key_is_pinned(keygen_4096, capsys):
    _, pub, _, _ = keygen_4096
    assert main(["validate", "--pub", str(pub)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VALIDATE_PUB_4096_SHA256


def test_hash_digests_are_pinned(keygen_4096, capsys):
    # values read from the dense codec and the per-pair multi_pow, so any
    # later rewrite of the digest path must reproduce them byte for byte
    _, pub_4096, _, _ = keygen_4096
    bundled = Path(params.__file__).parent / "data" / "m80_n256.pub"
    for pub, bits, expected, mulcount in (
        (pub_4096, 4096, "0a19985b59d5294e15435e753eb06c1d1b01eb03fc96b6e2868449f1d7", "2052"),
        (bundled, 256, "468e432aca166325f4cb", "132"),
    ):
        argv = ["hash", "--pub", str(pub), "--msg-hex", "a5" * (bits // 8), "--bits", str(bits)]
        assert main(argv) == 0
        vals = grab(capsys)
        assert (vals["digest"], vals["mulcount"]) == (expected, mulcount)


def test_hash_of_a_message_file_is_pinned_at_232_4096(keygen_4096, tmp_path, capsys):
    # the --msg-file path: bytes to bit text, then BitString.from_string
    _, pub, _, _ = keygen_4096
    msg = tmp_path / "m.bin"
    msg.write_bytes(bytes(range(256)) * 2)
    assert main(["hash", "--pub", str(pub), "--msg-file", str(msg), "--bits", "4096"]) == 0
    vals = grab(capsys)
    assert vals["digest"] == "07bef8a81e4cf250385e0e1db677c0057eeae21e80ede90a9e81e63e0e"
    assert vals["mulcount"] == "2067"


def test_forked_keygen_leaves_stdout_alone(keygen_4096, tmp_path):
    # stdout on a pipe is block-buffered, and keygen prints seed= before it
    # forks: a child that flushed the buffer on its way out would repeat it
    out, in_process_pub, in_process_priv, _ = keygen_4096
    pub, priv = tmp_path / "k.pub", tmp_path / "k.priv"
    env = dict(os.environ, PYTHONPATH=str(Path(params.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-X", "importtime", "-m", "juna.cli", *KEYGEN_4096,
         "--out-pub", str(pub), "--out-priv", str(priv)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("seed=4096") == 1
    assert proc.stdout == out.replace(str(in_process_pub), str(pub)).replace(
        str(in_process_priv), str(priv))
    assert hashlib.sha256(pub.read_bytes()).hexdigest() == PUB_4096_SHA256
    assert hashlib.sha256(priv.read_bytes()).hexdigest() == PRIV_4096_SHA256
    # -X importtime lists every module imported: no process pool came in
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert not {m for m in imported if m.split(".")[0] in ("multiprocessing", "concurrent")}


# stdout of the forked birthday search, read from the one-process search
BIRTHDAY_20_SHA256 = "20c8f5752645628f21aa1953d4da4fb1aee051b2ad1acefb4e91186aac29842e"


def test_birthday_search_output_is_pinned():
    # a real process, stdout on a pipe and warnings as errors: the search
    # prints seed= before it forks, and no child may repeat it
    bundled = Path(params.__file__).parent / "data" / "m80_n256.pub"
    env = dict(os.environ, PYTHONPATH=str(Path(params.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "juna.cli", "attack", "birthday", "--pub", str(bundled),
         "--mask-bits", "20", "--budget", "65536", "--seed", "1"],
        capture_output=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert b"trials=1876\n" in proc.stdout and b"truncated_value=949207\n" in proc.stdout
    assert hashlib.sha256(proc.stdout).hexdigest() == BIRTHDAY_20_SHA256


# What hash and validate never run, or load only through what they never run
UNUSED_BY_HASH = {"dataclasses", "inspect", "typing", "secrets", "hmac", "fractions",
                  "juna.attacks", "juna.chp", "juna.reform"}


@pytest.mark.parametrize("command", ["hash", "validate", "validate --priv"])
def test_hash_and_validate_processes_load_only_what_they_run(command, tmp_path, capsys):
    # -S keeps out what a site hook preloads; -X importtime lists every
    # module the process imported itself, one per stderr line
    bundled = Path(params.__file__).parent / "data" / "m80_n256.pub"
    argv = [command, "--pub", str(bundled)]
    if command == "hash":
        argv += ["--msg-hex", "a5" * 32, "--bits", "256"]
    if command == "validate --priv":  # the audit, whose batch test draws its exponents
        pub, priv = str(tmp_path / "t.pub"), str(tmp_path / "t.priv")
        assert main(["keygen", "--seed", "3", "--m", "12", "--n", "8", "--nbar", "8", "--p-bits", "10",
                     "--test-mode", "--out-pub", pub, "--out-priv", priv]) == 0
        capsys.readouterr()
        argv = ["validate", "--pub", pub, "--priv", priv]
    env = dict(os.environ, PYTHONPATH=str(Path(params.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", "-m", "juna.cli", *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert "juna.params" in imported
    assert sorted(imported & UNUSED_BY_HASH) == []
    if command == "hash":
        assert proc.stdout == "digest=468e432aca166325f4cb\nmulcount=132\npadded=false\n"
    if command == "validate --priv":
        assert "PASS initial_values_consistent (batch test, 6 rounds" in proc.stdout


# stdout of chp setup at 512 bits, where the Lucas half of Baillie-PSW
# decides each candidate q, and of a chp hash on the file it writes
CHP_512_SHA256 = "2bbde00509015ee31f0bfe77e089e4a799ac6fb25fd01009e4c5296ec595f886"
CHP_512_HASH_SHA256 = "91879cf278af78271ef2c7358c85b64dcf0a705dee7ac8d97202d45fdd1cd5f7"


def test_chp_setup_and_hash_at_512_bits_are_pinned(tmp_path, capsys):
    assert main(["chp", "setup", "--bits", "512", "--seed", "7"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CHP_512_SHA256
    out = str(tmp_path / "c512.chp")
    assert main(["chp", "setup", "--bits", "512", "--seed", "7", "--out", out]) == 0
    capsys.readouterr()
    assert main(["chp", "hash", "--params", out, "--w1", "12345", "--w2", "67890"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CHP_512_HASH_SHA256


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bench", "--pub", "-", "--iters", "0"], "--iters must be at least 1"),
        (["bench", "--pub", "-", "--iters", "-2"], "--iters must be at least 1"),
        (["keygen", "--p-bits", "-1"], "--p-bits must lie in [1, 32]"),
        (["keygen", "--p-bits", str(10**12)], "--p-bits must lie in [1, 32]"),
        (["chp", "compare", "--m", "80", "--n", "2048", "--lgp", "2000000000"], "widths must be at most"),
        (["chp", "compare", "--m", "233", "--n", "2048", "--lgp", "1024"], "widths must be at most"),
        (["chp", "compare", "--m", "80", "--n", "4097", "--lgp", "1024"], "widths must be at most"),
    ],
)
def test_out_of_range_input_is_exit_2_before_output(argv, message, tmp_path, capsys):
    if argv[0] == "keygen":
        argv = argv + ["--m", "12", "--n", "8", "--nbar", "8", "--seed", "1",
                       "--out-pub", str(tmp_path / "k.pub"), "--out-priv", str(tmp_path / "k.priv")]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert message in out.err


def test_keygen_prime_bound_wider_than_m_is_exit_2(tmp_path, capsys):
    rc = main(["keygen", "--m", "12", "--n", "8", "--p-bits", "13", "--nbar", "8", "--test-mode",
               "--out-pub", str(tmp_path / "k.pub"), "--out-priv", str(tmp_path / "k.priv")])
    assert rc == 2
    assert "error: prime bound width 13 exceeds m = 12" in capsys.readouterr().err


def test_chp_setup_writes_only_widths_chp_hash_reads(tmp_path, capsys):
    assert main(["chp", "setup", "--bits", "3322", "--seed", "1"]) == 2
    assert "need 5 to 3321 bits" in capsys.readouterr().err
    out = str(tmp_path / "chp.txt")
    assert main(["chp", "setup", "--bits", "64", "--seed", "1", "--out", out]) == 0
    capsys.readouterr()
    assert main(["chp", "hash", "--params", out, "--w1", "3", "--w2", "4"]) == 0


def test_validate_priv_with_repeated_basis_value_is_parse_error(toy_files, tmp_path, capsys):
    pub_path, priv_path = toy_files
    lines = Path(priv_path).read_text().split("\n")
    first = lines.index(next(l for l in lines if l.startswith("A=")))
    lines[first + 1] = lines[first]
    bad = tmp_path / "dup.priv"
    bad.write_text("\n".join(lines))
    assert main(["validate", "--pub", pub_path, "--priv", str(bad)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: elements must be pairwise distinct\n"


@pytest.mark.parametrize("multiple", [0, 1, 2])
def test_validate_priv_with_blinder_zero_mod_m_reports_every_check(
    multiple, toy_files, tmp_path, capsys
):
    pub_path, priv_path = toy_files
    assert main(["validate", "--pub", pub_path, "--priv", priv_path]) == 0
    names = [line.split()[1] for line in capsys.readouterr().out.splitlines()]
    priv = load(priv_path)
    bad = tmp_path / "w.priv"
    save(priv._replace(W=multiple * priv.M), bad)
    assert main(["validate", "--pub", pub_path, "--priv", str(bad)]) == 2
    out = capsys.readouterr()
    assert out.err == ""
    lines = out.out.splitlines()
    assert [line.split()[1] for line in lines] == names
    failing = {line.split()[1] for line in lines if line.startswith("FAIL")}
    assert failing == {"blinder_in_range", "blinder_order", "initial_values_consistent"}


def test_validate_priv_with_wide_prime_bound_or_zero_nbar(toy_files, tmp_path, capsys):
    pub_path, priv_path = toy_files
    text = Path(priv_path).read_text().replace("\nP=1201\n", f"\nP={1 << 40}\n")
    wide = tmp_path / "wide.priv"
    wide.write_text(text)
    assert main(["validate", "--pub", pub_path, "--priv", str(wide)]) == 0
    assert "PASS blinder_order" in capsys.readouterr().out
    wide.write_text(text.replace("\nnbar=8\n", "\nnbar=0\n"))
    assert main(["validate", "--pub", pub_path, "--priv", str(wide)]) == 2
    assert "error: nbar must be positive" in capsys.readouterr().err


def test_validate_priv_with_basis_above_prime_bound(toy_files, tmp_path, capsys):
    # the file parses; only the bound check fails
    pub_path, priv_path = toy_files
    priv = load(priv_path)
    bad = tmp_path / "low.priv"
    save(priv._replace(P=max(priv.A) - 1), bad)
    assert main(["validate", "--pub", pub_path, "--priv", str(bad)]) == 2
    out = capsys.readouterr()
    assert out.err == ""
    assert [line for line in out.out.splitlines() if line.startswith("FAIL")] == ["FAIL basis_in_bound"]


@pytest.mark.parametrize("W", [1, None])
def test_validate_priv_with_zero_prime_bound_is_parse_error(W, toy_files, tmp_path, capsys):
    # with W = 1 the capacity report took log2(0); with the file's W, ceil_lg(0)
    pub_path, priv_path = toy_files
    priv = load(priv_path)
    text = Path(priv_path).read_text().replace(f"\nP={priv.P}\n", "\nP=0\n")
    bad = tmp_path / "p0.priv"
    bad.write_text(text.replace(f"\nW={priv.W}\n", f"\nW={W or priv.W}\n"))
    assert main(["validate", "--pub", pub_path, "--priv", str(bad)]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", "error: P must be positive\n")


def test_pub_file_wider_than_max_m_is_parse_error(tmp_path, capsys):
    wide = tmp_path / "wide.pub"
    wide.write_text("JUNA-PUB 1\nm=1000000\nn=4\nM=11\nC=2\nC=3\nC=4\nC=5\n")
    assert main(["hash", "--pub", str(wide), "--msg-bits", "1010"]) == 2
    assert "error: m = 1000000 exceeds 232" in capsys.readouterr().err


# Integers near the small edge and far past it, as the CLI's int options take.
_INTS = st.one_of(st.integers(-3, 40), st.integers(-3, 1 << 40)).map(str)
_VALUES = st.one_of(_INTS, st.text(max_size=6), st.just("9" * 80))


@st.composite
def _file(draw, text):
    """One line of text rekeyed, dropped, repeated or cut; or random bytes."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=64))
    lines = text.split("\n")
    i = draw(st.integers(0, len(lines) - 1))
    op = draw(st.sampled_from(["value", "drop", "repeat", "cut"]))
    if op == "value":
        lines[i] = f"{lines[i].partition('=')[0]}={draw(_VALUES)}"
    elif op == "drop":
        del lines[i]
    elif op == "repeat":
        lines.insert(i, lines[i])
    else:
        lines = lines[:i]
    return "\n".join(lines).encode()


@pytest.fixture(scope="module")
def fuzz_texts(toy_files, tmp_path_factory):
    pub_path, priv_path = toy_files
    base = tmp_path_factory.mktemp("fuzz")
    profile = initialize(m=16, n=32, P=1201, nbar=32, rng=random.Random(5))[0]
    save(profile, base / "profile.pub")
    return base, {
        "pub": Path(pub_path).read_text(),
        "priv": Path(priv_path).read_text(),
        "profile": (base / "profile.pub").read_text(),
        "chp": "CHP 2\np=23\nalpha=5\nbeta=7\n",
        "instance": "s=11\nc=1\nc=2\nc=4\nc=8\n",
    }


def _argv(data, base, texts):
    """A generated argv for one subcommand; each file it names is a mutant."""

    def file(kind, name):
        path = base / name
        path.write_bytes(data.draw(_file(texts[kind])))
        return str(path)

    def opt(flag, strategy):
        return [flag, data.draw(strategy)] if data.draw(st.booleans()) else []

    small = st.integers(-3, 50).map(str)
    cmd = data.draw(st.sampled_from([
        "hash", "validate", "chp hash", "chp compare", "reform", "attack mitm",
        "attack birthday", "attack brute", "bench", "keygen",
    ]))
    argv = cmd.split()
    if cmd == "hash":
        argv += ["--pub", file("pub", "h.pub")]
        source = data.draw(st.sampled_from(["--msg-bits", "--msg-hex", "--msg-file"]))
        if source == "--msg-file":
            (base / "msg").write_bytes(data.draw(st.binary(max_size=8)))
            argv += [source, str(base / "msg")]
        else:
            argv += [source, data.draw(st.text(alphabet="01af x", max_size=12))]
        argv += opt("--bits", _INTS) + (["--pad"] if data.draw(st.booleans()) else [])
    elif cmd in ("validate", "attack brute"):
        argv += ["--pub", file("pub", "v.pub")]
        if data.draw(st.booleans()):
            argv += ["--priv", file("priv", "v.priv")]
    elif cmd == "chp hash":
        argv += ["--params", file("chp", "c.txt"), "--w1", data.draw(_INTS), "--w2", data.draw(_INTS)]
    elif cmd == "chp compare":
        argv += ["--m", data.draw(_INTS), "--n", data.draw(_INTS), "--lgp", data.draw(_INTS)]
    elif cmd == "reform":
        argv += ["--profile", file("profile", "r.pub"),
                 "--digest-hex", data.draw(st.text(alphabet="0123456789abcdefg ", max_size=10))]
    elif cmd == "attack mitm":
        argv += ["--instance", file("instance", "i.txt")]
    elif cmd == "attack birthday":
        argv += ["--pub", file("pub", "b.pub"), "--mask-bits", data.draw(small),
                 "--budget", data.draw(small), "--seed", "0"]
    elif cmd == "bench":
        argv += ["--pub", file("pub", "x.pub"), "--iters", data.draw(st.integers(-3, 3).map(str)),
                 "--seed", "0"]
    else:
        nbar = data.draw(st.sampled_from([-1, 0, 7, 8, 1 << 16, 1 << 32, (1 << 32) + 1]))
        argv += ["--m", "12", "--n", "8", "--nbar", str(nbar), "--test-mode", "--seed", "0",
                 "--p-bits", data.draw(_INTS), "--out-pub", str(base / "k.pub"),
                 "--out-priv", str(base / "k.priv")]
    if data.draw(st.integers(0, 19)) == 0:
        argv.append("-h")
    return argv


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzz_cli_exit_codes(fuzz_texts, data):
    base, texts = fuzz_texts
    argv = _argv(data, base, texts)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:  # -h prints the help and exits 0
            rc = exc.code
    assert rc in (0, 1, 2, 3), argv
