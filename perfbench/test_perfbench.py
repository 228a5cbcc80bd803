"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import contextlib
import io
import json
import signal
import time
from itertools import islice
from pathlib import Path

import pytest

import hostspeed
import inputs
import oracle
import run
import spans

juna = run.load_juna()
from juna import cli, compress, params  # noqa: E402
from juna.bitcodec import BitString  # noqa: E402


@pytest.fixture(scope="module")
def bundled():
    return params.bundled_public_params()


def adversarial(n):
    ones = (1 << n) - 1
    alternating = int("01" * (n // 2), 2)
    return {
        "first bit only": 1 << (n - 1),
        "last bit only": 1,
        "all ones": ones,
        "alternating 01": alternating,
        "alternating 10": alternating << 1,
        "one long zero run": ones ^ (((1 << (n // 2 + 7)) - 1) << 5),
        "two bits half apart": (1 << (n - 1)) | (1 << (n // 2 - 1)),
    }


def test_oracle_long_shadows_published_example():
    assert oracle.long_shadows(0b01010110, 8) == [0, 6, 0, 2, 0, 4, 1, 0]
    assert oracle.long_shadows(0b10000000, 8) == [8, 0, 0, 0, 0, 0, 0, 0]
    assert oracle.long_shadows(0b11111111, 8) == [2] * 8


@pytest.mark.parametrize("kind", sorted(adversarial(256)))
def test_oracle_matches_digest_on_adversarial_messages(bundled, kind):
    v = adversarial(bundled.n)[kind]
    ctx = bundled.context()
    before = ctx.mulcount
    d = compress.digest(bundled, BitString.from_int(v, bundled.n), ctx)
    assert d.value == oracle.digest_value(bundled.C, bundled.M, v, bundled.n)
    assert ctx.mulcount - before <= 2 * bundled.n


def test_oracle_matches_digest_on_seeded_mix(bundled):
    for _, v in islice(inputs.digest_messages(5, bundled.n), 300):
        d = compress.digest(bundled, BitString.from_int(v, bundled.n))
        assert d.value == oracle.digest_value(bundled.C, bundled.M, v, bundled.n)


def test_oracle_hand_checked_tiny_params():
    pub = params.PublicParams(m=7, n=4, M=101, C=(2, 3, 5, 7))
    # long shadows of 1111 are 2222, so d = (2*3*5*7)^2 mod 101 = 64
    assert oracle.digest_value(pub.C, pub.M, 0b1111, 4) == 64
    for v in range(1, 16):
        assert oracle.digest_value(pub.C, pub.M, v, 4) == compress.digest(pub, BitString.from_int(v, 4)).value


def test_oracle_rejects_zero_and_odd_length():
    with pytest.raises(ValueError):
        oracle.long_shadows(0, 8)
    with pytest.raises(ValueError):
        oracle.long_shadows(1, 7)


def test_generators_reproduce_from_seed():
    def take(gen, k=64):
        return list(islice(gen, k))

    assert take(inputs.digest_messages(3, 256)) == take(inputs.digest_messages(3, 256))
    assert take(inputs.digest_messages(3, 256)) != take(inputs.digest_messages(4, 256))
    assert take(inputs.cli_requests(3, 4096)) == take(inputs.cli_requests(3, 4096))
    assert take(inputs.birthday_seeds(3)) == take(inputs.birthday_seeds(3))
    assert take(inputs.birthday_seeds(3)) != take(inputs.birthday_seeds(4))


def test_digest_mix_shares_and_shapes():
    n = 256
    msgs = list(islice(inputs.digest_messages(9, n), 4000))
    counts = {kind: 0 for kind, _ in inputs.DIGEST_MIX}
    for kind, v in msgs:
        counts[kind] += 1
        assert 0 < v < 1 << n
        if kind == "sparse":
            assert inputs.SPARSE_ONES[0] <= bin(v).count("1") <= inputs.SPARSE_ONES[1]
        elif kind == "dense":
            assert inputs.DENSE_ZEROS[0] <= n - bin(v).count("1") <= inputs.DENSE_ZEROS[1]
    for kind, share in inputs.DIGEST_MIX:
        assert abs(counts[kind] / len(msgs) - share) < 0.03


def test_cli_requests_follow_cycle():
    reqs = list(islice(inputs.cli_requests(1, 4096), 2 * len(inputs.CLI_CYCLE)))
    assert [k for k, _ in reqs] == list(inputs.CLI_CYCLE) * 2
    assert all((v is not None) == k.startswith("hash") for k, v in reqs)


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def test_traced_outputs_identical_and_originals_restored(bundled, tmp_path):
    pub_path = tmp_path / "b.pub"
    params.save(bundled, pub_path)
    msgs = [v for _, v in islice(inputs.digest_messages(2, bundled.n), 50)]

    def outputs():
        ctx = bundled.context()
        digests = [compress.digest(bundled, BitString.from_int(v, bundled.n), ctx).hex for v in msgs]
        hashed = _cli(["hash", "--pub", str(pub_path), "--msg-hex", format(msgs[0], "064x"), "--bits", "256"])
        return digests, hashed, _cli(["validate", "--pub", str(pub_path)])

    originals = (compress.digest, BitString.__dict__["from_int"], params.parse, cli.main)
    plain = outputs()
    tracer = spans.Tracer()
    with tracer.installed():
        assert compress.digest is not originals[0]
        traced = outputs()
    assert traced == plain
    assert (compress.digest, BitString.__dict__["from_int"], params.parse, cli.main) == originals
    names = {s[spans.NAME] for s in tracer.spans}
    assert {"compress.digest", "bitcodec.from_int", "bitcodec.bit_long_shadow", "cli.main",
            "params.parse", "params.context", "params.validate", "numtheory.is_probable_prime"} <= names
    muls = [s[spans.TAG] for s in tracer.spans if s[spans.NAME] == "compress.digest"]
    assert len(muls) == 51 and all(0 < m <= 2 * bundled.n for m in muls)


def test_totals_self_time_subtracts_children():
    recs = [
        ["op", -1, 0.0, 10.0, None],
        ["compress.digest", 0, 1.0, 9.0, 5],
        ["bitcodec.bit_long_shadow", 1, 2.0, 4.0, None],
        ["other", -1, 20.0, 30.0, None],
        ["compress.digest", 3, 21.0, 22.0, 7],
    ]
    t = spans.Totals(recs, {0})
    assert t.calls == {"op": 1, "compress.digest": 1, "bitcodec.bit_long_shadow": 1}
    assert t.self_time["compress.digest"] == 6.0
    assert t.self_time["op"] == 2.0
    assert t.tags["compress.digest"] == [5]
    assert t.calls_under("bitcodec.bit_long_shadow", "compress.digest") == 1


def test_percentile_interpolates():
    assert run.percentile([1, 2, 3, 4], 50) == 2.5
    assert run.percentile(list(range(101)), 99) == 99
    assert run.percentile([5], 99.9) == 5


def test_metric_tables_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)



def test_host_speed_scaling():
    host = hostspeed.HostSpeed()
    nominal = hostspeed.NOMINAL_S
    # kernel samples every 20 ms taking twice the nominal time, one inside the call
    host.at = [0.00, 0.02, 0.04, 0.06, 0.08]
    host.cost = [2 * nominal] * 5
    assert host.scaled(0.035, 0.01) == pytest.approx((0.01 - 2 * nominal) / 2)
    assert host.scaled(0.061, 0.005) == pytest.approx(0.0025)


def test_host_speed_sampling_restores_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    host = hostspeed.HostSpeed()
    with host.sampling():
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 2 <= len(host.at) == len(host.cost)
