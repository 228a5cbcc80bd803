"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every tolerance and time budget is pinned here; none are
calibrated elsewhere.
"""

import random
import statistics
import time
from pathlib import Path

from juna.attacks import (
    SubsetSumInstance,
    birthday_search,
    brute_force_collision,
    mitm_subset_sum,
)
from juna.bitcodec import BitString, bit_long_shadow, bit_shadow
from juna.chp import compare_costs
from juna.compress import digest
from juna.coprime import generate, subset_product, verify
from juna.numtheory import ceil_lg, is_probable_prime
from juna.params import certify_collision, initialize, validate

from attacks_oracle import brute_force_solve
from compress_oracle import digest_oracle

README = Path(__file__).resolve().parent.parent / "README.md"


def _report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} [{name}]: {tag}  {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_codec_golden():
    msg = BitString.from_string("01010110")
    bit_shadow(msg)  # warm-up so the timing covers conversion only
    t0 = time.perf_counter()
    sh = bit_shadow(msg)
    ls = bit_long_shadow(msg)
    elapsed = time.perf_counter() - t0
    ok = str(sh) == "03020210" and str(ls) == "06020410" and elapsed < 1e-3
    _report(1, "codec golden", ok, f"{sh} / {ls} in {elapsed * 1e6:.0f} us")


def test_criterion_02_shadow_sum_facts():
    rng = random.Random(20260808)
    t0 = time.perf_counter()
    checked = 0
    for n in (8, 16, 64, 256, 512):
        for _ in range(10_000):
            v = rng.getrandbits(n) or 1
            msg = BitString.from_int(v, n)
            sh = bit_shadow(msg)
            ls = bit_long_shadow(msg, sh)
            assert sum(sh.values) == n
            assert n <= sum(ls.values) <= 2 * n
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 50_000 and elapsed < 5.0
    _report(2, "shadow sum facts", ok, f"{checked} strings in {elapsed:.2f} s")


def test_criterion_03_injectivity_exhaustive():
    t0 = time.perf_counter()
    results = []
    for n in (8, 10):
        seq = generate(n, 1201, random.Random(33))
        assert verify(seq)
        shadows, longs, products = set(), set(), set()
        total = (1 << n) - 1
        for v in range(1, 1 << n):
            msg = BitString.from_int(v, n)
            sh = bit_shadow(msg)
            shadows.add(sh.values)
            longs.add(bit_long_shadow(msg, sh).values)
            products.add(subset_product(seq, sh.values))
        results.append(
            len(shadows) == total and len(longs) == total and len(products) == total
        )
    elapsed = time.perf_counter() - t0
    ok = all(results) and elapsed < 10.0
    _report(3, "injectivity by exhaustion", ok, f"n in (8, 10), {elapsed:.2f} s")


def test_criterion_04_reference_fixture(reference_pub):
    t0 = time.perf_counter()
    pub = reference_pub
    ok = (
        is_probable_prime(pub.M)
        and ceil_lg(pub.M) == 80
        and pub.n == 256
        and len(pub.C) == 256
        and all(1 < c < pub.M for c in pub.C)
        and len(set(pub.C)) == 256
    )
    q = (pub.M - 1) // 2
    bound = 4 * pub.n * (2 * pub.n + 3)
    assert bound == 527_360
    if is_probable_prime(q):
        info = "(M-1)/2 is probable prime (safe prime)"
    else:
        f = next((d for d in range(3, bound + 1, 2) if q % d == 0), None)
        info = (
            f"(M-1)/2 has no factor up to {bound}"
            if f is None
            else f"(M-1)/2 divisible by {f}"
        )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(4, "published fixture", ok, f"{info}; {elapsed:.2f} s")


def test_criterion_05_initialization_round_trip():
    worst = 0.0
    for m, n, P, nbar, seeds in ((12, 8, 1201, 8, range(1, 21)),
                                 (80, 96, 1 << 12, 96, range(1, 4))):
        for seed in seeds:
            t0 = time.perf_counter()
            pub, priv = initialize(m=m, n=n, P=P, nbar=nbar, rng=random.Random(seed))
            report = validate(pub, priv)
            assert report.passed, (m, seed, report.lines())
            ctx = pub.context()
            w_inv = ctx.mod_inverse(priv.W)
            for a, l, c in zip(priv.A, priv.ell, pub.C):
                wl = ctx.mod_pow(priv.W if l >= 0 else w_inv, abs(l))
                assert ctx.mod_pow(ctx.mod_mul(a, wl), priv.delta) == c
            elapsed = time.perf_counter() - t0
            assert elapsed < 300.0, (m, seed, elapsed)
            worst = max(worst, elapsed)
    _report(5, "initialization round-trip", True, f"worst seed {worst:.2f} s")


def test_criterion_06_compression_equivalence_and_cost(toy_pub, mid_pub, tiny_pub):
    assert digest(tiny_pub, BitString.from_string("1111")).value == 64
    rng = random.Random(606)
    for pub in (toy_pub, mid_pub):
        ctx = pub.context()
        for _ in range(10_000):
            v = rng.getrandbits(pub.n) or 1
            msg = BitString.from_int(v, pub.n)
            before = ctx.mulcount
            fast = digest(pub, msg, ctx)
            used = ctx.mulcount - before
            assert used <= 2 * pub.n
            assert fast.value == digest_oracle(pub, msg).value
    _report(6, "compression equals oracle", True,
            f"10^4 messages per set, mulcount <= 2n")


def test_criterion_07_mitm_against_brute_force():
    rng = random.Random(707)
    solved = 0
    for _ in range(200):
        n = rng.randrange(8, 25)
        c = tuple(rng.randrange(1, 1 << 16) for _ in range(n))
        if rng.randrange(2):
            bits = [rng.randrange(2) for _ in range(n)]
            s = sum(ci * b for ci, b in zip(c, bits))
        else:
            s = rng.randrange(1, sum(c) + 1)
        inst = SubsetSumInstance(c=c, s=s)
        got = mitm_subset_sum(inst)
        sols = brute_force_solve(inst)
        assert (got is not None) == bool(sols)
        if got is not None:
            assert sum(ci * b for ci, b in zip(c, got)) == s
            solved += 1
    c = tuple(random.Random(5).randrange(1, 1 << 16) for _ in range(32))
    bits = [random.Random(6).randrange(2) for _ in range(32)]
    t0 = time.perf_counter()
    got = mitm_subset_sum(SubsetSumInstance(c=c, s=sum(x * b for x, b in zip(c, bits))))
    elapsed = time.perf_counter() - t0
    ok = got is not None and elapsed < 10.0
    _report(7, "meet-in-the-middle vs oracle", ok,
            f"200 instances agree ({solved} solvable); n=32 in {elapsed:.2f} s")


def test_criterion_08_birthday_harness_statistics(mid_pub):
    # This validates the harness and the mixing of the toy-truncated
    # digest.  It does NOT reproduce the O(2^m) resistance claim, which
    # is not desk-verifiable; see README.
    trials = []
    for seed in range(50):
        stats = birthday_search(mid_pub, mask_bits=16, budget=5000, seed=seed)
        assert stats.collision is not None, seed
        m1, m2 = stats.collision
        assert m1 != m2
        mask = (1 << 16) - 1
        assert digest(mid_pub, m1).value & mask == digest(mid_pub, m2).value & mask
        trials.append(stats.trials)
    median = statistics.median(trials)
    ref = 1.1774 * 2**8
    ok = 0.5 * ref <= median <= 2.0 * ref
    _report(8, "birthday harness statistics", ok,
            f"median {median} vs reference {ref:.1f} (harness check only)")


def test_criterion_09_collision_certificates(toy_pub, toy_priv):
    t0 = time.perf_counter()
    pairs = brute_force_collision(toy_pub)
    assert pairs, "toy scale should collide by pigeonhole"
    for pair in pairs:
        assert pair.product_is_one
        cert = certify_collision(toy_priv, toy_pub, pair.msg1, pair.msg2)
        assert cert.holds
    rng = random.Random(909)
    checked = 0
    while checked < 100:
        v1 = rng.randrange(1, 256)
        v2 = rng.randrange(1, 256)
        if v1 == v2:
            continue
        m1 = BitString.from_int(v1, 8)
        m2 = BitString.from_int(v2, 8)
        if digest(toy_pub, m1).value == digest(toy_pub, m2).value:
            continue
        assert not certify_collision(toy_priv, toy_pub, m1, m2).holds
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    _report(9, "collision certificates", ok,
            f"{len(pairs)} colliding pairs, 100 non-colliding, {elapsed:.1f} s")


def test_criterion_10_comparison_table_pins():
    ops = compare_costs(80, 2048, 1024)
    rates = compare_costs(80, 2046, 1024)
    ok = (
        ops["chp_bit_ops"] == 8_589_934_592
        and ops["juna_bit_ops"] == 52_428_800
        and f"{float(rates['juna_rate']) * 100:.2f}" == "3.91"
        and f"{float(rates['chp_rate']) * 100:.2f}" == "50.05"
    )
    _report(10, "comparison table", ok,
            "bit ops 8589934592 / 52428800, rates 50.05% / 3.91%")


def test_criterion_11_security_magnitude_documented():
    text = README.read_text(encoding="utf-8")
    ok = "not desk-verifiable" in text
    _report(11, "security magnitudes documented", ok,
            "claims covered by property suites and README, not measured")
