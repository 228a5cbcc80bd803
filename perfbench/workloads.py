"""The four workloads: set-up, seeded inputs, the timed call, and its check.

Each workload calls juna through module attributes at call time
(``compress.digest``, ``cli.main``, ...) so that the tracer's patches,
when installed, see every call.  Checks use only ``oracle`` and the
outputs, never juna's own encoder.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import statistics
from time import perf_counter

import inputs
import oracle

# Parameters of the 232/4096 workloads: params.initialize(232, 4096,
# P=2**32, nbar=4096) driven by random.Random(KEYGEN_SEED).
KEYGEN = {"m": 232, "n": 4096, "P": 1 << 32, "nbar": 4096}
KEYGEN_SEED = 4096
BIRTHDAY_MASK_BITS = 20
BIRTHDAY_BUDGET = 1 << 16  # ~50x the 50% collision threshold of 1206 trials


def _ms_median(values) -> float | None:
    return statistics.median(values) * 1e3 if values else None


class Workload:
    """One workload; subclasses fill in the hooks.

    block      ops timed together; traced runs alternate untraced and traced
               blocks over the same inputs
    min_ops    untraced runs time at least this many ops, so that at least
               ten latency samples lie beyond the tail percentile
    exact_ops  count metrics (mul_per_digest, trials_per_search) use this
               prefix of the seeded stream, so they repeat exactly per seed
    """

    name = ""
    block = 1
    min_ops = 1
    exact_ops = 1
    tail_pct = 50.0
    setup_reps = 3  # set-ups per run; cheap ones repeat for setup_min_s too
    setup_min_s = 0.0

    def __init__(self, juna, work_dir: str):
        self.j = juna
        self.work = work_dir
        self.setup_errors: list[str] = []  # failed checks of set-up outputs
        self.setup_calls: list[tuple[str, float, float]] = []  # (name, start, seconds)

    # -- hooks -------------------------------------------------------------
    def setup(self):
        """One full set-up; stores what the ops need on self."""
        raise NotImplementedError

    def fingerprint(self):
        """Identifies what the set-up produced; must repeat across set-ups."""
        raise NotImplementedError

    def items(self, seed: int):
        raise NotImplementedError

    def prepare(self, batch):
        """Untimed: turn a batch of items into call arguments."""
        return batch

    def cleanup(self, args):
        pass

    def run(self, arg):
        raise NotImplementedError

    def check(self, item, out) -> str | None:
        """None when the output is correct, else what is wrong."""
        raise NotImplementedError

    def units(self, out) -> int:
        """Operations one timed call completes."""
        return 1

    def latency(self, out, seconds: float) -> float:
        """Latency sample of one timed call, in seconds per operation."""
        return seconds

    def mul_per_digest(self, records) -> float:
        raise NotImplementedError

    def trials_per_search(self, records) -> float:
        return 0.0

    def extra(self, records) -> dict:
        """Workload-specific figures for the detail line."""
        return {}

    def describe(self) -> dict:
        return {}


class _Digest(Workload):
    """Bulk compress.digest with one reused context."""

    block = 128
    tail_pct = 95.0

    def fingerprint(self):
        return (self.pub.M, hashlib.sha256(repr(self.pub.C).encode()).hexdigest())

    def items(self, seed):
        return inputs.digest_messages(seed, self.n)

    def run(self, item):
        ctx = self.ctx
        before = ctx.mulcount
        d = self.j.compress.digest(self.pub, self.j.bitcodec.BitString.from_int(item[1], self.n), ctx)
        return d.value, ctx.mulcount - before

    def check(self, item, out):
        value, muls = out
        if value != oracle.digest_value(self.pub.C, self.pub.M, item[1], self.n):
            return f"digest mismatch for {item[0]} message"
        if muls > 2 * self.n:
            return f"mulcount {muls} above 2n"
        return None

    def mul_per_digest(self, records):
        return statistics.fmean(out[1] for _, out, _ in records)

    def extra(self, records):
        by_class = {}
        for item, _, secs in records:
            by_class.setdefault(item[0], []).append(secs)
        return {f"{k}_p50_ms": _ms_median(v) for k, v in sorted(by_class.items())}

    def describe(self):
        return {"density_mix": dict(inputs.DIGEST_MIX), "sparse_ones": inputs.SPARSE_ONES,
                "dense_zeros": inputs.DENSE_ZEROS}


class Digest256(_Digest):
    name = "digest-256"
    min_ops = 2_000
    exact_ops = 2_000
    setup_reps = 5
    setup_min_s = 0.3

    def setup(self):
        self.pub = self.j.params.bundled_public_params()
        self.ctx = self.pub.context()
        self.n = self.pub.n


class Digest4096(_Digest):
    name = "digest-4096"
    block = 8
    min_ops = 800
    exact_ops = 800

    def setup(self):
        rng = random.Random(KEYGEN_SEED)
        self.pub, _ = self.j.params.initialize(rng=rng, **KEYGEN)
        self.ctx = self.pub.context()
        self.n = self.pub.n

    def describe(self):
        return dict(super().describe(), keygen=KEYGEN, keygen_seed=KEYGEN_SEED)


def _read_pub(path):
    """(m, M, C) from a JUNA-PUB file, read without juna."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().split("\n")
    fields = [line.partition("=") for line in lines[1:] if line]
    m, M = (next(int(v) for k, _, v in fields if k == key) for key in ("m", "M"))
    return m, M, tuple(int(v) for k, _, v in fields if k == "C")


class Cli4096(Workload):
    """In-process juna.cli.main calls against a 232/4096 pair made at set-up.

    Set-up is what an operator does once per key pair: `juna keygen`, then
    the full audit `juna validate --pub --priv`.  The audit is not in the
    timed cycle: its pure-Python gcd scan feels host contention about half
    as much as the reference kernel does, so the host-speed correction left
    throughput spreads of 12-19% with it in the cycle.
    """

    name = "cli-4096"
    block = 8 * len(inputs.CLI_CYCLE)
    min_ops = 5 * 8 * len(inputs.CLI_CYCLE)
    exact_ops = 8 * len(inputs.CLI_CYCLE)
    tail_pct = 90.0

    def setup(self):
        self.pub_path = os.path.join(self.work, "k.pub")
        self.priv_path = os.path.join(self.work, "k.priv")
        argv = ["keygen", "--seed", str(KEYGEN_SEED), "--p-bits", "32",
                "--out-pub", self.pub_path, "--out-priv", self.priv_path]
        for key in ("m", "n", "nbar"):
            argv += [f"--{key}", str(KEYGEN[key])]
        rc, _, err = self._call(argv)
        if rc != 0:
            raise RuntimeError(f"keygen exited {rc}: {err.strip()}")
        self.m, self.M, self.C = _read_pub(self.pub_path)
        self.n = len(self.C)
        self._files = 0
        t = perf_counter()
        rc, out, _ = self._call(["validate", "--pub", self.pub_path, "--priv", self.priv_path])
        self.setup_calls.append(("audit", t, perf_counter() - t))
        err = self.check(("audit", None), (rc, out))
        if err:
            self.setup_errors.append(err)

    def fingerprint(self):
        digests = []
        for path in (self.pub_path, self.priv_path):
            with open(path, "rb") as fh:
                digests.append(hashlib.sha256(fh.read()).hexdigest())
        return tuple(digests)

    def items(self, seed):
        return inputs.cli_requests(seed, self.n)

    def prepare(self, batch):
        out = []
        for kind, v in batch:
            if kind == "hash-hex":
                argv = ["hash", "--pub", self.pub_path, "--msg-hex",
                        format(v, f"0{self.n // 4}x"), "--bits", str(self.n)]
            elif kind == "hash-file":
                self._files += 1
                path = os.path.join(self.work, f"msg{self._files}.bin")
                with open(path, "wb") as fh:
                    fh.write(v.to_bytes(self.n // 8, "big"))
                argv = ["hash", "--pub", self.pub_path, "--msg-file", path, "--bits", str(self.n)]
            else:
                argv = ["validate", "--pub", self.pub_path]
            out.append(argv)
        return out

    def cleanup(self, args):
        for argv in args:
            if "--msg-file" in argv:
                os.remove(argv[argv.index("--msg-file") + 1])

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.j.cli.main(argv)
        return rc, out.getvalue(), err.getvalue()

    def run(self, argv):
        rc, out, _ = self._call(argv)
        return rc, out

    def check(self, item, out):
        kind, v = item
        rc, text = out
        if rc != 0:
            return f"{kind} exited {rc}"
        lines = text.splitlines()
        if kind.startswith("hash"):
            fields = dict(line.partition("=")[::2] for line in lines)
            want = format(oracle.digest_value(self.C, self.M, v, self.n), f"0{(self.m + 3) // 4}x")
            if fields.get("digest") != want:
                return f"{kind} digest mismatch"
            if not int(fields.get("mulcount", "-1")) in range(2 * self.n + 1):
                return f"{kind} mulcount {fields.get('mulcount')} outside [0, 2n]"
            return None
        if not lines or any(not line.startswith(("PASS ", "INFO ")) for line in lines):
            return f"{kind} reported a line other than PASS/INFO"
        return None

    def mul_per_digest(self, records):
        counts = []
        for item, (rc, text), _ in records:
            if item[0].startswith("hash"):
                counts += [int(line[9:]) for line in text.splitlines() if line.startswith("mulcount=")]
        return statistics.fmean(counts)

    def extra(self, records):
        by_kind = {}
        for item, _, secs in records:
            kind = "hash" if item[0].startswith("hash") else item[0]
            by_kind.setdefault(kind, []).append(secs)
        return {
            "cli_hash_p50_ms": _ms_median(by_kind.get("hash", [])),
            "cli_validate_p50_ms": _ms_median(by_kind.get("validate", [])),
            "calls_per_kind": {k: len(v) for k, v in sorted(by_kind.items())},
        }

    def describe(self):
        return {"cycle": list(inputs.CLI_CYCLE), "set_up": "keygen, then validate --pub --priv",
                "keygen": KEYGEN, "keygen_seed": KEYGEN_SEED, "messages": "uniform nonzero n-bit"}


class Birthday20(Workload):
    """attacks.birthday_search on the bundled parameters; one call is one search.

    Time to a collision depends on the search seed far more than on the
    code, so throughput and latency are per trial: ops_per_s counts trials
    and a latency sample is one search's time divided by its trials.
    """

    name = "birthday-20"
    min_ops = 20
    exact_ops = 8
    setup_reps = 5
    setup_min_s = 0.3

    setup = Digest256.setup
    fingerprint = _Digest.fingerprint

    def items(self, seed):
        return inputs.birthday_seeds(seed)

    def run(self, seed):
        before = self.ctx.mulcount
        stats = self.j.attacks.birthday_search(
            self.pub, mask_bits=BIRTHDAY_MASK_BITS, budget=BIRTHDAY_BUDGET, seed=seed)
        return stats, self.ctx.mulcount - before

    def check(self, item, out):
        stats, muls = out
        if stats.collision is None:
            return "no collision within budget"
        v1, v2 = (int(str(m), 2) for m in stats.collision)
        if v1 == v2:
            return "reported pair is one message"
        mask = (1 << BIRTHDAY_MASK_BITS) - 1
        n = self.pub.n
        t1 = oracle.digest_value(self.pub.C, self.pub.M, v1, n) & mask
        t2 = oracle.digest_value(self.pub.C, self.pub.M, v2, n) & mask
        if not t1 == t2 == stats.collision_value:
            return "reported pair does not collide"
        if muls > 2 * n * stats.trials:
            return "mulcount above 2n per trial"
        return None

    def units(self, out):
        return out[0].trials

    def latency(self, out, seconds):
        return seconds / out[0].trials

    def mul_per_digest(self, records):
        return sum(out[1] for _, out, _ in records) / sum(out[0].trials for _, out, _ in records)

    def trials_per_search(self, records):
        return statistics.fmean(out[0].trials for _, out, _ in records)

    def extra(self, records):
        return {
            "trials_per_s": sum(out[0].trials for _, out, _ in records)
            / sum(secs for _, _, secs in records),
            "search_p50_s": statistics.median(secs for _, _, secs in records),
        }

    def describe(self):
        return {"mask_bits": BIRTHDAY_MASK_BITS, "budget": BIRTHDAY_BUDGET,
                "op": "one search; throughput and latency per trial"}


WORKLOADS = {w.name: w for w in (Digest256, Digest4096, Cli4096, Birthday20)}
