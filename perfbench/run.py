"""Benchmark of the juna package, end to end and layer by layer.

    python3 perfbench/run.py --workload digest-256 --seed 1 --seconds 10 --trace 0

Run from the repository root; juna is imported from ``src/``.  One
process, one thread, one caller in a closed loop: each call starts when
the previous one returns.  The run sets up (several times, reporting the
median), times calls for ``--seconds``, then checks every output against
``oracle`` and prints a detail line and, last, the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are END_TO_END, their timings scaled to a
reference host speed by ``hostspeed``.  With ``--trace 1`` they
are PER_LAYER: blocks of calls run untraced and then, on the same inputs,
under the span wrappers of ``spans``; the spans go to
``perfbench/.run/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = HERE / ".run"

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "mul_per_digest": "count",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "bitcodec.from_int_us": "us",
    "bitcodec.long_shadow_us": "us",
    "compress.accumulate_us": "us",
    "compress.mul_max": "count",
    "compress.mul_bound_ratio": "ratio",
    "numtheory.primality_calls": "count/op",
    "numtheory.primality_ms": "ms",
    "numtheory.safe_prime_ms": "ms",
    "numtheory.safe_prime_tests": "count",
    "numtheory.safe_prime_yield": "1/test",
    "numtheory.mod_pow_calls": "count",
    "numtheory.mod_pow_ms": "ms",
    "params.parse_ms": "ms",
    "params.context_ms": "ms",
    "params.validate_self_ms": "ms",
    "params.initialize_ms": "ms",
    "coprime.verify_ms": "ms",
    "coprime.generate_ms": "ms",
    "cli.self_ms": "ms",
    "attacks.trials_per_search": "count",
    "attacks.self_us_per_trial": "us",
    "trace.overhead_frac": "ratio",
    "trace.op_p50_ms": "ms",
    "trace.covered_frac": "ratio",
}


def load_juna():
    """Import juna from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "juna" / "__init__.py").is_file():
        sys.exit(f"error: no juna sources at {src}")
    sys.path.insert(0, str(src))
    import juna
    from juna import attacks, bitcodec, cli, compress, params  # noqa: F401

    if Path(juna.__file__).resolve().parent != src / "juna":
        sys.exit(f"error: imported juna from {juna.__file__}, not {src}")
    return juna


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks; percentile(v, 50) is the median."""
    s = sorted(values)
    pos = (len(s) - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def set_up(wl):
    """Set up setup_reps times (and for at least setup_min_s).

    Returns the (start, seconds) of each set-up and how many did not
    reproduce the first.  The first is timed from the start of this file,
    so it includes the juna import.
    """
    wl.setup()
    runs = [(T_START, perf_counter() - T_START)]
    first = wl.fingerprint()
    mismatches = 0
    while (len(runs) < wl.setup_reps or sum(r[1] for r in runs) < wl.setup_min_s) and len(runs) < 200:
        t = perf_counter()
        wl.setup()
        runs.append((t, perf_counter() - t))
        mismatches += wl.fingerprint() != first
    return runs, mismatches


def run_block(wl, batch, args, tracer=None):
    """Records (item, output, seconds, start) of each call."""
    records = []
    for item, arg in zip(batch, args):
        sid = tracer.open("op") if tracer else None
        t = perf_counter()
        try:
            out = wl.run(arg)
        except Exception as exc:  # a failed call is counted, not fatal
            out = exc
        secs = perf_counter() - t
        if tracer:
            tracer.close(sid)
        records.append((item, out, secs, t))
    return records


def timed_phase(wl, seed: int, seconds: float, tracer=None):
    """Blocks of calls until --seconds have been timed and enough calls made.

    A block is not started when it would likely end more than half a block
    past the deadline.  With a tracer, each block runs again traced on the
    same inputs right after its untraced run, so drift in host speed hits
    both sides alike.  Peak memory is read once the exact_ops prefix is done,
    before the benchmark's own records grow with the number of calls.
    """
    items = wl.items(seed)
    untraced, traced = [], []
    t_untraced = t_traced = last = 0.0
    rss_mb = None
    need = wl.exact_ops if tracer else wl.min_ops
    while len(untraced) < need or t_untraced + t_traced + last / 2 < seconds:
        batch = [next(items) for _ in range(wl.block)]
        args = wl.prepare(batch)
        t = perf_counter()
        untraced += run_block(wl, batch, args)
        last = perf_counter() - t
        t_untraced += last
        if tracer:
            with tracer.installed():
                t = perf_counter()
                traced += run_block(wl, batch, args, tracer)
                dt = perf_counter() - t
            t_traced += dt
            last += dt
        wl.cleanup(args)
        if rss_mb is None and len(untraced) >= wl.exact_ops:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return untraced, traced, t_untraced, t_traced, rss_mb


def check_all(wl, untraced, traced):
    """Errors per failed call; a traced call must also match its untraced twin."""
    errors = []
    for i, (item, out, *_) in enumerate(untraced + traced):
        if isinstance(out, Exception):
            err = f"{type(out).__name__}: {out}"
        else:
            err = wl.check(item, out)
            if err is None and i >= len(untraced) and out != untraced[i - len(untraced)][1]:
                err = "traced output differs from untraced"
        if err:
            errors.append(err)
    return errors


def end_to_end(wl, setup_times, records, samples, rss_mb):
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": sum(wl.units(out) for _, out, _ in records) / sum(secs for _, _, secs in records),
        "op_p50_ms": statistics.median(samples) * 1e3,
        "op_tail_ms": percentile(samples, wl.tail_pct) * 1e3,
        "mul_per_digest": wl.mul_per_digest(records[: wl.exact_ops]),
        "peak_rss_mb": rss_mb,
    }


def per_layer(wl, tracer, untraced, traced, t_untraced, t_traced):
    from spans import END, NAME, PARENT, START, Totals

    spans = tracer.spans
    setup_roots = {i for i, s in enumerate(spans) if s[PARENT] < 0 and s[NAME] == "setup"}
    op_roots = {i for i, s in enumerate(spans) if s[PARENT] < 0 and s[NAME] == "op"}
    T = Totals(spans, op_roots)
    S = Totals(spans, setup_roots)
    ops = len(op_roots)
    digests = T.calls.get("compress.digest", 0)

    def per_digest(x):
        return x / digests if digests else 0.0

    def per_op(table, name):
        return table.get(name, 0.0) / ops

    muls = T.tags.get("compress.digest", [0])
    tests = S.calls_under("numtheory.is_probable_prime", "numtheory.find_safe_prime")
    trials = sum(wl.units(out) for _, out, *_ in traced)
    search_self = T.self_time.get("attacks.birthday_search")
    op_time = sum(spans[i][END] - spans[i][START] for i in op_roots)
    covered = sum(s[END] - s[START] for s in spans if s[PARENT] in op_roots)
    return {
        "bitcodec.from_int_us": per_digest(T.total.get("bitcodec.from_int", 0.0)) * 1e6,
        "bitcodec.long_shadow_us": per_digest(T.total.get("bitcodec.bit_long_shadow", 0.0)) * 1e6,
        "compress.accumulate_us": per_digest(T.self_time.get("compress.digest", 0.0)) * 1e6,
        "compress.mul_max": max(muls),
        "compress.mul_bound_ratio": max(muls) / (2 * wl.n),
        "numtheory.primality_calls": per_op(T.calls, "numtheory.is_probable_prime"),
        "numtheory.primality_ms": per_op(T.total, "numtheory.is_probable_prime") * 1e3,
        "numtheory.safe_prime_ms": S.total.get("numtheory.find_safe_prime", 0.0) * 1e3,
        "numtheory.safe_prime_tests": tests,
        "numtheory.safe_prime_yield": S.calls.get("numtheory.find_safe_prime", 0) / tests if tests else 0.0,
        "numtheory.mod_pow_calls": S.calls.get("numtheory.mod_pow", 0),
        "numtheory.mod_pow_ms": S.total.get("numtheory.mod_pow", 0.0) * 1e3,
        "params.parse_ms": per_op(T.total, "params.parse") * 1e3,
        "params.context_ms": per_op(T.total, "params.context") * 1e3,
        "params.validate_self_ms": S.self_time.get("params.validate", 0.0) * 1e3,
        "params.initialize_ms": S.total.get("params.initialize", 0.0) * 1e3,
        "coprime.verify_ms": S.total.get("coprime.verify", 0.0) * 1e3,
        "coprime.generate_ms": S.total.get("coprime.generate", 0.0) * 1e3,
        "cli.self_ms": per_op(T.self_time, "cli.main") * 1e3,
        "attacks.trials_per_search": wl.trials_per_search([r[:3] for r in untraced[: wl.exact_ops]]),
        "attacks.self_us_per_trial": search_self / trials * 1e6 if search_self else 0.0,
        "trace.overhead_frac": 1 - t_untraced / t_traced,
        "trace.op_p50_ms": statistics.median(wl.latency(out, secs) for _, out, secs, _ in traced) * 1e3,
        "trace.covered_frac": covered / op_time,
    }


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256():
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or None


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    juna = load_juna()
    RUN_DIR.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=RUN_DIR)
    try:
        wl = WORKLOADS[args.workload](juna, work)
        if args.trace:
            from spans import Tracer

            tracer, host = Tracer(), None
            with tracer.installed():
                sid = tracer.open("setup")
                wl.setup()
                tracer.close(sid)
            setup_runs, mismatches = [], 0
            untraced, traced, t_untraced, t_traced, rss_mb = timed_phase(wl, args.seed, args.seconds, tracer)
        else:
            tracer, host = None, HostSpeed()
            with host.sampling():
                setup_runs, mismatches = set_up(wl)
                untraced, traced, t_untraced, t_traced, rss_mb = timed_phase(wl, args.seed, args.seconds)
        errors = check_all(wl, untraced, traced)
        errors += ["set-up output differs between repetitions"] * mismatches + wl.setup_errors
        good = [r for r in untraced if not isinstance(r[1], Exception)]
        if not good:
            sys.exit(f"error: every call failed: {sorted(set(errors))[:3]}")
        raw = [r[:3] for r in good]
        ok = [(item, out, host.scaled(t, secs)) for item, out, secs, t in good] if host else raw
        setup_times = [host.scaled(t, secs) for t, secs in setup_runs] if host else []
        setup_calls = {}
        for name, t, secs in wl.setup_calls:
            setup_calls.setdefault(name, []).append(host.scaled(t, secs) if host else secs)
        samples = [wl.latency(out, secs) for _, out, secs in ok]
        if args.trace:
            metrics = per_layer(wl, tracer, untraced, traced, t_untraced, t_traced)
            units = PER_LAYER
            tracer.write(RUN_DIR / f"spans-{wl.name}-{args.seed}.jsonl")
        else:
            metrics = end_to_end(wl, setup_times, ok, samples, rss_mb)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(untraced) + len(traced) + max(1, len(setup_runs))
    tail = percentile(samples, wl.tail_pct)
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "setup_runs": {"count": len(setup_runs), "first_s": setup_times[0], "min_s": min(setup_times),
                       "max_s": max(setup_times)} if setup_runs else None,
        "setup_calls_p50_s": {k: statistics.median(v) for k, v in setup_calls.items()},
        "timed_s": t_untraced,
        "traced_s": t_traced,
        "op_tail": {"percentile": wl.tail_pct, "samples": len(samples),
                    "beyond": sum(x > tail for x in samples)},
        "fail_frac": len(errors) / attempted,
        "errors": sorted(set(errors))[:10],
        "host": {
            "kernel_p50_ms": statistics.median(host.cost) * 1e3,
            "kernel_samples": len(host.cost),
            "raw": end_to_end(wl, [r[1] for r in setup_runs], raw, [wl.latency(o, s) for _, o, s in raw], rss_mb),
        } if host else None,
        "extra": wl.extra(ok),
        "inputs": wl.describe(),
    }
    print(json.dumps(detail))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
