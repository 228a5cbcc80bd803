"""Command-line entry point.

Subcommands cover parameter generation, hashing, validation, the
comparison hash, reformation, the attack harness, and benchmarking.
Randomized subcommands print their effective seed first so every run
can be reproduced.  Exit codes: 0 success, 1 usage, 2 validation or
parse failure, 3 search exhausted.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

from . import compress, keyfile, params
from .bitcodec import MAX_BITS, BitString, leading_bits, pad_to_length, random_messages
from .errors import DomainError, JunaError, ParseError, SearchExhaustedError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _echo(key, value):
    print(f"{key}={value}")


def _resolve_seed(args) -> int:
    seed = args.seed
    if seed is None:
        seed = int.from_bytes(os.urandom(8), "big")
    _echo("seed", seed)
    return seed


def _load(path, private: bool = False):
    """The public (or private) parameters in the file at path."""
    obj = keyfile.load(path)
    if isinstance(obj, keyfile.PrivateParams) != private:
        raise ParseError(f"{path} does not hold {'private' if private else 'public'} parameters")
    return obj


def _message_from_args(args, n: int) -> tuple[BitString, bool]:
    if args.msg_bits is not None:
        if args.pad and len(args.msg_bits) < n:
            return pad_to_length(args.msg_bits, n), True
        return BitString.from_string(args.msg_bits), False
    if args.msg_hex is not None:
        if args.bits is None:
            raise _UsageError("--msg-hex needs --bits")
        value, take = leading_bits(args.msg_hex, args.bits)
    else:
        if args.bits is None:
            limit = MAX_BITS // 8 + 1
        elif 0 < args.bits <= MAX_BITS:
            limit = (args.bits + 7) // 8
        else:
            raise ParseError(f"--bits must lie in [1, {MAX_BITS}]")
        with open(args.msg_file, "rb") as fh:
            data = fh.read(limit)
        if 8 * len(data) > MAX_BITS:
            raise ParseError(f"message file holds more than {MAX_BITS} bits")
        value, take = leading_bits(data, args.bits)
    if args.pad and take < n:
        return pad_to_length(format(value, f"0{take}b"), n), True
    return BitString(value, take), False


def cmd_keygen(args) -> int:
    if not 1 <= args.p_bits <= 32:
        raise DomainError(f"--p-bits must lie in [1, 32], got {args.p_bits}")
    P = 1 << args.p_bits
    params.check_init_constraints(args.m, args.n, P, args.nbar, not args.test_mode, args.budget)
    if os.path.realpath(args.out_pub) == os.path.realpath(args.out_priv):
        raise DomainError("--out-pub and --out-priv must name different files")
    seed = _resolve_seed(args)
    import random

    rng = random.Random(seed)
    pub, priv = params.initialize(
        m=args.m,
        n=args.n,
        P=P,
        nbar=args.nbar,
        rng=rng,
        production=not args.test_mode,
        budget=args.budget,
    )
    # the private file first: it can regenerate a lost public side, but a
    # public file without its private side can never be used to sign
    keyfile.save(priv, args.out_priv)
    keyfile.save(pub, args.out_pub)
    _echo("m", pub.m)
    _echo("n", pub.n)
    _echo("M", pub.M)
    _echo("pub", args.out_pub)
    _echo("priv", args.out_priv)
    return 0


def cmd_hash(args) -> int:
    pub = _load(args.pub)
    msg, padded = _message_from_args(args, pub.n)
    ctx = pub.context()
    before = ctx.mulcount
    d = compress.digest(pub, msg, ctx)
    _echo("digest", d.hex)
    _echo("mulcount", ctx.mulcount - before)
    _echo("padded", "true" if padded else "false")
    return 0


def cmd_validate(args) -> int:
    pub = _load(args.pub)
    priv = _load(args.priv, private=True) if args.priv else None
    report = params.validate(pub, priv)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 2


def cmd_chp_setup(args) -> int:
    from . import chp

    chp.check_setup_bits(args.bits)
    seed = _resolve_seed(args)
    import random

    rng = random.Random(seed)
    cp = chp.chp_setup(args.bits, rng)
    text = chp.serialize_chp(cp)
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
        _echo("out", args.out)
    _echo("p", cp.p)
    _echo("q", cp.q)
    _echo("alpha", cp.alpha)
    _echo("beta", cp.beta)
    return 0


def cmd_chp_hash(args) -> int:
    from . import chp

    cp = chp.parse_chp(keyfile.read_ascii(args.params, chp.MAX_FILE_BYTES).decode("ascii"))
    if not chp.validate_chp(cp):
        raise DomainError("p is not a safe prime, or alpha or beta does not generate its group")
    value = chp.chp_hash(cp, args.w1, args.w2)
    _echo("value", value)
    return 0


def cmd_chp_compare(args) -> int:
    from . import chp

    table = chp.compare_costs(args.m, args.n, args.lgp)
    _echo("chp_bit_ops", table["chp_bit_ops"])
    _echo("juna_bit_ops", table["juna_bit_ops"])
    _echo("chp_rate_percent", f"{float(table['chp_rate']) * 100:.2f}")
    _echo("juna_rate_percent", f"{float(table['juna_rate']) * 100:.2f}")
    _echo("chp_birthday_inputs", table["chp_birthday_inputs"])
    _echo("juna_birthday_inputs", table["juna_birthday_inputs"])
    return 0


def cmd_reform(args) -> int:
    from . import reform

    profile = reform.ReformProfile(_load(args.profile))
    n = profile.underlying_bits
    expected = (n + 3) // 4
    if len(args.digest_hex.strip()) != expected:
        raise ParseError(
            f"underlying digest must be {expected} hex digits for {n} bits"
        )
    underlying = BitString.from_hex(args.digest_hex, n)
    d = reform.reform_digest(profile, underlying)
    _echo("underlying_bits", n)
    _echo("output_bits", profile.output_bits)
    _echo("reformed", d.hex)
    return 0


def cmd_attack_mitm(args) -> int:
    from . import attacks

    inst = attacks.parse_instance(
        keyfile.read_ascii(args.instance, attacks.MAX_INSTANCE_BYTES).decode("ascii"))
    bits = attacks.mitm_subset_sum(inst)
    if bits is None:
        _echo("solution", "none")
    else:
        _echo("solution", "".join(str(b) for b in bits))
    return 0


def cmd_attack_birthday(args) -> int:
    from . import attacks

    pub = _load(args.pub)
    attacks.check_birthday(pub, args.mask_bits, args.budget)
    seed = _resolve_seed(args)
    stats = attacks.birthday_search(
        pub, mask_bits=args.mask_bits, budget=args.budget, seed=seed
    )
    _echo("note", "digest truncated to mask-bits: testing aid, not a mode of the hash")
    _echo("mask_bits", stats.mask_bits)
    _echo("trials", stats.trials)
    _echo("threshold", f"{stats.threshold:.1f}")
    if stats.collision is None:
        _echo("collision", "none")
    else:
        m1, m2 = stats.collision
        _echo("collision", "found")
        _echo("msg1", m1)
        _echo("msg2", m2)
        _echo("truncated_value", stats.collision_value)
    if args.csv:
        new = not os.path.exists(args.csv)
        with open(args.csv, "a", encoding="ascii") as fh:
            if new:
                fh.write("seed,mask_bits,budget,trials,found\n")
            fh.write(
                f"{seed},{stats.mask_bits},{args.budget},{stats.trials},"
                f"{int(stats.collision is not None)}\n"
            )
    return 0


def cmd_attack_brute(args) -> int:
    from . import attacks

    pub = _load(args.pub)
    priv = _load(args.priv, private=True) if args.priv else None
    pairs = attacks.brute_force_collision(pub)
    _echo("pairs", len(pairs))
    for i, pair in enumerate(pairs):
        prefix = f"pair{i}"
        _echo(f"{prefix}_msg1", pair.msg1)
        _echo(f"{prefix}_msg2", pair.msg2)
        _echo(f"{prefix}_digest", pair.digest_value)
        _echo(f"{prefix}_product_is_one", str(pair.product_is_one).lower())
        if priv is not None:
            cert = params.certify_collision(priv, pub, pair.msg1, pair.msg2)
            _echo(f"{prefix}_certified", str(cert.holds).lower())
    return 0


def cmd_bench(args) -> int:
    if args.iters < 1:
        raise DomainError(f"--iters must be at least 1, got {args.iters}")
    seed = _resolve_seed(args)
    pub = _load(args.pub)
    ctx = pub.context()
    counts = []
    start = time.perf_counter()
    for v in random_messages(seed, pub.n, args.iters):
        msg = BitString.from_int(v, pub.n)
        before = ctx.mulcount
        compress.digest(pub, msg, ctx)
        counts.append(ctx.mulcount - before)
    elapsed = time.perf_counter() - start
    _echo("iters", args.iters)
    _echo("mulcount_min", min(counts))
    _echo("mulcount_max", max(counts))
    _echo("mulcount_mean", f"{sum(counts) / len(counts):.2f}")
    _echo("mulcount_bound", 2 * pub.n)
    _echo("bound_respected", str(max(counts) <= 2 * pub.n).lower())
    _echo("bit_ops_estimate", 4 * pub.n * pub.m * pub.m)
    _echo("seconds", f"{elapsed:.4f}")
    return 0


@functools.cache
def build_parser() -> _Parser:
    """The argparse tree, built once per process: parsing does not change it."""
    parser = _Parser(prog="juna", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a parameter pair")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p-bits", type=int, required=True, dest="p_bits")
    p.add_argument("--nbar", type=int, required=True)
    p.add_argument("--out-pub", required=True)
    p.add_argument("--out-priv", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--test-mode",
        action="store_true",
        help="relax the production size floors (m >= 12, n >= 4)",
    )
    p.add_argument("--budget", type=int, help="cap on safe-prime candidates examined")
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("hash", help="hash a message")
    p.add_argument("--pub", required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--msg-bits", dest="msg_bits")
    src.add_argument("--msg-file", dest="msg_file")
    src.add_argument("--msg-hex", dest="msg_hex")
    p.add_argument("--bits", type=int, help="bit count for hex or file input")
    p.add_argument(
        "--pad",
        action="store_true",
        help="pad a short message with 1 then zeros (not part of the hash definition)",
    )
    p.set_defaults(func=cmd_hash)

    p = sub.add_parser("validate", help="check a parameter file")
    p.add_argument("--pub", required=True)
    p.add_argument("--priv")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("chp", help="comparison hash")
    chp_sub = p.add_subparsers(dest="chp_command", required=True)
    q = chp_sub.add_parser("setup")
    q.add_argument("--bits", type=int, required=True)
    q.add_argument("--seed", type=int)
    q.add_argument("--out")
    q.set_defaults(func=cmd_chp_setup)
    q = chp_sub.add_parser("hash")
    q.add_argument("--params", required=True)
    q.add_argument("--w1", type=int, required=True)
    q.add_argument("--w2", type=int, required=True)
    q.set_defaults(func=cmd_chp_hash)
    q = chp_sub.add_parser("compare")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--lgp", type=int, required=True)
    q.set_defaults(func=cmd_chp_compare)

    p = sub.add_parser("reform", help="compress an external hash digest")
    p.add_argument("--profile", required=True)
    p.add_argument("--digest-hex", required=True, dest="digest_hex")
    p.set_defaults(func=cmd_reform)

    p = sub.add_parser("attack", help="cryptanalysis harness")
    atk = p.add_subparsers(dest="attack_command", required=True)
    q = atk.add_parser("mitm")
    q.add_argument("--instance", required=True)
    q.set_defaults(func=cmd_attack_mitm)
    q = atk.add_parser("birthday")
    q.add_argument("--pub", required=True)
    q.add_argument("--mask-bits", type=int, required=True, dest="mask_bits")
    q.add_argument("--budget", type=int, required=True)
    q.add_argument("--seed", type=int)
    q.add_argument("--csv")
    q.set_defaults(func=cmd_attack_birthday)
    q = atk.add_parser("brute")
    q.add_argument("--pub", required=True)
    q.add_argument("--priv")
    q.set_defaults(func=cmd_attack_brute)

    p = sub.add_parser("bench", help="measure multiplication counts")
    p.add_argument("--pub", required=True)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SearchExhaustedError as exc:
        print(f"search exhausted: {exc}", file=sys.stderr)
        return 3
    except (JunaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
