"""Seeded input generators.  The same seed always gives the same inputs.

Every stream draws from its own ``random.Random`` keyed by a tag and the
run seed, so adding a stream never shifts another one.
"""

from __future__ import annotations

import random

# Bit-density mix of the bulk digest workloads: (class, share).  Sparse
# messages have long zero runs and so large shadows; near-all-ones
# messages have long shadows close to 2, summing towards 2n.
DIGEST_MIX = (("uniform", 0.70), ("sparse", 0.15), ("dense", 0.15))
SPARSE_ONES = (1, 8)  # a sparse message sets this many bits, inclusive range
DENSE_ZEROS = (0, 8)  # a near-all-ones message clears this many bits

# The operator's request cycle for cli-4096: two hashes and a public check.
# The full audit with the private side runs once per key pair, at set-up.
CLI_CYCLE = ("hash-hex", "hash-file", "validate")


def stream(tag: str, seed: int) -> random.Random:
    return random.Random(f"{tag}:{seed}")


def uniform_message(rng: random.Random, n: int) -> int:
    v = 0
    while v == 0:
        v = rng.getrandbits(n)
    return v


def mixed_message(rng: random.Random, n: int) -> tuple[str, int]:
    """One message of the density mix, as (class, value)."""
    r = rng.random()
    for kind, share in DIGEST_MIX:
        r -= share
        if r < 0:
            break
    if kind == "uniform":
        return kind, uniform_message(rng, n)
    if kind == "sparse":
        bits = rng.sample(range(n), rng.randint(*SPARSE_ONES))
        return kind, sum(1 << b for b in bits)
    bits = rng.sample(range(n), rng.randint(*DENSE_ZEROS))
    return kind, ((1 << n) - 1) ^ sum(1 << b for b in bits)


def digest_messages(seed: int, n: int):
    """Endless stream of (class, value) messages for a bulk digest workload."""
    rng = stream(f"digest-{n}", seed)
    while True:
        yield mixed_message(rng, n)


def cli_requests(seed: int, n: int):
    """Endless stream of (kind, message value or None) following CLI_CYCLE."""
    rng = stream(f"cli-{n}", seed)
    while True:
        for kind in CLI_CYCLE:
            yield kind, uniform_message(rng, n) if kind.startswith("hash") else None


def birthday_seeds(seed: int):
    """Endless stream of per-search seeds for the birthday workload."""
    rng = stream("birthday", seed)
    while True:
        yield rng.getrandbits(32)
