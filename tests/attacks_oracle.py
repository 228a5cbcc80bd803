"""The tests' oracles for juna.attacks.

Exhaustive subset-sum search is the oracle for the meet-in-the-middle
solver: it enumerates assignments with bound pruning and shares no code
with the sorted-table split of juna.attacks.mitm_subset_sum.  The Gray
walk that digests every message whole is the oracle for the birthday
search, which takes each digest from the last.  The knapsack
density is the figure README quotes for the additive problem.
"""

import random
from fractions import Fraction

from juna.attacks import (
    BIRTHDAY_COEFFICIENT,
    BirthdayStats,
    SubsetSumInstance,
    check_birthday,
)
from juna.bitcodec import BitString
from juna.compress import digest
from juna.errors import DomainError, InstanceTooLargeError
from juna.numtheory import ceil_lg

BRUTE_CAP = 24


def brute_force_solve(
    inst: SubsetSumInstance, cap: int = BRUTE_CAP
) -> list[tuple[int, ...]]:
    """Every assignment hitting the target, by exhaustive search.

    Weights are walked in descending order with two-sided bound pruning
    (all weights are positive), which returns exactly the set a plain
    2^n enumeration would.  Output is sorted for determinism.
    """
    n = inst.n
    if n > cap:
        raise InstanceTooLargeError(f"n = {n} exceeds cap {cap}")
    order = sorted(range(n), key=lambda i: -inst.c[i])
    weights = [inst.c[i] for i in order]
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[i]

    solutions: list[tuple[int, ...]] = []
    chosen = [0] * n

    def walk(k: int, remaining: int):
        if remaining > suffix[k]:
            return
        if k == n:
            if remaining == 0:
                bits = [0] * n
                for pos, flag in zip(order, chosen):
                    bits[pos] = flag
                solutions.append(tuple(bits))
            return
        if remaining == 0:
            # only the all-zero tail can finish
            bits = [0] * n
            for pos, flag in zip(order[:k], chosen[:k]):
                bits[pos] = flag
            solutions.append(tuple(bits))
            return
        if weights[k] <= remaining:
            chosen[k] = 1
            walk(k + 1, remaining - weights[k])
            chosen[k] = 0
        walk(k + 1, remaining)

    walk(0, inst.s)
    solutions.sort()
    return solutions



def birthday_search_serial(pub, mask_bits: int, budget: int, seed: int) -> BirthdayStats:
    """juna.attacks.birthday_search with every message digested whole: the
    first nonzero draw of random.Random(seed) xor each Gray code t ^ (t >> 1)
    in turn, the zero message skipped, until a collision, budget trials or
    the end of the n-bit space."""
    check_birthday(pub, mask_bits, budget)
    n = pub.n
    mask = (1 << mask_bits) - 1
    rng = random.Random(seed)
    seen: dict[int, int] = {}
    threshold = BIRTHDAY_COEFFICIENT * 2 ** (mask_bits / 2)
    start = 0
    while start == 0:
        start = rng.getrandbits(n)

    trials = 0
    for t in range(1 << n):
        v = start ^ t ^ (t >> 1)
        if v == 0:
            continue
        trials += 1
        msg = BitString.from_int(v, n)
        value = digest(pub, msg).value & mask
        prior = seen.setdefault(value, v)
        if prior != v:
            return BirthdayStats(
                trials=trials,
                collision=(BitString.from_int(prior, n), msg),
                threshold=threshold,
                seed=seed,
                mask_bits=mask_bits,
                collision_value=value,
            )
        if trials == budget:
            break
    return BirthdayStats(
        trials=trials, collision=None, threshold=threshold, seed=seed, mask_bits=mask_bits
    )


def assp_density(n: int, m: int) -> Fraction:
    """Knapsack density of the additive problem: n * ceil(lg n) / m."""
    if n < 2 or m < 2:
        raise DomainError("need n, m >= 2")
    return Fraction(n * ceil_lg(n), m)
