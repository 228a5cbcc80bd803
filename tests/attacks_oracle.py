"""The tests' oracles for juna.attacks.

Exhaustive subset-sum search is the oracle for the meet-in-the-middle
solver: it enumerates assignments with bound pruning and shares no code
with the sorted-table split of juna.attacks.mitm_subset_sum.  The same
grid of Gray codes, each message built by closed form and digested whole,
is the oracle for the birthday search, which takes each digest from a
row's term and a column's.  The knapsack density is the figure README
quotes for the additive problem.
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



def grid_bits(pub, mask_bits: int, budget: int) -> int:
    """The column bits b of juna.attacks.birthday_search's grid: about a
    quarter of the log of the trials expected, min(mask_bits / 2, w) with w =
    budget.bit_length(), so that 2**b column flips balance about
    trials / 2**b row flips; 0 where the window of int bits below w + 2 is
    wider than n/2 - 2 bits or the initial values multiply to 0 mod M (no
    inverses, so no flips)."""
    w = budget.bit_length()
    product = 1
    for c in pub.C:
        product = product * c % pub.M
    if w + 2 > pub.n // 2 or product == 0:
        return 0
    return min(mask_bits // 4, w // 2)


def search_messages(pub, mask_bits: int, budget: int, seed: int):
    """(row, column, message) of each message juna.attacks.birthday_search
    tries, in order, the message as an int; the search stops it.

    With b = grid_bits(...) > 0: the first nonzero draw of
    random.Random(seed) with int bits 0 and b + 1 set, xor the Gray code of
    the column shifted to int bit 1 and that of the row shifted to int bit
    b + 2, row by row.  With b = 0: the draw xor each Gray code t ^ (t >> 1),
    the zero message skipped, to the end of the n-bit space."""
    n = pub.n
    rng = random.Random(seed)
    start = 0
    while start == 0:
        start = rng.getrandbits(n)
    b = grid_bits(pub, mask_bits, budget)
    if b:
        start |= 1 | 1 << (b + 1)

    def gray(i):
        return i ^ (i >> 1)

    for t in range(1 << n):
        row, column = divmod(t, 1 << b)
        v = start ^ (gray(column) << 1 if b else 0) ^ gray(row) << (b + 2 if b else 0)
        if v:
            yield row, column, v


def birthday_search_serial(pub, mask_bits: int, budget: int, seed: int) -> BirthdayStats:
    """juna.attacks.birthday_search with every message of search_messages
    digested whole, until a collision, budget trials or the end of the n-bit
    space."""
    check_birthday(pub, mask_bits, budget)
    n = pub.n
    mask = (1 << mask_bits) - 1
    seen: dict[int, int] = {}
    threshold = BIRTHDAY_COEFFICIENT * 2 ** (mask_bits / 2)
    trials = 0
    for _, _, v in search_messages(pub, mask_bits, budget, seed):
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
