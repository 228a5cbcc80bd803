"""Exhaustive subset-sum search, the tests' oracle for the meet-in-the-middle
solver in juna.attacks.

It enumerates assignments with bound pruning and shares no code with the
sorted-table split of juna.attacks.mitm_subset_sum.
"""

from juna.attacks import SubsetSumInstance
from juna.errors import InstanceTooLargeError

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

