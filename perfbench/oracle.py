"""Independent reference for the digest, used to check every benchmarked output.

Nothing here imports juna.  A message is an int ``v`` read as ``n`` bits,
most significant bit first (index 0).  The rules are the paper's:

* a 0-bit has shadow 0;
* a 1-bit has shadow 1 + the run of zeros immediately before it;
* the leftmost 1-bit also absorbs the zeros after the rightmost 1-bit;
* the long shadow doubles the shadow when the bit n/2 places away
  (cyclically) is set.

The digest is the product of builtin ``pow(C_i, e_i, M)`` over the long
shadows ``e_i``.
"""

from __future__ import annotations


def set_positions(v: int, n: int) -> list[int]:
    """Indices (0 = most significant) of the 1-bits of an n-bit value, ascending."""
    out = []
    while v:
        low = v & -v
        out.append(n - low.bit_length())
        v ^= low
    out.reverse()
    return out


def long_shadows(v: int, n: int) -> list[int]:
    """The long-shadow vector of a nonzero n-bit message."""
    if v <= 0 or v >> n or n % 2:
        raise ValueError("need a nonzero message of even bit length")
    ones = set_positions(v, n)
    out = [0] * n
    prev = -1
    for i in ones:
        out[i] = i - prev
        prev = i
    out[ones[0]] += n - 1 - ones[-1]
    half = n // 2
    for i in ones:
        partner = i + half if i < half else i - half
        if (v >> (n - 1 - partner)) & 1:
            out[i] *= 2
    return out


def digest_value(C, M: int, v: int, n: int) -> int:
    """prod C_i ** e_i mod M over the long shadows e_i of v."""
    acc = 1
    for c, e in zip(C, long_shadows(v, n)):
        if e:
            acc = acc * pow(c, e, M) % M
    return acc

