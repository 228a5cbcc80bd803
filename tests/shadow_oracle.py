"""Dense shadow encoders, for the tests only.

bit_shadow_streaming is the paper's single-pass encoder: it walks the bits
once with a running zero counter.  dense_shadows and dense_long_shadows
fill one entry per position from the zero runs, as juna.bitcodec did
before it grouped the 1-bits by value.
"""

from operator import lshift

from juna.bitcodec import BitString, ShadowString
from juna.errors import ZeroMessageError


def dense_shadows(bits: str) -> list[int]:
    """The shadow of every position of a 0/1 string."""
    # runs[k] is the zero run before the (k+1)-th 1-bit, runs[-1] the tail
    runs = bits.split("1")
    if len(runs) == 1:
        raise ZeroMessageError("message must contain at least one 1-bit")
    out = [0] * len(bits)
    i = -1
    for run in runs[:-1]:
        step = len(run) + 1
        i += step
        out[i] = step
    out[len(runs[0])] += len(runs[-1])
    return out


def dense_long_shadows(bits: str) -> list[int]:
    """The long shadow of every position: the shadow, doubled when the
    bit halfway across the string is set."""
    half = len(bits) // 2
    partners = [b == "1" for b in bits[half:] + bits[:half]]
    return list(map(lshift, dense_shadows(bits), partners))


def bit_shadow_streaming(msg: BitString) -> ShadowString:
    """Shadow encoding as the single left-to-right pass of the compressor.

    A running zero counter is flushed into each 1-bit; the position of
    the leftmost 1-bit is remembered and the trailing zero run is added
    there in a final fix-up step.
    """
    if not msg.value:
        raise ZeroMessageError("message must contain at least one 1-bit")
    out = []
    k = 0
    sbar = None
    for i, b in enumerate(str(msg), start=1):
        if b == "0":
            k += 1
            out.append(0)
        else:
            if i == k + 1:
                sbar = i
            out.append(k + 1)
            k = 0
    out[sbar - 1] += k
    return ShadowString(tuple(out))
