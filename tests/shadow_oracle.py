"""The paper's single-pass shadow encoder, for the tests only.

It walks the bits once with a running zero counter, which shares no
code with the run-splitting encoder behind juna.bitcodec.bit_shadow.
"""

from juna.bitcodec import BitString, ShadowString
from juna.errors import ZeroMessageError


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
