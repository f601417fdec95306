"""Dense-prefill cost of LLaVA-NeXT-7B consuming visual tokens.

The model is one: a 7B-class Llama decoder behind a multi-crop vision
frontend, whose shape is the constants below.  Over the prefill length
L = visual + text tokens (by default TEXT_TOKENS, a typical benchmark prompt):

    FLOPs ~= 2 * N_PARAMS * L  +  4 * N_LAYERS * L^2 * HIDDEN_DIM

KV-cache size assumes K and V per layer at fp16.  A count outside its range
or an estimate beyond float64 raises InvalidInputError.
"""

import math
import sys
from contextlib import suppress

from .errors import InvalidInputError
from .tensor_core import _count

HIDDEN_DIM = 4096
N_LAYERS = 32
N_PARAMS = 6_738_415_616
TEXT_TOKENS = 60


def _prefill_flops(seq_visual, text_tokens, name: str) -> float:
    # name: the caller's argument that holds seq_visual, for its refusal
    text = _count(text_tokens, "text_tokens", 1, error=InvalidInputError)
    length = _count(seq_visual, name, 0, error=InvalidInputError) + text
    flops = math.inf
    with suppress(OverflowError):  # a count beyond the float range stays inf
        flops = 2.0 * N_PARAMS * length + 4.0 * N_LAYERS * length * length * HIDDEN_DIM
    if not math.isfinite(flops):
        raise InvalidInputError("the prefill FLOPs estimate overflows float64")
    return flops


def estimate_prefill_flops(seq_visual: int, text_tokens: int = TEXT_TOKENS) -> float:
    """Estimated dense-prefill FLOPs for a given visual token count."""
    return _prefill_flops(seq_visual, text_tokens, "seq_visual")


def estimate_kv_cache_bytes(seq_visual: int) -> int:
    """KV-cache bytes for the visual part of the sequence (K and V per layer)."""
    # K and V per layer, 2 bytes per fp16 value
    visual = _count(seq_visual, "seq_visual", 0, error=InvalidInputError)
    kv_bytes = 2 * N_LAYERS * HIDDEN_DIM * visual * 2
    if kv_bytes > sys.float_info.max:  # an int compares with a float exactly
        raise InvalidInputError("the KV-cache estimate overflows float64")
    return kv_bytes


def flops_reduction(seq_before: int, seq_after: int, text_tokens: int = TEXT_TOKENS) -> float:
    """Fractional FLOPs reduction when shrinking the visual sequence."""
    before = _prefill_flops(seq_before, text_tokens, "seq_before")
    after = _prefill_flops(seq_after, text_tokens, "seq_after")
    return 1.0 - after / before
