"""Dense-prefill cost arithmetic for a decoder LM consuming visual tokens.

The FLOPs estimate combines the linear parameter term with the quadratic
attention term over the full prefill length L = visual + text tokens:

    FLOPs ~= 2 * n_params * L  +  4 * n_layers * L^2 * hidden_dim

KV-cache size assumes K and V per layer at fp16.
"""

from dataclasses import dataclass

from .errors import InvalidInputError
from .tensor_core import _count


@dataclass(frozen=True)
class ModelCostSpec:
    """Shape of the language model behind the cost estimates; counts are stored as ints."""

    hidden_dim: int
    n_layers: int
    n_params: int
    text_tokens: int = 60

    def __post_init__(self):
        for name in ("hidden_dim", "n_layers", "n_params", "text_tokens"):
            count = _count(getattr(self, name), name, 1, error=InvalidInputError)
            object.__setattr__(self, name, count)


# 7B-class decoder (Llama-architecture) behind a high-resolution multi-crop
# vision frontend; text_tokens is a typical benchmark prompt length.
LLAVA_NEXT_7B = ModelCostSpec(
    hidden_dim=4096,
    n_layers=32,
    n_params=6_738_415_616,
    text_tokens=60,
)


def estimate_prefill_flops(seq_visual: int, spec: ModelCostSpec) -> float:
    """Estimated dense-prefill FLOPs for a given visual token count."""
    length = _count(seq_visual, "seq_visual", 0, error=InvalidInputError) + spec.text_tokens
    return 2.0 * spec.n_params * length + 4.0 * spec.n_layers * length * length * spec.hidden_dim


def estimate_kv_cache_bytes(seq_visual: int, spec: ModelCostSpec) -> int:
    """KV-cache bytes for the visual part of the sequence (K and V per layer)."""
    # K and V per layer, 2 bytes per fp16 value
    visual = _count(seq_visual, "seq_visual", 0, error=InvalidInputError)
    return 2 * spec.n_layers * spec.hidden_dim * visual * 2


def flops_reduction(seq_before: int, seq_after: int, spec: ModelCostSpec) -> float:
    """Fractional FLOPs reduction when shrinking the visual sequence."""
    before = estimate_prefill_flops(seq_before, spec)
    after = estimate_prefill_flops(seq_after, spec)
    return 1.0 - after / before
