"""adaptok: entropy-adaptive visual token subset selection.

Measures a sample's semantic prominence by one signal, the spectral entropy
of its token matrix (``spectral_entropy``), splits a fixed token budget between
saliency-driven and coverage-driven selection through a sigmoidal mapping,
and runs a two-stage selection: attention top-k, then diversity completion
(greedy DPP MAP by default, farthest point sampling and facility location
as alternates).  ``compress`` is the one entry to both stages; with
``t_sal=0`` it runs the diversity stage alone.
"""

from .budget import (
    DEFAULT_TAU,
    DIVERSITY_METHODS,
    MU_PRESETS,
    BudgetSplit,
    CompressConfig,
    allocate_budget,
)
from .costmodel import estimate_kv_cache_bytes, estimate_prefill_flops, flops_reduction
from .errors import (
    AdaptokError,
    BadMagicError,
    DegenerateInputError,
    FormatError,
    InvalidBudgetError,
    InvalidInputError,
    NonFiniteValueError,
    TrailingDataError,
    TruncatedPayloadError,
    ValueRangeError,
)
from .io_formats import (
    read_saliency,
    read_selection_result,
    read_tokens,
    selection_result_from_json,
    selection_result_to_json,
    selection_results_equal,
    write_saliency,
    write_selection_result,
    write_tokens,
)
from .pipeline import SelectionResult, compress
from .prominence import EntropyReport, spectral_entropy
from .selection import reduce_head_attention, saliency_topk
from .synth import subseed_rng, synth_tokens
from .tensor_core import as_token_matrix

__version__ = "0.1.0"

__all__ = [
    "AdaptokError",
    "BadMagicError",
    "BudgetSplit",
    "CompressConfig",
    "DEFAULT_TAU",
    "DIVERSITY_METHODS",
    "DegenerateInputError",
    "EntropyReport",
    "FormatError",
    "InvalidBudgetError",
    "InvalidInputError",
    "MU_PRESETS",
    "NonFiniteValueError",
    "SelectionResult",
    "TrailingDataError",
    "TruncatedPayloadError",
    "ValueRangeError",
    "allocate_budget",
    "as_token_matrix",
    "compress",
    "estimate_kv_cache_bytes",
    "estimate_prefill_flops",
    "flops_reduction",
    "read_saliency",
    "read_selection_result",
    "read_tokens",
    "reduce_head_attention",
    "saliency_topk",
    "selection_result_from_json",
    "selection_result_to_json",
    "selection_results_equal",
    "spectral_entropy",
    "subseed_rng",
    "synth_tokens",
    "write_saliency",
    "write_selection_result",
    "write_tokens",
]
