"""Layer-wise audiovisual token pruning toolkit.

Library + CLI for progressive sigmoid-scheduled pruning of interleaved
audio/video token streams: query-guided importance scoring, temporal
diversity-aware selection, intra-modality pre-pruning, a deterministic toy
decoder harness, and analytic cost diagnostics.
"""

from .errors import (
    DegenerateInput,
    Infeasible,
    InvalidInput,
    SchemaError,
)
from .harness import (
    AttentionRecord,
    ToyDecoder,
    run_with_injected_attention,
    run_with_pruning,
    sinusoidal_positions,
)
from .importance import (
    Selector,
    TdsConfig,
    plain_select,
    prune_count,
    query_importance,
    random_select,
    tds_select,
)
from .intra import (
    IntraPlan,
    IntraReport,
    apply_intra,
    audio_intra_prune,
    make_intra_plan,
    round_half_away,
    video_ttm,
)
from .metrics import (
    CosineHistogram,
    PairKind,
    cosine_distribution,
    cost_model,
    retention_per_modality,
    top20_recall,
)
from .numerics import Rng, derive_seed, pca2, splitmix64
from .schedule import (
    PruneScheduleConfig,
    ScheduleKind,
    calibrate_p_final,
    mean_retention,
    prune_ratio,
    retention_trace,
)
from .sequence import (
    ChunkSpec,
    InterleavedSequence,
    Modality,
    TokenTable,
    build_sequence,
    synth_embeddings,
)
from .trace import LayerRecord, PruneTrace

__version__ = "0.1.0"

__all__ = [
    "AttentionRecord",
    "ChunkSpec",
    "CosineHistogram",
    "DegenerateInput",
    "Infeasible",
    "InterleavedSequence",
    "IntraPlan",
    "IntraReport",
    "InvalidInput",
    "LayerRecord",
    "Modality",
    "PairKind",
    "PruneScheduleConfig",
    "PruneTrace",
    "Rng",
    "ScheduleKind",
    "SchemaError",
    "Selector",
    "TdsConfig",
    "TokenTable",
    "ToyDecoder",
    "apply_intra",
    "audio_intra_prune",
    "build_sequence",
    "calibrate_p_final",
    "cosine_distribution",
    "cost_model",
    "derive_seed",
    "make_intra_plan",
    "mean_retention",
    "pca2",
    "plain_select",
    "prune_count",
    "prune_ratio",
    "query_importance",
    "random_select",
    "retention_per_modality",
    "retention_trace",
    "round_half_away",
    "run_with_injected_attention",
    "run_with_pruning",
    "sinusoidal_positions",
    "splitmix64",
    "synth_embeddings",
    "tds_select",
    "top20_recall",
    "video_ttm",
]
