"""Learned per-block perturbation scales for two-point zeroth-order optimization."""

from .paramspace import (
    BlockPartition,
    NoiseSeed,
    ParamVector,
    PerturbScales,
    block_stats,
    perturb_in_place,
    sample_block_noise,
)
from .pertnn import PertNNParams
from .zo_optimizer import (
    LossPair,
    RunRecord,
    ZOConfig,
    normalize_scales,
    run_population,
)
from .meta_trainer import MetaConfig, train
from .testbeds import MLPTask, QuadraticFamily, QuadraticTask, make_rank_family
from .bounds import (
    BoundInputs,
    BoundReport,
    blockwise_bound,
    expected_decrease,
    mezo_bound,
    optimal_scales,
    verify_bound,
)

__all__ = [
    "BlockPartition",
    "BoundInputs",
    "BoundReport",
    "LossPair",
    "MetaConfig",
    "MLPTask",
    "NoiseSeed",
    "ParamVector",
    "PertNNParams",
    "PerturbScales",
    "QuadraticFamily",
    "QuadraticTask",
    "RunRecord",
    "ZOConfig",
    "block_stats",
    "blockwise_bound",
    "expected_decrease",
    "make_rank_family",
    "mezo_bound",
    "normalize_scales",
    "optimal_scales",
    "perturb_in_place",
    "run_population",
    "sample_block_noise",
    "train",
    "verify_bound",
]

__version__ = "0.1.0"
