"""One-bit precoding for the multiuser MISO downlink with MPSK signaling.

A minimum-SEP solver (FALM: log-sum-exp smoothing + penalty continuation +
accelerated projected gradient), zero-forcing and max-safety-margin
baselines, SEP-bound verification machinery, and a reproducible Monte-Carlo
BER harness with a CLI.
"""

from .baselines import (
    MsmReport,
    available_precoders,
    get_precoder,
    msm_precode,
    zf_onebit,
    zf_precode,
)
from .channel import (
    RngSeed,
    SystemParams,
    draw_channel,
    draw_symbols,
)
from .constellation import MpskConstellation, q_function, sep_union_bound
from .falm import (
    SolveReport,
    SolverConfig,
    SolverFailure,
    falm_solve,
    smoothed_objective,
    update_v,
)
from .harness import BerRecord, ExperimentSpec, paired_streams, run_experiment, write_csv
from .precoding import (
    OneBitVector,
    PrecodingInstance,
    build_instance,
    min_margin,
    one_bit_amplitude,
    point_margin,
    quantize_one_bit,
    safety_margin,
    to_complex,
    to_real,
)
from .sep_analysis import empirical_sep

__all__ = [
    "BerRecord",
    "ExperimentSpec",
    "MpskConstellation",
    "MsmReport",
    "OneBitVector",
    "PrecodingInstance",
    "RngSeed",
    "SolveReport",
    "SolverConfig",
    "SolverFailure",
    "SystemParams",
    "available_precoders",
    "build_instance",
    "draw_channel",
    "draw_symbols",
    "empirical_sep",
    "falm_solve",
    "get_precoder",
    "min_margin",
    "msm_precode",
    "one_bit_amplitude",
    "paired_streams",
    "point_margin",
    "q_function",
    "quantize_one_bit",
    "run_experiment",
    "safety_margin",
    "sep_union_bound",
    "smoothed_objective",
    "to_complex",
    "to_real",
    "update_v",
    "write_csv",
    "zf_onebit",
    "zf_precode",
]
