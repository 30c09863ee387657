"""One-bit precoding for the multiuser MISO downlink with MPSK signaling.

A minimum-SEP solver (FALM: log-sum-exp smoothing + penalty continuation +
accelerated projected gradient), zero-forcing and max-safety-margin
baselines, SEP-bound verification machinery, and a reproducible Monte-Carlo
BER harness with a CLI.
"""

from .baselines import available_precoders, get_precoder, msm_precode, zf_onebit
from .channel import draw_channel, draw_symbols, substream
from .constellation import MpskConstellation, sep_union_bound
from .falm import SolveReport, SolverConfig, SolverFailure, falm_solve
from .harness import BerRecord, ExperimentSpec, paired_streams, run_experiment
from .precoding import (
    OneBitVector,
    PrecodingInstance,
    build_instance,
    min_margin,
    one_bit_amplitude,
    point_margin,
    quantize_one_bit,
    to_real,
)
from .sep_analysis import empirical_sep

__all__ = [
    "BerRecord",
    "ExperimentSpec",
    "MpskConstellation",
    "OneBitVector",
    "PrecodingInstance",
    "SolveReport",
    "SolverConfig",
    "SolverFailure",
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
    "quantize_one_bit",
    "run_experiment",
    "sep_union_bound",
    "substream",
    "to_real",
    "zf_onebit",
]
