"""Adaptive-resolution residual networks on bandlimited signals.

Library layout:

* :mod:`arrn.grids`, :mod:`arrn.signal`, :mod:`arrn.kernels`,
  :mod:`arrn.resample` -- discrete signals on the periodic unit domain
  and the band-reduction / resampling operators.
* :mod:`arrn.pyramid` -- multiband decomposition, reconstruction, and
  coarse entry.
* :mod:`arrn.autodiff`, :mod:`arrn.layers` -- a reverse-mode engine and
  the fixed-resolution layer set.
* :mod:`arrn.model` -- adaptive-resolution residual chains, level
  dropout, both evaluation paths, checkpoints.
* :mod:`arrn.data`, :mod:`arrn.training`, :mod:`arrn.evaluate` -- the
  synthetic multiscale task, training loop, sweeps, MAC accounting, and
  the ablation grid.
* :mod:`arrn.cli` -- the ``arrn`` command-line tool.
"""

from .grids import GridSpec, ResolutionLadder
from .kernels import SmoothingKernelSpec
from .signal import DiscreteSignal, mean_reject, read_arsg, write_arsg
from .resample import (
    check_bandlimited,
    decimate,
    downsample,
    lowpass,
    resample_to,
    upsample,
)
from .pyramid import (
    PyramidDecomposition,
    decompose,
    decompose_adapted,
    load_pyramid,
    reconstruct,
    save_pyramid,
)
from .layers import FeatureMap, InnerBlock, InnerBlockSpec, zero_constancy_check
from .model import (
    ArrnModel,
    LaplacianResidual,
    entry_level,
    equivalence_report,
    forward_adapted,
    forward_full,
    load_checkpoint,
    save_checkpoint,
)
from .data import SynthDataset, SynthDatasetSpec, generate_dataset, oracle_predict
from .training import TrainConfig, train
from .evaluate import EvalSweepResult, count_macs, evaluate_sweep

__version__ = "0.1.0"

__all__ = [
    "GridSpec",
    "ResolutionLadder",
    "SmoothingKernelSpec",
    "DiscreteSignal",
    "mean_reject",
    "read_arsg",
    "write_arsg",
    "lowpass",
    "decimate",
    "downsample",
    "upsample",
    "resample_to",
    "check_bandlimited",
    "PyramidDecomposition",
    "decompose",
    "decompose_adapted",
    "reconstruct",
    "save_pyramid",
    "load_pyramid",
    "FeatureMap",
    "InnerBlock",
    "InnerBlockSpec",
    "zero_constancy_check",
    "ArrnModel",
    "LaplacianResidual",
    "entry_level",
    "forward_full",
    "forward_adapted",
    "equivalence_report",
    "save_checkpoint",
    "load_checkpoint",
    "SynthDataset",
    "SynthDatasetSpec",
    "generate_dataset",
    "oracle_predict",
    "TrainConfig",
    "train",
    "EvalSweepResult",
    "count_macs",
    "evaluate_sweep",
]
