"""stripesr: stripe-scan state-space super-resolution for hyperspectral cubes.

A from-scratch numpy implementation: a tape-based autodiff tensor core,
selective-scan (S6) recurrence over stripe/raster/window 2D scan orders,
a Haar-wavelet U-Net of spectral/spatial encoder and fusion blocks, plus
cube I/O, degradation simulation, quality metrics, training and a CLI.
"""

from .errors import ContractViolation, FormatError, NumericError, StripeSrError
from .tensor import Tensor, Tape, grad_check
from .data import HsiCube, read_hsc, write_hsc, degrade, synth_cube
from .metrics import MetricReport, psnr, ssim, sam, sam_error_map, ergas
from .model import (
    ModelConfig,
    ModelWeights,
    init_weights,
    forward,
    infer,
    count_params,
    estimate_flops,
    save_checkpoint,
    load_checkpoint,
)
from .scan import ScanOrder, make_order
from .train import TrainConfig, train, sample_patches

__version__ = "0.1.0"

__all__ = [
    "ContractViolation", "FormatError", "NumericError", "StripeSrError",
    "Tensor", "Tape", "grad_check",
    "HsiCube", "read_hsc", "write_hsc", "degrade", "synth_cube",
    "MetricReport", "psnr", "ssim", "sam", "sam_error_map", "ergas",
    "ModelConfig", "ModelWeights", "init_weights", "forward", "infer",
    "count_params", "estimate_flops", "save_checkpoint", "load_checkpoint",
    "ScanOrder", "make_order",
    "TrainConfig", "train", "sample_patches",
]
