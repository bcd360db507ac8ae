"""Quantize with the codebook you shipped, decode with the law you learned.

A scalar quantizer designed for one source law often meets data from
another.  This package keeps the encoder fixed and studies what the decoder
can recover: exact distortion of the stale codebook, of the per-bin
conditional means under the true law, and of a full redesign, plus the
high-rate structure of the gap, index-channel noise, and task-aware
variants (power-weighted losses, semantic labeling).
"""

from .distributions import (
    Distribution,
    Gaussian,
    GaussianMixture,
    Laplace,
    from_config,
    inverse_mills,
)
from .errors import (
    DegenerateDesign,
    DivergentIntegral,
    MismatchQuantError,
    ZeroEvidence,
    ZeroMassBin,
)
from .quantizer import Codebook, Partition, Quantizer, lloyd_max_design, lloyd_max_designs
from .mismatch import (
    DistortionReport,
    expected_distortion,
    generative_codebook,
    ideal_distortion,
    monte_carlo_distortion,
    one_bit_gaussian_report,
    one_bit_quantizer,
    report,
    reports,
)
from .asymptotics import (
    HighRateReport,
    OverloadSplit,
    bennett_granular,
    fit_decay_slope,
    mismatch_penalty_factor,
    overload_split,
    panter_dite,
    rate_recovery_sweep,
)
from .channel import (
    Channel,
    NoisyDecoder,
    StrategyReport,
    bsc_channel,
    index_posterior,
    make_noisy_decoder,
    noisy_distortion,
    soft_codebook,
    strategy_report,
)
from .taskaware import (
    ClassificationReport,
    LabeledClass,
    LabeledSource,
    TaskLoss,
    classification_report,
    eta,
    map_labels,
    phi,
    rician_moment,
    squared_error,
    task_codebook,
    weighted_mse_csi,
)

__version__ = "0.1.0"
