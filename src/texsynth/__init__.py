"""Exemplar-based texture synthesis with an evaluation toolkit.

Synthesis optimizes an image to match an exemplar's feature Gram
matrices, optionally constrained by the exemplar's Fourier modulus
(spectrum term) or by feature autocorrelations, with coarse-to-fine
initialization over an image pyramid. Evaluation covers verbatim-copy
detection via displacement maps, a wavelet-domain GGD/KL texture
distance, and paired-comparison strength fitting.
"""

from .bradley_terry import (
    BTFit,
    DisconnectedGraph,
    DuelDataset,
    SeparationDivergence,
    bt_fit,
    bt_significance,
    bt_winning_prob,
    load_duels,
)
from .displacement import displacement_map, displacement_to_rgb, ds_score
from .ggd import DegenerateSample, GGDParams, fit_ggd, kl_ggd, texture_distance_klw
from .imagecore import (
    Image,
    RasterFormatError,
    TooManyScales,
    build_pyramid,
    downsample2,
    read_image,
    upsample_bilinear,
    write_image,
)
from .losses import (
    AutocorrTarget,
    GramTarget,
    LossReport,
    SpectrumTarget,
    StatTargets,
    autocorr_loss,
    autocorr_of,
    circular_autocorr,
    compute_targets,
    gram_loss,
    gram_of,
    spectrum_loss,
    spectrum_project,
    spectrum_target,
    total_loss,
)
from .net import (
    LayerSpec,
    Network,
    NetworkWeights,
    WeightsFormatError,
    backward,
    forward,
    load_weights,
    make_network,
    random_weights,
    save_weights,
    vgg_mini,
)
from .optim import LbfgsConfig, NonFiniteObjective, OptTrace, minimize
from .synth import (
    MethodVariant,
    SynthSession,
    synth_multiscale,
    synth_single_scale,
    white_noise,
)
from .wavelets import WaveletScaleError, dwt2_daub4, idwt2_daub4

__version__ = "0.1.0"

# The benchmark harness records this flag; the kernels are plain numpy.
HAS_NUMBA = False
