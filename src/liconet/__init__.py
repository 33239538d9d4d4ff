"""Streaming 1D-convolution keyword spotting: batch and chunked streaming
convolution, exact conversion to a dense per-step pipeline run in float64
or int8, post-training quantization, a log-mel frontend, and a
sliding-window keyword decoder.
"""

from .conv import Conv1DLayer, StreamState
from .decoder import (
    DecoderConfig,
    DetectionEvent,
    KeywordDecoder,
    PosteriorFrame,
    posterior_from_logits,
    softmax,
)
from .errors import (
    BadMagicError,
    CalibrationError,
    ConfigError,
    InvalidInputError,
    ManifestError,
    ModelFileError,
    NotLinearizableError,
    ShapeError,
    TruncatedError,
    VersionError,
)
from .frontend import FeatureStream, FrontendConfig
from .linearize import check_linearizable, linearize_network
from .model import (
    LiCoBlock,
    LiCoNet,
    LinearLayer,
    MlpNet,
    build_lico_block,
    build_lico_net,
    build_mlp,
    count_macs_per_step,
    count_params,
    network_forward,
    receptive_field,
    stage_plan,
)
from .modelfile import Model, default_model, load_model, save_model
from .pipeline import LinearizabilityReport, Pipeline, PipelineStage
from .quantize import (
    CalibrationRanges,
    QuantizedLinearLayer,
    calibrate_activations,
    quantize_network,
)
from .runtime import StepResult, make_engine, read_wav, run_stream, write_wav
from .tensor import QuantParams, Tensor2D, choose_quant_params

__version__ = "0.1.0"
