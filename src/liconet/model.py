"""Network definitions: bottleneck conv blocks, the stacked detector
network and the MLP baseline; their stage plan (see pipeline.py), which
the batch forward pass, the receptive field, parameter /
multiply-accumulate accounting and every streaming engine read.

A block chains three conv layers with channel plan
c_in -> (K-conv) -> w -> (1x1 expand) -> e*w -> (1x1 project) -> w,
relu after the first two, none after the third. A block may carry a
residual connection (adding the newest block-input column to each output
column); the builders give it one exactly when the block has stride 1 and
c_in == w.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conv import Conv1DLayer, conv_stage, conv_valid
from .errors import ConfigError, ShapeError, is_whole
from .pipeline import LinearLayer, Pipeline, PipelineStage, check_geometry, linear_plan
from .pipeline import receptive_field_of
from .tensor import Tensor2D


@dataclass(frozen=True)
class LiCoBlock:
    """Three-layer bottleneck: one K-conv followed by two pointwise convs.
    The net that holds it checks how the layers chain and the residual."""

    conv1: Conv1DLayer
    conv2: Conv1DLayer
    conv3: Conv1DLayer
    residual: bool

    def __post_init__(self):
        if self.conv1.kernel <= 1:
            raise ConfigError("conv1 kernel must be > 1")
        if self.conv2.kernel != 1 or self.conv3.kernel != 1:
            raise ConfigError("conv2 and conv3 must be pointwise (kernel 1)")
        if self.conv2.stride != 1 or self.conv3.stride != 1:
            raise ConfigError("pointwise layers must have stride 1")
        w = self.conv1.out_channels
        if self.conv3.out_channels != w:
            raise ConfigError("channel plan must be c_in -> w -> e*w -> w")
        inner = self.conv2.out_channels
        if inner % w != 0 or inner // w < 2:
            raise ConfigError(f"expansion {inner}/{w} must be an integer >= 2")
        if self.conv1.activation != "relu" or self.conv2.activation != "relu":
            raise ConfigError("conv1 and conv2 must use relu")
        if self.conv3.activation != "none":
            raise ConfigError("conv3 must have no activation")
        if not isinstance(self.residual, (bool, np.bool_)):
            raise ConfigError(f"residual {self.residual!r} is not a bool")
        object.__setattr__(self, "residual", bool(self.residual))

    @property
    def in_channels(self) -> int:
        return self.conv1.in_channels

    @property
    def width(self) -> int:
        return self.conv1.out_channels

    @property
    def expansion(self) -> int:
        return self.conv2.out_channels // self.width

    @property
    def kernel(self) -> int:
        return self.conv1.kernel

    @property
    def stride(self) -> int:
        return self.conv1.stride

    @property
    def layers(self):
        return (self.conv1, self.conv2, self.conv3)


@dataclass(frozen=True)
class LiCoNet:
    """Stack of blocks plus a pointwise linear classifier.

    The constructor checks channel chaining only, on the stage plan that
    it keeps as plan; the chunk-equals-stride and unit-stride conditions
    are verified by the linearization gate so that non-compliant stacks
    can be constructed and then rejected with a report naming the
    offending layers.
    """

    input_features: int
    blocks: tuple
    classifier: Conv1DLayer
    plan: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise ConfigError("at least one block is required")
        if self.input_features != self.blocks[0].in_channels:
            raise ConfigError(
                f"input features {self.input_features} do not match "
                f"block 1 input {self.blocks[0].in_channels}"
            )
        cls = self.classifier
        if cls.kernel != 1 or cls.stride != 1 or cls.activation != "none":
            raise ConfigError("classifier must be a pointwise layer with no activation")
        object.__setattr__(self, "plan", _checked_plan(self))

    @property
    def first_stride(self) -> int:
        return self.blocks[0].stride

    @property
    def n_classes(self) -> int:
        return self.classifier.out_channels


@dataclass(frozen=True)
class MlpNet:
    """Baseline taking a fixed window of frames through dense layers. Its
    constructor checks, and keeps as plan, the stage plan at stride 1."""

    input_frames: int
    input_features: int
    hidden: tuple
    classifier: LinearLayer
    plan: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(self.hidden))
        if not self.hidden:
            raise ConfigError("at least one hidden layer is required")
        object.__setattr__(self, "plan", _checked_plan(self))

    @property
    def n_classes(self) -> int:
        return self.classifier.out_dim


def _checked_plan(net) -> list:
    """The net's stage plan once its geometry is checked; a failed check
    is the error of a bad configuration."""
    try:
        stages = stage_plan(net)
        check_geometry(stages)
    except ShapeError as exc:
        raise ConfigError(str(exc)) from exc
    return stages


# ---------------------------------------------------------------------------
# Assemblers, which the builders and load_model share, and builders. Weights
# are drawn uniform in [-a, a] with a = 1/sqrt(fan_in) from a seeded generator;
# biases start at zero so a freshly built network has no startup transient
# relative to its zero left-context streaming form.
# ---------------------------------------------------------------------------


def _draw(rng, shape, fan_in) -> np.ndarray:
    a = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-a, a, size=shape)


def lico_block(layers, stride, residual) -> LiCoBlock:
    """The block of three (weights, bias) pairs: K-conv at stride, 1x1 expand, 1x1 project."""
    kinds = ((stride, "relu"), (1, "relu"), (1, "none"))
    convs = [Conv1DLayer(w, b, s, act) for (w, b), (s, act) in zip(layers, kinds, strict=True)]
    return LiCoBlock(*convs, residual)


def mlp_net(input_frames, input_features, layers) -> MlpNet:
    """The MLP of its (weights, bias) pairs in order, classifier last."""
    *hidden, (w, b) = layers
    hidden = tuple(LinearLayer(hw, hb, "relu") for hw, hb in hidden)
    return MlpNet(input_frames, input_features, hidden, LinearLayer(w, b))


def build_lico_block(c_in, w, e, kernel, stride, seed) -> LiCoBlock:
    """Seeded random block; residual is set by the stride/width rule."""
    if e < 2:
        raise ConfigError(f"expansion must be >= 2, got {e}")
    if kernel < 2:
        raise ConfigError(f"kernel must be >= 2, got {kernel}")
    if c_in < 1 or w < 1:
        raise ConfigError("channel widths must be positive")
    rng = np.random.default_rng(seed)  # a Generator comes back as it is
    # Lazy, so each conv is built before the next draw (see BENCH_20.json).
    shapes = ((w, c_in, kernel), (e * w, w, 1), (w, e * w, 1))
    layers = ((_draw(rng, (d, c, k), c * k), np.zeros(d)) for d, c, k in shapes)
    return lico_block(layers, stride, residual=(stride == 1 and c_in == w))


def build_lico_net(input_features, n_blocks, w, e, kernel, first_stride, n_classes, seed) -> LiCoNet:
    """Stack n_blocks blocks: the first at the given stride, the rest at 1."""
    if n_blocks < 1:
        raise ConfigError(f"need at least one block, got {n_blocks}")
    if n_classes < 1:
        raise ConfigError(f"need at least one class, got {n_classes}")
    rng = np.random.default_rng(seed)
    inputs = [(input_features, first_stride)] + [(w, 1)] * (n_blocks - 1)
    blocks = [build_lico_block(c_in, w, e, kernel, s, rng) for c_in, s in inputs]
    classifier = Conv1DLayer(_draw(rng, (n_classes, w, 1), w), np.zeros(n_classes))
    return LiCoNet(input_features, tuple(blocks), classifier)


def build_mlp(input_frames, input_features, h1, h2, n_classes, seed) -> MlpNet:
    """Two relu hidden layers over the flattened input window."""
    dims = (input_frames, input_features, h1, h2, n_classes)
    if min(dims) < 1:
        raise ConfigError(f"all dimensions must be positive, got {dims}")
    rng = np.random.default_rng(seed)
    widths = (input_frames * input_features, h1, h2, n_classes)
    layers = [(_draw(rng, (i, o), i), np.zeros(o)) for i, o in zip(widths, widths[1:])]
    return mlp_net(input_frames, input_features, layers)


# ---------------------------------------------------------------------------
# Stage plan: the one description of a network that every consumer reads.
# Each stage is a dense operator over channel-major windows,
# x~[c*K + k] = window[c][k], with its geometry and residual wiring. A LiCo
# conv becomes its dense form (conv.conv_stage); an MLP's dense layers
# already have that form, the first one over input_frames frames at the
# chosen stride; a pipeline is its stages.
# ---------------------------------------------------------------------------


def stage_plan(net, first_stride: int | None = None) -> list:
    """The network as pipeline stages in order, classifier last.

    first_stride sets an MLP's first-layer stride (default 1); for a LiCo
    net or a pipeline it must match the stride the network has. A
    pipeline's stages are returned as they are: they hold no stream state.
    """
    if isinstance(net, LiCoNet):
        stages = []
        for b, blk in enumerate(net.blocks, start=1):
            source = len(stages) if blk.residual else None
            stages.append(conv_stage(f"block{b}.conv1", blk.conv1))
            stages.append(conv_stage(f"block{b}.conv2", blk.conv2))
            stages.append(conv_stage(f"block{b}.conv3", blk.conv3, source))
        stages.append(conv_stage("classifier", net.classifier))
    elif isinstance(net, MlpNet):
        stride = 1 if first_stride is None else first_stride
        if not is_whole(stride) or stride < 1:
            raise ConfigError(f"stride must be >= 1, got {stride}")
        first, *rest = net.hidden + (net.classifier,)
        names = [f"layer{i}" for i in range(2, len(net.hidden) + 1)] + ["classifier"]
        stages = [PipelineStage("layer1", first, net.input_features, net.input_frames, stride)]
        stages += [PipelineStage(n, l, l.in_dim, 1, 1) for n, l in zip(names, rest)]
    elif isinstance(net, Pipeline):
        stages = net.stages
    else:
        raise ConfigError(f"unsupported network type {type(net).__name__}")
    if first_stride is not None and first_stride != stages[0].stride:
        raise ConfigError(
            f"requested stride {first_stride} conflicts with first-layer stride {stages[0].stride}"
        )
    return stages


def receptive_field(net, first_stride: int | None = None) -> int:
    """Input frames one output column needs, on the first-layer stride grid.

    When K1 < s1 the frames that actually influence a column number
    s1 - K1 fewer: the tail of each first-layer stride is skipped.
    """
    return receptive_field_of(stage_plan(net, first_stride))


def network_forward(net, x: Tensor2D, first_stride: int | None = None) -> Tensor2D:
    """Batch forward pass producing per-frame class logits.

    The input must cover at least one receptive field. Frames after the
    last whole first-layer stride are left out, as a stream leaves them
    unstepped, so a compliant net gives floor((T - RF) / s1) + 1 columns,
    one per step, also when K1 < s1.
    """
    stages = stage_plan(net, first_stride)
    if x.channels != stages[0].channels:
        raise ShapeError(f"input has {x.channels} channels, network expects {stages[0].channels}")
    rf = receptive_field_of(stages)
    if x.frames < rf:
        raise ShapeError(f"input has {x.frames} frames, receptive field needs {rf}")
    stepped = x.frames - (x.frames - rf) % stages[0].stride
    # Each stage as a strided valid convolution over the whole input; conv_valid
    # reads the stage's dense operator as conv weights.
    y = x.data[:, :stepped]
    inputs = []
    for st in stages:
        inputs.append(y)
        y = conv_valid(y, st)
        if st.residual_from is not None:  # the newest input column of each window
            src = inputs[st.residual_from]
            y = y + src[:, src.shape[1] - y.shape[1] :]
    return Tensor2D(y)


def count_params(net) -> int:
    """Total weight and bias elements, classifier included."""
    return sum(st.op.param_count for st in stage_plan(net))


def bias_count(net) -> int:
    return sum(st.op.bias.size for st in stage_plan(net))


def count_macs_per_step(net) -> int:
    """Multiply-accumulates per inference step (one output column).

    Only meaningful when every stage emits exactly one column per step,
    i.e. the network passes the linearization gate; otherwise raises.
    Equals count_params minus the number of bias elements.
    """
    stages = stage_plan(net)
    return sum(st.op.mac_count for st in linear_plan(stages, stages[0].stride))


class StreamingNetwork(Pipeline):
    """A network streamed as the pipeline of its stage plan."""

    def __init__(self, net):
        super().__init__(stage_plan(net))
