"""Network definitions: bottleneck conv blocks, the stacked detector
network, the MLP baseline, whole-network forward passes, parameter /
multiply-accumulate accounting, and the float64 pipeline that streams a
network (see pipeline.py).

A block chains three conv layers with channel plan
c_in -> (K-conv) -> w -> (1x1 expand) -> e*w -> (1x1 project) -> w,
relu after the first two, none after the third. A residual connection
(adding the newest block-input column to each output column) is present
exactly when the block has stride 1 and c_in == w.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conv import Conv1DLayer, apply_activation_array, conv_valid_array
from .errors import ConfigError, NotLinearizableError, ShapeError
from .pipeline import DenseOperator, Pipeline, PipelineStage
from .tensor import Tensor2D


@dataclass(frozen=True)
class LinearLayer(DenseOperator):
    """Dense layer with weights of shape (in_dim, out_dim) and bias (out_dim,)."""

    weights: np.ndarray
    bias: np.ndarray
    activation: str = "none"

    def __post_init__(self):
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        b = np.ascontiguousarray(np.asarray(self.bias, dtype=np.float64))
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ShapeError("weights and bias must be finite")
        self._store(w, b)

    def forward(self, windows, residual=None, source=None) -> np.ndarray:
        """Float columns carry no scale, so source is unused."""
        out = apply_activation_array(windows @ self.weights + self.bias, self.activation).T
        return out if residual is None else out + residual


@dataclass(frozen=True)
class LiCoBlock:
    """Three-layer bottleneck: one K-conv followed by two pointwise convs."""

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
        if self.conv2.in_channels != w or self.conv3.out_channels != w:
            raise ConfigError("channel plan must be c_in -> w -> e*w -> w")
        inner = self.conv2.out_channels
        if self.conv3.in_channels != inner:
            raise ConfigError("conv3 input must match the expanded width")
        if inner % w != 0 or inner // w < 2:
            raise ConfigError(f"expansion {inner}/{w} must be an integer >= 2")
        if self.conv1.activation != "relu" or self.conv2.activation != "relu":
            raise ConfigError("conv1 and conv2 must use relu")
        if self.conv3.activation != "none":
            raise ConfigError("conv3 must have no activation")
        if self.residual and not (self.conv1.stride == 1 and self.in_channels == w):
            raise ConfigError("residual requires stride 1 and matching channel widths")

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

    The constructor checks channel chaining only; the chunk-equals-stride
    and unit-stride conditions are verified by the linearization gate so
    that non-compliant stacks can be constructed and then rejected with a
    report naming the offending layers.
    """

    input_features: int
    blocks: tuple
    classifier: Conv1DLayer

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise ConfigError("at least one block is required")
        if self.input_features != self.blocks[0].in_channels:
            raise ConfigError(
                f"input features {self.input_features} do not match "
                f"block 1 input {self.blocks[0].in_channels}"
            )
        prev = self.blocks[0].width
        for i, blk in enumerate(self.blocks[1:], start=2):
            if blk.in_channels != prev:
                raise ConfigError(f"block {i} input {blk.in_channels} != previous width {prev}")
            prev = blk.width
        cls = self.classifier
        if cls.kernel != 1 or cls.stride != 1 or cls.activation != "none":
            raise ConfigError("classifier must be a pointwise layer with no activation")
        if cls.in_channels != prev:
            raise ConfigError(f"classifier input {cls.in_channels} != final width {prev}")

    @property
    def first_stride(self) -> int:
        return self.blocks[0].stride

    @property
    def n_classes(self) -> int:
        return self.classifier.out_channels

    @property
    def layers(self) -> tuple:
        """Every conv layer in order, classifier last."""
        return tuple(l for blk in self.blocks for l in blk.layers) + (self.classifier,)


@dataclass(frozen=True)
class MlpNet:
    """Baseline taking a fixed window of frames through dense layers."""

    input_frames: int
    input_features: int
    hidden: tuple
    classifier: LinearLayer

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(self.hidden))
        if self.input_frames < 1 or self.input_features < 1:
            raise ConfigError("input dimensions must be positive")
        if not self.hidden:
            raise ConfigError("at least one hidden layer is required")
        if self.hidden[0].in_dim != self.input_frames * self.input_features:
            raise ConfigError(
                f"first layer input {self.hidden[0].in_dim} != "
                f"{self.input_frames} * {self.input_features}"
            )
        prev = self.hidden[0].out_dim
        for i, layer in enumerate(self.hidden[1:], start=2):
            if layer.in_dim != prev:
                raise ConfigError(f"hidden layer {i} input {layer.in_dim} != previous {prev}")
            prev = layer.out_dim
        if self.classifier.in_dim != prev:
            raise ConfigError(f"classifier input {self.classifier.in_dim} != previous {prev}")

    @property
    def n_classes(self) -> int:
        return self.classifier.out_dim

    @property
    def layers(self) -> tuple:
        return self.hidden + (self.classifier,)


# ---------------------------------------------------------------------------
# Builders. Weights are drawn uniform in [-a, a] with a = 1/sqrt(fan_in) from
# a seeded generator; biases start at zero so a freshly built network has no
# startup transient relative to its zero left-context streaming form.
# ---------------------------------------------------------------------------


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _init_conv(rng, out_ch, in_ch, kernel, stride, activation) -> Conv1DLayer:
    a = 1.0 / np.sqrt(in_ch * kernel)
    w = rng.uniform(-a, a, size=(out_ch, in_ch, kernel))
    return Conv1DLayer(w, np.zeros(out_ch), stride, activation)


def _init_linear(rng, in_dim, out_dim, activation) -> LinearLayer:
    a = 1.0 / np.sqrt(in_dim)
    w = rng.uniform(-a, a, size=(in_dim, out_dim))
    return LinearLayer(w, np.zeros(out_dim), activation)


def build_lico_block(c_in, w, e, kernel, stride, seed) -> LiCoBlock:
    """Seeded random block; residual is set by the stride/width rule."""
    if e < 2:
        raise ConfigError(f"expansion must be >= 2, got {e}")
    if kernel < 2:
        raise ConfigError(f"kernel must be >= 2, got {kernel}")
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    if c_in < 1 or w < 1:
        raise ConfigError("channel widths must be positive")
    rng = _as_rng(seed)
    conv1 = _init_conv(rng, w, c_in, kernel, stride, "relu")
    conv2 = _init_conv(rng, e * w, w, 1, 1, "relu")
    conv3 = _init_conv(rng, w, e * w, 1, 1, "none")
    return LiCoBlock(conv1, conv2, conv3, residual=(stride == 1 and c_in == w))


def build_lico_net(input_features, n_blocks, w, e, kernel, first_stride, n_classes, seed) -> LiCoNet:
    """Stack n_blocks blocks: the first at the given stride, the rest at 1."""
    if n_blocks < 1:
        raise ConfigError(f"need at least one block, got {n_blocks}")
    if n_classes < 1:
        raise ConfigError(f"need at least one class, got {n_classes}")
    rng = _as_rng(seed)
    blocks = [build_lico_block(input_features, w, e, kernel, first_stride, rng)]
    for _ in range(n_blocks - 1):
        blocks.append(build_lico_block(w, w, e, kernel, 1, rng))
    classifier = _init_conv(rng, n_classes, w, 1, 1, "none")
    return LiCoNet(input_features, tuple(blocks), classifier)


def build_mlp(input_frames, input_features, h1, h2, n_classes, seed) -> MlpNet:
    """Two relu hidden layers over the flattened input window."""
    dims = (input_frames, input_features, h1, h2, n_classes)
    if min(dims) < 1:
        raise ConfigError(f"all dimensions must be positive, got {dims}")
    rng = _as_rng(seed)
    hidden = (
        _init_linear(rng, input_frames * input_features, h1, "relu"),
        _init_linear(rng, h1, h2, "relu"),
    )
    classifier = _init_linear(rng, h2, n_classes, "none")
    return MlpNet(input_frames, input_features, hidden, classifier)


# ---------------------------------------------------------------------------
# Layer plan: a flat, engine-neutral view of a network as conv layers in
# topological order, with residual wiring made explicit. The MLP enters the
# plan through the inverse of the window-flattening contract
# x~[c*K + k] = window[c][k], so its dense weights become conv weights
# W[d][c][k] = Wdense[c*K + k][d].
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanEntry:
    name: str
    layer: Conv1DLayer
    captures_input: bool = False
    residual_from: int | None = None


def dense_to_conv(layer: LinearLayer, channels: int, kernel: int, stride: int) -> Conv1DLayer:
    if layer.in_dim != channels * kernel:
        raise ShapeError(f"dense input {layer.in_dim} != {channels} * {kernel}")
    w = layer.weights.reshape(channels, kernel, layer.out_dim).transpose(2, 0, 1)
    return Conv1DLayer(w, layer.bias, stride, layer.activation)


def conv_to_dense(layer: Conv1DLayer) -> LinearLayer:
    """Reshape conv weights (D, C, K) to a dense (C*K, D) operator.

    The conv layer has already checked everything LinearLayer would, so
    the reshaped weights are not checked again.
    """
    w = layer.weights.transpose(1, 2, 0).reshape(layer.in_channels * layer.kernel, -1)
    w.setflags(write=False)
    dense = object.__new__(LinearLayer)
    for name, value in (("weights", w), ("bias", layer.bias), ("activation", layer.activation)):
        object.__setattr__(dense, name, value)
    return dense


def layer_plan(net, first_stride: int | None = None) -> list:
    """Flatten a network into PlanEntry items ending with the classifier."""
    if isinstance(net, LiCoNet):
        if first_stride is not None and first_stride != net.first_stride:
            raise ConfigError(
                f"requested stride {first_stride} conflicts with block 1 stride {net.first_stride}"
            )
        entries = []
        for b, blk in enumerate(net.blocks, start=1):
            conv1_idx = len(entries)
            entries.append(PlanEntry(f"block{b}.conv1", blk.conv1, captures_input=blk.residual))
            entries.append(PlanEntry(f"block{b}.conv2", blk.conv2))
            entries.append(
                PlanEntry(
                    f"block{b}.conv3",
                    blk.conv3,
                    residual_from=conv1_idx if blk.residual else None,
                )
            )
        entries.append(PlanEntry("classifier", net.classifier))
        return entries
    if isinstance(net, MlpNet):
        stride = 1 if first_stride is None else first_stride
        if stride < 1:
            raise ConfigError(f"stride must be >= 1, got {stride}")
        first = dense_to_conv(net.hidden[0], net.input_features, net.input_frames, stride)
        entries = [PlanEntry("layer1", first)]
        for i, layer in enumerate(net.hidden[1:], start=2):
            entries.append(PlanEntry(f"layer{i}", dense_to_conv(layer, layer.in_dim, 1, 1)))
        entries.append(
            PlanEntry("classifier", dense_to_conv(net.classifier, net.classifier.in_dim, 1, 1))
        )
        return entries
    raise ConfigError(f"unsupported network type {type(net).__name__}")


def _plan_forward(plan, x: np.ndarray) -> np.ndarray:
    captured = {}
    z = x
    for idx, entry in enumerate(plan):
        if entry.captures_input:
            captured[idx] = z
        y = conv_valid_array(z, entry.layer)
        if entry.residual_from is not None:
            src = captured[entry.residual_from]
            off = plan[entry.residual_from].layer.kernel - 1
            y = y + src[:, off : off + y.shape[1]]
        z = y
    return z


def receptive_field_of(kernels, first_stride: int) -> int:
    """Receptive field of a chain of convs given every kernel in order.

    Counted on the stride grid: the first layer takes max(K1, s1) frames
    (a whole stride even when the kernel is shorter), and every later
    K-conv widens the footprint by (K-1) first-layer windows, each s1
    frames apart. RF - s1 = max(K1 - s1, 0) + s1 * sum(K - 1) is then
    never negative: it is the left zero padding under which the
    streaming form equals batch, and the priming prefix of a stream.
    """
    first, *later = kernels
    return max(first, first_stride) + first_stride * sum(k - 1 for k in later)


def receptive_field(net, first_stride: int | None = None) -> int:
    """Input frames one output column needs, on the first-layer stride grid.

    When K1 < s1 the frames that actually influence a column number
    s1 - K1 fewer: the tail of each first-layer stride is skipped.
    """
    plan = layer_plan(net, first_stride)
    return receptive_field_of([e.layer.kernel for e in plan], plan[0].layer.stride)


def network_forward(net, x: Tensor2D, first_stride: int | None = None) -> Tensor2D:
    """Batch forward pass producing per-frame class logits.

    The input must cover at least one receptive field. Output has
    floor((T - RF) / s1) + 1 columns when K1 >= s1; when K1 < s1 it can
    have one more tail column, whose frames end before a stream would
    have stepped over them.
    """
    plan = layer_plan(net, first_stride)
    if x.channels != plan[0].layer.in_channels:
        raise ShapeError(
            f"input has {x.channels} channels, network expects {plan[0].layer.in_channels}"
        )
    rf = receptive_field(net, first_stride)
    if x.frames < rf:
        raise ShapeError(f"input has {x.frames} frames, receptive field needs {rf}")
    return Tensor2D(_plan_forward(plan, x.data))


def count_params(net) -> int:
    """Total weight and bias elements, classifier included."""
    return sum(l.param_count for l in net.layers)


def bias_count(net) -> int:
    return sum(l.bias.size for l in net.layers)


def count_macs_per_step(net) -> int:
    """Multiply-accumulates per inference step (one output column).

    Only meaningful when every layer emits exactly one column per step,
    i.e. the network passes the linearization gate; otherwise raises.
    Equals count_params minus the number of bias elements.
    """
    if isinstance(net, LiCoNet):
        from .linearize import check_linearizable

        report = check_linearizable(net, net.first_stride)
        if not report.compliant:
            raise NotLinearizableError(report)
    return sum(l.mac_count for l in net.layers)


def dense_stages(net, first_stride: int | None = None) -> list:
    """One float64 pipeline stage per layer of the plan, classifier last."""
    return [
        PipelineStage(e.name, conv_to_dense(e.layer), e.layer.in_channels, e.layer.kernel,
                      e.layer.stride, e.captures_input, e.residual_from)
        for e in layer_plan(net, first_stride)
    ]


class StreamingNetwork(Pipeline):
    """A float network streamed as its float64 pipeline; `states` are its
    stages, each holding the stream's `history`."""

    def __init__(self, net, first_stride: int | None = None):
        super().__init__(dense_stages(net, first_stride))

    @property
    def states(self) -> list:
        return self.stages
