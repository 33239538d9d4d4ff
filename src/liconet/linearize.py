"""Exact conversion of a compliant float network into its float64
pipeline.

Conv weights W of shape (D, C, K) reshape to dense Wd of shape (C*K, D)
with Wd[c*K + k][d] = W[d][c][k], the pipeline's channel-major window
flattening. A stage whose input advances by its stride per step then
computes exactly one dense product per step, so once every later stride
is 1 the whole network steps as one GEMV per stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NotLinearizableError
from .model import MlpNet, dense_stages, layer_plan
from .pipeline import Pipeline


@dataclass(frozen=True)
class LinearizabilityReport:
    """Outcome of the conversion gate; violations are (layer id, reason)."""

    compliant: bool
    violations: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "violations", tuple(self.violations))
        if self.compliant != (len(self.violations) == 0):
            raise ConfigError("compliant flag must match an empty violation list")


def check_linearizable(net, t: int) -> LinearizabilityReport:
    """Gate for the conv-to-dense conversion. Reports, never throws.

    Compliant iff the first layer stride equals the chunk size t and every
    later conv layer (pointwise layers and classifier included) has
    stride 1. For the MLP baseline the first-layer stride is chosen at
    conversion time, so any positive chunk size is compliant.
    """
    violations = []
    if not isinstance(t, (int, np.integer)) or t < 1:
        violations.append(("chunk", f"chunk size must be a positive integer, got {t}"))
        return LinearizabilityReport(False, violations)
    if isinstance(net, MlpNet):
        return LinearizabilityReport(True)
    plan = layer_plan(net)
    first = plan[0]
    if first.layer.stride != t:
        violations.append(
            (first.name, f"first layer stride {first.layer.stride} != chunk size {t}")
        )
    for entry in plan[1:]:
        if entry.layer.stride != 1:
            violations.append((entry.name, f"stride {entry.layer.stride} != 1"))
    return LinearizabilityReport(not violations, violations)


def linearize_network(net, t: int) -> Pipeline:
    """Convert a gated network into its float64 per-step pipeline.

    Raises NotLinearizableError (carrying the report) when the gate fails;
    a compliant conversion yields one stage per conv layer, classifier
    last, with a zero history of max(K - s, 0) columns.
    """
    report = check_linearizable(net, t)
    if not report.compliant:
        raise NotLinearizableError(report)
    return Pipeline(dense_stages(net, t))
