"""The linearization gate and the float64 pipeline of a compliant network.

A network's stage plan (model.stage_plan) already holds one dense operator
per layer over channel-major windows, Wd[c*K + k][d] = W[d][c][k]. A
stage whose input advances by its stride per step computes exactly one
dense product per step, so when the first stride equals the chunk size
and every later stride is 1, the whole network steps as one GEMV per
stage. The gate checks exactly that on the plan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NotLinearizableError
from .model import MlpNet, stage_plan
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


def check_stages(stages, t: int) -> LinearizabilityReport:
    """The gate on a stage plan: first stride t, every later stride 1."""
    first, *later = stages
    violations = [] if first.stride == t else [
        (first.name, f"first layer stride {first.stride} != chunk size {t}")
    ]
    violations += [(st.name, f"stride {st.stride} != 1") for st in later if st.stride != 1]
    return LinearizabilityReport(not violations, violations)


def check_linearizable(net, t: int) -> LinearizabilityReport:
    """Gate for stepping a network once per chunk of t frames. Reports,
    never throws.

    Compliant iff the first layer stride equals the chunk size t and every
    later layer (pointwise layers and classifier included) has stride 1.
    For the MLP baseline the first-layer stride is chosen at conversion
    time, so any positive chunk size is compliant.
    """
    if not isinstance(t, (int, np.integer)) or t < 1:
        return LinearizabilityReport(
            False, [("chunk", f"chunk size must be a positive integer, got {t}")]
        )
    if isinstance(net, MlpNet):
        return LinearizabilityReport(True)
    return check_stages(stage_plan(net), t)


def linearize_network(net, t: int) -> Pipeline:
    """The float64 per-step pipeline of a gated network.

    Raises NotLinearizableError (carrying the report) when the gate fails;
    a compliant network yields one stage per layer, classifier last, with
    a zero history of max(K - s, 0) columns.
    """
    report = check_linearizable(net, t)
    if not report.compliant:
        raise NotLinearizableError(report)
    return Pipeline(stage_plan(net, t))
