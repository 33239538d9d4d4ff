"""The linearization gate on a network at a chunk size, and the float64
pipeline of a network that passes it. A network's stage plan already holds
one dense operator per layer; the gate on a plan is pipeline.check_stages.
"""

from __future__ import annotations

from .errors import NotLinearizableError, is_whole
from .model import MlpNet, stage_plan
from .pipeline import LinearizabilityReport, Pipeline, check_stages


def check_linearizable(net, t: int) -> LinearizabilityReport:
    """Gate for stepping a network once per chunk of t frames. Reports,
    never throws.

    Compliant iff the first layer stride equals the chunk size t and every
    later layer (pointwise layers and classifier included) has stride 1.
    For the MLP baseline the first-layer stride is chosen at conversion
    time, so any positive chunk size is compliant.
    """
    if not is_whole(t) or t < 1:
        why = f"chunk size must be a positive integer, got {t}"
        return LinearizabilityReport((("chunk", why),))
    if isinstance(net, MlpNet):
        return LinearizabilityReport()
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
