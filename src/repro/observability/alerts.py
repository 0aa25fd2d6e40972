"""One alert rule, evaluated on demand over a registry snapshot.

The serving stack ships one rule, ``queue-depth-saturation``: it fires
while ``repro_service_queue_depth >= 0.8 × max_queue_depth``, and is
omitted when the queue is unbounded.  ``GET /alerts`` and ``GET
/v1/report`` evaluate it over one fresh :meth:`MetricsRegistry.to_dict`
snapshot per request; nothing is kept between evaluations.
"""

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Mapping, Optional

__all__ = ["AlertRule", "AlertState", "default_alert_rules"]


@dataclass(frozen=True)
class AlertState:
    """One rule's evaluated state over one snapshot."""

    name: str
    severity: str
    firing: bool
    value: Optional[float]
    threshold: float
    description: str

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class AlertRule:
    """Fires while the summed value of ``metric``'s series is
    ``>= threshold``."""

    name: str
    metric: str
    threshold: float
    severity: str = "page"
    description: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def evaluate(self, snapshot: Mapping[str, Any]) -> AlertState:
        """This rule's state over ``snapshot`` (``value`` is ``None``
        while the metric has no series)."""
        series = snapshot.get(self.metric, {}).get("series", [])
        value = (sum((entry["value"] for entry in series), 0.0)
                 if series else None)
        return AlertState(
            name=self.name, severity=self.severity,
            firing=value is not None and value >= self.threshold,
            value=value, threshold=self.threshold,
            description=self.description)


def default_alert_rules(max_queue_depth: int) -> List[AlertRule]:
    """The serving stack's rules: queue-depth saturation, when the queue
    is bounded."""
    if max_queue_depth <= 0:
        return []
    return [AlertRule(
        name="queue-depth-saturation",
        metric="repro_service_queue_depth",
        threshold=0.8 * max_queue_depth,
        description="Service queue depth is at >= 80% of "
                    f"max_queue_depth={max_queue_depth}.")]
