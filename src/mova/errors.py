"""Exception hierarchy (every library error derives from MovaError) and the JSON file reader."""

import json
from pathlib import Path


class MovaError(Exception):
    """Base class for all library errors."""


class ShapeError(MovaError):
    """Operand dimensions are incompatible."""


class ValidationError(MovaError):
    """A config, registry, or data file violates its schema or invariants."""


class NumericError(MovaError):
    """A computation produced or encountered a non-finite value."""


class EmptySupportError(MovaError):
    """Softmax was asked to normalize over an empty support."""


class CapacityError(MovaError):
    """A planted signal does not fit the target feature geometry."""


class RoutingError(MovaError):
    """Base class for routing-stage failures."""


class UnknownExpertError(RoutingError):
    """A response referenced a letter outside the registry."""


class EmptyResponseError(RoutingError):
    """No expert letters could be extracted from a response."""


class MissingContextError(RoutingError):
    """A routing strategy was invoked without its required context."""


class EmptySelectionError(MovaError):
    """Gate weights were requested for an empty expert selection."""


class FeatureMismatchError(MovaError):
    """A routed expert has no matching feature map."""


class TrainingError(MovaError):
    """Toy training diverged or failed its gradient check."""


class PipelineError(MovaError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


def read_json_object(path, what: str) -> dict:
    """Parse a JSON file that must hold one object (`what` names it in errors)."""
    try:
        raw = json.loads(Path(path).read_text())
    except ValueError as exc:  # bad JSON or bytes that are not UTF-8
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: {what} must be a JSON object")
    return raw
