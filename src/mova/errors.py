"""Exception hierarchy (every library error derives from MovaError), the record
field checker, the JSON file reader and the one-step file writer."""

from __future__ import annotations

import contextlib
import json
import math
import operator
import os
from dataclasses import dataclass
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
        self.stage, self.message = stage, message

    def __reduce__(self):  # pickle rebuilds from args, which hold only the joined text
        return type(self), (self.stage, self.message)


def read_json_object(path, what: str) -> dict:
    """Parse a JSON file that must hold one object (`what` names it in errors)."""
    try:
        raw = json.loads(Path(path).read_text())
    except ValueError as exc:  # bad JSON or bytes that are not UTF-8
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: {what} must be a JSON object")
    return raw


@contextlib.contextmanager
def atomic_write(path):
    """A text file to write in place of `path`: `.<name>.<pid>.tmp` in the same
    directory, renamed onto `path` when the block ends normally and removed when
    it fails or is interrupted, so no reader sees a partial file."""
    path = Path(path)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(partial, "w") as fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string"}


@dataclass(frozen=True)
class Field:
    """One record field's check. ``kind`` is int (bools rejected), float (finite;
    integers stored as float) or str; ``low`` and ``high`` bound a number or a
    string's length, inclusive. With ``many`` the value is a list or tuple of
    such values (never a string), stored as a tuple; ``optional`` lets None pass.
    """

    kind: type
    low: float | None = None
    high: float | None = None
    many: bool = False
    optional: bool = False

    def check(self, name: str, value):
        """The checked value; a ValidationError names the field and the value."""
        if value is None and self.optional:
            return None
        if not self.many:
            return self._one(name, value)
        if not isinstance(value, (list, tuple)):
            raise ValidationError(f"{name} must be a list, got {value!r}")
        return tuple([self._one(name, v) for v in value])

    def _one(self, name: str, value):
        kind = self.kind
        if type(value) is not kind:  # values read from JSON mostly have it
            try:
                if kind is str or isinstance(value, bool):
                    raise TypeError
                # A numpy float64 is a float; numpy integers are indexes.
                value = float(value) if kind is float and isinstance(value, float) else kind(operator.index(value))
            except (TypeError, OverflowError):
                raise ValidationError(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}") from None
        if kind is float and not math.isfinite(value):
            raise ValidationError(f"{name} must be a finite number, got {value!r}")
        size = len(value) if kind is str else value
        if self.low is not None and size < self.low:
            bound = "non-empty" if kind is str else f">= {self.low}"
            raise ValidationError(f"{name} must be {bound}, got {value!r}")
        if self.high is not None and size > self.high:
            raise ValidationError(f"{name} must be <= {self.high}, got {value!r}")
        return value


# Bounds are inclusive; on floats, ">= the least positive float" is exactly "> 0".
POSITIVE = Field(float, math.ulp(0.0))


def check_fields(record, fields: dict[str, Field]) -> None:
    """Check the named attributes of a (frozen dataclass) record, storing each checked value."""
    values = vars(record)
    for name, field in fields.items():
        values[name] = field.check(name, values[name])
