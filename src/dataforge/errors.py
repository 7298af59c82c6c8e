"""Exception types shared across the pipeline.

Data problems are reported through two channels: validation produces
violation lists (data, not exceptions), while malformed inputs that make an
operation impossible raise one of the exceptions below.
"""

from __future__ import annotations


class DataforgeError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(DataforgeError):
    """A source payload or manifest line does not match its documented schema."""

    def __init__(self, reason: str, *, record_index: int | None = None,
                 path: str | None = None, line: int | None = None):
        self.reason = reason
        self.record_index = record_index
        self.path = path
        self.line = line
        where = []
        if record_index is not None:
            where.append(f"record {record_index}")
        if path:
            where.append(f"at {path}")
        if line is not None:
            where.append(f"line {line}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(f"{reason}{suffix}")


class BoundsError(DataforgeError):
    """Pixel geometry falls outside its owning image."""


class UnknownCameraId(DataforgeError):
    """A raw camera id is not in the raw camera-id table (NuInstruct c1..c6)."""

    def __init__(self, raw: str):
        self.raw = raw
        super().__init__(f"unknown camera id: {raw!r}")


class TokenGrammarError(DataforgeError):
    """An object token does not match any documented token grammar."""

    def __init__(self, token: str, position: int = 0):
        self.token = token
        self.position = position
        super().__init__(f"malformed object token at {position}: {token!r}")


class SampleError(DataforgeError):
    """Aggregate of per-token failures raised while transforming one sample."""

    def __init__(self, sample_id: str, failures: list[str]):
        self.sample_id = sample_id
        self.failures = list(failures)
        detail = "; ".join(self.failures)
        super().__init__(f"sample {sample_id}: {detail}")


class ResponseFormatError(DataforgeError):
    """A remote service reply does not follow the expected format."""


class NetworkError(DataforgeError):
    """A remote call failed after exhausting retries."""


class PoolTooSmall(DataforgeError):
    """Not enough distinct distractors to build a multiple-choice question."""


class EmptyAnnotation(DataforgeError):
    """A detection annotation carries no objects to ground."""


class MixedResolutionError(DataforgeError):
    """Multi-view cameras disagree on image size and no per-camera dims given."""


class FrameCountMismatch(DataforgeError):
    """A video view does not carry the configured number of frames."""


class MissingDatasetCount(DataforgeError):
    """The dataset registry lacks a count required by a stage plan."""

    def __init__(self, dataset: str):
        self.dataset = dataset
        super().__init__(f"registry has no sample count for dataset {dataset}")


class EmptyInput(DataforgeError):
    """A metric was asked to score an empty record batch."""


class ProvenanceError(DataforgeError):
    """An operation received data whose provenance forbids re-processing."""
