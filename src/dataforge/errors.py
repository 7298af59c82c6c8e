"""Exception types shared across the pipeline.

Data problems are reported through two channels: validation produces
violation lists (data, not exceptions), while malformed inputs that make an
operation impossible raise one of the exceptions below. A class exists only
where some handler catches it by name:

- ``DataforgeError``: every refusal; ``cli.main`` prints its text as one
  ``error:`` line and exits 1.
- ``SchemaError``: the loop that reads a record or line places it there
  with ``at``; ``cli``'s config reader turns it into a ``ConfigError``.
- ``NetworkError``: counted by the breaker in ``remote.as_rewriter``.
- ``PoolTooSmall``: caught by ``augment.expand_sample``, which leaves the QA
  open-ended.
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

    def at(self, *, record_index: int | None = None,
           line: int | None = None) -> SchemaError:
        """This fault, placed in the record or line of the loop that read it;
        a place not given is kept."""
        return SchemaError(
            self.reason, path=self.path,
            record_index=self.record_index if record_index is None else record_index,
            line=self.line if line is None else line)


class NetworkError(DataforgeError):
    """A remote call failed after exhausting retries."""


class PoolTooSmall(DataforgeError):
    """Not enough distinct distractors to build a multiple-choice question."""
