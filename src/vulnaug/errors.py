"""Exception types shared across the package."""

from __future__ import annotations

import os


class VulnaugError(Exception):
    """Base class for all package errors."""


class FeedFormatError(VulnaugError):
    """A line of a line file (a feed, a testset, ``mapping.tsv``, a
    background store or a terms file) is malformed, or the file is not UTF-8.

    The text reads ``path:line: message`` when the file's path is known.
    """

    def __init__(self, message: str, line: int, path: str | os.PathLike | None = None):
        where = f"line {line}" if path is None else f"{path}:{line}"
        super().__init__(f"{where}: {message}")
        self.message = message
        self.line = line


class NotMaskable(VulnaugError):
    """The requested aspect is absent from the record, so there is nothing to mask."""


class SpanNotFound(VulnaugError):
    """The aspect value does not occur verbatim in the record description."""


class DegenerateDistribution(VulnaugError):
    """A statistic is undefined for the given counts (e.g. all zero)."""


class NotFound(VulnaugError):
    """A mapping lookup found neither a cve_id nor a canonical name."""


class InsufficientVocabulary(VulnaugError):
    """The corpus does not contain enough distinct tokens to train embeddings."""


class EmptyTrainingSet(VulnaugError):
    """No record has two or more populated aspects; no pairs can be built."""


class DivergedTraining(VulnaugError):
    """Training produced a non-finite loss."""


class UndefinedScore(VulnaugError):
    """A similarity score is undefined because one side tokenizes to nothing."""


class BackendError(VulnaugError):
    """An LLM backend call failed after exhausting retries."""


class GenerationFailed(VulnaugError):
    """Every candidate-generation round failed."""


class MissingPrerequisite(VulnaugError):
    """A pipeline stage requires an artifact that has not been built yet."""

    def __init__(self, artifact: str, path: str):
        super().__init__(f"missing prerequisite artifact: {artifact} ({path})")
        self.artifact = artifact
        self.path = path
