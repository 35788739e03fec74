"""Vulnerability-description corpus: ingestion, masking, and long-tail statistics.

A corpus is a set of textual vulnerability descriptions (TVDs), each carrying up
to five structured key aspects. This module parses the normalized line-oriented
feed format, masks aspects to build test sets, and measures how long-tailed
the per-software TVD distribution is.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from datetime import date
from enum import Enum
from typing import BinaryIO, Iterable, Iterator, Mapping

from .errors import (
    DegenerateDistribution,
    FeedFormatError,
    NotMaskable,
    SpanNotFound,
)
from .ioutil import read_lines

CVE_ID_RE = re.compile(r"^CVE-\d{4}-\d{4,7}$")
#: The one form of ``published`` the feed takes, on every supported Python:
#: ``date.fromisoformat`` reads more forms from 3.11 on.
_PUBLISHED_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")

#: Software with more than this many TVDs counts as non-long-tail.
LONG_TAIL_THRESHOLD = 50

REVISION_TAGS = ("ANALYSE", "MODIFIED")


class AspectKind(Enum):
    """The five key aspects a TVD can carry.

    The enum value is the fixed lowercase display name used in placeholders
    ("unknown attack vector") and prompt questions.
    """

    VULNERABILITY_TYPE = "vulnerability type"
    ATTACK_VECTOR = "attack vector"
    ATTACKER_TYPE = "attacker type"
    IMPACT = "impact"
    ROOT_CAUSE = "root cause"

    def __init__(self, display_name: str) -> None:
        #: Snake-case field name used in the feed format.
        self.json_key = display_name.replace(" ", "_")

    @property
    def display_name(self) -> str:
        return self.value

    @property
    def placeholder(self) -> str:
        """Literal substituted for a removed aspect, e.g. "unknown impact"."""
        return "unknown " + self.value

    @classmethod
    def from_key(cls, key: str) -> "AspectKind":
        """The kind whose json_key or display name is ``key``."""
        try:
            return _ASPECT_BY_KEY[key]
        except KeyError:
            raise ValueError(f"unknown aspect: {key!r}") from None


_ASPECT_BY_KEY = {
    name: kind for kind in AspectKind for name in (kind.json_key, kind.display_name)
}


class Source(Enum):
    CVE = "CVE"
    NVD = "NVD"
    GOV_CNNVD = "GovCNNVD"
    GOV_JVN = "GovJVN"
    GOV_CERTFR = "GovCERTFR"

    @property
    def is_gov(self) -> bool:
        return self in (Source.GOV_CNNVD, Source.GOV_JVN, Source.GOV_CERTFR)


#: Every kind, in kind order.
_KINDS = tuple(AspectKind)

#: Every kind, in kind order, with no value. A copy reuses the stored key
#: hashes; hashing an AspectKind is a Python-level call.
_NO_ASPECTS: dict[AspectKind, str | None] = dict.fromkeys(_KINDS)

#: The types of a feed field that holds text or null.
_TEXT_OR_NULL = (str, type(None))


@dataclass
class TvdRecord:
    """One vulnerability description plus its structured key aspects.

    ``aspects`` holds exactly the five kinds, in kind order; missing aspects
    are ``None``, and a key that is not an :class:`AspectKind` raises
    ValueError. ``first_sentence`` is only populated for government-source
    rows and carries the original (possibly non-English) opening sentence
    used for software-name extraction.
    """

    cve_id: str
    description: str
    source: Source
    published: date
    cwe_id: str | None = None
    aspects: dict[AspectKind, str | None] = field(default_factory=_NO_ASPECTS.copy)
    raw_software_names: list[str] = field(default_factory=list)
    revision_tag: str | None = None
    first_sentence: str | None = None

    def __post_init__(self) -> None:
        if not CVE_ID_RE.match(self.cve_id):
            raise ValueError(f"invalid cve_id: {self.cve_id!r}")
        if not self.description:
            raise ValueError(f"{self.cve_id}: empty description")
        if self.revision_tag is not None and self.revision_tag not in REVISION_TAGS:
            raise ValueError(f"{self.cve_id}: bad revision_tag {self.revision_tag!r}")
        # Keys compare by identity. A partial or reordered dict is rebuilt in
        # kind order.
        if tuple(self.aspects) != _KINDS:
            stray = [key for key in self.aspects if key not in _NO_ASPECTS]
            if stray:
                raise ValueError(f"{self.cve_id}: aspects keys that are not kinds: {stray!r}")
            self.aspects = {kind: self.aspects.get(kind) for kind in _KINDS}

    def known_aspects(self) -> dict[AspectKind, str]:
        return {k: v for k, v in self.aspects.items() if v}

    def missing_aspects(self) -> list[AspectKind]:
        return [k for k, v in self.aspects.items() if not v]

    def to_json_obj(self) -> dict:
        obj: dict = {
            "cve_id": self.cve_id,
            "description": self.description,
            "cwe_id": self.cwe_id,
            "aspects": {k.json_key: v for k, v in self.aspects.items()},
            "source": self.source.value,
            "published": self.published.isoformat(),
        }
        if self.revision_tag is not None:
            obj["revision_tag"] = self.revision_tag
        if self.first_sentence is not None:
            obj["first_sentence"] = self.first_sentence
        if self.raw_software_names:
            obj["software_names"] = list(self.raw_software_names)
        return obj

    def to_json_line(self) -> str:
        return json.dumps(self.to_json_obj(), ensure_ascii=False, sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj: Mapping, default_source: Source = Source.CVE) -> "TvdRecord":
        """The record of one feed object. A TypeError names the field when
        ``aspects`` is not an object of strings or nulls, ``software_names``
        not a list of strings, or ``description``, ``cwe_id`` or
        ``first_sentence`` neither a string nor null; a ValueError names
        ``published`` when it is not a ``YYYY-MM-DD`` date."""
        given = obj.get("aspects") or {}
        if not isinstance(given, dict):
            raise TypeError(f"aspects must be an object, got {given!r}")
        aspects = _NO_ASPECTS.copy()
        for key, value in given.items():
            if not isinstance(value, _TEXT_OR_NULL):
                raise TypeError(f"aspects[{key!r}] must be a string or null, got {value!r}")
            aspects[AspectKind.from_key(key)] = value or None
        names = obj.get("software_names") or []
        if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
            raise TypeError(f"software_names must be a list of strings, got {names!r}")
        for key in ("description", "cwe_id", "first_sentence"):
            if not isinstance(obj.get(key), _TEXT_OR_NULL):
                raise TypeError(f"{key} must be a string or null, got {obj[key]!r}")
        published = obj["published"]
        if not (isinstance(published, str) and _PUBLISHED_RE.fullmatch(published)):
            raise ValueError(f"published must be a YYYY-MM-DD date, got {published!r}")
        src = Source(obj["source"]) if obj.get("source") else default_source
        return cls(
            cve_id=obj.get("cve_id", ""),
            description=obj.get("description", ""),
            source=src,
            published=date.fromisoformat(published),
            cwe_id=obj.get("cwe_id") or None,
            aspects=aspects,
            raw_software_names=list(names),
            revision_tag=obj.get("revision_tag"),
            first_sentence=obj.get("first_sentence"),
        )


@dataclass
class Corpus:
    """Records keyed by cve_id; duplicates are dropped keep-first.

    ``records`` must not change after construction: the cwe_id -> cve_ids map
    behind :meth:`with_cwe` is built from them then.
    """

    records: dict[str, TvdRecord] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._by_cwe: dict[str, list[str]] = {}
        for rec in self.records.values():
            if rec.cwe_id:
                self._by_cwe.setdefault(rec.cwe_id, []).append(rec.cve_id)

    @classmethod
    def from_records(cls, records: Iterable[TvdRecord]) -> "Corpus":
        kept: dict[str, TvdRecord] = {}
        for rec in records:
            kept.setdefault(rec.cve_id, rec)
        return cls(records=kept)

    def __len__(self) -> int:
        return len(self.records)

    def __contains__(self, cve_id: str) -> bool:
        return cve_id in self.records

    def __iter__(self) -> Iterator[TvdRecord]:
        for cve_id in sorted(self.records):
            yield self.records[cve_id]

    def get(self, cve_id: str) -> TvdRecord | None:
        return self.records.get(cve_id)

    def with_cwe(self, cwe_id: str) -> list[str]:
        """cve_ids of the records whose CWE is ``cwe_id``, in insertion order."""
        return self._by_cwe.get(cwe_id, [])


@dataclass(frozen=True)
class Diagnostic:
    """One rejected feed entry: where it was and why."""

    line: int
    cve_id: str
    message: str


@dataclass
class ParseResult:
    records: list[TvdRecord] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)


def parse_feed(raw: bytes | str | BinaryIO, source: Source = Source.CVE) -> ParseResult:
    """Parse one normalized feed (one JSON object per line) into records.

    ``raw`` is the feed's bytes, its text or a binary file of it, such as a pipe.
    ``source`` is the declared source of the feed and is used for lines that do
    not carry their own ``source`` field. Lines are those of
    :func:`ioutil.read_lines`. Structural damage (a line that is not a JSON
    object, or bytes that are not UTF-8) raises :class:`FeedFormatError` with
    the line number; per-record problems (bad cve_id, empty description,
    duplicates within the feed) become diagnostics and the entry is skipped,
    never silently dropped.
    Duplicates are keyed on (cve_id, revision_tag) so that ANALYSE and MODIFIED
    revisions of the same CVE coexist.
    """
    result = ParseResult()
    seen: set[tuple[str, str, str | None]] = set()
    for line_no, line in read_lines(None, raw):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FeedFormatError(str(exc), line=line_no) from exc
        if not isinstance(obj, dict):
            raise FeedFormatError("feed line is not an object", line=line_no)
        cve_id = str(obj.get("cve_id", ""))
        try:
            record = TvdRecord.from_json_obj(obj, default_source=source)
        except (ValueError, KeyError, TypeError) as exc:
            result.diagnostics.append(Diagnostic(line_no, cve_id, str(exc)))
            continue
        # The same CVE may legitimately recur across sources (mapping needs all
        # of them) and across ANALYSE/MODIFIED revisions; only a repeat within
        # one (source, revision) is a duplicate.
        key = (record.cve_id, record.source.value, record.revision_tag)
        if key in seen:
            result.diagnostics.append(
                Diagnostic(line_no, record.cve_id, "duplicate cve_id in feed")
            )
            continue
        seen.add(key)
        result.records.append(record)
    return result


def mask_aspect(record: TvdRecord, kind: AspectKind) -> tuple[TvdRecord, str]:
    """Remove one aspect from a record, leaving a placeholder in the text.

    The aspect value is replaced (first occurrence only, so the operation is
    invertible) by ``"unknown " + display name``, and the aspect slot is
    emptied. Returns the masked record and the removed text as the label.
    """
    value = record.aspects.get(kind)
    if not value:
        raise NotMaskable(f"{record.cve_id}: {kind.display_name} is not populated")
    if value not in record.description:
        raise SpanNotFound(
            f"{record.cve_id}: {kind.display_name} value not found verbatim in description"
        )
    masked_description = record.description.replace(value, kind.placeholder, 1)
    masked = replace(
        record,
        description=masked_description,
        aspects={**record.aspects, kind: None},
    )
    return masked, value


def gini(counts: Iterable[float]) -> float:
    """Gini coefficient of a count vector, in [0, 1].

    Computed from the sorted values as sum_i (2i - n + 1) * x_(i) / (n * sum x),
    which equals the mean-absolute-difference form
    sum_ij |c_i - c_j| / (2 n^2 mean) without the quadratic loop.
    """
    import numpy as np  # here, so that ingest and build-map never load it

    c = np.asarray(list(counts), dtype=float)
    if c.size == 0:
        raise DegenerateDistribution("gini of an empty vector")
    if np.any(c < 0):
        raise ValueError("gini requires non-negative counts")
    total = float(c.sum())
    if total == 0.0:
        raise DegenerateDistribution("gini of an all-zero vector")
    n = c.size
    srt = np.sort(c)
    weights = 2.0 * np.arange(n, dtype=float) - n + 1.0
    return float(np.dot(weights, srt) / (n * total))


@dataclass
class LongTailReport:
    """Partition of software names into long-tail and non-long-tail."""

    gini: float
    threshold: int
    long_tail: set[str]
    non_long_tail: set[str]


def classify_long_tail(
    counts: Mapping[str, int], threshold: int = LONG_TAIL_THRESHOLD
) -> LongTailReport:
    """Split software by TVD count: strictly more than ``threshold`` is non-long-tail.

    A count exactly equal to the threshold lands in the long tail.
    """
    if not counts:
        raise ValueError("counts must be non-empty")
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    try:
        g = gini(counts.values())
    except DegenerateDistribution:
        g = 0.0
    long_tail = {s for s, n in counts.items() if n <= threshold}
    non_long_tail = {s for s, n in counts.items() if n > threshold}
    return LongTailReport(
        gini=g,
        threshold=threshold,
        long_tail=long_tail,
        non_long_tail=non_long_tail,
    )
