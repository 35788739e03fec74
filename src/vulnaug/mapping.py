"""Software-CVE mapping: canonical software names joined to CVE ids.

Government-style advisories open with a standardized software name; three
regular-expression templates pull the Latin seed out of the (possibly CJK)
first sentence, a token-extension pass grows the seed to the full multi-word
name, and the results are indexed bidirectionally with CVE-ID as the key.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .corpus import CVE_ID_RE, Source, TvdRecord
from .errors import NotFound
from .ioutil import atomic_write_text

# Extraction templates. T1 expects a CJK character directly before the name
# (CNNVD style), T2 a Latin name optionally trailed by a version (CERT-FR
# style), T3 a CJK character before a single Latin word (JVN style).
TEMPLATE1_PATTERN = r"[一-龥]([a-zA-Z]+[\s-]?[a-zA-Z])"
TEMPLATE2_PATTERN = r"([a-zA-Z]+[\s-]?[a-zA-Z])(?:\d+(?:\.\d+)?[.])?"
TEMPLATE3_PATTERN = r"[一-龥]([a-zA-Z]+)(?:[\s-].*?)"


@dataclass(frozen=True)
class NameTemplate:
    id: str
    pattern: str
    applicable_source: Source

    def compiled(self) -> re.Pattern:
        return re.compile(self.pattern)


DEFAULT_TEMPLATES = [
    NameTemplate("T1", TEMPLATE1_PATTERN, Source.GOV_CNNVD),
    NameTemplate("T2", TEMPLATE2_PATTERN, Source.GOV_CERTFR),
    NameTemplate("T3", TEMPLATE3_PATTERN, Source.GOV_JVN),
]

# Conflict resolution prefers the larger repository.
SOURCE_PRIORITY = {
    Source.GOV_CNNVD: 3,
    Source.GOV_JVN: 2,
    Source.GOV_CERTFR: 1,
}

_LETTER = re.compile(r"[A-Za-z]")


def canonicalize_name(name: str) -> str:
    """Trim and collapse internal whitespace; case is preserved."""
    return " ".join(name.split())


def _is_letter(ch: str) -> bool:
    return bool(_LETTER.match(ch))


def _extend_token_run(sentence: str, start: int, end: int) -> tuple[int, int]:
    """Grow [start, end) to the maximal run of ASCII-letter tokens joined by
    single spaces or hyphens. Digits, CJK, and doubled separators stop the run.
    """
    while start > 0 and _is_letter(sentence[start - 1]):
        start -= 1
    while end < len(sentence) and _is_letter(sentence[end]):
        end += 1
    while (
        start >= 2
        and sentence[start - 1] in " -"
        and _is_letter(sentence[start - 2])
    ):
        start -= 2
        while start > 0 and _is_letter(sentence[start - 1]):
            start -= 1
    while (
        end + 1 < len(sentence)
        and sentence[end] in " -"
        and _is_letter(sentence[end + 1])
    ):
        end += 2
        while end < len(sentence) and _is_letter(sentence[end]):
            end += 1
    return start, end


def extract_software_name(first_sentence: str, template: NameTemplate) -> str | None:
    """Apply a template to an advisory's first sentence and return the name.

    The template capture is only a seed (the raw patterns stop after a single
    trailing letter); the seed is extended to the surrounding token run so a
    capture like "Apache S" comes back as "Apache Struts". Returns None when
    the template does not match.
    """
    if not first_sentence:
        return None
    match = template.compiled().search(first_sentence)
    if match is None or match.lastindex is None:
        return None
    start, end = match.span(1)
    if start == end:
        return None
    start, end = _extend_token_run(first_sentence, start, end)
    return canonicalize_name(first_sentence[start:end])


@dataclass(frozen=True)
class NameConflict:
    cve_id: str
    kept: str
    dropped: str


@dataclass
class MappingDb:
    """Bidirectional canonical-name <-> CVE index.

    ``insert`` maintains both directions; a cve_id belongs to at most one
    name, with ties broken by source priority (first writer wins among equal
    priorities) and every displaced assignment logged as a conflict.
    """

    name_to_cves: dict[str, set[str]] = field(default_factory=dict)
    cve_to_name: dict[str, str] = field(default_factory=dict)
    cve_source: dict[str, Source | None] = field(default_factory=dict)
    unresolved: list[str] = field(default_factory=list)
    conflicts: list[NameConflict] = field(default_factory=list)
    fallback_cves: set[str] = field(default_factory=set)

    def insert(self, name: str, cve_id: str, source: Source | None = None) -> None:
        name = canonicalize_name(name)
        if not name:
            raise ValueError("empty canonical name")
        current = self.cve_to_name.get(cve_id)
        if current == name:
            return
        if current is not None:
            old_priority = SOURCE_PRIORITY.get(self.cve_source.get(cve_id), 0)
            new_priority = SOURCE_PRIORITY.get(source, 0)
            if new_priority <= old_priority:
                self.conflicts.append(NameConflict(cve_id, kept=current, dropped=name))
                return
            self.conflicts.append(NameConflict(cve_id, kept=name, dropped=current))
            self._unlink(cve_id, current)
        self.name_to_cves.setdefault(name, set()).add(cve_id)
        self.cve_to_name[cve_id] = name
        self.cve_source[cve_id] = source

    def _unlink(self, cve_id: str, name: str) -> None:
        members = self.name_to_cves.get(name)
        if members is not None:
            members.discard(cve_id)
            if not members:
                del self.name_to_cves[name]
        self.cve_to_name.pop(cve_id, None)
        self.cve_source.pop(cve_id, None)


def build_mapping(
    gov_records: Iterable[TvdRecord],
    templates: Iterable[NameTemplate] = DEFAULT_TEMPLATES,
) -> MappingDb:
    """Extract a name from every gov record and index it under its CVE id.

    Records whose source has no template, that lack a first sentence, or whose
    sentence yields no name land on the db's ``unresolved`` list.
    """
    by_source = {t.applicable_source: t for t in templates}
    db = MappingDb()
    for rec in gov_records:
        template = by_source.get(rec.source)
        if template is None or not rec.first_sentence:
            db.unresolved.append(rec.cve_id)
            continue
        name = extract_software_name(rec.first_sentence, template)
        if name is None:
            db.unresolved.append(rec.cve_id)
            continue
        db.insert(name, rec.cve_id, source=rec.source)
    return db


def extend_with_fallback(db: MappingDb, records: Iterable[TvdRecord]) -> int:
    """Index plain CVE/NVD records by their raw software name when no gov
    record resolved them. Fallback entries never displace gov-derived ones and
    are tracked as lower-confidence.
    """
    added = 0
    for rec in records:
        if rec.cve_id in db.cve_to_name:
            continue
        name = software_name(rec, None)
        if name is None:
            continue
        db.insert(name, rec.cve_id, source=None)
        db.fallback_cves.add(rec.cve_id)
        added += 1
    return added


def software_name(record: TvdRecord, db: MappingDb | None) -> str | None:
    """The record's mapping name, else its canonicalized first raw name; None
    when neither gives one (an all-whitespace raw name gives none)."""
    name = db.cve_to_name.get(record.cve_id) if db is not None else None
    if name is None and record.raw_software_names:
        name = canonicalize_name(record.raw_software_names[0]) or None
    return name


def siblings(db: MappingDb, cve_id: str) -> list[str]:
    """The sorted cve_ids that share the record's mapped name, itself
    included; [] when the record is unmapped."""
    name = db.cve_to_name.get(cve_id)
    return [] if name is None else sorted(db.name_to_cves[name])


def resolve(db: MappingDb, query: str) -> tuple[str, list[str]]:
    """Look up by cve_id or by exact canonical name.

    Returns the canonical name and the sorted list of all sibling cve_ids.
    """
    if CVE_ID_RE.match(query):
        name = db.cve_to_name.get(query)
        if name is None:
            raise NotFound(f"unknown cve_id: {query}")
    else:
        name = canonicalize_name(query)
        if name not in db.name_to_cves:
            raise NotFound(f"unknown software name: {query!r}")
    return name, sorted(db.name_to_cves[name])


def mapping_stats(db: MappingDb) -> dict[str, int]:
    return {
        "distinct_names": len(db.name_to_cves),
        "total_links": sum(len(v) for v in db.name_to_cves.values()),
        "unresolved": len(db.unresolved),
    }


def save_mapping(db: MappingDb, path: str | Path) -> None:
    """Persist as name TAB comma-joined sorted cve_ids, names sorted."""
    lines = []
    for name in sorted(db.name_to_cves):
        cves = ",".join(sorted(db.name_to_cves[name]))
        lines.append(f"{name}\t{cves}")
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def load_mapping(path: str | Path) -> MappingDb:
    db = MappingDb()
    text = Path(path).read_text(encoding="utf-8")
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        name, _, cves = line.partition("\t")
        if not cves:
            raise ValueError(f"{path}:{line_no}: expected name TAB cve list")
        for cve_id in cves.split(","):
            db.insert(name, cve_id)
    return db
