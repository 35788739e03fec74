"""Software-CVE mapping: canonical software names joined to CVE ids.

Government-style advisories open with a standardized software name. The
template for the advisory's source captures a Latin seed of that name in the
(possibly CJK) first sentence. The seed starts where the name starts and grows
forward to the end of its run of ASCII-letter tokens joined by single spaces
or hyphens, so a capture like "Apache S" comes back as "Apache Struts"; a
digit, a CJK character, other punctuation or a doubled separator ends the run.
The results are indexed bidirectionally with CVE-ID as the key.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .corpus import CVE_ID_RE, Source, TvdRecord
from .errors import FeedFormatError, NotFound
from .ioutil import atomic_write_lines, read_lines

# Extraction templates, group 1 being the seed. T1 expects a CJK character
# directly before the name (CNNVD style), T2 a Latin name optionally trailed by
# a version (CERT-FR style), T3 a CJK character before a single Latin word
# (JVN style). No seed starts inside a token run: a CJK character comes right
# before a T1 or T3 seed, and a letter, or a letter and a separator, before a
# T2 seed would start an earlier match.
TEMPLATES: dict[Source, re.Pattern] = {
    Source.GOV_CNNVD: re.compile(r"[一-龥]([a-zA-Z]+[\s-]?[a-zA-Z])"),
    Source.GOV_CERTFR: re.compile(r"([a-zA-Z]+[\s-]?[a-zA-Z])(?:\d+(?:\.\d+)?[.])?"),
    Source.GOV_JVN: re.compile(r"[一-龥]([a-zA-Z]+)(?:[\s-].*?)"),
}

# The rest of a seed's token run: ASCII-letter tokens joined by single spaces
# or hyphens.
_RUN = re.compile(r"[A-Za-z]*(?:[ -][A-Za-z]+)*")

# Conflict resolution prefers the larger repository.
SOURCE_PRIORITY = {
    Source.GOV_CNNVD: 3,
    Source.GOV_JVN: 2,
    Source.GOV_CERTFR: 1,
}

# A comma-joined list of ids that each match CVE_ID_RE.
_CVE_LIST_RE = re.compile("{0}(?:,{0})*".format(CVE_ID_RE.pattern.strip("^$")))


def canonicalize_name(name: str) -> str:
    """Trim and collapse internal whitespace; case is preserved."""
    return " ".join(name.split())


def extract_software_name(first_sentence: str, template: re.Pattern) -> str | None:
    """Apply a template to an advisory's first sentence and return the name:
    the template's group-1 seed grown to the end of its token run,
    canonicalized. Returns None when the template does not match.
    """
    match = template.search(first_sentence)
    if match is None:
        return None
    end = _RUN.match(first_sentence, match.end(1)).end()
    return canonicalize_name(first_sentence[match.start(1):end])


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
            members = self.name_to_cves[current]
            members.discard(cve_id)
            if not members:
                del self.name_to_cves[current]
        self.name_to_cves.setdefault(name, set()).add(cve_id)
        self.cve_to_name[cve_id] = name
        self.cve_source[cve_id] = source


def build_mapping(gov_records: Iterable[TvdRecord]) -> MappingDb:
    """Extract a name from every gov record and index it under its CVE id.

    Records whose source has no template, that lack a first sentence, or whose
    sentence yields no name land on the db's ``unresolved`` list.
    """
    db = MappingDb()
    for rec in gov_records:
        template = TEMPLATES.get(rec.source)
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
    record resolved them. Fallback entries carry no source, the lowest
    priority, so they never displace gov-derived ones. Returns how many were added.
    """
    added = 0
    for rec in records:
        if rec.cve_id in db.cve_to_name:
            continue
        name = software_name(rec, None)
        if name is None:
            continue
        db.insert(name, rec.cve_id, source=None)
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
    atomic_write_lines(path, (f"{name}\t{','.join(sorted(cves))}"
                              for name, cves in sorted(db.name_to_cves.items())))


def load_mapping(path: str | Path) -> MappingDb:
    """Read a file written by :func:`save_mapping`. A FeedFormatError names
    ``path:line`` for a line without a name, a cve list entry that is not a
    CVE id, a CVE id that an earlier line maps to another name, and bytes
    that are not UTF-8."""
    db = MappingDb()
    for line_no, line in read_lines(path):
        name, _, cves = line.partition("\t")
        if not cves:
            raise FeedFormatError("expected name TAB cve list", line_no, path)
        if not name.strip():  # insert canonicalizes the name
            raise FeedFormatError("empty software name", line_no, path)
        cve_ids = cves.split(",")
        if not _CVE_LIST_RE.fullmatch(cves):
            bad = next(cve_id for cve_id in cve_ids if not CVE_ID_RE.match(cve_id))
            raise FeedFormatError(f"{bad!r} is not a CVE id" if bad
                                  else "empty CVE id in the cve list", line_no, path)
        for cve_id in cve_ids:
            db.insert(name, cve_id)
        if db.conflicts:  # insert keeps the first name of a CVE and logs the other
            conflict = db.conflicts[0]
            raise FeedFormatError(f"{conflict.cve_id} is already mapped to {conflict.kept!r}",
                                  line_no, path)
    return db
