"""Shared fixture builders for the test suite."""

from __future__ import annotations

import importlib.util
import json
from collections import Counter
from contextlib import contextmanager
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from vulnaug.corpus import AspectKind, Corpus, Source, TvdRecord
from vulnaug.embed import EmbeddingModel
from vulnaug.exampler import ExampleSet, SelectionMode
from vulnaug.mapping import MappingDb

EPOCH = date(2020, 1, 1)


@contextmanager
def counted_sums():
    """Count each token list that ``EmbeddingModel.token_sums`` sums, by its
    tokens joined with spaces."""
    calls = Counter()
    token_sums = EmbeddingModel.token_sums

    def counted(self, token_lists):
        calls.update(" ".join(tokens) for tokens in token_lists)
        return token_sums(self, token_lists)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(EmbeddingModel, "token_sums", counted)
        yield calls

DESCRIPTION_WORDS = [
    "buffer", "overflow", "heap", "stack", "integer", "format", "string", "race",
    "condition", "use", "after", "free", "double", "injection", "traversal", "request",
    "forgery", "bypass", "disclosure", "execution", "denial", "service", "memory",
    "corruption", "pointer", "dereference", "bounds", "read", "write", "crafted",
]


def make_record(
    cve_id: str,
    description: str,
    source: Source = Source.CVE,
    published: date = EPOCH,
    cwe_id: str | None = None,
    aspects: dict[AspectKind, str] | None = None,
    software: list[str] | None = None,
    revision_tag: str | None = None,
    first_sentence: str | None = None,
) -> TvdRecord:
    full = {kind: None for kind in AspectKind}
    if aspects:
        full.update(aspects)
    return TvdRecord(
        cve_id=cve_id,
        description=description,
        source=source,
        published=published,
        cwe_id=cwe_id,
        aspects=full,
        raw_software_names=software or [],
        revision_tag=revision_tag,
        first_sentence=first_sentence,
    )


def feed_text(records: list[TvdRecord]) -> str:
    return "\n".join(rec.to_json_line() for rec in records) + "\n"


def write_testset(path, testset):
    """Write (masked record, kind, label) rows as masked-testset JSONL."""
    lines = []
    for masked, kind, label in testset:
        obj = masked.to_json_obj()
        obj["masked_aspect"] = kind.json_key
        obj["label"] = label
        lines.append(json.dumps(obj, ensure_ascii=False, sort_keys=True))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def load_probe():
    """bench/probe.py, the benchmark's tracer, as a module."""
    path = Path(__file__).resolve().parents[1] / "bench" / "probe.py"
    spec = importlib.util.spec_from_file_location("bench_probe", path)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe


# --- prompt golden fixture ---------------------------------------------------


def prompt_target_record() -> TvdRecord:
    return make_record(
        "CVE-2002-1877",
        "Cross-site scripting vulnerability in NETGEAR FM114P allows remote attackers"
        " to inject arbitrary web script via the hostname option due to missing input"
        " sanitization.",
        published=date(2002, 12, 31),
        cwe_id="CWE-79",
        aspects={
            AspectKind.VULNERABILITY_TYPE: "Cross-site scripting vulnerability",
            AspectKind.ATTACK_VECTOR: "via the hostname option",
            AspectKind.ATTACKER_TYPE: "remote attackers",
            AspectKind.IMPACT: "inject arbitrary web script",
            AspectKind.ROOT_CAUSE: "missing input sanitization",
        },
        software=["NETGEAR FM114P"],
    )


def prompt_example_records() -> list[TvdRecord]:
    return [
        make_record(
            "CVE-2002-0301",
            "SQL injection in AcmeBoard allows remote attackers to read database rows"
            " via the id parameter due to unescaped query strings.",
            published=date(2002, 3, 1),
            cwe_id="CWE-89",
            aspects={
                AspectKind.VULNERABILITY_TYPE: "SQL injection",
                AspectKind.ATTACK_VECTOR: "via the id parameter",
                AspectKind.ATTACKER_TYPE: "remote attackers",
                AspectKind.IMPACT: "read database rows",
                AspectKind.ROOT_CAUSE: "unescaped query strings",
            },
        ),
        make_record(
            "CVE-2002-0502",
            "Buffer overflow in RouterOS web panel allows unauthenticated attackers to"
            " execute arbitrary code via a long session cookie due to a fixed-size"
            " stack buffer.",
            published=date(2002, 5, 2),
            cwe_id="CWE-119",
            aspects={
                AspectKind.VULNERABILITY_TYPE: "Buffer overflow",
                AspectKind.ATTACK_VECTOR: "via a long session cookie",
                AspectKind.ATTACKER_TYPE: "unauthenticated attackers",
                AspectKind.IMPACT: "execute arbitrary code",
                AspectKind.ROOT_CAUSE: "a fixed-size stack buffer",
            },
        ),
        make_record(
            "CVE-2002-0703",
            "Directory traversal in FileServ allows local users to overwrite system"
            " files via dot dot sequences due to missing path validation.",
            published=date(2002, 7, 3),
            cwe_id="CWE-22",
            aspects={
                AspectKind.VULNERABILITY_TYPE: "Directory traversal",
                AspectKind.ATTACK_VECTOR: "via dot dot sequences",
                AspectKind.ATTACKER_TYPE: "local users",
                AspectKind.IMPACT: "overwrite system files",
                AspectKind.ROOT_CAUSE: "missing path validation",
            },
        ),
    ]


def prompt_example_set() -> ExampleSet:
    return ExampleSet(members=prompt_example_records(), selection_mode=SelectionMode.ALL)


# --- coreference fixture -----------------------------------------------------


def struts_gov_records() -> list[TvdRecord]:
    return [
        make_record(
            "CVE-2017-9805",
            "Struts REST plugin deserialization flaw.",
            source=Source.GOV_CNNVD,
            cwe_id="CWE-502",
            first_sentence="该Apache Struts存在远程代码执行漏洞",
        ),
        make_record(
            "CVE-2018-11776",
            "Struts2 namespace redirect flaw.",
            source=Source.GOV_JVN,
            cwe_id="CWE-20",
            first_sentence="製品Apache Strutsには任意のコードが実行される脆弱性が存在します",
        ),
        make_record(
            "CVE-2017-9805",
            "Struts REST plugin deserialization flaw (FR).",
            source=Source.GOV_CERTFR,
            cwe_id="CWE-502",
            first_sentence="Apache Struts 2.5.10. contient une vulnerabilite d'execution de code.",
        ),
    ]


# --- example pool fixture (6 same-software + 207 same-CWE) --------------------


def pool_fixture() -> tuple[TvdRecord, MappingDb, Corpus]:
    rng = np.random.default_rng(99)
    target = make_record(
        "CVE-2002-0679",
        "Buffer overflow in Common Desktop Environment (CDE) ToolTalk RPC database"
        " server allows remote attackers to execute arbitrary code via a crafted"
        " _TT_CREATE_FILE argument.",
        published=date(2002, 7, 3),
        cwe_id="CWE-119",
        aspects={
            AspectKind.VULNERABILITY_TYPE: "Buffer overflow",
            AspectKind.ATTACK_VECTOR: "via a crafted _TT_CREATE_FILE argument",
            AspectKind.ATTACKER_TYPE: "remote attackers",
            AspectKind.IMPACT: "execute arbitrary code",
        },
        software=["ToolTalk RPC"],
    )
    records = [target]
    db = MappingDb()
    db.insert("ToolTalk RPC", target.cve_id)
    for i in range(6):
        cve = f"CVE-2001-{1700 + i}"
        words = " ".join(rng.choice(DESCRIPTION_WORDS, size=8))
        records.append(
            make_record(cve, f"ToolTalk RPC issue {words}.", cwe_id="CWE-20",
                        software=["ToolTalk RPC"])
        )
        db.insert("ToolTalk RPC", cve)
    for i in range(207):
        cve = f"CVE-2003-{1000 + i}"
        words = " ".join(rng.choice(DESCRIPTION_WORDS, size=10))
        records.append(
            make_record(cve, f"software{i} flaw {words}.", cwe_id="CWE-119",
                        software=[f"software{i}"])
        )
    return target, db, Corpus.from_records(records)


# --- aspect-family fixture (deterministic co-occurrence) ----------------------


def family_aspects(family: int, index: int) -> dict[AspectKind, str]:
    """Aspect texts that co-occur deterministically: family tokens tie records
    of one family together, the doubled record token identifies the record."""
    salt = f"rec{index} rec{index}"
    return {
        AspectKind.VULNERABILITY_TYPE: f"flaw{family} {salt}",
        AspectKind.ATTACK_VECTOR: f"vector{family} {salt}",
        AspectKind.ATTACKER_TYPE: f"actor{family} {salt}",
        AspectKind.IMPACT: f"impact{family} {salt}",
        AspectKind.ROOT_CAUSE: f"cause{family} {salt}",
    }


def family_corpus(n_records: int = 200, n_families: int = 5) -> Corpus:
    records = []
    for i in range(n_records):
        f = i % n_families
        aspects = family_aspects(f, i)
        description = " ".join(aspects.values()) + f" soft{f}"
        records.append(
            make_record(
                f"CVE-2021-{1000 + i}",
                description,
                published=date(2021, 1, 1),
                aspects=aspects,
                software=[f"soft{f}"],
            )
        )
    return Corpus.from_records(records)


def family_mapping(corpus: Corpus) -> MappingDb:
    db = MappingDb()
    for rec in corpus:
        db.insert(rec.raw_software_names[0], rec.cve_id)
    return db


# --- masked evaluation fixture -------------------------------------------------


def masked_eval_fixture(n_records: int = 20) -> tuple[Corpus, MappingDb, list]:
    """Corpus of fully-populated records plus a testset masking one aspect per
    record (kinds rotate)."""
    from vulnaug.corpus import mask_aspect

    kinds = list(AspectKind)
    records = []
    for i in range(n_records):
        aspects = {
            AspectKind.VULNERABILITY_TYPE: f"type{i} weakness",
            AspectKind.ATTACK_VECTOR: f"via vector{i} requests",
            AspectKind.ATTACKER_TYPE: f"attacker{i} users",
            AspectKind.IMPACT: f"impact{i} leak",
            AspectKind.ROOT_CAUSE: f"cause{i} bug",
        }
        description = (
            f"{aspects[AspectKind.VULNERABILITY_TYPE]} in product{i % 4} allows"
            f" {aspects[AspectKind.ATTACKER_TYPE]} to {aspects[AspectKind.IMPACT]}"
            f" {aspects[AspectKind.ATTACK_VECTOR]} due to {aspects[AspectKind.ROOT_CAUSE]}."
        )
        records.append(
            make_record(
                f"CVE-2022-{1000 + i}",
                description,
                published=date(2022, 6, 1),
                cwe_id=f"CWE-{100 + (i % 3)}",
                aspects=aspects,
                software=[f"product{i % 4}"],
            )
        )
    corpus = Corpus.from_records(records)
    db = MappingDb()
    for rec in corpus:
        db.insert(rec.raw_software_names[0], rec.cve_id)
    testset = []
    for i, rec in enumerate(corpus):
        kind = kinds[i % len(kinds)]
        masked, label = mask_aspect(rec, kind)
        testset.append((masked, kind, label))
    return corpus, db, testset
