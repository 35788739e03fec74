"""Scoring, evaluation loop, and the expected-lookup cost model.

The similarity metric is token-level greedy matching over the corpus
embeddings: precision averages each candidate token's best cosine against the
reference tokens, recall is symmetric, and string-equal tokens always count as
a perfect match so out-of-vocabulary labels still score.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .corpus import LONG_TAIL_THRESHOLD, AspectKind, TvdRecord, classify_long_tail
from .embed import EmbeddingModel, tokenize
from .errors import UndefinedScore
from .mapping import MappingDb, software_name
from .pipeline import map_ordered

LONG_TAIL = "long-tail"
NON_LONG_TAIL = "non-long-tail"


@dataclass(frozen=True)
class SimilarityScore:
    precision: float
    recall: float
    f1: float


def _f1(p: float, r: float) -> float:
    return 2.0 * p * r / (p + r) if p + r > 0.0 else 0.0


def soft_score(
    candidate: str, reference: str, model: EmbeddingModel
) -> SimilarityScore:
    """Greedy token-matching similarity between two phrases.

    Token-pair similarity is 1 for string-equal tokens, the cosine of their
    vectors clamped to [0, 1] when both are in vocabulary, and 0 otherwise.
    Raises UndefinedScore when either side tokenizes to nothing.
    """
    cand = tokenize(candidate)
    ref = tokenize(reference)
    if not cand or not ref:
        raise UndefinedScore("both texts must tokenize to at least one token")

    def unit(token: str) -> np.ndarray | None:
        if token not in model:
            return None
        v = model.vector(token)
        norm = float(np.linalg.norm(v))
        return v / norm if norm > 0.0 else None

    cand_vecs = [unit(t) for t in cand]
    ref_vecs = [unit(t) for t in ref]

    def sim(i: int, j: int) -> float:
        if cand[i] == ref[j]:
            return 1.0
        u, v = cand_vecs[i], ref_vecs[j]
        if u is None or v is None:
            return 0.0
        return min(1.0, max(0.0, float(np.dot(u, v))))

    precision = math.fsum(
        max(sim(i, j) for j in range(len(ref))) for i in range(len(cand))
    ) / len(cand)
    recall = math.fsum(
        max(sim(i, j) for i in range(len(cand))) for j in range(len(ref))
    ) / len(ref)
    return SimilarityScore(precision=precision, recall=recall, f1=_f1(precision, recall))


@dataclass
class EvalRow:
    aspect: AspectKind
    software_class: str
    mean_f1: float
    count: int


@dataclass
class EvalReport:
    rows: list[EvalRow]
    failures: list[tuple[str, str, str]]  # (cve_id, aspect json_key, error)
    pipeline_id: str = ""
    dataset_id: str = ""

    @property
    def evaluated(self) -> int:
        return sum(row.count for row in self.rows)

    def to_text(self) -> str:
        lines = [
            f"pipeline: {self.pipeline_id}",
            f"dataset: {self.dataset_id}",
            f"evaluated: {self.evaluated}  failures: {len(self.failures)}",
            f"{'aspect':<20} {'class':<14} {'mean_f1':>8} {'count':>6}",
        ]
        for row in self.rows:
            lines.append(
                f"{row.aspect.display_name:<20} {row.software_class:<14}"
                f" {row.mean_f1:>8.4f} {row.count:>6}"
            )
        lines.extend(f"failed: {cve_id}/{aspect}: {error}"
                     for cve_id, aspect, error in self.failures)
        return "\n".join(lines) + "\n"

    def to_jsonl(self) -> str:
        lines = []
        for row in self.rows:
            lines.append(
                json.dumps(
                    {
                        "aspect": row.aspect.json_key,
                        "class": row.software_class,
                        "mean_f1": row.mean_f1,
                        "count": row.count,
                        "pipeline": self.pipeline_id,
                        "dataset": self.dataset_id,
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["aspect", "class", "mean_f1", "count"])
        for row in self.rows:
            writer.writerow([row.aspect.json_key, row.software_class, row.mean_f1, row.count])
        return buf.getvalue()


def evaluate(
    pipeline: Callable[[TvdRecord, AspectKind], str],
    testset: Sequence[tuple[TvdRecord, AspectKind, str]],
    model: EmbeddingModel,
    db: MappingDb | None = None,
    threshold: int = LONG_TAIL_THRESHOLD,
    pipeline_id: str = "",
    dataset_id: str = "",
    jobs: int = 1,
) -> EvalReport:
    """Run the pipeline over (masked record, kind, label) triples.

    Each answer is scored against its label and aggregated per aspect and
    software class. Classes come from long-tail classification over per-name
    mapping link counts when a db is given, otherwise over ``software_name``
    counts in the test set. Per-record pipeline failures are excluded from the
    means and reported separately. With ``jobs`` above 1 the records run on
    that many threads; results are gathered in test-set order, so the report
    does not depend on ``jobs``.
    """
    if db is not None:
        counts = {name: len(cves) for name, cves in db.name_to_cves.items()}
    else:
        counts = Counter(software_name(rec, None) for rec, _, _ in testset)
        counts.pop(None, None)
    report_classes = classify_long_tail(counts, threshold) if counts else None

    def class_of(rec: TvdRecord) -> str:
        name = software_name(rec, db)
        if report_classes is not None and name in report_classes.non_long_tail:
            return NON_LONG_TAIL
        return LONG_TAIL

    def run(item: tuple[TvdRecord, AspectKind, str]) -> SimilarityScore | Exception:
        rec, kind, label = item
        try:
            return soft_score(pipeline(rec, kind), label, model)
        except Exception as exc:  # noqa: BLE001 - any pipeline failure is recorded
            return exc

    results = map_ordered(run, testset, jobs)

    sums: dict[tuple[AspectKind, str], list[float]] = {}
    failures: list[tuple[str, str, str]] = []
    for (rec, kind, _), scored in zip(testset, results):
        if isinstance(scored, Exception):
            failures.append((rec.cve_id, kind.json_key, str(scored)))
        else:
            sums.setdefault((kind, class_of(rec)), []).append(scored.f1)

    rows = [
        EvalRow(
            aspect=kind,
            software_class=cls,
            mean_f1=math.fsum(values) / len(values),
            count=len(values),
        )
        for (kind, cls), values in sorted(
            sums.items(), key=lambda kv: (kv[0][0].value, kv[0][1])
        )
    ]
    return EvalReport(
        rows=rows, failures=failures, pipeline_id=pipeline_id, dataset_id=dataset_id
    )


@dataclass(frozen=True)
class CostParams:
    """Lookup-cost model inputs: n reference TVDs, augmentation accuracy x."""

    n: int
    x: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0.0 <= self.x <= 1.0:
            raise ValueError("x must be in [0, 1]")


def expected_lookups(params: CostParams) -> dict[str, float]:
    """Expected consultation counts with and without augmentation.

    Without augmentation a maintainer reviews all n references. With it, one
    lookup suffices with probability x; otherwise the wrong answer costs one
    extra look before the n references.
    """
    e_not = float(params.n)
    e_aug = params.x + (1.0 - params.x) * (1.0 + params.n)
    return {"e_not_augment": e_not, "e_augment": e_aug}


def effectiveness_threshold(n: int) -> float:
    """Accuracy above which augmentation beats manual lookup: 1/n (n > 1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 1.0 / n
