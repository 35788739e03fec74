"""End-to-end augmentation pipeline: retrieve, select, generate, rank."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .corpus import AspectKind, Corpus, TvdRecord
from .embed import EmbeddingModel
from .exampler import (
    EXAMPLE_LIMIT,
    retrieve_pool,
    select_examples,
    select_examples_by_similarity,
)
from .featcorr import CorrelationModel, RankedCandidate, rank_candidates, software_features
from .genprompt import DEFAULT_ROUNDS, LlmBackend, generate_candidates
from .mapping import MappingDb

#: Ways to choose a slot's in-context examples; "similarity" is the evaluation baseline.
EXAMPLE_STRATEGIES = ("cluster", "similarity")


def check_settings(rounds: int, example_limit: int, example_strategy: str,
                   temperature: float) -> None:
    """Raise a ValueError naming the first setting that no pipeline can run
    with: ``rounds`` or ``example_limit`` below 1, an ``example_strategy`` not
    in :data:`EXAMPLE_STRATEGIES` or a ``temperature`` that is negative or not
    finite."""
    for name, value in (("rounds", rounds), ("example_limit", example_limit)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if example_strategy not in EXAMPLE_STRATEGIES:
        raise ValueError(f"example_strategy must be one of {list(EXAMPLE_STRATEGIES)},"
                         f" got {example_strategy!r}")
    if not (math.isfinite(temperature) and temperature >= 0):
        raise ValueError(f"temperature must be finite and >= 0, got {temperature!r}")


def map_ordered(fn: Callable, items: Sequence, jobs: int) -> list:
    """``fn`` of each item, in input order: on ``jobs`` threads when ``jobs``
    is above 1, else inline in the calling thread."""
    if jobs <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


@dataclass
class AugmentOutcome:
    cve_id: str
    aspect: AspectKind
    answer: str
    score: float
    ranked: list[RankedCandidate]
    pool_size: int
    example_cves: list[str]
    failed_rounds: int


@dataclass
class AugmentPipeline:
    """Bundles the trained artifacts and drives one aspect at a time.

    Calling the pipeline as ``pipeline(record, kind)`` returns just the final
    answer text, which is the shape the evaluation loop expects. The
    background store is the correlation model's.
    """

    corpus: Corpus
    db: MappingDb
    embedding: EmbeddingModel
    correlation: CorrelationModel
    backend: LlmBackend
    example_limit: int = EXAMPLE_LIMIT
    rounds: int = DEFAULT_ROUNDS
    seed: int = 42
    decode_seed: int = 1000
    temperature: float = 0.7
    example_strategy: str = "cluster"  # one of EXAMPLE_STRATEGIES

    def __post_init__(self) -> None:
        check_settings(self.rounds, self.example_limit, self.example_strategy, self.temperature)

    @property
    def identity(self) -> str:
        return (
            f"augment(backend={self.backend.identity},rounds={self.rounds},"
            f"limit={self.example_limit},examples={self.example_strategy})"
        )

    def augment(self, record: TvdRecord, kind: AspectKind) -> AugmentOutcome:
        pool = retrieve_pool(record, self.db, self.corpus)
        if self.example_strategy == "similarity":
            examples = select_examples_by_similarity(
                pool, self.corpus, self.embedding, record.description,
                limit=self.example_limit,
            )
        else:
            examples = select_examples(
                pool, self.corpus, self.embedding, limit=self.example_limit, seed=self.seed
            )
        outcome = generate_candidates(
            self.backend,
            examples,
            record,
            kind,
            rounds=self.rounds,
            base_seed=self.decode_seed,
            temperature=self.temperature,
        )
        features = software_features(record, self.db, self.corpus)
        ranked = rank_candidates(self.correlation, features, outcome.candidates)
        best = ranked[0]
        return AugmentOutcome(
            cve_id=record.cve_id,
            aspect=kind,
            answer=best.candidate.text,
            score=best.score,
            ranked=ranked,
            pool_size=len(pool.union),
            example_cves=[rec.cve_id for rec in examples.members],
            failed_rounds=len(outcome.failures),
        )

    def __call__(self, record: TvdRecord, kind: AspectKind) -> str:
        return self.augment(record, kind).answer
