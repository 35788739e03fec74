"""End-to-end augmentation pipeline: retrieve, select, generate, rank."""

from __future__ import annotations

import importlib
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from .corpus import AspectKind, Corpus, TvdRecord
from .genprompt import DEFAULT_ROUNDS, EXAMPLE_LIMIT, LlmBackend, generate_candidates
from .mapping import MappingDb

if TYPE_CHECKING:
    from .embed import EmbeddingModel
    from .featcorr import CorrelationModel, RankedCandidate

#: Ways to choose a slot's in-context examples; "similarity" is the evaluation baseline.
EXAMPLE_STRATEGIES = ("cluster", "similarity")

#: The stages :meth:`AugmentPipeline.augment` calls from modules that load
#: numpy, by the module that defines each. They are imported on first use, so
#: the commands that build no pipeline never load numpy.
_STAGES = {
    "retrieve_pool": "exampler",
    "select_examples": "exampler",
    "select_examples_by_similarity": "exampler",
    "software_features": "featcorr",
    "rank_candidates": "featcorr",
}


def _bind_stages() -> None:
    """Make each stage a global of this module, unless one is set already:
    a stage replaced with ``setattr`` on this module is the one ``augment``
    calls."""
    bound = globals()
    for name, module in _STAGES.items():
        if name not in bound:
            bound[name] = getattr(importlib.import_module(f".{module}", __package__), name)


def __getattr__(name: str):
    if name not in _STAGES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_stages()
    return globals()[name]


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
    """One (record, aspect) slot's result: its candidates ranked best first,
    the size of the pool its examples came from, the chosen examples'
    cve_ids and the number of rounds that failed."""

    cve_id: str
    aspect: AspectKind
    ranked: list[RankedCandidate]
    pool_size: int
    example_cves: list[str]
    failed_rounds: int

    @property
    def answer(self) -> str:
        return self.ranked[0].candidate.text

    @property
    def score(self) -> float:
        return self.ranked[0].score

    def to_row(self, dump_examples: bool = False) -> str:
        """The slot's line of ``augment`` output, with ``example_cves`` only
        when ``dump_examples`` is set."""
        row = {
            "cve_id": self.cve_id,
            "aspect": self.aspect.json_key,
            "answer": self.answer,
            "score": self.score,
            "pool_size": self.pool_size,
            "examples": len(self.example_cves),
            "failed_rounds": self.failed_rounds,
            "candidates": [{"text": rc.candidate.text, "score": rc.score,
                            "round": rc.candidate.round, "strategy": rc.candidate.strategy.value}
                           for rc in self.ranked],
        }
        if dump_examples:
            row["example_cves"] = self.example_cves
        return json.dumps(row, ensure_ascii=False, sort_keys=True)


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
        _bind_stages()

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
        return AugmentOutcome(
            cve_id=record.cve_id,
            aspect=kind,
            ranked=rank_candidates(self.correlation, features, outcome.candidates),
            pool_size=len(pool.union),
            example_cves=[rec.cve_id for rec in examples.members],
            failed_rounds=len(outcome.failures),
        )

    def __call__(self, record: TvdRecord, kind: AspectKind) -> str:
        return self.augment(record, kind).answer
