"""Software-feature correlation model and candidate ranking.

Training pairs come from aspect co-occurrence: two aspects of the same record
are associated (label 1), aspects of different records are not (label 0,
downsampled to twice the positive count). Each side of a pair is enriched with
background text looked up in a local article store, encoded as an average of
word vectors, and a logistic combiner over symmetric interaction features
predicts the association probability. Ranking a target's candidate answers by
their aggregate probability against the software's known features filters out
hallucinated values.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import struct
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import AspectKind, Corpus, TvdRecord
from .embed import EmbeddingModel, _sigmoid, tokenize
from .errors import DivergedTraining, EmptyTrainingSet, NotFound
from .genprompt import CandidateAnswer
from .ioutil import atomic_write_bytes, atomic_write_text
from .mapping import MappingDb, resolve

#: Negatives are downsampled to twice the positive count; fixed by contract.
NEG_RATIO = 2

_MAGIC = b"VACORR01"


@dataclass(frozen=True)
class FeaturePair:
    a: str
    b: str
    label: int
    origin: tuple[str, str]

    def __post_init__(self) -> None:
        same = self.origin[0] == self.origin[1]
        if self.label == 1 and not same:
            raise ValueError("positive pairs must come from one record")
        if self.label == 0 and same:
            raise ValueError("negative pairs must span two records")


def build_training_pairs(corpus: Corpus, seed: int = 0) -> list[FeaturePair]:
    """All intra-record aspect pairs as positives, sampled cross-record pairs
    as negatives (exactly 2x the positives, or every available negative when
    the pool is smaller). Sampling is uniform without replacement under the
    seed."""
    instances: list[tuple[str, str]] = []  # (cve_id, aspect text)
    record_end: list[int] = []  # per instance: index one past its record's last instance
    positives: list[FeaturePair] = []
    for rec in corpus:
        texts = [v for v in (rec.aspects.get(k) for k in AspectKind) if v]
        for text in texts:
            instances.append((rec.cve_id, text))
        record_end.extend([len(instances)] * len(texts))
        for a, b in itertools.combinations(texts, 2):
            positives.append(FeaturePair(a=a, b=b, label=1, origin=(rec.cve_id, rec.cve_id)))
    if not positives:
        raise EmptyTrainingSet("no record has two or more populated aspects")

    # Instances of one record are contiguous, so the cross-record partners of
    # instance i are exactly j in [record_end[i], len(instances)). A flat
    # index over those rows, in (i, j) order, numbers every cross pair without
    # listing them, and maps back to (i, j) by a search over the row starts.
    end = np.array(record_end, dtype=np.int64)
    per_row = len(instances) - end
    row_start = np.concatenate(([0], np.cumsum(per_row)[:-1]))
    total = int(per_row.sum())
    wanted = NEG_RATIO * len(positives)
    rng = np.random.default_rng(seed)
    if total > wanted:
        flat = np.sort(rng.choice(total, size=wanted, replace=False))
    else:
        flat = np.arange(total)
    rows = np.searchsorted(row_start, flat, side="right") - 1
    cols = end[rows] + (flat - row_start[rows])
    negatives = [
        FeaturePair(
            a=instances[i][1],
            b=instances[j][1],
            label=0,
            origin=(instances[i][0], instances[j][0]),
        )
        for i, j in zip(rows.tolist(), cols.tolist())
    ]
    return positives + negatives


@dataclass
class BackgroundStore:
    """Local keyword-searchable article collection (term -> body).

    An inverted index (token -> terms of the articles whose title or body
    holds it) and each body's token list are built once and kept current by
    :meth:`add`, so a lookup touches only the articles it can match.
    """

    articles: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._postings: dict[str, set[str]] = {}
        self._body_tokens: dict[str, list[str]] = {}
        for term, body in self.articles.items():
            self._index(term, body)

    def _index(self, term: str, body: str) -> None:
        self._body_tokens[term] = tokenize(body)
        for tok in self._distinct_tokens(term):
            self._postings.setdefault(tok, set()).add(term)

    def _distinct_tokens(self, term: str) -> set[str]:
        return set(tokenize(term)) | set(self._body_tokens[term])

    def __len__(self) -> int:
        return len(self.articles)

    def add(self, term: str, body: str) -> None:
        if term in self.articles:
            for tok in self._distinct_tokens(term):
                self._postings[tok].discard(term)
        self.articles[term] = body
        self._index(term, body)

    def best_terms(self, text: str, max_terms: int = 3) -> list[str]:
        """Titles of the ``max_terms`` articles sharing the most distinct tokens
        with ``text`` (title and body both count), ties broken by title.
        Articles sharing none are never returned."""
        overlap = Counter(itertools.chain.from_iterable(
            self._postings.get(tok, ()) for tok in set(tokenize(text))
        ))
        return [term for _, term in heapq.nsmallest(
            max_terms, ((-n, term) for term, n in overlap.items()))]

    def body_tokens(self, term: str) -> list[str]:
        """``tokenize`` of the article body, computed when the article was stored."""
        return self._body_tokens[term]

    def save(self, path: str | Path) -> None:
        lines = [
            f"{term}\t{self.articles[term]}".replace("\n", " ")
            for term in sorted(self.articles)
        ]
        atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))

    @classmethod
    def from_file(cls, path: str | Path) -> "BackgroundStore":
        articles: dict[str, str] = {}
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            term, _, body = line.partition("\t")
            articles[term] = body
        return cls(articles=articles)


def fetch_background(
    aspect_text: str, store: BackgroundStore | None, max_terms: int = 3
) -> str:
    """Concatenated bodies of the ``max_terms`` best-overlapping articles.

    Articles are ranked by how many of the aspect's tokens they contain (title
    and body both count), ties broken by title. No overlap means no background,
    which is a normal empty result rather than an error.
    """
    if store is None:
        return ""
    return " ".join(store.articles[term] for term in store.best_terms(aspect_text, max_terms))


@dataclass
class CorrTrainConfig:
    learning_rate: float = 0.5
    epochs: int = 300
    seed: int = 0
    neg_ratio: int = NEG_RATIO

    def to_json_obj(self) -> dict:
        return {
            "learning_rate": self.learning_rate,
            "epochs": self.epochs,
            "seed": self.seed,
            "neg_ratio": self.neg_ratio,
        }


@dataclass
class CorrelationModel:
    """Two-tower scorer: avg-of-word-vector towers plus a logistic combiner.

    The feature tower and the background tower share ``embedding`` unless a
    separate ``background_embedding`` is supplied. ``weights`` act on the
    interaction features [u*v, |u-v|, cos(u, v)].
    """

    embedding: EmbeddingModel
    weights: np.ndarray
    bias: float
    train_config: CorrTrainConfig = field(default_factory=CorrTrainConfig)
    background_embedding: EmbeddingModel | None = None
    loss_history: list[float] = field(default_factory=list)

    def tower_vector(self, text: str, store: BackgroundStore | None) -> np.ndarray:
        """Average word vector of the text enriched with its background.

        The background tokens are those of ``fetch_background(text, store)``:
        tokenizing the space-joined bodies gives the concatenation of each
        body's cached token list. Out-of-vocabulary tokens count toward the
        average as zero vectors. NumPy sums the gathered rows one row at a
        time in token order, feature tokens first, so the result equals adding
        the token vectors one by one; a one-dimensional embedding is the
        exception, as NumPy sums a single column pairwise.
        """
        feat_tokens = tokenize(text)
        bg_tokens: list[str] = []
        if store is not None:
            for term in store.best_terms(text):
                bg_tokens.extend(store.body_tokens(term))
        total = len(feat_tokens) + len(bg_tokens)
        if total == 0:
            return np.zeros(self.embedding.dim, dtype=np.float64)
        bg_model = self.background_embedding or self.embedding
        if bg_model is self.embedding:
            rows = self.embedding.rows(feat_tokens + bg_tokens)
        else:
            rows = np.concatenate([self.embedding.rows(feat_tokens), bg_model.rows(bg_tokens)])
        return rows.sum(axis=0, dtype=np.float64) / total

    def save(self, path: str | Path) -> None:
        header = json.dumps(
            {"dim": int(self.weights.size), "bias": self.bias,
             "train_config": self.train_config.to_json_obj()},
            sort_keys=True,
        ).encode("utf-8")
        blob = (
            _MAGIC
            + struct.pack("<I", len(header))
            + header
            + self.weights.astype("<f8").tobytes()
        )
        atomic_write_bytes(path, blob)

    @classmethod
    def load(
        cls,
        path: str | Path,
        embedding: EmbeddingModel,
        background_embedding: EmbeddingModel | None = None,
    ) -> "CorrelationModel":
        blob = Path(path).read_bytes()
        if blob[: len(_MAGIC)] != _MAGIC:
            raise ValueError(f"{path}: not a correlation model file")
        off = len(_MAGIC)
        (header_len,) = struct.unpack_from("<I", blob, off)
        off += 4
        header = json.loads(blob[off : off + header_len].decode("utf-8"))
        off += header_len
        weights = np.frombuffer(blob[off:], dtype="<f8").copy()
        if weights.size != header["dim"]:
            raise ValueError(f"{path}: weight block size mismatch")
        return cls(
            embedding=embedding,
            weights=weights,
            bias=float(header["bias"]),
            train_config=CorrTrainConfig(**header["train_config"]),
            background_embedding=background_embedding,
        )

    def export_text(self, path: str | Path) -> None:
        lines = [f"bias {self.bias!r}"]
        lines.extend(f"w{i} {float(w)!r}" for i, w in enumerate(self.weights))
        atomic_write_text(path, "\n".join(lines) + "\n")


def _norm(u: np.ndarray) -> float:
    return float(np.linalg.norm(u))


def _interaction(u: np.ndarray, nu: float, v: np.ndarray, nv: float) -> np.ndarray:
    """[u*v, |u-v|, cos(u, v)] for towers with Euclidean norms ``nu`` and ``nv``."""
    cos = 0.0 if nu == 0.0 or nv == 0.0 else float(np.dot(u, v) / (nu * nv))
    return np.concatenate([u * v, np.abs(u - v), [cos]])


def interaction_features(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return _interaction(u, _norm(u), v, _norm(v))


def _probability(
    model: "CorrelationModel", u: np.ndarray, nu: float, v: np.ndarray, nv: float
) -> float:
    logit = float(np.dot(model.weights, _interaction(u, nu, v, nv))) + model.bias
    return float(_sigmoid(logit))


def train_correlation(
    pairs: Sequence[FeaturePair],
    store: BackgroundStore | None,
    embedding: EmbeddingModel,
    config: CorrTrainConfig | None = None,
    background_embedding: EmbeddingModel | None = None,
) -> CorrelationModel:
    """Fit the logistic combiner with full-batch gradient descent.

    Weights start at zero, so training is deterministic; the per-epoch binary
    cross-entropy is kept on the model for inspection and diverging (non-
    finite) loss raises.
    """
    if not pairs:
        raise ValueError("pairs must be non-empty")
    cfg = config or CorrTrainConfig()
    model = CorrelationModel(
        embedding=embedding,
        weights=np.zeros(2 * embedding.dim + 1),
        bias=0.0,
        train_config=cfg,
        background_embedding=background_embedding,
    )
    tower_cache: dict[str, np.ndarray] = {}

    def tower(text: str) -> np.ndarray:
        if text not in tower_cache:
            tower_cache[text] = model.tower_vector(text, store)
        return tower_cache[text]

    x = np.stack([interaction_features(tower(p.a), tower(p.b)) for p in pairs])
    y = np.array([p.label for p in pairs], dtype=np.float64)
    n = len(pairs)

    w = model.weights
    b = 0.0
    for _ in range(cfg.epochs):
        p = _sigmoid(x @ w + b)
        g = p - y
        w = w - cfg.learning_rate * (x.T @ g) / n
        b = b - cfg.learning_rate * float(g.mean())
        p = np.clip(_sigmoid(x @ w + b), 1e-12, 1.0 - 1e-12)
        loss = float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))
        if not math.isfinite(loss):
            raise DivergedTraining(f"non-finite loss after epoch {len(model.loss_history) + 1}")
        model.loss_history.append(loss)
    model.weights = w
    model.bias = b
    return model


def score(
    model: CorrelationModel,
    feature: str,
    candidate: str,
    store: BackgroundStore | None = None,
) -> float:
    """Association probability between a known feature and a candidate value."""
    u = model.tower_vector(feature, store)
    v = model.tower_vector(candidate, store)
    return _probability(model, u, _norm(u), v, _norm(v))


def software_features(
    target: TvdRecord, db: MappingDb, corpus: Corpus
) -> list[str]:
    """Every populated aspect text of the target software's records.

    Sibling records are found through the mapping database; the target's own
    slots are read from the record as passed in (not the corpus copy), so a
    masked aspect never leaks back in. With no resolvable software the
    target's own known aspects serve as the feature list.
    """
    try:
        _, siblings = resolve(db, target.cve_id)
    except NotFound:
        siblings = [target.cve_id]
    features: list[str] = []
    seen: set[str] = set()

    def collect(rec: TvdRecord) -> None:
        for kind in AspectKind:
            value = rec.aspects.get(kind)
            if value and value not in seen:
                seen.add(value)
                features.append(value)

    for cve_id in sorted(set(siblings) | {target.cve_id}):
        if cve_id == target.cve_id:
            collect(target)
        else:
            rec = corpus.get(cve_id)
            if rec is not None:
                collect(rec)
    return features


@dataclass(frozen=True)
class RankedCandidate:
    candidate: CandidateAnswer
    score: float


def rank_candidates(
    model: CorrelationModel,
    features: Sequence[str],
    candidates: Sequence[CandidateAnswer],
    store: BackgroundStore | None = None,
    aggregation: str = "mean",
) -> list[RankedCandidate]:
    """Order candidates by aggregated association with the software features.

    The aggregate is the mean score over all features by default ("max" and
    "sum" are available); with no features every candidate gets the neutral
    0.5 so the ordering degrades to round order. Ties break by earliest round,
    then candidate text. The first element is the pipeline's final answer.
    """
    if not candidates:
        raise ValueError("candidates must be non-empty")
    if aggregation not in ("mean", "max", "sum"):
        raise ValueError(f"unknown aggregation: {aggregation!r}")

    feature_towers = [(u, _norm(u)) for u in (model.tower_vector(f, store) for f in features)]
    ranked: list[RankedCandidate] = []
    for cand in candidates:
        if not feature_towers:
            aggregate = 0.5
        else:
            v = model.tower_vector(cand.text, store)
            nv = _norm(v)
            scores = [_probability(model, u, nu, v, nv) for u, nu in feature_towers]
            # fsum keeps aggregation exactly permutation-invariant.
            if aggregation == "mean":
                aggregate = math.fsum(scores) / len(scores)
            elif aggregation == "max":
                aggregate = max(scores)
            else:
                aggregate = math.fsum(scores)
        ranked.append(RankedCandidate(candidate=cand, score=aggregate))
    ranked.sort(key=lambda rc: (-rc.score, rc.candidate.round, rc.candidate.text))
    return ranked
