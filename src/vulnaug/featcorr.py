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

import itertools
import json
import math
import operator
import struct
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import AspectKind, Corpus, TvdRecord
from .embed import EmbeddingModel, _sigmoid, tokenize
from .errors import DivergedTraining, EmptyTrainingSet
from .genprompt import CandidateAnswer
from .ioutil import atomic_write_bytes, atomic_write_text
from .mapping import MappingDb, siblings

#: Negatives are downsampled to twice the positive count; fixed by contract.
NEG_RATIO = 2

_MAGIC = b"VACORR01"

#: Training pairs whose towers are stacked at once while the design matrix is built.
_PAIR_BLOCK = 2048


@dataclass(frozen=True)
class FeaturePair:
    a: str
    b: str
    label: int
    origin: tuple[str, str]

    def __post_init__(self) -> None:
        # train_correlation's one-log-per-pair loss relies on this.
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label!r}")
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

    Each body's token list is kept from the time the article is stored. Lookups
    read an inverted index of posting arrays: for each token, the indices (in
    sorted-title order) of the articles whose title or body holds it. The index
    is built by the first lookup after the articles change, so a run of
    :meth:`add` calls costs no rebuild each, and a lookup touches only the
    postings of its own tokens. Each body's vocab ids are kept too, for the
    last embedding asked for (:meth:`body_ids`). ``version`` counts the
    :meth:`add` calls, so a cache built on the articles can tell they changed.
    """

    articles: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._body_tokens = {term: tokenize(body) for term, body in self.articles.items()}
        # (titles in sorted order, token -> indices into them), or None when stale.
        self._index: tuple[list[str], dict[str, np.ndarray]] | None = None
        # (embedding, title -> that embedding's ids of the body tokens)
        self._body_ids: tuple[EmbeddingModel | None, dict[str, np.ndarray]] = (None, {})
        self.version = 0

    def __len__(self) -> int:
        return len(self.articles)

    def add(self, term: str, body: str) -> None:
        self.articles[term] = body
        self._body_tokens[term] = tokenize(body)
        self._body_ids[1].pop(term, None)
        self._index = None
        self.version += 1

    def _build_index(self) -> tuple[list[str], dict[str, np.ndarray]]:
        titles = sorted(self.articles)
        postings: dict[str, list[int]] = {}
        for i, term in enumerate(titles):
            for tok in set(tokenize(term)) | set(self._body_tokens[term]):
                postings.setdefault(tok, []).append(i)
        return titles, {tok: np.array(ids, dtype=np.intp) for tok, ids in postings.items()}

    def best_terms(self, tokens: Iterable[str], max_terms: int = 3) -> list[str]:
        """Titles of the ``max_terms`` articles sharing the most distinct
        ``tokens`` (title and body both count), ties broken by title. Articles
        sharing none are never returned."""
        index = self._index
        if index is None:
            index = self._index = self._build_index()
        titles, postings = index
        hits = [postings[tok] for tok in set(tokens) if tok in postings]
        if not hits or max_terms <= 0:
            return []
        overlap = np.bincount(np.concatenate(hits))
        matched = np.flatnonzero(overlap)
        # A stable sort keeps equal overlaps in title order.
        best = matched[np.argsort(-overlap[matched], kind="stable")[:max_terms]]
        return [titles[i] for i in best.tolist()]

    def body_tokens(self, term: str) -> list[str]:
        """``tokenize`` of the article body, computed when the article was stored."""
        return self._body_tokens[term]

    def body_ids(self, term: str, embedding: EmbeddingModel) -> np.ndarray:
        """``embedding.ids`` of the article's body tokens, computed once per
        article while ``embedding`` is the last one asked for."""
        owner, ids = self._body_ids
        if owner is not embedding:
            owner, ids = self._body_ids = (embedding, {})
        found = ids.get(term)
        if found is None:
            found = ids[term] = embedding.ids(self._body_tokens[term])
        return found

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
    return " ".join(
        store.articles[term] for term in store.best_terms(tokenize(aspect_text), max_terms))


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
        body's cached token list, whose vocab ids the store also keeps.
        Out-of-vocabulary tokens count toward the average as zero vectors.
        NumPy sums the gathered rows one row at a time in token order, feature
        tokens first, so the result equals adding the token vectors one by
        one; a one-dimensional embedding is the exception, as NumPy sums a
        single column pairwise. :class:`TowerCache` keeps the result by text.
        """
        feat_tokens = tokenize(text)
        terms = store.best_terms(feat_tokens) if store is not None else []
        total = len(feat_tokens) + sum(len(store.body_tokens(t)) for t in terms)
        if total == 0:
            return np.zeros(self.embedding.dim, dtype=np.float64)
        bg_model = self.background_embedding or self.embedding
        feat_ids = self.embedding.ids(feat_tokens)
        bg_ids = [store.body_ids(t, bg_model) for t in terms]
        if bg_model is self.embedding:
            rows = self.embedding.vectors[np.concatenate([feat_ids, *bg_ids])]
        else:
            bg_rows = bg_model.vectors[np.concatenate(bg_ids)] if bg_ids else bg_model.vectors[:0]
            rows = np.concatenate([self.embedding.vectors[feat_ids], bg_rows])
        return rows.sum(axis=0, dtype=np.float64, initial=0.0) / total

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


class TowerCache:
    """Tower vectors by text, each computed once by :meth:`CorrelationModel.tower_vector`.

    The towers held belong to one model, its two embeddings, one store and
    that store's ``version``. A lookup under any other of these, for example
    after :meth:`BackgroundStore.add` or after the model's embedding is
    replaced, drops them first. Misses are filled under a lock, after a second
    look, so threads that ask for the same text together compute it once.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # ((model, embedding, background embedding, store, store version), text -> tower)
        self._state: tuple[tuple, dict[str, np.ndarray]] = ((None,) * 5, {})

    def stack(self, model: CorrelationModel, texts: Sequence[str],
              store: BackgroundStore | None) -> np.ndarray:
        """The (n, d) towers of the n >= 1 ``texts`` in a new array, row i
        equal to ``model.tower_vector(texts[i], store)``; the stamp is checked
        once per call."""
        stamp = self._stamp(model, store)
        towers = self._towers(stamp) or {}
        found = list(map(towers.get, texts))
        missed = dict.fromkeys(text for text, tower in zip(texts, found) if tower is None)
        if missed:
            filled = {text: self._fill(model, text, store, stamp) for text in missed}
            found = [filled.get(text, tower) for text, tower in zip(texts, found)]
        return np.stack(found)

    @staticmethod
    def _stamp(model: CorrelationModel, store: BackgroundStore | None) -> tuple:
        return (model, model.embedding, model.background_embedding, store,
                store.version if store is not None else 0)

    def _fill(self, model: CorrelationModel, text: str,
              store: BackgroundStore | None, stamp: tuple) -> np.ndarray:
        """The tower of ``text``, computed under the lock unless another
        thread has put it in meanwhile."""
        with self._lock:
            towers = self._towers(stamp)
            if towers is None:
                towers = {}
                self._state = (stamp, towers)
            found = towers.get(text)
            if found is None:
                found = towers[text] = model.tower_vector(text, store)
        return found

    def _towers(self, stamp: tuple) -> dict[str, np.ndarray] | None:
        """The held towers if they were built under ``stamp``: the same objects
        and the same store version."""
        held, towers = self._state
        same = held[4] == stamp[4] and all(map(operator.is_, held[:4], stamp[:4]))
        return towers if same else None


def interaction_features(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Interaction rows [u*v, |u-v|, cos(u, v)] of paired towers.

    ``u`` and ``v`` are towers of shape (d,) or stacks of towers of shape
    (n, d) that broadcast against each other; the result has 2d+1 columns.
    Norms and dot products take one ``np.vecdot`` row each, which runs the
    same BLAS dot as ``np.dot`` and ``np.linalg.norm`` on that row alone, so
    every row is bit-equal to building it by itself. A zero tower has cosine 0.
    """
    d = u.shape[-1]
    nu = np.sqrt(np.vecdot(u, u))
    nv = np.sqrt(np.vecdot(v, v))
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = np.where((nu == 0.0) | (nv == 0.0), 0.0, np.vecdot(u, v) / (nu * nv))
    x = np.empty(np.broadcast_shapes(u.shape, v.shape)[:-1] + (2 * d + 1,))
    np.multiply(u, v, out=x[..., :d])
    np.subtract(u, v, out=x[..., d : 2 * d])
    np.abs(x[..., d : 2 * d], out=x[..., d : 2 * d])
    x[..., 2 * d] = cos
    return x


def _probability(model: "CorrelationModel", u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Association probability of each pair of rows of ``u`` and ``v``."""
    return _sigmoid(np.vecdot(interaction_features(u, v), model.weights) + model.bias)


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
    # x is filled one block of pairs at a time, so only one block's towers
    # are stacked beside it; each row is bit-equal to building it alone.
    towers = TowerCache()
    n = len(pairs)
    x = np.empty((n, 2 * embedding.dim + 1))
    for lo in range(0, n, _PAIR_BLOCK):
        block = pairs[lo : lo + _PAIR_BLOCK]
        x[lo : lo + len(block)] = interaction_features(
            towers.stack(model, [p.a for p in block], store),
            towers.stack(model, [p.b for p in block], store))
    y = np.array([p.label for p in pairs], dtype=np.float64)
    positive = y == 1.0

    w = model.weights
    b = 0.0
    # The probabilities under the updated weights serve both this epoch's
    # loss and the next epoch's gradient, so each epoch passes over x twice.
    p = _sigmoid(x @ w + b)
    for _ in range(cfg.epochs):
        g = p - y
        w = w - cfg.learning_rate * (x.T @ g) / n
        b = b - cfg.learning_rate * float(g.mean())
        p = _sigmoid(x @ w + b)
        # y is 0 or 1 (FeaturePair checks), so log(q) for a positive and
        # log(1 - q) for a negative equal y*log(q) + (1-y)*log(1-q) bit for
        # bit: the term dropped is 0 times a finite log.
        q = np.clip(p, 1e-12, 1.0 - 1e-12)
        loss = float(-np.mean(np.log(np.where(positive, q, 1.0 - q))))
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
    return float(_probability(model, u, v))


def software_features(
    target: TvdRecord, db: MappingDb, corpus: Corpus
) -> list[str]:
    """Every populated aspect text of the target software's records.

    Sibling records are found through the mapping database; the target's own
    slots are read from the record as passed in (not the corpus copy), so a
    masked aspect never leaks back in. With no resolvable software the
    target's own known aspects serve as the feature list.
    """
    features: list[str] = []
    seen: set[str] = set()

    def collect(rec: TvdRecord) -> None:
        for kind in AspectKind:
            value = rec.aspects.get(kind)
            if value and value not in seen:
                seen.add(value)
                features.append(value)

    for cve_id in sorted({*siblings(db, target.cve_id), target.cve_id}):
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
    towers: TowerCache | None = None,
) -> list[RankedCandidate]:
    """Order candidates by aggregated association with the software features.

    The aggregate is the mean score over all features by default ("max" and
    "sum" are available); with no features every candidate gets the neutral
    0.5 so the ordering degrades to round order. Ties break by earliest round,
    then candidate text. The first element is the pipeline's final answer.
    Towers come from ``towers``, a cache the caller may keep across calls.
    """
    if not candidates:
        raise ValueError("candidates must be non-empty")
    if aggregation not in ("mean", "max", "sum"):
        raise ValueError(f"unknown aggregation: {aggregation!r}")

    if towers is None:
        towers = TowerCache()
    if features:
        feature_towers = towers.stack(model, features, store)
        candidate_towers = towers.stack(model, [cand.text for cand in candidates], store)
        scores = [_probability(model, feature_towers, tower).tolist() for tower in candidate_towers]
    else:
        scores = [[0.5]] * len(candidates)  # one neutral score each
    ranked: list[RankedCandidate] = []
    for cand, cand_scores in zip(candidates, scores):
        # fsum keeps aggregation exactly permutation-invariant.
        if aggregation == "mean":
            aggregate = math.fsum(cand_scores) / len(cand_scores)
        elif aggregation == "max":
            aggregate = max(cand_scores)
        else:
            aggregate = math.fsum(cand_scores)
        ranked.append(RankedCandidate(candidate=cand, score=aggregate))
    ranked.sort(key=lambda rc: (-rc.score, rc.candidate.round, rc.candidate.text))
    return ranked
