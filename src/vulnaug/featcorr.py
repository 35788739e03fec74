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
import math
import threading
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import AspectKind, Corpus, TvdRecord
from .embed import EmbeddingModel, _sigmoid, tokenize
from .errors import DivergedTraining, EmptyTrainingSet
from .genprompt import CandidateAnswer
from .ioutil import atomic_write_lines, read_model_file, write_model_file
from .mapping import MappingDb, siblings

#: Negatives are downsampled to twice the positive count; fixed by contract.
NEG_RATIO = 2

#: How rank_candidates combines a candidate's scores over the features.
AGGREGATIONS = ("mean", "max", "sum")

_MAGIC = b"VACORR01"

#: Training pairs whose towers are stacked at once while the design matrix is built.
_PAIR_BLOCK = 2048

#: Texts whose token sums and article rankings are built at once; bounds the
#: (tokens, texts, d) and (texts, articles) transients of a tower fill.
_TOWER_BLOCK = 64

#: Cells of one (texts, articles) overlap matrix: a store of more than
#: _OVERLAP_CELLS / _TOWER_BLOCK articles ranks fewer texts at a time.
_OVERLAP_CELLS = 2**18


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
    """Local keyword-searchable article collection (term -> body), fixed once built.

    Each body's token list and an inverted index of posting arrays are built
    with the store: for each token, the indices (in sorted-title order) of the
    articles whose title or body holds it, so a lookup touches only the
    postings of its own tokens.
    """

    articles: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._body_tokens = {term: tokenize(body) for term, body in self.articles.items()}
        self._titles = sorted(self.articles)
        postings: dict[str, list[int]] = {}
        for i, term in enumerate(self._titles):
            for tok in set(tokenize(term)) | set(self._body_tokens[term]):
                postings.setdefault(tok, []).append(i)
        self._postings = {tok: np.array(ids, dtype=np.intp) for tok, ids in postings.items()}

    def __len__(self) -> int:
        return len(self.articles)

    def _best_rows(self, token_lists: Sequence[Iterable[str]], max_terms: int = 3) -> np.ndarray:
        """The (k, ``max_terms``) sorted-title indices of the articles sharing
        the most distinct tokens with each of the k token lists, best first.

        One ``np.bincount`` over the lists' postings, each offset by its row
        times A, counts a (k, A) overlap matrix for A articles. Each rank is one
        ``argmax`` per row, which returns the first maximum, so ties go to the
        earlier title; the pick is then zeroed. A pick with no overlap is A,
        the index of :meth:`body_sums`' zero row.
        """
        n = len(self._titles)
        picks = np.full((len(token_lists), max(max_terms, 0)), n, dtype=np.intp)
        hits, rows = [], []
        for row, tokens in enumerate(token_lists):
            for found in map(self._postings.get, set(tokens)):
                if found is not None:
                    hits.append(found)
                    rows.append(row * n)
        if not hits or max_terms <= 0:
            return picks
        flat = np.concatenate(hits) + np.repeat(rows, [len(h) for h in hits])
        overlap = np.bincount(flat, minlength=len(token_lists) * n).reshape(-1, n)
        every = np.arange(len(token_lists))
        for rank in range(min(max_terms, n)):
            best = overlap.argmax(axis=1)
            picks[:, rank] = np.where(overlap[every, best] > 0, best, n)
            overlap[every, best] = 0
        return picks

    def body_sums(self, embedding: EmbeddingModel) -> tuple[np.ndarray, np.ndarray]:
        """The (A + 1, d) float64 sums of each article body's token vectors and
        the (A + 1,) body token counts, out-of-vocabulary tokens included, rows
        in sorted-title order. The last row is zero and stands for no article."""
        bodies = [self._body_tokens[term] for term in self._titles] + [[]]
        return _token_sums(embedding, bodies), np.array([len(body) for body in bodies], dtype=np.intp)

    def save(self, path: str | Path) -> None:
        atomic_write_lines(path, (f"{term}\t{body}".replace("\n", " ")
                                  for term, body in sorted(self.articles.items())))

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
    picks = store._best_rows([tokenize(aspect_text)], max_terms)[0].tolist()
    return " ".join(store.articles[store._titles[i]] for i in picks if i < len(store))


def _token_sums(embedding: EmbeddingModel, token_lists: Sequence[list[str]]) -> np.ndarray:
    """The (n, d) float64 sums of each token list's word vectors.

    Out-of-vocabulary tokens add nothing. Each block of at most
    ``_TOWER_BLOCK`` lists is gathered into one zero-padded (L, k, d) float64
    array, token position by list, and reduced over positions from 0.0. NumPy
    adds one position's (k, d) slice at a time, so each sum equals adding its
    token vectors one by one in token order. The exception is a block of one
    list under a one-dimensional embedding, a single column, which NumPy sums
    pairwise.
    """
    out = np.empty((len(token_lists), embedding.dim))
    for lo in range(0, len(token_lists), _TOWER_BLOCK):
        ids = [embedding.ids(tokens) for tokens in token_lists[lo : lo + _TOWER_BLOCK]]
        sizes = np.array([len(i) for i in ids])
        starts = np.cumsum(sizes) - sizes
        flat = np.concatenate(ids)
        rows = np.zeros((sizes.max(), len(ids), embedding.dim))
        rows[np.arange(flat.size) - np.repeat(starts, sizes),
             np.repeat(np.arange(len(ids)), sizes)] = embedding.vectors[flat]
        np.add.reduce(rows, axis=0, initial=0.0, out=out[lo : lo + len(ids)])
    return out


def _compute_towers(embedding: EmbeddingModel, texts: Sequence[str],
                    store: BackgroundStore | None,
                    body_sums: tuple[np.ndarray, np.ndarray] | None) -> np.ndarray:
    """The (n, d) towers of ``texts`` as :meth:`CorrelationModel.tower_vectors`
    defines them, with ``body_sums`` those of ``store`` under ``embedding``.

    Articles are ranked up to ``_TOWER_BLOCK`` texts at a time, and fewer when
    the store is so large that the overlap matrix would exceed
    ``_OVERLAP_CELLS``.
    """
    tokens = [tokenize(text) for text in texts]
    towers = _token_sums(embedding, tokens)
    total = np.array([len(t) for t in tokens], dtype=np.intp)
    if store is not None:
        sums, counts = body_sums
        step = max(1, min(_TOWER_BLOCK, _OVERLAP_CELLS // max(1, len(store))))
        for lo in range(0, len(texts), step):
            block = slice(lo, lo + step)
            for picks in store._best_rows(tokens[block]).T:
                towers[block] += sums[picks]
                total[block] += counts[picks]
    towers /= np.maximum(total, 1)[:, None]
    return towers


@dataclass
class CorrTrainConfig:
    learning_rate: float = 0.5
    epochs: int = 300
    seed: int = 0
    neg_ratio: int = NEG_RATIO

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")


@dataclass
class CorrelationModel:
    """Two-tower scorer: avg-of-word-vector towers plus a logistic combiner.

    Feature and background tokens share ``embedding``. ``weights`` act on the
    interaction features [u*v, |u-v|, cos(u, v)]. The model keeps every tower
    it computes (:meth:`tower_vectors`).
    """

    embedding: EmbeddingModel
    weights: np.ndarray
    bias: float
    train_config: CorrTrainConfig = field(default_factory=CorrTrainConfig)
    loss_history: list[float] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False,
                                  compare=False)
    # (embedding, store, that store's body sums, text -> tower)
    _towers: tuple = field(default_factory=lambda: (None, None, None, {}), init=False,
                          repr=False, compare=False)

    def tower_vectors(self, texts: Sequence[str], store: BackgroundStore | None) -> np.ndarray:
        """The (n, d) towers of ``texts`` in a new array: each text's average
        word vector, enriched with its background.

        A text's background is the bodies of the (up to) 3 articles of
        ``store`` that share the most of its distinct tokens, ties broken by
        title, as :func:`fetch_background` ranks them. Its tower is the sum of
        its own token vectors, in token order, plus the chosen bodies'
        :meth:`BackgroundStore.body_sums` in rank order, divided by the number
        of tokens. Wherever float64 holds every partial sum exactly, this
        equals adding all the token vectors one by one, text first.
        Out-of-vocabulary tokens count toward the number as zero vectors; a
        text with no tokens has a zero tower.

        Towers are kept by text for one ``(embedding, store)`` stamp, the same
        objects: a call under another drops them first. Misses are filled
        under a lock, after a second look, by one batched computation, so
        threads that ask for the same text together compute it once.
        """
        towers = self._held(store) or {}
        found = list(map(towers.get, texts))
        if any(tower is None for tower in found):
            with self._lock:
                if self._held(store) is None:
                    sums = None if store is None else store.body_sums(self.embedding)
                    self._towers = (self.embedding, store, sums, {})
                embedding, _, sums, towers = self._towers
                missed = [text for text in dict.fromkeys(texts) if text not in towers]
                towers.update(zip(missed, _compute_towers(embedding, missed, store, sums)))
                found = list(map(towers.get, texts))
        return np.stack(found) if found else np.empty((0, self.embedding.dim))

    def _held(self, store: BackgroundStore | None) -> dict[str, np.ndarray] | None:
        """The kept towers if they were built with this embedding and ``store``."""
        embedding, held, _, towers = self._towers
        return towers if embedding is self.embedding and held is store else None

    def tower_vector(self, text: str, store: BackgroundStore | None) -> np.ndarray:
        """The tower of one text: row 0 of :meth:`tower_vectors` of ``[text]``."""
        return self.tower_vectors([text], store)[0]

    def save(self, path: str | Path) -> None:
        header = {"dim": int(self.weights.size), "bias": self.bias,
                  "train_config": asdict(self.train_config)}
        write_model_file(path, _MAGIC, header, self.weights.astype("<f8").tobytes())

    @classmethod
    def load(cls, path: str | Path, embedding: EmbeddingModel) -> "CorrelationModel":
        """Read a model saved by :meth:`save`; a ValueError names ``path`` when
        the file is damaged or its weights do not fit ``embedding``."""
        header, _, weights = read_model_file(
            path, _MAGIC, leading=0, dtype="<f8", shape=("dim",), config=CorrTrainConfig)
        if type(header.get("bias")) not in (int, float):
            raise ValueError(f"{path}: the header's bias {header.get('bias')!r} is not a number")
        if weights.size != 2 * embedding.dim + 1:
            raise ValueError(f"{path}: {weights.size} weights, but a {embedding.dim}-dim"
                             f" embedding needs {2 * embedding.dim + 1}")
        return cls(
            embedding=embedding,
            weights=weights,
            bias=float(header["bias"]),
            train_config=header["train_config"],
        )

    def export_text(self, path: str | Path) -> None:
        lines = [f"bias {self.bias!r}"]
        lines.extend(f"w{i} {float(w)!r}" for i, w in enumerate(self.weights))
        atomic_write_lines(path, lines)


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
    )
    # x is filled one block of pairs at a time, so only one block's towers
    # are stacked beside it; each row is bit-equal to building it alone.
    n = len(pairs)
    x = np.empty((n, 2 * embedding.dim + 1))
    for lo in range(0, n, _PAIR_BLOCK):
        block = pairs[lo : lo + _PAIR_BLOCK]
        x[lo : lo + len(block)] = interaction_features(
            model.tower_vectors([p.a for p in block], store),
            model.tower_vectors([p.b for p in block], store))
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
    u, v = model.tower_vectors([feature, candidate], store)
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
) -> list[RankedCandidate]:
    """Order candidates by aggregated association with the software features.

    The aggregate is the mean score over all features by default ("max" and
    "sum" are available); with no features every candidate gets the neutral
    0.5 so the ordering degrades to round order. Ties break by earliest round,
    then candidate text. The first element is the pipeline's final answer.
    """
    if not candidates:
        raise ValueError("candidates must be non-empty")
    if aggregation not in AGGREGATIONS:
        raise ValueError(f"unknown aggregation: {aggregation!r}")

    if features:
        feature_towers = model.tower_vectors(features, store)
        candidate_towers = model.tower_vectors([cand.text for cand in candidates], store)
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
