"""Software-feature correlation model and candidate ranking.

Training pairs come from aspect co-occurrence: two aspects of the same record
are associated (label 1), aspects of different records are not (label 0,
downsampled to twice the positive count). Each side of a pair is enriched with
background text looked up in a local article store, encoded as an average of
word vectors, and a logistic combiner over symmetric interaction features
predicts the association probability. Ranking a target's candidate answers by
their mean probability against the software's known features filters out
hallucinated values.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Corpus, TvdRecord
from .embed import EmbeddingModel, _add_rows, _sigmoid, _TextCache, tokenize
from .errors import DivergedTraining, EmptyTrainingSet, FeedFormatError
from .genprompt import CandidateAnswer
from .ioutil import atomic_write_lines, read_lines, read_model_file, write_model_file
from .mapping import MappingDb, siblings

#: Negatives are downsampled to twice the positive count; fixed by contract.
NEG_RATIO = 2

_MAGIC = b"VACORR01"

#: Training pairs whose interaction rows are built at once while the fit's
#: gradient and Hessian are summed.
_PAIR_BLOCK = 2048

#: Ridge penalty on the combiner weights: the fit minimises the summed
#: cross-entropy plus _RIDGE / 2 times the squared norm of w.
_RIDGE = 1.0

#: The fit has converged once the Newton decrement per pair falls below this.
_NEWTON_TOL = 1e-12

#: Interaction rows of one rank_candidates score grid, unless one candidate
#: has more features; bounds the (candidates, features, 2d+1) array.
_GRID_ROWS = 512

#: Texts whose article rankings are built at once; bounds the (texts, articles)
#: overlap matrix of a tower fill.
_TOWER_BLOCK = 64

#: Cells of one (texts, articles) overlap matrix: a store of more than
#: _OVERLAP_CELLS / _TOWER_BLOCK articles ranks fewer texts at a time.
_OVERLAP_CELLS = 2**18

#: Articles whose bodies make up a text's background.
_BACKGROUND_ARTICLES = 3


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


@dataclass(frozen=True, eq=False)
class TrainingPairs(Sequence[FeaturePair]):
    """Training pairs held as arrays rather than one object per pair.

    Pair i joins ``texts[ia[i]]`` and ``texts[ib[i]]``, is positive where
    ``positive[i]`` holds, and comes from records ``cve_ids[ra[i]]`` and
    ``cve_ids[rb[i]]``. ``texts`` are the pairs' distinct aspect texts.
    Indexing and iterating yield :class:`FeaturePair` views, a slice is a
    TrainingPairs over the same texts, and it equals any sequence of equal
    pairs.
    """

    texts: list[str]
    ia: np.ndarray
    ib: np.ndarray
    positive: np.ndarray
    cve_ids: list[str]
    ra: np.ndarray
    rb: np.ndarray

    @classmethod
    def of(cls, pairs: Sequence[FeaturePair]) -> "TrainingPairs":
        """``pairs`` as a TrainingPairs; texts and cve_ids are numbered in
        order of first use."""
        if isinstance(pairs, cls):
            return pairs
        texts: dict[str, int] = {}
        cve_ids: dict[str, int] = {}

        def ids(values: Iterable[str], index: dict[str, int]) -> np.ndarray:
            return np.fromiter((index.setdefault(v, len(index)) for v in values),
                               dtype=np.intp, count=len(pairs))

        # Keyword arguments are evaluated in order, so every dict is full
        # before it is listed.
        return cls(ia=ids((p.a for p in pairs), texts), ib=ids((p.b for p in pairs), texts),
                   positive=np.fromiter((p.label == 1 for p in pairs), dtype=bool, count=len(pairs)),
                   ra=ids((p.origin[0] for p in pairs), cve_ids),
                   rb=ids((p.origin[1] for p in pairs), cve_ids),
                   texts=list(texts), cve_ids=list(cve_ids))

    def __len__(self) -> int:
        return len(self.ia)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return dataclasses.replace(self, ia=self.ia[i], ib=self.ib[i], positive=self.positive[i],
                                       ra=self.ra[i], rb=self.rb[i])
        i = range(len(self))[i]
        return FeaturePair(a=self.texts[self.ia[i]], b=self.texts[self.ib[i]],
                           label=int(self.positive[i]),
                           origin=(self.cve_ids[self.ra[i]], self.cve_ids[self.rb[i]]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


def build_training_pairs(corpus: Corpus, seed: int = 0) -> TrainingPairs:
    """All intra-record aspect pairs as positives, sampled cross-record pairs
    as negatives (exactly 2x the positives, or every available negative when
    the pool is smaller). Sampling is uniform without replacement under the
    seed. Positives come first, each record's in :func:`itertools.combinations`
    order, then the negatives in (first, second) instance order."""
    text_ids: dict[str, int] = {}
    instance_text: list[int] = []  # per aspect instance: its text's index
    spans: list[range] = []  # per record: its instances
    cve_ids: list[str] = []
    for rec in corpus:
        texts = [v for v in rec.aspects.values() if v]
        spans.append(range(len(instance_text), len(instance_text) + len(texts)))
        instance_text.extend(text_ids.setdefault(text, len(text_ids)) for text in texts)
        cve_ids.append(rec.cve_id)
    positives = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(span, 2) for span in spans),
        dtype=np.dtype((np.intp, 2))).reshape(-1, 2)
    if not len(positives):
        raise EmptyTrainingSet("no record has two or more populated aspects")
    # Each array below is dropped once the next step no longer needs it, so
    # few pair-length arrays are alive at once.
    text_of = np.array(instance_text, dtype=np.intp)
    del instance_text
    sizes = [len(span) for span in spans]
    del spans

    # Instances of one record are contiguous, so the cross-record partners of
    # instance i are exactly j in [end[i], len(text_of)), end[i] being one
    # past its record's last instance. A flat index over those rows, in
    # (i, j) order, numbers every cross pair without listing them, and maps
    # back to (i, j) by a search over the row starts; the columns are then
    # built in place in the flat index.
    end = np.repeat(np.cumsum(sizes), sizes)
    per_row = len(text_of) - end
    row_start = np.concatenate(([0], np.cumsum(per_row)[:-1]))
    total = int(per_row.sum())
    del per_row
    wanted = NEG_RATIO * len(positives)
    rng = np.random.default_rng(seed)
    if total > wanted:
        cols = rng.choice(total, size=wanted, replace=False)
        cols.sort()
    else:
        cols = np.arange(total)
    rows = np.searchsorted(row_start, cols, side="right")
    rows -= 1
    cols -= row_start[rows]
    cols += end[rows]
    del end, row_start

    first = np.concatenate((positives[:, 0], rows))
    del rows
    second = np.concatenate((positives[:, 1], cols))
    del cols
    n_positive = len(positives)
    del positives
    # Only the texts that some pair holds are kept, in order of first
    # instance, so each instance's text index is renumbered over them.
    held = np.zeros(len(text_of), dtype=bool)
    held[first] = held[second] = True
    used = np.zeros(len(text_ids), dtype=bool)
    used[text_of[held]] = True
    del held
    text_of = (np.cumsum(used) - 1)[text_of]
    record_of = np.repeat(np.arange(len(sizes), dtype=np.intp), sizes)
    ia, ra = text_of[first], record_of[first]
    del first
    ib, rb = text_of[second], record_of[second]
    del second
    positive = np.zeros(len(ia), dtype=bool)
    positive[:n_positive] = True
    return TrainingPairs(texts=list(itertools.compress(text_ids, used.tolist())), ia=ia, ib=ib,
                         positive=positive, cve_ids=cve_ids, ra=ra, rb=rb)


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

    def _best_rows(self, token_lists: Sequence[Iterable[str]]) -> np.ndarray:
        """The (k, ``_BACKGROUND_ARTICLES``) sorted-title indices of the
        articles sharing the most distinct tokens with each of the k token
        lists, best first.

        One comprehension pairs the posting array of each distinct token of
        each list with the list's row times A, and one ``np.bincount`` over
        the offset postings counts a (k, A) overlap matrix for A articles.
        Each rank is one ``argmax`` per row, which returns the first maximum,
        so ties go to the earlier title; the pick is then zeroed. A pick with
        no overlap is A, the index of :meth:`body_sums`' zero row.
        """
        n = len(self._titles)
        picks = np.full((len(token_lists), _BACKGROUND_ARTICLES), n, dtype=np.intp)
        hits = [(row * n, found) for row, tokens in enumerate(token_lists)
                for found in map(self._postings.get, set(tokens)) if found is not None]
        if not hits:
            return picks
        offsets, found = zip(*hits)
        flat = np.concatenate(found) + np.repeat(offsets, [len(f) for f in found])
        overlap = np.bincount(flat, minlength=len(token_lists) * n).reshape(-1, n)
        every = np.arange(len(token_lists))
        for rank in range(min(_BACKGROUND_ARTICLES, n)):
            best = overlap.argmax(axis=1)
            picks[:, rank] = np.where(overlap[every, best] > 0, best, n)
            overlap[every, best] = 0
        return picks

    def body_sums(self, embedding: EmbeddingModel) -> tuple[np.ndarray, np.ndarray]:
        """The (A + 1, d) float64 sums of each article body's token vectors and
        the (A + 1,) body token counts, out-of-vocabulary tokens included, rows
        in sorted-title order. The last row is zero and stands for no article."""
        bodies = [self._body_tokens[term] for term in self._titles] + [[]]
        return embedding.token_sums(bodies), np.array([len(body) for body in bodies], dtype=np.intp)

    def save(self, path: str | Path) -> None:
        r"""Write one ``term TAB body`` line per article, terms sorted, with
        each "\r" and "\n" of a body written as a space. A ValueError names
        the terms that no line can hold: blank ones and ones holding a tab,
        "\r" or "\n"."""
        bad = sorted(t for t in self.articles if not t.strip() or any(c in t for c in "\t\r\n"))
        if bad:
            raise ValueError(f"{path}: terms that are blank or hold a tab, CR or LF: {bad!r}")
        atomic_write_lines(path, (f"{term}\t{body}".replace("\r", " ").replace("\n", " ")
                                  for term, body in sorted(self.articles.items())))

    @classmethod
    def from_file(cls, path: str | Path) -> "BackgroundStore":
        """Read a file written by :meth:`save`. A FeedFormatError names
        ``path:line`` for a line without a tab, a blank term and a term that
        an earlier line holds."""
        articles: dict[str, str] = {}
        for line_no, line in read_lines(path):
            term, tab, body = line.partition("\t")
            if not tab:
                raise FeedFormatError("expected term TAB body", line_no, path)
            if not term.strip():
                raise FeedFormatError("blank term", line_no, path)
            if term in articles:
                raise FeedFormatError(f"term {term!r} is on an earlier line", line_no, path)
            articles[term] = body
        return cls(articles=articles)


def fetch_background(aspect_text: str, store: BackgroundStore | None) -> str:
    """Concatenated bodies of the ``_BACKGROUND_ARTICLES`` best-overlapping
    articles.

    Articles are ranked by how many of the aspect's tokens they contain (title
    and body both count), ties broken by title. No overlap means no background,
    which is a normal empty result rather than an error.
    """
    if store is None:
        return ""
    picks = store._best_rows([tokenize(aspect_text)])[0].tolist()
    return " ".join(store.articles[store._titles[i]] for i in picks if i < len(store))


def _compute_towers(embedding: EmbeddingModel, texts: Sequence[str],
                    store: BackgroundStore | None,
                    body_sums: tuple[np.ndarray, np.ndarray] | None) -> np.ndarray:
    """The (n, d) towers of ``texts`` as :meth:`CorrelationModel.tower_vectors`
    defines them, with ``body_sums`` those of ``store`` under ``embedding``.

    Texts are tokenized, summed and their articles ranked up to
    ``_TOWER_BLOCK`` texts at a time, and fewer when the store is so large
    that the overlap matrix would exceed ``_OVERLAP_CELLS``, so only one
    block's tokens exist at a time.
    """
    towers = np.empty((len(texts), embedding.dim))
    total = np.empty(len(texts), dtype=np.intp)
    articles = 0 if store is None else len(store)
    step = max(1, min(_TOWER_BLOCK, _OVERLAP_CELLS // max(1, articles)))
    for lo in range(0, len(texts), step):
        block = slice(lo, lo + step)
        tokens = [tokenize(text) for text in texts[block]]
        towers[block] = embedding.token_sums(tokens)
        total[block] = [len(t) for t in tokens]
        if store is not None:
            sums, counts = body_sums
            picks = store._best_rows(tokens)
            # Each text's own sum, then its bodies in rank order.
            towers[block] = _add_rows(np.concatenate((towers[None, block], sums[picks.T])))
            total[block] += np.add.reduce(counts[picks], axis=1)
    towers /= np.maximum(total, 1)[:, None]
    return towers


@dataclass
class CorrTrainConfig:
    """Settings of :func:`train_correlation`: ``epochs`` caps the number of
    Newton steps, and ``learning_rate``, in (0, 1), is the factor that scales
    a step down while it does not lower the penalized loss. ``neg_ratio`` is
    recorded in ``corr.bin`` and must be :data:`NEG_RATIO`, the ratio
    :func:`build_training_pairs` uses."""

    learning_rate: float = 0.5
    epochs: int = 300
    seed: int = 0
    neg_ratio: int = NEG_RATIO

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 < self.learning_rate < 1.0:
            raise ValueError(f"learning_rate must be in (0, 1), got {self.learning_rate}")
        if self.neg_ratio != NEG_RATIO:
            raise ValueError(f"neg_ratio is fixed at {NEG_RATIO}, got {self.neg_ratio}")


@dataclass
class CorrelationModel:
    """Two-tower scorer: avg-of-word-vector towers plus a logistic combiner.

    Feature and background tokens share ``embedding``, and ``store`` (None
    for no background) gives each tower its background. Both are fixed once
    the model is built: the model computes the store's
    :meth:`BackgroundStore.body_sums` then, and keeps every tower it computes
    (:meth:`tower_vectors`). ``weights`` act on the interaction features
    [u*v, |u-v|, cos(u, v)].
    """

    embedding: EmbeddingModel
    weights: np.ndarray
    bias: float
    train_config: CorrTrainConfig = field(default_factory=CorrTrainConfig)
    loss_history: list[float] = field(default_factory=list)
    store: BackgroundStore | None = None

    def __post_init__(self) -> None:
        self._body_sums = None if self.store is None else self.store.body_sums(self.embedding)
        self._towers = _TextCache(self.embedding.dim)

    def tower_vectors(self, texts: Sequence[str]) -> np.ndarray:
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

        Towers are kept by text; the misses of a call are computed by one
        batched computation.
        """
        return self._towers.stack(texts, lambda missed: _compute_towers(
            self.embedding, missed, self.store, self._body_sums))

    def tower_vector(self, text: str) -> np.ndarray:
        """The tower of one text: row 0 of :meth:`tower_vectors` of ``[text]``."""
        return self.tower_vectors([text])[0]

    def save(self, path: str | Path) -> None:
        header = {"dim": int(self.weights.size), "bias": self.bias,
                  "train_config": asdict(self.train_config)}
        write_model_file(path, _MAGIC, header, self.weights.astype("<f8").tobytes())

    @classmethod
    def load(cls, path: str | Path, embedding: EmbeddingModel,
             store: BackgroundStore | None = None) -> "CorrelationModel":
        """Read a model saved by :meth:`save`, with ``store`` as its
        background; a ValueError names ``path`` when the file is damaged or
        its weights do not fit ``embedding``."""
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
            store=store,
        )

    def export_text(self, path: str | Path) -> None:
        lines = [f"bias {self.bias!r}"]
        lines.extend(f"w{i} {float(w)!r}" for i, w in enumerate(self.weights))
        atomic_write_lines(path, lines)


def interaction_features(u: np.ndarray, v: np.ndarray,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Interaction rows [u*v, |u-v|, cos(u, v)] of paired towers.

    ``u`` and ``v`` are towers of shape (d,) or stacks of towers of shape
    (n, d) that broadcast against each other; the result has 2d+1 columns.
    It is written into ``out`` when given, which must have the result's shape
    and must not overlap ``u`` or ``v``, and is otherwise a new array.
    Norms and dot products take one ``np.vecdot`` row each, which runs the
    same BLAS dot as ``np.dot`` and ``np.linalg.norm`` on that row alone, so
    every row is bit-equal to building it by itself. A zero tower has cosine 0.
    """
    d = u.shape[-1]
    nu = np.sqrt(np.vecdot(u, u))
    nv = np.sqrt(np.vecdot(v, v))
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = np.where((nu == 0.0) | (nv == 0.0), 0.0, np.vecdot(u, v) / (nu * nv))
    x = out if out is not None else np.empty(
        np.broadcast_shapes(u.shape, v.shape)[:-1] + (2 * d + 1,))
    np.multiply(u, v, out=x[..., :d])
    np.subtract(u, v, out=x[..., d : 2 * d])
    np.abs(x[..., d : 2 * d], out=x[..., d : 2 * d])
    x[..., 2 * d] = cos
    return x


def _logistic(t: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-t) of each logit; where e^-t overflows to inf, p is 0, its
    limit, and no warning is raised."""
    with np.errstate(over="ignore"):
        return _sigmoid(t)


def _probability(model: "CorrelationModel", u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Association probability of each pair of rows of ``u`` and ``v``."""
    return _logistic(np.vecdot(interaction_features(u, v), model.weights) + model.bias)


def _block_terms(x: np.ndarray, positive: np.ndarray, theta: np.ndarray, work: np.ndarray,
                 hess: np.ndarray) -> tuple[float, np.ndarray]:
    """The summed cross-entropy and gradient, in the 2d+2 unknowns ``theta``
    = (w, b), of the pairs whose interaction rows are ``x``; their Hessian is
    written into ``hess``, and ``work``, of the shape of ``x``, holds x·r and
    then x·s.

    The loss takes one ``logaddexp`` per pair: log(1 + e^-t) for a positive
    and log(1 + e^t) for a negative, at logit t. The gradient's sums are
    ``np.add.reduce`` calls, which BLAS does not split; the Hessian's
    xᵀ·diag(s)·x is one matrix product.
    """
    t = np.vecdot(x, theta[:-1]) + theta[-1]
    p = _logistic(t)
    r = p - positive
    s = p * (1.0 - p)
    xr = np.multiply(x, r[:, None], out=work)
    grad = np.append(np.add.reduce(xr, axis=0), np.add.reduce(r))
    sx = np.multiply(x, s[:, None], out=work)
    np.matmul(x.T, sx, out=hess[:-1, :-1])
    hess[:-1, -1] = hess[-1, :-1] = np.add.reduce(sx, axis=0)
    hess[-1, -1] = np.add.reduce(s)
    return float(np.add.reduce(np.logaddexp(0.0, np.where(positive, -t, t)))), grad


def _newton_work(n: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The work arrays of :func:`_newton_terms` for ``n`` pairs of d-dim
    towers: one block's interaction rows, its row products, and its Hessian."""
    size = min(_PAIR_BLOCK, n)
    return np.empty((size, 2 * d + 1)), np.empty((size, 2 * d + 1)), np.empty((2 * d + 2,) * 2)


def _newton_terms(towers: np.ndarray, ia: np.ndarray, ib: np.ndarray, positive: np.ndarray,
                  theta: np.ndarray, work_arrays: tuple[np.ndarray, np.ndarray, np.ndarray]
                  ) -> tuple[float, float, np.ndarray, np.ndarray]:
    """The fit's terms at ``theta`` = (w, b): the summed cross-entropy, the
    penalized loss, and the penalized loss's gradient and Hessian.

    Pair i's interaction row is built from ``towers[ia[i]]`` and
    ``towers[ib[i]]``, ``_PAIR_BLOCK`` rows at a time, and each block's
    :func:`_block_terms` are added to the totals in block order. Every block
    is written into ``work_arrays``, :func:`_newton_work` of the pairs, which
    a fit makes once for all its passes. The two tower gathers sit in the
    front of the row-product array, which is not needed until the rows are
    built.
    """
    k = theta.size
    d = towers.shape[1]
    rows, products, block_hess = work_arrays
    loss, grad, hess = 0.0, np.zeros(k), np.zeros((k, k))
    for lo in range(0, len(ia), _PAIR_BLOCK):
        m = min(_PAIR_BLOCK, len(ia) - lo)
        u, v = products.reshape(-1)[: 2 * m * d].reshape(2, m, d)
        # "wrap" reads an index as plain indexing does, without the copy of
        # ``out`` that the default "raise" makes.
        np.take(towers, ia[lo : lo + m], axis=0, out=u, mode="wrap")
        np.take(towers, ib[lo : lo + m], axis=0, out=v, mode="wrap")
        x = interaction_features(u, v, out=rows[:m])
        block_loss, block_grad = _block_terms(x, positive[lo : lo + m], theta, products[:m],
                                              block_hess)
        loss += block_loss
        grad += block_grad
        hess += block_hess
    w = theta[:-1]
    grad[:-1] += _RIDGE * w
    hess[np.arange(k - 1), np.arange(k - 1)] += _RIDGE
    return loss, loss + 0.5 * _RIDGE * float(np.vecdot(w, w)), grad, hess


def train_correlation(
    pairs: Sequence[FeaturePair],
    store: BackgroundStore | None,
    embedding: EmbeddingModel,
    config: CorrTrainConfig | None = None,
) -> CorrelationModel:
    """Fit the logistic combiner by damped Newton steps, on a model built
    with ``store`` as its background.

    The fit minimises the summed cross-entropy plus ``_RIDGE`` / 2 · |w|²
    (the bias is not penalized) from w = 0, b = 0, so training is
    deterministic. Each step solves H·δ = g for the Newton step δ. A step
    whose penalized loss is not below the current one is scaled by
    ``config.learning_rate`` until it is; the pass that checks it also sums
    the next step's gradient and Hessian. The fit stops after
    ``config.epochs`` steps, or once the Newton decrement gᵀδ per pair falls
    below ``_NEWTON_TOL``. Each step's unpenalized mean cross-entropy is kept
    in ``loss_history``; a non-finite loss or step raises
    :class:`DivergedTraining` naming the step.

    ``pairs`` other than a :class:`TrainingPairs` are converted to one.
    The towers of its distinct texts are computed into one array, apart from
    the model's own towers, and each pair is read as its two rows there and
    its label.
    """
    if not pairs:
        raise ValueError("pairs must be non-empty")
    pairs = TrainingPairs.of(pairs)
    cfg = config or CorrTrainConfig()
    model = CorrelationModel(
        embedding=embedding,
        weights=np.zeros(2 * embedding.dim + 1),
        bias=0.0,
        train_config=cfg,
        store=store,
    )
    n = len(pairs)
    towers = _compute_towers(embedding, pairs.texts, store, model._body_sums)
    work = _newton_work(n, embedding.dim)

    def terms(theta: np.ndarray, step: int):
        found = _newton_terms(towers, pairs.ia, pairs.ib, pairs.positive, theta, work)
        if not math.isfinite(found[1]):
            raise DivergedTraining(f"non-finite loss at step {step}")
        return found

    theta = np.zeros(2 * embedding.dim + 2)
    loss, penalized, grad, hess = terms(theta, 1)
    floor = _NEWTON_TOL * n
    for step in range(1, cfg.epochs + 1):
        delta = np.linalg.solve(hess, grad)
        decrement = float(grad @ delta)
        if not (math.isfinite(decrement) and np.isfinite(delta).all()):
            raise DivergedTraining(f"non-finite Newton step at step {step}")
        scale = 1.0
        while scale * decrement >= floor:
            trial = theta - scale * delta
            found = terms(trial, step)
            if found[1] <= penalized:
                break
            scale *= cfg.learning_rate
        else:
            break  # converged: what is left of the step is below rounding
        theta, (loss, penalized, grad, hess) = trial, found
        model.loss_history.append(loss / n)
    if not model.loss_history:  # the starting point is the optimum
        model.loss_history.append(loss / n)
    model.weights = theta[:-1]
    model.bias = float(theta[-1])
    return model


def score(model: CorrelationModel, feature: str, candidate: str) -> float:
    """Association probability between a known feature and a candidate value."""
    u, v = model.tower_vectors([feature, candidate])
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
    records = (target if cve_id == target.cve_id else corpus.get(cve_id)
               for cve_id in sorted({*siblings(db, target.cve_id), target.cve_id}))
    # A record's aspects are every kind, in kind order; the first copy of a
    # value is kept.
    return list(dict.fromkeys(value for rec in records if rec is not None
                              for value in rec.aspects.values() if value))


@dataclass(frozen=True)
class RankedCandidate:
    candidate: CandidateAnswer
    score: float


def rank_candidates(
    model: CorrelationModel,
    features: Sequence[str],
    candidates: Sequence[CandidateAnswer],
) -> list[RankedCandidate]:
    """Order candidates by their mean association with the software features.

    With no features every candidate gets the neutral 0.5 so the ordering
    degrades to round order. Ties break by earliest round, then candidate
    text. The first element is the pipeline's final answer.

    Features and candidates get their towers from one
    :meth:`CorrelationModel.tower_vectors` call, and the scores of every
    (candidate, feature) pair come from one grid, bit-equal to :func:`score`
    of each pair.
    """
    if not candidates:
        raise ValueError("candidates must be non-empty")

    if features:
        f = len(features)
        towers = model.tower_vectors([*features, *(cand.text for cand in candidates)])
        # The grid is scored in slices of candidates of at most
        # max(f, _GRID_ROWS) interaction rows.
        step = max(1, _GRID_ROWS // f)
        scores = [row for lo in range(f, len(towers), step) for row in
                  _probability(model, towers[None, :f], towers[lo : lo + step, None]).tolist()]
    else:
        scores = [[0.5]] * len(candidates)  # one neutral score each
    # fsum keeps the mean exactly permutation-invariant.
    ranked = [RankedCandidate(candidate=cand, score=math.fsum(cand_scores) / len(cand_scores))
              for cand, cand_scores in zip(candidates, scores)]
    ranked.sort(key=lambda rc: (-rc.score, rc.candidate.round, rc.candidate.text))
    return ranked
