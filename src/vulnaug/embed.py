"""Corpus word embeddings and clustering.

Embeddings are trained from scratch with skip-gram plus negative sampling,
single-threaded, with one seeded generator, so a fixed seed reproduces the
vectors bit for bit. Each sentence draws its negatives in one block, and its
center positions are updated in blocks of up to ``_CENTER_BLOCK`` distinct
consecutive tokens: every pair of a block is scored against the vectors as
they stood at the block's start, so updates within a block do not see each
other. Sentence vectors are plain sums of word vectors, kept by text on the
model; representative records come out of Lloyd's k-means (k-means++ seeding)
as the medoid nearest each centroid. Word-vector sums and k-means cluster
sums are exact in order: one ``np.bincount`` adds each row's vectors to +0.0
one by one, in order, at every dim.
"""

from __future__ import annotations

import re
import threading
import warnings
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Corpus
from .errors import InsufficientVocabulary
from .ioutil import atomic_write_lines, read_model_file, write_model_file

# Identifier-style tokens (cve-2002-0679, cwe-119) survive as single tokens;
# everything else splits on non-alphanumeric boundaries.
_TOKEN_RE = re.compile(r"[a-z]+(?:-\d+)+|[a-z0-9]+")

_MAGIC = b"VAEMB001"

_LR_INITIAL = 0.05
_LR_MIN = 1e-4

#: Consecutive center positions whose updates are taken as one step.
_CENTER_BLOCK = 8

#: Token cells summed by one ``np.bincount`` in :meth:`EmbeddingModel.token_sums`;
#: bounds its (cells, d) weights.
_SUM_CELLS = 512


def tokenize(text: str) -> list[str]:
    """Lowercased tokens; CVE-/CWE-style identifiers stay whole."""
    return _TOKEN_RE.findall(text.lower())


@dataclass
class TrainConfig:
    window: int = 5
    epochs: int = 5
    negative_samples: int = 5
    seed: int = 42

    def __post_init__(self) -> None:
        for name in ("window", "epochs", "negative_samples"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


@dataclass
class EmbeddingModel:
    """Vocabulary-to-vector table. Out-of-vocabulary tokens map to zero.

    The model keeps every sentence vector it computes
    (:meth:`sentence_vectors`).
    """

    dim: int
    vocab: dict[str, int]
    vectors: np.ndarray  # (|vocab|, dim) float32
    train_config: TrainConfig = field(default_factory=TrainConfig)
    _lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False,
                                  compare=False)
    # (the vectors array they were summed from, text -> sentence vector)
    _sentences: tuple = field(default_factory=lambda: (None, {}), init=False, repr=False,
                              compare=False)

    def __contains__(self, token: str) -> bool:
        return token in self.vocab

    def vector(self, token: str) -> np.ndarray:
        idx = self.vocab.get(token)
        if idx is None:
            return np.zeros(self.dim, dtype=np.float64)
        return self.vectors[idx].astype(np.float64)

    def token_sums(self, token_lists: Sequence[Sequence[str]]) -> np.ndarray:
        """The (n, d) float64 sums of each token list's word vectors.

        Out-of-vocabulary tokens add nothing. Each row is its tokens' vectors
        added one by one, in token order, to +0.0 at every dim: the lists'
        tokens are taken as one run of cells, ``_SUM_CELLS`` at a time, and
        each chunk is one :func:`_row_sums`. A list that a chunk ends in the
        middle of goes into the next chunk with its partial sum as its first
        row, and 0.0 + s is s. Working memory is one chunk's ids and (cells,
        d) weights, however many lists there are and however long they are.
        """
        out = np.zeros((len(token_lists), self.dim))
        # starts[i]: the first cell of list i, one cell per token; the last
        # entry counts every cell.
        starts = np.cumsum([0, *map(len, token_lists)])
        total = int(starts[-1])
        get = self.vocab.get
        for lo in range(0, total, _SUM_CELLS):
            hi = lo + _SUM_CELLS
            # Lists first..last hold the cells lo..hi-1.
            first, last = (starts.searchsorted([lo, min(hi, total) - 1], "right") - 1).tolist()
            bounds = starts[first : last + 1].tolist()
            pieces = [tokens[max(lo - start, 0) : hi - start]
                      for tokens, start in zip(token_lists[first : last + 1], bounds)]
            ids = np.array([get(t, -1) for piece in pieces for t in piece], dtype=np.intp)
            known = ids >= 0
            rows = np.repeat(np.arange(len(pieces)), [len(p) for p in pieces])[known]
            vecs = self.vectors[ids[known]]
            if lo > bounds[0]:  # the first list's partial sum goes in first
                rows = np.concatenate(([0], rows))
                vecs = np.concatenate((out[first : first + 1], vecs))
            out[first : last + 1] = _row_sums(rows, vecs, len(pieces))
        return out

    def sentence_vectors(self, texts: Sequence[str]) -> np.ndarray:
        """The (n, d) sentence vectors of ``texts`` in a new array: each
        text's :meth:`token_sums` row of its tokens.

        Vectors are kept by text for the ``vectors`` array they were summed
        from, the same object: after ``vectors`` is replaced, a call drops
        them first. Misses are filled under a lock, after a second look, by
        one :meth:`token_sums` call, so threads that ask for the same text
        together compute it once.
        """
        held, kept = self._sentences
        found = list(map((kept if held is self.vectors else {}).get, texts))
        if any(vec is None for vec in found):
            with self._lock:
                if self._sentences[0] is not self.vectors:
                    self._sentences = (self.vectors, {})
                kept = self._sentences[1]
                missed = [text for text in dict.fromkeys(texts) if text not in kept]
                kept.update(zip(missed, self.token_sums([tokenize(t) for t in missed])))
                found = list(map(kept.get, texts))
        return np.stack(found) if found else np.empty((0, self.dim))

    def save(self, path: str | Path) -> None:
        header = {"dim": self.dim, "vocab_size": len(self.vocab),
                  "train_config": asdict(self.train_config)}
        tokens = sorted(self.vocab, key=self.vocab.get)
        vocab_block = "".join(t + "\n" for t in tokens).encode("utf-8")
        write_model_file(path, _MAGIC, header, vocab_block, self.vectors.astype("<f4").tobytes())

    @classmethod
    def load(cls, path: str | Path) -> "EmbeddingModel":
        header, (vocab,), vectors = read_model_file(
            path, _MAGIC, leading=1, dtype="<f4", shape=("vocab_size", "dim"), config=TrainConfig)
        tokens = vocab.splitlines()
        if len(tokens) != header["vocab_size"]:
            raise ValueError(f"{path}: vocab block holds {len(tokens)} tokens,"
                             f" the header says {header['vocab_size']}")
        return cls(dim=header["dim"], vocab={t: i for i, t in enumerate(tokens)},
                   vectors=vectors, train_config=header["train_config"])

    def export_text(self, path: str | Path) -> None:
        """Inspection-friendly dump: header line, then token + floats per line."""
        lines = [f"{len(self.vocab)} {self.dim}"]
        for token in sorted(self.vocab, key=self.vocab.get):
            row = " ".join(repr(float(x)) for x in self.vectors[self.vocab[token]])
            lines.append(f"{token} {row}")
        atomic_write_lines(path, lines)


def _row_sums(rows: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """The (n, d) float64 sums of the (m, d) ``values`` by ``rows``: row r
    adds every ``values[i]`` with ``rows[i] == r`` one by one, in index
    order, to +0.0 at every dim, so it never ends at -0.0. This is one
    ``np.bincount``, which adds its weights to their bins in input order."""
    d = values.shape[1]
    bins = (rows[:, None] * d + np.arange(d)).ravel()
    return np.bincount(bins, weights=values.ravel(), minlength=n * d).reshape(n, d)


def _sigmoid(x: float | np.ndarray):
    return 1.0 / (1.0 + np.exp(-x))


def _windows(sent: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Context ids of every position of one sentence, one window after another
    (left, then right, in sentence order), and the size of each window."""
    offsets = np.concatenate((np.arange(-window, 0), np.arange(1, window + 1)))
    where = np.arange(len(sent))[:, None] + offsets
    inside = (where >= 0) & (where < len(sent))
    return sent[where[inside]], inside.sum(axis=1)


def _center_blocks(centers: Sequence[int]) -> list[int]:
    """Start position of each center block of one sentence, then its length.

    A block runs over consecutive positions and ends after
    ``_CENTER_BLOCK`` of them, or early before a center token it already
    holds, so the centers of one block are distinct.
    """
    bounds: list[int] = []
    held: set[int] = set()
    for pos, center in enumerate(centers):
        if not bounds or len(held) == _CENTER_BLOCK or center in held:
            bounds.append(pos)
            held.clear()
        held.add(center)
    bounds.append(len(centers))
    return bounds


def train_embeddings(
    corpus: Corpus, config: TrainConfig | None = None, dim: int = 64
) -> EmbeddingModel:
    """Train skip-gram-with-negative-sampling vectors over the corpus.

    Descriptions are visited in cve_id order and all randomness comes from one
    seeded generator, which draws each sentence's negatives in one
    ``rng.random`` block, so two runs with the same seed produce
    bitwise-identical vectors. Negatives are drawn from the unigram^0.75
    distribution; the learning rate decays linearly over all (epoch, position)
    steps, and every (center, context) pair takes its center's step.

    Updates are applied one block of centers at a time (see
    :func:`_center_blocks`): up to ``_CENTER_BLOCK`` consecutive positions
    with distinct center tokens. Every pair of a block is scored against the
    input and output vectors as they stood at the block's start, and the
    block's updates are then added together. This is not the same as updating
    one center at a time, whose later centers would see the earlier centers'
    updates; with blocks of one center the two agree to rounding. What stays
    exact is the rest: the vocabulary, the initial vectors, the order of the
    draws and each pair's learning rate.

    A block gathers each output row its pairs touch once, scores every
    (row, center) cell with one matrix product, and sums the gradient scales
    of the pairs that share a cell with one ``np.bincount``. Both updates are
    then matrix products, written back with plain assignments, as the block's
    centers and its rows are each distinct. Working memory is one sentence's
    ids and draws plus one block's rows, whatever the sentence length.
    """
    cfg = config or TrainConfig()
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    vocab, w_in = _train_vectors(corpus, cfg, dim)
    return EmbeddingModel(
        dim=dim, vocab=vocab, vectors=w_in.astype(np.float32), train_config=cfg
    )


def _train_vectors(
    corpus: Corpus, cfg: TrainConfig, dim: int
) -> tuple[dict[str, int], np.ndarray]:
    """Vocabulary and float64 input vectors of :func:`train_embeddings`."""
    sentences = [tokenize(rec.description) for rec in corpus]
    counts = Counter(tok for sent in sentences for tok in sent)
    if len(counts) < 2:
        raise InsufficientVocabulary(
            f"need at least 2 distinct tokens, got {len(counts)}"
        )
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    vocab = {tok: i for i, (tok, _) in enumerate(ordered)}
    freq = np.array([n for _, n in ordered], dtype=np.float64)

    noise = freq**0.75
    noise_cdf = np.cumsum(noise / noise.sum())

    rng = np.random.default_rng(cfg.seed)
    size = len(vocab)
    w_in = (rng.random((size, dim)) - 0.5) / dim
    w_out = np.zeros((size, dim))
    slot = np.empty(size, dtype=np.intp)  # a row's place in its block's row list

    encoded = [np.array([vocab[t] for t in sent], dtype=np.intp) for sent in sentences]
    total_steps = max(1, cfg.epochs * sum(len(s) for s in encoded))
    step = 0
    k = cfg.negative_samples
    for _ in range(cfg.epochs):
        for sent in encoded:
            n = len(sent)
            lr = np.maximum(_LR_MIN, _LR_INITIAL * (1.0 - np.arange(step, step + n) / total_steps))
            step += n
            if n < 2:
                continue  # a lone token has no context; longer sentences give every position one
            contexts, sizes = _windows(sent, cfg.window)
            first = np.concatenate(([0], np.cumsum(sizes)))  # each position's first pair
            pair_pos = np.repeat(np.arange(n), sizes)
            # Column 0 of each pair's output ids is its context, the rest its negatives.
            out_ids = np.concatenate(
                (contexts[:, None], np.searchsorted(noise_cdf, rng.random((contexts.size, k)))),
                axis=1)
            bounds = _center_blocks(sent.tolist())
            for lo, hi in zip(bounds, bounds[1:]):
                ids = out_ids[first[lo] : first[hi]]
                # The block's distinct output rows, in id order, and the place
                # of each (pair, output id) among them.
                sorted_ids = np.sort(ids, axis=None)
                rows_ids = sorted_ids[np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1]))]
                slot[rows_ids] = np.arange(rows_ids.size)
                rows = w_out[rows_ids]
                centers = w_in[sent[lo:hi]]
                # The (output row, center) cell of every (pair, output id).
                width = hi - lo
                cell = slot[ids] * width + (pair_pos[first[lo] : first[hi], None] - lo)
                g = _sigmoid((rows @ centers.T).ravel()[cell])
                g[:, 0] -= 1.0
                # coef[r, c] sums g over the pairs of center c that touch output row r.
                coef = np.bincount(cell.ravel(), weights=g.ravel(), minlength=rows_ids.size * width)
                coef = coef.reshape(rows_ids.size, width)
                w_in[sent[lo:hi]] = centers - lr[lo:hi, None] * (coef.T @ rows)
                w_out[rows_ids] = rows - (coef * lr[lo:hi]) @ centers
    return vocab, w_in


def sentence_vector(model: EmbeddingModel, text: str) -> np.ndarray:
    """Sum of word vectors, added one by one in token order; OOV tokens
    contribute zero, empty text is zero. Row 0 of
    :meth:`EmbeddingModel.sentence_vectors` of ``[text]``."""
    return model.sentence_vectors([text])[0]


@dataclass
class Clustering:
    """k-means result: assignments, centroids, and per-cluster medoids.

    ``medoids[c]`` is the index of the member closest to centroid c, or None
    for an empty cluster. ``objective_history`` records the within-cluster sum
    of squares after each Lloyd iteration.
    """

    k: int
    assignments: np.ndarray  # (n,) int
    centroids: np.ndarray  # (k, dim)
    medoids: list[int | None]
    objective_history: list[float] = field(default_factory=list)


def _draw_by_d2(d2: np.ndarray, rng: np.random.Generator) -> int:
    """An index drawn with probability proportional to ``d2`` (squared
    distances), or uniformly when they are all zero."""
    total = d2.sum()
    if total <= 0.0:
        return int(rng.integers(d2.size))
    r = rng.random() * total
    return min(int(np.searchsorted(np.cumsum(d2), r)), d2.size - 1)


def _kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    diff = np.empty_like(x)
    d2, to_chosen = np.empty(x.shape[0]), np.empty(x.shape[0])

    def squared_distances(idx: int, out: np.ndarray) -> None:
        np.subtract(x, x[idx], out=diff)
        np.square(diff, out=diff)
        np.add.reduce(diff, axis=1, out=out)

    chosen = [int(rng.integers(x.shape[0]))]
    squared_distances(chosen[0], d2)
    for _ in range(1, k):
        chosen.append(_draw_by_d2(d2, rng))
        # After a uniform draw d2 is all zero and stays so.
        squared_distances(chosen[-1], to_chosen)
        np.minimum(d2, to_chosen, out=d2)
    return x[chosen].copy()


def _assign(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = (
        np.sum(x**2, axis=1)[:, None]
        - 2.0 * (x @ centroids.T)
        + np.sum(centroids**2, axis=1)[None, :]
    )
    return np.argmin(d2, axis=1)


def _wcss(x: np.ndarray, centroids: np.ndarray, assignments: np.ndarray) -> float:
    return float(np.sum((x - centroids[assignments]) ** 2))


def kmeans(
    vectors: Sequence[np.ndarray] | np.ndarray,
    k: int,
    seed: int = 0,
    max_iter: int = 200,
    tol: float = 1e-6,
) -> Clustering:
    """Lloyd's algorithm with k-means++ seeding.

    Stops after ``max_iter`` iterations or when the largest centroid shift
    falls below ``tol``. Empty clusters are reseeded (distance-squared
    sampling) once; surviving empties are accepted. ``k`` larger than the
    number of points degrades to one singleton cluster per point plus empty
    surplus clusters, with a warning.
    """
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("kmeans requires a non-empty 2-D array of vectors")
    if k < 1:
        raise ValueError("k must be >= 1")
    n, dim = x.shape
    rng = np.random.default_rng(seed)

    if k >= n:
        if k > n:
            warnings.warn(
                f"k={k} exceeds {n} vectors; surplus clusters left empty",
                stacklevel=2,
            )
        centroids = np.zeros((k, dim))
        centroids[:n] = x
        assignments = np.arange(n)
        medoids: list[int | None] = list(range(n)) + [None] * (k - n)
        return Clustering(
            k=k,
            assignments=assignments,
            centroids=centroids,
            medoids=medoids,
            objective_history=[0.0],
        )

    centroids = _kmeanspp_init(x, k, rng)
    assignments = _assign(x, centroids)
    history: list[float] = []
    reseeded = False
    for _ in range(max_iter):
        counts = np.bincount(assignments, minlength=k)
        occupied = counts > 0
        if not reseeded and not occupied.all():
            reseeded = True
            d2 = np.sum((x - centroids[assignments]) ** 2, axis=1)
            for c in np.flatnonzero(~occupied):
                idx = _draw_by_d2(d2, rng)
                centroids[c] = x[idx]
                d2[idx] = 0.0
            assignments = _assign(x, centroids)
            counts = np.bincount(assignments, minlength=k)
            occupied = counts > 0

        new_centroids = centroids.copy()
        if dim == 1:
            # mean sums a single column pairwise, not row by row.
            for c in np.flatnonzero(occupied):
                new_centroids[c] = x[assignments == c].mean(axis=0)
        else:
            # mean adds the rows to +0.0 one by one, in index order.
            sums = _row_sums(assignments, x, k)
            new_centroids[occupied] = sums[occupied] / counts[occupied, None]
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        history.append(_wcss(x, centroids, assignments))
        if shift < tol:
            break
        assignments = _assign(x, centroids)

    # Rows by cluster, then distance to its centroid, then index: the first
    # row of each cluster is its medoid, ties going to the lower index.
    dists = np.linalg.norm(x - centroids[assignments], axis=1)
    order = np.lexsort((dists, assignments))
    firsts = order[np.flatnonzero(np.diff(assignments[order], prepend=-1))]
    medoids = [None] * k
    for idx in firsts.tolist():
        medoids[assignments[idx]] = idx

    return Clustering(
        k=k,
        assignments=assignments,
        centroids=centroids,
        medoids=medoids,
        objective_history=history,
    )
