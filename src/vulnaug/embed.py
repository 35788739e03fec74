"""Corpus word embeddings and clustering.

Embeddings are trained from scratch with skip-gram plus negative sampling,
single-threaded, with one seeded generator, so a fixed seed reproduces the
vectors bit for bit. Each sentence draws its negatives in one block, and its
center positions are updated in blocks of up to ``_CENTER_BLOCK`` distinct
consecutive tokens: every pair of a block is scored against the vectors as
they stood at the block's start, so updates within a block do not see each
other. Sentence vectors are plain sums of word vectors; representative records
come out of Lloyd's k-means (k-means++ seeding) as the medoid nearest each
centroid.
"""

from __future__ import annotations

import json
import re
import struct
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Corpus
from .errors import InsufficientVocabulary
from .ioutil import atomic_write_bytes, atomic_write_text

# Identifier-style tokens (cve-2002-0679, cwe-119) survive as single tokens;
# everything else splits on non-alphanumeric boundaries.
_TOKEN_RE = re.compile(r"[a-z]+(?:-\d+)+|[a-z0-9]+")

_MAGIC = b"VAEMB001"

_LR_INITIAL = 0.05
_LR_MIN = 1e-4

#: Consecutive center positions whose updates are taken as one step.
_CENTER_BLOCK = 8


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

    def to_json_obj(self) -> dict:
        return {
            "window": self.window,
            "epochs": self.epochs,
            "negative_samples": self.negative_samples,
            "seed": self.seed,
        }


@dataclass
class EmbeddingModel:
    """Vocabulary-to-vector table. Out-of-vocabulary tokens map to zero."""

    dim: int
    vocab: dict[str, int]
    vectors: np.ndarray  # (|vocab|, dim) float32
    train_config: TrainConfig = field(default_factory=TrainConfig)

    def __contains__(self, token: str) -> bool:
        return token in self.vocab

    def vector(self, token: str) -> np.ndarray:
        idx = self.vocab.get(token)
        if idx is None:
            return np.zeros(self.dim, dtype=np.float64)
        return self.vectors[idx].astype(np.float64)

    def ids(self, tokens: Sequence[str]) -> np.ndarray:
        """Row indices of the in-vocabulary tokens, in token order."""
        return np.array([i for i in map(self.vocab.get, tokens) if i is not None], dtype=np.intp)

    def rows(self, tokens: Sequence[str]) -> np.ndarray:
        """Vectors of the in-vocabulary tokens, in token order, one row each."""
        return self.vectors[self.ids(tokens)]

    def save(self, path: str | Path) -> None:
        header = json.dumps(
            {"dim": self.dim, "vocab_size": len(self.vocab), "train_config": self.train_config.to_json_obj()},
            sort_keys=True,
        ).encode("utf-8")
        tokens = sorted(self.vocab, key=self.vocab.get)
        vocab_block = ("\n".join(tokens) + "\n").encode("utf-8") if tokens else b""
        vec_block = self.vectors.astype("<f4").tobytes()
        blob = (
            _MAGIC
            + struct.pack("<II", len(header), len(vocab_block))
            + header
            + vocab_block
            + vec_block
        )
        atomic_write_bytes(path, blob)

    @classmethod
    def load(cls, path: str | Path) -> "EmbeddingModel":
        blob = Path(path).read_bytes()
        if blob[: len(_MAGIC)] != _MAGIC:
            raise ValueError(f"{path}: not an embedding model file")
        off = len(_MAGIC)
        header_len, vocab_len = struct.unpack_from("<II", blob, off)
        off += 8
        header = json.loads(blob[off : off + header_len].decode("utf-8"))
        off += header_len
        vocab_block = blob[off : off + vocab_len].decode("utf-8")
        off += vocab_len
        tokens = vocab_block.splitlines()
        dim, size = header["dim"], header["vocab_size"]
        if len(tokens) != size:
            raise ValueError(f"{path}: vocab block size mismatch")
        vectors = np.frombuffer(blob[off:], dtype="<f4").reshape(size, dim).copy()
        cfg = TrainConfig(**header["train_config"])
        return cls(dim=dim, vocab={t: i for i, t in enumerate(tokens)}, vectors=vectors, train_config=cfg)

    def export_text(self, path: str | Path) -> None:
        """Inspection-friendly dump: header line, then token + floats per line."""
        lines = [f"{len(self.vocab)} {self.dim}"]
        for token in sorted(self.vocab, key=self.vocab.get):
            row = " ".join(repr(float(x)) for x in self.vectors[self.vocab[token]])
            lines.append(f"{token} {row}")
        atomic_write_text(path, "\n".join(lines) + "\n")


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
    """Sum of word vectors; OOV tokens contribute zero, empty text is zero.

    NumPy adds the gathered rows to a zero vector one row at a time in token
    order, so the sum equals adding the token vectors one by one; a
    one-dimensional embedding is the exception, as NumPy sums a single column
    pairwise.
    """
    return model.rows(tokenize(text)).sum(axis=0, dtype=np.float64, initial=0.0)


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


def _kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.sum((x - x[chosen[0]]) ** 2, axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            chosen.append(int(rng.integers(n)))
            continue
        r = rng.random() * total
        idx = int(np.searchsorted(np.cumsum(d2), r))
        idx = min(idx, n - 1)
        chosen.append(idx)
        d2 = np.minimum(d2, np.sum((x - x[idx]) ** 2, axis=1))
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
        occupied = np.bincount(assignments, minlength=k) > 0
        if not reseeded and not occupied.all():
            reseeded = True
            d2 = np.sum((x - centroids[assignments]) ** 2, axis=1)
            for c in np.flatnonzero(~occupied):
                total = d2.sum()
                if total <= 0.0:
                    idx = int(rng.integers(n))
                else:
                    r = rng.random() * total
                    idx = min(int(np.searchsorted(np.cumsum(d2), r)), n - 1)
                centroids[c] = x[idx]
                d2[idx] = 0.0
            assignments = _assign(x, centroids)
            occupied = np.bincount(assignments, minlength=k) > 0

        new_centroids = centroids.copy()
        for c in np.flatnonzero(occupied):
            new_centroids[c] = x[assignments == c].mean(axis=0)
        shift = float(np.max(np.linalg.norm(new_centroids - centroids, axis=1)))
        centroids = new_centroids
        history.append(_wcss(x, centroids, assignments))
        if shift < tol:
            break
        assignments = _assign(x, centroids)

    medoids = []
    for c in range(k):
        members = np.flatnonzero(assignments == c)
        if members.size == 0:
            medoids.append(None)
            continue
        dists = np.linalg.norm(x[members] - centroids[c], axis=1)
        medoids.append(int(members[int(np.argmin(dists))]))

    return Clustering(
        k=k,
        assignments=assignments,
        centroids=centroids,
        medoids=medoids,
        objective_history=history,
    )
