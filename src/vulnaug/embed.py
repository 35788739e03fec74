"""Corpus word embeddings and clustering.

Embeddings are trained from scratch with skip-gram plus negative sampling,
single-threaded so a fixed seed reproduces vectors bit for bit. Each center
token costs one gather, one sigmoid and one flat scatter, and each sentence
draws its negatives in one block; the operands and the order of every
floating-point operation are those of a row-by-row update, so the vectors are
bitwise the same as that simpler loop would give. Sentence vectors are plain
sums of word vectors; representative records come out of Lloyd's k-means
(k-means++ seeding) as the medoid nearest each centroid.
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


def _windows(sent: np.ndarray, window: int) -> tuple[np.ndarray, list[int]]:
    """Context ids of every position of one sentence, one block after another
    (left, then right, in sentence order), and the size of each block."""
    blocks = [
        np.concatenate((sent[max(0, pos - window) : pos], sent[pos + 1 : pos + window + 1]))
        for pos in range(len(sent))
    ]
    contexts = np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)
    return contexts, [b.size for b in blocks]


def train_embeddings(
    corpus: Corpus, config: TrainConfig | None = None, dim: int = 64
) -> EmbeddingModel:
    """Train skip-gram-with-negative-sampling vectors over the corpus.

    Descriptions are visited in cve_id order, updates are applied one center
    token at a time, and all randomness comes from one seeded generator, so two
    runs with the same seed produce bitwise-identical vectors. Negatives are
    drawn from the unigram^0.75 distribution; the learning rate decays linearly
    over all (epoch, position) steps.

    Context windows are built once. The negatives of a whole sentence come
    from one ``rng.random`` block: PCG64 yields the same doubles in blocks as
    one center at a time, and a sentence's block stays small where a whole
    epoch's would not. Each center token then gathers the output rows of its
    context and its negatives at once, scores them into one buffer and takes
    one sigmoid. The row updates go in with one ``np.add.at`` on the flat view
    of the output matrix, which applies the adds in the same order as a
    per-row scatter of the context rows followed by one of the negative rows.
    Every product and sum keeps its operands, its shape and its association
    (``-lr * g_pos`` times ``v`` for the context rows, ``-lr`` times
    ``g_neg * v`` for the negatives, and the two gradient terms summed apart),
    so the vectors are bitwise those of updating one row at a time.
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
    flat_out = w_out.reshape(-1)
    cell_ids = np.arange(size * dim).reshape(size, dim)  # flat index of each w_out cell

    encoded = [np.array([vocab[t] for t in sent], dtype=np.int64) for sent in sentences]
    total_steps = max(1, cfg.epochs * sum(len(s) for s in encoded))
    step = 0
    k = cfg.negative_samples
    windows = [_windows(sent, cfg.window) for sent in encoded]
    for _ in range(cfg.epochs):
        for sent, (contexts, sizes) in zip(encoded, windows):
            negatives = np.searchsorted(noise_cdf, rng.random((contexts.size, k)))
            start = 0
            for center, m in zip(sent.tolist(), sizes):
                lr = max(_LR_MIN, _LR_INITIAL * (1.0 - step / total_steps))
                step += 1
                if m == 0:
                    continue
                end = start + m
                idx = np.concatenate((contexts[start:end], negatives[start:end].ravel()))
                start = end
                rows = w_out[idx]  # (m + m*k, dim): context rows, then negative rows
                v = w_in[center]
                # OpenBLAS sums a row's dot product in an order that depends on
                # the row's place in the matrix, so the context and the negative
                # rows keep their own (m, dim) and (m, k, dim) products.
                g = np.empty(idx.size)
                np.matmul(rows[:m], v, out=g[:m])
                np.matmul(rows[m:].reshape(m, k, dim), v, out=g[m:].reshape(m, k))
                g = _sigmoid(g)
                g[:m] -= 1.0  # g[:m] is g_pos, g[m:] is g_neg
                grad_v = g[:m] @ rows[:m] + np.einsum(
                    "mk,mkd->d", g[m:].reshape(m, k), rows[m:].reshape(m, k, dim)
                )
                g[:m] *= -lr
                np.multiply(g[:, None], v, out=rows)
                rows[m:] *= -lr
                np.add.at(flat_out, cell_ids[idx].ravel(), rows.ravel())
                w_in[center] = v - lr * grad_v
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

    def non_empty_clusters(self) -> list[int]:
        present = set(int(a) for a in self.assignments)
        return [c for c in range(self.k) if c in present]


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
