"""Corpus word embeddings and clustering.

Embeddings are trained from scratch with skip-gram plus negative sampling,
single-threaded, with one seeded generator, so a fixed seed reproduces the
vectors bit for bit. Each epoch first subsamples frequent tokens: a position
of a token seen well above ``_SUBSAMPLE`` of the corpus, and more than about 52
times (``_SUBSAMPLE_FLOOR``), is kept with a probability that falls as the
token's count grows, and the kept tokens of each sentence are trained as that
sentence. Center positions are updated in blocks of up to ``_CENTER_BLOCK``
distinct consecutive tokens: every pair of a block is scored against the
vectors as they stood at the block's start, so updates within a block do not
see each other. The blocks are cut every epoch from its kept tokens and walked
in groups: the blocks that start in one span of
``_PLAN_CELLS // (2 * window * (1 + negatives))`` kept positions (at least
one) form a group. A position has at most 2 * window pairs of 1 + negatives
(pair, output id) cells, so a group holds fewer than ``_PLAN_CELLS`` cells plus
one block's, which bounds the working memory however long a sentence is. A
group draws its negatives in one block and maps the draws to tokens by an
exact inverse-CDF lookup: a table over ``_CDF_BUCKETS`` equal buckets of [0, 1)
answers a draw whose bucket holds no step of the CDF and ``np.searchsorted``
the rest, so every negative is the one ``np.searchsorted`` alone gives. One
argsort over the group's (block, id) keys then gives each block's distinct
output rows and score cells. Sentence vectors are plain sums of word
vectors, kept by text on the model;
representative records come out of Lloyd's k-means (k-means++ seeding) as the
medoid nearest each centroid. Word-vector sums and k-means cluster
sums are exact in order: each row's vectors are added to +0.0 one by one, in
order, at every dim, position by position across token lists
(:meth:`EmbeddingModel.token_sums`) and by one ``np.bincount`` across
clusters.
"""

from __future__ import annotations

import itertools
import operator
import re
import sys
import threading
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .corpus import Corpus
from .errors import InsufficientVocabulary
from .ioutil import atomic_write_lines, read_lines, read_model_file, write_model_file

# Identifier-style tokens (cve-2002-0679, cwe-119) survive as single tokens;
# everything else splits on non-alphanumeric boundaries. The letter run is
# possessive: a shorter run is always followed by a letter, never by "-", so
# giving letters back could not make a match, and a word without an
# identifier is not rescanned letter by letter. Python 3.10 has no possessive
# repeats; its backtracking pattern finds the same tokens.
_TOKEN_RE = re.compile(r"[a-z]++(?:-\d+)+|[a-z0-9]+" if sys.version_info >= (3, 11)
                       else r"[a-z]+(?:-\d+)+|[a-z0-9]+")

_MAGIC = b"VAEMB001"

_LR_INITIAL = 0.05
_LR_MIN = 1e-4

#: Consecutive center positions whose updates are taken as one step.
_CENTER_BLOCK = 8

#: Equal buckets of [0, 1) in the negative draws' inverse-CDF table. A power of
#: two, so a draw's bucket, ``floor(r * _CDF_BUCKETS)``, is exact.
_CDF_BUCKETS = 2**16

#: (pair, output id) cells of one group of center blocks, whose draws and
#: plan (:func:`_block_plans`) are made at once; a group holds fewer than this
#: plus one block's cells, which bounds training's working memory.
_PLAN_CELLS = 8192

#: Frequent-token subsampling (Mikolov et al. 2013): with N corpus tokens and
#: T = max(``_SUBSAMPLE`` * N, ``_SUBSAMPLE_FLOOR``), each position of a token
#: seen n times is trained in an epoch with probability sqrt(T / n) + T / n, or
#: always where that is 1 or more. The floor keeps every position of a token
#: seen at most about 2.618 * 20 = 52 times, so a small corpus trains in full.
_SUBSAMPLE = 1e-3
_SUBSAMPLE_FLOOR = 20

#: Token cells summed at a time by :meth:`EmbeddingModel.token_sums`; bounds
#: its ids and the rows it gathers at once.
_SUM_CELLS = 4096


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


class _TextCache:
    """Rows kept by text, each computed once.

    :meth:`stack` looks every text up, and when any is missing it takes the
    lock, looks again and computes the distinct texts still missing with one
    ``fill`` call, so threads that ask for the same text together compute it
    once. The rows come back copied into a new array by one
    ``np.concatenate``, so a caller cannot change a kept row.
    """

    def __init__(self, dim: int) -> None:
        self._dim = dim
        self._rows: dict[str, np.ndarray] = {}
        self._lock = threading.Lock()

    def stack(self, texts: Sequence[str],
              fill: Callable[[list[str]], np.ndarray]) -> np.ndarray:
        """The (n, d) rows of ``texts``; ``fill`` maps a list of distinct
        texts to their rows."""
        found = list(map(self._rows.get, texts))
        if any(row is None for row in found):
            with self._lock:
                missed = [text for text in dict.fromkeys(texts) if text not in self._rows]
                self._rows.update(zip(missed, fill(missed)))
                found = list(map(self._rows.get, texts))
        if not found:
            return np.empty((0, self._dim))
        return np.concatenate(found).reshape(len(found), self._dim)


@dataclass
class EmbeddingModel:
    """Vocabulary-to-vector table. Out-of-vocabulary tokens map to zero.

    ``vectors`` is fixed once the model is built: the model keeps every
    sentence vector it computes (:meth:`sentence_vectors`).
    """

    dim: int
    vocab: dict[str, int]
    vectors: np.ndarray  # (|vocab|, dim) float32
    train_config: TrainConfig = field(default_factory=TrainConfig)
    #: Corpus token positions and the mean positions trained per epoch, as
    #: :func:`train_embeddings` counted them; None for a loaded model.
    trained: tuple[int, float] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        self._sentences = _TextCache(self.dim)

    def token_sums(self, token_lists: Sequence[Sequence[str]]) -> np.ndarray:
        """The (n, d) float64 sums of each token list's word vectors.

        Out-of-vocabulary tokens add nothing. Each row is its tokens' vectors
        added one by one, in token order, to +0.0 at every dim: the lists'
        tokens are taken as one run of cells, ``_SUM_CELLS`` at a time, and
        each chunk's in-vocabulary ids are added to their rows by one
        :func:`_add_by_position`. A list that a chunk ends in the middle of
        goes into the next chunk with its partial sum in its row, and the next
        chunk adds on to it. Working memory is one chunk's ids and rows,
        however many lists there are and however long they are.
        """
        out = np.zeros((len(token_lists), self.dim))
        get = self.vocab.get
        for first, pieces in _chunks(token_lists, _SUM_CELLS):
            ids = [[i for i in map(get, piece) if i is not None] for piece in pieces]
            _add_by_position(self.vectors, ids, out[first : first + len(pieces)])
        return out

    def sentence_vectors(self, texts: Sequence[str]) -> np.ndarray:
        """The (n, d) sentence vectors of ``texts`` in a new array: each
        text's :meth:`token_sums` row of its tokens. Vectors are kept by
        text; the misses of a call are summed by one :meth:`token_sums` call.
        """
        return self._sentences.stack(
            texts, lambda missed: self.token_sums([tokenize(text) for text in missed]))

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
        tokens = [token for _, token in read_lines(path, vocab)]
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


def _chunks(token_lists: Sequence[Sequence[str]],
            cells: int) -> Iterator[tuple[int, list[Sequence[str]]]]:
    """The lists' tokens, laid end to end as one run of cells, cut into
    chunks of ``cells``: for each chunk, its first list and its piece of
    every list it holds, in order. A list that a chunk ends in the middle of
    goes on in the next chunk."""
    first, pieces, room = 0, [], cells
    for i, tokens in enumerate(token_lists):
        start = 0
        while len(tokens) - start > room:
            pieces.append(tokens[start : start + room])
            yield first, pieces
            first, pieces, room, start = i, [], cells, start + room
        pieces.append(tokens[start:] if start else tokens)
        room -= len(tokens) - start
    if pieces:
        yield first, pieces


def _add_by_position(vectors: np.ndarray, ids: Sequence[list[int]], rows: np.ndarray) -> None:
    """Add the vectors of each id list to its row of ``rows``, in place, one
    by one in list order.

    The lists are ranked longest first, so the lists that still hold a j-th
    id are a prefix of the ranking, and one gather-add adds the j-th vector
    of all of them. That runs for the first ``head`` positions; the rest of
    each longer list, its tail, is added with one :func:`_add_rows`. ``head``
    is the length that takes the fewest steps, passes plus tails.
    """
    sizes = [*map(len, ids)]
    order = sorted(range(len(ids)), key=sizes.__getitem__, reverse=True)
    ranked = [ids[i] for i in order]
    lens = [sizes[i] for i in order] + [0]
    # The lists ranked below `tails` run past the head: of equal lengths the
    # first costs least, so lens[tails - 1] > head.
    costs = [*map(operator.add, lens, itertools.count())]
    tails = costs.index(min(costs))
    head = lens[tails]
    # active[j]: the lists that hold a j-th id; their j-th ids follow those
    # of position j - 1 in `flat`.
    active, n = [], len(ranked)
    for j in range(head):
        while lens[n - 1] <= j:
            n -= 1
        active.append(n)
    flat = np.array([r[j] for j, n in enumerate(active) for r in ranked[:n]], dtype=np.intp)
    sums = rows[order]
    lo = 0
    for n in active:
        part = sums[:n]
        np.add(part, vectors.take(flat[lo : lo + n], axis=0), out=part)
        lo += n
    for r in range(tails):
        tail = vectors.take(ranked[r][head:], axis=0)
        sums[r] = _add_rows(np.concatenate((sums[r : r + 1], tail)))
    rows[order] = sums


def _add_rows(rows: np.ndarray) -> np.ndarray:
    """The sum of ``rows`` over axis 0, added one by one in index order.

    A reduction over axis 0 adds each row to the running sum when a row holds
    two or more numbers; rows of one number it sums as a column, pairwise, so
    those are accumulated instead."""
    return np.add.reduce(rows, axis=0) if rows[0].size > 1 else np.add.accumulate(rows)[-1]


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


def _windows(starts: np.ndarray, lo: int, hi: int, window: int) -> tuple[np.ndarray, np.ndarray]:
    """The (center, context) pairs of positions lo..hi-1 of the corpus, whose
    sentence i holds positions starts[i]..starts[i + 1]-1: each pair's center
    position and context position, one window after another (left, then
    right, in position order)."""
    offsets = np.concatenate((np.arange(-window, 0), np.arange(1, window + 1)))
    centers = np.arange(lo, hi)
    sent = starts.searchsorted(centers, "right") - 1
    where = centers[:, None] + offsets
    inside = (where >= starts[sent, None]) & (where < starts[sent + 1, None])
    return np.repeat(centers, inside.sum(axis=1)), where[inside]


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


class _InverseCdf:
    """``np.searchsorted(cdf, r)`` for draws r in [0, 1), the CDF's last entry
    taken as exactly 1.0, so no draw falls past it.

    Bucket b of ``_CDF_BUCKETS`` holds the draws in [b / B, (b + 1) / B).
    ``np.searchsorted`` gives every draw in it a value between those of the
    bucket's two edges, so where the edges give the same index, every draw in
    the bucket takes it from the table. The other buckets, one per step of the
    CDF at most, look their draws up with ``np.searchsorted``.
    """

    def __init__(self, cdf: np.ndarray) -> None:
        self.cdf = np.append(cdf[:-1], 1.0)
        edges = self.cdf.searchsorted(np.arange(_CDF_BUCKETS + 1) / _CDF_BUCKETS)
        # Each bucket's index, or -1 where its edges differ.
        self.table = edges[:-1]
        self.table[edges[:-1] != edges[1:]] = -1

    def __call__(self, draws: np.ndarray) -> np.ndarray:
        found = self.table[(draws * self.table.size).astype(np.intp)]
        missed = found < 0
        found[missed] = self.cdf.searchsorted(draws[missed])
        return found


def _block_plans(out_ids: np.ndarray, pair_pos: np.ndarray, bounds: np.ndarray,
                 size: int) -> list[tuple[np.ndarray, np.ndarray, int, int]]:
    """Each center block of one group that has pairs, in order, as
    ``(rows_ids, cells, lo, hi)``: its distinct output rows in id order, the
    (row, center) cell ``slot * (hi - lo) + (pos - lo)`` of each output id
    of its pairs, and its positions lo..hi-1.

    ``out_ids`` holds the output ids of the group's pairs and ``pair_pos``
    their center positions, in order; block j holds positions
    bounds[j]..bounds[j + 1]-1, and every id is below ``size``. One argsort
    of the group's (block, id) keys gives every block's distinct rows and the
    place of each key among them.
    """
    blocks = len(bounds) - 1
    pair_block = bounds.searchsorted(pair_pos, "right") - 1
    keys = out_ids + (pair_block * size)[:, None]
    order = keys.argsort(axis=None)
    ordered = keys.ravel()[order]
    new = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    distinct = ordered[new]
    place = np.empty(keys.size, dtype=np.intp)
    place[order] = np.cumsum(new) - 1
    # Block j's rows are distinct[row_starts[j] : row_starts[j + 1]].
    row_starts = distinct.searchsorted(np.arange(blocks + 1) * size)
    cells = ((place.reshape(keys.shape) - row_starts[pair_block, None])
             * np.diff(bounds)[pair_block, None] + (pair_pos - bounds[pair_block])[:, None])
    rows_ids = distinct % size
    rows, lows = row_starts.tolist(), bounds.tolist()
    pairs = pair_block.searchsorted(np.arange(blocks + 1)).tolist()  # block j's first pair
    return [(rows_ids[rows[j] : rows[j + 1]], cells[pairs[j] : pairs[j + 1]], lows[j], lows[j + 1])
            for j in range(blocks) if pairs[j] < pairs[j + 1]]


def train_embeddings(
    corpus: Corpus, config: TrainConfig | None = None, dim: int = 64
) -> EmbeddingModel:
    """Train skip-gram-with-negative-sampling vectors over the corpus.

    Descriptions are visited in cve_id order and all randomness comes from one
    seeded generator, whose draws go to the (center, context) pairs in
    corpus order, so two runs with the same seed produce bitwise-identical
    vectors. Negatives are drawn from the unigram^0.75 distribution, by an
    exact inverse-CDF lookup (:class:`_InverseCdf`); the learning rate decays
    linearly over all (epoch, position) steps, and every (center, context)
    pair takes its center's step.

    Frequent tokens are subsampled (``_SUBSAMPLE``, ``_SUBSAMPLE_FLOOR``):
    each epoch opens with one ``rng.random(h)`` call, one draw for each of
    the h corpus positions whose keep probability is below 1, in position
    order, and a position is kept where its draw is below that probability.
    The kept tokens of each sentence are trained as that sentence: their
    windows skip the dropped positions, and each kept position keeps the
    learning rate of its own (epoch, position) step. The vocabulary, the
    negatives' distribution and the initial vectors come from the full
    counts. A corpus with no token above the floor draws nothing and trains
    every position.

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
    centers and its rows are each distinct.

    Each epoch cuts its kept run into blocks and walks them in groups
    (:func:`_kept_run`), each of which draws its pairs' negatives with one
    ``rng.random`` call, the same numbers one call per sentence would give,
    and plans its blocks with one argsort (:func:`_block_plans`). Working
    memory is one group's ids, draws and plan plus one block's rows,
    whatever the sentence length.
    """
    cfg = config or TrainConfig()
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    vocab, w_in, trained = _train_vectors(corpus, cfg, dim)
    return EmbeddingModel(dim=dim, vocab=vocab, vectors=w_in.astype(np.float32),
                          train_config=cfg, trained=trained)


def _train_vectors(
    corpus: Corpus, cfg: TrainConfig, dim: int
) -> tuple[dict[str, int], np.ndarray, tuple[int, float]]:
    """Vocabulary and float64 input vectors of :func:`train_embeddings`, and
    its corpus token count and mean positions trained per epoch."""
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
    negatives = _InverseCdf(np.cumsum(noise / noise.sum()))

    rng = np.random.default_rng(cfg.seed)
    size = len(vocab)
    w_in = (rng.random((size, dim)) - 0.5) / dim
    w_out = np.zeros((size, dim))

    # The corpus as one run of positions, sentence i at starts[i]..starts[i + 1]-1.
    encoded = [[vocab[t] for t in sent] for sent in sentences]
    del sentences  # training needs the token ids only, not the strings
    tokens = np.array([i for sent in encoded for i in sent], dtype=np.intp)
    starts = np.cumsum([0, *map(len, encoded)])
    del encoded
    ratio = max(_SUBSAMPLE * tokens.size, _SUBSAMPLE_FLOOR) / freq
    keep_p = (np.sqrt(ratio) + ratio)[tokens]
    thinned = np.flatnonzero(keep_p < 1.0)  # the positions each epoch draws for
    keep_p = keep_p[thinned]
    kept = np.ones(tokens.size, dtype=bool)
    k = cfg.negative_samples
    total_steps = max(1, cfg.epochs * tokens.size)
    trained = 0
    for epoch in range(cfg.epochs):
        if thinned.size:
            kept[thinned] = rng.random(thinned.size) < keep_p
        pos, ids, run_starts, bounds, groups = _kept_run(tokens, starts, kept, cfg.window, 1 + k)
        trained += ids.size
        step = epoch * tokens.size  # every position is one step, lone tokens too
        for b0, b1 in groups:
            lo, hi = int(bounds[b0]), int(bounds[b1])
            pair_pos, contexts = _windows(run_starts, lo, hi, cfg.window)
            if pair_pos.size == 0:
                continue  # lone tokens: no context, no draws
            lr = np.maximum(_LR_MIN, _LR_INITIAL * (1.0 - (step + pos[lo:hi]) / total_steps))
            # Column 0 of each pair's output ids is its context, the rest its negatives.
            out_ids = np.empty((pair_pos.size, 1 + k), dtype=np.intp)
            out_ids[:, 0] = ids[contexts]
            out_ids[:, 1:] = negatives(rng.random((pair_pos.size, k)))
            plans = _block_plans(out_ids, pair_pos, bounds[b0 : b1 + 1], size)
            for rows_ids, cells, c0, c1 in plans:
                rows = w_out[rows_ids]
                centers = w_in[ids[c0:c1]]
                g = _sigmoid((rows @ centers.T).ravel()[cells])
                g[:, 0] -= 1.0
                # coef[r, c] sums g over the pairs of center c that touch output row r.
                coef = np.bincount(cells.ravel(), weights=g.ravel(),
                                   minlength=rows_ids.size * (c1 - c0))
                coef = coef.reshape(rows_ids.size, c1 - c0)
                w_in[ids[c0:c1]] = centers - lr[c0 - lo : c1 - lo, None] * (coef.T @ rows)
                w_out[rows_ids] = rows - (coef * lr[c0 - lo : c1 - lo]) @ centers
    return vocab, w_in, (tokens.size, trained / cfg.epochs)


def _kept_run(tokens: np.ndarray, starts: np.ndarray, kept: np.ndarray, window: int,
              cols: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                                  list[tuple[int, int]]]:
    """One epoch's kept positions of the corpus as one run, ``(pos, ids,
    run_starts, bounds, groups)``: the corpus position and token id of each
    run position, the run's sentence starts, its center-block bounds
    (:func:`_center_blocks`, sentence by sentence) and their groups. Sentence
    i of the corpus, at starts[i]..starts[i + 1]-1, keeps the positions
    where ``kept`` holds.

    A group is the consecutive blocks that start in one span of
    ``max(1, _PLAN_CELLS // (2 * window * cols))`` run positions, given as
    its first block and the block after its last. A position has at most
    2 * window pairs of ``cols`` cells, so a group holds fewer than
    ``_PLAN_CELLS`` cells plus one block's.
    """
    pos = np.flatnonzero(kept)
    ids = tokens[pos]
    run_starts = np.concatenate(([0], np.cumsum(kept)))[starts]
    run = ids.tolist()
    edges = run_starts.tolist()
    bounds = np.array([s + b for s, e in zip(edges, edges[1:])
                       for b in _center_blocks(run[s:e])[:-1]] + [ids.size])
    span = max(1, _PLAN_CELLS // (2 * window * cols))
    cuts = (np.flatnonzero(np.diff(bounds[:-1] // span)) + 1).tolist()
    return pos, ids, run_starts, bounds, list(zip([0, *cuts], [*cuts, len(bounds) - 1]))


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


def _draw_by_d2(d2: np.ndarray, rng: np.random.Generator,
                cumulative: np.ndarray | None = None) -> int:
    """An index drawn with probability proportional to ``d2`` (squared
    distances), or uniformly when they are all zero; ``cumulative``, when
    given, is a buffer of d2's size that takes its running sums."""
    total = np.add.reduce(d2)
    if total <= 0.0:
        return int(rng.integers(d2.size))
    r = rng.random() * total
    return min(int(np.cumsum(d2, out=cumulative).searchsorted(r)), d2.size - 1)


def _kmeanspp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    diff = np.empty_like(x)
    d2, to_chosen, cumulative = np.empty((3, x.shape[0]))

    def squared_distances(idx: int, out: np.ndarray) -> None:
        np.subtract(x, x[idx], out=diff)
        np.square(diff, out=diff)
        np.add.reduce(diff, axis=1, out=out)

    chosen = [int(rng.integers(x.shape[0]))]
    squared_distances(chosen[0], d2)
    for _ in range(1, k):
        chosen.append(_draw_by_d2(d2, rng, cumulative))
        # After a uniform draw d2 is all zero and stays so.
        squared_distances(chosen[-1], to_chosen)
        np.minimum(d2, to_chosen, out=d2)
    return x[chosen].copy()


_KMEANS_MAX_ITER = 200
_KMEANS_TOL = 1e-6


def _squared_norms(x: np.ndarray) -> np.ndarray:
    """Each row's sum of squares, as ``np.sum(x**2, axis=1)`` adds it."""
    return np.add.reduce(x * x, axis=1)


def _assign(x: np.ndarray, norms: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Each point's nearest centroid by ``|x|^2 - 2 x.c + |c|^2``, with
    ``norms`` the points' (n, 1) squared norms."""
    d2 = x @ centroids.T
    np.multiply(d2, 2.0, out=d2)
    np.subtract(norms, d2, out=d2)
    np.add(d2, _squared_norms(centroids), out=d2)
    return d2.argmin(axis=1)


def _wcss(x: np.ndarray, centroids: np.ndarray, assignments: np.ndarray) -> float:
    return float(np.sum((x - centroids[assignments]) ** 2))


def kmeans(
    vectors: Sequence[np.ndarray] | np.ndarray,
    k: int,
    seed: int = 0,
) -> Clustering:
    """Lloyd's algorithm with k-means++ seeding.

    Stops after ``_KMEANS_MAX_ITER`` iterations or when the largest centroid
    shift falls below ``_KMEANS_TOL``. Empty clusters are reseeded
    (distance-squared sampling) once; surviving empties are accepted. ``k``
    must be at most the number of points; ``k`` equal to it gives one
    singleton cluster per point.
    """
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("kmeans requires a non-empty 2-D array of vectors")
    n, dim = x.shape
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}] for {n} vectors, got {k}")
    rng = np.random.default_rng(seed)

    if k == n:
        return Clustering(k=k, assignments=np.arange(n), centroids=x.copy(),
                          medoids=list(range(n)), objective_history=[0.0])

    centroids = _kmeanspp_init(x, k, rng)
    norms = _squared_norms(x)[:, None]
    assignments = _assign(x, norms, centroids)
    history: list[float] = []
    reseeded = False
    for _ in range(_KMEANS_MAX_ITER):
        counts = np.bincount(assignments, minlength=k)
        occupied = counts > 0
        if not reseeded and not occupied.all():
            reseeded = True
            d2 = _squared_norms(x - centroids[assignments])
            for c in np.flatnonzero(~occupied):
                idx = _draw_by_d2(d2, rng)
                centroids[c] = x[idx]
                d2[idx] = 0.0
            assignments = _assign(x, norms, centroids)
            counts = np.bincount(assignments, minlength=k)
            occupied = counts > 0

        new_centroids = centroids.copy()
        if dim == 1:
            # mean sums a single column pairwise, not row by row.
            for c in np.flatnonzero(occupied):
                new_centroids[c] = x[assignments == c].mean(axis=0)
        else:
            # mean adds the rows to +0.0 one by one, in index order.
            np.divide(_row_sums(assignments, x, k), counts[:, None], out=new_centroids,
                      where=occupied[:, None])
        shift = float(np.sqrt(np.max(_squared_norms(new_centroids - centroids))))
        centroids = new_centroids
        history.append(_wcss(x, centroids, assignments))
        if shift < _KMEANS_TOL:
            break
        assignments = _assign(x, norms, centroids)

    # Rows by cluster, then distance to its centroid, then index: the first
    # row of each cluster is its medoid, ties going to the lower index.
    dists = np.sqrt(_squared_norms(x - centroids[assignments]))
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
