import contextlib
import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import EPOCH, family_aspects, family_corpus, family_mapping, feed_text, make_record
from vulnaug import embed, featcorr
from vulnaug.cli import cli
from vulnaug.corpus import AspectKind, Corpus, Source, TvdRecord, mask_aspect
from vulnaug.embed import EmbeddingModel, TrainConfig, tokenize, train_embeddings
from vulnaug.errors import DivergedTraining, EmptyTrainingSet
from vulnaug.featcorr import (
    _PAIR_BLOCK,
    NEG_RATIO,
    BackgroundStore,
    CorrelationModel,
    CorrTrainConfig,
    FeaturePair,
    TrainingPairs,
    build_training_pairs,
    fetch_background,
    interaction_features,
    rank_candidates,
    score,
    software_features,
    train_correlation,
)
from vulnaug.exampler import ExampleSet, SelectionMode
from vulnaug.genprompt import CandidateAnswer, MockBackend, PromptKind, build_direct
from vulnaug.mapping import MappingDb
from vulnaug.pipeline import AugmentPipeline

ROOT = Path(__file__).resolve().parents[1]


def candidate(text, round=1):
    return CandidateAnswer(aspect=AspectKind.ROOT_CAUSE, text=text,
                           strategy=PromptKind.SELECTION, round=round, backend_id="t")


# --- reference implementations: the full scans the indexed code replaces ------


def reference_training_pairs(corpus, seed=0):
    """Enumerate every cross-record instance pair, then sample from the list."""
    instances = []
    positives = []
    for rec in corpus:
        texts = [v for v in (rec.aspects.get(k) for k in AspectKind) if v]
        instances.extend((rec.cve_id, text) for text in texts)
        positives.extend(
            FeaturePair(a=texts[x], b=texts[y], label=1, origin=(rec.cve_id, rec.cve_id))
            for x in range(len(texts)) for y in range(x + 1, len(texts))
        )
    if not positives:
        raise EmptyTrainingSet("no record has two or more populated aspects")
    cross = [
        (i, j)
        for i in range(len(instances))
        for j in range(i + 1, len(instances))
        if instances[i][0] != instances[j][0]
    ]
    wanted = NEG_RATIO * len(positives)
    rng = np.random.default_rng(seed)
    if len(cross) > wanted:
        picked = rng.choice(len(cross), size=wanted, replace=False)
        cross = [cross[int(p)] for p in sorted(picked)]
    return positives + [
        FeaturePair(a=instances[i][1], b=instances[j][1], label=0,
                    origin=(instances[i][0], instances[j][0]))
        for i, j in cross
    ]


def reference_best_terms(aspect_text, store):
    """Score every article against the aspect, sort every overlap and keep
    the best three."""
    if store is None:
        return []
    tokens = set(tokenize(aspect_text))
    scored = []
    for term, body in store.articles.items():
        overlap = len(tokens & set(tokenize(term) + tokenize(body)))
        if overlap > 0:
            scored.append((-overlap, term))
    scored.sort()
    return [term for _, term in scored[:3]]


def reference_fetch_background(aspect_text, store):
    return " ".join(store.articles[term] for term in reference_best_terms(aspect_text, store))


def token_loop_sum(model, tokens):
    """Add one token vector at a time, from zero."""
    acc = np.zeros(model.embedding.dim, dtype=np.float64)
    for tok in tokens:
        if tok in model.embedding.vocab:
            acc += model.embedding.vectors[model.embedding.vocab[tok]]
    return acc


def reference_tower_vector(model, text):
    """The text's token-loop sum, then each chosen body's token-loop sum in
    rank order, over the number of tokens."""
    parts = [tokenize(text)] + [tokenize(model.store.articles[term])
                                for term in reference_best_terms(text, model.store)]
    acc = np.zeros(model.embedding.dim, dtype=np.float64)
    for part in parts:
        acc += token_loop_sum(model, part)
    return acc / max(1, sum(map(len, parts)))


def token_loop_tower_vector(model, text):
    """Re-tokenize the joined background and add one token vector at a time."""
    tokens = tokenize(text) + tokenize(reference_fetch_background(text, model.store))
    return token_loop_sum(model, tokens) / max(1, len(tokens))


def reference_interaction(u, v):
    """One pair's [u*v, |u-v|, cos(u, v)], norms from ``np.linalg.norm``."""
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    cos = 0.0 if nu == 0.0 or nv == 0.0 else float(np.dot(u, v) / (nu * nv))
    return np.concatenate([u * v, np.abs(u - v), [cos]])


def reference_probability(model, u, v):
    """Score one (feature, candidate) pair of towers with its own NumPy calls."""
    logit = float(np.dot(model.weights, reference_interaction(u, v))) + model.bias
    with np.errstate(over="ignore"):  # e^-logit = inf gives 0, its limit
        return float(1.0 / (1.0 + np.exp(-logit)))


def reference_rank(model, features, candidates):
    """The per-pair loop: each candidate against each feature tower in turn,
    every tower computed for its one text."""
    model = uncached(model)
    towers = [model.tower_vector(f) for f in features]
    ranked = []
    for cand in candidates:
        if not towers:
            mean = 0.5
        else:
            v = model.tower_vector(cand.text)
            scores = [reference_probability(model, u, v) for u in towers]
            mean = math.fsum(scores) / len(scores)
        ranked.append((mean, cand.round, cand.text))
    ranked.sort(key=lambda r: (-r[0], r[1], r[2]))
    return ranked


def reference_newton_terms(z, y, theta):
    """Summed cross-entropy, penalized loss, gradient and Hessian of the
    dense design matrix ``z`` = [x, 1] at ``theta``, each in one piece."""
    ridge = np.full(theta.size, featcorr._RIDGE)
    ridge[-1] = 0.0
    t = z @ theta
    with np.errstate(over="ignore"):
        p = 1.0 / (1.0 + np.exp(-t))
    loss = float(np.sum(y * np.logaddexp(0.0, -t) + (1.0 - y) * np.logaddexp(0.0, t)))
    grad = z.T @ (p - y) + ridge * theta
    hess = z.T @ ((p * (1.0 - p))[:, None] * z) + np.diag(ridge)
    return loss, loss + 0.5 * float(np.sum(ridge * theta * theta)), grad, hess


def dense_design(pairs, store, embedding):
    """[x, 1] with x built in one piece from each text's own tower, and the labels."""
    model = CorrelationModel(embedding=embedding, weights=np.zeros(2 * embedding.dim + 1),
                             bias=0.0, store=store)
    x = interaction_features(np.stack([model.tower_vector(p.a) for p in pairs]),
                             np.stack([model.tower_vector(p.b) for p in pairs]))
    z = np.column_stack([x, np.ones(len(pairs))])
    return z, np.array([p.label for p in pairs], dtype=np.float64)


def reference_newton_fit(pairs, store, embedding, cfg):
    """Plain Newton steps on the dense design matrix, each solved with
    ``np.linalg.solve`` and scaled by ``cfg.learning_rate`` until the
    penalized loss does not rise. Returns (theta, loss history)."""
    z, y = dense_design(pairs, store, embedding)
    n = len(pairs)
    theta = np.zeros(z.shape[1])
    loss, penalized, grad, hess = reference_newton_terms(z, y, theta)
    losses = []
    for _ in range(cfg.epochs):
        delta = np.linalg.solve(hess, grad)
        decrement = float(grad @ delta)
        scale = 1.0
        while scale * decrement >= featcorr._NEWTON_TOL * n:
            trial = theta - scale * delta
            found = reference_newton_terms(z, y, trial)
            if found[1] <= penalized:
                break
            scale *= cfg.learning_rate
        else:
            break
        theta, (loss, penalized, grad, hess) = trial, found
        losses.append(loss / n)
    return theta, losses or [loss / n]


def allocating_block_terms(x, positive, theta):
    """The summed cross-entropy, gradient and Hessian of one block of
    interaction rows ``x``, each term in new arrays."""
    t = np.vecdot(x, theta[:-1]) + theta[-1]
    with np.errstate(over="ignore"):
        p = embed._sigmoid(t)
    r = p - positive
    s = p * (1.0 - p)
    grad = np.append(np.add.reduce(x * r[:, None], axis=0), np.add.reduce(r))
    sx = x * s[:, None]
    hess = np.empty((theta.size, theta.size))
    hess[:-1, :-1] = x.T @ sx
    hess[:-1, -1] = hess[-1, :-1] = np.add.reduce(sx, axis=0)
    hess[-1, -1] = np.add.reduce(s)
    return float(np.add.reduce(np.logaddexp(0.0, np.where(positive, -t, t)))), grad, hess


def allocating_newton_terms(towers, ia, ib, positive, theta, _work_arrays=None):
    """:func:`featcorr._newton_terms` with every block's gathers, rows,
    products and Hessian in new arrays, summed block by block in the same
    order."""
    k = theta.size
    loss, grad, hess = 0.0, np.zeros(k), np.zeros((k, k))
    for lo in range(0, len(ia), _PAIR_BLOCK):
        block = slice(lo, lo + _PAIR_BLOCK)
        block_loss, block_grad, block_hess = allocating_block_terms(
            interaction_features(towers[ia[block]], towers[ib[block]]), positive[block], theta)
        loss += block_loss
        grad += block_grad
        hess += block_hess
    w = theta[:-1]
    grad[:-1] += featcorr._RIDGE * w
    hess[np.arange(k - 1), np.arange(k - 1)] += featcorr._RIDGE
    return loss, loss + 0.5 * featcorr._RIDGE * float(np.vecdot(w, w)), grad, hess


def assert_same_terms(got, want):
    assert got[:2] == want[:2]
    assert got[2].tobytes() == want[2].tobytes()
    assert got[3].tobytes() == want[3].tobytes()


# Few distinct tokens, so overlaps tie often; "omega" and "x9" stay out of
# every test vocabulary, and "Beta" / "alpha-beta" tokenize to known words.
WORDS = ["alpha", "beta", "gamma", "delta", "omega", "cve-2020-1", "x9", "Beta", "alpha-beta"]
VOCAB = ["alpha", "beta", "gamma", "delta", "cve-2020-1"]
phrases = st.lists(st.sampled_from(WORDS), max_size=8).map(" ".join)
titles = st.lists(st.sampled_from(WORDS), min_size=1, max_size=2).map(" ".join)
candidate_texts = st.lists(st.sampled_from(WORDS), min_size=1, max_size=8).map(" ".join)
article_maps = st.dictionaries(titles, phrases, max_size=8)


def random_embedding(rng, dim, binades=8, vocab=VOCAB):
    """Vectors whose entries span many binades, so summation order shows."""
    scale = 10.0 ** rng.uniform(-binades, binades, (len(vocab), dim))
    vectors = rng.standard_normal((len(vocab), dim)) * scale
    return EmbeddingModel(dim=dim, vocab={t: i for i, t in enumerate(vocab)},
                          vectors=vectors.astype(np.float32))


def dyadic_embedding(rng, dim, vocab=VOCAB):
    """Vectors of small multiples of 2**-8, so every float64 sum of a few
    hundred of them is exact and summation order cannot show."""
    vectors = rng.integers(-2**10, 2**10, (len(vocab), dim)) / 2**8
    return EmbeddingModel(dim=dim, vocab={t: i for i, t in enumerate(vocab)},
                          vectors=vectors.astype(np.float32))


def uncached(model, **changes):
    """A model with ``model``'s fields, apart from ``changes``, that keeps no
    towers yet."""
    return dataclasses.replace(model, **changes)


def zero_model(embedding, articles=None):
    """A model with zero weights over ``embedding`` and, unless ``articles``
    is None, a store of them."""
    store = None if articles is None else BackgroundStore(articles=articles)
    return CorrelationModel(embedding=embedding, weights=np.zeros(2 * embedding.dim + 1),
                            bias=0.0, store=store)


@contextlib.contextmanager
def counted_fills():
    """Count each text that a tower computation is asked for."""
    calls = Counter()
    compute = featcorr._compute_towers

    def counted(embedding, texts, store, body_sums):
        calls.update(texts)
        return compute(embedding, texts, store, body_sums)

    with mock.patch.object(featcorr, "_compute_towers", counted):
        yield calls


@contextlib.contextmanager
def counted_calls(name):
    """Count the calls of ``featcorr.<name>``, one entry per call."""
    calls = []
    fn = getattr(featcorr, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    with mock.patch.object(featcorr, name, counted):
        yield calls


def random_model(seed, dim, articles=None):
    """A correlation model whose weights span three binades, with a store of
    ``articles`` unless that is None. Most logits keep every bit in the score,
    but one can still fall below about -709, where the score saturates to 0."""
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal(2 * dim + 1) * 10.0 ** rng.uniform(-3, 0, 2 * dim + 1)
    return CorrelationModel(
        embedding=random_embedding(rng, dim, binades=1),
        weights=weights,
        bias=float(rng.standard_normal()),
        store=None if articles is None else BackgroundStore(articles=articles),
    )


class TestTrainingPairs:
    def test_single_record_three_positives_no_negatives(self):
        rec = make_record(
            "CVE-2020-7000",
            "d.",
            aspects={
                AspectKind.VULNERABILITY_TYPE: "overflow",
                AspectKind.IMPACT: "crash",
                AspectKind.ROOT_CAUSE: "off by one",
            },
        )
        pairs = build_training_pairs(Corpus.from_records([rec]), seed=0)
        assert sum(p.label == 1 for p in pairs) == 3
        assert sum(p.label == 0 for p in pairs) == 0

    def test_negatives_exactly_twice_positives(self):
        corpus = family_corpus(n_records=40)
        pairs = build_training_pairs(corpus, seed=0)
        positives = sum(p.label == 1 for p in pairs)
        negatives = sum(p.label == 0 for p in pairs)
        assert negatives == 2 * positives

    def test_labels_match_record_origin(self):
        corpus = family_corpus(n_records=20)
        for pair in build_training_pairs(corpus, seed=1):
            if pair.label == 1:
                assert pair.origin[0] == pair.origin[1]
            else:
                assert pair.origin[0] != pair.origin[1]

    def test_seed_reproduces_sample(self):
        corpus = family_corpus(n_records=30)
        a = build_training_pairs(corpus, seed=9)
        b = build_training_pairs(corpus, seed=9)
        assert a == b
        c = build_training_pairs(corpus, seed=10)
        assert a != c

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(["a", "b", "c d", "e"]), max_size=5), max_size=12),
           st.integers(0, 2**32 - 1))
    def test_matches_nested_loop_sampler(self, aspect_lists, seed):
        kinds = list(AspectKind)
        corpus = Corpus.from_records(
            make_record(f"CVE-2020-{1000 + n}", "d.",
                        aspects=dict(zip(kinds, texts)))
            for n, texts in enumerate(aspect_lists)
        )
        try:
            want = reference_training_pairs(corpus, seed)
        except EmptyTrainingSet:
            with pytest.raises(EmptyTrainingSet):
                build_training_pairs(corpus, seed)
            return
        pairs = build_training_pairs(corpus, seed)
        assert pairs == want
        assert sorted(pairs.texts) == sorted({text for p in want for text in (p.a, p.b)})

    def test_large_corpus_memory_bounded(self):
        # 5k records of 5 aspects: 25k instances, 150k pairs and about 3.1e8
        # cross pairs, which an enumerate-then-sample build holds as tuples
        # (tens of GB). The pairs are kept as five arrays, 33 bytes a pair;
        # one FeaturePair and origin tuple per pair held over 150 bytes a
        # pair, 24 MiB kept and a 37 MiB peak. The build peaks at 8.4 MiB
        # when it drops each pair-length array as soon as it is used, and at
        # 16.8 MiB when about ten of them stay alive to the end.
        corpus = family_corpus(n_records=5000)
        tracemalloc.start()
        try:
            pairs = build_training_pairs(corpus, seed=0)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert int(pairs.positive.sum()) == 50_000 and len(pairs) == 150_000
        assert kept < 48 * len(pairs)
        assert peak < 10 * 2**20

    def test_views_round_trip_through_a_list(self):
        pairs = build_training_pairs(family_corpus(n_records=30), seed=2)
        listed = list(pairs)
        assert all(type(p) is FeaturePair for p in listed)
        again = TrainingPairs.of(listed)
        assert again == pairs == listed and listed == pairs
        assert TrainingPairs.of(pairs) is pairs
        assert pairs[len(pairs) - 1] == pairs[-1] == listed[-1]
        assert pairs[np.int64(3)] == listed[3]
        assert pairs[5:40:3] == listed[5:40:3] and isinstance(pairs[5:40:3], TrainingPairs)
        assert pairs[:0] == [] and len(pairs[:0]) == 0
        assert pairs != listed[:-1] and pairs != listed[::-1] and pairs != 3
        with pytest.raises(IndexError):
            pairs[len(pairs)]

    def test_arrays_hold_the_pairs_distinct_texts(self):
        # "crash" is in both records; "leak" is in negatives only.
        recs = [make_record("CVE-2020-1000", "d.", aspects={AspectKind.IMPACT: "crash",
                                                            AspectKind.ROOT_CAUSE: "bug"}),
                make_record("CVE-2020-1001", "d.", aspects={AspectKind.IMPACT: "leak",
                                                            AspectKind.ROOT_CAUSE: "crash"})]
        pairs = build_training_pairs(Corpus.from_records(recs), seed=0)
        assert pairs.texts == ["crash", "bug", "leak"]
        assert pairs.cve_ids == ["CVE-2020-1000", "CVE-2020-1001"]
        assert pairs.ia.dtype == pairs.ib.dtype == np.intp and pairs.positive.dtype == bool
        assert pairs.positive.tolist() == [True, True, False, False, False, False]
        assert [(p.a, p.b) for p in pairs] == [("crash", "bug"), ("leak", "crash"),
                                               ("crash", "leak"), ("crash", "crash"),
                                               ("bug", "leak"), ("bug", "crash")]
        assert pairs.ra.tolist() == [0, 1, 0, 0, 0, 0] and pairs.rb.tolist() == [0, 1, 1, 1, 1, 1]

    @pytest.mark.parametrize("label", [-1, 2, 0.5])
    def test_label_other_than_zero_or_one_rejected(self, label):
        with pytest.raises(ValueError, match="label must be 0 or 1"):
            FeaturePair(a="x", b="y", label=label, origin=("CVE-1", "CVE-2"))

    def test_no_multi_aspect_record_raises(self):
        rec = make_record("CVE-2020-7001", "d.", aspects={AspectKind.IMPACT: "crash"})
        with pytest.raises(EmptyTrainingSet):
            build_training_pairs(Corpus.from_records([rec]), seed=0)


class TestBackgroundStore:
    def fixture(self):
        return BackgroundStore(articles={
            "buffer overflow": "A buffer overflow happens when data exceeds a buffer.",
            "sql injection": "SQL injection abuses unsanitized query strings.",
            "race condition": "A race condition is a timing dependent flaw.",
        })

    def test_zero_overlap_is_empty(self):
        assert fetch_background("quantum entanglement", self.fixture()) == ""

    def test_exact_title_overlap_ranks_first(self):
        store = self.fixture()
        text = fetch_background("Buffer overflow", store)
        assert text.startswith("A buffer overflow happens")

    def test_tie_broken_by_title(self):
        store = BackgroundStore(articles={
            "beta term": "body two shared",
            "alpha term": "body one shared",
        })
        assert fetch_background("term", store) == "body one shared body two shared"

    def test_at_most_three_of_four_matching_articles(self):
        store = BackgroundStore(articles={
            "d flaw": "four flaw body",
            "c flaw": "three flaw body",
            "b flaw": "two flaw body",
            "a flaw": "one flaw body",
        })
        text = fetch_background("flaw", store)
        assert text == "one flaw body two flaw body three flaw body"

    def test_file_round_trip(self, tmp_path):
        store = self.fixture()
        path = tmp_path / "store.tsv"
        store.save(path)
        loaded = BackgroundStore.from_file(path)
        assert loaded.articles == store.articles

    def test_none_store_is_empty_background(self):
        assert fetch_background("anything", None) == ""
        assert fetch_background("anything", BackgroundStore()) == ""

    @settings(max_examples=300, deadline=None)
    @given(article_maps, phrases)
    def test_matches_full_scan(self, articles, aspect):
        store = BackgroundStore(articles=articles)
        assert fetch_background(aspect, store) == reference_fetch_background(aspect, store)

    @settings(max_examples=300, deadline=None)
    @given(article_maps, st.lists(phrases, max_size=6))
    def test_batched_ranking_matches_full_scan(self, articles, aspects):
        # Several rows at once: ties go to the earlier title, and a row that
        # matches nothing holds only the no-article index.
        store = BackgroundStore(articles=articles)
        titles = sorted(articles) + [None]
        picks = store._best_rows([tokenize(a) for a in aspects + ["zeta"]])
        assert picks.shape == (len(aspects) + 1, 3)
        got = [[titles[i] for i in row] for row in picks.tolist()]
        for aspect, row in zip(aspects + ["zeta"], got):
            want = reference_best_terms(aspect, store)
            assert row == want + [None] * (3 - len(want))


class TestTowerVector:
    @settings(max_examples=200, deadline=None)
    @given(article_maps, phrases, st.sampled_from([1, 2, 3, 16]), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_matches_token_loop(self, articles, text, dim, with_store, seed):
        # A computed tower, then the kept one.
        model = zero_model(random_embedding(np.random.default_rng(seed), dim),
                           articles if with_store else None)
        want = reference_tower_vector(model, text)
        assert np.array_equal(model.tower_vector(text), want)
        assert np.array_equal(model.tower_vectors([text])[0], want)

    @settings(max_examples=100, deadline=None)
    @given(article_maps, st.lists(st.one_of(phrases, st.just("zeta gamma zeta")), min_size=1,
                                  max_size=8),
           st.sampled_from([1, 2, 3, 16]), st.booleans(), st.integers(0, 2**32 - 1))
    def test_stack_equals_stacked_vectors(self, articles, texts, dim, with_store, seed):
        # Row i of a batch is bit-equal to the one-row tower of text i,
        # whatever the block size. "zeta" is in the vocabulary and in no article.
        texts = texts + ["", "omega x9", "zeta"]
        rng = np.random.default_rng(seed)
        model = zero_model(random_embedding(rng, dim, vocab=VOCAB + ["zeta"]),
                           articles if with_store else None)
        want = np.stack([uncached(model).tower_vector(text) for text in texts])
        assert want.tobytes() == np.stack(
            [reference_tower_vector(model, text) for text in texts]).tobytes()
        for block, cells in [(1, None), (2, None), (3, None), (None, None), (None, 16)]:
            fresh = uncached(model)
            with mock.patch.object(featcorr, "_TOWER_BLOCK", block or featcorr._TOWER_BLOCK), \
                    mock.patch.object(embed, "_SUM_CELLS", block or embed._SUM_CELLS), \
                    mock.patch.object(featcorr, "_OVERLAP_CELLS", cells or featcorr._OVERLAP_CELLS):
                # Every other text is kept first, so hits and misses mix.
                fresh.tower_vectors(texts[::2])
                got = fresh.tower_vectors(texts)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(article_maps, st.lists(phrases, min_size=1, max_size=8),
           st.sampled_from([1, 2, 3, 16]), st.booleans(), st.integers(0, 2**32 - 1))
    def test_exact_sums_equal_the_token_loop(self, articles, texts, dim, with_store, seed):
        # Where float64 holds every partial sum, adding each body's sum as one
        # part equals adding its tokens one by one after the text's own.
        model = zero_model(dyadic_embedding(np.random.default_rng(seed), dim),
                           articles if with_store else None)
        want = np.stack([token_loop_tower_vector(model, text) for text in texts])
        assert model.tower_vectors(texts).tobytes() == want.tobytes()
        for text, row in zip(texts, want):
            assert uncached(model).tower_vector(text).tobytes() == row.tobytes()

    def test_stack_computes_each_text_once(self):
        model = random_model(8, 4)
        texts = ["alpha", "beta gamma", "alpha", "delta", "beta gamma"]
        with counted_fills() as calls:
            model.tower_vectors(["delta"])
            model.tower_vectors(texts)
            model.tower_vectors(texts)
            model.tower_vector("alpha")
        assert calls == Counter(set(texts))

    def test_empty_batch(self):
        model = random_model(8, 4)
        assert model.tower_vectors([]).shape == (0, 4)

    def test_one_dimensional_embedding_is_exact(self):
        model = zero_model(random_embedding(np.random.default_rng(0), 1))
        text = " ".join(VOCAB * 8)
        got = model.tower_vector(text)
        assert got.tobytes() == reference_tower_vector(model, text).tobytes()

    def test_one_dimensional_tower_alone_equals_its_row_in_a_block(self):
        # 40 tokens: NumPy would sum a lone text's single column pairwise.
        model = zero_model(random_embedding(np.random.default_rng(0), 1))
        text = " ".join(VOCAB * 8)
        alone = uncached(model).tower_vector(text)
        block = uncached(model).tower_vectors([text, "alpha", "beta gamma"])
        assert alone.tobytes() == block[0].tobytes()

    def test_writing_a_stacked_row_leaves_the_cache(self):
        model = random_model(6, 4)
        model.tower_vectors(["alpha"])[0] = 1.0
        model.tower_vector("alpha")[:] = 2.0
        got = model.tower_vectors(["alpha"])[0]
        assert got.tobytes() == uncached(model).tower_vector("alpha").tobytes()

    def test_body_sums_are_computed_once_per_model(self, family_setup):
        # Training, and every tower, score and ranking of the trained model,
        # use the body sums computed when the model was built.
        corpus, embedding, _, _ = family_setup
        store = BackgroundStore(articles={"flaw0": "cause0 vector0", "soft0": "flaw1 rec1"})
        with mock.patch.object(BackgroundStore, "body_sums", autospec=True,
                               side_effect=BackgroundStore.body_sums) as body_sums:
            model = train_correlation(shuffled_pairs(corpus, 3 * _PAIR_BLOCK), store, embedding,
                                      CorrTrainConfig(epochs=2))
            assert body_sums.call_count == 1
            model.tower_vectors(["flaw0", "soft0 rec1"])
            model.tower_vectors(["flaw0 cause0", "rec1"])
            score(model, "flaw1", "cause0")
            rank_candidates(model, ["flaw0"], [candidate("cause0"), candidate("soft0", round=2)])
        assert body_sums.call_count == 1
        assert model.tower_vector("soft0 rec1").tobytes() == reference_tower_vector(
            model, "soft0 rec1").tobytes()

    def test_cache_computes_each_text_once_under_threads(self):
        model = random_model(7, 8, articles={w: " ".join(VOCAB) for w in VOCAB})
        texts = [" ".join(VOCAB[: 1 + n % 5]) + f" t{n}" for n in range(40)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with counted_fills() as calls, ThreadPoolExecutor(max_workers=16) as pool:
                futures = [pool.submit(lambda k: [model.tower_vectors([t])[0]
                                                  for t in texts[k:] + texts[:k]], k)
                           for k in range(16)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(switch)
        assert calls == Counter(texts)
        for k, got in enumerate(results):
            for t, tower in zip(texts[k:] + texts[:k], got):
                assert tower.tobytes() == uncached(model).tower_vector(t).tobytes()

    def test_stack_memory_is_bounded_by_the_block(self):
        # 2,048 distinct texts, as train-corr asks for at once, against a
        # 500-article store. Ranking and summing them in one piece holds a
        # (2048, 500) overlap matrix and a zero-padded (9, 2048, 64) float64
        # sum: about 18 MiB here. Blocks of _TOWER_BLOCK texts leave the
        # towers, their stacked copy and one block's overlaps, ids and
        # (texts, d) accumulator.
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(2000)]

        def phrase(n):
            return " ".join(words[j] for j in rng.integers(0, len(words), n))

        model = zero_model(
            EmbeddingModel(dim=64, vocab={w: i for i, w in enumerate(words)},
                           vectors=rng.standard_normal((2000, 64)).astype(np.float32)),
            {f"t{a} {phrase(2)}": phrase(40) for a in range(500)})
        texts = [f"{phrase(8)} t{i}" for i in range(2048)]
        tracemalloc.start()
        try:
            got = model.tower_vectors(texts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.shape == (2048, 64)
        assert peak < 8 * 2**20

    def test_tokens_are_held_one_block_at_a_time(self):
        # 8,192 distinct texts of 13 tokens and no store: their token lists
        # take about 7 MiB at once, and the towers 1 MiB.
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(2000)]
        embedding = EmbeddingModel(dim=16, vocab={w: i for i, w in enumerate(words)},
                                   vectors=rng.standard_normal((2000, 16)).astype(np.float32))
        texts = [" ".join(words[j] for j in rng.integers(0, 2000, 12)) + f" t{i}"
                 for i in range(8192)]
        tracemalloc.start()
        try:
            got = featcorr._compute_towers(embedding, texts, None, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.shape == (8192, 16)
        assert peak < got.nbytes + 2**20

    def test_overlap_matrix_is_bounded_for_a_large_store(self):
        # 20,000 articles sharing one word: a (64, 20000) overlap matrix of
        # 64-bit counts alone takes 9.8 MiB.
        model = random_model(9, 4, articles={f"a{i}": "alpha" for i in range(20_000)})
        texts = [f"alpha t{i}" for i in range(64)]
        tracemalloc.start()
        try:
            got = model.tower_vectors(texts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Every text ties with every article; "t<i>" is out of vocabulary.
        want = reference_tower_vector(model, texts[0])
        assert all(row.tobytes() == want.tobytes() for row in got)
        assert peak < 4 * 2**20

    def test_empty_text_is_zero(self):
        model = zero_model(random_embedding(np.random.default_rng(1), 4))
        assert np.array_equal(model.tower_vector(""), np.zeros(4))
        assert np.array_equal(model.tower_vector("omega x9"), np.zeros(4))


@pytest.fixture(scope="module")
def family_setup():
    corpus = family_corpus()
    embedding = train_embeddings(corpus, TrainConfig(seed=11, epochs=10))
    pairs = build_training_pairs(corpus, seed=5)
    rng = np.random.default_rng(3)
    idx = rng.permutation(len(pairs))
    split = int(0.8 * len(pairs))
    train = [pairs[i] for i in idx[:split]]
    held_out = [pairs[i] for i in idx[split:]]
    model = train_correlation(train, None, embedding, CorrTrainConfig(learning_rate=0.5, epochs=300))
    return corpus, embedding, model, held_out


def shuffled_pairs(corpus, n):
    """The first ``n`` of the corpus' training pairs in a fixed shuffled order,
    repeated as often as ``n`` needs."""
    pairs = build_training_pairs(corpus, seed=5)
    order = np.random.default_rng(3).permutation(len(pairs))
    shuffled = [pairs[i] for i in order]
    return (shuffled * (1 + n // len(shuffled)))[:n]


def scaled_embedding(embedding, factor):
    """``embedding`` with every vector times ``factor``: towers that large
    make the first full Newton steps overshoot."""
    return EmbeddingModel(dim=embedding.dim, vocab=embedding.vocab,
                          vectors=embedding.vectors * factor)


def acceptance_08(seed):
    """Acceptance 08's body under ``TrainConfig(seed=seed)``: the held-out
    accuracy and the planted aspect's wins in 100 trials."""
    corpus = family_corpus(n_records=200, n_families=5)
    db = family_mapping(corpus)
    embedding = train_embeddings(corpus, TrainConfig(seed=seed, epochs=10))
    pairs = build_training_pairs(corpus, seed=5)
    order = np.random.default_rng(3).permutation(len(pairs))
    split = int(0.8 * len(pairs))
    model = train_correlation([pairs[i] for i in order[:split]], None, embedding,
                              CorrTrainConfig(learning_rate=0.5, epochs=300))
    held_out = [pairs[i] for i in order[split:]]
    correct = sum(int((score(model, p.a, p.b) > 0.5) == bool(p.label)) for p in held_out)
    wins = 0
    trial_rng = np.random.default_rng(17)
    records = {rec.cve_id: rec for rec in corpus}
    for _ in range(100):
        index = int(trial_rng.integers(200))
        masked, truth = mask_aspect(records[f"CVE-2021-{1000 + index}"], AspectKind.ROOT_CAUSE)
        distractors = [family_aspects(g, int(trial_rng.integers(200)))[AspectKind.ROOT_CAUSE]
                       for g in range(5) if g != index % 5][:3]
        ranked = rank_candidates(model, software_features(masked, db, corpus),
                                 [candidate(text, round=r + 1)
                                  for r, text in enumerate([truth] + distractors)])
        wins += int(ranked[0].candidate.text == truth)
    return correct / len(held_out), wins


class TestTrainCorrelation:
    def test_converges_well_before_the_step_cap(self, family_setup):
        _, _, model, _ = family_setup
        assert 1 < len(model.loss_history) < 30
        assert model.loss_history[-1] < 0.1

    @pytest.mark.parametrize("factor", [1.0, 1000.0], ids=["family", "overshooting"])
    def test_penalized_loss_never_rises(self, family_setup, factor):
        # A fit capped at k steps is the first k steps of a longer fit. At
        # 1000 times the family vectors, step 14's full step overshoots.
        corpus, embedding, _, _ = family_setup
        embedding = scaled_embedding(embedding, factor)
        pairs = shuffled_pairs(corpus, 100)
        z, y = dense_design(pairs, None, embedding)
        penalized = [reference_newton_terms(z, y, np.zeros(z.shape[1]))[1]]
        for steps in range(1, 17):
            model = train_correlation(pairs, None, embedding, CorrTrainConfig(epochs=steps))
            assert len(model.loss_history) <= steps
            penalized.append(reference_newton_terms(z, y, np.append(model.weights, model.bias))[1])
        assert all(b <= a * (1 + 1e-12) for a, b in zip(penalized, penalized[1:]))
        assert penalized[-1] < penalized[0]

    def test_learning_rate_scales_the_steps_that_overshoot(self, family_setup):
        corpus, embedding, _, _ = family_setup
        embedding = scaled_embedding(embedding, 1000.0)
        pairs = shuffled_pairs(corpus, 100)
        fits = {}
        for lr in (0.5, 0.1):
            cfg = CorrTrainConfig(learning_rate=lr, epochs=16)
            fits[lr] = train_correlation(pairs, None, embedding, cfg)
            theta, losses = reference_newton_fit(pairs, None, embedding, cfg)
            np.testing.assert_allclose(np.append(fits[lr].weights, fits[lr].bias), theta,
                                       rtol=1e-7)
        assert not np.array_equal(fits[0.5].weights, fits[0.1].weights)

    def test_fixed_seed_identical_weights(self, family_setup):
        corpus, embedding, model, _ = family_setup
        pairs = build_training_pairs(corpus, seed=5)
        rng = np.random.default_rng(3)
        idx = rng.permutation(len(pairs))
        train = [pairs[i] for i in idx[: int(0.8 * len(pairs))]]
        again = train_correlation(train, None, embedding,
                                  CorrTrainConfig(learning_rate=0.5, epochs=300))
        assert np.array_equal(again.weights, model.weights)
        assert again.bias == model.bias

    def test_held_out_accuracy(self, family_setup):
        _, _, model, held_out = family_setup
        correct = 0
        for pair in held_out:
            predicted = score(model, pair.a, pair.b) > 0.5
            correct += int(predicted == bool(pair.label))
        assert correct / len(held_out) >= 0.9

    @pytest.mark.parametrize("seed", range(11, 31))
    def test_acceptance_08_holds_across_embedding_seeds(self, seed):
        accuracy, wins = acceptance_08(seed)
        assert accuracy >= 0.9
        assert wins >= 90

    def test_empty_pairs_rejected(self, family_setup):
        _, embedding, _, _ = family_setup
        with pytest.raises(ValueError):
            train_correlation([], None, embedding)

    @pytest.mark.parametrize("learning_rate", [0.0, 1.0, -1.0, 1.5, math.nan, math.inf])
    def test_learning_rate_outside_the_open_unit_interval_rejected(self, learning_rate):
        with pytest.raises(ValueError, match="learning_rate must be in"):
            CorrTrainConfig(learning_rate=learning_rate)

    @pytest.mark.parametrize("n", [1, _PAIR_BLOCK - 1, _PAIR_BLOCK, _PAIR_BLOCK + 1,
                                   2 * _PAIR_BLOCK + 3])
    @pytest.mark.parametrize("background", ["none", "store"])
    def test_matches_dense_newton_reference(self, family_setup, background, n):
        corpus, embedding, _, _ = family_setup
        pairs = shuffled_pairs(corpus, n)
        store = None if background == "none" else BackgroundStore(articles={
            f"flaw{f}": f"flaw{f} cause{f} impact{f} rec{f} detail" for f in range(5)})
        cfg = CorrTrainConfig(learning_rate=0.5, epochs=40)
        model = train_correlation(pairs, store, embedding, cfg)
        theta, losses = reference_newton_fit(pairs, store, embedding, cfg)
        np.testing.assert_allclose(model.weights, theta[:-1], rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(model.bias, theta[-1], rtol=1e-7, atol=1e-9)
        assert len(model.loss_history) == len(losses)
        np.testing.assert_allclose(model.loss_history, losses, rtol=1e-10)

    @pytest.mark.parametrize("n", [1, _PAIR_BLOCK - 1, _PAIR_BLOCK, 2 * _PAIR_BLOCK + 7])
    @pytest.mark.parametrize("background", ["none", "store"])
    def test_newton_terms_match_the_allocating_blocks(self, family_setup, background, n):
        corpus, embedding, _, _ = family_setup
        pairs = TrainingPairs.of(shuffled_pairs(corpus, n))
        store = None if background == "none" else BackgroundStore(articles={
            f"flaw{f}": f"flaw{f} cause{f} impact{f} rec{f} detail" for f in range(5)})
        towers = featcorr._compute_towers(embedding, pairs.texts, store,
                                          None if store is None else store.body_sums(embedding))
        k = 2 * embedding.dim + 2
        work = featcorr._newton_work(n, embedding.dim)
        for theta in (np.zeros(k), np.random.default_rng(n).standard_normal(k)):
            assert_same_terms(
                featcorr._newton_terms(towers, pairs.ia, pairs.ib, pairs.positive, theta, work),
                allocating_newton_terms(towers, pairs.ia, pairs.ib, pairs.positive, theta))

    @pytest.mark.parametrize("dim", [1, 2, 7])
    def test_newton_terms_match_the_allocating_blocks_on_random_towers(self, dim):
        # Entries over many binades, zero towers and repeated rows; the last
        # block is short.
        rng = np.random.default_rng(dim)
        towers = rng.standard_normal((50, dim)) * 10.0 ** rng.uniform(-6, 6, (50, dim))
        towers[:3] = 0.0
        n = 3 * _PAIR_BLOCK + 5
        ia, ib = rng.integers(0, 50, n), rng.integers(0, 50, n)
        positive = rng.random(n) < 0.3
        theta = rng.standard_normal(2 * dim + 2)
        assert_same_terms(featcorr._newton_terms(towers, ia, ib, positive, theta,
                                                 featcorr._newton_work(n, dim)),
                          allocating_newton_terms(towers, ia, ib, positive, theta))

    def test_model_file_matches_the_allocating_blocks(self, tmp_path):
        # train-corr on 1,000 family records: 30,000 pairs, 15 blocks.
        records = list(family_corpus(n_records=1000))
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(feed_text(records), encoding="utf-8")
        vocab = sorted({t for rec in records for v in rec.aspects.values() if v
                        for t in tokenize(v)})
        EmbeddingModel(dim=64, vocab={t: i for i, t in enumerate(vocab)},
                       vectors=np.random.default_rng(0).standard_normal(
                           (len(vocab), 64)).astype(np.float32)).save(tmp_path / "embed.bin")
        args = ["train-corr", "--corpus", str(corpus), "--embed", str(tmp_path / "embed.bin"),
                "--epochs", "4"]
        runner = CliRunner()
        result = runner.invoke(cli, args + ["-o", str(tmp_path / "got.bin")])
        assert result.exit_code == 0, result.output
        with mock.patch.object(featcorr, "_newton_terms", allocating_newton_terms):
            result = runner.invoke(cli, args + ["-o", str(tmp_path / "want.bin")])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "got.bin").read_bytes() == (tmp_path / "want.bin").read_bytes()

    @pytest.mark.skipif(sys.platform != "linux", reason="minor faults as Linux counts them")
    def test_repeated_fit_takes_few_page_faults(self):
        # A new interpreter, whose heap no earlier test has grown, fits 8
        # blocks in 4 passes twice and counts the second fit's faults. Work
        # arrays made for every block fault in about 1,500 fresh pages each,
        # 47,900 in all; made once per fit, 1,158 in all on x86-64 Linux.
        code = """if True:
            import resource
            import numpy as np
            from helpers import family_corpus
            from vulnaug import featcorr
            from vulnaug.embed import EmbeddingModel, tokenize

            pairs = featcorr.build_training_pairs(family_corpus(), seed=5)
            order = np.random.default_rng(3).permutation(len(pairs))
            pairs = featcorr.TrainingPairs.of(
                [pairs[i] for i in np.resize(order, 8 * featcorr._PAIR_BLOCK)])
            vocab = sorted({t for text in pairs.texts for t in tokenize(text)})
            embedding = EmbeddingModel(dim=64, vocab={t: i for i, t in enumerate(vocab)},
                                       vectors=np.random.default_rng(0).standard_normal(
                                           (len(vocab), 64)).astype(np.float32))
            cfg = featcorr.CorrTrainConfig(epochs=3)
            featcorr.train_correlation(pairs, None, embedding, cfg)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            model = featcorr.train_correlation(pairs, None, embedding, cfg)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            print(len(model.loss_history), faults)
        """
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True)
        assert done.returncode == 0, done.stderr
        steps, faults = map(int, done.stdout.split())
        assert steps == 3
        assert faults < 6_000

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_tower_raises(self, family_setup, bad):
        corpus, embedding, _, _ = family_setup
        vectors = embedding.vectors.copy()
        vectors[embedding.vocab["flaw0"]] = bad
        broken = EmbeddingModel(dim=embedding.dim, vocab=embedding.vocab, vectors=vectors)
        with pytest.raises(DivergedTraining, match="step 1$"):
            train_correlation(shuffled_pairs(corpus, 300), None, broken)

    def test_memory_holds_no_design_matrix(self, family_setup):
        # Doubling the pairs, over the same texts, adds their labels and
        # index arrays: far less than a (2d+1)-float design-matrix row each.
        corpus, embedding, _, _ = family_setup
        peaks = []
        for n in (4 * _PAIR_BLOCK, 8 * _PAIR_BLOCK):
            pairs = shuffled_pairs(corpus, n)
            tracemalloc.start()
            try:
                train_correlation(pairs, None, embedding, CorrTrainConfig(epochs=1))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        row_bytes = (2 * embedding.dim + 1) * 8
        assert peaks[1] - peaks[0] < 0.1 * 4 * _PAIR_BLOCK * row_bytes

    def test_memory_holds_one_copy_of_the_towers(self, family_setup):
        # 150k pairs over 25k distinct texts, whose towers take 12.2 MiB. The
        # fit adds one block's rows and the texts' tokens, 19 MiB at its peak.
        # A second copy of the towers (the model's per-text cache beside a
        # stack of it) peaks at 33 MiB, and listing a FeaturePair per pair at
        # 31 MiB.
        _, embedding, _, _ = family_setup
        pairs = build_training_pairs(family_corpus(n_records=5000), seed=0)
        towers = len(pairs.texts) * embedding.dim * 8
        tracemalloc.start()
        try:
            train_correlation(pairs, None, embedding, CorrTrainConfig(epochs=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * towers + 6 * 2**20

    @pytest.mark.parametrize("background", ["none", "store"])
    def test_pair_arrays_and_listed_pairs_save_the_same_bytes(self, family_setup, tmp_path,
                                                              background):
        corpus, embedding, _, _ = family_setup
        store = None if background == "none" else BackgroundStore(articles={
            f"flaw{f}": f"flaw{f} cause{f} impact{f} rec{f} detail" for f in range(5)})
        pairs = build_training_pairs(corpus, seed=5)
        saved = []
        for given in (pairs, list(pairs)):
            path = tmp_path / f"corr{len(saved)}.bin"
            train_correlation(given, store, embedding, CorrTrainConfig(epochs=20)).save(path)
            saved.append(path.read_bytes())
        assert saved[0] == saved[1]


class TestScore:
    def test_output_in_unit_interval(self, family_setup):
        _, _, model, _ = family_setup
        for a, b in [("flaw0 rec0 rec0", "cause0 rec0 rec0"), ("", "x"), ("flaw1", "cause4")]:
            assert 0.0 <= score(model, a, b) <= 1.0

    @settings(max_examples=50, deadline=None)
    @given(st.text(max_size=40), st.text(max_size=40))
    def test_finite_for_arbitrary_text(self, family_setup, a, b):
        _, _, model, _ = family_setup
        value = score(model, a, b)
        assert math.isfinite(value)
        assert 0.0 <= value <= 1.0

    def test_self_pair_ranks_near_top(self, family_setup):
        _, _, model, _ = family_setup
        anchor = "flaw2 rec2 rec2"
        others = ["cause0 rec0 rec0", "vector4 rec9 rec9", "unrelated nonsense tokens"]
        self_score = score(model, anchor, anchor)
        assert self_score >= max(score(model, anchor, other) for other in others)


class TestSoftwareFeatures:
    def test_sibling_aspects_collected(self):
        target = make_record("CVE-2020-8000", "t.", software=["Widget"])
        sibling = make_record(
            "CVE-2020-8001",
            "s.",
            aspects={
                AspectKind.VULNERABILITY_TYPE: "overflow",
                AspectKind.ATTACK_VECTOR: "via input",
                AspectKind.IMPACT: "crash",
                AspectKind.ROOT_CAUSE: "bad length check",
            },
        )
        db = MappingDb()
        db.insert("Widget", target.cve_id)
        db.insert("Widget", sibling.cve_id)
        corpus = Corpus.from_records([target, sibling])
        features = software_features(target, db, corpus)
        assert len(features) == 4
        assert "overflow" in features

    def test_masked_aspect_of_target_excluded(self):
        from vulnaug.corpus import mask_aspect

        target = make_record(
            "CVE-2020-8002",
            "overflow in Widget crashes it.",
            software=["Widget"],
            aspects={AspectKind.VULNERABILITY_TYPE: "overflow", AspectKind.IMPACT: "crashes"},
        )
        db = MappingDb()
        db.insert("Widget", target.cve_id)
        corpus = Corpus.from_records([target])
        masked, label = mask_aspect(target, AspectKind.VULNERABILITY_TYPE)
        features = software_features(masked, db, corpus)
        assert label not in features
        assert "crashes" in features

    def test_unresolvable_falls_back_to_own_aspects(self):
        target = make_record(
            "CVE-2020-8003", "t.", aspects={AspectKind.IMPACT: "leak", AspectKind.ROOT_CAUSE: "bug"}
        )
        features = software_features(target, MappingDb(), Corpus.from_records([target]))
        assert sorted(features) == ["bug", "leak"]


    def test_same_features_as_the_kind_walk_for_any_aspects_dict(self):
        # The target is built from a partial or reordered dict; the kind walk
        # reads each given dict in kind order.
        def kind_walk(dicts):
            features = []
            for given in dicts:
                for kind in AspectKind:
                    value = given.get(kind)
                    if value and value not in features:
                        features.append(value)
            return features

        kinds = list(AspectKind)
        sibling = make_record("CVE-2020-8011", "s.", software=["Widget"], aspects={
            kind: f"shared {i}" for i, kind in enumerate(kinds)})
        for aspects in ({AspectKind.ROOT_CAUSE: "bug", AspectKind.IMPACT: "shared 3"},
                        {kind: f"own {i}" for i, kind in reversed(list(enumerate(kinds)))},
                        {AspectKind.VULNERABILITY_TYPE: "shared 0",
                         AspectKind.ATTACK_VECTOR: "via port"}):
            target = TvdRecord(cve_id="CVE-2020-8010", description="t.", source=Source.CVE,
                               published=EPOCH, aspects=dict(aspects))
            db = MappingDb()
            db.insert("Widget", target.cve_id)
            db.insert("Widget", sibling.cve_id)
            corpus = Corpus.from_records([sibling])
            assert software_features(target, db, corpus) == kind_walk([aspects, sibling.aspects])


class TestAspectReaders:
    """Each reader of a record's aspects gives what a walk of the given dict
    in kind order gives, whatever the dict's order and coverage."""

    GIVEN = (
        {AspectKind.ROOT_CAUSE: "null check", AspectKind.IMPACT: "crash"},
        {kind: f"{kind.value} text" for kind in reversed(list(AspectKind))},
        {AspectKind.IMPACT: "leak", AspectKind.ATTACK_VECTOR: "network",
         AspectKind.VULNERABILITY_TYPE: "overflow"},
        {AspectKind.ATTACKER_TYPE: "local user"},
        {},
    )

    def test_readers_follow_the_kind_walk(self):
        kinds = list(AspectKind)
        records = [TvdRecord(cve_id=f"CVE-2020-{8100 + i}", description=f"flaw {i}.",
                             source=Source.CVE, published=EPOCH, aspects=dict(given))
                   for i, given in enumerate(self.GIVEN)]
        # make_record fills every kind, in kind order, before the given values.
        walked = [make_record(rec.cve_id, rec.description, aspects=given)
                  for rec, given in zip(records, self.GIVEN)]
        for rec, given in zip(records, self.GIVEN):
            walk = [(kind, given.get(kind)) for kind in kinds]
            assert rec.missing_aspects() == [kind for kind, value in walk if not value]
            assert list(rec.known_aspects().items()) == [(k, v) for k, v in walk if v]
            assert list(rec.to_json_obj()["aspects"].items()) == [
                (kind.json_key, value) for kind, value in walk]
        assert build_training_pairs(Corpus.from_records(records)) == reference_training_pairs(
            Corpus.from_records(walked))
        examples = ExampleSet(members=records, selection_mode=SelectionMode.ALL)
        walked_examples = ExampleSet(members=walked, selection_mode=SelectionMode.ALL)
        for rec, ref in zip(records, walked):
            known, missing = rec.known_aspects(), rec.missing_aspects()
            prompt = build_direct(examples, known, missing, rec.description, rec.cve_id)
            want = build_direct(walked_examples, ref.known_aspects(), ref.missing_aspects(),
                                ref.description, ref.cve_id)
            assert prompt.text == want.text


class TestRankCandidates:
    def test_output_is_permutation_of_input(self, family_setup):
        _, _, model, _ = family_setup
        cands = [candidate(f"text {i}", round=i + 1) for i in range(4)]
        ranked = rank_candidates(model, ["flaw0 rec0 rec0"], cands)
        assert sorted(c.candidate.text for c in ranked) == sorted(c.text for c in cands)

    def test_single_candidate_always_selected(self, family_setup):
        _, _, model, _ = family_setup
        ranked = rank_candidates(model, [], [candidate("whatever")])
        assert ranked[0].candidate.text == "whatever"

    def test_empty_features_neutral_prior_round_order(self, family_setup):
        _, _, model, _ = family_setup
        cands = [candidate("zeta", round=2), candidate("alpha", round=1)]
        ranked = rank_candidates(model, [], cands)
        assert all(rc.score == 0.5 for rc in ranked)
        assert [rc.candidate.round for rc in ranked] == [1, 2]

    def test_planted_true_aspect_beats_distractors(self, family_setup):
        corpus, _, model, _ = family_setup
        wins = 0
        rng = np.random.default_rng(17)
        for _ in range(50):
            i = int(rng.integers(200))
            f = i % 5
            aspects = family_aspects(f, i)
            truth = aspects[AspectKind.ROOT_CAUSE]
            distractors = [
                family_aspects(g, int(rng.integers(200)))[AspectKind.ROOT_CAUSE]
                for g in range(5) if g != f
            ][:3]
            cands = [candidate(text, round=r + 1) for r, text in enumerate([truth] + distractors)]
            features = [v for k, v in aspects.items() if k != AspectKind.ROOT_CAUSE]
            ranked = rank_candidates(model, features, cands)
            wins += int(ranked[0].candidate.text == truth)
        assert wins >= 45

    def test_aggregation_permutation_invariant_in_features(self, family_setup):
        _, _, model, _ = family_setup
        features = ["flaw0 rec0 rec0", "vector0 rec0 rec0", "impact0 rec0 rec0"]
        cands = [candidate("cause0 rec0 rec0")]
        forward = rank_candidates(model, features, cands)[0].score
        backward = rank_candidates(model, list(reversed(features)), cands)[0].score
        assert forward == backward

    def test_mean_equals_per_pair_scores(self, family_setup):
        _, _, trained, _ = family_setup
        model = uncached(trained, store=BackgroundStore(articles={
            f"flaw{f}": f"flaw{f} cause{f} impact{f} rec{f} detail" for f in range(5)}))
        features = ["flaw0 rec0 rec0", "vector0 rec0 rec0", "impact1 rec3 rec3", "", "omega"]
        cands = [candidate(text, round=r + 1) for r, text in enumerate(
            ["cause0 rec0 rec0", "cause2 rec7 rec7", "omega", "flaw0 rec0 rec0"])]
        for rc in rank_candidates(model, features, cands):
            scores = [score(model, f, rc.candidate.text) for f in features]
            assert rc.score == math.fsum(scores) / len(scores)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(phrases, min_size=1, max_size=6),
           st.lists(candidate_texts, min_size=1, max_size=4),
           st.integers(1, 8), st.booleans(), article_maps, st.integers(0, 2**32 - 1))
    def test_matches_per_pair_loop(self, features, texts, dim, with_store, articles, seed):
        # Phrases of only "omega" / "x9" give zero towers, on either side.
        model = random_model(seed, dim, articles if with_store else None)
        cands = [candidate(text, round=r % 3 + 1) for r, text in enumerate(texts)]
        got = [(rc.score, rc.candidate.round, rc.candidate.text) for rc in
               rank_candidates(model, features, cands)]
        assert got == reference_rank(model, features, cands)

    @settings(max_examples=100, deadline=None)
    @given(phrases, phrases, st.integers(1, 8), st.integers(0, 2**32 - 1))
    @example(feature="cve-2020-1", text="cve-2020-1", dim=4, seed=116208)  # logit -858.5
    def test_score_matches_per_pair_probability(self, feature, text, dim, seed):
        model = random_model(seed, dim)
        want = reference_probability(model, uncached(model).tower_vector(feature),
                                     uncached(model).tower_vector(text))
        assert score(model, feature, text) == want

    def test_saturated_logits_score_zero_without_a_warning(self):
        # Every logit is the bias: e^1000 overflows to inf, and p is 0.
        model = CorrelationModel(embedding=random_embedding(np.random.default_rng(13), 4),
                                 weights=np.zeros(9), bias=-1000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert score(model, "alpha", "beta gamma") == 0.0
            ranked = rank_candidates(model, ["alpha", "delta"],
                                     [candidate("beta"), candidate("gamma", round=2)])
        assert [rc.score for rc in ranked] == [0.0, 0.0]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_stacked_interactions_match_rows(self, dim, n, seed):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-8, 8, (n, dim))
        v = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-8, 8, (n, dim))
        u[0] = 0.0
        v[-1] = 0.0
        want = np.stack([reference_interaction(a, b) for a, b in zip(u, v)])
        assert interaction_features(u, v).tobytes() == want.tobytes()
        assert interaction_features(u, v[0]).tobytes() == np.stack(
            [reference_interaction(a, v[0]) for a in u]).tobytes()

    def test_calls_share_the_models_towers(self):
        model = random_model(10, 4)
        features = ["alpha beta", "gamma"]
        cands = [candidate("delta"), candidate("alpha beta", round=2)]
        with counted_fills() as calls:
            first = rank_candidates(model, features, cands)
            second = rank_candidates(model, features, cands)
        assert first == second
        assert calls == Counter({"alpha beta": 1, "gamma": 1, "delta": 1})

    def test_pipelines_sharing_a_model_compute_each_text_once(self, family_setup):
        corpus, embedding, trained, _ = family_setup
        model = uncached(trained, store=BackgroundStore(articles={"flaw0": "cause0 vector0",
                                                                 "soft0": "flaw1 rec1"}))
        db = family_mapping(corpus)
        masked, _ = mask_aspect(corpus.get("CVE-2021-1000"), AspectKind.ROOT_CAUSE)
        pipelines = [AugmentPipeline(corpus=corpus, db=db, embedding=embedding, correlation=model,
                                     backend=MockBackend(), rounds=2)
                     for _ in range(2)]
        with counted_fills() as calls:
            first = pipelines[0].augment(masked, AspectKind.ROOT_CAUSE)
            filled = Counter(calls)
            second = pipelines[1].augment(masked, AspectKind.ROOT_CAUSE)
        assert len(first.ranked) == 2 and first.pool_size > 1
        assert first == second
        assert calls == filled
        assert set(calls.values()) == {1}

    def test_one_fill_and_one_grid_per_call(self):
        model = random_model(11, 4)
        features = ["alpha beta", "gamma", "delta x9"]
        cands = [candidate("gamma"), candidate("beta omega", round=2), candidate("alpha", round=3)]
        with counted_calls("_compute_towers") as fills, \
                counted_calls("interaction_features") as grids:
            first = rank_candidates(model, features, cands)
            assert (fills, grids) == ([1], [1])
            second = rank_candidates(model, features, cands)
        assert (fills, grids) == ([1], [1, 1])
        assert first == second

    @pytest.mark.parametrize("grid_rows", [None, 1, 8, 12, 20])
    def test_grid_scores_equal_per_pair_scores(self, grid_rows):
        # Four features, so grids of 8, 12 or 20 rows score 2, 3 or 5
        # candidates a slice; "omega x9" has a zero tower, and a candidate
        # repeats a feature's text and another repeats itself.
        model = random_model(12, 6, articles={"alpha": "beta gamma",
                                              "delta": "alpha alpha beta"})
        features = ["alpha beta", "gamma", "omega x9", "delta gamma beta"]
        texts = ["gamma", "beta beta", "omega x9", "beta beta", "alpha delta", "x9 gamma"]
        cands = [candidate(text, round=r + 1) for r, text in enumerate(texts)]
        rows = grid_rows or featcorr._GRID_ROWS
        with mock.patch.object(featcorr, "_GRID_ROWS", rows), \
                counted_calls("interaction_features") as grids:
            ranked = rank_candidates(model, features, cands)
        assert len(grids) == -(-len(cands) // max(1, rows // len(features)))
        assert sorted(rc.candidate.round for rc in ranked) == list(range(1, len(cands) + 1))
        for rc in ranked:
            scores = [score(uncached(model), f, rc.candidate.text) for f in features]
            want = math.fsum(scores) / len(scores)
            assert np.float64(rc.score).tobytes() == np.float64(want).tobytes()

    def test_empty_candidates_rejected(self, family_setup):
        _, _, model, _ = family_setup
        with pytest.raises(ValueError):
            rank_candidates(model, [], [])


class TestModelPersistence:
    def test_round_trip(self, family_setup, tmp_path):
        _, embedding, model, _ = family_setup
        path = tmp_path / "corr.bin"
        model.save(path)
        loaded = CorrelationModel.load(path, embedding)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.bias == model.bias
        assert loaded.train_config == model.train_config
        assert score(loaded, "flaw0 rec0 rec0", "cause0 rec0 rec0") == score(
            model, "flaw0 rec0 rec0", "cause0 rec0 rec0"
        )

    def test_load_binds_the_store(self, family_setup, tmp_path):
        corpus, embedding, _, _ = family_setup
        store = BackgroundStore(articles={"flaw0": "cause0 vector0", "soft0": "flaw1 rec1"})
        model = train_correlation(shuffled_pairs(corpus, 200), store, embedding,
                                  CorrTrainConfig(epochs=5))
        path = tmp_path / "corr.bin"
        model.save(path)
        loaded = CorrelationModel.load(path, embedding, store)
        assert loaded.store is store
        assert loaded.tower_vector("flaw0").tobytes() == model.tower_vector("flaw0").tobytes()
        assert score(loaded, "flaw0", "soft0") == score(model, "flaw0", "soft0")
        assert CorrelationModel.load(path, embedding).store is None
