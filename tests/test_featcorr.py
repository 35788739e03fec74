import contextlib
import math
import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import family_aspects, family_corpus, family_mapping, make_record
from vulnaug import featcorr
from vulnaug.corpus import AspectKind, Corpus, mask_aspect
from vulnaug.embed import EmbeddingModel, TrainConfig, tokenize, train_embeddings
from vulnaug.errors import DivergedTraining, EmptyTrainingSet
from vulnaug.featcorr import (
    _PAIR_BLOCK,
    NEG_RATIO,
    BackgroundStore,
    CorrelationModel,
    CorrTrainConfig,
    FeaturePair,
    build_training_pairs,
    fetch_background,
    interaction_features,
    rank_candidates,
    score,
    software_features,
    train_correlation,
)
from vulnaug.genprompt import CandidateAnswer, MockBackend, PromptKind
from vulnaug.mapping import MappingDb
from vulnaug.pipeline import AugmentPipeline


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


def reference_best_terms(aspect_text, store, max_terms=3):
    """Score every article against the aspect and sort every overlap."""
    if store is None:
        return []
    tokens = set(tokenize(aspect_text))
    scored = []
    for term, body in store.articles.items():
        overlap = len(tokens & set(tokenize(term) + tokenize(body)))
        if overlap > 0:
            scored.append((-overlap, term))
    scored.sort()
    return [term for _, term in scored[:max(max_terms, 0)]]


def reference_fetch_background(aspect_text, store, max_terms=3):
    return " ".join(store.articles[term]
                    for term in reference_best_terms(aspect_text, store, max_terms))


def token_loop_sum(model, tokens):
    """Add one token vector at a time, from zero."""
    acc = np.zeros(model.embedding.dim, dtype=np.float64)
    for tok in tokens:
        acc += model.embedding.vector(tok)
    return acc


def reference_tower_vector(model, text, store):
    """The text's token-loop sum, then each chosen body's token-loop sum in
    rank order, over the number of tokens."""
    parts = [tokenize(text)] + [tokenize(store.articles[term])
                                for term in reference_best_terms(text, store)]
    acc = np.zeros(model.embedding.dim, dtype=np.float64)
    for part in parts:
        acc += token_loop_sum(model, part)
    return acc / max(1, sum(map(len, parts)))


def token_loop_tower_vector(model, text, store):
    """Re-tokenize the joined background and add one token vector at a time."""
    tokens = tokenize(text) + tokenize(reference_fetch_background(text, store))
    return token_loop_sum(model, tokens) / max(1, len(tokens))


def reference_interaction(u, v):
    """One pair's [u*v, |u-v|, cos(u, v)], norms from ``np.linalg.norm``."""
    nu, nv = float(np.linalg.norm(u)), float(np.linalg.norm(v))
    cos = 0.0 if nu == 0.0 or nv == 0.0 else float(np.dot(u, v) / (nu * nv))
    return np.concatenate([u * v, np.abs(u - v), [cos]])


def reference_probability(model, u, v):
    """Score one (feature, candidate) pair of towers with its own NumPy calls."""
    logit = float(np.dot(model.weights, reference_interaction(u, v))) + model.bias
    return float(1.0 / (1.0 + np.exp(-logit)))


def reference_rank(model, features, candidates, store, aggregation):
    """The per-pair loop: each candidate against each feature tower in turn,
    every tower computed for its one text."""
    model = uncached(model)
    towers = [model.tower_vector(f, store) for f in features]
    ranked = []
    for cand in candidates:
        if not towers:
            aggregate = 0.5
        else:
            v = model.tower_vector(cand.text, store)
            scores = [reference_probability(model, u, v) for u in towers]
            if aggregation == "mean":
                aggregate = math.fsum(scores) / len(scores)
            elif aggregation == "max":
                aggregate = max(scores)
            else:
                aggregate = math.fsum(scores)
        ranked.append((aggregate, cand.round, cand.text))
    ranked.sort(key=lambda r: (-r[0], r[1], r[2]))
    return ranked


def reference_train_correlation(pairs, store, embedding, cfg):
    """Both full tower stacks beside x, and three passes over x and two logs
    per epoch. Returns (weights, bias, loss history)."""
    model = CorrelationModel(embedding=embedding, weights=np.zeros(2 * embedding.dim + 1),
                             bias=0.0)
    towers = {}
    for text in [p.a for p in pairs] + [p.b for p in pairs]:
        if text not in towers:
            towers[text] = model.tower_vector(text, store)
    x = interaction_features(np.stack([towers[p.a] for p in pairs]),
                             np.stack([towers[p.b] for p in pairs]))
    y = np.array([p.label for p in pairs], dtype=np.float64)
    n = len(pairs)
    w, b, losses = model.weights, 0.0, []
    for epoch in range(cfg.epochs):
        p = 1.0 / (1.0 + np.exp(-(x @ w + b)))
        g = p - y
        w = w - cfg.learning_rate * (x.T @ g) / n
        b = b - cfg.learning_rate * float(g.mean())
        p = np.clip(1.0 / (1.0 + np.exp(-(x @ w + b))), 1e-12, 1.0 - 1e-12)
        loss = float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))
        if not math.isfinite(loss):
            raise DivergedTraining(f"non-finite loss after epoch {epoch + 1}")
        losses.append(loss)
    return w, b, losses


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


def uncached(model):
    """A model with ``model``'s embedding and weights that keeps no towers yet."""
    return CorrelationModel(embedding=model.embedding, weights=model.weights, bias=model.bias)


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


def random_model(seed, dim):
    """A correlation model whose logits stay small enough that the sigmoid
    does not saturate, so every bit of the logit shows in the score."""
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal(2 * dim + 1) * 10.0 ** rng.uniform(-3, 0, 2 * dim + 1)
    return CorrelationModel(
        embedding=random_embedding(rng, dim, binades=1),
        weights=weights,
        bias=float(rng.standard_normal()),
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
        assert build_training_pairs(corpus, seed) == want

    def test_large_corpus_memory_bounded(self):
        # 5k records of 5 aspects: 25k instances and about 3.1e8 cross pairs,
        # which the old enumerate-then-sample code held as tuples (tens of GB).
        corpus = family_corpus(n_records=5000)
        tracemalloc.start()
        try:
            pairs = build_training_pairs(corpus, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(p.label == 0 for p in pairs) == 2 * sum(p.label == 1 for p in pairs)
        assert peak < 100 * 2**20

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

    def test_max_terms_limits_concatenation(self):
        store = BackgroundStore(articles={
            "a flaw": "one flaw body",
            "b flaw": "two flaw body",
            "c flaw": "three flaw body",
            "d flaw": "four flaw body",
        })
        text = fetch_background("flaw", store, max_terms=2)
        assert text == "one flaw body two flaw body"

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
    @given(article_maps, phrases, st.integers(0, 5))
    def test_matches_full_scan(self, articles, aspect, max_terms):
        store = BackgroundStore(articles=articles)
        assert fetch_background(aspect, store, max_terms) == reference_fetch_background(
            aspect, store, max_terms)

    @settings(max_examples=300, deadline=None)
    @given(article_maps, st.lists(phrases, max_size=6), st.integers(0, 5))
    def test_batched_ranking_matches_full_scan(self, articles, aspects, max_terms):
        # Several rows at once: ties go to the earlier title, and a row that
        # matches nothing holds only the no-article index.
        store = BackgroundStore(articles=articles)
        titles = sorted(articles) + [None]
        picks = store._best_rows([tokenize(a) for a in aspects + ["zeta"]], max_terms)
        assert picks.shape == (len(aspects) + 1, max_terms)
        got = [[titles[i] for i in row] for row in picks.tolist()]
        for aspect, row in zip(aspects + ["zeta"], got):
            want = reference_best_terms(aspect, store, max_terms)
            assert row == want + [None] * (max_terms - len(want))


class TestTowerVector:
    @settings(max_examples=200, deadline=None)
    @given(article_maps, phrases, st.sampled_from([2, 3, 16]), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_matches_token_loop(self, articles, text, dim, with_store, seed):
        # A computed and a kept tower before and after an embedding swap, so
        # the swap lands on a filled cache.
        rng = np.random.default_rng(seed)
        model = CorrelationModel(embedding=random_embedding(rng, dim),
                                 weights=np.zeros(2 * dim + 1), bias=0.0)
        store = BackgroundStore(articles=articles) if with_store else None
        for swap in [True, False]:
            want = reference_tower_vector(model, text, store)
            assert np.array_equal(model.tower_vector(text, store), want)
            assert np.array_equal(model.tower_vectors([text], store)[0], want)
            if swap:
                model.embedding = random_embedding(rng, dim)

    @settings(max_examples=100, deadline=None)
    @given(article_maps, st.lists(st.one_of(phrases, st.just("zeta gamma zeta")), min_size=1,
                                  max_size=8),
           st.sampled_from([2, 3, 16]), st.booleans(), st.integers(0, 2**32 - 1))
    def test_stack_equals_stacked_vectors(self, articles, texts, dim, with_store, seed):
        # Row i of a batch is bit-equal to the one-row tower of text i,
        # whatever the block size. "zeta" is in the vocabulary and in no article.
        texts = texts + ["", "omega x9", "zeta"]
        rng = np.random.default_rng(seed)
        model = CorrelationModel(embedding=random_embedding(rng, dim, vocab=VOCAB + ["zeta"]),
                                 weights=np.zeros(2 * dim + 1), bias=0.0)
        store = BackgroundStore(articles=articles) if with_store else None
        want = np.stack([uncached(model).tower_vector(text, store) for text in texts])
        assert want.tobytes() == np.stack(
            [reference_tower_vector(model, text, store) for text in texts]).tobytes()
        for block, cells in [(1, None), (2, None), (3, None), (None, None), (None, 16)]:
            fresh = uncached(model)
            with mock.patch.object(featcorr, "_TOWER_BLOCK", block or featcorr._TOWER_BLOCK), \
                    mock.patch.object(featcorr, "_OVERLAP_CELLS", cells or featcorr._OVERLAP_CELLS):
                # Every other text is kept first, so hits and misses mix.
                fresh.tower_vectors(texts[::2], store)
                got = fresh.tower_vectors(texts, store)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(article_maps, st.lists(phrases, min_size=1, max_size=8),
           st.sampled_from([1, 2, 3, 16]), st.booleans(), st.integers(0, 2**32 - 1))
    def test_exact_sums_equal_the_token_loop(self, articles, texts, dim, with_store, seed):
        # Where float64 holds every partial sum, adding each body's sum as one
        # part equals adding its tokens one by one after the text's own.
        model = CorrelationModel(embedding=dyadic_embedding(np.random.default_rng(seed), dim),
                                 weights=np.zeros(2 * dim + 1), bias=0.0)
        store = BackgroundStore(articles=articles) if with_store else None
        want = np.stack([token_loop_tower_vector(model, text, store) for text in texts])
        assert model.tower_vectors(texts, store).tobytes() == want.tobytes()
        for text, row in zip(texts, want):
            assert uncached(model).tower_vector(text, store).tobytes() == row.tobytes()

    def test_stack_computes_each_text_once(self):
        model = random_model(8, 4)
        texts = ["alpha", "beta gamma", "alpha", "delta", "beta gamma"]
        with counted_fills() as calls:
            model.tower_vectors(["delta"], None)
            model.tower_vectors(texts, None)
            model.tower_vectors(texts, None)
            model.tower_vector("alpha", None)
        assert calls == Counter(set(texts))

    def test_empty_batch(self):
        model = random_model(8, 4)
        assert model.tower_vectors([], None).shape == (0, 4)

    def test_one_dimensional_embedding_within_rounding(self):
        # numpy sums a single column pairwise rather than in order, so only
        # here the sum may differ from the token loop in the last bits.
        rng = np.random.default_rng(0)
        model = CorrelationModel(embedding=random_embedding(rng, 1), weights=np.zeros(3), bias=0.0)
        text = " ".join(VOCAB * 8)
        got = model.tower_vector(text, None)
        want = reference_tower_vector(model, text, None)
        scale = np.abs(model.embedding.vectors).max()
        assert abs(got[0] - want[0]) <= 40 * np.finfo(np.float64).eps * scale

    def test_cache_follows_another_store(self):
        # The kept tower has no background; the second store's article matches it.
        model = random_model(3, 4)
        store = BackgroundStore(articles={"gamma": "delta delta"})
        before = model.tower_vectors(["alpha beta"], store)[0]
        assert np.array_equal(before, reference_tower_vector(model, "alpha beta", store))
        store = BackgroundStore(articles={"gamma": "delta delta",
                                          "alpha": "gamma cve-2020-1 omega"})
        after = model.tower_vectors(["alpha beta"], store)[0]
        assert not np.array_equal(before, after)
        assert after.tobytes() == uncached(model).tower_vector("alpha beta", store).tobytes()
        assert after.tobytes() == reference_tower_vector(model, "alpha beta", store).tobytes()

    def test_cache_follows_embedding_swap(self):
        model = random_model(4, 4)
        store = BackgroundStore(articles={"alpha": "beta gamma delta"})
        before = model.tower_vectors(["alpha"], store)[0]
        model.embedding = random_embedding(np.random.default_rng(5), 4, binades=1)
        after = model.tower_vectors(["alpha"], store)[0]
        assert not np.array_equal(before, after)
        assert after.tobytes() == reference_tower_vector(model, "alpha", store).tobytes()

    def test_writing_a_stacked_row_leaves_the_cache(self):
        model = random_model(6, 4)
        model.tower_vectors(["alpha"], None)[0] = 1.0
        model.tower_vector("alpha", None)[:] = 2.0
        got = model.tower_vectors(["alpha"], None)[0]
        assert got.tobytes() == uncached(model).tower_vector("alpha", None).tobytes()

    def test_body_sums_are_computed_once_per_stamp(self):
        model = random_model(6, 4)
        store = BackgroundStore(articles={"alpha": "beta gamma delta"})
        with mock.patch.object(BackgroundStore, "body_sums", autospec=True,
                               side_effect=BackgroundStore.body_sums) as body_sums:
            model.tower_vectors(["alpha"], store)
            model.tower_vectors(["beta", "gamma"], store)
            model.tower_vectors(["beta"], None)
            model.tower_vectors(["delta"], store)
        assert body_sums.call_count == 2

    def test_cache_computes_each_text_once_under_threads(self):
        model = random_model(7, 8)
        store = BackgroundStore(articles={w: " ".join(VOCAB) for w in VOCAB})
        texts = [" ".join(VOCAB[: 1 + n % 5]) + f" t{n}" for n in range(40)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with counted_fills() as calls, ThreadPoolExecutor(max_workers=16) as pool:
                futures = [pool.submit(lambda k: [model.tower_vectors([t], store)[0]
                                                  for t in texts[k:] + texts[:k]], k)
                           for k in range(16)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(switch)
        assert calls == Counter(texts)
        for k, got in enumerate(results):
            for t, tower in zip(texts[k:] + texts[:k], got):
                assert tower.tobytes() == uncached(model).tower_vector(t, store).tobytes()

    def test_stack_memory_is_bounded_by_the_block(self):
        # 2,048 distinct texts, as train-corr asks for at once, against a
        # 500-article store. Ranking and summing them in one piece holds a
        # (2048, 500) overlap matrix and a zero-padded (9, 2048, 64) float64
        # sum: about 18 MiB here. Blocks of _TOWER_BLOCK texts leave the
        # towers, their stacked copy, the body sums and one block.
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(2000)]
        model = CorrelationModel(
            embedding=EmbeddingModel(dim=64, vocab={w: i for i, w in enumerate(words)},
                                     vectors=rng.standard_normal((2000, 64)).astype(np.float32)),
            weights=np.zeros(129), bias=0.0)

        def phrase(n):
            return " ".join(words[j] for j in rng.integers(0, len(words), n))

        store = BackgroundStore(articles={f"t{a} {phrase(2)}": phrase(40) for a in range(500)})
        texts = [f"{phrase(8)} t{i}" for i in range(2048)]
        tracemalloc.start()
        try:
            got = model.tower_vectors(texts, store)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.shape == (2048, 64)
        assert peak < 8 * 2**20

    def test_overlap_matrix_is_bounded_for_a_large_store(self):
        # 20,000 articles sharing one word: a (64, 20000) overlap matrix of
        # 64-bit counts alone takes 9.8 MiB.
        model = random_model(9, 4)
        store = BackgroundStore(articles={f"a{i}": "alpha" for i in range(20_000)})
        texts = [f"alpha t{i}" for i in range(64)]
        model.tower_vectors(["alpha"], store)  # keeps the store's body sums
        tracemalloc.start()
        try:
            got = model.tower_vectors(texts, store)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Every text ties with every article; "t<i>" is out of vocabulary.
        want = reference_tower_vector(model, texts[0], store)
        assert all(row.tobytes() == want.tobytes() for row in got)
        assert peak < 4 * 2**20

    def test_empty_text_is_zero(self):
        model = CorrelationModel(embedding=random_embedding(np.random.default_rng(1), 4),
                                 weights=np.zeros(9), bias=0.0)
        assert np.array_equal(model.tower_vector("", None), np.zeros(4))
        assert np.array_equal(model.tower_vector("omega x9", None), np.zeros(4))


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


class TestTrainCorrelation:
    def test_loss_non_increasing_on_separable_set(self, family_setup):
        _, _, model, _ = family_setup
        losses = model.loss_history
        assert len(losses) == 300
        for a, b in zip(losses[2:], losses[3:]):
            assert b <= a + 1e-6

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

    def test_empty_pairs_rejected(self, family_setup):
        _, embedding, _, _ = family_setup
        with pytest.raises(ValueError):
            train_correlation([], None, embedding)

    @pytest.mark.parametrize("n", [1, _PAIR_BLOCK - 1, _PAIR_BLOCK, _PAIR_BLOCK + 1,
                                   2 * _PAIR_BLOCK + 3])
    @pytest.mark.parametrize("background", ["none", "store"])
    def test_matches_full_stack_loop(self, family_setup, background, n):
        corpus, embedding, _, _ = family_setup
        pairs = shuffled_pairs(corpus, n)
        store = None if background == "none" else BackgroundStore(articles={
            f"flaw{f}": f"flaw{f} cause{f} impact{f} rec{f} detail" for f in range(5)})
        cfg = CorrTrainConfig(learning_rate=0.5, epochs=40)
        model = train_correlation(pairs, store, embedding, cfg)
        w, b, losses = reference_train_correlation(pairs, store, embedding, cfg)
        assert model.weights.tobytes() == w.tobytes()
        assert np.float64(model.bias).tobytes() == np.float64(b).tobytes()
        assert np.array(model.loss_history).tobytes() == np.array(losses).tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_at_the_reference_epoch(self, family_setup):
        corpus, embedding, _, _ = family_setup
        pairs = shuffled_pairs(corpus, 300)
        cfg = CorrTrainConfig(learning_rate=1e307, epochs=10)
        with pytest.raises(DivergedTraining) as want:
            reference_train_correlation(pairs, None, embedding, cfg)
        assert str(want.value) != "non-finite loss after epoch 1"  # a finite epoch came first
        with pytest.raises(DivergedTraining) as got:
            train_correlation(pairs, None, embedding, cfg)
        assert str(got.value) == str(want.value)

    def test_memory_is_one_design_matrix_plus_one_block(self, family_setup):
        # Eight blocks of pairs. Holding both full tower stacks beside x, as
        # building x in one piece does, costs another x-sized 16 MiB.
        corpus, embedding, _, _ = family_setup
        pairs = shuffled_pairs(corpus, 8 * _PAIR_BLOCK)
        x_bytes = len(pairs) * (2 * embedding.dim + 1) * 8
        tracemalloc.start()
        try:
            train_correlation(pairs, None, embedding, CorrTrainConfig(epochs=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < x_bytes + 8 * 2**20


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

    @pytest.mark.parametrize("aggregation", ["mean", "max", "sum"])
    def test_aggregate_equals_per_pair_scores(self, family_setup, aggregation):
        _, _, model, _ = family_setup
        store = BackgroundStore(articles={
            f"flaw{f}": f"flaw{f} cause{f} impact{f} rec{f} detail" for f in range(5)
        })
        features = ["flaw0 rec0 rec0", "vector0 rec0 rec0", "impact1 rec3 rec3", "", "omega"]
        cands = [candidate(text, round=r + 1) for r, text in enumerate(
            ["cause0 rec0 rec0", "cause2 rec7 rec7", "omega", "flaw0 rec0 rec0"])]
        for rc in rank_candidates(model, features, cands, store=store, aggregation=aggregation):
            scores = [score(model, f, rc.candidate.text, store) for f in features]
            want = {"mean": math.fsum(scores) / len(scores), "max": max(scores),
                    "sum": math.fsum(scores)}[aggregation]
            assert rc.score == want

    @settings(max_examples=200, deadline=None)
    @given(st.lists(phrases, min_size=1, max_size=6),
           st.lists(candidate_texts, min_size=1, max_size=4),
           st.sampled_from(["mean", "max", "sum"]), st.integers(1, 8), st.booleans(),
           article_maps, st.integers(0, 2**32 - 1))
    def test_matches_per_pair_loop(self, features, texts, aggregation, dim, with_store,
                                   articles, seed):
        # Phrases of only "omega" / "x9" give zero towers, on either side.
        model = random_model(seed, dim)
        store = BackgroundStore(articles=articles) if with_store else None
        cands = [candidate(text, round=r % 3 + 1) for r, text in enumerate(texts)]
        got = [(rc.score, rc.candidate.round, rc.candidate.text) for rc in
               rank_candidates(model, features, cands, store=store, aggregation=aggregation)]
        assert got == reference_rank(model, features, cands, store, aggregation)

    @settings(max_examples=100, deadline=None)
    @given(phrases, phrases, st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_score_matches_per_pair_probability(self, feature, text, dim, seed):
        # score takes both towers from one batch, as a one-dimensional
        # embedding's sums show (test_one_dimensional_embedding_within_rounding).
        model = random_model(seed, dim)
        want = reference_probability(model, *uncached(model).tower_vectors([feature, text], None))
        assert score(model, feature, text) == want

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
        model = uncached(trained)
        store = BackgroundStore(articles={"flaw0": "cause0 vector0", "soft0": "flaw1 rec1"})
        db = family_mapping(corpus)
        masked, _ = mask_aspect(corpus.get("CVE-2021-1000"), AspectKind.ROOT_CAUSE)
        pipelines = [AugmentPipeline(corpus=corpus, db=db, embedding=embedding, correlation=model,
                                     backend=MockBackend(), store=store, rounds=2)
                     for _ in range(2)]
        with counted_fills() as calls:
            first = pipelines[0].augment(masked, AspectKind.ROOT_CAUSE)
            filled = Counter(calls)
            second = pipelines[1].augment(masked, AspectKind.ROOT_CAUSE)
        assert len(first.ranked) == 2 and first.pool_size > 1
        assert first == second
        assert calls == filled
        assert set(calls.values()) == {1}

    def test_unknown_aggregation_rejected(self, family_setup):
        _, _, model, _ = family_setup
        with pytest.raises(ValueError):
            rank_candidates(model, [], [candidate("x")], aggregation="median")

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
