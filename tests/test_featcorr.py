import math
import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import family_aspects, family_corpus, family_mapping, make_record
from vulnaug.corpus import AspectKind, Corpus
from vulnaug.embed import EmbeddingModel, TrainConfig, tokenize, train_embeddings
from vulnaug.errors import DivergedTraining, EmptyTrainingSet
from vulnaug.featcorr import (
    _PAIR_BLOCK,
    NEG_RATIO,
    BackgroundStore,
    CorrelationModel,
    CorrTrainConfig,
    FeaturePair,
    TowerCache,
    build_training_pairs,
    fetch_background,
    interaction_features,
    rank_candidates,
    score,
    software_features,
    train_correlation,
)
from vulnaug.genprompt import CandidateAnswer, PromptKind
from vulnaug.mapping import MappingDb


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


def reference_fetch_background(aspect_text, store, max_terms=3):
    """Score every article against the aspect and sort every overlap."""
    if store is None or not len(store):
        return ""
    tokens = set(tokenize(aspect_text))
    scored = []
    for term, body in store.articles.items():
        overlap = len(tokens & set(tokenize(term) + tokenize(body)))
        if overlap > 0:
            scored.append((-overlap, term))
    scored.sort()
    return " ".join(store.articles[term] for _, term in scored[:max_terms])


def reference_tower_vector(model, text, store):
    """Re-tokenize the joined background and add one token vector at a time."""
    feat_tokens = tokenize(text)
    bg_model = model.background_embedding or model.embedding
    bg_tokens = tokenize(reference_fetch_background(text, store))
    total = len(feat_tokens) + len(bg_tokens)
    acc = np.zeros(model.embedding.dim, dtype=np.float64)
    if total == 0:
        return acc
    for tok in feat_tokens:
        acc += model.embedding.vector(tok)
    for tok in bg_tokens:
        acc += bg_model.vector(tok)
    return acc / total


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
    """The per-pair loop: each candidate against each feature tower in turn."""
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


def reference_train_correlation(pairs, store, embedding, cfg, background_embedding=None):
    """Both full tower stacks beside x, and three passes over x and two logs
    per epoch. Returns (weights, bias, loss history)."""
    model = CorrelationModel(embedding=embedding, weights=np.zeros(2 * embedding.dim + 1),
                             bias=0.0, background_embedding=background_embedding)
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
# A leading "0" sorts before every word title, so such an edit shifts the
# position of every stored title.
store_edits = st.lists(st.tuples(st.one_of(titles, titles.map("0 {}".format)), phrases),
                       max_size=5)


def random_embedding(rng, dim, binades=8):
    """Vectors whose entries span many binades, so summation order shows."""
    scale = 10.0 ** rng.uniform(-binades, binades, (len(VOCAB), dim))
    vectors = rng.standard_normal((len(VOCAB), dim)) * scale
    return EmbeddingModel(dim=dim, vocab={t: i for i, t in enumerate(VOCAB)},
                          vectors=vectors.astype(np.float32))


def random_model(seed, dim, separate_background=False):
    """A correlation model whose logits stay small enough that the sigmoid
    does not saturate, so every bit of the logit shows in the score."""
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal(2 * dim + 1) * 10.0 ** rng.uniform(-3, 0, 2 * dim + 1)
    return CorrelationModel(
        embedding=random_embedding(rng, dim, binades=1),
        weights=weights,
        bias=float(rng.standard_normal()),
        background_embedding=(random_embedding(rng, dim, binades=1)
                              if separate_background else None),
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
    @given(article_maps, store_edits, phrases, st.integers(0, 5))
    def test_matches_full_scan(self, articles, edits, aspect, max_terms):
        # A lookup before and after every edit, so each edit lands on a built index.
        store = BackgroundStore(articles=dict(articles))
        for term, body in [*edits, (None, None)]:
            assert fetch_background(aspect, store, max_terms) == reference_fetch_background(
                aspect, store, max_terms)
            if term is not None:
                store.add(term, body)

    def test_title_inserted_before_looked_up_ones(self):
        store = BackgroundStore(articles={"m flaw": "shared", "z flaw": "shared"})
        assert store.best_terms(["shared"]) == ["m flaw", "z flaw"]
        store.add("a flaw", "shared")
        assert store.best_terms(["shared"]) == ["a flaw", "m flaw", "z flaw"]
        assert store.best_terms(["shared", "z"], max_terms=1) == ["z flaw"]

    def test_overwritten_article_leaves_the_index(self):
        store = BackgroundStore(articles={"alpha": "old words here"})
        store.add("alpha", "new text")
        assert fetch_background("old words", store) == ""
        assert fetch_background("new", store) == "new text"


class TestTowerVector:
    @settings(max_examples=200, deadline=None)
    @given(article_maps, store_edits, phrases, st.sampled_from([2, 3, 16]),
           st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
    def test_matches_token_loop(self, articles, edits, text, dim, with_store,
                                separate_background, seed):
        # Cached and uncached towers before and after every store edit and
        # embedding swap, so each edit lands on a filled cache.
        rng = np.random.default_rng(seed)
        model = CorrelationModel(
            embedding=random_embedding(rng, dim),
            weights=np.zeros(2 * dim + 1),
            bias=0.0,
            background_embedding=random_embedding(rng, dim) if separate_background else None,
        )
        store = BackgroundStore(articles=dict(articles)) if with_store else None
        towers = TowerCache()
        swaps = [lambda: setattr(model, "embedding", random_embedding(rng, dim)),
                 lambda: setattr(model, "background_embedding", random_embedding(rng, dim))]
        adds = [(lambda t=term, b=body: store.add(t, b)) for term, body in edits] if with_store else []
        for change in [*adds, *swaps, None]:
            want = reference_tower_vector(model, text, store)
            assert np.array_equal(model.tower_vector(text, store), want)
            assert np.array_equal(towers.stack(model, [text], store)[0], want)
            if change is not None:
                change()

    @settings(max_examples=100, deadline=None)
    @given(article_maps, store_edits, st.lists(phrases, min_size=1, max_size=6),
           st.sampled_from([2, 3, 16]), st.booleans(), st.integers(0, 2**32 - 1))
    def test_stack_equals_stacked_vectors(self, articles, edits, texts, dim, with_store, seed):
        # Row i of stack is bit-equal to tower_vector of text i.
        rng = np.random.default_rng(seed)
        model = CorrelationModel(embedding=random_embedding(rng, dim), weights=np.zeros(2 * dim + 1),
                                 bias=0.0, background_embedding=random_embedding(rng, dim))
        store = BackgroundStore(articles=dict(articles)) if with_store else None
        towers = TowerCache()
        adds = [(lambda t=term, b=body: store.add(t, b)) for term, body in edits] if with_store else []
        for change in [*adds, lambda: setattr(model, "embedding", random_embedding(rng, dim)), None]:
            # Every other text is cached first, so hits and misses mix.
            towers.stack(model, texts[::2], store)
            got = towers.stack(model, texts, store)
            want = np.stack([model.tower_vector(text, store) for text in texts])
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            if change is not None:
                change()

    def test_stack_computes_each_text_once(self):
        model = random_model(8, 4)
        texts = ["alpha", "beta gamma", "alpha", "delta", "beta gamma"]
        calls = Counter()
        compute = model.tower_vector

        def counted(text, store):
            calls[text] += 1
            return compute(text, store)

        model.tower_vector = counted
        towers = TowerCache()
        towers.stack(model, ["delta"], None)
        towers.stack(model, texts, None)
        towers.stack(model, texts, None)
        assert calls == Counter(set(texts))

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

    def test_cache_follows_store_add(self):
        # The cached tower has no background; the added article matches it.
        model = random_model(3, 4)
        store = BackgroundStore(articles={"gamma": "delta delta"})
        towers = TowerCache()
        before = towers.stack(model, ["alpha beta"], store)[0]
        assert np.array_equal(before, reference_tower_vector(model, "alpha beta", store))
        store.add("alpha", "gamma cve-2020-1 omega")
        after = towers.stack(model, ["alpha beta"], store)[0]
        assert not np.array_equal(before, after)
        assert after.tobytes() == model.tower_vector("alpha beta", store).tobytes()
        assert after.tobytes() == reference_tower_vector(model, "alpha beta", store).tobytes()

    @pytest.mark.parametrize("attr", ["embedding", "background_embedding"])
    def test_cache_follows_embedding_swap(self, attr):
        model = random_model(4, 4, separate_background=True)
        store = BackgroundStore(articles={"alpha": "beta gamma delta"})
        towers = TowerCache()
        before = towers.stack(model, ["alpha"], store)[0]
        setattr(model, attr, random_embedding(np.random.default_rng(5), 4, binades=1))
        after = towers.stack(model, ["alpha"], store)[0]
        assert not np.array_equal(before, after)
        assert after.tobytes() == reference_tower_vector(model, "alpha", store).tobytes()

    def test_writing_a_stacked_row_leaves_the_cache(self):
        model = random_model(6, 4)
        towers = TowerCache()
        towers.stack(model, ["alpha"], None)[0] = 1.0
        got = towers.stack(model, ["alpha"], None)[0]
        assert got.tobytes() == model.tower_vector("alpha", None).tobytes()

    def test_cache_computes_each_text_once_under_threads(self):
        model = random_model(7, 8)
        store = BackgroundStore(articles={w: " ".join(VOCAB) for w in VOCAB})
        texts = [" ".join(VOCAB[: 1 + n % 5]) + f" t{n}" for n in range(40)]
        calls = Counter()
        compute = model.tower_vector

        def counted(text, store):
            calls[text] += 1
            return compute(text, store)

        model.tower_vector = counted
        towers = TowerCache()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=16) as pool:
                futures = [pool.submit(lambda k: [towers.stack(model, [t], store)[0]
                                                  for t in texts[k:] + texts[:k]], k)
                           for k in range(16)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(switch)
        assert calls == Counter(texts)
        for k, got in enumerate(results):
            for t, tower in zip(texts[k:] + texts[:k], got):
                assert tower.tobytes() == compute(t, store).tobytes()

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
    @pytest.mark.parametrize("background", ["none", "store", "separate embedding"])
    def test_matches_full_stack_loop(self, family_setup, background, n):
        corpus, embedding, _, _ = family_setup
        pairs = shuffled_pairs(corpus, n)
        store = None if background == "none" else BackgroundStore(articles={
            f"flaw{f}": f"flaw{f} cause{f} impact{f} rec{f} detail" for f in range(5)})
        bg_embedding = (EmbeddingModel(dim=embedding.dim, vocab=embedding.vocab,
                                       vectors=embedding.vectors[::-1].copy())
                        if background == "separate embedding" else None)
        cfg = CorrTrainConfig(learning_rate=0.5, epochs=40)
        model = train_correlation(pairs, store, embedding, cfg, bg_embedding)
        w, b, losses = reference_train_correlation(pairs, store, embedding, cfg, bg_embedding)
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
           st.booleans(), article_maps, st.integers(0, 2**32 - 1))
    def test_matches_per_pair_loop(self, features, texts, aggregation, dim, with_store,
                                   separate_background, articles, seed):
        # Phrases of only "omega" / "x9" give zero towers, on either side.
        model = random_model(seed, dim, separate_background)
        store = BackgroundStore(articles=articles) if with_store else None
        cands = [candidate(text, round=r % 3 + 1) for r, text in enumerate(texts)]
        got = [(rc.score, rc.candidate.round, rc.candidate.text) for rc in
               rank_candidates(model, features, cands, store=store, aggregation=aggregation)]
        assert got == reference_rank(model, features, cands, store, aggregation)

    @settings(max_examples=100, deadline=None)
    @given(phrases, phrases, st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_score_matches_per_pair_probability(self, feature, text, dim, seed):
        model = random_model(seed, dim)
        want = reference_probability(model, model.tower_vector(feature, None),
                                     model.tower_vector(text, None))
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
