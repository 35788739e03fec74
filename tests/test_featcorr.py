import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import family_aspects, family_corpus, family_mapping, make_record
from vulnaug.corpus import AspectKind, Corpus
from vulnaug.embed import EmbeddingModel, TrainConfig, tokenize, train_embeddings
from vulnaug.errors import EmptyTrainingSet
from vulnaug.featcorr import (
    NEG_RATIO,
    BackgroundStore,
    CorrelationModel,
    CorrTrainConfig,
    FeaturePair,
    build_training_pairs,
    fetch_background,
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


# Few distinct tokens, so overlaps tie often; "omega" and "x9" stay out of
# every test vocabulary, and "Beta" / "alpha-beta" tokenize to known words.
WORDS = ["alpha", "beta", "gamma", "delta", "omega", "cve-2020-1", "x9", "Beta", "alpha-beta"]
VOCAB = ["alpha", "beta", "gamma", "delta", "cve-2020-1"]
phrases = st.lists(st.sampled_from(WORDS), max_size=8).map(" ".join)
titles = st.lists(st.sampled_from(WORDS), min_size=1, max_size=2).map(" ".join)
article_maps = st.dictionaries(titles, phrases, max_size=8)
store_edits = st.lists(st.tuples(titles, phrases), max_size=5)


def edited_store(articles, edits):
    """A store built from ``articles`` and then changed through ``add``,
    which may overwrite existing titles."""
    store = BackgroundStore(articles=dict(articles))
    for term, body in edits:
        store.add(term, body)
    return store


def random_embedding(rng, dim):
    """Vectors whose entries span many binades, so summation order shows."""
    vectors = rng.standard_normal((len(VOCAB), dim)) * 10.0 ** rng.uniform(-8, 8, (len(VOCAB), dim))
    return EmbeddingModel(dim=dim, vocab={t: i for i, t in enumerate(VOCAB)},
                          vectors=vectors.astype(np.float32))


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
        store = edited_store(articles, edits)
        assert fetch_background(aspect, store, max_terms) == reference_fetch_background(
            aspect, store, max_terms)

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
        rng = np.random.default_rng(seed)
        model = CorrelationModel(
            embedding=random_embedding(rng, dim),
            weights=np.zeros(2 * dim + 1),
            bias=0.0,
            background_embedding=random_embedding(rng, dim) if separate_background else None,
        )
        store = edited_store(articles, edits) if with_store else None
        assert np.array_equal(model.tower_vector(text, store),
                              reference_tower_vector(model, text, store))

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
