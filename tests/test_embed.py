from collections import Counter

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import feed_text, make_record
from vulnaug import embed
from vulnaug.cli import cli
from vulnaug.corpus import Corpus
from vulnaug.embed import (
    EmbeddingModel,
    TrainConfig,
    kmeans,
    sentence_vector,
    tokenize,
    train_embeddings,
)
from vulnaug.errors import InsufficientVocabulary


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_plain_words(self):
        assert tokenize("Buffer overflow in ToolTalk RPC") == [
            "buffer", "overflow", "in", "tooltalk", "rpc",
        ]

    def test_identifier_preserved(self):
        assert tokenize("CVE-2002-0679") == ["cve-2002-0679"]
        assert tokenize("see CWE-119 for details") == ["see", "cwe-119", "for", "details"]

    def test_punctuation_split(self):
        assert tokenize("heap-based; overflow (v2)") == ["heap", "based", "overflow", "v2"]


def cooccurrence_corpus():
    records = []
    i = 0
    for _ in range(40):
        records.append(make_record(f"CVE-2020-{1000 + i}", "alpha beta shared filler")); i += 1
        records.append(make_record(f"CVE-2020-{1000 + i}", "beta alpha shared other")); i += 1
        records.append(make_record(f"CVE-2020-{1000 + i}", "gamma delta separate words")); i += 1
    return Corpus.from_records(records)


class TestTraining:
    def test_seed_reproducibility_is_bitwise(self):
        corpus = cooccurrence_corpus()
        a = train_embeddings(corpus, TrainConfig(seed=7))
        b = train_embeddings(corpus, TrainConfig(seed=7))
        assert np.array_equal(a.vectors, b.vectors)
        assert a.vocab == b.vocab

    def test_cooccurring_tokens_are_closer(self):
        model = train_embeddings(cooccurrence_corpus(), TrainConfig(seed=7))

        def cos(x, y):
            vx, vy = model.vector(x), model.vector(y)
            return float(np.dot(vx, vy) / (np.linalg.norm(vx) * np.linalg.norm(vy)))

        assert cos("alpha", "beta") > cos("alpha", "gamma")

    def test_vector_shape(self):
        model = train_embeddings(cooccurrence_corpus(), TrainConfig(seed=7), dim=64)
        assert model.dim == 64
        assert model.vectors.shape == (len(model.vocab), 64)
        assert all(model.vector(t).shape == (64,) for t in ("alpha", "never-seen"))

    def test_insufficient_vocabulary(self):
        corpus = Corpus.from_records([make_record("CVE-2020-9000", "word word word")])
        with pytest.raises(InsufficientVocabulary):
            train_embeddings(corpus)


def reference_vectors(corpus, cfg, dim=64):
    """Vocabulary and float64 input vectors of skip-gram training one center
    token and one row scatter at a time, drawing each center's negatives on
    their own."""
    sentences = [tokenize(rec.description) for rec in corpus]
    counts = Counter(tok for sent in sentences for tok in sent)
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    vocab = {tok: i for i, (tok, _) in enumerate(ordered)}
    freq = np.array([n for _, n in ordered], dtype=np.float64)
    noise = freq**0.75
    noise_cdf = np.cumsum(noise / noise.sum())

    rng = np.random.default_rng(cfg.seed)
    size = len(vocab)
    w_in = (rng.random((size, dim)) - 0.5) / dim
    w_out = np.zeros((size, dim))

    encoded = [np.array([vocab[t] for t in sent], dtype=np.int64) for sent in sentences]
    total_steps = max(1, cfg.epochs * sum(len(s) for s in encoded))
    step = 0
    k = cfg.negative_samples
    for _ in range(cfg.epochs):
        for sent in encoded:
            n = len(sent)
            for pos in range(n):
                lr = max(embed._LR_MIN, embed._LR_INITIAL * (1.0 - step / total_steps))
                step += 1
                lo = max(0, pos - cfg.window)
                hi = min(n, pos + cfg.window + 1)
                ctx = np.concatenate([sent[lo:pos], sent[pos + 1 : hi]])
                if ctx.size == 0:
                    continue
                center = sent[pos]
                v = w_in[center]
                pos_vecs = w_out[ctx]  # (m, dim)
                g_pos = embed._sigmoid(pos_vecs @ v) - 1.0  # (m,)
                neg = np.searchsorted(noise_cdf, rng.random((ctx.size, k)))
                neg_vecs = w_out[neg]  # (m, k, dim)
                g_neg = embed._sigmoid(neg_vecs @ v)  # (m, k)
                grad_v = g_pos @ pos_vecs + np.einsum("mk,mkd->d", g_neg, neg_vecs)
                np.add.at(w_out, ctx, -lr * g_pos[:, None] * v)
                np.add.at(w_out, neg.ravel(), -lr * (g_neg.reshape(-1, 1) * v))
                w_in[center] = v - lr * grad_v
    return vocab, w_in


# A few words, so tokens repeat inside one window; "; ;" has no tokens at all.
TRAIN_TEXTS = st.lists(
    st.one_of(
        st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta", "eps"]),
                 min_size=1, max_size=14).map(" ".join),
        st.just("; ;"),
    ),
    min_size=1, max_size=6,
).filter(lambda texts: len(set(tokenize(" ".join(texts)))) >= 2)


def text_corpus(texts):
    return Corpus.from_records(
        [make_record(f"CVE-2021-{1000 + i}", text) for i, text in enumerate(texts)]
    )


class TestTrainingMatchesReference:
    @settings(max_examples=120, deadline=None)
    @given(TRAIN_TEXTS, st.integers(1, 6), st.integers(1, 6), st.integers(1, 3),
           st.integers(1, 9), st.integers(0, 2**32 - 1))
    def test_small_corpora_bitwise(self, texts, window, negatives, epochs, dim, seed):
        corpus = text_corpus(texts)
        cfg = TrainConfig(window=window, epochs=epochs, negative_samples=negatives, seed=seed)
        # Compared before the float32 cast, which would hide last-bit changes.
        vocab, w_in = embed._train_vectors(corpus, cfg, dim)
        want_vocab, want = reference_vectors(corpus, cfg, dim)
        assert vocab == want_vocab
        assert w_in.tobytes() == want.tobytes()
        model = train_embeddings(corpus, cfg, dim=dim)
        assert model.vectors.tobytes() == want.astype(np.float32).tobytes()

    @pytest.mark.parametrize("dim", [8, 17, 64])
    def test_wider_vectors_bitwise(self, dim):
        # Wide enough for BLAS to sum a dot product in blocks, where the
        # order depends on the row's place in the matrix.
        rng = np.random.default_rng(dim)
        words = [f"w{i}" for i in range(30)]
        corpus = text_corpus([" ".join(rng.choice(words, int(rng.integers(1, 20))))
                              for _ in range(40)])
        cfg = TrainConfig(seed=dim)
        assert embed._train_vectors(corpus, cfg, dim)[1].tobytes() == \
            reference_vectors(corpus, cfg, dim)[1].tobytes()

    def test_one_token_descriptions_train_nothing_but_keep_the_stream(self):
        # Lone tokens have no context, so they draw no negatives: the rng
        # stream the later sentences see must not shift.
        corpus = text_corpus(["alpha", "beta gamma alpha beta", "delta", "gamma beta"])
        cfg = TrainConfig(window=2, epochs=2, negative_samples=3, seed=5)
        assert embed._train_vectors(corpus, cfg, 7)[1].tobytes() == \
            reference_vectors(corpus, cfg, 7)[1].tobytes()

    def test_cli_model_file_matches_reference_bytes(self, tmp_path):
        records = [
            make_record(f"CVE-2022-{1000 + i}",
                        f"buffer overflow in widget{i % 4} lets remote attackers run code"
                        f" via crafted packet{i % 3} because of missing bounds check {i}")
            for i in range(30)
        ]
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text(feed_text(records), encoding="utf-8")
        out = tmp_path / "embed.bin"
        result = CliRunner().invoke(
            cli, ["--seed", "9", "train-embed", "--corpus", str(corpus_path), "-o", str(out)]
        )
        assert result.exit_code == 0, result.output
        cfg = TrainConfig(seed=9)
        vocab, w_in = reference_vectors(Corpus.from_records(records), cfg)
        EmbeddingModel(dim=64, vocab=vocab, vectors=w_in.astype(np.float32),
                       train_config=cfg).save(tmp_path / "reference.bin")
        assert out.read_bytes() == (tmp_path / "reference.bin").read_bytes()


def reference_sentence_vector(model, text):
    """Add one token vector at a time to a zero vector."""
    out = np.zeros(model.dim, dtype=np.float64)
    for token in tokenize(text):
        out += model.vector(token)
    return out


WORDS = ["alpha", "beta", "gamma", "delta", "zero", "oov", "Beta", "alpha-beta"]


def spread_embedding(seed, dim):
    """Entries across many binades plus some signed zeros, so summation
    order and the sign of zero both show."""
    rng = np.random.default_rng(seed)
    tokens = ["alpha", "beta", "gamma", "delta", "zero"]
    vectors = rng.standard_normal((len(tokens), dim)) * 10.0 ** rng.uniform(-8, 8, (len(tokens), dim))
    vectors[tokens.index("zero")] = -0.0
    return EmbeddingModel(dim=dim, vocab={t: i for i, t in enumerate(tokens)},
                          vectors=vectors.astype(np.float32))


@pytest.fixture(scope="module")
def model():
    return train_embeddings(cooccurrence_corpus(), TrainConfig(seed=7))


class TestSentenceVector:
    def test_empty_text_is_zero(self, model):
        assert np.array_equal(sentence_vector(model, ""), np.zeros(model.dim))

    def test_single_token_is_its_vector(self, model):
        assert np.array_equal(sentence_vector(model, "alpha"), model.vector("alpha"))

    def test_oov_contributes_zero(self, model):
        assert np.array_equal(
            sentence_vector(model, "alpha zzqx"), sentence_vector(model, "alpha")
        )

    def test_concatenation_additivity(self, model):
        a, b = "alpha beta gamma", "delta shared"
        np.testing.assert_allclose(
            sentence_vector(model, a + " " + b),
            sentence_vector(model, a) + sentence_vector(model, b),
            atol=1e-9,
        )

    def test_bag_of_words_permutation_invariance(self, model):
        np.testing.assert_allclose(
            sentence_vector(model, "alpha beta gamma"),
            sentence_vector(model, "gamma alpha beta"),
            atol=1e-9,
        )


    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(WORDS), max_size=60).map(" ".join), st.integers(2, 16),
           st.integers(0, 2**32 - 1))
    def test_matches_token_loop(self, text, dim, seed):
        model = spread_embedding(seed, dim)
        got = sentence_vector(model, text)
        assert got.tobytes() == reference_sentence_vector(model, text).tobytes()

    def test_negative_zero_rows_sum_to_positive_zero(self):
        model = spread_embedding(0, 4)
        assert sentence_vector(model, "zero oov zero").tobytes() == np.zeros(4).tobytes()

    def test_one_dimensional_embedding_within_rounding(self):
        # numpy sums a single column pairwise rather than in order, so only
        # here the sum may differ from the token loop in the last bits.
        model = spread_embedding(0, 1)
        text = " ".join(WORDS * 20)
        got = sentence_vector(model, text)[0]
        want = reference_sentence_vector(model, text)[0]
        scale = np.abs(model.vectors).max()
        assert abs(got - want) <= 200 * np.finfo(np.float64).eps * scale


class TestPersistence:
    def test_binary_round_trip(self, tmp_path):
        model = train_embeddings(cooccurrence_corpus(), TrainConfig(seed=3), dim=16)
        path = tmp_path / "embed.bin"
        model.save(path)
        loaded = EmbeddingModel.load(path)
        assert loaded.dim == model.dim
        assert loaded.vocab == model.vocab
        assert np.array_equal(loaded.vectors, model.vectors)
        assert loaded.train_config == model.train_config
        loaded.save(tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    def test_text_export(self, tmp_path):
        model = train_embeddings(cooccurrence_corpus(), TrainConfig(seed=3), dim=8)
        path = tmp_path / "embed.txt"
        model.export_text(path)
        lines = path.read_text().splitlines()
        assert lines[0] == f"{len(model.vocab)} 8"
        assert len(lines) == len(model.vocab) + 1

    def test_reject_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"not a model")
        with pytest.raises(ValueError):
            EmbeddingModel.load(path)


class TestKmeans:
    def test_k1_centroid_is_mean(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        result = kmeans(pts, 1, seed=0)
        np.testing.assert_allclose(result.centroids[0], [1.0, 1.0])
        assert set(result.assignments.tolist()) == {0}

    def test_four_point_two_cluster_oracle(self):
        # optimal 2-partition found by exhaustive enumeration: split on y
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        result = kmeans(pts, 2, seed=0)
        a = result.assignments
        assert a[0] == a[1] and a[2] == a[3] and a[0] != a[2]
        assert result.objective_history[-1] == pytest.approx(1.0)

    def test_k_equals_n_singletons(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        result = kmeans(pts, 3, seed=0)
        assert sorted(result.assignments.tolist()) == [0, 1, 2]
        assert result.medoids == [0, 1, 2]

    def test_k_above_n_warns_and_leaves_empties(self):
        pts = np.array([[0.0], [1.0]])
        with pytest.warns(UserWarning):
            result = kmeans(pts, 5, seed=0)
        assert result.medoids[:2] == [0, 1]
        assert result.medoids[2:] == [None, None, None]

    def test_objective_never_increases(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            n = int(rng.integers(10, 80))
            dim = int(rng.integers(2, 6))
            k = int(rng.integers(2, 8))
            pts = rng.normal(size=(n, dim))
            result = kmeans(pts, min(k, n - 1) or 1, seed=trial)
            history = result.objective_history
            assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

    def test_medoid_is_member_closest_to_centroid(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(40, 3))
        result = kmeans(pts, 4, seed=1)
        for c in result.non_empty_clusters():
            members = np.flatnonzero(result.assignments == c)
            dists = np.linalg.norm(pts[members] - result.centroids[c], axis=1)
            assert result.medoids[c] == members[int(np.argmin(dists))]
            assert result.assignments[result.medoids[c]] == c

    def test_deterministic_for_seed(self):
        pts = np.random.default_rng(0).normal(size=(50, 4))
        a = kmeans(pts, 5, seed=9)
        b = kmeans(pts, 5, seed=9)
        assert np.array_equal(a.assignments, b.assignments)
        assert np.array_equal(a.centroids, b.centroids)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            kmeans(np.empty((0, 2)), 1)
        with pytest.raises(ValueError):
            kmeans(np.ones((3, 2)), 0)
