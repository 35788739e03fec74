import tracemalloc
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import family_aspects, family_corpus, family_mapping, feed_text, make_record
from vulnaug import embed
from vulnaug.cli import cli
from vulnaug.corpus import AspectKind, Corpus, mask_aspect
from vulnaug.embed import (
    EmbeddingModel,
    TrainConfig,
    kmeans,
    sentence_vector,
    tokenize,
    train_embeddings,
)
from vulnaug.errors import InsufficientVocabulary
from vulnaug.featcorr import (
    CorrTrainConfig,
    build_training_pairs,
    rank_candidates,
    score,
    software_features,
    train_correlation,
)
from vulnaug.genprompt import CandidateAnswer, PromptKind


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


@contextmanager
def one_center_blocks():
    """``_CENTER_BLOCK`` set to 1, so each block is one center token."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(embed, "_CENTER_BLOCK", 1)
        yield


class TestTrainingMatchesReference:
    """With one center per block, training is the one-center loop up to
    rounding; at any block size a seed reproduces its vectors byte for byte."""

    @settings(max_examples=120, deadline=None)
    @given(TRAIN_TEXTS, st.integers(1, 6), st.integers(1, 6), st.integers(1, 3),
           st.integers(1, 9), st.integers(0, 2**32 - 1))
    def test_small_corpora_bitwise(self, texts, window, negatives, epochs, dim, seed):
        corpus = text_corpus(texts)
        cfg = TrainConfig(window=window, epochs=epochs, negative_samples=negatives, seed=seed)
        # Compared before the float32 cast, which would hide last-bit changes.
        with one_center_blocks():
            vocab, w_in = embed._train_vectors(corpus, cfg, dim)
        want_vocab, want = reference_vectors(corpus, cfg, dim)
        assert vocab == want_vocab
        np.testing.assert_allclose(w_in, want, rtol=0, atol=1e-12)
        vectors = embed._train_vectors(corpus, cfg, dim)[1]
        assert embed._train_vectors(corpus, cfg, dim)[1].tobytes() == vectors.tobytes()
        model = train_embeddings(corpus, cfg, dim=dim)
        assert model.vectors.tobytes() == vectors.astype(np.float32).tobytes()

    @pytest.mark.parametrize("dim", [8, 17, 64])
    def test_wider_vectors_bitwise(self, dim):
        # Wide enough for BLAS to sum a dot product in blocks, where the
        # order depends on the row's place in the matrix.
        rng = np.random.default_rng(dim)
        words = [f"w{i}" for i in range(30)]
        corpus = text_corpus([" ".join(rng.choice(words, int(rng.integers(1, 20))))
                              for _ in range(40)])
        cfg = TrainConfig(seed=dim)
        with one_center_blocks():
            got = embed._train_vectors(corpus, cfg, dim)[1]
        np.testing.assert_allclose(got, reference_vectors(corpus, cfg, dim)[1], rtol=0, atol=1e-12)
        assert embed._train_vectors(corpus, cfg, dim)[1].tobytes() == \
            embed._train_vectors(corpus, cfg, dim)[1].tobytes()

    def test_one_token_descriptions_train_nothing_but_keep_the_stream(self):
        # Lone tokens have no context, so they draw no negatives: the rng
        # stream the later sentences see must not shift.
        corpus = text_corpus(["alpha", "beta gamma alpha beta", "delta", "gamma beta"])
        cfg = TrainConfig(window=2, epochs=2, negative_samples=3, seed=5)
        with one_center_blocks():
            got = embed._train_vectors(corpus, cfg, 7)[1]
        np.testing.assert_allclose(got, reference_vectors(corpus, cfg, 7)[1], rtol=0, atol=1e-12)

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
        train_embeddings(Corpus.from_records(records), TrainConfig(seed=9)).save(
            tmp_path / "reference.bin")
        assert out.read_bytes() == (tmp_path / "reference.bin").read_bytes()


def reference_block_vectors(corpus, cfg, dim=64, cap=8):
    """Vocabulary and float64 input vectors of skip-gram training one block of
    at most ``cap`` distinct consecutive centers at a time, written pair by
    pair: every pair is scored against the vectors as they stood at the
    block's start, and the block's updates are added afterwards."""
    sentences = [tokenize(rec.description) for rec in corpus]
    counts = Counter(tok for sent in sentences for tok in sent)
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    vocab = {tok: i for i, (tok, _) in enumerate(ordered)}
    noise = np.array([n for _, n in ordered], dtype=np.float64) ** 0.75
    noise_cdf = np.cumsum(noise / noise.sum())

    rng = np.random.default_rng(cfg.seed)
    size = len(vocab)
    w_in = (rng.random((size, dim)) - 0.5) / dim
    w_out = np.zeros((size, dim))

    encoded = [[vocab[t] for t in sent] for sent in sentences]
    total_steps = max(1, cfg.epochs * sum(len(s) for s in encoded))
    step = 0
    k = cfg.negative_samples
    for _ in range(cfg.epochs):
        for sent in encoded:
            n = len(sent)
            lrs = [max(embed._LR_MIN, embed._LR_INITIAL * (1.0 - (step + i) / total_steps))
                   for i in range(n)]
            step += n
            contexts = [sent[max(0, pos - cfg.window) : pos] + sent[pos + 1 : pos + cfg.window + 1]
                        for pos in range(n)]
            draws = np.searchsorted(noise_cdf, rng.random((sum(map(len, contexts)), k)))
            pairs = []  # (position, context, negatives) in draw order
            for pos, ctx in enumerate(contexts):
                for c in ctx:
                    pairs.append((pos, c, draws[len(pairs)].tolist()))
            blocks = []
            for pos in range(n):
                if not blocks or len(blocks[-1]) == cap or sent[pos] in [sent[p] for p in blocks[-1]]:
                    blocks.append([])
                blocks[-1].append(pos)
            for block in blocks:
                d_in = np.zeros_like(w_in)
                d_out = np.zeros_like(w_out)
                for pos, ctx, negs in pairs:
                    if pos not in block:
                        continue
                    center, lr = sent[pos], lrs[pos]
                    for out, label in [(ctx, 1.0)] + [(neg, 0.0) for neg in negs]:
                        g = float(embed._sigmoid(w_out[out] @ w_in[center])) - label
                        d_in[center] -= lr * g * w_out[out]
                        d_out[out] -= lr * g * w_in[center]
                w_in += d_in
                w_out += d_out
    return vocab, w_in


class TestBlockTraining:
    @settings(max_examples=60, deadline=None)
    @given(TRAIN_TEXTS, st.integers(1, 6), st.integers(1, 4), st.integers(1, 2),
           st.integers(1, 9), st.integers(0, 2**32 - 1))
    def test_small_corpora_match_the_pair_by_pair_block_step(
            self, texts, window, negatives, epochs, dim, seed):
        corpus = text_corpus(texts)
        cfg = TrainConfig(window=window, epochs=epochs, negative_samples=negatives, seed=seed)
        vocab, w_in = embed._train_vectors(corpus, cfg, dim)
        want_vocab, want = reference_block_vectors(corpus, cfg, dim, embed._CENTER_BLOCK)
        assert vocab == want_vocab
        np.testing.assert_allclose(w_in, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("texts", [
        # Lone tokens still take a learning-rate step each.
        ["alpha", "beta gamma alpha beta", "delta", "gamma beta"],
        # Long sentences with repeats, so blocks end both ways.
        [" ".join(f"w{i % 11}" for i in range(40)), " ".join(f"w{i % 7}" for i in range(33))],
    ])
    def test_fixed_corpora_match_the_pair_by_pair_block_step(self, texts):
        corpus = text_corpus(texts)
        cfg = TrainConfig(window=3, epochs=2, negative_samples=4, seed=8)
        got = embed._train_vectors(corpus, cfg, 16)[1]
        want = reference_block_vectors(corpus, cfg, 16, embed._CENTER_BLOCK)[1]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.lists(st.integers(0, 9), max_size=60),
                     st.lists(st.integers(0, 60), max_size=60)))
    def test_block_plan(self, centers):
        bounds = embed._center_blocks(centers)
        cap = embed._CENTER_BLOCK
        assert cap == 8
        assert bounds[-1] == len(centers)
        assert bounds[0] == 0
        blocks = [centers[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        assert [c for block in blocks for c in block] == centers
        for block, nxt in zip(blocks, blocks[1:] + [None]):
            assert 1 <= len(block) <= cap
            assert len(set(block)) == len(block)
            if nxt is not None:
                # A block ends early only before a center it already holds.
                assert len(block) == cap or nxt[0] in block

    @pytest.mark.parametrize("seed", [11, 12, 13, 14])
    def test_planted_aspect_ranks_first(self, seed):
        # Acceptance criterion 08 with the embedding trained at other seeds.
        accuracy, wins = planted_aspect_trial(seed)
        assert accuracy >= 0.9
        assert wins >= 90

    def test_long_description_memory_is_bounded(self):
        # Working memory is one sentence's ids and draws plus one block's
        # rows; nothing of size pairs x dim is built.
        rng = np.random.default_rng(0)
        text = " ".join(rng.choice([f"w{i}" for i in range(2000)], 20_000))
        corpus = text_corpus([text])
        tracemalloc.start()
        try:
            embed._train_vectors(corpus, TrainConfig(epochs=1), 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


def planted_aspect_trial(embedding_seed):
    """Acceptance criterion 08's held-out accuracy and planted-aspect wins out
    of 100, with the word vectors trained at ``embedding_seed``."""
    corpus = family_corpus(n_records=200, n_families=5)
    db = family_mapping(corpus)
    embedding = train_embeddings(corpus, TrainConfig(seed=embedding_seed, epochs=10))
    pairs = build_training_pairs(corpus, seed=5)
    order = np.random.default_rng(3).permutation(len(pairs))
    split = int(0.8 * len(pairs))
    model = train_correlation([pairs[i] for i in order[:split]], None, embedding,
                              CorrTrainConfig(learning_rate=0.5, epochs=300))
    held_out = [pairs[i] for i in order[split:]]
    accuracy = sum(int((score(model, p.a, p.b) > 0.5) == bool(p.label))
                   for p in held_out) / len(held_out)
    wins = 0
    trial_rng = np.random.default_rng(17)
    records = {rec.cve_id: rec for rec in corpus}
    for _ in range(100):
        index = int(trial_rng.integers(200))
        family = index % 5
        masked, truth = mask_aspect(records[f"CVE-2021-{1000 + index}"], AspectKind.ROOT_CAUSE)
        distractors = [
            family_aspects(g, int(trial_rng.integers(200)))[AspectKind.ROOT_CAUSE]
            for g in range(5)
            if g != family
        ][:3]
        candidates = [
            CandidateAnswer(aspect=AspectKind.ROOT_CAUSE, text=text,
                            strategy=PromptKind.SELECTION, round=r + 1, backend_id="t")
            for r, text in enumerate([truth] + distractors)
        ]
        ranked = rank_candidates(model, software_features(masked, db, corpus), candidates)
        wins += int(ranked[0].candidate.text == truth)
    return accuracy, wins


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
        present = [c for c, m in enumerate(result.medoids) if m is not None]
        assert present == sorted(set(result.assignments.tolist()))
        for c in present:
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
