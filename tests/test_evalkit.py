import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_record
from vulnaug.corpus import AspectKind, Corpus
from vulnaug.embed import EmbeddingModel, TrainConfig, tokenize, train_embeddings
from vulnaug.errors import UndefinedScore
from vulnaug.evalkit import (
    LONG_TAIL,
    NON_LONG_TAIL,
    CostParams,
    SimilarityScore,
    effectiveness_threshold,
    evaluate,
    expected_lookups,
    soft_score,
)
from vulnaug.mapping import MappingDb


@pytest.fixture(scope="module")
def model():
    records = [
        make_record(f"CVE-2020-{6000 + i}",
                    "buffer overflow memory corruption remote attacker crash leak "
                    f"parser input filler{i}")
        for i in range(30)
    ]
    return train_embeddings(Corpus.from_records(records), TrainConfig(seed=2))


class TestSoftScore:
    def test_identity_is_exactly_one(self, model):
        for text in ("buffer overflow", "zzqx unseen tokens", "remote attacker crash"):
            result = soft_score(text, text, model)
            assert result.f1 == 1.0
            assert result.precision == 1.0 and result.recall == 1.0

    def test_permutation_identical_score(self, model):
        a = soft_score("buffer overflow crash", "remote memory leak", model)
        b = soft_score("crash buffer overflow", "leak remote memory", model)
        assert a == b

    def test_disjoint_oov_tokens_score_zero(self, model):
        result = soft_score("zzqx wwvv", "qqpp rrss", model)
        assert result.f1 == 0.0

    def test_empty_side_is_undefined(self, model):
        with pytest.raises(UndefinedScore):
            soft_score("", "buffer", model)
        with pytest.raises(UndefinedScore):
            soft_score("buffer", "...", model)

    def test_swap_swaps_precision_recall_keeps_f1(self, model):
        a = soft_score("buffer overflow", "memory corruption crash", model)
        b = soft_score("memory corruption crash", "buffer overflow", model)
        assert a.precision == pytest.approx(b.recall)
        assert a.recall == pytest.approx(b.precision)
        assert a.f1 == pytest.approx(b.f1)

    def test_scores_clamped_to_unit_interval(self, model):
        result = soft_score("buffer crash zzqx", "leak overflow parser", model)
        for value in (result.precision, result.recall, result.f1):
            assert 0.0 <= value <= 1.0


def reference_soft_score(candidate, reference, model):
    """Score each (candidate, reference) token pair on its own: 1 when
    string-equal, else the clamped dot of the two unit vectors, 0 when either
    is out of vocabulary or zero; then fsum the best match of each token."""
    cand, ref = tokenize(candidate), tokenize(reference)

    def unit(token):
        if token not in model.vocab:
            return None
        v = model.vectors[model.vocab[token]].astype(np.float64)
        norm = float(np.linalg.norm(v))
        return v / norm if norm > 0.0 else None

    cand_vecs = [unit(t) for t in cand]
    ref_vecs = [unit(t) for t in ref]

    def sim(i, j):
        if cand[i] == ref[j]:
            return 1.0
        u, v = cand_vecs[i], ref_vecs[j]
        if u is None or v is None:
            return 0.0
        return min(1.0, max(0.0, float(np.dot(u, v))))

    precision = math.fsum(
        max(sim(i, j) for j in range(len(ref))) for i in range(len(cand))
    ) / len(cand)
    recall = math.fsum(
        max(sim(i, j) for i in range(len(cand))) for j in range(len(ref))
    ) / len(ref)
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0.0 else 0.0
    return SimilarityScore(precision=precision, recall=recall, f1=f1)


def bits(score):
    return np.array([score.precision, score.recall, score.f1]).tobytes()


# Tokens that tokenize to themselves; "zero" has the all -0.0 row, "nil" the
# all +0.0 row, and "oov" and "unseen" are out of vocabulary.
GRID_VOCAB = ["alpha", "beta", "gamma", "delta", "zero", "nil"]
GRID_TOKENS = GRID_VOCAB + ["oov", "unseen"]


@st.composite
def grid_models(draw):
    """Entries across many binades, some of them +0.0 and some -0.0."""
    dim = draw(st.sampled_from([1, 2, 3, 8, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (len(GRID_VOCAB), dim)
    vectors = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)
    vectors[rng.random(shape) < 0.2] = 0.0
    vectors[rng.random(shape) < 0.2] = -0.0
    vectors[GRID_VOCAB.index("zero")] = -0.0
    vectors[GRID_VOCAB.index("nil")] = 0.0
    return EmbeddingModel(dim=dim, vocab={t: i for i, t in enumerate(GRID_VOCAB)},
                          vectors=vectors.astype(np.float32))


class TestSoftScoreGrid:
    @settings(max_examples=300, deadline=None)
    @given(grid_models(),
           st.lists(st.sampled_from(GRID_TOKENS), min_size=1, max_size=8),
           st.lists(st.sampled_from(GRID_TOKENS), min_size=1, max_size=8))
    def test_grid_equals_the_pairwise_loop(self, model, cand, ref):
        candidate, reference = " ".join(cand), " ".join(ref)
        got = soft_score(candidate, reference, model)
        want = reference_soft_score(candidate, reference, model)
        assert bits(got) == bits(want)

    def test_repeated_and_out_of_vocabulary_tokens(self, model):
        for candidate, reference in [("buffer buffer zzqx", "overflow zzqx zzqx"),
                                     ("zzqx", "buffer"), ("crash crash", "crash")]:
            got = soft_score(candidate, reference, model)
            want = reference_soft_score(candidate, reference, model)
            assert bits(got) == bits(want)


def build_testset(n=8):
    """Half the records belong to one big software, half to tiny ones."""
    from vulnaug.corpus import mask_aspect

    db = MappingDb()
    testset = []
    records = []
    for i in range(n):
        software = "Big Suite" if i % 2 == 0 else f"tiny{i}"
        aspects = {
            AspectKind.VULNERABILITY_TYPE: f"flaw kind{i}",
            AspectKind.IMPACT: f"impact result{i}",
        }
        rec = make_record(
            f"CVE-2021-{7000 + i}",
            f"flaw kind{i} in {software} causes impact result{i}.",
            aspects=aspects,
            software=[software],
        )
        records.append(rec)
        db.insert(software, rec.cve_id)
        masked, label = mask_aspect(rec, AspectKind.VULNERABILITY_TYPE)
        testset.append((masked, AspectKind.VULNERABILITY_TYPE, label))
    # inflate Big Suite above the long-tail threshold
    for j in range(60):
        db.insert("Big Suite", f"CVE-2019-{7000 + j}")
    return records, db, testset


class TestEvaluate:
    def test_oracle_pipeline_scores_one(self, model):
        _, db, testset = build_testset()
        labels = {rec.cve_id: label for rec, _, label in testset}
        report = evaluate(lambda rec, kind: labels[rec.cve_id], testset, model, db=db)
        assert report.rows, "expected at least one aggregation row"
        for row in report.rows:
            assert row.mean_f1 == 1.0
        assert report.evaluated == len(testset)
        assert not report.failures

    def test_adversarial_pipeline_scores_zero(self, model):
        _, db, testset = build_testset()
        report = evaluate(lambda rec, kind: "zzqx", testset, model, db=db)
        for row in report.rows:
            assert row.mean_f1 == 0.0

    def test_empty_testset(self, model):
        report = evaluate(lambda rec, kind: "x", [], model, MappingDb())
        assert report.rows == []
        assert report.evaluated == 0

    def test_classes_split_by_mapping_counts(self, model):
        _, db, testset = build_testset()
        labels = {rec.cve_id: label for rec, _, label in testset}
        report = evaluate(lambda rec, kind: labels[rec.cve_id], testset, model, db=db)
        classes = {row.software_class for row in report.rows}
        assert classes == {LONG_TAIL, NON_LONG_TAIL}

    def test_classes_come_from_mapping_counts_not_test_set_counts(self, model):
        # Three test records name "Foo Bar", above the threshold, but the
        # mapping links one CVE to it; "Baz" is named once and has three links.
        db = MappingDb()
        db.insert("Foo Bar", "CVE-2020-7100")
        for j in range(3):
            db.insert("Baz", f"CVE-2019-{7200 + j}")
        testset = [
            (make_record(f"CVE-2020-{7100 + i}", "buffer overflow.", software=[name]),
             AspectKind.IMPACT, "crash")
            for i, name in enumerate(["Foo  Bar", "Foo Bar", "Foo Bar", " ", "Baz"])
        ]
        report = evaluate(lambda rec, kind: "crash", testset, model, db=db, threshold=2)
        counts = {row.software_class: row.count for row in report.rows}
        assert counts == {NON_LONG_TAIL: 1, LONG_TAIL: 4}

    def test_pipeline_failure_recorded_and_excluded(self, model):
        _, db, testset = build_testset()
        labels = {rec.cve_id: label for rec, _, label in testset}

        def flaky(rec, kind):
            if rec.cve_id.endswith("7000"):
                raise RuntimeError("backend down")
            return labels[rec.cve_id]

        report = evaluate(flaky, testset, model, db=db)
        assert len(report.failures) == 1
        assert report.evaluated == len(testset) - 1
        for row in report.rows:
            assert row.mean_f1 == 1.0
        [(cve_id, kind)] = [(rec.cve_id, kind) for rec, kind, _ in testset
                            if rec.cve_id.endswith("7000")]
        want = f"failed: {cve_id}/{kind.json_key}: backend down"
        assert report.to_text().splitlines()[-1] == want
        assert report.to_jsonl().count("\n") == len(report.rows)

    def test_report_serializations(self, model):
        _, db, testset = build_testset()
        labels = {rec.cve_id: label for rec, _, label in testset}
        report = evaluate(lambda rec, kind: labels[rec.cve_id], testset, model, db=db,
                          pipeline_id="test", dataset_id="fixture")
        text = report.to_text()
        assert "mean_f1" in text and "test" in text
        jsonl = report.to_jsonl()
        assert jsonl.count("\n") == len(report.rows)
        csv_text = report.to_csv()
        assert csv_text.splitlines()[0] == "aspect,class,mean_f1,count"


class TestCostModel:
    def test_perfect_accuracy(self):
        result = expected_lookups(CostParams(n=10, x=1.0))
        assert result == {"e_not_augment": 10.0, "e_augment": 1.0}

    def test_exact_boundary_ties(self):
        result = expected_lookups(CostParams(n=2, x=0.5))
        assert result["e_augment"] == 2.0
        assert result["e_not_augment"] == 2.0

    def test_n_one_never_helps(self):
        result = expected_lookups(CostParams(n=1, x=0.99))
        assert result["e_augment"] == pytest.approx(1.01)
        assert result["e_augment"] > 1.0

    def test_affine_in_x_with_slope_minus_n(self):
        for n in (2, 5, 17):
            e0 = expected_lookups(CostParams(n=n, x=0.0))["e_augment"]
            e1 = expected_lookups(CostParams(n=n, x=1.0))["e_augment"]
            mid = expected_lookups(CostParams(n=n, x=0.5))["e_augment"]
            assert e1 - e0 == pytest.approx(-n)
            assert mid == pytest.approx((e0 + e1) / 2)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            CostParams(n=0, x=0.5)
        with pytest.raises(ValueError):
            CostParams(n=2, x=1.5)


class TestEffectivenessThreshold:
    def test_n_two_is_half(self):
        assert effectiveness_threshold(2) == 0.5

    def test_n_one_is_one(self):
        assert effectiveness_threshold(1) == 1.0

    def test_grid_sign_agreement(self):
        for n in range(2, 51):
            for step in range(101):
                x = step / 100.0
                result = expected_lookups(CostParams(n=n, x=x))
                gain = result["e_not_augment"] - result["e_augment"]
                reference = x - effectiveness_threshold(n)
                if abs(reference) < 1e-12:
                    assert abs(gain) < 1e-9
                else:
                    assert math.copysign(1.0, gain) == math.copysign(1.0, reference)
