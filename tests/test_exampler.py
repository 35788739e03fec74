import numpy as np
import pytest

from helpers import make_record, pool_fixture
from vulnaug.corpus import Corpus
from vulnaug.embed import EmbeddingModel, TrainConfig, tokenize, train_embeddings
from vulnaug.exampler import (
    ExamplePool,
    SelectionMode,
    retrieve_pool,
    select_examples,
    select_examples_by_similarity,
)
from vulnaug.mapping import MappingDb


@pytest.fixture(scope="module")
def big_pool():
    target, db, corpus = pool_fixture()
    model = train_embeddings(corpus, TrainConfig(seed=4))
    return target, db, corpus, model


class TestRetrievePool:
    def test_paper_shaped_counts(self, big_pool):
        target, db, corpus, _ = big_pool
        pool = retrieve_pool(target, db, corpus)
        assert len(pool.from_software) == 6
        assert len(pool.from_cwe) == 207
        assert len(pool.union) == 213

    def test_target_excluded_from_own_pool(self, big_pool):
        target, db, corpus, _ = big_pool
        pool = retrieve_pool(target, db, corpus)
        assert target.cve_id not in pool.union

    def test_no_siblings_no_cwe_is_empty(self):
        target = make_record("CVE-2010-0001", "lonely record.")
        corpus = Corpus.from_records([target])
        pool = retrieve_pool(target, MappingDb(), corpus)
        assert pool.union == []

    def test_software_subset_of_cwe(self):
        target = make_record("CVE-2010-0002", "t.", cwe_id="CWE-79")
        db = MappingDb()
        db.insert("Overlap Tool", target.cve_id)
        records = [target]
        for i in range(4):
            cve = f"CVE-2010-{1100 + i}"
            records.append(make_record(cve, f"sibling {i}.", cwe_id="CWE-79"))
            if i < 2:
                db.insert("Overlap Tool", cve)
        corpus = Corpus.from_records(records)
        pool = retrieve_pool(target, db, corpus)
        assert pool.from_software < pool.from_cwe
        assert len(pool.union) == len(pool.from_cwe)

    def test_cwe_siblings_skip_records_without_cwe(self):
        db = MappingDb()
        records = []
        for i in range(12):
            cve = f"CVE-2010-{1400 + i}"
            records.append(make_record(cve, f"record {i}.", cwe_id=[None, "CWE-79", "CWE-89"][i % 3]))
            if i % 4 == 0:
                db.insert("Mixed Tool", cve)
        corpus = Corpus.from_records(reversed(records))
        for target in records:
            pool = retrieve_pool(target, db, corpus)
            want = {rec.cve_id for rec in records
                    if target.cwe_id and rec.cwe_id == target.cwe_id} - {target.cve_id}
            assert pool.from_cwe == want
            assert pool.union == sorted(want | pool.from_software)

    def test_union_is_sorted_and_deduplicated(self, big_pool):
        target, db, corpus, _ = big_pool
        pool = retrieve_pool(target, db, corpus)
        assert pool.union == sorted(set(pool.union))


class TestSelectExamples:
    def test_small_pool_returned_whole(self):
        target = make_record("CVE-2010-0003", "t.", cwe_id="CWE-20")
        records = [target] + [
            make_record(f"CVE-2010-{1200 + i}", f"alpha beta record {i}.", cwe_id="CWE-20")
            for i in range(12)
        ]
        corpus = Corpus.from_records(records)
        model = train_embeddings(corpus, TrainConfig(seed=1))
        pool = retrieve_pool(target, MappingDb(), corpus)
        selected = select_examples(pool, corpus, model, limit=30, seed=0)
        assert len(selected.members) == 12
        assert selected.selection_mode == SelectionMode.ALL

    def test_pool_of_exactly_limit_returned_whole(self):
        target = make_record("CVE-2010-0004", "t.", cwe_id="CWE-21")
        records = [target] + [
            make_record(f"CVE-2010-{1300 + i}", f"gamma delta record {i}.", cwe_id="CWE-21")
            for i in range(30)
        ]
        corpus = Corpus.from_records(records)
        model = train_embeddings(corpus, TrainConfig(seed=1))
        pool = retrieve_pool(target, MappingDb(), corpus)
        selected = select_examples(pool, corpus, model, limit=30, seed=0)
        assert len(selected.members) == 30
        assert selected.selection_mode == SelectionMode.ALL

    def test_large_pool_reduced_to_limit_medoids(self, big_pool):
        target, db, corpus, model = big_pool
        pool = retrieve_pool(target, db, corpus)
        selected = select_examples(pool, corpus, model, limit=30, seed=2)
        assert selected.selection_mode == SelectionMode.CLUSTER_MEDOIDS
        cves = [rec.cve_id for rec in selected.members]
        assert len(cves) == 30
        assert len(set(cves)) == 30

    def test_selection_subset_of_pool(self, big_pool):
        target, db, corpus, model = big_pool
        pool = retrieve_pool(target, db, corpus)
        selected = select_examples(pool, corpus, model, limit=30, seed=2)
        assert {rec.cve_id for rec in selected.members} <= set(pool.union)

    def test_deterministic_under_seed(self, big_pool):
        target, db, corpus, model = big_pool
        pool = retrieve_pool(target, db, corpus)
        a = select_examples(pool, corpus, model, limit=30, seed=2)
        b = select_examples(pool, corpus, model, limit=30, seed=2)
        assert [r.cve_id for r in a.members] == [r.cve_id for r in b.members]

    def test_members_keep_their_aspects(self, big_pool):
        target, db, corpus, model = big_pool
        pool = retrieve_pool(target, db, corpus)
        selected = select_examples(pool, corpus, model, limit=30, seed=2)
        for rec in selected.members:
            assert rec.aspects == corpus.records[rec.cve_id].aspects


def reference_similarity_order(pool, corpus, model, target_text):
    """The pool's cve_ids by the cosine of each description's token-loop sum
    with the target's, computed one record at a time, ties by cve_id."""

    def summed(text):
        out = np.zeros(model.dim)
        for token in tokenize(text):
            if token in model.vocab:
                out += model.vectors[model.vocab[token]]
        return out

    target_vec = summed(target_text)
    target_norm = float(np.linalg.norm(target_vec))

    def closeness(rec):
        vec = summed(rec.description)
        norm = float(np.linalg.norm(vec))
        if norm == 0.0 or target_norm == 0.0:
            return 0.0
        return float(vec @ target_vec) / (norm * target_norm)

    records = [corpus.records[cve_id] for cve_id in pool.union]
    return [rec.cve_id for rec in sorted(records, key=lambda rec: (-closeness(rec), rec.cve_id))]


def signed_zero_pool():
    """A pool whose descriptions include all-OOV ones and ones that sum to
    zero, over a model with an all -0.0 row, in shuffled cve_id order."""
    tokens = ["alpha", "beta", "gamma", "delta", "zero"]
    rng = np.random.default_rng(5)
    vectors = rng.standard_normal((len(tokens), 3))
    vectors[tokens.index("zero")] = -0.0
    model = EmbeddingModel(dim=3, vocab={t: i for i, t in enumerate(tokens)},
                           vectors=vectors.astype(np.float32))
    texts = ["alpha beta.", "zero.", "unknown words.", "gamma.", "alpha beta.", "delta zero oov.",
             "beta alpha.", "zero zero.", "gamma delta.", "nothing here.", "alpha.", "delta."]
    records = [make_record(f"CVE-2011-{1000 + i}", text) for i, text in enumerate(texts)]
    corpus = Corpus.from_records([records[i] for i in rng.permutation(len(records))])
    union = sorted(rec.cve_id for rec in records)
    pool = ExamplePool(from_software=set(), from_cwe=set(union), union=union)
    return pool, corpus, model


class TestSimilarityBaseline:
    def test_returns_limit_closest(self, big_pool):
        target, db, corpus, model = big_pool
        pool = retrieve_pool(target, db, corpus)
        selected = select_examples_by_similarity(
            pool, corpus, model, target.description, limit=30
        )
        assert selected.selection_mode == SelectionMode.SIMILARITY
        assert len(selected.members) == 30
        assert {rec.cve_id for rec in selected.members} <= set(pool.union)

    def test_most_similar_record_comes_first(self, big_pool):
        target, db, corpus, model = big_pool
        pool = retrieve_pool(target, db, corpus)
        selected = select_examples_by_similarity(
            pool, corpus, model, corpus.records[pool.union[0]].description, limit=5
        )
        assert selected.members[0].cve_id == pool.union[0]

    @pytest.mark.parametrize("target_text", ["alpha beta", "gamma", "zero", "unknown oov words",
                                             "", "delta zero oov"])
    @pytest.mark.parametrize("limit", [1, 5, 30])
    def test_order_matches_the_per_record_loop(self, target_text, limit):
        pool, corpus, model = signed_zero_pool()
        selected = select_examples_by_similarity(pool, corpus, model, target_text, limit=limit)
        want = reference_similarity_order(pool, corpus, model, target_text)
        assert [rec.cve_id for rec in selected.members] == want[:limit]

    def test_order_matches_the_per_record_loop_on_a_large_pool(self, big_pool):
        target, db, corpus, model = big_pool
        pool = retrieve_pool(target, db, corpus)
        for text in (target.description, corpus.records[pool.union[7]].description, "zzqx"):
            selected = select_examples_by_similarity(pool, corpus, model, text, limit=40)
            want = reference_similarity_order(pool, corpus, model, text)
            assert [rec.cve_id for rec in selected.members] == want[:40]

    def test_one_token_sums_fill_for_the_pool(self, big_pool, monkeypatch):
        target, db, corpus, trained = big_pool
        # A new model keeps no sentence vectors yet.
        model = EmbeddingModel(dim=trained.dim, vocab=trained.vocab, vectors=trained.vectors)
        pool = retrieve_pool(target, db, corpus)
        fills = []
        token_sums = EmbeddingModel.token_sums

        def counted(self, token_lists):
            fills.append(len(token_lists))
            return token_sums(self, token_lists)

        monkeypatch.setattr(EmbeddingModel, "token_sums", counted)
        select_examples_by_similarity(pool, corpus, model, "zzqx unseen target", limit=30)
        distinct = {corpus.records[cve_id].description for cve_id in pool.union}
        assert fills == [len(distinct), 1]
