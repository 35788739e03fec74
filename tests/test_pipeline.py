import dataclasses

import numpy as np
import pytest

from helpers import counted_sums, family_corpus, family_mapping
from vulnaug.corpus import AspectKind, mask_aspect
from vulnaug.embed import EmbeddingModel, TrainConfig, tokenize, train_embeddings
from vulnaug.exampler import retrieve_pool
from vulnaug.featcorr import CorrelationModel, RankedCandidate
from vulnaug.genprompt import CandidateAnswer, MockBackend, PromptKind
from vulnaug.pipeline import AugmentOutcome, AugmentPipeline


@pytest.fixture(scope="module")
def family():
    corpus = family_corpus()
    embedding = train_embeddings(corpus, TrainConfig(seed=11, epochs=2))
    return corpus, family_mapping(corpus), embedding


def pipeline(family, **settings):
    corpus, db, embedding = family
    correlation = CorrelationModel(embedding=embedding, weights=np.zeros(2 * embedding.dim + 1),
                                   bias=0.0)
    return AugmentPipeline(corpus=corpus, db=db, embedding=embedding, correlation=correlation,
                           backend=MockBackend(), **settings)


class TestSettings:
    @pytest.mark.parametrize("key,value", [
        ("rounds", 0), ("rounds", -2), ("example_limit", 0), ("example_limit", -1),
        ("example_strategy", "foo"), ("example_strategy", "Cluster"),
        ("temperature", -0.5), ("temperature", float("nan")), ("temperature", float("-inf")),
    ])
    def test_bad_setting_raises_naming_it(self, family, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be"):
            pipeline(family, **{key: value})

    def test_good_settings_build(self, family):
        built = pipeline(family, rounds=1, example_limit=1, example_strategy="similarity",
                         temperature=0.0)
        assert built.identity.endswith("limit=1,examples=similarity)")


class TestAugmentOutcome:
    def outcome(self):
        best = CandidateAnswer(AspectKind.IMPACT, "exécution de code à distance",
                               PromptKind.SELECTION, 2, "mock")
        other = CandidateAnswer(AspectKind.IMPACT, "denial of service",
                                PromptKind.DIRECT_GENERATION, 1, "mock")
        return AugmentOutcome(
            cve_id="CVE-2021-1000", aspect=AspectKind.IMPACT,
            ranked=[RankedCandidate(best, 0.75), RankedCandidate(other, 0.25)],
            pool_size=12, example_cves=["CVE-2021-1001", "CVE-2021-1002"], failed_rounds=1)

    def test_row_is_the_augment_output_line(self):
        # Sorted keys, raw UTF-8, and example_cves only when asked for.
        candidates = ('"candidates": [{"round": 2, "score": 0.75, "strategy": "selection",'
                      ' "text": "exécution de code à distance"}, {"round": 1, "score": 0.25,'
                      ' "strategy": "direct_generation", "text": "denial of service"}]')
        head = ('{"answer": "exécution de code à distance", "aspect": "impact", '
                + candidates + ', "cve_id": "CVE-2021-1000", ')
        tail = '"examples": 2, "failed_rounds": 1, "pool_size": 12, "score": 0.75}'
        outcome = self.outcome()
        assert outcome.to_row() == head + tail
        assert outcome.to_row(dump_examples=True) == (
            head + '"example_cves": ["CVE-2021-1001", "CVE-2021-1002"], ' + tail)

    def test_answer_and_score_are_the_top_candidates(self):
        outcome = self.outcome()
        assert (outcome.answer, outcome.score) == ("exécution de code à distance", 0.75)
        outcome.ranked.reverse()
        assert (outcome.answer, outcome.score) == ("denial of service", 0.25)


class TestSharedEmbedding:
    def test_pipelines_sharing_an_embedding_sum_each_text_once(self, family):
        # Every target's software has 39 other records, above the limit of
        # 30, so both slots cluster the same pool. The two pipelines share
        # one embedding and one correlation model, so every description,
        # aspect text and feature is summed once in all.
        corpus, db, trained = family
        embedding = EmbeddingModel(dim=trained.dim, vocab=trained.vocab, vectors=trained.vectors)
        first = pipeline((corpus, db, embedding), rounds=1)
        second = dataclasses.replace(first, backend=MockBackend())
        masked, _ = mask_aspect(corpus.get("CVE-2021-1000"), AspectKind.IMPACT)
        with counted_sums() as calls:
            one = first.augment(masked, AspectKind.IMPACT)
            two = second.augment(masked, AspectKind.IMPACT)
        assert one == two and one.pool_size == 39 and len(one.example_cves) <= 30
        descriptions = {" ".join(tokenize(corpus.get(cve).description))
                        for cve in retrieve_pool(masked, db, corpus).union}
        assert len(descriptions) == 39
        assert descriptions <= set(calls)
        assert set(calls.values()) == {1}
