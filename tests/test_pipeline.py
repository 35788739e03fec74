import dataclasses

import numpy as np
import pytest

from helpers import counted_sums, family_corpus, family_mapping
from vulnaug.corpus import AspectKind, mask_aspect
from vulnaug.embed import EmbeddingModel, TrainConfig, tokenize, train_embeddings
from vulnaug.exampler import retrieve_pool
from vulnaug.featcorr import CorrelationModel
from vulnaug.genprompt import MockBackend
from vulnaug.pipeline import AugmentPipeline


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
