"""In-context example selection.

The pool for a target record is the union of its software siblings (via the
mapping database) and every record sharing its CWE. Pools at or under the
limit are used whole; larger pools are clustered and represented by medoids.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .corpus import Corpus, TvdRecord
from .embed import EmbeddingModel, kmeans, sentence_vector
from .genprompt import EXAMPLE_LIMIT
from .mapping import MappingDb, siblings


class SelectionMode(Enum):
    ALL = "all"
    CLUSTER_MEDOIDS = "cluster_medoids"
    # evaluation-only baseline, never the production path
    SIMILARITY = "similarity"


@dataclass
class ExamplePool:
    """Candidate example cve_ids for one target, before size reduction.

    ``from_software`` and ``from_cwe`` keep the two retrieval routes separate
    (both already exclude the target); ``union`` is their deduplicated,
    lexicographically ordered merge.
    """

    from_software: set[str]
    from_cwe: set[str]
    union: list[str]


@dataclass
class ExampleSet:
    members: list[TvdRecord]
    selection_mode: SelectionMode


def retrieve_pool(target: TvdRecord, db: MappingDb, corpus: Corpus) -> ExamplePool:
    """Gather same-software and same-CWE records for a target.

    An unresolvable software name or an absent CWE id simply leaves that half
    of the pool empty. Only records present in the corpus qualify, and the
    target itself never appears in its own pool.
    """
    from_software = {
        cve_id for cve_id in siblings(db, target.cve_id)
        if cve_id != target.cve_id and cve_id in corpus
    }
    from_cwe: set[str] = set()
    if target.cwe_id:
        from_cwe = set(corpus.with_cwe(target.cwe_id)) - {target.cve_id}

    union = sorted(from_software | from_cwe)
    return ExamplePool(from_software=from_software, from_cwe=from_cwe, union=union)


def select_examples(
    pool: ExamplePool,
    corpus: Corpus,
    model: EmbeddingModel,
    limit: int = EXAMPLE_LIMIT,
    seed: int = 0,
) -> ExampleSet:
    """Reduce a pool to at most ``limit`` representative records.

    Pools of size <= limit are returned whole. Larger pools are embedded
    (one :meth:`EmbeddingModel.sentence_vectors` matrix of the descriptions),
    clustered with k = limit, and each non-empty cluster contributes its
    medoid record, ordered by cluster index.
    Empty clusters shrink the result rather than triggering a resample.
    """
    records = [corpus.records[cve_id] for cve_id in pool.union]
    if len(records) <= limit:
        return ExampleSet(members=records, selection_mode=SelectionMode.ALL)

    vectors = model.sentence_vectors([rec.description for rec in records])
    clustering = kmeans(vectors, k=limit, seed=seed)
    members = [
        records[clustering.medoids[c]]
        for c in range(limit)
        if clustering.medoids[c] is not None
    ]
    return ExampleSet(members=members, selection_mode=SelectionMode.CLUSTER_MEDOIDS)


def select_examples_by_similarity(
    pool: ExamplePool,
    corpus: Corpus,
    model: EmbeddingModel,
    target_text: str,
    limit: int = EXAMPLE_LIMIT,
) -> ExampleSet:
    """Evaluation baseline: the ``limit`` pool members whose descriptions are
    cosine-closest to the target text, ties broken by cve_id.

    The descriptions are one :meth:`EmbeddingModel.sentence_vectors` matrix,
    and ``np.vecdot`` takes one BLAS dot per row; a zero norm on either side
    gives closeness 0."""
    records = [corpus.records[cve_id] for cve_id in pool.union]
    vectors = model.sentence_vectors([rec.description for rec in records])
    target_vec = sentence_vector(model, target_text)
    target_norm = float(np.linalg.norm(target_vec))
    norms = np.sqrt(np.vecdot(vectors, vectors))
    closeness = np.divide(np.vecdot(vectors, target_vec), norms * target_norm,
                          out=np.zeros(len(records)), where=(norms != 0.0) & (target_norm != 0.0))
    key = (-closeness).tolist()
    order = sorted(range(len(records)), key=lambda i: (key[i], records[i].cve_id))
    return ExampleSet(members=[records[i] for i in order[:limit]],
                      selection_mode=SelectionMode.SIMILARITY)
