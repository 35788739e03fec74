"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line."""

import itertools
import json
import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from helpers import (
    family_aspects,
    family_corpus,
    family_mapping,
    feed_text,
    make_record,
    masked_eval_fixture,
    pool_fixture,
    prompt_example_records,
    prompt_example_set,
    prompt_target_record,
    struts_gov_records,
)
from vulnaug.cli import cli
from vulnaug.corpus import AspectKind, Corpus, Source, classify_long_tail, gini, mask_aspect
from vulnaug.embed import TrainConfig, kmeans, train_embeddings
from vulnaug.evalkit import evaluate, expected_lookups, effectiveness_threshold, soft_score
from vulnaug.evalkit import CostParams
from vulnaug.exampler import SelectionMode, retrieve_pool, select_examples
from vulnaug.featcorr import (
    CorrTrainConfig,
    build_training_pairs,
    rank_candidates,
    score,
    software_features,
    train_correlation,
)
from vulnaug.genprompt import (
    CandidateAnswer,
    ConstantBackend,
    OracleBackend,
    PromptKind,
    build_baseline,
    build_direct,
    build_fill,
    build_selection,
    extract_known_aspects,
)
from vulnaug.mapping import MappingDb, build_mapping, resolve
from vulnaug.pipeline import AugmentPipeline

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS  {description}")


def gini_oracle(counts):
    n = len(counts)
    mean = sum(counts) / n
    return sum(abs(a - b) for a in counts for b in counts) / (2 * n * n * mean)


def test_criterion_01_gini_oracle():
    with criterion(1, "gini matches O(n^2) oracle on 500 random vectors within 1e-9"):
        started = time.monotonic()
        rnd = random.Random(20240501)
        for _ in range(500):
            n = rnd.randint(1, 200)
            counts = [rnd.randint(0, 1000) for _ in range(n)]
            if sum(counts) == 0:
                counts[rnd.randrange(n)] = 1
            assert abs(gini(counts) - gini_oracle(counts)) < 1e-9
        assert gini([0, 0, 0, 1]) == pytest.approx(0.75, abs=1e-12)
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_02_long_tail_partition():
    with criterion(2, "509-TVD software is non-long-tail, 31 and exactly-50 are long-tail"):
        counts = {"Microsoft Windows": 509, "ToolTalk RPC": 31, "Boundary Soft": 50}
        report = classify_long_tail(counts, threshold=50)
        assert "Microsoft Windows" in report.non_long_tail
        assert "ToolTalk RPC" in report.long_tail
        assert "Boundary Soft" in report.long_tail


def test_criterion_03_name_coreference():
    with criterion(3, "tri-source fixture resolves to one canonical name; 1000 random inserts stay consistent"):
        db = build_mapping(struts_gov_records())
        name_a, cves_a = resolve(db, "CVE-2017-9805")
        name_b, cves_b = resolve(db, "CVE-2018-11776")
        assert name_a == name_b == "Apache Struts"
        assert cves_a == cves_b == ["CVE-2017-9805", "CVE-2018-11776"]

        rng = random.Random(77)
        names = [f"Tool {chr(65 + i)}" for i in range(12)]
        sources = [None, *Source]
        rand_db = MappingDb()
        for step in range(1, 1001):
            rand_db.insert(
                rng.choice(names),
                f"CVE-2020-{1000 + rng.randrange(400)}",
                source=rng.choice(sources),
            )
            if step % 100 == 0 or step == 1000:
                for cve, name in rand_db.cve_to_name.items():
                    assert cve in rand_db.name_to_cves[name]
                for name, cves in rand_db.name_to_cves.items():
                    assert cves
                    for cve in cves:
                        assert rand_db.cve_to_name[cve] == name


def test_criterion_04_example_pool_arithmetic():
    with criterion(4, "6+207 disjoint pool unions to 213 and reduces to exactly 30 medoids"):
        target, db, corpus = pool_fixture()
        pool = retrieve_pool(target, db, corpus)
        assert len(pool.from_software) == 6
        assert len(pool.from_cwe) == 207
        assert not (pool.from_software & pool.from_cwe)
        assert len(pool.union) == 213

        model = train_embeddings(corpus, TrainConfig(seed=4))
        selected = select_examples(pool, corpus, model, limit=30, seed=2)
        cves = [rec.cve_id for rec in selected.members]
        assert len(cves) == 30 and len(set(cves)) == 30
        assert selected.selection_mode == SelectionMode.CLUSTER_MEDOIDS

        small_target = make_record("CVE-2011-0001", "t.", cwe_id="CWE-400")
        small = [small_target] + [
            make_record(f"CVE-2011-{1100 + i}", f"record number {i}.", cwe_id="CWE-400")
            for i in range(14)
        ]
        small_corpus = Corpus.from_records(small)
        small_pool = retrieve_pool(small_target, MappingDb(), small_corpus)
        small_selected = select_examples(small_pool, small_corpus, model, limit=30, seed=2)
        assert len(small_selected.members) == 14
        assert small_selected.selection_mode == SelectionMode.ALL


def test_criterion_05_clustering_invariants():
    with criterion(5, "Lloyd objective non-increasing on 100 random instances; degenerate cases exact"):
        rng = np.random.default_rng(41)
        for trial in range(100):
            n = int(rng.integers(5, 60))
            dim = int(rng.integers(1, 5))
            k = int(rng.integers(1, min(n, 9) + 1))
            pts = rng.normal(size=(n, dim)) * float(rng.uniform(0.5, 10))
            result = kmeans(pts, k, seed=trial)
            history = result.objective_history
            assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))

        pts = rng.normal(size=(12, 3))
        single = kmeans(pts, 1, seed=0)
        np.testing.assert_allclose(single.centroids[0], pts.mean(axis=0))
        singleton = kmeans(pts, 12, seed=0)
        assert sorted(singleton.assignments.tolist()) == list(range(12))
        assert singleton.medoids == list(range(12))

        quad = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        best_cost, best_partition = None, None
        for labels in itertools.product([0, 1], repeat=4):
            if len(set(labels)) < 2:
                continue
            cost = 0.0
            for c in (0, 1):
                members = quad[[i for i in range(4) if labels[i] == c]]
                cost += float(((members - members.mean(axis=0)) ** 2).sum())
            if best_cost is None or cost < best_cost - 1e-12:
                best_cost, best_partition = cost, labels
        result = kmeans(quad, 2, seed=0)
        assert result.objective_history[-1] == pytest.approx(best_cost, abs=1e-9)
        got = result.assignments
        assert (got[0] == got[1]) == (best_partition[0] == best_partition[1])
        assert (got[2] == got[3]) == (best_partition[2] == best_partition[3])
        assert (got[0] == got[2]) == (best_partition[0] == best_partition[2])


def test_criterion_06_prompt_golden_files():
    with criterion(6, "four prompt kinds match frozen snapshots byte-for-byte"):
        record = prompt_target_record()
        masked, _ = mask_aspect(record, AspectKind.VULNERABILITY_TYPE)
        known, missing = extract_known_aspects(masked)
        examples = prompt_example_set()

        direct = build_direct(examples, known, missing, masked.description, masked.cve_id)
        fill = build_fill(examples, known, missing, masked.description, masked.cve_id)
        selection = build_selection(
            examples, known, missing, "Cross-site scripting vulnerability", "stored XSS",
            tvd_text=masked.description, target_cve=masked.cve_id,
        )
        baseline = build_baseline(masked, AspectKind.VULNERABILITY_TYPE,
                                  prompt_example_records(), seed=13)

        for name, prompt in [
            ("direct", direct), ("fill", fill), ("selection", selection), ("baseline", baseline),
        ]:
            frozen = (GOLDEN / f"{name}_cve_2002_1877.txt").read_text(encoding="utf-8")
            assert prompt.text + "\n" == frozen, f"{name} drifted from snapshot"

        assert fill.text.count("(mask)") == len(missing) == 1
        double, _ = mask_aspect(masked, AspectKind.IMPACT)
        known2, missing2 = extract_known_aspects(double)
        fill2 = build_fill(examples, known2, missing2, double.description, double.cve_id)
        assert fill2.text.count("(mask)") == len(missing2) == 2
        assert "is phrase" in baseline.text


def test_criterion_07_training_pair_contract():
    with criterion(7, "pair ratio exactly 2 (or all available) on 50 random corpora; seeds reproduce"):
        aspect_pool = ["overflow", "crash", "remote user", "missing check", "leak",
                       "injection", "panic", "via packet", "poor parsing", "dos"]
        rnd = random.Random(90210)
        built = 0
        while built < 50:
            n = rnd.randint(2, 10)
            records = []
            for i in range(n):
                populated = rnd.sample(list(AspectKind), rnd.randint(0, 5))
                aspects = {kind: f"{rnd.choice(aspect_pool)} {i}" for kind in populated}
                records.append(
                    make_record(f"CVE-2024-{1000 + i}", f"record {i}.", aspects=aspects)
                )
            corpus = Corpus.from_records(records)
            sizes = [len(rec.known_aspects()) for rec in corpus]
            if not any(s >= 2 for s in sizes):
                continue
            built += 1
            pairs = build_training_pairs(corpus, seed=built)
            positives = [p for p in pairs if p.label == 1]
            negatives = [p for p in pairs if p.label == 0]
            expected_pos = sum(s * (s - 1) // 2 for s in sizes)
            total = sum(sizes)
            available_neg = total * (total - 1) // 2 - expected_pos
            assert len(positives) == expected_pos
            assert len(negatives) == min(2 * len(positives), available_neg)
            assert all(p.origin[0] == p.origin[1] for p in positives)
            assert all(p.origin[0] != p.origin[1] for p in negatives)
            assert build_training_pairs(corpus, seed=built) == pairs


def test_criterion_08_correlation_ranking():
    with criterion(8, "held-out accuracy >= 0.9 and planted aspect ranked first in >= 90/100 trials"):
        started = time.monotonic()
        corpus = family_corpus(n_records=200, n_families=5)
        db = family_mapping(corpus)
        embedding = train_embeddings(corpus, TrainConfig(seed=11, epochs=10))
        pairs = build_training_pairs(corpus, seed=5)
        rng = np.random.default_rng(3)
        order = rng.permutation(len(pairs))
        split = int(0.8 * len(pairs))
        train = [pairs[i] for i in order[:split]]
        held_out = [pairs[i] for i in order[split:]]
        model = train_correlation(train, None, embedding,
                                  CorrTrainConfig(learning_rate=0.5, epochs=300))

        correct = sum(
            int((score(model, p.a, p.b) > 0.5) == bool(p.label)) for p in held_out
        )
        accuracy = correct / len(held_out)
        assert accuracy >= 0.9, f"held-out accuracy {accuracy:.3f}"

        wins = 0
        trial_rng = np.random.default_rng(17)
        records = {rec.cve_id: rec for rec in corpus}
        for _ in range(100):
            index = int(trial_rng.integers(200))
            family = index % 5
            target = records[f"CVE-2021-{1000 + index}"]
            masked, truth = mask_aspect(target, AspectKind.ROOT_CAUSE)
            features = software_features(masked, db, corpus)
            assert truth not in features
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
            ranked = rank_candidates(model, features, candidates)
            wins += int(ranked[0].candidate.text == truth)
        assert wins >= 90, f"planted aspect won only {wins}/100 trials"
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_09_metric_properties_and_end_to_end():
    with criterion(9, "metric identities hold; oracle pipeline scores 1.0 and adversarial 0.0"):
        corpus, db, testset = masked_eval_fixture(20)
        embedding = train_embeddings(corpus, TrainConfig(seed=6))

        assert soft_score("buffer overflow zzqx", "buffer overflow zzqx", embedding).f1 == 1.0
        fwd = soft_score("type0 weakness leak", "impact0 cause0 bug", embedding)
        rev = soft_score("leak type0 weakness", "bug impact0 cause0", embedding)
        assert fwd == rev
        assert soft_score("zzaa zzbb", "qqcc qqdd", embedding).f1 == 0.0

        pairs = build_training_pairs(corpus, seed=1)
        correlation = train_correlation(pairs, None, embedding,
                                        CorrTrainConfig(learning_rate=0.5, epochs=100))
        labels = {rec.cve_id: label for rec, _, label in testset}

        oracle = AugmentPipeline(
            corpus=corpus, db=db, embedding=embedding, correlation=correlation,
            backend=OracleBackend(answers=labels), rounds=2,
        )
        report = evaluate(oracle, testset, embedding, db=db,
                          pipeline_id=oracle.identity, dataset_id="masked-20")
        assert report.evaluated == 20 and not report.failures
        assert all(row.mean_f1 == 1.0 for row in report.rows)

        adversarial = AugmentPipeline(
            corpus=corpus, db=db, embedding=embedding, correlation=correlation,
            backend=ConstantBackend("zzqxv"), rounds=2,
        )
        report = evaluate(adversarial, testset, embedding, db=db,
                          pipeline_id=adversarial.identity, dataset_id="masked-20")
        assert report.evaluated == 20
        assert all(row.mean_f1 == 0.0 for row in report.rows)


def test_criterion_10_cost_model_grid():
    with criterion(10, "augmentation beats manual lookup exactly when x > 1/n on the full grid"):
        for n in range(2, 51):
            threshold = effectiveness_threshold(n)
            for step in range(101):
                x = step / 100.0
                result = expected_lookups(CostParams(n=n, x=x))
                gain = result["e_not_augment"] - result["e_augment"]
                if abs(n * x - 1.0) < 1e-9:
                    assert abs(gain) < 1e-9
                else:
                    assert math.copysign(1.0, gain) == math.copysign(1.0, x - threshold)
        assert effectiveness_threshold(2) == 0.5
        tie = expected_lookups(CostParams(n=2, x=0.5))
        assert tie["e_augment"] == 2.0 == tie["e_not_augment"]


def acceptance_feed_records():
    """50 records: 10 fully populated per-software anchors + 40 with one gap."""
    records = []
    for i in range(50):
        s = i % 5
        aspects = {
            AspectKind.VULNERABILITY_TYPE: f"flaw kind{i}",
            AspectKind.ATTACK_VECTOR: f"via port{i}",
            AspectKind.ATTACKER_TYPE: f"group{i} attackers",
            AspectKind.IMPACT: f"impact result{i}",
            AspectKind.ROOT_CAUSE: f"cause bug{i}",
        }
        if i >= 10:
            del aspects[list(AspectKind)[i % 5]]
        description = (
            f"flaw kind{i} in tool{s} lets group{i} attackers cause impact result{i}"
            f" via port{i} because cause bug{i}."
        )
        records.append(
            make_record(
                f"CVE-2023-{2000 + i}",
                description,
                cwe_id=f"CWE-{200 + (i % 4)}",
                aspects=aspects,
                software=[f"tool{s}"],
            )
        )
    return records


def test_criterion_11_end_to_end_determinism(tmp_path):
    with criterion(11, "mock-backend augment over 50 records is byte-identical and under 2 minutes"):
        runner = CliRunner()
        feed = tmp_path / "feed.jsonl"
        feed.write_text(feed_text(acceptance_feed_records()), encoding="utf-8")
        corpus = tmp_path / "corpus.jsonl"
        mapping = tmp_path / "mapping.tsv"
        embedding = tmp_path / "embed.bin"
        correlation = tmp_path / "corr.bin"
        for args in (
            ["ingest", str(feed), "-o", str(corpus)],
            ["build-map", "--corpus", str(corpus), "-o", str(mapping)],
            ["train-embed", "--corpus", str(corpus), "-o", str(embedding)],
            ["train-corr", "--corpus", str(corpus), "--embed", str(embedding),
             "-o", str(correlation)],
        ):
            result = runner.invoke(cli, args)
            assert result.exit_code == 0, result.output

        out = tmp_path / "augmented.jsonl"
        args = [
            "--seed", "11", "--backend", "mock", "augment",
            "--corpus", str(corpus), "--map", str(mapping),
            "--embed", str(embedding), "--corr", str(correlation),
            "-o", str(out),
        ]
        started = time.monotonic()
        result = runner.invoke(cli, args)
        elapsed = time.monotonic() - started
        assert result.exit_code == 0, result.output
        assert elapsed < 120.0, f"augment took {elapsed:.1f}s"
        first = out.read_bytes()
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) == 40

        result = runner.invoke(cli, args)
        assert result.exit_code == 0
        assert out.read_bytes() == first
