"""Tests for the benchmark's own logic.  Run with ``python3 -m pytest bench``."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import gen
import run
from spans import LayerTotals, Pace, checked_p90, median_per_unit, p90_with_tail, self_times


def test_generator_is_deterministic_per_seed():
    spec = gen.CorpusSpec(records=400)
    a, b, c = (gen.generate_corpus(s, spec) for s in (5, 5, 6))
    assert gen.jsonl(a.records) == gen.jsonl(b.records)
    assert gen.jsonl(a.records) != gen.jsonl(c.records)
    assert gen.background_store(5) == gen.background_store(5) != gen.background_store(6)
    assert gen.longtail_targets(5, a, 20) == gen.longtail_targets(5, b, 20)
    assert gen.head_targets(5, a, 10, 0) == gen.head_targets(5, b, 10, 0)
    assert gen.masked_testset(5, a, 4) == gen.masked_testset(5, b, 4)


def test_zipf_counts_are_exact_and_ranked():
    counts = gen.zipf_counts(10000, 300, 1.0)
    assert sum(counts) == 10000
    assert counts == sorted(counts, reverse=True)
    assert counts[0] == round(10000 / sum(1.0 / r for r in range(1, 301)))


def test_targets_follow_the_population_software_sizes():
    corpus = gen.generate_corpus(2, gen.CorpusSpec(records=3000))
    counts = corpus.counts()
    targets = gen.longtail_targets(2, corpus, 40)
    assert len({t["cve_id"] for t in targets}) == 40
    sizes = sorted(counts[corpus.software_of[t["cve_id"]]] for t in targets)
    population = sorted(counts[corpus.software_of[r["cve_id"]]] for r in gen.gap_records(
        corpus, {n for n, c in counts.items() if c <= 50}))
    assert sizes[0] <= population[len(population) // 40]
    assert sizes[-1] >= population[-len(population) // 40 - 1]


def test_generator_shape():
    corpus = gen.generate_corpus(1, gen.CorpusSpec(records=2000))
    records = corpus.records
    assert all(4 <= sum(v is not None for v in r["aspects"].values()) <= 5 for r in records)
    assert any(r["cwe_id"] is None for r in records)
    gov = [r for r in records if r["source"] == "GovCNNVD"]
    assert gov and all(r["first_sentence"].startswith("该") for r in gov)
    for r in records:
        assert all(v in r["description"] for v in r["aspects"].values() if v)
    for t in gen.masked_testset(1, corpus, 5):
        assert t["label"] not in t["description"] and t["aspects"]["vulnerability_type"] is None


def test_self_time_of_nested_spans():
    spans = [
        ["slot", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],  # overlaps a (another thread): counted once
        ["a.child", 2.0, 3.0, 1, 0],
        ["late", 9.0, 12.0, 0, 0],  # runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3])
    totals = LayerTotals(spans)
    assert totals.self_s["slot"] == pytest.approx(4.0)
    assert totals.calls["a"] == 1 and totals.total["late"] == pytest.approx(3.0)


def test_self_times_of_one_tree_sum_to_its_root():
    spans = [["slot", 0.0, 8.0, -1, 0], ["x", 1.0, 5.0, 0, 0], ["y", 1.5, 2.5, 1, 0],
             ["z", 3.0, 4.5, 1, 0], ["w", 6.0, 7.0, 0, 0]]
    assert sum(self_times(spans)) == pytest.approx(8.0)


def test_merge_spans_shifts_indices():
    merged = run.merge_spans([[["p", 0, 1, -1, -1]], [["q", 0, 2, -1, 0], ["r", 0, 1, 0, 0]]])
    assert [s[3:] for s in merged] == [[-1, -1], [-1, 1], [1, 1]]


def test_p90_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(100)]
    p90, beyond = p90_with_tail(samples)
    assert beyond == 10 and 89 < p90 < 91
    assert checked_p90(samples) == p90
    with pytest.raises(ValueError):
        checked_p90(samples[:60])


def test_workload_sizes_meet_the_percentile_rule():
    assert run.LONGTAIL_TARGETS >= 100  # every target record has exactly one gap


def test_median_per_unit_takes_each_units_median_repeat():
    assert median_per_unit([[3.0, 1.0, 5.0], [2.0, 4.0, 5.5], [9.0, 2.0, 5.2]]) == [3.0, 2.0, 5.2]
    with pytest.raises(ValueError):
        median_per_unit([[1.0], [1.0, 2.0]])


def test_pace_scales_by_the_mean_speed_around_an_interval():
    nominal = Pace.NOMINAL_S
    # Full speed until t=10, then half speed.
    pace = Pace([(t / 100, nominal if t < 1000 else 2 * nominal) for t in range(2000)])
    assert pace.scale(3.0, 2.0, 5.0) == pytest.approx(3.0)
    assert pace.scale(3.0, 12.0, 15.0) == pytest.approx(1.5)
    # Half the samples at each speed: mean speed 0.75.
    assert pace.speed(5.0 + Pace.PAD_S, 15.0 - Pace.PAD_S) == pytest.approx(0.75, abs=0.01)
    with pytest.raises(ValueError):
        pace.speed(30.0, 31.0)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _augment_output(path: Path, answer_first: bool) -> list[dict]:
    cands = [{"text": f"c{i}", "score": 1.0 - i / 10, "round": i + 1,
              "strategy": "selection"} for i in range(run.ROUNDS)]
    row = {"cve_id": "CVE-2010-10000", "aspect": "impact", "candidates": cands,
           "answer": "c0" if answer_first else "c1", "score": 1.0,
           "pool_size": 3, "examples": 3}
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    return [{"cve_id": "CVE-2010-10000",
             "aspects": {k: (None if k == "impact" else "x") for k in gen.ASPECT_KEYS}}]


def test_augment_output_check(tmp_path):
    out = tmp_path / "out.jsonl"
    targets = _augment_output(out, answer_first=True)
    assert run.check_augment_output(out, targets) == 1
    _augment_output(out, answer_first=False)
    with pytest.raises(run.CheckFailed):
        run.check_augment_output(out, targets)


COUNTS = ("genprompt.backend.calls", "featcorr.score_evals", "embed.sentence_vector.calls",
          "embed.kmeans.calls", "featcorr.tower_vector.calls",
          "featcorr.fetch_background.calls", "genprompt.prompt_bytes",
          "exampler.pool_size.max", "featcorr.features_per_slot.max")


@pytest.mark.skipif(not (run.PACKAGE / "cli.py").is_file(), reason="needs the package sources")
def test_traced_counts_repeat_exactly(tmp_path):
    runner = run.Runner(tmp_path)
    corpus = gen.generate_corpus(3, gen.CorpusSpec(records=600))
    feeds = run.write_feeds(runner, corpus, "c")
    p = runner.path
    runner.vulnaug(["ingest", *feeds, "-o", p("corpus.jsonl")])
    runner.vulnaug(["build-map", "--corpus", p("corpus.jsonl"), "-o", p("map.tsv")])
    runner.vulnaug(["train-embed", "--corpus", p("corpus.jsonl"), "--epochs", 1,
                    "-o", p("embed.bin")])
    p("bg.tsv").write_text("\n".join(gen.background_store(3, articles=50)) + "\n")
    targets = gen.head_targets(3, corpus, 3, 0) + gen.longtail_targets(3, corpus, 3)
    p("targets.jsonl").write_text(gen.jsonl(targets))
    pairs, layers = [], []
    for i in range(2):
        corr = runner.vulnaug(["train-corr", "--corpus", p("corpus.jsonl"), "--embed",
                               p("embed.bin"), "--epochs", 5, "-o", p(f"corr{i}.bin")], "trace")
        pairs.append(corr.report["notes"]["featcorr.build_training_pairs"])
        traced = runner.vulnaug(
            ["--jobs", 2, "augment", "--corpus", p("corpus.jsonl"), "--map", p("map.tsv"),
             "--embed", p("embed.bin"), "--corr", p("corr0.bin"), "--background", p("bg.tsv"),
             "--targets", p("targets.jsonl"), "--backend", "mock", "-o", p(f"out{i}.jsonl")],
            "trace")
        assert traced.report["unwrapped"] == []
        layers.append(run.augment_layers(traced.report))
    assert pairs[0] == pairs[1] and pairs[0][0] > 0
    assert [layers[0][k] for k in COUNTS] == [layers[1][k] for k in COUNTS]
    slots = run.check_augment_output(p("out0.jsonl"), targets)
    assert layers[0]["genprompt.backend.calls"] == 3 * run.ROUNDS * slots
    assert layers[0]["embed.kmeans.calls"] > 0
    assert layers[0]["trace.slot_accounted_ratio"] > 0.9
