"""vulnaug benchmark: runs the real CLI with the mock backend on seeded inputs.

    python3 bench/run.py --workload train|augment-longtail \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Inputs come from ``gen.py`` under the seed;
the program receives only the generated files. Each ``vulnaug`` command runs
in a fresh process through ``probe.py``. With ``--trace 0`` the last line of
stdout is a JSON object with every end-to-end metric; with ``--trace 1`` the
run also makes one traced pass and reports every per-layer metric instead.
Any failed correctness check prints the reason to stderr and exits 1.

The commands run pinned to one CPU beside ``pace.py``, and every reported
time is in reference seconds: CPU seconds scaled by the host's speed while
they were spent (``spans.Pace``).

Scratch files live in ``bench/.work`` and are removed on exit. The embedding
and correlation fixtures the augment workloads rank with are trained by the
code under test on a fixed 1k-record slice and cached in ``bench/.cache``
under a hash of the package sources, so a checkout builds them once.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import inspect
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "vulnaug"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
from spans import LayerTotals, Pace, checked_p90, median_per_unit  # noqa: E402

ROUNDS = 5
#: Every process of one run must finish within this many seconds of the run's
#: start (the fixture build, done once per checkout, gets its own budget).
RUN_BUDGET_S = 170
FIXTURE_SEED = 20240507
FIXTURE_RECORDS = 1000
TRAIN_RECORDS = 1000
TESTSET_RECORDS = 8
SETUP_PROBES = 4
STAGES = ("ingest", "build-map", "train-embed", "train-corr")


LONGTAIL_RECORDS = 5000
LONGTAIL_TARGETS = 155
#: --jobs of one extra, untimed command per run whose output must match the
#: timed --jobs 1 output, and whose slot rate feeds cli.jobs_speedup. Timed
#: commands run at --jobs 1: with two threads, a shared host's stalls on one
#: vCPU also stall the GIL holder's partner, and wall time swung 2x within
#: minutes.
CHECK_JOBS = 2
WORKLOADS = ("train", "augment-longtail")

END_TO_END = {
    "command_s": "s", "setup_s": "s", "slots_per_s": "1/s", "slot_p50_ms": "ms",
    "slot_p90_ms": "ms", "peak_rss_mb": "MB",
}

PER_LAYER = {
    "featcorr.fetch_background.self_s": "s", "featcorr.fetch_background.calls": "count",
    "featcorr.tower_vector.calls": "count", "featcorr.tower_vector.distinct_ratio": "ratio",
    "featcorr.rank_candidates.self_s": "s", "featcorr.rank_candidates.p90_ms": "ms",
    "featcorr.score_evals": "count", "featcorr.software_features.self_s": "s",
    "featcorr.features_per_slot.mean": "count", "featcorr.features_per_slot.max": "count",
    "exampler.select_examples.self_s": "s", "exampler.cluster_ratio": "ratio",
    "embed.kmeans.self_s": "s", "embed.kmeans.calls": "count",
    "embed.kmeans.iters_mean": "count", "embed.sentence_vector.calls": "count",
    "exampler.retrieve_pool.self_s": "s", "exampler.retrieve_pool.p50_ms": "ms",
    "exampler.pool_size.mean": "count", "exampler.pool_size.max": "count",
    "genprompt.generate_candidates.self_s": "s", "genprompt.backend.calls": "count",
    "genprompt.backend.self_s": "s", "genprompt.prompt_bytes": "bytes",
    "genprompt.failed_rounds": "count",
    "corpus.parse_feed.s": "s", "mapping.load_mapping.s": "s", "embed.load.s": "s",
    "featcorr.load.s": "s", "featcorr.store_load.s": "s",
    **{f"stage.{st.replace('-', '_')}.{m}": u for st in STAGES
       for m, u in (("s", "s"), ("peak_rss_mb", "MB"))},
    "embed.train_embeddings.self_s": "s", "embed.train_tokens_per_s": "1/s",
    "featcorr.build_training_pairs.self_s": "s", "featcorr.build_training_pairs.pairs": "count",
    "featcorr.train_correlation.self_s": "s",
    "pipeline.augment.calls": "count", "pipeline.augment.total_s": "s",
    "pipeline.augment.self_s": "s", "trace.slot_accounted_ratio": "ratio",
    "trace.command_s": "s", "trace.overhead_s": "s", "trace.overhead_ratio": "ratio",
    "cli.jobs2_slots_per_s": "1/s", "cli.jobs_speedup": "ratio",
    "host.reference_chunk_ms": "ms", "failed_ratio": "ratio",
}


class CheckFailed(Exception):
    """An output of the program did not match what the benchmark expects."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class Proc:
    """One finished ``vulnaug`` process: its probe report, stdout, and the
    ``perf_counter`` stamps of its spawn and exit."""

    report: dict
    stdout: str
    start: float
    end: float

    @property
    def cpu(self) -> float:
        """CPU seconds of the whole process, interpreter start-up included."""
        return self.report["cpu"]

    @property
    def slots(self) -> list[tuple[float, float, float]]:
        """(wall start, wall end, CPU seconds) of each slot."""
        return self.report["slots"]

    @property
    def slot_rate(self) -> float:
        """Slots per wall second between the first slot start and the last slot end."""
        return len(self.slots) / (max(s[1] for s in self.slots) - min(s[0] for s in self.slots))

    @property
    def rss_mb(self) -> float:
        return self.report["maxrss_kb"] / 1024.0

    @property
    def setup(self) -> float:
        """CPU seconds until the first slot starts."""
        return self.report["setup_cpu"]

    def ref_cpu(self, pace: Pace) -> float:
        """Reference seconds of the whole process."""
        return pace.scale(self.cpu, self.start, self.end)

    def ref_setup(self, pace: Pace) -> float:
        """Reference seconds until the first slot starts."""
        return pace.scale(self.setup, self.start, min(s[0] for s in self.slots))

    def ref_slots(self, pace: Pace) -> list[float]:
        """Reference seconds of each slot."""
        return [pace.scale(cpu, start, end) for start, end, cpu in self.slots]


class Runner:
    """Spawns probe processes inside one scratch directory.

    With :meth:`start_pace`, the runner pins itself, and so every command it
    spawns, to one CPU and runs ``pace.py`` beside them on that CPU.
    """

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.count = 0
        self.pace_proc: subprocess.Popen | None = None
        self.all_cpus = os.sched_getaffinity(0)
        self.restart_clock()
        # One BLAS thread: the program's matrices are small, and idle BLAS
        # workers spin on the same two CPUs as the --jobs threads.
        self.env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
                        OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def restart_clock(self) -> None:
        self.deadline = time.perf_counter() + RUN_BUDGET_S

    def path(self, name: str) -> Path:
        return self.workdir / name

    def start_pace(self) -> None:
        os.sched_setaffinity(0, {max(self.all_cpus)})
        self.pace_proc = subprocess.Popen(
            [sys.executable, str(BENCH / "pace.py"), str(self.path("pace.bin"))],
            cwd=self.workdir, env=self.env)

    def stop_pace(self) -> Pace:
        """Stop ``pace.py`` and return its samples."""
        self.close()
        raw = array("d")
        raw.frombytes(self.path("pace.bin").read_bytes())
        return Pace(list(zip(raw[0::2], raw[1::2])))

    def close(self) -> None:
        if self.pace_proc is not None:
            self.pace_proc.terminate()
            self.pace_proc.wait()
            self.pace_proc = None

    def vulnaug(self, args: list, mode: str = "plain", every_cpu: bool = False) -> Proc:
        """Run one command in a fresh probe process, on every CPU if ``every_cpu``."""
        self.count += 1
        report = self.path(f"report-{self.count}.json")
        cmd = [sys.executable, str(BENCH / "probe.py"), str(report), mode, "--",
               *[str(a) for a in args]]
        widen = (lambda: os.sched_setaffinity(0, self.all_cpus)) if every_cpu else None
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=self.workdir, env=self.env, text=True, preexec_fn=widen,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
            try:
                stdout, stderr = child.communicate(
                    timeout=self.deadline - time.perf_counter())
            except BaseException:
                child.kill()
                child.wait()
                raise
        end = time.perf_counter()
        if child.returncode != 0:
            raise CheckFailed(f"vulnaug {' '.join(map(str, args))} exited"
                              f" {child.returncode}: {stderr.strip()[-2000:]}")
        return Proc(json.loads(report.read_text(encoding="utf-8")), stdout, start, end)


# --- inputs -------------------------------------------------------------------


def write_feeds(runner: Runner, corpus: gen.Corpus, prefix: str) -> list[Path]:
    feeds = [runner.path(f"{prefix}-gov.jsonl"), runner.path(f"{prefix}-cve.jsonl")]
    feeds[0].write_text(gen.jsonl(corpus.gov_feed), encoding="utf-8")
    feeds[1].write_text(gen.jsonl(corpus.cve_feed), encoding="utf-8")
    return feeds


def fixture_key() -> str:
    """Hash of everything the fixtures depend on: the package and generator
    sources, the commands that build them, and the numpy version."""
    digest = hashlib.sha256(f"{FIXTURE_SEED}/{FIXTURE_RECORDS}".encode())
    digest.update(inspect.getsource(fixtures).encode())
    digest.update(importlib.metadata.version("numpy").encode())
    for path in sorted(PACKAGE.rglob("*.py")) + [BENCH / "gen.py"]:
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def fixtures(runner: Runner) -> Path:
    """Embedding and correlation models trained once per source tree on a fixed slice.

    The slice stays at 1k records because train-corr memory grows with the
    square of the record count (about 1 GB at 1k records); the augment corpora are
    5-10x larger.
    """
    final = BENCH / ".cache" / f"fixture-{fixture_key()}"
    if (final / "corr.bin").exists():
        return final
    corpus = gen.generate_corpus(FIXTURE_SEED, gen.CorpusSpec(records=FIXTURE_RECORDS))
    feeds = write_feeds(runner, corpus, "fixture")
    tmp = runner.path("fixture")
    tmp.mkdir()
    runner.vulnaug(["ingest", *feeds, "-o", tmp / "corpus.jsonl"])
    runner.vulnaug(["train-embed", "--corpus", tmp / "corpus.jsonl", "-o", tmp / "embed.bin"])
    runner.vulnaug(["train-corr", "--corpus", tmp / "corpus.jsonl", "--embed",
                    tmp / "embed.bin", "-o", tmp / "corr.bin"])
    final.parent.mkdir(exist_ok=True)
    for stale in final.parent.glob("fixture-*"):
        if stale != final:  # a parallel run may be reading a just-installed one
            shutil.rmtree(stale, ignore_errors=True)
    try:
        os.replace(tmp, final)
    except OSError:  # another run finished the same fixture first
        if not (final / "corr.bin").exists():
            raise
    return final


# --- checks ---------------------------------------------------------------------


def check_augment_output(path: Path, targets: list[dict]) -> int:
    """Structure of one augment output; returns the slot count."""
    expected = sorted((t["cve_id"], k) for t in targets for k in gen.ASPECT_KEYS
                      if t["aspects"][k] is None)
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    check([(r["cve_id"], r["aspect"]) for r in rows] == expected,
          f"{path.name}: slots differ from the targets' gaps")
    for r in rows:
        cands = r["candidates"]
        check(len(cands) == ROUNDS, f"{r['cve_id']}/{r['aspect']}: {len(cands)} candidates")
        scores = [c["score"] for c in cands]
        check(scores == sorted(scores, reverse=True), f"{r['cve_id']}: candidates not sorted")
        check(r["answer"] == cands[0]["text"] and r["score"] == cands[0]["score"],
              f"{r['cve_id']}: answer is not the first candidate")
    return len(rows)


def lines_for(path: Path, cve_ids: set[str]) -> list[str]:
    return [line for line in path.read_text(encoding="utf-8").splitlines()
            if json.loads(line)["cve_id"] in cve_ids]


def check_evaluate(runner: Runner, common: list, corpus: gen.Corpus, seed: int) -> None:
    testset = gen.masked_testset(seed, corpus, TESTSET_RECORDS)
    path = runner.path("testset.jsonl")
    path.write_text(gen.jsonl(testset), encoding="utf-8")
    prefix = runner.path("eval")
    runner.vulnaug(["evaluate", *common, "--testset", path, "--backend", "oracle",
                    "-o", prefix])
    text = prefix.with_suffix(".txt").read_text(encoding="utf-8")
    check(f"evaluated: {len(testset)}  failures: 0" in text, f"oracle evaluate: {text!r}")
    rows = [json.loads(line) for line in
            prefix.with_suffix(".jsonl").read_text(encoding="utf-8").splitlines()]
    total = sum(r["count"] for r in rows)
    mean = math.fsum(r["mean_f1"] * r["count"] for r in rows) / total
    check(total == len(testset) and mean == 1.0, f"oracle evaluate mean_f1 {mean}")


# --- workloads ------------------------------------------------------------------


def repeat(seconds: float, make):
    """``make(i)`` for i = 0, 1, ... until ``seconds`` have passed, at least once.

    Whole commands are repeated, so a run may measure longer than ``seconds``:
    one training pass takes 20-30 s.
    """
    results = []
    started = time.perf_counter()
    while not results or time.perf_counter() - started < seconds:
        results.append(make(len(results)))
    return results


def run_augment(runner: Runner, seed: int, seconds: float, trace: bool):
    fix = fixtures(runner)
    runner.restart_clock()
    corpus = gen.generate_corpus(seed, gen.CorpusSpec(records=LONGTAIL_RECORDS))
    feeds = write_feeds(runner, corpus, "corpus")
    runner.vulnaug(["ingest", *feeds, "-o", runner.path("corpus.jsonl")])
    runner.vulnaug(["build-map", "--corpus", runner.path("corpus.jsonl"),
                    "-o", runner.path("mapping.tsv")])
    common = ["--corpus", runner.path("corpus.jsonl"), "--map", runner.path("mapping.tsv"),
              "--embed", fix / "embed.bin", "--corr", fix / "corr.bin",
              "--background", runner.path("background.tsv")]
    runner.path("background.tsv").write_text(
        "\n".join(gen.background_store(seed)) + "\n", encoding="utf-8")
    targets = gen.longtail_targets(seed, corpus, LONGTAIL_TARGETS)
    runner.path("targets.jsonl").write_text(gen.jsonl(targets), encoding="utf-8")
    runner.path("probe-targets.jsonl").write_text(gen.jsonl(targets[:1]), encoding="utf-8")

    def args(out: str, jobs: int = 1, targets_file: str = "targets.jsonl") -> list:
        return ["--jobs", jobs, "augment", *common, "--targets", runner.path(targets_file),
                "--backend", "mock", "--rounds", ROUNDS, "-o", runner.path(out)]

    main = repeat(seconds, lambda i: runner.vulnaug(args(f"out-{i}.jsonl")))
    probes = [runner.vulnaug(args(f"probe-{i}.jsonl", 1, "probe-targets.jsonl"))
              for i in range(SETUP_PROBES)]
    parallel = runner.vulnaug(args("parallel.jsonl", CHECK_JOBS), every_cpu=True)

    slots = check_augment_output(runner.path("out-0.jsonl"), targets)
    digest = sha256(runner.path("out-0.jsonl"))
    for i, proc in enumerate(main):
        check(sha256(runner.path(f"out-{i}.jsonl")) == digest, f"repeat {i} output differs")
        check(len(proc.slots) == slots, f"repeat {i}: {len(proc.slots)} timed slots")
        check(proc.report["backend_calls"] == 3 * ROUNDS * slots,
              f"repeat {i}: {proc.report['backend_calls']} backend calls for {slots} slots")
    probe_ids = {targets[0]["cve_id"]}
    for i in range(SETUP_PROBES):
        check(lines_for(runner.path(f"probe-{i}.jsonl"), probe_ids)
              == lines_for(runner.path("out-0.jsonl"), probe_ids),
              f"probe {i} differs from the full output")
    check(sha256(runner.path("parallel.jsonl")) == digest,
          f"--jobs {CHECK_JOBS} output differs from --jobs 1")
    check_evaluate(runner, common, corpus, seed)
    print(f"augment output sha256 {digest} ({slots} slots, seed {seed})")

    traced = runner.vulnaug(args("traced.jsonl"), "trace") if trace else None
    pace = runner.stop_pace()
    # --jobs 1 runs the slots in target order, so slot i is the same work in
    # every repeat.
    durations = median_per_unit([proc.ref_slots(pace) for proc in main])
    metrics = {
        "command_s": statistics.median(p.ref_cpu(pace) for p in main),
        "setup_s": statistics.median(p.ref_setup(pace) for p in main + probes),
        "slots_per_s": slots / math.fsum(durations),
        "slot_p50_ms": 1000.0 * statistics.median(durations),
        "slot_p90_ms": 1000.0 * checked_p90(durations),
        "peak_rss_mb": max(p.rss_mb for p in main + probes),
    }
    attempted = slots * len(main)
    if not trace:
        return attempted, metrics

    layers = {
        "failed_ratio": 0.0,
        "host.reference_chunk_ms": 1000.0 * pace.median_chunk_s(),
        "cli.jobs2_slots_per_s": parallel.slot_rate,
        "cli.jobs_speedup": parallel.slot_rate / statistics.median(p.slot_rate for p in main),
    }
    check(sha256(runner.path("traced.jsonl")) == digest, "traced output differs")
    layers.update(augment_layers(traced.report))
    check(layers["genprompt.backend.calls"] == 3 * ROUNDS * slots, "traced backend calls")
    layers["trace.command_s"] = traced.ref_cpu(pace)
    layers["trace.overhead_s"] = layers["trace.command_s"] - metrics["command_s"]
    layers["trace.overhead_ratio"] = layers["trace.overhead_s"] / metrics["command_s"]
    return attempted, layers


def augment_layers(report: dict) -> dict[str, float]:
    """Per-layer metrics from the spans and notes of traced processes."""
    t = LayerTotals(report["spans"])
    notes = report["notes"]

    def mean(name: str) -> float:
        values = notes.get(name)
        return statistics.fmean(values) if values else 0.0

    def most(name: str) -> float:
        return max(notes.get(name) or [0])

    slot = "pipeline.augment"
    out = {f"{name}.self_s": t.self_s[name] for name in (
        "featcorr.fetch_background", "featcorr.rank_candidates",
        "featcorr.software_features", "exampler.select_examples", "embed.kmeans",
        "exampler.retrieve_pool", "genprompt.generate_candidates", "genprompt.backend")}
    out.update({f"{name}.s": t.total[name] for name in (
        "corpus.parse_feed", "mapping.load_mapping", "embed.load", "featcorr.load",
        "featcorr.store_load")})
    out.update({
        "featcorr.fetch_background.calls": t.calls["featcorr.fetch_background"],
        "featcorr.tower_vector.calls": t.calls["featcorr.tower_vector"],
        "featcorr.tower_vector.distinct_ratio":
            most("featcorr.tower_vector.distinct") / max(1, t.calls["featcorr.tower_vector"]),
        "featcorr.rank_candidates.p90_ms": t.p90_ms("featcorr.rank_candidates"),
        "featcorr.score_evals": sum(notes.get("featcorr.rank_candidates", [])),
        "featcorr.features_per_slot.mean": mean("featcorr.software_features"),
        "featcorr.features_per_slot.max": most("featcorr.software_features"),
        "exampler.cluster_ratio":
            t.calls["embed.kmeans"] / max(1, t.calls["exampler.select_examples"]),
        "embed.kmeans.calls": t.calls["embed.kmeans"],
        "embed.kmeans.iters_mean": mean("embed.kmeans"),
        "embed.sentence_vector.calls": t.calls["embed.sentence_vector"],
        "exampler.retrieve_pool.p50_ms": t.median_ms("exampler.retrieve_pool"),
        "exampler.pool_size.mean": mean("exampler.retrieve_pool"),
        "exampler.pool_size.max": most("exampler.retrieve_pool"),
        "genprompt.backend.calls": t.calls["genprompt.backend"],
        "genprompt.prompt_bytes": sum(notes.get("genprompt.backend", [])),
        "genprompt.failed_rounds": sum(notes.get("genprompt.generate_candidates", [])),
        "pipeline.augment.calls": t.calls[slot],
        "pipeline.augment.total_s": t.total[slot],
        "pipeline.augment.self_s": t.self_s[slot],
        "trace.slot_accounted_ratio":
            1.0 - t.self_s[slot] / t.total[slot] if t.total[slot] else 0.0,
    })
    return out


def run_train(runner: Runner, seed: int, seconds: float, trace: bool):
    corpus = gen.generate_corpus(seed, gen.CorpusSpec(records=TRAIN_RECORDS))
    feeds = write_feeds(runner, corpus, "feed")

    def train_pass(tag: str, mode: str = "plain") -> dict[str, Proc]:
        c, m, e, r = (runner.path(f"{tag}-{x}") for x in
                      ("corpus.jsonl", "mapping.tsv", "embed.bin", "corr.bin"))
        return {
            "ingest": runner.vulnaug(["ingest", *feeds, "-o", c], mode),
            "build-map": runner.vulnaug(["build-map", "--corpus", c, "-o", m], mode),
            "train-embed": runner.vulnaug(["train-embed", "--corpus", c, "-o", e], mode),
            "train-corr": runner.vulnaug(["train-corr", "--corpus", c, "--embed", e,
                                          "-o", r], mode),
        }

    def digests(tag: str) -> list[str]:
        return [sha256(runner.path(f"{tag}-{x}")) for x in
                ("corpus.jsonl", "mapping.tsv", "embed.bin", "corr.bin")]

    passes = repeat(seconds, lambda i: train_pass(f"pass{i}"))
    # One ingest is short and noisy, so set-up gets more samples than the passes.
    ingests = [p["ingest"] for p in passes] + [
        runner.vulnaug(["ingest", *feeds, "-o", runner.path(f"ingest-{i}.jsonl")])
        for i in range(SETUP_PROBES)]
    first = passes[0]
    check_train_output(first, len(corpus.gov_feed), TRAIN_RECORDS)
    for i in range(1, len(passes)):
        check(digests(f"pass{i}") == digests("pass0"), f"training pass {i} output differs")
    for i in range(SETUP_PROBES):
        check(sha256(runner.path(f"ingest-{i}.jsonl")) == digests("pass0")[0],
              f"ingest probe {i} output differs")
    # The median stage is the mean of build-map and train-corr, which a pass
    # runs once each: one more run of both gives them three samples or two.
    corpus_file, embed_file = runner.path("pass0-corpus.jsonl"), runner.path("pass0-embed.bin")
    extra = {
        "build-map": runner.vulnaug(["build-map", "--corpus", corpus_file,
                                     "-o", runner.path("extra-mapping.tsv")]),
        "train-corr": runner.vulnaug(["train-corr", "--corpus", corpus_file, "--embed",
                                      embed_file, "-o", runner.path("extra-corr.bin")]),
    }
    check([sha256(runner.path("extra-mapping.tsv")), sha256(runner.path("extra-corr.bin"))]
          == digests("pass0")[1::2], "repeated build-map or train-corr output differs")

    traced = train_pass("traced", "trace") if trace else None
    pace = runner.stop_pace()
    # Train's slots are its four stages, each timed by its median over every
    # run of it, as augment times each slot.
    runs = {st: [p[st] for p in passes] for st in STAGES}
    runs["ingest"] = ingests
    for st, proc in extra.items():
        runs[st].append(proc)
    stage_s = [statistics.median(proc.ref_cpu(pace) for proc in runs[st]) for st in STAGES]
    metrics = {
        "command_s": statistics.median(math.fsum(proc.ref_cpu(pace) for proc in p.values())
                                       for p in passes),
        # The ingest stage prepares the corpus every later stage reads.
        "setup_s": statistics.median(p.ref_cpu(pace) for p in ingests),
        "slots_per_s": len(STAGES) / math.fsum(stage_s),
        "slot_p50_ms": 1000.0 * statistics.median(stage_s),
        # Four stages cannot put ten samples beyond a p90: report the slowest.
        "slot_p90_ms": 1000.0 * max(stage_s),
        "peak_rss_mb": max(proc.rss_mb for procs in runs.values() for proc in procs),
    }
    attempted = sum(len(procs) for procs in runs.values())
    if not trace:
        return attempted, metrics

    layers: dict[str, float] = {"failed_ratio": 0.0,
                                "host.reference_chunk_ms": 1000.0 * pace.median_chunk_s()}
    for st, seconds in zip(STAGES, stage_s):
        key = st.replace("-", "_")
        layers[f"stage.{key}.s"] = seconds
        layers[f"stage.{key}.peak_rss_mb"] = max(proc.rss_mb for proc in runs[st])
    check(digests("traced") == digests("pass0"), "traced training output differs")
    spans = merge_spans([proc.report["spans"] for proc in traced.values()])
    notes: dict[str, list] = {}
    for proc in traced.values():
        for key, values in proc.report["notes"].items():
            notes.setdefault(key, []).extend(values)
    layers.update(augment_layers({"spans": spans, "notes": notes}))
    t = LayerTotals(spans)
    layers.update({
        "embed.train_embeddings.self_s": t.self_s["embed.train_embeddings"],
        "embed.train_tokens_per_s": sum(notes.get("embed.train_embeddings", []))
        / t.total["embed.train_embeddings"],
        "featcorr.build_training_pairs.self_s": t.self_s["featcorr.build_training_pairs"],
        "featcorr.build_training_pairs.pairs": sum(notes.get("featcorr.build_training_pairs", [])),
        "featcorr.train_correlation.self_s": t.self_s["featcorr.train_correlation"],
    })
    traced_cpu = math.fsum(proc.ref_cpu(pace) for proc in traced.values())
    layers["trace.command_s"] = traced_cpu
    layers["trace.overhead_s"] = traced_cpu - metrics["command_s"]
    layers["trace.overhead_ratio"] = layers["trace.overhead_s"] / metrics["command_s"]
    return attempted, layers


def merge_spans(span_lists: list[list[list]]) -> list[list]:
    """Spans of several processes in one list, parent and slot indices shifted."""
    merged: list[list] = []
    for spans in span_lists:
        base = len(merged)
        merged.extend([name, start, end, parent + base if parent >= 0 else -1,
                       slot + base if slot >= 0 else -1]
                      for name, start, end, parent, slot in spans)
    return merged


def check_train_output(procs: dict[str, Proc], gov_records: int, records: int) -> None:
    mapped = re.search(r"mapped (\d+) cve links to \d+ names \(unresolved (\d+),"
                       r" conflicts \d+, fallback (\d+)\)", procs["build-map"].stdout)
    check(mapped is not None, f"build-map said {procs['build-map'].stdout!r}")
    links, unresolved, fallback = map(int, mapped.groups())
    check(links == records and unresolved == 0 and links - fallback == gov_records,
          f"build-map resolved {links - fallback} of {gov_records} CJK gov records")
    trained = re.search(r"over (\d+) records", procs["train-embed"].stdout)
    check(trained is not None and int(trained.group(1)) == records, "train-embed record count")
    pairs = re.search(r"on (\d+) positive / (\d+) negative pairs, final loss (\S+)",
                      procs["train-corr"].stdout)
    check(pairs is not None, f"train-corr said {procs['train-corr'].stdout!r}")
    pos, neg, loss = int(pairs.group(1)), int(pairs.group(2)), float(pairs.group(3))
    check(neg == 2 * pos and math.isfinite(loss), f"train-corr {pos}/{neg} pairs, loss {loss}")


# --- entry point ----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit unwinds through subprocess.run, which kills and reaps the
    # running child, and through the scratch-directory cleanup below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no vulnaug sources at {PACKAGE}", file=sys.stderr)
        return 1

    workdir = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    runner = Runner(workdir)
    try:
        runner.start_pace()
        if args.workload == "train":
            attempted, values = run_train(runner, args.seed, args.seconds, bool(args.trace))
        else:
            attempted, values = run_augment(runner, args.seed, args.seconds, bool(args.trace))
    except (CheckFailed, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
