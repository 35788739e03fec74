import functools
import inspect
import json
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner

from helpers import feed_text, make_record, masked_eval_fixture, struts_gov_records
import vulnaug
from vulnaug import featcorr, genprompt
from vulnaug.cli import cli
from vulnaug.corpus import AspectKind
from vulnaug.embed import EmbeddingModel
from vulnaug.errors import BackendError
from vulnaug.featcorr import BackgroundStore, CorrelationModel


@pytest.fixture()
def runner():
    return CliRunner()


def small_feed_records(n=12):
    records = []
    for i in range(n):
        aspects = {
            AspectKind.VULNERABILITY_TYPE: f"flaw kind{i}",
            AspectKind.ATTACK_VECTOR: f"via port{i}",
            AspectKind.IMPACT: f"impact result{i}",
            AspectKind.ROOT_CAUSE: f"cause bug{i}",
        }
        if i % 3 == 0:
            # leave attacker type missing: these become augment targets
            pass
        else:
            aspects[AspectKind.ATTACKER_TYPE] = f"attacker group{i}"
        records.append(
            make_record(
                f"CVE-2023-{1000 + i}",
                f"flaw kind{i} in widget{i % 3} lets attacker group{i} cause"
                f" impact result{i} via port{i} because cause bug{i}.",
                cwe_id=f"CWE-{100 + (i % 2)}",
                aspects=aspects,
                software=[f"widget{i % 3}"],
            )
        )
    return records


def write_feed(tmp_path, records, name="feed.jsonl"):
    path = tmp_path / name
    path.write_text(feed_text(records), encoding="utf-8")
    return path


def build_artifacts(runner, tmp_path, records):
    feed = write_feed(tmp_path, records)
    corpus = tmp_path / "corpus.jsonl"
    mapping = tmp_path / "mapping.tsv"
    embedding = tmp_path / "embed.bin"
    correlation = tmp_path / "corr.bin"
    steps = [
        ["ingest", str(feed), "-o", str(corpus)],
        ["build-map", "--corpus", str(corpus), "-o", str(mapping)],
        ["train-embed", "--corpus", str(corpus), "-o", str(embedding)],
        ["train-corr", "--corpus", str(corpus), "--embed", str(embedding),
         "--epochs", "50", "-o", str(correlation)],
    ]
    for step in steps:
        result = runner.invoke(cli, step)
        assert result.exit_code == 0, f"{step}: {result.output}"
    return corpus, mapping, embedding, correlation


class TestIngest:
    def test_valid_feed_reports_counts(self, runner, tmp_path):
        feed = write_feed(tmp_path, small_feed_records(5))
        out = tmp_path / "corpus.jsonl"
        result = runner.invoke(cli, ["ingest", str(feed), "-o", str(out)])
        assert result.exit_code == 0
        assert "ingested 5 records" in result.output
        assert len(out.read_text().splitlines()) == 5

    def test_missing_feed_exits_two_with_path(self, runner, tmp_path):
        missing = tmp_path / "nope.jsonl"
        result = runner.invoke(cli, ["ingest", str(missing)])
        assert result.exit_code == 2
        assert "nope.jsonl" in result.output

    def test_duplicates_across_feeds_deduplicated(self, runner, tmp_path):
        records = small_feed_records(4)
        feed_a = write_feed(tmp_path, records, "a.jsonl")
        feed_b = write_feed(tmp_path, records[:2], "b.jsonl")
        out = tmp_path / "corpus.jsonl"
        result = runner.invoke(cli, ["ingest", str(feed_a), str(feed_b), "-o", str(out)])
        assert result.exit_code == 0
        assert "deduplicated 2" in result.output
        assert len(out.read_text().splitlines()) == 4

    def test_rerun_is_byte_identical(self, runner, tmp_path):
        feed = write_feed(tmp_path, small_feed_records(6))
        out = tmp_path / "corpus.jsonl"
        runner.invoke(cli, ["ingest", str(feed), "-o", str(out)])
        first = out.read_bytes()
        runner.invoke(cli, ["ingest", str(feed), "-o", str(out)])
        assert out.read_bytes() == first


class TestPrerequisites:
    def test_build_map_missing_corpus_exits_three(self, runner, tmp_path):
        result = runner.invoke(
            cli, ["build-map", "--corpus", str(tmp_path / "absent.jsonl")]
        )
        assert result.exit_code == 3
        assert "corpus file" in result.output

    def test_augment_missing_model_exits_three(self, runner, tmp_path):
        feed = write_feed(tmp_path, small_feed_records(3))
        corpus = tmp_path / "corpus.jsonl"
        runner.invoke(cli, ["ingest", str(feed), "-o", str(corpus)])
        result = runner.invoke(
            cli,
            ["augment", "--corpus", str(corpus), "--map", str(tmp_path / "m.tsv"),
             "--embed", str(tmp_path / "e.bin"), "--corr", str(tmp_path / "c.bin")],
        )
        assert result.exit_code == 3
        assert "mapping file" in result.output

    def test_http_backend_without_api_key_exits_three(self, runner, tmp_path, monkeypatch):
        corpus, mapping, embedding, correlation = build_artifacts(
            runner, tmp_path, small_feed_records(6))
        config = tmp_path / "backend.json"
        config.write_text(json.dumps({"endpoint": "http://localhost:9/v1", "model": "m",
                                      "api_key_env": "VULNAUG_TEST_KEY"}))

        monkeypatch.setattr("urllib.request.urlopen", no_network)
        args = ["augment", "--corpus", str(corpus), "--map", str(mapping),
                "--embed", str(embedding), "--corr", str(correlation),
                "--backend", "http", "--backend-config", str(config),
                "-o", str(tmp_path / "out.jsonl")]
        for unset in (lambda: monkeypatch.delenv("VULNAUG_TEST_KEY", raising=False),
                      lambda: monkeypatch.setenv("VULNAUG_TEST_KEY", "")):
            unset()
            result = runner.invoke(cli, args)
            assert result.exit_code == 3, result.output
            assert "VULNAUG_TEST_KEY" in result.output
        assert not (tmp_path / "out.jsonl").exists()

    def test_http_backend_with_negative_rate_exits_two(self, runner, tmp_path, artifacts,
                                                       monkeypatch):
        config = tmp_path / "backend.json"
        config.write_text(json.dumps({"endpoint": "http://localhost:9/v1", "model": "m",
                                      "api_key_env": "VULNAUG_TEST_KEY", "rate_per_s": -1}))
        monkeypatch.setenv("VULNAUG_TEST_KEY", "secret")
        monkeypatch.setattr("urllib.request.urlopen", no_network)
        out = tmp_path / "out.jsonl"
        result = runner.invoke(cli, pipeline_args("augment", artifacts) + [
            "--backend", "http", "--backend-config", str(config), "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert "rate must be finite and > 0" in result.stderr
        assert not out.exists()


def no_network(*args, **kwargs):
    raise AssertionError("no request may be sent")


class TestFetchBackground:
    @staticmethod
    def args(tmp_path, endpoint="/{term}.json", rate="1000"):
        (tmp_path / "terms.txt").write_text("alpha\nbeta\n")
        (tmp_path / "alpha.json").write_text(json.dumps({"extract": "Alpha  is a\nletter."}))
        return ["fetch-background", "--terms", str(tmp_path / "terms.txt"),
                "--endpoint", tmp_path.as_uri() + endpoint, "--rate", rate,
                "-o", str(tmp_path / "background.tsv")]

    def test_fetches_from_a_file_endpoint(self, runner, tmp_path):
        result = runner.invoke(cli, self.args(tmp_path))
        assert result.exit_code == 0, result.output
        assert (tmp_path / "background.tsv").read_text() == "alpha\tAlpha is a letter.\n"
        assert "fetched 1/2 articles" in result.stdout
        assert result.stderr.startswith("warning: beta:")

    def test_repeated_term_keeps_the_later_body(self, runner, tmp_path, monkeypatch):
        import urllib.request

        args = self.args(tmp_path)
        (tmp_path / "terms.txt").write_text("alpha\nalpha\n")
        urlopen = urllib.request.urlopen

        def revise_before_repeat(url, timeout):
            if revise_before_repeat.calls:
                (tmp_path / "alpha.json").write_text(json.dumps({"extract": "Alpha, revised."}))
            revise_before_repeat.calls += 1
            return urlopen(url, timeout=timeout)

        revise_before_repeat.calls = 0
        monkeypatch.setattr("urllib.request.urlopen", revise_before_repeat)
        result = runner.invoke(cli, args)
        assert result.exit_code == 0, result.output
        assert (tmp_path / "background.tsv").read_text() == "alpha\tAlpha, revised.\n"
        assert "fetched 2/2 articles" in result.stdout

    @pytest.mark.parametrize("rate", ["0", "-1", "nan", "inf"])
    def test_bad_rate_exits_two_before_any_request(self, runner, tmp_path, monkeypatch, rate):
        monkeypatch.setattr("urllib.request.urlopen", no_network)
        result = runner.invoke(cli, self.args(tmp_path, rate=rate))
        assert result.exit_code == 2, result.output
        assert "rate must be finite and > 0" in result.stderr
        assert not (tmp_path / "background.tsv").exists()

    @pytest.mark.parametrize("endpoint", ["/{name}.json", "/{0}.json", "/{term.json",
                                          "/{term.x}.json", "/{term:d}.json"])
    def test_bad_endpoint_template_exits_two_before_any_request(
        self, runner, tmp_path, monkeypatch, endpoint
    ):
        monkeypatch.setattr("urllib.request.urlopen", no_network)
        result = runner.invoke(cli, self.args(tmp_path, endpoint=endpoint))
        assert result.exit_code == 2, result.output
        assert "must format with {term} alone" in result.stderr
        assert not (tmp_path / "background.tsv").exists()


class TestTrainEmbedSettings:
    @pytest.mark.parametrize("flag,value,name", [
        ("--dim", "0", "dim"),
        ("--epochs", "0", "epochs"),
        ("--window", "0", "window"),
        ("--window", "-2", "window"),
        ("--negative", "0", "negative_samples"),
        ("--negative", "-1", "negative_samples"),
    ])
    def test_setting_that_trains_nothing_exits_two(self, runner, tmp_path, flag, value, name):
        feed = write_feed(tmp_path, small_feed_records(4))
        corpus = tmp_path / "corpus.jsonl"
        runner.invoke(cli, ["ingest", str(feed), "-o", str(corpus)])
        out = tmp_path / "embed.bin"
        result = runner.invoke(
            cli, ["train-embed", "--corpus", str(corpus), flag, value, "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert name in result.output
        assert not out.exists()


class TestTrainCorrSettings:
    @pytest.mark.parametrize("flag,value,name", [
        ("--epochs", "0", "epochs"),
        ("--epochs", "-3", "epochs"),
        ("--lr", "0", "learning_rate"),
        ("--lr", "-1", "learning_rate"),
        ("--lr", "nan", "learning_rate"),
        ("--lr", "inf", "learning_rate"),
    ])
    def test_setting_that_trains_nothing_exits_two(self, runner, tmp_path, artifacts,
                                                   monkeypatch, flag, value, name):
        corpus, _, embedding, _ = artifacts
        calls = []
        monkeypatch.setattr(featcorr, "build_training_pairs",
                            lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "corr.bin"
        result = runner.invoke(cli, ["train-corr", "--corpus", str(corpus), "--embed",
                                     str(embedding), flag, value, "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"error: {name} must be")
        assert calls == [] and not out.exists()


class TestCost:
    def test_effective_case(self, runner):
        result = runner.invoke(cli, ["cost", "--n", "2", "--x", "0.6"])
        assert result.exit_code == 0
        assert "e_not=2.0" in result.output
        assert "e_aug=1.8" in result.output
        assert "verdict=effective" in result.output

    def test_boundary_breaks_even(self, runner):
        result = runner.invoke(cli, ["cost", "--n", "2", "--x", "0.5"])
        assert "e_aug=2.0" in result.output
        assert "verdict=break-even" in result.output

    def test_bad_accuracy_exits_two(self, runner):
        result = runner.invoke(cli, ["cost", "--n", "2", "--x", "1.5"])
        assert result.exit_code == 2


class TestStats:
    def test_matches_corpus_oracles(self, runner, tmp_path):
        records = small_feed_records(9)
        feed = write_feed(tmp_path, records)
        corpus = tmp_path / "corpus.jsonl"
        runner.invoke(cli, ["ingest", str(feed), "-o", str(corpus)])
        out = tmp_path / "stats.json"
        result = runner.invoke(
            cli, ["stats", "--corpus", str(corpus), "--threshold", "2", "-o", str(out)]
        )
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        # 9 records spread over widget0..widget2 -> counts 3,3,3 at threshold 2
        assert report["counts"] == {"widget0": 3, "widget1": 3, "widget2": 3}
        assert report["non_long_tail"] == ["widget0", "widget1", "widget2"]
        assert report["gini"] == pytest.approx(0.0)
        assert "gini=0.0" in result.output


    def test_software_named_like_evaluate(self, runner, tmp_path):
        records = [
            make_record(f"CVE-2023-{2000 + i}", f"flaw in foo bar {i}.", software=[name])
            for i, name in enumerate(["Foo  Bar", "Foo Bar", "Foo Bar", "  ", "Baz"])
        ]
        feed = write_feed(tmp_path, records)
        corpus = tmp_path / "corpus.jsonl"
        assert runner.invoke(cli, ["ingest", str(feed), "-o", str(corpus)]).exit_code == 0
        out = tmp_path / "stats.json"
        result = runner.invoke(
            cli, ["stats", "--corpus", str(corpus), "--threshold", "2", "-o", str(out)]
        )
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        assert report["counts"] == {"Baz": 1, "Foo Bar": 3}
        assert report["non_long_tail"] == ["Foo Bar"]
        assert report["unnamed"] == 1


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("artifacts")
    return build_artifacts(CliRunner(), tmp_path, small_feed_records(6))


def pipeline_args(command, artifacts):
    corpus, mapping, embedding, correlation = artifacts
    return [command, "--corpus", str(corpus), "--map", str(mapping),
            "--embed", str(embedding), "--corr", str(correlation)]


def without(key):
    return lambda good: json.dumps({k: v for k, v in good.items() if k != key})


class TestBadInputFiles:
    @pytest.mark.parametrize("settings,needle", [
        ({"endpoint": "http://localhost:9/v1", "model": "m", "bogus": 1}, "bogus"),
        ({"endpoint": "http://localhost:9/v1"}, "model"),
        (["http://localhost:9/v1", "m"], "JSON object"),
    ])
    def test_backend_config_exits_two(self, runner, tmp_path, artifacts, settings, needle):
        config = tmp_path / "backend.json"
        config.write_text(json.dumps(settings))
        out = tmp_path / "out.jsonl"
        result = runner.invoke(cli, pipeline_args("augment", artifacts) + [
            "--backend", "http", "--backend-config", str(config), "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert needle in result.output and "backend.json" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("answers", [["x"], {"CVE-2023-1000": 1}, "remote attackers"])
    def test_oracle_answers_not_an_object_of_strings_exits_two(
        self, runner, tmp_path, artifacts, answers
    ):
        path = tmp_path / "answers.json"
        path.write_text(json.dumps(answers))
        out = tmp_path / "out.jsonl"
        result = runner.invoke(cli, pipeline_args("augment", artifacts) + [
            "--backend", "oracle", "--oracle-answers", str(path), "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert "answers.json" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("make_line,needle", [
        (lambda good: "{not json", "line 2"),
        (lambda good: "[1, 2]", "JSON object"),
        (without("masked_aspect"), "masked_aspect"),
        (without("label"), "label"),
        (without("published"), "published"),
        (lambda good: json.dumps({**good, "masked_aspect": "no such aspect"}), "no such aspect"),
    ], ids=["not-json", "not-object", "no-aspect", "no-label", "no-published", "bad-aspect"])
    def test_bad_testset_line_exits_two_with_line_number(
        self, runner, tmp_path, artifacts, make_line, needle
    ):
        good = small_feed_records(1)[0].to_json_obj()
        good["masked_aspect"] = "attacker_type"
        good["label"] = "attacker group0"
        lines = [json.dumps(good), make_line(good), json.dumps(good)]
        testset = tmp_path / "testset.jsonl"
        testset.write_text("\n".join(lines) + "\n")
        prefix = tmp_path / "report"
        result = runner.invoke(cli, ["--backend", "oracle"] + pipeline_args("evaluate", artifacts)
                               + ["--testset", str(testset), "-o", str(prefix)])
        assert result.exit_code == 2, result.output
        assert "line 2" in result.output and needle in result.output
        assert "column" not in result.output
        assert not prefix.with_suffix(".txt").exists()


def edited_header(corr_bin: bytes, edit) -> bytes:
    """A correlation model file whose JSON header ``edit`` has changed in place."""
    (size,) = struct.unpack_from("<I", corr_bin, 8)
    header = json.loads(corr_bin[12 : 12 + size])
    edit(header)
    head = json.dumps(header, sort_keys=True).encode()
    return corr_bin[:8] + struct.pack("<I", len(head)) + head + corr_bin[12 + size:]


def without_dim(corr_bin: bytes) -> bytes:
    """A correlation model file whose header lacks ``dim``."""
    return edited_header(corr_bin, lambda header: header.pop("dim"))


def with_train_config(**values):
    """A damage that sets ``values`` in a correlation model file's train_config."""
    return lambda corr_bin: edited_header(
        corr_bin, lambda header: header["train_config"].update(values))


class TestModelFiles:
    @pytest.mark.parametrize("command,flag,damage,needle", [
        ("augment", "--embed", lambda good: b"VAEMB001", "shorter than its 16-byte prefix"),
        ("train-corr", "--embed", lambda good: b"VAEMB001", "shorter than its 16-byte prefix"),
        ("augment", "--corr", without_dim, "lacks ['dim']"),
        ("evaluate", "--corr", without_dim, "lacks ['dim']"),
        ("augment", "--corr", with_train_config(epochs=0), "epochs must be >= 1"),
        ("augment", "--corr", with_train_config(learning_rate=-1.0), "learning_rate must be"),
        ("augment", "--corr", with_train_config(learning_rate=float("nan")),
         "learning_rate must be"),
    ], ids=["augment-embed", "train-corr-embed", "augment-corr", "evaluate-corr",
            "corr-epochs", "corr-negative-lr", "corr-nan-lr"])
    def test_damaged_model_file_exits_two_and_names_it(self, runner, tmp_path, artifacts,
                                                       command, flag, damage, needle):
        corpus, mapping, embedding, correlation = artifacts
        good = {"--embed": embedding, "--corr": correlation}[flag]
        damaged = tmp_path / good.name
        damaged.write_bytes(damage(good.read_bytes()))
        args = pipeline_args(command, artifacts)
        if command == "train-corr":
            args = ["train-corr", "--corpus", str(corpus), "--embed", str(embedding)]
        args[args.index(flag) + 1] = str(damaged)
        out = tmp_path / "out"
        result = runner.invoke(cli, args + ["-o", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"error: {damaged}: ")
        assert needle in result.output and "Traceback" not in result.output
        assert not list(tmp_path.glob("out*"))

    def test_correlation_of_another_embedding_exits_two_before_generating(
        self, runner, tmp_path, artifacts, monkeypatch
    ):
        corpus, mapping, embedding, correlation = artifacts
        narrow_embed, narrow_corr = tmp_path / "embed8.bin", tmp_path / "corr8.bin"
        for step in (["train-embed", "--corpus", str(corpus), "--dim", "8", "-o",
                      str(narrow_embed)],
                     ["train-corr", "--corpus", str(corpus), "--embed", str(narrow_embed),
                      "--epochs", "5", "-o", str(narrow_corr)]):
            assert runner.invoke(cli, step).exit_code == 0
        calls = []
        monkeypatch.setattr(genprompt.MockBackend, "complete",
                            lambda self, prompt, **kw: calls.append(prompt) or "x")
        args = pipeline_args("augment", artifacts)
        args[args.index("--corr") + 1] = str(narrow_corr)
        audit, out = tmp_path / "audit.jsonl", tmp_path / "out.jsonl"
        result = runner.invoke(cli, args + ["--audit", str(audit), "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output == (f"error: {narrow_corr}: 17 weights,"
                                 " but a 64-dim embedding needs 129\n")
        assert calls == [] and not audit.exists() and not out.exists()


def counting(calls, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


class TestArtifactLoaders:
    # The loaders that bench/probe.py wraps with timing spans after it has
    # imported vulnaug.cli, as this module did above.
    LOADERS = {"parse_feed": (vulnaug.corpus, "parse_feed"),
               "load_mapping": (vulnaug.mapping, "load_mapping"),
               "embed.load": (EmbeddingModel, "load"),
               "corr.load": (CorrelationModel, "load"),
               "store.from_file": (BackgroundStore, "from_file")}

    def test_each_load_looks_its_loader_up_when_called(self, runner, tmp_path, artifacts,
                                                       monkeypatch):
        calls = Counter()
        for name, (owner, attr) in self.LOADERS.items():
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(counting(calls, name, raw.__func__))
            else:
                wrapped = counting(calls, name, raw)
            monkeypatch.setattr(owner, attr, wrapped)
        store = tmp_path / "background.tsv"
        store.write_text("widget0\twidget zero is a tool\n", encoding="utf-8")
        result = runner.invoke(cli, pipeline_args("augment", artifacts) + [
            "--background", str(store), "--rounds", "1", "-o", str(tmp_path / "out.jsonl")])
        assert result.exit_code == 0, result.output
        assert calls["parse_feed"] >= 1
        assert {name: n for name, n in calls.items() if name != "parse_feed"} == {
            "load_mapping": 1, "embed.load": 1, "corr.load": 1, "store.from_file": 1}


class TestPipelineCommands:
    def test_full_chain_and_augment_determinism(self, runner, tmp_path):
        corpus, mapping, embedding, correlation = build_artifacts(
            runner, tmp_path, small_feed_records(12)
        )
        out = tmp_path / "augmented.jsonl"
        args = [
            "--seed", "11", "augment",
            "--corpus", str(corpus), "--map", str(mapping),
            "--embed", str(embedding), "--corr", str(correlation),
            "--rounds", "2", "-o", str(out),
        ]
        result = runner.invoke(cli, args)
        assert result.exit_code == 0, result.output
        first = out.read_bytes()
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        # 4 of 12 records lack attacker type
        assert len(lines) == 4
        assert all(line["aspect"] == "attacker_type" for line in lines)
        result = runner.invoke(cli, args)
        assert result.exit_code == 0
        assert out.read_bytes() == first

    def test_augment_jobs_flag_keeps_output_stable(self, runner, tmp_path):
        corpus, mapping, embedding, correlation = build_artifacts(
            runner, tmp_path, small_feed_records(12)
        )
        # Articles sharing words with the aspects, so every tower has background.
        background = tmp_path / "background.tsv"
        background.write_text("".join(
            f"attacker group{i}\tattackers in group{i} cause impact result{i} via port{i}\n"
            for i in range(12)))
        out_a = tmp_path / "serial.jsonl"
        out_b = tmp_path / "parallel.jsonl"
        out_c = tmp_path / "no-background.jsonl"
        common = [
            "augment", "--corpus", str(corpus), "--map", str(mapping),
            "--embed", str(embedding), "--corr", str(correlation), "--rounds", "2",
        ]
        with_store = common + ["--background", str(background)]
        assert runner.invoke(cli, with_store + ["-o", str(out_a)]).exit_code == 0
        assert runner.invoke(cli, ["--jobs", "4"] + with_store + ["-o", str(out_b)]).exit_code == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert runner.invoke(cli, common + ["-o", str(out_c)]).exit_code == 0
        assert out_c.read_bytes() != out_a.read_bytes()

    @pytest.mark.parametrize("group,command,name", [
        (["--jobs", "0"], [], "jobs"),
        (["--jobs", "-3"], [], "jobs"),
        ([], ["--limit", "0"], "example_limit"),
        ([], ["--limit", "-1"], "example_limit"),
    ])
    def test_augment_setting_below_one_exits_two(self, runner, tmp_path, artifacts,
                                                 group, command, name):
        out = tmp_path / "out.jsonl"
        result = runner.invoke(cli, group + pipeline_args("augment", artifacts) + command
                               + ["-o", str(out)])
        assert result.exit_code == 2, result.output
        assert f"{name} must be >= 1" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command,settings,key", [
        ("augment", {"example_strategy": "foo"}, "example_strategy"),
        ("evaluate", {"example_strategy": "foo"}, "example_strategy"),
        ("augment", {"aggregation": "median"}, "aggregation"),
        ("augment", {"rounds": 0}, "rounds"),
        ("evaluate", {"rounds": -2}, "rounds"),
    ])
    def test_bad_pipeline_setting_exits_two_before_loading(self, runner, tmp_path, artifacts,
                                                           monkeypatch, command, settings, key):
        loads = []
        monkeypatch.setattr(EmbeddingModel, "load", lambda path: loads.append(path))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**settings, "audit": str(tmp_path / "audit.jsonl")}))
        out = tmp_path / "out"
        result = runner.invoke(cli, ["--config", str(config)] + pipeline_args(command, artifacts)
                               + ["-o", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"error: {key} must be")
        assert loads == []
        assert list(tmp_path.iterdir()) == [config]

    def test_evaluate_with_oracle_backend(self, runner, tmp_path):
        corpus_obj, _, testset = masked_eval_fixture(8)
        records = list(corpus_obj)
        corpus, mapping, embedding, correlation = build_artifacts(runner, tmp_path, records)
        testset_path = tmp_path / "testset.jsonl"
        lines = []
        for masked, kind, label in testset:
            obj = masked.to_json_obj()
            obj["masked_aspect"] = kind.json_key
            obj["label"] = label
            lines.append(json.dumps(obj, ensure_ascii=False, sort_keys=True))
        testset_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        prefix = tmp_path / "report"
        result = runner.invoke(
            cli,
            ["--backend", "oracle", "evaluate",
             "--corpus", str(corpus), "--map", str(mapping),
             "--embed", str(embedding), "--corr", str(correlation),
             "--testset", str(testset_path), "-o", str(prefix)],
        )
        assert result.exit_code == 0, result.output
        assert (prefix.with_suffix(".txt")).exists()
        assert (prefix.with_suffix(".csv")).exists()
        rows = [json.loads(line) for line in prefix.with_suffix(".jsonl").read_text().splitlines()]
        assert rows and all(row["mean_f1"] == 1.0 for row in rows)

    def test_build_map_resolves_struts(self, runner, tmp_path):
        feed = write_feed(tmp_path, struts_gov_records(), "gov.jsonl")
        corpus = tmp_path / "corpus.jsonl"
        mapping_path = tmp_path / "mapping.tsv"
        runner.invoke(cli, ["ingest", str(feed), "-o", str(corpus)])
        result = runner.invoke(cli, ["build-map", "--corpus", str(corpus), "-o", str(mapping_path)])
        assert result.exit_code == 0
        content = mapping_path.read_text()
        assert "Apache Struts\tCVE-2017-9805,CVE-2018-11776" in content

    def test_augment_dump_examples_flag(self, runner, tmp_path):
        corpus, mapping, embedding, correlation = build_artifacts(
            runner, tmp_path, small_feed_records(12)
        )
        out = tmp_path / "augmented.jsonl"
        result = runner.invoke(
            cli,
            ["augment", "--corpus", str(corpus), "--map", str(mapping),
             "--embed", str(embedding), "--corr", str(correlation),
             "--rounds", "1", "--dump-examples", "-o", str(out)],
        )
        assert result.exit_code == 0, result.output
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert all("example_cves" in line for line in lines)
        assert all(len(line["example_cves"]) == line["examples"] for line in lines)

    def test_augment_rows_count_failed_rounds(self, runner, tmp_path, monkeypatch):
        corpus, mapping, embedding, correlation = build_artifacts(
            runner, tmp_path, small_feed_records(12)
        )

        class FailingRounds(genprompt.MockBackend):
            """Fails every call of rounds 2 and 4 (decode seeds 1002, 1004)."""

            def complete(self, prompt, *, temperature=0.0, seed=0):
                if seed in (1002, 1004):
                    raise BackendError(f"round {seed - 1000} refused")
                return super().complete(prompt, temperature=temperature, seed=seed)

        args = ["augment", "--corpus", str(corpus), "--map", str(mapping),
                "--embed", str(embedding), "--corr", str(correlation), "--rounds", "4"]
        assert runner.invoke(cli, args + ["-o", str(tmp_path / "mock.jsonl")]).exit_code == 0
        monkeypatch.setattr("vulnaug.cli._make_backend", lambda cfg: FailingRounds())
        result = runner.invoke(cli, args + ["-o", str(tmp_path / "failing.jsonl")])
        assert result.exit_code == 0, result.output
        clean = [json.loads(line) for line in (tmp_path / "mock.jsonl").read_text().splitlines()]
        failing = [json.loads(line) for line in (tmp_path / "failing.jsonl").read_text().splitlines()]
        assert clean and len(failing) == len(clean)
        assert all(row["failed_rounds"] == 0 for row in clean)
        assert all(row["failed_rounds"] == 2 for row in failing)
        assert all(sorted(c["round"] for c in row["candidates"]) == [1, 3] for row in failing)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_augment_keeps_the_rows_of_other_slots_when_one_fails(self, runner, tmp_path,
                                                                  monkeypatch, jobs):
        corpus, mapping, embedding, correlation = build_artifacts(
            runner, tmp_path, small_feed_records(12)
        )

        class FailsOneTarget(genprompt.MockBackend):
            def complete(self, prompt, *, temperature=0.0, seed=0):
                if "target: CVE-2023-1003\n" in prompt:
                    raise BackendError("refused")
                return super().complete(prompt, temperature=temperature, seed=seed)

        args = ["--jobs", jobs, "augment", "--corpus", str(corpus), "--map", str(mapping),
                "--embed", str(embedding), "--corr", str(correlation), "--rounds", "2"]
        clean, failing = tmp_path / "clean.jsonl", tmp_path / "failing.jsonl"
        assert runner.invoke(cli, args + ["-o", str(clean)]).exit_code == 0
        monkeypatch.setattr("vulnaug.cli._make_backend", lambda cfg: FailsOneTarget())
        result = runner.invoke(cli, args + ["-o", str(failing)])
        assert result.exit_code == 1, result.output
        assert result.stderr == ("error: CVE-2023-1003/attacker_type: all 2 rounds failed,"
                                 " the last with: refused\n")
        kept = [line for line in clean.read_text().splitlines()
                if json.loads(line)["cve_id"] != "CVE-2023-1003"]
        assert len(kept) == 3
        assert failing.read_text().splitlines() == kept

    def test_augment_with_oracle_answer_file(self, runner, tmp_path):
        records = small_feed_records(12)
        corpus, mapping, embedding, correlation = build_artifacts(runner, tmp_path, records)
        answers = {rec.cve_id: "remote attackers" for rec in records}
        answers_path = tmp_path / "answers.json"
        answers_path.write_text(json.dumps(answers))
        out = tmp_path / "augmented.jsonl"
        result = runner.invoke(
            cli,
            ["augment", "--corpus", str(corpus), "--map", str(mapping),
             "--embed", str(embedding), "--corr", str(correlation),
             "--backend", "oracle", "--oracle-answers", str(answers_path),
             "--rounds", "1", "-o", str(out)],
        )
        assert result.exit_code == 0, result.output
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert lines and all(line["answer"] == "remote attackers" for line in lines)

    def test_evaluate_masks_aspect_on_the_fly(self, runner, tmp_path):
        corpus, mapping, embedding, correlation = build_artifacts(
            runner, tmp_path, small_feed_records(12)
        )
        prefix = tmp_path / "report"
        result = runner.invoke(
            cli,
            ["--backend", "oracle", "evaluate",
             "--corpus", str(corpus), "--map", str(mapping),
             "--embed", str(embedding), "--corr", str(correlation),
             "--aspect", "impact", "-o", str(prefix)],
        )
        assert result.exit_code == 0, result.output
        rows = [json.loads(line) for line in prefix.with_suffix(".jsonl").read_text().splitlines()]
        assert rows and all(row["aspect"] == "impact" for row in rows)
        assert all(row["mean_f1"] == 1.0 for row in rows)

    def test_evaluate_reports_do_not_depend_on_jobs(self, runner, tmp_path):
        corpus, mapping, embedding, correlation = build_artifacts(
            runner, tmp_path, small_feed_records(12)
        )
        background = tmp_path / "background.tsv"
        background.write_text("".join(
            f"attacker group{i}\tattackers in group{i} cause impact result{i} via port{i}\n"
            for i in range(12)))
        reports = []
        for jobs in ["1", "3"]:
            prefix = tmp_path / f"report-{jobs}"
            result = runner.invoke(
                cli,
                ["--jobs", jobs, "--backend", "oracle", "evaluate",
                 "--corpus", str(corpus), "--map", str(mapping),
                 "--embed", str(embedding), "--corr", str(correlation),
                 "--background", str(background), "--aspect", "impact", "-o", str(prefix)],
            )
            assert result.exit_code == 0, result.output
            reports.append([prefix.with_suffix(ext).read_bytes()
                            for ext in (".txt", ".jsonl", ".csv")])
        assert reports[0] == reports[1]


class TestRunConfig:
    def test_defaults_match_pipeline_constants(self):
        from vulnaug.cli import RunConfig

        cfg = RunConfig()
        assert cfg.example_limit == 30
        assert cfg.rounds == 5
        assert cfg.long_tail_threshold == 50

    def test_config_file_overridden_by_flags(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"seed": 5, "backend": "echo"}))
        result = runner.invoke(
            cli, ["--config", str(config), "--backend", "mock", "cost", "--n", "3", "--x", "0.9"]
        )
        assert result.exit_code == 0

    def test_unknown_config_key_rejected(self, runner, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"bogus": 1}))
        result = runner.invoke(cli, ["--config", str(config), "cost", "--n", "2", "--x", "0.9"])
        assert result.exit_code != 0

    @pytest.mark.parametrize("content,needle", [
        # the 2:1 negative ratio is fixed (featcorr.NEG_RATIO), not a setting
        ({"neg_ratio": 2}, "neg_ratio"),
        (["seed", 5], "JSON object"),
        ("{not json", "config.json"),
    ])
    def test_bad_config_file_exits_two(self, runner, tmp_path, content, needle):
        config = tmp_path / "config.json"
        config.write_text(content if isinstance(content, str) else json.dumps(content))
        result = runner.invoke(cli, ["--config", str(config), "cost", "--n", "2", "--x", "0.9"])
        assert result.exit_code == 2, result.output
        assert "bad config file" in result.output
        if needle != "config.json":
            assert needle in result.output

    @pytest.mark.parametrize("settings,command,key", [
        ({"long_tail_threshold": "2"}, "stats", "long_tail_threshold"),
        ({"jobs": "2"}, "augment", "jobs"),
        ({"seed": "x"}, "augment", "seed"),
        ({"rounds": True}, "augment", "rounds"),
        ({"temperature": "hot"}, "augment", "temperature"),
        ({"backend_config": 7}, "augment", "backend_config"),
    ])
    def test_config_value_of_wrong_type_exits_two(self, runner, tmp_path, artifacts,
                                                  settings, command, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(settings))
        out = tmp_path / "out.jsonl"
        if command == "stats":
            corpus, mapping, _, _ = artifacts
            args = ["stats", "--corpus", str(corpus), "--map", str(mapping)]
        else:
            args = pipeline_args("augment", artifacts)
        result = runner.invoke(cli, ["--config", str(config)] + args + ["-o", str(out)])
        assert result.exit_code == 2, result.output
        assert "config.json" in result.output and repr(key) in result.output
        assert not out.exists()

    def test_config_value_types_accepted(self, runner, tmp_path):
        # An int fits a float field and null fits an optional one.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"temperature": 1, "backend_config": None, "seed": 3}))
        result = runner.invoke(cli, ["--config", str(config), "cost", "--n", "2", "--x", "0.9"])
        assert result.exit_code == 0, result.output


REQUIRED = "<required>"
BACKEND_CHOICES = ("mock", "echo", "oracle", "http")
STRATEGY_HELP = "Example selection; similarity is the evaluation baseline."

# Every parameter of every command, by parameter name:
# (option strings, type, default, Choice values, is_flag, help text).
CLI_SURFACE = {
    None: {
        "config_path": (("--config",), "path", None, None, False,
                        "JSON config file; flags override it."),
        "seed": (("--seed",), "integer", None, None, False, "Global training/sampling seed."),
        "decode_seed": (("--decode-seed",), "integer", None, None, False,
                        "Base seed for backend rounds."),
        "jobs": (("--jobs",), "integer", None, None, False,
                 "Worker threads for per-target stages."),
        "output_dir": (("--output-dir",), "text", None, None, False, None),
        "backend": (("--backend",), "choice", None, BACKEND_CHOICES, False, None),
    },
    "ingest": {
        "feeds": (("feeds",), "text", REQUIRED, None, False, None),
        "source": (("--source",), "text", "CVE", None, False,
                   "Source for feed lines lacking one."),
        "output": (("-o", "--output"), "text", None, None, False, None),
    },
    "build-map": {
        "corpus_path": (("--corpus",), "text", None, None, False, None),
        "no_fallback": (("--no-fallback",), "boolean", False, None, True,
                        "Skip raw-name fallback indexing."),
        "output": (("-o", "--output"), "text", None, None, False, None),
    },
    "train-embed": {
        "corpus_path": (("--corpus",), "text", None, None, False, None),
        "dim": (("--dim",), "integer", 64, None, False, None),
        "window": (("--window",), "integer", 5, None, False, None),
        "epochs": (("--epochs",), "integer", 5, None, False, None),
        "negative": (("--negative",), "integer", 5, None, False, None),
        "export_text": (("--export-text",), "text", None, None, False, None),
        "output": (("-o", "--output"), "text", None, None, False, None),
    },
    "train-corr": {
        "corpus_path": (("--corpus",), "text", None, None, False, None),
        "embed_path": (("--embed",), "text", None, None, False, None),
        "background_path": (("--background",), "text", None, None, False, None),
        "lr": (("--lr",), "float", 0.5, None, False, None),
        "epochs": (("--epochs",), "integer", 300, None, False, None),
        "export_text": (("--export-text",), "text", None, None, False, None),
        "output": (("-o", "--output"), "text", None, None, False, None),
    },
    "augment": {
        "corpus_path": (("--corpus",), "text", None, None, False, None),
        "map_path": (("--map",), "text", None, None, False, None),
        "embed_path": (("--embed",), "text", None, None, False, None),
        "corr_path": (("--corr",), "text", None, None, False, None),
        "background_path": (("--background",), "text", None, None, False, None),
        "targets_path": (("--targets",), "text", None, None, False,
                         "Feed-format file of records to augment;"
                         " defaults to corpus records with gaps."),
        "aspect": (("--aspect",), "text", None, None, False, "Only augment this aspect."),
        "backend": (("--backend",), "choice", None, BACKEND_CHOICES, False, None),
        "backend_config": (("--backend-config",), "text", None, None, False,
                           "JSON settings for the http backend."),
        "oracle_answers": (("--oracle-answers",), "text", None, None, False,
                           "JSON answer table for the oracle backend."),
        "rounds": (("--rounds",), "integer", None, None, False, None),
        "example_limit": (("--limit",), "integer", None, None, False, None),
        "example_strategy": (("--example-strategy",), "choice", None,
                             ("cluster", "similarity"), False, STRATEGY_HELP),
        "audit": (("--audit",), "text", None, None, False,
                  "Append prompts/completions to this JSONL file."),
        "dump_examples": (("--dump-examples",), "boolean", False, None, True,
                          "Include the chosen in-context example cve_ids in the output."),
        "output": (("-o", "--output"), "text", None, None, False, None),
    },
    "evaluate": {
        "corpus_path": (("--corpus",), "text", None, None, False, None),
        "map_path": (("--map",), "text", None, None, False, None),
        "embed_path": (("--embed",), "text", None, None, False, None),
        "corr_path": (("--corr",), "text", None, None, False, None),
        "background_path": (("--background",), "text", None, None, False, None),
        "testset_path": (("--testset",), "text", None, None, False,
                         "Masked-testset JSONL; omit to mask --aspect over the corpus."),
        "aspect": (("--aspect",), "text", None, None, False, None),
        "backend": (("--backend",), "choice", None, BACKEND_CHOICES, False, None),
        "backend_config": (("--backend-config",), "text", None, None, False,
                           "JSON settings for the http backend."),
        "oracle_answers": (("--oracle-answers",), "text", None, None, False,
                           "JSON answer table for the oracle backend."),
        "threshold": (("--threshold",), "integer", None, None, False, "Long-tail threshold."),
        "example_strategy": (("--example-strategy",), "choice", None,
                             ("cluster", "similarity"), False, STRATEGY_HELP),
        "out_prefix": (("-o", "--output"), "text", None, None, False,
                       "Prefix for report files (.txt, .jsonl, .csv)."),
    },
    "cost": {
        "n": (("--n",), "integer", REQUIRED, None, False,
              "Reference TVDs a maintainer would consult."),
        "x": (("--x",), "float", REQUIRED, None, False, "Augmentation accuracy in [0,1]."),
    },
    "stats": {
        "corpus_path": (("--corpus",), "text", None, None, False, None),
        "map_path": (("--map",), "text", None, None, False, None),
        "threshold": (("--threshold",), "integer", None, None, False, None),
        "output": (("-o", "--output"), "text", None, None, False,
                   "Also write the report as JSON."),
    },
    "fetch-background": {
        "terms_path": (("--terms",), "text", REQUIRED, None, False,
                       "File with one search term per line."),
        "endpoint": (("--endpoint",), "text",
                     "https://en.wikipedia.org/api/rest_v1/page/summary/{term}", None, False,
                     "URL template with a {term} placeholder."),
        "rate": (("--rate",), "float", 1.0, None, False, "Requests per second."),
        "output": (("-o", "--output"), "text", None, None, False, None),
    },
}


class TestCliSurface:
    @staticmethod
    def surface(command):
        import click

        return {
            p.name: (
                tuple(p.opts),
                p.type.name,
                REQUIRED if p.required else p.default,
                tuple(p.type.choices) if isinstance(p.type, click.Choice) else None,
                bool(getattr(p, "is_flag", False)),
                getattr(p, "help", None),
            )
            for p in command.params
        }

    def test_commands_are_pinned(self):
        assert set(cli.commands) == {name for name in CLI_SURFACE if name is not None}

    @pytest.mark.parametrize("name", list(CLI_SURFACE), ids=lambda n: n or "group")
    def test_options_are_pinned(self, name):
        command = cli if name is None else cli.commands[name]
        assert self.surface(command) == CLI_SURFACE[name]

    def test_import_leaves_urllib_request_unloaded(self):
        # urllib.request loads http.client, ssl and email. Only the http
        # backend and fetch-background use it, and each imports it itself.
        src = str(Path(vulnaug.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import vulnaug.cli; "
                "print('urllib.request' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True)
        assert done.stdout.strip() == "False"
