import dataclasses
import functools
import hashlib
import inspect
import json
import math
import os
import re
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

from helpers import (family_corpus, feed_text, load_probe, make_record, masked_eval_fixture,
                     struts_gov_records, write_testset)
import vulnaug
from vulnaug import featcorr, genprompt
from vulnaug.cli import cli
from vulnaug.corpus import AspectKind, Corpus, Source, mask_aspect, parse_feed
from vulnaug.embed import EmbeddingModel
from vulnaug.errors import BackendError, GenerationFailed, MissingPrerequisite
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


    def test_line_separators_inside_strings_survive_the_training_chain(self, runner,
                                                                      tmp_path):
        # ingest writes U+0085, U+2028 and U+2029 raw; every later reader
        # must split lines at "\n" alone.
        records = small_feed_records(6)
        records[0] = dataclasses.replace(records[0], raw_software_names=["Foo\u0085Bar"])
        records[1] = dataclasses.replace(records[1],
                                         description="widget1 \u2028 fails\u2029 badly.")
        feed = write_feed(tmp_path, records)
        corpus = tmp_path / "corpus.jsonl"
        for step in (["ingest", str(feed), "-o", str(corpus)],
                     ["build-map", "--corpus", str(corpus), "-o", str(tmp_path / "map.tsv")],
                     ["train-embed", "--corpus", str(corpus), "-o", str(tmp_path / "e.bin")]):
            result = runner.invoke(cli, step)
            assert result.exit_code == 0, f"{step}: {result.output}"
        assert "\u0085" in corpus.read_text(encoding="utf-8")
        assert "Foo Bar\tCVE-2023-1000" in (tmp_path / "map.tsv").read_text(encoding="utf-8")


class TestPathErrors:
    """A path that names a directory where a file belongs, or a file where a
    directory belongs, exits 2 with one error line naming it, and leaves no
    temp file behind."""

    @pytest.fixture()
    def paths(self, tmp_path):
        write_feed(tmp_path, small_feed_records(3))
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("x")
        return tmp_path

    def assert_fails_naming(self, result, tmp_path, path, before):
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"error: {path}: ")
        assert result.output.count("\n") == 1 and "Traceback" not in result.output
        assert sorted(p.name for p in tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", [["ingest"], ["build-map", "--corpus"]],
                             ids=["ingest", "build-map"])
    def test_directory_as_input(self, runner, paths, command):
        before = sorted(p.name for p in paths.rglob("*"))
        result = runner.invoke(cli, command + [str(paths / "dir"),
                                               "-o", str(paths / "out")])
        self.assert_fails_naming(result, paths, paths / "dir", before)

    def test_directory_as_config_file(self, runner, paths):
        # The group's own options fail like a command's.
        before = sorted(p.name for p in paths.rglob("*"))
        result = runner.invoke(cli, ["--config", str(paths / "dir"), "cost", "--n", "2",
                                     "--x", "0.5"])
        self.assert_fails_naming(result, paths, paths / "dir", before)

    def test_directory_as_output(self, runner, paths):
        before = sorted(p.name for p in paths.rglob("*"))
        result = runner.invoke(cli, ["ingest", str(paths / "feed.jsonl"),
                                     "-o", str(paths / "dir")])
        self.assert_fails_naming(result, paths, paths / "dir", before)

    def test_file_as_output_directory(self, runner, paths):
        before = sorted(p.name for p in paths.rglob("*"))
        result = runner.invoke(cli, ["ingest", str(paths / "feed.jsonl"),
                                     "-o", str(paths / "file" / "x")])
        self.assert_fails_naming(result, paths, paths / "file", before)


class TestErrorCodes:
    @pytest.mark.parametrize("error,code,message", [
        (ValueError("bad value"), 2, "bad value"),
        (FileNotFoundError(2, "No such file or directory", "gone.txt"), 2,
         "gone.txt: No such file or directory"),
        (MissingPrerequisite("embedding model", "e.bin"), 3,
         "missing prerequisite artifact: embedding model (e.bin)"),
        (GenerationFailed("every round failed"), 1, "every round failed"),
    ], ids=["value", "file", "prerequisite", "package"])
    def test_a_command_added_to_the_group_has_its_errors_mapped(self, runner, error, code,
                                                                message):
        # The group maps the errors of every command, not only of those it was built with.
        @click.command("throwaway")
        def throwaway():
            raise error

        cli.add_command(throwaway)
        try:
            result = runner.invoke(cli, ["throwaway"])
        finally:
            del cli.commands["throwaway"]
        assert result.exit_code == code, result.output
        assert result.output == f"error: {message}\n"


class TestOsErrors:
    """Every OS error that names a file exits 2 naming it; one that names
    none is left to propagate."""

    def test_output_name_too_long_names_the_path_given(self, runner, tmp_path):
        feed = write_feed(tmp_path, small_feed_records(3))
        out = tmp_path / ("x" * 300 + ".jsonl")
        result = runner.invoke(cli, ["ingest", str(feed), "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output == f"error: {out}: File name too long\n"
        assert [p.name for p in tmp_path.iterdir()] == ["feed.jsonl"]

    def test_unreadable_input_exits_two(self, runner, tmp_path, monkeypatch):
        feed = write_feed(tmp_path, small_feed_records(3))

        def refuse(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(Path, "open", refuse)
        out = tmp_path / "corpus.jsonl"
        result = runner.invoke(cli, ["ingest", str(feed), "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output == f"error: {feed}: Permission denied\n"
        assert not out.exists()

    def test_error_naming_no_file_propagates(self, runner):
        @click.command("throwaway")
        def throwaway():
            raise OSError(5, "Input/output error")

        cli.add_command(throwaway)
        try:
            result = runner.invoke(cli, ["throwaway"])
        finally:
            del cli.commands["throwaway"]
        assert result.exit_code == 1
        assert type(result.exception) is OSError and result.exception.filename is None


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /dev/fd paths")
class TestPipes:
    """A line input may be a pipe, read once through its /dev/fd path."""

    @pytest.fixture()
    def piped(self):
        """A function that writes bytes into a new pipe and returns the
        /dev/fd path of its read end, closed after the test."""
        ends = []

        def pipe(data):
            read_fd, write_fd = os.pipe()
            ends.append(read_fd)
            assert len(data) < 1 << 16  # what a pipe holds unread
            with os.fdopen(write_fd, "wb") as writer:
                writer.write(data)
            return f"/dev/fd/{read_fd}"

        yield pipe
        for fd in ends:
            os.close(fd)

    def test_ingest_reads_a_pipe_as_the_file(self, runner, tmp_path, piped):
        feed = write_feed(tmp_path, small_feed_records(6))
        from_file, from_pipe = tmp_path / "file.jsonl", tmp_path / "pipe.jsonl"
        assert runner.invoke(cli, ["ingest", str(feed), "-o", str(from_file)]).exit_code == 0
        result = runner.invoke(cli, ["ingest", piped(feed.read_bytes()), "-o", str(from_pipe)])
        assert result.exit_code == 0, result.output
        assert from_pipe.read_bytes() == from_file.read_bytes()

    def test_stats_reads_the_map_from_a_pipe(self, runner, artifacts, piped):
        corpus, mapping = artifacts[:2]
        result = runner.invoke(cli, ["stats", "--corpus", str(corpus),
                                     "--map", piped(mapping.read_bytes())])
        assert result.exit_code == 0, result.output

    def test_augment_with_bad_last_target_writes_nothing(self, runner, tmp_path, artifacts,
                                                         piped):
        data = feed_text(small_feed_records(3)).encode("utf-8") + b"\xff\n"
        targets = piped(data)
        audit, out = tmp_path / "audit.jsonl", tmp_path / "out.jsonl"
        result = runner.invoke(cli, pipeline_args("augment", artifacts) + [
            "--audit", str(audit), "--targets", targets, "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"error: {targets}:4: not UTF-8 text: ")
        assert not audit.exists() and not out.exists()


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

    def test_term_with_a_tab_exits_two_before_any_request(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr("urllib.request.urlopen", no_network)
        args = self.args(tmp_path)
        (tmp_path / "terms.txt").write_text("alpha\n\nbe\tta\n")
        result = runner.invoke(cli, args)
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith(f"error: {tmp_path / 'terms.txt'}:3: term 'be\\tta'")
        assert not (tmp_path / "background.tsv").exists()

    @pytest.mark.parametrize("reply", [[1, 2], "alpha", 3, None, {"extract": 5},
                                       {"extract": None}, {"description": ["b"]},
                                       {"extract": "Beta.", "description": {"b": 1}}])
    def test_reply_that_is_not_an_article_is_skipped(self, runner, tmp_path, reply):
        # The terms before and after the bad reply are still saved.
        args = self.args(tmp_path)
        (tmp_path / "terms.txt").write_text("alpha\nbeta\ngamma\n")
        (tmp_path / "beta.json").write_text(json.dumps(reply))
        (tmp_path / "gamma.json").write_text(json.dumps({"extract": "", "description": "G."}))
        result = runner.invoke(cli, args)
        assert result.exit_code == 0, result.output
        assert (tmp_path / "background.tsv").read_text() == "alpha\tAlpha is a letter.\ngamma\tG.\n"
        assert "fetched 2/3 articles" in result.stdout
        assert result.stderr == ("warning: beta: the reply is not a JSON object whose extract"
                                 " and description are strings\n")

    def test_crlf_terms_fetch_as_their_lf_twin(self, runner, tmp_path):
        args = self.args(tmp_path)
        (tmp_path / "terms.txt").write_bytes(b"alpha\r\n\r\nbeta\r\n")
        result = runner.invoke(cli, args)
        assert result.exit_code == 0, result.output
        assert (tmp_path / "background.tsv").read_text() == "alpha\tAlpha is a letter.\n"
        assert "fetched 1/2 articles" in result.stdout
        assert result.stderr.startswith("warning: beta:")


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

    @pytest.mark.parametrize("flag,value,name", [
        ("--dim", "0", "dim"),
        ("--epochs", "0", "epochs"),
        ("--window", "-1", "window"),
        ("--negative", "0", "negative_samples"),
    ])
    def test_bad_setting_exits_two_before_reading_the_corpus(self, runner, tmp_path, flag,
                                                             value, name):
        # A missing corpus would exit 3: the setting is checked first.
        result = runner.invoke(cli, ["train-embed", "--corpus", str(tmp_path / "missing.jsonl"),
                                     flag, value, "-o", str(tmp_path / "embed.bin")])
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"error: {name} must be >= 1")
        assert list(tmp_path.iterdir()) == []


def template_records(n):
    """``n`` records of 12 tokens, 10 of them template words seen in every
    record: from 53 records on, those words are above the subsampling floor."""
    return [make_record(f"CVE-2022-{1000 + i}",
                        f"buffer overflow in widget{i % 7} allows remote attackers"
                        f" to run code via packet{i % 13}")
            for i in range(n)]


class TestTrainEmbedOutput:
    @pytest.mark.parametrize("n", [40, 120])
    def test_summary_line_counts_the_positions_trained(self, runner, tmp_path, n):
        # bench/run.py reads the record count from "over N records".
        corpus = write_feed(tmp_path, template_records(n), "corpus.jsonl")
        out = tmp_path / "embed.bin"
        result = runner.invoke(cli, ["train-embed", "--corpus", str(corpus), "--epochs", "2",
                                     "-o", str(out)])
        assert result.exit_code == 0, result.output
        line = re.fullmatch(r"trained (\d+)x64 embeddings over (\d+) records \((\d+) tokens,"
                            r" (\d+\.\d) trained per epoch\) -> (.+)\n", result.output)
        assert line is not None, result.output
        vocab, records, tokens, per_epoch, path = line.groups()
        assert int(vocab) == 10 + 7 + 13 and int(records) == n and int(tokens) == 12 * n
        assert path == str(out) and out.exists()
        if n == 40:  # every word is seen at most 40 times: all trained
            assert per_epoch == f"{12 * n}.0"
        else:  # the 10 template words are kept with p = sqrt(1/6) + 1/6 = 0.575
            assert 2 * n + 0.4 * 10 * n < float(per_epoch) < 2 * n + 0.75 * 10 * n


class TestTrainCorrSettings:
    @pytest.mark.parametrize("flag,value,name", [
        ("--epochs", "0", "epochs"),
        ("--epochs", "-3", "epochs"),
        ("--lr", "0", "learning_rate"),
        ("--lr", "-1", "learning_rate"),
        ("--lr", "nan", "learning_rate"),
        ("--lr", "inf", "learning_rate"),
        ("--lr", "1", "learning_rate"),
        ("--lr", "1.5", "learning_rate"),
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


    def test_summary_line_keeps_the_form_the_benchmark_parses(self, runner, tmp_path,
                                                               artifacts):
        # bench/run.py reads the pair counts and the final loss from this line.
        corpus, _, embedding, _ = artifacts
        out = tmp_path / "corr.bin"
        result = runner.invoke(cli, ["train-corr", "--corpus", str(corpus), "--embed",
                                     str(embedding), "-o", str(out)])
        assert result.exit_code == 0, result.output
        line = re.fullmatch(r"trained correlation model on (\d+) positive / (\d+) negative"
                            r" pairs, final loss (\S+) -> (.+)\n", result.output)
        assert line is not None, result.output
        positives, negatives, loss, path = line.groups()
        assert int(negatives) == 2 * int(positives) > 0
        assert math.isfinite(float(loss)) and float(loss) > 0
        assert path == str(out) and out.exists()


class TestTrainCorrOutput:
    @pytest.mark.parametrize("background", [False, True], ids=["no-store", "store"])
    def test_model_file_matches_the_in_process_model(self, runner, tmp_path, artifacts,
                                                     background):
        corpus, _, embedding, _ = artifacts
        store_path = tmp_path / "background.tsv"
        store_path.write_text("flaw kind1\tcause bug1 impact result2\n"
                              "widget0\tvia port3 attacker group4 flaw\n")
        out = tmp_path / "corr.bin"
        args = ["--seed", "7", "train-corr", "--corpus", str(corpus), "--embed", str(embedding),
                "--epochs", "30", "-o", str(out)]
        result = runner.invoke(cli, args + (["--background", str(store_path)] if background else []))
        assert result.exit_code == 0, result.output
        records = parse_feed(corpus.read_bytes()).records
        pairs = featcorr.build_training_pairs(Corpus.from_records(records), seed=7)
        model = featcorr.train_correlation(
            pairs, BackgroundStore.from_file(store_path) if background else None,
            EmbeddingModel.load(embedding), featcorr.CorrTrainConfig(epochs=30, seed=7))
        model.save(tmp_path / "want.bin")
        assert out.read_bytes() == (tmp_path / "want.bin").read_bytes()


class TestUntrainableCorpus:
    @staticmethod
    def corpus(runner, tmp_path, records):
        corpus = tmp_path / "corpus.jsonl"
        result = runner.invoke(cli, ["ingest", str(write_feed(tmp_path, records)), "-o", str(corpus)])
        assert result.exit_code == 0, result.output
        return corpus

    def test_train_corr_without_a_two_aspect_record_exits_two(self, runner, tmp_path,
                                                               artifacts):
        _, _, embedding, _ = artifacts
        corpus = self.corpus(runner, tmp_path, [
            make_record(f"CVE-2023-{2000 + i}", f"widget{i} crashes.",
                        aspects={AspectKind.IMPACT: f"crash {i}"}) for i in range(3)])
        out = tmp_path / "corr.bin"
        result = runner.invoke(cli, ["train-corr", "--corpus", str(corpus), "--embed",
                                     str(embedding), "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {corpus}: no record has two or more populated aspects\n"
        assert not out.exists()

    def test_train_embed_on_one_distinct_token_exits_two(self, runner, tmp_path):
        corpus = self.corpus(runner, tmp_path, [make_record("CVE-2023-2000", "crash crash")])
        out = tmp_path / "embed.bin"
        result = runner.invoke(cli, ["train-embed", "--corpus", str(corpus), "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {corpus}: need at least 2 distinct tokens, got 1\n"
        assert not out.exists()


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


class TestImports:
    def test_cli_leaves_out_what_only_some_commands_run(self):
        # evaluate and cost import evalkit (with csv); map_ordered imports its
        # thread pool (with logging) only for more than one job.
        code = (f"import sys; sys.path.insert(0, {SRC!r}); import vulnaug.cli;"
                " print(sorted(m for m in ('vulnaug.evalkit', 'concurrent.futures')"
                " if m in sys.modules))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_commands_without_arrays_leave_numpy_unloaded(self, tmp_path):
        # The name-mapping stage, cost and --help touch no array, so
        # importing numpy would be their largest fixed cost.
        feed = write_feed(tmp_path, small_feed_records(4))
        corpus, mapping = tmp_path / "corpus.jsonl", tmp_path / "mapping.tsv"
        commands = [["--help"], ["ingest", str(feed), "-o", str(corpus)],
                    ["build-map", "--corpus", str(corpus), "-o", str(mapping)],
                    ["cost", "--n", "10", "--x", "0.5"]]
        code = (f"import sys; sys.path.insert(0, {SRC!r})\n"
                "import vulnaug, vulnaug.cli, vulnaug.pipeline, vulnaug.genprompt\n"
                "from click.testing import CliRunner\n"
                f"for args in {commands!r}:\n"
                "    result = CliRunner().invoke(vulnaug.cli.cli, args)\n"
                "    assert result.exit_code == 0, result.output\n"
                "print('numpy' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"
        assert corpus.exists() and mapping.exists()


class TestStats:
    @pytest.mark.parametrize("group,command", [
        ([], ["--threshold", "0"]),
        ([], ["--threshold", "-4"]),
        (["--config", "CONFIG"], []),
    ])
    def test_threshold_below_one_exits_two_before_loading(self, runner, tmp_path, monkeypatch,
                                                          group, command):
        reads = []
        monkeypatch.setattr(Path, "read_bytes", lambda path: reads.append(path))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"long_tail_threshold": 0}))
        corpus = write_feed(tmp_path, small_feed_records(3))
        out = tmp_path / "stats.json"
        args = [str(config) if arg == "CONFIG" else arg for arg in group]
        result = runner.invoke(cli, args + ["stats", "--corpus", str(corpus)] + command
                               + ["-o", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: long_tail_threshold must be >= 1")
        assert reads == [] and not out.exists()

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


def two_label_testset(path):
    """A testset that masks two aspects of CVE-2023-1001: one cve_id, two labels."""
    rec = small_feed_records(2)[1]
    return write_testset(path, [(masked, kind, label)
                                for kind in (AspectKind.IMPACT, AspectKind.ROOT_CAUSE)
                                for masked, label in [mask_aspect(rec, kind)]])


def without(key):
    return lambda good: json.dumps({k: v for k, v in good.items() if k != key})


class TestBadInputFiles:
    @pytest.mark.parametrize("settings,needle", [
        ({"endpoint": "http://localhost:9/v1", "model": "m", "bogus": 1}, "bogus"),
        ({"endpoint": "http://localhost:9/v1"}, "model"),
        (["http://localhost:9/v1", "m"], "JSON object"),
        ({"endpoint": "http://localhost:9/v1", "model": "m", "max_retries": -1}, "max_retries"),
        ({"endpoint": "http://localhost:9/v1", "model": "m", "timeout_s": 0}, "timeout_s"),
        ({"endpoint": "http://localhost:9/v1", "model": "m", "timeout_s": float("inf")},
         "timeout_s"),
        ({"endpoint": "http://localhost:9/v1", "model": "m", "timeout_s": float("nan")},
         "timeout_s"),
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
        (lambda good: "{not json", "Expecting property name"),
        (lambda good: "[1, 2]", "JSON object"),
        (without("masked_aspect"), "masked_aspect"),
        (without("label"), "label"),
        (without("published"), "published"),
        (lambda good: json.dumps({**good, "masked_aspect": "no such aspect"}), "no such aspect"),
        (lambda good: json.dumps({**good, "label": 5}), "label"),
        (lambda good: json.dumps({**good, "label": None}), "label"),
        (lambda good: json.dumps({**good, "label": ""}), "label"),
        (lambda good: json.dumps({**good, "label": "..."}), "label"),
        (lambda good: json.dumps({**good, "label": ["x"]}), "label"),
        (lambda good: json.dumps({**good, "aspects": {**good["aspects"],
                                                      "attacker_type": "attacker group0"}}),
         "attacker_type"),
        (lambda good: json.dumps({**good, "aspects": ["x"]}), "aspects"),
        (lambda good: json.dumps({**good, "aspects": {**good["aspects"], "impact": 7}}),
         "impact"),
        (lambda good: json.dumps({**good, "description": 5}), "description"),
        (lambda good: json.dumps({**good, "software_names": "abc"}), "software_names"),
    ], ids=["not-json", "not-object", "no-aspect", "no-label", "no-published", "bad-aspect",
            "label-int", "label-null", "label-empty", "label-no-token", "label-list",
            "slot-filled", "aspects-list", "aspect-int", "description-int", "names-string"])
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
        assert result.output.startswith(f"error: {testset}:2: ") and needle in result.output
        assert "column" not in result.output
        assert not prefix.with_suffix(".txt").exists()


@pytest.mark.parametrize("published", ["20020703", "2002-W27-3", "2002-07-03T00:00",
                                       "2002-07-03"])
def test_published_is_read_in_one_form_only(runner, tmp_path, artifacts, published):
    # date.fromisoformat reads the first three as 2002-07-03 on Python 3.11
    # and rejects them on 3.10; the feed takes YYYY-MM-DD alone on both.
    lines = []
    for i, date_text in ((0, "2002-07-03"), (3, published)):
        obj = small_feed_records(4)[i].to_json_obj()
        lines.append(json.dumps({**obj, "published": date_text, "masked_aspect": "attacker_type",
                                 "label": f"attacker group{i}"}))
    feed = tmp_path / "dated.jsonl"
    feed.write_text("\n".join(lines) + "\n", encoding="utf-8")
    ingest = runner.invoke(cli, ["ingest", str(feed), "-o", str(tmp_path / "corpus.jsonl")])
    evaluate = runner.invoke(cli, ["--backend", "oracle"] + pipeline_args("evaluate", artifacts)
                             + ["--testset", str(feed), "-o", str(tmp_path / "report")])
    assert ingest.exit_code == 0, ingest.output
    if published == "2002-07-03":
        assert "ingested 2 records" in ingest.output and not ingest.stderr
        assert evaluate.exit_code == 0, evaluate.output
    else:
        message = f"{feed}:2: published must be a YYYY-MM-DD date, got {published!r}"
        assert "ingested 1 records" in ingest.output
        assert ingest.stderr == f"warning: {message}\n"
        assert evaluate.exit_code == 2 and evaluate.output == f"error: {message}\n"


class TestBadFeedLines:
    """A malformed line in any feed-format input exits 2 naming path:line."""

    def bad_feed(self, tmp_path):
        good = small_feed_records(2)
        path = tmp_path / "bad.jsonl"
        path.write_text(good[0].to_json_line() + "\n{broken\n" + good[1].to_json_line() + "\n",
                        encoding="utf-8")
        return path

    def check(self, result, path):
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"error: {path}:2: "), result.output

    def test_ingest_feed(self, runner, tmp_path):
        good = write_feed(tmp_path, small_feed_records(2), "good.jsonl")
        bad = self.bad_feed(tmp_path)
        self.check(runner.invoke(cli, ["ingest", str(good), str(bad), "-o",
                                       str(tmp_path / "corpus.jsonl")]), bad)

    def test_corpus(self, runner, tmp_path):
        bad = self.bad_feed(tmp_path)
        self.check(runner.invoke(cli, ["build-map", "--corpus", str(bad), "-o",
                                       str(tmp_path / "map.tsv")]), bad)

    def test_targets(self, runner, tmp_path, artifacts):
        bad = self.bad_feed(tmp_path)
        self.check(runner.invoke(cli, pipeline_args("augment", artifacts) + [
            "--targets", str(bad), "-o", str(tmp_path / "out.jsonl")]), bad)


class TestNotUtf8Lines:
    """A line file whose second line is not UTF-8 exits 2 naming path:2."""

    @staticmethod
    def bad_copy(tmp_path, first_line):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(first_line.encode("utf-8") + b"\n\xff\n")
        return bad

    def check(self, result, path):
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"error: {path}:2: not UTF-8 text: "), result.output

    def test_feed(self, runner, tmp_path):
        bad = self.bad_copy(tmp_path, small_feed_records(1)[0].to_json_line())
        self.check(runner.invoke(cli, ["build-map", "--corpus", str(bad), "-o",
                                       str(tmp_path / "map.tsv")]), bad)

    def test_testset(self, runner, tmp_path, artifacts):
        # A valid first line, so that the error is line 2's bytes.
        rec = small_feed_records(2)[1]
        masked, label = mask_aspect(rec, AspectKind.IMPACT)
        bad = write_testset(tmp_path / "bad.txt", [(masked, AspectKind.IMPACT, label)])
        bad.write_bytes(bad.read_bytes() + b"\xff\n")
        self.check(runner.invoke(cli, ["--backend", "oracle"] + pipeline_args("evaluate", artifacts)
                                 + ["--testset", str(bad), "-o", str(tmp_path / "report")]), bad)

    def test_map(self, runner, tmp_path, artifacts):
        bad = self.bad_copy(tmp_path, "Foo\tCVE-2099-1000")
        self.check(runner.invoke(cli, ["stats", "--corpus", str(artifacts[0]), "--map", str(bad)]),
                   bad)

    def test_background(self, runner, tmp_path, artifacts):
        bad = self.bad_copy(tmp_path, "widget0\twidget zero is a tool")
        self.check(runner.invoke(cli, pipeline_args("augment", artifacts) + [
            "--background", str(bad), "-o", str(tmp_path / "out.jsonl")]), bad)


class TestMappingFile:
    @pytest.mark.parametrize("lines, line_no, needle", [
        (["Foo\tCVE-2099-1000,bogus,"], 2, "'bogus' is not a CVE id"),
        (["Foo\tCVE-2099-1000,"], 2, "empty CVE id"),
        (["Foo\tCVE-2099-1000,,CVE-2099-1001"], 2, "empty CVE id"),
        (["  \tCVE-2099-1000"], 2, "empty software name"),
        (["Foo\tCVE-2099-1000", "", "Bar\tCVE-2099-1001,CVE-2099-1000"], 4,
         "CVE-2099-1000 is already mapped to 'Foo'"),
    ])
    def test_bad_line_exits_two_naming_the_file_and_line(self, runner, tmp_path, artifacts,
                                                          lines, line_no, needle):
        corpus, good, _, _ = artifacts
        bad = tmp_path / "mapping.tsv"
        bad.write_text("\n".join([good.read_text().splitlines()[0], *lines]) + "\n")
        out = tmp_path / "stats.json"
        result = runner.invoke(cli, ["stats", "--corpus", str(corpus), "--map", str(bad),
                                     "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert f"{bad}:{line_no}: {needle}" in result.output
        assert "records=" not in result.output
        assert not out.exists()


class TestBackgroundFile:
    @pytest.mark.parametrize("lines, line_no, needle", [
        (["widget0 has no tab"], 2, "expected term TAB body"),
        (["  \twidget zero is a tool"], 2, "blank term"),
        (["widget1\tone", "", "widget1\tanother body"], 4, "term 'widget1' is on an earlier line"),
    ])
    def test_bad_line_exits_two_naming_the_file_and_line(self, runner, tmp_path, artifacts,
                                                          lines, line_no, needle):
        bad = tmp_path / "background.tsv"
        bad.write_text("\n".join(["widget0\twidget zero is a tool", *lines]) + "\n")
        out = tmp_path / "out.jsonl"
        result = runner.invoke(cli, pipeline_args("augment", artifacts) + [
            "--background", str(bad), "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output == f"error: {bad}:{line_no}: {needle}\n"
        assert not out.exists()


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
        if command == "evaluate":
            args += ["--aspect", "impact"]
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


class TestProbeContract:
    def test_every_traced_name_resolves(self):
        probe = load_probe()
        missing = [name for name, (module, path) in probe.TRACED.items()
                   if probe._lookup(module, path) is None]
        assert missing == []

    @pytest.mark.parametrize("stage", ["retrieve_pool", "select_examples", "software_features",
                                       "rank_candidates"])
    def test_augment_calls_the_stage_set_on_the_pipeline_module(self, runner, tmp_path,
                                                                artifacts, monkeypatch, stage):
        calls = Counter()
        monkeypatch.setattr(vulnaug.pipeline, stage,
                            counting(calls, stage, getattr(vulnaug.pipeline, stage)))
        out = tmp_path / "out.jsonl"
        result = runner.invoke(cli, pipeline_args("augment", artifacts) + [
            "--rounds", "1", "-o", str(out)])
        assert result.exit_code == 0, result.output
        slots = len(out.read_text(encoding="utf-8").splitlines())
        assert slots > 0 and calls == {stage: slots}


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

    # ``{inputs}`` stands for a directory holding answers.json, a JSON list
    # where an answer table belongs, bad.json, which is not JSON, and
    # testset.jsonl, whose first line is not JSON. Settings given as a string
    # are the config file's text.
    @pytest.mark.parametrize("command,settings,message", [
        ("augment", {"example_strategy": "foo"}, "example_strategy must be"),
        ("evaluate", {"example_strategy": "foo"}, "example_strategy must be"),
        ("augment", {"aggregation": "mean"},
         "bad config file: {inputs}/config.json: unknown keys ['aggregation']"),
        ("augment", {"rounds": 0}, "rounds must be"),
        ("evaluate", {"rounds": -2}, "rounds must be"),
        ("augment", {"backend": "bogus"}, "unknown backend: 'bogus'"),
        ("evaluate", {"backend": "bogus"}, "unknown backend: 'bogus'"),
        ("augment", {"backend": "oracle", "oracle_answers": "{inputs}/answers.json"},
         "{inputs}/answers.json: expected a JSON object"),
        ("evaluate", {"backend": "oracle", "oracle_answers": "{inputs}/answers.json"},
         "{inputs}/answers.json: expected a JSON object"),
        ("evaluate --testset {inputs}/testset.jsonl", {}, "{inputs}/testset.jsonl:1: "),
        ("augment", {"temperature": -3.0}, "temperature must be"),
        ("augment", {"temperature": float("nan")}, "temperature must be"),
        ("evaluate", {"temperature": float("inf")}, "temperature must be"),
        ("augment", {"backend": "oracle", "oracle_answers": "{inputs}/bad.json"},
         "{inputs}/bad.json: Expecting property name"),
        ("augment", {"backend": "http", "backend_config": "{inputs}/bad.json"},
         "{inputs}/bad.json: Expecting property name"),
        ("augment", "{bad", "bad config file: {inputs}/config.json: Expecting property name"),
    ], ids=[
        "augment-settings0-example_strategy", "evaluate-settings1-example_strategy",
        "augment-settings2-aggregation", "augment-settings3-rounds", "evaluate-settings4-rounds",
        "augment-backend", "evaluate-backend", "augment-oracle-answers",
        "evaluate-oracle-answers", "evaluate-testset-line", "augment-temperature-negative",
        "augment-temperature-nan", "evaluate-temperature-inf", "augment-oracle-answers-not-json",
        "augment-backend-config-not-json", "augment-config-not-json",
    ])
    def test_bad_pipeline_setting_exits_two_before_loading(self, runner, tmp_path, artifacts,
                                                           monkeypatch, command, settings,
                                                           message):
        loads = []
        monkeypatch.setattr(EmbeddingModel, "load", lambda path: loads.append(path))
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        (inputs / "answers.json").write_text("[1]")
        (inputs / "bad.json").write_text("{bad")
        (inputs / "testset.jsonl").write_text("{not json\n")
        config = inputs / "config.json"
        if isinstance(settings, dict):
            settings = json.dumps({**{key: value.format(inputs=inputs) if isinstance(value, str)
                                      else value for key, value in settings.items()},
                                   "audit": str(tmp_path / "audit.jsonl")})
        config.write_text(settings)
        name, *extra = command.format(inputs=inputs).split()
        out = tmp_path / "out"
        result = runner.invoke(cli, ["--config", str(config)] + pipeline_args(name, artifacts)
                               + extra + ["--aspect", "impact", "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"error: {message.format(inputs=inputs)}")
        assert loads == []
        assert list(tmp_path.iterdir()) == [inputs]

    @pytest.mark.parametrize("command,settings", [
        (["--threshold", "0"], {}),
        (["--threshold", "-1"], {}),
        ([], {"long_tail_threshold": 0}),
    ])
    def test_evaluate_threshold_below_one_exits_two_before_loading(
            self, runner, tmp_path, artifacts, monkeypatch, command, settings):
        loads = []
        monkeypatch.setattr(EmbeddingModel, "load", lambda path: loads.append(path))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(settings))
        out = tmp_path / "report"
        result = runner.invoke(cli, ["--config", str(config)] + pipeline_args("evaluate", artifacts)
                               + ["--aspect", "impact"] + command + ["-o", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: long_tail_threshold must be >= 1")
        assert loads == []
        assert list(tmp_path.iterdir()) == [config]

    def test_evaluate_with_oracle_backend(self, runner, tmp_path):
        corpus_obj, _, testset = masked_eval_fixture(8)
        records = list(corpus_obj)
        corpus, mapping, embedding, correlation = build_artifacts(runner, tmp_path, records)
        testset_path = write_testset(tmp_path / "testset.jsonl", testset)
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

    def test_evaluate_testset_keeps_only_the_aspect_given(self, runner, tmp_path):
        corpus_obj, _, testset = masked_eval_fixture(10)
        corpus, mapping, embedding, correlation = build_artifacts(runner, tmp_path, list(corpus_obj))
        testset_path = write_testset(tmp_path / "testset.jsonl", testset)
        prefix = tmp_path / "report"
        result = runner.invoke(
            cli,
            ["--backend", "oracle", "evaluate",
             "--corpus", str(corpus), "--map", str(mapping),
             "--embed", str(embedding), "--corr", str(correlation),
             "--testset", str(testset_path), "--aspect", "impact", "-o", str(prefix)],
        )
        assert result.exit_code == 0, result.output
        rows = [json.loads(line) for line in prefix.with_suffix(".jsonl").read_text().splitlines()]
        impact_rows = sum(1 for _, kind, _ in testset if kind == AspectKind.IMPACT)
        assert 0 < impact_rows < len(testset)
        assert rows and all(row["aspect"] == "impact" for row in rows)
        assert sum(row["count"] for row in rows) == impact_rows
        assert all(row["dataset"] == str(testset_path) for row in rows)

    def test_evaluate_warns_only_when_labels_come_from_the_training_corpus(self, runner,
                                                                          tmp_path):
        corpus_obj, _, testset = masked_eval_fixture(10)
        artifacts = build_artifacts(runner, tmp_path, list(corpus_obj))
        testset_path = write_testset(tmp_path / "testset.jsonl", testset)
        warning = ("warning: the 'impact' labels come from the corpus the models were trained on;"
                   " pass --testset for held-out slots\n")
        for extra, stderr in [([], warning), (["--testset", str(testset_path)], "")]:
            result = runner.invoke(cli, ["--backend", "oracle"]
                                   + pipeline_args("evaluate", artifacts) + extra
                                   + ["--aspect", "impact", "-o", str(tmp_path / "report")])
            assert result.exit_code == 0, result.output
            assert result.stderr == stderr

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

    def test_augment_targets_of_the_corpus_file_write_what_augment_writes(self, runner,
                                                                          tmp_path):
        # CVE-2023-1000 lacks its attacker type and comes from two sources, so
        # the corpus file holds it twice; its slot still makes one row.
        records = small_feed_records(6)
        gov = dataclasses.replace(records[0], source=Source.GOV_JVN)
        artifacts = build_artifacts(runner, tmp_path, records + [gov])
        corpus = artifacts[0]
        assert [json.loads(line)["cve_id"] for line in corpus.read_text().splitlines()
                ].count("CVE-2023-1000") == 2
        rows = {}
        for name, targets in (("corpus", []), ("targets", ["--targets", str(corpus)])):
            out = tmp_path / f"augmented-{name}.jsonl"
            result = runner.invoke(cli, pipeline_args("augment", artifacts) + targets
                                   + ["--rounds", "1", "-o", str(out)])
            assert result.exit_code == 0, result.output
            rows[name] = out.read_bytes()
        keys = [(row["cve_id"], row["aspect"])
                for row in map(json.loads, rows["corpus"].splitlines())]
        assert ("CVE-2023-1000", "attacker_type") in keys and len(set(keys)) == len(keys)
        assert rows["targets"] == rows["corpus"]

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
        for strategy in ["cluster", "similarity"]:
            reports = []
            for jobs in ["1", "3"]:
                prefix = tmp_path / f"report-{strategy}-{jobs}"
                result = runner.invoke(
                    cli,
                    ["--jobs", jobs, "--backend", "oracle", "evaluate",
                     "--corpus", str(corpus), "--map", str(mapping),
                     "--embed", str(embedding), "--corr", str(correlation),
                     "--background", str(background), "--example-strategy", strategy,
                     "--aspect", "impact", "-o", str(prefix)],
                )
                assert result.exit_code == 0, result.output
                reports.append([prefix.with_suffix(ext).read_bytes()
                                for ext in (".txt", ".jsonl", ".csv")])
            assert reports[0] == reports[1], strategy

    def test_evaluate_audits_the_oracle_like_any_backend(self, runner, tmp_path):
        corpus, mapping, embedding, correlation = build_artifacts(
            runner, tmp_path, small_feed_records()
        )
        audit_lines = {}
        for backend in ["mock", "oracle"]:
            audit = tmp_path / f"audit-{backend}.jsonl"
            config = tmp_path / f"config-{backend}.json"
            config.write_text(json.dumps({"audit": str(audit)}))
            result = runner.invoke(
                cli,
                ["--config", str(config), "--backend", backend, "evaluate",
                 "--corpus", str(corpus), "--map", str(mapping),
                 "--embed", str(embedding), "--corr", str(correlation),
                 "--aspect", "impact", "-o", str(tmp_path / f"report-{backend}")],
            )
            assert result.exit_code == 0, result.output
            audit_lines[backend] = audit.read_text().splitlines()
        assert len(audit_lines["oracle"]) == len(audit_lines["mock"]) > 0
        assert {json.loads(line)["backend"] for line in audit_lines["oracle"]} == {"oracle"}

    @pytest.mark.parametrize("lines,aspect", [
        (["{testset_line}"], "impact"), (["", " "], None), ([], "attacker_type")],
        ids=["aspect-not-masked", "blank-lines", "empty-file"])
    def test_evaluate_testset_with_nothing_to_score_exits_two_before_loading(
            self, runner, tmp_path, artifacts, monkeypatch, lines, aspect):
        good = small_feed_records(1)[0].to_json_obj()
        testset = tmp_path / "testset.jsonl"
        testset.write_text("".join(line.format(testset_line=json.dumps(
            {**good, "masked_aspect": "attacker_type", "label": "attacker group0"})) + "\n"
            for line in lines))
        loads = []
        monkeypatch.setattr(EmbeddingModel, "load", lambda path: loads.append(path))
        prefix = tmp_path / "report"
        result = runner.invoke(cli, ["--backend", "oracle"] + pipeline_args("evaluate", artifacts)
                               + ["--testset", str(testset), "-o", str(prefix)]
                               + (["--aspect", aspect] if aspect else []))
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"error: nothing to evaluate: {testset} holds no line")
        assert (f"that masks {aspect!r}" in result.output) == (aspect is not None)
        assert loads == []
        assert not prefix.with_suffix(".txt").exists()

    def test_oracle_testset_with_two_labels_for_one_cve_exits_two_before_loading(
            self, runner, tmp_path, artifacts, monkeypatch):
        testset = two_label_testset(tmp_path / "testset.jsonl")
        loads = []
        monkeypatch.setattr(EmbeddingModel, "load", lambda path: loads.append(path))
        prefix = tmp_path / "report"
        result = runner.invoke(cli, ["--backend", "oracle"] + pipeline_args("evaluate", artifacts)
                               + ["--testset", str(testset), "-o", str(prefix)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith(f"error: {testset}: CVE-2023-1001 has two labels")
        assert "--aspect" in result.output and result.output.count("\n") == 1
        assert loads == []
        assert not prefix.with_suffix(".txt").exists()

    @pytest.mark.parametrize("aspect", ["impact", "root_cause"])
    def test_oracle_testset_filtered_to_one_label_per_cve_scores_one(self, runner, tmp_path,
                                                                     artifacts, aspect):
        testset = two_label_testset(tmp_path / "testset.jsonl")
        prefix = tmp_path / "report"
        result = runner.invoke(cli, ["--backend", "oracle"] + pipeline_args("evaluate", artifacts)
                               + ["--testset", str(testset), "--aspect", aspect,
                                  "-o", str(prefix)])
        assert result.exit_code == 0, result.output
        rows = [json.loads(line) for line in prefix.with_suffix(".jsonl").read_text().splitlines()]
        assert rows and all(row["mean_f1"] == 1.0 and row["count"] == 1 for row in rows)

    @pytest.mark.parametrize("backend", ["mock", "oracle-answers"])
    def test_two_labels_for_one_cve_evaluate_without_the_self_check(self, runner, tmp_path,
                                                                    artifacts, backend):
        # Only the oracle's answer table built from the testset needs one label per cve_id.
        testset = two_label_testset(tmp_path / "testset.jsonl")
        answers = tmp_path / "answers.json"
        answers.write_text(json.dumps({"CVE-2023-1001": "impact result1"}))
        flags = (["--backend", "mock"] if backend == "mock"
                 else ["--backend", "oracle", "--oracle-answers", str(answers)])
        prefix = tmp_path / "report"
        result = runner.invoke(cli, pipeline_args("evaluate", artifacts) + flags
                               + ["--testset", str(testset), "-o", str(prefix)])
        assert result.exit_code == 0, result.output
        rows = [json.loads(line) for line in prefix.with_suffix(".jsonl").read_text().splitlines()]
        assert sum(row["count"] for row in rows) == 2

    def test_evaluate_aspect_that_no_record_can_mask_exits_two(self, runner, tmp_path,
                                                               artifacts):
        # Each record's impact is set but not written in its description.
        records = [make_record(f"CVE-2023-{2000 + i}", f"flaw kind{i} in widget{i}.",
                               aspects={AspectKind.IMPACT: f"impact result{i}"})
                   for i in range(3)]
        corpus = write_feed(tmp_path, records, "unmaskable.jsonl")
        _, mapping, embedding, correlation = artifacts
        prefix = tmp_path / "report"
        result = runner.invoke(cli, ["--backend", "oracle", "evaluate", "--corpus", str(corpus),
                                     "--map", str(mapping), "--embed", str(embedding),
                                     "--corr", str(correlation), "--aspect", "impact",
                                     "-o", str(prefix)])
        assert result.exit_code == 2, result.output
        assert "nothing to evaluate: no corpus record can mask 'impact'" in result.output
        assert not prefix.with_suffix(".txt").exists()

    def test_evaluate_without_testset_or_aspect_exits_two_before_loading(self, runner, tmp_path):
        result = runner.invoke(cli, ["evaluate", "-o", str(tmp_path / "report")])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: evaluate needs --testset or --aspect")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["augment", "evaluate"])
    def test_bad_aspect_exits_two_before_loading(self, runner, tmp_path, command):
        out = tmp_path / "out"
        result = runner.invoke(cli, [command, "--aspect", "bogus", "-o", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("error: unknown aspect: 'bogus'")
        assert list(tmp_path.iterdir()) == []


SRC = str(Path(vulnaug.__file__).resolve().parents[1])

#: sha256 of the ``augment`` output of :func:`family_run`, recorded when
#: train-corr moved to Newton steps. A change that keeps every output bit
#: keeps it.
FAMILY_AUGMENT_SHA256 = "53dcb70a104430ad3e19dd1fb92be3b4242d1e476079cfe781e63107f0d0bea0"


def run_cli(args, threads=None):
    """Run the CLI in a new interpreter, with OPENBLAS_NUM_THREADS set to
    ``threads``, or unset for the library's default thread count; returns
    its stdout."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    code = f"import sys; sys.path.insert(0, {SRC!r}); from vulnaug.cli import main; main()"
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.fixture(scope="module")
def family_run(tmp_path_factory):
    """Artifacts trained on one thread from a 200-record family corpus, and
    20 targets each missing one aspect. Every target's software has 39 other
    records, above the example limit of 30, so every slot clusters."""
    root = tmp_path_factory.mktemp("family")
    records = list(family_corpus())
    kinds = list(AspectKind)
    targets = [mask_aspect(rec, kinds[i % len(kinds)])[0]
               for i, rec in enumerate(records[::10])]
    (root / "feed.jsonl").write_text(feed_text(records), encoding="utf-8")
    (root / "targets.jsonl").write_text(feed_text(targets), encoding="utf-8")
    (root / "background.tsv").write_text("".join(
        f"flaw{f} soft{f}\tcause{f} impact{f} vector{f} widget\n" for f in range(5)))
    paths = {name: str(root / name) for name in
             ("feed.jsonl", "corpus.jsonl", "mapping.tsv", "embed.bin", "corr.bin")}
    for step in (["ingest", paths["feed.jsonl"], "-o", paths["corpus.jsonl"]],
                 ["build-map", "--corpus", paths["corpus.jsonl"], "-o", paths["mapping.tsv"]],
                 ["train-embed", "--corpus", paths["corpus.jsonl"], "-o", paths["embed.bin"]],
                 ["train-corr", "--corpus", paths["corpus.jsonl"], "--embed", paths["embed.bin"],
                  "--epochs", "50", "-o", paths["corr.bin"]]):
        run_cli(step, threads="1")
    args = ["augment", "--corpus", paths["corpus.jsonl"], "--map", paths["mapping.tsv"],
            "--embed", paths["embed.bin"], "--corr", paths["corr.bin"],
            "--background", str(root / "background.tsv"),
            "--targets", str(root / "targets.jsonl"), "--rounds", "2"]
    return root, args


class TestPinnedAugmentDigest:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("threads", ["1", None], ids=["one-blas-thread", "default-threads"])
    def test_augment_output_matches_the_pinned_digest(self, family_run, jobs, threads):
        root, args = family_run
        out = root / f"augment-{jobs}-{threads}.jsonl"
        run_cli(["--jobs", jobs] + args + ["-o", str(out)], threads=threads)
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 20
        assert all(row["pool_size"] > 30 and row["examples"] <= 30 for row in rows)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == FAMILY_AUGMENT_SHA256


class TestTrainEmbedThreads:
    def test_model_file_does_not_depend_on_the_blas_thread_count(self, family_run):
        # family_run trained its embed.bin under one BLAS thread.
        root, _ = family_run
        out = root / "embed-default-threads.bin"
        run_cli(["train-embed", "--corpus", str(root / "corpus.jsonl"), "-o", str(out)])
        assert out.read_bytes() == (root / "embed.bin").read_bytes()

    def test_subsampled_model_file_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        corpus = write_feed(tmp_path, template_records(120), "corpus.jsonl")
        said = {threads: run_cli(["train-embed", "--corpus", str(corpus), "-o",
                                  str(tmp_path / f"embed-{threads}.bin")], threads=threads)
                for threads in ("1", "2")}
        assert "(1440 tokens, " in said["1"] and "(1440 tokens, 1440.0 " not in said["1"]
        assert (tmp_path / "embed-1.bin").read_bytes() == (tmp_path / "embed-2.bin").read_bytes()


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
        assert result.output.startswith("error: bad config file: ")
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
