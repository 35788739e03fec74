"""Every function in ``src/vulnaug`` is reached by the CLI chain, or is on
:data:`ALLOWED` with a reason.

The chain runs in a subprocess, with ``sys.setprofile`` and
``threading.setprofile`` set before ``vulnaug`` is imported, so import-time
calls and the worker threads of ``--jobs 2`` count. A function is every
``def`` that :mod:`ast` finds under the package, nested ones included.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import feed_text, load_probe, make_record, struts_gov_records, write_testset
import vulnaug
from vulnaug.corpus import AspectKind, mask_aspect

PACKAGE = Path(vulnaug.__file__).resolve().parent

#: Why a function that the chain does not call is kept.
REASONS = {
    "acceptance": "tests/test_acceptance.py calls it",
    "bench": "bench/probe.py traces it by this name",
    "http": "only the http backend calls it, and that needs a server",
    "fetch-background": "only fetch-background calls it, and that needs the network",
    "error path": "only bad input or a missing file reaches it",
    "protocol": "Python calls it for an operator, or it declares a protocol",
}

#: "module.qualname" -> its reason, for each function the chain does not call.
ALLOWED = {
    "cli._fail": "error path",
    "cli.fetch_background": "fetch-background",
    "errors.FeedFormatError.__init__": "error path",
    "errors.MissingPrerequisite.__init__": "error path",
    "featcorr.BackgroundStore.save": "fetch-background",
    "featcorr.CorrelationModel.tower_vector": "bench",
    "featcorr.FeaturePair.__post_init__": "acceptance",
    "featcorr.TrainingPairs.__eq__": "protocol",
    "featcorr.TrainingPairs.__getitem__": "acceptance",
    "featcorr.TrainingPairs.of.<locals>.ids": "acceptance",
    "featcorr.fetch_background": "bench",
    "featcorr.score": "acceptance",
    "genprompt.BackendConfig.__post_init__": "http",
    "genprompt.ConstantBackend.complete": "acceptance",
    "genprompt.HttpBackend.__init__": "http",
    "genprompt.HttpBackend.complete": "http",
    "genprompt.LlmBackend.complete": "protocol",
    "genprompt.RateLimiter.__init__": "http",
    "genprompt.RateLimiter.acquire": "http",
    "genprompt._reply_content": "http",
    "genprompt.build_baseline": "acceptance",
    "genprompt.build_direct": "acceptance",
    "genprompt.build_fill": "acceptance",
    "genprompt.build_selection": "acceptance",
    "genprompt.extract_known_aspects": "acceptance",
    "mapping.resolve": "acceptance",
}

#: Profiles the chain, whose commands are argv[2] as a JSON list, and writes
#: the (file, first line, name) of every code object called in the package
#: to argv[1]. A command that fails ends the script with its arguments.
CHAIN = r"""
import json, sys, threading

called = set()

def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

sys.setprofile(profile)
threading.setprofile(profile)
import vulnaug
from vulnaug.cli import main

report, chain = sys.argv[1], json.loads(sys.argv[2])
for args in chain:
    sys.argv = ["vulnaug", *args]
    try:
        main()
    except SystemExit as exc:
        if exc.code:
            sys.exit(f"{args}: exit {exc.code}")
sys.setprofile(None)
threading.setprofile(None)
root = vulnaug.__path__[0]
with open(report, "w", encoding="utf-8") as out:
    json.dump([(code.co_filename, code.co_firstlineno, code.co_name) for code in called
               if code.co_filename.startswith(root)], out)
"""


def chain_records():
    """48 records of four products and two CWEs; every sixth lacks its
    attacker type, so augment has slots and evaluate has labels."""
    records = []
    for i in range(48):
        aspects = {
            AspectKind.VULNERABILITY_TYPE: f"flaw kind{i % 5}",
            AspectKind.ATTACK_VECTOR: f"via port{i % 7}",
            AspectKind.IMPACT: f"impact result{i % 3}",
            AspectKind.ROOT_CAUSE: f"cause bug{i % 4}",
        }
        if i % 6:
            aspects[AspectKind.ATTACKER_TYPE] = f"attacker group{i % 2}"
        description = (f"{aspects[AspectKind.VULNERABILITY_TYPE]} in widget{i % 4} lets"
                       f" {aspects.get(AspectKind.ATTACKER_TYPE, 'someone')} cause"
                       f" {aspects[AspectKind.IMPACT]} {aspects[AspectKind.ATTACK_VECTOR]}"
                       f" because {aspects[AspectKind.ROOT_CAUSE]}.")
        records.append(make_record(f"CVE-2023-{1000 + i}", description,
                                   cwe_id=f"CWE-{100 + i % 2}", aspects=aspects,
                                   software=[f"widget{i % 4}"]))
    return records


def chain_commands(tmp: Path) -> list[list[str]]:
    """The CLI chain, over files it writes into ``tmp``."""
    records = chain_records()
    kind = AspectKind.IMPACT
    (tmp / "feed.jsonl").write_text(feed_text(records), encoding="utf-8")
    (tmp / "gov.jsonl").write_text(feed_text(struts_gov_records()), encoding="utf-8")
    (tmp / "bg.tsv").write_text("widget0\tA widget with a port.\n"
                                "attacker\tSomeone who attacks a group.\n", encoding="utf-8")
    (tmp / "config.json").write_text(json.dumps({"example_limit": 3, "rounds": 1}),
                                     encoding="utf-8")
    (tmp / "answers.json").write_text(json.dumps({"CVE-2023-1000": "remote attackers"}),
                                      encoding="utf-8")
    write_testset(tmp / "testset.jsonl", [(masked, kind, label) for masked, label in
                                          (mask_aspect(rec, kind) for rec in records[1:4])])

    def p(name: str) -> str:
        return str(tmp / name)

    artifacts = ["--corpus", p("corpus.jsonl"), "--map", p("map.tsv"),
                 "--embed", p("embed.bin"), "--corr", p("corr.bin")]
    with_store = artifacts[:-1] + [p("corr-bg.bin"), "--background", p("bg.tsv")]
    config = ["--config", p("config.json")]
    return [
        ["ingest", p("feed.jsonl"), p("gov.jsonl"), "-o", p("corpus.jsonl")],
        ["build-map", "--corpus", p("corpus.jsonl"), "-o", p("map.tsv")],
        ["train-embed", "--corpus", p("corpus.jsonl"), "--dim", "8", "--epochs", "1",
         "--export-text", p("embed.txt"), "-o", p("embed.bin")],
        ["train-corr", "--corpus", p("corpus.jsonl"), "--embed", p("embed.bin"),
         "--epochs", "5", "--export-text", p("corr.txt"), "-o", p("corr.bin")],
        ["train-corr", "--corpus", p("corpus.jsonl"), "--embed", p("embed.bin"),
         "--background", p("bg.tsv"), "--epochs", "5", "-o", p("corr-bg.bin")],
        [*config, "augment", *artifacts, "--backend", "mock", "--dump-examples",
         "--audit", p("audit.jsonl"), "-o", p("mock.jsonl")],
        [*config, "--jobs", "2", "augment", *with_store, "--backend", "echo",
         "--example-strategy", "similarity", "-o", p("echo.jsonl")],
        [*config, "augment", *artifacts, "--backend", "oracle", "--oracle-answers",
         p("answers.json"), "--targets", p("feed.jsonl"), "--aspect", "attacker_type",
         "-o", p("oracle.jsonl")],
        [*config, "evaluate", *artifacts, "--backend", "oracle", "--testset", p("testset.jsonl"),
         "-o", p("eval-testset")],
        [*config, "--jobs", "2", "evaluate", *with_store, "--aspect", kind.json_key,
         "--threshold", "10", "-o", p("eval-aspect")],
        ["stats", "--corpus", p("corpus.jsonl"), "--map", p("map.tsv"), "-o", p("stats.json")],
        ["cost", "--n", "10", "--x", "0.5"],
    ]


def package_functions() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) -> "module.qualname" for every ``def`` in
    the package. The first line is the one a code object reports: that of
    the first decorator, when there is one."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    found[str(path), first, child.name] = prefix + child.name
                    visit(child, f"{prefix}{child.name}.<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.")
    return found


@pytest.fixture(scope="module")
def reached(tmp_path_factory) -> set[str]:
    tmp = tmp_path_factory.mktemp("reach")
    report = tmp / "reached.json"
    done = subprocess.run(
        [sys.executable, "-c", CHAIN, str(report), json.dumps(chain_commands(tmp))],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert done.returncode == 0, done.stderr
    functions = package_functions()
    return {functions[tuple(key)] for key in json.loads(report.read_text(encoding="utf-8"))
            if tuple(key) in functions}


def test_every_function_is_reached_or_allowed(reached):
    unreached = sorted(set(package_functions().values()) - reached - set(ALLOWED))
    assert not unreached, "no command calls these, and ALLOWED gives no reason:\n" + "\n".join(
        unreached)


def test_no_allowed_function_is_reached(reached):
    assert sorted(reached & set(ALLOWED)) == []


def test_every_entry_names_a_function_and_a_reason():
    assert sorted(set(ALLOWED) - set(package_functions().values())) == []
    assert {name: why for name, why in ALLOWED.items() if why not in REASONS} == {}


def test_bench_entries_are_traced_by_the_probe():
    traced = {f"{module.removeprefix('vulnaug.')}.{path}"
              for module, path in load_probe().TRACED.values()}
    assert sorted(name for name, why in ALLOWED.items() if why == "bench" and name not in traced) == []
