"""The README's library example: its import list is the package root, and it
runs; and every package name the README cites exists."""

import importlib
import pkgutil
import re
from pathlib import Path

import vulnaug
from helpers import feed_text, make_record
from vulnaug.corpus import AspectKind, Source

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def example_corpus() -> str:
    """CVE-2002-0679 with its attack vector verbatim in the description, one
    government record naming its software, and eight records of other software."""
    cde = {
        AspectKind.VULNERABILITY_TYPE: "Buffer overflow",
        AspectKind.ATTACK_VECTOR: "via a crafted XDR message",
        AspectKind.ATTACKER_TYPE: "remote attackers",
        AspectKind.IMPACT: "execute arbitrary code",
    }
    records = [
        make_record("CVE-2002-0679",
                    "Buffer overflow in Common Desktop Environment ToolTalk allows remote"
                    " attackers to execute arbitrary code via a crafted XDR message.",
                    cwe_id="CWE-119", aspects=cde, software=["Common Desktop Environment"]),
        make_record("CVE-2002-0679", "Buffer overflow in the ToolTalk database server.",
                    source=Source.GOV_CNNVD, cwe_id="CWE-119",
                    first_sentence="该Common Desktop Environment存在缓冲区溢出漏洞"),
    ]
    for i in range(8):
        aspects = {
            AspectKind.VULNERABILITY_TYPE: f"flaw kind{i}",
            AspectKind.ATTACK_VECTOR: f"via port{i}",
            AspectKind.ATTACKER_TYPE: f"attacker group{i}",
            AspectKind.IMPACT: f"impact result{i}",
        }
        records.append(make_record(
            f"CVE-2023-{1000 + i}",
            f"flaw kind{i} in widget{i % 3} lets attacker group{i} cause impact result{i}"
            f" via port{i}.",
            cwe_id=f"CWE-{119 + i % 2}", aspects=aspects, software=[f"widget{i % 3}"]))
    return feed_text(records)


def test_root_exports_the_names_the_example_imports():
    imported = re.search(r"from vulnaug import \((.*?)\)", library_example(), re.S).group(1)
    assert vulnaug.__all__ == [name.strip() for name in imported.split(",")]
    assert all(hasattr(vulnaug, name) for name in vulnaug.__all__)


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    (tmp_path / "corpus.jsonl").write_text(example_corpus(), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), str(README), "exec"), {})
    answer, score = capsys.readouterr().out.strip().rsplit(" ", 1)
    assert answer.startswith("mock answer ")
    assert 0.0 <= float(score) <= 1.0


MODULES = sorted(m.name for m in pkgutil.iter_modules(vulnaug.__path__))

#: Last parts that make a dotted name a file name, such as ``cli.py``.
FILE_SUFFIXES = {"py", "bin", "tsv", "jsonl", "json", "csv", "txt", "toml", "md"}


def cited_names() -> list[str]:
    """Backticked dotted names of the README, an argument list allowed after
    them, whose head is ``vulnaug``, one of its modules or a CamelCase name."""
    text = README.read_text(encoding="utf-8")
    names = re.findall(r"`((?:[A-Za-z_]\w*\.)+[A-Za-z_]\w*)(?:\([^`]*\))?`", text)
    return sorted({name for name in names
                   if name.rsplit(".", 1)[1] not in FILE_SUFFIXES
                   and (name.split(".")[0] in ("vulnaug", *MODULES)
                        or re.fullmatch(r"[A-Z]\w*[a-z]\w*", name.split(".")[0]))})


def resolves(name: str) -> bool:
    """Whether ``name`` is an attribute path from a vulnaug module, or from a
    class that one of them defines; a dataclass field ends the path."""
    parts = name.split(".")
    if parts[0] == "vulnaug":
        parts = parts[1:]
    if parts[0] in MODULES:
        owner = importlib.import_module(f"vulnaug.{parts[0]}")
    else:
        found = [getattr(importlib.import_module(f"vulnaug.{m}"), parts[0], None) for m in MODULES]
        owner = next((cls for cls in found if isinstance(cls, type)), None)
    for part in parts[1:]:
        if part in getattr(owner, "__dataclass_fields__", {}):
            return True
        owner = getattr(owner, part, None)
    return owner is not None


def test_cited_names_resolve():
    names = cited_names()
    assert "CorrelationModel.tower_vectors" in names and "cli.py" not in names
    assert [name for name in names if not resolves(name)] == []
