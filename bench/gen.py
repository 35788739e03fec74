"""Seeded synthetic inputs for the vulnaug benchmark.

Every input the program sees comes from here: two raw feeds (a GovCNNVD feed
whose first sentences are CJK, so build-map's template path runs, and a plain
CVE feed resolved by raw software name), a background article store, target
files and a masked test set. The same seed gives byte-identical files. The
generator uses only :mod:`random`, whose streams are stable across Python
versions, and never imports the package under test.

Shape of a corpus. It is synthetic, not the paper's data; ``README.md``
lists which constants follow from the workload definitions and which are
assumptions tuned to their pool-size targets:

* software names are Zipf-distributed, so a few head products own most
  records and most products are long-tail (at most 50 TVDs);
* CWE ids are Zipf-distributed and a share of records carries none, so most
  long-tail pools stay at or under 30 records;
* each record has 4 or 5 aspects built from a pseudo-word vocabulary, so
  aspect phrases are mostly distinct and a software's feature count grows
  with its record count;
* descriptions carry every populated aspect verbatim and run about 27 tokens.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass, field

ASPECT_KEYS = ("vulnerability_type", "attack_vector", "attacker_type", "impact", "root_cause")

_ONSETS = "b c d f g k l m n p r s t v z br dr gr kl pl st tr".split()
_VOWELS = "a e i o u".split()
_CODAS = ["", "", "n", "r", "s", "x", "l"]

VULN_TYPES = [
    "buffer overflow", "heap overflow", "stack overflow", "integer overflow",
    "use after free", "double free", "format string flaw", "race condition",
    "sql injection", "command injection", "path traversal", "cross site scripting",
    "request forgery", "null pointer dereference", "out of bounds read",
    "out of bounds write", "type confusion", "memory leak", "deserialization flaw",
    "authentication bypass", "privilege escalation flaw", "information disclosure",
    "open redirect", "xml external entity flaw", "resource exhaustion",
]
ATTACKERS = [
    "remote attackers", "local users", "authenticated users", "unauthenticated attackers",
    "remote authenticated users", "physically proximate attackers", "guest users",
    "adjacent network attackers", "context dependent attackers", "malicious administrators",
]
IMPACTS = [
    "execute arbitrary code", "cause a denial of service", "read arbitrary files",
    "gain privileges", "bypass authentication", "obtain sensitive information",
    "overwrite arbitrary files", "inject arbitrary web script", "corrupt memory",
    "hijack sessions", "escalate privileges", "crash the service",
]
_CJK_TAILS = ["存在缓冲区错误漏洞", "存在注入漏洞", "存在跨站脚本漏洞", "存在权限许可和访问控制问题漏洞",
              "存在输入验证错误漏洞", "存在资源管理错误漏洞"]


def _vocabulary(size: int = 900) -> list[str]:
    """Fixed pseudo-words shared by every seed, so one embedding fixture covers all."""
    words = sorted({o + v + c for o in _ONSETS for v in _VOWELS for c in _CODAS})
    rng = random.Random(20240507)
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < size:
        word = "".join(rng.choice(words) for _ in range(rng.choice((2, 2, 3))))
        if word not in seen and len(word) >= 4:
            seen.add(word)
            out.append(word)
    return out


VOCAB = _vocabulary()


def _software_names(count: int) -> list[str]:
    vendors = [w.capitalize() for w in VOCAB[:60]]
    products = [w.capitalize() for w in VOCAB[60:120]]
    names = [f"{v} {p}" for v, p in itertools.product(vendors, products)]
    random.Random(7).shuffle(names)
    return names[:count]


def zipf_counts(total: int, n: int, s: float) -> list[int]:
    """Exact Zipf shares of ``total`` over ranks 1..n, rounded by largest remainder.

    Sizes are fixed by the spec rather than drawn, so every seed has the same
    head and tail sizes and the seed varies only which records are which.
    """
    weights = [1.0 / (r ** s) for r in range(1, n + 1)]
    norm = sum(weights)
    exact = [total * w / norm for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(n), key=lambda i: (counts[i] - exact[i], i))
    for i in by_remainder[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _split(total: int, share: float) -> list[int]:
    hit = round(total * share)
    return [hit, total - hit]


def _shuffled(rng: random.Random, values: list, counts: list[int]) -> list:
    out = [v for v, c in zip(values, counts) for _ in range(c)]
    rng.shuffle(out)
    return out


@dataclass(frozen=True)
class CorpusSpec:
    """Corpus shape; every default but ``records`` is an assumption (see README.md)."""

    records: int
    software: int = 300
    software_zipf: float = 1.0
    cwes: int = 600
    cwe_zipf: float = 0.7
    no_cwe_share: float = 0.45
    gap_share: float = 0.5
    gov_share: float = 0.3


@dataclass
class Corpus:
    """Generated records plus what the benchmark needs to pick targets."""

    gov_feed: list[dict] = field(default_factory=list)
    cve_feed: list[dict] = field(default_factory=list)
    software_of: dict[str, str] = field(default_factory=dict)

    @property
    def records(self) -> list[dict]:
        return sorted(self.gov_feed + self.cve_feed, key=lambda r: r["cve_id"])

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for name in self.software_of.values():
            out[name] = out.get(name, 0) + 1
        return out


def _aspects(rng: random.Random) -> dict[str, str]:
    w = lambda: rng.choice(VOCAB)  # noqa: E731 - local shorthand
    return {
        "vulnerability_type": f"{rng.choice(VULN_TYPES)} in {w()}",
        "attack_vector": f"via {w()} {w()}",
        "attacker_type": f"{rng.choice(ATTACKERS)} from {w()}",
        "impact": f"{rng.choice(IMPACTS)} on {w()}",
        "root_cause": f"improper {w()} {w()} checks",
    }


def _description(aspects: dict[str, str | None], software: str) -> str:
    vt = aspects["vulnerability_type"] or "A flaw"
    parts = [f"{vt} of {software}"]
    parts.append(f"allows {aspects['attacker_type'] or 'attackers'}")
    parts.append(f"to {aspects['impact'] or 'affect the system'}")
    if aspects["attack_vector"]:
        parts.append(aspects["attack_vector"])
    if aspects["root_cause"]:
        parts.append(f"due to {aspects['root_cause']}")
    return " ".join(parts) + "."


def generate_corpus(seed: int, spec: CorpusSpec) -> Corpus:
    rng = random.Random(seed)
    software_of = _shuffled(rng, _software_names(spec.software),
                            zipf_counts(spec.records, spec.software, spec.software_zipf))
    cwe_ids = [f"CWE-{100 + i}" for i in range(spec.cwes)]
    rng.shuffle(cwe_ids)
    with_cwe = round(spec.records * (1.0 - spec.no_cwe_share))
    cwe_of = _shuffled(rng, cwe_ids + [None],
                       zipf_counts(with_cwe, spec.cwes, spec.cwe_zipf) + [spec.records - with_cwe])
    # Exact shares here too, per software: the first records of each software
    # (in shuffled order) miss an aspect. The gap count sets the number of
    # aspect instances, and train-corr's cost grows with its square; the gap
    # records per software size set the cost mix of the augment targets.
    sizes = Counter(software_of)
    seen: Counter[str] = Counter()
    gap_of = []
    for name in software_of:
        seen[name] += 1
        gap_of.append(seen[name] <= round(sizes[name] * spec.gap_share))
    gov_of = _shuffled(rng, [True, False], _split(spec.records, spec.gov_share))
    corpus = Corpus()
    for i in range(spec.records):
        cve_id = f"CVE-{2010 + i % 12}-{10000 + i}"
        software, cwe = software_of[i], cwe_of[i]
        aspects: dict[str, str | None] = dict(_aspects(rng))
        if gap_of[i]:
            aspects[rng.choice(ASPECT_KEYS)] = None
        obj = {
            "cve_id": cve_id,
            "description": _description(aspects, software),
            "cwe_id": cwe,
            "aspects": aspects,
            "published": f"{2010 + i % 12}-{1 + i % 12:02d}-{1 + i % 28:02d}",
            "software_names": [software],
        }
        if gov_of[i]:
            obj["source"] = "GovCNNVD"
            obj["first_sentence"] = f"该{software}{rng.choice(_CJK_TAILS)}"
            corpus.gov_feed.append(obj)
        else:
            obj["source"] = "CVE"
            corpus.cve_feed.append(obj)
        corpus.software_of[cve_id] = software
    return corpus


def background_store(seed: int, articles: int = 500, body_tokens: int = 40) -> list[str]:
    """``term TAB body`` lines whose words overlap the aspect vocabulary."""
    rng = random.Random(seed * 104729 + 3)
    domain = [w for phrase in VULN_TYPES + IMPACTS for w in phrase.split()]
    terms = rng.sample(VOCAB, articles)
    lines = []
    for term in sorted(terms):
        body = " ".join(rng.choice(VOCAB) if rng.random() < 0.7 else rng.choice(domain)
                        for _ in range(body_tokens))
        lines.append(f"{term}\t{term} is {body}")
    return lines


def gap_records(corpus: Corpus, software: set[str]) -> list[dict]:
    return [r for r in corpus.records
            if corpus.software_of[r["cve_id"]] in software
            and any(r["aspects"][k] is None for k in ASPECT_KEYS)]


def pool_sizes(corpus: Corpus) -> dict[str, int]:
    """Per record: size of its example pool, the same-software and same-CWE
    records other than itself (every generated record resolves to its software)."""
    by_software: dict[str, set[str]] = {}
    by_cwe: dict[str, set[str]] = {}
    for rec in corpus.records:
        by_software.setdefault(corpus.software_of[rec["cve_id"]], set()).add(rec["cve_id"])
        if rec["cwe_id"]:
            by_cwe.setdefault(rec["cwe_id"], set()).add(rec["cve_id"])
    return {rec["cve_id"]: len(by_software[corpus.software_of[rec["cve_id"]]]
                               | by_cwe.get(rec["cwe_id"], set())) - 1
            for rec in corpus.records}


def stratified_sample(rng: random.Random, items: list[dict], count: int, key) -> list[dict]:
    """One item from each of ``count`` equal runs of ``items`` ordered by ``key``.

    The sample then has the population's distribution of ``key`` rather than
    a random draw's, so the cost mix of the targets varies little by seed.
    """
    ordered = sorted(items, key=key)
    n = len(ordered)
    if n < count:
        raise ValueError(f"only {n} candidate targets for {count}")
    return [ordered[rng.randrange(i * n // count, (i + 1) * n // count)] for i in range(count)]


#: The package's example limit: a slot whose pool is larger clusters it with
#: k-means, which makes the slot slower.
EXAMPLE_LIMIT = 30


def _targets(rng: random.Random, corpus: Corpus, software: set[str], count: int) -> list[dict]:
    # Selection mode first, so the share of clustered slots follows the
    # population's rather than the draw's. Then software size: it sets the
    # feature count a slot ranks against, which drives slot time the most.
    pools = pool_sizes(corpus)
    counts = corpus.counts()
    picked = stratified_sample(
        rng, gap_records(corpus, software), count,
        key=lambda r: (pools[r["cve_id"]] > EXAMPLE_LIMIT, counts[corpus.software_of[r["cve_id"]]],
                       pools[r["cve_id"]], r["cve_id"]))
    return sorted(picked, key=lambda r: r["cve_id"])


def longtail_targets(seed: int, corpus: Corpus, count: int, threshold: int = 50) -> list[dict]:
    """Gap records of software with at most ``threshold`` TVDs, sorted by cve_id."""
    tail = {name for name, n in corpus.counts().items() if n <= threshold}
    return _targets(random.Random(seed * 31 + 5), corpus, tail, count)


def head_targets(seed: int, corpus: Corpus, count: int, rank: int) -> list[dict]:
    """Gap records of the software at ``rank`` (0 = largest) by TVD count, sorted by cve_id."""
    counts = corpus.counts()
    software = sorted(counts, key=lambda name: (-counts[name], name))[rank]
    return _targets(random.Random(seed * 37 + 11), corpus, {software}, count)


def masked_testset(seed: int, corpus: Corpus, count: int, threshold: int = 50) -> list[dict]:
    """Long-tail records with their vulnerability type masked, in evaluate's testset format."""
    tail = {name for name, n in corpus.counts().items() if n <= threshold}
    pool = [r for r in corpus.records
            if corpus.software_of[r["cve_id"]] in tail and r["aspects"]["vulnerability_type"]]
    picked = sorted(random.Random(seed * 41 + 13).sample(pool, min(count, len(pool))),
                    key=lambda r: r["cve_id"])
    out = []
    for rec in picked:
        label = rec["aspects"]["vulnerability_type"]
        masked = dict(rec, aspects=dict(rec["aspects"], vulnerability_type=None))
        masked["description"] = rec["description"].replace(label, "unknown vulnerability type", 1)
        masked["masked_aspect"] = "vulnerability_type"
        masked["label"] = label
        out.append(masked)
    return out


def jsonl(objs: list[dict]) -> str:
    return "".join(json.dumps(o, ensure_ascii=False, sort_keys=True) + "\n" for o in objs)
