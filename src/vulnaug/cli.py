"""Command-line entry point.

One binary, eight pipeline subcommands (plus the opt-in background fetcher),
reproducible by construction: fixed seeds, sorted outputs, atomic writes.
Exit codes: 0 success, 1 internal error, 2 bad input, 3 missing prerequisite
artifact.
"""

from __future__ import annotations

import contextlib
import json
import sys
import types
import typing
from collections import Counter
import dataclasses
from pathlib import Path

import click

# embed and featcorr load numpy; each command that calls them imports them
# itself, so ingest, build-map, cost and --help never load it.
from . import corpus as corpus_mod
from . import genprompt, mapping
from .corpus import AspectKind, Corpus, Source, TvdRecord
from .errors import (EmptyTrainingSet, FeedFormatError, GenerationFailed, InsufficientVocabulary,
                     MissingPrerequisite, VulnaugError)
from .genprompt import EXAMPLE_LIMIT
from .ioutil import atomic_write_lines, atomic_write_text, read_lines
from .pipeline import EXAMPLE_STRATEGIES, AugmentPipeline, check_settings, map_ordered

EXIT_INTERNAL = 1
EXIT_BAD_INPUT = 2
EXIT_MISSING_PREREQ = 3

BACKENDS = ("mock", "echo", "oracle", "http")


@dataclasses.dataclass
class RunConfig:
    """Defaults for every stage; a JSON config file and flags override them."""

    output_dir: str = "."
    seed: int = 42
    decode_seed: int = 1000
    jobs: int = 1
    backend: str = "mock"
    backend_config: str | None = None
    oracle_answers: str | None = None
    audit: str | None = None
    example_limit: int = EXAMPLE_LIMIT
    example_strategy: str = "cluster"
    rounds: int = genprompt.DEFAULT_ROUNDS
    long_tail_threshold: int = corpus_mod.LONG_TAIL_THRESHOLD
    temperature: float = 0.7

    def override(self, **kwargs) -> "RunConfig":
        for key, value in kwargs.items():
            if value is not None:
                setattr(self, key, value)
        return self


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a settings field's type: ``bool`` is not an
    ``int``, an ``int`` is a ``float``, and ``None`` fits an optional field."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return any(_fits(value, arm) for arm in typing.get_args(hint))
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _read_json_file(path: str | Path, cls=None):
    """The JSON object in file ``path``, or the dataclass ``cls`` built from
    it. A ValueError names the file when it is not UTF-8, not JSON or not an
    object, and any keys ``cls`` does not declare, requires but did not get,
    or got with a value of the wrong type or one that ``cls`` rejects."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(obj, dict):
            raise ValueError("expected a JSON object")
        if cls is None:
            return obj
        declared = dataclasses.fields(cls)
        unknown = sorted(set(obj) - {f.name for f in declared})
        if unknown:
            raise ValueError(f"unknown keys {unknown}")
        missing = [f.name for f in declared if f.name not in obj and
                   f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
        if missing:
            raise ValueError(f"missing keys {missing}")
        hints = typing.get_type_hints(cls)
        wrong = [f"{name!r} must be {getattr(hints[name], '__name__', hints[name])}, got {value!r}"
                 for name, value in obj.items() if not _fits(value, hints[name])]
        if wrong:
            raise ValueError("; ".join(wrong))
        return cls(**obj)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _fmt_num(value: float) -> str:
    text = f"{value:.12g}"
    if "." not in text and "e" not in text and "n" not in text:
        text += ".0"
    return text


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@contextlib.contextmanager
def _trains_on(corpus_path: str):
    """Turn a corpus that holds too little to train on into bad input that
    names the corpus file."""
    try:
        yield
    except (EmptyTrainingSet, InsufficientVocabulary) as exc:
        raise ValueError(f"{corpus_path}: {exc}") from None


def _prereq(path: str | None, artifact: str) -> Path:
    if path is None:
        raise MissingPrerequisite(artifact, "<not given>")
    p = Path(path)
    if not p.exists():
        raise MissingPrerequisite(artifact, str(p))
    return p


def _read_feed(path: Path, source: Source = Source.CVE) -> corpus_mod.ParseResult:
    """Parse a feed file, warning on stderr about each line it skipped. A
    malformed line raises a FeedFormatError that names ``path``."""
    try:
        with path.open("rb") as feed:
            result = corpus_mod.parse_feed(feed, source=source)
    except FeedFormatError as exc:
        raise FeedFormatError(exc.message, exc.line, path) from None
    for diag in result.diagnostics:
        click.echo(f"warning: {path}:{diag.line}: {diag.message}", err=True)
    return result


def _check_threshold(cfg: RunConfig) -> None:
    """Reject a long-tail threshold below 1, which no software count is
    at or below."""
    if cfg.long_tail_threshold < 1:
        raise ValueError(f"long_tail_threshold must be >= 1, got {cfg.long_tail_threshold}")


def _output(cfg: RunConfig, output: str | None, name: str) -> Path:
    """``-o`` when given, else ``name`` in the output directory."""
    return Path(output) if output else Path(cfg.output_dir) / name


@dataclasses.dataclass(frozen=True)
class _Artifact:
    """A file that one stage writes and later stages read: its option, named
    ``<flag>_path``, and its loader, which raises MissingPrerequisite when the
    path is not given or does not exist.

    ``load`` looks the loading function up when it is called, so a wrapper
    installed on that function after import (as ``bench/probe.py`` does) sees
    every load.
    """

    flag: str
    what: str
    load: typing.Callable

    def option(self, fn):
        return click.option(self.flag, self.flag[2:] + "_path", default=None)(fn)

    def __call__(self, path: str | None, *args):
        return self.load(_prereq(path, self.what), *args)

    def optional(self, path: str | None):
        """The loaded artifact, or None when no path was given."""
        return self(path) if path else None


# The corpus loads as its records in file order: build-map reads every
# source's record of a CVE, where a Corpus keeps only the first.
_CORPUS = _Artifact("--corpus", "corpus file", lambda path: _read_feed(path).records)
_MAP = _Artifact("--map", "mapping file", lambda path: mapping.load_mapping(path))


def _load_embedding(path: Path):
    from . import embed

    return embed.EmbeddingModel.load(path)


def _load_correlation(path: Path, embedding, store):
    from . import featcorr

    return featcorr.CorrelationModel.load(path, embedding, store)


def _load_background(path: Path):
    from . import featcorr

    return featcorr.BackgroundStore.from_file(path)


_EMBED = _Artifact("--embed", "embedding model", _load_embedding)
_CORR = _Artifact("--corr", "correlation model", _load_correlation)
_BACKGROUND = _Artifact("--background", "background store", _load_background)


def _make_backend(cfg: RunConfig, answers: dict[str, str] | None = None) -> genprompt.LlmBackend:
    """The configured backend, wrapped for the audit log when one is set.
    The oracle answers from ``answers`` unless an answer file is given."""
    if cfg.backend == "mock":
        backend: genprompt.LlmBackend = genprompt.MockBackend()
    elif cfg.backend == "echo":
        backend = genprompt.EchoBackend()
    elif cfg.backend == "oracle":
        if cfg.oracle_answers:
            answers = _read_json_file(cfg.oracle_answers)
            if not all(isinstance(a, str) for a in answers.values()):
                raise ValueError(f"{cfg.oracle_answers}: expected a JSON object of answer strings")
        backend = genprompt.OracleBackend(answers=answers or {})
    elif cfg.backend == "http":
        conf_path = _prereq(cfg.backend_config, "backend config")
        backend = genprompt.HttpBackend(_read_json_file(conf_path, genprompt.BackendConfig))
    else:
        raise ValueError(f"unknown backend: {cfg.backend!r}")
    if cfg.audit:
        backend = genprompt.AuditingBackend(backend, cfg.audit)
    return backend


class _Cli(click.Group):
    """The command group. The group's callback and every command run inside
    :meth:`invoke`, the one place that turns an error into an exit code."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except MissingPrerequisite as exc:
            _fail(EXIT_MISSING_PREREQ, str(exc))
        except OSError as exc:
            # os.replace names the temp file first and the target second.
            path = exc.filename if exc.filename2 is None else exc.filename2
            if path is None:
                raise
            _fail(EXIT_BAD_INPUT, f"{path}: {exc.strerror}")
        except (FeedFormatError, ValueError) as exc:
            _fail(EXIT_BAD_INPUT, str(exc))
        except VulnaugError as exc:
            _fail(EXIT_INTERNAL, str(exc))


@click.group(cls=_Cli)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="JSON config file; flags override it.")
@click.option("--seed", type=int, default=None, help="Global training/sampling seed.")
@click.option("--decode-seed", type=int, default=None, help="Base seed for backend rounds.")
@click.option("--jobs", type=int, default=None, help="Worker threads for per-target stages.")
@click.option("--output-dir", type=str, default=None)
@click.option("--backend", type=click.Choice(BACKENDS), default=None)
@click.pass_context
def cli(ctx, config_path, seed, decode_seed, jobs, output_dir, backend):
    """Augment missing key aspects in textual vulnerability descriptions."""
    try:
        cfg = _read_json_file(config_path, RunConfig) if config_path else RunConfig()
    except ValueError as exc:
        raise ValueError(f"bad config file: {exc}") from None
    cfg.override(seed=seed, decode_seed=decode_seed, jobs=jobs,
                 output_dir=output_dir, backend=backend)
    ctx.obj = cfg


@cli.command()
@click.argument("feeds", nargs=-1, required=True)
@click.option("--source", default="CVE", help="Source for feed lines lacking one.")
@click.option("-o", "--output", default=None)
@click.pass_obj
def ingest(cfg: RunConfig, feeds, source, output):
    """Normalize raw feed files into one corpus file."""
    default_source = Source(source)
    merged: dict[tuple[str, str, str | None], TvdRecord] = {}
    diagnostics = 0
    dedup = 0
    for feed in feeds:
        result = _read_feed(Path(feed), default_source)
        diagnostics += len(result.diagnostics)
        for rec in result.records:
            key = (rec.cve_id, rec.source.value, rec.revision_tag)
            if key in merged:
                dedup += 1
            else:
                merged[key] = rec
    out = _output(cfg, output, "corpus.jsonl")
    atomic_write_lines(out, (merged[key].to_json_line()
                             for key in sorted(merged, key=lambda k: (k[0], k[1], k[2] or ""))))
    click.echo(
        f"ingested {len(merged)} records from {len(feeds)} feeds"
        f" (rejected {diagnostics}, deduplicated {dedup}) -> {out}"
    )


@cli.command("build-map")
@_CORPUS.option
@click.option("--no-fallback", is_flag=True, help="Skip raw-name fallback indexing.")
@click.option("-o", "--output", default=None)
@click.pass_obj
def build_map(cfg: RunConfig, corpus_path, no_fallback, output):
    """Build the software-CVE mapping from government-source records."""
    records = _CORPUS(corpus_path)
    gov = [r for r in records if r.source.is_gov]
    db = mapping.build_mapping(gov)
    fallback = 0
    if not no_fallback:
        fallback = mapping.extend_with_fallback(db, [r for r in records if not r.source.is_gov])
    out = _output(cfg, output, "mapping.tsv")
    mapping.save_mapping(db, out)
    stats = mapping.mapping_stats(db)
    click.echo(
        f"mapped {stats['total_links']} cve links to {stats['distinct_names']} names"
        f" (unresolved {stats['unresolved']}, conflicts {len(db.conflicts)},"
        f" fallback {fallback}) -> {out}"
    )


@cli.command("train-embed")
@_CORPUS.option
@click.option("--dim", type=int, default=64)
@click.option("--window", type=int, default=5)
@click.option("--epochs", type=int, default=5)
@click.option("--negative", type=int, default=5)
@click.option("--export-text", default=None)
@click.option("-o", "--output", default=None)
@click.pass_obj
def train_embed(cfg: RunConfig, corpus_path, dim, window, epochs, negative, export_text, output):
    """Train corpus word embeddings."""
    from . import embed

    config = embed.TrainConfig(
        window=window, epochs=epochs, negative_samples=negative, seed=cfg.seed
    )
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    corpus = Corpus.from_records(_CORPUS(corpus_path))
    with _trains_on(corpus_path):
        model = embed.train_embeddings(corpus, config, dim=dim)
    out = _output(cfg, output, "embed.bin")
    model.save(out)
    if export_text:
        model.export_text(export_text)
    tokens, per_epoch = model.trained
    click.echo(f"trained {len(model.vocab)}x{model.dim} embeddings over {len(corpus)} records"
               f" ({tokens} tokens, {per_epoch:.1f} trained per epoch) -> {out}")


@cli.command("train-corr")
@_CORPUS.option
@_EMBED.option
@_BACKGROUND.option
@click.option("--lr", type=float, default=0.5)
@click.option("--epochs", type=int, default=300)
@click.option("--export-text", default=None)
@click.option("-o", "--output", default=None)
@click.pass_obj
def train_corr(cfg: RunConfig, corpus_path, embed_path, background_path, lr, epochs, export_text, output):
    """Train the feature-correlation model from aspect co-occurrence."""
    from . import featcorr

    config = featcorr.CorrTrainConfig(learning_rate=lr, epochs=epochs, seed=cfg.seed)
    corpus = Corpus.from_records(_CORPUS(corpus_path))
    embedding = _EMBED(embed_path)
    store = _BACKGROUND.optional(background_path)
    with _trains_on(corpus_path):
        pairs = featcorr.build_training_pairs(corpus, seed=cfg.seed)
    del corpus  # only the pairs are needed from here on; free the records
    model = featcorr.train_correlation(pairs, store, embedding, config)
    out = _output(cfg, output, "corr.bin")
    model.save(out)
    if export_text:
        model.export_text(export_text)
    positives = int(pairs.positive.sum())
    click.echo(
        f"trained correlation model on {positives} positive / {len(pairs) - positives}"
        f" negative pairs, final loss {model.loss_history[-1]:.6f} -> {out}"
    )


def _pipeline_options(fn):
    """The artifact, backend and example options of ``augment`` and ``evaluate``."""
    options = [
        _CORPUS.option,
        _MAP.option,
        _EMBED.option,
        _CORR.option,
        _BACKGROUND.option,
        click.option("--backend", type=click.Choice(BACKENDS), default=None),
        click.option("--backend-config", default=None, help="JSON settings for the http backend."),
        click.option("--oracle-answers", default=None, help="JSON answer table for the oracle backend."),
        click.option("--example-strategy", type=click.Choice(EXAMPLE_STRATEGIES), default=None,
                     help="Example selection; similarity is the evaluation baseline."),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


def _build_pipeline(cfg: RunConfig, corpus_path, map_path, embed_path, corr_path,
                    background_path, backend, backend_config, oracle_answers,
                    example_strategy) -> AugmentPipeline:
    cfg.override(backend=backend, backend_config=backend_config,
                 oracle_answers=oracle_answers, example_strategy=example_strategy)
    if cfg.jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {cfg.jobs}")
    check_settings(cfg.rounds, cfg.example_limit, cfg.example_strategy, cfg.temperature)
    backend = _make_backend(cfg)
    corpus = Corpus.from_records(_CORPUS(corpus_path))
    db = _MAP(map_path)
    embedding = _EMBED(embed_path)
    correlation = _CORR(corr_path, embedding, _BACKGROUND.optional(background_path))
    return AugmentPipeline(
        corpus=corpus,
        db=db,
        embedding=embedding,
        correlation=correlation,
        backend=backend,
        example_limit=cfg.example_limit,
        rounds=cfg.rounds,
        seed=cfg.seed,
        decode_seed=cfg.decode_seed,
        temperature=cfg.temperature,
        example_strategy=cfg.example_strategy,
    )


@cli.command()
@_pipeline_options
@click.option("--targets", "targets_path", default=None,
              help="Feed-format file of records to augment; defaults to corpus records with gaps.")
@click.option("--aspect", default=None, help="Only augment this aspect.")
@click.option("--rounds", type=int, default=None)
@click.option("--limit", "example_limit", type=int, default=None)
@click.option("--audit", default=None, help="Append prompts/completions to this JSONL file.")
@click.option("--dump-examples", is_flag=True,
              help="Include the chosen in-context example cve_ids in the output.")
@click.option("-o", "--output", default=None)
@click.pass_obj
def augment(cfg: RunConfig, targets_path, aspect, rounds, example_limit, audit,
            dump_examples, output, **shared):
    """Fill missing aspects for every target record."""
    cfg.override(rounds=rounds, example_limit=example_limit, audit=audit)
    only = AspectKind.from_key(aspect) if aspect else None
    pipeline = _build_pipeline(cfg, **shared)
    # Targets are a corpus, so each cve_id is one record and one row per aspect.
    targets = (Corpus.from_records(_read_feed(_prereq(targets_path, "targets file")).records)
               if targets_path else pipeline.corpus)
    tasks = [(rec, kind) for rec in targets
             for kind in rec.missing_aspects() if only is None or kind == only]

    def run(task: tuple[TvdRecord, AspectKind]):
        # A slot whose every round failed gets no row; the others are kept.
        try:
            return pipeline.augment(*task)
        except GenerationFailed as exc:
            return exc

    results = map_ordered(run, tasks, cfg.jobs)
    failed = [r for r in results if isinstance(r, GenerationFailed)]
    outcomes = [r for r in results if not isinstance(r, GenerationFailed)]

    lines = [out.to_row(dump_examples)
             for out in sorted(outcomes, key=lambda o: (o.cve_id, o.aspect.json_key))]
    out_path = _output(cfg, output, "augmented.jsonl")
    atomic_write_lines(out_path, lines)
    click.echo(f"augmented {len(lines)} (record, aspect) slots -> {out_path}")
    for exc in failed:
        click.echo(f"error: {exc}", err=True)
    if failed:
        sys.exit(EXIT_INTERNAL)


def _load_testset(path: Path) -> typing.Iterator[tuple[TvdRecord, AspectKind, str]]:
    from .embed import tokenize

    for line_no, line in read_lines(path):
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError("expected a JSON object")
            record = TvdRecord.from_json_obj(obj)
            kind = AspectKind.from_key(obj["masked_aspect"])
            label = obj["label"]
            if not isinstance(label, str) or not tokenize(label):
                raise ValueError(f"label must be a string of at least one token, got {label!r}")
            if record.aspects.get(kind):
                raise ValueError(f"masked_aspect {kind.json_key!r} is still set in aspects")
        except KeyError as exc:
            raise FeedFormatError(f"missing field {exc}", line_no, path) from None
        except json.JSONDecodeError as exc:
            raise FeedFormatError(exc.msg, line_no, path) from None
        except (TypeError, ValueError) as exc:
            raise FeedFormatError(str(exc), line_no, path) from None
        yield record, kind, label


@cli.command()
@_pipeline_options
@click.option("--testset", "testset_path", default=None,
              help="Masked-testset JSONL; omit to mask --aspect over the corpus.")
@click.option("--aspect", default=None)
@click.option("--threshold", type=int, default=None, help="Long-tail threshold.")
@click.option("-o", "--output", "out_prefix", default=None,
              help="Prefix for report files (.txt, .jsonl, .csv).")
@click.pass_obj
def evaluate(cfg: RunConfig, testset_path, aspect, threshold, out_prefix, **shared):
    """Score the pipeline on a masked test set."""
    cfg.override(long_tail_threshold=threshold, backend=shared["backend"],
                 oracle_answers=shared["oracle_answers"])
    _check_threshold(cfg)
    kind = AspectKind.from_key(aspect) if aspect else None
    self_check = cfg.backend == "oracle" and not cfg.oracle_answers
    if testset_path:
        testset = [row for row in _load_testset(_prereq(testset_path, "testset file"))
                   if kind is None or row[1] == kind]
        if not testset:
            masking = f" that masks {kind.json_key!r}" if kind else ""
            raise ValueError(f"nothing to evaluate: {testset_path} holds no line{masking}")
        dataset_id = str(testset_path)
        labels: dict[str, str] = {}
        for rec, _, label in testset:
            if self_check and labels.setdefault(rec.cve_id, label) != label:
                raise ValueError(f"{testset_path}: {rec.cve_id} has two labels, and the oracle"
                                 f" answers a cve_id with one; pick one aspect with --aspect")
    elif kind is None:
        raise ValueError("evaluate needs --testset or --aspect")
    pipeline = _build_pipeline(cfg, **shared)
    if not testset_path:
        testset = []
        for rec in pipeline.corpus:
            try:
                masked, label = corpus_mod.mask_aspect(rec, kind)
            except VulnaugError:
                continue
            testset.append((masked, kind, label))
        if not testset:
            raise ValueError(f"nothing to evaluate: no corpus record can mask {kind.json_key!r}")
        dataset_id = f"masked:{kind.json_key}"
        click.echo(f"warning: the {kind.json_key!r} labels come from the corpus the models were"
                   f" trained on; pass --testset for held-out slots", err=True)

    if self_check:
        pipeline.backend = _make_backend(cfg, {rec.cve_id: label for rec, _, label in testset})

    from . import evalkit  # as in fetch-background: no other command needs it

    report = evalkit.evaluate(
        pipeline,
        testset,
        pipeline.embedding,
        db=pipeline.db,
        threshold=cfg.long_tail_threshold,
        jobs=cfg.jobs,
        pipeline_id=pipeline.identity,
        dataset_id=dataset_id,
    )
    prefix = _output(cfg, out_prefix, "eval-report")
    atomic_write_text(prefix.with_suffix(".txt"), report.to_text())
    atomic_write_text(prefix.with_suffix(".jsonl"), report.to_jsonl())
    atomic_write_text(prefix.with_suffix(".csv"), report.to_csv())
    click.echo(report.to_text(), nl=False)
    click.echo(f"reports -> {prefix}.txt .jsonl .csv")


@cli.command()
@click.option("--n", "n", type=int, required=True, help="Reference TVDs a maintainer would consult.")
@click.option("--x", "x", type=float, required=True, help="Augmentation accuracy in [0,1].")
def cost(n, x):
    """Expected-lookup cost of augmenting versus manual search."""
    from . import evalkit

    params = evalkit.CostParams(n=n, x=x)
    result = evalkit.expected_lookups(params)
    e_not, e_aug = result["e_not_augment"], result["e_augment"]
    if e_aug < e_not:
        verdict = "effective"
    elif e_aug == e_not:
        verdict = "break-even"
    else:
        verdict = "not-effective"
    thresh = evalkit.effectiveness_threshold(n)
    click.echo(
        f"e_not={_fmt_num(e_not)} e_aug={_fmt_num(e_aug)}"
        f" threshold={_fmt_num(thresh)} verdict={verdict}"
    )


@cli.command()
@_CORPUS.option
@_MAP.option
@click.option("--threshold", type=int, default=None)
@click.option("-o", "--output", default=None, help="Also write the report as JSON.")
@click.pass_obj
def stats(cfg: RunConfig, corpus_path, map_path, threshold, output):
    """Gini coefficient and long-tail partition of the corpus."""
    cfg.override(long_tail_threshold=threshold)
    _check_threshold(cfg)
    corpus = Corpus.from_records(_CORPUS(corpus_path))
    db = _MAP.optional(map_path)
    counts = Counter(mapping.software_name(rec, db) for rec in corpus)
    unnamed = counts.pop(None, 0)
    if not counts:
        raise ValueError("no record carries a software name; cannot compute stats")
    report = corpus_mod.classify_long_tail(counts, cfg.long_tail_threshold)
    click.echo(
        f"records={len(corpus)} software={len(counts)} unnamed={unnamed}\n"
        f"gini={_fmt_num(report.gini)} threshold={report.threshold}\n"
        f"long_tail={len(report.long_tail)} non_long_tail={len(report.non_long_tail)}"
    )
    if output:
        atomic_write_text(Path(output), json.dumps(
            {
                "gini": report.gini,
                "threshold": report.threshold,
                "counts": dict(sorted(counts.items())),
                "long_tail": sorted(report.long_tail),
                "non_long_tail": sorted(report.non_long_tail),
                "unnamed": unnamed,
            },
            ensure_ascii=False,
            sort_keys=True,
        ) + "\n")


@cli.command("fetch-background")
@click.option("--terms", "terms_path", required=True,
              help="File with one search term per line.")
@click.option("--endpoint", default="https://en.wikipedia.org/api/rest_v1/page/summary/{term}",
              help="URL template with a {term} placeholder.")
@click.option("--rate", type=float, default=1.0, help="Requests per second.")
@click.option("-o", "--output", default=None)
@click.pass_obj
def fetch_background(cfg: RunConfig, terms_path, endpoint, rate, output):
    """Populate a background store from a live encyclopedia API (network opt-in)."""
    # Imported here, as in HttpBackend.complete: no other command needs it.
    import urllib.parse
    import urllib.request

    from .featcorr import BackgroundStore

    terms = {line_no: line.strip() for line_no, line in read_lines(terms_path)}
    for line_no, term in terms.items():
        if "\t" in term or "\r" in term:
            raise FeedFormatError(f"term {term!r} holds a tab or a CR", line_no, terms_path)
    limiter = genprompt.RateLimiter(rate_per_s=rate)
    try:
        endpoint.format(term="term")
    except (LookupError, AttributeError, ValueError) as exc:
        raise ValueError(f"--endpoint {endpoint!r} must format with {{term}} alone: {exc!r}") from None
    articles: dict[str, str] = {}
    fetched = 0
    for term in terms.values():
        limiter.acquire()
        url = endpoint.format(term=urllib.parse.quote(term))
        try:
            with urllib.request.urlopen(url, timeout=30) as resp:
                body = resp.read().decode("utf-8")
        except Exception as exc:  # noqa: BLE001 - skip unfetchable terms
            click.echo(f"warning: {term}: {exc}", err=True)
            continue
        try:
            reply = json.loads(body)
        except json.JSONDecodeError:
            text = body
        else:
            fields = ([reply.get(key, "") for key in ("extract", "description")]
                      if isinstance(reply, dict) else [None])
            if not all(isinstance(f, str) for f in fields):
                click.echo(f"warning: {term}: the reply is not a JSON object whose"
                           f" extract and description are strings", err=True)
                continue
            text = fields[0] or fields[1]
        if text:
            articles[term] = " ".join(text.split())
            fetched += 1
    out = _output(cfg, output, "background.tsv")
    BackgroundStore(articles=articles).save(out)
    click.echo(f"fetched {fetched}/{len(terms)} articles -> {out}")


def main() -> None:
    cli(prog_name="vulnaug")


if __name__ == "__main__":
    main()
