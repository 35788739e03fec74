"""Run one ``vulnaug`` command in this process with timers around its public functions.

Usage::

    python3 bench/probe.py REPORT.json MODE -- <vulnaug arguments>

The package is imported from ``src/`` of the checkout this file sits in. The
probe wraps names the program looks up at call time, runs the real click CLI,
and writes a JSON report after the command returns:

``plain``  (the untraced run) installs one timer, around
           ``AugmentPipeline.augment``, and a call counter on
           ``MockBackend.complete``.
``trace``  wraps every layer in :data:`TRACED` with spans
           ``(name, start, end, parent, slot)`` kept in memory.

Times are CPU time: ``time.thread_time()`` per slot and span, and
``time.process_time()`` for the process. On a kernel with paravirtual steal
accounting, CPU time excludes the time a shared host's hypervisor takes the
vCPU away, which made wall-clock runs swing by up to 2x. Slots also carry
``time.perf_counter()`` stamps, for wall-clock slot rates.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SLOT = "pipeline.augment"

#: span name -> (module, attribute path) of the name the program looks up.
TRACED = {
    SLOT: ("vulnaug.pipeline", "AugmentPipeline.augment"),
    "exampler.retrieve_pool": ("vulnaug.pipeline", "retrieve_pool"),
    "exampler.select_examples": ("vulnaug.pipeline", "select_examples"),
    "genprompt.generate_candidates": ("vulnaug.pipeline", "generate_candidates"),
    "featcorr.software_features": ("vulnaug.pipeline", "software_features"),
    "featcorr.rank_candidates": ("vulnaug.pipeline", "rank_candidates"),
    "embed.kmeans": ("vulnaug.exampler", "kmeans"),
    "embed.sentence_vector": ("vulnaug.exampler", "sentence_vector"),
    "featcorr.fetch_background": ("vulnaug.featcorr", "fetch_background"),
    "featcorr.tower_vector": ("vulnaug.featcorr", "CorrelationModel.tower_vector"),
    "genprompt.backend": ("vulnaug.genprompt", "MockBackend.complete"),
    "corpus.parse_feed": ("vulnaug.corpus", "parse_feed"),
    "mapping.load_mapping": ("vulnaug.mapping", "load_mapping"),
    "embed.load": ("vulnaug.embed", "EmbeddingModel.load"),
    "featcorr.load": ("vulnaug.featcorr", "CorrelationModel.load"),
    "featcorr.store_load": ("vulnaug.featcorr", "BackgroundStore.from_file"),
    "embed.train_embeddings": ("vulnaug.embed", "train_embeddings"),
    "featcorr.build_training_pairs": ("vulnaug.featcorr", "build_training_pairs"),
    "featcorr.train_correlation": ("vulnaug.featcorr", "train_correlation"),
}


def _tokens_trained(args, kwargs, _result) -> int:
    from vulnaug.embed import tokenize

    corpus = args[0]
    config = args[1] if len(args) > 1 else kwargs.get("config")
    epochs = config.epochs if config is not None else 1
    return epochs * sum(len(tokenize(rec.description)) for rec in corpus)


def _method_text(args, _kwargs, _result) -> str:
    return args[1]


#: span name -> function of (args, kwargs, result) giving one value to keep
#: per call. It runs after the span closes, so it adds to the parent's time.
NOTES = {
    "exampler.retrieve_pool": lambda a, k, r: len(r.union),
    "featcorr.software_features": lambda a, k, r: len(r),
    "featcorr.rank_candidates": lambda a, k, r: len(a[1]) * len(a[2]),
    "featcorr.tower_vector": _method_text,
    "embed.kmeans": lambda a, k, r: len(r.objective_history),
    "genprompt.backend": lambda a, k, r: len(a[1].encode("utf-8")),
    "genprompt.generate_candidates": lambda a, k, r: len(r.failures),
    "embed.train_embeddings": _tokens_trained,
    "featcorr.build_training_pairs": lambda a, k, r: len(r),
}


def _lookup(module: str, path: str):
    """(owner, attribute name, raw attribute) for a dotted path, or None if absent."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        raw = owner.__dict__.get(attr)
    else:
        raw = getattr(owner, attr, None)
    return None if raw is None else (owner, attr, raw)


def _install(module: str, path: str, make_wrapper) -> bool:
    found = _lookup(module, path)
    if found is None:
        return False
    owner, attr, raw = found
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make_wrapper(raw.__func__)))
    else:
        setattr(owner, attr, make_wrapper(raw))
    return True


class Tracer:
    """In-memory span recorder; one span stack per thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, slot index]
        self.notes: dict[str, list] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrapper(self, name: str, note=None):
        def make(fn):
            def traced(*args, **kwargs):
                stack = self._local.__dict__.setdefault("stack", [])
                parent, slot = stack[-1] if stack else (-1, -1)
                with self._lock:
                    idx = len(self.spans)
                    self.spans.append([name, 0.0, 0.0, parent, slot])
                if name == SLOT:
                    slot = idx
                stack.append((idx, slot))
                start = time.thread_time()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.thread_time()
                    stack.pop()
                    span = self.spans[idx]
                    span[1], span[2], span[4] = start, end, slot
                if note is not None:
                    value = note(args, kwargs, result)
                    with self._lock:
                        self.notes.setdefault(name, []).append(value)
                return result

            return traced

        return make


def _install_plain(report: dict) -> None:
    slots: list[tuple[float, float, float]] = report["slots"]
    calls: list[int] = []

    def slot_timer(fn):
        def timed(*args, **kwargs):
            report.setdefault("setup_cpu", time.process_time())
            start, cpu = time.perf_counter(), time.thread_time()
            result = fn(*args, **kwargs)
            slots.append((start, time.perf_counter(), time.thread_time() - cpu))
            return result

        return timed

    def counter(fn):
        def counted(*args, **kwargs):
            calls.append(1)
            return fn(*args, **kwargs)

        return counted

    _install(*TRACED[SLOT], slot_timer)
    _install(*TRACED["genprompt.backend"], counter)
    report["backend_calls"] = calls


def _install_trace(report: dict) -> Tracer:
    tracer = Tracer()
    report["unwrapped"] = [
        name for name, (module, path) in TRACED.items()
        if not _install(module, path, tracer.wrapper(name, NOTES.get(name)))
    ]
    return tracer


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--" or argv[1] not in ("plain", "trace"):
        print("usage: probe.py REPORT.json plain|trace -- <vulnaug arguments>", file=sys.stderr)
        return 2
    report_path, mode, cli_args = Path(argv[0]), argv[1], argv[3:]
    sys.path.insert(0, str(ROOT / "src"))
    from vulnaug import cli

    report: dict = {"slots": []}
    tracer = _install_trace(report) if mode == "trace" else None
    if mode == "plain":
        _install_plain(report)
    try:
        cli.cli.main(args=cli_args, prog_name="vulnaug", standalone_mode=True)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    report["cpu"] = time.process_time()
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if mode == "plain":
        report["backend_calls"] = len(report["backend_calls"])
    if tracer is not None:
        report["spans"] = tracer.spans
        notes = tracer.notes
        texts = notes.pop("featcorr.tower_vector", [])
        notes["featcorr.tower_vector.distinct"] = [len(set(texts))]
        report["notes"] = notes
    report_path.write_text(json.dumps(report), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
