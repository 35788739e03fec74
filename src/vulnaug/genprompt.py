"""Prompt construction and candidate-answer generation.

Three prompt structures drive the main generation chain (direct generation,
fill-in-the-blank, and a selection prompt that arbitrates between the first
two), plus a few-shot baseline prompt. Backends are pluggable behind a small
protocol; the bundled mock backends are pure functions of (prompt, seed) so
the whole chain runs deterministically offline.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Protocol

from .corpus import AspectKind, TvdRecord
from .errors import BackendError, GenerationFailed, MissingPrerequisite
from .exampler import ExampleSet

DEFAULT_ROUNDS = 5

MASK_TOKEN = "(mask)"


class PromptKind(Enum):
    DIRECT_GENERATION = "direct_generation"
    FILL_IN_THE_BLANK = "fill_in_the_blank"
    SELECTION = "selection"
    BASELINE_FEW_SHOT = "baseline_few_shot"


@dataclass
class Prompt:
    kind: PromptKind
    text: str


@dataclass(frozen=True)
class CandidateAnswer:
    """One backend-produced value for a missing aspect."""

    aspect: AspectKind
    text: str
    strategy: PromptKind
    round: int
    backend_id: str

    def __post_init__(self) -> None:
        if not self.text or self.text != self.text.strip():
            raise ValueError("candidate text must be non-empty and trimmed")
        if "\n" in self.text or "\r" in self.text:
            raise ValueError("candidate text must be a single phrase")
        if self.round < 1:
            raise ValueError("round must be >= 1")


class LlmBackend(Protocol):
    """Minimal completion interface; implementations must be thread-safe."""

    identity: str

    def complete(self, prompt: str, *, temperature: float = 0.0, seed: int = 0) -> str:
        ...


def extract_known_aspects(
    record: TvdRecord,
) -> tuple[dict[AspectKind, str], list[AspectKind]]:
    """Split the five aspect slots into populated and missing, in enum order."""
    return record.known_aspects(), record.missing_aspects()


def _names(missing: Iterable[AspectKind]) -> str:
    return " and ".join(k.display_name for k in missing)


def _render_examples(examples: ExampleSet | None) -> str:
    lines = ["examples:"]
    if examples is not None:
        for rec in examples.members:
            populated = [
                f"{kind.json_key}: {value}"
                for kind, value in rec.aspects.items()
                if value
            ]
            if not populated:
                continue
            lines.append("- " + populated[0])
            lines.extend("  " + entry for entry in populated[1:])
    return "\n".join(lines)


def _render_known(known: Mapping[AspectKind, str]) -> str:
    lines = ["known aspects:"]
    lines.extend(f"- {kind.json_key}: {known[kind]}" for kind in AspectKind if kind in known)
    return "\n".join(lines)


def _context(
    examples_block: str, known: Mapping[AspectKind, str], tvd_text: str, target_cve: str
) -> str:
    """The lines every chain prompt carries between its task line and its
    question: target, examples, the TVD and the known aspects."""
    return "\n".join(
        [f"target: {target_cve}", examples_block, f"TVD: {tvd_text}", _render_known(known)]
    )


def _direct_text(context: str, missing: list[AspectKind]) -> str:
    return "\n".join(
        [
            "reason target: infer the missing key aspects of the vulnerability"
            " description below from the examples.",
            context,
            f"Question: what is the {_names(missing)} of the TVD?"
            " Answer with a short phrase.",
        ]
    )


def _blank(tvd_text: str, missing: list[AspectKind]) -> str:
    for kind in missing:
        if kind.placeholder in tvd_text:
            tvd_text = tvd_text.replace(kind.placeholder, MASK_TOKEN, 1)
        else:
            tvd_text = f"{tvd_text} the {kind.display_name} is {MASK_TOKEN}."
    return tvd_text


def _fill_text(context: str, missing: list[AspectKind]) -> str:
    return "\n".join(
        [
            "fill in the blank: the vulnerability description below has its"
            " missing key aspects masked out.",
            context,
            f"Question: the masked content could be the {_names(missing)}."
            " Answer with the masked content as a short phrase.",
        ]
    )


def _selection_text(
    context: str, missing: list[AspectKind], ans_direct: str, ans_fill: str
) -> str:
    if not ans_direct or not ans_fill:
        raise ValueError("selection requires two non-empty candidate answers")
    return "\n".join(
        [
            f"selection: choose the better value for the {_names(missing)}"
            " of the vulnerability description below.",
            context,
            f"option A: {ans_direct}",
            f"option B: {ans_fill}",
            "Question: reply with the exact text of the better option.",
        ]
    )


def build_direct(
    examples: ExampleSet | None,
    known: Mapping[AspectKind, str],
    missing: list[AspectKind],
    tvd_text: str,
    target_cve: str = "",
) -> Prompt:
    """Direct-generation prompt: task line, examples, the TVD, and a question
    naming each missing aspect."""
    context = _context(_render_examples(examples), known, tvd_text, target_cve)
    return Prompt(PromptKind.DIRECT_GENERATION, _direct_text(context, missing))


def build_fill(
    examples: ExampleSet | None,
    known: Mapping[AspectKind, str],
    missing: list[AspectKind],
    tvd_text: str,
    target_cve: str = "",
) -> Prompt:
    """Fill-in-the-blank prompt: each missing aspect appears as one "(mask)".

    The "unknown <aspect name>" placeholder left behind by masking is rewritten
    to the mask token; a missing aspect with no placeholder in the text gets an
    appended "the <name> is (mask)." sentence so the one-mask-per-aspect shape
    always holds.
    """
    context = _context(_render_examples(examples), known, _blank(tvd_text, missing), target_cve)
    return Prompt(PromptKind.FILL_IN_THE_BLANK, _fill_text(context, missing))


def build_selection(
    examples: ExampleSet | None,
    known: Mapping[AspectKind, str],
    missing: list[AspectKind],
    ans_direct: str,
    ans_fill: str,
    tvd_text: str = "",
    target_cve: str = "",
) -> Prompt:
    """Selection prompt: option A is always the direct-generation answer,
    option B the fill-in answer."""
    context = _context(_render_examples(examples), known, tvd_text, target_cve)
    return Prompt(PromptKind.SELECTION, _selection_text(context, missing, ans_direct, ans_fill))


def build_baseline(
    record: TvdRecord,
    kind: AspectKind,
    exemplar_candidates: Iterable[TvdRecord],
    seed: int = 0,
    few_shot: int = 3,
) -> Prompt:
    """Few-shot baseline prompt in the fixed question/noting/examples shape.

    Three exemplars (fewer when the candidate list is short) are sampled with
    the seed from candidates that have the aspect populated; each is shown with
    the aspect value replaced by "unknown <name>" and the removed value as the
    answer line.
    """
    usable = [c for c in exemplar_candidates if c.aspects.get(kind) and c.cve_id != record.cve_id]
    usable.sort(key=lambda r: r.cve_id)
    picker = random.Random(seed)
    chosen = usable if len(usable) <= few_shot else picker.sample(usable, few_shot)

    software = record.raw_software_names[0] if record.raw_software_names else ""
    name = kind.display_name
    lines = [
        f"What is {name} of TVD? TVD: {record.description}",
        f"software name: {software}",
        f"noting: {name} is phrase.",
    ]
    if len(chosen) < few_shot:
        lines.append(f"noting: only {len(chosen)} examples available.")
    for exemplar in chosen:
        value = exemplar.aspects[kind]
        lines.append(f"TVD: {exemplar.description.replace(value, 'unknown ' + name, 1)}")
        lines.append(f"{name}: {value}")
    return Prompt(PromptKind.BASELINE_FEW_SHOT, "\n".join(lines))


_QUOTES = ("\"", "'", "“", "”", "‘", "’")


def postprocess_answer(completion: str) -> str:
    """Trim to a single phrase: first line, outer quotes stripped."""
    text = completion.strip().splitlines()[0].strip() if completion.strip() else ""
    while len(text) >= 2 and text[0] in _QUOTES and text[-1] in _QUOTES:
        text = text[1:-1].strip()
    return text


@dataclass
class RoundFailure:
    round: int
    error: str


@dataclass
class GenerationOutcome:
    candidates: list[CandidateAnswer]
    failures: list[RoundFailure] = field(default_factory=list)


def generate_candidates(
    backend: LlmBackend,
    examples: ExampleSet | None,
    record: TvdRecord,
    kind: AspectKind,
    rounds: int = DEFAULT_ROUNDS,
    base_seed: int = 0,
    temperature: float = 0.7,
) -> GenerationOutcome:
    """Run the direct/fill/selection chain ``rounds`` times for one aspect.

    Each round makes exactly three backend calls and yields one candidate (the
    selection output; a bare "A"/"B" reply is mapped back to the corresponding
    option text). Round r uses decode seed ``base_seed + r``. Failed rounds are
    recorded; the operation raises only when every round fails.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    known = record.known_aspects()
    missing = [kind]
    # The examples and known aspects are the same in every prompt of the
    # chain, and the two generator prompts the same in every round.
    block = _render_examples(examples)
    context = _context(block, known, record.description, record.cve_id)
    direct_text = _direct_text(context, missing)
    fill_text = _fill_text(
        _context(block, known, _blank(record.description, missing), record.cve_id), missing
    )
    outcome = GenerationOutcome(candidates=[])
    for r in range(1, rounds + 1):
        seed = base_seed + r
        try:
            ans_direct = postprocess_answer(
                backend.complete(direct_text, temperature=temperature, seed=seed)
            )
            ans_fill = postprocess_answer(
                backend.complete(fill_text, temperature=temperature, seed=seed)
            )
            if not ans_direct or not ans_fill:
                raise BackendError("empty completion from generator prompt")
            selection_text = _selection_text(context, missing, ans_direct, ans_fill)
            final = postprocess_answer(
                backend.complete(selection_text, temperature=temperature, seed=seed)
            )
            if final.upper() == "A":
                final = ans_direct
            elif final.upper() == "B":
                final = ans_fill
            if not final:
                raise BackendError("empty completion from selection prompt")
            outcome.candidates.append(
                CandidateAnswer(
                    aspect=kind,
                    text=final,
                    strategy=PromptKind.SELECTION,
                    round=r,
                    backend_id=backend.identity,
                )
            )
        except BackendError as exc:
            outcome.failures.append(RoundFailure(round=r, error=str(exc)))
    if not outcome.candidates:
        raise GenerationFailed(
            f"{record.cve_id}/{kind.json_key}: all {rounds} rounds failed,"
            f" the last with: {outcome.failures[-1].error}"
        )
    return outcome


# --- Backends ---------------------------------------------------------------


def _digest_phrase(prompt: str, seed: int, temperature: float) -> str:
    digest = hashlib.sha256(f"{seed}|{temperature!r}|{prompt}".encode("utf-8")).hexdigest()
    return f"mock answer {digest[:10]}"


@dataclass
class MockBackend:
    """Pure deterministic backend: a hash of (prompt, seed) decides the answer."""

    identity: str = "mock"

    def complete(self, prompt: str, *, temperature: float = 0.0, seed: int = 0) -> str:
        return _digest_phrase(prompt, seed, temperature)


_OPTION_A_RE = re.compile(r"^option A: (.*)$", re.MULTILINE)


@dataclass
class EchoBackend:
    """Like MockBackend, except selection prompts echo option A verbatim."""

    identity: str = "echo"

    def complete(self, prompt: str, *, temperature: float = 0.0, seed: int = 0) -> str:
        match = _OPTION_A_RE.search(prompt)
        if match:
            return match.group(1)
        return _digest_phrase(prompt, seed, temperature)


_CVE_IN_PROMPT_RE = re.compile(r"CVE-\d{4}-\d{4,7}")


@dataclass
class OracleBackend:
    """Answers from a lookup table keyed by the target cve_id in the prompt."""

    answers: Mapping[str, str]
    identity: str = "oracle"
    default: str = "unknown"

    def complete(self, prompt: str, *, temperature: float = 0.0, seed: int = 0) -> str:
        match = _CVE_IN_PROMPT_RE.search(prompt)
        if match:
            return self.answers.get(match.group(0), self.default)
        return self.default


@dataclass
class ConstantBackend:
    """Always returns the same text; handy as an adversarial stand-in."""

    text: str
    identity: str = "constant"

    def complete(self, prompt: str, *, temperature: float = 0.0, seed: int = 0) -> str:
        return self.text


class RateLimiter:
    """Token bucket; acquire() blocks until a token is available."""

    def __init__(self, rate_per_s: float, capacity: int = 1):
        if not (math.isfinite(rate_per_s) and rate_per_s > 0):
            raise ValueError(f"rate must be finite and > 0 requests per second, got {rate_per_s!r}")
        self.rate = rate_per_s
        self.capacity = capacity
        self._tokens = float(capacity)
        self._stamp = time.monotonic()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        while True:
            with self._lock:
                now = time.monotonic()
                self._tokens = min(
                    self.capacity, self._tokens + (now - self._stamp) * self.rate
                )
                self._stamp = now
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return
                wait = (1.0 - self._tokens) / self.rate
            time.sleep(wait)


@dataclass
class BackendConfig:
    """HTTP backend settings; the API key comes from the environment only."""

    endpoint: str
    model: str
    timeout_s: float = 30.0
    max_retries: int = 3
    api_key_env: str = "VULNAUG_API_KEY"
    rate_per_s: float | None = None


class HttpBackend:
    """OpenAI-style chat-completions client with retry and backoff.

    Network failures, rate limiting (HTTP 429) and server errors are retried
    up to ``config.max_retries`` times; any other 4xx fails at once.

    Building one without an API key in ``config.api_key_env`` raises
    :class:`MissingPrerequisite`, before any request is sent.
    """

    def __init__(self, config: BackendConfig):
        self.config = config
        self.identity = f"http:{config.model}"
        self._api_key = os.environ.get(config.api_key_env, "")
        if not self._api_key:
            raise MissingPrerequisite("API key", f"environment variable {config.api_key_env}")
        self._limiter = (
            RateLimiter(config.rate_per_s) if config.rate_per_s else None
        )

    def complete(self, prompt: str, *, temperature: float = 0.0, seed: int = 0) -> str:
        # Imported here: urllib.request loads http.client, ssl and email, which
        # only this backend needs.
        import urllib.error
        import urllib.request

        payload = json.dumps(
            {
                "model": self.config.model,
                "messages": [{"role": "user", "content": prompt}],
                "temperature": temperature,
                "seed": seed,
            }
        ).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(self.config.max_retries + 1):
            if self._limiter is not None:
                self._limiter.acquire()
            request = urllib.request.Request(
                self.config.endpoint,
                data=payload,
                headers={
                    "Content-Type": "application/json",
                    "Authorization": f"Bearer {self._api_key}",
                },
            )
            try:
                with urllib.request.urlopen(request, timeout=self.config.timeout_s) as resp:
                    body = json.loads(resp.read().decode("utf-8"))
                return body["choices"][0]["message"]["content"]
            except urllib.error.HTTPError as exc:
                # A client error other than rate limiting fails the same way
                # on every retry (bad key, wrong endpoint or model).
                if 400 <= exc.code < 500 and exc.code != 429:
                    raise BackendError(f"backend call rejected: {exc}") from exc
                last_error = exc
            except Exception as exc:  # noqa: BLE001 - network failures vary widely
                last_error = exc
            if attempt < self.config.max_retries:
                time.sleep(2.0**attempt)
        raise BackendError(f"backend call failed after retries: {last_error}")


class AuditingBackend:
    """Wraps a backend and appends every exchange to a JSONL audit file."""

    def __init__(self, inner: LlmBackend, path: str | Path):
        self.inner = inner
        self.path = Path(path)
        self.identity = inner.identity
        self._lock = threading.Lock()

    def complete(self, prompt: str, *, temperature: float = 0.0, seed: int = 0) -> str:
        completion = self.inner.complete(prompt, temperature=temperature, seed=seed)
        entry = json.dumps(
            {
                "backend": self.identity,
                "seed": seed,
                "temperature": temperature,
                "prompt": prompt,
                "completion": completion,
            },
            ensure_ascii=False,
            sort_keys=True,
        )
        with self._lock:
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(entry + "\n")
        return completion
