import io
import json
import urllib.error
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from helpers import (
    make_record,
    prompt_example_records,
    prompt_example_set,
    prompt_target_record,
)
from vulnaug import genprompt
from vulnaug.corpus import AspectKind, mask_aspect
from vulnaug.errors import BackendError, GenerationFailed
from vulnaug.genprompt import (
    MASK_TOKEN,
    BackendConfig,
    CandidateAnswer,
    ConstantBackend,
    EchoBackend,
    HttpBackend,
    MockBackend,
    OracleBackend,
    PromptKind,
    build_baseline,
    build_direct,
    build_fill,
    build_selection,
    extract_known_aspects,
    generate_candidates,
    postprocess_answer,
)

GOLDEN = Path(__file__).parent / "golden"


def masked_fixture():
    record = prompt_target_record()
    masked, label = mask_aspect(record, AspectKind.VULNERABILITY_TYPE)
    known, missing = extract_known_aspects(masked)
    return masked, label, known, missing


class TestExtractKnownAspects:
    def test_all_populated(self):
        known, missing = extract_known_aspects(prompt_target_record())
        assert missing == []
        assert len(known) == 5

    def test_single_masked(self):
        _, _, known, missing = masked_fixture()
        assert missing == [AspectKind.VULNERABILITY_TYPE]
        assert AspectKind.VULNERABILITY_TYPE not in known

    def test_partition_covers_all_kinds(self):
        record = make_record(
            "CVE-2020-5000",
            "something.",
            aspects={AspectKind.IMPACT: "crash", AspectKind.ROOT_CAUSE: "bug",
                     AspectKind.ATTACK_VECTOR: "via input"},
        )
        known, missing = extract_known_aspects(record)
        assert len(known) + len(missing) == 5


class TestGoldenPrompts:
    def test_direct_matches_snapshot(self):
        masked, _, known, missing = masked_fixture()
        prompt = build_direct(prompt_example_set(), known, missing, masked.description, masked.cve_id)
        assert prompt.text + "\n" == (GOLDEN / "direct_cve_2002_1877.txt").read_text(encoding="utf-8")

    def test_fill_matches_snapshot(self):
        masked, _, known, missing = masked_fixture()
        prompt = build_fill(prompt_example_set(), known, missing, masked.description, masked.cve_id)
        assert prompt.text + "\n" == (GOLDEN / "fill_cve_2002_1877.txt").read_text(encoding="utf-8")

    def test_selection_matches_snapshot(self):
        masked, _, known, missing = masked_fixture()
        prompt = build_selection(
            prompt_example_set(), known, missing,
            "Cross-site scripting vulnerability", "stored XSS",
            tvd_text=masked.description, target_cve=masked.cve_id,
        )
        assert prompt.text + "\n" == (GOLDEN / "selection_cve_2002_1877.txt").read_text(encoding="utf-8")

    def test_baseline_matches_snapshot(self):
        masked, _, _, _ = masked_fixture()
        prompt = build_baseline(masked, AspectKind.VULNERABILITY_TYPE, prompt_example_records(), seed=13)
        assert prompt.text + "\n" == (GOLDEN / "baseline_cve_2002_1877.txt").read_text(encoding="utf-8")

    def test_prompts_mention_the_fixture_product(self):
        masked, _, known, missing = masked_fixture()
        prompt = build_direct(prompt_example_set(), known, missing, masked.description, masked.cve_id)
        assert "NETGEAR FM114P" in prompt.text


class TestBuilderInvariants:
    def test_known_values_verbatim_in_every_builder(self):
        masked, _, known, missing = masked_fixture()
        examples = prompt_example_set()
        prompts = [
            build_direct(examples, known, missing, masked.description, masked.cve_id),
            build_fill(examples, known, missing, masked.description, masked.cve_id),
            build_selection(examples, known, missing, "a1", "a2",
                            tvd_text=masked.description, target_cve=masked.cve_id),
        ]
        for prompt in prompts:
            for value in known.values():
                assert value in prompt.text

    def test_zero_examples_still_well_formed(self):
        masked, _, known, missing = masked_fixture()
        prompt = build_direct(None, known, missing, masked.description, masked.cve_id)
        assert "examples:" in prompt.text
        assert "Question:" in prompt.text

    def test_fill_one_mask_per_missing_aspect(self):
        masked, _, known, missing = masked_fixture()
        prompt = build_fill(prompt_example_set(), known, missing, masked.description, masked.cve_id)
        assert prompt.text.count(MASK_TOKEN) == 1

    def test_fill_two_masks_for_two_missing(self):
        record = prompt_target_record()
        once, _ = mask_aspect(record, AspectKind.VULNERABILITY_TYPE)
        twice, _ = mask_aspect(once, AspectKind.IMPACT)
        known, missing = extract_known_aspects(twice)
        assert len(missing) == 2
        prompt = build_fill(prompt_example_set(), known, missing, twice.description, twice.cve_id)
        assert prompt.text.count(MASK_TOKEN) == 2

    def test_fill_without_placeholder_appends_blank(self):
        record = make_record("CVE-2020-5001", "no placeholder here.")
        known, missing = extract_known_aspects(record)
        prompt = build_fill(None, known, missing, record.description, record.cve_id)
        assert prompt.text.count(MASK_TOKEN) == len(missing) == 5

    def test_selection_contains_both_options_in_fixed_order(self):
        masked, _, known, missing = masked_fixture()
        prompt = build_selection(None, known, missing, "first answer", "second answer")
        a_pos = prompt.text.index("option A: first answer")
        b_pos = prompt.text.index("option B: second answer")
        assert a_pos < b_pos

    def test_selection_identical_answers_allowed(self):
        masked, _, known, missing = masked_fixture()
        prompt = build_selection(None, known, missing, "same", "same")
        assert prompt.text.count("same") == 2

    def test_selection_rejects_empty_answer(self):
        masked, _, known, missing = masked_fixture()
        with pytest.raises(ValueError):
            build_selection(None, known, missing, "", "b")

    def test_builders_are_pure(self):
        masked, _, known, missing = masked_fixture()
        a = build_direct(prompt_example_set(), known, missing, masked.description, masked.cve_id)
        b = build_direct(prompt_example_set(), known, missing, masked.description, masked.cve_id)
        assert a.text == b.text


class TestBaseline:
    def test_contains_phrase_constraint(self):
        masked, _, _, _ = masked_fixture()
        prompt = build_baseline(masked, AspectKind.VULNERABILITY_TYPE, prompt_example_records(), seed=0)
        assert "is phrase" in prompt.text

    def test_seed_fixes_exemplar_choice(self):
        masked, _, _, _ = masked_fixture()
        pool = prompt_example_records() * 3  # 9 candidates, sampling kicks in
        for candidate in pool:
            candidate.aspects[AspectKind.VULNERABILITY_TYPE] = "Some flaw"
        a = build_baseline(masked, AspectKind.VULNERABILITY_TYPE, pool, seed=5)
        b = build_baseline(masked, AspectKind.VULNERABILITY_TYPE, pool, seed=5)
        assert a.text == b.text

    def test_short_candidate_list_noted(self):
        masked, _, _, _ = masked_fixture()
        prompt = build_baseline(
            masked, AspectKind.VULNERABILITY_TYPE, prompt_example_records()[:1], seed=0
        )
        assert "only 1 examples available" in prompt.text


class TestPostprocess:
    def test_strips_quotes_and_whitespace(self):
        assert postprocess_answer('  "Buffer overflow"  ') == "Buffer overflow"

    def test_takes_first_line(self):
        assert postprocess_answer("Buffer overflow\nbecause reasons") == "Buffer overflow"

    def test_empty_stays_empty(self):
        assert postprocess_answer("   \n  ") == ""


@dataclass
class CountingBackend:
    """Delegates to MockBackend while counting calls."""

    identity: str = "counting"
    calls: list = field(default_factory=list)

    def complete(self, prompt: str, *, temperature: float = 0.0, seed: int = 0) -> str:
        self.calls.append((prompt, seed))
        return MockBackend().complete(prompt, temperature=temperature, seed=seed)


@dataclass
class FailingBackend:
    identity: str = "failing"

    def complete(self, prompt: str, *, temperature: float = 0.0, seed: int = 0) -> str:
        from vulnaug.errors import BackendError

        raise BackendError("boom")


class TestGenerateCandidates:
    def test_single_round_single_candidate(self):
        masked, _, _, _ = masked_fixture()
        outcome = generate_candidates(MockBackend(), prompt_example_set(), masked,
                                      AspectKind.VULNERABILITY_TYPE, rounds=1)
        assert len(outcome.candidates) == 1
        assert outcome.candidates[0].round == 1

    def test_five_rounds_counts_and_round_numbers(self):
        masked, _, _, _ = masked_fixture()
        outcome = generate_candidates(MockBackend(), prompt_example_set(), masked,
                                      AspectKind.VULNERABILITY_TYPE, rounds=5)
        assert [c.round for c in outcome.candidates] == [1, 2, 3, 4, 5]

    def test_three_calls_per_round(self):
        backend = CountingBackend()
        masked, _, _, _ = masked_fixture()
        generate_candidates(backend, prompt_example_set(), masked,
                            AspectKind.VULNERABILITY_TYPE, rounds=4, base_seed=10)
        assert len(backend.calls) == 3 * 4
        assert sorted({seed for _, seed in backend.calls}) == [11, 12, 13, 14]

    @pytest.mark.parametrize("with_examples", [True, False])
    @pytest.mark.parametrize("kind", [AspectKind.VULNERABILITY_TYPE, AspectKind.IMPACT])
    def test_prompts_equal_the_builders(self, with_examples, kind):
        # IMPACT has no placeholder in the TVD, so the fill prompt appends its blank.
        backend = CountingBackend()
        masked, _, known, _ = masked_fixture()
        examples = prompt_example_set() if with_examples else None
        generate_candidates(backend, examples, masked, kind, rounds=3, base_seed=4)
        missing = [kind]
        prompts = [prompt for prompt, _ in backend.calls]
        for r in range(3):
            direct, fill, selection = prompts[3 * r : 3 * r + 3]
            assert direct == build_direct(examples, known, missing, masked.description,
                                          masked.cve_id).text
            assert fill == build_fill(examples, known, missing, masked.description,
                                      masked.cve_id).text
            answers = [postprocess_answer(MockBackend().complete(p, temperature=0.7, seed=5 + r))
                       for p in (direct, fill)]
            assert selection == build_selection(examples, known, missing, *answers,
                                                tvd_text=masked.description,
                                                target_cve=masked.cve_id).text

    def test_echo_backend_selects_direct_answer(self):
        masked, _, known, missing = masked_fixture()
        backend = EchoBackend()
        outcome = generate_candidates(backend, prompt_example_set(), masked,
                                      AspectKind.VULNERABILITY_TYPE, rounds=3, base_seed=0)
        for candidate in outcome.candidates:
            direct = build_direct(prompt_example_set(), known, missing,
                                  masked.description, masked.cve_id)
            expected = postprocess_answer(
                backend.complete(direct.text, temperature=0.7, seed=candidate.round)
            )
            assert candidate.text == expected

    def test_deterministic_across_runs(self):
        masked, _, _, _ = masked_fixture()
        a = generate_candidates(MockBackend(), prompt_example_set(), masked,
                                AspectKind.VULNERABILITY_TYPE, rounds=3, base_seed=7)
        b = generate_candidates(MockBackend(), prompt_example_set(), masked,
                                AspectKind.VULNERABILITY_TYPE, rounds=3, base_seed=7)
        assert [c.text for c in a.candidates] == [c.text for c in b.candidates]

    def test_all_rounds_failing_raises(self):
        masked, _, _, _ = masked_fixture()
        with pytest.raises(GenerationFailed):
            generate_candidates(FailingBackend(), None, masked,
                                AspectKind.VULNERABILITY_TYPE, rounds=3)

    def test_candidates_carry_backend_identity(self):
        masked, _, _, _ = masked_fixture()
        outcome = generate_candidates(MockBackend(), None, masked,
                                      AspectKind.VULNERABILITY_TYPE, rounds=1)
        assert outcome.candidates[0].backend_id == "mock"
        assert outcome.candidates[0].strategy == PromptKind.SELECTION


class TestBackends:
    def test_mock_is_pure(self):
        a = MockBackend().complete("prompt", temperature=0.7, seed=3)
        b = MockBackend().complete("prompt", temperature=0.7, seed=3)
        assert a == b
        assert MockBackend().complete("prompt", temperature=0.7, seed=4) != a

    def test_oracle_answers_by_cve(self):
        backend = OracleBackend(answers={"CVE-2002-1877": "Cross-site scripting"})
        prompt = "target: CVE-2002-1877\nTVD: something"
        assert backend.complete(prompt) == "Cross-site scripting"
        assert backend.complete("target: CVE-1999-0001") == "unknown"

    def test_constant_backend(self):
        assert ConstantBackend("zzqx").complete("anything") == "zzqx"

    def test_echo_returns_option_a_verbatim(self):
        prompt = "stuff\noption A: the right one\noption B: other\nQuestion: pick"
        assert EchoBackend().complete(prompt) == "the right one"


class TestHttpBackend:
    @pytest.fixture()
    def attempts(self, monkeypatch):
        """Patch out the network and the backoff. Returns the list of events
        ("attempt", or the seconds of each sleep) and a dict whose "code" is
        the HTTP status every attempt fails with."""
        monkeypatch.setenv("VULNAUG_TEST_KEY", "secret")
        events = []
        status = {}

        def fake_urlopen(request, timeout):
            events.append("attempt")
            raise urllib.error.HTTPError(request.full_url, status["code"], "failed", {},
                                         io.BytesIO(b""))

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        monkeypatch.setattr(genprompt.time, "sleep", lambda s: events.append(s))
        return events, status

    def backend(self):
        return HttpBackend(BackendConfig(endpoint="http://localhost:9/v1", model="m",
                                         max_retries=3, api_key_env="VULNAUG_TEST_KEY"))

    @pytest.mark.parametrize("code", [400, 401, 403, 404])
    def test_client_error_fails_without_retry(self, attempts, code):
        events, status = attempts
        status["code"] = code
        with pytest.raises(BackendError, match=str(code)):
            self.backend().complete("prompt")
        assert events == ["attempt"]

    @pytest.mark.parametrize("code", [429, 500, 503])
    def test_rate_limit_and_server_errors_are_retried(self, attempts, code):
        events, status = attempts
        status["code"] = code
        with pytest.raises(BackendError, match=str(code)):
            self.backend().complete("prompt")
        assert events == ["attempt", 1.0, "attempt", 2.0, "attempt", 4.0, "attempt"]

    @pytest.mark.parametrize("content", [None, 5, ["text"], {"text": "x"}])
    def test_reply_without_text_fails_at_once(self, monkeypatch, content):
        monkeypatch.setenv("VULNAUG_TEST_KEY", "secret")
        events = []

        def fake_urlopen(request, timeout):
            events.append("attempt")
            body = {"choices": [{"message": {"content": content}}]}
            return io.BytesIO(json.dumps(body).encode("utf-8"))

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        monkeypatch.setattr(genprompt.time, "sleep", lambda s: events.append(s))
        with pytest.raises(BackendError, match="not text"):
            self.backend().complete("prompt")
        assert events == ["attempt"]
        # Each round fails as a round, and the slot as GenerationFailed.
        masked, _ = mask_aspect(prompt_target_record(), AspectKind.ATTACKER_TYPE)
        with pytest.raises(GenerationFailed, match="all 2 rounds failed.*not text"):
            generate_candidates(self.backend(), prompt_example_set(), masked,
                                AspectKind.ATTACKER_TYPE, rounds=2)


    @pytest.mark.parametrize("body,message", [
        (b'{"error": {"message": "model overloaded", "type": "server"}}', "model overloaded"),
        (b'{"choices": []}', '{"choices": []}'),
        (b"<html>bad gateway</html>", "<html>bad gateway</html>"),
        (b"x" * 300, "x" * 200 + "'"),
    ], ids=["error-object", "no-choices", "not-json", "long-body"])
    def test_reply_without_content_fails_at_once(self, monkeypatch, body, message):
        monkeypatch.setenv("VULNAUG_TEST_KEY", "secret")
        events = []

        def fake_urlopen(request, timeout):
            events.append("attempt")
            return io.BytesIO(body)

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        monkeypatch.setattr(genprompt.time, "sleep", lambda s: events.append(s))
        with pytest.raises(BackendError, match="holds no content") as failed:
            self.backend().complete("prompt")
        assert message in str(failed.value)
        assert events == ["attempt"]


class TestCandidateAnswer:
    def test_rejects_newlines(self):
        with pytest.raises(ValueError):
            CandidateAnswer(aspect=AspectKind.IMPACT, text="a\nb",
                            strategy=PromptKind.SELECTION, round=1, backend_id="x")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CandidateAnswer(aspect=AspectKind.IMPACT, text="",
                            strategy=PromptKind.SELECTION, round=1, backend_id="x")

    def test_rejects_round_zero(self):
        with pytest.raises(ValueError):
            CandidateAnswer(aspect=AspectKind.IMPACT, text="ok",
                            strategy=PromptKind.SELECTION, round=0, backend_id="x")
