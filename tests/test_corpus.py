import json
import re
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import feed_text, make_record
from vulnaug.corpus import (
    AspectKind,
    Corpus,
    Source,
    TvdRecord,
    classify_long_tail,
    gini,
    mask_aspect,
    parse_feed,
)
from vulnaug.errors import (
    DegenerateDistribution,
    FeedFormatError,
    NotMaskable,
    SpanNotFound,
)


def gini_oracle(counts):
    """O(n^2) mean-absolute-difference form, independent of the implementation."""
    n = len(counts)
    mean = sum(counts) / n
    total = sum(abs(a - b) for a in counts for b in counts)
    return total / (2 * n * n * mean)


class TestParseFeed:
    def test_empty_file(self):
        result = parse_feed(b"")
        assert result.records == []
        assert result.diagnostics == []

    def test_single_record_fields(self):
        line = json.dumps(
            {
                "cve_id": "CVE-2002-0679",
                "description": "Buffer overflow in ToolTalk RPC.",
                "cwe_id": "CWE-119",
                "aspects": {"vulnerability_type": "Buffer overflow"},
                "source": "CVE",
                "published": "2002-07-03",
            }
        )
        result = parse_feed(line.encode("utf-8"))
        assert len(result.records) == 1
        rec = result.records[0]
        assert rec.cve_id == "CVE-2002-0679"
        assert rec.cwe_id == "CWE-119"
        assert rec.aspects[AspectKind.VULNERABILITY_TYPE] == "Buffer overflow"
        assert rec.aspects[AspectKind.IMPACT] is None
        assert rec.published == date(2002, 7, 3)

    def test_aspects_in_kind_order_whatever_the_key_order(self):
        # known_aspects, and with it every prompt, lists aspects in dict order.
        kinds = list(AspectKind)
        given = {kind: f"value {i}" for i, kind in enumerate(kinds) if kind != AspectKind.IMPACT}
        keys = {kind: kind.display_name if kind == AspectKind.ROOT_CAUSE else kind.json_key
                for kind in given}
        line = json.dumps({
            "cve_id": "CVE-2002-0680", "description": "d.", "source": "CVE",
            "published": "2002-07-03",
            "aspects": {keys[kind]: given[kind] for kind in reversed(list(given))},
        })
        first, second = parse_feed(line + "\n" + line.replace("0680", "0681")).records
        assert list(first.aspects) == kinds
        assert first.aspects == {**given, AspectKind.IMPACT: None}
        assert list(first.known_aspects()) == [k for k in kinds if k != AspectKind.IMPACT]
        first.aspects[AspectKind.IMPACT] = "changed"
        assert second.aspects[AspectKind.IMPACT] is None
        bare = TvdRecord(cve_id="CVE-2002-0682", description="d.", source=Source.CVE,
                         published=date(2002, 7, 3))
        assert list(bare.aspects.items()) == [(k, None) for k in kinds]

    def test_record_holds_every_kind_in_kind_order(self):
        kinds = list(AspectKind)
        for given in ({AspectKind.ROOT_CAUSE: "bug", AspectKind.IMPACT: "leak"},
                      {kind: kind.value for kind in reversed(kinds)},
                      {kind: kind.value for kind in kinds}, {}):
            aspects = dict(given)
            rec = TvdRecord(cve_id="CVE-2002-0683", description="d.", source=Source.CVE,
                            published=date(2002, 7, 3), aspects=aspects)
            assert list(rec.aspects.items()) == [(kind, given.get(kind)) for kind in kinds]
            # A dict already in kind order is kept as it is; any other is a new dict.
            assert (rec.aspects is aspects) == (list(given) == kinds)
            assert aspects == given

    @pytest.mark.parametrize("stray", ["note", "impact", None, 3])
    def test_record_rejects_aspects_keys_that_are_not_kinds(self, stray):
        for aspects in ({stray: "x"}, {AspectKind.IMPACT: "leak", stray: "x"},
                        {**dict.fromkeys(AspectKind), stray: None}):
            with pytest.raises(ValueError, match=re.escape(repr([stray]))):
                TvdRecord(cve_id="CVE-2002-0683", description="d.", source=Source.CVE,
                          published=date(2002, 7, 3), aspects=aspects)

    def test_duplicate_cve_rejected_with_diagnostic(self):
        rec = make_record("CVE-2020-0001", "something broke.")
        text = feed_text([rec, rec])
        result = parse_feed(text)
        assert len(result.records) == 1
        assert len(result.diagnostics) == 1
        assert result.diagnostics[0].cve_id == "CVE-2020-0001"
        assert "duplicate" in result.diagnostics[0].message

    def test_analyse_and_modified_both_kept(self):
        base = make_record("CVE-2020-0002", "a flaw.", source=Source.NVD, revision_tag="ANALYSE")
        mod = make_record("CVE-2020-0002", "a flaw.", source=Source.NVD, revision_tag="MODIFIED")
        result = parse_feed(feed_text([base, mod]))
        assert len(result.records) == 2
        assert not result.diagnostics

    def test_invalid_cve_id_reported_not_dropped_silently(self):
        line = json.dumps(
            {"cve_id": "NOT-A-CVE", "description": "x.", "source": "CVE", "published": "2020-01-01"}
        )
        result = parse_feed(line)
        assert result.records == []
        assert len(result.diagnostics) == 1
        assert "cve_id" in result.diagnostics[0].message

    @pytest.mark.parametrize("field,value", [
        ("aspects", ["x"]), ("aspects", "impact"), ("aspects", {"impact": 7}),
        ("aspects", {"impact": ["x"]}), ("description", 5), ("cwe_id", 119),
        ("first_sentence", {"text": "x"}), ("software_names", "abc"),
        ("software_names", ["a", 1]),
    ])
    def test_field_of_the_wrong_type_is_a_diagnostic(self, field, value):
        good = make_record("CVE-2020-0004", "fine.").to_json_obj()
        bad = json.dumps({**make_record("CVE-2020-0005", "fine.").to_json_obj(), field: value})
        result = parse_feed("\n".join([json.dumps(good), bad]))
        assert [rec.cve_id for rec in result.records] == ["CVE-2020-0004"]
        assert [(d.line, d.cve_id) for d in result.diagnostics] == [(2, "CVE-2020-0005")]
        assert field in result.diagnostics[0].message

    def test_null_optional_fields_are_accepted(self):
        obj = {**make_record("CVE-2020-0006", "fine.").to_json_obj(), "cwe_id": None,
               "first_sentence": None, "software_names": None, "aspects": {"impact": None}}
        result = parse_feed(json.dumps(obj))
        assert not result.diagnostics
        rec = result.records[0]
        assert (rec.cwe_id, rec.first_sentence, rec.raw_software_names) == (None, None, [])

    def test_malformed_line_raises_with_line_number(self):
        good = make_record("CVE-2020-0003", "fine.").to_json_line()
        with pytest.raises(FeedFormatError) as exc_info:
            parse_feed(good + "\n{broken json\n")
        assert exc_info.value.line == 2

    def test_deterministic(self):
        records = [make_record(f"CVE-2020-{i:04d}", f"issue {i}.") for i in range(1, 8)]
        text = feed_text(records)
        first = parse_feed(text)
        second = parse_feed(text)
        assert [r.to_json_line() for r in first.records] == [
            r.to_json_line() for r in second.records
        ]

    def test_round_trips_through_json(self):
        rec = make_record(
            "CVE-2020-0004",
            "unicode 中文 description.",
            source=Source.GOV_CNNVD,
            cwe_id="CWE-79",
            aspects={AspectKind.IMPACT: "leak data"},
            software=["Some Tool"],
            first_sentence="该Some Tool存在漏洞",
        )
        parsed = parse_feed(rec.to_json_line()).records[0]
        assert parsed == rec

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.text(alphabet="ab \u0085\u2028\u2029\r\x0b\x1c中", min_size=1,
                            max_size=12), min_size=3, max_size=3),
           st.booleans())
    def test_line_separators_inside_strings_round_trip(self, texts, crlf):
        # str.splitlines() breaks at U+0085, U+2028, U+2029 and more, which
        # to_json_line writes raw; a feed line ends at "\n" alone.
        name, aspect, first = texts
        records = [make_record(f"CVE-2020-{i:04d}", f"issue{i} {name}.", software=[name],
                               aspects={AspectKind.IMPACT: aspect}, first_sentence=first)
                   for i in range(1, 3)]
        text = feed_text(records)
        result = parse_feed(text.replace("\n", "\r\n") if crlf else text)
        assert not result.diagnostics
        assert result.records == records


class TestMaskAspect:
    def fixture(self):
        return make_record(
            "CVE-2002-0679",
            "Buffer overflow in Common Desktop Environment (CDE) ToolTalk RPC"
            " database server allows remote attackers to execute arbitrary code.",
            aspects={
                AspectKind.VULNERABILITY_TYPE: "Buffer overflow",
                AspectKind.ATTACKER_TYPE: "remote attackers",
            },
        )

    def test_placeholder_replaces_value(self):
        masked, label = mask_aspect(self.fixture(), AspectKind.VULNERABILITY_TYPE)
        assert masked.description.startswith(
            "unknown vulnerability type in Common Desktop Environment"
        )
        assert label == "Buffer overflow"
        assert masked.aspects[AspectKind.VULNERABILITY_TYPE] is None

    def test_absent_aspect_not_maskable(self):
        with pytest.raises(NotMaskable):
            mask_aspect(self.fixture(), AspectKind.IMPACT)

    def test_value_missing_from_text(self):
        rec = make_record(
            "CVE-2020-0005", "some text.", aspects={AspectKind.IMPACT: "not in text"}
        )
        with pytest.raises(SpanNotFound):
            mask_aspect(rec, AspectKind.IMPACT)

    def test_round_trip_identity(self):
        original = self.fixture()
        for kind in (AspectKind.VULNERABILITY_TYPE, AspectKind.ATTACKER_TYPE):
            masked, label = mask_aspect(original, kind)
            restored = masked.description.replace(kind.placeholder, label, 1)
            assert restored == original.description

    def test_original_record_untouched(self):
        original = self.fixture()
        mask_aspect(original, AspectKind.VULNERABILITY_TYPE)
        assert original.aspects[AspectKind.VULNERABILITY_TYPE] == "Buffer overflow"


class TestGini:
    def test_uniform_is_zero(self):
        assert gini([5, 5, 5, 5]) == 0.0

    def test_single_spike(self):
        assert gini([0, 0, 0, 1]) == pytest.approx(0.75, abs=1e-12)

    def test_matches_quadratic_oracle(self):
        import random

        rnd = random.Random(7)
        for _ in range(100):
            n = rnd.randint(1, 200)
            counts = [rnd.randint(0, 500) for _ in range(n)]
            if sum(counts) == 0:
                counts[0] = 1
            assert gini(counts) == pytest.approx(gini_oracle(counts), abs=1e-9)

    def test_all_zero_is_degenerate(self):
        with pytest.raises(DegenerateDistribution):
            gini([0, 0, 0])

    def test_empty_is_degenerate(self):
        with pytest.raises(DegenerateDistribution):
            gini([])

    @given(
        st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=60).filter(
            lambda c: sum(c) > 0
        ),
        st.integers(min_value=1, max_value=9),
    )
    def test_scale_invariant(self, counts, k):
        assert gini([k * c for c in counts]) == pytest.approx(gini(counts), abs=1e-9)

    @given(
        st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=60).filter(
            lambda c: sum(c) > 0
        ),
        st.randoms(use_true_random=False),
    )
    def test_permutation_invariant(self, counts, rnd):
        shuffled = list(counts)
        rnd.shuffle(shuffled)
        assert gini(shuffled) == gini(counts)


class TestClassifyLongTail:
    def test_windows_is_non_long_tail(self):
        report = classify_long_tail({"Microsoft Windows": 509}, threshold=50)
        assert "Microsoft Windows" in report.non_long_tail

    def test_tooltalk_is_long_tail(self):
        report = classify_long_tail({"ToolTalk RPC": 31}, threshold=50)
        assert "ToolTalk RPC" in report.long_tail

    def test_boundary_count_goes_long_tail(self):
        report = classify_long_tail({"Boundary Soft": 50}, threshold=50)
        assert "Boundary Soft" in report.long_tail

    def test_report_carries_gini(self):
        report = classify_long_tail({"a": 509, "b": 31}, threshold=50)
        assert report.gini == pytest.approx(gini_oracle([509, 31]), abs=1e-12)

    @settings(max_examples=50)
    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.integers(min_value=0, max_value=200),
            min_size=1,
            max_size=40,
        ),
        st.integers(min_value=1, max_value=100),
    )
    def test_partition_disjoint_and_exhaustive(self, counts, threshold):
        report = classify_long_tail(counts, threshold)
        assert report.long_tail | report.non_long_tail == set(counts)
        assert not (report.long_tail & report.non_long_tail)
        for name, count in counts.items():
            assert (name in report.non_long_tail) == (count > threshold)


class TestAspectKind:
    @pytest.mark.parametrize("kind", list(AspectKind))
    def test_both_spellings_round_trip(self, kind):
        assert AspectKind.from_key(kind.json_key) is kind
        assert AspectKind.from_key(kind.display_name) is kind
        assert kind.json_key == kind.display_name.replace(" ", "_")

    @pytest.mark.parametrize("key", ["", "Impact", "root-cause", "unknown impact", "impact "])
    def test_unknown_key_raises(self, key):
        with pytest.raises(ValueError, match="unknown aspect"):
            AspectKind.from_key(key)


class TestCorpus:
    def test_duplicate_cve_keeps_first(self):
        a = make_record("CVE-2020-0100", "first.")
        b = make_record("CVE-2020-0100", "second.")
        corpus = Corpus.from_records([a, b])
        assert len(corpus) == 1
        assert corpus.get("CVE-2020-0100").description == "first."

    def test_iteration_is_sorted(self):
        corpus = Corpus.from_records(
            [make_record("CVE-2020-0300", "z."), make_record("CVE-2020-0200", "a.")]
        )
        assert [r.cve_id for r in corpus] == ["CVE-2020-0200", "CVE-2020-0300"]
