import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import make_record, struts_gov_records
from vulnaug.corpus import Source
from vulnaug.errors import NotFound
from vulnaug.mapping import (
    TEMPLATES,
    MappingDb,
    build_mapping,
    canonicalize_name,
    extend_with_fallback,
    extract_software_name,
    load_mapping,
    mapping_stats,
    resolve,
    save_mapping,
    siblings,
    software_name,
)

T1, T2, T3 = (TEMPLATES[source] for source in (Source.GOV_CNNVD, Source.GOV_CERTFR, Source.GOV_JVN))

_LETTER = re.compile(r"[A-Za-z]")


def _is_letter(ch):
    return bool(_LETTER.match(ch))


def reference_extend_token_run(sentence, start, end):
    """Grow [start, end) to the maximal run of ASCII-letter tokens joined by
    single spaces or hyphens, one character at a time."""
    while start > 0 and _is_letter(sentence[start - 1]):
        start -= 1
    while end < len(sentence) and _is_letter(sentence[end]):
        end += 1
    while (
        start >= 2
        and sentence[start - 1] in " -"
        and _is_letter(sentence[start - 2])
    ):
        start -= 2
        while start > 0 and _is_letter(sentence[start - 1]):
            start -= 1
    while (
        end + 1 < len(sentence)
        and sentence[end] in " -"
        and _is_letter(sentence[end + 1])
    ):
        end += 2
        while end < len(sentence) and _is_letter(sentence[end]):
            end += 1
    return start, end


def reference_extract(sentence, template):
    if not sentence:
        return None
    match = template.search(sentence)
    if match is None or match.lastindex is None:
        return None
    start, end = match.span(1)
    if start == end:
        return None
    start, end = reference_extend_token_run(sentence, start, end)
    return canonicalize_name(sentence[start:end])


# Letters, both separators, the other whitespace that T1 and T2 accept inside
# a seed, digits, a version dot, a non-ASCII letter and CJK.
_SENTENCE_CHARS = list("aBzZ") * 3 + [" ", " ", "-", "\t", "\n", "0", "9", ".", "é", "该", "製"]


class TestExtraction:
    def test_all_cjk_sentence_yields_nothing(self):
        assert extract_software_name("该漏洞存在于某软件中", T1) is None

    def test_t1_extends_capture_to_full_name(self):
        assert extract_software_name("该Apache Struts存在远程代码执行漏洞", T1) == "Apache Struts"

    def test_t2_stops_before_version_suffix(self):
        sentence = "Apache Struts 2.5.10. contient une vulnerabilite."
        assert extract_software_name(sentence, T2) == "Apache Struts"

    def test_t3_japanese_sentence(self):
        sentence = "製品Apache Strutsには任意のコードが実行される脆弱性が存在します"
        assert extract_software_name(sentence, T3) == "Apache Struts"

    def test_hyphenated_name(self):
        assert extract_software_name("该Red-Hat Linux存在漏洞", T1) == "Red-Hat Linux"

    def test_empty_sentence(self):
        assert extract_software_name("", T1) is None

    @settings(max_examples=200)
    @given(st.text(max_size=80))
    def test_never_cjk_or_padded(self, sentence):
        for template in TEMPLATES.values():
            name = extract_software_name(sentence, template)
            if name is None:
                continue
            assert name == name.strip()
            assert not any("一" <= ch <= "龥" for ch in name)

    @settings(max_examples=500)
    @given(st.text(alphabet=st.sampled_from(_SENTENCE_CHARS), max_size=60))
    @example("该Apache\tStruts存在")
    @example("该Apache\nStruts 2 存在")
    @example("Red\t\tHat Linux 2.5. est")
    @example("该Red  Hat--Linux -x- y存在")
    @example("该ab-cd ef- gh存在")
    @example("Apache Struts")
    @example("x该Apache")
    @example("该ab9cd efé gh.ij")
    @example("x -Ab cd")
    @example("ab  cd-ef 1.0.")
    @example("")
    def test_matches_the_character_scanner(self, sentence):
        # The reference also grows a seed backwards, which never moves it: no
        # template's seed starts inside a token run.
        for template in TEMPLATES.values():
            assert extract_software_name(sentence, template) == reference_extract(sentence, template)


class TestBuildMapping:
    def test_empty_input(self):
        db = build_mapping([])
        assert mapping_stats(db) == {"distinct_names": 0, "total_links": 0, "unresolved": 0}

    def test_struts_coreference_merges(self):
        db = build_mapping(struts_gov_records())
        name, cves = resolve(db, "CVE-2018-11776")
        assert name == "Apache Struts"
        assert cves == ["CVE-2017-9805", "CVE-2018-11776"]

    def test_conflict_resolved_by_source_priority(self):
        low = make_record(
            "CVE-2019-0001", "x.", source=Source.GOV_CERTFR,
            first_sentence="Legacy Daemon 1.2. est vulnerable.",
        )
        high = make_record(
            "CVE-2019-0001", "x.", source=Source.GOV_CNNVD,
            first_sentence="该Modern Daemon存在漏洞",
        )
        db = build_mapping([low, high])
        assert db.cve_to_name["CVE-2019-0001"] == "Modern Daemon"
        assert len(db.conflicts) == 1
        # order independence: CNNVD wins regardless of insertion order
        db2 = build_mapping([high, low])
        assert db2.cve_to_name["CVE-2019-0001"] == "Modern Daemon"

    def test_unextractable_goes_unresolved(self):
        rec = make_record(
            "CVE-2019-0002", "x.", source=Source.GOV_CNNVD, first_sentence="全是中文没有名字"
        )
        db = build_mapping([rec])
        assert db.unresolved == ["CVE-2019-0002"]
        assert mapping_stats(db)["unresolved"] == 1

    def test_fallback_indexes_raw_names(self):
        db = build_mapping(struts_gov_records())
        plain = make_record("CVE-2019-0003", "y.", software=["My  Tool "])
        added = extend_with_fallback(db, [plain])
        assert added == 1
        assert db.cve_to_name["CVE-2019-0003"] == "My Tool"
        # fallback never displaces a gov-derived entry
        again = make_record("CVE-2017-9805", "z.", software=["Wrong Name"])
        assert extend_with_fallback(db, [again]) == 0
        assert db.cve_to_name["CVE-2017-9805"] == "Apache Struts"


class TestSoftwareName:
    def test_mapping_name_wins_over_raw_name(self):
        db = build_mapping(struts_gov_records())
        rec = make_record("CVE-2017-9805", "x.", software=["Other  Tool"])
        assert software_name(rec, db) == "Apache Struts"

    @pytest.mark.parametrize("raw,expected", [
        (["  Foo   Bar "], "Foo Bar"),
        (["Foo Bar", "Other"], "Foo Bar"),
        ([" \t "], None),
        ([], None),
    ])
    def test_falls_back_to_canonical_first_raw_name(self, raw, expected):
        rec = make_record("CVE-2019-0004", "x.", software=raw)
        assert software_name(rec, None) == expected
        assert software_name(rec, MappingDb()) == expected


class TestResolve:
    def test_singleton_name_lookup(self):
        db = MappingDb()
        db.insert("Lone Tool", "CVE-2019-1000")
        assert resolve(db, "Lone Tool") == ("Lone Tool", ["CVE-2019-1000"])
        assert resolve(db, "CVE-2019-1000") == ("Lone Tool", ["CVE-2019-1000"])

    def test_unknown_cve_not_found(self):
        with pytest.raises(NotFound):
            resolve(MappingDb(), "CVE-2019-9999")

    def test_unknown_name_not_found(self):
        with pytest.raises(NotFound):
            resolve(MappingDb(), "No Such Tool")


class TestSiblings:
    def test_unmapped_record_has_none(self):
        db = build_mapping(struts_gov_records())
        assert siblings(db, "CVE-2019-9999") == []
        assert siblings(MappingDb(), "CVE-2017-9805") == []

    def test_mapped_record_gets_sorted_list_with_itself(self):
        db = MappingDb()
        for cve_id in ("CVE-2019-0300", "CVE-2019-0100", "CVE-2019-0200"):
            db.insert("Tool", cve_id)
        db.insert("Other", "CVE-2019-0150")
        want = ["CVE-2019-0100", "CVE-2019-0200", "CVE-2019-0300"]
        assert siblings(db, "CVE-2019-0200") == want
        assert siblings(db, "CVE-2019-0150") == ["CVE-2019-0150"]
        assert siblings(db, "CVE-2019-0100") == resolve(db, "CVE-2019-0100")[1]

    def test_fallback_entries_join_by_raw_name(self):
        db = build_mapping(struts_gov_records())
        extend_with_fallback(db, [
            make_record("CVE-2019-0005", "d.", software=["Beta  Tool"]),
            make_record("CVE-2019-0004", "d.", software=["Beta Tool"]),
            make_record("CVE-2017-9805", "d.", software=["Beta Tool"]),
            make_record("CVE-2019-0006", "d."),
        ])
        assert siblings(db, "CVE-2019-0005") == ["CVE-2019-0004", "CVE-2019-0005"]
        assert siblings(db, "CVE-2017-9805") == ["CVE-2017-9805", "CVE-2018-11776"]
        assert siblings(db, "CVE-2019-0006") == []


class TestStats:
    def test_struts_fixture_counts(self):
        db = build_mapping(struts_gov_records())
        stats = mapping_stats(db)
        assert stats["distinct_names"] == 1
        assert stats["total_links"] == 2

    def test_alias_merge_reduces_distinct_names(self):
        aliases = ["Struts REST", "Struts2", "struts core"]
        raw_count = len(set(aliases))
        db = MappingDb()
        for i, _ in enumerate(aliases):
            db.insert("Apache Struts", f"CVE-2019-{2000 + i}")
        merged = mapping_stats(db)["distinct_names"]
        assert merged == raw_count - (len(aliases) - 1)


class TestPersistence:
    def test_round_trip_and_stable_bytes(self, tmp_path):
        db = build_mapping(struts_gov_records())
        extend_with_fallback(db, [make_record("CVE-2019-0004", "d.", software=["Beta Tool"])])
        path = tmp_path / "mapping.tsv"
        save_mapping(db, path)
        first = path.read_bytes()
        loaded = load_mapping(path)
        assert loaded.name_to_cves == db.name_to_cves
        assert loaded.cve_to_name == db.cve_to_name
        save_mapping(loaded, path)
        assert path.read_bytes() == first

    def test_names_sorted_in_file(self, tmp_path):
        db = MappingDb()
        db.insert("Zeta", "CVE-2019-0010")
        db.insert("Alpha", "CVE-2019-0011")
        path = tmp_path / "m.tsv"
        save_mapping(db, path)
        names = [line.split("\t")[0] for line in path.read_text().splitlines()]
        assert names == sorted(names)


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["Tool A", "Tool B", "Tool C", "Other"]),
            st.integers(min_value=0, max_value=30),
            st.sampled_from([Source.GOV_CNNVD, Source.GOV_JVN, Source.GOV_CERTFR, None]),
        ),
        max_size=60,
    )
)
def test_bidirectional_consistency_under_inserts(entries):
    db = MappingDb()
    for name, n, source in entries:
        db.insert(name, f"CVE-2020-{1000 + n}", source=source)
    for cve, name in db.cve_to_name.items():
        assert cve in db.name_to_cves[name]
    for name, cves in db.name_to_cves.items():
        assert cves, "no empty name buckets"
        for cve in cves:
            assert db.cve_to_name[cve] == name
