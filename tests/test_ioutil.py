"""The model-file container and the line-file writer, pinned byte for byte;
the line-file reader; and a round trip through every artifact's writer and
loader."""

import ast
import io
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vulnaug.embed import EmbeddingModel, TrainConfig, tokenize
from vulnaug.errors import FeedFormatError
from vulnaug.featcorr import BackgroundStore, CorrelationModel, CorrTrainConfig
from vulnaug.ioutil import atomic_write_lines, read_lines
from vulnaug.mapping import MappingDb, canonicalize_name, load_mapping, save_mapping

SRC = Path(__file__).resolve().parents[1] / "src" / "vulnaug"

EMBED_HEADER = (b'{"dim": 2, "train_config": {"epochs": 3, "negative_samples": 4, "seed": 5,'
                b' "window": 2}, "vocab_size": 2}')
EMBED_VOCAB = b"alpha\nbeta\n"
EMBED_VECTORS = struct.pack("<4f", 1.0, -2.0, 0.5, 4.0)


def embed_file(header=EMBED_HEADER, vocab=EMBED_VOCAB, vectors=EMBED_VECTORS):
    """The README layout: magic, u32 header and vocab lengths, header, blocks."""
    return b"VAEMB001" + struct.pack("<II", len(header), len(vocab)) + header + vocab + vectors


CORR_HEADER = (b'{"bias": 0.25, "dim": 3, "train_config": {"epochs": 2,'
               b' "learning_rate": 0.1, "neg_ratio": 2, "seed": 3}}')


def corr_file(header=CORR_HEADER):
    return (b"VACORR01" + struct.pack("<I", len(header)) + header
            + struct.pack("<3d", 0.5, -1.0, 2.0))


def unit_embedding():
    return EmbeddingModel(dim=1, vocab={"a": 0}, vectors=np.ones((1, 1), np.float32))


def embed_model():
    return EmbeddingModel(
        dim=2, vocab={"alpha": 0, "beta": 1},
        vectors=np.array([[1.0, -2.0], [0.5, 4.0]], dtype=np.float32),
        train_config=TrainConfig(window=2, epochs=3, negative_samples=4, seed=5))


def assert_same_embedding(got, want):
    assert got.dim == want.dim and got.vocab == want.vocab
    assert got.vectors.dtype == np.float32 and got.vectors.shape == want.vectors.shape
    assert np.array_equal(got.vectors, want.vectors)
    assert got.train_config == want.train_config


class TestModelContainer:
    def test_embedding_bytes_follow_the_layout(self, tmp_path):
        path = tmp_path / "embed.bin"
        embed_model().save(path)
        assert path.read_bytes() == embed_file()
        assert_same_embedding(EmbeddingModel.load(path), embed_model())

    def test_empty_vocab_bytes_follow_the_layout(self, tmp_path):
        model = EmbeddingModel(dim=3, vocab={}, vectors=np.zeros((0, 3), dtype=np.float32))
        path = tmp_path / "embed.bin"
        model.save(path)
        header = (b'{"dim": 3, "train_config": {"epochs": 5, "negative_samples": 5,'
                  b' "seed": 42, "window": 5}, "vocab_size": 0}')
        assert path.read_bytes() == embed_file(header, b"", b"")
        assert_same_embedding(EmbeddingModel.load(path), model)

    def test_correlation_bytes_follow_the_layout(self, tmp_path):
        embedding = unit_embedding()
        model = CorrelationModel(
            embedding=embedding, weights=np.array([0.5, -1.0, 2.0]), bias=0.25,
            train_config=CorrTrainConfig(learning_rate=0.1, epochs=2, seed=3, neg_ratio=2))
        path = tmp_path / "corr.bin"
        model.save(path)
        assert path.read_bytes() == corr_file()
        loaded = CorrelationModel.load(path, embedding)
        assert loaded.embedding is embedding
        assert loaded.weights.dtype == np.float64
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.bias == model.bias and loaded.train_config == model.train_config

    @pytest.mark.parametrize("blob,needle", [
        (b"VAEMB001", "shorter than its 16-byte prefix"),
        (b"VAEMB001" + struct.pack("<II", 1 << 20, 0), "runs past the end"),
        (b"VAEMB001" + struct.pack("<II", len(EMBED_HEADER), 100) + EMBED_HEADER + EMBED_VOCAB
         + EMBED_VECTORS, "a 100-byte block runs past the end"),
        (embed_file(header=b"[2, 2]"), "not a JSON object"),
        (embed_file(header=b"{not json"), "Expecting property name"),
        (embed_file(vocab=b"alpha\n\xffbeta\n"), "can't decode byte 0xff"),
        (embed_file(header=EMBED_HEADER.replace(b'"dim": 2, ', b"")), "lacks ['dim']"),
        (embed_file(header=EMBED_HEADER.replace(b'"vocab_size": 2', b'"vocab_size": -2')),
         "are not counts"),
        (embed_file(vectors=EMBED_VECTORS[:-4]), "last block holds 12 bytes"),
        (embed_file(vectors=EMBED_VECTORS + b"\0" * 8), "last block holds 24 bytes"),
        (embed_file(vocab=b"alpha\n", vectors=EMBED_VECTORS), "vocab block holds 1 tokens"),
        (embed_file(header=EMBED_HEADER.replace(b'"seed"', b'"sed"')),
         "bad train_config: TrainConfig.__init__() got an unexpected keyword argument 'sed'"),
        (embed_file(header=EMBED_HEADER.replace(b'"window": 2', b'"window": 0')),
         "bad train_config: window must be >= 1, got 0"),
    ], ids=["prefix", "header-length", "block-length", "not-object", "not-json", "not-utf8",
            "missing-key", "negative-size", "short-block", "long-block", "vocab-count",
            "config-key", "config-value"])
    def test_damaged_embedding_file_raises_value_error_naming_it(self, tmp_path, blob, needle):
        path = tmp_path / "damaged.bin"
        path.write_bytes(blob)
        with pytest.raises(ValueError) as info:
            EmbeddingModel.load(path)
        assert str(info.value).startswith(f"{path}: ") and needle in str(info.value)


    @pytest.mark.parametrize("header,needle", [
        (CORR_HEADER.replace(b"0.25", b'"0.25"'), "bias '0.25' is not a number"),
        (CORR_HEADER.replace(b'"bias": 0.25, ', b""), "bias None is not a number"),
        (CORR_HEADER.replace(b'"epochs"', b'"epoch"'), "unexpected keyword argument 'epoch'"),
        (CORR_HEADER.replace(b'"neg_ratio": 2', b'"neg_ratio": 5'),
         "bad train_config: neg_ratio is fixed at 2, got 5"),
    ], ids=["bias", "no-bias", "config-key", "neg-ratio"])
    def test_damaged_correlation_header_raises_value_error_naming_it(self, tmp_path, header,
                                                                     needle):
        path = tmp_path / "damaged.bin"
        path.write_bytes(corr_file(header))
        with pytest.raises(ValueError) as info:
            CorrelationModel.load(path, unit_embedding())
        assert str(info.value).startswith(f"{path}: ") and needle in str(info.value)


@pytest.mark.parametrize("neg_ratio", [0, 1, 3, 5])
def test_corr_train_config_rejects_a_negative_ratio_it_does_not_train_with(neg_ratio):
    # build_training_pairs always draws NEG_RATIO negatives per positive, so
    # no other value may be written into a corr.bin header.
    with pytest.raises(ValueError, match=f"^neg_ratio is fixed at 2, got {neg_ratio}$"):
        CorrTrainConfig(neg_ratio=neg_ratio)


class TestAtomicWriteLines:
    @pytest.mark.parametrize("lines,data", [
        ([], b""),
        (iter(()), b""),
        ([""], b"\n"),
        (["a", "b c", "é"], "a\nb c\né\n".encode("utf-8")),
        ((f"{i}" for i in range(3)), b"0\n1\n2\n"),
    ], ids=["none", "empty-iterator", "one-empty", "list", "generator"])
    def test_each_line_ends_with_a_newline(self, tmp_path, lines, data):
        path = tmp_path / "sub" / "out.txt"
        atomic_write_lines(path, lines)
        assert path.read_bytes() == data
        assert [p.name for p in path.parent.iterdir()] == ["out.txt"]

    @given(st.lists(st.text(st.characters(blacklist_categories=["Cs"]).filter(lambda c: c != "\n")
                            | st.sampled_from(["\u2028", "\u2029", "\u0085", "\r", "é", "漏"]))))
    @settings(max_examples=50)
    def test_bytes_are_the_joined_lines_encoded(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("lines") / "out.txt"
        atomic_write_lines(path, iter(lines))
        assert path.read_bytes() == "".join(line + "\n" for line in lines).encode("utf-8")

    def raising_lines(self):
        yield "first"
        raise RuntimeError("the producer failed")

    @pytest.mark.parametrize("lines,error", [
        (["ok", "lone \ud800 surrogate", "after"], UnicodeEncodeError),
        ("generator", RuntimeError),
    ], ids=["lone-surrogate", "raising-generator"])
    def test_a_failed_write_leaves_no_file(self, tmp_path, lines, error):
        path = tmp_path / "out.txt"
        with pytest.raises(error):
            atomic_write_lines(path, self.raising_lines() if lines == "generator" else lines)
        assert list(tmp_path.iterdir()) == []


class TestReadLines:
    def test_lines_end_at_newline_alone(self):
        data = "a\u2028b\n\nc\u0085d\x0be\rf\n  \t\n\u2029g".encode("utf-8")
        assert list(read_lines(None, data)) == [
            (1, "a\u2028b"), (3, "c\u0085d\x0be\rf"), (5, "\u2029g")]

    def test_one_cr_before_the_newline_is_dropped(self):
        assert list(read_lines(None, "a\r\n\r\nb \r\r\nc\r")) == [
            (1, "a"), (3, "b \r"), (4, "c")]

    def test_reads_the_file_at_path(self, tmp_path):
        path = tmp_path / "lines.txt"
        atomic_write_lines(path, ["x", "", "y z"])
        assert list(read_lines(path)) == [(1, "x"), (3, "y z")]

    @pytest.mark.parametrize("data,line", [
        (b"\xff", 1), (b"ok\n\n\xffbad\n", 3), (b"ok\nfine \xe2\x80", 2),
    ], ids=["first", "third", "truncated"])
    def test_bytes_that_are_not_utf8_name_the_line(self, tmp_path, data, line):
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        with pytest.raises(FeedFormatError) as info:
            list(read_lines(path))
        assert info.value.line == line
        assert str(info.value).startswith(f"{path}:{line}: not UTF-8 text: ")


def whole_file_lines(data: bytes, path=None):
    """The lines of ``data`` as one decode of the whole input and one split
    at "\n" make them."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FeedFormatError(f"not UTF-8 text: {exc.reason}",
                              data.count(b"\n", 0, exc.start) + 1, path) from None
    return [(line_no, line.removesuffix("\r"))
            for line_no, line in enumerate(text.split("\n"), start=1) if line.strip()]


def outcome(read):
    """The lines ``read()`` gives, or the line and text of its FeedFormatError."""
    try:
        return list(read())
    except FeedFormatError as exc:
        return exc.line, str(exc)


def streamed_outcomes(tmp_path, data, chunk):
    """The outcome of read_lines on a file of ``data``, on its bytes and on
    a stream whose reads return at most ``chunk`` bytes, as a pipe's do."""
    path = tmp_path / "lines.txt"
    path.write_bytes(data)
    stream = io.BufferedReader(io.BytesIO(data), buffer_size=chunk)
    return [outcome(lambda: read_lines(path)), outcome(lambda: read_lines(path, data)),
            outcome(lambda: read_lines(path, stream))]


class TestStreamedLines:
    CHUNKS = [1, 2, 3, 5, 1 << 16]

    @pytest.mark.parametrize("data", [
        b"ok\nmid \xff byte\nend\n",
        b"ok\nfine \xe2\x80\nmore\n",
        b"ok\nfine \xe2\x80",
        "\u00e9\u20ac\U0001f600\n\u4e00x\n".encode("utf-8"),
        b"\n\xe2\x82\xac\xe2\x82\n",
        b"a\r\nb\rc\r\n\r\nd\r",
        "x\u0085y\u2028z\n\u2029\n".encode("utf-8"),
        b"\n\n  \t\nlast",
        b"",
    ], ids=["bad-byte", "truncated-at-line-end", "truncated-at-eof", "split-sequences",
            "split-then-truncated", "crlf-and-lone-cr", "separators", "blank-no-final-newline",
            "empty"])
    @pytest.mark.parametrize("chunk", CHUNKS)
    def test_file_reads_as_its_bytes(self, tmp_path, data, chunk):
        want = outcome(lambda: whole_file_lines(data, tmp_path / "lines.txt"))
        assert streamed_outcomes(tmp_path, data, chunk) == [want] * 3

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([b"a", b" ", b"\n", b"\r", b"\xc3", b"\xa9", b"\xe2\x82",
                                     b"\xac", b"\xf0\x9f\x98", b"\x80", b"\xff", "\u2028".encode()]),
                    max_size=30).map(b"".join),
           st.sampled_from(CHUNKS))
    def test_any_bytes_read_as_the_whole_file_decode(self, tmp_path_factory, data, chunk):
        tmp_path = tmp_path_factory.mktemp("lines")
        want = outcome(lambda: whole_file_lines(data, tmp_path / "lines.txt"))
        assert streamed_outcomes(tmp_path, data, chunk) == [want] * 3

    def test_text_reads_as_its_utf8_bytes(self):
        text = "a\u2028b\r\n\nc\u00e9\n"
        assert list(read_lines(None, text)) == whole_file_lines(text.encode("utf-8"))

    def test_lines_before_bad_bytes_come_back_first(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_bytes(b"first\n" + b"x" * (3 << 16) + b"\n\xff\n")
        lines = read_lines(path)
        assert next(lines) == (1, "first")
        assert next(lines) == (2, "x" * (3 << 16))
        with pytest.raises(FeedFormatError) as info:
            next(lines)
        assert info.value.line == 3


def line_splits(source: str):
    """(enclosing function or None, line) of each ``.splitlines()`` or
    ``.split("\\n")`` call in ``source``."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        seps = node.args[:1] + [k.value for k in node.keywords if k.arg == "sep"]
        if node.func.attr == "splitlines" or node.func.attr == "split" and any(
                isinstance(sep, ast.Constant) and sep.value == "\n" for sep in seps):
            scope = node
            while scope in parents and not isinstance(scope, ast.FunctionDef):
                scope = parents[scope]
            yield getattr(scope, "name", None), node.lineno


class TestOneLineReader:
    # The first line of a completion is not a file.
    ALLOWED = {("genprompt", "postprocess_answer")}

    def test_finder_sees_each_form(self):
        source = ("def f(t):\n    return t.splitlines(), t.split('\\n'), t.split(sep='\\n')\n"
                  "x = s.split('\\t') + s.split()\n")
        assert list(line_splits(source)) == [("f", 2)] * 3

    def test_only_ioutil_splits_text_into_lines(self):
        found = [(path.stem, scope, line) for path in sorted(SRC.glob("*.py"))
                 if path.stem != "ioutil"
                 for scope, line in line_splits(path.read_text(encoding="utf-8"))]
        assert [hit for hit in found if hit[:2] not in self.ALLOWED] == []
        assert {hit[:2] for hit in found} == self.ALLOWED


def numbered_mapping(names: dict[str, int]) -> MappingDb:
    db = MappingDb()
    next_id = iter(range(1000, 10**6))
    for name, count in names.items():
        for _ in range(count):
            db.insert(name, f"CVE-2020-{next(next_id)}")
    return db


STORE_TERMS = st.text(min_size=1).filter(
    lambda term: term.strip() and not any(c in term for c in "\t\r\n"))
TOKENS = st.from_regex(r"[a-z]+(?:-\d+)+|[a-z0-9]+", fullmatch=True).filter(
    lambda token: tokenize(token) == [token])


class TestRoundTrips:
    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.text(min_size=1).map(canonicalize_name).filter(bool),
                           st.integers(1, 3), max_size=8))
    def test_mapping(self, tmp_path_factory, names):
        path = tmp_path_factory.mktemp("map") / "mapping.tsv"
        db = numbered_mapping(names)
        save_mapping(db, path)
        loaded = load_mapping(path)
        assert loaded.name_to_cves == db.name_to_cves and loaded.cve_to_name == db.cve_to_name

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(STORE_TERMS, st.text(), max_size=8))
    def test_store(self, tmp_path_factory, articles):
        path = tmp_path_factory.mktemp("store") / "background.tsv"
        BackgroundStore(articles=articles).save(path)
        assert BackgroundStore.from_file(path).articles == {
            term: body.replace("\r", " ").replace("\n", " ") for term, body in articles.items()}

    def test_store_body_with_a_line_separator(self, tmp_path):
        path = tmp_path / "background.tsv"
        BackgroundStore(articles={"term": "alpha\u2028beta gamma"}).save(path)
        assert BackgroundStore.from_file(path).articles == {"term": "alpha\u2028beta gamma"}

    @pytest.mark.parametrize("term", ["foo\tbar", "a\rb", "a\nb", "", "  "])
    def test_store_term_no_line_can_hold_is_refused(self, tmp_path, term):
        path = tmp_path / "background.tsv"
        with pytest.raises(ValueError) as info:
            BackgroundStore(articles={"ok": "body", term: "body"}).save(path)
        assert str(info.value).startswith(f"{path}: ") and repr([term]) in str(info.value)
        assert not path.exists()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(TOKENS, unique=True, max_size=8).flatmap(
        lambda vocab: st.tuples(st.just(vocab), st.integers(1, 4).flatmap(
            lambda dim: hnp.arrays(np.float32, (len(vocab), dim))))))
    def test_embedding(self, tmp_path_factory, drawn):
        vocab, vectors = drawn
        path = tmp_path_factory.mktemp("embed") / "embed.bin"
        model = EmbeddingModel(dim=vectors.shape[1], vocab={t: i for i, t in enumerate(vocab)},
                               vectors=vectors, train_config=TrainConfig(seed=7))
        model.save(path)
        loaded = EmbeddingModel.load(path)
        assert loaded.vocab == model.vocab and loaded.train_config == model.train_config
        assert loaded.vectors.dtype == np.float32
        assert loaded.vectors.tobytes() == vectors.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda dim: hnp.arrays(np.float64, 2 * dim + 1)),
           st.floats(allow_nan=False), st.floats(0, 1, exclude_min=True, exclude_max=True),
           st.integers(1, 10**6), st.integers(-2**63, 2**63 - 1))
    def test_correlation(self, tmp_path_factory, weights, bias, lr, epochs, seed):
        dim = (weights.size - 1) // 2
        embedding = EmbeddingModel(dim=dim, vocab={}, vectors=np.zeros((0, dim), np.float32))
        model = CorrelationModel(embedding=embedding, weights=weights, bias=bias,
                                 train_config=CorrTrainConfig(lr, epochs, seed))
        path = tmp_path_factory.mktemp("corr") / "corr.bin"
        model.save(path)
        loaded = CorrelationModel.load(path, embedding)
        assert loaded.weights.tobytes() == weights.tobytes()
        assert loaded.bias == bias and loaded.train_config == model.train_config


class TestCrlfParity:
    """A CRLF file loads the same as its LF twin."""

    @staticmethod
    def twins(tmp_path, write):
        lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
        write(lf)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        return lf, crlf

    def test_mapping(self, tmp_path):
        lf, crlf = self.twins(tmp_path, lambda path: save_mapping(
            numbered_mapping({"Apache Struts": 2, "Foo Bar": 1}), path))
        assert load_mapping(crlf).name_to_cves == load_mapping(lf).name_to_cves

    def test_store(self, tmp_path):
        lf, crlf = self.twins(tmp_path, BackgroundStore(
            articles={"alpha": "first body ", "beta": "", "gamma": "x\u2028y"}).save)
        assert BackgroundStore.from_file(crlf).articles == BackgroundStore.from_file(lf).articles

