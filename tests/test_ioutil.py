"""The model-file container and the line-file writer, pinned byte for byte."""

import struct

import numpy as np
import pytest

from vulnaug.embed import EmbeddingModel, TrainConfig
from vulnaug.featcorr import CorrelationModel, CorrTrainConfig
from vulnaug.ioutil import atomic_write_lines

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
    ], ids=["bias", "no-bias", "config-key"])
    def test_damaged_correlation_header_raises_value_error_naming_it(self, tmp_path, header,
                                                                     needle):
        path = tmp_path / "damaged.bin"
        path.write_bytes(corr_file(header))
        with pytest.raises(ValueError) as info:
            CorrelationModel.load(path, unit_embedding())
        assert str(info.value).startswith(f"{path}: ") and needle in str(info.value)


class TestAtomicWriteLines:
    @pytest.mark.parametrize("lines,data", [
        ([], b""),
        ([""], b"\n"),
        (["a", "b c", "é"], "a\nb c\né\n".encode("utf-8")),
        ((f"{i}" for i in range(3)), b"0\n1\n2\n"),
    ], ids=["none", "one-empty", "list", "generator"])
    def test_each_line_ends_with_a_newline(self, tmp_path, lines, data):
        path = tmp_path / "sub" / "out.txt"
        atomic_write_lines(path, lines)
        assert path.read_bytes() == data
        assert [p.name for p in path.parent.iterdir()] == ["out.txt"]
