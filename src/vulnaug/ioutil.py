"""Small I/O helpers: atomic file writes used by every artifact producer, the
one writer and the one reader of line-oriented text files, and the one binary
container that both model files use."""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import struct
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Iterable, Iterator, Sequence

from .errors import FeedFormatError

if TYPE_CHECKING:
    import numpy as np


@contextlib.contextmanager
def _atomic_file(path: str | Path) -> Iterator[BinaryIO]:
    """A binary file to write in place of ``path``: a temp file in the target
    directory, renamed into place when the block ends, and removed when it
    raises instead."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    except OSError as exc:  # it names the temp file, which the caller never saw
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write bytes to a temp file in the target directory, then rename into place."""
    with _atomic_file(path) as fh:
        fh.write(data)


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write each line followed by a newline, as UTF-8, one line at a time;
    no lines make an empty file."""
    with _atomic_file(path) as fh:
        fh.writelines(f"{line}\n".encode("utf-8") for line in lines)


def read_lines(path: str | os.PathLike | None,
               data: bytes | str | BinaryIO | None = None) -> Iterator[tuple[int, str]]:
    r"""The (line number, text) of each non-blank line of the file at
    ``path``, or of ``data`` when it is given, numbering lines from 1.
    ``data`` is bytes, a str (read as its UTF-8 bytes) or a binary file, read
    once from its current position, so a pipe will do; ``path`` then only
    names it in errors.

    A line ends at "\n" alone: U+2028, U+2029, U+0085, "\x0b" and a lone "\r"
    stay in its text. One "\r" just before the "\n" is dropped, so a CRLF
    file reads as its LF twin. A line of whitespace alone is blank. A line
    whose bytes are not UTF-8 raises a FeedFormatError naming it, once the
    lines before it have been returned.

    The file is never held whole: each line is decoded as it is read. No
    multi-byte UTF-8 sequence holds the byte "\n", so a line fails to decode
    exactly where a decode of the whole file would, for the same reason.
    """
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    if isinstance(data, bytes):
        data = io.BytesIO(data)
    with open(path, "rb") if data is None else contextlib.nullcontext(data) as stream:
        for line_no, line in enumerate(stream, start=1):
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FeedFormatError(f"not UTF-8 text: {exc.reason}", line_no, path) from None
            if text.strip():
                yield line_no, text.removesuffix("\n").removesuffix("\r")


def write_model_file(path: str | Path, magic: bytes, header: dict, *blocks: bytes) -> None:
    """Write ``magic``, a little-endian u32 length for the JSON header and for
    every block but the last, the header with sorted keys, then the blocks."""
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    sized = (head, *blocks[:-1])
    prefix = struct.pack(f"<{len(sized)}I", *map(len, sized))
    atomic_write_bytes(path, b"".join((magic, prefix, head, *blocks)))


def read_model_file(
    path: str | Path, magic: bytes, *, leading: int, dtype: str, shape: Sequence[str],
    config: type,
) -> tuple[dict, list[str], np.ndarray]:
    """Read a file of :func:`write_model_file` with ``leading`` blocks before
    its last, which is an array of ``dtype`` shaped by the header's values at
    ``shape``.

    Returns the header, with its ``train_config`` object built into a
    ``config``, the leading blocks as UTF-8 text and a copy of the array. Any
    damage raises a ValueError that names ``path``: a foreign magic, a file
    shorter than its length prefix, a length running past its end, a header or
    leading block that is not UTF-8, a header that is not a JSON object, lacks
    a ``shape`` key or ``train_config``, or holds a ``train_config`` that
    ``config`` rejects, or a last block whose size disagrees with the header.
    """
    import numpy as np  # only the commands that load a model use arrays

    data = memoryview(Path(path).read_bytes())
    if data[: len(magic)] != magic:
        raise ValueError(f"{path}: not a model file (expected magic {magic!r})")
    off = len(magic) + 4 * (leading + 1)
    if len(data) < off:
        raise ValueError(f"{path}: {len(data)} bytes, shorter than its {off}-byte prefix")
    parts = []
    for size in struct.unpack_from(f"<{leading + 1}I", data, len(magic)):
        if off + size > len(data):
            raise ValueError(f"{path}: a {size}-byte block runs past the end of the file")
        parts.append(data[off : off + size])
        off += size
    try:
        header, *texts = (str(part, "utf-8") for part in parts)
        header = json.loads(header)
    except ValueError as exc:
        raise ValueError(f"{path}: not a valid model file: {exc}") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: the header is not a JSON object")
    missing = [key for key in (*shape, "train_config") if key not in header]
    if missing:
        raise ValueError(f"{path}: the header lacks {missing}")
    try:
        header["train_config"] = config(**header["train_config"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad train_config: {exc}") from None
    dims = tuple(header[key] for key in shape)
    if not all(type(d) is int and d >= 0 for d in dims):
        raise ValueError(f"{path}: header sizes {dims} are not counts")
    want = math.prod(dims) * np.dtype(dtype).itemsize
    if len(data) - off != want:
        raise ValueError(f"{path}: last block holds {len(data) - off} bytes,"
                         f" the header's {dims} needs {want}")
    array = np.frombuffer(data[off:], dtype=dtype).reshape(dims).copy()
    return header, texts, array
