"""The one reader of the line-based text files, and the one of the ``.npy``
arrays, that the pipeline loads.

Every text file is UTF-8. A line ends at "\\n", and one "\\r" just before it
is dropped, so LF and CRLF files read the same; a lone "\\r" is part of its
line. A byte that is not UTF-8, and a line without the expected number of
tab-separated fields, is a ``FormatError`` naming the file and the line.

Every array file holds one 1-D array of a known dtype, stored without
pickling. A file of either kind that cannot be opened, and an array file
that holds anything else, is a ``FormatError`` naming the file.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

import numpy as np

from .errors import FormatError


def read_lines(path, fields: Optional[int] = None,
               skip_blank: bool = True) -> Iterator[tuple[int, Any]]:
    """Yield ``(line number, line)`` for each line of the file at ``path``,
    numbered from 1, without its line end. With ``fields``, each line comes
    split at tabs into a list of exactly that many fields. Empty lines are
    skipped unless ``skip_blank`` is false.

    The file is read as a stream of blocks of whole lines: one decode per
    block costs less than one per line."""
    lineno = 0
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror}") from None
    with fh:
        while block := fh.read(1 << 16) + fh.readline():
            try:
                text = block.decode("utf-8")
            except UnicodeDecodeError as exc:
                bad = lineno + block.count(b"\n", 0, exc.start) + 1
                raise FormatError(f"{path}:{bad}: not UTF-8: {exc.reason}") from None
            for line in text.replace("\r\n", "\n").removesuffix("\n").split("\n"):
                lineno += 1
                if skip_blank and not line:
                    continue
                if fields is None:
                    yield lineno, line
                    continue
                parts = line.split("\t")
                if len(parts) != fields:
                    raise FormatError(f"{path}:{lineno}: expected {fields} tab-separated "
                                      f"fields, got {len(parts)}")
                yield lineno, parts


def read_array(path, dtype) -> np.ndarray:
    """The 1-D ``dtype`` array of the ``.npy`` file at ``path``."""
    try:
        with open(path, "rb") as fh:
            array = np.lib.format.read_array(fh, allow_pickle=False)
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror}") from None
    except (ValueError, EOFError) as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if array.dtype != dtype or array.ndim != 1:
        raise FormatError(f"{path}: {array.ndim}-D {array.dtype}, not 1-D {np.dtype(dtype)}")
    return array
