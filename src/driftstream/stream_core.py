"""Data model for chronological feature streams, the CSV stream source and
the package's two error types.

A stream is a sequence of rows in strict chronological order, one row per
index, held as columns in a ``Table``: the stream indices and the labels
(int64 arrays, ``UNLABELED`` marking an unlabeled row) and one column per
feature, a ``DictColumn`` of category codes or a float64 array of values.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import math
import operator
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

CATEGORICAL = "categorical"
NUMERIC = "numeric"

#: Reserved token substituted for an empty categorical cell. Absence of a
#: categorical value is treated as an ordinary category, never as an error.
MISSING_TOKEN = "__MISSING__"

#: The label of an unlabeled row: the least int64, which ``open_csv_stream``
#: refuses as the class id of a label cell, so no parsed label takes it.
UNLABELED = np.iinfo(np.int64).min


class ConfigError(ValueError):
    """A setting that is invalid or that the data cannot support (exit 2)."""


class DataError(ValueError):
    """Input the engine cannot read or learn from (exit 3)."""


class SchemaError(DataError):
    """The input does not match the declared feature schema."""


class StreamParseError(DataError):
    """A cell could not be parsed; carries the offending 1-based row number."""

    def __init__(self, message: str, row: int):
        super().__init__(message, row)
        self.row = row

    def __str__(self) -> str:
        return f"row {self.row}: {self.args[0]}"


class EncodingError(DataError):
    """A byte of a CSV file that is not UTF-8, named by its 1-based file
    ``line`` (a quoted cell that spans lines counts each of them)."""

    def __init__(self, path, line: int, byte: int):
        super().__init__(path, line, byte)
        self.line = line

    def __str__(self) -> str:
        return "{} line {}: byte 0x{:02x} is not UTF-8".format(*self.args)


def encoding_error(path) -> Optional[EncodingError]:
    """The error of the first byte of file ``path`` that is not UTF-8, if
    any. A line feed is part of no UTF-8 sequence, so lines decode alone."""
    with open(path, "rb") as fh:
        for line, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as e:
                return EncodingError(path, line, raw[e.start])
    return None


class RowError(DataError):
    """A stream row the engine cannot use, named by its stream index and by
    the file row (1-based, the header being row 1) that ``open_csv_stream``
    reads it from."""

    def __init__(self, message: str, index: int):
        super().__init__(message, index)
        self.index = index
        self.row = index + 2

    def __str__(self) -> str:
        return f"stream index {self.index} (CSV row {self.row}): {self.args[0]}"


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature declaration for a stream.

    ``features`` is an ordered sequence of ``(name, kind)`` pairs with kind
    in {"categorical", "numeric"}. ``label_column`` names the target column;
    an empty string means the stream carries no labels at all.
    """

    features: tuple[tuple[str, str], ...]
    label_column: str = ""

    def __post_init__(self):
        object.__setattr__(self, "features", tuple((str(n), str(k)) for n, k in self.features))
        names = [n for n, _ in self.features]
        if len(set(names)) != len(names):
            raise SchemaError("feature names must be unique")
        if any(not n for n in names):
            raise SchemaError("feature names must be non-empty")
        for n, k in self.features:
            if k not in (CATEGORICAL, NUMERIC):
                raise SchemaError(f"unknown feature kind {k!r} for {n!r}")
        if self.label_column and self.label_column in names:
            raise SchemaError("label column must not be a predictive feature")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.features)

    @property
    def categorical_names(self) -> tuple[str, ...]:
        return tuple(n for n, k in self.features if k == CATEGORICAL)

    @property
    def numeric_names(self) -> tuple[str, ...]:
        return tuple(n for n, k in self.features if k == NUMERIC)


#: Rows per table that ``open_csv_stream`` yields.
CHUNK_ROWS = 4096


class DictColumn:
    """A categorical column, dictionary-coded: row i holds the token
    ``vocab[codes[i]]`` of ``vocab``, a tuple of distinct ``str`` tokens,
    ``codes`` being an int64 array. Indexing with a slice or an index array
    gives those rows, sharing the vocabulary; two columns are equal when
    their rows hold the same tokens."""

    __slots__ = ("codes", "vocab")

    def __init__(self, codes: np.ndarray, vocab: tuple[str, ...]):
        self.codes = codes
        self.vocab = vocab

    @classmethod
    def from_tokens(cls, tokens: Sequence[str]) -> "DictColumn":
        """The column of ``tokens``, its vocabulary in order of first appearance."""
        code = {t: i for i, t in enumerate(dict.fromkeys(tokens))}
        return cls(np.fromiter(map(code.__getitem__, tokens), np.int64, len(tokens)), tuple(code))

    def __getitem__(self, rows) -> "DictColumn":
        return DictColumn(self.codes[rows], self.vocab)

    def tokens(self) -> list[str]:
        """The token of each row."""
        return list(map(self.vocab.__getitem__, self.codes.tolist()))

    def __eq__(self, other) -> bool:
        return isinstance(other, DictColumn) and self.tokens() == other.tokens()


class Table:
    """Rows of a stream as columns, in stream order: ``index``, an int64
    array of stream indices; ``label``, an int64 array of class ids with
    ``UNLABELED`` for an unlabeled row; and ``columns``, one column per feature
    name, a ``DictColumn`` for a categorical feature and a float64 array of
    values for a numeric one.

    Indexing with a slice gives the rows it selects, and with an integer
    the one-row table of that row; either shares the vocabularies of this
    table. Iterating gives the one-row tables in turn.
    """

    __slots__ = ("index", "label", "columns")

    def __init__(
        self,
        index: np.ndarray,
        label: np.ndarray,
        columns: dict[str, Union[DictColumn, np.ndarray]],
    ):
        self.index = index
        self.label = label
        self.columns = columns

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, rows: Union[slice, int]) -> "Table":
        if not isinstance(rows, slice):
            i = range(len(self.index))[rows]  # IndexError past either end
            rows = slice(i, i + 1)
        return Table(
            self.index[rows], self.label[rows], {n: c[rows] for n, c in self.columns.items()}
        )

    def __iter__(self) -> Iterator["Table"]:
        return (self[i] for i in range(len(self.index)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return (
            np.array_equal(self.index, other.index)
            and np.array_equal(self.label, other.label)
            and self.columns.keys() == other.columns.keys()
            and all(
                c == other.columns[n] if isinstance(c, DictColumn) else
                np.array_equal(c, other.columns[n]) for n, c in self.columns.items()
            )
        )

    def labeled(self) -> "Table":
        """The rows that carry a label (this table if all do)."""
        keep = np.flatnonzero(self.label != UNLABELED)
        if len(keep) == len(self):
            return self
        columns = {n: c[keep] for n, c in self.columns.items()}
        return Table(self.index[keep], self.label[keep], columns)

    @classmethod
    def concat(cls, schema: FeatureSchema, tables: Iterable["Table"]) -> "Table":
        """One table of the rows of ``tables`` in turn, with the columns of
        ``schema``'s features. A categorical column's vocabulary is the
        tables' vocabularies merged in turn, each token at its first place."""
        tables = list(tables)
        columns: dict[str, Union[DictColumn, np.ndarray]] = {}
        for name, kind in schema.features:
            parts = [t.columns[name] for t in tables]
            if kind == NUMERIC:
                columns[name] = np.concatenate([np.empty(0), *parts])
            else:
                merged = DictColumn.from_tokens([t for c in parts for t in c.vocab])
                starts = accumulate((len(c.vocab) for c in parts), initial=0)
                codes = [merged.codes[s:][c.codes] for c, s in zip(parts, starts)]
                columns[name] = DictColumn(np.concatenate([np.empty(0, np.int64), *codes]), merged.vocab)
        return cls(
            np.concatenate([np.empty(0, np.int64), *(t.index for t in tables)]),
            np.concatenate([np.empty(0, np.int64), *(t.label for t in tables)]),
            columns,
        )


# rows after the header that ``infer_schema`` samples
_SNIFF_ROWS = 200


def infer_schema(path, label: str, exclude: Sequence[str]) -> FeatureSchema:
    """The schema of CSV file ``path``: its header columns but ``label`` and
    ``exclude``, each numeric when every non-empty token of its first
    ``_SNIFF_ROWS`` rows reads as ``float`` reads it, else categorical. An
    empty file or a header without ``label`` or an ``exclude`` column raises
    ``DataError``, and a byte that is not UTF-8 ``EncodingError`` naming its
    file line."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            sample = list(islice(reader, _SNIFF_ROWS))
    except UnicodeDecodeError as e:
        raise encoding_error(path) or e from None
    if header is None:
        raise DataError(f"{path} is empty")
    if label not in header:
        raise DataError(f"{path} lacks the label column {label!r}")
    for name in exclude:
        if name not in header:
            raise DataError(f"{path} lacks the excluded column {name!r}")
    feats = []
    for i, name in enumerate(header):
        if name == label or name in exclude:
            continue
        tokens = [row[i] for row in sample if i < len(row) and row[i] != ""]
        kind = NUMERIC if tokens else CATEGORICAL
        try:
            np.array(tokens, dtype=np.float64)  # float() of each str, as _table reads it
        except ValueError:
            kind = CATEGORICAL
        feats.append((name, kind))
    return FeatureSchema(tuple(feats), label_column=label)


def class_ids(tokens: Sequence[str]) -> np.ndarray:
    """The default label map: each token's class id as ``int`` reads it."""
    return np.fromiter(map(int, tokens), np.int64, len(tokens))


def open_csv_stream(
    path,
    schema: FeatureSchema,
    label_map: Callable[[Sequence[str]], np.ndarray] = class_ids,
) -> Iterator[Table]:
    """Yield the stream of a CSV file as tables of at most ``CHUNK_ROWS``
    rows, in file order, indices starting at 0.

    The header row must contain every schema column (extra columns are
    ignored); an empty file or a header alone is an empty stream. A row
    shorter than the header reads its missing cells as empty. ``_table``
    makes each chunk's cells its table: categorical columns are coded once,
    empty cells as ``MISSING_TOKEN``; a numeric cell reads as ``float``
    reads it, and an empty or non-finite one is bad; an empty label cell
    leaves its row unlabeled, and the column map ``label_map`` returns the
    int64 class ids of a chunk's distinct non-empty label tokens, or raises
    ``ValueError`` or ``OverflowError``; a label cell is bad if the map
    refuses its token alone or maps it to ``UNLABELED``. ``StreamParseError``
    names the first bad cell in row order (the features in schema order,
    then the label), and ``EncodingError`` the file line of a byte not UTF-8.

    The file is read as bytes, ``CHUNK_ROWS`` lines at a time, and
    ``_scan_chunk`` splits a chunk of plain lines at its delimiters.
    ``csv.reader`` reads the rest of the file from the first chunk that
    it refuses (one holding a quote, say, as a quoted cell may span
    lines), or from where ``_CHUNK_BYTES`` bytes hold fewer lines than a
    chunk; it reads the whole file if the header line is not plain or not
    ended within ``_BLOCK`` bytes.
    """
    try:
        yield from _read_csv(path, schema, label_map)
    except UnicodeDecodeError as e:
        raise encoding_error(path) or e from None


def _read_csv(path, schema, label_map) -> Iterator[Table]:
    with open(path, "rb") as fh:
        first = fh.readline(_BLOCK)
        head = first.removesuffix(b"\n").removesuffix(b"\r")
        index = offset = 0  # the first stream index and byte that csv.reader reads
        if first.endswith(b"\n") and head and b'"' not in head and b"\r" not in head:
            header = head.decode("utf-8").split(",")
            col = _header_columns(header, path, schema)
            offset = len(first)
            for chunk in _line_chunks(fh):
                if chunk is None or (
                    table := _scan_chunk(chunk, index, len(header), col, schema, label_map)
                ) is None:
                    break
                yield table
                index += len(table)
                offset += len(chunk)
            else:
                return
            del chunk  # the loop left, no bytes read ahead are held
        fh.seek(offset)
        records = csv.reader(io.TextIOWrapper(fh, "utf-8", newline=""))
        if offset == 0:
            if (header := next(records, None)) is None:
                return  # empty file: empty stream
            col = _header_columns(header, path, schema)
        yield from _record_tables(records, index, col, schema, label_map)


def _header_columns(header, path, schema) -> dict[str, int]:
    """The place in ``header`` of each column that ``schema`` uses by name
    (the last of a repeated name), its features in turn, then its label."""
    col = {name: i for i, name in enumerate(header)}
    for name in schema.names:
        if name not in col:
            raise SchemaError(f"missing column {name!r} in {path}")
    if schema.label_column and schema.label_column not in col:
        raise SchemaError(f"missing label column {schema.label_column!r} in {path}")
    return {name: col[name] for name in (*schema.names, schema.label_column) if name}


def _record_tables(records, index, col, schema, label_map) -> Iterator[Table]:
    """The tables of ``csv.reader`` ``records``, the first at stream index
    ``index``, each record kept as it is read as the tuple of the cells that
    ``schema`` uses (a short record read as padded with empty cells). If
    reading raises ``UnicodeDecodeError``, a bad cell among the records read
    before it is raised in its place, as on the byte path."""
    used = list(col.values())
    pad = [""] * (max(used, default=-1) + 1)
    pick = operator.itemgetter(*used) if len(used) > 1 else lambda r: tuple(r[i] for i in used)
    numeric = set(schema.numeric_names)
    cells = map(pick, map(operator.add, records, repeat(pad)))

    def table(rows) -> Table:
        tokens = zip(col, zip(*rows))  # each used column's name and tokens
        columns = {name: t if name in numeric else DictColumn.from_tokens(t) for name, t in tokens}
        return _table(index, len(rows), schema, label_map, columns)

    while True:
        rows = []
        try:
            rows.extend(islice(cells, CHUNK_ROWS))  # keeps the records read before an error
        except UnicodeDecodeError:
            if rows:
                table(rows)
            raise
        if not rows:
            return
        yield table(rows)
        index += len(rows)


def _table(index, n, schema, label_map, cells) -> Table:
    """The table of ``n`` rows, the first at stream index ``index``, from
    ``cells``, each used column by name: a ``DictColumn`` of categorical or
    label tokens, or a numeric feature's ``str`` tokens. ``StreamParseError``
    names the first bad cell in row order, at file row ``index + 2`` on."""
    columns: dict[str, Union[DictColumn, np.ndarray]] = {}
    faults = []  # the row and the message of each bad column's first bad cell
    for name, kind in schema.features:
        if kind == CATEGORICAL:
            columns[name] = _missing_coded(cells[name])
            continue
        with contextlib.suppress(ValueError):  # a bad cell, found below
            columns[name] = np.array(cells[name], dtype=np.float64)  # float() of each str
        if name not in columns or not np.isfinite(columns[name]).all():
            row, why = next((i, w) for i, t in enumerate(cells[name]) if (w := _numeric_fault(t)))
            faults.append((row, f"{why} in column {name!r}"))
    # a stream without labels reads as if its label cells were all empty
    coded = cells.get(schema.label_column, DictColumn(np.zeros(n, np.int64), ("",)))
    k = coded.vocab.index("") if "" in coded.vocab else len(coded.vocab)  # the empty token's code
    tokens = coded.vocab[:k] + coded.vocab[k + 1 :]
    try:
        ids = label_map(tokens)
    except (ValueError, OverflowError):
        ids = [_label_id(label_map, t) for t in tokens]
    ids = np.insert(np.asarray(ids, np.int64), k, UNLABELED)  # the empty token's
    if (refused := ids == UNLABELED).sum() > 1:  # more than at k
        refused[k] = False
        row = int(np.argmax(refused[coded.codes]))
        faults.append((row, f"bad label {coded.vocab[coded.codes[row]]!r} "
                            f"in column {schema.label_column!r}"))
    if faults:
        row, message = min(faults, key=operator.itemgetter(0))  # the first of a row's faults
        raise StreamParseError(message, index + 2 + row)
    return Table(np.arange(index, index + n, dtype=np.int64), ids[coded.codes], columns)


def _numeric_fault(token: str) -> Optional[str]:
    """Why a numeric cell of ``token`` is bad, or ``None`` if it is good."""
    try:
        return None if math.isfinite(float(token)) else f"non-finite value {token!r}"
    except ValueError:
        return f"non-numeric value {token!r}" if token else "empty numeric cell"


def _label_id(label_map, token: str) -> int:
    """The id of ``token`` alone, or ``UNLABELED`` if ``label_map`` refuses it."""
    try:
        return int(label_map([token])[0])
    except (ValueError, OverflowError):
        return UNLABELED


# bytes that _line_chunks reads at a time
_BLOCK = 1 << 20
# the most bytes that _line_chunks gathers towards a chunk
_CHUNK_BYTES = 4 * _BLOCK
# the widest feature or label cell, in bytes, that _scan_chunk reads
_WIDE = 256
# at k, a little-endian uint64 of k bytes of ones and then 8 - k of zeros
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
# the bytes that end a cell, each translated to a comma
_COMMAS = bytes.maketrans(b"\r\n", b",,")


def _line_chunks(fh) -> Iterator[Optional[bytes]]:
    """The rest of binary file ``fh`` in chunks of ``CHUNK_ROWS`` lines (the
    last of fewer), a line ending at a line feed or at the end of the file;
    ``None``, and no more, once over ``_CHUNK_BYTES`` bytes are read
    without completing a chunk."""
    parts, lines, size = [], 0, 0  # the bytes read since the last chunk, their lines and length
    while block := fh.read(_BLOCK):
        lf = np.flatnonzero(np.frombuffer(block, np.uint8) == ord("\n"))
        lo = 0
        for hi in (lf[CHUNK_ROWS - lines - 1 :: CHUNK_ROWS] + 1).tolist():
            yield b"".join((*parts, block[lo:hi]))
            parts, lo, size = [], hi, 0
        parts.append(block[lo:])
        lines = (lines + len(lf)) % CHUNK_ROWS
        size += len(block) - lo
        if size > _CHUNK_BYTES:
            yield None
            return
    if rest := b"".join(parts):
        yield rest


def _scan_chunk(chunk: bytes, index: int, n_fields: int, col, schema, label_map) -> Optional[Table]:
    """The table of ``chunk``'s lines by ``_table``, the first at stream
    index ``index``, split at the positions of their delimiters; ``None``
    unless each line holds ``n_fields`` fields of ASCII other than NUL and
    the quote, ends in LF or CRLF (a CR stands only before an LF) and has no
    used cell wider than ``_WIDE`` bytes, so that ``csv.reader`` splits it
    alike."""
    if not chunk.isascii() or b"\0" in chunk or b'"' in chunk:
        return None
    if not chunk.endswith(b"\n"):
        chunk += b"\n"  # the last line of the file
    a = np.frombuffer(chunk + bytes(_WIDE + 8), np.uint8)  # NULs after, for _cell_matrix
    ends = np.flatnonzero((a == ord(",")) | (a == ord("\n")))  # of every field
    n = len(ends) // n_fields
    lf = a[ends] == ord("\n")
    if len(ends) != n * n_fields or np.count_nonzero(lf) != n:
        return None  # a line of another field count
    if not lf[n_fields - 1 :: n_fields].all():
        return None
    ends = ends.reshape(n, n_fields)
    starts = np.concatenate(([0], ends.ravel()[:-1] + 1)).reshape(n, n_fields)
    crlf = a[ends[:, -1] - 1] == ord("\r")
    if np.count_nonzero(crlf) != chunk.count(b"\r"):
        return None  # a CR but before an LF
    ends[:, -1] -= crlf
    width = ends - starts
    if width.max() > csv.field_size_limit() or width[:, list(col.values())].max(initial=0) > _WIDE:
        return None
    cells = {}
    for name, j in col.items():  # a numeric cell with the byte after it, which ends it
        numeric = name in schema.numeric_names
        matrix = _cell_matrix(a, starts[:, j], ends[:, j] + numeric)
        cells[name] = _tokens(matrix) if numeric else _dict_column(matrix)
    return _table(index, n, schema, label_map, cells)


def _cell_matrix(a: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The cells ``a[starts[i]:ends[i]]``, at most ``_WIDE + 1`` bytes each,
    as the rows of a byte matrix of 8 or a multiple of 8 columns, each followed
    by NUL pads (``a`` ends in ``_WIDE + 8`` NULs). The matrix is gathered
    8 bytes at a time, from a view of ``a`` with a uint64 at every offset."""
    width = ends - starts
    words = np.ndarray((len(a) - 7,), "<u8", a, 0, (1,))
    cells = np.empty((len(starts), max(-(-int(width.max(initial=0)) // 8), 1)), "<u8")
    for j in range(cells.shape[1]):
        np.bitwise_and(words[starts + 8 * j], _LOW_BYTES[np.clip(width - 8 * j, 0, 8)],
                       out=cells[:, j])
    return cells.view(np.uint8)


def _dict_column(cells: np.ndarray) -> DictColumn:
    """The column of the tokens of ``_cell_matrix`` rows, its vocabulary in
    order of first appearance."""
    n, w = cells.shape
    if w == 8:  # each cell as one unsigned int, the narrower the faster to sort
        keys = cells.view("<u8").ravel()
        keys = keys.astype(np.min_scalar_type(keys.max(initial=0)))
    else:
        keys = cells.view(f"S{w}").ravel()
    _, first, codes = np.unique(keys, return_index=True, return_inverse=True)
    order = first.argsort()
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    vocab = cells[first[order]]
    vocab = np.hstack((vocab, np.full((len(vocab), 1), ord(","), np.uint8)))  # each ended by a comma
    return DictColumn(rank[codes.ravel()], tuple(_tokens(vocab)))


def _tokens(cells: np.ndarray) -> list[str]:
    """The ``str`` tokens, as ``csv.reader`` reads them, of ``_cell_matrix``
    rows that each hold the byte that ends the cell (a comma, CR or LF)."""
    return cells.tobytes().translate(_COMMAS, b"\0").decode("ascii").split(",")[:-1]


def _missing_coded(column: DictColumn) -> DictColumn:
    """``column`` with its empty token read as ``MISSING_TOKEN``."""
    if "" not in column.vocab:
        return column
    vocab = DictColumn.from_tokens([t or MISSING_TOKEN for t in column.vocab])
    return DictColumn(vocab.codes[column.codes], vocab.vocab)


# -- CSV writer -----------------------------------------------------------

# a field: a matrix row per column row, its UTF-8 text after pads (a byte UTF-8 never holds)
_PAD = 0xFF
_PADS = bytes([_PAD])
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
_CSV_LINE = csv.writer(SimpleNamespace(write=str))  # its writerow returns the line


def write_columns(path, header: Sequence[str], columns: Sequence) -> None:
    """Write ``columns`` under ``header`` as a CSV file in the bytes of
    ``csv.writer``'s default dialect, assembled by numpy ``CHUNK_ROWS`` rows at
    a time. A column (two or more, as csv.writer quotes a lone empty field) is
    an integer array, a float64 array (each value written as its ``repr``), a
    sequence of ``str`` or a pair ``(codes, texts)``."""
    # each column's rows, and the function from a chunk of them to its field
    columns = [(c[0], _text_field(c[1]).__getitem__) if isinstance(c, tuple) else
               (c, _array_field(c.dtype) if isinstance(c, np.ndarray) else _text_field)
               for c in columns]
    if len(header) < 2 or len(header) != len(columns) or len({len(c) for c, _ in columns}) > 1:
        raise ValueError("write_columns needs two or more columns of one length, a name each")
    with open(path, "wb") as fh:
        fh.write(_CSV_LINE.writerow(header).encode("utf-8"))
        for lo in range(0, len(columns[0][0]), CHUNK_ROWS):
            fields = [field(c[lo : lo + CHUNK_ROWS]) for c, field in columns]
            # each row's fields joined by commas and ended by CRLF, less the pads
            comma = np.full((len(fields[0]), 1), ord(","), np.uint8)
            parts = [*chain.from_iterable((field, comma) for field in fields), comma]
            lines = np.concatenate(parts, axis=1)
            lines[:, -2:] = np.frombuffer(b"\r\n", np.uint8)  # in place of the last two commas
            fh.write(lines.tobytes().translate(None, _PADS))


def _int_field(values: np.ndarray) -> np.ndarray:
    """The decimal text of integers, by digit extraction."""
    neg = values < 0
    u = values.astype(np.uint64)
    u[neg] = -u[neg]  # modulo 2**64: the magnitude, also of the most negative int64
    w = len(str(u.max(initial=0))) + int(neg.any())  # and a column for the signs
    lead = u[:, None] < _POW10[w - 1 : 0 : -1]  # the zeros before the first digit
    text = np.empty((len(u), w), np.uint8)
    for k in range(w - 1, -1, -1):
        q = u // 10
        text[:, k], u = u - q * 10, q
    text += 48
    text[:, :-1][lead] = _PAD
    text[neg, lead[neg].sum(axis=1) - 1] = ord("-")
    return text


def _text_field(tokens: Sequence[str]) -> np.ndarray:
    """The text of str tokens, joined once; csv.writer writes each distinct
    token if the text holds a character that it quotes for."""
    text = "".join(tokens)
    if any(c in text for c in ',"\r\n'):
        quoted = {t: _CSV_LINE.writerow((t, ""))[:-3] for t in set(tokens)}  # less ",\r\n"
        tokens = [quoted[t] for t in tokens]
        text = "".join(tokens)
    raw = np.frombuffer(text.encode("utf-8"), np.uint8)
    length = np.fromiter(map(len, tokens), np.int64, len(tokens))
    if not text.isascii():  # byte counts: each character starts at a byte not 0b10xxxxxx
        first = np.append(np.flatnonzero((raw & 0xC0) != 0x80), len(raw))
        length = np.diff(first[np.cumsum(length)], prepend=0)
    w = int(length.max(initial=0))
    field = np.full((len(length), w), _PAD, np.uint8)
    field[np.arange(w) >= w - length[:, None]] = raw
    return field


def _array_field(dtype: np.dtype) -> Callable[[np.ndarray], np.ndarray]:
    """The field function of an array column of ``dtype``."""
    if dtype.kind in "iu":
        return _int_field
    if dtype == np.float64:
        return _float_field
    raise ValueError(f"write_columns cannot write an array of {dtype}")


# -- float64 values as their repr -----------------------------------------
#
# repr writes the shortest decimal that reads back as the value, the nearest
# such if there are several (Steele & White, PLDI 1990). _float_field finds
# it for a whole column at once. Each value x is scaled to N = x * 10**(16-e),
# e the decimal exponent of its first digit, so that N lies in [1e16, 1e17);
# N is a double-double, Dekker's exact product of x and a double-double 10**k
# (a fixed-width product, as in Ryu, Adams, PLDI 2018, not a bignum). In N's
# units x's rounding interval is (N - below, N + above), below being half of
# above at a power of two. The 15-, 16- and 17-digit decimals either side of
# N are the multiples of d = 100, 10 and 1 just below and just above it; the
# shortest length with one strictly inside the interval wins, and of two
# there the nearer. A decision within _MARGIN of a tie or of an interval
# edge, and a value outside _FLOAT_RANGE (NaN, the infinities and the zeros
# too), go to repr itself.

_FLOAT_RANGE = (1e-280, 1e280)  # where no partial product over- or underflows
_E_MAX = 282  # beyond the decimal exponents of that range, log10's miss included
_MARGIN = 1e-6  # in N's units; N and the interval's edges err by less than 1e-13
_SPLIT = 2.0**27 + 1  # Veltkamp's splitter: a double as the sum of two 26-bit halves


@functools.cache
def _float_tables() -> SimpleNamespace:
    """The tables of _float_field, built on its first use, the powers of ten
    with integer arithmetic (Python's int-to-float conversion and int / int
    division round correctly):

    - ``hi``, ``lo``, ``hh``, ``hl``: 10**(16 - e) = hi + lo at e + _E_MAX
      for e from -_E_MAX to _E_MAX, hi and lo each the double nearest to what
      it stands for, and hi's two halves;
    - ``quads``: the digits of 0 to 9999, one in each 16-bit lane of a
      little-endian uint64, and ``zeros``, their trailing zeros (4 for 0);
    - ``body``: at 17 * s + p, what to OR onto a body of 17 digits of which
      s are written and p come before the point (0 for none): pads over the
      digits after the s-th and over each point slot but the p-th, a point;
    - ``head``: at 5 * negative + z, the sign and, for z > 0, the "0."
      and z - 1 zeros before a first digit of exponent -z;
    - ``tail``: what follows the last digit: at 0 nothing, at 1 the "0" of
      ".0", and at 2 + e + _E_MAX the exponent e as repr writes it;
    - ``exponent``: at e + _E_MAX, how repr lays out a value of exponent e:
      the digits before its point if it writes e >= 0 positionally (else 0),
      the z of its head and the tail after its digits (0 if positional).
    """
    hi, lo = [], []
    for e in range(-_E_MAX, _E_MAX + 1):
        if e <= 16:
            hi.append(float(10 ** (16 - e)))
            lo.append(float(10 ** (16 - e) - int(hi[-1])))
        else:
            d = 10 ** (e - 16)
            hi.append(1 / d)
            a, b = hi[-1].as_integer_ratio()
            lo.append((b - a * d) / (b * d))  # 1 / d - a / b
    hi = np.array(hi)
    hh, hl = _halves(hi)
    quads = [b"%04d" % i for i in range(10**4)]
    j = np.arange(17)
    s, p = np.arange(18)[:, None, None], np.arange(17)[:, None]
    body = np.where(j >= s, _PAD, 0) | np.where(j == p - 1, ord("."), _PAD) << 8
    e = np.arange(-_E_MAX, _E_MAX + 1)
    positional = (e >= -4) & (e < 16)
    exponent = np.stack((
        np.where(positional & (e >= 0), e + 1, 0),
        np.where(positional & (e < 0), -e, 0),
        np.where(positional, 0, 2 + e + _E_MAX),
    ), axis=1)
    return SimpleNamespace(
        hi=hi, lo=np.array(lo), hh=hh, hl=hl,
        quads=np.frombuffer(b"".join(quads), np.uint8).astype("<u2").view("<u8"),
        zeros=np.array([4 - len(q.rstrip(b"0")) for q in quads]),
        body=body.astype("<u2").reshape(-1, 17),
        head=_slot_rows([s + z for s in ("", "-") for z in ("", "0.", "0.0", "0.00", "0.000")], 6),
        tail=_slot_rows(["", "0", *(f"e{k:+03d}" for k in e)], 5),
        exponent=exponent,
    )


def _slot_rows(texts: Sequence[str], width: int) -> np.ndarray:
    """A matrix row per text, its bytes after pads."""
    raw = b"".join(t.encode("ascii").rjust(width, _PADS) for t in texts)
    return np.frombuffer(raw, np.uint8).reshape(len(texts), width)


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a`` as the sum of two doubles of at most 26 significant bits each."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _scaled(x: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """N = x * 10**(16 - e) as ``p + t``, ``p`` the double nearest to N."""
    tables, i = _float_tables(), e + _E_MAX
    hi, lo, hh, hl = (np.take(a, i) for a in (tables.hi, tables.lo, tables.hh, tables.hl))
    xh, xl = _halves(x)
    p = x * hi
    # x * hi - p exactly, by Dekker's product of the halves, and then x * lo
    return p, ((xh * hh - p) + xh * hl + xl * hh) + xl * hl + x * lo


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For positive ``x`` in _FLOAT_RANGE: the 17-digit integers ``c`` and
    exponents ``e`` with c * 10**(e - 16) the decimal repr writes, and
    whether each was decided."""
    e = np.floor(np.log10(x)).astype(np.int64)
    p, t = _scaled(x, e)
    fix = np.flatnonzero((p >= 1e17) | (p <= 1e16))
    if len(fix):  # log10 can miss by one next to a power of ten: move N into [1e16, 1e17)
        p_, t_ = p[fix], t[fix]
        up = (p_ > 1e17) | ((p_ == 1e17) & (t_ >= 0))
        e[fix] += np.where(up, 1, 0) - ((p_ < 1e16) | ((p_ == 1e16) & (t_ < 0)))
        p[fix], t[fix] = _scaled(x[fix], e[fix])
    whole = np.floor(t)
    n = p.astype(np.int64) + whole.astype(np.int64)  # floor(N), as p >= 1e16 is whole
    frac = t - whole
    m = np.frexp(x)[0]
    above = p * (2.0**-54 / m)  # half an ulp of x
    below = np.where(m == 0.5, above / 2, above)  # half the gap below a power of two
    # a row per length, 15, 16 and 17 digits: floor(N / d) * d lies r below N
    # and the next multiple of d lies d - r above it
    floor = np.stack((n // 100 * 100, n // 10 * 10, n))
    r = (n - floor) + frac
    d = np.array([[100], [10], [1]])
    lo, hi = r < below, r > d - above
    c = floor + (hi & ~(lo & (2 * r < d))) * d  # the nearer if both are inside
    inside = lo | hi
    c = np.where(inside[0], c[0], np.where(inside[1], c[1], c[2]))  # the shortest
    near = (np.abs(r - below) < _MARGIN) | (np.abs(r - (d - above)) < _MARGIN)
    near |= np.abs(2 * r - d) < _MARGIN
    ok = inside[2] & ~near.any(axis=0) & (n >= 10**16) & (n < 10**17)
    carry = c == 10**17  # floor + 1 was 10**(e + 1)
    c[carry] = 10**16
    e[carry] += 1
    return c, e, ok


def _float_field(values: np.ndarray) -> np.ndarray:
    """The ``repr`` text of float64 values, each decided by _shortest and
    laid out as repr lays it out, or else written by ``repr`` itself."""
    x = np.abs(values)
    easy = np.flatnonzero((x >= _FLOAT_RANGE[0]) & (x <= _FLOAT_RANGE[1]))
    c, e, ok = _shortest(x[easy])
    rows = easy[ok]
    field = _layout(c[ok], e[ok], values[rows] < 0)
    if len(rows) == len(values):
        return field
    hard = np.ones(len(values), bool)
    hard[rows] = False
    text = _text_field(list(map(repr, values[hard].tolist())))
    full = np.full((len(values), field.shape[1]), _PAD, np.uint8)
    full[rows] = field
    full[hard, : text.shape[1]] = text
    return full


def _layout(c: np.ndarray, e: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """The field of -c * 10**(e - 16) where ``neg``, else of c * 10**(e - 16),
    ``c`` having 17 digits: positional for -4 <= e < 16, with ".0" after an
    integral value, else d.ddde+XX with at least two exponent digits. A
    field is 6 slots of head, 34 of body (a digit's slot and a point's slot
    in turn, 17 times) and 5 of tail."""
    tables = _float_tables()
    top = c // 10**8
    low = c - top * 10**8
    first = top // 10**8
    top -= first * 10**8
    quads = np.empty((len(c), 4), np.int64)  # the digits after the first, four by four
    quads[:, 0], quads[:, 2] = top // 10**4, low // 10**4
    quads[:, 1], quads[:, 3] = top - quads[:, 0] * 10**4, low - quads[:, 2] * 10**4
    body = np.empty((len(c), 17), "<u2")
    body[:, 0] = first + ord("0")
    body[:, 1:] = np.take(tables.quads, quads).view("<u2")
    z = np.take(tables.zeros, quads)
    z = z[:, 3] + (z[:, 3] == 4) * (z[:, 2] + (z[:, 2] == 4) * (z[:, 1] + (z[:, 1] == 4) * z[:, 0]))
    n = 17 - z  # significant digits
    before, zeros, tail = np.take(tables.exponent, e + _E_MAX, axis=0).T
    point = before + ((tail > 1) & (n > 1))
    body |= np.take(tables.body, 17 * np.maximum(n, before) + point, axis=0)
    return np.concatenate((
        np.take(tables.head, 5 * neg + zeros, axis=0),
        body.view(np.uint8),
        np.take(tables.tail, tail + (n <= before), axis=0),
    ), axis=1)
