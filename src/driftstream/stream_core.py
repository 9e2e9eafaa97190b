"""Data model for chronological feature streams and the CSV stream source.

A stream is a sequence of rows in strict chronological order, one row per
index, held as columns in a ``Table``: the stream indices and the labels
(int64 arrays, ``UNLABELED`` marking an unlabeled row) and one column per
feature, a ``DictColumn`` of category codes or a float64 array of values.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import accumulate, chain, islice
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


class SchemaError(ValueError):
    """The input does not match the declared feature schema."""


class StreamParseError(ValueError):
    """A cell could not be parsed; carries the offending 1-based row number."""

    def __init__(self, message: str, row: int):
        super().__init__(f"row {row}: {message}")
        self.row = row


class EncodingError(ValueError):
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


class RowError(ValueError):
    """A stream row the engine cannot use, named by its stream index and by
    its row in the stream's CSV file (``csv_row``)."""

    def __init__(self, message: str, index: int, row: int):
        super().__init__(message, index, row)
        self.index = index
        self.row = row

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
    index_origin: int = 0

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


def open_csv_stream(
    path,
    schema: FeatureSchema,
    label_map: Callable[[str], int] = int,
) -> Iterator[Table]:
    """Yield the stream of a CSV file as tables of at most ``CHUNK_ROWS``
    rows, in file order, indices starting at ``schema.index_origin``.

    The header row must contain every schema column (extra columns are
    ignored); an empty file or a header alone is an empty stream. A row
    shorter than the header reads its missing cells as empty. A table's
    categorical columns are coded once, empty cells as ``MISSING_TOKEN``;
    numeric cells are parsed as ``float`` parses them, and an empty or
    non-finite one is a parse error. An empty label cell leaves the row
    unlabeled; ``label_map`` converts a non-empty label token to a class id
    (the default expects integer tokens), and one outside int64 or equal to
    ``UNLABELED`` is a parse error. A parse error names the first bad
    cell in row order (the features in schema order, then the label); a
    byte that is not UTF-8 raises ``EncodingError`` naming its file line.
    """
    try:
        yield from _read_csv(path, schema, label_map)
    except UnicodeDecodeError as e:
        raise encoding_error(path) or e from None


def _read_csv(path, schema, label_map) -> Iterator[Table]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return  # empty file: empty stream
        col = {name: i for i, name in enumerate(header)}
        for name in schema.names:
            if name not in col:
                raise SchemaError(f"missing column {name!r} in {path}")
        if schema.label_column and schema.label_column not in col:
            raise SchemaError(f"missing label column {schema.label_column!r} in {path}")
        cells = [col[name] for name in schema.names]
        if schema.label_column:
            cells.append(col[schema.label_column])
        width = max(cells, default=-1) + 1

        index, rownum = schema.index_origin, 2
        while rows := list(islice(reader, CHUNK_ROWS)):
            if min(map(len, rows)) < width:
                rows = [r + [""] * (width - len(r)) for r in rows]
            try:
                table = _parse_rows(rows, index, col, schema, label_map)
            except (ValueError, OverflowError):
                _raise_first_bad_cell(rows, rownum, col, schema, label_map)
                raise
            yield table
            index += len(rows)
            rownum += len(rows)


def _parse_rows(rows, index, col, schema, label_map) -> Table:
    """The table of ``rows`` (each long enough to hold every used column),
    the first at stream index ``index``; raises ``ValueError`` or
    ``OverflowError`` if a cell is bad."""
    cells = list(zip(*rows))  # a tuple of tokens per file column
    columns: dict[str, Union[DictColumn, np.ndarray]] = {}
    for name, kind in schema.features:
        tokens = cells[col[name]]
        if kind == CATEGORICAL:
            column = DictColumn.from_tokens(tokens)
            if "" in column.vocab:  # an empty cell is the category MISSING_TOKEN
                vocab = DictColumn.from_tokens([t or MISSING_TOKEN for t in column.vocab])
                column = DictColumn(vocab.codes[column.codes], vocab.vocab)
            columns[name] = column
        else:
            values = np.array(tokens, dtype=np.float64)  # float() of each str
            if not np.isfinite(values).all():
                raise ValueError("non-finite value")
            columns[name] = values
    if schema.label_column:
        tokens = cells[col[schema.label_column]]
        labels = np.fromiter((label_map(t) if t else UNLABELED for t in tokens), np.int64, len(rows))
        if np.count_nonzero(labels == UNLABELED) != tokens.count(""):
            raise ValueError("a label cell maps to UNLABELED")
    else:
        labels = np.full(len(rows), UNLABELED, np.int64)
    return Table(np.arange(index, index + len(rows), dtype=np.int64), labels, columns)


def _raise_first_bad_cell(rows, first_row, col, schema, label_map) -> None:
    """Raise ``StreamParseError`` for the first bad cell of ``rows``, the
    first of which is file row ``first_row``, in row order."""
    for rownum, row in enumerate(rows, start=first_row):
        for name in schema.numeric_names:
            token = row[col[name]]
            if token == "":
                raise StreamParseError(f"empty numeric cell in column {name!r}", rownum)
            try:
                x = float(token)
            except ValueError:
                raise StreamParseError(
                    f"non-numeric value {token!r} in column {name!r}", rownum
                ) from None
            if not math.isfinite(x):
                raise StreamParseError(f"non-finite value {token!r} in column {name!r}", rownum)
        token = row[col[schema.label_column]] if schema.label_column else ""
        if token != "":
            try:
                y = label_map(token)
            except (ValueError, OverflowError):
                y = UNLABELED  # bad as well
            if not UNLABELED < y <= np.iinfo(np.int64).max:
                raise StreamParseError(
                    f"bad label {token!r} in column {schema.label_column!r}", rownum
                )


def csv_row(schema: FeatureSchema, index: int) -> int:
    """The file row (1-based, the header being row 1) that ``open_csv_stream``
    reads stream index ``index`` from."""
    return index - schema.index_origin + 2


# -- CSV writer -----------------------------------------------------------

# a field: a matrix row per column row, its UTF-8 text after pads (a byte UTF-8 never holds)
_PAD = 0xFF
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
_CSV_LINE = csv.writer(SimpleNamespace(write=str))  # its writerow returns the line


def write_columns(path, header: Sequence[str], columns: Sequence) -> None:
    """Write ``columns`` under ``header`` as a CSV file in the bytes of
    ``csv.writer``'s default dialect, assembled by numpy ``CHUNK_ROWS`` rows at
    a time. A column (two or more, as csv.writer quotes a lone empty field) is
    an integer array, a sequence of ``str`` or a pair ``(codes, texts)``."""
    # each column's rows, and the function from a chunk of them to its field
    columns = [(c[0], _text_field(c[1]).__getitem__) if isinstance(c, tuple) else
               (c, _int_field if isinstance(c, np.ndarray) else _text_field) for c in columns]
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
            fh.write(lines[lines != _PAD].tobytes())


def _int_field(values: np.ndarray) -> np.ndarray:
    """The decimal text of integers, by digit extraction."""
    neg = values < 0
    u = values.astype(np.uint64)
    u[neg] = -u[neg]  # modulo 2**64: the magnitude, also of the most negative int64
    w = len(str(u.max(initial=0))) + int(neg.any())  # and a column for the signs
    lead = u[:, None] < _POW10[w - 1 : 0 : -1]  # the zeros before the first digit
    text = np.empty((len(u), w), np.uint8)
    for k in range(w - 1, -1, -1):
        u, text[:, k] = np.divmod(u, 10)
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
