"""Data model for chronological feature streams and the CSV stream source.

A stream is a sequence of records in strict chronological order, one record
per index. Records are either bare ``Instance`` objects (no label available)
or ``LabeledInstance`` objects when the label column is populated.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Union

CATEGORICAL = "categorical"
NUMERIC = "numeric"

#: Reserved token substituted for an empty categorical cell. Absence of a
#: categorical value is treated as an ordinary category, never as an error.
MISSING_TOKEN = "__MISSING__"


class SchemaError(ValueError):
    """The input does not match the declared feature schema."""


class StreamParseError(ValueError):
    """A cell could not be parsed; carries the offending 1-based row number."""

    def __init__(self, message: str, row: int):
        super().__init__(f"row {row}: {message}")
        self.row = row


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


@dataclass
class Instance:
    """One chronological record: a stream position and per-feature values."""

    index: int
    values: dict[str, Union[str, float]]


@dataclass
class LabeledInstance:
    """An instance together with its class label (an integer in [0, K))."""

    instance: Instance
    label: int

    @property
    def index(self) -> int:
        return self.instance.index


Record = Union[Instance, LabeledInstance]


def _parse_int_label(token: str) -> int:
    return int(token)


def open_csv_stream(
    path,
    schema: FeatureSchema,
    label_map: Callable[[str], int] = _parse_int_label,
) -> Iterator[Record]:
    """Yield records from a CSV file in file order, indices starting at
    ``schema.index_origin``.

    The header row must contain every schema column (extra columns are
    ignored). Empty categorical cells become ``MISSING_TOKEN``; empty numeric
    cells are a parse error. An empty label cell yields a bare ``Instance``.
    ``label_map`` converts a non-empty label token to a class id; the default
    expects integer tokens.
    """
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

        index = schema.index_origin
        for rownum, row in enumerate(reader, start=2):
            values: dict[str, Union[str, float]] = {}
            for name, kind in schema.features:
                token = row[col[name]] if col[name] < len(row) else ""
                if kind == CATEGORICAL:
                    values[name] = token if token != "" else MISSING_TOKEN
                else:
                    if token == "":
                        raise StreamParseError(f"empty numeric cell in column {name!r}", rownum)
                    try:
                        x = float(token)
                    except ValueError:
                        raise StreamParseError(
                            f"non-numeric value {token!r} in column {name!r}", rownum
                        ) from None
                    if not math.isfinite(x):
                        raise StreamParseError(
                            f"non-finite value {token!r} in column {name!r}", rownum
                        )
                    values[name] = x
            inst = Instance(index, values)
            label_token = row[col[schema.label_column]] if schema.label_column else ""
            if label_token != "":
                try:
                    label = label_map(label_token)
                except ValueError:
                    raise StreamParseError(
                        f"bad label {label_token!r} in column {schema.label_column!r}", rownum
                    ) from None
                yield LabeledInstance(inst, label)
            else:
                yield inst
            index += 1


def csv_row(schema: FeatureSchema, index: int) -> int:
    """The file row (1-based, the header being row 1) that ``open_csv_stream``
    reads stream index ``index`` from."""
    return index - schema.index_origin + 2
