"""Tests for the stream data model and the CSV stream source."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream.stream_core import (
    CATEGORICAL,
    MISSING_TOKEN,
    NUMERIC,
    CHUNK_ROWS,
    FeatureSchema,
    SchemaError,
    StreamParseError,
    Table,
    open_csv_stream,
)

SCHEMA = FeatureSchema(
    (("color", CATEGORICAL), ("size", NUMERIC)), label_column="label"
)


def write(tmp_path, text, name="s.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def read(p, schema=SCHEMA):
    return Table.concat(schema, open_csv_stream(p, schema))


def test_three_labeled_rows(tmp_path):
    p = write(tmp_path, "color,size,label\nred,1.5,0\nblue,2.0,1\nred,3.5,2\n")
    recs = read(p)
    assert len(recs) == 3
    assert recs.index == [0, 1, 2]
    assert recs.label == [0, 1, 2]
    assert recs[0] == Table([0], [0], {"color": ["red"], "size": np.array([1.5])})


def test_bad_numeric_cites_row(tmp_path):
    rows = ["color,size,label"] + ["red,1.0,0"] * 5 + ["red,abc,0", "red,1.0,0"]
    p = write(tmp_path, "\n".join(rows) + "\n")
    with pytest.raises(StreamParseError) as exc:
        list(open_csv_stream(p, SCHEMA))
    assert exc.value.row == 7
    assert "row 7" in str(exc.value)


def test_empty_numeric_is_parse_error(tmp_path):
    p = write(tmp_path, "color,size,label\nred,,0\n")
    with pytest.raises(StreamParseError):
        list(open_csv_stream(p, SCHEMA))


def test_non_finite_numeric_is_parse_error(tmp_path):
    p = write(tmp_path, "color,size,label\nred,nan,0\n")
    with pytest.raises(StreamParseError):
        list(open_csv_stream(p, SCHEMA))


def test_missing_column_names_it(tmp_path):
    p = write(tmp_path, "color,label\nred,0\n")
    with pytest.raises(SchemaError, match="size"):
        list(open_csv_stream(p, SCHEMA))


def test_empty_file_is_empty_stream(tmp_path):
    p = write(tmp_path, "")
    assert list(open_csv_stream(p, SCHEMA)) == []


def test_header_only_is_empty_stream(tmp_path):
    p = write(tmp_path, "color,size,label\n")
    assert list(open_csv_stream(p, SCHEMA)) == []


def test_missing_categorical_becomes_reserved_token(tmp_path):
    p = write(tmp_path, "color,size,label\n,1.0,0\n")
    rec = read(p)
    assert rec.columns["color"] == [MISSING_TOKEN]


def test_empty_label_yields_bare_instance(tmp_path):
    p = write(tmp_path, "color,size,label\nred,1.0,\nblue,2.0,1\n")
    recs = read(p)
    assert recs.label == [None, 1]
    assert recs.index == [0, 1]


def test_bad_label_token_cites_row(tmp_path):
    p = write(tmp_path, "color,size,label\nred,1.0,two\n")
    with pytest.raises(StreamParseError) as exc:
        list(open_csv_stream(p, SCHEMA))
    assert exc.value.row == 2


def test_extra_columns_ignored(tmp_path):
    p = write(tmp_path, "junk,color,size,label\nx,red,1.0,0\n")
    rec = read(p)
    assert len(rec) == 1 and set(rec.columns) == {"color", "size"}


def test_index_origin(tmp_path):
    schema = FeatureSchema(SCHEMA.features, "label", index_origin=2000)
    p = write(tmp_path, "color,size,label\nred,1.0,0\nblue,2.0,1\n")
    assert read(p, schema).index == [2000, 2001]


def test_reopen_is_deterministic(tmp_path):
    p = write(tmp_path, "color,size,label\nred,1.5,0\n,2.0,\nblue,3.0,2\n")
    assert read(p) == read(p)


# -- schema validation --------------------------------------------------------


def test_duplicate_feature_names_rejected():
    with pytest.raises(SchemaError):
        FeatureSchema((("a", CATEGORICAL), ("a", NUMERIC)))


def test_empty_feature_name_rejected():
    with pytest.raises(SchemaError):
        FeatureSchema((("", CATEGORICAL),))


def test_unknown_kind_rejected():
    with pytest.raises(SchemaError):
        FeatureSchema((("a", "ordinal"),))


def test_label_column_not_a_feature():
    with pytest.raises(SchemaError):
        FeatureSchema((("a", CATEGORICAL),), label_column="a")


def test_name_views():
    assert SCHEMA.names == ("color", "size")
    assert SCHEMA.categorical_names == ("color",)
    assert SCHEMA.numeric_names == ("size",)


@settings(max_examples=50)
@given(
    rows=st.lists(
        st.tuples(st.sampled_from(["red", "blue", ""]), st.floats(-10, 10), st.integers(0, 2)),
        max_size=30,
    )
)
def test_indices_increase_by_one_and_schema_covered(tmp_path_factory, rows):
    p = tmp_path_factory.mktemp("s") / "s.csv"
    lines = ["color,size,label"] + [f"{c},{x!r},{y}" for c, x, y in rows]
    p.write_text("\n".join(lines) + "\n")
    recs = read(p)
    assert recs.index == list(range(len(rows)))
    assert set(recs.columns) == set(SCHEMA.names)


# -- chunks, short rows and the first bad cell ---------------------------------


def test_chunks_hold_at_most_chunk_rows(tmp_path):
    n = CHUNK_ROWS + 5
    p = write(tmp_path, "color,size,label\n" + "red,1.0,0\n" * n)
    assert [len(t) for t in open_csv_stream(p, SCHEMA)] == [CHUNK_ROWS, 5]
    assert read(p).index == list(range(n))


def test_short_row_reads_missing_cells_as_empty(tmp_path):
    p = write(tmp_path, "color,size,label\nred,1.0,0\nblue,2.5\n")
    recs = read(p)
    assert recs.label == [0, None]
    assert recs.columns["size"].tolist() == [1.0, 2.5]


def test_short_row_without_numeric_cell_cites_row(tmp_path):
    p = write(tmp_path, "color,size,label\nred,1.0,0\nblue\n")
    with pytest.raises(StreamParseError, match="empty numeric cell") as exc:
        list(open_csv_stream(p, SCHEMA))
    assert exc.value.row == 3


@pytest.mark.parametrize(
    "rows,row,message",
    [
        (["red,abc,x"], 2, "non-numeric"),  # a feature before the label of its row
        (["red,1.0,x", "red,abc,0"], 2, "bad label"),  # an earlier row first
        (["red,1.0,0", "red,inf,0", "red,,0"], 3, "non-finite"),
    ],
)
def test_first_bad_cell_in_row_order_is_reported(tmp_path, rows, row, message):
    p = write(tmp_path, "color,size,label\n" + "red,1.0,0\n" * (CHUNK_ROWS - 1) + "\n".join(rows))
    with pytest.raises(StreamParseError, match=message) as exc:
        list(open_csv_stream(p, SCHEMA))
    assert exc.value.row == CHUNK_ROWS - 1 + row
