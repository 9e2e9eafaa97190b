"""Tests for the stream data model and the CSV stream source."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream.stream_core import (
    CATEGORICAL,
    MISSING_TOKEN,
    NUMERIC,
    FeatureSchema,
    Instance,
    LabeledInstance,
    SchemaError,
    StreamParseError,
    open_csv_stream,
)

SCHEMA = FeatureSchema(
    (("color", CATEGORICAL), ("size", NUMERIC)), label_column="label"
)


def write(tmp_path, text, name="s.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_three_labeled_rows(tmp_path):
    p = write(tmp_path, "color,size,label\nred,1.5,0\nblue,2.0,1\nred,3.5,2\n")
    recs = list(open_csv_stream(p, SCHEMA))
    assert len(recs) == 3
    assert all(isinstance(r, LabeledInstance) for r in recs)
    assert [r.index for r in recs] == [0, 1, 2]
    assert [r.label for r in recs] == [0, 1, 2]
    assert recs[0].instance.values == {"color": "red", "size": 1.5}


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
    (rec,) = list(open_csv_stream(p, SCHEMA))
    assert rec.instance.values["color"] == MISSING_TOKEN


def test_empty_label_yields_bare_instance(tmp_path):
    p = write(tmp_path, "color,size,label\nred,1.0,\nblue,2.0,1\n")
    recs = list(open_csv_stream(p, SCHEMA))
    assert isinstance(recs[0], Instance)
    assert isinstance(recs[1], LabeledInstance)
    assert recs[0].index == 0 and recs[1].index == 1


def test_bad_label_token_cites_row(tmp_path):
    p = write(tmp_path, "color,size,label\nred,1.0,two\n")
    with pytest.raises(StreamParseError) as exc:
        list(open_csv_stream(p, SCHEMA))
    assert exc.value.row == 2


def test_extra_columns_ignored(tmp_path):
    p = write(tmp_path, "junk,color,size,label\nx,red,1.0,0\n")
    (rec,) = list(open_csv_stream(p, SCHEMA))
    assert set(rec.instance.values) == {"color", "size"}


def test_index_origin(tmp_path):
    schema = FeatureSchema(SCHEMA.features, "label", index_origin=2000)
    p = write(tmp_path, "color,size,label\nred,1.0,0\nblue,2.0,1\n")
    recs = list(open_csv_stream(p, schema))
    assert [r.index for r in recs] == [2000, 2001]


def test_reopen_is_deterministic(tmp_path):
    p = write(tmp_path, "color,size,label\nred,1.5,0\n,2.0,\nblue,3.0,2\n")
    assert list(open_csv_stream(p, SCHEMA)) == list(open_csv_stream(p, SCHEMA))


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
    recs = list(open_csv_stream(p, SCHEMA))
    assert [r.index for r in recs] == list(range(len(rows)))
    for r in recs:
        inst = r.instance if isinstance(r, LabeledInstance) else r
        assert set(inst.values) == set(SCHEMA.names)
