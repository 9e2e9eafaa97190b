"""Tests for the stream data model, the CSV stream source and the CSV
writer."""

import csv
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftstream import stream_core
from driftstream.stream_core import (
    CATEGORICAL,
    MISSING_TOKEN,
    NUMERIC,
    CHUNK_ROWS,
    UNLABELED,
    FeatureSchema,
    SchemaError,
    StreamParseError,
    DictColumn,
    EncodingError,
    Table,
    open_csv_stream,
    write_columns,
)
from driftstream.synth import write_csv

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
    assert recs.index.tolist() == [0, 1, 2]
    assert recs.label.tolist() == [0, 1, 2]
    red = DictColumn.from_tokens(["red"])
    assert recs[0] == Table(np.array([0]), np.array([0]), {"color": red, "size": np.array([1.5])})


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
    assert rec.columns["color"].tokens() == [MISSING_TOKEN]


def test_empty_label_yields_bare_instance(tmp_path):
    p = write(tmp_path, "color,size,label\nred,1.0,\nblue,2.0,1\n")
    recs = read(p)
    assert recs.label.tolist() == [UNLABELED, 1]
    assert recs.index.tolist() == [0, 1]


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
    assert read(p, schema).index.tolist() == [2000, 2001]


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
    assert recs.index.tolist() == list(range(len(rows)))
    assert set(recs.columns) == set(SCHEMA.names)


# -- chunks, short rows and the first bad cell ---------------------------------


def test_chunks_hold_at_most_chunk_rows(tmp_path):
    n = CHUNK_ROWS + 5
    for unlabeled in ((), (CHUNK_ROWS - 1, CHUNK_ROWS)):  # or one on each side of the edge
        rows = ["red,1.0," if i in unlabeled else "red,1.0,0" for i in range(n)]
        p = write(tmp_path, "color,size,label\n" + "\n".join(rows) + "\n")
        assert [len(t) for t in open_csv_stream(p, SCHEMA)] == [CHUNK_ROWS, 5]
        table = read(p)
        assert table.index.tolist() == list(range(n))
        assert np.flatnonzero(table.label == UNLABELED).tolist() == list(unlabeled)
        assert table.labeled().index.tolist() == [i for i in range(n) if i not in unlabeled]


def test_short_row_reads_missing_cells_as_empty(tmp_path):
    p = write(tmp_path, "color,size,label\nred,1.0,0\nblue,2.5\n")
    recs = read(p)
    assert recs.label.tolist() == [0, UNLABELED]
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


def test_byte_not_utf8_names_its_file_line(tmp_path):
    # a quoted cell spanning two lines: file lines, not CSV rows, are counted
    rows = [b'"re\nd",1.0,0'] + [b"red,1.0,0"] * (CHUNK_ROWS + 100)
    rows[CHUNK_ROWS + 50] = b"r\xffd,1.0,0"
    p = tmp_path / "s.csv"
    p.write_bytes(b"color,size,label\n" + b"\n".join(rows) + b"\n")
    with pytest.raises(EncodingError, match="byte 0xff is not UTF-8") as exc:
        list(open_csv_stream(p, SCHEMA))
    assert exc.value.line == CHUNK_ROWS + 50 + 3


# tokens a numeric cell may hold: float reprs, the spellings float() reads
# (signs, exponents, underscores, non-ASCII digits, inf and nan), and junk
_numeric_token = st.one_of(
    st.floats().map(repr),
    st.integers(-(10**30), 10**30).map(str),
    st.sampled_from(["1_0", "1__0", "_1", "1_", "١٢", "５", "+.5", "-0", ".", "e5", "1e400",
                     "-1e-400", "inf", "-Infinity", "nan", "-nan", "NaN", "0x10", "", " "]),
    st.text(st.characters(codec="utf-8"), max_size=8),
).flatmap(lambda t: st.sampled_from([t, f" {t}", f"{t}\t", f"\n{t} "]))


@settings(max_examples=300, deadline=None)
@given(st.lists(_numeric_token, min_size=1, max_size=6))
def test_numeric_column_parses_each_cell_as_float_does(tokens):
    """A numeric column holds float()'s bits for each cell, or the table is
    refused (ValueError) when float() refuses a cell or reads a non-finite
    value."""
    schema = FeatureSchema((("x", NUMERIC),))
    try:
        expected = [float(t) for t in tokens]
    except ValueError:
        expected = None
    if expected is not None and all(map(np.isfinite, expected)):
        table = stream_core._parse_rows([[t] for t in tokens], 0, {"x": 0}, schema, int)
        assert table.columns["x"].tobytes() == np.array(expected).tobytes()
    else:
        with pytest.raises(ValueError):
            stream_core._parse_rows([[t] for t in tokens], 0, {"x": 0}, schema, int)


# -- write_columns ------------------------------------------------------------


def csv_writer_bytes(header, rows):
    """The file csv.writer's default dialect writes, as the writer opens it."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue().encode("utf-8")


# tokens that csv.writer quotes, or whose UTF-8 bytes outnumber their characters
_AWKWARD = ["", " ", ",", '"', "\r", "\n", "\r\n", 'a,"b"', " x ", "é", "日本", "ünï,", "🙂\n"]
_token = st.one_of(st.sampled_from(_AWKWARD), st.text(max_size=8))
_int = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-1000, 1000),
    st.sampled_from([0, -1, 9, -9, 10, -10, 10**18, -(10**18), 2**63 - 1, -(2**63)]),
)
_float = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e16]),
)
# a column as (pool of values, how a column of them is built from codes)
_column = st.one_of(
    st.lists(_int, min_size=1, max_size=12).map(lambda v: (v, "int")),
    st.lists(_token, min_size=1, max_size=12).map(lambda v: (v, "str")),
    st.lists(_float.map(repr), min_size=1, max_size=12).map(lambda v: (v, "str")),
    st.lists(_token, min_size=1, max_size=12).map(lambda v: (v, "coded")),
    st.lists(st.one_of(st.none(), _int), min_size=1, max_size=6).map(lambda v: (v, "label")),
)
# the chunk edges, and short files
_rows = st.one_of(st.sampled_from([0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1]),
                  st.integers(0, 40))


@settings(max_examples=80, deadline=None)
@given(st.lists(_column, min_size=2, max_size=5), _rows, st.integers(0, 2**32 - 1))
def test_written_bytes_are_csv_writers(tmp_path_factory, columns, n, seed):
    rng = np.random.default_rng(seed)
    header, given_, cells = [], [], []
    for j, (pool, kind) in enumerate(columns):
        codes = rng.integers(len(pool), size=n)
        values = [pool[c] for c in codes.tolist()]
        header.append(f"c{j}" if j % 2 else f"c,{j}\n")  # a header cell quoted too
        if kind == "int":
            given_.append(np.array(values, dtype=np.int64))
        elif kind == "coded":
            given_.append((codes, pool))
        elif kind == "label":  # as write_csv gives an unlabeled row's empty cell
            given_.append(["" if v is None else str(v) for v in values])
        else:
            given_.append(values)
        cells.append(values)  # csv.writer writes None as an empty field
    p = tmp_path_factory.mktemp("w") / "w.csv"
    write_columns(p, header, given_)
    assert p.read_bytes() == csv_writer_bytes(header, zip(*cells))


def old_write_csv(table, schema):
    """The bytes of write_csv's csv.writer loop, kept as the reference."""
    cells = [
        list(map(repr, table.columns[name].tolist())) if kind == NUMERIC else
        table.columns[name].tokens() for name, kind in schema.features
    ]
    labels = ["" if y == UNLABELED else y for y in table.label.tolist()]
    return csv_writer_bytes(list(schema.names) + [schema.label_column], zip(*cells, labels))


def awkward_table(pools, n, seed, finite):
    """A table of ``n`` rows drawn from the value pools by a seeded rng; its
    categorical column's vocabulary is the token pool, unused tokens and all;
    a None label is an unlabeled row."""
    rng = np.random.default_rng(seed)
    tokens, floats, labels = pools

    def pick(pool):
        return [pool[i] for i in rng.integers(len(pool), size=n).tolist()]

    size = np.array(pick(floats), dtype=np.float64)
    if finite:
        size[~np.isfinite(size)] = 0.5
    vocab = tuple(dict.fromkeys(tokens))
    color = DictColumn(rng.integers(len(vocab), size=n), vocab)
    label = np.array([UNLABELED if y is None else y for y in pick(labels)], dtype=np.int64)
    return Table(np.arange(n), label, {"color": color, "size": size})


_pools = st.tuples(
    st.lists(_token, min_size=1, max_size=10),
    st.lists(_float, min_size=1, max_size=10),
    st.lists(st.one_of(st.none(), _int), min_size=1, max_size=5),
)


@settings(max_examples=40, deadline=None)
@given(_pools, _rows, st.integers(0, 2**32 - 1))
def test_write_csv_bytes_equal_the_csv_writer_loop(tmp_path_factory, pools, n, seed):
    table = awkward_table(pools, n, seed, finite=False)
    p = tmp_path_factory.mktemp("w") / "s.csv"
    write_csv(table, SCHEMA, p)
    assert p.read_bytes() == old_write_csv(table, SCHEMA)


@settings(max_examples=40, deadline=None)
@given(_pools, _rows, st.integers(0, 2**32 - 1))
@example(pools=(["a"], [0.5], [1]), n=CHUNK_ROWS + 1, seed=0)
def test_awkward_tokens_round_trip(tmp_path_factory, pools, n, seed):
    tokens, floats, labels = pools
    tokens = [t or "x" for t in tokens]  # an empty category reads back as MISSING_TOKEN
    table = awkward_table((tokens, floats, labels), n, seed, finite=True)
    table.label[CHUNK_ROWS - 1 : CHUNK_ROWS + 1] = UNLABELED  # the rows at the chunk edge, if any
    p = tmp_path_factory.mktemp("w") / "s.csv"
    write_csv(table, SCHEMA, p)
    assert read(p) == table


@pytest.mark.parametrize(
    "header,columns",
    [
        (["a"], [np.arange(3)]),  # csv.writer quotes a lone empty field
        (["a", "b"], [np.arange(3), ["x", "y"]]),
        (["a", "b", "c"], [np.arange(3), ["x", "y", "z"]]),
    ],
    ids=["one-column", "lengths-differ", "header-longer"],
)
def test_write_columns_refuses_what_it_cannot_write(tmp_path, header, columns):
    with pytest.raises(ValueError):
        write_columns(tmp_path / "w.csv", header, columns)
