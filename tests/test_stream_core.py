"""Tests for the stream data model, the CSV stream source and the CSV
writer."""

import collections
import csv
import io
import math
import pickle
import tracemalloc
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftstream import stream_core
from driftstream.adaptation import LabelError
from driftstream.preprocess import BinBoundaries
from driftstream.stream_core import (
    CATEGORICAL,
    MISSING_TOKEN,
    DataError,
    NUMERIC,
    CHUNK_ROWS,
    UNLABELED,
    FeatureSchema,
    SchemaError,
    StreamParseError,
    DictColumn,
    EncodingError,
    RowError,
    Table,
    class_ids,
    open_csv_stream,
    write_columns,
)
from driftstream.synth import generate, paper_like_config, write_csv

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


def _first_bad_cell(rows, col, schema, label_map):
    """The message and file row of the first bad cell of ``rows``, the file's
    rows after its header, each long enough to hold every column of ``col``,
    in row order (the features in schema order, then the label), judged
    cell by cell; ``None`` if every cell is good."""
    for rownum, row in enumerate(rows, start=2):
        for name in schema.numeric_names:
            token = row[col[name]]
            if token == "":
                return f"empty numeric cell in column {name!r}", rownum
            try:
                x = float(token)
            except ValueError:
                return f"non-numeric value {token!r} in column {name!r}", rownum
            if not math.isfinite(x):
                return f"non-finite value {token!r} in column {name!r}", rownum
        token = row[col[schema.label_column]] if schema.label_column else ""
        if token != "":
            try:
                y = label_map([token])[0]
            except (ValueError, OverflowError):
                y = UNLABELED  # bad as well
            if y == UNLABELED:
                return f"bad label {token!r} in column {schema.label_column!r}", rownum
    return None


# the file's columns in another order than the schema's, and an unused one
_PLANT_SCHEMA = FeatureSchema((("x", NUMERIC), ("cat", CATEGORICAL), ("y", NUMERIC)), "label")
_PLANT_HEADER = ["y", "label", "cat", "extra", "x"]
_PLANT_ROWS = 2 * CHUNK_ROWS + 100
_bad_numeric = st.sampled_from(["", "abc", "1.5x", "nan", "-NaN", "inf", "-inf", "1e400"])
_bad_label = {
    "int": st.sampled_from(["1.5", "x", " ", "9" * 19, "-" + "9" * 19, str(UNLABELED)]),
    "bins": st.sampled_from(["-1", "-0.5", "-1e-300", "nan", "inf", "-inf", "1e400", "x"]),
}
_plant_row = st.one_of(
    st.integers(0, _PLANT_ROWS - 1),
    st.sampled_from([0, CHUNK_ROWS - 1, CHUNK_ROWS, 2 * CHUNK_ROWS - 1, 2 * CHUNK_ROWS,
                     _PLANT_ROWS - 1]),
)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(["int", "bins"]))
def test_first_bad_cell_of_a_multi_chunk_file_is_the_cell_by_cell_rules(tmp_path_factory, data,
                                                                         labels):
    """Bad cells planted at drawn rows and columns of a file of three chunks
    raise the ``StreamParseError`` of the first of them that the cell-by-cell
    rules find, message and row, on the byte path and again with the first
    cell quoted, so that ``csv.reader`` reads the file."""
    label_map = {"int": class_ids, "bins": _bin_days}[labels]
    rows = [[f"{i % 7}.5", "" if i % 5 == 0 else str(i % 3), f"c{i % 4}", "e", str(i % 11)]
            for i in range(_PLANT_ROWS)]
    for _ in range(data.draw(st.integers(1, 4))):
        name = data.draw(st.sampled_from(["x", "y", "label"]))
        bad = _bad_label[labels] if name == "label" else _bad_numeric
        rows[data.draw(_plant_row)][_PLANT_HEADER.index(name)] = data.draw(bad)
    col = {name: _PLANT_HEADER.index(name) for name in ("x", "cat", "y", "label")}
    expected = _first_bad_cell(rows, col, _PLANT_SCHEMA, label_map)
    p = tmp_path_factory.mktemp("plant") / "s.csv"
    for quoted in (False, True):
        lines = [",".join(row) for row in rows]
        if quoted:
            lines[0] = f'"{rows[0][0]}",' + lines[0].split(",", 1)[1]
        p.write_text(",".join(_PLANT_HEADER) + "\n" + "\n".join(lines) + "\n")
        with pytest.MonkeyPatch.context() as m:
            scanned = _spied_scans(m)
            with pytest.raises(StreamParseError) as exc:
                list(open_csv_stream(p, _PLANT_SCHEMA, label_map))
        assert (exc.value.args[0], exc.value.row) == expected
        assert (scanned == [None]) if quoted else all(t is not None for t in scanned)


def test_byte_not_utf8_names_its_file_line(tmp_path):
    # a quoted cell spanning two lines: file lines, not CSV rows, are counted
    rows = [b'"re\nd",1.0,0'] + [b"red,1.0,0"] * (CHUNK_ROWS + 100)
    rows[CHUNK_ROWS + 50] = b"r\xffd,1.0,0"
    p = tmp_path / "s.csv"
    p.write_bytes(b"color,size,label\n" + b"\n".join(rows) + b"\n")
    with pytest.raises(EncodingError, match="byte 0xff is not UTF-8") as exc:
        list(open_csv_stream(p, SCHEMA))
    assert exc.value.line == CHUNK_ROWS + 50 + 3


@pytest.mark.parametrize("error, text, attrs", [
    (StreamParseError("bad cell", 3), "row 3: bad cell", {"row": 3}),
    (EncodingError("s.csv", 5, 0xFF), "s.csv line 5: byte 0xff is not UTF-8", {"line": 5}),
    (RowError("bad row", 4), "stream index 4 (CSV row 6): bad row", {"index": 4, "row": 6}),
    (LabelError("row has no label", 0), "stream index 0 (CSV row 2): row has no label",
     {"index": 0, "row": 2}),
], ids=["StreamParseError", "EncodingError", "RowError", "LabelError"])
def test_data_errors_survive_pickling(error, text, attrs):
    # a worker process sends its exception to the parent pickled
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error) == text
    assert {a: getattr(copy, a) for a in attrs} == attrs


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
def test_numeric_column_parses_each_cell_as_float_does(tmp_path_factory, tokens):
    """A numeric column holds float()'s bits for each cell, or the table is
    refused (StreamParseError) when float() refuses a cell or reads a
    non-finite value. So does a one-column file of the tokens read by
    ``open_csv_stream``, refusing with ``StreamParseError``: plain tokens
    take its byte path, and awkward ones (quoted, empty, NUL, non-ASCII)
    fall back to ``csv.reader``."""
    schema = FeatureSchema((("x", NUMERIC),))
    p = tmp_path_factory.mktemp("num") / "x.csv"
    with open(p, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([["x"], *([t] for t in tokens)])
    try:
        expected = [float(t) for t in tokens]
    except ValueError:
        expected = None
    if expected is not None and all(map(np.isfinite, expected)):
        table = stream_core._table(0, len(tokens), schema, class_ids, {"x": tokens})
        assert table.columns["x"].tobytes() == np.array(expected).tobytes()
        assert read(p, schema).columns["x"].tobytes() == np.array(expected).tobytes()
    else:
        with pytest.raises(StreamParseError):
            stream_core._table(0, len(tokens), schema, class_ids, {"x": tokens})
        with pytest.raises(StreamParseError):
            read(p, schema)


# -- the byte scan against csv.reader -------------------------------------------

_SCAN_SCHEMA = FeatureSchema((("cat", CATEGORICAL), ("num", NUMERIC)), label_column="label")
_scan_cells = {
    "cat": st.one_of(
        st.sampled_from(["a", "b", "c3", "", MISSING_TOKEN, " a", "a ", "\t", "é", "x,y", 'q"q',
                         "l\nf", "c\rr"]),
        st.text(max_size=4),
    ),
    "num": st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-(10**6), 10**6).map(str),
        st.sampled_from(["1e5", "1E-3", "1_0", "inf", "-inf", "nan", "", " 1.5", "2.5 ", "+.5",
                         "x", "1e400", "0x10", "١"]),
    ),
    "label": st.one_of(
        st.integers(0, 2).map(str),
        st.integers(0, 2000).map(str),  # hours
        st.sampled_from(["", "+1", "01", " 2", "-0", "-1", "1_0", "x", "9" * 19, "-" + "9" * 18,
                         "12.5", "960.0", "-1.5", "nan", "inf", "1e400"]),
    ),
    "extra": st.text(max_size=3),
}
# cells that the byte scan reads itself
_plain_cells = {
    "cat": st.sampled_from(["a", "b", "c3", "", MISSING_TOKEN, " a", "a "]),
    "num": st.one_of(st.floats(-1e6, 1e6).map(repr), st.integers(-99, 99).map(str)),
    "label": st.sampled_from(["0", "1", "2", "", "-1", "150", "1000"]),
    "extra": st.sampled_from(["e", "", "x y"]),
}
_line_end = st.sampled_from(["\r\n", "\n", "\r"])


@st.composite
def _csv_files(draw):
    """A file's text: a header of the schema's columns and an extra one in
    any order, now and then not plain (its first cell quoted, or the line
    ended by CR alone, so that ``csv.reader`` reads the whole file),
    optionally plain lines up to near the CHUNK_ROWS-th, then drawn lines.
    These are either all plain rows, or a mix of rows (short, long, quoted
    or not) and blank lines, each ending in the file's line end or now and
    then another."""
    header = draw(st.permutations(["cat", "num", "label", "extra"]))
    end = draw(st.sampled_from(["\r\n", "\n"]))
    plain = draw(st.booleans())
    filler = {"cat": "a", "num": "1.5", "label": "0", "extra": "e"}
    names, quoted = ",".join(header), ",".join([f'"{header[0]}"', *header[1:]])
    lines = [draw(st.sampled_from([names + end, names + end, quoted + end, names + "\r"]))]
    lines += [",".join(filler[c] for c in header) + end] * draw(
        st.one_of(st.just(0), st.integers(CHUNK_ROWS - 6, CHUNK_ROWS - 1)))
    for _ in range(draw(st.integers(0, 12))):
        if plain:
            lines.append(",".join(draw(_plain_cells[c]) for c in header) + end)
            continue
        width = draw(st.sampled_from([4, 4, 4, 4, 1, 2, 3, 5, 6]))  # short and long rows too
        cells = [draw(_scan_cells[header[i] if i < 4 else "extra"]) for i in range(width)]
        quote_all = draw(st.integers(0, 7)) == 0
        text = ",".join(
            '"' + c.replace('"', '""') + '"' if quote_all or any(x in c for x in ',"\r\n') else c
            for c in cells
        )
        if draw(st.integers(0, 9)) == 0:
            text = ""  # a blank line
        lines.append(text + draw(st.one_of(st.just(end), st.just(end), st.just(end), _line_end)))
    text = "".join(lines)
    if draw(st.booleans()):
        text = text.removesuffix("\n").removesuffix("\r")  # the last line without its end
    return text


#: The label map of ``run --bin-days 6,39``: the class of each hours-valued token.
_bin_days = BinBoundaries((6, 39), 24.0).classes


def _by_csv_reader(p, schema, label_map=class_ids):
    """The tables of file ``p`` with each record read by ``csv.reader``."""
    with open(p, newline="", encoding="utf-8") as fh:
        records = csv.reader(fh)
        if (header := next(records, None)) is not None:
            col = stream_core._header_columns(header, p, schema)
            yield from stream_core._record_tables(records, 0, col, schema, label_map)


def _outcome(tables, schema=_SCAN_SCHEMA):
    """What reading ``tables`` (a generator) gives: the error's type and
    text, or the stream's indices, labels, each categorical column's
    vocabulary and codes and each numeric column's bytes."""
    try:
        tables = list(tables)
    except (DataError, csv.Error) as e:
        return type(e), str(e)
    assert all(len(t) <= CHUNK_ROWS for t in tables)
    table = Table.concat(schema, tables)
    return (
        table.index.tolist(),
        table.label.tolist(),
        {n: (c.vocab, c.codes.tolist()) if isinstance(c, DictColumn) else c.tobytes()
         for n, c in table.columns.items()},
    )


_HEADER = "cat,num,label,extra\n"


@settings(max_examples=200, deadline=None)
@given(text=_csv_files(), label_map=st.sampled_from([class_ids, _bin_days]))
# first appearance; no CR in a cell
@example(text="num,label,cat\r\n1.5,0,b\r\n2.5,1,a\r\n", label_map=class_ids)
# a quoted newline across the CHUNK_ROWS-th line
@example(text="cat,num,label\n" + "a,1.5,0\n" * (CHUNK_ROWS - 1) + 'x,2.5,1\n"l\nf",3.5,2\n',
         label_map=class_ids)
# field counts that total a multiple of the header's, a CR inside a cell, an
# unused cell over csv.field_size_limit() (csv.Error on either path), a
# label token that int reads as UNLABELED, and a quoted cell in a full row
@example(text=_HEADER + "a,1.5,0\n1,b,2.5,1,e\n", label_map=class_ids)
@example(text=_HEADER + "a\rb,1.5,0,e\n", label_map=class_ids)
@example(text=_HEADER + "a,1.5,0," + "e" * 140_000 + "\n", label_map=class_ids)
@example(text=_HEADER + f"a,1.5,{UNLABELED},e\n", label_map=class_ids)
@example(text=_HEADER + '"a",1.5,0,e\n', label_map=class_ids)
def test_open_csv_stream_reads_as_csv_reader_does(tmp_path_factory, text, label_map):
    """``open_csv_stream``, which scans plain chunks as bytes, gives what
    ``csv.reader`` gives for the file: the same tables, or the same error
    at the same row, with labels read by ``class_ids`` or as ``run
    --bin-days`` reads hours. (The files are UTF-8; a byte that is not is
    tested on its own.)"""
    p = tmp_path_factory.mktemp("scan") / "s.csv"
    p.write_bytes(text.encode("utf-8"))
    assert _outcome(open_csv_stream(p, _SCAN_SCHEMA, label_map)) == _outcome(
        _by_csv_reader(p, _SCAN_SCHEMA, label_map))


def _spied_scans(monkeypatch):
    """The list to which each later ``_scan_chunk`` call appends its result."""
    scanned, scan = [], stream_core._scan_chunk

    def spy(*args):
        scanned.append(scan(*args))
        return scanned[-1]

    monkeypatch.setattr(stream_core, "_scan_chunk", spy)
    return scanned


def _read_on_the_byte_path(p, stream, label_map, monkeypatch):
    """The tables of file ``p``, which holds ``stream``, checked to come from
    ``_scan_chunk`` alone, one chunk after another, as ``csv.reader``
    reads them."""
    scanned = _spied_scans(monkeypatch)
    schema = stream.predictive_schema
    tables = list(open_csv_stream(p, schema, label_map))
    assert len(scanned) == -(-len(stream.table) // CHUNK_ROWS)
    assert all(t is not None for t in scanned)  # no chunk went to csv.reader
    assert _outcome(iter(tables), schema) == _outcome(_by_csv_reader(p, schema, label_map), schema)
    return tables


@pytest.mark.parametrize("seed", [42, 7])
def test_paper_like_chunks_all_take_the_byte_path(tmp_path, monkeypatch, seed):
    stream = generate(paper_like_config(seed))
    p = tmp_path / "stream.csv"
    write_csv(stream.table, stream.schema, p)
    _read_on_the_byte_path(p, stream, class_ids, monkeypatch)


@pytest.mark.parametrize("seed", [42, 7])
def test_paper_like_chunks_with_hours_binned_all_take_the_byte_path(tmp_path, monkeypatch, seed):
    """The paper-like stream with each class written as whole hours inside
    its ``--bin-days 6,39`` bin is read on the byte path too, to its classes."""
    stream = generate(paper_like_config(seed))
    y = stream.table.label
    lo, hi = np.array([0, 168, 960]), np.array([168, 960, 2400])
    hours = np.random.default_rng(seed).integers(lo[y], hi[y])
    p = tmp_path / "hours.csv"
    write_csv(Table(stream.table.index, hours, stream.table.columns), stream.schema, p)
    tables = _read_on_the_byte_path(p, stream, _bin_days, monkeypatch)
    assert Table.concat(stream.predictive_schema, tables).label.tolist() == y.tolist()


@pytest.mark.parametrize("first_cell", ["c0", '"c0"'], ids=["byte-path", "csv-reader"])
def test_label_map_reads_each_distinct_label_token_once_per_chunk(tmp_path, monkeypatch,
                                                                 first_cell):
    """``label_map`` is called once per chunk, with each distinct non-empty
    label token of the chunk once, whether ``_scan_chunk`` reads every chunk
    or, the first cell being quoted, ``csv.reader`` reads the file from its
    first chunk on."""
    n = 2 * CHUNK_ROWS + 100
    labels = ["" if i % 5 == 0 else str(i // 1000) for i in range(n)]  # some in two chunks
    lines = [f"c{i % 3},{i % 10}.5,{labels[i]},e\n" for i in range(n)]
    lines[0] = lines[0].replace("c0", first_cell, 1)
    p = tmp_path / "labels.csv"
    p.write_bytes((_HEADER + "".join(lines)).encode("ascii"))
    scanned = _spied_scans(monkeypatch)
    calls, tokens = [], collections.Counter()

    def counting(chunk_tokens):
        calls.append(chunk_tokens)
        tokens.update(chunk_tokens)
        return class_ids(chunk_tokens)

    table = Table.concat(_SCAN_SCHEMA, open_csv_stream(p, _SCAN_SCHEMA, counting))
    assert [t is not None for t in scanned] == ([True] * 3 if first_cell == "c0" else [False])
    assert table.label.tolist() == [int(t) if t else UNLABELED for t in labels]
    chunks = (set(labels[lo : lo + CHUNK_ROWS]) - {""} for lo in range(0, n, CHUNK_ROWS))
    assert tokens == collections.Counter(chain.from_iterable(chunks))
    assert len(calls) == 3


def _peak_reading(p):
    """The ``tracemalloc`` peak of reading file ``p`` through, and its outcome."""
    tracemalloc.start()
    try:
        for _ in open_csv_stream(p, _SCAN_SCHEMA):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, _outcome(open_csv_stream(p, _SCAN_SCHEMA))


@pytest.mark.parametrize("header_end", ["\n", "\r"])
def test_a_file_without_line_feeds_is_read_in_bounded_pieces(tmp_path, header_end):
    """A file of about 10 MB whose data lines end in CR alone, so that no
    ``CHUNK_ROWS`` of its lines end in LF, is read as ``csv.reader`` reads
    it, without holding much more than ``_CHUNK_BYTES`` of it at once."""
    lines = (f"c{i % 7},{i % 1000}.5,{i % 3},{'p' * 40}\r" for i in range(200_000))
    p = tmp_path / "cr.csv"
    p.write_bytes(("cat,num,label,extra" + header_end + "".join(lines)).encode("ascii"))
    peak, outcome = _peak_reading(p)
    assert peak < stream_core._CHUNK_BYTES + 4 * stream_core._BLOCK < p.stat().st_size
    assert outcome == _outcome(_by_csv_reader(p, _SCAN_SCHEMA))


def test_csv_reader_keeps_only_the_used_cells_of_a_record(tmp_path):
    """A file that ``csv.reader`` reads whole (its header ends in CR alone)
    is held as the cells the schema uses: an unused column of 1,000 bytes a
    cell costs no more than 1 MiB over one of 1 byte, and both read alike."""
    peaks, outcomes = [], []
    for width in (1, 1000):
        lines = (f"c{i % 7},{i % 1000}.5,{i % 3},{'p' * width}\r" for i in range(20_000))
        p = tmp_path / f"extra{width}.csv"
        p.write_bytes(("cat,num,label,extra\r" + "".join(lines)).encode("ascii"))
        peak, outcome = _peak_reading(p)
        peaks.append(peak)
        outcomes.append(outcome)
    assert peaks[1] < peaks[0] + (1 << 20)
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == [i % 3 for i in range(20_000)]


def test_a_wide_category_sends_its_chunk_to_csv_reader(tmp_path):
    """A chunk whose last line holds a category of 20,000 bytes is read by
    ``csv.reader``, as it reads it, not gathered into a byte matrix as wide
    as that cell for each of its lines."""
    lines = ["a,1.5,0,e\n"] * 3999 + ["x" * 20_000 + ",2.5,1,e\n"]
    p = tmp_path / "wide.csv"
    p.write_bytes((_HEADER + "".join(lines)).encode("ascii"))
    peak, outcome = _peak_reading(p)
    assert peak < 16 << 20
    assert outcome == _outcome(_by_csv_reader(p, _SCAN_SCHEMA))
    assert outcome[2]["cat"][0] == ("a", "x" * 20_000)


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


# floats where repr's digits are hardest to match, either sign and one ulp
# either side: powers of two (the gap below is half the gap above) and of ten
# (the exponent moves), the switches between positional and exponent
# notation, and the edges of the range the vectorised float writer decides
_traps = np.concatenate((
    2.0 ** np.arange(-1074, 1024),
    [float(f"1e{k}") for k in range(-323, 309)],
    [1e16, 1e-4, 1e-5, 9.999999999999999e22, *stream_core._FLOAT_RANGE],
))
_traps = np.concatenate((_traps, np.nextafter(_traps, -np.inf), np.nextafter(_traps, np.inf)))
_FLOAT_TRAPS = np.concatenate((_traps, -_traps)).tolist()
_float = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, 1e16]),
    st.sampled_from(_FLOAT_TRAPS),
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


def test_float_columns_are_written_as_the_csv_writer_loop_writes_them(tmp_path):
    """A million float64 values of every kind, written as repr writes them."""
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2**64, 250_000, dtype=np.uint64, endpoint=False).view(np.float64)
    normals = rng.standard_normal(250_000) * 10.0 ** rng.uniform(-15, 15, 250_000)
    ints = rng.integers(-(10**12), 10**12, 200_000).astype(np.float64)
    decimals = rng.integers(-(10**6), 10**6, 200_000) / 10.0 ** rng.integers(0, 7, 200_000)
    values = np.concatenate((bits, normals, ints, decimals, _FLOAT_TRAPS))
    values = np.concatenate((values, rng.permutation(values)[: 1_000_000 - len(values)]))
    columns = values.reshape(4, -1)
    header = ["a", "b", "c", "d"]
    write_columns(tmp_path / "f.csv", header, list(columns))
    rows = zip(*(map(repr, c.tolist()) for c in columns))
    assert (tmp_path / "f.csv").read_bytes() == csv_writer_bytes(header, rows)


@pytest.mark.parametrize(
    "header,columns",
    [
        (["a"], [np.arange(3)]),  # csv.writer quotes a lone empty field
        (["a", "b"], [np.arange(3), ["x", "y"]]),
        (["a", "b", "c"], [np.arange(3), ["x", "y", "z"]]),
        (["a", "b"], [np.arange(3), np.arange(3, dtype=np.float32)]),  # not silently widened
    ],
    ids=["one-column", "lengths-differ", "header-longer", "float32"],
)
def test_write_columns_refuses_what_it_cannot_write(tmp_path, header, columns):
    with pytest.raises(ValueError):
        write_columns(tmp_path / "w.csv", header, columns)
