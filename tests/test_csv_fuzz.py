"""CSV fuzzing of ``run --input``: whatever the cells hold, the run ends
with a documented exit code (0 success, 2 config error, 3 data error) and
never lets an exception escape.

The streams mix arbitrary cell text with empty cells, numeric-looking
tokens, short rows (trailing cells missing, the label among them), long
rows (extra cells), labels out of range and unlabeled rows. Their lines end
in CRLF, LF or CR, the last one with or without its terminator, so both of
the reader's paths (its byte scan and ``csv.reader``) meet them. A byte of
the file, the header's included, may be overwritten with 0xFF, which is not
UTF-8.
"""

import contextlib
import csv
import io
import tempfile
from pathlib import Path
from typing import Optional

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from driftstream.adaptation import MAX_INFERRED_CLASSES
from driftstream.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main

HEADER = ["cat", "num", "label"]
WARMUP = 5

_text = st.text(max_size=6)
_cat = st.one_of(st.just(""), st.sampled_from(["a", "b", "c"]), _text)
_num = st.one_of(
    st.just(""),
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.integers(-5, 5).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e999"]),
    _text,
)
# junk labels are at most two characters, so an inferred class count stays small
_label = st.one_of(st.just(""), st.integers(-2, 4).map(str), st.text(max_size=2))
_row = st.tuples(_cat, _num, _label, st.lists(_text, max_size=2), st.integers(0, 5)).map(
    lambda t: [t[0], t[1], t[2], *t[3]][: t[4] if t[4] < 3 else None]
)
_good_row = st.tuples(st.sampled_from(["a", "b"]), st.integers(-5, 5), st.integers(0, 2)).map(
    lambda t: [t[0], str(t[1]), str(t[2])]
)
# mostly well-formed rows, so that runs also get past the warm-up
_rows = st.lists(st.one_of(_good_row, _good_row, _row), max_size=30)


def _run(
    rows: list[list[str]], terminator: str = "\r\n", last_ended: bool = True,
    bad: Optional[int] = None,
) -> int:
    """The exit code of ``run`` on the file of ``rows``, its byte at ``bad``
    (modulo the file length) overwritten with 0xFF; no traceback is printed."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf, lineterminator=terminator)
    w.writerow(HEADER)
    w.writerows(rows)
    text = buf.getvalue()
    if not last_ended:
        text = text.removesuffix(terminator)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "stream.csv"
        data = bytearray(text.encode("utf-8"))
        if bad is not None:
            data[bad % len(data)] = 0xFF
        path.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([
                "run", "--input", str(path), "--label", "label", "--warmup", str(WARMUP),
                "--quiet", "-o", str(Path(tmp) / "out"),
            ])
    assert "Traceback" not in err.getvalue()
    return code


def _good(n: int) -> list[list[str]]:
    return [["ab"[i % 2], str(i % 3), str(i % 2)] for i in range(n)]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    _rows, st.sampled_from(["\r\n", "\n", "\r"]), st.booleans(),
    st.one_of(st.none(), st.integers(0, 10**4)),
)
@example(_good(12) + [["a", "0.5"]], "\r\n", True, None)  # short row without its label, after warm-up
@example(_good(2) + [["a", "0.5"]] + _good(9), "\r\n", True, None)  # the same inside the warm-up
@example(_good(12) + [["a"]], "\r\n", True, None)  # short row without its numeric cell
@example(_good(8) + [["a", "1", "7"]] + _good(4), "\r\n", True, None)  # label out of range
@example(_good(8) + [["a", "1", "", "x", "y"]] + _good(4), "\r\n", True, None)  # long unlabeled row
@example(_good(12), "\r", False, None)  # CR line ends: csv.reader's rows, not the byte scan's lines
@example(_good(12), "\n", False, None)  # a last line without its line end
# a quoted cell ("x,y", bytes 14-18) sends the file to csv.reader, whose decoder meets 0xFF
# on line 1,832, past the rows and the first 8 KiB that schema inference reads
@example([["x,y", "1", "0"]] + _good(2000), "\n", True, 11000)
def test_any_csv_gives_a_documented_exit_code(rows, terminator, last_ended, bad):
    assert _run(rows, terminator, last_ended, bad) in (EXIT_OK, EXIT_CONFIG, EXIT_DATA)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, WARMUP - 1),
    st.one_of(
        st.integers(MAX_INFERRED_CLASSES - 2, MAX_INFERRED_CLASSES + 2), st.integers(0, 10**30)
    ),
)
def test_huge_warmup_label_is_a_data_error(row, label):
    # the class count is inferred from the warm-up labels, at most
    # MAX_INFERRED_CLASSES; a larger label must stop the run before it
    # sizes the count tables
    rows = _good(12)
    rows[row][2] = str(label)
    assert _run(rows) == (EXIT_OK if label < MAX_INFERRED_CLASSES else EXIT_DATA)
