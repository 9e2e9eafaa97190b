"""CSV fuzzing of ``run --input``: whatever the cells hold, the run ends
with a documented exit code (0 success, 2 config error, 3 data error) and
never lets an exception escape.

The streams mix arbitrary cell text with empty cells, numeric-looking
tokens, short rows (trailing cells missing, the label among them), long
rows (extra cells), labels out of range and unlabeled rows.
"""

import csv
import tempfile
from pathlib import Path

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


def _run(rows: list[list[str]]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "stream.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(HEADER)
            w.writerows(rows)
        return main([
            "run", "--input", str(path), "--label", "label", "--warmup", str(WARMUP),
            "--quiet", "-o", str(Path(tmp) / "out"),
        ])


def _good(n: int) -> list[list[str]]:
    return [["ab"[i % 2], str(i % 3), str(i % 2)] for i in range(n)]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_rows)
@example(_good(12) + [["a", "0.5"]])  # short row without its label cell, after warm-up
@example(_good(2) + [["a", "0.5"]] + _good(9))  # the same inside the warm-up
@example(_good(12) + [["a"]])  # short row without its numeric cell
@example(_good(8) + [["a", "1", "7"]] + _good(4))  # label out of range
@example(_good(8) + [["a", "1", "", "x", "y"]] + _good(4))  # long unlabeled row
def test_any_csv_gives_a_documented_exit_code(rows):
    assert _run(rows) in (EXIT_OK, EXIT_CONFIG, EXIT_DATA)


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
