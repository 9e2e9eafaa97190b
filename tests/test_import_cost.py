"""Importing driftstream and making a run pay nothing for the float writer:
its tables are built on the first float column written, and nothing the
engine imports loads ``fractions`` or ``decimal``."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """\
import csv, pathlib, sys, tempfile
from driftstream import cli, stream_core
with tempfile.TemporaryDirectory() as tmp:
    tmp = pathlib.Path(tmp)
    with open(tmp / "s.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([("color", "size", "label"),
                                  *(("ab"[i % 2], i / 7, i % 3) for i in range(300))])
    code = cli.main(["run", "--quiet", "--input", str(tmp / "s.csv"), "--label", "label",
                     "--warmup", "100", "--detector", "page-hinkley", "--strategy", "last",
                     "-o", str(tmp / "out")])
print(code, stream_core._float_tables.cache_info().currsize,
      *sorted({"fractions", "decimal"} & sys.modules.keys()))
"""


def test_a_run_builds_no_float_table_and_imports_no_fractions_or_decimal():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.split() == ["0", "0"]
