"""The benchmark's tracer (perfbench/tracer.py) wraps layer entry points by
name: methods found in class ``__dict__`` and the ``cli`` / ``evaluation``
module globals that callers look up. A traced ``run`` must still count what
its outputs pin, so that a refactor cannot silently unhook the benchmark.
The test reads perfbench/ and writes nothing there."""

import csv
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from driftstream.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"
WARMUP, BATCH = 300, 100


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.fixture(scope="module")
def stream_csv(tmp_path_factory):
    gen = tmp_path_factory.mktemp("gen")
    assert main([
        "generate", "--n", "3000", "--drift-kind", "sudden", "--drift-at", "1500",
        "--seed", "5", "--quiet", "-o", str(gen),
    ]) == EXIT_OK
    return gen / "stream.csv"


def traced_run(tmp_path, stream_csv, *flags):
    """Trace ``run`` on the stream; its summary row and per-layer metrics."""
    out, trace = tmp_path / "run", tmp_path / "trace.json"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, str(TRACER), str(trace),
            "run", "--input", str(stream_csv), "--label", "label",
            "--warmup", str(WARMUP), *flags, "--quiet", "-o", str(out),
        ],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    with open(out / "summary.csv", newline="") as fh:
        (summary,) = csv.DictReader(fh)
    return summary, load_tracer().layer_metrics(trace)


def test_traced_run_counts_what_its_outputs_pin(tmp_path, stream_csv):
    summary, m = traced_run(
        tmp_path, stream_csv, "--detector", "page-hinkley", "--strategy", "last",
        "--batch-size", str(BATCH), "--incremental",
    )
    predictions = int(summary["n_predictions"])
    alarms = m["detectors.alarms"]
    assert predictions == 3000 - WARMUP
    assert alarms == int(summary["n_drifts"]) >= 1
    assert m["evaluation.run_experiment.calls"] == 1
    assert m["naive_bayes.predict_many.rows"] >= predictions
    # the warm-up fit, then one refit on the last BATCH rows per alarm
    assert m["naive_bayes.fit.calls"] == alarms + 1
    assert m["naive_bayes.fit.rows"] == WARMUP + BATCH * alarms
    # records.csv and curves.csv rows, the summary row, and a drift and a
    # retrain_done line per alarm: the tracer reads len() of the records
    # and each row's flags
    assert m["evaluation.write_csv.rows"] == 2 * predictions + 1 + 2 * alarms


def test_traced_static_run_never_feeds_a_detector(tmp_path, stream_csv):
    summary, m = traced_run(tmp_path, stream_csv)
    predictions = int(summary["n_predictions"])
    assert predictions == 3000 - WARMUP
    assert m["naive_bayes.fit.calls"] == 1
    assert m["naive_bayes.update.calls"] == 0
    assert m["detectors.observe.calls"] == 0
    assert m["naive_bayes.predict_many.rows"] >= predictions
    assert m["evaluation.write_csv.rows"] == 2 * predictions + 1
