"""End-to-end tests for the command-line interface (exit codes, output
files, determinism). Commands run in-process through main()."""

import csv
import json

import pytest

from driftstream import cli, evaluation
from driftstream.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main


def run_cli(*args):
    try:
        return main([args[0], "--quiet", *args[1:]])
    except SystemExit as e:  # argparse usage errors exit with code 2
        return int(e.code)


@pytest.fixture()
def small_stream(tmp_path):
    """A 3,000-row generated CSV with a sudden drift at 1,500."""
    out = tmp_path / "gen"
    code = run_cli(
        "generate",
        "-o", str(out),
        "--seed", "5",
        "--n", "3000",
        "--drift-kind", "sudden",
        "--drift-at", "1500",
        "--magnitude", "1.0",
    )
    assert code == EXIT_OK
    return out / "stream.csv"


# -- generate -----------------------------------------------------------------


def test_generate_writes_stream_and_sidecar(tmp_path):
    out = tmp_path / "g"
    assert run_cli("generate", "-o", str(out), "--n", "500") == EXIT_OK
    assert len((out / "stream.csv").read_text().splitlines()) == 501
    assert (out / "concepts.csv").read_text().splitlines()[0] == "index,concept_id"


def test_generate_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("generate", "-o", str(out), "--seed", "9", "--n", "400") == EXIT_OK
    assert (a / "stream.csv").read_bytes() == (b / "stream.csv").read_bytes()
    assert (a / "concepts.csv").read_bytes() == (b / "concepts.csv").read_bytes()


def test_generate_drift_position_bound(tmp_path):
    code = run_cli(
        "generate", "-o", str(tmp_path / "g"), "--n", "100",
        "--drift-kind", "sudden", "--drift-at", "100",
    )
    assert code == EXIT_CONFIG


def test_generate_profile_shape(tmp_path):
    out = tmp_path / "p"
    code = run_cli("generate", "-o", str(out), "--profile", "paper-like", "--n", "100")
    # profile overrides --n with the benchmark size; keep this test light by
    # just checking it starts writing (skip if too slow is not needed, ~1s)
    assert code == EXIT_OK
    assert len((out / "stream.csv").read_text().splitlines()) == 70775


# -- run ----------------------------------------------------------------------


def run_flags(stream, out):
    return [
        "run",
        "--input", str(stream),
        "--label", "label",
        "--warmup", "300",
        "--window", "100",
        "--detector", "page-hinkley",
        "--strategy", "last",
        "--batch-size", "100",
        "--incremental",
        "-o", str(out),
    ]


def test_run_happy_path_outputs(tmp_path, small_stream):
    out = tmp_path / "run"
    assert main(run_flags(small_stream, out)) == EXIT_OK
    for name in ("records.csv", "curves.csv", "events.csv", "summary.csv"):
        assert (out / name).exists()
    resolved = json.loads((out / "resolved-config.json").read_text())
    assert resolved["detector"] == "page-hinkley"
    header, row = (out / "summary.csv").read_text().splitlines()
    assert "accuracy" in header
    records = (out / "records.csv").read_text().splitlines()
    assert len(records) == 1 + 3000 - 300


def test_run_twice_byte_identical(tmp_path, small_stream):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(run_flags(small_stream, a)) == EXIT_OK
    assert main(run_flags(small_stream, b)) == EXIT_OK
    for name in ("records.csv", "curves.csv", "events.csv", "summary.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_strategy_without_detector(tmp_path, small_stream):
    code = run_cli(
        "run", "--input", str(small_stream), "--label", "label",
        "--strategy", "next", "-o", str(tmp_path / "x"),
    )
    assert code == EXIT_CONFIG


def test_run_missing_label_column(tmp_path, small_stream):
    code = run_cli(
        "run", "--input", str(small_stream), "--label", "nope",
        "-o", str(tmp_path / "x"),
    )
    assert code == EXIT_DATA


def test_run_missing_input_file(tmp_path):
    code = run_cli(
        "run", "--input", str(tmp_path / "absent.csv"), "--label", "label",
        "-o", str(tmp_path / "x"),
    )
    assert code == EXIT_DATA


def test_run_requires_exactly_one_source(tmp_path, small_stream):
    code = run_cli(
        "run", "--input", str(small_stream), "--synth", "paper-like",
        "-o", str(tmp_path / "x"),
    )
    assert code == EXIT_CONFIG
    assert run_cli("run", "-o", str(tmp_path / "y")) == EXIT_CONFIG


def test_run_config_file_flags_override(tmp_path, small_stream):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text(
        "detector=page-hinkley\nstrategy=last\nbatch-size=100\n"
        "warmup=300\nincremental=true\n"
    )
    out = tmp_path / "cfgrun"
    code = run_cli(
        "run", "--config", str(cfgfile), "--input", str(small_stream),
        "--label", "label", "--batch-size", "150", "-o", str(out),
    )
    assert code == EXIT_OK
    resolved = json.loads((out / "resolved-config.json").read_text())
    assert resolved["batch_size"] == 150  # flag wins over file
    assert resolved["strategy"] == "last"  # from file


def test_run_env_var_output_dir(tmp_path, small_stream, monkeypatch):
    monkeypatch.setenv("DRIFTSTREAM_OUT", str(tmp_path / "envout"))
    flags = run_flags(small_stream, "ignored")
    flags = flags[: flags.index("-o")]  # drop the -o pair
    assert main(flags) == EXIT_OK
    assert (tmp_path / "envout" / "summary.csv").exists()


def write_labeled_csv(path, labels):
    """A 3-class CSV stream, one row per label token ('' for no label)."""
    rows = [f"{'abc'[i % 3]},{i % 7}.5,{y}" for i, y in enumerate(labels)]
    path.write_text("tok,x,label\n" + "\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize(
    "row,token,where",
    [
        (350, "7", "stream index 350 (CSV row 352)"),  # after warm-up; 3 classes inferred
        (10, "", "stream index 10 (CSV row 12)"),  # unlabeled inside the warm-up
        (5, "-1", "stream index 5 (CSV row 7)"),  # negative inside the warm-up
    ],
    ids=["out-of-range-after-warmup", "unlabeled-in-warmup", "negative-in-warmup"],
)
def test_run_unusable_label_is_a_data_error(tmp_path, capsys, row, token, where):
    labels = [str(i % 3) for i in range(400)]
    labels[row] = token
    stream = write_labeled_csv(tmp_path / "s.csv", labels)
    code = run_cli(
        "run", "--input", str(stream), "--label", "label", "--warmup", "300",
        "-o", str(tmp_path / "x"),
    )
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert where in err and "Traceback" not in err


# -- gridsearch ---------------------------------------------------------------


def test_gridsearch_three_lambdas(tmp_path, small_stream):
    out = tmp_path / "gs"
    code = run_cli(
        "gridsearch", "--input", str(small_stream), "--label", "label",
        "--prefix", "2000", "--warmup", "300",
        "--detector", "page-hinkley", "--strategy", "last",
        "--batch-size", "100", "--lambda", "0.3,0.6,0.9", "-o", str(out),
    )
    assert code == EXIT_OK
    grid = (out / "grid.csv").read_text().splitlines()
    assert len(grid) == 4  # header + 3 points
    best = json.loads((out / "best.json").read_text())
    assert best["ph_lambda"] in (0.3, 0.6, 0.9)


def test_gridsearch_empty_grid(tmp_path, small_stream):
    code = run_cli(
        "gridsearch", "--input", str(small_stream), "--label", "label",
        "--detector", "page-hinkley", "--strategy", "last",
        "--lambda", "", "-o", str(tmp_path / "gs"),
    )
    assert code == EXIT_CONFIG


# -- matrix -------------------------------------------------------------------


def test_matrix_restricted_grid_rows(tmp_path, small_stream):
    out = tmp_path / "m"
    code = run_cli(
        "matrix", "--input", str(small_stream), "--label", "label",
        "--warmup", "300", "--batch-sizes", "100",
        "--workers", "1", "-o", str(out),
    )
    assert code == EXIT_OK
    rows = (out / "summary.csv").read_text().splitlines()
    # header + 4 baseline rows + 2 detectors x 1 batch x 3 strategies
    assert len(rows) == 1 + 4 + 6


def test_matrix_worker_count_invariance(tmp_path, small_stream):
    outs = []
    for workers, name in ((1, "w1"), (2, "w2")):
        out = tmp_path / name
        code = run_cli(
            "matrix", "--input", str(small_stream), "--label", "label",
            "--warmup", "300", "--batch-sizes", "100",
            "--detectors", "adwin", "--workers", str(workers), "-o", str(out),
        )
        assert code == EXIT_OK
        outs.append((out / "summary.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("mode", [[], ["--no-incremental"]])
def test_matrix_runs_each_distinct_config_once(tmp_path, small_stream, monkeypatch, mode):
    runs = []
    run_experiment = evaluation.run_experiment

    def counting(records, schema, cfg):
        runs.append(cfg)
        return run_experiment(records, schema, cfg)

    monkeypatch.setattr(cli, "run_experiment", counting)
    monkeypatch.setattr(evaluation, "run_experiment", counting)
    out = tmp_path / "m"
    code = run_cli(
        "matrix", "--input", str(small_stream), "--label", "label",
        "--warmup", "300", "--batch-sizes", "100", "--workers", "1", *mode, "-o", str(out),
    )
    assert code == EXIT_OK
    # 2 no-detector baselines, the first cell in the other learning mode,
    # and 2 detectors x 1 batch size x 3 strategies
    assert len(runs) == len(set(runs)) == 3 + 6
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # the first cell's baseline row is that cell's own result
    incremental = "0" if mode else "1"
    baseline = next(r for r in rows[2:4] if r["incremental"] == incremental)
    assert baseline == rows[4]


# -- inspect ------------------------------------------------------------------


def test_inspect_constant_feature(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("x,label\n" + "3.5,0\n" * 50)
    out = tmp_path / "ins"
    code = run_cli(
        "inspect", "--input", str(p), "--label", "label",
        "--feature", "x", "--window", "10", "-o", str(out),
    )
    assert code == EXIT_OK
    rows = (out / "inspect_x.csv").read_text().splitlines()
    assert rows[0] == "index,rolling_mean"
    assert all(r.endswith("3.500000") for r in rows[1:])


def test_inspect_unknown_feature(tmp_path, small_stream):
    code = run_cli(
        "inspect", "--input", str(small_stream), "--label", "label",
        "--feature", "nope", "-o", str(tmp_path / "i"),
    )
    assert code == EXIT_CONFIG


def test_inspect_window_zero(tmp_path, small_stream):
    code = run_cli(
        "inspect", "--input", str(small_stream), "--label", "label",
        "--feature", "num0", "--window", "0", "-o", str(tmp_path / "i"),
    )
    assert code == EXIT_CONFIG
