"""End-to-end tests for the command-line interface (exit codes, output
files, determinism). Commands run in-process through main()."""

import csv
import importlib
import json
import pkgutil

import pytest

import driftstream
from driftstream import cli, evaluation
from driftstream.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from driftstream.stream_core import CHUNK_ROWS, ConfigError, DataError


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


def test_generate_drift_at_without_a_drift_kind_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "g"
    assert run_cli("generate", "-o", str(out), "--n", "200", "--drift-at", "50") == EXIT_CONFIG
    assert "--drift-kind" in capsys.readouterr().err
    assert not (out / "stream.csv").exists()


@pytest.mark.parametrize(
    "flags",
    [
        ("--n", "200", "--magnitude", "0.5", "--drift-width", "30"),
        ("--n", "200", "--drift-width", "30"),
        ("--n", "200", "--drift-kind", "none", "--magnitude", "0.5"),
        ("--profile", "paper-like", "--drift-kind", "sudden", "--drift-at", "50"),
        ("--profile", "paper-like", "--drift-kind", "none"),
        ("--profile", "paper-like", "--drift-at", "50"),
        ("--profile", "paper-like", "--drift-width", "30"),
        ("--profile", "paper-like", "--magnitude", "0.5"),
    ],
    ids=["shape-without-kind", "width-without-kind", "magnitude-with-none", "profile-sudden",
         "profile-none", "profile-at", "profile-width", "profile-magnitude"],
)
def test_generate_drift_flag_it_would_ignore_is_a_config_error(tmp_path, capsys, flags):
    out = tmp_path / "g"
    assert run_cli("generate", "-o", str(out), *flags) == EXIT_CONFIG
    assert flags[-2] in capsys.readouterr().err
    assert not (out / "stream.csv").exists()


@pytest.mark.parametrize("flags", [(), ("--drift-kind", "none")], ids=["absent", "none"])
def test_generate_without_a_drift_records_only_the_flags_given(tmp_path, flags):
    out = tmp_path / "g"
    assert run_cli("generate", "-o", str(out), "--n", "50", *flags) == EXIT_OK
    resolved = json.loads((out / "resolved-config.json").read_text())
    assert resolved.get("drift_kind") == (flags[1] if flags else None)
    assert not {"drift_at", "drift_width", "magnitude"} & resolved.keys()
    assert (out / "concepts.csv").read_text().splitlines()[1:] == [f"{i},0" for i in range(50)]


@pytest.mark.parametrize(
    "flags",
    [
        ("--n", "100"),
        ("--n-categorical", "2"),
        ("--n-numeric", "1"),
        ("--n-classes", "4"),
        ("--n-categories", "3"),
        ("--hidden-context",),
    ],
    ids=lambda flags: flags[0].lstrip("-"),
)
def test_generate_size_flag_with_a_profile_is_a_config_error(tmp_path, capsys, flags):
    out = tmp_path / "g"
    assert run_cli("generate", "-o", str(out), "--profile", "paper-like", *flags) == EXIT_CONFIG
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("driftstream: config error:") and flags[0] in line
    assert not (out / "stream.csv").exists()


def test_generate_profile_shape(tmp_path):
    out = tmp_path / "p"
    code = run_cli("generate", "-o", str(out), "--profile", "paper-like")
    # the profile sets the benchmark size, and the resolved config records
    # the sizes and hidden context of the stream written
    assert code == EXIT_OK
    assert len((out / "stream.csv").read_text().splitlines()) == 70775
    assert (out / "stream.csv").read_text().splitlines()[0].split(",")[-2] == "automation"
    resolved = json.loads((out / "resolved-config.json").read_text())
    sizes = ("n", "n_categorical", "n_numeric", "n_classes", "n_categories", "hidden_context")
    assert [resolved[k] for k in sizes] == [70774, 3, 2, 3, 6, True]


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


def test_run_missing_excluded_column(tmp_path, small_stream, capsys):
    code = run_cli(
        "run", "--input", str(small_stream), "--label", "label", "--exclude", "typo",
        "-o", str(tmp_path / "x"),
    )
    assert code == EXIT_DATA
    assert "'typo'" in capsys.readouterr().err


def test_exclude_drops_the_column_from_the_schema(small_stream):
    args = cli.build_parser().parse_args(
        ["run", "--input", str(small_stream), "--label", "label", "--exclude", "num0"]
    )
    table, schema = cli._load_stream(args)
    assert "num0" not in schema.names and "num1" in schema.names
    assert len(table) == 3000


@pytest.mark.parametrize(
    "flags",
    [("--label", "nope"), ("--exclude", "num0"), ("--bin-days", "6,39"), ("--label", ""),
     ("--exclude",), ("--bin-days", "")],
    ids=["label", "exclude", "bin-days", "empty-label", "empty-exclude", "empty-bin-days"],
)
def test_input_only_flag_with_synth_is_a_config_error(tmp_path, capsys, flags):
    assert run_cli("run", "--synth", "paper-like", *flags, "-o", str(tmp_path / "x")) == EXIT_CONFIG
    assert flags[0] in capsys.readouterr().err


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


CONFIG_FORMS = {
    "spaced": ("--config", "{}"),
    "equals": ("--config={}",),
    "abbreviated": ("--conf", "{}"),
}


@pytest.mark.parametrize("form", ["equals", "abbreviated"])
def test_run_reads_every_form_of_the_config_flag(tmp_path, small_stream, form):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("detector=page-hinkley\nstrategy=last\nbatch_size=100\nwarmup=300\n")
    outs = {}
    for name in ("spaced", form):
        outs[name] = tmp_path / name
        flag = [part.format(cfgfile) for part in CONFIG_FORMS[name]]
        code = run_cli("run", *flag, "--input", str(small_stream), "--label", "label",
                       "-o", str(outs[name]))
        assert code == EXIT_OK
    for name in ("records.csv", "events.csv", "summary.csv"):
        assert (outs[form] / name).read_bytes() == (outs["spaced"] / name).read_bytes()
    resolved = json.loads((outs[form] / "resolved-config.json").read_text())
    assert resolved["config"] == str(cfgfile)
    assert (resolved["batch_size"], resolved["warmup"]) == (100, 300)  # from the file


@pytest.mark.parametrize(
    "form,key", [("equals", "hidden_context"), ("abbreviated", "hidden-context")]
)
def test_generate_reads_the_config_file_in_every_form(tmp_path, form, key):
    cfgfile = tmp_path / "g.cfg"
    cfgfile.write_text(f"n=123\n{key}=true\n")
    out = tmp_path / "g"
    flag = [part.format(cfgfile) for part in CONFIG_FORMS[form]]
    assert run_cli("generate", *flag, "-o", str(out)) == EXIT_OK
    lines = (out / "stream.csv").read_text().splitlines()
    assert len(lines) == 1 + 123
    assert "automation" in lines[0].split(",")


def test_required_flag_can_come_from_the_config_file(tmp_path, small_stream):
    cfgfile = tmp_path / "i.cfg"
    cfgfile.write_text("feature=num0\nwindow=10\n")
    out = tmp_path / "i"
    code = run_cli("inspect", "--config", str(cfgfile), "--input", str(small_stream),
                   "--label", "label", "-o", str(out))
    assert code == EXIT_OK
    assert len((out / "inspect_num0.csv").read_text().splitlines()) == 1 + 3000


@pytest.mark.parametrize("flag", [("--config",), ("--config=",)], ids=["no-value", "empty"])
def test_config_flag_without_a_file_is_a_config_error(tmp_path, capsys, flag):
    assert run_cli("generate", "-o", str(tmp_path / "g"), *flag) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
def test_config_file_byte_not_utf8_is_a_config_error(tmp_path, capsys, end):
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_bytes(end.join([b"seed=42", b"warmup=\xff100", b"window=50"]))
    code = run_cli("run", "--synth", "paper-like", "--config", str(cfgfile), "-o", str(tmp_path / "x"))
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{cfgfile}:2: byte 0xff is not UTF-8" in err and "Traceback" not in err


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
        (350, str(-(2**63)), "row 352"),  # the least int64, which marks an unlabeled row
        (350, str(2**63), "row 352"),  # one past the largest int64
        (350, str(10**30), "row 352"),
    ],
    ids=["out-of-range-after-warmup", "unlabeled-in-warmup", "negative-in-warmup",
         "int64-min-after-warmup", "past-int64-after-warmup", "1e30-after-warmup"],
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


_PH_LAST = ("--detector", "page-hinkley", "--strategy", "last")

# the flags each command needs besides the source
_COMMAND_FLAGS = {
    "run": (),
    "gridsearch": ("--detector", "page-hinkley", "--lambda", "0.6"),
    "matrix": ("--workers", "1"),
}


@pytest.mark.parametrize(
    "command,flags,named",
    [
        (command, (flag, value, *extra), flag)
        for command, extra in _COMMAND_FLAGS.items()
        for flag, value in (("--batch-size", "0"), ("--batch-size", "-3"), ("--mini-batch", "0"))
    ]
    + [
        ("run", ("--prefix-len", "cat0=abc"), "--prefix-len"),
        ("run", ("--prefix-len", "cat0=0"), "--prefix-len"),
        ("run", ("--bin-days", "39,6"), "--bin-days"),
        ("run", ("--bin-days", "x"), "--bin-days"),
        ("run", ("--boxcox", "nope"), "boxcox"),
        ("run", ("--prefix-len", "nope=3"), "nope"),  # not a feature
        ("run", ("--prefix-len", "num0=3"), "num0"),  # not categorical
        ("run", ("--boxcox", "num0", "--warmup", "5"), "num0"),  # too few rows to fit
        ("gridsearch", ("--detector", "page-hinkley", "--lambda", "0.5,x"), "--lambda"),
        ("gridsearch", ("--detector", "adwin", "--delta", "0.5,x"), "--delta"),
        ("matrix", ("--workers", "1", "--batch-sizes", "50,abc"), "--batch-sizes"),
        ("matrix", ("--workers", "1", "--batch-sizes", "50,0"), "--batch-sizes"),
        ("gridsearch", ("--detector", "page-hinkley", "--lambda", "0.6", "--prefix", "-2500"),
         "--prefix"),
        # detector parameters out of range, checked before the stream loads
        ("run", (*_PH_LAST, "--burn-in", "-1"), "burn-in must be >= 0"),
        ("run", (*_PH_LAST, "--ph-delta", "-1"), "delta must be >= 0"),
        ("run", (*_PH_LAST, "--lambda", "0"), "lambda must be > 0"),
        ("run", (*_PH_LAST, "--lambda", "nan"), "lambda must be > 0"),
        ("run", ("--detector", "adwin", "--strategy", "last", "--delta", "2"),
         "delta must be in (0, 1)"),
        # a NaN edge compares False both ways; an infinite one makes a class no row reaches
        ("run", ("--bin-days", "nan"), "--bin-days"),
        ("run", ("--bin-days", "6,nan"), "--bin-days"),
        ("run", ("--bin-days", "6,inf"), "--bin-days"),
        # the grid flag of the detector that gridsearch is not searching
        ("gridsearch", ("--detector", "adwin", "--delta", "0.01,0.002", "--lambda", "5,9"),
         "--lambda"),
        ("gridsearch", ("--detector", "page-hinkley", "--lambda", "0.6", "--delta", "0.01"),
         "--delta"),
        ("run", ("--bin-days", ""), "--bin-days"),  # empty: no edges, not no flag
        ("run", ("--window", "0"), "--window"),
    ],
)
def test_bad_config_value_is_a_config_error(tmp_path, small_stream, capsys, command, flags, named):
    code = run_cli(
        command, "--input", str(small_stream), "--label", "label", "--warmup", "300",
        *flags, "-o", str(tmp_path / "x"),
    )
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command,source,code",
    [
        ("generate", (), EXIT_CONFIG),
        ("run", ("--synth", "paper-like"), EXIT_CONFIG),
        ("run", ("--input", None, "--label", "label", "--warmup", "300"), EXIT_OK),  # unused
    ],
    ids=["generate", "run-synth", "run-input"],
)
def test_negative_seed_is_a_config_error(tmp_path, small_stream, capsys, command, source, code):
    source = [str(small_stream) if a is None else a for a in source]
    assert run_cli(command, *source, "--seed", "-1", "-o", str(tmp_path / "x")) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == EXIT_CONFIG:
        assert "seed must be >= 0" in err


def test_every_package_error_is_a_config_or_a_data_error():
    # main maps ConfigError to exit 2 and DataError to exit 3, so an error
    # class of the package that derives from neither ends in a traceback
    errors = set()
    for info in pkgutil.iter_modules(driftstream.__path__):
        module = importlib.import_module(f"driftstream.{info.name}")
        errors |= {c for c in vars(module).values() if isinstance(c, type)
                   and issubclass(c, BaseException) and c.__module__ == module.__name__}
    names = {c.__name__ for c in errors}
    assert {"ConfigError", "DataError", "LabelError", "DegenerateInputError"} <= names
    assert [c for c in errors if issubclass(c, ConfigError) == issubclass(c, DataError)] == []


@pytest.mark.parametrize(
    "source,code,prefix",
    [
        (("--synth", "nope"), EXIT_CONFIG, "driftstream: config error: unknown synth profile"),
        (("--input", None, "--label", "label"), EXIT_DATA, "driftstream: data error: "),
    ],
    ids=["unknown-synth-profile", "empty-csv"],
)
def test_fault_found_by_the_cli_prints_one_prefixed_line(tmp_path, capsys, source, code, prefix):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    source = [str(empty) if a is None else a for a in source]
    assert run_cli("run", *source, "-o", str(tmp_path / "x")) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1


def test_boxcox_on_a_constant_warmup_column_is_a_config_error(tmp_path, capsys):
    stream = tmp_path / "s.csv"
    rows = ["tok,y,label"] + [f"{'ab'[i % 2]},{2.0 if i < 300 else i},{i % 2}" for i in range(400)]
    stream.write_text("\n".join(rows) + "\n")
    code = run_cli(
        "run", "--input", str(stream), "--label", "label", "--warmup", "100",
        "--boxcox", "y", "-o", str(tmp_path / "x"),
    )
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'y'" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "line", [b"a" * 200_000 + b",1.0,0", "caf\xe9,1.0,0".encode("latin-1")],
    ids=["field-over-csv-limit", "not-utf-8"],
)
def test_unreadable_csv_is_a_data_error(tmp_path, capsys, line):
    rows = [f"{'ab'[i % 2]},{i % 5}.5,{i % 2}".encode() for i in range(300)]
    rows[150] = line
    stream = tmp_path / "s.csv"
    stream.write_bytes(b"tok,x,label\n" + b"\n".join(rows) + b"\n")
    code = run_cli(
        "run", "--input", str(stream), "--label", "label", "--warmup", "100",
        "-o", str(tmp_path / "x"),
    )
    assert code == EXIT_DATA
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("line", [150, 5000], ids=["in-the-sniffed-rows", "after-row-4096"])
def test_byte_not_utf8_names_its_file_line(tmp_path, capsys, line):
    # schema inference reads the first rows; the stream reader the rest
    rows = [f"{'ab'[i % 2]},{i % 5}.5,{i % 2}".encode() for i in range(6000)]
    rows[line - 2] = b"caf\xe9,1.5,0"  # the header is line 1
    stream = tmp_path / "s.csv"
    stream.write_bytes(b"tok,x,label\n" + b"\n".join(rows) + b"\n")
    code = run_cli(
        "run", "--input", str(stream), "--label", "label", "--warmup", "100",
        "-o", str(tmp_path / "x"),
    )
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert f"s.csv line {line}: byte 0xe9 is not UTF-8" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "row,cells,code",
    [(252, "p,0.5", EXIT_OK), (52, "p,0.5", EXIT_DATA), (252, "p", EXIT_DATA)],
    ids=["no-label-after-warmup", "no-label-in-warmup", "no-numeric-cell"],
)
def test_short_row_gives_a_documented_exit_code(tmp_path, capsys, row, cells, code):
    lines = ["tok,x,label"] + [f"{'pq'[i % 2]},{i % 7}.5,{i % 2}" for i in range(300)]
    lines[row + 1] = cells
    stream = tmp_path / "s.csv"
    stream.write_text("\n".join(lines) + "\n")
    out = tmp_path / "x"
    assert run_cli(
        "run", "--input", str(stream), "--label", "label", "--warmup", "100", "-o", str(out)
    ) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == EXIT_OK:  # the unlabeled row is skipped
        with open(out / "summary.csv", newline="") as fh:
            (summary,) = csv.DictReader(fh)
        assert int(summary["n_predictions"]) == 199
    else:
        assert f"row {row + 2}" in err


def test_boxcox_value_out_of_support_is_a_data_error(tmp_path, capsys):
    gen = tmp_path / "gen"
    assert run_cli(
        "generate", "-o", str(gen), "--n", "3000", "--drift-kind", "sudden",
        "--drift-at", "1500", "--seed", "3",
    ) == EXIT_OK
    code = run_cli(
        "run", "--input", str(gen / "stream.csv"), "--label", "label", "--warmup", "300",
        "--boxcox", "num0", "-o", str(tmp_path / "x"),
    )
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    # the first post-warm-up value below the warm-up minimum by more than 1e-6
    assert "stream index 415 (CSV row 417): num0:" in err and "Traceback" not in err


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
    with open(out / "grid.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    (best_row,) = [r for r in rows if float(r["ph_lambda"]) == best["ph_lambda"]]
    assert float(best_row["accuracy"]) == max(float(r["accuracy"]) for r in rows)


def test_gridsearch_tie_goes_to_the_first_value(tmp_path, small_stream):
    out = tmp_path / "gs"
    code = run_cli(
        "gridsearch", "--input", str(small_stream), "--label", "label",
        "--prefix", "2000", "--warmup", "300",
        "--detector", "page-hinkley", "--strategy", "last",
        "--batch-size", "100", "--lambda", "900,800", "-o", str(out),
    )
    assert code == EXIT_OK
    with open(out / "grid.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # neither threshold raises an alarm, so the two runs are the same
    assert [r["n_drifts"] for r in rows] == ["0", "0"]
    assert rows[0]["accuracy"] == rows[1]["accuracy"]
    assert json.loads((out / "best.json").read_text())["ph_lambda"] == 900.0


def test_gridsearch_empty_grid(tmp_path, small_stream):
    code = run_cli(
        "gridsearch", "--input", str(small_stream), "--label", "label",
        "--detector", "page-hinkley", "--strategy", "last",
        "--lambda", "", "-o", str(tmp_path / "gs"),
    )
    assert code == EXIT_CONFIG


def test_gridsearch_has_no_window(tmp_path, small_stream, capsys):
    # a grid search writes no rolling accuracy, so no --window is read
    code = run_cli(
        "gridsearch", "--input", str(small_stream), "--label", "label", "--warmup", "300",
        "--detector", "page-hinkley", "--lambda", "0.6", "--window", "50",
        "-o", str(tmp_path / "gs"),
    )
    assert code == EXIT_CONFIG
    assert "unrecognized arguments: --window" in capsys.readouterr().err


@pytest.mark.parametrize("grid,loads,code", [("0,0.6", 0, EXIT_CONFIG), ("0.6", 1, EXIT_OK)])
def test_gridsearch_checks_every_grid_value_before_loading(tmp_path, monkeypatch, grid, loads, code):
    calls = []
    generate = evaluation.generate

    def counting(config):
        calls.append(config)
        return generate(config)

    monkeypatch.setattr(evaluation, "generate", counting)
    got = run_cli(
        "gridsearch", "--synth", "paper-like", "--detector", "page-hinkley", "--lambda", grid,
        "--warmup", "300", "--prefix", "2500", "-o", str(tmp_path / "gs"),
    )
    assert (got, len(calls)) == (code, loads)


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


def test_matrix_performance_increase_is_relative_to_the_baseline_row(tmp_path, small_stream):
    # each row's (accuracy - baseline) / baseline, the baseline being the
    # first row's: the paper's 0.5400 -> 0.6938 is an increase of 0.2848
    out = tmp_path / "m"
    code = run_cli(
        "matrix", "--input", str(small_stream), "--label", "label", "--warmup", "300",
        "--batch-sizes", "100", "--detectors", "adwin", "--workers", "1", "-o", str(out),
    )
    assert code == EXIT_OK
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    base = float(rows[0]["accuracy"])
    assert rows[0]["performance_increase"] == "0.000000"
    for row in rows:
        # the file rounds both accuracies to 6 decimals, each off by 5e-7 at most
        expected = (float(row["accuracy"]) - base) / base
        assert float(row["performance_increase"]) == pytest.approx(expected, abs=1e-5)
    assert max(float(r["performance_increase"]) for r in rows) > 0.01


def test_matrix_config_file_can_turn_incremental_off(tmp_path, small_stream):
    cfgfile = tmp_path / "m.cfg"
    cfgfile.write_text("incremental = false\n")
    flags = (
        "--input", str(small_stream), "--label", "label", "--warmup", "300",
        "--batch-sizes", "100", "--detectors", "adwin", "--strategies", "last",
        "--workers", "1",
    )
    outs = {}
    for name, extra in (("file", ("--config", str(cfgfile))), ("flag", ("--no-incremental",))):
        outs[name] = tmp_path / name
        assert run_cli("matrix", *extra, *flags, "-o", str(outs[name])) == EXIT_OK
    with open(outs["file"] / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[4]["incremental"] == "0"  # the grid row
    summary = outs["file"] / "summary.csv"
    assert summary.read_bytes() == (outs["flag"] / "summary.csv").read_bytes()
    resolved = json.loads((outs["file"] / "resolved-config.json").read_text())
    assert resolved["incremental"] is False


@pytest.mark.parametrize(
    "flag,value,read_as",
    [("--detector", "adwin", "--detectors"), ("--batch-size", "70", "--batch-sizes"),
     ("--strategy", "next", None), ("--window", "50", None)],
)
def test_matrix_has_no_flag_of_a_single_cell(tmp_path, small_stream, capsys, flag, value, read_as):
    # matrix takes lists of detectors, batch sizes and strategies; argparse
    # reads --detector and --batch-size as abbreviations of two of them
    common = ("--input", str(small_stream), "--label", "label", "--warmup", "300",
              "--batch-sizes", "100", "--strategies", "last", "--workers", "1")
    code = run_cli("matrix", *common, flag, value, "-o", str(tmp_path / "flag"))
    if read_as is None:
        assert code == EXIT_CONFIG
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        return
    assert code == EXIT_OK
    assert run_cli("matrix", *common, read_as, value, "-o", str(tmp_path / "list")) == EXIT_OK
    summary = (tmp_path / "flag" / "summary.csv").read_bytes()
    assert summary == (tmp_path / "list" / "summary.csv").read_bytes()


@pytest.mark.parametrize("workers", ["0", "-2", "x"])
def test_matrix_checks_its_worker_count_before_loading(tmp_path, small_stream, monkeypatch,
                                                       capsys, workers):
    loads = []
    monkeypatch.setattr(evaluation, "open_csv_stream", lambda *args: loads.append(args) or [])
    code = run_cli(
        "matrix", "--input", str(small_stream), "--label", "label",
        "--warmup", "300", "--batch-sizes", "100", "--workers", workers, "-o", str(tmp_path / "m"),
    )
    assert (code, loads) == (EXIT_CONFIG, [])
    assert "--workers" in capsys.readouterr().err


def test_matrix_loads_its_source_once(tmp_path, small_stream, monkeypatch):
    loads = []
    open_csv_stream = evaluation.open_csv_stream

    def counting(path, *args):
        loads.append(path)
        return open_csv_stream(path, *args)

    monkeypatch.setattr(evaluation, "open_csv_stream", counting)
    code = run_cli(
        "matrix", "--input", str(small_stream), "--label", "label",
        "--warmup", "300", "--batch-sizes", "100", "--workers", "1", "-o", str(tmp_path / "m"),
    )
    assert code == EXIT_OK
    assert loads == [str(small_stream)]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize(
    "cell,message",
    [
        ("a,abc,0", "row 2501: non-numeric value 'abc'"),  # found as the stream loads
        ("a,1.5,7", "stream index 2499 (CSV row 2501): label 7"),  # found as a cell runs
    ],
    ids=["non-numeric-x", "label-after-warmup"],
)
def test_matrix_data_error_names_its_row_for_any_worker_count(tmp_path, capsys, workers, cell,
                                                              message):
    lines = [f"{'abc'[i % 3]},{i % 7}.5,{i % 3}" for i in range(3000)]
    lines[2499] = cell  # file row 2501, after the rows that schema inference reads
    stream = tmp_path / "s.csv"
    stream.write_text("tok,x,label\n" + "\n".join(lines) + "\n")
    code = run_cli(
        "matrix", "--input", str(stream), "--label", "label", "--warmup", "300",
        "--batch-sizes", "100", "--workers", workers, "-o", str(tmp_path / "m"),
    )
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("first", [b"a,0.5,0", b'"a",0.5,0'], ids=["bytes", "csv-reader"])
def test_bad_cell_is_reported_before_a_later_chunks_byte_not_utf8(tmp_path, capsys, first):
    """A file whose second chunk holds a non-numeric cell and whose third
    holds a byte that is not UTF-8 on its fourth line stops at the bad cell:
    the chunks are judged in turn. With its first cell quoted, ``csv.reader``
    reads the file, and its decoder's read-ahead meets the byte before the
    second chunk is complete."""
    lines = [f"{'abc'[i % 3]},{i % 13}.5,{i % 3}".encode() for i in range(3 * CHUNK_ROWS)]
    lines[0] = first
    lines[CHUNK_ROWS + 10] = b"a,abc,0"  # file row CHUNK_ROWS + 12
    lines[2 * CHUNK_ROWS + 3] = b"\xff,1.5,0"
    stream = tmp_path / "s.csv"
    stream.write_bytes(b"tok,x,label\n" + b"\n".join(lines) + b"\n")
    code = run_cli("run", "--input", str(stream), "--label", "label", "-o", str(tmp_path / "r"))
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert f"row {CHUNK_ROWS + 12}: non-numeric value 'abc'" in err and "Traceback" not in err


def test_matrix_with_a_zero_baseline_accuracy_is_a_data_error(tmp_path, capsys):
    # a warm-up as long as the stream leaves the baseline no predictions,
    # so its accuracy is 0 and no performance increase can be computed
    assert run_cli("generate", "-o", str(tmp_path / "g"), "--n", "400", "--seed", "3") == EXIT_OK
    stream, out = str(tmp_path / "g" / "stream.csv"), tmp_path / "m"
    common = ("--input", stream, "--label", "label", "--warmup", "400")
    code = run_cli("matrix", *common, "--batch-sizes", "50", "--workers", "1", "-o", str(out))
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert "baseline accuracy is 0" in err and "Traceback" not in err
    assert not (out / "summary.csv").exists()
    assert run_cli("run", *common, "-o", str(tmp_path / "r")) == EXIT_OK
    grid = ("--detector", "page-hinkley", "--strategy", "last", "--lambda", "0.6")
    assert run_cli("gridsearch", *common, *grid, "-o", str(tmp_path / "s")) == EXIT_OK


# -- inspect ------------------------------------------------------------------


def test_inspect_synth_hidden_context_column(tmp_path):
    out = tmp_path / "ins"
    code = run_cli(
        "inspect", "--synth", "paper-like", "--feature", "automation",
        "--window", "1000", "-o", str(out),
    )
    assert code == EXIT_OK
    rows = (out / "inspect_automation.csv").read_text().splitlines()
    assert len(rows) == 1 + 70774


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
