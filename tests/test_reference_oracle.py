"""The frozen reference copy as a differential oracle.

``perfbench/reference/driftstream`` is the per-row engine as it was when the
benchmark was added, and it never changes. It is loaded in process as
``driftstream_ref``. Both packages' ``cli.main`` run the same command into
two directories; both must exit 0 and write the same files, byte for byte,
``resolved-config.json`` aside (it records the flags as each parser holds
them). The stream a command reads is also written back through each
package's CSV reader and writer, and those files must be equal too.

Domain: valid inputs only. Streams come from ``generate`` (600-4,000 rows,
every drift kind, 2-5 classes, with and without categorical or numeric
features and the hidden-context column) or are awkward CSVs (600-5,000
rows, so some span two 4,096-row read chunks, with tokens quoted for ``,``
and ``"``, empty and non-ASCII tokens, and unlabeled rows after the longest
warm-up). Every experiment flag is drawn inside its documented range, and
the warm-up is at most half the stream. What changed on purpose since the
copy was frozen is outside the domain: error wording, exit codes on bad
input, ``resolved-config.json`` and console text. ``run`` is compared at
every size; ``matrix``, ``gridsearch`` and ``inspect`` on streams of at most
1,500 rows. ``matrix`` runs with ``--workers 1`` only, because the copy's
worker processes would import the current ``driftstream`` by name.
"""

import csv
import importlib
import importlib.util
import random
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream import cli
from driftstream.detectors import Adwin
from driftstream.stream_core import FeatureSchema, Table, infer_schema, open_csv_stream
from driftstream.synth import write_csv

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "driftstream"


def _load_reference():
    """The reference package, imported as ``driftstream_ref``; its relative
    imports resolve inside it."""
    spec = importlib.util.spec_from_file_location(
        "driftstream_ref", REFERENCE / "__init__.py", submodule_search_locations=[str(REFERENCE)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["driftstream_ref"] = module
    spec.loader.exec_module(module)
    return module


ref = _load_reference()
ref_cli = importlib.import_module("driftstream_ref.cli")
ref_detectors = importlib.import_module("driftstream_ref.detectors")

ORACLE = settings(derandomize=True, database=None, deadline=None)
SMALL = 1500  # the most rows on which matrix, gridsearch and inspect run
STRATEGIES = ["last", "mixed", "next"]
LAMBDAS = st.floats(0.05, 5.0)  # Page-Hinkley thresholds
DELTAS = st.floats(1e-4, 0.5)  # ADWIN confidences


def assert_same_outputs(tmp: Path, args: list[str]) -> Path:
    """Run ``args`` with both packages and compare what they write; return
    the current package's output directory."""
    outs = []
    for name, main in (("ref", ref_cli.main), ("cur", cli.main)):
        out = tmp / name
        assert main([*args, "--quiet", "-o", str(out)]) == cli.EXIT_OK, (name, args)
        outs.append(out)
    names = [sorted(p.name for p in out.iterdir() if p.name != "resolved-config.json")
             for out in outs]
    assert names[0] == names[1], args
    for name in names[0]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), (name, args)
    return outs[1]


# -- streams ------------------------------------------------------------------


@st.composite
def sizes(draw, most: int) -> int:
    """A row count in [600, most], from each quarter of the range alike (a
    plain ``st.integers`` keeps to the small end)."""
    quarter = (most - 600) // 4
    return 600 + draw(st.integers(0, 3)) * quarter + draw(st.integers(0, quarter))


@st.composite
def generate_flags(draw, max_rows):
    n = draw(sizes(max_rows))
    kind = draw(st.sampled_from(["none", "sudden", "gradual", "recurring"]))
    n_cat = draw(st.integers(0, 3))
    flags = [
        "generate", "--n", str(n), "--n-categorical", str(n_cat),
        "--n-numeric", str(draw(st.integers(0 if n_cat else 1, 2))),
        "--n-classes", str(draw(st.integers(2, 5))),
        "--n-categories", str(draw(st.integers(2, 8))),
        "--drift-kind", kind, "--seed", str(draw(st.integers(0, 10**6))),
    ]
    if kind != "none":
        flags += ["--drift-at", str(draw(st.integers(1, n - 1))),
                  "--magnitude", repr(draw(st.floats(0.0, 1.0)))]
    if kind in ("gradual", "recurring"):
        flags += ["--drift-width", str(draw(st.integers(1, n // 2)))]
    if draw(st.booleans()):
        flags.append("--hidden-context")
    return flags


ACTS = ["a,b", 'a"b', "a", "ab", "", "x y", 'q"uo,te', "añb"]
# no resource holds ",", so in this column a '"' alone makes the writer quote
RESOURCES = ["café", "naïve", "日本語", "日本", "Ω", "", "plain", 'say "hi"']


def write_awkward_csv(path: Path, n: int, n_classes: int, seed: int) -> None:
    """A stream whose act-to-label mapping drifts halfway, with tokens that
    need quoting, empty and non-ASCII tokens, padded numeric cells, a token
    first seen after the warm-up and unlabeled rows in the second half."""
    rng = random.Random(seed)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["act", "dur", "res", "label"])
        for i in range(n):
            a = rng.randrange(len(ACTS))
            act = "late,new" if i > n // 2 and rng.random() < 0.05 else ACTS[a]
            base = (a + (i >= n // 2)) % n_classes
            label = base if rng.random() < 0.75 else rng.randrange(n_classes)
            dur = repr(rng.lognormvariate(label, 0.5))
            if i % 97 == 0:
                dur = f" {dur} "
            unlabeled = i > n // 2 and rng.random() < 0.05
            writer.writerow([act, dur, RESOURCES[rng.randrange(len(RESOURCES))],
                             "" if unlabeled else label])


@st.composite
def streams(draw, max_generated, max_awkward):
    """(kind, arguments) of a stream: ``generate`` flags or the size,
    class count and seed of an awkward CSV."""
    if draw(st.booleans()):
        return "generate", draw(generate_flags(max_generated))
    return "awkward", (draw(sizes(max_awkward)), draw(st.integers(2, 5)),
                       draw(st.integers(0, 10**6)))


def make_stream(tmp: Path, stream) -> tuple[Path, Table, FeatureSchema]:
    """Write the stream, by both packages where ``generate`` writes it, and
    return the path of its CSV, its table and its schema. Its rewrite through
    each package's reader and writer must be equal too."""
    kind, args = stream
    if kind == "generate":
        path = assert_same_outputs(tmp / "generate", args) / "stream.csv"
    else:
        path = tmp / "awkward.csv"
        write_awkward_csv(path, *args)
    schema = infer_schema(path, "label", ())
    table = Table.concat(schema, open_csv_stream(path, schema))
    cur = tmp / "rewrite-cur.csv"
    write_csv(table, schema, cur)
    ref_schema = ref.FeatureSchema(schema.features, label_column=schema.label_column)
    ref_out = tmp / "rewrite-ref.csv"
    ref.write_csv(list(ref.open_csv_stream(path, ref_schema)), ref_schema, ref_out)
    assert cur.read_bytes() == ref_out.read_bytes(), stream
    return path, table, schema


# -- configs ------------------------------------------------------------------


@st.composite
def encoder_flags(draw, table: Table, schema: FeatureSchema):
    """``--boxcox`` on numeric features whose every value is positive (a
    value the warm-up's shift leaves at or below 0 is a data error), and
    ``--prefix-len`` on categorical ones."""
    flags = []
    positive = [n for n in schema.numeric_names if table.columns[n].min() > 0]
    boxcox = draw(st.lists(st.sampled_from(positive), unique=True) if positive else st.just([]))
    if boxcox:
        flags += ["--boxcox", ",".join(boxcox)]
    prefix = draw(st.lists(st.sampled_from(schema.categorical_names), unique=True)
                  if schema.categorical_names else st.just([]))
    if prefix:
        flags += ["--prefix-len", ",".join(f"{n}={draw(st.integers(1, 3))}" for n in prefix)]
    return flags


@st.composite
def learning_flags(draw, n: int):
    """Warm-up (at most half the stream), mini-batch and Page-Hinkley's
    delta and burn-in, all inside their ranges."""
    return [
        "--warmup", str(draw(st.integers(100, n // 2))),
        "--mini-batch", str(draw(st.integers(1, 50))),
        "--ph-delta", repr(draw(st.floats(0.0, 0.05))),
        "--burn-in", str(draw(st.integers(0, 60))),
    ]


@st.composite
def run_flags(draw, table: Table, schema: FeatureSchema):
    detector = draw(st.sampled_from(["none", "page-hinkley", "adwin"]))
    flags = ["--detector", detector, *draw(learning_flags(len(table))),
             "--window", str(draw(st.integers(1, 1500))), *draw(encoder_flags(table, schema))]
    if detector != "none":
        flags += ["--strategy", draw(st.sampled_from(STRATEGIES)),
                  "--batch-size", str(draw(st.integers(1, 600)))]
    if detector == "page-hinkley":
        flags += ["--lambda", repr(draw(LAMBDAS))]
    if detector == "adwin":
        flags += ["--delta", repr(draw(DELTAS))]
    if draw(st.booleans()):
        flags.append("--incremental")
    return flags


# -- the oracle ---------------------------------------------------------------


@settings(ORACLE, max_examples=40)
@given(stream=streams(4000, 5000), data=st.data())
def test_run_writes_what_the_reference_writes(tmp_path_factory, stream, data):
    tmp = tmp_path_factory.mktemp("oracle-run")
    path, table, schema = make_stream(tmp, stream)
    flags = data.draw(run_flags(table, schema))
    assert_same_outputs(tmp / "run", ["run", "--input", str(path), "--label", "label", *flags])


@settings(ORACLE, max_examples=8)
@given(stream=streams(SMALL, SMALL), data=st.data())
def test_matrix_gridsearch_and_inspect_write_what_the_reference_writes(
    tmp_path_factory, stream, data
):
    tmp = tmp_path_factory.mktemp("oracle-small")
    path, table, schema = make_stream(tmp, stream)
    n = len(table)
    source = ["--input", str(path), "--label", "label"]
    common = [*data.draw(learning_flags(n)), *data.draw(encoder_flags(table, schema))]
    detectors = data.draw(st.lists(st.sampled_from(["page-hinkley", "adwin"]),
                                   min_size=1, unique=True))
    strategies = data.draw(st.lists(st.sampled_from(STRATEGIES), min_size=1, unique=True))
    matrix = [
        "matrix", *source, *common, "--workers", "1",
        "--detectors", ",".join(detectors), "--strategies", ",".join(strategies),
        "--batch-sizes", str(data.draw(st.integers(1, 600))),
        "--lambda", repr(data.draw(LAMBDAS)),
        "--delta", repr(data.draw(DELTAS)),
    ]
    if data.draw(st.booleans()):
        matrix.append("--no-incremental")
    assert_same_outputs(tmp / "matrix", matrix)

    detector = detectors[0]
    grid = data.draw(st.lists(LAMBDAS if detector == "page-hinkley" else DELTAS,
                              min_size=1, max_size=3))
    gridsearch = [
        "gridsearch", *source, *common, "--detector", detector, "--strategy", strategies[0],
        "--batch-size", str(data.draw(st.integers(1, 600))),
        "--prefix", str(data.draw(st.integers(n // 2 + 100, n))),
        "--lambda" if detector == "page-hinkley" else "--delta", ",".join(map(repr, grid)),
    ]
    if data.draw(st.booleans()):
        gridsearch.append("--incremental")
    assert_same_outputs(tmp / "gridsearch", gridsearch)

    for feature in schema.numeric_names:
        window = str(data.draw(st.integers(1, 1500)))
        assert_same_outputs(tmp / f"inspect-{feature}",
                            ["inspect", *source, "--feature", feature, "--window", window])


# -- ADWIN's histogram --------------------------------------------------------


@settings(ORACLE, max_examples=80)
@given(
    lengths=st.tuples(st.integers(0, 2000), st.integers(0, 2000)),
    rates=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    delta=st.sampled_from([0.5, 0.1, 0.01, 0.001]),
    reset_at=st.integers(0, 4000),
    seed=st.integers(0, 10**6),
)
def test_adwin_keeps_the_reference_histogram(lengths, rates, delta, reset_at, seed):
    """One 0/1 stream of two segments, each with its own error rate, through
    both detectors, with a reset of both at one row: after every observation
    they agree on the alarm, the width, the total and every row's bucket
    totals, and each reference bucket in row i holds 2**i observations."""
    rng = random.Random(seed)
    xs = [float(rng.random() < rate) for n, rate in zip(lengths, rates) for _ in range(n)]
    cur, old = Adwin(delta), ref_detectors.Adwin(delta)
    for t, x in enumerate(xs):
        if t == reset_at:
            cur.reset()
            old.reset()
        assert cur.observe(x) == old.observe(x), t
        assert (cur.width, cur.total) == (old.width, old.total), t
        assert len(cur.rows) == len(old.rows), t
        for i, (row, old_row) in enumerate(zip(cur.rows, old.rows)):
            assert list(row) == [b.total for b in old_row], (t, i)
            assert all(b.count == 1 << i for b in old_row), (t, i)
