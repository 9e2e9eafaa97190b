"""Golden output digests: ``run`` on a small generated stream must keep
writing byte-identical ``records.csv`` and ``summary.csv`` across changes to
the engine. The digests were recorded before the columnar adaptive path
(column windows, column fit/update, one log-table pass per score) landed;
a change that moves one must say why and record the new digest (a failing
case prints the digests it got). The ``matrix`` digests were recorded before
the baseline rows joined the grid cells in one ``experiment_matrix`` call;
they pin the rows' order and values, for either worker count.
"""

import hashlib

import pytest

from driftstream.cli import EXIT_OK, main

STREAM = [
    "generate", "--n", "6000", "--drift-kind", "sudden", "--drift-at", "3000",
    "--seed", "11", "--quiet",
]
BATCH_SIZE = "301"  # odd, so a mixed window splits 151 before / 150 after
WARMUP = "1000"  # leaves 5,000 rows: more than one 4,096-row encode chunk

# (detector, strategy, incremental) -> sha256 of (stream.csv, records.csv, summary.csv)
GOLDEN = {
    ('page-hinkley', 'last', True): (
        "156085f94cb5c43bcf19f2c144e4c98ecf7ac46202994826c22ce0be39a76dff",
        "070997709c88765de52ae882073e70d3e3a3c57f46e7df59cb1f6564c684b64b",
        "ea4620e9fdfb3d48b2021c93eeb4c40bbaf670408973bdd5740468703b6cef57",
    ),
    ('page-hinkley', 'last', False): (
        "156085f94cb5c43bcf19f2c144e4c98ecf7ac46202994826c22ce0be39a76dff",
        "626cab9fb1d6e94640608586835ffecdfdf299e4e265efa43b615dc12c5440e6",
        "cb8706d21aebb08a45f2bf9e1b7283a4c1993149395cb001e9a316c2e99833cb",
    ),
    ('page-hinkley', 'mixed', True): (
        "156085f94cb5c43bcf19f2c144e4c98ecf7ac46202994826c22ce0be39a76dff",
        "bf08be9cfdab47ebe7d39fa58c035c3f5623111672f444c0233cb3c00684dabb",
        "9ba13b4b2ec6532efb4fb0c24b0873c5d95c3ac358d82c4660e064b6156c9c96",
    ),
    ('page-hinkley', 'mixed', False): (
        "156085f94cb5c43bcf19f2c144e4c98ecf7ac46202994826c22ce0be39a76dff",
        "af1c7ba49abf0ee8d90843c8f722dfb9892a76fc6602969f463cef069b8b0ad0",
        "61f4d5c4e196f6441e4958a7caf56d107cd651c2491bbfdf9ca724d7b72939e1",
    ),
    ('page-hinkley', 'next', True): (
        "156085f94cb5c43bcf19f2c144e4c98ecf7ac46202994826c22ce0be39a76dff",
        "a4369c2a99a9147849bc87254524b1fa9e9caa77ac248bfb1bb882c4dab962af",
        "849f37236b1604fe1ca2c47569b026209ee5290093888cdad09cb5718308c6c6",
    ),
    ('page-hinkley', 'next', False): (
        "156085f94cb5c43bcf19f2c144e4c98ecf7ac46202994826c22ce0be39a76dff",
        "08892fc64ded084100daaa40c4a6dab19d9ab63fe5655766e5148406ebfbd1fc",
        "b340fa1e841c0717581e9ce441dfeabf24e3538a12ef2572836d085053beefa1",
    ),
    ('adwin', 'last', True): (
        "156085f94cb5c43bcf19f2c144e4c98ecf7ac46202994826c22ce0be39a76dff",
        "54d70bb4c37f5e980b3bb563d6f36f05001c8d484ca3b3d00ad43db3ab737a2a",
        "961363fd5579ef09df587b54213390557c525315e5452f98112a450e9f034a2b",
    ),
    ('adwin', 'last', False): (
        "156085f94cb5c43bcf19f2c144e4c98ecf7ac46202994826c22ce0be39a76dff",
        "34c1a5bc370925744b38dcb5490f2b097a37237514dc831396b85f348e499da5",
        "31a631b4578c7b48da117a8f0623ff4a47edf04f77796eeb7c7815770ffb09a3",
    ),
    ('adwin', 'mixed', True): (
        "156085f94cb5c43bcf19f2c144e4c98ecf7ac46202994826c22ce0be39a76dff",
        "84d17b299d807e3688492f6c43c1006c7494d1a8858b228ff24f78a12e236759",
        "6f7d749c22eab75d06d390eb6c7ee244323d49ae8139d16fd7686b3218d99a81",
    ),
    ('adwin', 'mixed', False): (
        "156085f94cb5c43bcf19f2c144e4c98ecf7ac46202994826c22ce0be39a76dff",
        "45543e976e5c4814a948634e4efa8c98724fadf23beec602de7c7e3d5c97708b",
        "0a65d8b0cecab75017e29a1e61ff16b317ea2db00a9635d0e02014ac892a0d93",
    ),
    ('adwin', 'next', True): (
        "156085f94cb5c43bcf19f2c144e4c98ecf7ac46202994826c22ce0be39a76dff",
        "7c78a8ced2d14b677d355537b8ef71bf2be1caf985dd1c9e4e613b30399399f0",
        "5e1006d56d3be95d038c69c69de91de7233b656d996f9386096e2f9432362d96",
    ),
    ('adwin', 'next', False): (
        "156085f94cb5c43bcf19f2c144e4c98ecf7ac46202994826c22ce0be39a76dff",
        "5d7bd25fa90d0bf85e47db47fd74cf2cd5b6efc9f056f4c8a3acb1b500eb3848",
        "373fb54d126a5309cd132539f8b710dfc51620787a3673aa4a070f1b22bc6bb2",
    ),
}


@pytest.fixture(scope="module")
def stream_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden-stream")
    assert main([*STREAM, "-o", str(out)]) == EXIT_OK
    return out / "stream.csv"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("incremental", [True, False], ids=["incremental", "retrain-only"])
@pytest.mark.parametrize("strategy", ["last", "mixed", "next"])
@pytest.mark.parametrize("detector", ["page-hinkley", "adwin"])
def test_run_outputs_match_recorded_digests(tmp_path, stream_csv, detector, strategy, incremental):
    out = tmp_path / "run"
    flags = [
        "run", "--input", str(stream_csv), "--label", "label",
        "--detector", detector, "--strategy", strategy, "--batch-size", BATCH_SIZE,
        "--warmup", WARMUP, "--quiet", "-o", str(out),
    ]
    assert main(flags + (["--incremental"] if incremental else [])) == EXIT_OK
    got = tuple(sha256(p) for p in (stream_csv, out / "records.csv", out / "summary.csv"))
    assert got == GOLDEN[(detector, strategy, incremental)], f"digests now {got}"


# learning mode -> sha256 of matrix summary.csv (4 baseline rows, then
# 2 detectors x 1 batch size x 3 strategies)
GOLDEN_MATRIX = {
    True: "05b759ba7a6a17d585d5557a7e10b98142e3ebd178e429e726a00959bf8b6799",
    False: "45a5ccc1b7461fac611e6fe4c8b089c2214632fcce90fcb816ecf92946ea26fb",
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("incremental", [True, False], ids=["incremental", "retrain-only"])
def test_matrix_summary_matches_recorded_digest(tmp_path, stream_csv, incremental, workers):
    out = tmp_path / "matrix"
    flags = [
        "matrix", "--input", str(stream_csv), "--label", "label",
        "--warmup", WARMUP, "--batch-sizes", BATCH_SIZE, "--workers", workers,
        "--quiet", "-o", str(out),
    ]
    assert main(flags + ([] if incremental else ["--no-incremental"])) == EXIT_OK
    got = sha256(out / "summary.csv")
    assert got == GOLDEN_MATRIX[incremental], f"digest now {got}"


# -- generator, reader and encoder paths --------------------------------------
# These digests were recorded before the stream sources became columnar
# (``stream_core.Table``): they pin the generator's values for every drift
# kind and feature mix, the reader and encoder under --boxcox, --prefix-len
# and --bin-days, and ``inspect`` on a hidden-context column.

GENERATE_CASES = {
    "hidden-context": [
        "--n", "3000", "--drift-kind", "sudden", "--drift-at", "1500", "--hidden-context",
    ],
    "gradual": [
        "--n", "3000", "--drift-kind", "gradual", "--drift-at", "1000", "--drift-width", "800",
    ],
    "recurring": [
        "--n", "3000", "--drift-kind", "recurring", "--drift-at", "1000", "--drift-width", "300",
    ],
    "no-numeric": [
        "--n", "3000", "--n-numeric", "0", "--drift-kind", "sudden", "--drift-at", "1500",
    ],
    "no-categorical": [
        "--n", "3000", "--n-categorical", "0", "--drift-kind", "sudden", "--drift-at", "1500",
    ],
}

# case -> sha256 of (stream.csv, concepts.csv)
GOLDEN_GENERATE = {
    "hidden-context": (
        "63dbe4fd599fdef783c051e7613e556c22a0895b56fa7146543fc7b8d27ea46b",
        "906bd606d7019eaf68ac27aef46cd76220412bd704ede2ddf7ad20fcfd0b496a",
    ),
    "gradual": (
        "72f737e191f0e0f5cdaa4e62342a9a4b1e4946e0f139d8a5f5b72439fdce090c",
        "48fe282358b0c3d1b3f5b4e1527eb43973a9aef771cf4343114bec9ec020260f",
    ),
    "no-categorical": (
        "f09b0d9764274bb8aea1472e8c34107dc22e69dc2d6079a4c1bf6d5a9df6d38c",
        "906bd606d7019eaf68ac27aef46cd76220412bd704ede2ddf7ad20fcfd0b496a",
    ),
    "no-numeric": (
        "d192feaa44b99c28a16f31a8268ef9d33279b042c4c43891aec0a9d58df295a2",
        "906bd606d7019eaf68ac27aef46cd76220412bd704ede2ddf7ad20fcfd0b496a",
    ),
    "recurring": (
        "f517c92dbecfc9e9e55bb84c2ec252edd0aa1fea341d0119e41699488e04ac90",
        "1bcd516ccb91c3d18d0fdab3a78d55bce00d60cff880efe182f4cc44db39c333",
    ),
}


@pytest.mark.parametrize("case", sorted(GENERATE_CASES))
def test_generate_outputs_match_recorded_digests(tmp_path, case):
    flags = ["generate", *GENERATE_CASES[case], "--seed", "3", "--quiet", "-o", str(tmp_path)]
    assert main(flags) == EXIT_OK
    got = tuple(sha256(tmp_path / name) for name in ("stream.csv", "concepts.csv"))
    assert got == GOLDEN_GENERATE.get(case), f"digests now {got}"


@pytest.fixture(scope="module")
def hidden_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden-hidden")
    flags = ["generate", *GENERATE_CASES["hidden-context"], "--seed", "3", "--quiet"]
    assert main([*flags, "-o", str(out)]) == EXIT_OK
    return out / "stream.csv"


@pytest.fixture(scope="module")
def hours_csv(tmp_path_factory, stream_csv):
    """The golden stream with its class label written as an hours-valued
    target that ``--bin-days 6,39`` bins back into the same classes."""
    path = tmp_path_factory.mktemp("golden-hours") / "hours.csv"
    lines = stream_csv.read_text(encoding="utf-8").splitlines()
    out = [lines[0]]
    for i, line in enumerate(lines[1:]):
        head, _, label = line.rpartition(",")
        out.append(f"{head},{int(label) * 500 + (i % 7) * 3.5}")
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
    return path


RUN_CASES = {
    "boxcox": ["--boxcox", "automation"],
    "prefix-len": ["--prefix-len", "cat0=1,cat2=1"],
    "bin-days": ["--bin-days", "6,39"],
}

# case -> sha256 of (records.csv, summary.csv)
GOLDEN_RUN_ENCODER = {
    # the hours target bins back into the golden stream's classes, so this
    # run writes what the page-hinkley/last/incremental golden run writes
    "bin-days": (
        "070997709c88765de52ae882073e70d3e3a3c57f46e7df59cb1f6564c684b64b",
        "ea4620e9fdfb3d48b2021c93eeb4c40bbaf670408973bdd5740468703b6cef57",
    ),
    "boxcox": (
        "0df7926f8aebc55cd9cd8a68a9f5463d11223cc8e7539e5504b7e267dff95b58",
        "b838d3d35efdd0c0356c3b6cebe7a1ece4d4b92feb63c78845825b49bb9ae64b",
    ),
    "prefix-len": (
        "a747eea50bf76a7380a241b65599422c4b82e060aac5e259ee1f91dae2617964",
        "f44929dcefa6dc134e2d9eaa7c8e3fb14c90f2c36f04e318518c599ae675fe15",
    ),
}


@pytest.mark.parametrize("case", sorted(RUN_CASES))
def test_run_encoder_settings_match_recorded_digests(
    tmp_path, stream_csv, hidden_csv, hours_csv, case
):
    source = {"boxcox": hidden_csv, "bin-days": hours_csv}.get(case, stream_csv)
    flags = [
        "run", "--input", str(source), "--label", "label", *RUN_CASES[case],
        "--detector", "page-hinkley", "--strategy", "last", "--batch-size", BATCH_SIZE,
        "--incremental", "--warmup", WARMUP, "--quiet", "-o", str(tmp_path),
    ]
    assert main(flags) == EXIT_OK
    got = tuple(sha256(tmp_path / name) for name in ("records.csv", "summary.csv"))
    assert got == GOLDEN_RUN_ENCODER.get(case), f"digests now {got}"


# source -> sha256 of inspect_automation.csv
GOLDEN_INSPECT = {
    "synth": "79e0e781d011f8ead31f07347010094f2e4a5775086874a40737d50dd8ed3bfe",
    "input": "f9e3d97f8e63784f0431bcf359e17f3cbf642cfc21c3fbcc1a990d9232ce7580",
}


@pytest.mark.parametrize("source", ["synth", "input"])
def test_inspect_hidden_context_matches_recorded_digest(tmp_path, hidden_csv, source):
    if source == "synth":
        flags = ["--synth", "paper-like", "--seed", "42"]
    else:
        flags = ["--input", str(hidden_csv), "--label", "label"]
    out = tmp_path / "inspect"
    assert main(["inspect", *flags, "--feature", "automation", "--window", "500",
                 "--quiet", "-o", str(out)]) == EXIT_OK
    got = sha256(out / "inspect_automation.csv")
    assert got == GOLDEN_INSPECT.get(source), f"digest now {got}"
