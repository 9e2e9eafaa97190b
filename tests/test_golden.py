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
