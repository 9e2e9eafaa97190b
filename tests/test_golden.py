"""Golden output digests: ``run`` on a small generated stream must keep
writing byte-identical ``records.csv``, ``curves.csv``, ``events.csv`` and
``summary.csv`` across changes to the engine. The digests were recorded before the columnar adaptive path
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
    got = tuple(sha256(out / name) for name in ("curves.csv", "events.csv"))
    assert got == GOLDEN_CURVES_EVENTS[(detector, strategy, incremental)], f"digests now {got}"


# The curves.csv and events.csv digests of the cases above, and the digests
# of every output of the runs below, were recorded before the prequential
# records became columns (one record block per scored block, written from
# the columns).
# (detector, strategy, incremental) -> sha256 of (curves.csv, events.csv)
GOLDEN_CURVES_EVENTS = {
    ('page-hinkley', 'last', True): (
        "3d753a649c6bea86ef99b442d2a494f8b9f5d96f166984300bff991db28fd849",
        "d56c9b809f255e21d193e1f7721bb55b70b875691596d065b616ca7b04d2b227",
    ),
    ('page-hinkley', 'last', False): (
        "e6a319f2706066e342692ec8cda322367e00021b7653fb98ea250dd69c0c1904",
        "b7d5e7a13274a8f543e9dad25440992c291545fbe11c06b00446b1c7c10f9511",
    ),
    ('page-hinkley', 'mixed', True): (
        "69966974997db1fd84c7daebcae2896012fd2ed3a43cc46b541ee66723f953a2",
        "0b9e164945272e51be1fdcbd82046e07915629d802774eaf2b8df2a4a04cacdd",
    ),
    ('page-hinkley', 'mixed', False): (
        "7a96869df7b4e605e41a8825b15402f02887104eceed596f718d157bdfb95ea9",
        "b4beb756915c4ec6afc426013c21a3e03b7067090f130250deaf9d52a0103bb5",
    ),
    ('page-hinkley', 'next', True): (
        "9c6caa012f26cd3f3552dd0a9da0367bd6be7bca9984429849d2c56a7296f5fa",
        "5677782a0f49e18f37ebdb019e0f0b8ea616c9da7531edd195061d2d2c8060a3",
    ),
    ('page-hinkley', 'next', False): (
        "03fcb88e7b329a62d0871f618d7437afc19006963cf1bf411c6562896481bb84",
        "cd18e8cee9ca246c788ecddffdd12b3922be8221e8aecd2c35f9c6d8f34dab7c",
    ),
    ('adwin', 'last', True): (
        "37fc28120c07692486c4f885b944ce4032215ad2823e241222b4d4cb2b4b41bc",
        "a0c402d5ebf66afd3dbadbd5d85da5028278ea09f6b26020a7a729e37b12ffa1",
    ),
    ('adwin', 'last', False): (
        "d15846563334a854831e548e7dec7badc22ee65ade4b73f73092a143e1b7fae6",
        "a0c402d5ebf66afd3dbadbd5d85da5028278ea09f6b26020a7a729e37b12ffa1",
    ),
    ('adwin', 'mixed', True): (
        "2f205eaf619c3e0590084c7d319dbc8c2396bf4805567536dcfe153cee5564ff",
        "90201ebd9a30557246fec8c9de5e96482e347f65231266aa602d4c12ce34c9f7",
    ),
    ('adwin', 'mixed', False): (
        "f519c071746af6eb104f6ddf586cfd2cfdf3a419b357da5ac2feefdd10782a68",
        "90201ebd9a30557246fec8c9de5e96482e347f65231266aa602d4c12ce34c9f7",
    ),
    ('adwin', 'next', True): (
        "8d195e5895eb113c3c7dbf59f8dfd8ef652ca2d0e80dd41e3f96365ca4970820",
        "8464f55a1e35fb9491184804767f0d6ea2fccae6a0a44935f8947db7c2a94ce6",
    ),
    ('adwin', 'next', False): (
        "eab28e7f6a58d4921098466e98d35a778677b8d4c50b2557df823606097188e2",
        "8464f55a1e35fb9491184804767f0d6ea2fccae6a0a44935f8947db7c2a94ce6",
    ),
}

RUN_MODE_CASES = {
    "static": [],
    "incremental-only": ["--incremental", "--mini-batch", "7"],
    "window-7": [
        "--detector", "page-hinkley", "--strategy", "last", "--batch-size", BATCH_SIZE,
        "--incremental", "--window", "7",
    ],
}

# case -> sha256 of (records.csv, curves.csv, events.csv, summary.csv)
GOLDEN_RUN_MODES = {
    'incremental-only': (
        "38b6ea70245435346e8a98bfb2a6ed79bd70db51d91c0cf1da047431be91701c",
        "8fce8f02d522de207366d353883b9a887b510aaa70960624491646be82025176",
        "4afb1a8ec8ba1c13786db0d8b556cb131f82f8beac3cf9130e55e47726cdf0ae",
        "0e9bf26e312047340c1d2fff4dea29b7de19afc0438ea9e65e7697a0388b24d6",
    ),
    'static': (
        "8f44a5ffc448ec39c93a20baa0391e8ee453f9161cfd7daf9f0099fabdf975f8",
        "9eed7c78cd56d80236c37928ee1401b4504d4c6b0c2bf0d0f0c6b1564e7a0faf",
        "4afb1a8ec8ba1c13786db0d8b556cb131f82f8beac3cf9130e55e47726cdf0ae",
        "5773353de63b40d550b710518ae3615b3d7a00578c76f3335fec76028fc85787",
    ),
    'window-7': (
        "9270597fe5e2f85a7388120eb6ec3b8e5f53c38d0f4243c2efe5ff2c9aa126b9",
        "455c94d1088b8c77627b9a3c655151fc6a1825ac7693ad296e595eab107c09f3",
        "d56c9b809f255e21d193e1f7721bb55b70b875691596d065b616ca7b04d2b227",
        "ea4620e9fdfb3d48b2021c93eeb4c40bbaf670408973bdd5740468703b6cef57",
    ),
}


@pytest.mark.parametrize("case", sorted(RUN_MODE_CASES))
def test_run_modes_match_recorded_digests(tmp_path, stream_csv, case):
    flags = [
        "run", "--input", str(stream_csv), "--label", "label", *RUN_MODE_CASES[case],
        "--warmup", WARMUP, "--quiet", "-o", str(tmp_path),
    ]
    assert main(flags) == EXIT_OK
    names = ("records.csv", "curves.csv", "events.csv", "summary.csv")
    got = tuple(sha256(tmp_path / name) for name in names)
    assert got == GOLDEN_RUN_MODES.get(case), f"digests now {got}"


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


# -- an awkward CSV -----------------------------------------------------------
# These digests were recorded before categorical columns became dictionary
# columns (codes plus a vocabulary) and stream indices int64 arrays. The
# stream holds tokens quoted for "," and '"', empty categorical cells,
# non-ASCII tokens, unlabeled rows, a category first seen after the warm-up
# and one seen in only one 4,096-row read chunk, over more than 4,096 rows.

AWKWARD_ROWS = 6000
AWKWARD_ACTS = ["a,b", 'a"b', "a", "ab", "", "x y", 'q"uo,te', "añb"]
AWKWARD_RESOURCES = ["café", "naïve", "日本語", "日本", "Ω", "", "plain"]


@pytest.fixture(scope="module")
def awkward_csv(tmp_path_factory):
    import csv
    import random

    rng = random.Random(7)
    path = tmp_path_factory.mktemp("golden-awkward") / "awkward.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["act", "dur", "res", "label"])
        for i in range(AWKWARD_ROWS):
            a = rng.randrange(len(AWKWARD_ACTS))
            act = AWKWARD_ACTS[a]
            if 2500 <= i and rng.random() < 0.05:
                act = "late,new"  # first seen after the warm-up
            if 4200 <= i < 4400 and rng.random() < 0.3:
                act = 'only "chunk 2"'  # inside the second 4,096-row chunk only
            res = AWKWARD_RESOURCES[rng.randrange(len(AWKWARD_RESOURCES))]
            base = (a + (i >= 3000)) % 3  # the mapping drifts at row 3,000
            label = base if rng.random() < 0.75 else rng.randrange(3)
            dur = repr(rng.gauss(label, 1.0))
            if i % 97 == 0:
                dur = f" {dur} "  # surrounding whitespace parses as float does
            unlabeled = i >= 1000 and rng.random() < 0.05
            writer.writerow([act, dur, res, "" if unlabeled else label])
    return path


AWKWARD_CASES = {
    "plain": [],
    "ph-last": ["--detector", "page-hinkley", "--strategy", "last", "--batch-size", BATCH_SIZE,
                "--incremental"],
    "prefix-len": ["--prefix-len", "act=1,res=2", "--detector", "page-hinkley",
                   "--strategy", "last", "--batch-size", BATCH_SIZE, "--incremental"],
}

# case -> sha256 of (records.csv, curves.csv, events.csv, summary.csv)
GOLDEN_AWKWARD = {
    "ph-last": (
        "1d8087a76a2c060bdd13577757cd19a962cf764e76af6e20385227999ff7fafa",
        "eed270ef1c2e51452c832d4e6b3cc6faf403837baf46fd9edf7580a436a93a42",
        "78e2bd6b673f2d5a1320385e8ca3202afd99fde7eafc493799778d9421d0e7ee",
        "e9dd5e42431bff27f5e65fa04d5639fcbaf74ea857fb102e10064dfc3aa71ca5",
    ),
    "plain": (
        "0e3bae38ddc1298c09295e10130019a0670ed5bd931f7c2d9c9520a4cc53c5ea",
        "cab5a9be6a7a5c4b35c096cb16ece1324b251b9a6417bdcf1b20fad30c8354a5",
        "4afb1a8ec8ba1c13786db0d8b556cb131f82f8beac3cf9130e55e47726cdf0ae",
        "8d46f2b4196004a9275ca6e94a19b7568716455b988ab947c1e97c80cb3a3379",
    ),
    "prefix-len": (
        "f12617b10517611129d1877ed1ecdf2e70b98638a4d444e4ad81694cf955b223",
        "a6e38d0c3d8995e11c687ca808a42b9503b63e960194aded19e3191fd44cad97",
        "5d0b81839a47e24c7977efad194dd7876d41f4037e4fc2a207028ca0a1fda92f",
        "74d6ebb8607db0413ec6af7734a8fd2c8c6aef975e964fe917d0b6a5e322b44a",
    ),
}


@pytest.mark.parametrize("case", sorted(AWKWARD_CASES))
def test_awkward_csv_runs_match_recorded_digests(tmp_path, awkward_csv, case):
    flags = [
        "run", "--input", str(awkward_csv), "--label", "label", *AWKWARD_CASES[case],
        "--warmup", WARMUP, "--quiet", "-o", str(tmp_path),
    ]
    assert main(flags) == EXIT_OK
    names = ("records.csv", "curves.csv", "events.csv", "summary.csv")
    got = tuple(sha256(tmp_path / name) for name in names)
    assert got == GOLDEN_AWKWARD.get(case), f"digests now {got}"
