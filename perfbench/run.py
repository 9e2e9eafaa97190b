"""driftstream benchmark: one workload, one seed, one run.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/`` and
``BENCHMARK.json``). Each workload is a closed loop with one client: one
``python3 -m driftstream.cli`` process at a time, over the 70,774-row
``paper-like`` stream of the given seed. Invocations of the program alternate
with invocations of a frozen copy of it, ``perfbench/reference``, for as
long as the next pair would likely end within ``--seconds``; times are
reported in the copy's units (see ``end_to_end``). Set-up writes the stream
with ``driftstream generate`` several times, also in pairs with the copy.
Every
invocation's output CSVs are hashed and checked: against
``perfbench/digests.json`` when the seed is recorded there, and otherwise
against the run's first invocation (the program's and the copy's apart),
plus structural checks.

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` the untraced
loop is followed by one invocation under ``perfbench/tracer.py`` and the
JSON holds the per-layer metrics. The lines above it are a readable report.
Work files go to ``.perfbench_work/<workload>/`` in the checkout.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGESTS = BENCH / "digests.json"
# driftstream as it was when this benchmark was added, kept unchanged as the
# yardstick that each run times in alternation with the program. Changing
# it changes the unit of every time the benchmark reports.
REFERENCE_SRC = BENCH / "reference"
# Wall time of one invocation of the reference copy, per workload, rounded
# from the medians of two sets of ten runs on a 2-CPU Intel Xeon KVM guest:
# the unit in which times are reported (perfbench/README.md).
REFERENCE_S = {"static": 7.3, "ph-last-csv": 9.5}
REFERENCE_SETUP_S = 1.8  # the same for one set-up run

WARMUP = 2000  # the CLI's default warm-up; predictions = rows - warm-up
SETUP_REPEATS = 3
RUN_BUDGET_S = 172.0  # the whole run must end within 180 s
PH_LAST_ARGS = [
    "--detector", "page-hinkley", "--lambda", "0.6", "--strategy", "last",
    "--batch-size", "500", "--incremental",
]
RUN_CSVS = ("records.csv", "curves.csv", "events.csv", "summary.csv")
# CLI arguments, to which the seed and output flags are appended; "{stream}"
# is the set-up CSV. Each invocation writes RUN_CSVS.
WORKLOADS = {
    "static": ["run", "--synth", "paper-like"],
    "ph-last-csv": ["run", "--input", "{stream}", "--label", "label", "--exclude", "automation"]
    + PH_LAST_ARGS,
}
SETUP_CSVS = ("stream.csv", "concepts.csv")
# Order of the program (False) and the reference copy (True) in even and
# odd pairs, so that a steady drift of the host's speed falls on both alike.
ABBA = ((True, False), (False, True))


class CheckError(Exception):
    """An output or count that is not what the program must produce."""


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    error: str = ""
    digests: dict = field(default_factory=dict)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def invoke(cmd: list[str], log: Path, timeout: float, src: Path = ROOT / "src") -> Invocation:
    """Run ``cmd`` in its own process group and wait for it. CPU time and
    peak RSS come from ``wait4``, so they cover the process and every
    descendant it reaped. Whatever is left of the group when the process
    ends, or when the timeout fires, is killed. ``driftstream`` is imported
    from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=fh,
            stderr=subprocess.STDOUT, start_new_session=True,
        )
        timer = threading.Timer(max(timeout, 1.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            wall = time.perf_counter() - t0
            timer.cancel()
            _kill_group(proc.pid)
    proc.returncode = os.waitstatus_to_exitcode(status)
    inv = Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
    )
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
        inv.error = f"exit code {proc.returncode}: " + " | ".join(tail)
    return inv


def cli_cmd(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "driftstream.cli", *args]


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def digest_files(directory: Path, names) -> dict:
    missing = [n for n in names if not (directory / n).is_file()]
    if missing:
        raise CheckError(f"missing output {', '.join(missing)} in {directory.name}")
    return {n: sha256(directory / n) for n in names}


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@dataclass
class Stream:
    n_rows: int
    drift_at: int


def read_stream_facts(data: Path) -> Stream:
    """Row count and first concept change, from the ``concepts.csv`` sidecar."""
    ids = [int(r["concept_id"]) for r in read_rows(data / "concepts.csv")]
    drift_at = next((i for i, c in enumerate(ids) if c != ids[0]), len(ids))
    return Stream(len(ids), drift_at)


def check_outputs(workload: str, out: Path, stream: Stream) -> dict:
    """Structural checks that hold for every seed; returns output facts."""
    summary = read_rows(out / "summary.csv")
    predictions = stream.n_rows - WARMUP
    if len(summary) != 1:
        raise CheckError(f"summary.csv has {len(summary)} rows, expected 1")
    row = summary[0]
    if int(row["n_predictions"]) != predictions:
        raise CheckError(f"{row['n_predictions']} predictions, expected {predictions}")
    records = read_rows(out / "records.csv")
    if len(records) != predictions:
        raise CheckError(f"records.csv has {len(records)} rows, expected {predictions}")
    events = read_rows(out / "events.csv")
    alarms = [int(e["index"]) for e in events if e["event"] == "drift"]
    retrains = sum(e["event"] == "retrain_done" for e in events)
    if len(alarms) != int(row["n_drifts"]) or retrains != int(row["n_retrains"]):
        raise CheckError("events.csv disagrees with summary.csv")
    if workload == "static" and (alarms or retrains):
        raise CheckError("the static model raised alarms or retrained")
    if workload == "ph-last-csv" and retrains != len(alarms):
        raise CheckError("strategy last must retrain at every alarm")
    accuracy = float(row["accuracy"])
    correct = sum(int(r["correct"]) for r in records)
    if abs(correct / predictions - accuracy) > 1e-6:
        raise CheckError("summary accuracy disagrees with records.csv")
    after = [a for a in alarms if a >= stream.drift_at]
    before = len(alarms) - len(after)
    return {
        "accuracy": accuracy,
        "detection_delay_rows": (after[0] if after else stream.n_rows) - stream.drift_at,
        "false_alarms_per_10k": before / (stream.drift_at - WARMUP) * 1e4,
    }


def check_counts(workload: str, seed: int, m: dict, stream: Stream) -> None:
    """Exact trace counts of what the outputs pin. How rows are encoded,
    scored or read is left free: scoring may go row by row through
    ``predict`` or in blocks through ``predict_many``."""
    predictions = stream.n_rows - WARMUP
    scored = m["naive_bayes.predict.calls"] + m["naive_bayes.predict_many.rows"]
    if scored < predictions:
        raise CheckError(f"{scored} rows scored, expected at least {predictions}")
    expect = {"evaluation.run_experiment.calls": 1}
    if workload == "static":
        expect.update({
            "naive_bayes.fit.calls": 1,
            "naive_bayes.update.calls": 0,
            "detectors.alarms": 0,
        })
    else:  # strategy last refits on the last 500 rows at every alarm
        alarms = m["detectors.alarms"]
        expect["naive_bayes.fit.calls"] = alarms + 1
        expect["naive_bayes.fit.rows"] = WARMUP + 500 * alarms
        if seed == 42:  # as of the commit that added this benchmark
            expect["detectors.alarms"] = 1201
    wrong = {k: (m[k], v) for k, v in expect.items() if m[k] != v}
    if wrong:
        raise CheckError("trace counts (got, expected): " + json.dumps(wrong))


def machine_facts() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "start_method": multiprocessing.get_context().get_start_method(),
        "loadavg_before": os.getloadavg(),
    }


class Run:
    """State of one benchmark run: inputs, invocations and failures."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.work = ROOT / ".perfbench_work" / workload
        self.data = self.work / "data"
        self.trace_file = self.work / "trace.json"
        self.deadline = time.monotonic() + RUN_BUDGET_S
        recorded = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
        self.recorded = recorded.get("seeds", {}).get(str(seed), {})
        self.reference: dict[str, dict] = {}
        self.invocations: list[Invocation] = []
        self.failures: list[str] = []
        self.failed: set[int] = set()

    def fail(self, n: int, message: str) -> None:
        """Record that invocation ``n`` failed a check."""
        self.failed.add(n)
        self.failures.append(f"invocation {n}: {message}")

    def _compare(self, key: str, digests: dict) -> None:
        want = self.recorded.get(key) or self.reference.setdefault(key, digests)
        bad = sorted(n for n in digests if digests[n] != want.get(n))
        if bad:
            raise CheckError(f"{key} output digest mismatch: {', '.join(bad)}")

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def setup(self, repeats: int = SETUP_REPEATS) -> tuple[list[float], list[float]]:
        """Start a fresh work directory, then write the seed's stream and
        concept sidecar there ``repeats`` times, each time in a pair with
        the reference copy writing them elsewhere (pairs in the order of
        ``ABBA``); returns the program's and the copy's wall times."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        walls = {False: [], True: []}
        for i in range(repeats):
            for reference in ABBA[i % 2]:
                data = self.work / "data-reference" if reference else self.data
                shutil.rmtree(data, ignore_errors=True)
                cmd = cli_cmd(["generate", "--profile", "paper-like", "--seed", str(self.seed),
                               "--quiet", "-o", str(data)])
                log = self.work / f"setup-{i}{'-reference' if reference else ''}.log"
                inv = invoke(cmd, log, self.remaining(), REFERENCE_SRC if reference else ROOT / "src")
                if inv.exit_code != 0:
                    raise CheckError(f"set-up failed: {inv.error}")
                key = "setup reference" if reference else "setup"
                self._compare(key, digest_files(data, SETUP_CSVS))
                walls[reference].append(inv.wall_s)
        self.stream = read_stream_facts(self.data)
        return walls[False], walls[True]

    def invoke_workload(self, traced: bool = False, reference: bool = False) -> tuple[Invocation, dict]:
        """One invocation of the workload, by the program or, with
        ``reference``, by the reference copy, whose outputs are checked
        apart, for determinism and structure."""
        args = [a.replace("{stream}", str(self.data / "stream.csv")) for a in WORKLOADS[self.workload]]
        if reference:
            return self.invoke_cli(args, f"{self.workload} reference", src=REFERENCE_SRC)
        return self.invoke_cli(args, self.workload, traced)

    def invoke_cli(self, args, key: str, traced: bool = False,
                   src: Path = ROOT / "src") -> tuple[Invocation, dict]:
        """One CLI invocation whose output CSVs are digested, compared under
        ``key`` and checked; returns it with the facts read from its output."""
        out = self.work / ("out-traced" if traced else "out")
        shutil.rmtree(out, ignore_errors=True)
        args = [*args, "--seed", str(self.seed), "--quiet", "-o", str(out)]
        if traced:
            self.trace_file.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(self.trace_file), *args]
        else:
            cmd = cli_cmd(args)
        n = len(self.invocations)
        inv = invoke(cmd, self.work / f"invocation-{n}.log", self.remaining(), src)
        self.invocations.append(inv)
        facts = {}
        try:
            if inv.exit_code != 0:
                raise CheckError(inv.error)
            inv.digests = digest_files(out, RUN_CSVS)
            self._compare(key, inv.digests)
            facts = check_outputs(self.workload, out, self.stream)
        except (CheckError, KeyError, ValueError) as e:
            self.fail(n, str(e))
        return inv, facts


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run, setup, refs, samples, facts) -> dict:
    """Set-up, wall and CPU time are the program's total over the reference
    copy's total in the same run, times ``REFERENCE_SETUP_S`` or
    ``REFERENCE_S``: seconds at the host speed at which the copy takes that
    long. The host's speed drifts by tens of percent from minute to minute,
    and the copy, timed in alternation with the program, drifts with it.
    The means as measured follow as ``measured_*``."""
    predictions = run.stream.n_rows - WARMUP
    failed = len(run.failed)
    attempted = len(run.invocations)
    setup_walls, reference_setup_walls = setup
    measured = {
        "setup_s": statistics.mean(setup_walls),
        "reference_setup_s": statistics.mean(reference_setup_walls),
        "wall_s": statistics.mean([s.wall_s for s in samples]),
        "cpu_s": statistics.mean([s.cpu_s for s in samples]),
        "reference_wall_s": statistics.mean([r.wall_s for r in refs]),
        "reference_cpu_s": statistics.mean([r.cpu_s for r in refs]),
    }
    unit = REFERENCE_S[run.workload]
    wall_s = measured["wall_s"] / measured["reference_wall_s"] * unit
    return {
        "setup_s": measured["setup_s"] / measured["reference_setup_s"] * REFERENCE_SETUP_S,
        "wall_s": wall_s,
        "cpu_s": measured["cpu_s"] / measured["reference_cpu_s"] * unit,
        "rows_per_s": predictions / wall_s,
        "peak_rss_mb": median([s.rss_mb for s in samples]),
        "ok_runs_share": (attempted - failed) / attempted if attempted else 0.0,
        # reported, not bounded: they vary across seeds by more than any bound
        "accuracy": facts.get("accuracy"),
        "detection_delay_rows": facts.get("detection_delay_rows"),
        "false_alarms_per_10k": facts.get("false_alarms_per_10k"),
        "failed_runs_share": failed / attempted if attempted else 1.0,
        **{f"measured_{k}": v for k, v in measured.items()},
    }


def load_benchmark() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    unknown = [w["name"] for w in spec["workloads"] if w["name"] not in WORKLOADS]
    if unknown:
        raise SystemExit(f"BENCHMARK.json names unknown workloads {unknown}")
    return spec


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    # a terminated run still kills its invocation's process group (invoke)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "driftstream" / "cli.py").is_file():
        print(f"perfbench: no driftstream source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_benchmark()

    run = Run(a.workload, a.seed)
    facts_machine = machine_facts()
    try:
        # set-up time is an end-to-end metric only; a traced run writes the
        # stream once, leaving its time budget to the traced invocation
        setup = run.setup(1 if a.trace else SETUP_REPEATS)
    except CheckError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    # Closed loop, one client: the next invocation starts when the last
    # ends. Program and reference copy alternate in pairs, in the order
    # ABBA; no pair starts that would likely end after --seconds.
    refs, samples, facts = [], [], {}
    start = time.monotonic()
    while True:
        for reference in ABBA[len(samples) % 2]:
            inv, f = run.invoke_workload(reference=reference)
            if reference:
                refs.append(inv)
            else:
                samples.append(inv)
                facts = facts or f
        elapsed = time.monotonic() - start
        pairs = [r.wall_s + s.wall_s for r, s in zip(refs, samples)]
        reserve = 1.3 * max(s.wall_s for s in samples) if a.trace else 0.0
        if elapsed + median(pairs) > a.seconds or run.remaining() < 1.3 * max(pairs) + reserve:
            break
    e2e = end_to_end(run, setup, refs, samples, facts)

    layers = {}
    if a.trace:
        inv, f = run.invoke_workload(traced=True)
        try:
            if inv.exit_code != 0:
                raise CheckError(inv.error)
            layers = tracer.layer_metrics(run.trace_file)
            check_counts(a.workload, a.seed, layers, run.stream)
        except (CheckError, RuntimeError, KeyError, ValueError) as e:
            run.fail(len(run.invocations) - 1, f"traced: {e}")
        if layers and f:
            layers["evaluation.accuracy"] = f["accuracy"]
            layers["detectors.detection_delay_rows"] = f["detection_delay_rows"]
            layers["detectors.false_alarms_per_10k"] = f["false_alarms_per_10k"]
    facts_machine["loadavg_after"] = os.getloadavg()

    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    source = layers if a.trace else e2e
    metrics = {}
    for m in wanted:
        value = source.get(m["name"])
        if value is None:
            run.failures.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    report = {
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace,
        "machine": facts_machine, "samples": len(samples), "reference_samples": len(refs),
        "setup_walls": setup[0], "reference_setup_walls": setup[1],
        "invocations": [vars(i) for i in run.invocations],
        "end_to_end": e2e, "layers": layers, "failures": run.failures,
    }
    (run.work / "report.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"workload {a.workload}  seed {a.seed}  samples {len(samples)}+{len(refs)}  machine {json.dumps(facts_machine)}")
    for name, value in e2e.items():
        print(f"  {name:24s} {'n/a' if value is None else value}")
    for name, value in layers.items():
        print(f"  {name:52s} {value}")
    for failure in run.failures:
        print(f"  FAILED {failure}")
    correct = not run.failures
    print(json.dumps({
        "correct": correct,
        "attempted": len(run.invocations),
        "failed": len(run.failed),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
