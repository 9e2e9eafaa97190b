"""Record the output digests the benchmark checks, and run its cross-checks.

Usage:  python3 perfbench/baseline.py [SEED ...]        (default: 42 7)

For each seed, write the stream with ``driftstream generate`` and run every
workload once; store the sha256 of each output CSV in
``perfbench/digests.json``. Two cross-checks run for the first seed, and the
file is written only if both hold:

- ``ph-last-csv`` (reading the set-up CSV) equals the same configuration run
  on ``--synth paper-like``;
- ``matrix --synth paper-like --batch-sizes 500`` at ``--workers 2`` equals
  ``--workers 1`` (worker-count invariance). The benchmark does not time
  ``matrix``; this is its only use here.

Re-run it only when a change is meant to alter the outputs, and say why.
"""

from __future__ import annotations

import json
import shutil
import sys

import run as bench

MATRIX_ARGS = ["matrix", "--synth", "paper-like", "--batch-sizes", "500", "--workers"]
MATRIX_TIMEOUT_S = 900.0


def matrix_workers_invariant(seed: int) -> bool:
    work = bench.ROOT / ".perfbench_work" / "matrix"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    digests = []
    for workers in ("2", "1"):
        out = work / f"out-workers-{workers}"
        args = [*MATRIX_ARGS, workers, "--seed", str(seed), "--quiet", "-o", str(out)]
        inv = bench.invoke(bench.cli_cmd(args), work / f"workers-{workers}.log", MATRIX_TIMEOUT_S)
        if inv.exit_code != 0:
            raise SystemExit(f"seed {seed} matrix --workers {workers}: {inv.error}")
        digests.append(bench.digest_files(out, ("summary.csv",)))
    return digests[0] == digests[1]


def record(seed: int, cross_check: bool) -> tuple[dict, dict]:
    digests, checks = {}, {}
    for workload in bench.WORKLOADS:
        r = bench.Run(workload, seed)
        r.recorded = {}
        r.setup()
        inv, _ = r.invoke_workload()
        if cross_check and workload == "ph-last-csv":
            r.invoke_cli(["run", "--synth", "paper-like"] + bench.PH_LAST_ARGS, workload)
            checks["ph-last-csv equals the same run on --synth"] = not r.failures
        if r.failures:
            raise SystemExit(f"seed {seed} {workload}: " + "; ".join(r.failures))
        if digests.setdefault("setup", r.reference["setup"]) != r.reference["setup"]:
            raise SystemExit(f"seed {seed}: set-up outputs differ between runs")
        digests[workload] = inv.digests
        print(f"seed {seed} {workload}: {inv.wall_s:.2f} s, digests recorded", flush=True)
    if cross_check:
        checks["matrix at --workers 2 equals --workers 1"] = matrix_workers_invariant(seed)
    return digests, checks


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or [42, 7]
    doc = {"seeds": {}, "cross_checks": {}}
    for i, seed in enumerate(seeds):
        doc["seeds"][str(seed)], checks = record(seed, cross_check=i == 0)
        doc["cross_checks"].update({f"seed {seed}: {k}": v for k, v in checks.items()})
    failed = [k for k, ok in doc["cross_checks"].items() if not ok]
    if failed:
        raise SystemExit("cross-checks failed: " + "; ".join(failed))
    bench.DIGESTS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {bench.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
