"""Per-layer tracing of one driftstream CLI invocation, installed from outside.

Usage:  python3 perfbench/tracer.py TRACE_FILE CLI_ARG...

The tracer imports ``driftstream.cli``, replaces the public entry points of
each layer with timing wrappers at the names their callers look them up by,
and then calls ``driftstream.cli.main(CLI_ARG...)``. The program's own files
are not changed.

Each wrapped call adds to its layer's aggregate: calls, total time, self
time (total time minus the time of the wrapped calls made inside it) and
rows of work. When ``main`` returns, the aggregates are written to
TRACE_FILE as JSON; ``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

# Aggregate names, one per wrapped layer boundary.
ENCODE = "preprocess.encode"
PREDICT = "naive_bayes.predict"
PREDICT_MANY = "naive_bayes.predict_many"
FIT = "naive_bayes.fit"
UPDATE = "naive_bayes.update"
CSV_STREAM = "stream_core.open_csv_stream"
GENERATE = "synth.generate"
OBSERVE = "detectors.observe"
RESET = "detectors.reset"
STEP = "adaptation.step"
RUN = "evaluation.run_experiment"
WRITE = "evaluation.write_csv"

CALIBRATION_CALLS = 100_000


class Tracer:
    """Call stack plus per-name aggregates for the current process."""

    def __init__(self):
        # each frame: [child_seconds, name]
        self.stack: list[list] = []
        # name -> [calls, seconds, self_seconds, rows, flagged,
        #          calls under `under`, rows under `under`]
        self.agg: dict[str, list] = {}

    def _acc(self, name: str) -> list:
        return self.agg.setdefault(name, [0, 0.0, 0.0, 0, 0, 0, 0])

    def wrap(self, name, fn, rows=None, flag=None, under=None):
        """Time ``fn`` under ``name``. ``rows(args, result)`` counts rows of
        work, ``flag(result)`` counts flagged results (alarms), and calls
        made directly inside an ``under`` call are also counted apart."""
        stack, acc, perf = self.stack, self._acc(name), time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, name]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
            if parent is not None:
                parent[0] += dur
            acc[0] += 1
            acc[1] += dur
            acc[2] += dur - frame[0]
            n = rows(args, result) if rows else 0
            acc[3] += n
            if flag is not None and flag(result):
                acc[4] += 1
            if under is not None and parent is not None and parent[1] == under:
                acc[5] += 1
                acc[6] += n
            return result

        return wrapper

    def wrap_generator(self, name, fn):
        """Time each ``next()`` on the generator ``fn`` returns; one row per
        item yielded."""
        stack, acc, perf = self.stack, self._acc(name), time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                parent = stack[-1] if stack else None
                frame = [0.0, name]
                stack.append(frame)
                t0 = perf()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dur = perf() - t0
                    stack.pop()
                    if parent is not None:
                        parent[0] += dur
                    acc[1] += dur
                    acc[2] += dur - frame[0]
                acc[0] += 1
                acc[3] += 1
                yield item

        return wrapper


def _len_arg(i):
    return lambda args, result: len(args[i])


def install(tracer: Tracer) -> None:
    """Wrap each layer's public calls where their callers look them up."""
    from driftstream import adaptation, cli, detectors, evaluation, naive_bayes, preprocess

    def method(cls, attr, name, **kw):
        setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr], **kw))

    method(preprocess.EncoderState, "encode", ENCODE)
    model = naive_bayes.NaiveBayesModel
    method(model, "predict", PREDICT)
    method(model, "predict_many", PREDICT_MANY, rows=lambda a, r: len(r))
    method(model, "update", UPDATE, rows=_len_arg(1))
    model.fit = classmethod(
        tracer.wrap(FIT, model.__dict__["fit"].__func__, rows=_len_arg(1), under=STEP)
    )
    for cls in (detectors.PageHinkley, detectors.Adwin, detectors.NoDetector):
        method(cls, "observe", OBSERVE, flag=bool)
        method(cls, "reset", RESET)
    method(adaptation.Controller, "step", STEP)  # refits are the fits under a step

    # `run --synth` calls cli.generate; SynthSource.load calls evaluation.generate
    gen = tracer.wrap(GENERATE, evaluation.generate)
    evaluation.generate = gen
    cli.generate = gen
    evaluation.open_csv_stream = tracer.wrap_generator(CSV_STREAM, evaluation.open_csv_stream)
    cli.open_csv_stream = evaluation.open_csv_stream
    cli.run_experiment = tracer.wrap(RUN, evaluation.run_experiment)
    for attr in ("write_records_csv", "write_curves_csv", "write_summary_csv"):
        setattr(cli, attr, tracer.wrap(WRITE, getattr(cli, attr), rows=_len_arg(0)))
    cli.write_events_csv = tracer.wrap(
        WRITE,
        cli.write_events_csv,
        rows=lambda a, r: sum(x.drift_flag + x.retrain_flag for x in a[0]),
    )


def wrapper_cost_s() -> float:
    """Seconds one wrapped call adds to a call: the best of three timings of
    a wrapped no-op against the bare no-op."""

    def noop(x):
        return x

    wrapped = Tracer().wrap("noop", noop, rows=_len_arg(0))
    arg = (0,)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            noop(arg)
        t1 = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            wrapped(arg)
        t2 = time.perf_counter()
        best = min(best, (t2 - t1) - (t1 - t0))
    return max(best, 0.0) / CALIBRATION_CALLS


def _per(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(trace_file: Path) -> dict:
    """The per-layer metrics of one traced invocation."""
    doc = json.loads(trace_file.read_text(encoding="utf-8"))
    zero = [0, 0.0, 0.0, 0, 0, 0, 0]

    def a(name):
        calls, s, self_s, rows, flagged, under_calls, under_rows = doc["agg"].get(name, zero)
        return {"calls": calls, "s": s, "self_s": self_s, "rows": rows, "flagged": flagged,
                "under_calls": under_calls, "under_rows": under_rows}

    enc, pred, many, fit, upd = a(ENCODE), a(PREDICT), a(PREDICT_MANY), a(FIT), a(UPDATE)
    csv_, gen, obs, reset, step = a(CSV_STREAM), a(GENERATE), a(OBSERVE), a(RESET), a(STEP)
    run, write = a(RUN), a(WRITE)
    # refits are the fits made while stepping; the warm-up fit is not one
    refits, refit_rows = fit["under_calls"], fit["under_rows"]
    wrapped_calls = sum(acc[0] for acc in doc["agg"].values())
    return {
        "preprocess.encode.calls": enc["calls"],
        "preprocess.encode.us_per_call": _per(enc["s"], enc["calls"], 1e6),
        "preprocess.encode.s": enc["s"],
        "naive_bayes.predict.calls": pred["calls"],
        "naive_bayes.predict.us_per_call": _per(pred["s"], pred["calls"], 1e6),
        "naive_bayes.predict.s": pred["s"],
        "naive_bayes.predict_many.calls": many["calls"],
        "naive_bayes.predict_many.rows": many["rows"],
        "naive_bayes.predict_many.s": many["s"],
        "naive_bayes.fit.calls": fit["calls"],
        "naive_bayes.fit.rows": fit["rows"],
        "naive_bayes.fit.us_per_row": _per(fit["s"], fit["rows"], 1e6),
        "naive_bayes.fit.s": fit["s"],
        "naive_bayes.update.calls": upd["calls"],
        "naive_bayes.update.rows": upd["rows"],
        "naive_bayes.update.us_per_call": _per(upd["s"], upd["calls"], 1e6),
        "naive_bayes.update.s": upd["s"],
        "stream_core.open_csv_stream.rows": csv_["rows"],
        "stream_core.open_csv_stream.us_per_row": _per(csv_["s"], csv_["rows"], 1e6),
        "stream_core.open_csv_stream.s": csv_["s"],
        "synth.generate.calls": gen["calls"],
        "synth.generate.s": gen["s"],
        "detectors.observe.calls": obs["calls"],
        "detectors.observe.us_per_call": _per(obs["s"], obs["calls"], 1e6),
        "detectors.observe.s": obs["s"],
        "detectors.alarms": obs["flagged"],
        "detectors.reset.calls": reset["calls"],
        "adaptation.step.calls": step["calls"],
        "adaptation.step.self_us_per_call": _per(step["self_s"], step["calls"], 1e6),
        "adaptation.step.self_s": step["self_s"],
        "adaptation.refit.rows_per_retrain": _per(refit_rows, refits),
        "adaptation.retrains_per_alarm": _per(refits, obs["flagged"]),
        "evaluation.run_experiment.calls": run["calls"],
        "evaluation.run_experiment.s": run["s"],
        "evaluation.run_experiment.self_s": run["self_s"],
        "evaluation.write_csv.rows": write["rows"],
        "evaluation.write_csv.s": write["s"],
        "cli.import_s": doc["import_s"],
        "cli.main.s": doc["main_s"],
        # an estimate, not traced minus untraced wall time: that difference
        # is smaller than the drift between two invocations
        "trace.overhead_s": wrapped_calls * doc["wrapper_cost_s"],
    }


def main(argv: list[str]) -> int:
    trace_file = Path(argv[0])
    t0 = time.perf_counter()
    import driftstream.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    t0 = time.perf_counter()
    code = driftstream.cli.main(argv[1:])
    main_s = time.perf_counter() - t0
    doc = {
        "agg": tracer.agg, "import_s": import_s, "main_s": main_s,
        "wrapper_cost_s": wrapper_cost_s(), "exit_code": code,
    }
    trace_file.write_text(json.dumps(doc), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
