"""Benchmark entry point.

    python3 bench/run.py --workload <roundtrip|bigden|terminating|cli> \
        --seed <n> --seconds <s> --trace <0|1>

Imports the package from ./src, builds the workload's inputs from the seed,
runs whole rounds of it for at least `--seconds`, checks every stored result
against the benchmark's own oracles, and prints one JSON object as the last
line: end-to-end metrics with `--trace 0`, per-layer metrics with
`--trace 1`.  A traced run alternates untraced and traced rounds, writes its
spans to bench/traces/, and reports the difference as trace.overhead_s.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from array import array
from collections import defaultdict
from pathlib import Path

import tracing
import yardsticks
from workloads import CLI_VERBS, SRC, WORKLOADS, BigDen, Cli

SETUPS = 5

# Every time reported is scaled to a fixed machine speed by a yardstick
# (yardsticks.py): a span is multiplied by the yardstick's nominal time
# over its times just around the span.
CALIBRATE_EVERY_S = 0.1

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cases_per_s": "cases/s",
    "wall_s": "s",
    "case_ms": "ms",
}

FUNCTIONS = (
    "foundation.bases",
    "foundation.base_product",
    "expansion.expand",
    "expansion.shift_value",
    "expansion.evaluate_finite",
    "rationality.certify_rational",
    "rationality.verify_certificate",
    "rationality.block_description",
    "rationality.reconstruct",
    "structure.dual_representation",
    "structure.convert_dual",
    "structure.cofinite_value",
    "structure.regroup",
)
LADDER_FUNCTIONS = (
    "foundation.bases",
    "foundation.base_product",
    "expansion.shift_value",
    "rationality.certify_rational",
    "rationality.verify_certificate",
    "rationality.block_description",
    "rationality.reconstruct",
)
# Sizes of work, summed over the distinct cases a run completed, except
# max_int_bits, which is the largest block product's bit length.
COUNTS = {
    "foundation.max_int_bits": "bits",
    "expansion.digits": "count",
    "rationality.shift_steps": "count",
    "structure.chain_positions": "count",
}
LADDER_COUNTS = ("foundation.max_int_bits", "rationality.shift_steps")
DECADES = sorted({f"v1e{len(str(p)) - 1}" for p in BigDen.LADDER})


def per_layer_units() -> dict[str, str]:
    units = {}
    for f in FUNCTIONS:
        units[f"{f}.s"] = "s"
        units[f"{f}.calls"] = "count"
    units.update(COUNTS)
    for f in LADDER_FUNCTIONS:
        for d in DECADES:
            units[f"{f}.s.{d}"] = "s"
            units[f"{f}.calls.{d}"] = "count"
    for c in LADDER_COUNTS:
        for d in DECADES:
            units[f"{c}.{d}"] = COUNTS[c]
    units["cli.bare_python_ms"] = "ms"
    units["cli.import_ms"] = "ms"
    for verb in CLI_VERBS:
        units[f"cli.{verb}.ms"] = "ms"
    units["trace.overhead_s"] = "s"
    return units


class Calibration:
    """Yardstick times through the run, at most one every CALIBRATE_EVERY_S."""

    def __init__(self, yardstick, nominal: float):
        self.yardstick = yardstick
        self.nominal = nominal
        self.at = []  # perf_counter() when each sample ended
        self.times = []
        self.sample(force=True)

    def sample(self, force: bool = False) -> float:
        """Sample if due; return the seconds spent, to leave out of timings."""
        now = time.perf_counter()
        if not force and now - self.at[-1] < CALIBRATE_EVERY_S:
            return 0.0
        self.times.append(self.yardstick())
        self.at.append(time.perf_counter())
        return self.at[-1] - now

    def scale(self, t0: float, t1: float) -> float:
        """Factor for a span from t0 to t1: nominal over the median of the
        last sample before it, those inside it and the first after it."""
        lo = max(bisect.bisect_right(self.at, t0) - 1, 0)
        hi = bisect.bisect_left(self.at, t1) + 1
        return self.nominal / statistics.median(self.times[lo:hi])

    @property
    def overall(self) -> float:
        """Factor for figures summed over the whole run."""
        return self.nominal / statistics.median(self.times)


def set_up(name: str, seed: int):
    """Import the package afresh and build the workload's inputs."""
    for mod in [m for m in sys.modules if m == "cantorseries" or m.startswith("cantorseries.")]:
        del sys.modules[mod]
    t0 = time.perf_counter()
    cs = importlib.import_module("cantorseries")
    if name == "cli":
        importlib.import_module("cantorseries.cli")
    work = WORKLOADS[name](cs, seed)
    return work, time.perf_counter() - t0


class Measurement:
    def __init__(self):
        # Untraced case spans in flat arrays, so that memory does not grow
        # with the number of repeats more than it must: peak_rss_mb reads it.
        self.span_case = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.rounds = {False: [], True: []}  # (start, end, seconds paused, span range), by whether traced
        self.attempted = 0
        self.failed = 0
        self.failed_cases = set()
        self.results = {}
        self.peak_rss_mb = 0.0


def measure(work, seconds: float, tracer, cal: Calibration) -> Measurement:
    """Whole rounds until `seconds` have passed and at least one pass is
    done; odd rounds traced if tracing."""
    null = tracing.NullTracer()
    out = Measurement()
    start = time.perf_counter()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        t = tracer if traced else null
        done = []
        first = len(out.span_case)
        paused = 0.0
        r0 = time.perf_counter()
        for case in work.round(i):
            sid = t.begin("case", case)
            c0 = time.perf_counter()
            try:
                result = work.run(t, case)
            except Exception:  # a failed operation is counted; the run goes on
                out.failed += 1
                if case not in out.failed_cases:
                    out.failed_cases.add(case)
                    print(f"case {case} failed:\n{traceback.format_exc(limit=2)}", file=sys.stderr)
            else:
                out.results[case] = result
                done.append((case, result))
            if not traced:
                out.span_end.append(time.perf_counter())
                out.span_start.append(c0)
                out.span_case.append(case)
            t.end(sid)
            out.attempted += 1
            paused += cal.sample()
        out.rounds[traced].append((r0, time.perf_counter(), paused, range(first, len(out.span_case))))
        if traced:
            work.probe(t, done)
        i += 1
        if time.perf_counter() - start >= seconds and i >= max(work.PASS_ROUNDS, 1 if tracer is None else 2):
            break
    cal.sample(force=True)  # the last span's sample after it
    # The cli workload's program is its child processes; the largest counts.
    who = resource.RUSAGE_CHILDREN if isinstance(work, Cli) else resource.RUSAGE_SELF
    out.peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    return out


def scaled_rounds(m: Measurement, traced: bool, cal: Calibration):
    """(scaled seconds, scaled case seconds) per round, yardstick time left out."""
    rounds = []
    for r0, r1, paused, spans in m.rounds[traced]:
        times = [(m.span_end[i] - m.span_start[i]) * cal.scale(m.span_start[i], m.span_end[i]) for i in spans]
        rounds.append(((r1 - r0 - paused) * cal.scale(r0, r1), times))
    return rounds


def end_to_end(work, m: Measurement, setup_s: float, cal: Calibration) -> dict[str, float]:
    rounds = scaled_rounds(m, False, cal)
    case_s = defaultdict(list)
    for (_, _, _, spans), (_, times) in zip(m.rounds[False], rounds):
        for i, t in zip(spans, times):
            case_s[m.span_case[i]].append(t)
    wall_s, cases, typical_s = work.timings(case_s, rounds)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": m.peak_rss_mb,
        "cases_per_s": cases / wall_s,
        "wall_s": wall_s,
        "case_ms": typical_s * 1e3,
    }


def per_layer(work, m: Measurement, tracer: tracing.Tracer, cal: Calibration) -> dict[str, float]:
    scale = cal.overall
    values = dict.fromkeys(per_layer_units(), 0)
    durations = defaultdict(list)
    for name, case, dur, own in tracer.spans():
        if case in m.failed_cases:
            continue
        durations[name].append(dur)
        if name in FUNCTIONS:
            tag = work.tag(case)
            for suffix in ("", f".{tag}") if tag else ("",):
                values[f"{name}.s{suffix}"] += own * scale / 1e9
                values[f"{name}.calls{suffix}"] += 1
    for name, durs in durations.items():
        if name.startswith("cli."):
            key = {"cli.bare_python": "cli.bare_python_ms", "cli.import": "cli.import_ms"}.get(name, f"{name}.ms")
            values[key] = statistics.median(durs) * scale / 1e6
    for case, result in m.results.items():
        tag = work.tag(case)
        for name, n in work.counts(case, result).items():
            for key in (name, f"{name}.{tag}"):
                if key in values:
                    values[key] = max(values[key], n) if name == "foundation.max_int_bits" else values[key] + n
    values["trace.overhead_s"] = statistics.median(s for s, _ in scaled_rounds(m, True, cal)) - statistics.median(
        s for s, _ in scaled_rounds(m, False, cal)
    )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "cantorseries" / "__init__.py").is_file():
        print(f"no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Oracle checks read and print integers far beyond 4,300 digits.
    sys.set_int_max_str_digits(0)

    # Set-up is sampled before and after the timed rounds, SETUPS times each,
    # so that one slow spell of the machine cannot cover every sample.
    setup_cal = Calibration(yardsticks.in_process_s, yardsticks.IN_PROCESS_NOMINAL_S)
    setups = []
    work = None

    def timed_set_up():
        nonlocal work
        work = None  # free the previous inputs before building the next
        setup_cal.sample()
        t0 = time.perf_counter()
        work, seconds = set_up(args.workload, args.seed)
        t1 = time.perf_counter()
        setup_cal.sample(force=True)
        setups.append(seconds * setup_cal.scale(t0, t1))

    for _ in range(SETUPS):
        timed_set_up()
    cal = Calibration(work.yardstick, work.NOMINAL_YARDSTICK_S)
    tracer = tracing.Tracer() if args.trace else None
    m = measure(work, args.seconds, tracer, cal)
    for _ in range(SETUPS):
        timed_set_up()
    setup_s = statistics.median(setups)
    median_ms = 1e3 * statistics.median(cal.times)
    print(f"yardstick median {median_ms:.4f} ms over {len(cal.times)} samples; scale {cal.overall:.4f}", file=sys.stderr)

    errors = []
    for case, result in sorted(m.results.items()):
        errors += work.check(case, result)
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)

    if tracer is None:
        values, units = end_to_end(work, m, setup_s, cal), END_TO_END
    else:
        values, units = per_layer(work, m, tracer, cal), per_layer_units()
        tracer.write(Path(__file__).resolve().parent / "traces" / f"{args.workload}-seed{args.seed}.tsv")
    report = {
        "correct": not errors and bool(m.results),
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
