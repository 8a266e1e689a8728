"""Benchmark for enrbisim: time to verdict, one CLI process per request.

Usage (from the root of a checkout that holds ``src/enrbisim``):

    python3 perfbench/run.py --workload aut-bisim --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another.

A single client sends requests in a closed loop: it starts the next
``python -m enrbisim ...`` process only after the previous one has
exited.  Each request is timed from spawn to exit and its peak RSS is
read with ``os.wait4``.  Inputs are generated from the seed before the
clock starts; every report is then judged against the independent
reference in ``reference.py``.  The last line of standard output is one
JSON object with the end-to-end metrics (``--trace 0``) or the per-layer
metrics of a separate traced run (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"

REQUEST_TIMEOUT_S = 60.0
SETUP_SAMPLES = 9
# The speed of a shared host drifts by a third and more over seconds to
# minutes, for every process alike.  A fixed pure-Python loop, timed in
# this process just before each child starts, tracks that drift: each
# wall time is scaled by NOMINAL_PROBE_S over the median of the probes
# nearest to it, so a run reads as if the host ran at nominal speed.
PROBE_ITERATIONS = 100_000
NOMINAL_PROBE_S = 0.007  # the probe's median on the baseline machine
PROBE_NEIGHBOURS = 3
# distinct generated rounds of the slot schedule; a faster program cycles
# through them again rather than triggering generation inside the timed loop
E2E_ROUNDS = 10
# The loop stops only between rounds, so every percentile is taken over
# whole rounds of the schedule, unless a very slow program reaches this
# multiple of --seconds first (which keeps a run within 3 minutes at 30 s).
HARD_STOP_FACTOR = 3

E2E_UNITS = {
    "setup_s": "s",
    "latency_s.p50": "s",
    "latency_s.tail": "s",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
    "correct_frac": "fraction",
}

SPAN_SELF = [
    "vcat.validate_vcategory",
    "bisim.largest_bisimulation",
    "bisim.largest_simulation",
    "bisim.cospan_witness",
    "bisim.span_witness",
    "bisim.quotient",
    "bisim.is_od",
    "vcat.pullback",
    "vcat.free_vcategory",
    "documents.load_bundle",
]
SPAN_TOTAL = [
    "quantaloid.LanguageQuantale.path_homs",
    "documents.vcategory_to_doc",
    "cli.Report.to_json",
    "cts.cts_to_vcat",
    "cts.refine",
    "cob.apply_cob",
    "cob.local_right_adjoints",
    "quantaloid.validate_quantaloid",
]
LATTICE_CLASSES = ["PowersetLattice", "TableLattice", "DownsetLattice"]
COUNTED = [
    f"lattice.{cls}.{meth}"
    for cls in LATTICE_CLASSES
    for meth in ("join", "leq", "meet", "check_element")
] + ["quantaloid.hom", "quantaloid.compose"]
MICRO_CLASS = {
    "aut-bisim": "PowersetLattice",
    "table-sim": "TableLattice",
    "sieve-cts": "DownsetLattice",
}


def layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units = {f"{name}.self_s": "s" for name in SPAN_SELF}
    units["vcat.validate_vcategory.calls"] = "count"
    units["bisim.refine.rounds"] = "count"
    units["bisim.refine.pair_checks"] = "count"
    units["bisim.refine.useful_ratio"] = "ratio"
    units.update({f"{name}.s": "s" for name in SPAN_TOTAL})
    units["cli.report_bytes"] = "bytes"
    units.update({f"{name}.calls": "count" for name in COUNTED})
    units.update(
        {f"lattice.{cls}.{op}.ns": "ns" for cls in LATTICE_CLASSES for op in ("join", "leq", "meet")}
    )
    units["trace.overhead_s"] = "s"
    return units


@dataclass
class Outcome:
    case: workloads.Case
    seconds: float
    exit_code: int  # -9 when killed at the timeout
    rss_kb: int
    stdout: str
    result: str = ""  # ok | wrong | failed


class Runner:
    """Spawns requests in one work directory inside the checkout."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.out_path = work / "stdout"
        self.err_path = work / "stderr"
        self.spans_path = work / "spans.json"

    def spawn(self, cmd: list[str]) -> tuple[float, int, int, str]:
        """Run one child to exit: (wall seconds, exit code, peak RSS kB, stdout)."""
        reaped = False
        lock = threading.Lock()
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=out, stderr=err)

            def kill():
                with lock:
                    if not reaped:
                        os.kill(proc.pid, signal.SIGKILL)

            timer = threading.Timer(REQUEST_TIMEOUT_S, kill)
            timer.start()
            try:
                # wait without reaping, so the timer can never signal a reused pid
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                elapsed = time.perf_counter() - start
                with lock:
                    _, status, usage = os.wait4(proc.pid, 0)
                    reaped = True
            finally:
                timer.cancel()
                timer.join()
                if not reaped:
                    proc.kill()
                    proc.wait()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return elapsed, proc.returncode, usage.ru_maxrss, self.out_path.read_text(errors="replace")

    def request(self, case: workloads.Case, case_dir: Path, trace_mode: str | None = None) -> Outcome:
        """One request, plain or under ``tracer.py`` in the given mode."""
        args = [a.replace("{dir}", str(case_dir.relative_to(ROOT))) for a in case.argv]
        if trace_mode is None:
            cmd = [sys.executable, "-m", "enrbisim", *args]
        else:
            cmd = [
                sys.executable, str(HERE / "tracer.py"), str(self.spans_path), case.slot,
                trace_mode, "--", *args,
            ]
        elapsed, code, rss, stdout = self.spawn(cmd)
        return Outcome(case, elapsed, code, rss, stdout)

    def read_spans(self) -> dict:
        return json.loads(self.spans_path.read_text())

    def stderr_tail(self) -> str:
        return self.err_path.read_text(errors="replace")[-2000:]


def materialize(cases: list[workloads.Case], work: Path) -> list[Path]:
    dirs = []
    for i, case in enumerate(cases):
        case_dir = work / "cases" / f"{i:03d}"
        case_dir.mkdir(parents=True)
        for name, text in case.files.items():
            (case_dir / name).write_text(text)
        dirs.append(case_dir)
    return dirs


def judge_all(outcomes: list[Outcome]) -> None:
    for o in outcomes:
        o.result = reference.judge(o.case.expect, o.case.command, o.exit_code, o.stdout)


def speed_probe() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i
    return time.perf_counter() - start


def at_nominal_speed(seconds: list[float], probes: list[float]) -> list[float]:
    """Scale each wall time by the host speed the probes nearest to it saw."""
    k = PROBE_NEIGHBOURS
    return [
        s * NOMINAL_PROBE_S / statistics.median(probes[max(0, i - k) : i + k + 1])
        for i, s in enumerate(seconds)
    ]


def measure_setup(runner: Runner) -> tuple[float, float]:
    """Median time, raw and at nominal speed, of a fresh interpreter
    importing the CLI module."""
    locate = [sys.executable, "-c", "import enrbisim.cli, sys; sys.stdout.write(enrbisim.cli.__file__)"]
    _, code, _, where = runner.spawn(locate)  # also fills the bytecode cache
    if code != 0 or not Path(where).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"enrbisim does not import from {SRC}: {runner.stderr_tail()}")
    cmd = [sys.executable, "-c", "import enrbisim.cli"]
    raw, probes = [], []
    for _ in range(SETUP_SAMPLES):
        probes.append(speed_probe())
        raw.append(runner.spawn(cmd)[0])
    return statistics.median(raw), statistics.median(at_nominal_speed(raw, probes))


def tail_of(latencies: list[float]) -> float:
    """The 87.5th percentile: the median of the slowest quarter.

    Over whole rounds of a schedule whose large class is a quarter of its
    slots, this is the median of the large class, whatever the number of
    rounds a run reaches."""
    ordered = sorted(latencies)
    return statistics.median(ordered[len(ordered) * 3 // 4 :])


def tally(outcomes: list[Outcome]) -> tuple[int, int, int]:
    """Requests attempted, failed (wrong answers included) and wrong."""
    wrong = sum(o.result == "wrong" for o in outcomes)
    failed = sum(o.result == "failed" for o in outcomes)
    return len(outcomes), failed + wrong, wrong


def run_e2e(workload, seed, seconds, runner) -> tuple[dict, list[Outcome], str]:
    cases = workloads.generate(workload, seed, E2E_ROUNDS)
    per_round = len(cases) // E2E_ROUNDS
    dirs = materialize(cases, runner.work)
    raw_setup, setup_s = measure_setup(runner)
    outcomes: list[Outcome] = []
    probes: list[float] = []
    walls: list[float] = []  # client time per request, the probe left out
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and i % per_round == 0) or elapsed >= HARD_STOP_FACTOR * seconds:
            break
        j = i % len(cases)
        probes.append(speed_probe())
        begin = time.perf_counter()
        outcomes.append(runner.request(cases[j], dirs[j]))
        walls.append(time.perf_counter() - begin)
        i += 1
    judge_all(outcomes)
    raw = [o.seconds for o in outcomes]
    latencies = at_nominal_speed(raw, probes)
    n_ok = sum(o.result == "ok" for o in outcomes)
    metrics = {
        "setup_s": setup_s,
        "latency_s.p50": statistics.median(latencies),
        "latency_s.tail": tail_of(latencies),
        "requests_per_s": n_ok / sum(at_nominal_speed(walls, probes)),
        "peak_rss_mb": max(o.rss_kb for o in outcomes) / 1024,
        "correct_frac": n_ok / len(outcomes),
    }
    note = (
        f"latency_s.tail is p87.5 of {len(latencies)} samples in {len(latencies) / per_round:g} "
        f"rounds of {per_round}; times are at nominal "
        f"speed: probe median {statistics.median(probes) * 1e3:.2f} ms against "
        f"{NOMINAL_PROBE_S * 1e3:.2f} ms; raw wall: setup {raw_setup:.4f} s, "
        f"p50 {statistics.median(raw):.4f} s, tail {tail_of(raw):.4f} s"
    )
    return metrics, outcomes, note


def _span_totals(dump: dict, totals: dict) -> None:
    """Add one request's inclusive time, self time and calls per span name."""
    spans = dump["spans"]
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    for idx, (name, start, end, parent) in enumerate(spans):
        entry = totals.setdefault(name, {"ns": 0, "self_ns": 0, "calls": 0})
        entry["calls"] += 1
        entry["self_ns"] += end - start - child_ns[idx]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:  # outermost call of this name: count its time once
            entry["ns"] += end - start


def run_traced(workload, seed, seconds, runner, slots=None) -> tuple[dict, list[Outcome], str]:
    """Passes over one round of the schedule.  Every request runs plain,
    then with spans, then with call counters.  Layer figures are per pass,
    so counts repeat exactly."""
    cases = workloads.generate(workload, seed, 1, slots)
    dirs = materialize(cases, runner.work)
    outcomes: list[Outcome] = []
    totals: dict = {}
    counts = {name: 0 for name in COUNTED}
    refine = {"rounds": 0, "pair_checks": 0, "removed": 0}
    report_bytes = 0
    plain_s = traced_s = 0.0
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        passes += 1
        for case, case_dir in zip(cases, dirs):
            plain = runner.request(case, case_dir)
            traced = runner.request(case, case_dir, "spans")
            dump = runner.read_spans() if traced.exit_code in (0, 1) else None
            counted = runner.request(case, case_dir, "counts")
            outcomes += [plain, traced, counted]
            plain_s += plain.seconds
            traced_s += traced.seconds
            report_bytes += len(plain.stdout.encode())
            if dump is not None:
                _span_totals(dump, totals)
                for key in refine:
                    refine[key] += dump["refine"][key]
            if counted.exit_code in (0, 1):
                for name, value in runner.read_spans()["counts"].items():
                    counts[name] += value
    judge_all(outcomes)

    def per_pass(value):
        return value / passes

    def span(name, key):
        return per_pass(totals.get(name, {}).get(key, 0)) / (1 if key == "calls" else 1e9)

    metrics = {f"{name}.self_s": span(name, "self_ns") for name in SPAN_SELF}
    metrics["vcat.validate_vcategory.calls"] = span("vcat.validate_vcategory", "calls")
    metrics["bisim.refine.rounds"] = per_pass(refine["rounds"])
    metrics["bisim.refine.pair_checks"] = per_pass(refine["pair_checks"])
    metrics["bisim.refine.useful_ratio"] = (
        refine["removed"] / refine["pair_checks"] if refine["pair_checks"] else 0.0
    )
    metrics.update({f"{name}.s": span(name, "ns") for name in SPAN_TOTAL})
    metrics["cli.report_bytes"] = per_pass(report_bytes)
    metrics.update({f"{name}.calls": per_pass(counts[name]) for name in COUNTED})
    micro = run_micro(workload, seed, cases, dirs, runner)
    for cls in LATTICE_CLASSES:
        for op in ("join", "leq", "meet"):
            key = f"lattice.{cls}.{op}.ns"
            metrics[key] = micro.get(key, 0.0)
    metrics["trace.overhead_s"] = (traced_s - plain_s) / (passes * len(cases))
    note = f"{passes} traced passes over {len(cases)} requests; layer figures are per pass"
    return metrics, outcomes, note


def run_micro(workload, seed, cases, dirs, runner) -> dict:
    """Lattice per-call costs on the largest case of the traced round."""
    largest = max(range(len(cases)), key=lambda i: sum(len(t) for t in cases[i].files.values()))
    argv = cases[largest].argv
    aut_k = argv[argv.index("--aut-k") + 1] if "--aut-k" in argv else "0"
    cmd = [
        sys.executable, str(HERE / "micro.py"), workload,
        str(dirs[largest].relative_to(ROOT)), str(seed), aut_k,
    ]
    _, code, _, stdout = runner.spawn(cmd)
    if code != 0:
        raise SystemExit(f"lattice microbenchmark failed: {runner.stderr_tail()}")
    micro = json.loads(stdout)
    expected = MICRO_CLASS[workload]
    if any(f"lattice.{expected}." not in key for key in micro):
        raise SystemExit(f"microbenchmark measured {sorted(micro)}, not {expected}")
    return micro


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> None:
    """One run: measure, print the summary, then the JSON result line."""
    work = WORK_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(work)
        if trace:
            metrics, outcomes, note = run_traced(workload, seed, seconds, runner)
            units = layer_units()
        else:
            metrics, outcomes, note = run_e2e(workload, seed, seconds, runner)
            units = E2E_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    attempted, failed, wrong = tally(outcomes)
    print(f"{workload} seed={seed} seconds={seconds:g} trace={int(trace)}: "
          f"{attempted} attempted, {failed} failed ({wrong} of them wrong answers)")
    print(f"  {'failed_frac':34s} {failed / attempted:.6g} fraction")
    print(f"  {'wrong_frac':34s} {wrong / attempted:.6g} fraction")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g} {units[name]}")
    print(f"  ({note})")
    for o in outcomes:
        if o.result != "ok":
            print(f"  {o.result}: {o.case.slot} exit={o.exit_code}", file=sys.stderr)
            break
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "enrbisim" / "__init__.py").is_file():
        print(f"no enrbisim sources under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        run_workload(name, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
