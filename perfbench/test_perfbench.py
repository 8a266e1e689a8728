"""Tests of the benchmark itself: inputs, references, judging and tracing.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run
import workloads

sys.path.insert(0, str(run.SRC))

TINY = {
    "aut-bisim": [
        (6, 2, False, "bisimilar"),
        (6, 4, True, "bisimilar"),
        (6, 2, True, "simulates"),
        (6, 2, False, "cospan"),
        (6, 4, False, "span"),
    ],
    "table-sim": [
        (6, "Q2", "extend", "simulates"),
        (6, "M3", "perturb", "bisim-largest"),
        (6, "Q2", "perturb", "simulates"),
    ],
    "sieve-cts": [(5, "cts-build"), (5, "cts-refine")],
}


def run_in_process(case: workloads.Case, case_dir: Path) -> tuple[int, str]:
    from enrbisim import cli

    for name, text in case.files.items():
        (case_dir / name).write_text(text)
    argv = [a.replace("{dir}", str(case_dir)) for a in case.argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(workload):
    first = workloads.generate(workload, 7, 1)
    again = workloads.generate(workload, 7, 1)
    other = workloads.generate(workload, 8, 1)
    assert [(c.files, c.argv, c.expect) for c in first] == [
        (c.files, c.argv, c.expect) for c in again
    ]
    assert [c.files for c in first] != [c.files for c in other]
    assert [c.slot for c in first] == [c.slot for c in other]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2])
def test_references_agree_with_enrbisim(workload, seed, tmp_path):
    for i, case in enumerate(workloads.generate(workload, seed, 1, TINY[workload])):
        case_dir = tmp_path / str(i)
        case_dir.mkdir()
        code, stdout = run_in_process(case, case_dir)
        assert reference.judge(case.expect, case.command, code, stdout) == "ok", case.slot


def test_mutated_reports_count_as_wrong_and_errors_as_failed(tmp_path):
    cases = workloads.generate("aut-bisim", 3, 1, TINY["aut-bisim"])
    outcomes = []
    for i, case in enumerate(cases):
        case_dir = tmp_path / str(i)
        case_dir.mkdir()
        code, stdout = run_in_process(case, case_dir)
        outcomes.append(run.Outcome(case, 0.1, code, 0, stdout))
    report = json.loads(outcomes[0].stdout)
    report["details"]["pairs"].pop()
    outcomes[0].stdout = json.dumps(report)
    report = json.loads(outcomes[3].stdout)
    report["details"]["target_objects"].append("extra")
    outcomes[3].stdout = json.dumps(report)
    outcomes[1].exit_code = 2
    outcomes[2].stdout = "Traceback (most recent call last):"
    run.judge_all(outcomes)
    assert [o.result for o in outcomes] == ["wrong", "failed", "failed", "wrong", "ok"]
    assert run.tally(outcomes) == (5, 4, 2)

    flipped = json.loads(outcomes[4].stdout)
    flipped["verdict"] = "no"
    assert reference.judge(cases[4].expect, "span", 1, json.dumps(flipped)) == "wrong"


def test_tail_is_the_median_of_the_slowest_quarter():
    assert run.tail_of([float(i) for i in range(40)]) == 34.5


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_largest_size_fills_a_quarter_of_the_schedule(workload):
    slots = workloads.WORKLOADS[workload][0]
    sizes = [slot[0] for slot in slots]
    assert sizes.count(max(sizes)) * 4 == len(slots)


def test_tail_scales_with_the_program_not_the_request_count():
    costs = [1.0, 2.0, 2.1, 4.0, 1.1, 2.2, 2.3, 4.4]  # one round: large slots 4.0 and 4.4
    fast = run.tail_of(costs * 12)
    assert run.tail_of([2 * c for c in costs] * 6) == pytest.approx(2 * fast)


def test_host_slowdown_seen_by_the_probes_is_scaled_away():
    nominal = run.NOMINAL_PROBE_S
    walls = [0.2, 0.4, 0.3, 0.6, 0.2, 0.4]
    probes = [nominal] * 3 + [2 * nominal] * 3
    scaled = run.at_nominal_speed(walls, probes)
    assert scaled[:2] == pytest.approx(walls[:2])
    assert scaled[4:] == pytest.approx([w / 2 for w in walls[4:]])


NONZERO = {
    "aut-bisim": [
        "vcat.validate_vcategory.self_s", "vcat.validate_vcategory.calls",
        "bisim.largest_bisimulation.self_s", "bisim.largest_simulation.self_s",
        "bisim.refine.rounds", "bisim.refine.pair_checks", "bisim.refine.useful_ratio",
        "bisim.cospan_witness.self_s", "bisim.span_witness.self_s", "bisim.quotient.self_s",
        "bisim.is_od.self_s", "vcat.pullback.self_s", "vcat.free_vcategory.self_s",
        "quantaloid.LanguageQuantale.path_homs.s", "documents.load_bundle.self_s",
        "cli.Report.to_json.s", "cli.report_bytes",
        "lattice.PowersetLattice.join.calls", "lattice.PowersetLattice.leq.calls",
        "lattice.PowersetLattice.meet.calls", "lattice.PowersetLattice.check_element.calls",
        "quantaloid.hom.calls", "quantaloid.compose.calls",
        "lattice.PowersetLattice.join.ns", "lattice.PowersetLattice.leq.ns",
        "lattice.PowersetLattice.meet.ns",
    ],
    "table-sim": [
        "vcat.validate_vcategory.self_s", "vcat.validate_vcategory.calls",
        "bisim.largest_bisimulation.self_s", "bisim.largest_simulation.self_s",
        "bisim.refine.rounds", "bisim.refine.pair_checks", "documents.load_bundle.self_s",
        "cli.Report.to_json.s", "cli.report_bytes",
        "lattice.TableLattice.join.calls", "lattice.TableLattice.leq.calls",
        "lattice.TableLattice.check_element.calls",
        "quantaloid.hom.calls", "quantaloid.compose.calls",
        "lattice.TableLattice.join.ns", "lattice.TableLattice.leq.ns",
        "lattice.TableLattice.meet.ns",
    ],
    "sieve-cts": [
        "vcat.free_vcategory.self_s", "documents.load_bundle.self_s",
        "documents.vcategory_to_doc.s", "cli.Report.to_json.s", "cli.report_bytes",
        "cts.cts_to_vcat.s", "cts.refine.s", "cob.apply_cob.s", "cob.local_right_adjoints.s",
        "quantaloid.validate_quantaloid.s",
        "lattice.DownsetLattice.join.calls", "lattice.DownsetLattice.leq.calls",
        "lattice.DownsetLattice.check_element.calls",
        "quantaloid.hom.calls", "quantaloid.compose.calls",
        "lattice.DownsetLattice.join.ns", "lattice.DownsetLattice.leq.ns",
        "lattice.DownsetLattice.meet.ns",
    ],
}


def traced_metrics(workload: str, tmp_path: Path, tag: str) -> dict:
    work = tmp_path / tag
    work.mkdir()
    metrics, outcomes, _ = run.run_traced(workload, 5, 0, run.Runner(work), TINY[workload])
    assert run.tally(outcomes)[1] == 0
    assert set(metrics) == set(run.layer_units())
    return metrics


@pytest.fixture
def checkout_tmp(request):
    """Scratch space inside the checkout: children run with the checkout as cwd."""
    path = run.ROOT / ".perfbench-work" / f"test-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):
        path.parent.rmdir()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_layer_metrics_are_nonzero_where_exercised(workload, checkout_tmp):
    metrics = traced_metrics(workload, checkout_tmp, "a")
    assert [name for name in NONZERO[workload] if not metrics[name] > 0] == []
    if workload == "sieve-cts":
        zero = [n for n in metrics if n.startswith(("bisim.", "vcat.validate_vcategory."))]
        assert zero and all(metrics[n] == 0 for n in zero)


def test_call_counts_repeat_exactly(checkout_tmp):
    first = traced_metrics("sieve-cts", checkout_tmp, "a")
    again = traced_metrics("sieve-cts", checkout_tmp, "b")
    counted = [n for n in first if n.endswith((".calls", ".rounds", ".pair_checks"))]
    assert [(n, first[n]) for n in counted] == [(n, again[n]) for n in counted]


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "aut-bisim", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
