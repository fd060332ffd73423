"""Tests of the benchmark itself, at smoke size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run as bench
from perfbench import workloads as w
from perfbench.hostspeed import REFERENCE_PROBE_S, HostSpeed
from perfbench.spans import LAYERS

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [wl["name"] for wl in SPEC["workloads"]]

#: Per-layer metrics that are exact counts (or ratios of counts, or
#: simulated values) and so must repeat bit for bit at one seed.
DETERMINISTIC = [
    m["name"] for m in SPEC["per_layer"]
    if m["name"].endswith(("_per_op", "_per_request", "_ratio", "_sim_frac"))
    or m["name"].startswith("serve.sim_latency")
    or m["name"] in ("trace.spans", "failed_frac")
]


def _cli(*args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_unit(workload, trace):
    proc = _cli("--workload", workload, "--smoke", "--seconds", "1",
                "--trace", str(trace), "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    table = "\n".join(lines[:-1])
    for m in wanted:
        node = result["metrics"][m["name"]]
        assert node["unit"] == m["unit"]
        assert isinstance(node["value"], (int, float)) and math.isfinite(node["value"])
        assert f" {m['name']} " in table and table.count(f" {m['unit']}")
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def _traced(workload, seed=5):
    wl = bench.make_workload(workload, smoke=True)
    return bench.measure(wl, seed, 0.5, True, ROOT / ".perfbench", max_spans=1000)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_counts_and_makespan(workload):
    first, second = _traced(workload), _traced(workload)
    assert first["failed"] == 0 and second["failed"] == 0, first["notes"]
    for name in DETERMINISTIC:
        assert first["layers"][name] == second["layers"][name], name
    assert first["metrics"]["sim_makespan_s"] == second["metrics"]["sim_makespan_s"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_account_for_traced_host_time(workload):
    layers = _traced(workload)["layers"]
    selfs = [layers.get(f"{layer}.self_s", 0.0) for layer in LAYERS]
    assert all(s >= 0 for s in selfs)
    assert layers["unattributed_s"] >= 0
    assert sum(selfs) + layers["unattributed_s"] == pytest.approx(
        layers["trace.host_s"], rel=1e-9)


def test_span_file_has_header_and_spans():
    result = _traced("rma_mix")
    lines = (ROOT / result["span_file"]).read_text().splitlines()
    header = json.loads(lines[0])
    assert header["record"] == "header" and header["host"]["nproc"] >= 1
    assert header["spans_kept"] == len(lines) - 1 <= 1000
    span = json.loads(lines[1])
    assert set(span) == {"id", "parent", "layer", "name", "op", "host_s",
                         "self_s", "sim_start", "sim_end", "phase"}
    layers = {json.loads(line)["layer"] for line in lines[1:]}
    assert {"sim", "pami", "armci"} <= layers


def test_wrong_rma_expectation_is_counted_failed():
    wl = w.RmaMix(iterations=3)
    inp, model = wl.inputs(2)
    assert wl.repeat((inp, model)).failed == 0
    model.segments[1, w.PL_OFF + 5] ^= 0xFF      # a put byte of sender 0
    model.acc[3, 0] += 1.0
    out = wl.repeat((inp, model))
    assert out.failed == 2 and len(out.notes) == 2


def test_wrong_scf_reference_energy_is_counted_failed():
    wl = bench.make_workload("scf", smoke=True)
    cfg = wl.inputs(1)
    good = wl.repeat(cfg)
    assert good.failed == 0
    wl.reference = ([math.nextafter(e, math.inf) for e in wl.reference[0]],
                    wl.reference[1])
    bad = wl.repeat(cfg)
    assert bad.failed == bad.attempted == cfg.ntasks


def test_kv_late_or_wrong_results_are_counted_failed():
    wl = bench.make_workload("kv_chaos", smoke=True)
    result = wl._run(wl.inputs(1), None)
    assert w.audit_kv(result) == (0, [])
    result.late_responses = 3
    result.mismatched_keys, result.exact = 2, False
    failed, notes = w.audit_kv(result)
    assert failed == 5 and len(notes) == 2


def test_reference_seconds_scale_by_the_probe_time():
    speed = HostSpeed()
    speed.samples = [(0.0, 2e-3), (5.0, 2e-3), (10.0, 4e-3)]
    ref = REFERENCE_PROBE_S
    assert speed.reference_s(3.0, 0.0, 6.0) == pytest.approx(3.0 * ref / 2e-3)
    assert speed.reference_s(3.0, 0.0, 10.0) == pytest.approx(
        3.0 * ref * (1 / 2e-3 + 1 / 2e-3 + 1 / 4e-3) / 3)
    # A short interval is scaled by the probes around it.
    assert speed.reference_s(0.1, 9.8, 9.9) == pytest.approx(0.1 * ref / 4e-3)
    assert speed.reference_s(0.1, 7.0, 7.1) == pytest.approx(0.1 * ref / 2e-3)


def test_probe_time_is_left_out_of_intervals():
    speed = HostSpeed(period=0.01)
    clock = bench.PhaseClock(speed=speed)
    with speed:
        clock.mark("a")
        end = bench.time.perf_counter() + 0.3
        while bench.time.perf_counter() < end:
            pass
        clock.mark("b")
    host, start, stop = clock.interval("a", "b")
    assert len(speed.samples) >= 5
    assert 0 < host < stop - start
    assert host == pytest.approx(stop - start - speed.spent, abs=2e-3)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rma_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
