"""Figure 11: NWChem SCF (6 H2O, 644 basis functions), D vs AT.

The paper's headline application result: on 1024-4096 processes the
asynchronous-thread design cuts SCF execution time by up to 30%, with the
time spent in load-balance counters collapsing.
"""

import dataclasses
import os
from pathlib import Path

import pytest
from _report import save

from repro.apps.nwchem import ScfConfig
from repro.bench.scf import scf_comparison
from repro.util import render_table, us

#: Paper process counts; REPRO_FIG11_SMALL=1 shrinks the grid for smoke runs.
if os.environ.get("REPRO_FIG11_SMALL"):
    PROC_COUNTS = (64, 128, 256)
    SCF = ScfConfig(nblocks=24, task_time=2e-3, iterations=1, tasks_per_draw=2)
else:
    PROC_COUNTS = (1024, 2048, 4096)
    SCF = ScfConfig(nblocks=128, task_time=6e-3, iterations=1, tasks_per_draw=2)


def test_fig11_scf_default_vs_async_thread(benchmark):
    rows = benchmark.pedantic(
        scf_comparison,
        kwargs={"proc_counts": PROC_COUNTS, "scf": SCF},
        rounds=1,
        iterations=1,
    )

    for cell in rows:
        # AT always wins, with a meaningful (>=10%) reduction...
        assert cell.improvement > 0.10, (cell.num_procs, cell.improvement)
        # ...bounded by roughly the paper's band (not a 10x blowout).
        assert cell.improvement < 0.55, (cell.num_procs, cell.improvement)
        # The counter time collapses under AT (the paper's "reduces
        # sharply").
        assert cell.counter_time_reduction > 2.5, cell.num_procs
        # All tasks executed exactly once in both runs.
        assert cell.default.tasks_done == SCF.ntasks
        assert cell.async_thread.tasks_done == SCF.ntasks

    # Strong scaling: total time drops as processes increase.
    at_times = [c.async_thread.total_time for c in rows]
    assert at_times == sorted(at_times, reverse=True)

    table = [
        [
            c.num_procs,
            f"{c.default.total_time * 1e3:.1f}",
            f"{c.async_thread.total_time * 1e3:.1f}",
            f"{c.improvement * 100:.0f}%",
            f"{us(c.default.counter_time_mean):.0f}",
            f"{us(c.async_thread.counter_time_mean):.0f}",
        ]
        for c in rows
    ]
    save(
        "fig11_scf",
        render_table(
            [
                "procs",
                "D total (ms)",
                "AT total (ms)",
                "AT gain",
                "D counter/rank (us)",
                "AT counter/rank (us)",
            ],
            table,
            title=(
                "Figure 11: SCF, 6 H2O / 644 bf "
                f"({SCF.ntasks} tasks x {SCF.iterations} iter) — paper: "
                "AT cuts execution time up to 30%, counter time collapses"
            ),
        ),
    )


#: Span tracing multiplies per-op cost, so the --trace-out rerun uses a
#: scaled-down-but-still-contended SCF (single shared counter, small task
#: grain) where the D-vs-AT counter dwell contrast is unmistakable.
TRACE_PROCS = 16
TRACE_SCF = ScfConfig(nblocks=10, task_time=5e-4, iterations=1)


def test_fig11_trace_export(request):
    out_dir = request.config.getoption("--trace-out")
    if not out_dir:
        pytest.skip("pass --trace-out DIR to export Perfetto traces")

    from repro.apps.nwchem import run_scf
    from repro.armci import ArmciConfig, ObsConfig
    from repro.obs.critical_path import attribution_rows, critical_path
    from repro.obs.export import (
        perfetto_payload,
        validate_trace_events,
        write_metrics_json,
        write_perfetto,
    )

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    obs_on = ObsConfig(enabled=True)
    modes = {
        "D": dataclasses.replace(ArmciConfig.default_mode(), obs=obs_on),
        "AT": dataclasses.replace(ArmciConfig.async_thread_mode(), obs=obs_on),
    }
    counter_share = {}
    rows = []
    for label, config in modes.items():
        captured = {}
        run_scf(
            TRACE_PROCS,
            config,
            TRACE_SCF,
            label=label,
            on_job=lambda job: captured.update(job=job),
        )
        job = captured["job"]
        obs = job.obs
        spans, edges = obs.finished(), obs.edges
        assert obs.truncated_spans == 0

        path = out / f"fig11_trace_{label}.json"
        write_perfetto(path, spans, edges)
        assert validate_trace_events(perfetto_payload(spans, edges)) == []
        write_metrics_json(out / f"fig11_metrics_{label}.json", job.trace)

        report = critical_path(spans, edges)
        assert report.coverage >= 0.99, (label, report.coverage)
        counter_share[label] = report.attribution.get("counter_wait", 0.0)
        for cat, ms, pct in attribution_rows(report, top=5):
            rows.append([label, cat, ms, pct])

    # The headline contrast the trace files visualize: the async thread
    # collapses the initiator-side counter dwell on the critical path.
    assert counter_share["AT"] < counter_share["D"], counter_share

    save(
        "fig11_trace",
        render_table(
            ["mode", "critical-path category", "time", "share"],
            rows,
            title=(
                f"Fig. 11 trace export ({TRACE_PROCS} procs, "
                f"{TRACE_SCF.ntasks} tasks) — Perfetto files in {out}"
            ),
        ),
    )
