"""Same-host benchmark of the simulator: three workloads, end to end and
per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload scf --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

``--trace 0`` reports the end-to-end metrics, measured with no tracing.
``--trace 1`` runs the workload untraced and then once more with the
per-layer wrappers of ``perfbench/spans.py`` installed, reports the
per-layer metrics and writes the spans as JSONL under ``.perfbench/``.
``--workload all`` runs every workload untraced and traced, each in a
subprocess of its own so that each one's peak memory is its own, and
prints every metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Seed a claim is developed on; a claim must also hold on held-out seed 9.
DEFAULT_SEED = 1

#: After each repeat, setup-only runs take this share of the repeat's
#: time (at least one run), so the setup samples see the host across the
#: whole run. ``setup_s`` is their median together with every repeat's
#: own setup.
SETUP_SHARE = 0.05

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "ops_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_makespan_s": "s",
}

ARMCI_OPS = ("put", "get", "puts", "gets", "putv", "acc", "rmw", "fence")
GAX_OPS = {
    "get": "repro.gax.array:GlobalArray.get",
    "acc": "repro.gax.array:GlobalArray.acc",
    "counter_next": "repro.gax.counter:SharedCounter.next",
}
#: Engine entry points: the bottom spans of every traced job.
ENGINE_ENTRIES = ("repro.sim.engine:Engine.run",
                  "repro.sim.engine:Engine.run_until_complete")
ADVANCE = "repro.pami.context:PamiContext.advance"
POLL = "repro.serve.actor:ActorSystem.poll_once"
WAVE = "repro.serve.termination:FourCounterTermination.wave"


def _armci_name(op: str) -> str:
    return f"repro.armci.runtime:ArmciProcess.{op}"


def per_layer_units() -> dict[str, str]:
    """Per-layer metrics: name -> unit, in report order."""
    units = {
        "sim.events_per_op": "1/op",
        "sim.host_us_per_event": "us",
        "sim.self_s": "s",
        "machine.timing_calls_per_op": "1/op",
        "machine.self_s": "s",
        "topology.self_s": "s",
        "topology.setup_s": "s",
        "pami.rdma_per_op": "1/op",
        "pami.am_per_op": "1/op",
        "pami.amo_per_op": "1/op",
        "pami.advance_per_op": "1/op",
        "pami.advance_useful_ratio": "ratio",
        "pami.self_s": "s",
        "pami.setup_s": "s",
        "transport.calls_per_op": "1/op",
        "transport.self_s": "s",
    }
    for op in ARMCI_OPS:
        units[f"armci.{op}.host_us_p50"] = "us"
        units[f"armci.{op}.host_us_p99"] = "us"
    units.update({
        "armci.strided_rdma_per_op": "1/op",
        "armci.region_cache_hit_ratio": "ratio",
        "armci.retries_per_op": "1/op",
        "armci.self_s": "s",
        "armci.init_s": "s",
    })
    for op in GAX_OPS:
        units[f"gax.{op}.host_us_p50"] = "us"
        units[f"gax.{op}.host_us_p99"] = "us"
    units.update({
        "gax.counter_wait_sim_frac": "ratio",
        "gax.self_s": "s",
        "nwchem.self_s": "s",
        "serve.poll_useful_ratio": "ratio",
        "serve.polls_per_request": "1/request",
        "serve.waves_per_request": "1/request",
        "serve.flushes_per_request": "1/request",
        "serve.sim_latency_p50_us": "us",
        "serve.sim_latency_p99_us": "us",
        "serve.sim_latency_p999_us": "us",
        "serve.self_s": "s",
        "serve.audit_s": "s",
        "unattributed_s": "s",
        "trace.host_s": "s",
        "trace.spans": "count",
        "trace.ops_per_s_untraced": "1/s",
        "trace.ops_per_s_traced": "1/s",
        "trace.overhead_frac": "ratio",
        "failed_frac": "ratio",
    })
    return units


# --------------------------------------------------------- host context

def _commit(root: Path) -> str:
    """HEAD commit read from ``.git`` without running git, or ``unknown``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_context() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(ROOT),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------- phase clock

class PhaseClock:
    """Times ``ArmciJob`` construction, ``init`` and ``run`` from outside.

    Wraps the three public entry points (one call each per job), so the
    program's own drivers (``run_scf``, ``run_kv``) are timed without
    editing them. With a tracer attached it also moves the tracer
    between the ``setup``, ``run`` and ``audit`` phases. With a
    :class:`~perfbench.hostspeed.HostSpeed` attached, the probe's own
    time is left out of every interval.
    """

    def __init__(self, tracer=None, speed=None):
        self.tracer = tracer
        self.speed = speed
        #: name -> (perf_counter, probe seconds spent so far).
        self.marks: dict[str, tuple[float, float]] = {}
        self.events_at_run = (0, 0)
        self.counters_at_run: dict[str, int] = {}
        self._saved = []

    def install(self) -> None:
        from repro.armci.runtime import ArmciJob

        clock = self
        o_ctor, o_init, o_run = (ArmciJob.__dict__[a] for a in ("__init__", "init", "run"))

        def ctor(job, *args, **kwargs):
            clock.mark("ctor")
            return o_ctor(job, *args, **kwargs)

        def init(job):
            try:
                return o_init(job)
            finally:
                clock.mark("init_end")

        def run(job, *args, **kwargs):
            clock.counters_at_run = job.trace.snapshot()
            before = job.engine.events_executed
            clock._phase("run")
            clock.mark("run_start")
            try:
                return o_run(job, *args, **kwargs)
            finally:
                clock.mark("run_end")
                clock.events_at_run = (before, job.engine.events_executed)
                clock._phase("audit")

        for attr, fn in (("__init__", ctor), ("init", init), ("run", run)):
            self._saved.append((ArmciJob, attr, ArmciJob.__dict__[attr]))
            setattr(ArmciJob, attr, fn)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.set_phase(name)

    def mark(self, name: str) -> None:
        self.marks[name] = (time.perf_counter(),
                            self.speed.spent if self.speed is not None else 0.0)

    def start_repeat(self) -> None:
        self.marks.clear()
        self._phase("setup")

    def interval(self, first: str, last: str) -> tuple[float, float, float]:
        """``(host seconds, start, end)`` between two marks, probe time
        excluded."""
        (t0, s0), (t1, s1) = self.marks[first], self.marks[last]
        return (t1 - t0 - (s1 - s0), t0, t1)


# -------------------------------------------------------------- running

def _median(values):
    return statistics.median(values) if values else 0.0


def timed_repeat(wl, inputs, clock: PhaseClock) -> dict:
    """One whole job: setup, run and audit, with the interval of each
    phase as ``(host seconds, start, end)``."""
    gc.collect()
    clock.start_repeat()
    clock.mark("start")
    outcome = wl.repeat(inputs)
    clock.mark("end")
    return {
        "outcome": outcome,
        "wall": clock.interval("start", "end"),
        "setup": clock.interval("ctor", "init_end"),
        "run": clock.interval("run_start", "run_end"),
        "audit": clock.interval("run_end", "end"),
    }


def _times(rep: dict, seconds) -> dict:
    """A repeat's phase times and ``ops_per_s``; ``seconds`` maps an
    interval to the seconds it is reported in."""
    out = {k + "_s": seconds(rep[k]) for k in ("wall", "setup", "run", "audit")}
    out["ops_per_s"] = rep["outcome"].ops / out["run_s"] if out["run_s"] > 0 else 0.0
    return out


def _host(interval) -> float:
    return interval[0]


def measure(wl, seed: int, seconds: float, trace: bool, out_dir: Path,
            max_spans: int = 50_000) -> dict:
    """Run one workload for about ``seconds`` and compute its metrics.

    End-to-end times are in reference seconds: the host-speed probe runs
    throughout the untraced repeats and scales every interval by the
    host's speed at that time (``perfbench/hostspeed.py``).
    """
    from perfbench.hostspeed import HostSpeed
    from perfbench.spans import Tracer

    inputs = wl.inputs(seed)
    speed = HostSpeed()
    clock = PhaseClock(speed=speed)
    clock.install()
    try:
        wl.setup_only(inputs)  # warm-up: lazy imports, first-use caches
        # Untraced repeats fill the budget (half of it when a traced
        # repeat follows); a repeat starts only if it should fit.
        budget = seconds / 2 if trace else seconds
        t_start = time.perf_counter()
        repeats, setups = [], []
        with speed:
            while True:
                rep = timed_repeat(wl, inputs, clock)
                rep["outcome"].job = None  # free the job before the next one
                repeats.append(rep)
                setups.append(rep["setup"])
                t_setup = time.perf_counter()
                while True:
                    gc.collect()
                    wl.setup_only(inputs)
                    setups.append(clock.interval("ctor", "init_end"))
                    if time.perf_counter() - t_setup >= SETUP_SHARE * _host(rep["wall"]):
                        break
                elapsed = time.perf_counter() - t_start
                if elapsed + _median([_host(r["wall"]) for r in repeats]) > budget:
                    break
    finally:
        clock.uninstall()

    def reference(interval):
        return speed.reference_s(*interval)

    ref = [_times(r, reference) for r in repeats]
    host = [_times(r, _host) for r in repeats]
    setup_ref = [reference(iv) for iv in setups]
    attempted = sum(r["outcome"].attempted for r in repeats)
    failed = sum(r["outcome"].failed for r in repeats)
    notes = [n for r in repeats for n in r["outcome"].notes]
    probes = [p for _, p in speed.samples]
    result = {
        "workload": wl.name,
        "seed": seed,
        "repeats": len(repeats),
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "per_repeat": {k: [t[k] for t in ref]
                       for k in ("ops_per_s", "wall_s", "setup_s", "run_s", "audit_s")},
        "per_repeat_host": {k: [t[k] for t in host]
                            for k in ("ops_per_s", "wall_s", "setup_s", "run_s", "audit_s")},
        "setup_samples": setup_ref,
        "probe": {"samples": len(probes), "median_ms": _median(probes) * 1e3,
                  "handler_s": speed.spent},
        "metrics": {
            "ops_per_s": _median([t["ops_per_s"] for t in ref]),
            "wall_s": _median([t["wall_s"] for t in ref]),
            "setup_s": _median(setup_ref),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "sim_makespan_s": repeats[0]["outcome"].sim_makespan_s,
        },
    }
    if not trace:
        return result

    # The traced repeat runs without the probe, so its spans hold only
    # the program's time; its speed is compared with the untraced
    # repeats' in host seconds.
    untraced_ops = _median([t["ops_per_s"] for t in host])
    gc.collect()
    tracer = Tracer(
        always_span=[_armci_name(op) for op in ARMCI_OPS] + list(GAX_OPS.values())
        + list(ENGINE_ENTRIES),
        op_roots=wl.op_roots,
        op_roots_top_only=wl.op_roots_top_only,
        truthy=(ADVANCE, POLL),
        max_spans=max_spans,
    )
    clock = PhaseClock(tracer)
    tracer.install()
    clock.install()
    try:
        rep = timed_repeat(wl, inputs, clock)
    finally:
        clock.uninstall()
        tracer.uninstall()
        tracer.finish()
    rep.update(_times(rep, _host))
    out = rep["outcome"]
    result["attempted"] += out.attempted
    result["failed"] += out.failed
    result["notes"] += out.notes
    result["layers"] = layer_metrics(wl, rep, tracer, clock, untraced_ops)
    out_dir.mkdir(parents=True, exist_ok=True)
    span_file = out_dir / f"spans-{wl.name}-seed{seed}.jsonl"
    tracer.write_jsonl(span_file, {"workload": wl.name, "seed": seed,
                                   "host": host_context()})
    result["span_file"] = str(span_file.relative_to(ROOT))
    return result


def _pct(values, q: float) -> float:
    """Nearest-rank percentile in microseconds (0 when never called)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    k = min(len(ordered), max(1, math.ceil(q * len(ordered)))) - 1
    return ordered[k] * 1e6


def layer_metrics(wl, rep: dict, tracer, clock: PhaseClock, untraced_ops: float) -> dict:
    """Per-layer metrics from one traced repeat."""
    from perfbench.spans import LAYERS, layer_of

    out = rep["outcome"]
    ops = max(out.ops, 1)
    run_calls = tracer.calls_between("run", "audit")
    layer_calls: dict[str, int] = {}
    for name, n in run_calls.items():
        layer = layer_of(name.split(":", 1)[0])
        layer_calls[layer] = layer_calls.get(layer, 0) + n
    total = tracer.layer_self()
    setup = tracer.layer_self("setup")
    counters = out.job.trace.counters
    before = clock.counters_at_run

    def delta(name):
        return counters.get(name, 0) - before.get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    ev0, ev1 = clock.events_at_run
    events = ev1 - ev0
    run_self = tracer.layer_self("run")
    m = {
        "sim.events_per_op": events / ops,
        "sim.host_us_per_event": ratio(run_self.get("sim", 0.0), events) * 1e6,
        "sim.self_s": total.get("sim", 0.0),
        "machine.timing_calls_per_op": layer_calls.get("machine", 0) / ops,
        "machine.self_s": total.get("machine", 0.0),
        "topology.self_s": total.get("topology", 0.0),
        "topology.setup_s": setup.get("topology", 0.0),
        "pami.rdma_per_op": (delta("pami.rdma_puts") + delta("pami.rdma_gets")) / ops,
        "pami.am_per_op": delta("pami.am_sent") / ops,
        "pami.amo_per_op": delta("pami.rmw_posted") / ops,
        "pami.advance_per_op": run_calls.get(ADVANCE, 0) / ops,
        "pami.advance_useful_ratio": ratio(tracer.truthy.get(ADVANCE, 0),
                                           tracer.calls.get(ADVANCE, 0)),
        "pami.self_s": total.get("pami", 0.0),
        "pami.setup_s": setup.get("pami", 0.0),
        "transport.calls_per_op": layer_calls.get("transport", 0) / ops,
        "transport.self_s": total.get("transport", 0.0),
    }
    for op in ARMCI_OPS:
        d = tracer.durations.get(_armci_name(op), [])
        m[f"armci.{op}.host_us_p50"] = _pct(d, 0.50)
        m[f"armci.{op}.host_us_p99"] = _pct(d, 0.99)
    hits = counters.get("armci.region_cache_hits", 0)
    misses = counters.get("armci.region_cache_misses", 0)
    m.update({
        "armci.strided_rdma_per_op": delta("armci.strided_rdma_ops") / ops,
        "armci.region_cache_hit_ratio": ratio(hits, hits + misses),
        "armci.retries_per_op": delta("armci.transient_retries") / ops,
        "armci.self_s": total.get("armci", 0.0),
        "armci.init_s": setup.get("armci", 0.0),
    })
    for op, name in GAX_OPS.items():
        d = tracer.durations.get(name, [])
        m[f"gax.{op}.host_us_p50"] = _pct(d, 0.50)
        m[f"gax.{op}.host_us_p99"] = _pct(d, 0.99)
    requests = out.extra.get("requests", 0)
    latency = out.extra.get("latency", {})
    m.update({
        "gax.counter_wait_sim_frac": out.extra.get("counter_fraction", 0.0),
        "gax.self_s": total.get("gax", 0.0),
        "nwchem.self_s": total.get("nwchem", 0.0),
        "serve.poll_useful_ratio": ratio(tracer.truthy.get(POLL, 0),
                                         tracer.calls.get(POLL, 0)),
        "serve.polls_per_request": ratio(tracer.calls.get(POLL, 0), requests),
        "serve.waves_per_request": ratio(tracer.calls.get(WAVE, 0), requests),
        "serve.flushes_per_request": ratio(counters.get("serve.wire_flushes", 0), requests),
        "serve.sim_latency_p50_us": latency.get("p50", 0.0) * 1e6,
        "serve.sim_latency_p99_us": latency.get("p99", 0.0) * 1e6,
        "serve.sim_latency_p999_us": latency.get("p999", 0.0) * 1e6,
        "serve.self_s": total.get("serve", 0.0),
        "serve.audit_s": tracer.layer_self("audit").get("serve", 0.0),
    })
    attributed = sum(total.get(layer, 0.0) for layer in LAYERS)
    m.update({
        "unattributed_s": rep["wall_s"] - attributed,
        "trace.host_s": rep["wall_s"],
        "trace.spans": tracer.spans_total,
        "trace.ops_per_s_untraced": untraced_ops,
        "trace.ops_per_s_traced": rep["ops_per_s"],
        "trace.overhead_frac": ratio(untraced_ops - rep["ops_per_s"], untraced_ops),
        "failed_frac": ratio(out.failed, out.attempted),
    })
    return m


# ------------------------------------------------------------- printing

def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_report(result: dict, units: dict[str, str], metrics: dict) -> None:
    from perfbench.hostspeed import REFERENCE_PROBE_S

    host = host_context()
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"repeats {result['repeats']}  host nproc={host['nproc']} "
          f"python={host['python']} numpy={host['numpy']} commit={host['commit']}")
    probe = result["probe"]
    print(f"  host-speed probe: median {probe['median_ms']:.4g} ms over "
          f"{probe['samples']} probes; end-to-end times are reference seconds "
          f"(probe = {REFERENCE_PROBE_S * 1e3:g} ms)")
    for name, unit in units.items():
        print(f"  {name:34s} {_fmt(metrics[name]):>14s} {unit}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  attempted {attempted}  failed {failed}  "
          f"failed_frac {failed / attempted if attempted else 0.0:.6g}")
    for note in result["notes"][:20]:
        print(f"  audit: {note}")
    if "span_file" in result:
        print(f"  spans: {result['span_file']}")


def result_line(result: dict, units: dict[str, str], metrics: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0 and not result["notes"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    })


def run_all(args) -> int:
    """Every workload, untraced and then traced, each in a process of its
    own; prints every metric of every workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("scf", "rma_mix", "kv_chaos"):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            table, last = proc.stdout.strip().rsplit("\n", 1)
            print(table)
            last = json.loads(last)
            combined["correct"] &= last["correct"]
            combined["attempted"] += last["attempted"]
            combined["failed"] += last["failed"]
            for metric, node in last["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = node
    print(json.dumps(combined))
    return 0


def make_workload(name: str, smoke: bool):
    from perfbench import workloads as w

    if not smoke:
        return w.WORKLOADS[name]()
    if name == "scf":
        return w.Scf(w.ScfSpec(procs=16, procs_per_node=4, nbf=64, nblocks=6))
    if name == "rma_mix":
        return w.RmaMix(iterations=4)
    return w.KvChaos(w.KvSpec(clients=256))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("scf", "rma_mix", "kv_chaos", "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run "
                             "(--workload all runs both)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: {src}/repro not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    if args.workload == "all":
        return run_all(args)

    wl = make_workload(args.workload, args.smoke)
    result = measure(wl, args.seed, args.seconds, bool(args.trace),
                     ROOT / ".perfbench")
    units = per_layer_units() if args.trace else END_TO_END
    metrics = result["layers"] if args.trace else result["metrics"]
    print_report(result, units, metrics)
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    record = dict(result, host=host_context())
    (out_dir / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(result_line(result, units, metrics))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
