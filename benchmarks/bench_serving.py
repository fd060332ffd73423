"""Serving-tier benchmark: open-loop load sweep over the actor KV store.

Drives the :mod:`repro.serve` sharded KV/parameter-server scenario
(DESIGN.md §17) with an open-loop Zipf client population and records,
per offered rate and per backend:

- sustained response throughput (responses / simulated duration),
- latency p50/p99/p999 from the ``repro.obs`` histograms the client
  actors populate,
- late-response and deadline-miss counts (per-request deadlines).

Full mode additionally runs a million-simulated-client scenario on both
backends (exactness audited against the golden model — the run fails if
a single key diverges) and a chaos + rank-crash failover scenario.

Results land in ``BENCH_serving.json`` at the repo root and a rendered
table in ``benchmarks/results/``. ``REPRO_BENCH_SMOKE=1`` runs a
reduced sweep (CI smoke mode).
"""

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _report import save  # noqa: E402

import repro.transport as transport  # noqa: E402
from repro.chaos import ChaosConfig, FaultPlan  # noqa: E402
from repro.serve import ClientLoadConfig, KvConfig, run_kv  # noqa: E402
from repro.util import render_table  # noqa: E402

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

OUTPUT = Path(__file__).parent.parent / "BENCH_serving.json"

NUM_PROCS = 6
NUM_SHARDS = 2
BACKENDS = ("pami", "mpi3")

#: Offered aggregate request rates for the sweep (requests/sec). The
#: full sweep starts higher: at low offered rates the run's simulated
#: duration (requests / rate) is dominated by idle poll ticks, which
#: cost wall time without changing the measured latencies.
RATES = (1e5, 5e5) if SMOKE else (5e5, 2e6, 8e6)
SWEEP_CLIENTS = 2_048 if SMOKE else 65_536
MILLION_CLIENTS = 0 if SMOKE else 1_000_000


def _load(num_clients, rate, seed=1234, **overrides):
    base = dict(
        num_clients=num_clients,
        requests_per_client=2,
        num_keys=4096,
        put_keys_per_rank=64,
        zipf_alpha=1.0,
        rate=rate,
        arrival="poisson",
        deadline=5e-3,
        seed=seed,
    )
    base.update(overrides)
    return ClientLoadConfig(**base)


def _measure(load, backend, chaos=None, fault_plan=None):
    """One end-to-end run; returns the KvResult plus histogram summary."""
    prev = transport.DEFAULT_BACKEND
    transport.DEFAULT_BACKEND = backend
    jobs = []
    t0 = time.perf_counter()
    try:
        r = run_kv(
            NUM_PROCS,
            load=load,
            kv_config=KvConfig(num_shards=NUM_SHARDS),
            procs_per_node=NUM_PROCS,
            chaos=chaos,
            fault_plan=fault_plan,
            on_job=jobs.append,
        )
    finally:
        transport.DEFAULT_BACKEND = prev
    wall = time.perf_counter() - t0
    assert r.exact, (
        f"{backend}: {r.mismatched_keys} keys diverged from the golden model"
    )
    lat = jobs[0].trace.histogram("serve.latency").summary()
    return {
        "requests": r.requests,
        "responses": r.responses,
        "late_responses": r.late_responses,
        "deadline_misses": r.deadline_misses,
        "failovers": r.failovers,
        "duration_s": r.duration,
        "throughput_rps": r.responses / r.duration if r.duration else 0.0,
        "p50_us": lat["p50"] * 1e6,
        "p99_us": lat["p99"] * 1e6,
        "p999_us": lat["p999"] * 1e6,
        "wall_s": wall,
    }


def run_sweep(backend):
    out = []
    for rate in RATES:
        m = _measure(_load(SWEEP_CLIENTS, rate), backend)
        m["offered_rate_rps"] = rate
        out.append(m)
        print(
            f"  {backend} rate={rate:9.0f}: "
            f"{m['throughput_rps']:12.0f} resp/s  "
            f"p50={m['p50_us']:8.1f}us p99={m['p99_us']:8.1f}us "
            f"p999={m['p999_us']:8.1f}us  ({m['wall_s']:.1f}s wall)"
        )
    return out


def run_million(backend):
    """>= 1M simulated clients multiplexed on the client ranks."""
    m = _measure(
        _load(MILLION_CLIENTS, 5e6, requests_per_client=1, deadline=20e-3),
        backend,
    )
    print(
        f"  {backend} million-client: {m['responses']} responses, "
        f"{m['throughput_rps']:.0f} resp/s, p99={m['p99_us']:.1f}us "
        f"({m['wall_s']:.1f}s wall)"
    )
    return m


def run_failover():
    """Chaos plus a mid-traffic rank crash: exactness must survive."""
    m = _measure(
        _load(16_384, 2e5, seed=7),
        "pami",
        chaos=ChaosConfig.light(7),
        fault_plan=FaultPlan().crash(1, at=6e-3),
    )
    assert m["failovers"] >= 1, "crash landed outside the traffic window"
    print(
        f"  failover: {m['failovers']} shard failovers, "
        f"{m['responses']}/{m['requests']} responses, exact"
    )
    return m


def main() -> int:
    results = {}
    for backend in BACKENDS:
        print(f"load sweep [{backend}]:")
        results[backend] = {"sweep": run_sweep(backend)}
        if MILLION_CLIENTS:
            results[backend]["million_clients"] = run_million(backend)
    print("failover scenario:")
    failover = run_failover()

    payload = {
        "smoke": SMOKE,
        "num_procs": NUM_PROCS,
        "num_shards": NUM_SHARDS,
        "sweep_clients": SWEEP_CLIENTS,
        "million_clients": MILLION_CLIENTS,
        "results": results,
        "failover": failover,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT}")

    rows = []
    for backend in BACKENDS:
        for m in results[backend]["sweep"]:
            rows.append([
                backend,
                f"{m['offered_rate_rps']:.0f}",
                f"{m['throughput_rps']:.0f}",
                f"{m['p50_us']:.1f}",
                f"{m['p99_us']:.1f}",
                f"{m['p999_us']:.1f}",
                m["late_responses"],
            ])
        if "million_clients" in results[backend]:
            m = results[backend]["million_clients"]
            rows.append([
                backend, "1M clients",
                f"{m['throughput_rps']:.0f}",
                f"{m['p50_us']:.1f}",
                f"{m['p99_us']:.1f}",
                f"{m['p999_us']:.1f}",
                m["late_responses"],
            ])
    table = render_table(
        ["backend", "offered (req/s)", "throughput (resp/s)", "p50 (us)",
         "p99 (us)", "p999 (us)", "late"],
        rows,
        title=(
            f"Serving tier: sharded KV over {NUM_SHARDS} shards, "
            f"{NUM_PROCS} procs, open-loop Zipf clients "
            f"({'smoke' if SMOKE else 'full'} sweep)"
        ),
    )
    save("serving_load_sweep", table)
    print(table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
