#!/usr/bin/env python3
"""Serving tier: the actor-based sharded KV store end to end.

Three runs of the same scenario — a hash-sharded key-value /
parameter-server built on the ``repro.serve`` actor layer (per-sender
accumulate-queue mailboxes, sender-side aggregation, four-counter
termination), driven by an open-loop Zipf client population with
per-request deadlines:

1. a clean run — every response arrives, state bit-equal to the golden
   model, latency percentiles from the ``repro.obs`` histograms;
2. the same load under chaos injection (dropped/corrupted requests) —
   retries absorb everything, still exact;
3. a mid-traffic rank crash — clients fail over to the shard's replica
   and the audit still demands bit-equality.

Run:  python examples/kv_store.py
"""

from repro.chaos import ChaosConfig, FaultPlan
from repro.serve import ClientLoadConfig, KvConfig, run_kv

PROCS = 4            # 2 shard servers + 2 client ranks
CLIENTS = 20_000     # simulated clients, multiplexed on the client ranks


def load(seed: int) -> ClientLoadConfig:
    return ClientLoadConfig(
        num_clients=CLIENTS,
        requests_per_client=2,
        num_keys=2048,
        zipf_alpha=1.0,        # hot keys, like real caches see
        rate=5e5,              # aggregate offered requests/sec
        arrival="bursty",      # on/off epochs, 4x the mean rate in-burst
        deadline=5e-3,
        seed=seed,
    )


def show(tag: str, r) -> None:
    print(
        f"{tag}: {r.responses}/{r.requests} responses, "
        f"{r.failovers} failovers, {r.late_responses} late, "
        f"exact={r.exact}"
    )


def main() -> None:
    jobs = []
    r = run_kv(
        PROCS, load=load(1), kv_config=KvConfig(num_shards=2),
        procs_per_node=PROCS, on_job=jobs.append,
    )
    show("clean", r)
    assert r.exact and r.responses == r.requests

    lat = jobs[0].trace.histogram("serve.latency").summary()
    print(
        f"  latency: p50={lat['p50'] * 1e6:.1f}us "
        f"p99={lat['p99'] * 1e6:.1f}us p999={lat['p999'] * 1e6:.1f}us"
    )

    r = run_kv(
        PROCS, load=load(2), kv_config=KvConfig(num_shards=2),
        procs_per_node=PROCS, chaos=ChaosConfig.light(7),
    )
    show("chaos", r)
    assert r.exact

    # Rank 1 hosts shard 1's primary and shard 0's replica; it dies
    # while requests are in flight. Clients notice via the failure
    # detector and flip shard 1's authority to its replica on rank 0.
    r = run_kv(
        PROCS, load=load(3), kv_config=KvConfig(num_shards=2),
        procs_per_node=PROCS, fault_plan=FaultPlan().crash(1, at=6e-3),
    )
    show("crash", r)
    assert r.exact and r.failovers >= 1

    print("all three runs bit-equal to the golden model")


if __name__ == "__main__":
    main()
