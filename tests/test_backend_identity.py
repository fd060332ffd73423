"""Byte-identity regression gate for the default (PAMI) backend.

The transport refactor's hard promise: routing every ARMCI wire
operation through :class:`repro.transport.pami.PamiTransport` changes
*nothing* — same events, same timings, same counters — for the paper
figures. These tests pin that promise four ways:

1. the golden fig 3/4/8/11 result tables committed under
   ``tests/golden/`` carry the seed md5s,
2. the raw figure sweeps reproduce seed-identical data,
3. a mixed workload (contiguous/strided/vector/acc/rmw/locks/fences)
   reproduces the seed's exact finish time and counter set in both D
   and AT modes, and
4. the metric-facing outputs of that workload and of a small KV run
   (report text, timeline intervals, serving latency summary) keep
   their md5s, and the timeline is the same with obs on or off.

Each golden constant was captured on the tree before the refactor it
guards.
"""

import hashlib
from pathlib import Path

import pytest

from repro.armci import ArmciConfig, ArmciJob, ObsConfig
from repro.armci.vector import IoVector
from repro.chaos import ChaosConfig, FaultPlan
from repro.machine.health import LinkHealthConfig
from repro.pami.integrity import IntegrityConfig
from repro.types import StridedDescriptor, StridedShape

#: Committed copies of the figure tables (``benchmarks/results/`` is a
#: gitignored output directory; regenerating the tables there must
#: reproduce these bytes).
GOLDEN = Path(__file__).resolve().parent / "golden"

#: md5 of each committed figure table, as produced by the seed tree.
SEED_FIG_MD5 = {
    "fig3_latency.txt": "e5ae856594441ddbf3ab62d0f693867e",
    "fig4_bandwidth.txt": "4d4fb290a764d69c360592e5cf1843cd",
    "fig8_strided.txt": "85846dcb46b3876d63a1d17daac1b7ff",
    "fig11_scf.txt": "0c54ab709faf44042f276828279761a7",
}

#: md5 of ``repr()`` of the raw sweep data feeding each figure.
SEED_SWEEP_MD5 = {
    "fig3": "e6ada42ba7b729198eb0639d8d2501a8",
    "fig4": "d974e91dffb233f58e23bd40f7a3ee56",
    "fig8": "86872ae400de4da368cf06d5d6df69a5",
    "fig11_small": "0485bf6a9bc22aec7f5ae56b55ebc7a4",
}

#: md5 of the mixed workload's (finish time, counters) under each mode.
SEED_WORKLOAD_MD5 = {
    "D": "b9ac0fb0b0aeb3ae4f3cc20d6dac8c66",
    "AT": "72ff5a377e0585f6f68cfad0d901d88f",
}

#: md5 of the mixed workload with fault layers armed, recorded on the
#: tree that still had separate fast and robust RMA bodies: folding the
#: wire paths into one must not move a single event or counter.
FAULT_WORKLOAD_MD5 = {
    "chaos_light_8": "d3146f3c9f5ae467f21ac98458f548ec",
    "chaos_light_27": "925baa70624875c5c6974574f6537c62",
    "network_faults": "9e8d0b1ca4cd4c2aec0baa05e8a3d45b",
}

#: md5 of the metric-facing outputs, recorded on the tree that still
#: wrote metrics to three registries (``sim.Trace``, ``Obs.metrics`` and
#: ``job.serve_metrics``) and recorded timeline intervals on two paths:
#: folding them into one ``Trace`` must not move a byte of report text,
#: timeline or latency summary.
METRICS_OUTPUT_MD5 = {
    "report_obs_D": "89c646a84cebd1f4da6a6c1381fad5e5",
    "report_obs_AT": "97034fe58c8cca4e416800ec970678ae",
    "intervals_D": "c6f7f991e8491ad60ffbbec842454a97",
    "intervals_AT": "d1bb0468a1d980801255cee7bb310a3f",
    "report_kv": "11e6a73a24cc953e47dd1e5a6325f9aa",
    "latency_kv": "c2e36b07fe193c4e02392760ad219023",
}


def _md5(data: bytes) -> str:
    return hashlib.md5(data).hexdigest()


class TestCommittedFigureFiles:
    @pytest.mark.parametrize("name", sorted(SEED_FIG_MD5))
    def test_committed_table_is_seed_identical(self, name):
        path = GOLDEN / name
        assert path.exists(), f"{name} missing from tests/golden"
        assert _md5(path.read_bytes()) == SEED_FIG_MD5[name], (
            f"{name} drifted from the seed output: the default backend "
            f"must stay byte-identical on the paper figures"
        )


class TestFigureSweeps:
    def test_fig3_latency_sweep(self):
        from repro.bench import contiguous_latency_sweep

        data = (
            contiguous_latency_sweep(op="get"),
            contiguous_latency_sweep(op="put"),
        )
        assert _md5(repr(data).encode()) == SEED_SWEEP_MD5["fig3"]

    def test_fig4_bandwidth_sweep(self):
        from repro.bench import bandwidth_sweep

        data = (bandwidth_sweep(op="put"), bandwidth_sweep(op="get"))
        assert _md5(repr(data).encode()) == SEED_SWEEP_MD5["fig4"]

    def test_fig8_strided_sweep(self):
        from repro.bench import strided_bandwidth_sweep

        data = (
            strided_bandwidth_sweep(op="put"),
            strided_bandwidth_sweep(op="get"),
        )
        assert _md5(repr(data).encode()) == SEED_SWEEP_MD5["fig8"]

    def test_fig11_scf_comparison(self):
        from repro.apps.nwchem import ScfConfig
        from repro.bench.scf import scf_comparison

        scf = ScfConfig(
            nblocks=24, task_time=2e-3, iterations=1, tasks_per_draw=2
        )
        data = scf_comparison(proc_counts=(64,), scf=scf)
        assert _md5(repr(data).encode()) == SEED_SWEEP_MD5["fig11_small"]


def _mixed_workload(
    config: ArmciConfig, chaos=None, fault_plan=None, procs_per_node: int = 2,
    record_intervals: bool = False,
) -> ArmciJob:
    """Run a mixed ARMCI workload and return the finished job.

    ``chaos`` and ``fault_plan`` arm the job's fault layers; integrity
    and link health ride on ``config``.
    """
    job = ArmciJob(
        4, config=config, procs_per_node=procs_per_node,
        chaos=chaos, fault_plan=fault_plan,
    )
    job.trace.record_intervals = record_intervals
    job.init()

    def main(rt):
        alloc = yield from rt.malloc(8192)
        right = (rt.rank + 1) % 4
        space = rt.world.space(rt.rank)
        src = space.allocate(4096)
        space.write(src, bytes([rt.rank + 1]) * 4096)
        local = space.allocate(4096)
        yield from rt.put(right, src, alloc.addr(right), 1024)
        yield from rt.fence(right)
        yield from rt.get(right, local, alloc.addr(right), 512)
        desc = StridedDescriptor(
            StridedShape(128, (4,)), src_strides=(256,), dst_strides=(256,)
        )
        yield from rt.puts(right, src, alloc.addr(right) + 1024, desc)
        vec = IoVector(
            (src, src + 512),
            (alloc.addr(right) + 4096, alloc.addr(right) + 5120),
            (256, 256),
        )
        yield from rt.putv(right, vec)
        yield from rt.acc(right, src, alloc.addr(right) + 2048, 64)
        yield from rt.rmw(0, alloc.addr(0), "fetch_add", 1)
        yield from rt.lock(3)
        yield from rt.unlock(3)
        yield from rt.fence_all()
        yield from rt.barrier()

    job.run(main)
    return job


def _workload_digest(config: ArmciConfig, **kw) -> str:
    """Finish-time + counter digest of :func:`_mixed_workload`."""
    job = _mixed_workload(config, **kw)
    lines = [f"t={job.engine.now:.15e}"]
    for key in sorted(job.trace.counters):
        lines.append(f"{key}={job.trace.counters[key]}")
    return _md5("\n".join(lines).encode())


def _chaos_light_config(seed: int):
    """Case (a): light detected-mode chaos, ``strided_protocol="auto"``."""
    cfg = ArmciConfig(backend="pami", strided_protocol="auto")
    return cfg, dict(chaos=ChaosConfig.light(seed))


def _network_faults_config():
    """Case (b): every network fault layer armed at once.

    A lossy link, a mid-run link kill, link health monitoring, end-to-end
    integrity and payload-mode chaos. Zero-copy protocols only, one rank
    per node so every transfer crosses the torus.
    """
    cfg = ArmciConfig(
        backend="pami",
        strided_protocol="zero_copy",
        integrity=IntegrityConfig(),
        health=LinkHealthConfig(),
    )
    plan = (
        FaultPlan()
        .lossy_link((0, 0, 0, 0, 0), (0, 0, 0, 0, 1), at=0.0, prob=0.3)
        .kill_link((0, 0, 0, 0, 1), (0, 0, 0, 1, 1), at=20e-6)
    )
    chaos = ChaosConfig(
        seed=11, corrupt_prob=0.1, corrupt_mode="payload",
        jitter_prob=0.2, jitter_max=1e-6,
    )
    return cfg, dict(chaos=chaos, fault_plan=plan, procs_per_node=1)


class TestWorkloadDigest:
    def test_default_mode_byte_identical(self):
        cfg = ArmciConfig(backend="pami", strided_protocol="auto")
        assert _workload_digest(cfg) == SEED_WORKLOAD_MD5["D"]

    def test_async_thread_mode_byte_identical(self):
        cfg = ArmciConfig.async_thread_mode(
            backend="pami", strided_protocol="auto"
        )
        assert _workload_digest(cfg) == SEED_WORKLOAD_MD5["AT"]

    @pytest.mark.parametrize("seed", [8, 27])
    def test_light_chaos_byte_identical(self, seed):
        cfg, kw = _chaos_light_config(seed)
        assert (
            _workload_digest(cfg, **kw)
            == FAULT_WORKLOAD_MD5[f"chaos_light_{seed}"]
        )

    def test_network_faults_byte_identical(self):
        cfg, kw = _network_faults_config()
        assert _workload_digest(cfg, **kw) == FAULT_WORKLOAD_MD5["network_faults"]

    def test_default_backend_resolves_to_pami(self):
        job = ArmciJob(2, procs_per_node=2)
        assert job.transport.capabilities.name == "pami"


def _mode_config(mode: str, **kw) -> ArmciConfig:
    if mode == "AT":
        return ArmciConfig.async_thread_mode(
            backend="pami", strided_protocol="auto", **kw
        )
    return ArmciConfig(backend="pami", strided_protocol="auto", **kw)


def _kv_job() -> ArmciJob:
    """A small clean ``run_kv`` job (two shards, 128 clients)."""
    from repro.serve import ClientLoadConfig, KvConfig, run_kv

    load = ClientLoadConfig(
        num_clients=128, requests_per_client=2, num_keys=128,
        put_keys_per_rank=8, rate=2e5, arrival="poisson", deadline=5e-3,
        seed=42,
    )
    jobs = []
    result = run_kv(
        4, load=load, kv_config=KvConfig(num_shards=2),
        armci_config=ArmciConfig(backend="pami"), procs_per_node=4,
        on_job=jobs.append,
    )
    assert result.exact
    return jobs[0]


@pytest.fixture(scope="module")
def kv_job():
    return _kv_job()


class TestMetricsOutputs:
    @pytest.mark.parametrize("mode", ["D", "AT"])
    def test_obs_report_text(self, mode):
        job = _mixed_workload(_mode_config(mode, obs=ObsConfig(enabled=True)))
        text = job.report()
        assert "critical path" in text
        # Rendering the report reads the serving histogram without
        # creating it.
        assert "serve.latency" not in job.trace.histograms
        assert _md5(text.encode()) == METRICS_OUTPUT_MD5[f"report_obs_{mode}"]

    @pytest.mark.parametrize("mode", ["D", "AT"])
    def test_timeline_intervals(self, mode):
        job = _mixed_workload(_mode_config(mode), record_intervals=True)
        intervals = job.trace.intervals
        assert {iv.label for iv in intervals} == {"put", "get", "counter", "barrier"}
        digest = _md5(repr(intervals).encode())
        assert digest == METRICS_OUTPUT_MD5[f"intervals_{mode}"]

    @pytest.mark.parametrize("mode", ["D", "AT"])
    def test_obs_on_and_off_record_the_same_timeline(self, mode):
        off = _mixed_workload(_mode_config(mode), record_intervals=True)
        on = _mixed_workload(
            _mode_config(mode, obs=ObsConfig(enabled=True)),
            record_intervals=True,
        )
        assert off.obs is None and on.obs is not None
        assert on.trace.intervals == off.trace.intervals

    def test_kv_report_text(self, kv_job):
        text = kv_job.report()
        assert "request latency p99" in text
        assert _md5(text.encode()) == METRICS_OUTPUT_MD5["report_kv"]

    def test_kv_latency_summary(self, kv_job):
        summary = kv_job.trace.histograms["serve.latency"].summary()
        assert summary["count"] == 256
        digest = _md5(repr(sorted(summary.items())).encode())
        assert digest == METRICS_OUTPUT_MD5["latency_kv"]

    def test_serve_metrics_is_an_alias_of_the_trace(self, kv_job):
        # Kept only for the benchmark harness, which still reads the
        # serving histogram through ``job.serve_metrics``.
        assert kv_job.serve_metrics is kv_job.trace
