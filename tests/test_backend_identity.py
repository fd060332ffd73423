"""Byte-identity regression gate for the default (PAMI) backend.

The transport refactor's hard promise: routing every ARMCI wire
operation through :class:`repro.transport.pami.PamiTransport` changes
*nothing* — same events, same timings, same counters — for the paper
figures. These tests pin that promise three ways:

1. the golden fig 3/4/8/11 result tables committed under
   ``tests/golden/`` carry the seed md5s,
2. the raw figure sweeps reproduce seed-identical data, and
3. a mixed workload (contiguous/strided/vector/acc/rmw/locks/fences)
   reproduces the seed's exact finish time and counter set in both D
   and AT modes.

All golden constants were captured on the pre-refactor seed tree.
"""

import hashlib
from pathlib import Path

import pytest

from repro.armci import ArmciConfig, ArmciJob
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


def _workload_digest(
    config: ArmciConfig, chaos=None, fault_plan=None, procs_per_node: int = 2
) -> str:
    """Finish-time + counter digest of a mixed ARMCI workload.

    ``chaos`` and ``fault_plan`` arm the job's fault layers; integrity
    and link health ride on ``config``.
    """
    job = ArmciJob(
        4, config=config, procs_per_node=procs_per_node,
        chaos=chaos, fault_plan=fault_plan,
    )
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
