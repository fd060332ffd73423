"""The single PAMI delivery path: typed transfers and cyclic garbage.

Typed strided and aggregated vector transfers ride the same RDMA body as
contiguous puts and gets, so they inherit every fault layer: payload
integrity with transparent retransmits, link-fault fate, and the
incarnation checks. The cycle guard pins the in-flight state design:
with every fault knob off, no put, get, accumulate or read-modify-write
leaves reference cycles behind for the garbage collector.
"""

import gc

import pytest

from repro.armci import ArmciConfig, ArmciJob
from repro.armci.config import RetryPolicy
from repro.chaos import ChaosConfig, LinkFault
from repro.errors import RetryExhaustedError, TransientFaultError
from repro.pami.integrity import IntegrityConfig
from repro.serve import ClientLoadConfig, KvConfig, run_kv
from repro.types import StridedDescriptor, StridedShape

#: Chunks below the 128-byte tall-skinny threshold: ``auto`` goes typed.
TYPED_DESC = StridedDescriptor(StridedShape(32, (8,)), (64,), (64,))
PATTERN = bytes((7 * i + 3) % 256 for i in range(4096))


def _payload_chaos_job(**config):
    cfg = ArmciConfig(
        strided_protocol="auto",
        integrity=IntegrityConfig(),
        retry=RetryPolicy(max_retries=10),
        **config,
    )
    job = ArmciJob(
        2, config=cfg, procs_per_node=1,
        chaos=ChaosConfig(seed=5, corrupt_prob=0.5, corrupt_mode="payload"),
    )
    job.init()
    return job


class TestTypedTransfersUnderPayloadChaos:
    def test_typed_strided_put_get_land_exact(self):
        job = _payload_chaos_job()
        span = TYPED_DESC.shape.total_bytes * 2  # 32 B chunks, 64 B stride
        out = {}

        def body(rt):
            alloc = yield from rt.malloc(8 * span)
            yield from rt.barrier()
            if rt.rank == 0:
                space = rt.world.space(0)
                src = space.allocate(8 * span)
                space.write(src, PATTERN[: 8 * span])
                back = space.allocate(8 * span)
                for i in range(8):
                    yield from rt.puts(
                        1, src + i * span, alloc.addr(1) + i * span, TYPED_DESC
                    )
                yield from rt.fence(1)
                for i in range(8):
                    yield from rt.gets(
                        1, back + i * span, alloc.addr(1) + i * span, TYPED_DESC
                    )
                out["remote"] = rt.world.space(1).read(alloc.addr(1), 8 * span)
                out["back"] = space.read(back, 8 * span)
            yield from rt.barrier()

        job.run(body)
        # Only the chunk lattice moves: every other 32-byte slot.
        expected = bytearray(8 * span)
        for pos in range(0, 8 * span, 64):
            expected[pos : pos + 32] = PATTERN[pos : pos + 32]
        assert out["remote"] == bytes(expected)
        assert out["back"] == bytes(expected)
        assert job.trace.count("armci.puts_strided_typed") >= 8
        assert job.trace.count("armci.gets_strided_typed") >= 8
        assert job.trace.count("armci.integrity.retransmits") > 0
        assert job.trace.count("pami.silent_corruptions") == 0

    def test_aggregated_putv_lands_exact(self):
        job = _payload_chaos_job()
        out = {}

        def body(rt):
            alloc = yield from rt.malloc(2048)
            yield from rt.barrier()
            if rt.rank == 0:
                space = rt.world.space(0)
                src = space.allocate(2048)
                space.write(src, PATTERN[:2048])
                for batch in range(8):
                    agg = rt.aggregate(1)
                    for seg in range(4):
                        off = batch * 256 + seg * 64
                        agg.put(src + off, alloc.addr(1) + off, 48)
                    yield from agg.flush()
                yield from rt.fence(1)
                out["remote"] = rt.world.space(1).read(alloc.addr(1), 2048)
            yield from rt.barrier()

        job.run(body)
        expected = bytearray(2048)
        for pos in range(0, 2048, 64):
            expected[pos : pos + 48] = PATTERN[pos : pos + 48]
        assert out["remote"] == bytes(expected)
        assert job.trace.count("armci.putv_typed") >= 8
        assert job.trace.count("armci.integrity.retransmits") > 0
        assert job.trace.count("pami.silent_corruptions") == 0

    def test_kv_audits_exact_under_payload_chaos(self):
        load = ClientLoadConfig(
            num_clients=512, requests_per_client=2, num_keys=128,
            put_keys_per_rank=8, rate=2e5, arrival="poisson",
            deadline=5e-3, seed=42,
        )
        r = run_kv(
            4, load=load, kv_config=KvConfig(num_shards=2),
            armci_config=ArmciConfig(integrity=IntegrityConfig()),
            procs_per_node=4,
            chaos=ChaosConfig(corrupt_prob=0.02, corrupt_mode="payload"),
        )
        assert r.exact, f"{r.mismatched_keys} keys diverged"
        assert r.responses == r.requests


def N(a, b, c):
    """Node coordinate in the 8-rank, 1-proc/node layout (dims 1,1,2,2,2)."""
    return (0, 0, a, b, c)


class TestTypedTransfersUnderLinkFaults:
    def test_typed_put_to_isolated_node_fails(self):
        node7 = N(1, 1, 1)
        cfg = ArmciConfig(strided_protocol="auto")
        job = ArmciJob(8, config=cfg, procs_per_node=1)
        job.init()
        outcome = {}

        def body(rt):
            alloc = yield from rt.malloc(1024)
            if rt.rank == 0:
                # Resolve rank 7's region while it is still reachable,
                # then cut every link into its node.
                yield from rt.puts(7, alloc.addr(0), alloc.addr(7), TYPED_DESC)
                yield from rt.fence(7)
                for neighbour in (N(0, 1, 1), N(1, 0, 1), N(1, 1, 0)):
                    rt.world.apply_link_fault(
                        LinkFault("kill", neighbour, node7, at=0.0)
                    )
                try:
                    yield from rt.puts(7, alloc.addr(0), alloc.addr(7), TYPED_DESC)
                    yield from rt.fence(7)
                except (RetryExhaustedError, TransientFaultError) as exc:
                    outcome["error"] = exc
            yield from rt.barrier()

        job.run(body)
        assert "error" in outcome
        assert job.trace.count("net.link_drops.put") > 0


def _cyclic_garbage_per_op(kind: str, iters: int = 100) -> float:
    job = ArmciJob(2, procs_per_node=1)
    job.init()
    found = {}

    def body(rt):
        alloc = yield from rt.malloc(1024)
        yield from rt.barrier()
        if rt.rank == 0:
            buf = rt.world.space(0).allocate(256)
            gc.collect()
            for _i in range(iters):
                if kind == "put":
                    yield from rt.put(1, buf, alloc.addr(1), 64)
                elif kind == "get":
                    yield from rt.get(1, buf, alloc.addr(1), 64)
                elif kind == "acc":
                    yield from rt.acc(1, buf, alloc.addr(1), 64)
                else:
                    yield from rt.rmw(1, alloc.addr(1), "fetch_add", 1)
            yield from rt.fence(1)
            found["objects"] = gc.collect()
        yield from rt.barrier()

    gc.disable()
    try:
        job.run(body)
    finally:
        gc.enable()
    return found["objects"] / iters


class TestCycleGuard:
    @pytest.mark.parametrize("kind", ["put", "get", "acc", "rmw"])
    def test_knobs_off_ops_leave_no_cyclic_garbage(self, kind):
        assert _cyclic_garbage_per_op(kind) < 1.0
