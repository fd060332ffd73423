"""Contiguous-datatype get/put protocols (Section III-C.1).

The preferred path is RDMA: both sides' memory regions are found (local
registry, remote LFU cache with AM miss service) and the transfer maps to
a single zero-copy NIC operation — Eq. 7.

When regions are unavailable (registration failed at scale, or RDMA is
disabled), the **fall-back protocol** runs over active messages — Eq. 8 —
and inherits its fatal flaw: it requires the *remote* progress engine, so
a busy remote main thread stalls it unless an asynchronous thread exists.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from ..errors import ResourceExhaustedError
from ..pami.activemsg import AmEnvelope
from ..pami.context import PamiContext, WorkItem
from ..pami.memregion import MemoryRegion
from .handles import Handle

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import ArmciProcess


# --------------------------------------------------------------- regions


def ensure_local_region(
    rt: "ArmciProcess", addr: int, nbytes: int
) -> Generator[Any, Any, MemoryRegion | None]:
    """Find or create a local region covering the buffer.

    Returns ``None`` (instead of raising) when the registration budget is
    exhausted — the caller then takes the fall-back protocol, exactly as
    the paper prescribes for failed ``PAMI_Memregion_create`` at scale.
    """
    registry = rt.world.regions[rt.rank]
    # Regions cover whole segments, never sub-ranges: look up and create
    # by the containing segment's bounds so repeated use of one buffer —
    # at any request size — always resolves to the same registration.
    base, seg_bytes = rt.world.space(rt.rank).segment_bounds(addr)
    region = registry.find(base, seg_bytes)
    if region is not None:
        return region
    try:
        region = yield from rt.transport.register_region(registry, base, seg_bytes)
    except ResourceExhaustedError:
        # Under pressure, cached remote handles are expendable: evicting
        # one frees a budget slot for this (local) registration.
        if rt.region_cache.evict_for_budget():
            try:
                region = yield from rt.transport.register_region(
                    registry, base, seg_bytes
                )
            except ResourceExhaustedError:
                rt.trace.incr("armci.local_region_create_failed")
                return None
            return region
        rt.trace.incr("armci.local_region_create_failed")
        return None
    return region


def resolve_remote_region(
    rt: "ArmciProcess", dst: int, addr: int, nbytes: int
) -> Generator[Any, Any, MemoryRegion | None]:
    """Find the remote region handle for an RDMA target.

    Cache hit is free; a miss sends a REGION_QUERY active message to the
    owner (whose progress engine must answer) and caches the result with
    LFU replacement.
    """
    region = rt.region_cache.lookup(dst, addr, nbytes)
    if region is not None:
        return region
    obs = rt.obs
    sid = None
    reply = None
    if obs is not None:
        sid = obs.begin(rt.rank, "main", "region_miss", "region_query", dst=dst)
    try:
        ctx = rt.main_context
        deadline = rt._op_deadline(None)
        yield from rt._acquire_send_credit(dst, deadline)
        reply = rt.engine.event(f"regionq.{rt.rank}->{dst}")
        header = {"addr": addr, "nbytes": nbytes, "reply": reply, "reply_ctx": ctx}
        if rt.flow_enabled:
            header["_credit"] = True
        op = rt.transport.send_am(ctx, dst, _REGION_QUERY_ID, header=header)
        found = yield from ctx.wait_with_progress(reply, deadline=deadline)
        from ..pami.faults import check_completion

        check_completion(found, op="region_query")
    finally:
        if sid is not None:
            if reply is not None:
                obs.add_edge(obs.span_for_event(reply), sid)
            obs.end(sid)
    if found is None:
        rt.trace.incr("armci.remote_region_unavailable")
        return None
    rt.region_cache.insert(found)
    return found


# Set by runtime registration to the real dispatch ids (avoids an import
# cycle while keeping handlers next to the protocol they serve).
_REGION_QUERY_ID = 1


def handle_region_query(rt: "ArmciProcess", ctx: PamiContext, env: AmEnvelope) -> None:
    """Target-side REGION_QUERY handler: look up the region, reply."""
    region = rt.world.regions[rt.rank].find(env.header["addr"], env.header["nbytes"])
    hops = rt.world.network.hops(rt.rank, env.src)
    env.header["reply_ctx"].complete_after(
        hops * rt.world.params.hop_latency, env.header["reply"], region
    )


# ----------------------------------------------------------------- RDMA


def nbput_rdma(
    rt: "ArmciProcess",
    dst: int,
    local_addr: int,
    remote_addr: int,
    nbytes: int,
    remote_region: MemoryRegion,
    handle: Handle,
) -> Handle:
    """Post the RDMA put; remote ack is tracked for fences."""
    op = rt.transport.rdma_put(
        rt.main_context, dst, local_addr, remote_addr, nbytes, want_remote_ack=True
    )
    handle.add_event(op.local_event)
    rt.track_write_ack(dst, op.remote_ack_event)
    rt.trace.incr("armci.put_rdma")
    return handle


def nbget_rdma(
    rt: "ArmciProcess",
    dst: int,
    local_addr: int,
    remote_addr: int,
    nbytes: int,
    remote_region: MemoryRegion,
    handle: Handle,
) -> Handle:
    """Post the RDMA get: truly one-sided, Eq. 7."""
    op = rt.transport.rdma_get(rt.main_context, dst, remote_addr, local_addr, nbytes)
    handle.add_event(op.local_event)
    rt.trace.incr("armci.get_rdma")
    return handle


# ------------------------------------------------------------- fall-back


class _GetReplyItem(WorkItem):
    """Fall-back get reply landing at the initiator: write + complete."""

    __slots__ = ("data", "local_addr", "event")

    def __init__(self, data, local_addr: int, event) -> None:
        self.data = data
        self.local_addr = local_addr
        self.event = event

    def cost(self, ctx: PamiContext) -> float:
        p = ctx.params
        return p.am_handler_time + len(self.data) * p.shm_byte_time

    def execute(self, ctx: PamiContext) -> None:
        ctx.client.world.space(ctx.client.rank).write_into(self.local_addr, self.data)
        self.event.succeed()


def nbget_fallback(
    rt: "ArmciProcess",
    dst: int,
    local_addr: int,
    remote_addr: int,
    nbytes: int,
    handle: Handle,
) -> Handle:
    """AM-based get (Eq. 8): the target's progress engine reads and
    returns the data. Pays the extra remote ``o`` and, critically, stalls
    whenever the target makes no progress."""
    ctx = rt.main_context
    done = rt.engine.event(f"fbget.{rt.rank}<-{dst}")
    header = {
        "addr": remote_addr,
        "nbytes": nbytes,
        "local_addr": local_addr,
        "event": done,
        "reply_ctx": ctx,
    }
    if rt.flow_enabled:
        header["_credit"] = True
    rt.transport.send_am(ctx, dst, _GET_REQUEST_ID, header=header)
    handle.add_event(done)
    rt.trace.incr("armci.get_fallback")
    return handle


_GET_REQUEST_ID = 2


def handle_get_request(rt: "ArmciProcess", ctx: PamiContext, env: AmEnvelope) -> None:
    """Target-side fall-back get: read memory, stream the data back."""
    h = env.header
    data = rt.world.space(rt.rank).snapshot(h["addr"], h["nbytes"])
    timing = rt.world.network.am_payload_timing(rt.rank, env.src, h["nbytes"])
    rt.engine.schedule(
        timing.deliver - rt.engine.now,
        h["reply_ctx"].post, _GetReplyItem(data, h["local_addr"], h["event"]),
    )


def nbput_fallback(
    rt: "ArmciProcess",
    dst: int,
    local_addr: int,
    remote_addr: int,
    nbytes: int,
    handle: Handle,
) -> Handle:
    """PAMI default (non-RDMA) put: payload rides an active message and is
    written by the target's progress engine. Local completion keeps put's
    buffer-reuse semantics, so no extra protocol is needed (the paper's
    observation that put needs no fall-back *handshake*)."""
    ctx = rt.main_context
    ack = rt.engine.event(f"fbput.ack.{rt.rank}->{dst}")
    data = rt.world.space(rt.rank).snapshot(local_addr, nbytes)
    header = {"addr": remote_addr, "ack": ack, "reply_ctx": ctx}
    if rt.flow_enabled:
        header["_credit"] = True
    op = rt.transport.send_am(ctx, dst, _PUT_REQUEST_ID, header=header, payload=data)
    handle.add_event(op.local_event)
    if rt.chaos_enabled:
        # Under chaos a lost PUT_REQUEST is reported on the ack cookie;
        # waiting it at the handle makes the loss visible (and retryable)
        # at the put itself rather than silently skipped by the fence.
        handle.add_event(ack)
    rt.track_write_ack(dst, ack)
    rt.trace.incr("armci.put_fallback")
    return handle


_PUT_REQUEST_ID = 3


def handle_put_request(rt: "ArmciProcess", ctx: PamiContext, env: AmEnvelope) -> None:
    """Target-side fall-back put: write payload, ack for fences."""
    rt.world.space(rt.rank).write_into(env.header["addr"], env.payload)
    hops = rt.world.network.hops(rt.rank, env.src)
    env.header["reply_ctx"].complete_after(
        hops * rt.world.params.hop_latency, env.header["ack"]
    )
