"""Atomic memory operations (read-modify-write).

The central hardware limitation of the paper (Section III-D): **Blue
Gene/Q's NIC has no generic AMO support**, so PAMI services AMOs in
software — the request sits in the target's context queue until a thread
there advances the progress engine. Load-balance counters therefore stall
whenever the target process computes, unless an asynchronous progress
thread services them (Figs. 9 and 11).

AMOs are *unordered* with respect to other messages (Section III-A.4), so
they deliberately bypass the :class:`~repro.pami.ordering.OrderingChecker`.

A hardware NIC-serviced path (``world.nic_amo_support = True``) models the
Cray-Gemini-style fetch-and-add the paper's conclusion asks for in future
Blue Gene hardware.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from ..errors import PamiError
from ..sim.event import Event
from . import faults as _flt
from .context import CompletionItem, PamiContext, WorkItem
from .integrity import corrupt_int

#: value_new = op(value_old, operand, operand2); returns the new value.
RmwFunc = Callable[[int, int, int], int]

#: Supported read-modify-write operations; all return the *old* value to
#: the initiator (fetch semantics).
RMW_OPS: dict[str, RmwFunc] = {
    # PAMI "add": old + operand.
    "fetch_add": lambda old, a, _b: old + a,
    # Unconditional exchange.
    "swap": lambda old, a, _b: a,
    # PAMI "compare-and-test": write operand2 iff old == operand.
    "compare_swap": lambda old, a, b: b if old == a else old,
    # Pure read (used for counter inspection).
    "fetch": lambda old, _a, _b: old,
    # Monotone max-merge (idempotent; used by CRDT-style watermark
    # recovery in the fault-tolerant task pool).
    "fetch_max": lambda old, a, _b: old if old >= a else a,
}

#: Hardware NIC service time per AMO in the what-if model (Gemini-class).
NIC_AMO_SERVICE = 50e-9


@dataclass(frozen=True)
class RmwOp:
    """Handle to one posted read-modify-write.

    ``event`` fires with the **old** value once the reply reaches the
    initiator and its context is advanced.
    """

    op: str
    src: int
    dst: int
    addr: int
    event: Event


class RmwItem(WorkItem):
    """A software-serviced AMO waiting in the target's context queue."""

    __slots__ = (
        "request", "reply_ctx", "posted_at", "credited", "parent_span",
        "src_inc",
    )

    def __init__(
        self,
        request: "_RmwRequest",
        reply_ctx_rank: int,
        posted_at: float,
        credited: bool = False,
        parent_span: int | None = None,
        src_inc: int = 0,
    ) -> None:
        self.request = request
        self.reply_ctx = reply_ctx_rank
        self.posted_at = posted_at
        self.credited = credited
        self.parent_span = parent_span
        self.src_inc = src_inc

    def cost(self, ctx: PamiContext) -> float:
        return ctx.params.rmw_service_time

    def execute(self, ctx: PamiContext) -> None:
        req = self.request
        world = ctx.client.world
        trace = world.trace
        if world.is_failed(req.src) or world.incarnations[req.src] != self.src_inc:
            # The initiator's incarnation died while this AMO sat queued:
            # skip the apply (its effect will be replayed after recovery)
            # and drop the reply nobody is waiting for.
            trace.incr("pami.stale_deliveries_dropped")
            return
        trace.incr("pami.rmw_serviced")
        trace.add_time("pami.rmw_queue_wait", world.engine.now - self.posted_at)
        obs = world.obs
        if obs is not None:
            from ..obs.span import context_lane

            sid = obs.record(
                ctx.client.rank, context_lane(ctx), "amo_service",
                f"rmw.{req.op}", world.engine.now - self.cost(ctx),
                world.engine.now, parent_id=self.parent_span,
                src=req.src, queue_wait=world.engine.now - self.posted_at,
            )
            # Feed the initiator's counter_wait edge: the wait ends
            # because this service ran (the Fig. 9/11 causality).
            obs.register_event(req.event, sid)
        old = _apply(world, req)
        # Reply control packet back to the initiator.
        hops = world.network.hops(req.dst, req.src)
        latency = hops * world.params.hop_latency
        world.client(req.src).context(req.reply_context).complete_after(
            latency, req.event, old
        )

    def on_dropped(self, world, dead_rank: int) -> None:
        # The hosting rank died with this AMO unserviced: the initiator's
        # NIC reports the failure after its timeout.
        req = self.request
        src_client = world.client(req.src)
        if world.is_failed(req.src) or req.reply_context >= len(src_client.contexts):
            return  # initiator is gone too (or respawning): nobody waits
        _flt.post_error(
            src_client.context(req.reply_context), req.event,
            _flt.Failure(dead_rank),
        )


@dataclass(frozen=True)
class _RmwRequest:
    op: str
    src: int
    dst: int
    addr: int
    operand: int
    operand2: int
    event: Event
    reply_context: int


def _operand_bytes(req: "_RmwRequest") -> bytes:
    """Canonical wire encoding of the AMO's mutable fields — what the
    integrity layer checksums (AMO requests carry ints, not buffers)."""
    return f"{req.op}:{req.addr}:{req.operand}:{req.operand2}".encode()


def _apply(world, req: "_RmwRequest") -> int:
    """Atomically apply the op to target memory; returns the old value."""
    # One segment lookup serves both the load and the store.
    cell = world.space(req.dst).i64_view(req.addr)
    old = int(cell[0])
    cell[0] = RMW_OPS[req.op](old, req.operand, req.operand2)
    return old


class _RmwFlight:
    """One AMO in flight: NIC service, or software delivery attempts."""

    __slots__ = (
        "ctx", "world", "req", "wire", "credited", "parent_span",
        "target_context", "src_inc", "dst_inc", "link_mode", "protection",
        "attempts",
    )

    def __init__(
        self, ctx, world, req, credited, parent_span, target_context
    ) -> None:
        self.ctx = ctx
        self.world = world
        self.req = req
        self.wire = req  # the request as the wire delivers its first copy
        self.credited = credited
        self.parent_span = parent_span
        self.target_context = target_context
        self.src_inc = world.incarnations[req.src]
        self.dst_inc = world.incarnations[req.dst]
        self.protection = None
        self.attempts = 0

    def _return_credit(self) -> None:
        # Credits belong to the incarnation they were acquired against; a
        # respawned target's fresh context must not be over-credited.
        dst = self.req.dst
        if self.credited and self.world.incarnations[dst] == self.dst_inc:
            self.world.client(dst).progress_context().release_credit()

    def _verdict(self, wire_req) -> str:
        req = self.req
        return _flt.verdict(
            self.world, self.protection, req.src, req.dst,
            _operand_bytes(wire_req) if self.protection is not None else None,
            wire_req is not req,
        )

    def _retransmit(self) -> None:
        integ = self.world.integrity
        integ.count_retransmit(len(_operand_bytes(self.req)))
        self.world.engine.schedule(integ.config.retransmit_delay, self.deliver)

    def report_loss(self, fault) -> None:
        # Request lost before the op was applied — retry-safe: the
        # fetch_add/swap never happened at the target.
        self._return_credit()
        self.ctx.post(CompletionItem(self.req.event, fault))

    def hw_service(self, done: float) -> None:
        """What-if hardware path: the target NIC applies the op directly,
        serialized only by the NIC's AMO pipeline — no software progress."""
        world, req = self.world, self.req
        if not _flt.alive(world, req.dst, self.dst_inc):
            _flt.post_error(self.ctx, req.event, _flt.Failure(req.dst))
            return
        if self._verdict(self.wire) == "corrupt":
            # NIC checksum reject: surfaced as a transient loss (retry-safe
            # — the op was never applied).
            _flt.post_error(
                self.ctx, req.event,
                _flt.TransientFault("integrity", req.src, req.dst),
            )
            return
        obs = world.obs
        if obs is not None:
            sid = obs.record(
                req.dst, "net", "amo_service", f"nic_rmw.{req.op}",
                done - NIC_AMO_SERVICE, done, parent_id=self.parent_span,
                src=req.src,
            )
            obs.register_event(req.event, sid)
        old = _apply(world, self.wire)
        hops = world.network.hops(req.dst, req.src)
        self.ctx.complete_after(hops * world.params.hop_latency, req.event, old)

    def deliver(self, _arg) -> None:
        """Software path: one delivery attempt into the target's queue."""
        world, req = self.world, self.req
        if not _flt.alive(world, req.src, self.src_inc):
            # Dead-incarnation request: the initiator's state was rolled
            # back, so applying the op would double-count on replay.
            world.trace.incr("pami.stale_deliveries_dropped")
            self._return_credit()
            return
        if not _flt.alive(world, req.dst, self.dst_inc):
            self._return_credit()
            _flt.post_error(self.ctx, req.event, _flt.Failure(req.dst))
            return
        self.attempts += 1
        cur = self.wire if self.attempts == 1 else req
        integ = world.integrity
        budget = integ.config.max_retransmits if integ is not None else 0
        net = world.network
        if 1 < self.attempts <= budget and self.link_mode:
            # Retransmits re-roll the wire over the *current* route; the
            # attempt past the budget goes out clean (bounded loss).
            fault, corruption, _ = _flt.transfer_fate(
                None, net, req.src, req.dst, "rmw", True
            )
            if fault is not None:
                self._retransmit()
                return
            if corruption is not None:
                cur = _corrupted(req, corruption)
        verdict = self._verdict(cur)
        if verdict == "corrupt":
            if self.attempts > budget or (
                self.link_mode and net.route_blocked(req.src, req.dst)
            ):
                # Out of transport budget: hand the op back to the ARMCI
                # retry layer (retry-safe — never applied).
                world.trace.incr("armci.integrity.aborted")
                self._return_credit()
                _flt.post_error(
                    self.ctx, req.event,
                    _flt.TransientFault("integrity", req.src, req.dst),
                )
                return
            self._retransmit()
            return
        if verdict == "duplicate":
            self._return_credit()
            return
        # Resolve at delivery time (a respawned target has a fresh client).
        world.client(req.dst).request_context(self.target_context).post(
            RmwItem(
                cur, req.src, world.engine.now, credited=self.credited,
                parent_span=self.parent_span, src_inc=self.src_inc,
            )
        )


def _corrupted(req: "_RmwRequest", corruption) -> "_RmwRequest":
    """``req`` with the bit ``corruption`` flips applied to its operand."""
    return dataclasses.replace(
        req, operand=corrupt_int(req.operand, corruption.bit)
    )


def rmw(
    ctx: PamiContext,
    dst_rank: int,
    addr: int,
    op: str,
    operand: int = 0,
    operand2: int = 0,
    target_context: int | None = None,
    credited: bool = False,
    nic: bool | None = None,
) -> RmwOp:
    """Post a non-blocking read-modify-write on ``(dst_rank, addr)``.

    Parameters
    ----------
    ctx:
        The initiator's context (receives the reply).
    target_context:
        Which target context services the request; defaults to the
        target's progress context.
    credited:
        The sender holds a flow-control credit against the target's
        progress context; servicing (or losing) the request returns it.
    nic:
        Per-op override of the hardware-serviced path: ``True`` forces
        NIC service, ``False`` forces target-side software, ``None``
        (default) follows ``world.nic_amo_support``. Backends with a
        *partial* native AMO set (MPI-3) route each opcode accordingly.

    Chaos RNG draw order, a replay contract: the unordered jitter, then
    the fault roll.

    Returns
    -------
    RmwOp
        Wait on ``.event`` (e.g. via ``ctx.wait_with_progress``) for the
        old value.
    """
    if op not in RMW_OPS:
        raise PamiError(f"unknown rmw op {op!r}; supported: {sorted(RMW_OPS)}")
    world = ctx.client.world
    src = ctx.client.rank
    engine = world.engine
    event = engine.event(f"rmw.{op}.{src}->{dst_rank}")
    req = _RmwRequest(op, src, dst_rank, addr, operand, operand2, event, ctx.index)
    net = world.network
    arrive = net.packet_arrival(src, dst_rank)
    now = engine.now
    world.trace.incr("pami.rmw_posted")
    obs = world.obs
    # Snapshot the initiator's ambient span at post time: by the time the
    # target services the request the initiator's stack may have moved.
    parent_span = obs.current(src) if obs is not None else None
    flight = _RmwFlight(ctx, world, req, credited, parent_span, target_context)

    chaos = world.chaos
    link_mode = net.route_table is not None and not net.is_local(src, dst_rank)
    flight.link_mode = link_mode
    if chaos is not None:
        # AMOs are unordered (Section III-A.4): unclamped jitter.
        arrive = chaos.unordered_deliver(src, dst_rank, arrive)
    fault, corruption, detect = _flt.transfer_fate(
        chaos, net, src, dst_rank, "rmw", link_mode
    )
    if fault is not None:
        engine.schedule(arrive + detect - now, flight.report_loss, fault)
        return RmwOp(op, src, dst_rank, addr, event)
    integ = world.integrity
    if integ is not None:
        flight.protection = integ.protect(src, dst_rank, _operand_bytes(req))
    if corruption is not None:
        flight.wire = _corrupted(req, corruption)

    use_nic = world.nic_amo_support if nic is None else nic
    if use_nic:
        done = world.nic_amo_slot(dst_rank, arrive, NIC_AMO_SERVICE)
        engine.schedule(done - now, flight.hw_service, done)
    else:
        engine.schedule(arrive - now, flight.deliver)
    return RmwOp(op, src, dst_rank, addr, event)
