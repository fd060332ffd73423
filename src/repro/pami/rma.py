"""RDMA put/get: one delivery path per primitive.

RDMA data movement never touches the target's progress engine — the target
NIC serves reads and writes directly (Section III-C.1). That property is
what makes RDMA get truly one-sided and is why the ARMCI protocols prefer
it whenever memory regions exist on both sides.

Local completions, however, are PAMI callbacks: they are *delivered* at the
hardware completion time but only *dispatched* when a thread advances the
issuing context (:class:`~repro.pami.context.CompletionItem`), matching
PAMI's completion semantics.

Every put and get runs one body. The caller supplies payload capture and
landing — a contiguous snapshot and ``write_into`` by default, a gather
and scatter over a chunk lattice or segment list for typed and aggregate
transfers — so all of them get the same fault handling. The three fault
layers are fixed, and each is one ``None`` check when off:

* **Chaos** (``world.chaos``) — drop/corruption dice and jitter. Chaos
  RNG draw order is a replay contract: a put rolls its fault, then its
  ordered (per-pair monotone) jitter; a get its fault, then unordered
  jitter.
* **Link faults** (``network.route_table``) — each inter-node transfer
  asks :meth:`~repro.machine.network.TorusNetwork.wire_fate` whether a
  dead/lossy hop dropped it or a corrupting hop flipped a payload bit.
* **Integrity** (``world.integrity``) — a CRC32 + sequence number per
  transfer, verified at delivery; corrupted copies are retransmitted
  transparently over the *current* route, and put acks certify verified
  delivery. Drops keep the initiator-timeout path.

Each transfer's in-flight state is one ``__slots__`` object whose bound
methods the engine schedules: no reference cycles, so a finished op is
freed by reference counting. With every layer off a put schedules three
engine events (delivery, local completion, remote ack if asked for) and
a get two (NIC read, completion).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PamiError
from ..machine.network import TransferTiming
from ..sim.event import Event
from . import faults as _flt
from .context import CompletionItem, PamiContext


@dataclass(frozen=True)
class RmaOp:
    """Handle to one posted RDMA operation.

    Attributes
    ----------
    kind:
        ``"put"`` or ``"get"``.
    src, dst:
        Initiator and target ranks.
    nbytes:
        Payload size.
    local_event:
        Triggers when the initiator's completion callback is dispatched
        (buffer reusable for puts; data landed for gets).
    remote_ack_event:
        For puts: triggers when the remote-delivery notification reaches
        the initiator (used by ARMCI fences). ``None`` for gets.
    timing:
        The network timing breakdown (useful for benchmarks).
    """

    kind: str
    src: int
    dst: int
    nbytes: int
    local_event: Event
    remote_ack_event: Event | None
    timing: TransferTiming


class _PutFlight:
    """One put in flight, from first delivery to verified landing."""

    __slots__ = (
        "ctx", "world", "src", "dst", "remote_addr", "nbytes", "data", "land",
        "remote_ack", "src_inc", "dst_inc", "link_mode", "fault",
        "corruption", "protection", "retries",
    )

    def __init__(self, ctx, dst, remote_addr, nbytes, data, land, remote_ack):
        world = ctx.client.world
        self.ctx = ctx
        self.world = world
        self.src = ctx.client.rank
        self.dst = dst
        self.remote_addr = remote_addr
        self.nbytes = nbytes
        self.data = data
        self.land = land
        self.remote_ack = remote_ack
        self.src_inc = world.incarnations[self.src]
        self.dst_inc = world.incarnations[dst]
        self.protection = None
        self.retries = 0

    def deliver(self, _arg) -> None:
        """One delivery attempt: the first at post time, then retransmits."""
        if self.fault is not None:
            return  # lost in transit
        world, src, dst = self.world, self.src, self.dst
        if not _flt.alive(world, dst, self.dst_inc):
            if world.incarnations[dst] != self.dst_inc:
                world.trace.incr("pami.stale_deliveries_dropped")
            if self.protection is not None and self.remote_ack is not None:
                self.ack(None)  # no verified ack will follow: fail it now
            return
        if not _flt.alive(world, src, self.src_inc):
            world.trace.incr("pami.stale_deliveries_dropped")
            return
        corruption = self.corruption
        if self.retries and self.link_mode:
            # Retransmits re-roll the link over the current route; the
            # final one goes out clean unless no path is left at all.
            net = world.network
            if self.retries < world.integrity.config.max_retransmits:
                fault, corruption, _ = _flt.transfer_fate(
                    None, net, src, dst, "put", True
                )
                if fault is not None:
                    self._retransmit()
                    return
            elif net.route_blocked(src, dst):
                self._retransmit()  # out of budget: gives up
                return
        payload = self.data if corruption is None else corruption.apply(self.data)
        verdict = _flt.verdict(
            world, self.protection, src, dst, payload, corruption is not None
        )
        if verdict == "corrupt":
            self._retransmit()
            return
        if verdict == "duplicate":
            return
        if self.land is None:
            world.space(dst).write_into(self.remote_addr, payload)
        else:
            self.land(world.space(dst), payload)
        if self.protection is not None and self.remote_ack is not None:
            # Verified delivery: only now does the ack leave the target.
            world.engine.schedule(world.network.hop_cost(src, dst), self.ack)

    def ack(self, _arg) -> None:
        if _flt.alive(self.world, self.dst, self.dst_inc):
            self.ctx.post(CompletionItem(self.remote_ack))
        else:
            _flt.post_error(self.ctx, self.remote_ack, _flt.Failure(self.dst))

    def _retransmit(self) -> None:
        world = self.world
        integ = world.integrity
        if self.retries >= integ.config.max_retransmits:
            # The write is lost: the fence sees a transient ack, like a
            # chaos loss (escalating to rank death when the target is cut
            # off everywhere is the health monitor's job).
            world.trace.incr("armci.integrity.aborted")
            if self.remote_ack is not None:
                _flt.post_error(
                    self.ctx, self.remote_ack,
                    _flt.TransientFault("integrity_exhausted", self.src, self.dst),
                )
            return
        self.retries += 1
        self.corruption = None
        integ.count_retransmit(self.nbytes)
        base = world.engine.now
        t2 = world.network.put_timing(self.src, self.dst, self.nbytes)
        delay = integ.config.retransmit_delay + (t2.deliver - base)
        if world.obs is not None:
            world.obs.record(
                self.src, "net", "integrity", "put.retransmit", base,
                base + delay, dst=self.dst, nbytes=self.nbytes,
            )
        world.engine.schedule(delay, self.deliver)


def rdma_put(
    ctx: PamiContext,
    dst_rank: int,
    local_addr: int,
    remote_addr: int,
    nbytes: int,
    want_remote_ack: bool = False,
    extra_occupancy: float = 0.0,
    *,
    data=None,
    land=None,
    span: str = "rdma_put",
    **span_attrs,
) -> RmaOp:
    """Post a non-blocking RDMA put from ``ctx``'s process to ``dst_rank``.

    Data is captured at post time (ARMCI put follows MPI-style buffer-reuse
    semantics: the buffer is logically owned by the runtime until local
    completion, and the paper notes put therefore needs no fall-back).

    Typed transfers pass the captured ``data`` (a private uint8 buffer of
    ``nbytes``) and ``land(space, payload)``, which writes it into the
    target's address space, and name their obs span with ``span`` and
    ``span_attrs``. Only default-landing puts count as
    ``pami.rdma_puts``; typed ones have their own ARMCI counters.
    """
    world = ctx.client.world
    src = ctx.client.rank
    if nbytes <= 0:
        raise PamiError(f"put size must be positive, got {nbytes}")
    if data is None:
        # Private uint8 snapshot (capture semantics); landing it is a
        # single view-assign — no bytes materialization on either side.
        data = world.space(src).snapshot(local_addr, nbytes)
    net = world.network
    timing = net.put_timing(src, dst_rank, nbytes, extra_occupancy)
    engine = world.engine
    now = engine.now

    local_event = engine.event(f"put.local.{src}->{dst_rank}")
    remote_ack = (
        engine.event(f"put.rack.{src}->{dst_rank}") if want_remote_ack else None
    )
    flight = _PutFlight(ctx, dst_rank, remote_addr, nbytes, data, land, remote_ack)
    chaos = world.chaos
    link_mode = net.route_table is not None and not net.is_local(src, dst_rank)
    fault, flight.corruption, detect = _flt.transfer_fate(
        chaos, net, src, dst_rank, "put", link_mode
    )
    flight.fault, flight.link_mode = fault, link_mode
    deliver_at = timing.deliver
    if chaos is not None:
        deliver_at = chaos.ordered_deliver(src, dst_rank, deliver_at)
    if link_mode:
        # Reroutes can shorten paths mid-stream; ordered traffic stays
        # monotone per pair (head-of-line blocking on the new route).
        deliver_at = net.ordered_deliver(src, dst_rank, deliver_at)
    world.ordering.record(src, dst_rank, deliver_at)
    if world.integrity is not None:
        flight.protection = world.integrity.protect(src, dst_rank, data)

    engine.schedule(deliver_at - now, flight.deliver)
    if fault is None:
        ctx.complete_after(timing.complete - now, local_event)
    else:
        # The initiator NIC misses the end-to-end delivery confirmation
        # and reports an error completion on the op after its timeout.
        _flt.post_error(ctx, local_event, fault, timing.complete + detect - now)
    if remote_ack is not None:
        if flight.protection is None:
            # The ack rides the NIC-reliable path, scheduled at post time.
            engine.schedule(
                deliver_at + net.hop_cost(src, dst_rank) - now, flight.ack
            )
        elif fault is not None:
            # Lost write: the fence must not hang on the ack, nor count
            # it — the local completion already surfaced the fault.
            _flt.post_error(ctx, remote_ack, fault, timing.complete + detect - now)
    if land is None:
        world.trace.incr("pami.rdma_puts")
    obs = world.obs
    if obs is not None:
        sid = obs.record(
            src, "net", "rdma", span, now, timing.complete,
            dst=dst_rank, nbytes=nbytes, **span_attrs,
        )
        obs.register_event(local_event, sid)
        if remote_ack is not None:
            obs.register_event(remote_ack, sid)
    return RmaOp("put", src, dst_rank, nbytes, local_event, remote_ack, timing)


class _GetFlight:
    """One get in flight: a request/response round, repeated on retransmit.

    Rounds never overlap (a retransmit starts from the previous round's
    completion), so the current round's state lives on the flight.
    """

    __slots__ = (
        "ctx", "world", "src", "dst", "remote_addr", "local_addr", "nbytes",
        "read", "land", "local_event", "dst_inc", "link_mode", "retries",
        "loss", "loss_delay", "transparent", "corruption", "snapshot",
        "protection",
    )

    def __init__(self, ctx, dst, remote_addr, local_addr, nbytes, read, land):
        world = ctx.client.world
        self.ctx = ctx
        self.world = world
        self.src = ctx.client.rank
        self.dst = dst
        self.remote_addr = remote_addr
        self.local_addr = local_addr
        self.nbytes = nbytes
        self.read = read
        self.land = land
        self.dst_inc = world.incarnations[dst]
        self.protection = None
        self.retries = 0

    def round(self, read_dt, complete_dt, corruption, loss, loss_delay):
        """Schedule one round; ``loss`` is its in-transit fault token (None
        = the wire was clean). Retransmit rounds before the last retry a
        loss transparently instead of surfacing it."""
        self.corruption, self.loss, self.loss_delay = corruption, loss, loss_delay
        self.snapshot = None
        self.world.engine.schedule(read_dt, self.read_remote)
        self.world.engine.schedule(complete_dt, self.complete)

    def read_remote(self, _arg) -> None:
        # A respawned target's fresh space has no registration at the old
        # address: the read misses and the op completes with a Failure
        # token, exactly like a read served by a dead NIC.
        world = self.world
        if self.loss is None and _flt.alive(world, self.dst, self.dst_inc):
            space = world.space(self.dst)
            if self.read is None:
                self.snapshot = space.snapshot(self.remote_addr, self.nbytes)
            else:
                self.snapshot = self.read(space)
            if world.integrity is not None:
                # Reply flow runs target -> initiator.
                self.protection = world.integrity.protect(
                    self.dst, self.src, self.snapshot
                )

    def complete(self, _arg) -> None:
        world, snapshot, corruption = self.world, self.snapshot, self.corruption
        if snapshot is None:
            if self.loss is None:  # dead target NIC (fail-stop)
                _flt.post_error(self.ctx, self.local_event, _flt.Failure(self.dst))
            elif self.transparent:
                self._retransmit()
            else:
                _flt.post_error(self.ctx, self.local_event, self.loss, self.loss_delay)
            return
        payload = snapshot if corruption is None else corruption.apply(snapshot)
        verdict = _flt.verdict(
            world, self.protection, self.dst, self.src, payload,
            corruption is not None,
        )
        if verdict == "corrupt":
            self._retransmit()
        elif verdict == "ok":
            if self.land is None:
                world.space(self.src).write_into(self.local_addr, payload)
            else:
                self.land(world.space(self.src), payload)
            self.ctx.post(CompletionItem(self.local_event))

    def _retransmit(self) -> None:
        world = self.world
        integ = world.integrity
        budget = integ.config.max_retransmits
        if self.retries >= budget:
            world.trace.incr("armci.integrity.aborted")
            _flt.post_error(
                self.ctx, self.local_event,
                _flt.TransientFault("integrity_exhausted", self.src, self.dst),
            )
            return
        self.retries += 1
        integ.count_retransmit(self.nbytes)
        self.transparent = self.retries < budget
        corruption = loss = None
        net = world.network
        if self.link_mode:
            if self.transparent:
                loss, corruption, _ = _flt.transfer_fate(
                    None, net, self.src, self.dst, "get", True
                )
            elif net.route_blocked(self.src, self.dst):
                loss = _flt.TransientFault("unreachable", self.src, self.dst)
        base = world.engine.now
        t2 = net.get_timing(self.src, self.dst, self.nbytes)
        delay = integ.config.retransmit_delay
        if world.obs is not None:
            world.obs.record(
                self.src, "net", "integrity", "get.retransmit", base,
                base + delay + (t2.complete - base),
                dst=self.dst, nbytes=self.nbytes,
            )
        self.round(
            delay + (t2.deliver - base), delay + (t2.complete - base),
            corruption, loss, _flt.FAULT_DETECT_DELAY,
        )


def rdma_get(
    ctx: PamiContext,
    dst_rank: int,
    remote_addr: int,
    local_addr: int,
    nbytes: int,
    extra_occupancy: float = 0.0,
    *,
    read=None,
    land=None,
    span: str = "rdma_get",
    **span_attrs,
) -> RmaOp:
    """Post a non-blocking RDMA get; target memory is read by its NIC.

    The target's *software* is never involved: the data snapshot is taken
    at the time the target NIC serves the read (``timing.deliver``), and
    lands in the initiator's memory at ``timing.complete``.

    Typed transfers pass ``read(space)``, which gathers a private uint8
    buffer of ``nbytes`` from the target's address space, and
    ``land(space, payload)``, which scatters it into the initiator's.
    As with :func:`rdma_put`, only default-landing gets count as
    ``pami.rdma_gets``.
    """
    world = ctx.client.world
    src = ctx.client.rank
    if nbytes <= 0:
        raise PamiError(f"get size must be positive, got {nbytes}")
    net = world.network
    timing = net.get_timing(src, dst_rank, nbytes, extra_occupancy)
    now = world.engine.now

    flight = _GetFlight(ctx, dst_rank, remote_addr, local_addr, nbytes, read, land)
    local_event = flight.local_event = world.engine.event(
        f"get.local.{src}<-{dst_rank}"
    )
    chaos = world.chaos
    link_mode = net.route_table is not None and not net.is_local(src, dst_rank)
    fault, corruption, detect = _flt.transfer_fate(
        chaos, net, src, dst_rank, "get", link_mode
    )
    flight.link_mode, flight.transparent = link_mode, False
    deliver_at = timing.deliver
    if chaos is not None:
        # Gets bypass the ordering checker (NIC-served reads), so their
        # jitter needs no per-pair clamping.
        deliver_at = chaos.unordered_deliver(src, dst_rank, deliver_at)
    # Jitter delays the whole round trip: the reply lands later too.
    complete_at = timing.complete + (deliver_at - timing.deliver)
    flight.round(deliver_at - now, complete_at - now, corruption, fault, detect)
    if land is None:
        world.trace.incr("pami.rdma_gets")
    obs = world.obs
    if obs is not None:
        sid = obs.record(
            src, "net", "rdma", span, now, complete_at,
            dst=dst_rank, nbytes=nbytes, **span_attrs,
        )
        obs.register_event(local_event, sid)
    return RmaOp("get", src, dst_rank, nbytes, local_event, None, timing)
