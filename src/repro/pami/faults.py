"""Fault injection and detection (fault-tolerance extension).

The paper motivates PGAS models partly by resiliency (Section I, citing
the authors' fault-tolerant communication runtime). This extension lets
tests and benchmarks *fail* a simulated process:

- the failed rank's progress stops (its contexts are never advanced
  again; queued and future work is dropped);
- one-sided operations targeting it complete **with a failure token**
  after a detection delay (modeling NIC timeout/error completion), which
  the ARMCI layer surfaces as :class:`~repro.errors.ProcessFailedError`
  at the initiator — the semantics a fault-tolerant runtime needs:
  remote failure must not hang healthy processes' one-sided traffic.

Two token kinds flow through completion-event values:

- :class:`Failure` — fail-stop: the target process is dead. Surfaced as
  :class:`~repro.errors.ProcessFailedError`; not retryable.
- :class:`TransientFault` — the request was lost in transit (chaos
  injection, :mod:`repro.chaos`) but the target lives. Surfaced as
  :class:`~repro.errors.TransientFaultError`; the ARMCI retry layer
  re-issues such operations with exponential backoff.

Collectives involving a failed rank no longer hang: the ARMCI layer's
epoch-based liveness detection (:mod:`repro.armci.collectives`) fails
the survivors' barrier events with :class:`Failure` after the detection
delay.

Every wire primitive (RDMA put/get, active messages, AMOs) produces and
checks these tokens through the same small helpers: :func:`transfer_fate`
rolls what the wire does to a transfer, :func:`verdict` checks what
arrived, :func:`post_error` reports a token to the initiator after the
detection delay, and :func:`alive` checks a rank's liveness and
incarnation at delivery time.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ProcessFailedError, TransientFaultError
from ..sim.event import Event


@dataclass(frozen=True)
class Failure:
    """Fail-stop token delivered through a completion event's value."""

    dead_rank: int

    def to_exception(self, op: str | None = None) -> ProcessFailedError:
        what = op if op is not None else "one-sided operation"
        return ProcessFailedError(
            f"{what} targeted failed rank {self.dead_rank}",
            rank=self.dead_rank,
            op=op,
        )


@dataclass(frozen=True)
class TransientFault:
    """Transient-loss token: the request from ``src`` to ``dst`` was
    dropped or checksum-rejected before taking effect. Retry-safe."""

    reason: str
    src: int
    dst: int

    def to_exception(self) -> TransientFaultError:
        return TransientFaultError(
            f"request {self.src}->{self.dst} {self.reason} in transit "
            "(transient; safe to retry)"
        )


#: Extra delay before the initiator's NIC reports a failed target
#: (timeout/error-completion path; much slower than success).
FAULT_DETECT_DELAY = 25e-6


def check_completion(value, op: str | None = None):
    """Raise if a completion value carries a failure token; else pass it
    through. Used by every ARMCI wait path. ``op`` names the originating
    operation kind so the raised exception carries structured routing
    attributes (see :class:`~repro.errors.ProcessFailedError`)."""
    if isinstance(value, Failure):
        raise value.to_exception(op)
    if isinstance(value, TransientFault):
        raise value.to_exception()
    return value


def transfer_fate(chaos, net, src: int, dst: int, kind: str, link_mode: bool):
    """Roll one transfer's fate: the chaos dice, then the link model.

    Returns ``(fault, corruption, detect)``: a :class:`TransientFault` if
    the transfer is lost, a
    :class:`~repro.pami.integrity.PayloadCorruption` if it arrives with a
    flipped bit (at most one of the two is set), and the delay after
    which the initiator NIC notices a loss. Pass ``chaos=None`` to roll
    the link alone (transport retransmits); ``link_mode`` is true for
    inter-node transfers on a fault-aware network.
    """
    fault = corruption = None
    detect = FAULT_DETECT_DELAY
    if chaos is not None:
        outcome = chaos.transfer_fault(src, dst, kind)
        if isinstance(outcome, TransientFault):
            fault = outcome
            detect = chaos.config.detect_delay
        else:
            corruption = outcome
    if link_mode and fault is None and corruption is None:
        wire = net.wire_fate(src, dst, kind)
        if wire is not None:
            if wire[0] == "dropped":
                fault = TransientFault("link_dead", src, dst)
            else:
                corruption = wire[1]
    return fault, corruption, detect


def verdict(world, protection, src: int, dst: int, payload, damaged: bool) -> str:
    """Integrity verdict on one delivered copy: ``"ok"``, ``"corrupt"``
    (discard and retransmit) or ``"duplicate"`` (discard).

    ``protection`` is the ``(seq, checksum)`` tag the sender attached, or
    None with integrity off, when a ``damaged`` copy lands silently.
    """
    if protection is None:
        if damaged:
            world.trace.incr("pami.silent_corruptions")
        return "ok"
    return world.integrity.verify(src, dst, protection[0], protection[1], payload)


def post_error(ctx, event: Event, token, delay: float = FAULT_DETECT_DELAY) -> None:
    """Complete ``event`` on ``ctx`` with an error ``token`` after ``delay``
    (the initiator NIC's timeout / error-completion path)."""
    ctx.complete_after(delay, event, token)


def alive(world, rank: int, incarnation: int) -> bool:
    """Whether ``rank`` is up and still on ``incarnation``.

    Traffic posted to or from an incarnation that has since died is
    discarded at delivery: a respawned rank has fresh memory, and a dead
    source's writes must not land after the survivors rolled back.
    """
    return not world.is_failed(rank) and world.incarnations[rank] == incarnation


#: Header keys that carry reply cookies (events the initiator waits on).
REPLY_KEYS = ("event", "ack", "grant", "reply")


def _collect_reply_cookies(header, reply_ctx, out) -> None:
    """Gather (reply_ctx, event) pairs from a header, recursing into
    forwarded envelopes and nested containers.

    A forwarded envelope (an AM carried inside another AM's header, as
    forwarding/redirect protocols do) may name its own ``reply_ctx``;
    cookies under it reply there, falling back to the enclosing one.
    """
    ctx = header.get("reply_ctx", reply_ctx)
    for key, value in header.items():
        if key != "reply_ctx":
            _scan_cookie_value(key, value, ctx, out)


def _scan_cookie_value(key, value, ctx, out) -> None:
    if isinstance(value, Event):
        if key in REPLY_KEYS and ctx is not None and not value.triggered:
            out.append((ctx, value))
    elif isinstance(value, dict):
        _collect_reply_cookies(value, ctx, out)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _scan_cookie_value(key, item, ctx, out)
    elif hasattr(value, "header") and hasattr(value, "dispatch_id"):
        # A forwarded AmEnvelope nested in this header.
        _collect_reply_cookies(value.header, ctx, out)


def fail_reply_cookies(world, envelope, token, delay=FAULT_DETECT_DELAY) -> int:
    """Fail every reply cookie of a lost active message with ``token``.

    Scans the envelope header recursively (cookies may sit inside
    forwarded envelopes or nested descriptors). Each cookie fires with
    ``token`` after ``delay`` through its reply context, so waiting
    healthy processes raise instead of hanging. Returns the number of
    cookies failed — 0 means the message was fire-and-forget and loss
    must be handled by the transport (retransmit) instead.
    """
    pending: list = []
    _collect_reply_cookies(envelope.header, None, pending)
    for reply_ctx, cookie in pending:
        reply_ctx.complete_after(delay, cookie, token)
    return len(pending)


def fail_am_replies(world, envelope, dead_rank: int) -> None:
    """Fail every reply cookie of an active message lost to a dead rank."""
    fail_reply_cookies(world, envelope, Failure(dead_rank))
