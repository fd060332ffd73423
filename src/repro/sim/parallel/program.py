"""Deterministic wire-level rank programs and their shard runtime.

The sharded engine executes *rank programs*: objects that own exactly one
rank's state and react to delivered messages. The contract that makes
shards=1 and shards=N produce bit-identical results:

1. Every scheduled entry (message delivery or self-timer) carries a
   content-derived tie-break key ``(src_rank, seq)`` where ``seq`` comes
   from the source rank's private monotone counter. Equal-timestamp
   entries therefore execute in an order that depends only on message
   *content*, never on which engine they happen to share.
2. A handler touches only its own rank's state, so the per-rank delivery
   stream — the projection of the schedule onto one rank, ordered by
   ``(time, src, seq)`` — fully determines that rank's behaviour. That
   projection is identical whether ranks share one engine or are split
   across shards.
3. Chaos drops are rolled from a hash of the message identity
   ``(src, dst, seq, salt)``, not from arrival order, so fault patterns
   are also shard-count independent.

The schedule digest folds every delivery into a per-rank chained
splitmix64 and combines ranks commutatively (XOR), making it order-exact
within a rank and insensitive to legitimate cross-rank concurrency —
exactly the equivalence the fuzz oracle checks.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Any

from ...errors import PdesError
from ..engine import Engine, _mix64
from ..trace import Trace

#: A wire/timer message: (time, dst, src, seq, kind, payload).
Message = tuple

_TIME_BITS = struct.Struct("<d")
#: Distinct fold multipliers so field transpositions change the digest.
_K_SRC = 0x9E3779B97F4A7C15
_K_SEQ = 0xC2B2AE3D27D4EB4F


def _mix(*vals: int) -> int:
    """Content hash over integers (chaos rolls, workload choices)."""
    h = 0x243F6A8885A308D3
    for v in vals:
        h = _mix64(h, v)
    return h


@dataclass(frozen=True)
class ChaosSpec:
    """Deterministic message-drop injection for parallel programs.

    ``drop_mod``: one in ``drop_mod`` messages is dropped.
    ``salt``: varies the drop pattern between fuzz seeds.
    """

    drop_mod: int = 5
    salt: int = 0

    def __post_init__(self) -> None:
        if self.drop_mod < 2:
            raise PdesError(f"drop_mod must be >= 2, got {self.drop_mod}")


class RankProgram:
    """Base class for rank programs (duck-typed; subclassing optional).

    Subclasses implement :meth:`start` (schedule initial activity) and
    :meth:`on_message` (react to one delivery). State must be confined
    to the program's own rank; the only way to affect another rank is
    ``rt.send_am`` / ``rt.send_put``.
    """

    def start(self, rt: "ShardRuntime") -> None:
        raise NotImplementedError

    def on_message(self, rt: "ShardRuntime", msg: Message) -> None:
        raise NotImplementedError

    def result(self) -> Any:
        """Workload result for equivalence checking (None = no result)."""
        return None


class ShardRuntime:
    """Execution context for the rank programs of one shard.

    Owns the shard's engine and network clone, the per-rank sequence
    counters and digests, and the outboxes holding cross-shard events
    until the epoch flush. A single-shard runtime (the oracle) is just
    the degenerate case where every destination is local.
    """

    def __init__(
        self,
        shard_id: int,
        plan,
        engine: Engine,
        network,
        programs: dict[int, RankProgram],
        chaos: ChaosSpec | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.plan = plan
        self.engine = engine
        self.network = network
        self.programs = programs
        self.chaos = chaos
        #: Per-shard metrics; the runner merges every shard's into one.
        self.metrics = Trace()
        self.lo = plan.bounds[shard_id]
        self.hi = plan.bounds[shard_id + 1]
        self.delivered = 0
        self.dropped = 0
        self._seq: dict[int, int] = {}
        self._digest: dict[int, int] = {}
        self._kind_crc: dict[str, int] = {}
        #: Cross-shard events awaiting the epoch flush, per target shard.
        self.outboxes: dict[int, list[Message]] = {
            s: [] for s in range(plan.shards) if s != shard_id
        }

    # ----------------------------------------------------------- helpers

    def owns(self, rank: int) -> bool:
        return self.lo <= rank < self.hi

    def next_seq(self, rank: int) -> int:
        """The rank's private monotone counter (sends and timers share it)."""
        seq = self._seq.get(rank, 0)
        self._seq[rank] = seq + 1
        return seq

    def _kind_code(self, kind: str) -> int:
        code = self._kind_crc.get(kind)
        if code is None:
            code = self._kind_crc[kind] = zlib.crc32(kind.encode())
        return code

    def _roll_drop(self, src: int, dst: int, seq: int) -> bool:
        chaos = self.chaos
        if chaos is None:
            return False
        return _mix(src, dst, seq, chaos.salt) % chaos.drop_mod == 0

    # ------------------------------------------------------------ sending

    def send_am(self, src: int, dst: int, kind: str, payload: Any = None) -> None:
        """Send a small control message (AM header / AMO-request class).

        Delivery time follows the torus model's control-packet path:
        intra-node crossbar latency or AM send overhead plus per-hop
        torus latency.
        """
        if not self.owns(src):
            raise PdesError(f"rank {src} does not belong to shard {self.shard_id}")
        seq = self.next_seq(src)
        if self._roll_drop(src, dst, seq):
            self.dropped += 1
            self.metrics.incr("pdes.dropped")
            return
        deliver = self.network.packet_arrival(src, dst)
        self._route((deliver, dst, src, seq, kind, payload))

    def send_put(
        self, src: int, dst: int, nbytes: int, kind: str, payload: Any = None
    ) -> None:
        """Send a payload-bearing message through the RDMA-put path.

        Serializes through the *source's* injection FIFO — sender-shard
        state, so the FIFO clock never needs cross-shard coordination.
        """
        if not self.owns(src):
            raise PdesError(f"rank {src} does not belong to shard {self.shard_id}")
        seq = self.next_seq(src)
        if self._roll_drop(src, dst, seq):
            self.dropped += 1
            self.metrics.incr("pdes.dropped")
            return
        deliver = self.network.put_timing(src, dst, nbytes).deliver
        self._route((deliver, dst, src, seq, kind, payload))

    def after(self, rank: int, delay: float, kind: str, payload: Any = None) -> None:
        """Schedule a self-message (timer) ``delay`` seconds from now.

        Timers are ordinary messages from a rank to itself, keyed with
        the same counter as its sends, so their ordering against equal-
        timestamp traffic is shard-count independent too.
        """
        if not self.owns(rank):
            raise PdesError(f"rank {rank} does not belong to shard {self.shard_id}")
        if delay < 0:
            raise PdesError(f"timer delay must be >= 0, got {delay}")
        seq = self.next_seq(rank)
        time = self.engine.now + delay
        self.engine.schedule_at(
            time, self._on_wire, (time, rank, rank, seq, kind, payload),
            key=(rank, seq),
        )

    def _route(self, msg: Message) -> None:
        deliver, dst, src, seq = msg[0], msg[1], msg[2], msg[3]
        target = self.plan.shard_of(dst)
        if target == self.shard_id:
            self.engine.schedule_at(deliver, self._on_wire, msg, key=(src, seq))
        else:
            self.outboxes[target].append(msg)

    # ---------------------------------------------------------- delivery

    def inject(self, msg: Message) -> None:
        """Schedule one event received from another shard.

        The conservative contract guarantees ``msg`` lands at or above
        the current epoch horizon (== the engine clock after an
        exclusive window); anything below it is a protocol violation.
        """
        time, _dst, src, seq = msg[0], msg[1], msg[2], msg[3]
        if time < self.engine.now:
            raise PdesError(
                f"causality violation: remote event at t={time} injected "
                f"into shard {self.shard_id} at now={self.engine.now}"
            )
        self.engine.schedule_at(time, self._on_wire, msg, key=(src, seq))

    def _on_wire(self, msg: Message) -> None:
        time, dst, src, seq, kind = msg[0], msg[1], msg[2], msg[3], msg[4]
        (time_bits,) = struct.unpack("<Q", _TIME_BITS.pack(time))
        v = time_bits ^ (src * _K_SRC) ^ (seq * _K_SEQ) ^ self._kind_code(kind)
        self._digest[dst] = _mix64(self._digest.get(dst, 0), v & 0xFFFFFFFFFFFFFFFF)
        self.delivered += 1
        self.metrics.incr("pdes.delivered")
        self.programs[dst].on_message(self, msg)

    # ----------------------------------------------------------- summary

    def rank_digests(self) -> dict[int, int]:
        """Per-rank delivery-stream digests (order-exact within a rank).

        The runner combines these across shards with
        :func:`combine_digests` — XOR, so legitimate cross-rank
        concurrency cannot matter, while any reordering *within* a
        rank's stream changes its chained digest.
        """
        return dict(self._digest)

    def results(self) -> dict[int, Any]:
        """Per-rank workload results (ranks returning None omitted)."""
        out = {}
        for rank in sorted(self.programs):
            value = self.programs[rank].result()
            if value is not None:
                out[rank] = value
        return out


def combine_digests(rank_digests: dict[int, int], delivered: int) -> int:
    """Job-wide schedule digest from merged per-rank digests.

    Commutative across ranks (XOR of rank-folded chains) and therefore
    shard-count independent; the total delivered-count fold catches
    pathological cancellations.
    """
    acc = _mix64(0, delivered)
    for rank, digest in rank_digests.items():
        acc ^= _mix64(rank + 1, digest)
    return acc
