"""One shard's execution wrapper: engine + runtime + epoch primitives.

The epoch protocol (shared verbatim by the inline and forked modes):

1. every shard reports the time of its earliest pending event;
2. GVT = minimum report; all-idle terminates the run;
3. each shard processes the half-open window ``[GVT, GVT + lookahead)``
   on its own engine (``run(horizon, exclusive=True)``);
4. each shard flushes the cross-shard events generated so far — the
   lookahead guarantees they all land at or above the horizon;
5. after a barrier, each shard drains its incoming rings and injects.

Step 4's guarantee is asserted (``PdesError``), not assumed: a message
below the horizon means the lookahead derivation or the network model's
minimum-delay invariant was broken.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable

from ...errors import PdesError
from ...machine.bgq import BGQParams
from ...machine.network import TorusNetwork
from ...topology.mapping import RankMapping
from ..engine import Engine
from .partition import ShardPlan
from .program import ChaosSpec, Message, ShardRuntime

INFINITY = float("inf")


class ShardWorker:
    """Owns one shard: a fresh engine, a network clone, its rank programs."""

    def __init__(
        self,
        shard_id: int,
        plan: ShardPlan,
        factory: Callable[[int], Any],
        mapping: RankMapping,
        params: BGQParams,
        chaos: ChaosSpec | None = None,
    ) -> None:
        self.shard_id = shard_id
        self.plan = plan
        self.engine = Engine()
        # A private network instance per shard: the FIFO clocks and memo
        # caches in TorusNetwork are mutable, and sharing them across
        # shards is exactly the leak the shard-safety test forbids.
        network = TorusNetwork(self.engine, mapping, params)
        programs = {rank: factory(rank) for rank in plan.ranks_of(shard_id)}
        self.rt = ShardRuntime(
            shard_id, plan, self.engine, network, programs, chaos=chaos
        )
        self.epochs = 0

    # ------------------------------------------------------------ phases

    def bootstrap(self) -> None:
        """Run every program's start hook at t=0 (ascending rank order).

        Start hooks only mutate their own rank's state and draw from
        their own rank's counters, so the call order cannot affect the
        outcome; ascending order is just the fixed convention.
        """
        for rank in sorted(self.rt.programs):
            self.rt.programs[rank].start(self.rt)

    def next_time(self) -> float:
        """Earliest pending local event (inf when this shard is idle)."""
        t = self.engine.next_event_time()
        return INFINITY if t is None else t

    def process_window(self, horizon: float) -> None:
        """Execute every local event strictly below ``horizon``."""
        self.engine.run(until=horizon, exclusive=True)
        self.epochs += 1

    def flush(self, horizon: float) -> dict[int, list[Message]]:
        """Take the cross-shard events generated so far, checked safe.

        Every outbound event must land at or above ``horizon`` — the
        receiving shard's engine clock after this epoch — or conservative
        synchronization is broken.
        """
        out: dict[int, list[Message]] = {}
        for target, msgs in self.rt.outboxes.items():
            if not msgs:
                continue
            for msg in msgs:
                if msg[0] < horizon:
                    raise PdesError(
                        f"lookahead violation: shard {self.shard_id} emitted "
                        f"an event at t={msg[0]} below horizon {horizon}"
                    )
            out[target] = msgs
            self.rt.outboxes[target] = []
        return out

    def inject_batch(self, msgs: list[Message]) -> None:
        for msg in msgs:
            self.rt.inject(msg)

    def inject_blob(self, blob: bytes) -> None:
        self.inject_batch(pickle.loads(blob))

    def run_to_completion(self) -> None:
        """Single-shard (oracle) path: no epochs, just drain the engine."""
        self.engine.run()

    # ----------------------------------------------------------- summary

    def summary(self) -> dict[str, Any]:
        """Picklable end-of-run report the runner merges across shards."""
        return {
            "shard": self.shard_id,
            "digests": self.rt.rank_digests(),
            "delivered": self.rt.delivered,
            "dropped": self.rt.dropped,
            "events_executed": self.engine.events_executed,
            "sim_time": self.engine.now,
            "epochs": self.epochs,
            "results": self.rt.results(),
            "metrics": self.rt.metrics,
        }
