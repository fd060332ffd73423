"""The ARMCI job and per-process runtime (the public API facade).

:class:`ArmciJob` assembles a simulated job: the PAMI world, one
:class:`ArmciProcess` per rank, the hardware barrier, and the collective
allocation directory. :class:`ArmciProcess` exposes the ARMCI-style API —
``put/get/acc`` (contiguous and strided), ``rmw``, ``fence``, ``barrier``,
``lock/unlock`` — as generators executed by simulated processes::

    job = ArmciJob(num_procs=16, config=ArmciConfig.async_thread_mode())
    job.init()

    def body(rt):
        alloc = yield from rt.malloc(4096)
        yield from rt.put(dst=1, ...)
        old = yield from rt.rmw(0, counter_addr, "fetch_add", 1)

    job.run(body)

Implementation note: active-message headers carry live Event/context
references as reply cookies. On real hardware these are 8-byte handles in
the packet header; the in-process references model exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator

from ..errors import (
    ArmciError,
    DeadlineExceededError,
    ProcessFailedError,
    ResourceExhaustedError,
    RetryExhaustedError,
    TransientFaultError,
)
from ..machine.bgq import BGQParams
from ..pami.context import PamiContext, cancel_timer, deadline_timer
from ..pami.faults import TransientFault, check_completion
from ..pami.world import PamiWorld
from ..sim.event import Event
from ..sim.primitives import Delay, WaitAny
from ..transport import create_transport
from ..types import StridedDescriptor
from . import accumulate as _acc
from . import collectives as _coll
from . import contiguous as _cont
from . import dispatch as _disp
from . import groups as _groups
from . import locks as _locks
from . import notify as _notify
from . import strided as _str
from . import vector as _vec
from .config import ArmciConfig
from .consistency import make_tracker
from .endpoints import EndpointCache
from .handles import Handle
from .locks import MutexTable
from .progress import start_async_thread, start_watchdog
from .region_cache import RegionCache

#: Consistency-tracker key for writes/reads on unregistered memory.
UNREGISTERED_KEY_BASE = -1


@dataclass(frozen=True)
class Allocation:
    """Result of a collective ARMCI allocation.

    Attributes
    ----------
    alloc_id:
        Collective allocation sequence number.
    nbytes:
        Per-rank segment size.
    addresses:
        Base address of the segment on every rank.
    registered:
        Per-rank flag: whether RDMA registration succeeded there.
    """

    alloc_id: int
    nbytes: int
    addresses: dict[int, int]
    registered: dict[int, bool]

    def addr(self, rank: int) -> int:
        """Base address of the segment on ``rank``."""
        try:
            return self.addresses[rank]
        except KeyError:
            raise ArmciError(
                f"allocation {self.alloc_id} has no segment on rank {rank}"
            ) from None


class AllocationDirectory:
    """Job-wide record of collective allocations (the address exchange)."""

    def __init__(self, num_procs: int) -> None:
        self.num_procs = num_procs
        self._pending: dict[int, dict[int, tuple[int, bool]]] = {}
        self._sizes: dict[int, int] = {}

    def record(
        self, alloc_id: int, rank: int, addr: int, nbytes: int, registered: bool
    ) -> None:
        entry = self._pending.setdefault(alloc_id, {})
        if rank in entry:
            raise ArmciError(
                f"rank {rank} recorded allocation {alloc_id} twice"
            )
        known = self._sizes.setdefault(alloc_id, nbytes)
        if known != nbytes:
            raise ArmciError(
                f"collective malloc mismatch: allocation {alloc_id} has "
                f"sizes {known} and {nbytes}"
            )
        entry[rank] = (addr, registered)

    def allocation(self, alloc_id: int) -> Allocation:
        entry = self._pending.get(alloc_id)
        if entry is None or len(entry) != self.num_procs:
            have = 0 if entry is None else len(entry)
            raise ArmciError(
                f"allocation {alloc_id} incomplete: {have}/{self.num_procs}"
            )
        return Allocation(
            alloc_id,
            self._sizes[alloc_id],
            {r: a for r, (a, _reg) in entry.items()},
            {r: reg for r, (_a, reg) in entry.items()},
        )


class ArmciJob:
    """One simulated ARMCI job."""

    def __init__(
        self,
        num_procs: int,
        config: ArmciConfig | None = None,
        procs_per_node: int = 16,
        params: BGQParams | None = None,
        world: PamiWorld | None = None,
        max_regions: int | None = None,
        nic_amo_support: bool = False,
        link_contention: bool = False,
        chaos=None,
        fault_plan=None,
        engine=None,
    ) -> None:
        self.config = config if config is not None else ArmciConfig()
        if world is None:
            if max_regions is None:
                max_regions = self.config.memregion_budget
            world = PamiWorld(
                num_procs,
                procs_per_node=procs_per_node,
                params=params,
                max_regions=max_regions,
                nic_amo_support=nic_amo_support,
                link_contention=link_contention,
                chaos=chaos,
                engine=engine,
            )
        elif chaos is not None:
            raise ArmciError("pass chaos to the PamiWorld when supplying one")
        elif engine is not None:
            raise ArmciError("pass the engine to the PamiWorld when supplying one")
        # Crash times in a job-level fault plan are measured from the
        # start of job.run() (application time), not from construction —
        # init's simulated cost must not eat into the schedule. Validate
        # ranks eagerly, schedule lazily.
        self.fault_plan = fault_plan
        self._fault_plan_applied = False
        if fault_plan is not None:
            for crash in fault_plan.crashes:
                if not 0 <= crash.rank < num_procs:
                    raise ArmciError(
                        f"fault plan crashes rank {crash.rank}, job has "
                        f"{num_procs} processes"
                    )
            for fault in getattr(fault_plan, "resource_faults", ()):
                if not 0 <= fault.rank < num_procs:
                    raise ArmciError(
                        f"fault plan targets rank {fault.rank}, job has "
                        f"{num_procs} processes"
                    )
        self.world = world
        if fault_plan is not None and getattr(fault_plan, "link_faults", ()):
            # Link coordinates are validated eagerly (bad plans fail at
            # construction, not mid-run); this also switches the network
            # into link-fault mode so routing is fault-aware from t=0.
            link_state = world.enable_link_faults()
            for lf in fault_plan.link_faults:
                link_state.key(lf.a, lf.b)
        self.engine = world.engine
        self.trace = world.trace
        #: Communication backend (``repro.transport``): every wire-level
        #: primitive the protocol layer issues goes through this object.
        self.transport = create_transport(self.config.backend, world, self.config)
        #: Observability recorder (``repro.obs``), or ``None`` when
        #: ``config.obs.enabled`` is off — every instrumentation site in
        #: the stack is a single ``obs is None`` test in that case.
        if self.config.obs.enabled and world.obs is None:
            from ..obs import Obs

            world.obs = Obs(self.engine, trace=self.trace)
            world.obs.dispatch_names = dict(_disp.DISPATCH_NAMES)
            world.obs.record_progress_spans = self.config.obs.progress_spans
        self.obs = world.obs
        self.hw_barrier = _coll.HardwareBarrier(
            self.engine, num_procs, world.params.collective_barrier_latency
        )
        self.reduction_board = _coll.ReductionBoard(num_procs)
        self.failure_detector = _coll.FailureDetector(self.engine)
        self.directory = AllocationDirectory(num_procs)
        self.processes = [ArmciProcess(self, r) for r in range(num_procs)]
        self._rank_procs: dict[int, list] = {}
        self._initialized = False
        world.on_rank_failed(self._on_rank_failed)
        #: Crash-recovery manager (``repro.recover``), or ``None`` when
        #: ``config.recovery`` is unset/disabled — the default, which
        #: keeps every paper-figure code path untouched. Constructed
        #: after the job's own failure listener so collectives break
        #: before recovery logic observes the death.
        self.recovery = None
        if self.config.recovery is not None and self.config.recovery.enabled:
            from ..recover.manager import RecoveryManager

            self.recovery = RecoveryManager(self, self.config.recovery)
        #: End-to-end payload integrity (``repro.pami.integrity``), or
        #: ``None`` when ``config.integrity`` is unset/disabled — the
        #: default, under which every transfer path pays one ``is None``.
        if self.config.integrity is not None and self.config.integrity.enabled:
            from ..pami.integrity import IntegrityEngine

            world.integrity = IntegrityEngine(
                self.config.integrity, self.trace, obs=world.obs
            )
        self.integrity = world.integrity
        #: Link health monitor (``repro.machine.health``), or ``None``.
        #: Installed, the network routes on *observed* link state and
        #: escalates fully-unreachable ranks to the failure machinery.
        self.health = None
        if self.config.health is not None and self.config.health.enabled:
            self.health = world.install_health_monitor(self.config.health)
        #: PDES shard plan (``repro.sim.parallel``), or ``None`` for the
        #: classic single-engine job (``config.shards == 1``, the
        #: default — byte-identical to prior releases). The plan carries
        #: the torus-geometry rank partition and the conservative
        #: lookahead; sharded drivers hand it (plus the job's mapping
        #: and params) to ``repro.sim.parallel.run_program``.
        self.shard_plan = None
        if self.config.shards > 1:
            from ..sim.parallel import plan_shards

            self.shard_plan = plan_shards(
                world.mapping,
                self.config.shards,
                world.params,
                num_ranks=num_procs,
            )
            self.trace.incr("pdes.shards", self.config.shards)
        #: Alias of ``self.trace``, set when the first
        #: ``repro.serve.ActorSystem`` is built (``None`` before). Kept
        #: solely for the benchmark harness, which still reads serving
        #: histograms through it; everything else reads ``self.trace``.
        self.serve_metrics = None

    @property
    def num_procs(self) -> int:
        """Total process count."""
        return self.world.num_procs

    def rt(self, rank: int) -> "ArmciProcess":
        """Per-rank runtime handle."""
        return self.processes[rank]

    def _on_rank_failed(self, rank: int) -> None:
        """World failure listener: break collectives, stop the rank.

        Runs on every :meth:`PamiWorld.fail_rank` (manual or via a
        :class:`~repro.chaos.FaultPlan`): the hardware barrier and the
        failure detector learn of the death so survivors' collective
        waits raise, and the dead rank's main-thread process and async
        progress thread are killed (a node loss takes all its threads).
        """
        self.hw_barrier.note_rank_failure(rank)
        self.failure_detector.note_rank_failure(rank)
        for proc in self._rank_procs.get(rank, ()):
            proc.kill()
        rt = self.processes[rank]
        if rt.async_thread is not None:
            rt.async_thread.kill()
        if rt.watchdog is not None:
            rt.watchdog.kill()

    def respawn_rank(self, rank: int) -> None:
        """Bring a failed rank back as a fresh incarnation (non-generator).

        The PAMI world replaces the rank's address space, region table,
        and client; the rank's :class:`ArmciProcess` is reset to its
        pre-init state, and the collectives machinery is told the rank
        recovered so future rounds can complete. The caller (normally
        the recovery manager) must then run :meth:`ArmciProcess._reinit_body`
        inside the simulation to recreate contexts and handlers.
        """
        self.world.respawn_rank(rank)
        self.hw_barrier.note_rank_recovered(rank)
        self.failure_detector.note_rank_recovered(rank)
        self.processes[rank].reset_for_respawn()

    def shrink_rank(self, rank: int) -> None:
        """Permanently exclude a dead rank from collectives (non-generator).

        Group-shrink recovery: survivors continue with one fewer
        participant. The dead rank's memory stays lost; only the
        collective machinery shrinks.
        """
        self.hw_barrier.remove_participant(rank)

    def _apply_resource_fault(self, fault) -> None:
        """Inject one scheduled :class:`~repro.chaos.ResourceFault`.

        Non-fatal: the rank stays alive but loses a resource — its
        registration budget, its async progress thread, or its FIFO
        headroom — exercising the degradation paths (AM fall-back,
        watchdog failover, sender backpressure).
        """
        if self.world.is_failed(fault.rank):
            return
        rt = self.processes[fault.rank]
        if fault.kind == "exhaust_memregions":
            budget = self.world.regions[fault.rank].exhaust()
            self.trace.incr("chaos.memregion_exhaustions")
            self.trace.incr("chaos.memregion_budget_clamped", budget)
        elif fault.kind == "stall_progress":
            if rt.async_thread is not None and not rt.async_thread.done.triggered:
                rt.async_thread.kill()
                self.trace.incr("chaos.progress_stalls")
        elif fault.kind == "saturate_fifo":
            from ..chaos import FifoNoiseItem

            ctx = rt.client.progress_context()
            # The burst occupies FIFO slots even past capacity (the NIC
            # already accepted the packets); senders see no room until
            # the noise drains.
            ctx.reserve_credits(fault.amount)
            for _ in range(fault.amount):
                ctx.post(FifoNoiseItem())
            self.trace.incr("chaos.fifo_saturations")
            self.trace.incr("chaos.fifo_noise_injected", fault.amount)

    def init(self) -> None:
        """Collectively initialize every rank (contexts, handlers, threads).

        Runs the initialization inside the simulation, so setup costs
        (Eqs. 1-6) are charged to simulated time.
        """
        if self._initialized:
            raise ArmciError("job already initialized")
        procs = [
            self.engine.spawn(rt._init_body(), name=f"armci.init.r{rt.rank}")
            for rt in self.processes
        ]
        self.engine.run_until_complete(procs)
        self._initialized = True

    def report(self) -> str:
        """Human-readable summary of what the runtime did (non-generator)."""
        from .report import runtime_report

        return runtime_report(self)

    def run(
        self, body_fn: Callable[["ArmciProcess"], Generator], ranks=None
    ) -> list[Any]:
        """Run ``body_fn(rt)`` as the main thread of each listed rank."""
        if not self._initialized:
            raise ArmciError("call job.init() before job.run()")
        if self.fault_plan is not None and not self._fault_plan_applied:
            self._fault_plan_applied = True
            for crash in self.fault_plan.crashes:
                self.engine.schedule(
                    crash.at, lambda _a, r=crash.rank: self.world.fail_rank(r)
                )
            for fault in getattr(self.fault_plan, "resource_faults", ()):
                self.engine.schedule(
                    fault.at, lambda _a, f=fault: self._apply_resource_fault(f)
                )
            for lf in getattr(self.fault_plan, "link_faults", ()):
                self.engine.schedule(
                    lf.at, lambda _a, f=lf: self.world.apply_link_fault(f)
                )
        if ranks is None:
            ranks = range(self.num_procs)
        procs = []
        for r in ranks:
            proc = self.engine.spawn(body_fn(self.processes[r]), name=f"main.r{r}")
            # Tracked so a rank failure (manual or fault-plan) fail-stops
            # its main thread instead of letting a ghost keep computing.
            self._rank_procs.setdefault(r, []).append(proc)
            procs.append(proc)
        try:
            return self.engine.run_until_complete(procs)
        finally:
            if self.obs is not None:
                # Close anything still open (killed ranks, abandoned
                # waits) so every exported span has an end time.
                self.obs.finalize()


class ArmciProcess:
    """Per-rank ARMCI runtime and public API (all methods are generators
    unless documented otherwise)."""

    def __init__(self, job: ArmciJob, rank: int) -> None:
        self.job = job
        self.rank = rank
        self.world = job.world
        self.engine = job.engine
        self.trace = job.trace
        self.config = job.config
        self.transport = job.transport
        self.client = self.world.client(rank)
        params = self.world.params
        self.endpoints = EndpointCache(rank, params.endpoint_create_time, self.trace)
        # With a registration budget, cached remote handles draw from the
        # same slot pool as local registrations, so cache eviction frees
        # budget under pressure (and vice versa).
        budget_registry = (
            self.world.regions[rank]
            if job.config.memregion_budget is not None
            else None
        )
        self.region_cache = RegionCache(
            job.config.region_cache_capacity,
            self.trace,
            budget_registry=budget_registry,
        )
        self.tracker = make_tracker(job.config.consistency_tracker)
        #: Optional verification observer (``repro.verify``): receives
        #: every data-movement and synchronization event on this rank.
        #: ``None`` (the default) keeps the hooks zero-cost.
        self.observer = None
        #: Span recorder (shared job-wide), or ``None`` when obs is off.
        self.obs = job.obs
        self.mutexes = MutexTable()
        self.notify_board = _notify.NotifyBoard()
        self.async_thread = None
        self.watchdog = None
        #: Set by the watchdog once progress duty failed over.
        self.progress_failed_over = False
        #: Ambient absolute deadline inherited by nested waits.
        self._deadline: float | None = None
        # Outstanding remote-completion acks per destination (for fences).
        self._pending_acks: dict[int, list[Event]] = {}
        self._implicit_handles: set[Handle] = set()
        self._next_alloc_id = 0
        #: Replay mode (crash recovery): collective setup calls are
        #: replayed locally — malloc re-maps recorded addresses and
        #: barriers no-op, since the survivors are not re-entering them.
        self._replay_mode = False

    # ------------------------------------------------------------- setup

    @property
    def main_context(self) -> PamiContext:
        """Context 0: the main thread's communication context."""
        return self.client.context(0)

    def _init_body(self) -> Generator[Any, Any, None]:
        for _ in range(self.config.num_contexts):
            yield from self.client.create_context(capacity=self.config.fifo_depth)
        self._register_handlers()
        if self.config.async_thread:
            start_async_thread(self)
            if self.config.watchdog_period is not None:
                start_watchdog(self)
        yield from _coll.barrier(self)

    def reset_for_respawn(self) -> None:
        """Reset per-rank runtime state to pre-init (non-generator).

        Called by :meth:`ArmciJob.respawn_rank` after the PAMI world
        replaced this rank's client: every cached reference into the dead
        incarnation is dropped. :meth:`_reinit_body` must run inside the
        simulation afterwards to recreate contexts and handlers.
        """
        params = self.world.params
        self.client = self.world.client(self.rank)
        self.endpoints = EndpointCache(
            self.rank, params.endpoint_create_time, self.trace
        )
        budget_registry = (
            self.world.regions[self.rank]
            if self.config.memregion_budget is not None
            else None
        )
        self.region_cache = RegionCache(
            self.config.region_cache_capacity,
            self.trace,
            budget_registry=budget_registry,
        )
        self.tracker = make_tracker(self.config.consistency_tracker)
        self.mutexes = MutexTable()
        self.notify_board = _notify.NotifyBoard()
        self.async_thread = None
        self.watchdog = None
        self.progress_failed_over = False
        self._deadline = None
        self._pending_acks = {}
        self._implicit_handles = set()
        self._next_alloc_id = 0
        self._replay_mode = False
        # Cached lazily-allocated staging state points into the dead
        # incarnation's address space.
        for attr in ("_agg_buffer", "_gax_scratch", "_dtp_state"):
            if hasattr(self, attr):
                delattr(self, attr)

    def _reinit_body(self) -> Generator[Any, Any, None]:
        """Re-initialize a respawned rank inside the simulation.

        Same as :meth:`_init_body` minus the trailing collective barrier
        (the survivors are not re-entering init; the recovery rendezvous
        synchronizes instead).
        """
        for _ in range(self.config.num_contexts):
            yield from self.client.create_context(capacity=self.config.fifo_depth)
        self._register_handlers()
        if self.config.async_thread:
            start_async_thread(self)
            if self.config.watchdog_period is not None:
                start_watchdog(self)

    def reset_peer_state(self, dead_ranks) -> None:
        """Drop state referencing dead incarnations (non-generator).

        Survivors call this during recovery: cached region handles for a
        respawned rank's old address space, fence acks that would surface
        stale :class:`~repro.pami.faults.Failure` tokens after the rank
        recovered, and the distributed-task-pool cache (its counters are
        re-read from rolled-back memory on replay).
        """
        for rank in dead_ranks:
            self.region_cache.invalidate_rank(rank)
            self._pending_acks.pop(rank, None)
            self.tracker.on_fence(rank)
        if hasattr(self, "_dtp_state"):
            delattr(self, "_dtp_state")

    def _register_handlers(self) -> None:
        from ..mpilike import msg as _msg

        handlers = {
            _disp.REGION_QUERY:
                lambda ctx, env: _cont.handle_region_query(self, ctx, env),
            _disp.GET_REQUEST:
                lambda ctx, env: _cont.handle_get_request(self, ctx, env),
            _disp.PUT_REQUEST:
                lambda ctx, env: _cont.handle_put_request(self, ctx, env),
            _disp.ACC_REQUEST:
                lambda ctx, env: _acc.handle_acc_request(self, ctx, env),
            _disp.STRIDED_PACKED_PUT:
                lambda ctx, env: _str.handle_strided_packed_put(self, ctx, env),
            _disp.STRIDED_PACKED_GET:
                lambda ctx, env: _str.handle_strided_packed_get(self, ctx, env),
            _disp.LOCK_REQUEST:
                lambda ctx, env: _locks.handle_lock_request(self, ctx, env),
            _disp.UNLOCK_REQUEST:
                lambda ctx, env: _locks.handle_unlock_request(self, ctx, env),
            _disp.VECTOR_PUT:
                lambda ctx, env: _vec.handle_vector_put(self, ctx, env),
            _disp.VECTOR_GET:
                lambda ctx, env: _vec.handle_vector_get(self, ctx, env),
            _disp.NOTIFY:
                lambda ctx, env: _notify.handle_notify(self, ctx, env),
            _disp.GROUP_MESSAGE:
                lambda ctx, env: _groups.handle_group_message(self, ctx, env),
            _disp.MPILIKE_MESSAGE:
                lambda ctx, env: _msg.handle_message(self, ctx, env),
        }
        for dispatch_id, fn in handlers.items():
            self.client.register_dispatch(
                dispatch_id, self._wrap_handler(dispatch_id, fn)
            )

    def _wrap_handler(self, dispatch_id: int, fn):
        """Route one AM handler through the verification observer.

        The observer check is dynamic, so attaching an observer after
        init still sees target-side service events; with none attached
        the wrapper is a single attribute test.
        """

        def handler(ctx, env):
            obs = self.observer
            if obs is not None:
                obs.on_am_service(self.rank, dispatch_id, env.src)
            fn(ctx, env)

        return handler

    def _observe(self, method: str, *args) -> None:
        """Emit one observer event (non-generator; no-op when detached)."""
        obs = self.observer
        if obs is not None:
            getattr(obs, method)(self.rank, *args)

    def _op_span(self, name: str, **kwargs) -> int | None:
        """Open a top-level op span (non-generator; ``None`` if obs off)."""
        if self.obs is None:
            return None
        return self.obs.begin(self.rank, "main", "op", name, **kwargs)

    def _end_span(self, sid: int | None, **kwargs) -> None:
        """Close an op span opened by :meth:`_op_span` (non-generator)."""
        if sid is not None:
            self.obs.end(sid, **kwargs)

    # ----------------------------------------------------------- retry

    @property
    def chaos_enabled(self) -> bool:
        """Whether transient-fault injection is active (non-generator)."""
        return self.world.chaos is not None

    @property
    def flow_enabled(self) -> bool:
        """Whether credit-based flow control is active (non-generator)."""
        return self.config.fifo_depth is not None

    @property
    def coalesce_enabled(self) -> bool:
        """Whether chunk-run coalescing is active (non-generator)."""
        return self.config.coalesce_effective

    def _op_deadline(self, timeout: float | None) -> float | None:
        """Resolve a blocking op's absolute deadline (non-generator).

        Precedence: explicit ``timeout`` (relative, seconds of simulated
        time) > the ambient deadline inherited from an enclosing
        operation > ``config.default_deadline``. ``None`` = no deadline.
        """
        if timeout is not None:
            return self.engine.now + timeout
        if self._deadline is not None:
            return self._deadline
        if self.config.default_deadline is not None:
            return self.engine.now + self.config.default_deadline
        return None

    def _with_retry(
        self, attempt_fn, kind: str, deadline: float | None = None
    ) -> Generator[Any, Any, Any]:
        """Run ``attempt_fn()`` (a generator factory), retrying transient
        faults with exponential backoff per ``config.retry``.

        Transient faults are injected before any target-side effect, so
        a retried attempt applies exactly once. Fail-stop errors
        (:class:`~repro.errors.ProcessFailedError`) pass through — a dead
        target never comes back. A spent budget raises
        :class:`~repro.errors.RetryExhaustedError`.

        ``deadline`` (absolute) is installed as the ambient deadline for
        the attempt's nested waits; the deadline wins over the remaining
        retry budget — a backoff sleep that would cross it raises
        :class:`~repro.errors.DeadlineExceededError` immediately.
        """
        policy = self.config.retry
        delay = policy.base_delay
        attempts = 0
        prev_deadline = self._deadline
        if deadline is not None:
            self._deadline = deadline
        try:
            while True:
                try:
                    result = yield from attempt_fn()
                    if attempts:
                        self.trace.incr("armci.retry_successes")
                    return result
                except RetryExhaustedError:
                    raise  # a nested retry loop already spent its budget
                except TransientFaultError as exc:
                    attempts += 1
                    if attempts > policy.max_retries:
                        raise RetryExhaustedError(
                            f"{kind}: retry budget ({policy.max_retries}) "
                            f"exhausted: {exc}"
                        ) from exc
                    if (
                        deadline is not None
                        and self.engine.now + delay >= deadline
                    ):
                        self.trace.incr("armci.retry_deadline_abandoned")
                        raise DeadlineExceededError(
                            f"{kind}: deadline t={deadline:.6g}s expires "
                            f"during retry backoff ({attempts} attempts made)"
                        ) from exc
                    self.trace.incr("armci.transient_retries")
                    self.trace.incr(f"armci.transient_retries.{kind}")
                    self.trace.add_time("armci.retry_backoff_time", delay)
                    if self.obs is not None:
                        sid = self.obs.begin(
                            self.rank, "main", "backoff",
                            f"backoff.{kind}", attempt=attempts,
                        )
                        yield Delay(delay)
                        self.obs.end(sid)
                    else:
                        yield Delay(delay)
                    delay = min(delay * policy.multiplier, policy.max_delay)
        finally:
            self._deadline = prev_deadline

    # ----------------------------------------------------- flow control

    def _acquire_send_credit(
        self, dst: int, deadline: float | None = None
    ) -> Generator[Any, Any, None]:
        """Claim one FIFO credit on ``dst``'s progress context.

        Sender-side backpressure: while the target FIFO is saturated the
        caller parks on the target's room signal instead of queueing
        unboundedly, still servicing its *own* context meanwhile (so two
        mutually-saturated ranks cannot deadlock). A dead target raises
        :class:`~repro.errors.ProcessFailedError`; an expired deadline
        raises :class:`~repro.errors.DeadlineExceededError`.
        """
        if not self.flow_enabled:
            return
        dst_ctx = self.world.client(dst).progress_context()
        if dst_ctx.try_acquire_credit():
            return
        self.trace.incr("armci.backpressure_stalls")
        t0 = self.engine.now
        sid = (
            self.obs.begin(self.rank, "main", "credit_wait", "credit_wait", dst=dst)
            if self.obs is not None
            else None
        )
        timer = None
        death_watch: Event | None = None
        own_ctx = self.main_context
        try:
            while not dst_ctx.try_acquire_credit():
                if self.world.is_failed(dst):
                    raise ProcessFailedError(
                        f"rank {self.rank}: send credit wait on failed rank "
                        f"{dst}",
                        rank=dst,
                        op="send_credit",
                    )
                if deadline is not None and self.engine.now >= deadline:
                    raise DeadlineExceededError(
                        f"rank {self.rank}: no send credit for rank {dst} by "
                        f"deadline t={deadline:.6g}s"
                    )
                if len(own_ctx.queue):
                    # Keep our own FIFO draining while we wait for theirs.
                    yield from own_ctx.advance(max_items=len(own_ctx.queue))
                    continue
                waits = [dst_ctx.room_signal(), own_ctx.arrival_signal()]
                if deadline is not None:
                    if timer is None:
                        timer = deadline_timer(self.engine, deadline)
                    waits.append(timer)
                if death_watch is None:
                    death_watch = self.engine.event(f"creditwatch.r{self.rank}")
                    self.job.failure_detector.watch(death_watch, [dst])
                waits.append(death_watch)
                yield WaitAny(waits)
        finally:
            cancel_timer(timer)
            if sid is not None:
                self.obs.end(sid)
        self.trace.add_time("armci.backpressure_time", self.engine.now - t0)

    # ------------------------------------------------------ bookkeeping

    def track_write_ack(self, dst: int, ack: Event) -> None:
        """Record an outstanding write's remote-completion ack (non-gen).

        Already-completed acks are pruned opportunistically so a
        long-running producer that rarely fences keeps bounded state.
        """
        acks = self._pending_acks.setdefault(dst, [])
        acks.append(ack)
        if len(acks) > 128:
            self._pending_acks[dst] = [ev for ev in acks if not ev.triggered]

    def has_pending_writes(self, dst: int) -> bool:
        """Whether un-fenced writes to ``dst`` were issued (non-generator).

        Counts writes whose fence has not run yet even if their acks have
        already arrived — this is what a cs_tgt tracker would fence on.
        """
        return bool(self._pending_acks.get(dst))

    def on_handle_complete(self, handle: Handle) -> None:
        """Handle-completion hook (non-generator)."""
        self._implicit_handles.discard(handle)
        handle.release_pins(self.region_cache)

    def _new_handle(self, kind: str) -> Handle:
        handle = Handle(self, kind)
        self._implicit_handles.add(handle)
        return handle

    # ------------------------------------------------------- allocation

    def malloc(self, nbytes: int) -> Generator[Any, Any, Allocation]:
        """Collective allocation: every rank contributes one segment.

        Registers the segment for RDMA (cost delta); registration failure
        is recorded, not fatal — transfers to that rank fall back to AMs.
        """
        if nbytes <= 0:
            raise ArmciError(f"allocation size must be positive, got {nbytes}")
        alloc_id = self._next_alloc_id
        self._next_alloc_id += 1
        if self._replay_mode:
            # Crash recovery replays the (deterministic) setup phase on a
            # respawned rank: the collective already happened, so this
            # rank re-maps its segment at the recorded address and
            # re-registers it — no directory record, no barrier.
            alloc = self.job.directory.allocation(alloc_id)
            if alloc.nbytes != nbytes:
                raise ArmciError(
                    f"replayed malloc {alloc_id} asked {nbytes} bytes, "
                    f"directory has {alloc.nbytes} (non-deterministic setup?)"
                )
            addr = alloc.addr(self.rank)
            self.world.space(self.rank).map_at(addr, nbytes)
            if self.config.use_rdma and alloc.registered.get(self.rank):
                yield from self.transport.register_region(
                    self.world.regions[self.rank], addr, nbytes
                )
            self.trace.incr("armci.mallocs_replayed")
            return alloc
        addr = self.world.space(self.rank).allocate(nbytes)
        registered = False
        if self.config.use_rdma:
            try:
                yield from self.transport.register_region(
                    self.world.regions[self.rank], addr, nbytes
                )
                registered = True
            except ResourceExhaustedError:
                self.trace.incr("armci.malloc_region_failed")
        self.job.directory.record(alloc_id, self.rank, addr, nbytes, registered)
        yield from _coll.barrier(self)
        return self.job.directory.allocation(alloc_id)

    def free(self, alloc: Allocation) -> Generator[Any, Any, None]:
        """Collectively release an allocation (ARMCI_Free).

        Deregisters the local RDMA region, frees the segment, and —
        after the closing barrier — drops any cached remote handles for
        the allocation, so later accesses fail loudly instead of reading
        freed memory.
        """
        addr = alloc.addr(self.rank)
        registry = self.world.regions[self.rank]
        region = registry.find(addr, alloc.nbytes)
        if region is not None:
            registry.destroy(region)
        # Wait until every rank is done using the segment before freeing.
        yield from _coll.barrier(self)
        self.world.space(self.rank).free(addr)
        for rank, base in alloc.addresses.items():
            self.region_cache.invalidate(rank, base)
        self.trace.incr("armci.frees")

    # ------------------------------------------------- contiguous RMA

    def _resolve_regions(
        self, dst: int, local_addr: int, remote_addr: int, nbytes: int
    ) -> Generator[Any, Any, tuple[Any, tuple[int, int]]]:
        """Find RDMA regions; returns (remote_region|None, tracker_key)."""
        remote_region = None
        if self.config.use_rdma:
            local_region = yield from _cont.ensure_local_region(
                self, local_addr, nbytes
            )
            if local_region is not None:
                remote_region = yield from _cont.resolve_remote_region(
                    self, dst, remote_addr, nbytes
                )
        if remote_region is not None:
            key = (dst, remote_region.base)
        else:
            key = (dst, UNREGISTERED_KEY_BASE)
        return remote_region, key

    def nbput(
        self, dst: int, local_addr: int, remote_addr: int, nbytes: int,
        handle: Handle | None = None,
    ) -> Generator[Any, Any, Handle]:
        """Non-blocking contiguous put (RDMA, else AM fall-back)."""
        h = handle if handle is not None else self._new_handle("put")
        yield from self.endpoints.get(dst)
        remote_region, key = yield from self._resolve_regions(
            dst, local_addr, remote_addr, nbytes
        )
        if remote_region is not None:
            h.pin_region(remote_region)
            _cont.nbput_rdma(self, dst, local_addr, remote_addr, nbytes, remote_region, h)
        else:
            yield from self._acquire_send_credit(dst, self._op_deadline(None))
            _cont.nbput_fallback(self, dst, local_addr, remote_addr, nbytes, h)
        self.tracker.on_write(dst, key)
        self._observe("on_write", dst, key, remote_addr, nbytes, "put")
        return h

    def nbget(
        self, dst: int, local_addr: int, remote_addr: int, nbytes: int,
        handle: Handle | None = None,
    ) -> Generator[Any, Any, Handle]:
        """Non-blocking contiguous get.

        Enforces location consistency: an outstanding conflicting write to
        ``dst`` is fenced first. The tracker decides what "conflicting"
        means — per target (``cs_tgt``) or per region (``cs_mr``).
        """
        h = handle if handle is not None else self._new_handle("get")
        yield from self.endpoints.get(dst)
        remote_region, key = yield from self._resolve_regions(
            dst, local_addr, remote_addr, nbytes
        )
        yield from self._fence_if_conflicting(dst, key)
        if remote_region is not None:
            h.pin_region(remote_region)
            _cont.nbget_rdma(self, dst, local_addr, remote_addr, nbytes, remote_region, h)
        else:
            yield from self._acquire_send_credit(dst, self._op_deadline(None))
            _cont.nbget_fallback(self, dst, local_addr, remote_addr, nbytes, h)
        self.tracker.on_get(dst, key)
        self._observe("on_read", dst, key, remote_addr, nbytes, "get")
        return h

    def put(
        self, dst: int, local_addr: int, remote_addr: int, nbytes: int,
        timeout: float | None = None,
    ):
        """Blocking contiguous put (local completion); transient faults
        are retried with backoff. ``timeout`` bounds the whole call."""
        t0 = self.engine.now
        sid = None
        if self.obs is not None:
            sid = self.obs.begin(
                self.rank, "main", "op", "put", dst=dst, nbytes=nbytes
            )

        def attempt():
            h = yield from self.nbput(dst, local_addr, remote_addr, nbytes)
            yield from h.wait()

        try:
            yield from self._with_retry(attempt, "put", self._op_deadline(timeout))
        finally:
            if sid is not None:
                self.obs.end(sid)
        self.trace.interval(f"r{self.rank}", "put", t0, self.engine.now)

    def get(
        self, dst: int, local_addr: int, remote_addr: int, nbytes: int,
        timeout: float | None = None,
    ):
        """Blocking contiguous get; transient faults are retried."""
        t0 = self.engine.now
        sid = None
        if self.obs is not None:
            sid = self.obs.begin(
                self.rank, "main", "op", "get", dst=dst, nbytes=nbytes
            )

        def attempt():
            h = yield from self.nbget(dst, local_addr, remote_addr, nbytes)
            yield from h.wait()

        try:
            yield from self._with_retry(attempt, "get", self._op_deadline(timeout))
        finally:
            if sid is not None:
                self.obs.end(sid)
        self.trace.interval(f"r{self.rank}", "get", t0, self.engine.now)

    # --------------------------------------------------- strided RMA

    def nbputs(
        self, dst: int, local_base: int, remote_base: int,
        desc: StridedDescriptor, handle: Handle | None = None,
    ) -> Generator[Any, Any, Handle]:
        """Non-blocking strided put (protocol per config, Section III-C.2)."""
        h = handle if handle is not None else self._new_handle("puts")
        yield from self.endpoints.get(dst)
        protocol = _str.select_strided_protocol(self, desc)
        remote_region, key = None, (dst, UNREGISTERED_KEY_BASE)
        if protocol in ("zero_copy", "typed"):
            extent = max(desc.chunk_offsets("dst")) + desc.shape.chunk_bytes
            remote_region, key = yield from self._resolve_regions(
                dst, local_base, remote_base, extent
            )
            if remote_region is None:
                protocol = "pack"  # regions unavailable: legacy protocol
        if remote_region is not None:
            h.pin_region(remote_region)
        if protocol == "zero_copy":
            _str.nbput_strided_zero_copy(self, dst, local_base, remote_base, desc, h)
        elif protocol == "typed":
            _str.nbput_strided_typed(self, dst, local_base, remote_base, desc, h)
        else:
            yield from self._acquire_send_credit(dst, self._op_deadline(None))
            _str.nbput_strided_pack(self, dst, local_base, remote_base, desc, h)
        self.tracker.on_write(dst, key)
        if self.observer is not None:
            ext = max(desc.chunk_offsets("dst")) + desc.shape.chunk_bytes
            self._observe("on_write", dst, key, remote_base, ext, "puts")
        return h

    def nbgets(
        self, dst: int, local_base: int, remote_base: int,
        desc: StridedDescriptor, handle: Handle | None = None,
    ) -> Generator[Any, Any, Handle]:
        """Non-blocking strided get."""
        h = handle if handle is not None else self._new_handle("gets")
        yield from self.endpoints.get(dst)
        protocol = _str.select_strided_protocol(self, desc)
        remote_region, key = None, (dst, UNREGISTERED_KEY_BASE)
        if protocol in ("zero_copy", "typed"):
            extent = max(desc.chunk_offsets("dst")) + desc.shape.chunk_bytes
            remote_region, key = yield from self._resolve_regions(
                dst, local_base, remote_base, extent
            )
            if remote_region is None:
                protocol = "pack"
        yield from self._fence_if_conflicting(dst, key)
        if remote_region is not None:
            h.pin_region(remote_region)
        if protocol == "zero_copy":
            _str.nbget_strided_zero_copy(self, dst, local_base, remote_base, desc, h)
        elif protocol == "typed":
            _str.nbget_strided_typed(self, dst, local_base, remote_base, desc, h)
        else:
            yield from self._acquire_send_credit(dst, self._op_deadline(None))
            _str.nbget_strided_pack(self, dst, local_base, remote_base, desc, h)
        self.tracker.on_get(dst, key)
        if self.observer is not None:
            ext = max(desc.chunk_offsets("dst")) + desc.shape.chunk_bytes
            self._observe("on_read", dst, key, remote_base, ext, "gets")
        return h

    def puts(
        self, dst, local_base, remote_base, desc: StridedDescriptor,
        timeout: float | None = None,
    ):
        """Blocking strided put; transient faults are retried."""
        sid = self._op_span("puts", dst=dst)

        def attempt():
            h = yield from self.nbputs(dst, local_base, remote_base, desc)
            yield from h.wait()

        try:
            yield from self._with_retry(attempt, "puts", self._op_deadline(timeout))
        finally:
            self._end_span(sid)

    def gets(
        self, dst, local_base, remote_base, desc: StridedDescriptor,
        timeout: float | None = None,
    ):
        """Blocking strided get; transient faults are retried."""
        sid = self._op_span("gets", dst=dst)

        def attempt():
            h = yield from self.nbgets(dst, local_base, remote_base, desc)
            yield from h.wait()

        try:
            yield from self._with_retry(attempt, "gets", self._op_deadline(timeout))
        finally:
            self._end_span(sid)

    # ------------------------------------------------- I/O-vector RMA

    def nbputv(
        self, dst: int, vec: "_vec.IoVector", handle: Handle | None = None
    ) -> Generator[Any, Any, Handle]:
        """Non-blocking general I/O-vector put (ARMCI_PutV)."""
        h = handle if handle is not None else self._new_handle("putv")
        yield from self.endpoints.get(dst)
        remote_region, key = yield from self._resolve_vector_regions(dst, vec)
        if remote_region is not None:
            h.pin_region(remote_region)
            _vec.nbputv_zero_copy(self, dst, vec, h)
        else:
            yield from self._acquire_send_credit(dst, self._op_deadline(None))
            _vec.nbputv_pack(self, dst, vec, h)
        self.tracker.on_write(dst, key)
        if self.observer is not None:
            lo, ext = vec.remote_extent()
            self._observe("on_write", dst, key, lo, ext, "putv")
        return h

    def _resolve_vector_regions(
        self, dst: int, vec: "_vec.IoVector"
    ) -> Generator[Any, Any, tuple[Any, tuple[int, int]]]:
        """Region resolution for I/O vectors: every local segment must be
        registered and one remote region must cover the remote extent."""
        remote_region = None
        if self.config.use_rdma:
            ok = yield from _vec.ensure_local_segments(self, vec)
            if ok:
                lo, extent = vec.remote_extent()
                remote_region = yield from _cont.resolve_remote_region(
                    self, dst, lo, extent
                )
        if remote_region is not None:
            key = (dst, remote_region.base)
        else:
            key = (dst, UNREGISTERED_KEY_BASE)
        return remote_region, key

    def nbgetv(
        self, dst: int, vec: "_vec.IoVector", handle: Handle | None = None
    ) -> Generator[Any, Any, Handle]:
        """Non-blocking general I/O-vector get (ARMCI_GetV)."""
        h = handle if handle is not None else self._new_handle("getv")
        yield from self.endpoints.get(dst)
        remote_region, key = yield from self._resolve_vector_regions(dst, vec)
        yield from self._fence_if_conflicting(dst, key)
        if remote_region is not None:
            h.pin_region(remote_region)
            _vec.nbgetv_zero_copy(self, dst, vec, h)
        else:
            yield from self._acquire_send_credit(dst, self._op_deadline(None))
            _vec.nbgetv_pack(self, dst, vec, h)
        self.tracker.on_get(dst, key)
        if self.observer is not None:
            lo, ext = vec.remote_extent()
            self._observe("on_read", dst, key, lo, ext, "getv")
        return h

    def nbputv_aggregated(
        self, dst: int, vec: "_vec.IoVector", handle: Handle | None = None
    ) -> Generator[Any, Any, Handle]:
        """Vector put as **one** wire message (the aggregation path).

        Used by :class:`~repro.armci.aggregate.AggregateHandle`: pays
        Eq. 7's per-message overhead once for the whole fragment batch
        (typed-datatype transfer when RDMA is usable, packed AM
        otherwise).
        """
        h = handle if handle is not None else self._new_handle("aggputv")
        yield from self.endpoints.get(dst)
        remote_region, key = yield from self._resolve_vector_regions(dst, vec)
        if remote_region is not None:
            h.pin_region(remote_region)
            _vec.nbputv_typed(self, dst, vec, h)
        else:
            yield from self._acquire_send_credit(dst, self._op_deadline(None))
            _vec.nbputv_pack(self, dst, vec, h)
        self.tracker.on_write(dst, key)
        if self.observer is not None:
            # Per-segment observations, not the bounding extent: an
            # aggregate batches writes to scattered addresses (e.g. one
            # mailbox lane per actor inbox), and two ranks' batches
            # routinely interleave in address space while every actual
            # byte range stays disjoint. The bounding box would flag
            # that as a race.
            for ra, nb in zip(vec.remote_addrs, vec.lengths):
                self._observe("on_write", dst, key, ra, nb, "aggputv")
        return h

    def aggregate(self, dst: int):
        """Open an :class:`AggregateHandle` for small puts to ``dst``
        (non-generator; stage with ``.put(...)``, ship with
        ``yield from handle.flush()``)."""
        from .aggregate import AggregateHandle

        return AggregateHandle(self, dst)

    def putv(self, dst: int, vec: "_vec.IoVector", timeout: float | None = None):
        """Blocking I/O-vector put; transient faults are retried."""
        sid = self._op_span("putv", dst=dst)

        def attempt():
            h = yield from self.nbputv(dst, vec)
            yield from h.wait()

        try:
            yield from self._with_retry(attempt, "putv", self._op_deadline(timeout))
        finally:
            self._end_span(sid)

    def getv(self, dst: int, vec: "_vec.IoVector", timeout: float | None = None):
        """Blocking I/O-vector get; transient faults are retried."""
        sid = self._op_span("getv", dst=dst)

        def attempt():
            h = yield from self.nbgetv(dst, vec)
            yield from h.wait()

        try:
            yield from self._with_retry(attempt, "getv", self._op_deadline(timeout))
        finally:
            self._end_span(sid)

    # ------------------------------------------------------ accumulate

    def nbacc(
        self, dst: int, local_addr: int, remote_addr: int, nbytes: int,
        scale: float = 1.0, handle: Handle | None = None,
    ) -> Generator[Any, Any, Handle]:
        """Non-blocking atomic accumulate (float64)."""
        h = handle if handle is not None else self._new_handle("acc")
        yield from self.endpoints.get(dst)
        # Accumulates target registered structures when possible, for the
        # same tracker key a get of that structure would use.
        key = (dst, UNREGISTERED_KEY_BASE)
        if self.config.use_rdma:
            region = self.region_cache.lookup(dst, remote_addr, nbytes)
            if region is None:
                region = yield from _cont.resolve_remote_region(
                    self, dst, remote_addr, nbytes
                )
            if region is not None:
                key = (dst, region.base)
        # Accumulates always ride the AM path (software-applied at the
        # target), so they are always credited under flow control.
        yield from self._acquire_send_credit(dst, self._op_deadline(None))
        _acc.nbacc(self, dst, local_addr, remote_addr, nbytes, scale, h)
        self.tracker.on_write(dst, key)
        self._observe("on_write", dst, key, remote_addr, nbytes, "acc")
        return h

    def acc(
        self, dst, local_addr, remote_addr, nbytes, scale: float = 1.0,
        timeout: float | None = None,
    ):
        """Blocking (locally complete) accumulate; transient faults are
        retried (the lost request never reached the target, so a retry
        applies the update exactly once)."""
        sid = self._op_span("acc", dst=dst, nbytes=nbytes)

        def attempt():
            h = yield from self.nbacc(dst, local_addr, remote_addr, nbytes, scale)
            yield from h.wait()

        try:
            yield from self._with_retry(attempt, "acc", self._op_deadline(timeout))
        finally:
            self._end_span(sid)

    # ------------------------------------------------------------ AMOs

    def rmw(
        self, dst: int, addr: int, op: str, operand: int = 0, operand2: int = 0,
        timeout: float | None = None,
    ) -> Generator[Any, Any, int]:
        """Blocking read-modify-write; returns the old value.

        Serviced by the target's progress engine (no NIC AMOs on BG/Q) —
        the primitive behind load-balance counters, and the reason the
        asynchronous-thread design exists.
        """
        yield from self.endpoints.get(dst, self.world.client(dst).num_contexts - 1)
        t0 = self.engine.now
        obs = self.obs
        sid = None
        if obs is not None:
            # The whole blocking call is counter dwell (the post itself
            # is free): the paper's Fig. 9/11 "waiting on the counter"
            # quantity, directly comparable between D and AT modes.
            sid = obs.begin(
                self.rank, "main", "counter_wait", "rmw", dst=dst, rmw_op=op
            )
        # Natively-serviced AMOs bypass context queues, so they take no
        # FIFO credit.
        credited = self.flow_enabled and not self.transport.rmw_is_native(op)

        def attempt():
            if credited:
                yield from self._acquire_send_credit(dst, self._op_deadline(None))
            pending = self.transport.rmw(
                self.main_context, dst, addr, op, operand, operand2,
                credited=credited,
            )
            value = yield from self.main_context.wait_with_progress(
                pending.event, deadline=self._op_deadline(None)
            )
            check_completion(value, op="rmw")
            if obs is not None:
                # Why the wait ended: the target-side service span
                # registered itself against our reply event.
                obs.add_edge(obs.span_for_event(pending.event), sid)
            return value

        # Retry-safe: a transient fault means the request was lost before
        # the op was applied, so re-issuing never double-counts.
        try:
            old = yield from self._with_retry(
                attempt, "rmw", self._op_deadline(timeout)
            )
        finally:
            if sid is not None:
                obs.end(sid)
        self.trace.add_time("armci.rmw_wait_time", self.engine.now - t0)
        self.trace.interval(f"r{self.rank}", "counter", t0, self.engine.now)
        self.trace.incr("armci.rmws")
        self._observe("on_rmw", dst, addr)
        return old

    # ------------------------------------------------- synchronization

    def _fence_if_conflicting(self, dst: int, key) -> Generator[Any, Any, None]:
        fenced = self.tracker.needs_fence(dst, key)
        self._observe("on_fence_decision", dst, key, fenced)
        if fenced:
            self.trace.incr("armci.fences_forced")
            yield from self.fence(dst)
        elif self.has_pending_writes(dst):
            # Outstanding writes exist but touch other structures: the
            # cs_mr tracker's win over cs_tgt.
            self.trace.incr("armci.fences_avoided")

    def fence(self, dst: int, timeout: float | None = None) -> Generator[Any, Any, None]:
        """Wait until all writes to ``dst`` are remotely complete."""
        t0 = self.engine.now
        sid = None
        if self.obs is not None:
            sid = self.obs.begin(self.rank, "main", "fence", "fence", dst=dst)
        deadline = self._op_deadline(timeout)
        acks = self._pending_acks.pop(dst, [])
        ctx = self.main_context
        try:
            for i, ack in enumerate(acks):
                if not ack.triggered:
                    try:
                        yield from ctx.wait_with_progress(ack, deadline=deadline)
                    except DeadlineExceededError:
                        # Unfenced writes stay tracked: a later fence (or a
                        # longer deadline) can still certify them.
                        self._pending_acks[dst] = (
                            acks[i:] + self._pending_acks.get(dst, [])
                        )
                        raise
                if isinstance(ack.value, TransientFault):
                    if ack.value.reason == "integrity_exhausted":
                        # The write's retransmit budget died to repeated
                        # corruption *after* local completion: nothing
                        # surfaced this loss yet, so the fence must
                        # refuse to certify it rather than skip it.
                        self._pending_acks[dst] = (
                            acks[i + 1:] + self._pending_acks.get(dst, [])
                        )
                        raise ack.value.to_exception()
                    # A transiently-lost write already surfaced (and was
                    # retried) at its own completion wait; the fence only
                    # certifies writes that actually reached the target.
                    self.trace.incr("armci.fence_skipped_transient")
                    continue
                check_completion(ack.value, op="fence")
        finally:
            if sid is not None:
                self.obs.end(sid, acks=len(acks))
        # Backends with flush completion (not per-op counters) pay their
        # completion synchronization here; PAMI's is an empty generator.
        yield from self.transport.fence_extra(self, dst)
        self.tracker.on_fence(dst)
        self._observe("on_fence", dst)
        self.trace.incr("armci.fences")
        self.trace.interval(f"r{self.rank}", "fence", t0, self.engine.now)

    def fence_all(self, timeout: float | None = None) -> Generator[Any, Any, None]:
        """Fence every destination with outstanding writes."""
        deadline = self._op_deadline(timeout)
        prev = self._deadline
        if deadline is not None:
            self._deadline = deadline
        try:
            for dst in list(self._pending_acks):
                yield from self.fence(dst)
        finally:
            self._deadline = prev

    def wait_all(self, timeout: float | None = None) -> Generator[Any, Any, None]:
        """Wait for local completion of all implicit non-blocking requests."""
        deadline = self._op_deadline(timeout)
        prev = self._deadline
        if deadline is not None:
            self._deadline = deadline
        try:
            for handle in list(self._implicit_handles):
                if not handle.complete:
                    yield from handle.wait()
                else:
                    self.on_handle_complete(handle)
        finally:
            self._deadline = prev

    def barrier(self, timeout: float | None = None) -> Generator[Any, Any, None]:
        """Collective barrier (hardware network + progress while waiting)."""
        if self._replay_mode:
            # Setup replay on a respawned rank: the survivors already
            # passed this barrier, so re-arriving would wedge the round.
            return
        t0 = self.engine.now
        yield from _coll.barrier(self, deadline=self._op_deadline(timeout))
        self.trace.interval(f"r{self.rank}", "barrier", t0, self.engine.now)

    def allreduce(self, value: float, op: str = "sum") -> Generator[Any, Any, float]:
        """Collective allreduce over all ranks."""
        return (yield from _coll.allreduce(self, value, op))

    # ----------------------------------------------------------- groups

    def group(self, members) -> "_groups.ProcessGroup":
        """Create a processor-group handle (non-generator)."""
        return _groups.ProcessGroup(tuple(members))

    def group_barrier(self, group) -> Generator[Any, Any, None]:
        """Software tree barrier over a processor group."""
        yield from _groups.group_barrier(self, group)

    def group_allreduce(
        self, group, value: float, op: str = "sum"
    ) -> Generator[Any, Any, float]:
        """Software tree allreduce over a processor group."""
        return (yield from _groups.group_reduce_tree(self, group, value, op))

    def group_broadcast(self, group, value, root_rank: int | None = None):
        """Binomial broadcast over a processor group."""
        return (yield from _groups.group_broadcast(self, group, value, root_rank))

    # ----------------------------------------------------- notify/wait

    def notify(self, dst: int) -> Generator[Any, Any, None]:
        """Notify ``dst``; delivered after all prior puts to ``dst``."""
        # Observed at send initiation: the send precedes delivery, so the
        # observer's send event always lands before the matching wait.
        self._observe("on_notify", dst)
        yield from _notify.notify(self, dst)

    def notify_wait(
        self, src: int, timeout: float | None = None
    ) -> Generator[Any, Any, None]:
        """Wait for (and consume) one notification from ``src``."""
        yield from _notify.notify_wait(self, src, deadline=self._op_deadline(timeout))
        self._observe("on_notify_wait", src)

    # ------------------------------------------------------------ locks

    def lock(
        self, mutex_id: int, timeout: float | None = None
    ) -> Generator[Any, Any, None]:
        """Acquire a distributed ARMCI mutex.

        A transiently-lost LOCK_REQUEST is retried (the owner never saw
        the lost request, so re-sending cannot double-acquire).
        """
        sid = None
        if self.obs is not None:
            sid = self.obs.begin(
                self.rank, "main", "lock_wait", "lock", mutex=mutex_id
            )
        try:
            yield from self._with_retry(
                lambda: _locks.lock(self, mutex_id), "lock",
                self._op_deadline(timeout),
            )
        finally:
            if sid is not None:
                self.obs.end(sid)
        self._observe("on_lock", mutex_id)

    def unlock(self, mutex_id: int) -> Generator[Any, Any, None]:
        """Release a distributed ARMCI mutex."""
        # Observed at release *initiation*: the release strictly precedes
        # the owner granting the mutex to the next waiter, so the
        # observer sees release -> acquire in happens-before order even
        # when the releaser's completion reply races the grant message.
        self._observe("on_unlock", mutex_id)
        yield from _locks.unlock(self, mutex_id)

    # --------------------------------------------------------- progress

    def progress(self) -> Generator[Any, Any, int]:
        """One explicit progress call (default-mode apps sprinkle these
        between compute chunks).

        Services the work pending *at entry* — like one
        ``PAMI_Context_advance`` invocation — and returns to the caller
        even if new requests keep arriving meanwhile. This boundedness is
        why explicit progress cannot substitute for an async thread: the
        queue refills during the next compute chunk (Fig. 9).
        """
        ctx = self.main_context
        pending = len(ctx.queue)
        return (yield from ctx.advance(max_items=max(pending, 1)))

    # -------------------------------------------------- quiesce / drain

    def quiesce(self, timeout: float | None = None) -> Generator[Any, Any, None]:
        """Drain this rank to a quiescent state (teardown/restart point).

        Three phases: (1) locally complete every implicit non-blocking
        request; (2) fence every destination, so all our writes are
        remotely complete; (3) service this rank's context queues until
        empty, so no remote request is stranded here. Afterwards the
        rank holds no in-flight communication state and its progress
        machinery can be torn down or restarted safely
        (:meth:`restart_async_thread`).

        A ``timeout`` (or inherited deadline) bounds the whole drain;
        expiry raises :class:`~repro.errors.DeadlineExceededError` with
        the rank *partially* drained.
        """
        deadline = self._op_deadline(timeout)
        prev = self._deadline
        if deadline is not None:
            self._deadline = deadline
        try:
            yield from self.wait_all()
            yield from self.fence_all()
            for ctx in self.client.contexts:
                while len(ctx.queue):
                    if deadline is not None and self.engine.now >= deadline:
                        raise DeadlineExceededError(
                            f"rank {self.rank}: quiesce deadline "
                            f"t={deadline:.6g}s expired with "
                            f"{len(ctx.queue)} items queued"
                        )
                    yield from ctx.advance(max_items=len(ctx.queue))
        finally:
            self._deadline = prev
        self.trace.incr("armci.quiesces")

    def restart_async_thread(self) -> None:
        """Tear down and respawn the async progress thread (non-generator).

        Intended after :meth:`quiesce`: a wedged (or failed-over) progress
        thread is killed and a fresh one started on the progress context.
        No-op in default mode (nothing to restart).
        """
        if not self.config.async_thread:
            return
        if self.async_thread is not None and not self.async_thread.done.triggered:
            self.async_thread.kill()
        self.progress_failed_over = False
        start_async_thread(self)
        self.trace.incr("armci.async_thread_restarts")

    def compute(self, seconds: float) -> Generator[Any, Any, None]:
        """Model local computation: the main thread leaves the runtime.

        In default mode *nothing* services this process's progress context
        during compute — the exact pathology of Figs. 9 and 11.
        """
        if seconds < 0:
            raise ArmciError(f"compute time must be >= 0, got {seconds}")
        t0 = self.engine.now
        sid = None
        if self.obs is not None:
            sid = self.obs.begin(self.rank, "main", "compute", "compute")
        yield Delay(seconds)
        if sid is not None:
            self.obs.end(sid)
        self.trace.add_time("armci.compute_time", seconds)
        self.trace.interval(f"r{self.rank}", "compute", t0, self.engine.now)
