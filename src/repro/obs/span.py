"""Causal spans over the simulated PGAS stack.

A :class:`Span` is one interval of simulated time on a ``(rank, lane)``
track, linked to the span that caused it. Parent links survive the
asynchronous handoffs the communication subsystem is made of: an ARMCI
``get_strided`` span parents the RDMA ops it posts, the AM request it
sends, the *remote* progress-engine service span (the span id rides in
the AM header, the same metadata path the reply cookies already use),
and the reply. Retries, backoff sleeps, credit waits, and region-cache
miss service are child spans, so a slow op is explainable at a glance.

Span taxonomy (the ``category`` field; see DESIGN.md §12):

========================  ====================================================
category                  meaning
========================  ====================================================
``op``                    a top-level blocking ARMCI call (put/get/puts/...)
``compute``               application compute block (``rt.compute``)
``rdma``                  RDMA wire time (net lane, Eq. 7 paths)
``am``                    AM wire time (net lane, Eq. 8 / fall-back paths)
``am_service``            target-side AM handler execution
``amo_service``           target-side RmwItem service (counter fetch-and-add)
``progress``              a progress-engine drain busy period
``rdma_wait`` /           handle wait whose registered causes are RDMA / AM
``am_wait`` /             events (``handle_wait`` when mixed or unknown)
``handle_wait``
``counter_wait``          blocking wait for an RMW reply (the Fig. 9/11 story)
``fence``                 fence wait for outstanding-write acks
``barrier``               barrier dwell (arrive → release)
``backoff``               retry backoff sleep
``credit_wait``           sender-side backpressure (FIFO credit) wait
``region_miss``           remote memory-region query round trip (cache miss)
``lock_wait``             distributed mutex acquire dwell
``task_draw``             taskpool ``next_range`` draw (wraps counter_wait)
========================  ====================================================

Lanes: ``main`` (the rank's application/comm thread), ``async`` (the
dedicated async-progress context, AT mode), ``net`` (wire time).

Wait-for edges (``Obs.add_edge``) record *why a wait ended*: handle
waits point at the registered cause span of each completed event,
counter waits at the remote ``amo_service`` span, and barrier exits at
the last-arriving rank's barrier span. ``critical_path`` walks them.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..sim.trace import Trace

#: Lane display order (and Perfetto tid assignment).
LANES = ("main", "async", "net")

_AMBIENT = object()


@dataclass(frozen=True)
class ObsConfig:
    """Observability switches (field of ``ArmciConfig``).

    Parameters
    ----------
    enabled:
        Master switch. Off (default), no ``Obs`` object is created and
        every instrumentation site reduces to one ``x.obs is None``
        test — the PR-4 host-perf numbers are preserved.
    progress_spans:
        Record a ``progress`` span per non-empty progress-engine drain.
        They make the main/async lock-contention story visible but are
        the highest-volume span source; disable for long runs.
    """

    enabled: bool = False
    progress_spans: bool = True


@dataclass
class Span:
    """One interval of simulated time on a ``(rank, lane)`` track."""

    span_id: int
    parent_id: int | None
    rank: int
    lane: str
    category: str
    name: str
    start: float
    end: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Span length in simulated seconds (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start


class Obs:
    """Span recorder shared by every rank of one simulated job.

    All methods are O(1); span ids come from a monotonic counter so
    exports are byte-stable across same-seed runs. One per-rank stack
    tracks the ambient (innermost open) span — pushes and pops happen
    atomically inside engine callbacks, so the LIFO discipline holds
    even while AM handlers interleave with blocked application spans.
    """

    def __init__(self, engine, trace: Trace) -> None:
        self.engine = engine
        #: The job's metrics registry: every closed span records its
        #: duration into the ``obs.span.<category>`` histogram here.
        self.trace = trace
        self.spans: list[Span] = []
        self.edges: list[tuple[int, int]] = []  # (cause span, waiter span)
        #: Dispatch-id -> name map for AM service span names (installed
        #: by ArmciJob; obs itself must not import the armci layer).
        self.dispatch_names: dict[int, str] = {}
        #: Mirror of ``ObsConfig.progress_spans`` (set by the job).
        self.record_progress_spans = True
        self.truncated_spans = 0
        self._next_id = 1
        self._by_id: dict[int, Span] = {}
        self._stacks: dict[int, list[int]] = {}
        self._barriers: dict[int, dict[str, Any]] = {}

    # ------------------------------------------------------------ spans

    def begin(
        self,
        rank: int,
        lane: str,
        category: str,
        name: str,
        *,
        parent_id=_AMBIENT,
        start: float | None = None,
        **attrs,
    ) -> int:
        """Open a span and make it the rank's ambient parent."""
        if parent_id is _AMBIENT:
            parent_id = self.current(rank)
        sid = self._next_id
        self._next_id += 1
        span = Span(
            sid,
            parent_id,
            rank,
            lane,
            category,
            name,
            self.engine.now if start is None else start,
            None,
            attrs,
        )
        self.spans.append(span)
        self._by_id[sid] = span
        stack = self._stacks.get(rank)
        if stack is None:
            stack = self._stacks[rank] = []
        stack.append(sid)
        return sid

    def end(self, span_id: int, *, category: str | None = None, **attrs) -> None:
        """Close a span at the current simulated time."""
        span = self._by_id.get(span_id)
        if span is None or span.end is not None:
            return
        span.end = self.engine.now
        if category is not None:
            span.category = category
        if attrs:
            span.attrs.update(attrs)
        stack = self._stacks.get(span.rank)
        if stack:
            # Normally the top of the stack; search defensively so an
            # out-of-order close can't corrupt the ambient chain.
            for i in range(len(stack) - 1, -1, -1):
                if stack[i] == span_id:
                    del stack[i]
                    break
        self._on_close(span)

    def record(
        self,
        rank: int,
        lane: str,
        category: str,
        name: str,
        start: float,
        end: float,
        *,
        parent_id=_AMBIENT,
        **attrs,
    ) -> int:
        """Record an already-finished span (no stack interaction)."""
        if parent_id is _AMBIENT:
            parent_id = self.current(rank)
        sid = self._next_id
        self._next_id += 1
        span = Span(sid, parent_id, rank, lane, category, name, start, end, attrs)
        self.spans.append(span)
        self._by_id[sid] = span
        self._on_close(span)
        return sid

    @contextmanager
    def span(
        self, rank: int, lane: str, category: str, name: str, **kwargs
    ) -> Iterator[int]:
        """Context-manager form of :meth:`begin` / :meth:`end`.

        Only usable around non-yielding code: a simulation generator
        must use explicit begin/end (the span stays open across its
        ``yield`` suspensions).
        """
        sid = self.begin(rank, lane, category, name, **kwargs)
        try:
            yield sid
        finally:
            self.end(sid)

    def current(self, rank: int) -> int | None:
        """The rank's innermost open span id (ambient parent), if any."""
        stack = self._stacks.get(rank)
        return stack[-1] if stack else None

    def get(self, span_id: int | None) -> Span | None:
        """Look a span up by id."""
        return None if span_id is None else self._by_id.get(span_id)

    def finished(self) -> list[Span]:
        """All closed spans, in creation (= id) order."""
        return [s for s in self.spans if s.end is not None]

    def _on_close(self, span: Span) -> None:
        self.trace.histogram(f"obs.span.{span.category}").record(
            span.end - span.start, rank=span.rank
        )

    # ------------------------------------------------- causality plumbing

    def add_edge(self, cause_id: int | None, waiter_id: int | None) -> None:
        """Record a wait-for edge: ``waiter`` ended because ``cause`` did."""
        if cause_id is None or waiter_id is None or cause_id == waiter_id:
            return
        self.edges.append((cause_id, waiter_id))

    def register_event(self, event, span_id: int | None) -> None:
        """Name ``span_id`` as the producer of ``event``'s completion.

        The id lives on the event itself (``Event._obs_span``): a side
        table keyed by ``id(event)`` would alias whenever the allocator
        reuses a collected event's address, making edge sets — and thus
        the "byte-stable" exports — vary run to run.
        """
        if event is not None and span_id is not None:
            event._obs_span = span_id

    def span_for_event(self, event) -> int | None:
        """The registered producer span of ``event``, if known."""
        return getattr(event, "_obs_span", None)

    # ---------------------------------------------------------- barriers

    def barrier_arrive(self, key: int, rank: int, span_id: int) -> None:
        """Note one rank's arrival at a barrier round.

        Rounds are matched per rank by arrival count, so bookkeeping is
        correct even when a fast rank re-arrives at round *n+1* before a
        slow rank has observed its release of round *n*.
        """
        st = self._barriers.get(key)
        if st is None:
            st = self._barriers[key] = {"rounds": [], "in": {}, "out": {}}
        i = st["in"].get(rank, 0)
        st["in"][rank] = i + 1
        rounds = st["rounds"]
        while len(rounds) <= i:
            rounds.append([])
        rounds[i].append((self.engine.now, rank, span_id))

    def barrier_exit(self, key: int, rank: int, span_id: int) -> None:
        """Note a release: edge from the last arriver's span to ours."""
        st = self._barriers.get(key)
        if st is None:
            return
        i = st["out"].get(rank, 0)
        st["out"][rank] = i + 1
        if i >= len(st["rounds"]):
            return
        last = max(st["rounds"][i], key=lambda e: (e[0], e[1]))
        if last[1] != rank:
            self.add_edge(last[2], span_id)

    # ---------------------------------------------------------- lifecycle

    def finalize(self, at: float | None = None) -> None:
        """Close any still-open spans (marked ``truncated``) at ``at``."""
        end = self.engine.now if at is None else at
        for stack in self._stacks.values():
            while stack:
                sid = stack.pop()
                span = self._by_id[sid]
                if span.end is None:
                    span.end = max(end, span.start)
                    span.attrs["truncated"] = True
                    self.truncated_spans += 1
                    self._on_close(span)


def context_lane(ctx) -> str:
    """The display lane of a PAMI context (duck-typed, no pami import).

    The async-progress design (rho = 2) gives the dedicated thread the
    *last* context; everything else is main-thread territory.
    """
    client = ctx.client
    if client.num_contexts > 1 and ctx.index == client.num_contexts - 1:
        return "async"
    return "main"
