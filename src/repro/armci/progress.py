"""Asynchronous progress threads (Section III-D).

BG/Q's 4-way SMT cores leave hardware threads to spare: one per process is
scheduled as an *asynchronous progress thread* that continuously advances
the progress context, servicing AMOs, accumulates, fall-back gets, and
every other software-progressed operation — independent of what the main
thread is doing.

With one context (rho = 1) the async and main threads contend on the same
context lock; with two (rho = 2) the async thread owns the second context
and each thread progresses independently — the paper's recommended
configuration, costing one extra context's space (rho * epsilon).

Correctness hinges on this thread *never stalling*: a wedged async thread
silently turns the AT configuration back into default mode, and every AMO
or fall-back request targeting the rank hangs. The **progress watchdog**
(``watchdog_period`` knob) closes that hole: it samples the progress
context's service epoch and, when pending work sits unserviced for a full
period, declares the thread stalled and fails progress duty over to a
main-thread-driven loop (donating a spare SMT slot of the main thread's
core), with a trace event.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from ..pami.context import PamiContext
from ..sim.primitives import Delay

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import ArmciProcess


def async_progress_loop(rt: "ArmciProcess", ctx: PamiContext) -> Generator[Any, Any, None]:
    """Body of the asynchronous progress thread (runs as a daemon).

    Sleeps on the context's arrival signal (an SMT thread waiting on a
    wake-up event, not burning the core) and drains everything that lands.
    """
    trace = rt.trace
    while True:
        if len(ctx.queue) == 0:
            yield ctx.arrival_signal()
        # Advance is bounded to the work pending at entry, releasing the
        # context lock between rounds. With rho=1 an unbounded drain under
        # a continuous request stream would hold the lock forever and
        # starve the main thread's local completions — exactly the
        # contention hazard Section III-D describes (and why rho=2 is the
        # recommended configuration).
        serviced = yield from ctx.advance(max_items=max(len(ctx.queue), 1))
        trace.incr("armci.async_thread_serviced", serviced)


def start_async_thread(rt: "ArmciProcess") -> None:
    """Spawn the async progress thread on its context (daemon process)."""
    ctx = rt.client.progress_context()
    rt.async_thread = rt.engine.spawn(
        async_progress_loop(rt, ctx),
        name=f"async.r{rt.rank}",
        daemon=True,
    )
    rt.trace.incr("armci.async_threads_started")


def watchdog_loop(rt: "ArmciProcess", ctx: PamiContext) -> Generator[Any, Any, None]:
    """Body of the progress watchdog (daemon).

    Heartbeat scheme: :attr:`PamiContext.progress_epoch` bumps every time
    a drain services work. The watchdog arms only while the progress
    context has pending items (parking on the arrival signal otherwise,
    so an idle rank schedules nothing); if a full ``watchdog_period``
    passes with pending work and an unchanged epoch, no thread serviced
    the context — the async progress thread is stalled. The watchdog then
    fails over: it marks the stall in the trace and spawns a
    main-thread-driven progress loop so the rank's requesters unblock.
    """
    period = rt.config.watchdog_period
    world = rt.world
    while True:
        if world.is_failed(rt.rank):
            return
        if len(ctx.queue) == 0:
            yield ctx.arrival_signal()
            continue
        epoch = ctx.progress_epoch
        yield Delay(period)
        if world.is_failed(rt.rank):
            return
        if len(ctx.queue) > 0 and ctx.progress_epoch == epoch:
            _fail_over(rt, ctx)


def _fail_over(rt: "ArmciProcess", ctx: PamiContext) -> None:
    """Replace a stalled async progress thread with a fallback loop.

    The fallback runs :func:`async_progress_loop` on behalf of the main
    thread (modelling the main thread's core donating a spare SMT slot
    to progress duty, as the paper's AT design does at init).
    """
    rt.trace.incr("armci.watchdog_failovers")
    rt.progress_failed_over = True
    if rt.async_thread is not None and not rt.async_thread.done.triggered:
        rt.async_thread.kill()
    rt.async_thread = rt.engine.spawn(
        async_progress_loop(rt, ctx),
        name=f"failover.r{rt.rank}",
        daemon=True,
    )


def start_watchdog(rt: "ArmciProcess") -> None:
    """Spawn the progress watchdog (requires async-thread mode)."""
    ctx = rt.client.progress_context()
    rt.watchdog = rt.engine.spawn(
        watchdog_loop(rt, ctx),
        name=f"watchdog.r{rt.rank}",
        daemon=True,
    )
    rt.trace.incr("armci.watchdogs_started")
