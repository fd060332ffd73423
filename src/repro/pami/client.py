"""PAMI clients: per-process communication state.

A process must create a client before any communication; the client then
creates one or more contexts (Section III-A, Figure 1). Active-message
handlers are registered per dispatch id, mirroring ``PAMI_Dispatch_set``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator

from ..errors import PamiError
from ..sim.primitives import Delay
from .context import PamiContext

if TYPE_CHECKING:  # pragma: no cover
    from .activemsg import AmEnvelope
    from .world import PamiWorld

#: An active-message handler: ``handler(context, envelope)`` with effects.
AmHandler = Callable[[PamiContext, "AmEnvelope"], None]


class PamiClient:
    """The PAMI client of one simulated process.

    Parameters
    ----------
    world:
        The job-wide :class:`~repro.pami.world.PamiWorld`.
    rank:
        This process's rank.
    """

    def __init__(self, world: "PamiWorld", rank: int) -> None:
        self.world = world
        self.rank = rank
        self.contexts: list[PamiContext] = []
        self._dispatch: dict[int, AmHandler] = {}

    @property
    def num_contexts(self) -> int:
        """Number of created contexts (rho in the paper)."""
        return len(self.contexts)

    def create_context(
        self, capacity: int | None = None
    ) -> Generator[Any, Any, PamiContext]:
        """Create one communication context (a generator; costs real time).

        Context creation is expensive — Table II reports 3821-4271 us —
        so ARMCI creates contexts once at init, not per transfer.
        ``capacity`` bounds the context's injection/reception FIFO
        (``None`` = unbounded).
        """
        index = len(self.contexts)
        yield Delay(self.world.params.context_create_time(index))
        ctx = PamiContext(self, index, capacity=capacity)
        self.contexts.append(ctx)
        self.world.trace.incr("pami.contexts_created")
        return ctx

    def context(self, index: int) -> PamiContext:
        """Context by index.

        Raises
        ------
        PamiError
            If no such context exists.
        """
        try:
            return self.contexts[index]
        except IndexError:
            raise PamiError(
                f"rank {self.rank} has {len(self.contexts)} context(s), "
                f"index {index} invalid"
            ) from None

    def progress_context(self) -> PamiContext:
        """The context remote requests should target.

        With multiple contexts the *last* one is dedicated to asynchronous
        progress (Section III-D); with one, everything shares context 0.
        """
        if not self.contexts:
            raise PamiError(f"rank {self.rank} has no contexts")
        return self.contexts[-1]

    def request_context(self, index: int | None) -> PamiContext:
        """The context a remote request lands on: context ``index`` when
        given, else the progress context."""
        return self.progress_context() if index is None else self.context(index)

    def register_dispatch(self, dispatch_id: int, handler: AmHandler) -> None:
        """Register an active-message handler (like ``PAMI_Dispatch_set``).

        Raises
        ------
        PamiError
            If the dispatch id is already taken.
        """
        if dispatch_id in self._dispatch:
            raise PamiError(f"dispatch id {dispatch_id} already registered")
        self._dispatch[dispatch_id] = handler

    def handler_for(self, dispatch_id: int) -> AmHandler:
        """Look up a registered handler.

        Raises
        ------
        PamiError
            If no handler is registered for the id.
        """
        try:
            return self._dispatch[dispatch_id]
        except KeyError:
            raise PamiError(
                f"rank {self.rank}: no handler for dispatch id {dispatch_id}"
            ) from None
