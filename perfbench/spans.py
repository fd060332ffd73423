"""Outside-in span tracer for the host-time split across layers.

The tracer never edits program source. :meth:`Tracer.install` replaces
the public functions and methods of each layer's modules with wrappers,
and :meth:`Tracer.uninstall` puts the originals back.

Simulated processes are generators that the engine interleaves, so a
span's host time is the sum of its own resumptions, not end minus
start. Each wrapper pushes its span on a stack while its code runs and
pops it when the generator yields or returns. At every push, pop and
phase switch the host time since the previous one is charged to the
span on top of the stack, so self time follows the real dynamic
nesting: a span's self time is its host time minus the time of the
spans that ran inside it.

A span is recorded where a call crosses from one layer into another,
and always for the functions named in ``always_span`` (their host-time
percentiles are metrics). Calls inside a layer are only counted. Plain
(non-generator) calls into ``sim`` (event, queue and scheduling
primitives, the bulk of all calls) are timed against the ``sim`` layer
without a span record of their own, which keeps the tracing overhead and
the span file small. Every call count is exact for a deterministic
simulation.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

#: Module prefix -> layer name. Longest prefix wins. ``None`` leaves
#: the module unwrapped: ``sim.parallel`` runs no paper workload and
#: ``sim.trace`` is the program's own counter sink, charged to callers.
LAYER_PREFIXES = (
    ("repro.sim.parallel", None),
    ("repro.sim.trace", None),
    ("repro.sim", "sim"),
    ("repro.topology", "topology"),
    ("repro.machine", "machine"),
    ("repro.pami", "pami"),
    ("repro.transport", "transport"),
    ("repro.armci", "armci"),
    ("repro.gax", "gax"),
    ("repro.apps.nwchem", "nwchem"),
    ("repro.serve", "serve"),
)

#: The layers every traced run reports, bottom of the stack first.
LAYERS = ("sim", "topology", "machine", "pami", "transport", "armci",
          "gax", "nwchem", "serve")

#: Pseudo-layer of code outside the program (the benchmark's own
#: process bodies); its self time is reported as unattributed.
BENCH = "bench"

PHASES = ("setup", "run", "audit")

_perf = time.perf_counter


def layer_of(module: str | None):
    """Layer a module belongs to, or ``None`` when it is not traced."""
    if not module:
        return None
    best = None
    for prefix, layer in LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, layer)
    return best[1] if best else None


class Span:
    """One traced call. ``host`` sums its own resumptions (children
    included); ``self_t`` is the part of it no child span covered.
    ``acc`` is the per-phase self-time accumulator of the span's layer."""

    __slots__ = ("sid", "parent", "layer", "name", "op", "host", "self_t",
                 "sim_start", "sim_end", "phase", "cur_op", "acc")

    def __init__(self, sid, parent, layer, name, op, sim_start, phase, acc):
        self.sid = sid
        self.parent = parent
        self.layer = layer
        self.name = name
        self.op = op
        self.host = 0.0
        self.self_t = 0.0
        self.sim_start = sim_start
        self.sim_end = None
        self.phase = phase
        #: Op id of the process this span is the root of (process roots only).
        self.cur_op = None
        self.acc = acc


class Tracer:
    """Installs wrappers, keeps spans in memory, aggregates per layer.

    ``always_span``: qualified names (``module:Class.method``) that get a
    span even when called from their own layer. ``op_roots``: qualified
    names that start a new op id in the calling process.
    ``op_roots_top_only``: op roots count only when called directly from
    a process body. ``truthy``: qualified names whose truthy return
    values are counted (useful work of a poll or advance call).
    ``max_spans`` caps the spans kept for the JSONL file (the first ones
    recorded); aggregates always cover every span.
    """

    #: Code object shared by every generator wrapper (set on first wrap).
    _gen_code = None

    def __init__(self, always_span=(), op_roots=(), op_roots_top_only=False,
                 truthy=(), max_spans=50_000):
        self.always_span = frozenset(always_span)
        self.op_roots = frozenset(op_roots)
        self.op_roots_top_only = op_roots_top_only
        self.truthy_names = frozenset(truthy)
        self.max_spans = max_spans
        self.stack: list[Span] = []
        self.proc: Span | None = None
        self.engine = None
        self.phase = PHASES[0]
        self._pi = 0
        #: layer -> self seconds per phase (index into PHASES).
        self.acc = {layer: [0.0] * len(PHASES) for layer in LAYERS + (BENCH,)}
        #: Shared, never-recorded frame for plain calls into ``sim``.
        self._frame = Span(0, None, "sim", "sim", None, 0.0, None, self.acc["sim"])
        self.spans: list[tuple] = []
        self.spans_total = 0
        self.calls: dict[str, int] = {}
        #: Snapshot of ``calls`` taken when each phase was entered.
        self.calls_at: dict[str, dict[str, int]] = {}
        self.truthy: dict[str, int] = {}
        self.durations: dict[str, list[float]] = {}
        #: Host time of the last push, pop or phase switch.
        self._last = 0.0
        #: Process-root spans not yet finished, by span id.
        self.open_procs: dict[int, Span] = {}
        self._next_sid = 1
        self._next_op = 1
        self._patches: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- spans

    def _open(self, layer, name, parent=None):
        stack = self.stack
        if parent is None and stack:
            parent = stack[-1]
        proc = self.proc
        op = proc.cur_op if proc is not None else None
        if name in self.op_roots and proc is not None and (
            not self.op_roots_top_only or (stack and stack[-1] is proc)
        ):
            op = proc.cur_op = self._next_op
            self._next_op += 1
        eng = self.engine
        sid = self._next_sid
        self._next_sid = sid + 1
        return Span(
            sid,
            parent.sid if parent is not None else None,
            layer, name, op,
            eng.now if eng is not None else 0.0,
            self.phase,
            self.acc[layer],
        )

    def _push(self, span: Span) -> float:
        """Charge the time since the last switch to the running span and
        make ``span`` the running one. Returns the switch time."""
        now = _perf()
        stack = self.stack
        if stack:
            top = stack[-1]
            dt = now - self._last
            top.self_t += dt
            top.acc[self._pi] += dt
        self._last = now
        stack.append(span)
        return now

    def _pop(self, span: Span, t0: float) -> None:
        """End one resumption of ``span`` that began at ``t0``."""
        now = _perf()
        dt = now - self._last
        span.self_t += dt
        span.acc[self._pi] += dt
        self._last = now
        self.stack.pop()
        span.host += now - t0

    def _close(self, span: Span) -> None:
        eng = self.engine
        span.sim_end = eng.now if eng is not None else 0.0
        self.open_procs.pop(span.sid, None)
        if span.name in self.always_span:
            self.durations.setdefault(span.name, []).append(span.host)
        self.spans_total += 1
        if len(self.spans) < self.max_spans:
            self.spans.append((
                span.sid, span.parent, span.layer, span.name, span.op,
                span.host, span.self_t, span.sim_start, span.sim_end,
                span.phase,
            ))

    def set_phase(self, phase: str) -> None:
        """Switch phase and remember the call counts at the switch."""
        now = _perf()
        if self.stack:
            top = self.stack[-1]
            top.self_t += now - self._last
            top.acc[self._pi] += now - self._last
        self._last = now
        self.phase = phase
        self._pi = PHASES.index(phase)
        self.calls_at[phase] = dict(self.calls)

    def calls_between(self, start: str, end: str) -> dict[str, int]:
        """Calls made between entering phase ``start`` and phase ``end``."""
        a = self.calls_at.get(start, {})
        b = self.calls_at.get(end, self.calls)
        return {k: v - a.get(k, 0) for k, v in b.items() if v != a.get(k, 0)}

    def finish(self) -> None:
        """Record the process roots still parked when tracing stops."""
        for span in list(self.open_procs.values()):
            self._close(span)

    # -------------------------------------------------------- wrappers

    def _wrap_sync(self, fn, layer, name):
        tracer = self
        calls = self.calls
        always = name in self.always_span
        truthy = name in self.truthy_names
        frame = self._frame if layer == "sim" and not always else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            stack = tracer.stack
            if not always and stack and stack[-1].layer == layer:
                result = fn(*args, **kwargs)
            elif frame is not None:
                t0 = tracer._push(frame)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._pop(frame, t0)
            else:
                span = tracer._open(layer, name)
                t0 = tracer._push(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._pop(span, t0)
                    tracer._close(span)
            if truthy and result:
                tracer.truthy[name] = tracer.truthy.get(name, 0) + 1
            return result

        return wrapper

    def _wrap_gen(self, fn, layer, name):
        tracer = self
        calls = self.calls
        always = name in self.always_span
        truthy = name in self.truthy_names

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # Runs at the first resumption, when the caller is on the stack.
            calls[name] = calls.get(name, 0) + 1
            stack = tracer.stack
            if not always and stack and stack[-1].layer == layer:
                result = yield from fn(*args, **kwargs)
            else:
                span = tracer._open(layer, name)
                result = yield from tracer._drive(fn(*args, **kwargs), span)
            if truthy and result:
                tracer.truthy[name] = tracer.truthy.get(name, 0) + 1
            return result

        Tracer._gen_code = wrapper.__code__
        return wrapper

    def _drive(self, gen, span: Span, is_proc: bool = False):
        """Delegate to ``gen`` like ``yield from``, timing each resumption."""
        send, exc = None, None
        try:
            while True:
                t0 = self._push(span)
                if is_proc:
                    prev_proc, self.proc = self.proc, span
                try:
                    if exc is not None:
                        e, exc = exc, None
                        command = gen.throw(e)
                    else:
                        command = gen.send(send)
                except StopIteration as stop:
                    return stop.value
                finally:
                    if is_proc:
                        self.proc = prev_proc
                    self._pop(span, t0)
                try:
                    send = yield command
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as e:  # delivered into the callee
                    send, exc = None, e
        finally:
            self._close(span)

    def _wrap_process(self, body, spawner):
        """Root span of one simulated process (parent: the spawner)."""
        frame = body.gi_frame
        if body.gi_code is Tracer._gen_code:
            # The body is itself a wrapped layer function.
            layer, name = frame.f_locals["layer"], frame.f_locals["name"]
        else:
            module = frame.f_globals.get("__name__")
            layer = layer_of(module) or BENCH
            name = f"{module}:{body.__qualname__}"
        span = self._open(layer, f"proc:{name}", parent=spawner)
        span.op = None
        self.open_procs[span.sid] = span
        return self._drive(body, span, is_proc=True)

    def _wrap_callback(self, cb, layer, name):
        tracer = self

        def callback(arg):
            stack = tracer.stack
            if stack and stack[-1].layer == layer:
                return cb(arg)
            span = tracer._open(layer, name)
            t0 = tracer._push(span)
            try:
                return cb(arg)
            finally:
                tracer._pop(span, t0)
                tracer._close(span)

        return callback

    def _callback_layer(self, cb):
        fn = getattr(cb, "__func__", cb)
        module = getattr(fn, "__module__", None)
        layer = layer_of(module)
        if layer is None or layer == "sim":
            return None, None
        return layer, f"cb:{module}:{getattr(fn, '__qualname__', '?')}"

    # ---------------------------------------------------- installation

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrapper_for(self, fn, layer, name):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_gen(fn, layer, name)
        return self._wrap_sync(fn, layer, name)

    def install(self, modules=None) -> None:
        """Wrap every public function and method of the traced modules.

        Module-level functions are also replaced wherever another module
        imported them by name, so ``from .rma import rdma_put`` call
        sites see the wrapper too.
        """
        if modules is None:
            modules = [m for n, m in sorted(sys.modules.items())
                       if n.startswith("repro.") and m is not None]
        replaced: dict[int, tuple] = {}
        for mod in modules:
            layer = layer_of(mod.__name__)
            if layer is None:
                continue
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == mod.__name__:
                    w = self._wrapper_for(value, layer,
                                          f"{mod.__name__}:{value.__qualname__}")
                    replaced[id(value)] = (value, w)
                    self._patch(mod, attr, w)
                elif (inspect.isclass(value) and value.__module__ == mod.__name__
                      and not issubclass(value, BaseException)):
                    self._install_class(value, layer, mod.__name__)
        # Rebind by-name imports of the wrapped module-level functions.
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        self._install_engine_hooks()

    def _install_class(self, cls, layer, module) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{module}:{cls.__qualname__}.{attr}"
            if isinstance(value, (classmethod, staticmethod)):
                fn = value.__func__
                if not inspect.isfunction(fn):
                    continue
                self._patch(cls, attr, type(value)(self._wrapper_for(fn, layer, name)))
            elif inspect.isfunction(value):
                self._patch(cls, attr, self._wrapper_for(value, layer, name))

    def _install_engine_hooks(self) -> None:
        """Attribute engine callbacks and spawned processes to layers."""
        from repro.sim.engine import Engine

        tracer = self
        schedule = Engine.__dict__["schedule"]
        schedule_timer = Engine.__dict__["schedule_timer"]
        spawn = Engine.__dict__["spawn"]

        def traced_schedule(eng, delay, callback, arg=None):
            tracer.engine = eng
            layer, name = tracer._callback_layer(callback)
            if layer is not None:
                callback = tracer._wrap_callback(callback, layer, name)
            return schedule(eng, delay, callback, arg)

        def traced_schedule_timer(eng, delay, callback, arg=None):
            layer, name = tracer._callback_layer(callback)
            if layer is not None:
                callback = tracer._wrap_callback(callback, layer, name)
            return schedule_timer(eng, delay, callback, arg)

        def traced_spawn(eng, body, name="proc", daemon=False):
            tracer.engine = eng
            spawner = tracer.stack[-1] if tracer.stack else None
            return spawn(eng, tracer._wrap_process(body, spawner),
                         name=name, daemon=daemon)

        self._patch(Engine, "schedule", traced_schedule)
        self._patch(Engine, "schedule_timer", traced_schedule_timer)
        self._patch(Engine, "spawn", traced_spawn)

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------- reporting

    def layer_self(self, phase: str | None = None) -> dict[str, float]:
        """Self seconds per layer, for one phase or all of them."""
        if phase is None:
            return {layer: sum(v) for layer, v in self.acc.items()}
        i = PHASES.index(phase)
        return {layer: v[i] for layer, v in self.acc.items()}

    def write_jsonl(self, path, header: dict) -> None:
        """One header line, then one JSON object per kept span."""
        keys = ("id", "parent", "layer", "name", "op", "host_s", "self_s",
                "sim_start", "sim_end", "phase")
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, record="header",
                                     spans_total=self.spans_total,
                                     spans_kept=len(self.spans))) + "\n")
            for row in self.spans:
                fh.write(json.dumps(dict(zip(keys, row))) + "\n")
