"""The benchmark's three workloads, their seeded inputs and their audits.

Each workload drives the program only through its public API and reads
back the result objects and counters the program already exposes:

- ``scf``: the NWChem SCF proxy (``run_scf``), 256 ranks on 16 nodes in
  asynchronous-thread mode. One op is one Fock task.
- ``rma_mix``: a fixed mix of ARMCI calls from 8 ranks on 2 nodes in
  default (main-thread progress) mode. One op is one ARMCI call.
- ``kv_chaos``: the sharded KV store (``run_kv``) under light chaos with
  bursty open-loop Zipf traffic. One op is one KV request.

A workload's ``repeat`` runs one whole job (setup, run, audit) and
returns an :class:`Outcome`. Inputs depend only on the seed, so every
repeat at one seed runs the same job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import repro.apps.nwchem.scf as scf_mod
import repro.serve.kv as kv_mod
from repro.armci import ArmciConfig, ArmciJob
from repro.armci.vector import IoVector
from repro.chaos import ChaosConfig
from repro.errors import ReproError
from repro.serve import ClientLoadConfig, KvConfig
from repro.types import StridedDescriptor, StridedShape


@dataclass
class Outcome:
    """What one repeat of a workload produced."""

    ops: int
    attempted: int
    failed: int
    sim_makespan_s: float
    job: object = None
    #: Workload-specific readings (counter fraction, latency summary...).
    extra: dict = field(default_factory=dict)
    #: Human-readable audit findings, empty when everything matched.
    notes: list = field(default_factory=list)


class _SetupDone(Exception):
    """Raised from an ``on_job`` hook to stop a run right after setup."""


def _stop_after_setup(_job):
    raise _SetupDone


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


# ------------------------------------------------------------------ scf

@dataclass(frozen=True)
class ScfSpec:
    """Shape of the ``scf`` workload (Fig. 10 algorithm, Fig. 11 input)."""

    procs: int = 256
    procs_per_node: int = 16
    nbf: int = 644
    nblocks: int = 48
    tasks_per_draw: int = 2
    iterations: int = 1
    #: Mean simulated compute per task before the seeded jitter.
    task_time: float = 2e-3
    #: Relative width of the seeded task-time jitter.
    jitter: float = 0.02


def audit_scf(result, expected_tasks: int, reference_energies=None):
    """Failed tasks of one SCF result.

    Every task must run exactly once and the energies must be finite
    and, when a reference from an earlier repeat at the same seed is
    given, bit-identical to it. A wrong energy fails every task.
    """
    notes = []
    if result is None:
        return expected_tasks, ["no SCF result"]
    failed = abs(result.tasks_done - expected_tasks)
    if failed:
        notes.append(f"{result.tasks_done} tasks done, expected {expected_tasks}")
    if not result.energies or not all(math.isfinite(e) for e in result.energies):
        notes.append(f"non-finite energies {result.energies}")
        failed = expected_tasks
    elif reference_energies is not None and list(result.energies) != list(
        reference_energies
    ):
        notes.append(
            f"energies {result.energies} differ from {reference_energies}"
        )
        failed = expected_tasks
    return min(failed, expected_tasks), notes


class Scf:
    name = "scf"
    #: Spans that start a new op id: one counter draw claims the tasks
    #: whose patch get/acc calls follow it.
    op_roots = ("repro.gax.counter:SharedCounter.next",)
    op_roots_top_only = False

    def __init__(self, spec: ScfSpec = ScfSpec()):
        self.spec = spec
        self.reference = None

    def inputs(self, seed: int):
        """The SCF input; the seed sets the mean task time within ±1%."""
        s = self.spec
        u = _rng(seed, 0x5CF).random()
        return scf_mod.ScfConfig(
            nbf_override=s.nbf,
            nblocks=s.nblocks,
            tasks_per_draw=s.tasks_per_draw,
            iterations=s.iterations,
            task_time=s.task_time * (1.0 + s.jitter * (u - 0.5)),
        )

    def _run(self, cfg, on_job):
        return scf_mod.run_scf(
            self.spec.procs,
            ArmciConfig.async_thread_mode(),
            cfg,
            procs_per_node=self.spec.procs_per_node,
            on_job=on_job,
        )

    def setup_only(self, cfg) -> None:
        try:
            self._run(cfg, _stop_after_setup)
        except _SetupDone:
            pass

    def repeat(self, cfg) -> Outcome:
        jobs = []
        expected = cfg.ntasks * cfg.iterations
        try:
            result, error = self._run(cfg, jobs.append), None
        except ReproError as exc:
            result, error = None, exc
        if result is not None and self.reference is None:
            self.reference = (list(result.energies), result.total_time)
        ref_e, ref_t = self.reference if self.reference else (None, None)
        failed, notes = audit_scf(result, expected, ref_e)
        if error is not None:
            notes.append(f"run_scf raised {error!r}")
        makespan = result.total_time if result is not None else float("nan")
        if ref_t is not None and makespan != ref_t:
            notes.append(f"makespan {makespan!r} differs from {ref_t!r}")
            failed = expected
        return Outcome(
            ops=result.tasks_done if result is not None else 0,
            attempted=expected,
            failed=failed,
            sim_makespan_s=makespan,
            job=jobs[0] if jobs else None,
            extra={"counter_fraction": result.counter_fraction if result else 0.0},
            notes=notes,
        )


# -------------------------------------------------------------- rma_mix

RMA_PROCS = 8
RMA_PPN = 4
PUT_LARGE = 16384
#: Non-coalescible strided put: 256 B chunks, contiguous at the source,
#: 512 B apart at the target, so every chunk is its own RDMA.
PUTS_CHUNK, PUTS_COUNT, PUTS_DST_STRIDE = 256, 8, 512
#: Coalescible strided get: 256 B chunks contiguous on both sides, which
#: the ``auto`` protocol merges into one RDMA.
GETS_CHUNK, GETS_COUNT = 256, 16
GETS_BYTES = GETS_CHUNK * GETS_COUNT
#: Vector put: 128 B segments, stored in reverse order 256 B apart.
PUTV_SEG, PUTV_COUNT, PUTV_DST_STRIDE = 128, 8, 256
ACC_DOUBLES = 128
ACC_BYTES = 8 * ACC_DOUBLES

# Per-sender slot in each target's segment.
P8_OFF = 0
PL_OFF = P8_OFF + 8
PS_OFF = PL_OFF + PUT_LARGE
PV_OFF = PS_OFF + PUTS_COUNT * PUTS_DST_STRIDE
SLOT = PV_OFF + PUTV_COUNT * PUTV_DST_STRIDE
# Shared areas after the slots.
RO_BYTES = 16384
RO_OFF = RMA_PROCS * SLOT
ACC_OFF = RO_OFF + RO_BYTES
CTR_OFF = ACC_OFF + ACC_BYTES
SEGMENT = CTR_OFF + 8

SRC_BYTES = 32768
ACC_POOL = 1024

#: ARMCI calls per rank per iteration: seven per target, one fetch_add,
#: two fences.
CALLS_PER_ITER = 2 * 7 + 1 + 2

PUTS_DESC = StridedDescriptor(
    shape=StridedShape(PUTS_CHUNK, (PUTS_COUNT,)),
    src_strides=(PUTS_CHUNK,),
    dst_strides=(PUTS_DST_STRIDE,),
)
GETS_DESC = StridedDescriptor(
    shape=StridedShape(GETS_CHUNK, (GETS_COUNT,)),
    src_strides=(GETS_CHUNK,),
    dst_strides=(GETS_CHUNK,),
)


@dataclass
class RmaInputs:
    """Seeded payloads and per-call targets/offsets of ``rma_mix``.

    Arrays indexed ``[rank, iteration, k]`` hold the intra-node (k=0)
    and inter-node (k=1) target and the byte offsets each call uses.
    """

    iterations: int
    src: np.ndarray          # (P, SRC_BYTES) uint8 put payload source
    ro: np.ndarray           # (P, RO_BYTES) uint8 read-only get source
    acc: np.ndarray          # (P, ACC_POOL) float64 small integers
    target: np.ndarray       # (P, I, 2)
    off8: np.ndarray
    offl: np.ndarray
    offs: np.ndarray
    offv: np.ndarray
    g8: np.ndarray
    gs: np.ndarray
    acco: np.ndarray


def rma_inputs(seed: int, iterations: int) -> RmaInputs:
    rng = _rng(seed, 0x524D41)
    P, I = RMA_PROCS, iterations
    node = np.arange(P) // RMA_PPN
    target = np.empty((P, I, 2), dtype=np.int64)
    for r in range(P):
        same = [q for q in range(P) if node[q] == node[r] and q != r]
        other = [q for q in range(P) if node[q] != node[r]]
        target[r, :, 0] = rng.choice(same, size=I)
        target[r, :, 1] = rng.choice(other, size=I)

    def offsets(limit, scale=8):
        return rng.integers(0, limit // scale + 1, size=(P, I, 2)) * scale

    return RmaInputs(
        iterations=I,
        src=rng.integers(0, 256, size=(P, SRC_BYTES), dtype=np.uint8),
        ro=rng.integers(0, 256, size=(P, RO_BYTES), dtype=np.uint8),
        acc=rng.integers(-8, 9, size=(P, ACC_POOL)).astype(np.float64),
        target=target,
        off8=offsets(SRC_BYTES - 8),
        offl=offsets(SRC_BYTES - PUT_LARGE),
        offs=offsets(SRC_BYTES - PUTS_CHUNK * PUTS_COUNT),
        offv=offsets(SRC_BYTES - PUTV_SEG * PUTV_COUNT),
        g8=offsets(RO_BYTES - 8),
        gs=offsets(RO_BYTES - GETS_BYTES),
        acco=offsets(ACC_POOL - ACC_DOUBLES, scale=1),
    )


@dataclass
class RmaModel:
    """Expected end state of every rank's segment, computed with numpy."""

    segments: np.ndarray     # (P, SEGMENT) uint8; the acc area is in ``acc``
    acc: np.ndarray          # (P, ACC_DOUBLES) float64
    counter: int


def rma_model(inp: RmaInputs) -> RmaModel:
    P, I = RMA_PROCS, inp.iterations
    seg = np.zeros((P, SEGMENT), dtype=np.uint8)
    acc = np.zeros((P, ACC_DOUBLES))
    seg[:, RO_OFF:RO_OFF + RO_BYTES] = inp.ro
    for s in range(P):
        src = inp.src[s]
        for i in range(I):
            for k in range(2):
                t = inp.target[s, i, k]
                a = inp.acco[s, i, k]
                acc[t] += inp.acc[s, a:a + ACC_DOUBLES]
                # Puts of later iterations overwrite earlier ones: the
                # fences that end every iteration order them.
                slot = seg[t, s * SLOT:(s + 1) * SLOT]
                o = inp.off8[s, i, k]
                slot[P8_OFF:P8_OFF + 8] = src[o:o + 8]
                o = inp.offl[s, i, k]
                slot[PL_OFF:PL_OFF + PUT_LARGE] = src[o:o + PUT_LARGE]
                o = inp.offs[s, i, k]
                for j in range(PUTS_COUNT):
                    d = PS_OFF + j * PUTS_DST_STRIDE
                    slot[d:d + PUTS_CHUNK] = src[o + j * PUTS_CHUNK:o + (j + 1) * PUTS_CHUNK]
                o = inp.offv[s, i, k]
                for j in range(PUTV_COUNT):
                    d = PV_OFF + (PUTV_COUNT - 1 - j) * PUTV_DST_STRIDE
                    slot[d:d + PUTV_SEG] = src[o + j * PUTV_SEG:o + (j + 1) * PUTV_SEG]
    seg[0, CTR_OFF:CTR_OFF + 8] = np.frombuffer(
        np.int64(P * I).tobytes(), dtype=np.uint8
    )
    return RmaModel(segments=seg, acc=acc, counter=P * I)


def audit_rma(segments, accs, olds, get_failures, model: RmaModel):
    """Failed items of one ``rma_mix`` run against the numpy model.

    ``segments``/``accs`` are what the ranks' segments hold after the
    run, ``olds`` the values every ``fetch_add`` returned and
    ``get_failures`` the gets whose bytes did not match during the run.
    Each mismatching put slot, accumulate area or counter check counts
    as one failed op.
    """
    notes = []
    failed = int(get_failures)
    if failed:
        notes.append(f"{failed} gets returned wrong bytes")
    regions = (
        ("put8", P8_OFF, 8),
        ("put16k", PL_OFF, PUT_LARGE),
        ("puts", PS_OFF, PUTS_COUNT * PUTS_DST_STRIDE),
        ("putv", PV_OFF, PUTV_COUNT * PUTV_DST_STRIDE),
    )
    for t in range(RMA_PROCS):
        got, want = segments[t], model.segments[t]
        for s in range(RMA_PROCS):
            for label, off, n in regions:
                lo = s * SLOT + off
                if not np.array_equal(got[lo:lo + n], want[lo:lo + n]):
                    failed += 1
                    notes.append(f"{label} {s}->{t} bytes differ")
        if not np.array_equal(accs[t], model.acc[t]):
            failed += 1
            notes.append(f"acc area of rank {t} differs")
    counter = int(np.frombuffer(segments[0][CTR_OFF:CTR_OFF + 8].tobytes(),
                                dtype=np.int64)[0])
    if counter != model.counter:
        failed += 1
        notes.append(f"counter {counter}, expected {model.counter}")
    if sorted(olds) != list(range(model.counter)):
        failed += 1
        notes.append("fetch_add returned values are not 0..N-1 once each")
    return failed, notes


class RmaMix:
    name = "rma_mix"
    #: Every ARMCI call the body makes directly starts an op.
    op_roots = tuple(
        f"repro.armci.runtime:ArmciProcess.{m}"
        for m in ("put", "get", "puts", "gets", "putv", "acc", "rmw", "fence")
    )
    op_roots_top_only = True

    def __init__(self, iterations: int = 60):
        self.iterations = iterations
        self.reference = None

    def inputs(self, seed: int):
        inp = rma_inputs(seed, self.iterations)
        return inp, rma_model(inp)

    @staticmethod
    def _job():
        return ArmciJob(
            RMA_PROCS,
            config=ArmciConfig(strided_protocol="auto"),
            procs_per_node=RMA_PPN,
        )

    def setup_only(self, inputs) -> None:
        self._job().init()

    def repeat(self, inputs) -> Outcome:
        inp, model = inputs
        job = self._job()
        job.init()
        allocs = {}

        def body(rt):
            me = rt.rank
            alloc = yield from rt.malloc(SEGMENT)
            allocs[me] = alloc
            space = rt.world.space(me)
            space.write(alloc.addr(me) + RO_OFF, inp.ro[me].tobytes())
            src = space.allocate(SRC_BYTES)
            space.write(src, inp.src[me].tobytes())
            accsrc = space.allocate(8 * ACC_POOL)
            space.write(accsrc, inp.acc[me].tobytes())
            land8 = space.allocate(8)
            lands = space.allocate(GETS_BYTES)
            yield from rt.barrier()
            ctr = alloc.addr(0) + CTR_OFF
            olds, bad = [], 0
            for i in range(inp.iterations):
                for k in range(2):
                    t = int(inp.target[me, i, k])
                    base = alloc.addr(t)
                    slot = base + me * SLOT
                    yield from rt.put(t, src + int(inp.off8[me, i, k]), slot + P8_OFF, 8)
                    g = int(inp.g8[me, i, k])
                    yield from rt.get(t, land8, base + RO_OFF + g, 8)
                    if space.read(land8, 8) != inp.ro[t, g:g + 8].tobytes():
                        bad += 1
                    yield from rt.put(
                        t, src + int(inp.offl[me, i, k]), slot + PL_OFF, PUT_LARGE
                    )
                    yield from rt.puts(
                        t, src + int(inp.offs[me, i, k]), slot + PS_OFF, PUTS_DESC
                    )
                    g = int(inp.gs[me, i, k])
                    yield from rt.gets(t, lands, base + RO_OFF + g, GETS_DESC)
                    if space.read(lands, GETS_BYTES) != inp.ro[t, g:g + GETS_BYTES].tobytes():
                        bad += 1
                    o = src + int(inp.offv[me, i, k])
                    yield from rt.putv(t, IoVector(
                        tuple(o + j * PUTV_SEG for j in range(PUTV_COUNT)),
                        tuple(
                            slot + PV_OFF + (PUTV_COUNT - 1 - j) * PUTV_DST_STRIDE
                            for j in range(PUTV_COUNT)
                        ),
                        (PUTV_SEG,) * PUTV_COUNT,
                    ))
                    yield from rt.acc(
                        t, accsrc + 8 * int(inp.acco[me, i, k]), base + ACC_OFF,
                        ACC_BYTES,
                    )
                old = yield from rt.rmw(0, ctr, "fetch_add", 1)
                olds.append(old)
                yield from rt.fence(int(inp.target[me, i, 0]))
                yield from rt.fence(int(inp.target[me, i, 1]))
            yield from rt.barrier()
            return olds, bad

        results = job.run(body)
        segments, accs = [], []
        for t in range(RMA_PROCS):
            space = job.world.space(t)
            raw = np.frombuffer(space.read(allocs[t].addr(t), SEGMENT), dtype=np.uint8)
            segments.append(raw)
            accs.append(space.read_f64(allocs[t].addr(t) + ACC_OFF, ACC_DOUBLES))
        olds = [v for r in results for v in r[0]]
        failed, notes = audit_rma(
            segments, accs, olds, sum(r[1] for r in results), model
        )
        makespan = job.engine.now
        if self.reference is None:
            self.reference = makespan
        elif makespan != self.reference:
            notes.append(f"makespan {makespan!r} differs from {self.reference!r}")
            failed += 1
        ops = RMA_PROCS * inp.iterations * CALLS_PER_ITER
        return Outcome(ops=ops, attempted=ops, failed=min(failed, ops),
                       sim_makespan_s=makespan, job=job, notes=notes)


# ------------------------------------------------------------- kv_chaos

@dataclass(frozen=True)
class KvSpec:
    """Shape of the ``kv_chaos`` workload."""

    procs: int = 6
    shards: int = 2
    clients: int = 8192
    rate: float = 1e6


def audit_kv(result):
    """Failed requests: unanswered, late or past their deadline, plus
    every key whose final value differs from the golden model."""
    if result is None:
        return None, ["no KV result"]
    unanswered = result.requests - result.responses
    failed = (unanswered + result.late_responses + result.deadline_misses
              + result.mismatched_keys)
    notes = []
    if unanswered:
        notes.append(f"{unanswered} requests unanswered")
    if result.late_responses:
        notes.append(f"{result.late_responses} late responses")
    if result.deadline_misses:
        notes.append(f"{result.deadline_misses} deadline misses")
    if not result.exact:
        notes.append(f"{result.mismatched_keys} keys differ from the golden model")
    return min(failed, result.requests), notes


class KvChaos:
    name = "kv_chaos"
    #: One poll round of an actor system starts an op.
    op_roots = ("repro.serve.actor:ActorSystem.poll_once",)
    op_roots_top_only = False

    def __init__(self, spec: KvSpec = KvSpec()):
        self.spec = spec
        self.reference = None

    def inputs(self, seed: int):
        """Client load and chaos seeds, both drawn from the run seed."""
        load_seed, chaos_seed = (int(x) for x in _rng(seed, 0x4B56).integers(0, 2**31, 2))
        load = ClientLoadConfig(
            num_clients=self.spec.clients,
            arrival="bursty",
            rate=self.spec.rate,
            seed=load_seed,
        )
        return load, ChaosConfig.light(chaos_seed)

    def _run(self, inputs, on_job):
        load, chaos = inputs
        return kv_mod.run_kv(
            self.spec.procs,
            load=load,
            kv_config=KvConfig(num_shards=self.spec.shards),
            procs_per_node=self.spec.procs,
            chaos=chaos,
            on_job=on_job,
        )

    def setup_only(self, inputs) -> None:
        try:
            self._run(inputs, _stop_after_setup)
        except _SetupDone:
            pass

    def repeat(self, inputs) -> Outcome:
        jobs = []
        try:
            result, error = self._run(inputs, jobs.append), None
        except ReproError as exc:
            result, error = None, exc
        attempted = result.requests if result is not None else 1
        failed, notes = audit_kv(result)
        if error is not None:
            notes.append(f"run_kv raised {error!r}")
        if failed is None:
            failed = attempted
        makespan = result.duration if result is not None else float("nan")
        if self.reference is None:
            self.reference = makespan
        elif makespan != self.reference:
            notes.append(f"makespan {makespan!r} differs from {self.reference!r}")
            failed = attempted
        job = jobs[0] if jobs else None
        latency = {}
        if job is not None and job.serve_metrics is not None:
            latency = job.serve_metrics.histogram("serve.latency").summary()
        return Outcome(
            ops=result.responses if result is not None else 0,
            attempted=attempted,
            failed=failed,
            sim_makespan_s=makespan,
            job=job,
            extra={"latency": latency,
                   "requests": result.requests if result is not None else 0},
            notes=notes,
        )


WORKLOADS = {"scf": Scf, "rma_mix": RmaMix, "kv_chaos": KvChaos}
