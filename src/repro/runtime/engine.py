"""The discrete-event execution engine.

Executes an augmented instruction program against a simulated GPU as a
true discrete-event system:

* one serial **compute** stream, serial **D2H** / **H2D** copy streams
  (the paper's three CUDA streams), plus a **host** stream for
  CPU-offloaded optimizer updates;
* one dispatch loop, :func:`dispatch`, that always advances the lane
  whose head instruction starts earliest (ties broken by issue order),
  so allocation, free and swap-completion events are applied to the
  :class:`~repro.hardware.memory_pool.DeviceMemoryLedger` in
  chronological order — ``used``, ``peak_memory`` and the Equation-3
  memory stalls are exact by construction, with no post-hoc replay of
  the allocation log needed to recover the true peak. The same loop
  advances one run per rank for the
  :class:`~repro.runtime.cluster_engine.ClusterEngine`, which adds the
  collective rendezvous; :class:`Engine` is its one-run case;
* event-based dependencies: a compute kernel starts only when its input
  (micro-)tensors are ready, a swap-in only when its host copy exists,
  and a buffer is reclaimed only once *both* its eviction transfer and
  every previously-issued consumer have finished (the CUDA-event
  ordering a real runtime enforces before returning memory to the pool);
* byte-accurate device-memory accounting: allocations wait for enough
  pending frees (swap-out completions) to land — the stall the paper's
  Equation 3 models — and raise
  :class:`~repro.errors.OutOfMemoryError` when no amount of waiting can
  ever satisfy them;
* pluggable :class:`~repro.runtime.observers.EngineObserver` instances
  that watch the chronological event stream (instruction start/end,
  alloc/free, stall begin/end, fault/recovery, OOM) — tracing cost is
  opt-in per observer;
* optional **fault injection with graceful degradation**: with a
  :class:`~repro.faults.model.FaultConfig` attached, kernel times and
  PCIe bandwidth jitter, transfers fail transiently and are retried
  with exponential backoff, and an allocation that can never fit
  triggers emergency eviction of the coldest resident (micro-)tensors
  (SuperNeurons-style) — with automatic re-fetch when an evicted tensor
  is consumed again — instead of aborting. Every recovery action is
  recorded in the trace and telemetry. With ``faults=None`` the fault
  machinery is completely inert and runs are byte-identical to a
  pre-fault engine.

The engine is deliberately *not* given the plan or the graph: everything
it needs is in the instruction stream, which keeps the augmenter honest
(any bookkeeping bug shows up as an engine error, not silent drift).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import OutOfMemoryError, RuntimeExecutionError
from repro.faults.model import FaultConfig, FaultModel
from repro.hardware.cluster import ClusterSpec
from repro.hardware.gpu import GPUSpec
from repro.hardware.memory_pool import DeviceMemoryLedger
from repro.hardware.pcie import PCIeModel
from repro.hardware.streams import Event, Stream, StreamSet
from repro.runtime.instructions import (
    CollectiveInstr,
    ComputeInstr,
    Device,
    FreeInstr,
    Instruction,
    Program,
    SwapInInstr,
    SwapOutInstr,
    TensorRef,
    XferInstr,
    instr_reads,
    instr_stream,
)

from repro.runtime.observers import EngineObserver, TraceObserver
from repro.runtime.trace import ExecutionTrace

#: The engine's built-in serial lanes; anything else (collective comm
#: lanes, pipeline point-to-point lanes) is created on demand, so
#: programs without collectives see exactly the classic four streams.
FIXED_LANES = ("compute", "d2h", "h2d", "cpu")


@dataclass(frozen=True)
class EngineOptions:
    """Engine knobs."""

    #: Record per-instruction timing and memory samples by implicitly
    #: attaching a :class:`~repro.runtime.observers.TraceObserver`
    #: (disable for large parameter sweeps where only aggregates matter;
    #: aggregate numbers are identical either way).
    record_trace: bool = True
    #: Observers attached to every run of this engine, in addition to
    #: any passed per-call to :meth:`Engine.execute`.
    observers: tuple[EngineObserver, ...] = ()
    #: Fault-injection configuration; ``None`` (the default) keeps every
    #: fault/recovery code path inert and execution byte-identical to an
    #: engine without the fault layer.
    faults: FaultConfig | None = None


class Engine:
    """Executes programs on one simulated GPU."""

    def __init__(self, gpu: GPUSpec, options: EngineOptions | None = None) -> None:
        self.gpu = gpu
        self.options = options or EngineOptions()
        self.pcie = PCIeModel(gpu)

    def execute(
        self,
        program: Program,
        observers: tuple[EngineObserver, ...] | list[EngineObserver] = (),
    ) -> ExecutionTrace:
        """Run a program to completion and return its trace.

        Raises
        ------
        OutOfMemoryError
            When an allocation cannot be satisfied even after every
            pending eviction completes.
        RuntimeExecutionError
            On inconsistent programs (use of non-resident tensors,
            double allocation, ...).
        """
        run = _Run(self.gpu, self.pcie, program, self.options, observers)
        dispatch([run])
        return run.finalize()

    def execute_iterations(
        self,
        program: Program,
        iterations: int,
        observers: tuple[EngineObserver, ...] | list[EngineObserver] = (),
        *,
        boundary_hook=None,
    ) -> tuple[list[float], ExecutionTrace]:
        """Run the same iteration program back to back.

        Streams, host copies and sharded-parameter state carry across
        iterations, so the result shows the warm-up effect (iteration 1
        pays cold prefetches; later iterations reach steady state). The
        returned trace aggregates all iterations; the list holds each
        iteration's duration, read off the event clock (latest completion
        event dispatched so far), so the durations sum exactly to the
        aggregate makespan.

        After every iteration each observer's ``on_iteration_end`` fires;
        between iterations (never after the last) an optional
        ``boundary_hook(index, run)`` may return a replacement
        :class:`~repro.runtime.instructions.Program` to hot-swap via
        :meth:`_Run.swap_program` — the dynamic-replanning entry point.
        Returning ``None`` (or the current program) keeps execution
        untouched, and with no hook the loop is byte-identical to the
        pre-hook engine.

        Raises the same errors as :meth:`execute`.
        """
        run = _Run(self.gpu, self.pcie, program, self.options, observers)
        hook = None if boundary_hook is None else (
            lambda index, runs: {0: boundary_hook(index, runs[0])}
        )
        durations = iterate([run], iterations, hook)
        return durations[0], run.finalize()


def dispatch(runs: list[_Run], cluster: ClusterSpec | None = None) -> None:
    """Dispatch one pass of every run's program under one event clock.

    The one dispatch loop of the simulator, for a single GPU (one run)
    and for a cluster (one run per rank). Each instruction joins the
    FIFO queue of its lane (stream); the loop repeatedly resolves every
    lane head's candidate start time and dispatches the earliest head,
    ties broken by ``(rank, issue)``. Because every state change a
    dispatch makes lands at or after its start time, dispatch order is
    chronological and each ledger sees allocation and free events in
    time order.

    A multi-member collective is held until the matching instruction
    (same ``comm_id``) is the locally-ready head on every rank of its
    group; the group then starts together at the latest member's ready
    time for the duration ``cluster``'s link model gives. Without a
    ``cluster`` such a collective is an error.

    A head blocked on a dependency that an undispatched earlier
    instruction will produce simply waits. If no head at all can
    dispatch, a run with fault recovery enabled gets one recovery
    action and the loop retries; otherwise the block at the lowest
    ``(issue, rank)`` is a genuine program error (or OOM) and raises.
    """
    remaining = sum(run._enqueue_pass() for run in runs)
    while remaining:
        best: tuple[tuple[float, int, int], _Run, _Candidate] | None = None
        stuck: tuple[tuple[int, int], _Blocked, _Run] | None = None
        pending: dict[int, list[tuple[int, _Run, _Candidate]]] = {}
        blocked: dict[int, list[_Blocked]] = {}
        for rank, run in enumerate(runs):
            for lane in run.lanes.values():
                if not lane.queue:
                    continue
                head = run._prepare_head(lane)
                if isinstance(head, _Blocked):
                    if stuck is None or (head.issue, rank) < stuck[0]:
                        stuck = ((head.issue, rank), head, run)
                    if run._recovery:
                        blocked.setdefault(rank, []).append(head)
                    continue
                instr = head.instr
                if isinstance(instr, CollectiveInstr) and len(instr.group) > 1:
                    if cluster is None:
                        raise RuntimeExecutionError(
                            f"{run.program.name}: collective {instr.label!r} "
                            f"spans ranks {instr.group}; multi-rank programs "
                            f"must run on a ClusterEngine"
                        )
                    pending.setdefault(instr.comm_id, []).append(
                        (rank, run, head),
                    )
                    continue
                order = (head.start, rank, head.issue)
                if best is None or order < best[0]:
                    best = (order, run, head)
        ready = _ready_collective(pending) if pending else None
        if best is not None and (ready is None or best[0] <= ready[0]):
            _, run, cand = best
            cand.lane.queue.popleft()
            run._dispatch(cand)
            run._commit_dispatch(cand)
            remaining -= 1
            continue
        if ready is not None:
            (start, _, _), members = ready
            instr = members[0][2].instr
            # A point-to-point recv advertises zero payload; the
            # transfer is priced by the largest member share.
            nbytes = max(cand.instr.nbytes for _, _, cand in members)
            duration = cluster.collective_time(instr.kind, instr.group, nbytes)
            for _, run, cand in members:
                cand.lane.queue.popleft()
                run._dispatch_collective(cand, start, duration)
                run._commit_dispatch(cand)
            remaining -= len(members)
            continue
        # Graceful degradation: with recovery enabled, a wedged machine
        # gets one recovery action (re-fetch an emergency-evicted
        # dependency, or evict cold residents to satisfy a terminal
        # allocation failure) and the dispatch loop retries.
        if any(runs[rank]._recover(heads) for rank, heads in blocked.items()):
            continue
        if stuck is not None:
            _, head, run = stuck
            error = head.error
            if isinstance(error, OutOfMemoryError):
                for observer in run.observers:
                    observer.on_oom(
                        run.ledger.time, head.label,
                        error.requested, error.available,
                    )
            raise error
        waiting = {
            comm_id: sorted(rank for rank, _, _ in members)
            for comm_id, members in sorted(pending.items())
        }
        raise RuntimeExecutionError(
            f"cluster dispatcher wedged with {remaining} instructions "
            f"left: collectives {waiting} never complete their groups "
            f"(mismatched send/recv ordering between ranks?)"
        )


def _kinds_match(a: str, b: str) -> bool:
    """Whether two members can be shares of one collective.

    Symmetric collectives require identical kinds; a point-to-point
    transfer pairs a ``send`` with a ``recv``.
    """
    return a == b or {a, b} == {"send", "recv"}


def _ready_collective(
    pending: dict[int, list[tuple[int, _Run, _Candidate]]],
) -> tuple[tuple[float, int, int], list[tuple[int, _Run, _Candidate]]] | None:
    """The pending collective whose group is complete and starts first."""
    chosen = None
    for comm_id, members in pending.items():
        instr = members[0][2].instr
        assert isinstance(instr, CollectiveInstr)
        for _, _, cand in members[1:]:
            peer = cand.instr
            if (
                not isinstance(peer, CollectiveInstr)
                or peer.group != instr.group
                or not _kinds_match(peer.kind, instr.kind)
            ):
                raise RuntimeExecutionError(
                    f"collective comm {comm_id} is wired inconsistently: "
                    f"{instr.label!r} vs {peer.label!r}"
                )
        if len(members) != len(instr.group):
            continue
        ranks = sorted(rank for rank, _, _ in members)
        if ranks != sorted(instr.group):
            raise RuntimeExecutionError(
                f"collective comm {comm_id} ({instr.label!r}) expects "
                f"ranks {sorted(instr.group)} but matched {ranks}"
            )
        order = (
            max(cand.start for _, _, cand in members),
            min(rank for rank, _, _ in members),
            min(cand.issue for _, _, cand in members),
        )
        if chosen is None or order < chosen[0]:
            chosen = (order, members)
    return chosen


def iterate(
    runs: list[_Run],
    iterations: int,
    boundary_hook=None,
    cluster: ClusterSpec | None = None,
) -> list[list[float]]:
    """Dispatch every run's program back to back ``iterations`` times.

    One event clock spans all passes and each run's state (streams,
    host copies, residency) carries across them. After every pass each
    run's observers get ``on_iteration_end`` with that run's own window;
    between passes (never after the last) an optional
    ``boundary_hook(index, runs)`` may return a ``{rank: Program}``
    mapping of replacement programs to hot-swap via
    :meth:`_Run.swap_program`. Returns per-run duration lists:
    ``durations[rank][i]`` is how far pass ``i`` advanced that run's
    event clock, so each list sums to its run's makespan.
    """
    if iterations < 1:
        raise RuntimeExecutionError(
            f"iterations must be >= 1, got {iterations}"
        )
    durations: list[list[float]] = [[] for _ in runs]
    previous = [0.0] * len(runs)
    for index in range(iterations):
        dispatch(runs, cluster)
        for rank, run in enumerate(runs):
            start, previous[rank] = previous[rank], run.clock
            durations[rank].append(run.clock - start)
            for observer in run.observers:
                observer.on_iteration_end(index, start, run.clock)
        if boundary_hook is not None and index + 1 < iterations:
            swaps = boundary_hook(index, runs) or {}
            for rank, program in sorted(swaps.items()):
                if program is not None and program is not runs[rank].program:
                    runs[rank].swap_program(program)
    return durations


class _Lane:
    """One serial dispatch queue (a CUDA stream or the host)."""

    __slots__ = ("name", "stream", "queue")

    def __init__(self, name: str, stream: Stream) -> None:
        self.name = name
        self.stream = stream
        self.queue: deque[tuple[int, Instruction]] = deque()


class _Candidate:
    """A dispatchable lane head with its resolved start time."""

    __slots__ = ("start", "issue", "lane", "instr", "not_before", "need",
                 "skip")

    def __init__(
        self,
        start: float,
        issue: int,
        lane: _Lane,
        instr: Instruction,
        not_before: float = 0.0,
        need: int = 0,
        skip: bool = False,
    ) -> None:
        self.start = start
        self.issue = issue
        self.lane = lane
        self.instr = instr
        self.not_before = not_before
        self.need = need
        #: Recovery no-op: the instruction's effect already happened out
        #: of band (emergency eviction / re-fetch), so dispatch only
        #: updates bookkeeping without touching streams or the ledger.
        self.skip = skip


class _Blocked:
    """A lane head that cannot dispatch yet.

    Carries the error to raise if the whole machine turns out to be
    stuck on it; transient blocks (a dependency produced by a not yet
    dispatched earlier instruction) clear on their own as other lanes
    advance, so the error only surfaces when no lane can move. With the
    recovery layer enabled it additionally carries what a recovery
    could do about the block: refs to re-fetch from host, or the
    allocation shape (need/credit/protected keys) an emergency eviction
    would have to satisfy.
    """

    __slots__ = ("issue", "error", "label", "refetch", "need", "credit",
                 "protect")

    def __init__(
        self,
        issue: int,
        error: Exception,
        label: str = "",
        refetch: tuple[TensorRef, ...] = (),
        need: int = 0,
        credit: int = 0,
        protect: tuple[tuple[int, int], ...] = (),
    ) -> None:
        self.issue = issue
        self.error = error
        self.label = label
        self.refetch = refetch
        self.need = need
        self.credit = credit
        self.protect = protect


class _Run:
    """Mutable state of one engine execution."""

    def __init__(
        self,
        gpu: GPUSpec,
        pcie: PCIeModel,
        program: Program,
        options: EngineOptions,
        extra_observers: tuple[EngineObserver, ...] | list[EngineObserver] = (),
    ) -> None:
        self.gpu = gpu
        self.pcie = pcie
        self.program = program
        self.options = options
        self.streams = StreamSet()
        self.cpu = Stream("cpu")
        self.capacity = gpu.memory_bytes
        self.ledger = DeviceMemoryLedger(self.capacity)
        if program.persistent_bytes > self.capacity:
            raise OutOfMemoryError(
                requested=program.persistent_bytes,
                available=self.capacity,
                capacity=self.capacity,
                message=(
                    f"{program.name}: persistent tensors "
                    f"({program.persistent_bytes} B) exceed device memory "
                    f"({self.capacity} B)"
                ),
            )
        self.ledger.charge(program.persistent_bytes)
        self.resident: dict[tuple[int, int], int] = {}
        self.ready: dict[tuple[int, int], float] = {}
        self.host_copy: dict[tuple[int, int], float] = {
            ref.key: 0.0 for ref in program.initial_host
        }
        self.host_used = sum(ref.nbytes for ref in program.initial_host)
        self.host_peak = self.host_used
        self.memory_stall = 0.0
        self.swapped_out = 0
        self.swapped_in = 0
        self.recompute_time = 0.0
        self.recompute_ops = 0
        self.split_kernels = 0
        #: Latest completion event dispatched so far (the event clock).
        self.clock = 0.0
        #: Per-run fault sampler; ``None`` keeps every fault path inert.
        self.faults: FaultModel | None = (
            FaultModel(options.faults) if options.faults is not None else None
        )
        self._recovery = (
            options.faults is not None and options.faults.emergency_eviction
        )
        #: Keys whose current *non*-residency is an emergency eviction
        #: the plan doesn't know about (skip planned swap-out/free,
        #: re-fetch on demand).
        self._emergency: set[tuple[int, int]] = set()
        #: Keys currently resident because of an emergency re-fetch the
        #: plan doesn't know about (skip the planned swap-in).
        self._refetched: set[tuple[int, int]] = set()
        #: Fault/recovery statistics (all stay zero with faults=None).
        self.transfer_retries = 0
        self.retry_backoff_time = 0.0
        self.emergency_evictions = 0
        self.emergency_evicted_bytes = 0
        self.emergency_refetches = 0
        self.emergency_refetched_bytes = 0
        self.recovered_skips = 0
        #: Mid-run plan hot-swaps applied via :meth:`swap_program`.
        self.plan_swaps = 0
        #: Consecutive recovery actions with no dispatch in between
        #: (defensive thrash guard).
        self._recovery_streak = 0
        self._key_labels: dict[tuple[int, int], str] = {}
        self.lanes = {
            "compute": _Lane("compute", self.streams.compute),
            "d2h": _Lane("d2h", self.streams.d2h),
            "h2d": _Lane("h2d", self.streams.h2d),
            "cpu": _Lane("cpu", self.cpu),
        }
        #: Latest finish time of any dispatched reader, per key; an
        #: eviction reclaims memory no earlier than this (CUDA-event
        #: ordering with the buffer's consumers).
        self._read_end: dict[tuple[int, int], float] = {}
        #: Reads dispatched so far, per key (guard progress).
        self._reads_done: dict[tuple[int, int], int] = {}
        self._dispatched: list[bool] = []
        self._read_guard: dict[int, int] = {}
        self._coll_read_guard: dict[int, tuple[tuple[tuple[int, int], int], ...]] = {}
        self._dep_guard: dict[int, tuple[int, ...]] = {}
        #: Payload bytes moved by collectives dispatched on this rank.
        self.collective_bytes = 0
        self._precompute_guards()
        observers: list[EngineObserver] = [
            *options.observers, *extra_observers,
        ]
        self._tracer: TraceObserver | None = None
        if options.record_trace:
            self._tracer = TraceObserver()
            observers.append(self._tracer)
        self.observers: tuple[EngineObserver, ...] = tuple(observers)
        self._free_hook = self._on_ledger_free if self.observers else None
        for observer in self.observers:
            observer.on_run_begin(program, gpu)

    @staticmethod
    def _guard_keys(instr: Instruction) -> tuple[tuple[int, int], ...]:
        """Keys whose issue-order state an instruction depends on."""
        if isinstance(instr, ComputeInstr):
            refs = (*instr.inputs, *instr.outputs, *instr.alloc_only,
                    *instr.finishes)
        elif isinstance(instr, XferInstr):
            refs = instr.after
        elif isinstance(instr, CollectiveInstr):
            refs = (*instr.inputs, *instr.outputs, *instr.frees)
        else:
            refs = (instr.ref,)
        return tuple(ref.key for ref in refs)

    def _precompute_guards(self) -> None:
        """Issue-order guards that keep per-key state transitions sane.

        Dispatch is chronological, but the *state machine* of each key
        (produced, evicted, re-materialised, ...) must follow issue
        order, or a backward-pass swap-in could run before the forward
        pass re-produces and re-evicts the tensor in iteration two. Two
        guards enforce this without constraining timing:

        * every instruction waits until the **latest earlier-issued
          writer** of each key it touches (producer or eviction — the
          key's "changer") has dispatched, so it observes the state its
          issue position implies;
        * an eviction additionally waits until every earlier-issued
          **reader** of its key has dispatched, so the finish times of
          the buffer's consumers are known when the release instant
          ``max(transfer end, last read end)`` is computed.
        """
        counts: dict[tuple[int, int], int] = {}
        changer: dict[tuple[int, int], int] = {}
        for issue, instr in enumerate(self.program.instructions):
            if isinstance(instr, (SwapOutInstr, FreeInstr)):
                self._read_guard[issue] = counts.get(instr.ref.key, 0)
            elif isinstance(instr, CollectiveInstr) and instr.frees:
                # A collective that retires buffers is an eviction of
                # each of them: hold it until their earlier readers ran.
                self._coll_read_guard[issue] = tuple(
                    (ref.key, counts.get(ref.key, 0)) for ref in instr.frees
                )
            guards = {
                changer[key] for key in self._guard_keys(instr)
                if key in changer
            }
            if guards:
                self._dep_guard[issue] = tuple(guards)
            for ref in instr_reads(instr):
                counts[ref.key] = counts.get(ref.key, 0) + 1
            if isinstance(instr, ComputeInstr):
                for ref in (*instr.outputs, *instr.alloc_only,
                            *instr.finishes):
                    changer[ref.key] = issue
            elif isinstance(instr, (SwapInInstr, SwapOutInstr, FreeInstr)):
                changer[instr.ref.key] = issue
            elif isinstance(instr, CollectiveInstr):
                # Inputs count too: an in-place collective pushes its
                # operands' ready times, so later consumers must observe
                # it dispatched before they resolve their start.
                for ref in (*instr.inputs, *instr.outputs, *instr.frees):
                    changer[ref.key] = issue

    # -- mid-run plan swap -------------------------------------------------------

    def swap_program(self, program: Program) -> None:
        """Hot-swap the iteration program at an iteration boundary.

        The replacement must be a lowering of the *same* training step
        (same batch, same persistent region, graph-stable tensor keys),
        so residency, host copies and the recovery markers carry across
        untouched — the ledger keeps its chronological history and no
        buffer is double-freed or leaked; any genuine inconsistency the
        new instruction stream introduces surfaces as the usual engine
        state-machine error on dispatch. Only the issue-order guards are
        program-shaped, so they are recomputed from scratch; host copies
        the new lowering expects pinned from the start (its
        ``initial_host``) are materialised at the swap instant.
        """
        for lane in self.lanes.values():
            if lane.queue:
                raise RuntimeExecutionError(
                    f"{self.program.name}: cannot swap programs "
                    f"mid-iteration ({sum(len(l.queue) for l in self.lanes.values())} "
                    f"instructions still queued)"
                )
        if program.persistent_bytes != self.program.persistent_bytes:
            raise RuntimeExecutionError(
                f"{program.name}: plan swap changes the persistent region "
                f"({self.program.persistent_bytes} B -> "
                f"{program.persistent_bytes} B); replans must keep "
                f"weights/optimizer placement fixed"
            )
        if program.batch != self.program.batch:
            raise RuntimeExecutionError(
                f"{program.name}: plan swap changes the batch size "
                f"({self.program.batch} -> {program.batch})"
            )
        for ref in program.initial_host:
            if ref.key not in self.host_copy:
                self.host_copy[ref.key] = self.clock
                self.host_used += ref.nbytes
                self.host_peak = max(self.host_peak, self.host_used)
        self.program = program
        self._read_guard = {}
        self._coll_read_guard = {}
        self._dep_guard = {}
        self._precompute_guards()
        self.plan_swaps += 1

    def attach_observer(self, observer: EngineObserver) -> None:
        """Attach an observer mid-run.

        Takes effect at the next dispatch; ``on_run_begin`` does not
        fire retroactively (the observer sees events from now on).
        """
        self.observers = (*self.observers, observer)
        self._free_hook = self._on_ledger_free

    def detach_observer(self, observer: EngineObserver) -> None:
        """Detach a previously-attached observer mid-run.

        Detaching an observer that is not attached is a no-op; with no
        observers left the ledger free hook is dropped so the clean-run
        fast path is restored.
        """
        self.observers = tuple(
            existing for existing in self.observers
            if existing is not observer
        )
        if not self.observers:
            self._free_hook = None

    # -- observer notification ---------------------------------------------------

    def _on_ledger_free(self, at: float, label: str, nbytes: int,
                        used: int) -> None:
        """Ledger commit hook: fan a free event out to the observers."""
        for observer in self.observers:
            observer.on_free(at, label, nbytes, used)

    def _notify_alloc(self, at: float, label: str, nbytes: int) -> None:
        if not self.observers:
            return
        used = self.ledger.used
        for observer in self.observers:
            observer.on_alloc(at, label, nbytes, used)

    def _notify_instr(
        self,
        label: str,
        kind: str,
        stream: str,
        start: float,
        end: float,
        *,
        nbytes: int = 0,
        tag: str = "",
    ) -> None:
        for observer in self.observers:
            observer.on_instr_start(label, kind, stream, start, nbytes, tag)
            observer.on_instr_end(label, kind, stream, start, end, nbytes, tag)

    def _notify_fault(
        self, time: float, kind: str, label: str, nbytes: int = 0,
    ) -> None:
        """Record one fault/recovery action in observers and telemetry.

        Only reachable from fault paths, so the clean-run hot path never
        pays for the telemetry lookup.
        """
        for observer in self.observers:
            observer.on_fault(time, kind, label, nbytes)
        from repro.telemetry import get_telemetry

        metrics = get_telemetry().metrics
        if metrics.enabled:
            metrics.counter(f"engine.faults.{kind}").inc()

    # -- execution ---------------------------------------------------------------

    def _enqueue_pass(self) -> int:
        """Reset per-pass state and queue every instruction on its lane.

        Lanes beyond the four fixed streams (collective ``comm`` lanes,
        pipeline point-to-point lanes) are created on first use, so
        programs without collectives see exactly the classic stream set.
        """
        self._reads_done = {}
        self._dispatched = [False] * len(self.program.instructions)
        for issue, instr in enumerate(self.program.instructions):
            name = instr_stream(instr)
            lane = self.lanes.get(name)
            if lane is None:
                lane = self.lanes[name] = _Lane(name, Stream(name))
            lane.queue.append((issue, instr))
        return len(self.program.instructions)

    def _commit_dispatch(self, cand: _Candidate) -> None:
        """Bookkeeping after one dispatched candidate (guard progress)."""
        self._dispatched[cand.issue] = True
        self._recovery_streak = 0
        for ref in instr_reads(cand.instr):
            key = ref.key
            self._reads_done[key] = self._reads_done.get(key, 0) + 1

    def comm_busy(self) -> float:
        """Busy time summed over the on-demand communication lanes."""
        return sum(
            lane.stream.busy_time()
            for name, lane in self.lanes.items()
            if name not in FIXED_LANES
        )

    def finalize(self) -> ExecutionTrace:
        """Aggregate stream/memory statistics into a trace."""
        self.ledger.drain(self._free_hook)
        tracer = self._tracer
        trace = ExecutionTrace(
            name=self.program.name,
            batch=self.program.batch,
            iteration_time=self.clock,
            compute_busy=self.streams.compute.busy_time(),
            cpu_busy=self.cpu.busy_time(),
            d2h_busy=self.streams.d2h.busy_time(),
            h2d_busy=self.streams.h2d.busy_time(),
            memory_stall=self.memory_stall,
            peak_memory=self.ledger.peak,
            persistent_bytes=self.program.persistent_bytes,
            swapped_out_bytes=self.swapped_out,
            swapped_in_bytes=self.swapped_in,
            recompute_time=self.recompute_time,
            recompute_ops=self.recompute_ops,
            split_kernels=self.split_kernels,
            host_peak_bytes=self.host_peak,
            records=tracer.records if tracer else [],
            memory_samples=tracer.samples if tracer else [],
            alloc_events=tracer.alloc_events if tracer else [],
            transfer_retries=self.transfer_retries,
            retry_backoff_time=self.retry_backoff_time,
            emergency_evictions=self.emergency_evictions,
            emergency_evicted_bytes=self.emergency_evicted_bytes,
            emergency_refetches=self.emergency_refetches,
            emergency_refetched_bytes=self.emergency_refetched_bytes,
            recovered_skips=self.recovered_skips,
            plan_swaps=self.plan_swaps,
            fault_events=tracer.fault_events if tracer else [],
            stall_events=tracer.stall_events if tracer else [],
        )
        for observer in self.observers:
            observer.on_run_end(trace)
        return trace

    # -- head preparation --------------------------------------------------------

    def _prepare_head(self, lane: _Lane) -> _Candidate | _Blocked:
        """Resolve a lane head into a candidate start time, or a block."""
        issue, instr = lane.queue[0]
        for guard in self._dep_guard.get(issue, ()):
            if not self._dispatched[guard]:
                return _Blocked(issue, RuntimeExecutionError(
                    f"{self.program.name}: instruction {issue} deadlocked "
                    f"waiting for instruction {guard}"
                ))
        if isinstance(instr, ComputeInstr):
            if instr.device is Device.CPU:
                return self._prepare_cpu(issue, instr, lane)
            return self._prepare_compute(issue, instr, lane)
        if isinstance(instr, SwapOutInstr):
            return self._prepare_swap_out(issue, instr, lane)
        if isinstance(instr, SwapInInstr):
            return self._prepare_swap_in(issue, instr, lane)
        if isinstance(instr, FreeInstr):
            return self._prepare_free(issue, instr, lane)
        if isinstance(instr, XferInstr):
            return self._prepare_xfer(issue, instr, lane)
        if isinstance(instr, CollectiveInstr):
            return self._prepare_collective(issue, instr, lane)
        raise RuntimeExecutionError(  # pragma: no cover - defensive
            f"unknown instruction {instr!r}"
        )

    def _prepare_collective(
        self, issue: int, instr: CollectiveInstr, lane: _Lane,
    ) -> _Candidate | _Blocked:
        """Local readiness of one rank's share of a collective.

        The returned candidate's ``start`` is when *this rank* could
        join; the actual start is the maximum over the group, resolved
        by :func:`dispatch`'s rendezvous (trivially this run for
        single-member groups).
        """
        for key, guard in self._coll_read_guard.get(issue, ()):
            if self._reads_done.get(key, 0) < guard:
                return _Blocked(issue, RuntimeExecutionError(
                    f"{self.program.name}: collective {instr.label!r} "
                    f"deadlocked waiting for earlier consumers of {key}"
                ), instr.label)
        deps = 0.0
        for ref in (*instr.inputs, *instr.frees):
            time = self.ready.get(ref.key)
            if time is None:
                return _Blocked(issue, RuntimeExecutionError(
                    f"{self.program.name}: collective {instr.label!r} uses "
                    f"tensor {ref.key} which is not resident"
                ), instr.label)
            deps = max(deps, time)
        need = 0
        for ref in instr.outputs:
            if ref.key in self.resident:
                return _Blocked(issue, RuntimeExecutionError(
                    f"{self.program.name}: collective {instr.label!r} "
                    f"re-allocates resident tensor {ref.label!r}"
                ), instr.label)
            need += ref.nbytes
        not_before = max(lane.stream.earliest_start(deps), self.ledger.time)
        start = self.ledger.earliest_fit(need, not_before)
        if start is None:
            return _Blocked(
                issue, self._device_oom(instr.label, need, 0), instr.label,
                need=need,
            )
        return _Candidate(start, issue, lane, instr, not_before, need)

    def _eviction_guard(
        self, issue: int, instr: SwapOutInstr | FreeInstr,
    ) -> _Blocked | None:
        """Hold an eviction until its earlier consumers have dispatched."""
        key = instr.ref.key
        if self._reads_done.get(key, 0) < self._read_guard[issue]:
            return _Blocked(issue, RuntimeExecutionError(
                f"{self.program.name}: eviction of {instr.ref.label!r} "
                f"deadlocked waiting for earlier consumers"
            ), instr.ref.label)
        return None

    def _prepare_compute(
        self, issue: int, instr: ComputeInstr, lane: _Lane,
    ) -> _Candidate | _Blocked:
        deps = 0.0
        for ref in instr.inputs:
            time = self.ready.get(ref.key)
            if time is None:
                refetch: tuple[TensorRef, ...] = ()
                if self._recovery:
                    # Inputs whose absence is an emergency eviction can
                    # be re-materialised from their host copy if the
                    # machine wedges on this block.
                    refetch = tuple(
                        r for r in instr.inputs
                        if r.key not in self.ready
                        and r.key in self._emergency
                        and r.key in self.host_copy
                    )
                return _Blocked(issue, RuntimeExecutionError(
                    f"{self.program.name}: {instr.label!r} uses tensor "
                    f"{ref.key} which is not resident"
                ), instr.label, refetch=refetch)
            deps = max(deps, time)
        need = instr.transient_bytes
        for ref in (*instr.outputs, *instr.alloc_only):
            if ref.key in self.resident:
                return _Blocked(issue, RuntimeExecutionError(
                    f"{self.program.name}: {instr.label!r} re-allocates "
                    f"resident tensor {ref.label!r}"
                ), instr.label)
            need += ref.nbytes
        for ref in instr.finishes:
            if ref.key not in self.resident:
                return _Blocked(issue, RuntimeExecutionError(
                    f"{self.program.name}: {instr.label!r} finishes "
                    f"unallocated tensor {ref.label!r}"
                ), instr.label)
        # A merge aliases its micro pieces: the whole buffer replaces
        # them at its start instant, so only the size delta is new.
        credit = (
            sum(ref.nbytes for ref in instr.inputs)
            if instr.tag == "merge" else 0
        )
        # Ledger floor: an instruction issued after already-applied
        # events cannot allocate in their past (keeps accounting exact).
        not_before = max(lane.stream.earliest_start(deps), self.ledger.time)
        start = self.ledger.earliest_fit(need, not_before, credit=credit)
        if start is None:
            protect = (
                tuple(ref.key for ref in (*instr.inputs, *instr.finishes))
                if self._recovery else ()
            )
            return _Blocked(issue, self._device_oom(instr.label, need, credit),
                            instr.label, need=need, credit=credit,
                            protect=protect)
        return _Candidate(start, issue, lane, instr, not_before, need)

    def _prepare_cpu(
        self, issue: int, instr: ComputeInstr, lane: _Lane,
    ) -> _Candidate | _Blocked:
        deps = 0.0
        for ref in instr.inputs:
            time = self._any_time(ref.key)
            if time is None:
                return _Blocked(issue, RuntimeExecutionError(
                    f"{self.program.name}: dependency {ref.key} exists nowhere"
                ), instr.label)
            deps = max(deps, time)
        return _Candidate(
            lane.stream.earliest_start(deps), issue, lane, instr,
        )

    def _prepare_swap_out(
        self, issue: int, instr: SwapOutInstr, lane: _Lane,
    ) -> _Candidate | _Blocked:
        held = self._eviction_guard(issue, instr)
        if held is not None:
            return held
        time = self.ready.get(instr.ref.key)
        if time is None:
            if self._recovery and instr.ref.key in self._emergency:
                # Already on host via an emergency eviction: the planned
                # swap-out is satisfied; dispatch as a bookkeeping no-op.
                return _Candidate(
                    lane.stream.clock, issue, lane, instr, skip=True,
                )
            return _Blocked(issue, RuntimeExecutionError(
                f"{self.program.name}: 'swap_out({instr.ref.label})' uses "
                f"tensor {instr.ref.key} which is not resident"
            ), instr.ref.label)
        return _Candidate(
            lane.stream.earliest_start(time), issue, lane, instr,
        )

    def _prepare_swap_in(
        self, issue: int, instr: SwapInInstr, lane: _Lane,
    ) -> _Candidate | _Blocked:
        key = instr.ref.key
        host_ready = self.host_copy.get(key)
        if host_ready is None:
            return _Blocked(issue, RuntimeExecutionError(
                f"{self.program.name}: swap-in of {instr.ref.label!r} "
                f"without a host copy"
            ), instr.ref.label)
        if key in self.resident:
            if self._recovery and key in self._refetched:
                # Already brought back by an emergency re-fetch: the
                # planned swap-in is satisfied; dispatch as a no-op.
                return _Candidate(
                    lane.stream.clock, issue, lane, instr, skip=True,
                )
            return _Blocked(issue, RuntimeExecutionError(
                f"{self.program.name}: swap-in of already-resident "
                f"{instr.ref.label!r}"
            ), instr.ref.label)
        # Ledger floor: a re-fetch issued after its predecessor's free
        # cannot start the transfer in the ledger's past.
        not_before = max(
            lane.stream.earliest_start(host_ready), self.ledger.time,
        )
        start = self.ledger.earliest_fit(instr.ref.nbytes, not_before)
        if start is None:
            label = f"swap_in({instr.ref.label})"
            return _Blocked(
                issue, self._device_oom(label, instr.ref.nbytes, 0), label,
                need=instr.ref.nbytes,
            )
        return _Candidate(
            start, issue, lane, instr, not_before, instr.ref.nbytes,
        )

    def _prepare_free(
        self, issue: int, instr: FreeInstr, lane: _Lane,
    ) -> _Candidate | _Blocked:
        held = self._eviction_guard(issue, instr)
        if held is not None:
            return held
        if instr.ref.key not in self.resident and not instr.missing_ok:
            if self._recovery and instr.ref.key in self._emergency:
                # The bytes were already reclaimed by an emergency
                # eviction; the planned free is satisfied.
                return _Candidate(
                    lane.stream.clock, issue, lane, instr, skip=True,
                )
            return _Blocked(issue, RuntimeExecutionError(
                f"{self.program.name}: free of non-resident "
                f"{instr.ref.label!r}"
            ), instr.ref.label)
        return _Candidate(lane.stream.clock, issue, lane, instr)

    def _prepare_xfer(
        self, issue: int, instr: XferInstr, lane: _Lane,
    ) -> _Candidate | _Blocked:
        deps = 0.0
        for ref in instr.after:
            time = self._any_time(ref.key)
            if time is None:
                return _Blocked(issue, RuntimeExecutionError(
                    f"{self.program.name}: dependency {ref.key} exists nowhere"
                ), instr.label)
            deps = max(deps, time)
        return _Candidate(
            lane.stream.earliest_start(deps), issue, lane, instr,
        )

    def _any_time(self, key: tuple[int, int]) -> float | None:
        """Ready time on device or host (for CPU consumers / xfer deps)."""
        device = self.ready.get(key)
        host = self.host_copy.get(key)
        times = [t for t in (device, host) if t is not None]
        return min(times) if times else None

    def _device_oom(self, label: str, need: int, credit: int) -> OutOfMemoryError:
        """The terminal allocation failure: waiting can never help."""
        available = self.ledger.best_case_free(credit=credit)
        return OutOfMemoryError(
            requested=need,
            available=available,
            capacity=self.capacity,
            message=(
                f"{self.program.name}: {label!r} needs {need} B; only "
                f"{available} B can ever free up "
                f"(capacity {self.capacity} B)"
            ),
        )

    # -- dispatch ----------------------------------------------------------------

    def _dispatch(self, cand: _Candidate) -> None:
        """Apply one instruction's effects at its resolved start time."""
        instr = cand.instr
        if cand.skip:
            self._dispatch_skip(cand)
            return
        if isinstance(instr, ComputeInstr):
            if instr.device is Device.CPU:
                self._dispatch_cpu(cand, instr)
            else:
                self._dispatch_compute(cand, instr)
        elif isinstance(instr, SwapOutInstr):
            self._dispatch_swap_out(cand, instr)
        elif isinstance(instr, SwapInInstr):
            self._dispatch_swap_in(cand, instr)
        elif isinstance(instr, FreeInstr):
            self._dispatch_free(cand, instr)
        elif isinstance(instr, CollectiveInstr):
            # Only single-member groups reach here: :func:`dispatch`
            # holds multi-rank collectives for the rendezvous.
            self._dispatch_collective(cand, cand.start, 0.0)
        else:
            self._dispatch_xfer(cand, instr)

    def _dispatch_collective(
        self, cand: _Candidate, start: float, duration: float,
    ) -> None:
        """Apply one rank's share of a collective at the group's start."""
        instr = cand.instr
        assert isinstance(instr, CollectiveInstr)
        need = cand.need
        stall = start - cand.not_before
        if stall > 0 and need:
            self.memory_stall += stall
            for observer in self.observers:
                observer.on_stall_begin(cand.not_before, instr.label, need)
                observer.on_stall_end(start, instr.label, stall)
        if need:
            self.ledger.allocate(need, start, self._free_hook)
        event = cand.lane.stream.schedule(
            duration, after=start, label=instr.label,
        )
        self.clock = max(self.clock, event.time)
        for ref in instr.outputs:
            self.resident[ref.key] = ref.nbytes
            self.ready[ref.key] = event.time
            self._key_labels[ref.key] = ref.label
            self._notify_alloc(start, ref.label, ref.nbytes)
        for ref in instr.inputs:
            # In-place operand: rewritten by the collective, so its
            # ready time moves to the collective's completion.
            key = ref.key
            self.ready[key] = event.time
            if event.time > self._read_end.get(key, 0.0):
                self._read_end[key] = event.time
        for ref in instr.frees:
            release_at = max(
                event.time, self._read_end.get(ref.key, 0.0),
                self.ledger.time,
            )
            self._release(ref.key, release_at, f"{instr.kind}({ref.label})")
        self.collective_bytes += instr.nbytes
        self._notify_instr(
            instr.label, instr.kind, cand.lane.name, start, event.time,
            nbytes=instr.nbytes, tag="collective",
        )

    def _dispatch_compute(self, cand: _Candidate, instr: ComputeInstr) -> None:
        start, not_before, need = cand.start, cand.not_before, cand.need
        stall = start - not_before
        if stall > 0:
            self.memory_stall += stall
            for observer in self.observers:
                observer.on_stall_begin(not_before, instr.label, need)
                observer.on_stall_end(start, instr.label, stall)
        if instr.tag == "merge":
            for ref in instr.inputs:
                self._release(ref.key, start, instr.label)
        self.ledger.allocate(need, start, self._free_hook)
        duration = instr.duration
        if self.faults is not None:
            duration = duration * self.faults.kernel_scale()
        event = cand.lane.stream.schedule(
            duration, after=start, label=instr.label,
        )
        self.clock = max(self.clock, event.time)
        if instr.transient_bytes:
            self.ledger.schedule_free(
                instr.transient_bytes, event.time, f"{instr.label}/workspace",
            )
            self._notify_alloc(
                start, f"{instr.label}/workspace", instr.transient_bytes,
            )
        for ref in instr.outputs:
            self.resident[ref.key] = ref.nbytes
            self.ready[ref.key] = event.time
            self._key_labels[ref.key] = ref.label
            self._notify_alloc(start, ref.label, ref.nbytes)
        for ref in instr.alloc_only:
            self.resident[ref.key] = ref.nbytes
            self._key_labels[ref.key] = ref.label
            self._notify_alloc(start, ref.label, ref.nbytes)
            # Not ready yet: a later instruction `finishes` it.
        for ref in instr.finishes:
            self.ready[ref.key] = event.time
        for ref in instr.inputs:
            key = ref.key
            if event.time > self._read_end.get(key, 0.0):
                self._read_end[key] = event.time
        if instr.tag == "recompute":
            self.recompute_time += duration
            self.recompute_ops += 1
        if "[" in instr.label:
            self.split_kernels += 1
        self._notify_instr(instr.label, "compute", "compute", start,
                           event.time, tag=instr.tag)

    def _dispatch_cpu(self, cand: _Candidate, instr: ComputeInstr) -> None:
        event = cand.lane.stream.schedule(
            instr.duration, after=cand.start, label=instr.label,
        )
        self.clock = max(self.clock, event.time)
        for ref in instr.outputs:
            if ref.nbytes == 0:
                self.ready[ref.key] = event.time  # zero-byte marker
            else:
                raise RuntimeExecutionError(
                    f"CPU op {instr.label!r} cannot allocate GPU tensor "
                    f"{ref.label!r}"
                )
        for ref in instr.inputs:
            key = ref.key
            if event.time > self._read_end.get(key, 0.0):
                self._read_end[key] = event.time
        self._notify_instr(instr.label, "compute", "cpu", cand.start,
                           event.time, tag=instr.tag)

    def _pcie_schedule(
        self, stream: Stream, nbytes: int, after: float, label: str,
    ) -> tuple[Event, float]:
        """Schedule one PCIe transfer, injecting faults when configured.

        Clean path (``faults=None``): exactly one schedule at nominal
        bandwidth — byte-identical to the pre-fault engine. Fault path:
        each attempt's bandwidth is jittered/degraded; a transiently
        failing attempt occupies the copy engine for ``failed_fraction``
        of its would-be duration, then the stream backs off
        exponentially before retrying. The fault model guarantees
        success within ``max_transfer_retries``, so the loop always
        terminates. Returns ``(completion event, successful-attempt
        duration)``.
        """
        faults = self.faults
        if faults is None or nbytes == 0:
            duration = self.pcie.transfer_time(nbytes)
            return stream.schedule(duration, after=after, label=label), duration
        attempt = 0
        start_after = after
        while True:
            duration = self.pcie.transfer_time(
                nbytes, rate_scale=faults.transfer_rate_scale(),
            )
            if not faults.transfer_fails(attempt):
                event = stream.schedule(
                    duration, after=start_after, label=label,
                )
                return event, duration
            wasted = duration * faults.config.failed_fraction
            fail = stream.schedule(
                wasted, after=start_after, label=f"{label}!fail",
            )
            backoff = faults.backoff(attempt)
            start_after = fail.time + backoff
            attempt += 1
            self.transfer_retries += 1
            self.retry_backoff_time += backoff
            self.clock = max(self.clock, fail.time)
            self._notify_fault(fail.time, "transfer_retry", label, nbytes)

    def _dispatch_swap_out(self, cand: _Candidate, instr: SwapOutInstr) -> None:
        key = instr.ref.key
        event, duration = self._pcie_schedule(
            cand.lane.stream, instr.ref.nbytes, cand.start,
            f"d2h({instr.ref.label})",
        )
        self.clock = max(self.clock, event.time)
        # The buffer dies when both the transfer and every earlier
        # consumer are done (its eviction guard made those ends known);
        # never in the past of already-applied ledger events.
        release_at = max(
            event.time, self._read_end.get(key, 0.0), self.ledger.time,
        )
        self._release(key, release_at, f"swap_out({instr.ref.label})")
        if key not in self.host_copy:
            self.host_used += instr.ref.nbytes
            self.host_peak = max(self.host_peak, self.host_used)
            if self.host_used > self.gpu.host_memory_bytes:
                error = OutOfMemoryError(
                    requested=instr.ref.nbytes,
                    available=self.gpu.host_memory_bytes - self.host_used
                    + instr.ref.nbytes,
                    capacity=self.gpu.host_memory_bytes,
                    message=(
                        f"{self.program.name}: host memory exhausted "
                        f"swapping out {instr.ref.label!r} "
                        f"({self.host_used} B of "
                        f"{self.gpu.host_memory_bytes} B host RAM)"
                    ),
                )
                # Host OOMs are as terminal as device OOMs; observers
                # (and memscope's postmortem) must hear about both.
                for observer in self.observers:
                    observer.on_oom(
                        event.time, f"swap_out({instr.ref.label})",
                        error.requested, error.available,
                    )
                raise error
        self.host_copy[key] = event.time
        self.swapped_out += instr.ref.nbytes
        self._notify_instr(
            instr.ref.label, "swap_out", "d2h",
            event.time - duration, event.time, nbytes=instr.ref.nbytes,
        )

    def _dispatch_swap_in(self, cand: _Candidate, instr: SwapInInstr) -> None:
        key = instr.ref.key
        start = cand.start
        self.ledger.allocate(instr.ref.nbytes, start, self._free_hook)
        event, duration = self._pcie_schedule(
            cand.lane.stream, instr.ref.nbytes, start,
            f"h2d({instr.ref.label})",
        )
        self.clock = max(self.clock, event.time)
        self.resident[key] = instr.ref.nbytes
        self.ready[key] = event.time
        self._key_labels[key] = instr.ref.label
        self._notify_alloc(start, instr.ref.label, instr.ref.nbytes)
        self.swapped_in += instr.ref.nbytes
        self._notify_instr(
            instr.ref.label, "swap_in", "h2d", start, event.time,
            nbytes=instr.ref.nbytes,
        )

    def _dispatch_free(self, cand: _Candidate, instr: FreeInstr) -> None:
        key = instr.ref.key
        if key not in self.resident:
            # missing_ok; _prepare_free rejected the other case. If the
            # absence is an emergency eviction, the planned free is the
            # key's official end of life — forget the recovery state so
            # a later reuse of the key id starts clean.
            if self._recovery:
                self._emergency.discard(key)
            return
        # The buffer dies when the compute stream has passed its last
        # consumer — no earlier than its ready time, the compute clock,
        # the finish of any dispatched reader on another lane, or the
        # ledger's already-applied past.
        at = max(
            self.ready.get(key, 0.0),
            self.streams.compute.clock,
            self._read_end.get(key, 0.0),
            self.ledger.time,
        )
        self._release(key, at, f"free({instr.ref.label})")

    def _dispatch_xfer(self, cand: _Candidate, instr: XferInstr) -> None:
        event, duration = self._pcie_schedule(
            cand.lane.stream, instr.nbytes, cand.start, instr.label,
        )
        self.clock = max(self.clock, event.time)
        if instr.direction == "h2d":
            self.swapped_in += instr.nbytes
        else:
            self.swapped_out += instr.nbytes
        for ref in instr.after:
            key = ref.key
            if event.time > self._read_end.get(key, 0.0):
                self._read_end[key] = event.time
        self._notify_instr(
            instr.label, "xfer", instr.direction,
            event.time - duration, event.time, nbytes=instr.nbytes,
        )

    def _release(self, key: tuple[int, int], at: float, label: str) -> None:
        """Schedule a resident (micro-)tensor's bytes to free at ``at``."""
        nbytes = self.resident.pop(key, None)
        if nbytes is None:
            raise RuntimeExecutionError(
                f"{self.program.name}: {label} releases non-resident {key}"
            )
        self.ready.pop(key, None)
        if self._recovery:
            # A planned eviction/free of a re-fetched tensor is its
            # normal end of life; the re-fetch marker must not outlive
            # residency.
            self._refetched.discard(key)
        self.ledger.schedule_free(
            nbytes, at, self._key_labels.pop(key, label),
        )

    # -- fault recovery (graceful degradation) -----------------------------------

    def _dispatch_skip(self, cand: _Candidate) -> None:
        """Bookkeeping no-op for a planned instruction whose effect an
        emergency action already produced out of band."""
        instr = cand.instr
        key = instr.ref.key  # type: ignore[union-attr]
        if isinstance(instr, SwapInInstr):
            self._refetched.discard(key)
            kind = "skip_swap_in"
        elif isinstance(instr, SwapOutInstr):
            self._emergency.discard(key)
            kind = "skip_swap_out"
        else:
            self._emergency.discard(key)
            kind = "skip_free"
        self.recovered_skips += 1
        self._notify_fault(cand.start, kind, instr.ref.label,
                           instr.ref.nbytes)

    def _recover(self, blocked: list[_Blocked]) -> bool:
        """One recovery action for a fully-wedged machine.

        Preference order: re-materialise an emergency-evicted dependency
        of the lowest-issue block that carries re-fetch hints, otherwise
        emergency-evict cold residents to satisfy the lowest-issue
        terminal allocation failure. Returns True when an action was
        taken (the dispatch loop then retries head preparation), False
        to let the original error surface.
        """
        self._recovery_streak += 1
        if self._recovery_streak > 4 * len(self.program.instructions) + 64:
            return False  # thrashing; surface the underlying error
        for head in sorted(blocked, key=lambda b: b.issue):
            if head.refetch and self._refetch(head.refetch):
                return True
        for head in sorted(blocked, key=lambda b: b.issue):
            if isinstance(head.error, OutOfMemoryError) and head.need > 0:
                if self._evict_until_fits(
                    head.need, head.credit, set(head.protect), head.label,
                ):
                    return True
        return False

    def _refetch(self, refs: tuple[TensorRef, ...]) -> bool:
        """Re-materialise emergency-evicted tensors from their host copies."""
        done = False
        for ref in refs:
            key = ref.key
            if key in self.resident or key not in self._emergency:
                continue
            host_ready = self.host_copy.get(key)
            if host_ready is None:  # pragma: no cover - defensive
                continue
            not_before = max(
                self.streams.h2d.earliest_start(host_ready), self.ledger.time,
            )
            start = self.ledger.earliest_fit(ref.nbytes, not_before)
            if start is None:
                if not self._evict_until_fits(
                    ref.nbytes, 0, {key}, f"refetch({ref.label})",
                ):
                    continue
                start = self.ledger.earliest_fit(ref.nbytes, not_before)
                if start is None:  # pragma: no cover - defensive
                    continue
            self.ledger.allocate(ref.nbytes, start, self._free_hook)
            event, duration = self._pcie_schedule(
                self.streams.h2d, ref.nbytes, start, f"refetch({ref.label})",
            )
            self.clock = max(self.clock, event.time)
            self.resident[key] = ref.nbytes
            self.ready[key] = event.time
            self._key_labels[key] = ref.label
            self._emergency.discard(key)
            self._refetched.add(key)
            self.swapped_in += ref.nbytes
            self.emergency_refetches += 1
            self.emergency_refetched_bytes += ref.nbytes
            self._notify_alloc(start, ref.label, ref.nbytes)
            self._notify_instr(
                ref.label, "swap_in", "h2d", event.time - duration,
                event.time, nbytes=ref.nbytes, tag="refetch",
            )
            self._notify_fault(start, "refetch", ref.label, ref.nbytes)
            done = True
        return done

    def _evict_until_fits(
        self,
        need: int,
        credit: int,
        protect: set[tuple[int, int]],
        label: str,
    ) -> bool:
        """Emergency-evict coldest residents until ``need`` can ever fit."""
        evicted = False
        while self.ledger.best_case_free(credit=credit) < need:
            victim = self._coldest_victim(protect)
            if victim is None:
                return False
            self._emergency_evict(victim)
            evicted = True
        return evicted

    def _coldest_victim(
        self, protect: set[tuple[int, int]],
    ) -> tuple[int, int] | None:
        """Coldest evictable resident tensor (SuperNeurons-style).

        Coldness is the last instant the tensor was touched —
        ``max(ready time, latest dispatched read end)`` — oldest first;
        ties prefer the largest buffer (fewest evictions), then the
        smallest key for determinism. Buffers still being written
        (alloc_only, not yet in ``ready``) and protected keys (the
        blocked instruction's own operands) are never victims.
        """
        best_key: tuple[int, int] | None = None
        best_rank: tuple[float, int, tuple[int, int]] | None = None
        for key, nbytes in self.resident.items():
            if nbytes <= 0 or key in protect:
                continue
            ready = self.ready.get(key)
            if ready is None:
                continue
            rank = (
                max(ready, self._read_end.get(key, 0.0)), -nbytes, key,
            )
            if best_rank is None or rank < best_rank:
                best_key, best_rank = key, rank
        return best_key

    def _emergency_evict(self, key: tuple[int, int]) -> None:
        """Evict one resident tensor to host, out of band of the plan."""
        nbytes = self.resident[key]
        label = self._key_labels.get(key, f"tensor{key}")
        after = max(
            self.ready.get(key, 0.0), self.streams.d2h.clock,
            self.ledger.time,
        )
        event, duration = self._pcie_schedule(
            self.streams.d2h, nbytes, after, f"evict({label})",
        )
        self.clock = max(self.clock, event.time)
        release_at = max(
            event.time, self._read_end.get(key, 0.0), self.ledger.time,
        )
        self._release(key, release_at, f"evict({label})")
        if key not in self.host_copy:
            self.host_used += nbytes
            self.host_peak = max(self.host_peak, self.host_used)
        self.host_copy[key] = event.time
        self.swapped_out += nbytes
        self.emergency_evictions += 1
        self.emergency_evicted_bytes += nbytes
        self._emergency.add(key)
        self._notify_instr(
            label, "swap_out", "d2h", event.time - duration, event.time,
            nbytes=nbytes, tag="emergency",
        )
        self._notify_fault(event.time - duration, "emergency_evict",
                           label, nbytes)
