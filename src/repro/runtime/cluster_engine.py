"""The N-rank discrete-event cluster engine.

Runs the single-GPU engine's one dispatch loop,
:func:`~repro.runtime.engine.dispatch`, over a cluster: one
:class:`~repro.runtime.engine._Run` per rank (its own stream set, lanes
and :class:`~repro.hardware.memory_pool.DeviceMemoryLedger`) under one
event clock. Non-collective instructions dispatch exactly as on the
single engine — the earliest-starting lane head across *all* ranks wins,
ties broken by (rank, issue order) — which is why a one-rank cluster
executes byte-identically to the plain engine.

The cluster supplies the collective rendezvous: a
:class:`~repro.runtime.instructions.CollectiveInstr` becomes
dispatchable only when the matching instruction (same ``comm_id``) is
the locally-ready lane head on **every** rank of its group. The group
then starts together at the latest member's local ready time and
occupies each member's lane for the duration given by the cluster's
link cost model (:mod:`repro.hardware.cluster`). A program whose
collective wiring can never rendezvous (mismatched orders, missing
peers) wedges the dispatcher and raises, exactly like a data-dependency
deadlock on the single engine. This module only builds the per-rank
runs and aggregates their traces into a :class:`ClusterTrace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import RuntimeExecutionError
from repro.hardware.cluster import ClusterSpec
from repro.hardware.pcie import PCIeModel
from repro.runtime.engine import EngineOptions, _Run, dispatch, iterate
from repro.runtime.instructions import Program
from repro.runtime.observers import EngineObserver
from repro.runtime.trace import ExecutionTrace


@dataclass
class ClusterTrace:
    """Per-rank execution traces plus cluster-level aggregates."""

    name: str
    world_size: int
    #: Global makespan: the latest completion event on any rank.
    makespan: float
    ranks: list[ExecutionTrace] = field(default_factory=list)
    #: Busy time of each rank's communication lanes.
    comm_busy: list[float] = field(default_factory=list)
    #: Logical payload bytes each rank moved through collectives.
    collective_bytes: list[int] = field(default_factory=list)

    @property
    def peak_memory(self) -> int:
        """Largest per-rank device-memory peak."""
        return max((trace.peak_memory for trace in self.ranks), default=0)

    @property
    def per_rank_peak(self) -> list[int]:
        return [trace.peak_memory for trace in self.ranks]

    @property
    def throughput(self) -> float:
        """Samples/second summed over ranks (data-parallel semantics)."""
        if self.makespan <= 0:
            return 0.0
        return sum(trace.batch for trace in self.ranks) / self.makespan

    def describe(self) -> str:
        """One-line cluster summary plus one line per rank.

        The cluster counterpart of :meth:`~repro.runtime.trace.
        ExecutionTrace.describe`: makespan, aggregate throughput, and
        each rank's peak memory / communication busy time / collective
        payload, so multi-rank reports (``repro memscope --world N``)
        don't have to re-derive the aggregates.
        """
        from repro.units import format_bytes, format_time

        lines = [
            f"{self.name}: {self.world_size} rank(s), makespan "
            f"{format_time(self.makespan)} "
            f"({self.throughput:.1f} samples/s), peak "
            f"{format_bytes(self.peak_memory)}",
        ]
        for rank, trace in enumerate(self.ranks):
            comm = self.comm_busy[rank] if rank < len(self.comm_busy) else 0.0
            nbytes = (
                self.collective_bytes[rank]
                if rank < len(self.collective_bytes) else 0
            )
            lines.append(
                f"  rank {rank}: peak "
                f"{format_bytes(trace.peak_memory):>10s}, comm "
                f"{format_time(comm)}, collective {format_bytes(nbytes)}, "
                f"stall {format_time(trace.memory_stall)}"
            )
        return "\n".join(lines)


class ClusterEngine:
    """Executes one program per rank against a simulated cluster."""

    def __init__(
        self, cluster: ClusterSpec, options: EngineOptions | None = None,
    ) -> None:
        self.cluster = cluster
        self.options = options or EngineOptions()
        if self.options.faults is not None:
            raise ValueError(
                "fault injection is not supported by the cluster engine; "
                "run per-rank programs on the single-GPU Engine instead"
            )

    def execute(
        self,
        programs: list[Program],
        observers: list[list[EngineObserver]] | None = None,
    ) -> ClusterTrace:
        """Run one program per rank to completion under one event clock.

        ``observers[rank]`` attaches extra observers to that rank's run.

        Raises
        ------
        OutOfMemoryError
            When any rank's allocation can never be satisfied.
        RuntimeExecutionError
            On inconsistent programs or unmatchable collective wiring.
        """
        runs = self._runs(programs, observers)
        dispatch(runs, self.cluster)
        return self._trace(programs, runs)

    def execute_iterations(
        self,
        programs: list[Program],
        iterations: int,
        observers: list[list[EngineObserver]] | None = None,
        *,
        boundary_hook=None,
    ) -> tuple[list[list[float]], ClusterTrace]:
        """Run every rank's program back to back ``iterations`` times.

        The cluster analogue of
        :meth:`~repro.runtime.engine.Engine.execute_iterations`: one
        global event clock across all passes, per-rank state (streams,
        host copies, residency) carried across iterations. Each rank's
        observers get ``on_iteration_end`` with that rank's own window;
        between iterations an optional ``boundary_hook(index, runs)``
        may return a ``{rank: Program}`` mapping of *rank-local*
        replacement programs to hot-swap — other ranks keep running
        their current program, so replanning decisions stay local to the
        rank whose monitor triggered.

        Returns per-rank duration lists (``durations[rank][i]`` is how
        much the global clock advanced rank ``i``'s completion front)
        plus the aggregate :class:`ClusterTrace`.
        """
        runs = self._runs(programs, observers)
        durations = iterate(runs, iterations, boundary_hook, self.cluster)
        return durations, self._trace(programs, runs)

    def _runs(
        self,
        programs: list[Program],
        observers: list[list[EngineObserver]] | None,
    ) -> list[_Run]:
        """One run per rank, after checking the per-rank argument counts."""
        world = self.cluster.world_size
        if len(programs) != world:
            raise RuntimeExecutionError(
                f"cluster of {world} ranks needs {world} programs, "
                f"got {len(programs)}"
            )
        if observers is not None and len(observers) != world:
            raise RuntimeExecutionError(
                f"cluster of {world} ranks needs {world} observer lists, "
                f"got {len(observers)}"
            )
        return [
            _Run(gpu, PCIeModel(gpu), program, self.options,
                 observers[rank] if observers else ())
            for rank, (gpu, program) in enumerate(
                zip(self.cluster.gpus, programs),
            )
        ]

    @staticmethod
    def _trace(programs: list[Program], runs: list[_Run]) -> ClusterTrace:
        """Finalize every rank's run into the aggregate trace."""
        traces = [run.finalize() for run in runs]
        return ClusterTrace(
            name=programs[0].name,
            world_size=len(runs),
            makespan=max((run.clock for run in runs), default=0.0),
            ranks=traces,
            comm_busy=[run.comm_busy() for run in runs],
            collective_bytes=[run.collective_bytes for run in runs],
        )
