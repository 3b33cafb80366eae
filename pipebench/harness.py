"""Deadline harness: ops run in a long-lived worker process.

The parent sends one op at a time over a pipe and waits for its verdict
at most ``deadline`` seconds. A worker that passes the deadline is
stopped (SIGTERM, then SIGKILL) and a fresh one is spawned, so one
runaway op costs one deadline and one respawn, not the run.

Each op is a round trip: the worker sends the outcome as soon as the
op ends (this is what the parent times), then runs the correctness
checks and sends their findings with the op's spans and its peak
memory. On SIGTERM the worker first sends the spans and peak memory it
has, so the per-layer table still sees what a runaway op was doing.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from multiprocessing import resource_tracker

from ops import Outcome, check_compiled, compile_op, maxrss_mb, warm_up
from spans import Tracer

#: How long a fresh worker may take to import and warm up, and how long
#: an op's checks may take once its outcome has arrived.
READY_TIMEOUT_S = 120.0
CHECK_TIMEOUT_S = 120.0
#: Grace period between SIGTERM and SIGKILL.
KILL_GRACE_S = 5.0


def worker_main(conn, trace: bool) -> None:
    """Worker process: warm up, then serve ops until told to stop."""
    warm_up()
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()

    def on_term(signum, frame):
        try:
            conn.send(("partial", maxrss_mb(),
                       tracer.abort() if tracer else []))
        finally:
            os._exit(0)

    signal.signal(signal.SIGTERM, on_term)
    conn.send(("ready", maxrss_mb()))
    while True:
        op = conn.recv()
        if op is None:
            return
        if tracer is None:
            outcome, graph, compiled = compile_op(op)
        else:
            with tracer.op(op.id):
                outcome, graph, compiled = compile_op(op)
        conn.send(("result", outcome))
        issues = check_compiled(outcome, graph, compiled)
        del graph, compiled
        conn.send(("checked", issues, maxrss_mb(),
                   tracer.drain() if tracer else []))


class VerdictWorker:
    """Parent-side handle of one worker process."""

    def __init__(self, trace: bool) -> None:
        context = multiprocessing.get_context("spawn")
        self.conn, child = context.Pipe()
        started = time.perf_counter()
        self.process = context.Process(
            target=worker_main, args=(child, trace), daemon=True,
        )
        self.process.start()
        child.close()
        message = self._recv(READY_TIMEOUT_S)
        if message is None or message[0] != "ready":
            self.close()
            raise RuntimeError(f"worker failed to start: {message!r}")
        #: Spawn, import and warm-up time: this worker's set-up cost.
        self.ready_s = time.perf_counter() - started
        self.rss_mb = message[1]

    def _recv(self, timeout: float):
        """The next message, or ``None`` on timeout or a dead worker."""
        try:
            if self.conn.poll(timeout):
                return self.conn.recv()
        except (EOFError, OSError):
            pass
        return None

    def run(self, op, deadline: float):
        """``(outcome, spans, alive)`` for one op under ``deadline``.

        ``alive`` is false when the worker overran or died and must be
        replaced.
        """
        started = time.perf_counter()
        try:
            self.conn.send(op)
        except OSError:  # the worker died between ops
            message = None
        else:
            message = self._recv(deadline)
        latency = time.perf_counter() - started
        if message is None:
            if latency >= deadline:
                outcome = Outcome(op.id, "timeout", latency)
            else:
                outcome = Outcome(
                    op.id, "exception", latency,
                    error="WorkerDied: exited without a verdict",
                )
            return outcome, self._stop(), False
        outcome = message[1]
        outcome.latency_s = latency
        checked = self._recv(CHECK_TIMEOUT_S)
        if checked is None:
            outcome.issues.append(f"{outcome.op}: checks did not finish")
            return outcome, self._stop(), False
        _, issues, rss_mb, spans = checked
        outcome.issues.extend(issues)
        self.rss_mb = max(self.rss_mb, rss_mb)
        return outcome, spans, True

    def _stop(self) -> list:
        """Stop a worker that overran; returns the spans it sent."""
        spans: list = []
        if self.process.is_alive():
            os.kill(self.process.pid, signal.SIGTERM)
            message = self._recv(KILL_GRACE_S)
            if message is not None and message[0] == "partial":
                self.rss_mb = max(self.rss_mb, message[1])
                spans = message[2]
        self.process.join(KILL_GRACE_S)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.conn.close()
        return spans

    def close(self) -> None:
        """Ask the worker to exit and wait for it."""
        if self.process.is_alive():
            try:
                self.conn.send(None)
            except OSError:
                pass
            self.process.join(KILL_GRACE_S)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.conn.close()


def stop_resource_tracker() -> None:
    """Stop the resource tracker that spawning a worker starts, and wait
    for it to exit; it would otherwise outlive this process. Does
    nothing if no worker was spawned."""
    resource_tracker._resource_tracker._stop()
