"""Sweep fan-out backends: serial / thread / process equivalence."""

import functools
import os
import pickle
import threading

import pytest

from repro.analysis import parallel as parallel_mod
from repro.analysis.footprint import memory_requirement_grid
from repro.analysis.oversubscription import oversubscription_sweep
from repro.analysis.parallel import (
    BACKENDS,
    MAX_WORKERS_ENV,
    _check_picklable,
    active_worker_budget,
    canonical_point_bytes,
    parallel_map,
    resolve_backend,
    resolve_workers,
    sweep,
    worker_budget,
    worker_cache,
)
from repro.analysis.scaling import scale_table
from repro.analysis.throughput import throughput_point, throughput_sweep
from repro.hardware.gpu import GPU_PRESETS
from repro.pipeline import CompileCache
from tests.conftest import BIG_GPU, build_tiny_cnn

GPU = GPU_PRESETS["gtx_1080ti"]


class TestResolveWorkers:
    def test_serial_settings(self):
        assert resolve_workers(None, 10) == 1
        assert resolve_workers(False, 10) == 1
        assert resolve_workers(0, 10) == 1
        assert resolve_workers(1, 10) == 1

    def test_single_item_is_serial(self):
        assert resolve_workers(8, 1) == 1

    def test_integer_caps_at_item_count(self):
        assert resolve_workers(4, 2) == 2
        assert resolve_workers(2, 100) == 2

    def test_true_uses_cpu_count(self, monkeypatch):
        monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
        assert resolve_workers(True, 10_000) == (os.cpu_count() or 4)

    def test_env_cap_applies(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "2")
        assert resolve_workers(True, 100) == min(2, os.cpu_count() or 4)
        assert resolve_workers(16, 100) == 2

    def test_invalid_env_cap_ignored(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "not-a-number")
        assert resolve_workers(4, 100) == 4
        monkeypatch.setenv(MAX_WORKERS_ENV, "0")
        assert resolve_workers(4, 100) == 4


class TestWorkerBudget:
    """Regression: ``REPRO_MAX_WORKERS`` is a machine-wide budget.

    Pre-fix, N concurrent sweeps (e.g. serve requests fanning out with
    ``parallel=True``) each resolved the full cap and oversubscribed
    N × cap workers; :func:`worker_budget` scopes each caller's share.
    """

    def test_budget_context_caps_resolution(self, monkeypatch):
        monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
        with worker_budget(2):
            assert resolve_workers(16, 100) == 2
            assert resolve_workers(True, 100) == \
                min(2, os.cpu_count() or 4)
        assert resolve_workers(16, 100) == 16  # scope exited

    def test_explicit_budget_argument(self, monkeypatch):
        monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
        assert resolve_workers(8, 100, budget=3) == 3
        assert resolve_workers(2, 100, budget=8) == 2  # never raises
        assert resolve_workers(8, 100, budget=0) == 1  # floor of one

    def test_budgets_compose_by_shrinking(self):
        assert active_worker_budget() is None
        with worker_budget(4):
            with worker_budget(8):  # a larger inner scope cannot loosen
                assert active_worker_budget() == 4
            with worker_budget(2):
                assert active_worker_budget() == 2
            assert active_worker_budget() == 4
        assert active_worker_budget() is None

    def test_none_budget_is_a_noop_scope(self):
        with worker_budget(None):
            assert active_worker_budget() is None

    def test_concurrent_sweeps_stay_within_machine_cap(self, monkeypatch):
        """N budgeted sweeps collectively never exceed the env cap."""
        monkeypatch.setenv(MAX_WORKERS_ENV, "4")
        recorded = []
        recorded_lock = threading.Lock()
        real_pool = parallel_mod.ThreadPoolExecutor

        class RecordingPool(real_pool):
            """Captures each fan-out's resolved worker count."""

            def __init__(self, max_workers=None, **kwargs):
                with recorded_lock:
                    recorded.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(
            parallel_mod, "ThreadPoolExecutor", RecordingPool,
        )
        slots = 2
        share = 4 // slots
        barrier = threading.Barrier(slots)

        def one_sweep():
            barrier.wait()  # both sweeps genuinely concurrent
            with worker_budget(share):
                # parallel=4 asks for more than the share on purpose —
                # the budget must be what actually bounds the pool.
                throughput_sweep(
                    "vgg16", ["base"], [16, 32], GPU,
                    parallel=4, backend="thread",
                )

        threads = [
            threading.Thread(target=one_sweep) for _ in range(slots)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(recorded) == slots
        assert all(workers == share for workers in recorded)
        assert sum(recorded) <= 4  # the cap holds machine-wide


class TestResolveBackend:
    def test_default_tracks_parallel_knob(self):
        assert resolve_backend(None, None) == "serial"
        assert resolve_backend(None, 4) == "thread"
        assert resolve_backend(None, True) == "thread"

    def test_explicit_backend_wins(self):
        assert resolve_backend("process", None) == "process"
        assert resolve_backend("serial", 8) == "serial"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("greenlet", None)

    def test_backends_tuple(self):
        assert BACKENDS == ("serial", "thread", "process")


class TestParallelMap:
    def test_order_preserved_all_backends(self):
        expected = [x * x for x in range(20)]
        for backend in ("serial", "thread"):
            assert parallel_map(
                lambda x: x * x, range(20), 4, backend=backend,
            ) == expected

    def test_process_backend_rejects_closures(self):
        captured = 3
        with pytest.raises(ValueError, match="picklable"):
            parallel_map(
                lambda x: x * captured, range(4), 2, backend="process",
            )

    def test_process_backend_checks_a_single_point_too(self):
        """Regression: with one point the process backend ran inline and
        skipped the probe, so a closure builder passed with one batch
        and failed with two."""

        def local_builder(batch, **kwargs):
            return build_tiny_cnn(batch=batch, **kwargs)

        with pytest.raises(ValueError, match="picklable"):
            throughput_sweep(
                local_builder, ["base"], [16], GPU,
                parallel=2, backend="process",
            )

    def test_check_picklable_passes_module_level(self):
        _check_picklable(
            len,
            [functools.partial(throughput_point, "vgg16", "base", 8, GPU)],
        )

    def test_probe_names_failing_index_and_type(self):
        """Regression: a heterogeneous item list with one stray closure
        used to pass a first-item-only probe and die inside the pool."""
        points = [
            functools.partial(throughput_point, "vgg16", "base", 8, GPU),
            lambda: None,  # the stray unpicklable entry, *not* first
        ]
        with pytest.raises(ValueError, match="item 1 of type function"):
            _check_picklable(len, points)

    def test_probe_is_per_type_not_per_item(self, monkeypatch):
        calls = []
        real_dumps = pickle.dumps

        def counting_dumps(obj, *args, **kwargs):
            calls.append(type(obj).__name__)
            return real_dumps(obj, *args, **kwargs)

        monkeypatch.setattr(
            parallel_mod.pickle, "dumps", counting_dumps,
        )
        _check_picklable(len, list(range(100)) + ["one string"])
        # One probe for the function, one per distinct item type.
        assert len(calls) == 3
        assert calls.count("int") == 1 and calls.count("str") == 1


def _cache_of(cache):
    """A sweep point that reports the cache ``sweep`` handed it."""
    return cache


class TestSweepCacheResolution:
    def test_process_backend_rejects_in_memory_cache(self):
        with pytest.raises(ValueError, match="cache_dir"):
            sweep([_cache_of], backend="process", cache=CompileCache())

    def test_process_backend_uses_worker_cache(self, tmp_path):
        [cache] = sweep(
            [_cache_of], backend="process", cache_dir=str(tmp_path),
        )
        assert cache is worker_cache(str(tmp_path))

    def test_thread_backend_passes_cache_through(self):
        cache = CompileCache()
        assert sweep(
            [_cache_of, _cache_of], 2, backend="thread", cache=cache,
        ) == [cache, cache]

    def test_serial_backend_builds_disk_cache(self, tmp_path):
        first, second = sweep(
            [_cache_of, _cache_of], backend="serial",
            cache_dir=str(tmp_path),
        )
        assert first is second and first.disk_dir is not None

    def test_worker_cache_is_per_directory_singleton(self, tmp_path):
        a = worker_cache(str(tmp_path))
        b = worker_cache(str(tmp_path))
        c = worker_cache(None)
        assert a is b and a is not c


class TestBackendEquivalence:
    """The acceptance bar: byte-identical point lists per backend."""

    POLICIES = ["base", "tsplit"]
    BATCHES = [64, 128]

    def _sweep(self, backend, **kwargs):
        return throughput_sweep(
            "vgg16", self.POLICIES, self.BATCHES, GPU,
            parallel=2, backend=backend, **kwargs,
        )

    def test_three_backends_byte_identical(self):
        serial = self._sweep("serial")
        thread = self._sweep("thread")
        process = self._sweep("process")
        assert (
            canonical_point_bytes(serial)
            == canonical_point_bytes(thread)
            == canonical_point_bytes(process)
        )
        assert len(serial) == len(self.POLICIES) * len(self.BATCHES)

    def test_process_backend_with_disk_cache_dir(self, tmp_path):
        first = self._sweep("process", cache_dir=str(tmp_path))
        second = self._sweep("serial", cache_dir=str(tmp_path))
        assert canonical_point_bytes(first) == canonical_point_bytes(second)

    def test_process_backend_rejects_shared_cache(self):
        with pytest.raises(ValueError, match="in-memory"):
            self._sweep("process", cache=CompileCache())

    def test_infeasible_points_identical_too(self):
        # Two points, so the thread and process pools really run.
        tiny = GPU.with_memory(32 * 2**20)
        serial = throughput_sweep(
            "vgg16", ["base"], [256, 512], tiny, backend="serial",
        )
        thread = throughput_sweep(
            "vgg16", ["base"], [256, 512], tiny,
            parallel=2, backend="thread",
        )
        process = throughput_sweep(
            "vgg16", ["base"], [256, 512], tiny,
            parallel=2, backend="process",
        )
        assert not serial[0].feasible
        assert not serial[1].feasible
        assert canonical_point_bytes(serial) == canonical_point_bytes(thread)
        assert canonical_point_bytes(serial) == canonical_point_bytes(process)


class TestOtherSweepsAcceptBackend:
    def test_scale_table_backends_agree(self):
        gpu = BIG_GPU.with_memory(4 * 1024 * 1024)
        serial = scale_table(
            [build_tiny_cnn], ["base", "vdnn_all"], gpu,
            axis="sample", backend="serial", cap=64,
        )
        process = scale_table(
            [build_tiny_cnn], ["base", "vdnn_all"], gpu,
            axis="sample", parallel=2, backend="process", cap=64,
        )
        assert serial == process
        assert serial[build_tiny_cnn]["base"] > 0

    def test_oversubscription_backends_agree(self, monkeypatch):
        graph = build_tiny_cnn(batch=16)
        serial = oversubscription_sweep(
            graph, ["base", "vdnn_all"], BIG_GPU,
            ratios=(1.0, 2.0), backend="serial",
        )
        pools = []
        real_pool = parallel_mod.ProcessPoolExecutor

        class RecordingPool(real_pool):
            """Counts the process pools one sweep starts."""

            def __init__(self, max_workers=None, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(
            parallel_mod, "ProcessPoolExecutor", RecordingPool,
        )
        process = oversubscription_sweep(
            graph, ["base", "vdnn_all"], BIG_GPU,
            ratios=(1.0, 2.0), parallel=2, backend="process",
        )
        assert canonical_point_bytes(serial) == canonical_point_bytes(process)
        # One fan-out covers the reference runs and the shrunk runs.
        assert pools == [2]

    def test_footprint_grid_backends_agree(self):
        serial = memory_requirement_grid(
            "vgg16", [16, 32], [1.0], backend="serial",
        )
        process = memory_requirement_grid(
            "vgg16", [16, 32], [1.0], parallel=2, backend="process",
        )
        assert serial == process
        assert all(peak > 0 for peak in serial.values())
