"""Content-addressed caching for the staged compilation pipeline.

Stage artifacts are keyed by *what produced them*, not by who asked:

* a **profile** is determined by the graph's structure, the GPU's
  performance characteristics (capacity excluded — profiling measures
  kernels and transfers, not fit) and the profiler's measurement
  settings;
* a **plan** is determined by the profile it was planned against, the
  device capacity it had to fit, and the policy (including its full
  configuration).

Keys are SHA-256 fingerprints of canonical JSON, so two sweeps probing
the same (model, GPU) pair — or the same model on devices differing only
in memory capacity, as over-subscription sweeps do — share one profile.

The in-memory LRU can be backed by a **disk tier** (``disk_dir=``):
artifacts are pickled to content-addressed files, written atomically
(temp file + ``os.replace``) so concurrent sweep worker processes never
observe a torn entry, and stamped with :data:`CACHE_FORMAT_VERSION` so a
format change invalidates old files instead of misreading them. Loads
are corruption-tolerant: an unreadable, truncated, version-mismatched or
mis-keyed file counts as a miss and the caller recomputes.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from dataclasses import asdict, is_dataclass
from pathlib import Path

from repro.graph.graph import Graph
from repro.graph.serialize import graph_to_dict
from repro.hardware.gpu import GPUSpec
from repro.telemetry import get_telemetry

#: GPUSpec fields that do not influence profiling results (capacity
#: bounds what *fits*, not how fast kernels run or links move bytes).
_CAPACITY_FIELDS = ("memory_bytes", "host_memory_bytes")

#: Bumped whenever the pickled artifact layout changes incompatibly;
#: disk entries live under a ``v<N>`` subdirectory so old versions are
#: simply never consulted (no migration, no misreads).
CACHE_FORMAT_VERSION = 1


def default_cache_dir() -> Path:
    """The persistent cache location: ``$REPRO_CACHE_DIR`` if set, else
    ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path("~/.cache").expanduser()
    return base / "repro"


def _jsonify(obj):
    """``json.dumps`` default hook: dataclasses, enums, sets, tuples."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return asdict(obj)
    if isinstance(obj, enum.Enum):
        return obj.value
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"{type(obj).__name__} is not fingerprintable")


def fingerprint(obj) -> str:
    """SHA-256 hex digest of the canonical JSON encoding of ``obj``."""
    encoded = json.dumps(
        obj, sort_keys=True, separators=(",", ":"), default=_jsonify,
    )
    return hashlib.sha256(encoded.encode()).hexdigest()


def graph_signature(graph: Graph) -> str:
    """Structural fingerprint of a graph (tensors, ops, attributes)."""
    return fingerprint(graph_to_dict(graph))


def gpu_perf_signature(gpu: GPUSpec) -> dict:
    """The GPU's performance identity — every field except capacity."""
    spec = asdict(gpu)
    for field in _CAPACITY_FIELDS:
        spec.pop(field, None)
    return spec


def gpu_capacity_signature(gpu: GPUSpec) -> dict:
    """The GPU's capacity identity — what a plan had to fit into."""
    return {field: getattr(gpu, field) for field in _CAPACITY_FIELDS}


class CompileCache:
    """Thread-safe LRU store for pipeline stage artifacts.

    One instance can be shared by concurrent sweep workers (the analysis
    modules' ``parallel=`` mode): lookups and insertions hold a lock, and
    artifacts are treated as immutable once stored.

    With ``disk_dir`` set, the LRU gains a persistent tier: every
    :meth:`put` also pickles the artifact to a content-addressed file
    under ``<disk_dir>/v<CACHE_FORMAT_VERSION>/``, and a memory miss
    falls through to disk before reporting a miss. Worker *processes*
    (the sweeps' ``backend="process"`` mode) and later sessions pointed
    at the same directory therefore share profiles and plans; memory
    evictions never delete disk files.

    Hits, misses and evictions are counted per artifact *kind* (the
    stage name callers pass to :meth:`get` / :meth:`put`) and exposed
    through :meth:`cache_stats` — disk-backed caches additionally count
    ``disk_hits`` / ``disk_misses`` — and when a telemetry session with
    metrics is active, the same events increment
    ``compile_cache.<kind>.*`` counters on its registry.

    Accounting invariant: every :meth:`get` resolves as exactly one of a
    memory hit (``hits``), a disk hit (``disk_hits``) or a miss
    (``misses``), so ``lookups == total_hits + misses`` with
    ``total_hits = hits + disk_hits``. :meth:`stats` /
    :meth:`cache_stats` report the folded ``lookups`` / ``total_hits`` /
    ``hit_rate`` so a warm-*disk* cache (every lookup served from files,
    none from memory) still reports the hit rate it actually delivers.
    """

    def __init__(
        self,
        max_entries: int = 512,
        disk_dir: str | os.PathLike | None = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.disk_dir: Path | None = None
        if disk_dir is not None:
            self.disk_dir = (
                Path(disk_dir).expanduser() / f"v{CACHE_FORMAT_VERSION}"
            )
            self.disk_dir.mkdir(parents=True, exist_ok=True)
        self._entries: OrderedDict[str, object] = OrderedDict()
        self._lock = threading.Lock()
        self._compute_locks = tuple(threading.Lock() for _ in range(64))
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.disk_hits = 0
        self.disk_misses = 0
        self._kind_stats: dict[str, dict[str, int]] = {}
        #: key -> kind, so evictions are attributed to the right kind.
        self._kind_of: dict[str, str] = {}

    def _bump(self, kind: str, event: str) -> None:
        """Count one event against a kind (lock held by the caller)."""
        stats = self._kind_stats.get(kind)
        if stats is None:
            stats = {"hits": 0, "misses": 0, "evictions": 0}
            if self.disk_dir is not None:
                stats["disk_hits"] = 0
                stats["disk_misses"] = 0
            self._kind_stats[kind] = stats
        stats[event] = stats.get(event, 0) + 1
        metrics = get_telemetry().metrics
        if metrics.enabled:
            metrics.counter(f"compile_cache.{kind or 'any'}.{event}").inc()

    # -- disk tier ---------------------------------------------------------

    def _disk_path(self, key: str, kind: str) -> Path:
        return self.disk_dir / f"{kind or 'any'}-{key}.pkl"

    def _disk_load(self, key: str, kind: str):
        """Load one disk entry, or ``None`` on any failure.

        Anything short of a well-formed, version- and key-matching
        payload — missing file, torn/truncated write survivor, foreign
        pickle, stale format — is treated as a miss: the caller
        recomputes and the next :meth:`put` overwrites the bad file.
        """
        try:
            raw = self._disk_path(key, kind).read_bytes()
            payload = pickle.loads(raw)
        except Exception:
            return None
        if not isinstance(payload, dict):
            return None
        if (
            payload.get("version") != CACHE_FORMAT_VERSION
            or payload.get("key") != key
            or payload.get("kind") != kind
        ):
            return None
        return payload.get("artifact")

    def _disk_store(self, key: str, value, kind: str) -> None:
        """Atomically persist one entry (best-effort: IO errors are
        swallowed — a failed write just means a future miss)."""
        payload = {
            "version": CACHE_FORMAT_VERSION,
            "kind": kind,
            "key": key,
            "artifact": value,
        }
        try:
            encoded = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
            fd, tmp_name = tempfile.mkstemp(
                dir=self.disk_dir, prefix=".tmp-", suffix=".pkl",
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(encoded)
                os.replace(tmp_name, self._disk_path(key, kind))
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except (OSError, pickle.PicklingError):
            pass

    def compute_lock(self, key: str) -> threading.Lock:
        """The lock to hold across a get-compute-put of ``key``.

        Concurrent callers that miss on one key then compute its
        artifact once; the others wait and hit. Locks are striped over
        keys, so unrelated keys rarely share one.
        """
        return self._compute_locks[hash(key) % len(self._compute_locks)]

    def get(self, key: str, kind: str = ""):
        """Return the cached artifact or ``None``; counts hit/miss.

        Memory first; with a disk tier, a memory miss probes the disk
        file and a disk hit is promoted into the in-memory LRU. Only a
        miss in *every* tier counts as a miss.
        """
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                pass
            else:
                self._entries.move_to_end(key)
                self.hits += 1
                self._bump(kind, "hits")
                return value
            if self.disk_dir is None:
                self.misses += 1
                self._bump(kind, "misses")
                return None
        # Disk IO happens outside the lock; content-addressed entries
        # make concurrent promotion idempotent.
        value = self._disk_load(key, kind)
        with self._lock:
            if value is not None:
                self.disk_hits += 1
                self._bump(kind, "disk_hits")
                self._insert(key, value, kind)
                return value
            self.disk_misses += 1
            self._bump(kind, "disk_misses")
            self.misses += 1
            self._bump(kind, "misses")
            return None

    def _insert(self, key: str, value, kind: str) -> None:
        """Memory-tier insertion + LRU eviction (lock held)."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        self._kind_of[key] = kind
        while len(self._entries) > self.max_entries:
            evicted_key, _ = self._entries.popitem(last=False)
            self.evictions += 1
            self._bump(self._kind_of.pop(evicted_key, ""), "evictions")

    def put(self, key: str, value, kind: str = "") -> None:
        """Store an artifact in memory and, when enabled, on disk."""
        with self._lock:
            self._insert(key, value, kind)
        if self.disk_dir is not None:
            self._disk_store(key, value, kind)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def _aggregate_stats(self) -> dict:
        """Tier counters folded into coherent totals (lock held).

        ``hits`` stays the *memory*-tier count (its historical meaning);
        ``total_hits`` folds the disk tier in, and
        ``lookups == total_hits + misses`` holds across every path a
        :meth:`get` can take.
        """
        total_hits = self.hits + self.disk_hits
        lookups = total_hits + self.misses
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "disk_misses": self.disk_misses,
            "lookups": lookups,
            "total_hits": total_hits,
            "hit_rate": total_hits / lookups if lookups else 0.0,
        }

    def stats(self) -> dict:
        """Aggregate counters, including the folded ``lookups`` /
        ``total_hits`` / ``hit_rate`` totals."""
        with self._lock:
            return self._aggregate_stats()

    def cache_stats(self) -> dict:
        """Aggregate plus per-kind hit/miss/eviction counts.

        ``{"entries": ..., "hits": ..., "misses": ..., "evictions": ...,
        "disk_hits": ..., "disk_misses": ..., "lookups": ...,
        "total_hits": ..., "hit_rate": ...,
        "kinds": {"profile": {"hits": ...}, "plan": {...}}}``
        """
        with self._lock:
            return {
                **self._aggregate_stats(),
                "kinds": {
                    kind: dict(stats)
                    for kind, stats in sorted(self._kind_stats.items())
                },
            }
