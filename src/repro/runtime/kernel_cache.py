"""Persistent kernel cache: content-addressed lowered sources on disk.

Constructing a :class:`~repro.runtime.executor.KernelRunner` normally
pays for a full fixed-point pass pipeline, module verification, and
lowering — per kernel, on every process.  For sweep workloads over the
47-model suite that construction cost dominates short runs, so this
module caches the *product* of that work (the lowered Python source
plus its metadata) under a content address combining:

* the generated module's printed IR (pre-pipeline) — any change to the
  model source or code generator changes the text;
* the kernel spec (backend mode, width, layout, LUT options);
* the pass pipeline fingerprint
  (:meth:`~repro.ir.passes.pass_manager.PassManager.fingerprint`);
* the lowering version (:data:`~repro.runtime.lowering.LOWERING_VERSION`)
  and the fuse/arena lowering flags.

A hit skips passes, verification and lowering entirely: the cached
source is exec'd directly.  Hit/miss/eviction counters persist in the
cache directory (``stats.json``) so ``limpet-bench cache-stats`` can
report across processes.

Crash safety (the cache is shared by every process of a sweep, and by
supervised worker processes):

* every entry carries a **sha256 checksum** over its payload, verified
  on read — a torn or tampered entry is **quarantined** (moved to
  ``<root>/quarantine/``, recorded as a
  :class:`~repro.resilience.diagnostics.Diagnostic` and a
  ``kernel_cache_corrupt_total`` metric) instead of poisoning every
  later consumer, then treated as a miss and rebuilt;
* mutations (store, evict, stats bumps) run under an **advisory
  ``flock``** (:mod:`repro.runtime.locking`) so concurrent writers
  serialize — stats counts are exact, not best-effort;
* an **unwritable-but-readable cache root** (a read-only
  ``$LIMPET_CACHE_DIR`` mount, the shared AOT artifact tier) degrades
  to **read-only operation**: disk hits keep being served with no LRU
  touches, no ``stats.json`` bumps and no lock attempts, while stores
  land in an in-memory overlay for this process only;
* a cache root that cannot even be read (a path under a file, a full
  disk at mkdir time) degrades further to an in-memory dict — in both
  cases with a logged Diagnostic instead of raising at first write.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import threading
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..ir.printer import print_module
from ..obs import metrics as _metrics
from .locking import file_lock

#: bump to invalidate every existing cache entry at once
#: (v2: entries carry a payload checksum, verified on read)
CACHE_FORMAT_VERSION = 2

_ENV_DIR = "LIMPET_CACHE_DIR"
_ENV_DISABLE = "LIMPET_KERNEL_CACHE"

#: subdirectory corrupt entries are moved into (never scanned by LRU)
QUARANTINE_DIR = "quarantine"


@dataclass
class CacheStats:
    """Counters for one cache (in-memory view; persisted to disk)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0
    bytes: int = 0
    corrupt: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


def kernel_cache_key(generated, pipeline_fingerprint: str,
                     fuse: bool, arena: bool, verify: bool,
                     population: str = "") -> str:
    """Content address for one (module, spec, pipeline, lowering) point.

    ``generated`` is a :class:`~repro.codegen.common.GeneratedKernel`
    whose module has NOT been run through the pipeline yet — the
    pipeline's effect is captured by its fingerprint instead, so the
    key can be computed before any optimization work happens.

    ``population`` is the population-shape fingerprint (promoted
    parameter names + instance count, never the swept values): sweeps
    of the same shape share one compiled kernel.  The line is only
    added when set, so pre-population keys are unchanged.
    """
    from .lowering import LOWERING_VERSION
    spec = generated.spec
    lines = [
        f"format={CACHE_FORMAT_VERSION}",
        f"model={spec.model.name}",
        f"mode={spec.mode.value}",
        f"width={spec.width}",
        f"layout={generated.layout}",
        f"use_lut={spec.use_lut}",
        f"lut_interpolation={spec.lut_interpolation}",
        f"function={spec.function_name}",
        f"pipeline={pipeline_fingerprint}",
        f"lowering=v{LOWERING_VERSION};fuse={fuse};arena={arena}",
        f"verify={verify}",
    ]
    if population:
        lines.append(f"population={population}")
    lines += ["module:", print_module(generated.module)]
    material = "\n".join(lines)
    return hashlib.sha256(material.encode()).hexdigest()


def payload_checksum(payload: Dict) -> str:
    """sha256 over the canonical JSON of ``payload`` minus ``checksum``."""
    material = {k: v for k, v in payload.items() if k != "checksum"}
    return hashlib.sha256(
        json.dumps(material, sort_keys=True).encode()).hexdigest()


def read_entry(path: pathlib.Path, format_version: int
               ) -> Tuple[Optional[Dict], Optional[str]]:
    """Read and verify one checksummed entry file.

    The one reader of kernel-cache and bundle entries: returns
    ``(entry, None)`` when the file parses, carries ``format_version``
    and its ``checksum`` matches; ``(None, reason)`` when it is corrupt
    (unreadable, torn, not an object, stale format, checksum mismatch);
    ``(None, None)`` when it does not exist.  What to do with a corrupt
    entry is the caller's business (see :func:`quarantine_entry`).
    """
    try:
        entry = json.loads(path.read_text())
    except (OSError, ValueError) as err:
        if isinstance(err, FileNotFoundError) or not path.exists():
            return None, None
        return None, f"unreadable ({type(err).__name__})"
    if not isinstance(entry, dict):
        return None, "payload is not an object"
    if entry.get("format") != format_version:
        return None, f"stale format {entry.get('format')!r}"
    if entry.get("checksum") != payload_checksum(entry):
        return None, "checksum mismatch"
    return entry, None


#: help text of each tier's corrupt-entry counter
_CORRUPT_HELP = {
    "kernel_cache_corrupt_total":
        "corrupt kernel-cache entries quarantined",
    "artifact_corrupt_total":
        "corrupt AOT artifact entries/manifests detected",
}


def quarantine_entry(path: pathlib.Path, reason: str, component: str,
                     metric: str, move: bool = True
                     ) -> Optional[pathlib.Path]:
    """Record a corrupt entry and, with ``move``, set it aside.

    The entry is moved into ``quarantine/`` beside it (deleted when the
    move fails) so it cannot poison later reads; with ``move=False`` (a
    read-only tier: we must not mutate a shared mount) it is left in
    place.  Either way a Diagnostic is logged for ``component`` and the
    ``metric`` counter goes up.  Returns the quarantine path, or None.
    """
    target = None
    if move:
        try:
            qdir = path.parent / QUARANTINE_DIR
            qdir.mkdir(parents=True, exist_ok=True)
            target = qdir / path.name
            os.replace(path, target)
        except OSError:
            target = None
            try:                        # quarantine failed: drop instead
                path.unlink()
            except OSError:
                pass
    from ..resilience.diagnostics import (Diagnostic, Severity,
                                          log_diagnostic)
    verb = "quarantined" if move else "left in place (read-only)"
    log_diagnostic(Diagnostic(
        stage="cache", component=component,
        message=f"corrupt entry {path.name} {verb}: {reason}",
        severity=Severity.WARNING,
        data={"entry": path.name, "root": str(path.parent),
              "quarantined_to": str(target) if target else None}))
    _metrics.counter(metric, _CORRUPT_HELP.get(metric, "")).inc()
    return target


class KernelCache:
    """A directory of content-addressed lowered-kernel entries.

    Each entry is one JSON file ``<key>.json`` holding the lowered
    source and the metadata :func:`~repro.runtime.lowering.compile_kernel_source`
    needs.  The cache is LRU-bounded by entry count (file mtime is the
    recency signal), checksum-verified on read (corrupt entries are
    quarantined, not served), flock-serialized on write, and falls
    back to an in-memory dict when the directory is unwritable.
    """

    def __init__(self, root, max_entries: int = 512,
                 read_only: bool = False):
        self.root = pathlib.Path(root)
        self.max_entries = max_entries
        self.stats = CacheStats()
        #: non-None once the cache degraded to memory-only operation
        self._memory: Optional[Dict[str, Dict]] = None
        #: absorbs stores while the cache operates read-only
        self._overlay: Dict[str, Dict] = {}
        self._read_only = bool(read_only)
        if self._read_only:
            return
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            if self.root.is_dir() and os.access(self.root, os.R_OK):
                self._fall_back_to_read_only(err)
            else:
                self._fall_back_to_memory(err)
            return
        if not os.access(self.root, os.W_OK):
            self._fall_back_to_read_only(None)

    # -- degraded (read-only / in-memory) modes ------------------------------------

    def _fall_back_to_read_only(self,
                                error: Optional[BaseException]) -> None:
        """Serve disk hits, absorb writes in memory; record why.

        The middle rung of the degradation ladder: the root cannot be
        written (read-only mount, permissions) but its entries are
        still perfectly readable, so — unlike the memory fallback —
        every previously stored kernel keeps hitting.
        """
        if self._read_only:
            return
        self._read_only = True
        from ..resilience.diagnostics import (Diagnostic, Severity,
                                              log_diagnostic)
        log_diagnostic(Diagnostic(
            stage="cache", component="kernel_cache",
            message=(f"cache root {self.root} is not writable; "
                     "continuing read-only (stores kept in memory)"),
            severity=Severity.WARNING,
            data={"root": str(self.root),
                  "error": repr(error) if error is not None else None}))
        _metrics.counter(
            "cache_readonly_fallbacks_total",
            "persistent tiers degraded to read-only operation").inc()

    def _fall_back_to_memory(self, error: BaseException) -> None:
        """Degrade to an in-memory dict; record why, never raise."""
        if self._memory is not None:
            return
        self._memory = {}
        from ..resilience.diagnostics import (Diagnostic, Severity,
                                              log_diagnostic)
        log_diagnostic(Diagnostic.from_exception(
            stage="cache", component="kernel_cache", exc=error,
            severity=Severity.WARNING, with_traceback=False,
            root=str(self.root)))
        _metrics.counter(
            "cache_memory_fallbacks_total",
            "persistent tiers degraded to in-memory operation").inc()

    @property
    def in_memory(self) -> bool:
        """True when the cache degraded to memory-only operation."""
        return self._memory is not None

    @property
    def read_only(self) -> bool:
        """True when the cache serves disk reads but never writes."""
        return self._read_only

    # -- entries -----------------------------------------------------------------

    def _path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.json"

    def _lock_path(self) -> pathlib.Path:
        return self.root / ".lock"

    def load(self, key: str) -> Optional[Dict]:
        """The cached payload for ``key``, or None (counts hit/miss).

        A missing entry is a plain miss; an unreadable, torn, stale or
        checksum-mismatching entry is quarantined first (left in place
        when read-only), then counted as a miss.
        """
        if self._memory is not None:
            payload = self._memory.get(key)
        elif key in self._overlay:          # only filled when read-only
            payload = self._overlay[key]
        else:
            path = self._path(key)
            payload, reason = read_entry(path, CACHE_FORMAT_VERSION)
            if reason is not None:
                self.stats.corrupt += 1
                quarantine_entry(path, reason, "kernel_cache",
                                 "kernel_cache_corrupt_total",
                                 move=not self._read_only)
            elif payload is not None and not self._read_only:
                try:
                    path.touch()              # refresh LRU recency
                except OSError:
                    pass
        if payload is None:
            self.stats.misses += 1
            self._bump("misses")
            _metrics.counter("kernel_cache_misses_total",
                             "persistent kernel-cache misses").inc()
            return None
        self.stats.hits += 1
        self._bump("hits")
        _metrics.counter("kernel_cache_hits_total",
                         "persistent kernel-cache hits").inc()
        return payload

    def store(self, key: str, source: str, mode: str, width: int,
              arg_names: List[str], function_name: str,
              fused: bool, arena: bool) -> None:
        payload = {
            "format": CACHE_FORMAT_VERSION,
            "function_name": function_name,
            "source": source,
            "mode": mode,
            "width": width,
            "arg_names": list(arg_names),
            "fused": fused,
            "arena": arena,
        }
        payload["checksum"] = payload_checksum(payload)
        if self._memory is not None:
            self._memory[key] = payload
            return
        if self._read_only:
            self._overlay[key] = payload
            return
        tmp = self._path(key).with_suffix(".tmp")
        try:
            with file_lock(self._lock_path()):
                tmp.write_text(json.dumps(payload))
                os.replace(tmp, self._path(key))
                self._evict()
        except OSError as err:
            try:
                tmp.unlink()
            except OSError:
                pass
            if self.root.is_dir() and os.access(self.root, os.R_OK):
                self._fall_back_to_read_only(err)
                self._overlay[key] = payload
            else:
                self._fall_back_to_memory(err)
                self._memory[key] = payload

    def _evict(self) -> None:
        entries = sorted((p for p in self.root.glob("*.json")
                          if p.name != "stats.json"),
                         key=lambda p: p.stat().st_mtime)
        excess = len(entries) - self.max_entries
        for path in entries[:max(excess, 0)]:
            try:
                path.unlink()
            except OSError:
                continue
            self.stats.evictions += 1
            self._bump("evictions")
            _metrics.counter("kernel_cache_evictions_total",
                             "persistent kernel-cache LRU evictions").inc()

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if self._memory is not None:
            removed = len(self._memory)
            self._memory.clear()
            return removed
        if self._read_only:
            removed = len(self._overlay)
            self._overlay.clear()
            return removed
        with file_lock(self._lock_path()):
            for path in self.root.glob("*.json"):
                if path.name == "stats.json":
                    continue
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    continue
        return removed

    # -- statistics --------------------------------------------------------------

    def _stats_path(self) -> pathlib.Path:
        return self.root / "stats.json"

    def _bump(self, counter: str) -> None:
        """Increment one persistent counter.

        Read-modify-write under the cache's advisory flock, written
        atomically via tmp file + ``os.replace``: concurrent processes
        serialize on the lock, so counts are exact, and a torn write
        can never corrupt ``stats.json`` for later readers.  (If the
        lock is unavailable the update still happens atomically and
        merely degrades to best-effort, the pre-lock behaviour.)
        """
        if self._memory is not None or self._read_only:
            return
        path = self._stats_path()
        tmp = path.with_name(
            f"stats.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            with file_lock(self._lock_path()):
                try:
                    data = json.loads(path.read_text())
                    if not isinstance(data, dict):
                        data = {}
                except (OSError, ValueError):
                    data = {}
                data[counter] = int(data.get(counter, 0)) + 1
                tmp.write_text(json.dumps(data))
                os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass

    def persistent_stats(self) -> CacheStats:
        """Counters accumulated across every process using this dir."""
        if self._memory is not None:
            return CacheStats(hits=self.stats.hits,
                              misses=self.stats.misses,
                              evictions=self.stats.evictions,
                              entries=len(self._memory),
                              bytes=0, corrupt=self.stats.corrupt)
        try:
            data = json.loads(self._stats_path().read_text())
        except (OSError, ValueError):
            data = {}
        entries = [p for p in self.root.glob("*.json")
                   if p.name != "stats.json"]
        quarantined = 0
        qdir = self.root / QUARANTINE_DIR
        if qdir.is_dir():
            quarantined = sum(1 for _ in qdir.glob("*.json"))
        return CacheStats(
            hits=int(data.get("hits", 0)),
            misses=int(data.get("misses", 0)),
            evictions=int(data.get("evictions", 0)),
            entries=len(entries),
            bytes=sum(p.stat().st_size for p in entries),
            corrupt=quarantined)


#: process-wide tiers, one per (kind, root)
_DEFAULT_TIERS: Dict[tuple, object] = {}


def default_tier(disable_env: str, root: Optional[pathlib.Path],
                 factory: Callable):
    """The process-wide tier ``factory(root)``, memoised per root.

    None when ``$disable_env`` is ``off``/``0``/``no`` or no root is
    configured.  Keyed by root, so a changed ``$LIMPET_CACHE_DIR`` or
    ``$LIMPET_ARTIFACT_DIR`` is followed, never pinned.
    """
    if os.environ.get(disable_env, "").lower() in ("off", "0", "no") \
            or root is None:
        return None
    key = (factory, str(root))
    tier = _DEFAULT_TIERS.get(key)
    if tier is None:
        tier = _DEFAULT_TIERS[key] = factory(root)
    return tier


def default_cache_dir() -> pathlib.Path:
    """``$LIMPET_CACHE_DIR`` or ``~/.cache/limpet-repro/kernels``."""
    env = os.environ.get(_ENV_DIR)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "limpet-repro" / "kernels"


def default_cache() -> Optional[KernelCache]:
    """The process-wide cache for :func:`default_cache_dir` (None when
    ``LIMPET_KERNEL_CACHE=off``)."""
    return default_tier(_ENV_DISABLE, default_cache_dir(), KernelCache)
