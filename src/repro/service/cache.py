"""Persistent content-addressed result cache.

Synthesis results are stored on disk keyed by the job fingerprint of
:mod:`repro.service.fingerprint`, so repeated and overlapping requests — the
"millions of users" path of the ROADMAP — skip synthesis entirely: a warm
rerun of a spec file performs zero synthesizer invocations.

Layout: one JSON file per entry under ``objects/<fp[:2]>/<fp>.json``
(two-level fan-out keeps directories small at scale), plus a ``meta.json``
recording the cache format version and the shard count.  A one-shard cache
(the default) keeps ``objects/`` and ``quarantine/`` directly under the root;
with N > 1 shards, shard k is a full store under ``<root>/shards/<k:02d>/``
and :func:`shard_index` routes each fingerprint to its shard.  The count is
pinned at creation: a ``meta.json`` without a ``shards`` key means one shard,
and reopening with a different count is refused.  Checksums, quarantine,
LRU eviction and traffic counters act per shard, so one hot (or corrupt)
prefix range cannot evict the whole keyspace.

Entries are plain dictionaries produced by
:meth:`repro.core.goals.SynthesisResult.to_record`: the synthesized program
(JSON AST + rendered text), wall-clock seconds, candidate counters and the
per-run solver statistics.  Writes go through a temp file and ``os.replace``,
so concurrent writers (multiple scheduler processes sharing one cache
directory) can race without ever exposing a torn entry.

**Integrity:** every entry carries a ``checksum`` field — the SHA-256 of its
canonical JSON — written at store time and verified on every load.  An entry
that fails verification (torn by a non-atomic writer, bit-rotted, truncated,
undecodable) is *quarantined*: moved to its shard's ``quarantine/`` for
post-mortem inspection instead of silently masquerading as a miss, counted into
``cache.quarantined``, and the lookup proceeds as a miss so the result is
simply recomputed.  Disk errors on the maintenance paths (LRU touch, eviction
scan/unlink) are likewise counted into ``cache.io_errors`` rather than
swallowed — a cache on a dying disk shows up in ``service stats`` instead of
just getting slower.

Eviction is least-recently-used, approximated by file modification time: a
hit refreshes the entry's mtime, and when ``max_entries`` is exceeded the
oldest entries are deleted.  The cache is an optimization layer — losing an
entry only costs a re-synthesis — so crash-consistency of the eviction scan
is deliberately not attempted.

Fault injection (:mod:`repro.service.faults`): the ``cache.read_corrupt``
point garbles an entry on disk just before a lookup reads it, and
``cache.write_torn`` makes a store write a truncated entry straight to the
final path.  Both are deterministic per fingerprint, which is how the chaos
tests prove that corruption is always caught, quarantined and recomputed.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import astuple, dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs import trace
from repro.service import faults

CACHE_FORMAT_VERSION = 2  # v2: per-entry checksums, quarantine directory


def shard_index(fingerprint: str, shards: int) -> int:
    """Which shard owns ``fingerprint`` — a pure function of its prefix.

    Fingerprints are hex SHA-256, so the leading 32 bits are uniformly
    distributed; taking them modulo ``shards`` balances load for any shard
    count.  Stability matters more than the exact formula: every process (and
    eventually every host) must route a fingerprint to the same shard with no
    coordination, so this must never depend on runtime state.
    """
    if shards < 1:
        raise ValueError("shards must be positive")
    return int(fingerprint[:8], 16) % shards


@dataclass
class CacheStats:
    """Traffic counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    #: Entries that failed integrity verification and were quarantined.
    quarantined: int = 0
    #: OSErrors on maintenance paths (LRU touch, eviction scan/unlink).
    io_errors: int = 0

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "cache_stores": self.stores,
            "cache_evictions": self.evictions,
            "cache_quarantined": self.quarantined,
            "cache_io_errors": self.io_errors,
            "cache_hit_rate": round(self.hit_rate(), 4),
        }


def record_checksum(entry: Dict[str, object]) -> str:
    """SHA-256 over the canonical JSON of ``entry`` (its own checksum excluded)."""
    payload = {key: value for key, value in entry.items() if key != "checksum"}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _atomic_write(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _read_object(path: str) -> Optional[dict]:
    """The JSON object in ``path``, or ``None`` if it is missing or not one."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError):  # missing, unreadable, not UTF-8 or not JSON
        return None
    return data if isinstance(data, dict) else None


class _Shard:
    """One shard's store: entries, quarantine, LRU cap and traffic counters."""

    def __init__(self, root: str, max_entries: Optional[int]) -> None:
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._objects = os.path.join(root, "objects")
        self._quarantine_dir = os.path.join(root, "quarantine")
        #: Approximate entry count, seeded lazily from one directory scan and
        #: maintained incrementally so store() does not walk the tree each
        #: time (other processes sharing the directory drift it slightly;
        #: the overflow scan resynchronizes it).
        self._count: Optional[int] = None
        #: Per-(point, fingerprint) occurrence counters for fault decisions,
        #: so ``:once`` rules fire on the first lookup/store only.
        self._fault_seen: Dict[Tuple[str, str], int] = {}
        os.makedirs(self._objects, exist_ok=True)

    def _entry_path(self, fingerprint: str) -> str:
        return os.path.join(self._objects, fingerprint[:2], f"{fingerprint}.json")

    def _fault_attempt(self, point: str, fingerprint: str) -> int:
        """Occurrence index of this (point, fingerprint) site, then advance it."""
        key = (point, fingerprint)
        attempt = self._fault_seen.get(key, 0)
        self._fault_seen[key] = attempt + 1
        return attempt

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------
    def _quarantine(self, path: str, reason: str) -> None:
        """Move a bad entry aside for post-mortem instead of deleting it."""
        dest = os.path.join(self._quarantine_dir, os.path.basename(path))
        try:
            os.makedirs(self._quarantine_dir, exist_ok=True)
            os.replace(path, dest)
        except OSError:
            # Can't even move it; drop it so it stops matching lookups.
            self.stats.io_errors += 1
            try:
                os.unlink(path)
            except OSError:
                pass
        self.stats.quarantined += 1
        if self._count is not None and self._count > 0:
            self._count -= 1
        trace.event("cache.quarantine", path=os.path.basename(path), reason=reason)

    def _load_verified(self, path: str) -> Optional[dict]:
        """Load an entry and verify its checksum; quarantine on any failure.

        Returns the entry with its ``checksum`` field stripped (so records
        read back byte-identical to what was stored), or ``None`` — missing
        file, or corrupt-and-quarantined.
        """
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            self._quarantine(path, "undecodable")
            return None
        if not isinstance(entry, dict):
            self._quarantine(path, "not-a-record")
            return None
        stored = entry.pop("checksum", None)
        if stored != record_checksum(entry):
            self._quarantine(path, "checksum-mismatch" if stored else "missing-checksum")
            return None
        return entry

    def quarantined_entries(self) -> List[str]:
        """Basenames of quarantined entries (empty if none were ever caught)."""
        try:
            return sorted(os.listdir(self._quarantine_dir))
        except FileNotFoundError:
            return []

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def lookup(self, fingerprint: str) -> Optional[dict]:
        """The cached record for ``fingerprint``, refreshing its LRU stamp."""
        path = self._entry_path(fingerprint)
        plan = faults.plan()
        if plan.active and os.path.exists(path):
            attempt = self._fault_attempt(faults.CACHE_READ_CORRUPT, fingerprint)
            if plan.fires(faults.CACHE_READ_CORRUPT, fingerprint, attempt):
                self._corrupt_on_disk(path)
        entry = self._load_verified(path)
        if entry is None:
            self.stats.misses += 1
            trace.event("cache.miss", fingerprint=fingerprint)
            return None
        self.stats.hits += 1
        trace.event("cache.hit", fingerprint=fingerprint)
        try:
            os.utime(path)
        except OSError:
            # LRU stamp only; a failed touch just ages the entry — but count
            # it, a disk that refuses utime is telling us something.
            self.stats.io_errors += 1
        return entry

    def store(self, fingerprint: str, record: dict) -> None:
        """Persist a result record under ``fingerprint`` (and maybe evict)."""
        entry = dict(record)
        entry["fingerprint"] = fingerprint
        entry.setdefault("stored_at", time.time())
        entry["checksum"] = record_checksum(entry)
        path = self._entry_path(fingerprint)
        if self.max_entries is not None:
            if self._count is None:
                self._count = len(self._scan())
            if not os.path.exists(path):  # overwrites don't grow the cache
                self._count += 1
        plan = faults.plan()
        if plan.active and plan.fires(
            faults.CACHE_WRITE_TORN,
            fingerprint,
            self._fault_attempt(faults.CACHE_WRITE_TORN, fingerprint),
        ):
            self._torn_write(path, entry)
        else:
            _atomic_write(path, entry)
        self.stats.stores += 1
        trace.event("cache.store", fingerprint=fingerprint)
        if (
            self.max_entries is not None
            and self._count is not None
            and self._count > self.max_entries
        ):
            self._evict()

    def update(self, fingerprint: str, **fields: object) -> bool:
        """Merge extra fields (e.g. measured bounds) into an existing entry."""
        path = self._entry_path(fingerprint)
        entry = self._load_verified(path)
        if entry is None:
            return False
        entry.update(fields)
        entry["checksum"] = record_checksum(entry)
        _atomic_write(path, entry)
        return True

    # ------------------------------------------------------------------
    # Fault-injection effects (deterministic chaos; see service/faults.py)
    # ------------------------------------------------------------------
    @staticmethod
    def _corrupt_on_disk(path: str) -> None:
        """Garble an entry in place, simulating bit rot under a reader."""
        try:
            with open(path, "r+b") as handle:
                data = handle.read()
                handle.seek(max(len(data) // 2 - 4, 0))
                handle.write(b"\x00CORRUPT\x00")
        except OSError:
            pass

    @staticmethod
    def _torn_write(path: str, entry: dict) -> None:
        """Write a truncated entry straight to the final path (no rename)."""
        payload = json.dumps(entry, sort_keys=True)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write(payload[: len(payload) // 2])

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _scan(self) -> List[Tuple[float, str]]:
        """(mtime, path) for every entry, oldest first."""
        found: List[Tuple[float, str]] = []
        for dirpath, _, filenames in os.walk(self._objects):
            for name in filenames:
                if name.endswith(".json"):
                    path = os.path.join(dirpath, name)
                    try:
                        found.append((os.path.getmtime(path), path))
                    except OSError:
                        # Usually a concurrent eviction; still worth counting,
                        # a stream of these is a disk problem, not a race.
                        self.stats.io_errors += 1
                        continue
        found.sort()
        return found

    def _evict(self) -> None:
        """Drop the oldest entries until ~10% below the cap.

        The scan is O(entries), so it only runs on overflow, and the batch
        headroom means the next ``max_entries // 10`` stores are scan-free —
        amortized O(1) directory traffic per store at steady state.  Caps
        under 10 evict to the cap exactly (no headroom to amortize with).
        """
        entries = self._scan()
        cap = self.max_entries or 0
        target = max(cap - cap // 10, 0)
        deleted = 0
        for _, path in entries[: max(len(entries) - target, 0)]:
            try:
                os.unlink(path)
                deleted += 1
                self.stats.evictions += 1
            except OSError:
                self.stats.io_errors += 1
                continue
        if deleted:
            trace.event("cache.evict", deleted=deleted)
        self._count = len(entries) - deleted

    def __len__(self) -> int:
        return len(self._scan())

    def fingerprints(self) -> Iterator[str]:
        """All fingerprints currently stored, oldest first."""
        for _, path in self._scan():
            yield os.path.splitext(os.path.basename(path))[0]

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for _, path in self._scan():
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                self.stats.io_errors += 1
                continue
        self._count = 0
        return removed


class ResultCache:
    """Disk-backed map from job fingerprints to synthesis result records.

    ``shards`` defaults to the count pinned in ``<root>/meta.json``, or 1 for
    a new directory; asking for a different count than the pinned one raises
    ``ValueError``.  ``max_entries`` is split evenly over the shards.
    """

    def __init__(
        self, root: str, max_entries: Optional[int] = None, shards: Optional[int] = None
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.root = os.path.abspath(root)
        meta_path = os.path.join(self.root, "meta.json")
        meta = _read_object(meta_path)
        if meta is not None:
            pinned = int(meta.get("shards", 1))
            if shards is not None and shards != pinned:
                raise ValueError(
                    f"cache at {self.root} is sharded {pinned} ways; "
                    f"reopening with shards={shards} would misroute fingerprints"
                )
            shards = pinned
        elif shards is None:
            shards = 1
        if shards < 1:
            raise ValueError("shards must be positive")
        self.shards = shards
        self.max_entries = max_entries
        per_shard = None if max_entries is None else max(max_entries // shards, 1)
        roots = (
            [self.root]
            if shards == 1
            else [os.path.join(self.root, "shards", f"{index:02d}") for index in range(shards)]
        )
        self._shards = [_Shard(shard_root, per_shard) for shard_root in roots]
        if meta is None:
            _atomic_write(meta_path, {"format": CACHE_FORMAT_VERSION, "shards": shards})
        #: Traffic already folded into telemetry.json (see record_run_telemetry).
        self._recorded: Dict[str, float] = {}

    def shard_for(self, fingerprint: str) -> int:
        return shard_index(fingerprint, self.shards)

    def _shard(self, fingerprint: str) -> _Shard:
        return self._shards[self.shard_for(fingerprint)]

    def _entry_path(self, fingerprint: str) -> str:
        return self._shard(fingerprint)._entry_path(fingerprint)

    @property
    def stats(self) -> CacheStats:
        """Traffic summed over the shards."""
        return CacheStats(*map(sum, zip(*(astuple(shard.stats) for shard in self._shards))))

    def lookup(self, fingerprint: str) -> Optional[dict]:
        """The cached record for ``fingerprint``, refreshing its LRU stamp."""
        return self._shard(fingerprint).lookup(fingerprint)

    def store(self, fingerprint: str, record: dict) -> None:
        """Persist a result record under ``fingerprint`` (and maybe evict)."""
        self._shard(fingerprint).store(fingerprint, record)

    def update(self, fingerprint: str, **fields: object) -> bool:
        """Merge extra fields (e.g. measured bounds) into an existing entry."""
        return self._shard(fingerprint).update(fingerprint, **fields)

    def quarantined_entries(self) -> List[str]:
        """Basenames of quarantined entries (empty if none were ever caught)."""
        return sorted(name for shard in self._shards for name in shard.quarantined_entries())

    def quarantine_dirs(self) -> List[str]:
        """The quarantine directories that hold at least one entry."""
        return [shard._quarantine_dir for shard in self._shards if shard.quarantined_entries()]

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def fingerprints(self) -> Iterator[str]:
        """All fingerprints currently stored, oldest first within each shard."""
        for shard in self._shards:
            yield from shard.fingerprints()

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        return sum(shard.clear() for shard in self._shards)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def record_run_telemetry(self, scheduler: Dict[str, object]) -> str:
        """Fold one scheduler run into ``<root>/telemetry.json``.

        The file accumulates numeric totals across every run that used this
        cache directory (hit/miss/store/eviction traffic plus the scheduler's
        job and timing sums) and keeps the full stats of the most recent run,
        which is what ``python -m repro.service stats`` reports.  Written
        atomically, so concurrent schedulers can race without tearing the
        file (a lost update only undercounts totals).
        """
        path = os.path.join(self.root, "telemetry.json")
        data = _read_object(path) or {}
        data["runs"] = int(data.get("runs", 0)) + 1
        totals = data.setdefault("totals", {})
        cache_stats = self.stats.as_dict()
        counters = {key: value for key, value in cache_stats.items() if key != "cache_hit_rate"}
        # Fold only the traffic since this instance's previous fold.
        traffic = {key: value - self._recorded.get(key, 0) for key, value in counters.items()}
        self._recorded = counters
        sched = dict(scheduler)
        sched.pop("cache_hits", None)  # already counted by the cache's own traffic
        for source in (traffic, sched):
            for key, value in source.items():
                if key == "workers" or not isinstance(value, (int, float)):
                    continue
                totals[key] = round(totals.get(key, 0) + value, 4)
        looked_up = totals.get("cache_hits", 0) + totals.get("cache_misses", 0)
        totals["cache_hit_rate"] = (
            round(totals.get("cache_hits", 0) / looked_up, 4) if looked_up else 0.0
        )
        data["last_run"] = {
            "scheduler": dict(scheduler),
            "cache": cache_stats,
            "shards": self.shards,
        }
        _atomic_write(path, data)
        return path

    def telemetry(self) -> Optional[dict]:
        """The accumulated telemetry blob, or ``None`` if no run recorded one."""
        return _read_object(os.path.join(self.root, "telemetry.json"))

    def stats_dict(self) -> Dict[str, object]:
        """Per-shard telemetry plus merged totals (the ``/stats`` payload)."""
        per_shard = [
            {
                "shard": index,
                "entries": len(shard),
                "quarantined_entries": len(shard.quarantined_entries()),
                **shard.stats.as_dict(),
            }
            for index, shard in enumerate(self._shards)
        ]
        return {
            "root": self.root,
            "entries": sum(row["entries"] for row in per_shard),
            "shards": self.shards,
            "quarantined_entries": sum(row["quarantined_entries"] for row in per_shard),
            **self.stats.as_dict(),
            "per_shard": per_shard,
        }


def open_cache(
    root: str, max_entries: Optional[int] = None, shards: Optional[int] = None
) -> ResultCache:
    """Open (or create) the result cache at ``root``; see :class:`ResultCache`."""
    return ResultCache(root, max_entries=max_entries, shards=shards)
