"""Tests for result-cache sharding (repro.service.cache.ResultCache(shards=N)).

Four properties make sharding safe to roll out under a live server:

* **pure routing** — a fingerprint's shard is a pure function of its prefix,
  identical across instances, processes, and reopens (the shard count is
  persisted in ``meta.json`` and a mismatched reopen is refused);
* **behavioral parity** — the Table 1 workload sees the same hits, misses
  and synthesized programs through 4 shards as through 1;
* **failure isolation** — LRU caps and quarantine act per shard, so one hot
  or corrupt prefix range cannot evict (or poison) the whole keyspace;
* **on-disk compatibility** — plain (one-shard) and sharded directories in
  the v2 layout, written by hand here, open with their pinned shard count
  and hit.
"""

import json
import os
import random

import pytest

from repro.benchsuite.runner import benchmark_config, run_table, selected_benchmarks
from repro.service.__main__ import main as service_main
from repro.service.cache import (
    CACHE_FORMAT_VERSION,
    ResultCache,
    open_cache,
    record_checksum,
    shard_index,
)
from repro.service.scheduler import BatchScheduler, job_for_goal


def fp_in_shard(target, shards, salt=0):
    """A synthetic 64-hex fingerprint routed to shard ``target``."""
    for probe in range(10_000):
        value = (salt * 10_000 + probe) * shards + target
        candidate = f"{value:08x}" + f"{salt:04x}{probe:04x}".rjust(56, "0")
        if shard_index(candidate, shards) == target:
            return candidate
    raise AssertionError("no fingerprint found")


def record_for(tag):
    return {"goal_name": tag, "program": None, "seconds": 0.01}


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------


class TestShardIndex:
    def test_pure_in_range_and_prefix_determined(self):
        rng = random.Random(7)
        for shards in (1, 2, 4, 8, 16):
            for _ in range(50):
                fingerprint = "".join(rng.choice("0123456789abcdef") for _ in range(64))
                index = shard_index(fingerprint, shards)
                assert 0 <= index < shards
                assert shard_index(fingerprint, shards) == index  # pure
                # Only the prefix matters: same first 8 hex chars, same shard.
                sibling = fingerprint[:8] + "f" * 56
                assert shard_index(sibling, shards) == index

    def test_rejects_nonpositive_shard_count(self):
        with pytest.raises(ValueError):
            shard_index("ab" * 32, 0)

    def test_instances_route_identically(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"), shards=4)
        reopened = ResultCache(str(tmp_path / "c"))
        rng = random.Random(3)
        for _ in range(25):
            fingerprint = "".join(rng.choice("0123456789abcdef") for _ in range(64))
            assert cache.shard_for(fingerprint) == reopened.shard_for(fingerprint)


class TestPersistence:
    def test_shard_count_persists_and_mismatch_is_refused(self, tmp_path):
        root = str(tmp_path / "cache")
        ResultCache(root, shards=3)
        meta = json.load(open(os.path.join(root, "meta.json")))
        assert meta["shards"] == 3
        assert ResultCache(root).shards == 3  # persisted count wins
        with pytest.raises(ValueError):
            ResultCache(root, shards=5)

    def test_open_cache_flavours(self, tmp_path):
        plain = open_cache(str(tmp_path / "plain"))
        assert isinstance(plain, ResultCache) and plain.shards == 1
        assert open_cache(str(tmp_path / "one"), shards=1).shards == 1
        sharded = open_cache(str(tmp_path / "sharded"), shards=4)
        assert isinstance(sharded, ResultCache) and sharded.shards == 4
        # Reopening without asking for shards uses the pinned count.
        assert open_cache(str(tmp_path / "sharded")).shards == 4
        assert open_cache(str(tmp_path / "plain")).shards == 1

    def test_default_shard_count(self, tmp_path):
        root = str(tmp_path / "c")
        cache = ResultCache(root)
        assert cache.shards == 1
        fingerprint = fp_in_shard(0, 4)
        cache.store(fingerprint, record_for("plain"))
        # One shard is the plain layout: objects/ sits directly under the root.
        entry = os.path.join(root, "objects", fingerprint[:2], f"{fingerprint}.json")
        assert os.path.exists(entry)
        assert not os.path.exists(os.path.join(root, "shards"))


# ---------------------------------------------------------------------------
# Store/lookup routing and layout
# ---------------------------------------------------------------------------


class TestRouting:
    def test_entries_land_in_their_shard_directory(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"), shards=4)
        for target in range(4):
            fingerprint = fp_in_shard(target, 4)
            cache.store(fingerprint, record_for(f"s{target}"))
            path = os.path.join(
                str(tmp_path / "c"),
                "shards",
                f"{target:02d}",
                "objects",
                fingerprint[:2],
                f"{fingerprint}.json",
            )
            assert os.path.exists(path), f"entry not in shard {target}"
        assert len(cache) == 4
        assert sorted(cache.fingerprints()) == sorted(
            fp_in_shard(target, 4) for target in range(4)
        )

    def test_lookup_update_and_clear(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"), shards=2)
        fingerprint = fp_in_shard(1, 2)
        assert cache.lookup(fingerprint) is None
        cache.store(fingerprint, record_for("x"))
        entry = cache.lookup(fingerprint)
        assert entry["goal_name"] == "x"
        assert cache.update(fingerprint, measured=True)
        assert cache.lookup(fingerprint)["measured"] is True
        assert not cache.update("ff" * 32, measured=True)
        assert cache.clear() == 1
        assert len(cache) == 0


# ---------------------------------------------------------------------------
# Parity between 1 and 4 shards on the real workload
# ---------------------------------------------------------------------------


def _table1_resyn_jobs():
    return [
        job_for_goal(bench.goal, benchmark_config(bench, "resyn"), tag=bench.key)
        for bench in selected_benchmarks("table1")
    ]


class TestParity:
    def test_hit_rate_parity_on_table1(self, tmp_path):
        """Cold-then-warm Table 1 traffic: 4 shards == 1 shard, bit for bit."""
        outcomes = {}
        for flavour, shards in (("plain", 1), ("sharded", 4)):
            root = str(tmp_path / flavour)
            cold = BatchScheduler(workers=1, cache=ResultCache(root, shards=shards))
            cold_results = cold.run(_table1_resyn_jobs())
            warm = BatchScheduler(workers=1, cache=ResultCache(root))
            warm_results = warm.run(_table1_resyn_jobs())
            outcomes[flavour] = {
                "programs": [r.program_text for r in warm_results],
                "cold": (cold.stats.cache_hits, len(cold_results)),
                "warm_hits": warm.stats.cache_hits,
                "warm_all_hit": all(r.cache_hit for r in warm_results),
            }
        plain, sharded = outcomes["plain"], outcomes["sharded"]
        assert plain["cold"] == sharded["cold"] == (0, len(_table1_resyn_jobs()))
        assert plain["warm_all_hit"] and sharded["warm_all_hit"]
        assert plain["warm_hits"] == sharded["warm_hits"]
        assert plain["programs"] == sharded["programs"]

    def test_stats_merge_and_hit_rate(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"), shards=4)
        hits = [fp_in_shard(i % 4, 4, salt=1) for i in range(8)]
        for fingerprint in hits:
            cache.store(fingerprint, record_for("h"))
        for fingerprint in hits:
            assert cache.lookup(fingerprint) is not None
        assert cache.lookup("0" * 64) is None
        stats = cache.stats
        assert stats.hits == 8 and stats.misses == 1 and stats.stores == 8
        assert stats.hit_rate() == pytest.approx(8 / 9)


# ---------------------------------------------------------------------------
# Per-shard failure isolation
# ---------------------------------------------------------------------------


class TestIsolation:
    def test_per_shard_lru_eviction(self, tmp_path):
        # max_entries=8 over 4 shards = 2 per shard: 5 stores into one shard
        # must evict locally without touching the other shards' entries.
        cache = ResultCache(str(tmp_path / "c"), shards=4, max_entries=8)
        keepers = [fp_in_shard(target, 4, salt=2) for target in (1, 2, 3)]
        for fingerprint in keepers:
            cache.store(fingerprint, record_for("keep"))
        hot = [fp_in_shard(0, 4, salt=3 + i) for i in range(5)]
        for fingerprint in hot:
            cache.store(fingerprint, record_for("hot"))
        assert cache.stats.evictions == 3
        assert len(cache._shards[0]) == 2
        for fingerprint in keepers:  # cold shards are untouched
            assert cache.lookup(fingerprint) is not None

    def test_per_shard_quarantine(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"), shards=4)
        bad = fp_in_shard(0, 4, salt=5)
        good = fp_in_shard(1, 4, salt=5)
        cache.store(bad, record_for("bad"))
        cache.store(good, record_for("good"))
        bad_path = cache._shards[0]._entry_path(bad)
        with open(bad_path, "w") as handle:
            handle.write('{"goal_name": "tampered"}')
        assert cache.lookup(bad) is None  # quarantined, not served
        assert cache.lookup(good) is not None  # sibling shard unaffected
        assert cache.stats.quarantined == 1
        assert cache.quarantined_entries() == [f"{bad}.json"]
        assert cache._shards[1].quarantined_entries() == []
        per_shard = cache.stats_dict()["per_shard"]
        assert per_shard[0]["quarantined_entries"] == 1
        assert per_shard[1]["quarantined_entries"] == 0


# ---------------------------------------------------------------------------
# Directories already on disk, and the artifacts a cache root carries
# ---------------------------------------------------------------------------


def write_entry(objects_dir, fingerprint, tag):
    """Hand-write one checksummed v2 entry under ``objects_dir``."""
    entry = {**record_for(tag), "fingerprint": fingerprint, "stored_at": 0.0}
    entry["checksum"] = record_checksum(entry)
    path = os.path.join(objects_dir, fingerprint[:2], f"{fingerprint}.json")
    os.makedirs(os.path.dirname(path))
    with open(path, "w") as handle:
        json.dump(entry, handle)


def write_meta(root, meta):
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, "meta.json"), "w") as handle:
        json.dump(meta, handle)


class TestLegacyUpgrade:
    """Directories in the v2 layout open in place, with no migration."""

    def test_plain_v2_directory_opens_with_one_shard(self, tmp_path):
        root = str(tmp_path / "plain")
        fingerprint = fp_in_shard(3, 4, salt=12)
        write_meta(root, {"format": CACHE_FORMAT_VERSION})  # pre-sharding meta
        write_entry(os.path.join(root, "objects"), fingerprint, "plain")
        cache = ResultCache(root)
        assert cache.shards == 1
        assert cache.lookup(fingerprint)["goal_name"] == "plain"
        with pytest.raises(ValueError):
            ResultCache(root, shards=4)

    def test_sharded_v2_directory_opens_with_pinned_count(self, tmp_path):
        root = str(tmp_path / "sharded")
        fingerprint = fp_in_shard(2, 4, salt=13)
        write_meta(root, {"format": CACHE_FORMAT_VERSION, "shards": 4})
        write_entry(os.path.join(root, "shards", "02", "objects"), fingerprint, "sharded")
        for shards in (None, 4):
            cache = ResultCache(root, shards=shards)
            assert cache.shards == 4
            assert cache.lookup(fingerprint)["goal_name"] == "sharded"
        with pytest.raises(ValueError):
            ResultCache(root, shards=1)

    def test_telemetry_records_shard_count(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"), shards=4)
        cache.store(fp_in_shard(0, 4, salt=9), record_for("t"))
        cache.record_run_telemetry({"wall_seconds": 1.0})
        telemetry = cache.telemetry()
        assert telemetry["runs"] == 1
        assert telemetry["last_run"]["shards"] == 4
        cache.record_run_telemetry({"wall_seconds": 1.0})
        assert cache.telemetry()["runs"] == 2


class TestEntryPoints:
    def test_repro_cache_env_keeps_the_pinned_layout(self, tmp_path, monkeypatch):
        """``run_table`` under ``REPRO_CACHE`` hits a 4-shard root in place."""
        root = str(tmp_path / "cache")
        bench = selected_benchmarks("table1")[0]
        job = job_for_goal(bench.goal, benchmark_config(bench, "resyn"), tag="seed")
        BatchScheduler(workers=1, cache=ResultCache(root, shards=4)).run([job])
        monkeypatch.setenv("REPRO_CACHE", root)
        monkeypatch.setattr("repro.benchsuite.runner.selected_benchmarks", lambda table: [bench])
        run_table("table1", ["resyn"], workers=1)
        last_run = ResultCache(root).telemetry()["last_run"]
        assert last_run["cache"]["cache_hits"] == 1
        assert last_run["cache"]["cache_misses"] == 0
        assert not os.path.exists(os.path.join(root, "objects"))

    def test_stats_command_names_shard_quarantine(self, tmp_path, capsys):
        root = str(tmp_path / "cache")
        cache = ResultCache(root, shards=2)
        bad = fp_in_shard(1, 2, salt=14)
        cache.store(bad, record_for("bad"))
        cache.store(fp_in_shard(0, 2, salt=14), record_for("good"))
        with open(cache._entry_path(bad), "w") as handle:
            handle.write('{"goal_name": "tampered"}')
        assert cache.lookup(bad) is None  # quarantined into shard 01
        assert service_main(["stats", root]) == 0
        out = capsys.readouterr().out
        assert "1 entries in 2 shard(s)" in out
        quarantine = os.path.join(os.path.abspath(root), "shards", "01", "quarantine")
        assert f"1 quarantined entries under {quarantine}\n" in out
        assert service_main(["stats", root, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["shards"] == 2 and payload["quarantined_entries"] == 1
