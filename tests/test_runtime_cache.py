"""Content-addressed result store: hits, misses, corruption, eviction."""

from __future__ import annotations

import os
import pickle

import pytest

from repro.obs import Observation, observing
from repro.runtime.cache import MISS, CacheStats, ResultCache
from repro.runtime.task import CODE_EPOCH, CacheKey, canonical_json, derive_seed


def key_for(name: str, **params) -> CacheKey:
    return CacheKey(
        dataset="d" * 64,
        algorithm=canonical_json({"name": name, "params": params}),
        metric="",
    )


class TestCacheKey:
    def test_digest_is_stable_across_processes(self):
        # The digest must not depend on PYTHONHASHSEED or dict order.
        key = CacheKey(dataset="abc", algorithm='{"k":5,"name":"datafly"}', metric="lm")
        assert key.digest() == CacheKey(
            metric="lm", algorithm='{"k":5,"name":"datafly"}', dataset="abc"
        ).digest()

    def test_digest_sensitive_to_every_component(self):
        base = CacheKey(dataset="a", algorithm="b", metric="c")
        variants = [
            CacheKey(dataset="x", algorithm="b", metric="c"),
            CacheKey(dataset="a", algorithm="x", metric="c"),
            CacheKey(dataset="a", algorithm="b", metric="x"),
            CacheKey(dataset="a", algorithm="b", metric="c", epoch="999"),
        ]
        digests = {base.digest()} | {v.digest() for v in variants}
        assert len(digests) == 5

    def test_default_epoch_is_current(self):
        assert CacheKey(dataset="a", algorithm="b").epoch == CODE_EPOCH


class TestResultCache:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "store")
        key = key_for("datafly", k=5)
        assert cache.get(key) is MISS
        cache.put(key, {"rows": [1, 2, 3]})
        assert cache.get(key) == {"rows": [1, 2, 3]}
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.writes == 1

    def test_distinct_keys_do_not_collide(self, tmp_path):
        cache = ResultCache(tmp_path / "store")
        cache.put(key_for("datafly", k=5), "a")
        cache.put(key_for("datafly", k=6), "b")
        assert cache.get(key_for("datafly", k=5)) == "a"
        assert cache.get(key_for("datafly", k=6)) == "b"
        assert len(cache) == 2

    def test_corrupt_entry_recovers_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "store")
        key = key_for("mondrian", k=2)
        cache.put(key, "value")
        path = cache.path_for(key)
        path.write_bytes(b"not a pickle")
        assert cache.get(key) is MISS
        assert cache.stats.corrupt == 1
        assert not path.exists()
        # The store heals: a rewrite works and hits again.
        cache.put(key, "value2")
        assert cache.get(key) == "value2"

    def test_key_mismatch_treated_as_corruption(self, tmp_path):
        # An entry whose stored key does not match the requested key must
        # never be returned (content addressing would be lying).
        cache = ResultCache(tmp_path / "store")
        key_a, key_b = key_for("a"), key_for("b")
        cache.put(key_a, "value-a")
        path_b = cache.path_for(key_b)
        path_b.parent.mkdir(parents=True, exist_ok=True)
        path_b.write_bytes(cache.path_for(key_a).read_bytes())
        assert cache.get(key_b) is MISS
        assert cache.stats.corrupt == 1

    def test_lru_eviction_under_size_cap(self, tmp_path):
        cache = ResultCache(tmp_path / "store", max_bytes=1)
        first, second = key_for("first"), key_for("second")
        cache.put(first, "x" * 100)
        cache.put(second, "y" * 100)
        # A 1-byte cap cannot hold both; the older entry goes first, the
        # entry just written is protected.
        assert cache.stats.evictions >= 1
        assert cache.get(second) == "y" * 100

    def test_eviction_prefers_least_recently_used(self, tmp_path):
        cache = ResultCache(tmp_path / "store")
        old, fresh = key_for("old"), key_for("fresh")
        cache.put(old, "o")
        cache.put(fresh, "f")
        past = 1_000_000.0
        os.utime(cache.path_for(old), (past, past))
        # Cap at the current two-entry size: adding a third must evict
        # exactly one entry, and recency says it is `old`.
        cache.max_bytes = cache.size_bytes()
        cache.put(key_for("new"), "n")
        assert cache.get(old) is MISS
        assert cache.get(fresh) == "f"

    def test_clear_empties_the_store(self, tmp_path):
        cache = ResultCache(tmp_path / "store")
        cache.put(key_for("x"), 1)
        cache.put(key_for("y"), 2)
        cache.clear()
        assert len(cache) == 0
        assert cache.get(key_for("x")) is MISS

    def test_entries_are_self_describing(self, tmp_path):
        # Stored envelopes carry their own key so audits (ART010) can
        # verify content addresses offline.
        cache = ResultCache(tmp_path / "store")
        key = key_for("datafly", k=3)
        cache.put(key, [1, 2])
        with cache.path_for(key).open("rb") as handle:
            entry = pickle.load(handle)
        assert set(entry) == {"key", "value"}
        assert CacheKey(**entry["key"]).digest() == key.digest()

    def test_stats_snapshot(self, tmp_path):
        cache = ResultCache(tmp_path / "store")
        cache.get(key_for("miss"))
        cache.put(key_for("miss"), 0)
        snapshot = cache.stats.snapshot()
        assert snapshot == {
            "hits": 0,
            "misses": 1,
            "writes": 1,
            "evictions": 0,
            "corrupt": 0,
        }
        assert isinstance(cache.stats, CacheStats)

    def test_traffic_counters_count_entry_bytes(self, tmp_path):
        cache = ResultCache(tmp_path / "store")
        observation = Observation()
        with observing(observation):
            cache.get(key_for("value"))
            path = cache.put(key_for("value"), list(range(100)))
            assert cache.get(key_for("value")) == list(range(100))
            assert cache.get(key_for("value")) == list(range(100))
        counters = observation.metrics.snapshot()["counters"]
        size = path.stat().st_size
        assert counters["cache.written_bytes"] == size
        assert counters["cache.read_bytes"] == 2 * size


class TestDeriveSeed:
    def test_deterministic_and_task_dependent(self):
        assert derive_seed(42, "anonymize:a") == derive_seed(42, "anonymize:a")
        assert derive_seed(42, "anonymize:a") != derive_seed(42, "anonymize:b")
        assert derive_seed(42, "anonymize:a") != derive_seed(43, "anonymize:a")

    def test_fits_in_63_bits(self):
        for task in ("a", "b", "c", "anonymize:genetic[k=5]"):
            seed = derive_seed(7, task)
            assert 0 <= seed < 2**63

    def test_independent_of_scheduling_order(self):
        # Seeds derive from (study seed, task id) only, so parallel and
        # serial execution see identical streams.
        forward = [derive_seed(1, f"t{i}") for i in range(20)]
        backward = [derive_seed(1, f"t{i}") for i in reversed(range(20))]
        assert forward == list(reversed(backward))
