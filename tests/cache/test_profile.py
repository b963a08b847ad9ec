"""Trace profiles: stack-distance correctness, payloads, persistence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import profile as profile_mod
from repro.cache.lru import LRUCache
from repro.cache.profile import (
    TraceProfile,
    build_profile,
    clear_memo,
    get_profile,
    kernels_enabled,
    profile_key,
    set_active_cache,
)
from repro.campaign.cache import ResultCache
from repro.sim.prefill import warm_start_pages
from repro.traces.trace import Trace


def make_trace(seed: int = 0, n: int = 400, distinct: int = 40) -> Trace:
    rng = np.random.default_rng(seed)
    return Trace(
        times=np.sort(rng.uniform(0.0, 100.0, n)),
        pages=rng.integers(0, distinct, n).astype(np.int64),
        page_size=4096,
    )


@pytest.fixture(autouse=True)
def _isolated_backend():
    previous = set_active_cache(None)
    clear_memo()
    yield
    set_active_cache(previous)
    clear_memo()


class TestHitMask:
    @pytest.mark.parametrize("capacity", [0, 1, 3, 8, 40])
    def test_predicts_prefilled_lru(self, capacity):
        """hit_mask(m) == the hits of an m-page LRU prefilled like the sim."""
        trace = make_trace(seed=1)
        profile = build_profile(trace, warm_start=True)
        cache = LRUCache(capacity)
        for page in warm_start_pages(trace):
            cache.load(page)  # distinct pages; the tail stays resident
        expected = np.array(
            [cache.access(int(p)) for p in trace.pages], dtype=bool
        )
        assert np.array_equal(profile.hit_mask(capacity), expected)

    @pytest.mark.parametrize("capacity", [1, 8])
    def test_predicts_cold_lru(self, capacity):
        trace = make_trace(seed=2)
        profile = build_profile(trace, warm_start=False)
        cache = LRUCache(capacity)
        expected = np.array(
            [cache.access(int(p)) for p in trace.pages], dtype=bool
        )
        assert np.array_equal(profile.hit_mask(capacity), expected)


class TestVectorizedCounts:
    def test_hit_counts_match_hit_mask(self):
        """The searchsorted fast path == summing the boolean mask."""
        trace = make_trace(seed=21)
        profile = build_profile(trace, warm_start=True)
        capacities = np.array([0, 1, 2, 5, 17, 40, 1000], dtype=np.int64)
        counts = profile.hit_counts(capacities)
        expected = np.array(
            [int(profile.hit_mask(int(m)).sum()) for m in capacities],
            dtype=np.int64,
        )
        assert np.array_equal(counts, expected)
        misses = profile.miss_counts(capacities)
        assert np.array_equal(misses, len(profile) - expected)

    def test_cold_profile_counts(self):
        trace = make_trace(seed=22)
        profile = build_profile(trace, warm_start=False)
        capacities = np.array([3, 9, 30])
        expected = np.array(
            [int(profile.hit_mask(int(m)).sum()) for m in capacities]
        )
        assert np.array_equal(profile.hit_counts(capacities), expected)

    def test_loop_misses_everything_below_its_length(self):
        """LRU's pathological case: a 3-page loop misses every access
        below 3 pages and only its 3 cold misses from 3 pages up."""
        trace = Trace(
            times=np.arange(30, dtype=float),
            pages=np.array([0, 1, 2] * 10, dtype=np.int64),
            page_size=4096,
        )
        profile = build_profile(trace, warm_start=False)
        misses = profile.miss_counts([0, 1, 2, 3, 100])
        assert misses.tolist() == [30, 30, 30, 3, 3]

    def test_sorted_depths_cached_and_frozen(self):
        profile = build_profile(make_trace(seed=23))
        ordered = profile.sorted_depths()
        assert profile.sorted_depths() is ordered
        assert not ordered.flags.writeable
        assert np.array_equal(ordered, np.sort(profile.depths))


class TestMemoCapacity:
    @pytest.mark.parametrize("value,expected", [
        ("", 8), ("32", 32), ("1", 1),
        ("0", 8), ("-4", 8), ("lots", 8), ("  16  ", 16),
    ])
    def test_env_parsing(self, monkeypatch, value, expected):
        monkeypatch.setenv(profile_mod.PROFILE_MEMO_ENV, value)
        assert profile_mod.memo_capacity() == expected

    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv(profile_mod.PROFILE_MEMO_ENV, raising=False)
        assert profile_mod.memo_capacity() == profile_mod.DEFAULT_MEMO_CAPACITY

    def test_env_widens_the_memo(self, monkeypatch):
        """With the env raised, a round-robin wider than the default
        stays fully memoized (no rebuilds on the second pass)."""
        monkeypatch.setenv(profile_mod.PROFILE_MEMO_ENV, "16")
        traces = [make_trace(seed=100 + i, n=50) for i in range(12)]
        first = [get_profile(t) for t in traces]
        second = [get_profile(t) for t in traces]
        assert all(a is b for a, b in zip(first, second))

    def test_small_capacity_evicts_lru(self, monkeypatch):
        monkeypatch.setenv(profile_mod.PROFILE_MEMO_ENV, "2")
        traces = [make_trace(seed=200 + i, n=50) for i in range(3)]
        first = [get_profile(t) for t in traces]
        # Oldest entry fell out; the two newest are still memoized.
        assert get_profile(traces[0]) is not first[0]
        assert get_profile(traces[2]) is first[2]


class TestContentAddress:
    def test_key_separates_warm_and_cold(self):
        trace = make_trace(seed=4)
        assert profile_key(trace, True) != profile_key(trace, False)

    def test_key_separates_traces(self):
        assert profile_key(make_trace(seed=5), True) != profile_key(
            make_trace(seed=6), True
        )


class TestFingerprintCache:
    """Fingerprints are kept only on traces whose arrays cannot change."""

    @pytest.fixture
    def hashes(self, monkeypatch):
        calls = []
        original = profile_mod._hash_trace

        def counting(trace):
            calls.append(trace)
            return original(trace)

        monkeypatch.setattr(profile_mod, "_hash_trace", counting)
        return calls

    def test_frozen_trace_hashed_once(self, hashes):
        writable = make_trace(seed=7)
        frozen = make_trace(seed=7).freeze()
        assert profile_mod.trace_fingerprint(frozen) == (
            profile_mod.trace_fingerprint(writable)
        )
        assert profile_key(frozen, True) == profile_key(frozen, True)
        assert len(hashes) == 2  # one per trace

    def test_in_place_edit_changes_a_writable_fingerprint(self, hashes):
        trace = make_trace(seed=7)
        before = profile_mod.trace_fingerprint(trace)
        key = profile_key(trace, True)
        trace.pages[0] += 1
        assert profile_mod.trace_fingerprint(trace) != before
        assert profile_key(trace, True) != key
        assert len(hashes) == 4

    def test_read_only_view_of_writable_base_not_cached(self, hashes):
        source = make_trace(seed=7)
        base = source.pages.copy()
        view = base[:]
        view.setflags(write=False)
        trace = Trace(times=source.times, pages=view, page_size=4096)
        trace.times.setflags(write=False)
        assert trace.pages is view and not trace.immutable
        before = profile_mod.trace_fingerprint(trace)
        base[0] += 1
        assert profile_mod.trace_fingerprint(trace) != before


class TestPayload:
    def test_round_trip(self):
        trace = make_trace(seed=7)
        profile = build_profile(trace)
        back = TraceProfile.from_payload(profile.to_payload(), profile.key)
        assert back is not None
        assert back.warm_start == profile.warm_start
        assert np.array_equal(back.depths, profile.depths)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p.pop("depths"),
            lambda p: p.update(depths="!!not base64!!"),
            lambda p: p.update(schema=999),
            lambda p: p.update(kind="something_else"),
            lambda p: p.update(n=5),
        ],
    )
    def test_rejects_corrupt_payloads(self, mutate):
        profile = build_profile(make_trace(seed=8))
        payload = profile.to_payload()
        mutate(payload)
        assert TraceProfile.from_payload(payload, profile.key) is None


class TestGetProfile:
    def test_memoized(self):
        trace = make_trace(seed=9)
        first = get_profile(trace)
        assert get_profile(trace) is first

    def test_persists_through_result_cache(self, tmp_path, monkeypatch):
        trace = make_trace(seed=10)
        set_active_cache(ResultCache(tmp_path))
        built = get_profile(trace)
        clear_memo()
        # A rebuild would call the tracker again; poison it to prove the
        # second lookup decodes the cached payload instead.
        monkeypatch.setattr(
            profile_mod,
            "build_profile",
            lambda *a, **k: pytest.fail("profile was rebuilt, not recalled"),
        )
        recalled = get_profile(trace)
        assert np.array_equal(recalled.depths, built.depths)
        assert recalled.key == built.key

    def test_corrupt_cache_entry_falls_back_to_build(self, tmp_path):
        trace = make_trace(seed=11)
        cache = ResultCache(tmp_path)
        cache.put(profile_key(trace, True), {"kind": "garbage"})
        set_active_cache(cache)
        profile = get_profile(trace)
        assert len(profile) == trace.num_accesses

    def test_explicit_none_skips_backend(self, tmp_path):
        trace = make_trace(seed=12)
        cache = ResultCache(tmp_path)
        set_active_cache(cache)
        get_profile(trace, cache=None)
        assert cache.get(profile_key(trace, True)) is None

    def test_set_active_cache_accepts_path_and_restores(self, tmp_path):
        previous = set_active_cache(tmp_path)
        assert previous is None
        installed = profile_mod.active_cache()
        assert isinstance(installed, ResultCache)
        assert installed.root == tmp_path
        assert set_active_cache(previous) is installed


class TestKillSwitch:
    @pytest.mark.parametrize("value,enabled", [
        ("", True), ("1", True), ("on", True),
        ("0", False), ("off", False), ("False", False), ("no", False),
    ])
    def test_env_parsing(self, monkeypatch, value, enabled):
        monkeypatch.setenv("REPRO_KERNELS", value)
        assert kernels_enabled() is enabled
