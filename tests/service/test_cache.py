"""Cache correctness: identical records on hit, content-sensitive keys.

The contract under test (see ``docs/service.rst``):

* a cache hit returns a record equal to what the first execution produced
  — within a process *and* through the disk tier;
* the fingerprint changes when any spec field changes (so a hit can never
  serve a different configuration's result);
* corrupted disk entries are recomputed, never trusted;
* uncacheable specs (live-generator seeds, custom runner backends) are
  computed normally, not keyed unsafely.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import JobSpec, RunResult, Sweep, TimingSimBackend, run_sweep
from repro.api.backends import get_backend
from repro.api.fingerprint import canonical_value, fingerprint_spec
from repro.cluster.spec import ClusterSpec
from repro.exceptions import FingerprintError
from repro.scheduling import build_sweep_plan
from repro.service import ResultCache, SweepService
from repro.stragglers.models import DeterministicDelay, ShiftedExponentialDelay


def make_spec(**overrides):
    cluster = ClusterSpec.homogeneous(8, ShiftedExponentialDelay(1.0, 0.5))
    spec = JobSpec(
        scheme={"name": "bcc", "load": 4},
        cluster=cluster,
        num_units=16,
        num_iterations=3,
        seed=0,
    )
    return spec.replace(**overrides) if overrides else spec


def make_sweep(spec=None, trials=2):
    return Sweep(
        spec or make_spec(),
        parameters={"scheme.load": [4, 8]},
        trials=trials,
        backend=TimingSimBackend(engine="auto"),
    )


def records_of(result):
    return [(r.cell, r.trial, r.result) for r in result]


class TestFingerprint:
    def test_equal_configurations_fingerprint_equally(self):
        assert make_spec().fingerprint() == make_spec().fingerprint()

    def test_construction_order_is_irrelevant(self):
        a = make_spec(scheme={"name": "bcc", "load": 4})
        b = make_spec(scheme={"load": 4, "name": "bcc"})
        assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize(
        "changes",
        [
            {"seed": 1},
            {"num_iterations": 4},
            {"num_units": 17},
            {"serialize_master_link": False},
            {"unit_size": 7},
            {"scheme": {"name": "bcc", "load": 5}},
            {"scheme": {"name": "uncoded"}},
            {"backend_options": {"engine": "loop"}},
            {"cluster": ClusterSpec.homogeneous(8, ShiftedExponentialDelay(1.0, 0.6))},
            {"cluster": ClusterSpec.homogeneous(8, DeterministicDelay(0.5))},
            {"cluster": ClusterSpec.homogeneous(9, ShiftedExponentialDelay(1.0, 0.5))},
        ],
    )
    def test_every_field_change_changes_the_fingerprint(self, changes):
        assert make_spec().fingerprint() != make_spec(**changes).fingerprint()

    def test_backend_identity_is_part_of_the_key(self):
        spec = make_spec()
        vector = spec.fingerprint(backend=TimingSimBackend(engine="vectorized"))
        loop = spec.fingerprint(backend=TimingSimBackend(engine="loop"))
        analytic = spec.fingerprint(backend=get_backend("analytic"))
        assert len({vector, loop, analytic}) == 3

    def test_seed_sequence_fingerprints_by_entropy_and_spawn_key(self):
        children = np.random.SeedSequence(7).spawn(2)
        a = make_spec(seed=children[0]).fingerprint()
        b = make_spec(seed=children[1]).fingerprint()
        again = make_spec(seed=np.random.SeedSequence(7).spawn(2)[0]).fingerprint()
        assert a != b
        assert a == again

    def test_live_generator_is_uncacheable(self):
        with pytest.raises(FingerprintError, match="generator"):
            make_spec(seed=np.random.default_rng(0)).fingerprint()

    def test_callable_is_uncacheable(self):
        with pytest.raises(FingerprintError, match="callable"):
            canonical_value(lambda spec: spec)

    def test_canonical_form_round_trips_through_json(self):
        form = canonical_value(make_spec())
        assert json.loads(json.dumps(form)) == form

    def test_fingerprint_survives_config_round_trip(self):
        scheme = {"name": "bcc", "load": 4}
        a = make_spec(scheme=scheme).fingerprint()
        b = make_spec(scheme=json.loads(json.dumps(scheme))).fingerprint()
        assert a == b

    def test_module_level_function_matches_method(self):
        spec = make_spec()
        assert spec.fingerprint() == fingerprint_spec(spec)


class TestCacheCorrectness:
    def test_hit_returns_identical_records(self):
        sweep = make_sweep()
        cache = ResultCache()
        first = run_sweep(sweep, cache=cache)
        assert cache.stats.hits == 0 and cache.stats.stores > 0
        second = run_sweep(sweep, cache=cache)
        assert records_of(second) == records_of(first)
        assert cache.stats.misses == cache.stats.stores
        assert cache.stats.hits == cache.stats.stores

    def test_cached_run_matches_uncached_run(self):
        sweep = make_sweep()
        cache = ResultCache()
        run_sweep(sweep, cache=cache)
        assert records_of(run_sweep(sweep, cache=cache)) == records_of(
            run_sweep(sweep)
        )

    def test_different_seeds_never_collide(self):
        cache = ResultCache()
        a = run_sweep(make_sweep(make_spec(seed=0)), cache=cache)
        b = run_sweep(make_sweep(make_spec(seed=1)), cache=cache)
        assert cache.stats.hits == 0
        assert records_of(a) != records_of(b)

    def test_record_mode_is_part_of_the_key(self):
        sweep = make_sweep()
        cache = ResultCache()
        run_sweep(sweep, cache=cache, record="full")
        full_stores = cache.stats.stores
        run_sweep(sweep, cache=cache, record="summary")
        assert cache.stats.hits == 0
        assert cache.stats.stores == 2 * full_stores

    def test_custom_runner_is_computed_not_cached(self):
        def runner(spec):
            draw = float(spec.rng().random())
            return RunResult(scheme_name="stub", backend="stub", extras={"draw": draw})

        sweep = Sweep(
            make_spec(), parameters={"scheme.load": [4, 8]}, trials=2, backend=runner
        )
        cache = ResultCache()
        result = run_sweep(sweep, cache=cache)
        assert cache.stats.uncacheable == len(records_of(result)) == 4
        assert cache.stats.stores == 0
        assert records_of(result) == records_of(run_sweep(sweep))
        service = SweepService(max_workers=2)
        served = service.submit(sweep, record="full")
        assert records_of(served) == records_of(result)
        assert service.cache.stats.uncacheable == 4
        assert service.cache.stats.stores == 0
        assert service.stats.tasks_executed == 4

    def test_seed_sequence_resubmission_is_all_hits(self):
        sweep = make_sweep(make_spec(seed=np.random.SeedSequence(3)))
        cache = ResultCache()
        first = run_sweep(sweep, cache=cache)
        stores = cache.stats.stores
        second = run_sweep(sweep, cache=cache)
        assert records_of(second) == records_of(first)
        assert cache.stats.hits == stores and cache.stats.stores == stores

    def test_batched_cell_with_generator_seed_is_cacheable(self):
        # A trial-batched cell runs at its spawned seeds only; the base
        # seed (here a live generator) must not make the cell uncacheable.
        spec = make_spec(scheme={"name": "uncoded"}, seed=np.random.default_rng(0))
        sweep = Sweep(spec, trials=2, backend=TimingSimBackend(engine="vectorized"))
        cache = ResultCache()
        plan = build_sweep_plan(sweep, backend=sweep.backend)
        assert [task.kind for task in plan.tasks] == ["cell"]
        assert plan.tasks[0].spec.seed is None
        run_sweep(sweep, cache=cache)
        assert (cache.stats.stores, cache.stats.uncacheable) == (1, 0)

    def test_frozen_and_per_trial_cells_never_share_an_entry(self):
        # The same bcc cells batch under both modes, at the same spawned
        # seeds; only the placement choice tells their results apart.
        sweep = make_sweep(trials=3)
        cache = ResultCache()
        always = run_sweep(sweep, trial_batching="always", cache=cache)
        auto = run_sweep(sweep, trial_batching="auto", cache=cache)
        assert cache.stats.hits == 0
        assert records_of(always) == records_of(run_sweep(sweep, trial_batching="always"))
        assert records_of(auto) == records_of(run_sweep(sweep, trial_batching="never"))
        assert records_of(auto) != records_of(always)

    def test_only_cell_keys_name_the_placement_choice(self):
        import dataclasses

        cache = ResultCache()
        backend = TimingSimBackend(engine="vectorized")
        for mode, kind in (("auto", "cell"), ("never", "trial")):
            sweep = make_sweep(trials=3)
            task = build_sweep_plan(sweep, backend=backend, trial_batching=mode).tasks[0]
            assert task.kind == kind
            flipped = dataclasses.replace(task, frozen_placement=not task.frozen_placement)
            assert (cache.task_key(task) != cache.task_key(flipped)) == (kind == "cell")

    def test_task_keys_differ_per_task(self):
        sweep = make_sweep()
        cache = ResultCache()
        plan = build_sweep_plan(sweep, backend=TimingSimBackend(engine="auto"))
        keys = [cache.task_key(task) for task in plan.tasks]
        assert None not in keys
        assert len(set(keys)) == len(keys)


class TestDiskTier:
    def test_disk_hit_reconstructs_equal_records(self, tmp_path):
        sweep = make_sweep()
        first = run_sweep(sweep, record="summary", cache=ResultCache(tmp_path))
        fresh = ResultCache(tmp_path)  # simulates a new process
        second = run_sweep(sweep, record="summary", cache=fresh)
        assert fresh.stats.misses == 0 and fresh.stats.hits > 0
        assert records_of(second) == records_of(first)

    def test_full_records_stay_memory_only(self, tmp_path):
        sweep = make_sweep()
        run_sweep(sweep, record="full", cache=ResultCache(tmp_path))
        assert list(tmp_path.glob("*.json")) == []

    def test_corrupted_disk_entry_is_recomputed(self, tmp_path):
        sweep = make_sweep()
        run_sweep(sweep, record="summary", cache=ResultCache(tmp_path))
        entries = sorted(tmp_path.glob("*.json"))
        assert entries
        entries[0].write_text("{ not json", encoding="utf-8")
        entries[1].write_text(json.dumps({"results": [{"bogus": 1}]}), encoding="utf-8")
        fresh = ResultCache(tmp_path)
        result = run_sweep(sweep, record="summary", cache=fresh)
        assert fresh.stats.disk_errors == 2
        assert fresh.stats.misses == 2
        assert records_of(result) == records_of(run_sweep(sweep, record="summary"))

    def test_cache_accepts_a_directory_path(self, tmp_path):
        sweep = make_sweep()
        first = run_sweep(sweep, record="summary", cache=str(tmp_path))
        second = run_sweep(sweep, record="summary", cache=str(tmp_path))
        assert records_of(second) == records_of(first)
        assert sorted(tmp_path.glob("*.json"))


class TestConcurrentWriters:
    """Two writers sharing a cache directory must never tear an entry.

    The regression: ``store`` used the fixed temp name ``{key}.tmp``, so a
    second writer of the same key could open the *first* writer's temp file
    mid-write and either writer's atomic ``replace`` could publish the other
    writer's half-written payload. Temp names are now unique per write
    (pid + process-wide counter).
    """

    @staticmethod
    def _seed_entry(directory):
        """One real (key, results) pair, produced by an actual sweep."""
        cache = ResultCache(directory)
        run_sweep(make_sweep(), record="summary", cache=cache)
        key = next(iter(cache._memory))
        return key, cache._memory[key]

    def test_tmp_names_are_unique_per_write_and_per_writer(self, tmp_path):
        cache_a = ResultCache(tmp_path)
        cache_b = ResultCache(tmp_path)
        key = "deadbeef" * 8
        names = {
            cache_a._tmp_path(key),
            cache_a._tmp_path(key),
            cache_b._tmp_path(key),
        }
        # Before the fix all three collapsed to the same "{key}.tmp" path.
        assert len(names) == 3
        for name in names:
            assert name.name.startswith(key)
            assert name.suffix == ".tmp"

    def test_tmp_name_embeds_the_pid(self, tmp_path):
        import os

        tmp = ResultCache(tmp_path)._tmp_path("a" * 64)
        assert str(os.getpid()) in tmp.name

    def test_simultaneous_stores_of_the_same_key(self, tmp_path):
        import threading

        key, results = self._seed_entry(tmp_path / "seed")
        shared = tmp_path / "shared"
        writers = [ResultCache(shared) for _ in range(2)]
        rounds = 25
        barrier = threading.Barrier(len(writers))
        errors = []

        def hammer(cache):
            try:
                for _ in range(rounds):
                    barrier.wait()
                    cache.store(key, results)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(cache,)) for cache in writers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Whatever the interleaving, the published entry is one writer's
        # complete payload: a fresh cache (new process, empty memory tier)
        # must decode it to the exact records either writer stored.
        fresh = ResultCache(shared)
        loaded = fresh.lookup(key)
        assert fresh.stats.disk_errors == 0
        assert loaded == list(results)
