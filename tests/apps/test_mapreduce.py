"""Tests for the MapReduce case study."""

import numpy as np
import pytest

import repro.apps.mapreduce.common as mr_common
import repro.apps.mapreduce.decoupled as mr_decoupled
import repro.apps.mapreduce.reference as mr_reference
from repro.apps.mapreduce import (
    MapReduceConfig,
    RealHistogram,
    SummaryHistogram,
    decoupled_worker,
    expected_distinct_keys,
    merge_cost_seconds,
    rank_file,
    reference_worker,
    roles,
)
from repro.apps.mapreduce.common import empty_histogram, map_chunk
from repro.simmpi import beskow, quiet_testbed, run
from repro.workloads.corpus import FileSpec, merge_histograms


def _cfg(**kw):
    base = dict(nprocs=8, alpha=0.25, numeric=True)
    base.update(kw)
    return MapReduceConfig(**base)


def _ground_truth(cfg):
    """Sequentially computed histogram over all files and chunks."""
    parts = []
    for file_idx in range(cfg.nprocs):
        f = rank_file(cfg, file_idx)
        for chunk in range(cfg.nchunks):
            parts.append(map_chunk(cfg, f, file_idx, chunk).table)
    return merge_histograms(parts)


def test_reference_matches_ground_truth():
    cfg = _cfg()
    r = run(reference_worker, 8, args=(cfg,), machine=quiet_testbed())
    assert r.values[0]["result"].table == _ground_truth(cfg)


def test_decoupled_matches_ground_truth():
    cfg = _cfg()
    r = run(decoupled_worker, 8, args=(cfg,), machine=quiet_testbed())
    master = [v for v in r.values if v["role"] == "master"][0]
    assert master["result"].table == _ground_truth(cfg)


def test_reference_and_decoupled_agree_under_noise():
    cfg = _cfg()
    a = run(reference_worker, 8, args=(cfg,), machine=beskow())
    b = run(decoupled_worker, 8, args=(cfg,), machine=beskow())
    master = [v for v in b.values if v["role"] == "master"][0]
    assert a.values[0]["result"].table == master["result"].table


def test_roles_partition():
    cfg = MapReduceConfig(nprocs=64, alpha=0.0625)
    tally = {"map": 0, "reduce": 0, "master": 0}
    for r in range(64):
        tally[roles(cfg, r)] += 1
    assert tally["master"] == 1
    assert tally["reduce"] == cfg.n_reduce - 1
    assert tally["map"] == cfg.n_map
    assert sum(tally.values()) == 64


def test_group_sizes_match_alpha():
    for alpha in (0.125, 0.0625, 0.03125):
        cfg = MapReduceConfig(nprocs=512, alpha=alpha)
        assert cfg.n_reduce == pytest.approx(alpha * 512, abs=1)
        assert cfg.n_map + cfg.n_reduce == 512


def test_decoupled_beats_reference_scale_mode():
    """The Fig. 5 headline at a laptop-friendly size."""
    cfg = MapReduceConfig(nprocs=128, alpha=0.0625)
    tref = max(v["elapsed"] for v in
               run(reference_worker, 128, args=(cfg,),
                   machine=beskow()).values)
    tdec = max(v["elapsed"] for v in
               run(decoupled_worker, 128, args=(cfg,),
                   machine=beskow()).values)
    assert tdec < tref


def test_irregular_file_sizes():
    cfg = MapReduceConfig(nprocs=4)
    sizes = {rank_file(cfg, i).nbytes for i in range(50)}
    assert len(sizes) == 50  # all distinct: irregular input
    lo = cfg.bytes_per_rank * (1 - cfg.file_spread)
    hi = cfg.bytes_per_rank * (1 + cfg.file_spread)
    assert all(lo <= s <= hi for s in sizes)


def _per_key_file(cfg, map_index):
    """rank_file from its own generator: the keyed table's reference."""
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=cfg.seed, spawn_key=(7, map_index)))
    spread = cfg.file_spread
    return FileSpec(map_index, int(cfg.bytes_per_rank
                                   * rng.uniform(1 - spread, 1 + spread)))


def _per_key_jitter(cfg, map_index, chunk):
    """chunk_map_jitter from its own generator."""
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=cfg.seed, spawn_key=(11, map_index, chunk)))
    return float(rng.lognormal(0.0, cfg.chunk_jitter_sigma))


@pytest.mark.parametrize("seed", [2017, 88])
@pytest.mark.parametrize("worker", [decoupled_worker, reference_worker])
def test_jittered_run_matches_per_key_generators(monkeypatch, worker, seed):
    """The default-jitter path end to end: the keyed tables must time
    every chunk exactly as one generator per draw would.  The traced
    map intervals catch a wrong draw off the critical path, which the
    run totals alone would not show."""
    cfg = MapReduceConfig(nprocs=32, nchunks=4, seed=seed)

    def outcome():
        r = run(worker, cfg.nprocs, args=(cfg,), machine=beskow(),
                trace=True)
        return (r.elapsed, r.finish_times, r.events, r.messages, r.bytes,
                r.tracer.by_label("map"))

    shipped = outcome()
    jittered = []

    def jitter(*args):
        jittered.append(args)
        return _per_key_jitter(*args)

    monkeypatch.setattr(mr_common, "chunk_map_jitter", jitter)
    monkeypatch.setattr(mr_decoupled, "rank_file", _per_key_file)
    monkeypatch.setattr(mr_reference, "rank_file", _per_key_file)
    assert outcome() == shipped
    assert len(jittered) == cfg.nprocs * cfg.nchunks


def test_rank_file_rejects_negative_index():
    with pytest.raises(ValueError, match="map_index"):
        rank_file(MapReduceConfig(nprocs=4), -1)


def test_summary_histogram_merge_invariants():
    a = SummaryHistogram(1000, 5000, vocab=10_000)
    b = SummaryHistogram(2000, 7000, vocab=10_000)
    m = a.merge(b)
    assert m.words == 12_000                   # words add exactly
    assert max(a.keys, b.keys) <= m.keys <= a.keys + b.keys
    assert m.keys <= 10_000


def test_summary_histogram_merge_empty_is_identity():
    a = SummaryHistogram(1000, 5000, vocab=10_000)
    e = SummaryHistogram(0, 0, vocab=10_000)
    m = a.merge(e)
    assert m.keys == pytest.approx(a.keys)
    assert m.words == a.words


def test_summary_vocab_mismatch_rejected():
    with pytest.raises(ValueError):
        SummaryHistogram(1, 1, 10).merge(SummaryHistogram(1, 1, 20))


def test_real_histogram_wire_size():
    h = RealHistogram({"ab": 3, "cdef": 1})
    assert h.__wire_nbytes__() == (2 + 8) + (4 + 8)


def test_expected_distinct_keys_limits():
    assert expected_distinct_keys(0, 100) == 0.0
    assert expected_distinct_keys(10**9, 100) == pytest.approx(100, rel=1e-6)
    k = expected_distinct_keys(50, 100)
    assert 0 < k < 50 + 1e-9
    with pytest.raises(ValueError):
        expected_distinct_keys(10, 0)


def test_merge_cost_uses_smaller_side():
    cfg = MapReduceConfig(nprocs=4)
    a = SummaryHistogram(100, 100, 1000)
    b = SummaryHistogram(10, 10, 1000)
    assert merge_cost_seconds(a, b, cfg) == 10 * cfg.merge_seconds_per_entry


@pytest.mark.parametrize("field, value", [
    ("nprocs", 1),
    ("alpha", 0.0),
    ("nchunks", 0),
    ("bytes_per_rank", 0),
    # each of these used to be accepted and then break the run (or, for
    # master_update_elements, silently behave as 1)
    ("chunk_jitter_sigma", -0.1),
    ("file_spread", -0.2),
    ("file_spread", 1.5),
    ("map_seconds_per_byte", -1e-7),
    ("merge_seconds_per_entry", -1e-9),
    ("vocabulary", 0),
    ("master_update_elements", 0),
])
def test_config_validation(field, value):
    kw = {"nprocs": 4, field: value}
    with pytest.raises(ValueError, match=field):
        MapReduceConfig(**kw)


def test_reference_timing_breakdown_sums():
    cfg = MapReduceConfig(nprocs=16, alpha=0.25)
    r = run(reference_worker, 16, args=(cfg,), machine=beskow())
    for v in r.values:
        total = v["map_time"] + v["keys_time"] + v["reduce_time"]
        assert total == pytest.approx(v["elapsed"], rel=1e-6)


def test_master_receives_expected_updates():
    cfg = _cfg(master_update_elements=2)
    r = run(decoupled_worker, 8, args=(cfg,), machine=quiet_testbed())
    master = [v for v in r.values if v["role"] == "master"][0]
    reducers = [v for v in r.values if v["role"] == "reduce"]
    # every reducer pushed at least its final partial
    assert master["updates"] >= len(reducers)
