"""Tests for the perf-benchmark subsystem (repro.bench.perf)."""

import json
import os

import pytest

from repro.bench import perf
from repro.bench.cli import main as cli_main


def test_scenario_registry_is_well_formed():
    assert set(perf.DEFAULT_SCENARIOS) <= set(perf.SCENARIOS)
    for name, scenario in perf.SCENARIOS.items():
        assert scenario.name == name
        assert scenario.nprocs > 0
        assert scenario.describe


def test_unknown_scenario_rejected():
    with pytest.raises(perf.PerfError, match="unknown scenario"):
        perf.run_scenario("nope")
    with pytest.raises(perf.PerfError, match="unknown variant"):
        perf.run_scenario("quickstart", "warp")


def test_quickstart_fast_record_fields():
    rec = perf.run_scenario("quickstart", "fast")
    assert rec.scenario == "quickstart"
    assert rec.variant == "fast"
    assert rec.events > 0
    assert rec.wall_s > 0
    assert rec.events_per_sec > 0
    assert rec.messages > 0
    assert rec.peak_unexpected >= 1
    assert len(rec.digest) == 64


def test_quickstart_bit_identical_to_oracle():
    """The tentpole invariant: fast path == slow-path oracle on every
    virtual-time observable."""
    fast, oracle = perf.verify_against_oracle("quickstart")
    assert fast.digest == oracle.digest
    assert fast.virtual_elapsed == oracle.virtual_elapsed
    assert fast.messages == oracle.messages
    assert fast.bytes == oracle.bytes


def test_repeats_assert_determinism():
    rec1 = perf.run_scenario("quickstart", "fast", repeats=2)
    rec2 = perf.run_scenario("quickstart", "fast")
    assert rec1.digest == rec2.digest


def test_golden_roundtrip(tmp_path):
    rec = perf.run_scenario("quickstart", "fast")
    golden = tmp_path / "quickstart.json"
    perf.write_golden(rec, str(golden))
    perf.check_golden(rec, str(golden))  # must not raise
    # perturb one virtual field -> must fail
    data = json.loads(golden.read_text())
    data["messages"] += 1
    golden.write_text(json.dumps(data))
    with pytest.raises(perf.PerfError, match="differ from golden"):
        perf.check_golden(rec, str(golden))


def test_golden_scenario_name_guard(tmp_path):
    rec = perf.run_scenario("quickstart", "fast")
    golden = tmp_path / "wrong.json"
    golden.write_text(json.dumps({"scenario": "fig5-256"}))
    with pytest.raises(perf.PerfError, match="pins scenario"):
        perf.check_golden(rec, str(golden))


def test_suite_payload_shape(tmp_path):
    payload = perf.run_suite(["quickstart"], check_oracle=False, repeats=1)
    assert payload["meta"]["schema"] == perf.SCHEMA
    assert payload["meta"]["cpu_count"] == os.cpu_count()
    entry = payload["scenarios"]["quickstart"]
    assert entry["fast"]["events_per_sec"] > 0
    assert "quickstart" in perf.render_report(payload)
    path = perf.save_payload(payload, out_dir=str(tmp_path))
    assert path.endswith("BENCH_perf.json")
    on_disk = json.loads(open(path).read())
    assert on_disk["scenarios"]["quickstart"]["fast"]["events"] == \
        entry["fast"]["events"]


def test_committed_quickstart_golden_matches():
    """CI's quickstart golden gate, run as a unit test too: the committed
    golden must match what the simulator produces today."""
    golden = os.path.join(os.path.dirname(__file__), "..", "..",
                          "benchmarks", "golden", "quickstart_perf.json")
    rec = perf.run_scenario("quickstart", "fast")
    perf.check_golden(rec, golden)


def test_committed_fault_recovery_golden_matches():
    """CI's fault-recovery golden gate, run as a unit test too: the
    crash+recover scenario's virtual-time digest must match the
    committed golden — recovery-timing drift fails exactly like
    fabric drift."""
    golden = os.path.join(os.path.dirname(__file__), "..", "..",
                          "benchmarks", "golden",
                          "fault_recovery_perf.json")
    rec = perf.run_scenario("fault-recovery", "fast")
    perf.check_golden(rec, golden)


def test_fault_recovery_scenario_has_no_oracle_leg():
    scenario = perf.SCENARIOS["fault-recovery"]
    assert scenario.slow_path == "none"
    with pytest.raises(perf.PerfError, match="no oracle leg"):
        perf.run_scenario("fault-recovery", "oracle")


def test_cli_write_and_check_golden(tmp_path, capsys):
    golden = str(tmp_path / "g.json")
    assert cli_main(["perf", "--scenario", "quickstart",
                     "--write-golden", golden]) == 0
    assert cli_main(["perf", "--scenario", "quickstart",
                     "--check-golden", golden]) == 0
    out = capsys.readouterr().out
    assert "golden check OK" in out


def test_cli_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        cli_main(["perf", "--scenario", "not-a-scenario"])


def test_placement_scenarios_diverge_under_fat_tree():
    """The acceptance claim of the placement subsystem: partitioned vs
    colocated reduce groups produce measurably different virtual times
    under fat-tree contention (same workload, same fabric)."""
    part = perf.run_scenario("fig5-placement", "fast")
    colo = perf.run_scenario("fig5-colocated", "fast")
    assert part.messages == colo.messages   # identical traffic...
    assert part.bytes == colo.bytes
    # ...but the partitioned layout pays the fabric: >10% slower
    assert part.virtual_elapsed > colo.virtual_elapsed * 1.10


def test_fabric_scenarios_pin_engine_oracle():
    """Topology scenarios run the oracle leg with the seed engine and
    mailbox but keep their own fabric (slow_path='core')."""
    scenario = perf.SCENARIOS["fabric-contention"]
    assert scenario.slow_path == "core"
    kwargs = perf._slow_path_kwargs(scenario)
    assert "network_factory" not in kwargs
    assert set(kwargs) == {"engine_factory", "mailbox_factory"}
    fast, oracle = perf.verify_against_oracle("fabric-contention")
    assert fast.digest == oracle.digest


def test_committed_fabric_contention_golden_matches():
    """CI's fabric-drift gate, run as a unit test too."""
    golden = os.path.join(os.path.dirname(__file__), "..", "..",
                          "benchmarks", "golden",
                          "fabric_contention_perf.json")
    rec = perf.run_scenario("fabric-contention", "fast")
    perf.check_golden(rec, golden)


def test_committed_fig5_placement_golden_matches():
    """The group-aware placement gate: fig5-placement partitions the
    reduce groups across a fat-tree, so its golden pins uplink
    contention under a non-block node map."""
    golden = os.path.join(os.path.dirname(__file__), "..", "..",
                          "benchmarks", "golden",
                          "fig5_placement_perf.json")
    rec = perf.run_scenario("fig5-placement", "fast")
    perf.check_golden(rec, golden)


def test_committed_fig7_pcomm_golden_matches():
    """The stream-consumer gate: fig7-pcomm's consumers read their
    streams through ``operate_pending`` and ``recv_element`` with TERMs,
    which its slow-path leg shares, so only a golden catches drift."""
    golden = os.path.join(os.path.dirname(__file__), "..", "..",
                          "benchmarks", "golden", "fig7_pcomm_perf.json")
    rec = perf.run_scenario("fig7-pcomm", "fast")
    perf.check_golden(rec, golden)


def test_profile_layers():
    prof = perf.profile_scenario("quickstart", top_n=3)
    assert prof["total_s"] > 0
    assert "engine" in prof["layers_s"]
    assert all(len(v) <= 3 for v in prof["top"].values())


def test_golden_scenarios_scans_committed_files():
    golden = perf.golden_scenarios()
    assert golden["quickstart"] == "quickstart_perf.json"
    assert golden["fault-recovery"] == "fault_recovery_perf.json"
    assert perf.golden_scenarios("/nonexistent") == {}


def test_list_scenarios_enumerates_everything():
    text = perf.list_scenarios()
    for name, s in perf.SCENARIOS.items():
        assert name in text
        assert s.describe in text
    assert "quickstart_perf.json" in text
    assert "opt-in" in text    # fig5-4096 is not in the default suite


def test_cli_perf_list(capsys):
    assert cli_main(["perf", "--list"]) == 0
    out = capsys.readouterr().out
    assert "bench perf scenarios" in out
    assert "fig5-4096" in out
    with pytest.raises(SystemExit, match="does not run"):
        cli_main(["perf", "--list", "--scenario", "quickstart"])
