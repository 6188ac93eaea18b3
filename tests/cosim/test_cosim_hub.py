"""The coupled-hub workload: exactly-once delivery, scale-ratio math,
and deterministic recovery from a crashed translator rank."""

import json
import os
import subprocess
import sys
from collections import Counter

import pytest

import repro
from repro.cosim import (
    BPort,
    CosimConfig,
    HubSpec,
    build_graphs,
    cosim_worker,
    plan_layout,
)
from repro.simmpi import quiet_testbed
from repro.simmpi.errors import SimMPIError
from repro.simmpi.launcher import run

SPEC = HubSpec(size=2, buffer_depth=2, transform_seconds=1e-6,
               scale_ratio=3, element_bytes=2048)
CFG = CosimConfig(nprocs=10, elements_per_producer=24,
                  produce_seconds=2e-6)
#: layout at 10 ranks is [A: 0-3 | hub: 4-5 | B: 6-9]
CRASH_HUB_RANK = {"events": [{"kind": "crash", "time": 6e-5, "rank": 4}]}


def _by_role(sim, role):
    return [v for v in sim.values if v and v.get("role") == role]


def test_fault_free_exactly_once_and_scale_ratio():
    sim = run(cosim_worker, 10, args=(CFG, SPEC), machine=quiet_testbed())
    micros = _by_role(sim, "micro")
    hubs = _by_role(sim, "hub")
    macros = _by_role(sim, "macro")
    assert (len(micros), len(hubs), len(macros)) == (4, 2, 4)
    produced = 4 * CFG.elements_per_producer
    assert sum(h["received"] for h in hubs) == produced
    # scale_ratio=3 folds three A elements into one B element
    assert sum(h["forwarded"] for h in hubs) == produced // 3 == 32
    assert sum(m["received"] for m in macros) == 32
    assert sum(m.get("duplicates", 0) for m in macros) == 0


def test_fault_free_run_is_deterministic():
    sims = [run(cosim_worker, 10, args=(CFG, SPEC),
                machine=quiet_testbed()) for _ in range(2)]
    assert sims[0].elapsed == sims[1].elapsed
    digests = [tuple(h["replay_digest"] for h in _by_role(s, "hub"))
               for s in sims]
    assert digests[0] == digests[1]


def test_crashed_hub_rank_hands_off_and_replays_identically():
    """Rank 4 (the first hub rank) dies mid-stream; rank 5 adopts its
    mirrored buffer, B still sees every element exactly once, and the
    chained replay digest is bit-identical across runs."""
    digests = []
    for _ in range(2):
        sim = run(cosim_worker, 10, args=(CFG, SPEC),
                  machine=quiet_testbed(), faults=CRASH_HUB_RANK)
        macros = _by_role(sim, "macro")
        assert sum(m["received"] for m in macros) == 32
        hubs = _by_role(sim, "hub")
        assert len(hubs) == 1, "only the surviving hub rank reports"
        (survivor,) = hubs
        assert survivor["adopted"] == (0,)
        digests.append(survivor["replay_digest"])
    assert digests[0] == digests[1] and digests[0]


def test_default_hub_spec():
    sim = run(cosim_worker, 9, args=(CosimConfig(nprocs=9),),
              machine=quiet_testbed())
    hubs = _by_role(sim, "hub")
    assert hubs, "a default HubSpec still places hub ranks"
    assert sum(m["received"] for m in _by_role(sim, "macro")) > 0


#: run in a child interpreter capped at 1 GiB of address space: a hub
#: that spins on a poisoned receive grows without bound, and the cap
#: turns that into a prompt failure instead of exhausting the host
_A_SIDE_CRASH_CHILD = """
import json, resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from repro.cosim import CosimConfig, HubSpec, cosim_worker
from repro.simmpi import quiet_testbed
from repro.simmpi.launcher import run
spec = HubSpec(size=2, buffer_depth=2, transform_seconds=1e-6,
               scale_ratio=3, element_bytes=2048)
cfg = CosimConfig(nprocs=10, elements_per_producer=24,
                  produce_seconds=2e-6)
base = run(cosim_worker, 10, args=(cfg, spec), machine=quiet_testbed())
plan = {"events": [{"kind": "crash", "time": 0.5 * base.elapsed,
                    "rank": 1}]}
sim = run(cosim_worker, 10, args=(cfg, spec), machine=quiet_testbed(),
          faults=plan)
macros = [v for v in sim.values if v and v.get("role") == "macro"]
print(json.dumps({
    "failed": sorted(sim.extras["faults"]["failed"]),
    "duplicates": sum(m.get("duplicates", 0) for m in macros),
}))
"""


def test_crashed_a_side_port_rank_does_not_spin_the_hub():
    """Rank 1 (an A-side port rank) dies mid-stream.  Its hub must
    re-post the wildcard receive the failure poisoned, and stop waiting
    for the dead producer's TERM, so the run ends normally."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    # one BLAS thread: per-thread buffers would eat into the 1 GiB cap
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _A_SIDE_CRASH_CHILD],
                          capture_output=True, text=True, timeout=60,
                          env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out == {"failed": [1], "duplicates": 0}


#: (nprocs, hub size, scale_ratio, buffer_depth): the layout above, the
#: perf ``cosim`` scenario's, and a three-rank hub with a one-deep buffer
SWEEP_LAYOUTS = [(10, 2, 3, 2), (24, 2, 3, 2), (16, 3, 4, 1)]


@pytest.mark.parametrize("nprocs, size, ratio, depth", SWEEP_LAYOUTS)
def test_every_hub_rank_crash_delivers_each_element_exactly_once(
        monkeypatch, nprocs, size, ratio, depth):
    """Crash each hub rank at k/20 of the fault-free elapsed time,
    k = 1..19.  Every run completes, and B receives each micro element
    of every A producer exactly once: a macro body ``("macro", producer,
    mseq, n)`` stands for ``n`` of them, and ``BPort.get`` returns each
    macro once."""
    bodies = []
    get = BPort.get

    def recording_get(self):
        body = yield from get(self)
        if body is not None:
            bodies.append(body)
        return body

    monkeypatch.setattr(BPort, "get", recording_get)
    spec = HubSpec(size=size, buffer_depth=depth, transform_seconds=1e-6,
                   scale_ratio=ratio, element_bytes=2048)
    cfg = CosimConfig(nprocs=nprocs, elements_per_producer=24,
                      produce_seconds=2e-6)
    layout = plan_layout(nprocs, spec, *build_graphs(cfg), "micro", "macro")
    elapsed = run(cosim_worker, nprocs, args=(cfg, spec),
                  machine=quiet_testbed()).elapsed
    failures = []
    for rank in layout.hub_ranks:
        for k in range(1, 20):
            del bodies[:]
            plan = {"events": [{"kind": "crash", "time": k / 20 * elapsed,
                                "rank": rank}]}
            try:
                run(cosim_worker, nprocs, args=(cfg, spec),
                    machine=quiet_testbed(), faults=plan)
            except SimMPIError as exc:
                failures.append(f"rank {rank} at {k}/20: "
                                f"{type(exc).__name__}")
                continue
            micro = Counter()
            for _kind, producer, _mseq, n in bodies:
                micro[producer] += n
            wrong = {p: micro[p] for p in range(layout.nprocs_a)
                     if micro[p] != cfg.elements_per_producer}
            if wrong:
                failures.append(f"rank {rank} at {k}/20: micro elements "
                                f"received per producer {wrong}")
    assert not failures, "\n".join(failures)
