"""The public API surface: every documented entry point imports and the
layers expose what README/DESIGN promise."""

import importlib

import pytest

MODULES = [
    "repro",
    "repro.simmpi",
    "repro.mpistream",
    "repro.core",
    "repro.trace",
    "repro.api",
    "repro.faults",
    "repro.workloads",
    "repro.apps.mapreduce",
    "repro.apps.cg",
    "repro.apps.ipic3d",
    "repro.bench",
    "repro.study",
    "repro.cosim",
    "repro.envcfg",
]

#: layers that publish an export list (incl. the submodules that carry
#: their own ``__all__`` — the placement/fabric subsystem, the study
#: subsystem and the co-simulation subsystem)
EXPORTING_MODULES = [
    "repro.simmpi",
    "repro.simmpi.fabrics",
    "repro.simmpi.placement",
    "repro.mpistream",
    "repro.core",
    "repro.trace",
    "repro.api",
    "repro.faults",
    "repro.faults.apps",
    "repro.faults.injector",
    "repro.faults.plan",
    "repro.workloads",
    "repro.apps.mapreduce",
    "repro.apps.cg",
    "repro.apps.ipic3d",
    "repro.bench",
    "repro.study",
    "repro.study.cache",
    "repro.study.catalog",
    "repro.study.chaos",
    "repro.study.policy",
    "repro.study.registry",
    "repro.study.results",
    "repro.study.runner",
    "repro.study.study",
    "repro.cosim",
    "repro.cosim.apps",
    "repro.cosim.coupling",
    "repro.cosim.hub",
    "repro.envcfg",
]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports(module):
    importlib.import_module(module)


@pytest.mark.parametrize("module", EXPORTING_MODULES)
def test_exports_resolve(module):
    m = importlib.import_module(module)
    for name in m.__all__:
        assert hasattr(m, name), f"{module}.__all__ names missing {name!r}"


@pytest.mark.parametrize("module", EXPORTING_MODULES)
def test_exports_sorted_and_unique(module):
    """``__all__`` is a stable, sorted, duplicate-free export list."""
    m = importlib.import_module(module)
    exports = list(m.__all__)
    assert exports == sorted(exports), \
        f"{module}.__all__ is not sorted: {exports}"
    assert len(exports) == len(set(exports)), \
        f"{module}.__all__ has duplicates"


def test_simmpi_exports():
    import repro.simmpi as m
    for name in ("run", "beskow", "quiet_testbed", "Comm", "ANY_SOURCE",
                 "SizedPayload", "CartComm", "dims_create",
                 "TopologyConfig", "Placement", "BlockPlacement",
                 "FatTreeFabric", "DragonflyFabric", "Network"):
        assert hasattr(m, name), name


def test_api_exports():
    import repro.api as m
    for name in ("Simulation", "StreamGraph", "Report", "GraphError",
                 "StageContext", "ProducerHandle", "ConsumerHandle"):
        assert hasattr(m, name), name


def test_study_exports():
    import repro.study as m
    for name in ("Study", "StudyError", "ResultSet", "run_study",
                 "get_study", "register_app", "register_extractor",
                 "job_key", "code_version", "RunPolicy"):
        assert hasattr(m, name), name
    # every figure the CLI names is in the study catalog
    from repro.bench.cli import SWEEP_FIGURES
    assert set(SWEEP_FIGURES) == set(m.CATALOG)


def test_faults_exports():
    import repro.faults as m
    for name in ("FaultPlan", "RankCrash", "Slowdown", "LinkDegrade",
                 "Checkpoint", "FaultController", "resolve_faults"):
        assert hasattr(m, name), name
    # the ULFM-style error surface lives in simmpi
    from repro.simmpi import ProcessFailedError, RevokedError  # noqa: F401
    from repro.simmpi.comm import Comm
    assert hasattr(Comm, "failure_ack")
    assert hasattr(Comm, "revoke")


def test_cosim_exports():
    import repro.cosim as m
    for name in ("HubSpec", "CosimConfig", "CosimError", "run_coupled",
                 "plan_layout", "resolve_hub", "hub_main", "APort",
                 "BPort", "build_graphs", "cosim_worker"):
        assert hasattr(m, name), name
    # the MPI surface the hub rides on
    from repro.simmpi.comm import Comm
    from repro.simmpi.rma import Win  # noqa: F401
    assert hasattr(Comm, "create_intercomm")
    # the declarative front-end exposes coupling
    from repro.api import Simulation
    assert hasattr(Simulation, "couple")


def test_version():
    import repro
    assert repro.__version__


def test_paper_api_names_have_counterparts():
    """The MPIStream C API maps to documented Python entry points."""
    from repro.mpistream import attach, create_channel  # noqa: F401
    from repro.mpistream.channel import StreamChannel
    from repro.mpistream.stream import Stream
    assert hasattr(Stream, "isend")        # MPIStream_Isend
    assert hasattr(Stream, "operate")      # MPIStream_Operate
    assert hasattr(Stream, "terminate")    # MPIStream_Terminate
    assert hasattr(StreamChannel, "free")  # MPIStream_FreeChannel


def test_declarative_layer_compiles_to_low_level():
    """The front-end lowers onto the documented low-level pieces — the
    low-level surface stays importable."""
    from repro.api.graph import CompiledGraph
    from repro.core import DecouplingPlan
    from repro.mpistream import attach, create_channel  # noqa: F401
    from repro.simmpi import run  # noqa: F401

    assert hasattr(CompiledGraph, "execute")
    assert isinstance(DecouplingPlan(4), DecouplingPlan)
