"""``repro.simmpi`` — a deterministic, simulated MPI runtime.

This package substitutes for the paper's Cray XC40 + Cray MPICH stack
(see DESIGN.md §2): ranks are generator coroutines over a discrete-
event engine with virtual time; the network is a calibrated LogGP-style
model with per-NIC serialization; collectives use real tree/ring
algorithms so costs scale with the communicator size; noise and
imbalance are explicit, seedable models.

Quickstart::

    from repro.simmpi import run, beskow, ANY_SOURCE

    def program(comm):
        if comm.rank == 0:
            yield from comm.send(b"x" * 1024, dest=1)
        elif comm.rank == 1:
            data = yield from comm.recv(source=0)
        yield from comm.barrier()

    result = run(program, nprocs=2, machine=beskow())
    print(result.elapsed)
"""

from .config import (
    IOConfig,
    MachineConfig,
    NetworkConfig,
    NoiseConfig,
    TopologyConfig,
    beskow,
    ideal_network_testbed,
    quiet_testbed,
    resolve_topology,
)
from .comm import Comm, Intercomm, World
from .fabrics import DragonflyFabric, FatTreeFabric
from .placement import (
    BlockPlacement,
    ColocatedPlacement,
    PartitionedPlacement,
    Placement,
    PlacementPolicy,
    RoundRobinPlacement,
    resolve_placement,
)
from .datatypes import (
    BYTE,
    CHAR,
    DOUBLE,
    FLOAT,
    INT,
    LONG,
    Datatype,
    SizedPayload,
    contiguous,
    payload_nbytes,
    struct,
    vector,
)
from .engine import Delay, Engine, EventFlag, Spawn, WaitFlag
from .iolib import File, FileSystem, open_file, read_back
from .errors import (
    CommunicatorError,
    DeadlockError,
    InvalidRankError,
    InvalidTagError,
    PlacementError,
    ProcessFailedError,
    RequestError,
    RevokedError,
    SimMPIError,
    TopologyError,
    TruncationError,
    WindowError,
)
from .launcher import SimResult, run
from .matching import ANY_SOURCE, ANY_TAG, TAG_UB
from .noise import NoiseModel
from .network import Network, TransferTiming
from .request import Request, Status
from .rma import Win
from .topology import CartComm, cart_create, dims_create

__all__ = [
    "ANY_SOURCE", "ANY_TAG", "BYTE", "BlockPlacement", "CHAR", "CartComm",
    "ColocatedPlacement", "Comm", "CommunicatorError", "DOUBLE", "Datatype",
    "DeadlockError", "Delay", "DragonflyFabric", "Engine", "EventFlag",
    "FLOAT", "FatTreeFabric", "File", "FileSystem", "INT",
    "IOConfig", "Intercomm", "InvalidRankError", "InvalidTagError", "LONG",
    "MachineConfig", "Network", "NetworkConfig", "NoiseConfig",
    "NoiseModel", "PartitionedPlacement", "Placement",
    "PlacementError", "PlacementPolicy", "ProcessFailedError", "Request",
    "RequestError", "RevokedError",
    "RoundRobinPlacement", "SimMPIError", "SimResult", "SizedPayload",
    "Spawn", "Status", "TAG_UB", "TopologyConfig", "TopologyError",
    "TransferTiming", "TruncationError", "WaitFlag", "Win", "WindowError",
    "beskow",
    "cart_create", "contiguous", "dims_create",
    "ideal_network_testbed", "open_file", "payload_nbytes",
    "quiet_testbed", "read_back", "resolve_placement", "resolve_topology",
    "run", "struct", "vector",
]
