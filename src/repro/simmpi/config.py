"""Machine configuration presets for the simulated runtime.

A :class:`MachineConfig` bundles the network, noise, I/O and compute
parameters that define a simulated platform.  The ``beskow()`` preset
approximates the paper's testbed — the Beskow Cray XC40 at PDC (Aries
dragonfly interconnect, two 16-core Haswell sockets per node, Lustre
storage) — at the level of fidelity the reproduction needs: per-message
latency, per-NIC bandwidth, intra-node shortcuts, filesystem aggregate
bandwidth and per-operation overheads.

All values are plain floats in SI units (seconds, bytes, bytes/second)
so experiments can sweep them directly.

Every config is JSON round-trippable (``to_json()`` /
``from_json()``): a platform is *data*, so :mod:`repro.study` job
specs can carry it to worker processes, hash it into cache keys and
persist it in scenario files.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Dict, Optional, Union

from .placement import (
    Placement,
    PlacementPolicy,
    placement_from_json,
    resolve_placement,
)


class _JsonConfig:
    """Shared JSON round-trip for the flat (all-scalar) config
    dataclasses; :class:`MachineConfig` overrides both ends to recurse
    into its nested configs."""

    def to_json(self) -> Dict[str, Any]:
        """This config as a JSON-serializable dict (field -> value)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "_JsonConfig":
        """Rebuild from :meth:`to_json` output; always validates."""
        try:
            obj = cls(**data)
        except TypeError as exc:
            raise ValueError(
                f"bad {cls.__name__} JSON (fields are "
                f"{[f.name for f in fields(cls)]}): {exc}") from exc
        obj.validate()
        return obj


@dataclass(frozen=True)
class TopologyConfig(_JsonConfig):
    """Which fabric the interconnect model uses, and its knobs.

    ``kind`` selects one of the fabric implementations (see
    :class:`repro.simmpi.network.Network` and DESIGN.md §9):

    * ``"flat"`` — the two-level intra/inter-node LogGP model (default;
      bit-identical to the seed and to ``OracleNetwork``).
    * ``"fat_tree"`` — nodes are leaves of a ``radix``-ary tree; a
      message climbs to the lowest common switch, paying per-hop
      ``link_latency`` and queueing on the per-level uplink timelines,
      whose bandwidth tapers by ``taper`` per level (oversubscription).
    * ``"dragonfly"`` — nodes are partitioned into groups of
      ``nodes_per_group``; group-local traffic pays ``local_latency``,
      cross-group traffic pays ``global_latency`` and serializes on the
      source group's shared global-link timeline.

    ``NetworkConfig.fabric_dilation`` only affects the flat fabric: it
    is the flat model's stand-in for exactly the topology effects the
    fat-tree/dragonfly fabrics model explicitly (see
    :mod:`repro.simmpi.fabrics`).
    """

    kind: str = "flat"
    # --- fat-tree ---
    radix: int = 8                    # nodes/switches per switch
    link_latency: float = 0.3e-6      # per tree hop (s)
    uplink_bandwidth: float = 8.0e9   # level-1 uplink (B/s)
    taper: float = 2.0                # uplink bandwidth divisor per level
    # --- dragonfly ---
    nodes_per_group: int = 8
    local_latency: float = 0.5e-6     # intra-group, inter-node (s)
    global_latency: float = 2.0e-6    # inter-group (s)
    global_bandwidth: float = 5.0e9   # one shared global pipe per group

    KINDS = ("flat", "fat_tree", "dragonfly")

    def validate(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(
                f"unknown topology kind {self.kind!r}; "
                f"choose from {self.KINDS}")
        if self.radix < 2:
            raise ValueError("fat-tree radix must be >= 2")
        if self.taper < 1.0:
            raise ValueError("fat-tree taper must be >= 1")
        if self.link_latency < 0 or self.local_latency < 0 \
                or self.global_latency < 0:
            raise ValueError("topology latencies must be non-negative")
        if self.uplink_bandwidth <= 0 or self.global_bandwidth <= 0:
            raise ValueError("topology bandwidths must be positive")
        if self.nodes_per_group <= 0:
            raise ValueError("nodes_per_group must be positive")


def resolve_topology(spec: Union[None, str, TopologyConfig]
                     ) -> TopologyConfig:
    """Normalize a topology spec: None → flat, names → default configs.

    Always validates, so a bad spec fails where it is written, not at
    the first run."""
    if spec is None:
        return TopologyConfig()
    if isinstance(spec, TopologyConfig):
        spec.validate()
        return spec
    if isinstance(spec, str):
        kind = spec.replace("-", "_")
        cfg = TopologyConfig(kind=kind)
        cfg.validate()
        return cfg
    raise ValueError(
        f"topology must be None, a kind name or a TopologyConfig, "
        f"got {type(spec).__name__}")


@dataclass(frozen=True)
class NetworkConfig(_JsonConfig):
    """Latency/bandwidth/overhead parameters of the interconnect model.

    The model is LogGP-flavored: a message of ``n`` bytes costs the
    sender ``o_send`` CPU seconds, occupies its NIC for ``n / bandwidth``
    seconds, traverses the fabric in ``latency`` (plus an optional
    per-hop term scaled by job size), and costs the receiver ``o_recv``
    CPU seconds plus NIC occupancy on delivery.  Messages at or below
    ``eager_threshold`` complete locally at the sender as soon as they
    are injected (eager protocol); larger ones synchronize with the
    matching receive (rendezvous).
    """

    latency: float = 1.4e-6            # one-way fabric latency (s)
    bandwidth: float = 10.0e9          # per-NIC injection bandwidth (B/s)
    o_send: float = 0.4e-6             # sender CPU overhead per message (s)
    o_recv: float = 0.6e-6             # receiver CPU overhead per message (s)
    eager_threshold: int = 8192        # bytes; <= is eager, > is rendezvous
    intra_node_latency: float = 0.25e-6
    intra_node_bandwidth: float = 40.0e9
    # Mild fabric dilation with job size: latency *= 1 + fabric_dilation *
    # log2(P / dilation_base) for P > dilation_base.  Captures the extra
    # dragonfly hops / adaptive-routing cost of large allocations without
    # a flit-level model.
    fabric_dilation: float = 0.04
    dilation_base: int = 64

    def validate(self) -> None:
        if self.latency < 0 or self.intra_node_latency < 0:
            raise ValueError("latency must be non-negative")
        if self.bandwidth <= 0 or self.intra_node_bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.eager_threshold < 0:
            raise ValueError("eager_threshold must be non-negative")
        for name in ("o_send", "o_recv", "fabric_dilation"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")
        if self.dilation_base < 1:
            raise ValueError(
                f"dilation_base must be >= 1, got {self.dilation_base!r}")


@dataclass(frozen=True)
class NoiseConfig(_JsonConfig):
    """System-noise and process-skew parameters.

    ``persistent_skew`` is the relative std-dev of a per-rank constant
    speed factor (thermal variance, core binning).  ``quantum`` /
    ``quantum_fraction`` model transient OS noise as in Petrini et al.
    (SC'03): while computing, a rank is interrupted on average every
    ``quantum`` seconds and loses ``quantum_fraction`` of that interval.
    ``seed`` makes the whole noise process reproducible.
    """

    persistent_skew: float = 0.02
    quantum: float = 0.010
    quantum_fraction: float = 0.01
    seed: int = 0xC0FFEE

    def validate(self) -> None:
        if self.persistent_skew < 0:
            raise ValueError("persistent_skew must be non-negative")
        if not (0.0 <= self.quantum_fraction < 1.0):
            raise ValueError("quantum_fraction must be in [0, 1)")
        if self.quantum <= 0:
            raise ValueError("quantum must be positive")
        try:
            seed_ok = operator.index(self.seed) >= 0
        except TypeError:
            seed_ok = False
        if not seed_ok:
            raise ValueError(
                f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class IOConfig(_JsonConfig):
    """Parallel-filesystem model parameters (Lustre-flavored).

    ``aggregate_bandwidth`` is the total sustainable write bandwidth of
    the storage backend; concurrent writers share it.  ``client_overhead``
    is the fixed client-side cost of every I/O call (syscall + RPC).
    ``shared_pointer_overhead`` is the extra serialization cost each
    ``write_shared`` pays to atomically advance the shared file pointer.
    ``view_setup_overhead`` is the cost of (re)defining a file view —
    the paper's collective particle I/O pays it every step because the
    particle layout changes.  ``stripe_count`` bounds how many clients
    can stream concurrently at full speed.
    """

    aggregate_bandwidth: float = 8.0e9
    per_client_bandwidth: float = 1.2e9
    client_overhead: float = 60e-6
    shared_pointer_overhead: float = 250e-6
    view_setup_overhead: float = 450e-6
    collective_exchange_overhead: float = 3.0e-6  # per rank, per write_all
    stripe_count: int = 48
    open_overhead: float = 2.0e-3
    # Server-byte amplification factors (Lustre read-modify-write and
    # fragmentation pathologies; see DESIGN.md):
    # - collective writes through a *dynamic, unaligned* file view pay
    #   stripe RMW on nearly every extent;
    # - shared-pointer writes fragment across stripes but stay
    #   append-ordered.
    collective_unaligned_factor: float = 12.0
    shared_fragment_factor: float = 3.0

    def validate(self) -> None:
        if self.aggregate_bandwidth <= 0 or self.per_client_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        if self.stripe_count <= 0:
            raise ValueError("stripe_count must be positive")
        if self.collective_unaligned_factor < 1 or self.shared_fragment_factor < 1:
            raise ValueError("amplification factors must be >= 1")
        for name in ("client_overhead", "shared_pointer_overhead",
                     "view_setup_overhead", "collective_exchange_overhead",
                     "open_overhead"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")


@dataclass(frozen=True)
class MachineConfig:
    """A complete simulated platform."""

    name: str = "generic"
    ranks_per_node: int = 32
    network: NetworkConfig = field(default_factory=NetworkConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    io: IOConfig = field(default_factory=IOConfig)
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    #: rank→node policy (None = block, the seed rule); see
    #: :mod:`repro.simmpi.placement`
    placement: Optional[PlacementPolicy] = None
    # Relative compute speed (1.0 = calibration baseline).  Lets tests
    # make compute free (speed -> inf is approximated by a large value).
    compute_speed: float = 1.0

    def validate(self) -> None:
        if self.ranks_per_node <= 0:
            raise ValueError("ranks_per_node must be positive")
        if self.compute_speed <= 0:
            raise ValueError("compute_speed must be positive")
        if self.placement is not None \
                and not isinstance(self.placement, PlacementPolicy):
            raise ValueError(
                f"placement must be a PlacementPolicy or None, "
                f"got {type(self.placement).__name__}")
        self.network.validate()
        self.noise.validate()
        self.io.validate()
        self.topology.validate()

    def placement_for(self, nranks: int) -> Placement:
        """Resolve this machine's placement policy for ``nranks``."""
        return resolve_placement(self.placement).resolve(
            nranks, self.ranks_per_node)

    def with_(self, **kwargs) -> "MachineConfig":
        """Return a copy with the given top-level fields replaced."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------
    # JSON round-trip (nested, unlike the flat configs)
    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        """The whole platform as a JSON-serializable dict."""
        return {
            "name": self.name,
            "ranks_per_node": self.ranks_per_node,
            "network": self.network.to_json(),
            "noise": self.noise.to_json(),
            "io": self.io.to_json(),
            "topology": self.topology.to_json(),
            "placement": (self.placement.to_json()
                          if self.placement is not None else None),
            "compute_speed": self.compute_speed,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "MachineConfig":
        """Rebuild a platform from :meth:`to_json` output; validates."""
        known = {"name", "ranks_per_node", "network", "noise", "io",
                 "topology", "placement", "compute_speed"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"bad MachineConfig JSON: unknown fields {sorted(unknown)}")
        kwargs: Dict[str, Any] = {
            k: data[k] for k in ("name", "ranks_per_node", "compute_speed")
            if k in data
        }
        for key, sub in (("network", NetworkConfig), ("noise", NoiseConfig),
                         ("io", IOConfig), ("topology", TopologyConfig)):
            if key in data:
                kwargs[key] = sub.from_json(data[key])
        placement = data.get("placement")
        if placement is not None:
            kwargs["placement"] = placement_from_json(placement)
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg


def beskow(noise_seed: Optional[int] = None) -> MachineConfig:
    """The paper's testbed: Beskow, a Cray XC40 with Aries interconnect.

    1,676 nodes x 2 x 16-core Xeon E5-2698v3; we model 32 ranks/node,
    Aries-class latency/bandwidth, and a Lustre-class filesystem.
    """
    noise = NoiseConfig()
    if noise_seed is not None:
        noise = replace(noise, seed=noise_seed)
    cfg = MachineConfig(
        name="beskow-xc40",
        ranks_per_node=32,
        network=NetworkConfig(),
        noise=noise,
        io=IOConfig(),
    )
    cfg.validate()
    return cfg


def quiet_testbed() -> MachineConfig:
    """A noise-free machine for unit tests needing exact timing."""
    cfg = MachineConfig(
        name="quiet",
        ranks_per_node=32,
        network=NetworkConfig(fabric_dilation=0.0),
        noise=NoiseConfig(persistent_skew=0.0, quantum_fraction=0.0),
        io=IOConfig(),
    )
    cfg.validate()
    return cfg


def ideal_network_testbed() -> MachineConfig:
    """Zero-latency, (near) infinite-bandwidth machine: isolates algorithmic
    structure from network cost in tests."""
    cfg = MachineConfig(
        name="ideal-net",
        ranks_per_node=10**9,
        network=NetworkConfig(
            latency=0.0,
            bandwidth=1e18,
            o_send=0.0,
            o_recv=0.0,
            eager_threshold=1 << 62,
            intra_node_latency=0.0,
            intra_node_bandwidth=1e18,
            fabric_dilation=0.0,
        ),
        noise=NoiseConfig(persistent_skew=0.0, quantum_fraction=0.0),
        io=IOConfig(),
    )
    cfg.validate()
    return cfg


#: machine presets accepted by name (``Simulation(machine=...)`` and a
#: study machine spec's ``preset``)
PRESETS: Dict[str, Callable[[], MachineConfig]] = {
    "beskow": beskow,
    "quiet": quiet_testbed,
    "quiet_testbed": quiet_testbed,
    "ideal": ideal_network_testbed,
    "ideal_network": ideal_network_testbed,
}
