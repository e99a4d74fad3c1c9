"""Declarative, picklable workload descriptions.

The runner consumes closures as workload builders, which cannot cross
process boundaries.  A :class:`WorkloadSpec` is a frozen record naming
a workload (pattern + clustering + parameters); it rebuilds the
identical closure on demand, so single-process and multi-process sweeps
are bit-identical.  The figures and the sweep service describe every
workload this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.experiments.config import RunConfig
from repro.experiments.runner import WorkloadBuilder
from repro.traffic.bursty import ARRIVAL_KINDS, ArrivalSpec
from repro.traffic.clusters import ClusterSpec, cluster_16, cluster_32, global_cluster
from repro.traffic.patterns import (
    ButterflyPermutationPattern,
    HotSpotPattern,
    ShufflePattern,
    UniformPattern,
)
from repro.traffic.workload import Workload

#: Valid pattern / clustering names.
PATTERNS = ("uniform", "hotspot", "shuffle", "butterfly")
CLUSTERINGS = ("global", "cluster16", "cluster16-shared", "cluster32")


@dataclass(frozen=True)
class WorkloadSpec:
    """A named workload: everything the paper's figures sweep."""

    pattern: str = "uniform"
    clustering: str = "global"
    ratios: Optional[tuple[float, ...]] = None
    hot_fraction: float = 0.05
    butterfly_i: int = 2
    k: int = 4
    n: int = 3
    # Arrival-process choice (see repro.traffic.bursty); the defaults
    # are the paper's Poisson source and are *omitted* from the
    # canonical form so every pre-existing cache key stays byte-stable.
    arrival: str = "poisson"
    burst_alpha: float = 2.5
    burst_on_gap: float = 0.25
    burst_p: float = 0.2

    def __post_init__(self) -> None:
        if self.pattern not in PATTERNS:
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if self.clustering not in CLUSTERINGS:
            raise ValueError(f"unknown clustering {self.clustering!r}")
        if self.pattern in ("shuffle", "butterfly") and self.clustering != "global":
            raise ValueError("permutation patterns are global workloads")
        if self.arrival not in ARRIVAL_KINDS:
            raise ValueError(f"unknown arrival kind {self.arrival!r}")
        # Validate the bursty knobs eagerly (same errors as install time).
        self.arrival_spec()

    def arrival_spec(self) -> Optional[ArrivalSpec]:
        """The bursty-arrival choice; None for the Poisson default."""
        if self.arrival == "poisson":
            return None
        return ArrivalSpec(
            kind=self.arrival,
            alpha=self.burst_alpha,
            on_gap=self.burst_on_gap,
            p=self.burst_p,
        )

    def canonical(self) -> dict:
        """Hash-stable field mapping for cache keys.

        Arrival fields at their Poisson defaults are omitted, so every
        workload expressible before bursty arrivals existed hashes to
        exactly the bytes it always did (the NetworkConfig MIN-kind
        omission precedent).
        """
        out: dict = {
            "pattern": self.pattern,
            "clustering": self.clustering,
            "ratios": list(self.ratios) if self.ratios is not None else None,
            "hot_fraction": self.hot_fraction,
            "butterfly_i": self.butterfly_i,
            "k": self.k,
            "n": self.n,
        }
        if self.arrival != "poisson":
            out["arrival"] = self.arrival
            out["burst_alpha"] = self.burst_alpha
            out["burst_on_gap"] = self.burst_on_gap
            out["burst_p"] = self.burst_p
        return out

    def clusters(self) -> ClusterSpec:
        """Materialize the named clustering."""
        if self.clustering == "global":
            nbits = self.n * (self.k.bit_length() - 1)
            return global_cluster(nbits=nbits)
        if self.clustering == "cluster16":
            return cluster_16("cube", self.ratios)
        if self.clustering == "cluster16-shared":
            return cluster_16("shared", self.ratios)
        return cluster_32(self.ratios)

    def builder(self, run_cfg: RunConfig) -> WorkloadBuilder:
        """The closure the runner consumes (rebuilt identically anywhere)."""
        clusters = self.clusters()
        if self.pattern == "uniform":
            factory = UniformPattern
        elif self.pattern == "hotspot":
            hot = self.hot_fraction

            def factory(members):
                return HotSpotPattern(members, hot)

        elif self.pattern == "shuffle":
            k, n = self.k, self.n

            def factory(members):
                return ShufflePattern(k, n)

        else:
            k, n, i = self.k, self.n, self.butterfly_i

            def factory(members):
                return ButterflyPermutationPattern(k, n, i)

        arrival = self.arrival_spec()
        return lambda load: Workload(
            clusters, factory, load, run_cfg.sizes, arrival=arrival
        )

    @property
    def label(self) -> str:
        """Short human-readable name, e.g. 'hotspot 5% cluster16'."""
        bits = [self.pattern]
        if self.pattern == "hotspot":
            bits.append(f"{self.hot_fraction:.0%}")
        if self.pattern == "butterfly":
            bits.append(f"i={self.butterfly_i}")
        if self.clustering != "global":
            bits.append(self.clustering)
        if self.ratios:
            bits.append(":".join(f"{r:g}" for r in self.ratios))
        if self.arrival != "poisson":
            bits.append(self.arrival)
        return " ".join(bits)
