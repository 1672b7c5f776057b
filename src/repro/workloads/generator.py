"""Parametric workload generator and the paper's ~170-workload sweep.

Section 2.2: "we tested approx. 170 workloads, obtained by varying the
percentage of read/write operations, the average object size, and using
10 clients per proxy".  :func:`sweep_specs` reproduces that grid;
:class:`SyntheticWorkload` turns one grid point into an operation
stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.common.errors import WorkloadError
from repro.common.types import ObjectId, OpType
from repro.workloads.base import Workload
from repro.workloads.zipf import ZipfSampler


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative description of a synthetic workload."""

    #: Fraction of operations that are writes, in [0, 1].
    write_ratio: float
    #: Mean object size in bytes.
    object_size: int
    #: Number of distinct objects.
    num_objects: int = 256
    #: Zipf exponent of the access skew (0 = uniform).
    skew: float = 0.0
    #: Spread of per-object sizes: each object's size is drawn once from a
    #: lognormal with this sigma around ``object_size`` (0 = constant).
    size_sigma: float = 0.0
    #: Label used in reports.
    name: str = ""

    def validate(self) -> "WorkloadSpec":
        if not 0.0 <= self.write_ratio <= 1.0:
            raise WorkloadError(
                f"write_ratio {self.write_ratio} outside [0, 1]"
            )
        if self.object_size < 0:
            raise WorkloadError("object_size must be >= 0")
        if self.num_objects < 1:
            raise WorkloadError("num_objects must be >= 1")
        if self.skew < 0:
            raise WorkloadError("skew must be >= 0")
        if self.size_sigma < 0:
            raise WorkloadError("size_sigma must be >= 0")
        return self

    @property
    def write_percentage(self) -> float:
        return self.write_ratio * 100.0

    @property
    def label(self) -> str:
        if self.name:
            return self.name
        return (
            f"w{self.write_percentage:.0f}%"
            f"-{self.object_size}B-z{self.skew:g}"
        )

    def with_write_ratio(self, write_ratio: float) -> "WorkloadSpec":
        return replace(self, write_ratio=write_ratio)


class SyntheticWorkload(Workload):
    """Operation stream for one :class:`WorkloadSpec`.

    Object ids, per-object sizes and the skew sampler are derived
    deterministically from ``seed`` so that every client thread sharing
    the workload sees the same object population.
    """

    def __init__(self, spec: WorkloadSpec, seed: int = 0) -> None:
        super().__init__()
        self.spec = spec.validate()
        self._sampler = ZipfSampler(spec.num_objects, spec.skew)
        size_rng = random.Random(seed)
        self._object_ids: list[ObjectId] = [
            f"{spec.name or 'obj'}-{index:06d}"
            for index in range(spec.num_objects)
        ]
        self._sizes: list[int] = [
            self._draw_size(size_rng) for _ in range(spec.num_objects)
        ]

    def _draw_size(self, rng: random.Random) -> int:
        spec = self.spec
        if spec.size_sigma == 0 or spec.object_size == 0:
            return spec.object_size
        scale = rng.lognormvariate(0.0, spec.size_sigma)
        return max(1, round(scale * spec.object_size))

    def object_ids(self) -> list[ObjectId]:
        return list(self._object_ids)

    def size_of(self, object_id: ObjectId) -> int:
        return self._sizes[self._object_ids.index(object_id)]

    def sample(self, rng: random.Random) -> tuple[ObjectId, OpType, int]:
        rank = self._sampler.sample(rng)
        op_type = (
            OpType.WRITE
            if rng.random() < self.spec.write_ratio
            else OpType.READ
        )
        return self._object_ids[rank], op_type, self._sizes[rank]


#: Write percentages of the sweep: 5% steps from 1% to 99%.
SWEEP_WRITE_RATIOS: tuple[float, ...] = tuple(
    [0.01] + [round(x * 0.05, 2) for x in range(1, 20)] + [0.99]
)

#: Object sizes of the sweep (bytes): 1 KiB .. 1 MiB.
SWEEP_OBJECT_SIZES: tuple[int, ...] = (
    1 * 1024,
    4 * 1024,
    16 * 1024,
    64 * 1024,
    128 * 1024,
    256 * 1024,
    512 * 1024,
    1024 * 1024,
)


def sweep_specs(
    write_ratios: tuple[float, ...] = SWEEP_WRITE_RATIOS,
    object_sizes: tuple[int, ...] = SWEEP_OBJECT_SIZES,
    num_objects: int = 256,
    skew: float = 0.0,
) -> list[WorkloadSpec]:
    """The full cross-product grid (21 x 8 = 168 ~ "approx. 170")."""
    specs = []
    for object_size in object_sizes:
        for write_ratio in write_ratios:
            specs.append(
                WorkloadSpec(
                    write_ratio=write_ratio,
                    object_size=object_size,
                    num_objects=num_objects,
                    skew=skew,
                ).validate()
            )
    return specs


@dataclass(frozen=True)
class MixtureComponent:
    """One object-population slice of a mixed workload."""

    spec: WorkloadSpec
    weight: float = 1.0


class MixedWorkload(Workload):
    """A mixture of sub-workloads over disjoint object populations.

    Models multi-tenant / multi-profile scenarios (Section 1): each
    component has its own read/write profile and object population; each
    operation first picks a component by weight, then samples within it.
    """

    def __init__(
        self, components: list[MixtureComponent], seed: int = 0
    ) -> None:
        super().__init__()
        if not components:
            raise WorkloadError("MixedWorkload needs at least one component")
        total = sum(component.weight for component in components)
        if total <= 0:
            raise WorkloadError("component weights must sum to > 0")
        self.components = components
        self._cumulative: list[float] = []
        acc = 0.0
        for component in components:
            acc += component.weight / total
            self._cumulative.append(acc)
        self._workloads = [
            SyntheticWorkload(component.spec, seed=seed + index)
            for index, component in enumerate(components)
        ]

    def object_ids(self) -> list[ObjectId]:
        ids: list[ObjectId] = []
        for workload in self._workloads:
            ids.extend(workload.object_ids())
        return ids

    def sample(self, rng: random.Random) -> tuple[ObjectId, OpType, int]:
        draw = rng.random()
        for index, edge in enumerate(self._cumulative):
            if draw <= edge:
                return self._workloads[index].sample(rng)
        return self._workloads[-1].sample(rng)
