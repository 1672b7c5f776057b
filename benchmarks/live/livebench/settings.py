"""The canonical settings and the four workloads later issues cite.

One shape for every workload — see ``../README.md`` for why each value
was chosen and the probe numbers behind it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

REPLICAS = 5
PROXIES = 1
OBJECTS = 128
ZIPF = 0.99
#: Closed loop: CLIENTS x DEPTH logical operations in flight.
CLIENTS = 4
DEPTH = 4
#: Discarded before the measured phase so caches, leases and TCP links
#: are in steady state.
WARMUP_S = 3.0
#: The measured phase is cut into windows of this length; windowed
#: metrics report the median window.
WINDOW_S = 5.0
SMOKE_WINDOW_S = 2.0
#: In-flight operations get this long to finish after the phase.
DRAIN_S = 3.0
#: Cluster boots per run; ``setup_s`` is their median.
BOOTS = 3
#: Wing-Gong search budget; exceeding it fails the run.
MAX_STATES = 2_000_000


@dataclass(frozen=True)
class WorkloadDef:
    """One named traffic mix plus the cluster it boots."""

    name: str
    why: str
    #: YCSB letter, with C meaning the paper's write-dominated "backup" mix.
    mix: str
    write_ratio: float
    object_size: int
    write_quorum: int
    lease_duration: float = 0.0
    #: Seconds between the manager's W 4<->2 flips (0 = static quorum).
    retune_period: float = 0.0


WORKLOADS: Tuple[WorkloadDef, ...] = (
    WorkloadDef(
        name="a_retune",
        why=(
            "YCSB-A 50/50 at 4 KiB while W flips 4<->2 every 2 s: both "
            "paths plus reconfig.manager, epoch fencing and NACK/retry"
        ),
        mix="a",
        write_ratio=0.50,
        object_size=4096,
        write_quorum=4,
        retune_period=2.0,
    ),
    WorkloadDef(
        name="b_r4",
        why=(
            "YCSB-B 95/5 at 4 KiB, R=4, leases off: the proxy gathers "
            "and decodes 4 replies per read; WAL and write path idle"
        ),
        mix="b",
        write_ratio=0.05,
        object_size=4096,
        write_quorum=2,
    ),
    WorkloadDef(
        name="b_r4_lease",
        why=(
            "b_r4 with 2 s read leases: one LEASEREAD round trip "
            "bypasses the gather, so gather changes must show nothing"
        ),
        mix="b",
        write_ratio=0.05,
        object_size=4096,
        write_quorum=2,
        lease_duration=2.0,
    ),
    WorkloadDef(
        name="c_w4_32k",
        why=(
            "paper's C at 95 % writes of 32 KiB, W=4: storage, WAL "
            "snapshots and byte copies dominate instead of the proxy"
        ),
        mix="c",
        # The paper's C has 1 % reads: ~190 read samples in a 20 s phase,
        # whose median moved 0.16-0.25 between seeds while every other
        # metric moved ~0.12.  At 5 % it moves like the rest (README).
        write_ratio=0.95,
        object_size=32 * 1024,
        write_quorum=4,
    ),
)

BY_NAME: Dict[str, WorkloadDef] = {defn.name: defn for defn in WORKLOADS}
