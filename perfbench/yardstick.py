"""A fixed piece of pure-Python work that measures how fast the host runs
right now.

On a shared virtual machine (2 vCPUs of an Intel Xeon, Python 3.11) the
host's speed drifts by a third or more over minutes, so host seconds of
the same pass differ between runs more than any bound worth setting.

:func:`kernel` does the same kinds of work as the simulator's hot path (a
ring of vehicles stepped behind their leaders, a Euclidean neighbour
query, frozen dataclass copies keyed by hashed entity ids, heap pushes)
but uses no vanetim code, so a change to vanetim never changes its time.
``run.py`` times it around every pass and rescales the pass to the host
speed at which the kernel takes :data:`REFERENCE_S`.

Never change this module: ``wall_ref_s`` of two commits is comparable
only if both were measured with the same kernel.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, replace

#: kernel seconds on that machine in its usual state; sets the unit of wall_ref_s
REFERENCE_S = 0.15
#: ring steps per kernel call; about REFERENCE_S seconds of work
STEPS = 1500
RING_M = 4000.0


@dataclass(frozen=True)
class _Role:
    kind: int


@dataclass(frozen=True)
class _Entity:
    index: int
    role: _Role


@dataclass(frozen=True)
class _Message:
    id: str
    hops: int
    origin: _Entity


@dataclass
class _Vehicle:
    entity: _Entity
    arc: float
    speed: float


def kernel(steps: int = STEPS) -> int:
    """The fixed work; returns the number of entities that received a copy."""
    entities = [_Entity(i, _Role(i % 3)) for i in range(60)]
    ring = [_Vehicle(e, i * 50.0, 10.0) for i, e in enumerate(entities)]
    msg = _Message("m00001", 0, entities[0])
    radius = RING_M / (2 * math.pi)
    received, heap = {}, []
    for step in range(steps):
        for i, v in enumerate(ring):
            gap = (ring[i - 1].arc - v.arc) % RING_M
            v.speed = min(13.0, v.speed + 1.0, max(0.0, gap - 2.0))
            v.arc = (v.arc + v.speed * 0.5) % RING_M
        centre = 2 * math.pi * ring[step % 60].arc / RING_M
        cx, cy = radius * math.cos(centre), radius * math.sin(centre)
        for v in ring:
            theta = 2 * math.pi * v.arc / RING_M
            if math.hypot(radius * math.cos(theta) - cx, radius * math.sin(theta) - cy) <= 300.0:
                received[v.entity] = replace(msg, hops=msg.hops + 1)
                heapq.heappush(heap, (step, len(heap), v.entity))
        if len(heap) > 500:
            heap.clear()
    return len(received)


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def rescale(wall: float, kernel_before: float, kernel_after: float) -> float:
    """``wall`` seconds at the host speed at which the kernel takes REFERENCE_S."""
    return wall * REFERENCE_S / ((kernel_before + kernel_after) / 2)
