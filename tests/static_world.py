"""A world of fixed entity positions in the plane, with no kinematics.

The engine never builds one: acceptance criterion 6 floods a hand-laid line
of parked vehicles over it, and ``tests/test_mobility.py`` checks its
neighbour query against brute force.
"""

import math
from typing import Dict, List, Tuple

from vanetim.domain import EntityId


class StaticWorld:
    """Fixed entity positions in the plane; no kinematics."""

    def __init__(self, positions: Dict[EntityId, Tuple[float, float]]) -> None:
        self.positions = dict(positions)

    def entities(self) -> List[EntityId]:
        return list(self.positions)

    def position_of(self, entity: EntityId) -> Tuple[float, float]:
        return self.positions[entity]

    def neighbours_within(self, center: EntityId, radius: float) -> List[EntityId]:
        if radius <= 0:
            raise ValueError("radius must be positive")
        cx, cy = self.positions[center]
        found = []
        for entity, (x, y) in self.positions.items():
            if entity == center:
                continue
            if math.hypot(x - cx, y - cy) <= radius:
                found.append(entity)
        return found

