"""Secondary indexes.

AsterixDB's indexed nested loop join broadcasts the (small, filtered) build
side to every partition and probes the *local* secondary index of the inner
base dataset. We model the index as a hash map from key value to row
positions in the dataset's flat column (each position lies in the partition
the dataset's ``bounds`` put it in); each lookup is charged
:attr:`CostParameters.index_lookup` by the cost model, making INL a win only
when the number of probing tuples is small relative to scanning the inner
dataset.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass


@dataclass
class SecondaryIndex:
    """Hash index over one stored column."""

    field_name: str
    entries: dict

    @classmethod
    def build(cls, column: Sequence, field_name: str) -> SecondaryIndex:
        entries: dict = {}
        for position, key in enumerate(column):
            if key is None:
                continue
            entries.setdefault(key, []).append(position)
        return cls(field_name, entries)

    def lookup(self, key: object) -> list[int]:
        """Positions of rows whose indexed field equals ``key``, ascending."""
        return self.entries.get(key, [])

    def __len__(self) -> int:
        return sum(len(positions) for positions in self.entries.values())
