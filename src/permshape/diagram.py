"""Young diagrams (integer partitions) with weakly decreasing positive parts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class YoungDiagram:
    """An integer partition; trailing zeros are implicit, so () is the empty one."""

    parts: tuple[int, ...]

    def __post_init__(self):
        prev = None
        for p in self.parts:
            if p <= 0:
                raise ValueError("parts must be positive")
            if prev is not None and p > prev:
                raise ValueError("parts must be weakly decreasing")
            prev = p

    @classmethod
    def from_parts(cls, parts: Sequence[int] | np.ndarray) -> "YoungDiagram":
        return cls(tuple(int(p) for p in parts))

    @classmethod
    def from_text(cls, text: str) -> "YoungDiagram":
        """Parse comma-separated parts, e.g. "3,1,1,1"; empty text is the empty diagram."""
        stripped = text.strip()
        if not stripped:
            return cls(())
        return cls(tuple(int(tok) for tok in stripped.split(",")))

    def to_text(self) -> str:
        return ",".join(str(p) for p in self.parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def num_rows(self) -> int:
        return len(self.parts)

    def part(self, i: int) -> int:
        """lambda_i with the implicit-zeros convention (1-based i)."""
        if i < 1:
            raise IndexError("part index is 1-based")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def parts_array(self) -> np.ndarray:
        return np.asarray(self.parts, dtype=np.int64)

    def conjugate(self) -> "YoungDiagram":
        """Transpose: column lengths become row lengths."""
        parts = self.parts_array()
        j = np.arange(1, parts.max(initial=0) + 1, dtype=np.int64)
        # column j holds the rows of length >= j, vectorized over j
        return YoungDiagram.from_parts(np.searchsorted(-parts, -j, side="right"))

    def __repr__(self) -> str:
        return f"YoungDiagram(({', '.join(str(p) for p in self.parts)}))"

