"""Finite colorings of [1..N] with colors 1..r.

The color array is a numpy int32 vector indexed by value-1 (colors[v-1] is
the color of the integer v).  Everything downstream treats a coloring as
read-only; helpers that "modify" return a new object.

File format: first line ``N r``, then N whitespace-separated colors (any line
wrapping); written 20 per line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# to_rle finds run boundaries in blocks of this many positions
_RLE_BLOCK = 1 << 12

__all__ = ["Coloring"]


@dataclass(eq=False)
class Coloring:
    n: int
    r: int
    colors: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.colors, dtype=np.int32)
        if self.n < 1:
            raise ValueError("N must be >= 1")
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if arr.shape != (self.n,):
            raise ValueError(f"expected {self.n} colors, got shape {arr.shape}")
        if arr.size and (arr.min() < 1 or arr.max() > self.r):
            raise ValueError(f"colors must lie in 1..{self.r}")
        self.colors = arr

    # ---- constructors ----

    @classmethod
    def solid(cls, n: int, color: int = 1, r: int | None = None) -> "Coloring":
        r = color if r is None else r
        return cls(n, r, np.full(n, color, dtype=np.int32))

    @classmethod
    def modular(cls, n: int, b: int) -> "Coloring":
        """Residue coloring with b colors; b=2 is the parity coloring (odd->1, even->2)."""
        v = np.arange(1, n + 1, dtype=np.int32)
        return cls(n, b, (v - 1) % b + 1)

    @classmethod
    def random_uniform(cls, n: int, r: int, rng: np.random.Generator | int) -> "Coloring":
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        return cls(n, r, rng.integers(1, r + 1, size=n, dtype=np.int32))

    @classmethod
    def from_sequence(cls, colors: Sequence[int], r: int | None = None) -> "Coloring":
        arr = np.asarray(list(colors), dtype=np.int32)
        return cls(len(arr), int(arr.max()) if r is None else r, arr)

    # ---- queries ----

    def color_of(self, v: int) -> int:
        if not 1 <= v <= self.n:
            raise ValueError(f"value {v} outside [1..{self.n}]")
        return int(self.colors[v - 1])

    def class_values(self, t: int) -> np.ndarray:
        """All v in [1..N] colored t, ascending."""
        return np.flatnonzero(self.colors == t).astype(np.int64) + 1

    def class_sizes(self) -> list[int]:
        return [int((self.colors == t).sum()) for t in range(1, self.r + 1)]

    def permuted(self, perm: Sequence[int]) -> "Coloring":
        """Relabel colors: perm[c-1] is the new name of color c (perm is a bijection)."""
        p = list(perm)
        if sorted(p) != list(range(1, self.r + 1)):
            raise ValueError(f"perm must be a permutation of 1..{self.r}")
        table = np.asarray([0] + p, dtype=np.int32)
        return Coloring(self.n, self.r, table[self.colors])

    def __eq__(self, other):
        return (
            isinstance(other, Coloring)
            and self.n == other.n
            and self.r == other.r
            and bool(np.array_equal(self.colors, other.colors))
        )

    def __str__(self):
        return f"Coloring(n={self.n}, r={self.r}, sizes={self.class_sizes()})"

    # ---- run-length and file forms ----

    def to_rle(self) -> list[list[int]]:
        # run boundaries a block at a time, so no intermediate grows with N
        arr, n = self.colors, self.n
        runs: list[list[int]] = []
        start = 0  # first position of the run still open
        for lo in range(1, n, _RLE_BLOCK):
            block = arr[lo - 1 : lo + _RLE_BLOCK]
            changes = np.flatnonzero(block[1:] != block[:-1]) + lo
            if len(changes):
                starts = np.concatenate(([start], changes))
                runs += map(list, zip(arr[starts[:-1]].tolist(), np.diff(starts).tolist()))
                start = int(changes[-1])
        runs.append([int(arr[start]), n - start])
        return runs

    @classmethod
    def from_rle(cls, n: int, r: int, runs: Iterable[Sequence[int]]) -> "Coloring":
        table = np.asarray(list(runs), dtype=np.int64).reshape(-1, 2)
        colors, lengths = table[:, 0], table[:, 1]
        # checked here, in int64: the int32 color array would wrap large values
        if ((colors < 1) | (colors > r)).any():
            raise ValueError(f"run colors must lie in 1..{r}")
        if ((lengths < 0) | (lengths > n)).any():
            raise ValueError(f"run lengths must lie in 0..{n}")
        total = int(lengths.sum())
        if total != n:
            raise ValueError(f"run lengths sum to {total}, expected {n}")
        return cls(n, r, np.repeat(colors, lengths))

    def save(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            fh.write(f"{self.n} {self.r}\n")
            for i in range(0, self.n, 20):
                fh.write(" ".join(str(int(c)) for c in self.colors[i : i + 20]) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Coloring":
        tokens = Path(path).read_text().split()
        if len(tokens) < 2:
            raise ValueError(f"{path}: need a header line 'N r'")
        n, r = int(tokens[0]), int(tokens[1])
        body = tokens[2:]
        if len(body) != n:
            raise ValueError(f"{path}: header says N={n} but found {len(body)} colors")
        return cls(n, r, np.asarray([int(t) for t in body], dtype=np.int32))
