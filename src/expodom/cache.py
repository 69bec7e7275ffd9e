"""Append-only results cache: one tab-separated record per canonical graph.

Line format: <canonical graph6> TAB gamma TAB gamma_e TAB gamma_e_star.
A record holds a graph6 key of bytes 63-126 alone (no header, no spaces)
and three ASCII-digit fields with 1 <= gamma_e_star <= gamma_e <= gamma <=
the key's order.  Any other line (short, signed, spaced, out of range) is
skipped with a warning instead of aborting: a truncated final line from an
interrupted run must not poison later sweeps, and the first append after
such a line starts on a new line.  Reads only ever speed things
up; values are recomputed identically on a miss.
"""

from __future__ import annotations

import os
import re
import sys
from dataclasses import dataclass
from typing import IO, Iterable, Optional

from .graphs import graph6_bit_stream

#: A key as lookups spell it: graph6 bytes alone.  A key with a header or
#: spaces still parses as graph6, but its record would never be hit.
_GRAPH6_KEY = re.compile(r"[?-~]+")


@dataclass(frozen=True)
class CacheRecord:
    graph6: str
    gamma: int
    gamma_e: int
    gamma_e_star: int

    def __post_init__(self) -> None:
        if not _GRAPH6_KEY.fullmatch(self.graph6):
            raise ValueError("key has a byte outside the graph6 range 63-126")
        n = graph6_bit_stream(self.graph6)[0]  # raises on a non-graph6 key
        if not 1 <= self.gamma_e_star <= self.gamma_e <= self.gamma <= n:
            raise ValueError("values break 1 <= gamma_e_star <= gamma_e"
                             f" <= gamma <= {n}")

    def line(self) -> str:
        return f"{self.graph6}\t{self.gamma}\t{self.gamma_e}\t{self.gamma_e_star}\n"

    @staticmethod
    def parse(line: str) -> "CacheRecord":
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 4:
            raise ValueError(f"expected 4 fields, got {len(parts)}")
        g6, *vals = parts
        for v in vals:
            if not (v.isascii() and v.isdigit()):
                raise ValueError(f"field {v!r} is not a decimal number")
        return CacheRecord(g6, *map(int, vals))


class ResultsCache:
    """In-memory view of a cache file plus an append handle."""

    def __init__(self, path: str):
        self.path = path
        self._records: dict[str, tuple[int, int, int]] = {}
        self._handle: Optional[IO[str]] = None
        # whether the file's last line lacks its newline; if so, the first
        # append starts a new line instead of extending it into a forged
        # record
        self._torn = False
        self._load()

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="ascii", errors="replace") as fh:
            for lineno, line in enumerate(fh, start=1):
                self._torn = not line.endswith("\n")
                if not line.strip():
                    continue
                try:
                    rec = CacheRecord.parse(line)
                except ValueError as exc:
                    print(f"warning: {self.path}:{lineno}: skipping bad "
                          f"cache line ({exc})", file=sys.stderr)
                    continue
                self._records[rec.graph6] = (rec.gamma, rec.gamma_e,
                                             rec.gamma_e_star)

    def __len__(self) -> int:
        return len(self._records)

    def get(self, graph6: str) -> Optional[tuple[int, int, int]]:
        return self._records.get(graph6)

    def items(self) -> Iterable[tuple[str, tuple[int, int, int]]]:
        """Every (graph6, values) record held, in file order."""
        return self._records.items()

    def put(self, graph6: str, values: tuple[int, int, int]) -> None:
        if graph6 in self._records:
            return
        rec = CacheRecord(graph6, *values)  # validates the chain
        self._records[graph6] = values
        if self._handle is None:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._handle = open(self.path, "a", encoding="ascii")
            if self._torn:
                self._handle.write("\n")
        self._handle.write(rec.line())
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

