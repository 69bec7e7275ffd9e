"""Append-only results cache: one tab-separated record per canonical graph.

Line format: <canonical graph6> TAB gamma TAB gamma_e TAB gamma_e_star.
Records violating the parameter chain, short lines, or unparsable fields
are skipped with a warning instead of aborting: a truncated final line from
an interrupted run must not poison later sweeps.  Reads only ever speed
things up; values are recomputed identically on a miss.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import IO, Iterable, Optional

from .graphs import graph6_bit_stream

#: Environment variable naming the default cache file.
CACHE_ENV_VAR = "EXPODOM_CACHE"


@dataclass(frozen=True)
class CacheRecord:
    graph6: str
    gamma: int
    gamma_e: int
    gamma_e_star: int

    def __post_init__(self) -> None:
        if not (self.gamma_e_star <= self.gamma_e <= self.gamma):
            raise ValueError("parameter chain violated")

    def line(self) -> str:
        return f"{self.graph6}\t{self.gamma}\t{self.gamma_e}\t{self.gamma_e_star}\n"

    @staticmethod
    def parse(line: str) -> "CacheRecord":
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 4:
            raise ValueError(f"expected 4 fields, got {len(parts)}")
        g6, *vals = parts
        graph6_bit_stream(g6)  # a key that is not graph6 is a bad line
        a, b, c = (int(v) for v in vals)
        return CacheRecord(g6, a, b, c)


class ResultsCache:
    """In-memory view of a cache file plus an append handle."""

    def __init__(self, path: str):
        self.path = path
        self._records: dict[str, tuple[int, int, int]] = {}
        self._handle: Optional[IO[str]] = None
        self._load()

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="ascii", errors="replace") as fh:
            for lineno, line in enumerate(fh, start=1):
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
        self._handle.write(rec.line())
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def cache_from_environment() -> Optional[ResultsCache]:
    path = os.environ.get(CACHE_ENV_VAR)
    return ResultsCache(path) if path else None


def records(cache: ResultsCache) -> Iterable[CacheRecord]:
    for g6, (a, b, c) in sorted(cache._records.items()):
        yield CacheRecord(g6, a, b, c)
