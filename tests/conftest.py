import random
import shutil
import tempfile
from functools import cache

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from expodom.enumeration import MAX_CONNECTED_ORDER, MAX_TREE_ORDER, \
    LevelSource, StreamMode, levels
from expodom.graphs import Graph, from_edge_list
from expodom.hereditary import ParamStore


#: Property tests replay the same examples on every run and write nothing.
FUZZ = settings(derandomize=True, database=None, max_examples=300,
                deadline=None)


def pytest_configure(config):
    # Hypothesis caches source constants (while collecting) and Unicode
    # tables in its home directory even without an example database: keep
    # them in a directory that is removed when the run ends
    home = tempfile.mkdtemp(prefix="hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    set_hypothesis_home_dir(home)


def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def random_graph(rng: random.Random, n: int, p: float = 0.4) -> Graph:
    edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < p]
    return from_edge_list(n, edges)


def random_connected_graph(rng: random.Random, n: int,
                           p: float = 0.4) -> Graph:
    from expodom.graphs import is_connected

    while True:
        g = random_graph(rng, n, p)
        if is_connected(g):
            return g


@cache
def enumerated(mode: StreamMode,
               free_of: tuple[str, ...] = ()) -> LevelSource:
    """The levels of one host class, shared by the whole run as `store` is:
    each is built once, when a test first asks for it.  A test that counts
    what a build does makes its own source with `levels`."""
    cap = MAX_TREE_ORDER if mode is StreamMode.TREES else MAX_CONNECTED_ORDER
    return levels(mode, free_of, cap)


@pytest.fixture(scope="session")
def store() -> ParamStore:
    """One warm parameter store shared by the whole run."""
    return ParamStore()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0x5EED)
