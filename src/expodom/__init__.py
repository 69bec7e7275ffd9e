"""Exponential domination toolkit: parameters, obstructions, sweeps."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .graphs import (
    Graph,
    Graph6Error,
    SizeCapError,
    INFINITY,
    MAX_VERTICES,
    canonical_code,
    canonical_graph,
    connected_components,
    decode_graph6,
    encode_graph6,
    from_edge_list,
    girth,
    induced_subgraph,
    is_connected,
    relabel,
    set_distance,
    without_vertex,
)
from .domination import (
    ParamResult,
    compute_all,
    constrained_distance,
    domination_number,
    exponential_domination_number,
    is_dominating,
    is_exponential_dominating,
    is_porous_exponential_dominating,
    parameter_values,
    porous_exponential_domination_number,
    porous_weight,
    porous_weight_table,
    weight,
    weight_table,
)
from .patterns import (
    OBSTRUCTION_NAMES,
    Pattern,
    RESTRICTION_NAMES,
    TRIANGLE_RESTRICTION_NAMES,
    catalog,
    find_any_pattern,
    find_induced,
    is_free,
    is_free_with_new_vertex,
    pattern,
    pattern_names,
    verify_catalog,
)
from .enumeration import (
    MAX_CONNECTED_ORDER,
    MAX_TREE_ORDER,
    StreamMode,
    connected_graphs,
    levels_from_graphs,
    read_graph6_stream,
    trees,
)
from .cache import CacheRecord, ResultsCache
from .hereditary import (
    ClassKind,
    DEFAULT_MAX_N,
    MEMBERSHIP_ORDER_CAP,
    MembershipResult,
    ParamStore,
    TREE_OBSTRUCTION_NAMES,
    VerificationReport,
    equality_holds,
    find_minimal_forbidden,
    in_class,
    is_minimal_forbidden,
    probe_conjecture3,
    verify_corollary1,
    verify_corollary2,
    verify_theorem1,
)

#: the names imported above, without the submodules that importing binds
__all__ = ["__version__", *(name for name, value in globals().items()
                            if not name.startswith("_")
                            and not isinstance(value, _ModuleType))]
