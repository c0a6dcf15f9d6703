"""Pattern order on Shi tableaux and Dyck paths.

Bounce deletions and insertions, exact cover counting, pattern containment
and avoidance enumeration, and the classical bijections (area vectors,
bounce paths, the zeta map) backing them.
"""

from .core import (
    CONNECTING,
    IRREDUCIBLE,
    STRONGLY_IRREDUCIBLE,
    Decomposition,
    DyckPath,
    EMPTY_PATH,
    IndexOutOfRange,
    MalformedWord,
    NotBalanced,
    NotIrreducible,
    Part,
    PrefixViolation,
    ResourceLimit,
    RunForm,
    ShiTableau,
    StandardTableau2,
    area_vector,
    bounce_path,
    catalan,
    enumerate_paths,
    height,
    irreducible_decomposition,
    is_irreducible,
    is_strongly_irreducible,
    mirror,
    parse_path,
    path_to_syt,
    path_to_tableau,
    peaks,
    region_inequalities,
    return_points,
    run_form,
    strongly_irreducible_decomposition,
    syt_to_path,
    tableau_to_path,
    valleys,
)
from .poset import (
    Deletion,
    HasseGraph,
    avoids,
    bounce_delete,
    contains_pattern,
    cover_collisions,
    deletions,
    export_dot,
    hasse,
    lower_covers,
    up_set,
    up_set_sizes,
    upper_covers,
    upper_covers_by_search,
)
from .covers import (
    audit_cover_counts,
    classify_branch,
    column_subpath_ucount,
    compose_inside,
    count_lower_covers,
    count_upper_covers,
)
from .avoidance import (
    UnsupportedFamily,
    avoider_rows,
    avoids_characterized,
    ballot_count,
    bounded_height_count,
    brute_avoider_counts,
    count_avoiders_brute,
    count_avoiders_closed,
    f_count,
    f_count_oracle,
    flatten_high_peaks,
    pattern,
    zeta,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
