"""Color degree sequences of rainbow-triangle-free edge colorings.

An edge coloring of the complete graph K_n is Gallai when no triangle
shows three distinct colors.  The color degree of a vertex is the number
of distinct colors on its incident edges.  This package decides, with
exact integer arithmetic, which nondecreasing sequences arise as sorted
color degree sequences of Gallai colorings, constructs witness colorings
by iterated vertex duplication, and ships the structural toolkit
(disconnected color classes, component compression, chain orders, Gallai
partitions) plus an exhaustive small-n oracle that cross-validates the
characterization.
"""

from .coloring import (
    EdgeColoring,
    RainbowWitness,
    color_degrees,
    find_rainbow_triangle,
    is_gallai,
    normalize_colors,
)
from .construct import (
    MAX_VERTICES,
    DuplicationChoice,
    chain_coloring,
    duplicate_vertex,
    realize,
    uniform_coloring,
)
from .document import (
    parse_document,
    render_document,
    render_dot,
)
from .errors import (
    DocumentError,
    GallaiError,
    InfeasibleSequenceError,
    InternalConsistencyError,
    MalformedSequenceError,
    NotGallaiError,
    SizeGuardError,
)
from .feasibility import (
    FeasibilityReport,
    check_sequence,
    min_degree_upper_bound,
    validate_sequence,
)
from .oracle import (
    ENUMERATION_SIZE_LIMIT,
    PARTITION_SIZE_LIMIT,
    CrosscheckResult,
    GallaiPartition,
    brute_force_gallai_partition,
    crosscheck,
)
from .structure import (
    ChainOrder,
    ColorComponentSplit,
    CompressionResult,
    PrefixBoundReport,
    color_component_split,
    compress_component,
    find_disconnected_color,
    prefix_color_bound_report,
    recover_chain_order,
)

__version__ = "0.1.0"
