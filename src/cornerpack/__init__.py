"""Exact 2D integral rectangle packing built on corner-occupying actions.

The toolkit decides whether axis-aligned rectangles (rotation by 90
degrees allowed) fit into an integral container without overlap. Its
pieces: bottom-left compaction, escape-chain decomposition of stable
packings into corner build orders, a complete depth-first solver whose
only move is placing a rectangle onto a bottom-left corner, brute-force
oracles for cross-checking, and a 3D module certifying that the
escape argument does not survive a third dimension.
"""

from .corners import (
    BOTTOM_BORDER,
    LEFT_BORDER,
    Border,
    Corner,
    CornerAction,
    StaleCornerError,
    apply_action,
    enumerate_corners,
    supporting_rects,
)
from .decompose import (
    EscapeChain,
    NotBottomLeftStableError,
    PlacementOrder,
    extraction_order,
    find_escaper,
    placement_order,
)
from .files import (
    FileFormatError,
    emit_instance,
    emit_solution,
    parse_instance,
    parse_solution,
)
from .generate import corner_walk_packing, guillotine_layout
from .geometry import (
    RIGHT,
    UP,
    Container,
    Instance,
    Packing,
    PlacedRect,
    Placement,
    RectDims,
    free_directions,
    is_feasible,
    is_over,
    is_right_of,
    l_value,
)
from .oracle import OracleCapacityError, OracleLimits, oracle_corners, oracle_feasible
from .render import render_svg
from .solver import (
    SolveResult,
    SolveStats,
    SolveStatus,
    SolverConfig,
    certify,
    quick_reject,
    solve,
)
from .space3d import (
    POS_X,
    POS_Y,
    POS_Z,
    BoxDims,
    Container3,
    Packing3,
    PlacedBox3,
    blocked_directions3,
    find_escaper3,
    is_feasible3,
    table1_packing,
)
from .stability import (
    CompactionTrace,
    InfeasiblePackingError,
    apply_trace,
    compact,
    is_bottom_left_stable,
    is_bottom_left_stable_rect,
    max_down_slide,
    max_left_slide,
)

__version__ = "0.1.0"

__all__ = [
    "BOTTOM_BORDER",
    "Border",
    "BoxDims",
    "CompactionTrace",
    "Container",
    "Container3",
    "Corner",
    "CornerAction",
    "EscapeChain",
    "FileFormatError",
    "InfeasiblePackingError",
    "Instance",
    "LEFT_BORDER",
    "NotBottomLeftStableError",
    "OracleCapacityError",
    "OracleLimits",
    "POS_X",
    "POS_Y",
    "POS_Z",
    "Packing",
    "Packing3",
    "PlacedBox3",
    "PlacedRect",
    "Placement",
    "PlacementOrder",
    "RIGHT",
    "RectDims",
    "SolveResult",
    "SolveStats",
    "SolveStatus",
    "SolverConfig",
    "StaleCornerError",
    "UP",
    "apply_action",
    "apply_trace",
    "blocked_directions3",
    "certify",
    "compact",
    "corner_walk_packing",
    "emit_instance",
    "emit_solution",
    "enumerate_corners",
    "extraction_order",
    "find_escaper",
    "find_escaper3",
    "free_directions",
    "guillotine_layout",
    "is_bottom_left_stable",
    "is_bottom_left_stable_rect",
    "is_feasible",
    "is_feasible3",
    "is_over",
    "is_right_of",
    "l_value",
    "max_down_slide",
    "max_left_slide",
    "oracle_corners",
    "oracle_feasible",
    "parse_instance",
    "parse_solution",
    "placement_order",
    "quick_reject",
    "render_svg",
    "solve",
    "supporting_rects",
    "table1_packing",
]
