"""Exact-rational toolkit for pairs, their polyhedra, blow-up histories and
the resolution invariant at a point."""

from .errors import InternalError, PreconditionError, ProblemParseError, ToolkitError
from .frames import Frame
from .pairs import (
    Component,
    Pair,
    is_singular_at_origin,
    pair_order,
)
from .poly import (
    INF,
    Polynomial,
    format_polynomial,
    format_rational,
    hasse_derivative,
    initial_form,
    ord_at_origin,
    parse_polynomial,
    substitute,
)
from .polyhedra import (
    OrthantPolyhedron,
    delta,
    minimize_vertices,
    newton_polyhedron,
    pair_minima,
    polyhedron_of_pair,
)
from .cone import (
    DirectrixBasis,
    HomIdeal,
    directrix,
    graded_piece,
    hilbert_samuel_truncated,
    initial_ideal,
)
from .coeff import (
    MaximalContact,
    PrepareResult,
    coefficient_pair,
    delta_invariant,
    find_maximal_contact,
    prepare_vertices,
)
from .history import (
    ChartReport,
    ExcDivisor,
    ExceptionalData,
    PairWithHistory,
    Trace,
    blowup_chart,
    delta_center,
    exceptional_nu,
    is_permissible,
    run_lsb,
)
from .invariant import (
    HilbertSamuel,
    InvariantEntry,
    InvariantVector,
    Options,
    PipelineState,
    companion_pair,
    compare_invariants,
    compute_invariant,
    invariant_step,
    projected_invariant,
    s_partition,
)

from types import ModuleType as _ModuleType

# the public names, not the submodules that the imports above bind
__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
