"""Exact-arithmetic Nash blowup charts and loop search for affine toric varieties."""

from .cone import Cone, NotFullDimensionalError, NotPointedError, dual_description
from .conefile import ConeFile, ConeFileError, parse_cone_file, render_cone_file
from .exactmath import (
    DimensionMismatch,
    InvalidCharacteristic,
    adjugate,
    det,
    det_p,
    hermite_form,
    is_unimodular,
    kernel_basis,
    solve_integral,
)
from .iso import (
    Fingerprint,
    IsoCertificate,
    certificate_for_matrix,
    find_isomorphism,
    fingerprint,
    invert_certificate,
    verify_certificate,
)
from .nash import BlowupChart, blowup_step, chart, g_set
from .search import (
    CycleRecord,
    GraphEdge,
    GraphFormatError,
    GraphNode,
    SearchReport,
    explore,
    find_cycles,
    load_graph,
    save_graph,
    verify_report_cycles,
    verify_report_nodes,
)
from .semigroup import (
    AffineSemigroup,
    NotFullLatticeError,
    NotSaturatedError,
    ResourceLimitError,
    saturation_hilbert_basis,
)
from .verify import CheckResult, VerificationLedger, run_all_checks

__version__ = "0.1.0"

__all__ = [
    "AffineSemigroup",
    "BlowupChart",
    "CheckResult",
    "Cone",
    "ConeFile",
    "ConeFileError",
    "CycleRecord",
    "DimensionMismatch",
    "Fingerprint",
    "GraphEdge",
    "GraphFormatError",
    "GraphNode",
    "InvalidCharacteristic",
    "IsoCertificate",
    "NotFullDimensionalError",
    "NotFullLatticeError",
    "NotPointedError",
    "NotSaturatedError",
    "ResourceLimitError",
    "SearchReport",
    "VerificationLedger",
    "adjugate",
    "blowup_step",
    "certificate_for_matrix",
    "chart",
    "det",
    "det_p",
    "dual_description",
    "explore",
    "find_cycles",
    "find_isomorphism",
    "fingerprint",
    "g_set",
    "hermite_form",
    "invert_certificate",
    "is_unimodular",
    "kernel_basis",
    "load_graph",
    "parse_cone_file",
    "render_cone_file",
    "run_all_checks",
    "save_graph",
    "saturation_hilbert_basis",
    "solve_integral",
    "verify_certificate",
    "verify_report_cycles",
    "verify_report_nodes",
    "__version__",
]
