"""Exact-arithmetic Nash blowup charts and loop search for affine toric varieties.

Exported: what the library example and the benchmark use, and the error
classes.  Every other helper is imported from its module.
"""

from .cone import Cone, NotFullDimensionalError, NotPointedError
from .conefile import ConeFile, ConeFileError, parse_cone_file, render_cone_file
from .exactmath import DimensionMismatch, InvalidCharacteristic
from .iso import certificate_for_matrix, find_isomorphism, fingerprint, verify_certificate
from .nash import blowup_step, chart
from .search import (
    GraphCheckError,
    GraphFormatError,
    explore,
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
from .verify import run_all_checks

__version__ = "0.1.0"

__all__ = [
    "AffineSemigroup",
    "Cone",
    "ConeFile",
    "ConeFileError",
    "DimensionMismatch",
    "GraphCheckError",
    "GraphFormatError",
    "InvalidCharacteristic",
    "NotFullDimensionalError",
    "NotFullLatticeError",
    "NotPointedError",
    "NotSaturatedError",
    "ResourceLimitError",
    "blowup_step",
    "certificate_for_matrix",
    "chart",
    "explore",
    "find_isomorphism",
    "fingerprint",
    "load_graph",
    "parse_cone_file",
    "render_cone_file",
    "run_all_checks",
    "save_graph",
    "saturation_hilbert_basis",
    "verify_certificate",
    "verify_report_cycles",
    "verify_report_nodes",
    "__version__",
]
