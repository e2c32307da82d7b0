"""Exact computation of zero-sum invariants over finite abelian groups."""

from .group import AbelianGroup, GroupElement, make_group, parse_group_spec, symmetries
from .search import TOOL_VERSION, Certificate, SearchConfig, compute_c0, invariant_value
from .sequence import Sequence, read_sequence, write_sequence

__version__ = TOOL_VERSION

__all__ = [
    "AbelianGroup",
    "GroupElement",
    "Sequence",
    "Certificate",
    "SearchConfig",
    "make_group",
    "parse_group_spec",
    "symmetries",
    "invariant_value",
    "compute_c0",
    "read_sequence",
    "write_sequence",
    "__version__",
]
