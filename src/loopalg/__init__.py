"""Exact computer algebra for twisted loop algebras and affine
Kac-Moody algebras: equivariant bases, PBW straightening, leading-term
reduction engines, growth data, and integrable-module Hilbert series.
"""

# set before the submodule imports, since cli imports it; pyproject.toml
# reads the package version from here as well
__version__ = "1.0"

from .errors import InvariantError
from .scalars import Omega, div, eta, format_scalar, parse_scalar
from .root_systems import RootSystem, ChevalleyElement, cartan_matrix
from .twisted_grading import TwistedBasis, parse_label
from .loop_affine import (D, FLAVORS, AlgebraSpec, letter_bracket,
                          subalgebra_sl2hat, verify_sl2hat)
from . import pbw_monomials
from . import reduction_engine
from . import growth_harness
from . import characters
from .cli import run as cli_run

__all__ = [
    "InvariantError", "Omega", "div", "eta", "format_scalar", "parse_scalar",
    "RootSystem", "ChevalleyElement", "cartan_matrix",
    "TwistedBasis", "parse_label",
    "D", "FLAVORS", "AlgebraSpec", "letter_bracket",
    "subalgebra_sl2hat", "verify_sl2hat",
    "pbw_monomials", "reduction_engine", "growth_harness", "characters",
    "cli_run",
]
