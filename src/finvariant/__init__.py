"""Exact q-expansion workbench for f-invariant representatives of transfers.

Subpackage layout:

- exactnum:  cyclotomic/rational scalars, Bernoulli numbers, cyclotomic
             polynomials, the value c0 + c1*eps of a coefficient
- qseries:   truncated q-series c0 + c1*eps over Q(zeta_N), stored as integer
             rows over one denominator
- genus:     level-N Eisenstein-type series, genus expansion, numeric oracles
- divcong:   modular bases, lattice equivalence decisions, Hermite normal form
- geometry:  circle/homogeneous-space spectra, SU(2)/SU(3) data, Chern-Simons
- fassembly: xi-tables, assembly formulas, known representatives, examples
- files:     series, basis and xi-table file formats, read to integer rows
- cli:       batch command-line front end, verdict and certificate printing
"""

from .exactnum import CycNum, EpsPoly, bernoulli, cyclotomic_poly
from .qseries import QSeries, eps_split, is_integral_series
from .genus import ell_expansion, g2, g_hat, g_tilde, g_tilde_level1
from .divcong import build_basis, hnf, is_equivalent, make_lattice, sturm_bound
from .fassembly import (FRepresentative, XiTable, assemble_complex,
                        assemble_complex_reduced, assemble_quaternionic,
                        assemble_quaternionic_reduced, known_representative,
                        run_example)

__version__ = "0.1.0"

__all__ = [
    "CycNum", "EpsPoly", "FRepresentative", "QSeries", "XiTable",
    "assemble_complex", "assemble_complex_reduced", "assemble_quaternionic",
    "assemble_quaternionic_reduced", "bernoulli", "build_basis",
    "cyclotomic_poly", "ell_expansion", "eps_split", "g2", "g_hat", "g_tilde",
    "g_tilde_level1", "hnf",
    "is_equivalent", "is_integral_series", "known_representative",
    "make_lattice", "run_example", "sturm_bound",
]
