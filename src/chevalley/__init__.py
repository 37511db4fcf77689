"""Quantum Chevalley operator of the Grassmannian: spectrum and the Galkin
lower bound, verified by four independent computational routes."""

from .combinatorics import GrassmannianParams
from .bruhat import build_graph, export_graph, incidence_matrix, is_strongly_connected
from .symfunc import (central_index, enumerate_indices, rietsch_eigenvector,
                      roots_tuple, schur_eval)
from .spectral import (c1_operator, eigen_residual, principal_eigenvalue,
                       property_o_check, spectral_report, spectrum_closed_form)
from .galkin import (delta0_cosine_sum, delta0_sine, fk, fk_second_derivative,
                     fk_table, verify_galkin)

__version__ = "0.1.0"
