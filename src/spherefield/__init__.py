"""Isotropic Hilbert-valued Gaussian random fields on spheres.

Construct operator-valued Schoenberg sequences, evaluate and sample the
covariance structures they induce on S^1/S^2, and decide equivalence vs
orthogonality of the induced Gaussian measures through the per-degree
Hilbert-Schmidt summability criterion.
"""

from .harmonics import (
    addition_constant,
    gegenbauer_all,
    gegenbauer_at_one,
    gegenbauer_order,
    h_dim,
    harmonic_basis,
    surface_measure,
)
from .schoenberg import (
    FOURIER_DIAGONAL,
    MATRIX,
    SCALAR,
    IsotropicKernel,
    SchoenbergSequence,
    operator_sqrt,
    sequence_to_dict,
    truncate_sequence,
    validate_sequence,
)
from .models import (
    LegendreMaternParams,
    MultiquadraticParams,
    build_sequence,
    legendre_matern_gamma_grid,
    multiquadratic_kernel_closed_form,
    multiquadratic_validity,
    params_from_dict,
)
from .equivalence import (
    EQUIVALENT,
    INCONCLUSIVE,
    ORTHOGONAL,
    classify_legendre_matern,
    classify_multiquadratic,
    classify_numeric,
    functional_series,
    hs_term,
    project_sequence,
    scalar_marginal_series,
)
from .simulate import (
    FieldSample,
    SampleGrid,
    empirical_covariance,
    make_generator,
    monte_carlo_kernel_check,
    sample_coefficients,
    synthesize_ensemble,
    synthesize_field,
)

__version__ = "0.1.0"
