"""Bilinear biorthogonal expansion toolbox.

Kernels (Fourier, Dunkl, q-Dunkl), their sampling and Fourier-Neumann
expansions, the spectrum of the right inverse of the reflection-group
derivative, and a verification harness reproducing the underlying
identities at desk scale.
"""

from .specfun import (Params, ZeroTable, bessel_j, bessel_j_ratio,
                      bessel_zeros, dunkl_kernel, gamma, lommel_h)
from .quad import (accelerate, gauss_jacobi, integrate_bessel_product,
                   integrate_interval)
from .orthopoly import (GenGegenbauerFamily, classical_gegenbauer,
                        dunkl_apply_poly, jacobi_eval)
from .biortho import (BiorthSystem, PWFunction, classical_planewave, dunkl_sampling_sum,
                      dunkl_system, expand_kernel, fourier_neumann_coeffs, fourier_system,
                      hankel_corollary_sum, kernel_norm_sq, neumann_fn,
                      neumann_partial_sum, neumann_system, planewave_partial_sum, sampling_nodes)
from .spectrum import (SpectralProblem, apply_T, eigen_residual,
                       eigenfunction, eigenvalues, recurrence_coeffs)
from .qspec import (QContext, QJacobiFamily, jackson_integral, phi21,
                    q_dunkl_kernel, q_hankel, q_planewave_partial_sum,
                    q_transform, qbessel3, qpochhammer, qweber_lhs, qweber_rhs)
from .suites import SUITE_NAMES, run_suite

__version__ = "0.1.0"
