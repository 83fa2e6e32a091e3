"""Finite-dimensional quantum toolkit on odd integer grids.

Discrete Fourier/Kravchuk/Wigner calculus, five finite Gaussian families with
Jacobi theta evaluation, displacement-operator tight frames with quantization
maps, and five families of finite oscillator Hamiltonians with spectral and
revival analysis.
"""

from .gaussians import Family, gaussian, normalized_gaussian, norm_squared_closed_form, theta
from .grid import (
    GridDim,
    GridFunction,
    InputError,
    LinearOperator,
    SpectralDecomposition,
    convolve,
    eigendecompose_hermitian,
    fourier_operator,
    fourier_transform,
    hermitian_eigenvalues,
    inner_product,
    inverse_fourier_transform,
    operator_exponential,
    outer,
)
from .frames import (
    CoherentFamily,
    FiniteFrame,
    FrameDiagnostics,
    coherent_family,
    dequantize,
    displacement,
    frame_analyze,
    quantize,
    schwinger,
)
from .kravchuk import (
    KravchukTable,
    Su2Generators,
    generalized_kravchuk_transform,
    kravchuk_function,
    kravchuk_polynomial,
    kravchuk_table,
    kravchuk_transform,
    su2_generators,
)
from .oscillators import (
    HarperBasis,
    RevivalReport,
    detect_revivals,
    evolve,
    fractional_fourier,
    frame_hamiltonian,
    fourier_hamiltonian,
    gram_schmidt_oscillator,
    hamiltonian,
    harper_basis,
    harper_hamiltonian,
    kravchuk_hamiltonian,
)
from .wigner import WignerMap, wigner, wigner_fourier_covariance_check, wigner_product_decomposition

__version__ = "0.1.0"
