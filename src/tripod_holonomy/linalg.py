"""Dense complex linear algebra for the 2x2 and 4x4 matrices used here.

Everything is Hermitian or unitary and tiny, so matrix exponentials go
through the spectral decomposition rather than scaling-and-squaring.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonHermitianInput

# Pre-check tolerance for Hermiticity of inputs.
HERMITIAN_TOL = 1e-10
# Tolerance on the unitarity of computed propagators.
UNITARY_TOL = 1e-10


def is_unitary(u: np.ndarray) -> bool:
    """True iff ||U^dag U - I||_F <= UNITARY_TOL."""
    u = np.asarray(u)
    return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]))) <= UNITARY_TOL


def exp_i_hermitian(a: np.ndarray, s: float) -> np.ndarray:
    """exp(i*s*A) for a square, finite, Hermitian A (to HERMITIAN_TOL in
    Frobenius norm), via V diag(exp(i s w)) V^dag."""
    if not np.isfinite(s):
        raise ValueError("scale factor must be finite")
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix entries must be finite")
    residual = float(np.linalg.norm(m - m.conj().T))
    if residual > HERMITIAN_TOL:
        raise NonHermitianInput(
            f"Hermiticity residual {residual:.3e} exceeds {HERMITIAN_TOL:.1e}"
        )
    w, v = np.linalg.eigh(m)
    return (v * np.exp(1j * s * w)) @ v.conj().T
