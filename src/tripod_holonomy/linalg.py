"""Dense linear algebra for the small matrices used here.

`is_unitary` checks every exact propagator. `exp_i_hermitian` goes
through the spectral decomposition; no engine calls it, as both tripod
exponentials are closed forms, and it stays for the benchmark harness,
which binds it. Both take one matrix or a (..., n, n) stack. The ordered
product of a stack of step maps, or of each of a batch of them, serves
both time-ordered engines.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonHermitianInput

# Pre-check tolerance for Hermiticity of inputs.
HERMITIAN_TOL = 1e-10
# Tolerance on the unitarity of computed propagators.
UNITARY_TOL = 1e-10


def is_unitary(u: np.ndarray) -> bool:
    """True iff ||U^dag U - I||_F <= UNITARY_TOL for every matrix U."""
    u = np.asarray(u)
    defect = np.linalg.norm(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1]), axis=(-2, -1))
    return bool(np.all(defect <= UNITARY_TOL))


def exp_i_hermitian(a: np.ndarray, s: float) -> np.ndarray:
    """exp(i*s*A) for each square, finite, Hermitian A (to HERMITIAN_TOL in
    Frobenius norm), via V diag(exp(i s w)) V^dag."""
    if not np.isfinite(s):
        raise ValueError("scale factor must be finite")
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expected square matrices, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    herm = m.conj().swapaxes(-1, -2)
    residual = float(np.max(np.linalg.norm(m - herm, axis=(-2, -1)), initial=0.0))
    if residual > HERMITIAN_TOL:
        raise NonHermitianInput(
            f"Hermiticity residual {residual:.3e} exceeds {HERMITIAN_TOL:.1e}"
        )
    w, v = np.linalg.eigh(m)
    return (v * np.exp(1j * s * w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _ordered_product(stack: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """Product stack[n-1] @ ... @ stack[0] along the first axis of an
    (n, ..., d, d) stack, by pairwise tree reduction. The levels alternate
    between stack and spare, of the same shape but for at least
    ceil(n / 2) steps; both are overwritten, and the result is a view into
    one of them."""
    while len(stack) > 1:
        half, odd = divmod(len(stack), 2)
        np.matmul(stack[1 : 2 * half : 2], stack[0 : 2 * half : 2], out=spare[:half])
        if odd:
            spare[half] = stack[-1]
        stack, spare = spare[: half + odd], stack
    return stack[0]
