"""Four-level tripod system: Hamiltonian, spherical control parametrization,
and the analytic dark/bright eigenframe.

Basis ordering is fixed globally: index 0 -> |0>, 1 -> |1>, 2 -> |a>
(ancilla), 3 -> |e> (excited). The lower three levels couple to |e> through
real Rabi frequencies; the two zero-energy dark states span the
computational subspace.

The eigenframe is always the closed-form expression in the chosen gauge,
never a numerical eigensolver output: this keeps it smooth along any
control path and makes the transport generator piecewise constant on
meridian and equator arcs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Global basis ordering used by every module.
STATE_0 = 0
STATE_1 = 1
STATE_ANCILLA = 2
STATE_EXCITED = 3
DIM = 4

# Energies of the frame columns (D0, D1, D+, D-) in units of Omega: the
# frame takes the Hamiltonian to Omega diag(FRAME_ENERGY) at every point.
FRAME_ENERGY = np.array([0, 0, 1, -1])


@dataclass(frozen=True)
class EigenFrame:
    """Instantaneous eigenbasis, columns ordered (D0, D1, D+, D-).

    D0, D1 are the zero-energy dark states; D+/- the bright states at
    +/- omega. `matrix` is the 4x4 with these vectors as columns.
    """

    matrix: np.ndarray

    @property
    def dark(self) -> np.ndarray:
        """4x2 block (D0, D1)."""
        return self.matrix[:, :2]


def hamiltonian(theta, phi, omega: float = 1.0) -> np.ndarray:
    """Coupling Hamiltonian |e>(w0<0| + w1<1| + wa<a|) + h.c. on the sphere
    of radius omega, with Rabi frequencies (w0, w1, wa) =
    omega (sin(theta) sin(phi), sin(theta) cos(phi), cos(theta)).

    theta and phi may be scalars or arrays of one shape; returns (..., 4, 4).
    """
    st, ct = np.sin(theta), np.cos(theta)
    w0 = omega * st * np.sin(phi)
    w1 = omega * st * np.cos(phi)
    wa = omega * ct
    h = np.zeros(np.shape(w0) + (DIM, DIM), dtype=complex)
    h[..., STATE_EXCITED, STATE_0] = w0
    h[..., STATE_EXCITED, STATE_1] = w1
    h[..., STATE_EXCITED, STATE_ANCILLA] = wa
    h[..., STATE_0, STATE_EXCITED] = w0
    h[..., STATE_1, STATE_EXCITED] = w1
    h[..., STATE_ANCILLA, STATE_EXCITED] = wa
    return h


def _frame_columns(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Closed-form frame for arrays of angles; returns real (..., 4, 4)."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    # columns (D0, D1, D+, D-); D+ and D- differ only in their |e> entry
    f = np.zeros(st.shape + (DIM, DIM))
    f[..., 0, 0], f[..., 1, 0] = cp, -sp
    f[..., 0, 1], f[..., 1, 1], f[..., 2, 1] = ct * sp, ct * cp, -st
    f[..., 0, 2] = f[..., 0, 3] = inv_sqrt2 * (st * sp)
    f[..., 1, 2] = f[..., 1, 3] = inv_sqrt2 * (st * cp)
    f[..., 2, 2] = f[..., 2, 3] = inv_sqrt2 * ct
    f[..., 3, 2], f[..., 3, 3] = inv_sqrt2, -inv_sqrt2
    return f


def eigenframe(theta: float, phi: float) -> EigenFrame:
    """Analytic eigenframe at the control point (theta, phi) (fixed gauge)."""
    if not (np.isfinite(theta) and np.isfinite(phi)):
        raise ValueError("angles must be finite")
    return EigenFrame(matrix=_frame_columns(theta, phi).astype(complex))
