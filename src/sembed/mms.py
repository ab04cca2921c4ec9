"""Manufactured solutions and error measures.

The manufactured field is u = cos(k pi x) sin(k pi y) + 2x - y
with k = 5 by default (k = 1 kept as a preset). It is globally smooth, so
it doubles as the analytic extension of all boundary data outside the
domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .refelem import build_reference_element


@dataclass(frozen=True)
class ManufacturedSolution:
    wavenumber: int = 5

    def u(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        k = self.wavenumber * np.pi
        return (
            np.cos(k * x[:, 0]) * np.sin(k * x[:, 1])
            + 2.0 * x[:, 0]
            - x[:, 1]
        )

    def grad(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        k = self.wavenumber * np.pi
        g = np.empty_like(x)
        g[:, 0] = -k * np.sin(k * x[:, 0]) * np.sin(k * x[:, 1]) + 2.0
        g[:, 1] = k * np.cos(k * x[:, 0]) * np.cos(k * x[:, 1]) - 1.0
        return g

    def laplacian(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        k = self.wavenumber * np.pi
        return -(k * k + k * k) * np.cos(k * x[:, 0]) * np.sin(k * x[:, 1])

    def forcing(self, alpha: float = 0.0):
        if alpha == 0.0:
            # alpha * u adds nothing, and evaluating u is a second cos/sin pass
            return lambda x: -self.laplacian(x)

        def f(x):
            return -self.laplacian(x) + alpha * self.u(x)

        return f

    def normal_derivative(self, geometry=None):
        """Flux data q_N = grad(u) . n. The returned callable accepts the
        quadrature normals, falling back to the geometry's analytic normal
        when called with points only."""

        def q(x, n=None):
            if n is None:
                n = geometry.normal(x)
            return (self.grad(x) * np.asarray(n)).sum(axis=1)

        return q


def l1_error(domain, system, u_vec, exact_u) -> float:
    """Integral of |u_h - u| over the active elements by cubature."""
    elem = build_reference_element(domain.order)
    rs = np.column_stack([elem.cub_r, elem.cub_s])
    xq = domain.mesh.to_physical(domain.active, rs)
    # one matrix-vector product per element, as a batch: u_h - u cancels
    # to the error's size, so u_h keeps the rounding of the per-element sum
    uh = (elem.cub_basis @ u_vec[system.loc2glob][..., None])[..., 0]
    ue = np.asarray(exact_u(xq.reshape(-1, 2)), dtype=float)
    err = np.abs(uh.ravel() - ue).reshape(uh.shape) @ elem.cub_w
    return float(np.abs(domain.mesh.jacobian[domain.active]) @ err)
