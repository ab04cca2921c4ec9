"""Implicit geometries: signed distance, projection, and outward normals.

Convention: the level set is positive inside the domain. The outward normal
is n = -grad(phi)/|grad(phi)|.
"""

from __future__ import annotations

import numpy as np


class ImplicitGeometry:
    """Base class; subclasses provide phi, project, and normal."""

    def phi(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def project(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def normal(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def segment(self, x: np.ndarray) -> np.ndarray:
        """Boundary segment id at (projected) points; single-piece default."""
        x = np.atleast_2d(x)
        return np.zeros(x.shape[0], dtype=np.int64)


class Circle(ImplicitGeometry):
    """Disk of radius R: phi = R - |x - c| (positive inside)."""

    def __init__(self, center, radius: float):
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)

    def phi(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self.radius - np.linalg.norm(x - self.center, axis=-1)

    def _radial(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        d = x - self.center
        r = np.linalg.norm(d, axis=-1, keepdims=True)
        safe = np.where(r > 1e-300, r, 1.0)
        u = np.where(r > 1e-300, d / safe, [1.0, 0.0])
        return u

    def project(self, x):
        return self.center + self.radius * self._radial(x)

    def normal(self, x):
        return self._radial(x)

    def arc_param(self, a: np.ndarray, b: np.ndarray, fractions: np.ndarray,
                  prefer) -> tuple[np.ndarray, np.ndarray]:
        """Points (m, nf, 2) on the circle at equal arc fractions between
        boundary points a (m, 2) and b (m, 2). Of the two candidate arcs of
        each pair, pick the first whose midpoint passes `prefer`, which maps
        (m, 2) midpoints to an (m,) mask. Also returns the (m,) mask of
        pairs where one of the arcs passed; the others' points are junk."""
        ta = np.arctan2(a[:, 1] - self.center[1], a[:, 0] - self.center[0])
        tb = np.arctan2(b[:, 1] - self.center[1], b[:, 0] - self.center[0])
        dt = (tb - ta) % (2.0 * np.pi)

        def on_circle(theta):
            return self.center + self.radius * np.stack(
                [np.cos(theta), np.sin(theta)], axis=-1
            )

        first = prefer(on_circle(ta + 0.5 * dt))
        found = first | prefer(on_circle(ta + 0.5 * (dt - 2.0 * np.pi)))
        sweep = np.where(first, dt, dt - 2.0 * np.pi)
        return on_circle(ta[:, None] + fractions * sweep[:, None]), found


class Rectangle(ImplicitGeometry):
    """Axis-aligned box [x0, x1] x [y0, y1], positive inside.

    Segment ids: 0 bottom, 1 right, 2 top, 3 left.
    """

    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if np.any(self.upper <= self.lower):
            raise ValueError("upper must exceed lower componentwise")

    def phi(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        d = np.maximum(self.lower - x, x - self.upper)
        outside = np.maximum(d, 0.0)
        dist_out = np.linalg.norm(outside, axis=-1)
        dist_in = -np.max(d, axis=-1)
        return np.where(dist_out > 0, -dist_out, dist_in)

    def project(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        p = np.clip(x, self.lower, self.upper)
        inside = np.all((x > self.lower) & (x < self.upper), axis=-1)
        if np.any(inside):
            # snap interior points to the nearest face
            gaps = np.stack(
                [
                    x[..., 1] - self.lower[1],
                    self.upper[0] - x[..., 0],
                    self.upper[1] - x[..., 1],
                    x[..., 0] - self.lower[0],
                ],
                axis=-1,
            )
            face = np.argmin(gaps, axis=-1)[inside]
            # faces 0 and 2 fix y, faces 1 and 3 fix x
            level = np.array(
                [self.lower[1], self.upper[0], self.upper[1], self.lower[0]]
            )
            p[inside, 1 - face % 2] = level[face]
        return p

    def normal(self, x):
        p = self.project(x)
        n = np.zeros_like(p)
        tol = 1e-12 * np.max(self.upper - self.lower)
        on_left = np.abs(p[..., 0] - self.lower[0]) < tol
        on_right = np.abs(p[..., 0] - self.upper[0]) < tol
        on_bottom = np.abs(p[..., 1] - self.lower[1]) < tol
        on_top = np.abs(p[..., 1] - self.upper[1]) < tol
        n[..., 0] = np.where(on_right, 1.0, 0.0) - np.where(on_left, 1.0, 0.0)
        n[..., 1] = np.where(on_top, 1.0, 0.0) - np.where(on_bottom, 1.0, 0.0)
        norm = np.linalg.norm(n, axis=-1, keepdims=True)
        return n / np.where(norm > 0, norm, 1.0)

    def segment(self, x):
        p = self.project(np.atleast_2d(np.asarray(x, dtype=float)))
        tol = 1e-10 * np.max(self.upper - self.lower)
        seg = np.zeros(p.shape[0], dtype=np.int64)
        seg[np.abs(p[:, 0] - self.upper[0]) < tol] = 1
        seg[np.abs(p[:, 1] - self.upper[1]) < tol] = 2
        seg[np.abs(p[:, 0] - self.lower[0]) < tol] = 3
        seg[np.abs(p[:, 1] - self.lower[1]) < tol] = 0
        return seg


class Difference(ImplicitGeometry):
    """Points inside `outer` and outside `inner` (a domain with a hole).

    Segment ids: the outer geometry keeps its own, the inner hole gets
    segment id 100 + inner segment id.
    """

    INNER_OFFSET = 100

    def __init__(self, outer: ImplicitGeometry, inner: ImplicitGeometry):
        self.outer = outer
        self.inner = inner

    def phi(self, x):
        return np.minimum(self.outer.phi(x), -self.inner.phi(x))

    def _outer_active(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self.outer.phi(x) < -self.inner.phi(x)

    def project(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        act = self._outer_active(x)
        p = self.inner.project(x)
        p[act] = self.outer.project(x)[act]
        return p

    def normal(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        act = self._outer_active(x)
        # the hole boundary's outward normal points INTO the inner body
        n = -self.inner.normal(x)
        n[act] = self.outer.normal(x)[act]
        return n

    def segment(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        act = self._outer_active(x)
        seg = self.INNER_OFFSET + self.inner.segment(x)
        seg[act] = self.outer.segment(x)[act]
        return seg
