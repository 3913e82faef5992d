"""Discrete Neumann-to-Dirichlet operator and its monotonicity verifiers.

The truncated Galerkin form of the ND map is assembled in the span of
{1, cos(k theta), sin(k theta) : k <= n_modes}, orthonormalized against the
discrete boundary mass matrix, so the discrete self-adjointness of the
Galerkin solver carries over exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .fem import (
    SparseSystem,
    boundary_l2,
    boundary_norm,
    gamma_at_quadrature,
    interface_fn_at_quadrature,
    interface_quadrature_integral,
    solve_forward,
    trace_boundary,
    trace_interface,
)


@dataclass
class NdForm:
    """Symmetric matrix of the quadratic form g -> <g, Lambda(gamma) g>."""

    n_modes: int
    basis: np.ndarray  # (n_boundary_nodes, 2*n_modes+1), M-orthonormal columns
    matrix: np.ndarray  # (2*n_modes+1, 2*n_modes+1), or (s, ...) for a system stack

    def compatible_with(self, other: "NdForm") -> bool:
        return self.n_modes == other.n_modes and self.basis.shape == other.basis.shape


def apply_nd(system: SparseSystem, g) -> np.ndarray:
    """Boundary voltage produced by the current g: trace of the forward solve.

    g may hold k currents as columns, shape (n_boundary_nodes, k)."""
    return trace_boundary(system.mesh, solve_forward(system, g))


def raw_trig_basis(theta: np.ndarray, n_modes: int) -> np.ndarray:
    """Columns 1/sqrt(2 pi), cos(k)/sqrt(pi), sin(k)/sqrt(pi) at the given angles."""
    cols = [np.full_like(theta, 1.0 / np.sqrt(2.0 * np.pi))]
    for k in range(1, n_modes + 1):
        cols.append(np.cos(k * theta) / np.sqrt(np.pi))
        cols.append(np.sin(k * theta) / np.sqrt(np.pi))
    return np.stack(cols, axis=1)


def _orthonormalize(V: np.ndarray, M) -> np.ndarray:
    """The columns of V, made M-orthonormal through the Cholesky factor of their Gram matrix."""
    try:
        L = np.linalg.cholesky(V.T @ (M @ V))
    except np.linalg.LinAlgError as exc:
        raise ParameterError("trigonometric basis is rank deficient on this mesh") from exc
    return np.linalg.solve(L, V.T).T


def orthonormal_boundary_basis(system: SparseSystem, n_modes: int) -> np.ndarray:
    """Trigonometric boundary basis orthonormalized against the discrete mass.

    It depends on the mesh only (the boundary mass), so it is built once per
    (mesh, n_modes), kept in ``mesh.cache`` and returned read-only.
    """
    mesh = system.mesh
    if 2 * n_modes + 1 > mesh.n_boundary_nodes:
        raise ParameterError("basis larger than the boundary node count")
    key = ("nd_basis", n_modes)
    basis = mesh.cache.get(key)
    if basis is None:
        basis = _orthonormalize(raw_trig_basis(mesh.boundary_theta, n_modes), mesh.boundary_mass)
        basis.flags.writeable = False
        mesh.cache[key] = basis
    return basis


def nd_form_matrix(system: SparseSystem, n_modes: int) -> NdForm:
    """One batched forward solve of all basis functions; entries via the boundary
    inner product. A system stack gives one matrix per member, (s, d, d)."""
    if n_modes < 1:
        raise ParameterError("n_modes must be >= 1")
    B = orthonormal_boundary_basis(system, n_modes)
    M = system.mesh.boundary_mass
    return NdForm(n_modes=n_modes, basis=B, matrix=B.T @ (M @ apply_nd(system, B)))


def _difference_eigenvalues(F1: NdForm, F2: NdForm) -> np.ndarray:
    """Eigenvalues of F1 - F2, symmetrized against rounding; per member of stacked forms."""
    diff = F1.matrix - F2.matrix
    return np.linalg.eigvalsh(0.5 * (diff + np.swapaxes(diff, -1, -2)))


def operator_norm_diff(F1: NdForm, F2: NdForm):
    """Spectral radius of the difference of the two truncated forms: a float, or
    one per member when the forms hold stacks of matrices."""
    if not F1.compatible_with(F2):
        raise ParameterError("ND forms use different bases")
    radius = np.abs(_difference_eigenvalues(F1, F2)).max(axis=-1)
    return float(radius) if radius.ndim == 0 else radius


def check_monotonicity(system1: SparseSystem, system2: SparseSystem, n_modes: int) -> float:
    """Smallest eigenvalue of F(gamma1) - F(gamma2) for nodewise gamma1 <= gamma2.

    Ordered coefficients must give a positive-semidefinite difference up to
    discretization noise.
    """
    g1 = system1.gamma_nodal()
    g2 = system2.gamma_nodal()
    if not np.all(g1 <= g2 + 1e-14):
        raise ParameterError("check_monotonicity requires gamma1 <= gamma2 nodewise")
    F1 = nd_form_matrix(system1, n_modes)
    F2 = nd_form_matrix(system2, n_modes)
    return float(_difference_eigenvalues(F1, F2).min())


def monotonicity_estimate_check(system1: SparseSystem, system2: SparseSystem, g):
    """The three quantities of the two-sided monotonicity estimate.

    Returns (lhs, mid, rhs) with
      lhs = int_Gamma (gamma1 - gamma2) u2^2 ds,
      mid = int_{dOmega} g (Lambda(gamma2) - Lambda(gamma1)) g ds,
      rhs = int_Gamma (gamma2 - gamma2^2/gamma1) u2^2 ds,
    all evaluated with the assembly quadrature so lhs >= mid >= rhs holds for
    the Galerkin solutions up to rounding.
    """
    mesh = system1.mesh
    if mesh is not system2.mesh and mesh.n_nodes != system2.mesh.n_nodes:
        raise ParameterError("systems must share a mesh")
    u1 = solve_forward(system1, g)
    u2 = solve_forward(system2, g)
    g1q = gamma_at_quadrature(system1)
    g2q = gamma_at_quadrature(system2)
    u2q = interface_fn_at_quadrature(mesh, trace_interface(mesh, u2))
    lhs = interface_quadrature_integral(system1, (g1q - g2q) * u2q**2)
    mid = boundary_l2(system1, g, trace_boundary(mesh, u2)) - boundary_l2(
        system1, g, trace_boundary(mesh, u1)
    )
    rhs = interface_quadrature_integral(system1, (g2q - g2q**2 / g1q) * u2q**2)
    return lhs, mid, rhs


def alessandrini_residual(system1: SparseSystem, system2: SparseSystem, g, h) -> float:
    """Relative defect of the exact boundary/interface integral identity.

    | int h (Lambda(g2) - Lambda(g1)) g - int_Gamma (g1 - g2) u1^h u2^g | / scale.
    Zero for Galerkin solutions up to solver tolerance.
    """
    mesh = system1.mesh
    u1h = solve_forward(system1, h)
    u2g = solve_forward(system2, g)
    lhs = boundary_l2(system1, h, trace_boundary(mesh, u2g)) - boundary_l2(
        system1, g, trace_boundary(mesh, u1h)
    )
    g1q = gamma_at_quadrature(system1)
    g2q = gamma_at_quadrature(system2)
    u1q = interface_fn_at_quadrature(mesh, trace_interface(mesh, u1h))
    u2q = interface_fn_at_quadrature(mesh, trace_interface(mesh, u2g))
    rhs = interface_quadrature_integral(system1, (g1q - g2q) * u1q * u2q)
    # scale by non-cancelling magnitudes so symmetric pairs (both sides ~0)
    # do not divide rounding noise by rounding noise
    scale = (
        boundary_norm(system1, h) * boundary_norm(system1, trace_boundary(mesh, u2g))
        + boundary_norm(system1, g) * boundary_norm(system1, trace_boundary(mesh, u1h))
        + interface_quadrature_integral(system1, np.abs(g1q - g2q) * np.abs(u1q) * np.abs(u2q))
    )
    return abs(lhs - rhs) / max(scale, 1e-300)


def nd_quadratic_form(system: SparseSystem, g) -> float:
    """<g, Lambda(gamma) g> for a single boundary current."""
    return boundary_l2(system, g, apply_nd(system, g))
