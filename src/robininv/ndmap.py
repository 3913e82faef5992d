"""Discrete Neumann-to-Dirichlet operator and its monotonicity verifiers.

The truncated Galerkin form of the ND map is assembled in the span of
{1, cos(k theta), sin(k theta) : k <= n_modes}, orthonormalized against the
discrete boundary mass matrix, so the discrete self-adjointness of the
Galerkin solver carries over exactly.

With the interior and the boundary condensed away (``fem``), the form of a
basis B is F(gamma) = F0 + Z^T A(gamma)^-1 Z, where A = T + C_Gamma(gamma),
Z = W^T M B and F0 = (M B)^T S_BB^-1 (M B) for the boundary mass M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .fem import (
    Conductivity,
    SparseSystem,
    boundary_l2,
    boundary_norm,
    edge_ends,
    gamma_free_part,
    inverse_form,
    solve_forward,
    trace_boundary,
    trace_interface,
)
from .mesh import Mesh

# 2-point Gauss rule on [0, 1] for the verifiers, whose integrands (gamma2^2 /
# gamma1, absolute values) are not polynomial on an edge. It is exact for the
# cubics that fem assembles in closed form, so there it checks that assembly
# independently.
_GAUSS_XI = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])


def _at_gauss_points(mesh, f) -> np.ndarray:
    """Nodal interface values (or an arcwise gamma) at the two Gauss points of every edge: (E, 2)."""
    f0, f1 = edge_ends(mesh, f)
    return f0[:, None] * (1.0 - _GAUSS_XI) + f1[:, None] * _GAUSS_XI


def _gauss_integral(mesh, values: np.ndarray) -> float:
    """int_Gamma of a function given at the Gauss points of every edge, (E, 2)."""
    return float(np.sum(0.5 * mesh.interface_edge_lengths[:, None] * values))


@dataclass
class NdForm:
    """Symmetric matrix of the quadratic form g -> <g, Lambda(gamma) g>."""

    n_modes: int
    basis: np.ndarray  # (n_boundary_nodes, 2*n_modes+1), M-orthonormal columns
    matrix: np.ndarray  # (2*n_modes+1, 2*n_modes+1), or (s, ...) for a system stack

    def compatible_with(self, other: "NdForm") -> bool:
        """Same modes in the same basis values: forms from two boundaries differ in basis."""
        return self.n_modes == other.n_modes and np.array_equal(self.basis, other.basis)


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


def orthonormal_boundary_basis(mesh: Mesh, n_modes: int) -> np.ndarray:
    """Trigonometric boundary basis orthonormalized against the discrete mass.

    It depends on the mesh only (the boundary mass), so it is built once per
    (mesh, n_modes), kept in ``mesh.cache`` and returned read-only.
    """
    if n_modes < 1:
        raise ParameterError("n_modes must be >= 1")
    if 2 * n_modes + 1 > mesh.n_boundary_nodes:
        raise ParameterError("basis larger than the boundary node count")
    key = ("nd_basis", n_modes)
    basis = mesh.cache.get(key)
    if basis is None:
        basis = _orthonormalize(raw_trig_basis(mesh.boundary_theta, n_modes), mesh.boundary_mass)
        basis.flags.writeable = False
        mesh.cache[key] = basis
    return basis


def nd_form(mesh: Mesh, sigma: Conductivity, gamma, n_modes: int) -> NdForm:
    """The ND form of gamma, or one per member of a coefficient stack, (s, d, d):
    F0 + Z^T A(gamma)^-1 Z, symmetric by construction, from one Cholesky
    factorization per gamma and no solve of size n (:func:`robininv.fem.inverse_form`).
    Z and F0 are built once per (mesh, sigma, n_modes) and kept read-only in
    ``mesh.cache``."""
    B = orthonormal_boundary_basis(mesh, n_modes)
    key = ("nd_terms", sigma, n_modes)
    terms = mesh.cache.get(key)
    if terms is None:
        part = gamma_free_part(mesh, sigma)
        MB = mesh.boundary_mass @ B
        F0 = MB.T @ (part.S_BB_inv @ MB)
        terms = mesh.cache[key] = (part.W.T @ MB, 0.5 * (F0 + F0.T))
        for term in terms:
            term.flags.writeable = False
    Z, F0 = terms
    return NdForm(n_modes=n_modes, basis=B, matrix=F0 + inverse_form(mesh, sigma, gamma, Z))


def nd_form_matrix(system: SparseSystem, n_modes: int) -> NdForm:
    """The ND form of the system's gamma (:func:`nd_form`); a system stack gives
    one matrix per member, (s, d, d)."""
    return nd_form(system.mesh, system.sigma, system.gamma, n_modes)


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
    _shared_mesh(system1, system2)
    g1, g2 = system1.gamma_nodal(), system2.gamma_nodal()
    if not np.all(g1 <= g2 + 1e-14):
        raise ParameterError("check_monotonicity requires gamma1 <= gamma2 nodewise")
    F1, F2 = nd_form_matrix(system1, n_modes), nd_form_matrix(system2, n_modes)
    return float(_difference_eigenvalues(F1, F2).min())


def _shared_mesh(system1: SparseSystem, system2: SparseSystem):
    """The mesh of both systems; the identities compare two coefficients on one mesh."""
    if system1.mesh is not system2.mesh:
        raise ParameterError("systems must share a mesh")
    return system1.mesh


def monotonicity_estimate_check(system1: SparseSystem, system2: SparseSystem, g):
    """The three quantities of the two-sided monotonicity estimate.

    Returns (lhs, mid, rhs) with
      lhs = int_Gamma (gamma1 - gamma2) u2^2 ds,
      mid = int_{dOmega} g (Lambda(gamma2) - Lambda(gamma1)) g ds,
      rhs = int_Gamma (gamma2 - gamma2^2/gamma1) u2^2 ds.
    lhs and rhs are integrated by the 2-point Gauss rule, which is exact for
    lhs, so lhs >= mid >= rhs holds for the Galerkin solutions up to rounding.
    """
    mesh = _shared_mesh(system1, system2)
    u1, u2 = solve_forward(system1, g), solve_forward(system2, g)
    g1q, g2q = _at_gauss_points(mesh, system1.gamma), _at_gauss_points(mesh, system2.gamma)
    u2q = _at_gauss_points(mesh, trace_interface(mesh, u2))
    lhs = _gauss_integral(mesh, (g1q - g2q) * u2q**2)
    mid = boundary_l2(system1, g, trace_boundary(mesh, u2)) - boundary_l2(
        system1, g, trace_boundary(mesh, u1)
    )
    rhs = _gauss_integral(mesh, (g2q - g2q**2 / g1q) * u2q**2)
    return lhs, mid, rhs


def alessandrini_residual(system1: SparseSystem, system2: SparseSystem, g, h) -> float:
    """Relative defect of the exact boundary/interface integral identity.

    | int h (Lambda(g2) - Lambda(g1)) g - int_Gamma (g1 - g2) u1^h u2^g | / scale.
    Zero for Galerkin solutions up to solver tolerance.
    """
    mesh = _shared_mesh(system1, system2)
    u1h, u2g = solve_forward(system1, h), solve_forward(system2, g)
    lhs = boundary_l2(system1, h, trace_boundary(mesh, u2g)) - boundary_l2(
        system1, g, trace_boundary(mesh, u1h)
    )
    g1q, g2q = _at_gauss_points(mesh, system1.gamma), _at_gauss_points(mesh, system2.gamma)
    u1q = _at_gauss_points(mesh, trace_interface(mesh, u1h))
    u2q = _at_gauss_points(mesh, trace_interface(mesh, u2g))
    rhs = _gauss_integral(mesh, (g1q - g2q) * u1q * u2q)
    # scale by non-cancelling magnitudes so symmetric pairs (both sides ~0)
    # do not divide rounding noise by rounding noise
    scale = (
        boundary_norm(system1, h) * boundary_norm(system1, trace_boundary(mesh, u2g))
        + boundary_norm(system1, g) * boundary_norm(system1, trace_boundary(mesh, u1h))
        + _gauss_integral(mesh, np.abs(g1q - g2q) * np.abs(u1q) * np.abs(u2q))
    )
    return abs(lhs - rhs) / max(scale, 1e-300)


def nd_quadratic_form(system: SparseSystem, g) -> float:
    """<g, Lambda(gamma) g> for a single boundary current."""
    return boundary_l2(system, g, apply_nd(system, g))
