"""P1 finite elements for the two-layer Robin transmission problem.

The bilinear form is a(u, w) = int_Omega sigma grad u . grad w dx
+ int_Gamma gamma u w ds; loads live on the outer boundary (applied
current), on the outer boundary with a minus sign (adjoint), or on the
interface (source used by the Runge/localized-potential machinery).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import CoercivityError, NumericalError, ParameterError
from .mesh import INTERFACE_RADIUS, Mesh, PartitionSpec, triangle_areas

# 2-point Gauss rule on [0, 1]; exact for cubics, hence exact for the
# product of three piecewise-linear factors on an edge.
GAUSS_XI = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
GAUSS_W = np.array([0.5, 0.5])


@dataclass(frozen=True)
class Conductivity:
    """Piecewise-constant conductivity: sigma1 on the inner disk, sigma2 outside."""

    sigma1: float
    sigma2: float

    def __post_init__(self):
        if not (self.sigma1 > 0 and self.sigma2 > 0):  # also rejects NaN
            raise ParameterError("conductivities must be positive")


class ArcwiseGamma:
    """Robin coefficient that is constant on each arc of a partition."""

    def __init__(self, partition: PartitionSpec, values):
        values = np.asarray(values, dtype=float)
        if len(values) != partition.n_arcs:
            raise ParameterError("one value per arc required")
        self.partition = partition
        self.values = values

    def min(self) -> float:
        return float(self.values.min())

    def at_edge_points(self, n_edges: int, xi: np.ndarray) -> np.ndarray:
        """Values at quadrature points: (n_edges, len(xi))."""
        if n_edges != len(self.partition.arc_of_edge):
            raise ParameterError("partition does not match this mesh")
        per_edge = self.values[self.partition.arc_of_edge]
        return np.repeat(per_edge[:, None], len(xi), axis=1)


def _gamma_edge_values(mesh: Mesh, gamma, xi: np.ndarray) -> np.ndarray:
    """Evaluate gamma at the points xi of every interface edge."""
    if isinstance(gamma, ArcwiseGamma):
        return gamma.at_edge_points(len(mesh.interface_edges), xi)
    gamma = np.asarray(gamma, dtype=float)
    if len(gamma) != mesh.n_interface_nodes:
        raise ParameterError("gamma must have one value per interface node")
    g0 = gamma
    g1 = np.roll(gamma, -1)
    return g0[:, None] * (1.0 - xi)[None, :] + g1[:, None] * xi[None, :]


def _gamma_min(mesh: Mesh, gamma) -> float:
    if isinstance(gamma, ArcwiseGamma):
        return gamma.min()
    return float(np.asarray(gamma, dtype=float).min())


def curve_mass_matrix(mesh: Mesh, edges: np.ndarray, n: int) -> sp.csr_matrix:
    """1D P1 mass matrix on a closed polygon of n nodes (ring-local indexing)."""
    length = np.linalg.norm(mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]], axis=1)
    i = np.arange(n)
    j = (i + 1) % n
    rows = np.concatenate([i, j, i, j])
    cols = np.concatenate([i, j, j, i])
    data = np.concatenate([length / 3.0, length / 3.0, length / 6.0, length / 6.0])
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


@dataclass
class SparseSystem:
    """Assembled Galerkin system K(sigma, gamma) plus curve mass matrices.

    The sparse LU factor of K is built by the first solve and reused by every
    later one; a system that is never solved is never factored.
    """

    mesh: Mesh
    sigma: Conductivity
    gamma: object  # nodal ndarray or ArcwiseGamma
    K: sp.csr_matrix
    interface_mass: sp.csr_matrix
    boundary_mass: sp.csr_matrix
    _lu: spla.SuperLU | None = field(default=None, repr=False)

    def gamma_nodal(self) -> np.ndarray:
        """Nodal values on interface nodes (arcwise gamma: lower-index arc wins)."""
        if isinstance(self.gamma, ArcwiseGamma):
            part = self.gamma.partition
            n = self.mesh.n_interface_nodes
            arc_prev = part.arc_of_edge[(np.arange(n) - 1) % n]
            arc_next = part.arc_of_edge
            return self.gamma.values[np.minimum(arc_prev, arc_next)]
        return np.asarray(self.gamma, dtype=float)


def stiffness_matrix(mesh: Mesh, sigma: Conductivity) -> sp.csr_matrix:
    """Element-exact P1 stiffness with per-region conductivity."""
    tri = mesh.triangles
    p = mesh.nodes[tri]
    area = triangle_areas(mesh)
    if (area <= 0).any():
        raise ParameterError("mesh has non-positively oriented triangles")
    # gradients of barycentric shape functions
    b = np.stack(
        [p[:, 1, 1] - p[:, 2, 1], p[:, 2, 1] - p[:, 0, 1], p[:, 0, 1] - p[:, 1, 1]], axis=1
    )
    c = np.stack(
        [p[:, 2, 0] - p[:, 1, 0], p[:, 0, 0] - p[:, 2, 0], p[:, 1, 0] - p[:, 0, 0]], axis=1
    )
    coef = np.where(mesh.regions == 1, sigma.sigma1, sigma.sigma2) / (4.0 * area)
    ke = coef[:, None, None] * (
        b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]
    )
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    K = sp.csr_matrix((ke.ravel(), (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes))
    K.sum_duplicates()
    return K


def interface_form_matrix(mesh: Mesh, gamma) -> sp.csr_matrix:
    """Matrix of int_Gamma gamma u w ds on global node indices (2-pt Gauss)."""
    edges = mesh.interface_edges
    length = np.linalg.norm(mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]], axis=1)
    gq = _gamma_edge_values(mesh, gamma, GAUSS_XI)  # (E, 2)
    shp = np.stack([1.0 - GAUSS_XI, GAUSS_XI], axis=0)  # (local node, q)
    # ke[e, i, j] = L_e * sum_q w_q gamma_q N_i(q) N_j(q)
    wq = gq * GAUSS_W[None, :] * length[:, None]
    ke = np.einsum("eq,iq,jq->eij", wq, shp, shp)
    rows = np.repeat(edges, 2, axis=1).ravel()
    cols = np.tile(edges, (1, 2)).ravel()
    C = sp.csr_matrix((ke.ravel(), (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes))
    C.sum_duplicates()
    return C


def gamma_free_part(mesh: Mesh, sigma: Conductivity):
    """(stiffness, interface mass, boundary mass): none depends on gamma.

    Built once per (mesh, sigma) and kept in ``mesh.cache``, so it lives and
    dies with the mesh. Callers must not modify the returned matrices.
    """
    part = mesh.cache.get(sigma)
    if part is None:
        part = mesh.cache[sigma] = (
            stiffness_matrix(mesh, sigma),
            curve_mass_matrix(mesh, mesh.interface_edges, mesh.n_interface_nodes),
            curve_mass_matrix(mesh, mesh.boundary_edges, mesh.n_boundary_nodes),
        )
    return part


def assemble_system(mesh: Mesh, sigma: Conductivity, gamma) -> SparseSystem:
    """Assemble K = stiffness + interface Robin term; only the latter depends on gamma."""
    if not _gamma_min(mesh, gamma) > 0.0:  # also rejects NaN
        raise CoercivityError("gamma must be bounded below by a positive constant")
    stiffness, interface_mass, boundary_mass = gamma_free_part(mesh, sigma)
    return SparseSystem(
        mesh=mesh,
        sigma=sigma,
        gamma=gamma,
        K=stiffness + interface_form_matrix(mesh, gamma),
        interface_mass=interface_mass,
        boundary_mass=boundary_mass,
    )


def _solve(system: SparseSystem, b: np.ndarray) -> np.ndarray:
    """Solve K x = b for one load (n,) or a batch of loads (n, k) with the cached LU."""
    if len(b) != system.mesh.n_nodes:
        raise ParameterError("load vector length does not match mesh")
    if system._lu is None:
        # K is symmetric positive definite: a symmetric ordering and no
        # pivoting keep the fill about half that of the general defaults
        try:
            system._lu = spla.splu(
                system.K.tocsc(),
                permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:
            raise NumericalError(f"sparse LU factorization failed: {exc}") from exc
    x = system._lu.solve(b)
    if not np.isfinite(x).all():
        raise NumericalError("linear solve produced non-finite values")
    return x


def scatter_boundary(system: SparseSystem, g: np.ndarray) -> np.ndarray:
    """Load vector(s) of int_{dOmega} g w ds for piecewise-linear g of shape (n,) or (n, k)."""
    g = np.asarray(g, dtype=float)
    if len(g) != system.mesh.n_boundary_nodes:
        raise ParameterError("boundary function length mismatch")
    b = np.zeros((system.mesh.n_nodes,) + g.shape[1:])
    b[system.mesh.boundary_nodes] = system.boundary_mass @ g
    return b


def scatter_interface(system: SparseSystem, f: np.ndarray) -> np.ndarray:
    """Load vector(s) of int_Gamma f w ds for piecewise-linear f of shape (n,) or (n, k)."""
    f = np.asarray(f, dtype=float)
    if len(f) != system.mesh.n_interface_nodes:
        raise ParameterError("interface function length mismatch")
    b = np.zeros((system.mesh.n_nodes,) + f.shape[1:])
    b[system.mesh.interface_nodes] = system.interface_mass @ f
    return b


def solve_forward(system: SparseSystem, g: np.ndarray) -> np.ndarray:
    """State solve: a(u, w) = int_{dOmega} g w ds for all test functions.

    Like the other solves, takes one function (n,) or k of them as columns (n, k).
    """
    return _solve(system, scatter_boundary(system, g))


def solve_adjoint(system: SparseSystem, residual: np.ndarray) -> np.ndarray:
    """Adjoint solve: a(v, w) = -int_{dOmega} residual w ds."""
    return _solve(system, -scatter_boundary(system, residual))


def solve_interface_source(system: SparseSystem, f: np.ndarray) -> np.ndarray:
    """Interface-source solve: a(v, w) = int_Gamma f w ds."""
    return _solve(system, scatter_interface(system, f))


def trace_interface(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if len(u) != mesh.n_nodes:
        raise ParameterError("field length does not match mesh")
    return u[mesh.interface_nodes]


def trace_boundary(mesh: Mesh, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if len(u) != mesh.n_nodes:
        raise ParameterError("field length does not match mesh")
    return u[mesh.boundary_nodes]


def _curve_l2(M: sp.csr_matrix, f1, f2) -> float:
    f1 = np.asarray(f1, dtype=float)
    f2 = np.asarray(f2, dtype=float)
    if len(f1) != M.shape[0] or len(f2) != M.shape[0]:
        raise ParameterError("curve function length mismatch")
    return float(f1 @ (M @ f2))


def interface_l2(system: SparseSystem, f1, f2) -> float:
    """Discrete L2(Gamma) inner product (exact for piecewise-linear factors)."""
    return _curve_l2(system.interface_mass, f1, f2)


def boundary_l2(system: SparseSystem, g1, g2) -> float:
    """Discrete L2(dOmega) inner product."""
    return _curve_l2(system.boundary_mass, g1, g2)


def interface_norm(system: SparseSystem, f) -> float:
    return np.sqrt(max(interface_l2(system, f, f), 0.0))


def boundary_norm(system: SparseSystem, g) -> float:
    return np.sqrt(max(boundary_l2(system, g, g), 0.0))


def analytic_concentric_oracle(n: int, sigma: Conductivity, gamma_const: float):
    """Exact solution coefficients for g(theta) = cos(n theta) on the concentric disks.

    Mode n >= 1: u = A r^n cos(n theta) inside, (B r^n + C r^-n) cos(n theta)
    in the annulus. Mode 0: u = A inside, B + C ln r in the annulus. The three
    conditions are continuity at r = 0.5, the Robin flux jump there, and the
    Neumann condition at r = 1.
    """
    if n < 0:
        raise ParameterError("mode index must be >= 0")
    if gamma_const <= 0:
        raise ParameterError("gamma must be positive")
    rho = INTERFACE_RADIUS
    s1, s2 = sigma.sigma1, sigma.sigma2
    if n == 0:
        mat = np.array(
            [
                [1.0, -1.0, -np.log(rho)],
                [-gamma_const, 0.0, s2 / rho],
                [0.0, 0.0, s2],
            ]
        )
    else:
        mat = np.array(
            [
                [rho**n, -(rho**n), -(rho ** (-n))],
                [
                    -s1 * n * rho ** (n - 1) - gamma_const * rho**n,
                    s2 * n * rho ** (n - 1),
                    -s2 * n * rho ** (-n - 1),
                ],
                [0.0, s2 * n, -s2 * n],
            ]
        )
    rhs = np.array([0.0, 0.0, 1.0])
    try:
        A, B, C = np.linalg.solve(mat, rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - positive data is regular
        raise NumericalError("singular mode system") from exc
    return float(A), float(B), float(C)


def oracle_boundary_trace(n: int, sigma: Conductivity, gamma_const: float, theta) -> np.ndarray:
    """Exact boundary voltage for g = cos(n theta), evaluated at angles theta."""
    _, B, C = analytic_concentric_oracle(n, sigma, gamma_const)
    theta = np.asarray(theta, dtype=float)
    if n == 0:
        return np.full_like(theta, B)
    return (B + C) * np.cos(n * theta)


def oracle_interface_trace(n: int, sigma: Conductivity, gamma_const: float, theta) -> np.ndarray:
    """Exact interface voltage for g = cos(n theta), evaluated at angles theta."""
    A, _, _ = analytic_concentric_oracle(n, sigma, gamma_const)
    theta = np.asarray(theta, dtype=float)
    rho = INTERFACE_RADIUS
    if n == 0:
        return np.full_like(theta, A)
    return A * rho**n * np.cos(n * theta)


def interface_quadrature_integral(system: SparseSystem, values_at_quadrature) -> float:
    """Integrate an edgewise-sampled function over Gamma with the assembly rule.

    values_at_quadrature has shape (n_edges, 2) matching GAUSS_XI.
    """
    mesh = system.mesh
    edges = mesh.interface_edges
    length = np.linalg.norm(mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]], axis=1)
    return float(np.sum(length[:, None] * GAUSS_W[None, :] * values_at_quadrature))


def interface_fn_at_quadrature(mesh: Mesh, f) -> np.ndarray:
    """Piecewise-linear interface function sampled at the edge Gauss points."""
    f = np.asarray(f, dtype=float)
    if len(f) != mesh.n_interface_nodes:
        raise ParameterError("interface function length mismatch")
    f0 = f
    f1 = np.roll(f, -1)
    return f0[:, None] * (1.0 - GAUSS_XI)[None, :] + f1[:, None] * GAUSS_XI[None, :]


def gamma_at_quadrature(system: SparseSystem) -> np.ndarray:
    """The system's Robin coefficient sampled at the edge Gauss points."""
    return _gamma_edge_values(system.mesh, system.gamma, GAUSS_XI)
