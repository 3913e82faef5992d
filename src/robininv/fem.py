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

# after scipy.sparse.linalg, which imports it too: imported first, it made the
# package import about 5 % slower
import scipy.linalg as la  # isort: skip
from scipy.linalg.lapack import dpotrf, dpotrs  # isort: skip

from .errors import CoercivityError, NumericalError, ParameterError
from .mesh import INTERFACE_RADIUS, Mesh, PartitionSpec, triangle_areas

# 2-point Gauss rule on [0, 1]; exact for cubics, hence exact for the
# product of three piecewise-linear factors on an edge.
GAUSS_XI = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
GAUSS_W = np.array([0.5, 0.5])
# GAUSS_SHAPE[i, q] = N_i(xi_q) for the two hat functions of an edge, and
# _SHAPE_PRODUCTS[q, 2 i + j] = N_i(xi_q) N_j(xi_q)
GAUSS_SHAPE = np.stack([1.0 - GAUSS_XI, GAUSS_XI])
_SHAPE_PRODUCTS = np.einsum("iq,jq->qij", GAUSS_SHAPE, GAUSS_SHAPE).reshape(2, 4)
# ring columns per interior solve when forming S on a mesh without rotational
# symmetry: a 32-column block of K_II^-1 K_IR takes 98 KB on (4,4,64)
_SCHUR_BLOCK = 32
# largest entry of K(turned mesh) - K, relative to the largest entry of K, at
# which the stiffness still counts as rotation invariant; rounding leaves
# 3e-15 on (2,2,32) and 2e-14 on (16,16,256)
_ROTATION_RTOL = 1e-12


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
    g1 = gamma[mesh.interface_next]
    return gamma[:, None] * (1.0 - xi)[None, :] + g1[:, None] * xi[None, :]


def _gamma_min(mesh: Mesh, gamma) -> float:
    if isinstance(gamma, ArcwiseGamma):
        return gamma.min()
    return float(np.asarray(gamma, dtype=float).min())


@dataclass(frozen=True)
class GammaFreePart:
    """The condensed stiffness of one (mesh, sigma): it does not depend on gamma.

    The nodes split into ring nodes R (the interface nodes, then the boundary
    nodes, each in theta order) and interior nodes I. gamma only touches the
    interface block of K_RR, so every gamma shares the Schur complement
    S = K_RR - K_RI K_II^-1 K_IR of the stiffness, the factor of K_II that
    recovers interior values, and K_IR.
    """

    ring: np.ndarray
    interior: np.ndarray
    schur: np.ndarray  # dense (n_R, n_R)
    interior_lu: spla.SuperLU
    K_IR: sp.csr_matrix


@dataclass(frozen=True)
class SparseSystem:
    """Galerkin system K(sigma, gamma), condensed onto the ring nodes and factored.

    factor is the upper Cholesky factor U (U^T U = A) of the dense ring matrix
    A = S + C_Gamma(gamma) of :func:`condensed_matrix`, built at assembly;
    every solve reuses it.
    """

    mesh: Mesh
    sigma: Conductivity
    gamma: object  # nodal ndarray or ArcwiseGamma
    part: GammaFreePart = field(repr=False)
    factor: np.ndarray = field(repr=False)

    def gamma_nodal(self) -> np.ndarray:
        """Nodal values on interface nodes (arcwise gamma: lower-index arc wins)."""
        if isinstance(self.gamma, ArcwiseGamma):
            return self.gamma.values[self.gamma.partition.node_arc]
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


def _robin_edge_matrices(mesh: Mesh, gamma) -> np.ndarray:
    """ke[e, i, j] = int_{edge e} gamma N_i N_j ds by the 2-point Gauss rule: (E, 2, 2)."""
    wq = _gamma_edge_values(mesh, gamma, GAUSS_XI) * GAUSS_W * mesh.interface_edge_lengths[:, None]
    return (wq @ _SHAPE_PRODUCTS).reshape(-1, 2, 2)


def interface_form_matrix(mesh: Mesh, gamma) -> sp.csr_matrix:
    """Matrix of int_Gamma gamma u w ds on global node indices (2-pt Gauss)."""
    edges = mesh.interface_edges
    ke = _robin_edge_matrices(mesh, gamma)
    rows = np.repeat(edges, 2, axis=1).ravel()
    cols = np.tile(edges, (1, 2)).ravel()
    C = sp.csr_matrix((ke.ravel(), (rows, cols)), shape=(mesh.n_nodes, mesh.n_nodes))
    C.sum_duplicates()
    return C


def _turns_onto_itself(mesh: Mesh, K: sp.csr_matrix) -> bool:
    """Whether one theta step shifts both rings by one position and leaves K unchanged.

    Both rings then have the same number of nodes.
    """
    step = mesh.theta_step
    if step is None:
        return False
    for nodes in (mesh.interface_nodes, mesh.boundary_nodes):
        if not np.array_equal(step[nodes], np.roll(nodes, -1)):
            return False
    return abs(K[step][:, step] - K).max() <= _ROTATION_RTOL * abs(K).max()


def _condense(mesh: Mesh, sigma: Conductivity) -> GammaFreePart:
    """Eliminate the interior nodes from the stiffness of (mesh, sigma)."""
    K = stiffness_matrix(mesh, sigma)
    ring = np.concatenate([mesh.interface_nodes, mesh.boundary_nodes])
    interior = np.setdiff1d(np.arange(mesh.n_nodes), ring)
    K_I = K[interior]
    K_IR = K_I[:, ring].tocsc()
    try:
        # K_II is symmetric positive definite: a symmetric ordering and no
        # pivoting keep the fill about half that of the general defaults
        interior_lu = spla.splu(
            K_I[:, interior].tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise NumericalError(f"sparse LU factorization failed: {exc}") from exc
    schur = K[ring][:, ring].toarray()
    if _turns_onto_itself(mesh, K):
        # a theta step moves every ring position to the next one on its ring
        # and leaves S unchanged, so the four n x n blocks of S are circulant:
        # the first interface and the first boundary column give all of them
        n = mesh.n_interface_nodes
        first = K_IR.T @ interior_lu.solve(K_IR[:, [0, n]].toarray())
        halves = (slice(0, n), slice(n, 2 * n))
        for top in halves:
            for j, left in enumerate(halves):
                schur[top, left] -= la.circulant(first[top, j])
    else:
        # column block by column block, so no dense K_II^-1 K_IR is ever held
        for lo in range(0, len(ring), _SCHUR_BLOCK):
            span = slice(lo, lo + _SCHUR_BLOCK)
            schur[:, span] -= K_IR.T @ interior_lu.solve(K_IR[:, span].toarray())
    return GammaFreePart(
        ring=ring,
        interior=interior,
        schur=schur,
        interior_lu=interior_lu,
        K_IR=K_IR.tocsr(),
    )


def gamma_free_part(mesh: Mesh, sigma: Conductivity) -> GammaFreePart:
    """The condensed stiffness of (mesh, sigma), which does not depend on gamma.

    Built once per (mesh, sigma) and kept in ``mesh.cache``, so it lives and
    dies with the mesh. Callers must not modify it.
    """
    part = mesh.cache.get(sigma)
    if part is None:
        part = mesh.cache[sigma] = _condense(mesh, sigma)
    return part


def condensed_matrix(mesh: Mesh, sigma: Conductivity, gamma) -> np.ndarray:
    """A = S + C_Gamma(gamma), the dense matrix of K(sigma, gamma) on the ring nodes.

    Only the cyclic-tridiagonal Robin term C_Gamma depends on gamma.
    """
    if not _gamma_min(mesh, gamma) > 0.0:  # also rejects NaN
        raise CoercivityError("gamma must be bounded below by a positive constant")
    ke = _robin_edge_matrices(mesh, gamma)
    # the interface nodes are the first ring positions; edge e joins e and e + 1
    i = np.arange(mesh.n_interface_nodes)
    j = mesh.interface_next
    A = gamma_free_part(mesh, sigma).schur.copy()
    A[i, i] += ke[:, 0, 0] + ke[mesh.interface_prev, 1, 1]
    A[i, j] += ke[:, 0, 1]
    A[j, i] += ke[:, 1, 0]
    return A


def assemble_system(mesh: Mesh, sigma: Conductivity, gamma) -> SparseSystem:
    """The system of gamma: the Cholesky factor of :func:`condensed_matrix`."""
    A = condensed_matrix(mesh, sigma, gamma)
    # A is symmetric, so A.T is the same matrix in Fortran order, which LAPACK
    # factors in place instead of copying it. A NaN in A may pass the
    # factorization; the finiteness check of every solve catches it.
    factor, info = dpotrf(A.T, overwrite_a=True, clean=False)
    if info != 0:
        raise NumericalError(f"Cholesky factorization failed: LAPACK dpotrf info {info}")
    return SparseSystem(mesh, sigma, gamma, gamma_free_part(mesh, sigma), factor)


def _solve(system: SparseSystem, b: np.ndarray) -> np.ndarray:
    """Solve K x = b for a load on the ring nodes, (n_R,) or (n_R, k); return x_R.

    No load reaches an interior node, so the ring values come from the
    Cholesky factor of A alone; :func:`nodal_field` recovers the interior.
    """
    x, info = dpotrs(system.factor, b)
    if info != 0 or not np.isfinite(x).all():
        raise NumericalError("linear solve failed or produced non-finite values")
    return x


def nodal_field(system: SparseSystem, x_ring: np.ndarray) -> np.ndarray:
    """Full nodal field(s) of ring values x_R, (n_R,) or (n_R, k), from a solve.

    The interior values are x_I = -K_II^-1 K_IR x_R.
    """
    part = system.part
    x_ring = np.asarray(x_ring, dtype=float)
    if len(x_ring) != len(part.ring):
        raise ParameterError("ring vector length does not match the system")
    x = np.empty((system.mesh.n_nodes,) + x_ring.shape[1:])
    x[part.ring] = x_ring
    x[part.interior] = -part.interior_lu.solve(part.K_IR @ x_ring)
    if not np.isfinite(x).all():
        raise NumericalError("interior recovery produced non-finite values")
    return x


def scatter_boundary(system: SparseSystem, g: np.ndarray) -> np.ndarray:
    """Ring load(s) of int_{dOmega} g w ds for piecewise-linear g of shape (n,) or (n, k)."""
    g = np.asarray(g, dtype=float)
    mesh = system.mesh
    if len(g) != mesh.n_boundary_nodes:
        raise ParameterError("boundary function length mismatch")
    b = np.zeros((len(system.part.ring),) + g.shape[1:])
    b[mesh.n_interface_nodes :] = mesh.boundary_mass @ g
    return b


def scatter_interface(system: SparseSystem, f: np.ndarray) -> np.ndarray:
    """Ring load(s) of int_Gamma f w ds for piecewise-linear f of shape (n,) or (n, k)."""
    f = np.asarray(f, dtype=float)
    mesh = system.mesh
    if len(f) != mesh.n_interface_nodes:
        raise ParameterError("interface function length mismatch")
    b = np.zeros((len(system.part.ring),) + f.shape[1:])
    b[: mesh.n_interface_nodes] = mesh.interface_mass @ f
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


def _ring_values(mesh: Mesh, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if len(x) != mesh.n_interface_nodes + mesh.n_boundary_nodes:
        raise ParameterError("ring vector length does not match mesh")
    return x


def trace_interface(mesh: Mesh, x: np.ndarray) -> np.ndarray:
    """Interface values of ring values x_R, as every solve returns them."""
    return _ring_values(mesh, x)[: mesh.n_interface_nodes]


def trace_boundary(mesh: Mesh, x: np.ndarray) -> np.ndarray:
    """Boundary values of ring values x_R, as every solve returns them."""
    return _ring_values(mesh, x)[mesh.n_interface_nodes :]


def _curve_l2(M: sp.csr_matrix, f1, f2) -> float:
    f1 = np.asarray(f1, dtype=float)
    f2 = np.asarray(f2, dtype=float)
    if len(f1) != M.shape[0] or len(f2) != M.shape[0]:
        raise ParameterError("curve function length mismatch")
    return float(f1 @ (M @ f2))


def interface_l2(system: SparseSystem, f1, f2) -> float:
    """Discrete L2(Gamma) inner product (exact for piecewise-linear factors)."""
    return _curve_l2(system.mesh.interface_mass, f1, f2)


def boundary_l2(system: SparseSystem, g1, g2) -> float:
    """Discrete L2(dOmega) inner product."""
    return _curve_l2(system.mesh.boundary_mass, g1, g2)


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
    length = system.mesh.interface_edge_lengths
    return float(np.sum(length[:, None] * GAUSS_W[None, :] * values_at_quadrature))


def interface_fn_at_quadrature(mesh: Mesh, f) -> np.ndarray:
    """Piecewise-linear interface function sampled at the edge Gauss points.

    f of shape (n,) gives (n_edges, 2); k functions as columns (n, k) give
    (n_edges, 2, k). Edge e runs from node e to node e + 1.
    """
    f = np.asarray(f, dtype=float)
    if len(f) != mesh.n_interface_nodes:
        raise ParameterError("interface function length mismatch")
    xi = GAUSS_XI.reshape((2,) + (1,) * (f.ndim - 1))
    return f[:, None] * (1.0 - xi) + f[mesh.interface_next][:, None] * xi


def gamma_at_quadrature(system: SparseSystem) -> np.ndarray:
    """The system's Robin coefficient sampled at the edge Gauss points."""
    return _gamma_edge_values(system.mesh, system.gamma, GAUSS_XI)
