"""P1 finite elements for the two-layer Robin transmission problem.

The bilinear form is a(u, w) = int_Omega sigma grad u . grad w dx
+ int_Gamma gamma u w ds; loads live on the outer boundary (applied
current), on the outer boundary with a minus sign (adjoint), or on the
interface (source used by the Runge/localized-potential machinery).

Once per (mesh, sigma) the stiffness is condensed onto the interface nodes;
each gamma then adds its Robin term to that small dense matrix. On a mesh
that one theta step maps onto itself, as every mesh from
``generate_disk_mesh`` is, the condensation is a Fourier transform in theta
and needs numpy only. Other meshes factor their sparse interior with scipy.

A coefficient may be a stack of s coefficients on the same (mesh, sigma):
nodal values (s, n_Gamma) or an :class:`ArcwiseGamma` with values (s, M).
Its system holds s matrices and every solve solves all of them at once; a
single coefficient is a stack of one that keeps its shapes.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError, cholesky

from .errors import CoercivityError, NumericalError, ParameterError
from .mesh import INTERFACE_RADIUS, Mesh, PartitionSpec

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
# bytes of matrices in one coefficient stack of :func:`assemble_stacks`:
# 16 matrices of 64 x 64 on (4,4,64)
_STACK_BYTES = 16 * 64 * 64 * 8
# largest distance, relative to the largest node radius, between a turned node
# and the node it should land on at which a mesh still turns onto itself;
# rounding leaves about 2e-16
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
    """Robin coefficient that is constant on each arc of a partition.

    values is (M,) for one coefficient or (s, M) for a stack of s.
    """

    def __init__(self, partition: PartitionSpec, values):
        values = np.asarray(values, dtype=float)
        if values.ndim not in (1, 2) or values.shape[-1] != partition.n_arcs:
            raise ParameterError("one value per arc required")
        self.partition = partition
        self.values = values

    def min(self) -> float:
        return float(self.values.min())

    def at_edge_points(self, n_edges: int, xi: np.ndarray) -> np.ndarray:
        """Values at quadrature points: (n_edges, len(xi)), or (s, n_edges, len(xi))."""
        if n_edges != len(self.partition.arc_of_edge):
            raise ParameterError("partition does not match this mesh")
        per_edge = self.values.take(self.partition.arc_of_edge, axis=-1)
        return np.repeat(per_edge[..., None], len(xi), axis=-1)


def _gamma_values(mesh: Mesh, gamma):
    """gamma itself if arcwise, else its nodal values, checked: (n_Gamma,) or (s, n_Gamma)."""
    if isinstance(gamma, ArcwiseGamma):
        return gamma
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim not in (1, 2) or gamma.shape[-1] != mesh.n_interface_nodes:
        raise ParameterError("gamma must have one value per interface node")
    return gamma


def _gamma_edge_values(mesh: Mesh, gamma, xi: np.ndarray) -> np.ndarray:
    """Evaluate gamma at the points xi of every interface edge: (..., n_edges, len(xi))."""
    gamma = _gamma_values(mesh, gamma)
    if isinstance(gamma, ArcwiseGamma):
        return gamma.at_edge_points(len(mesh.interface_edges), xi)
    g1 = gamma.take(mesh.interface_next, axis=-1)
    return gamma[..., None] * (1.0 - xi) + g1[..., None] * xi


def _gamma_min(mesh: Mesh, gamma) -> float:
    if isinstance(gamma, ArcwiseGamma):
        return gamma.min()
    return float(np.asarray(gamma, dtype=float).min())


def _members(gamma, index):
    """The members index of a coefficient stack, as :meth:`SparseSystem.members` takes it."""
    if isinstance(gamma, ArcwiseGamma):
        return ArcwiseGamma(gamma.partition, gamma.values[index])
    return np.asarray(gamma, dtype=float)[index]


@dataclass(frozen=True)
class GammaFreePart:
    """The stiffness of one (mesh, sigma) condensed onto the interface: it does not depend on gamma.

    The ring nodes R are the interface nodes G, then the boundary nodes B,
    each in theta order; the interior nodes I are the others, in node order.
    gamma only touches the G block of the Schur complement
    S = K_RR - K_RI K_II^-1 K_IR of the stiffness, so every gamma shares the
    elimination of B from S: T = S_GG - S_GB S_BB^-1 S_BG, W = S_BB^-1 S_BG
    and S_BB^-1. ``interior`` maps ring values x_R to the interior values
    x_I = -K_II^-1 K_IR x_R.
    """

    T: np.ndarray  # dense (n_G, n_G)
    W: np.ndarray  # dense (n_B, n_G)
    S_BB_inv: np.ndarray  # dense (n_B, n_B)
    interior: Callable[[np.ndarray], np.ndarray] = field(repr=False)


@dataclass(frozen=True)
class SparseSystem:
    """Galerkin system K(sigma, gamma), condensed onto the interface nodes.

    matrix is A = T + C_Gamma(gamma) of :func:`condensed_matrix`, (n, n) for
    one gamma or (s, n, n) for a stack of s, checked positive definite at
    assembly; every solve solves with it and recovers the boundary values
    through W and S_BB^-1.
    """

    mesh: Mesh
    sigma: Conductivity
    gamma: object  # nodal ndarray or ArcwiseGamma
    part: GammaFreePart = field(repr=False)
    matrix: np.ndarray = field(repr=False)

    def gamma_nodal(self) -> np.ndarray:
        """Nodal values on interface nodes (arcwise gamma: lower-index arc wins)."""
        if isinstance(self.gamma, ArcwiseGamma):
            return self.gamma.values[..., self.gamma.partition.node_arc]
        return np.asarray(self.gamma, dtype=float)

    def members(self, index) -> "SparseSystem":
        """The members index of this stack (a slice or an index array), or, for
        index np.newaxis, a single system as a stack of one."""
        return SparseSystem(
            self.mesh, self.sigma, _members(self.gamma, index), self.part, self.matrix[index]
        )


def element_stiffness(mesh: Mesh, sigma: Conductivity, triangles=slice(None)) -> np.ndarray:
    """ke[t, i, j] = int_t sigma grad N_i . grad N_j dx of the chosen triangles: (T, 3, 3).

    Element-exact P1 with per-region conductivity.
    """
    p = mesh.nodes[mesh.triangles[triangles]]
    # gradients of barycentric shape functions, times twice the area
    b = np.stack(
        [p[:, 1, 1] - p[:, 2, 1], p[:, 2, 1] - p[:, 0, 1], p[:, 0, 1] - p[:, 1, 1]], axis=1
    )
    c = np.stack(
        [p[:, 2, 0] - p[:, 1, 0], p[:, 0, 0] - p[:, 2, 0], p[:, 1, 0] - p[:, 0, 0]], axis=1
    )
    area = 0.5 * (b[:, 1] * c[:, 2] - b[:, 2] * c[:, 1])
    if (area <= 0).any():
        raise ParameterError("mesh has non-positively oriented triangles")
    region = mesh.regions[triangles]
    coef = np.where(region == 1, sigma.sigma1, sigma.sigma2) / (4.0 * area)
    return coef[:, None, None] * (
        b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]
    )


def _robin_edge_matrices(mesh: Mesh, gamma) -> np.ndarray:
    """ke[..., e, i, j] = int_{edge e} gamma N_i N_j ds by the 2-point Gauss rule: (..., E, 2, 2).

    The leading axis, if any, is the coefficient stack.
    """
    wq = _gamma_edge_values(mesh, gamma, GAUSS_XI) * GAUSS_W * mesh.interface_edge_lengths[:, None]
    return (wq @ _SHAPE_PRODUCTS).reshape(wq.shape[:-1] + (2, 2))


def _layout_ring(nodes: np.ndarray, n_theta: int) -> int | None:
    """Index j >= 1 of the node ring 1 + (j - 1) n_theta + (0, 1, ...) that nodes is, or None."""
    ring, position = np.divmod(nodes - 1, n_theta)
    if len(nodes) != n_theta or nodes.min() < 1 or (ring != ring[0]).any():
        return None
    return int(ring[0]) + 1 if np.array_equal(position, np.arange(n_theta)) else None


def _triangle_keys(triangles: np.ndarray, n_nodes: int) -> np.ndarray:
    t = np.sort(triangles, axis=1)
    return (t[:, 0] * n_nodes + t[:, 1]) * n_nodes + t[:, 2]


def _theta_wedge(mesh: Mesh) -> np.ndarray | None:
    """The triangles of one theta wedge, if one theta step maps the mesh onto itself; else None.

    The mesh must have the node layout of :func:`generate_disk_mesh` (the
    center, then whole rings of n_theta nodes in theta order): turned by
    2 pi / n_theta, the nodes must land on ``nodes[theta_step]``, the
    triangles and their regions must map onto themselves, and the interface
    and the boundary must each be one whole ring. The wedge holds the
    triangles whose ring nodes sit at theta positions 0 and 1; turning it
    n_theta times must give every triangle once.
    """
    step = mesh.theta_step
    if step is None:
        return None
    n = mesh.params[2]
    if (mesh.n_nodes - 1) % n or any(
        _layout_ring(nodes, n) is None for nodes in (mesh.interface_nodes, mesh.boundary_nodes)
    ):
        return None
    cos, sin = np.cos(2.0 * np.pi / n), np.sin(2.0 * np.pi / n)
    turned = mesh.nodes @ np.array([[cos, sin], [-sin, cos]])
    scale = np.abs(mesh.nodes).max()
    if np.abs(turned - mesh.nodes[step]).max() > _ROTATION_RTOL * scale:
        return None
    keys = _triangle_keys(mesh.triangles, mesh.n_nodes)
    turned_keys = _triangle_keys(step[mesh.triangles], mesh.n_nodes)
    order, turned_order = np.argsort(keys), np.argsort(turned_keys)
    if not (
        np.array_equal(keys[order], turned_keys[turned_order])
        and np.array_equal(mesh.regions[order], mesh.regions[turned_order])
    ):
        return None
    position = np.where(mesh.triangles > 0, (mesh.triangles - 1) % n, 0)
    wedge = np.nonzero((position <= 1).all(axis=1))[0]
    return wedge if len(wedge) * n == len(mesh.triangles) else None


def _fourier_schur(mesh: Mesh, sigma: Conductivity, wedge: np.ndarray):
    """S per theta mode k = 0 .. n_theta / 2, as a (modes, 2, 2) stack, and the interior map.

    On ring values exp(2 pi i k t / n_theta) every block of K between two
    rings acts as one number, its symbol, so per mode K is a small matrix
    over the rings, built from the element matrices of one wedge. The center
    is one node: it enters mode 0 only, as a ring of n_theta copies of itself.
    One stacked solve eliminates the interior rings of every mode at once.
    """
    n = mesh.params[2]
    n_rings = (mesh.n_nodes - 1) // n
    tri = mesh.triangles[wedge]
    ring = np.where(tri > 0, (tri - 1) // n + 1, 0)  # ring 0 is the center
    position = np.where(tri > 0, (tri - 1) % n, 0)
    ke = element_stiffness(mesh, sigma, wedge)
    rows = np.broadcast_to(ring[:, :, None], ke.shape)
    cols = np.broadcast_to(ring[:, None, :], ke.shape)
    shift = position[:, None, :] - position[:, :, None]  # column minus row: -1, 0 or 1
    # K_d[r, s]: coupling of ring r at theta position t to ring s at t + d; K_-1 = K_1^T
    K_0, K_1 = np.zeros((2, n_rings + 1, n_rings + 1))
    for K_d, d in ((K_0, 0), (K_1, 1)):
        pairs = shift == d
        np.add.at(K_d, (rows[pairs], cols[pairs]), ke[pairs])
    z = np.exp(2j * np.pi / n * np.arange(n // 2 + 1))[:, None, None]
    K = K_0 + z * K_1 + z.conj() * K_1.T
    K[1:, 0, :] = K[1:, :, 0] = 0.0
    K[1:, 0, 0] = 1.0
    R = np.array([_layout_ring(mesh.interface_nodes, n), _layout_ring(mesh.boundary_nodes, n)])
    I = np.setdiff1d(np.arange(n_rings + 1), R)  # the center first, then rings in node order
    Z = np.linalg.solve(K[:, I[:, None], I], K[:, I[:, None], R])  # K_II^-1 K_IR per mode
    S = K[:, R[:, None], R] - K[:, R[:, None], I] @ Z

    def interior(x_ring: np.ndarray) -> np.ndarray:
        X = np.fft.rfft(x_ring.reshape(2, n, -1), axis=1).transpose(1, 0, 2)
        values = np.fft.irfft(-(Z @ X), n, axis=0)  # (n_theta, len(I), k)
        # the center's mode 0 is n_theta times its value, so every t gives it
        inner = values[:, 1:].transpose(1, 0, 2).reshape(-1, values.shape[2])
        return np.concatenate([values[0, :1], inner]).reshape((-1,) + x_ring.shape[1:])

    return S, interior


def _sparse_schur(mesh: Mesh, sigma: Conductivity):
    """S as a dense matrix and the interior map, through a sparse LU of K_II.

    For meshes without the theta symmetry (loaded or moved nodes): S is
    formed a block of ring columns at a time, so no dense K_II^-1 K_IR is held.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    K = sp.csr_matrix(
        (element_stiffness(mesh, sigma).ravel(), (rows, cols)), shape=(mesh.n_nodes,) * 2
    )
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
    S = K[ring][:, ring].toarray()
    for lo in range(0, len(ring), _SCHUR_BLOCK):
        span = slice(lo, lo + _SCHUR_BLOCK)
        S[:, span] -= K_IR.T @ interior_lu.solve(K_IR[:, span].toarray())
    K_IR = K_IR.tocsr()
    return S, lambda x_ring: -interior_lu.solve(K_IR @ x_ring)


def _eliminate_boundary(S: np.ndarray, n: int):
    """T, W and S_BB^-1 of S, whose last two axes split into G and B after n."""
    S_BB_inv = np.linalg.inv(S[..., n:, n:])
    W = S_BB_inv @ S[..., n:, :n]
    return S[..., :n, :n] - S[..., :n, n:] @ W, W, S_BB_inv


def _circulant(symbol: np.ndarray, n: int) -> np.ndarray:
    """The n x n circulant whose eigenvalue on exp(2 pi i k t / n) is symbol[k], k = 0 .. n / 2."""
    first_column = np.fft.irfft(symbol, n)
    i = np.arange(n)
    return first_column[(i[:, None] - i) % n]


def _condense(mesh: Mesh, sigma: Conductivity) -> GammaFreePart:
    """Eliminate the interior, then the boundary, from the stiffness of (mesh, sigma)."""
    wedge = _theta_wedge(mesh)
    if wedge is None:
        S, interior = _sparse_schur(mesh, sigma)
        T, W, S_BB_inv = _eliminate_boundary(S, mesh.n_interface_nodes)
    else:
        # per theta mode S is 2 x 2, and T, W and S_BB^-1 are circulant
        S, interior = _fourier_schur(mesh, sigma, wedge)
        n = mesh.n_interface_nodes
        T, W, S_BB_inv = (_circulant(block[:, 0, 0], n) for block in _eliminate_boundary(S, 1))
    return GammaFreePart(T=T, W=W, S_BB_inv=S_BB_inv, interior=interior)


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
    """A = T + C_Gamma(gamma), the dense matrix of K(sigma, gamma) condensed onto the interface.

    Only the cyclic-tridiagonal Robin term C_Gamma depends on gamma. A stack
    of s coefficients gives s matrices, (s, n, n).
    """
    if not _gamma_min(mesh, gamma) > 0.0:  # also rejects NaN
        raise CoercivityError("gamma must be bounded below by a positive constant")
    ke = _robin_edge_matrices(mesh, gamma)
    T = gamma_free_part(mesh, sigma).T  # before A, so the first set-up does not hold A too
    stack = ke.shape[:-3]
    A = np.empty(stack + T.shape)
    A[...] = T
    n = len(T)
    # edge e joins interface positions e and e + 1 (cyclic); in a flat matrix,
    # strides of n + 1 run along the diagonal (from 0), above it (from 1) and below it (from n)
    flat = A.reshape(stack + (n * n,))
    flat[..., :: n + 1] += ke[..., 0, 0] + ke[..., 1, 1].take(mesh.interface_prev, axis=-1)
    flat[..., 1 :: n + 1] += ke[..., :-1, 0, 1]
    flat[..., (n - 1) * n] += ke[..., -1, 0, 1]
    flat[..., n :: n + 1] += ke[..., :-1, 1, 0]
    flat[..., n - 1] += ke[..., -1, 1, 0]
    return A


def assemble_system(mesh: Mesh, sigma: Conductivity, gamma) -> SparseSystem:
    """The system of gamma, or of a stack of them: :func:`condensed_matrix`, checked
    positive definite by one Cholesky call."""
    A = condensed_matrix(mesh, sigma, gamma)
    try:
        # a NaN in A may pass; the finiteness check of every solve catches it
        cholesky(A)
    except LinAlgError as exc:
        raise NumericalError(f"condensed matrix is not positive definite: {exc}") from exc
    return SparseSystem(mesh, sigma, gamma, gamma_free_part(mesh, sigma), A)


def assemble_stacks(mesh: Mesh, sigma: Conductivity, gamma):
    """Yield (span, system) for consecutive spans of a coefficient stack.

    Each system holds at most _STACK_BYTES of matrices (at least one), so a
    long stack never holds all of its matrices at once.
    """
    values = gamma.values if isinstance(gamma, ArcwiseGamma) else _gamma_values(mesh, gamma)
    if values.ndim != 2:
        raise ParameterError("assemble_stacks takes a stack of coefficients")
    count = len(values)
    size = max(1, _STACK_BYTES // (8 * mesh.n_interface_nodes**2))
    for lo in range(0, count, size):
        span = slice(lo, min(lo + size, count))
        yield span, assemble_system(mesh, sigma, _members(gamma, span))


def _solve(system: SparseSystem, interface_load=None, boundary_load=None) -> np.ndarray:
    """Ring values x_R of K x = b for a load b on the interface or on the boundary.

    A load is (n,) or (n, k), shared by every member of a stack, or (s, n, k),
    one per member. One gamma gives (n_R,) or (n_R, k); a stack of s gives
    (s, n_R, k), a load (n,) counting as k = 1. With the interior and the
    boundary eliminated, A x_G = b_G - W^T b_B and x_B = S_BB^-1 b_B - W x_G;
    :func:`nodal_field` recovers the interior.
    """
    part = system.part
    stacked = system.matrix.ndim == 3
    load = boundary_load if interface_load is None else interface_load
    if stacked and load.ndim == 1:
        load = load[:, None]
    try:
        # one call solves one matrix or the whole stack
        x_interface = np.linalg.solve(
            system.matrix, load if boundary_load is None else -(part.W.T @ load)
        )
    except LinAlgError as exc:
        raise NumericalError(f"linear solve failed: {exc}") from exc
    x_boundary = -(part.W @ x_interface)
    if boundary_load is not None:
        x_boundary += part.S_BB_inv @ load
    x = np.concatenate([x_interface, x_boundary], axis=int(stacked))
    if not np.isfinite(x).all():
        raise NumericalError("linear solve produced non-finite values")
    return x


def nodal_field(system: SparseSystem, x_ring: np.ndarray) -> np.ndarray:
    """Full nodal field(s) of ring values x_R, (n_R,) or (n_R, k), from a solve."""
    mesh = system.mesh
    x_ring = _ring_values(mesh, x_ring)
    ring = np.concatenate([mesh.interface_nodes, mesh.boundary_nodes])
    interior = np.ones(mesh.n_nodes, dtype=bool)
    interior[ring] = False
    x = np.empty((mesh.n_nodes,) + x_ring.shape[1:])
    x[ring] = x_ring
    x[interior] = system.part.interior(x_ring)
    if not np.isfinite(x).all():
        raise NumericalError("interior recovery produced non-finite values")
    return x


def _curve_load(M: np.ndarray, f: np.ndarray, what: str) -> np.ndarray:
    """Load(s) int f w ds on a curve of mass M, for piecewise-linear f of shape (n,),
    (n, k) or, one per member of a stack, (s, n, k)."""
    f = np.asarray(f, dtype=float)
    if f.shape[1 if f.ndim == 3 else 0] != M.shape[0]:
        raise ParameterError(f"{what} function length mismatch")
    if not np.isfinite(f).all():
        raise NumericalError(f"{what} function has non-finite values")
    return M @ f


def solve_forward(system: SparseSystem, g: np.ndarray) -> np.ndarray:
    """State solve: a(u, w) = int_{dOmega} g w ds for all test functions.

    Like the other solves, takes one function (n,) or k of them as columns (n, k).
    """
    return _solve(system, boundary_load=_curve_load(system.mesh.boundary_mass, g, "boundary"))


def solve_adjoint(system: SparseSystem, residual: np.ndarray) -> np.ndarray:
    """Adjoint solve: a(v, w) = -int_{dOmega} residual w ds."""
    load = _curve_load(system.mesh.boundary_mass, residual, "boundary")
    return _solve(system, boundary_load=-load)


def solve_interface_source(system: SparseSystem, f: np.ndarray) -> np.ndarray:
    """Interface-source solve: a(v, w) = int_Gamma f w ds."""
    return _solve(system, interface_load=_curve_load(system.mesh.interface_mass, f, "interface"))


def _ring_values(mesh: Mesh, x) -> np.ndarray:
    """x checked as ring values (n_R,), (n_R, k) or, from a stack, (s, n_R, k)."""
    x = np.asarray(x, dtype=float)
    if x.shape[1 if x.ndim == 3 else 0] != mesh.n_interface_nodes + mesh.n_boundary_nodes:
        raise ParameterError("ring vector length does not match mesh")
    return x


def trace_interface(mesh: Mesh, x: np.ndarray) -> np.ndarray:
    """Interface values of ring values x_R, as every solve returns them."""
    x = _ring_values(mesh, x)
    return x[:, : mesh.n_interface_nodes] if x.ndim == 3 else x[: mesh.n_interface_nodes]


def trace_boundary(mesh: Mesh, x: np.ndarray) -> np.ndarray:
    """Boundary values of ring values x_R, as every solve returns them."""
    x = _ring_values(mesh, x)
    return x[:, mesh.n_interface_nodes :] if x.ndim == 3 else x[mesh.n_interface_nodes :]


def _curve_l2(M: np.ndarray, f1, f2) -> float:
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
