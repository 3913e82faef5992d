"""P1 finite elements for the two-layer Robin transmission problem.

The bilinear form is a(u, w) = int_Omega sigma grad u . grad w dx
+ int_Gamma gamma u w ds; loads live on the outer boundary (applied
current), on the outer boundary with a minus sign (adjoint), or on the
interface (source used by the Runge/localized-potential machinery).

Once per (mesh, sigma) the stiffness is condensed onto the interface nodes;
each gamma then adds its Robin term to that small dense matrix. On a mesh
that one theta step maps onto itself, as every mesh from
``generate_disk_mesh`` is, also after a save and load, the condensation is
a Fourier transform in theta and needs numpy only. Other meshes factor
their sparse interior with scipy.

This module alone knows how the Robin term is discretised: for a nodal
(piecewise-linear) or arcwise gamma its edge matrices are exact closed-form
weights, and :func:`robin_covector` is the transpose of that assembly, the
derivative in gamma that the reconstruction's gradient pairs with a state
and an adjoint.

A coefficient may be a stack of s coefficients on the same (mesh, sigma):
nodal values (s, n_Gamma) or an :class:`ArcwiseGamma` with values (s, M).
Its system holds s matrices and every solve solves all of them at once; a
single coefficient is a stack of one that keeps its shapes.
"""

from __future__ import annotations

import ctypes
import functools
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.linalg import LinAlgError, cholesky

from .errors import CoercivityError, NumericalError, ParameterError
from .mesh import INTERFACE_RADIUS, Mesh, PartitionSpec

# bytes of the member arrays in one span of any stack, so memory does not grow with its
# members: 16 matrices of a system stack, or 8 adapted forms with factors, on (4,4,64)
_SPAN_BYTES = 512 * 1024
# beta of the border beta I in :func:`_bordered_forms`: beta I - Z^T A^-1 Z stays
# positive definite while Z^T A^-1 Z is below it, and its factor, about
# sqrt(beta), cannot overflow
_BORDER = float(np.sqrt(np.finfo(float).max))
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


def _gamma_values(mesh: Mesh, gamma) -> np.ndarray:
    """The values of gamma, checked against the mesh: nodal (n_Gamma,) or (s, n_Gamma),
    arcwise (M,) or (s, M)."""
    if isinstance(gamma, ArcwiseGamma):
        if mesh.n_interface_nodes != len(gamma.partition.arc_of_edge):
            raise ParameterError("partition does not match this mesh")
        return gamma.values
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim not in (1, 2) or gamma.shape[-1] != mesh.n_interface_nodes:
        raise ParameterError("gamma must have one value per interface node")
    return gamma


def edge_ends(mesh: Mesh, gamma):
    """gamma at the first and at the second node of every interface edge: (g0, g1),
    each (n_edges,) or (s, n_edges). Edge e runs from node e to node e + 1;
    an arcwise gamma is constant on each edge."""
    values = _gamma_values(mesh, gamma)
    if isinstance(gamma, ArcwiseGamma):
        per_edge = values.take(gamma.partition.arc_of_edge, axis=-1)
        return per_edge, per_edge
    return values, values.take(mesh.interface_next, axis=-1)


def _check_coercive(gamma) -> None:
    values = gamma.values if isinstance(gamma, ArcwiseGamma) else np.asarray(gamma, dtype=float)
    if not values.min() > 0.0:  # also rejects NaN
        raise CoercivityError("gamma must be bounded below by a positive constant")


def _spans(count: int, member_bytes: int) -> list:
    """Consecutive slices of range(count), each of at most _SPAN_BYTES of members (at least one)."""
    size = max(1, _SPAN_BYTES // member_bytes)
    return [slice(lo, min(lo + size, count)) for lo in range(0, count, size)]


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

    factor is the lower Cholesky factor L, A = L L^T, of A = T + C_Gamma(gamma)
    of :func:`condensed_matrix`: (n, n) for one gamma or (s, n, n) for a stack
    of s. The Cholesky call that checks A positive definite at assembly gives it,
    and it is kept in place of A; every solve solves with it (:func:`_cholesky_solve`)
    and recovers the boundary values through W and S_BB^-1.
    """

    mesh: Mesh
    sigma: Conductivity
    gamma: object  # nodal ndarray or ArcwiseGamma
    part: GammaFreePart = field(repr=False)
    factor: np.ndarray = field(repr=False)

    def gamma_nodal(self) -> np.ndarray:
        """Nodal values on interface nodes (arcwise gamma: lower-index arc wins)."""
        if isinstance(self.gamma, ArcwiseGamma):
            return self.gamma.values[..., self.gamma.partition.node_arc]
        return np.asarray(self.gamma, dtype=float)

    def members(self, index) -> "SparseSystem":
        """The members index of this stack (a slice or an index array), or, for an
        integer index, that member as the system of one gamma."""
        return SparseSystem(
            self.mesh, self.sigma, _members(self.gamma, index), self.part, self.factor[index]
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

    With n_theta nodes on the interface, the mesh must have the node layout
    of :func:`generate_disk_mesh` (the center, then whole rings of n_theta
    nodes in theta order): turned by 2 pi / n_theta, node p must land on
    node step[p], which is the center for the center and the next node of
    its ring otherwise; the triangles and their regions must map onto
    themselves, and the interface and the boundary must each be one whole
    ring. The wedge holds the triangles whose ring nodes sit at theta
    positions 0 and 1; turning it n_theta times must give every triangle once.
    """
    n = mesh.n_interface_nodes
    if (mesh.n_nodes - 1) % n or any(
        _layout_ring(nodes, n) is None for nodes in (mesh.interface_nodes, mesh.boundary_nodes)
    ):
        return None
    k = np.arange(mesh.n_nodes - 1)
    step = np.concatenate([[0], 1 + k - k % n + (k + 1) % n])
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
    n = mesh.n_interface_nodes
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

    For meshes without the theta symmetry (moved nodes, another layout): S is
    formed a span of ring columns at a time, so no dense K_II^-1 K_IR is held.
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
    # a span holds one column of K_IR and one of its solve per ring column
    for span in _spans(len(ring), 16 * len(interior)):
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


def robin_matrix(mesh: Mesh, gamma, out: np.ndarray | None = None) -> np.ndarray:
    """C_Gamma(gamma), the cyclic-tridiagonal Robin term alone: (n, n), or (s, n, n)
    for a stack of s. With out, it is added to the leading n x n block of each
    matrix of out instead, and out is returned.

    For gamma linear on an edge of length L with end values g0 and g1, the edge
    matrix int gamma N_i N_j ds is exactly (L / 12) [[3 g0 + g1, g0 + g1], [g0 + g1, g0 + 3 g1]].
    """
    g0, g1 = edge_ends(mesh, gamma)
    w = mesh.interface_edge_lengths / 12.0
    k00, k01, k11 = w * (3.0 * g0 + g1), w * (g0 + g1), w * (g0 + 3.0 * g1)
    n = len(w)
    if out is None:
        out = np.zeros(k01.shape[:-1] + (n, n))
    r = out.shape[-1]
    # edge e joins interface positions e and e + 1 (cyclic); in a flat matrix of
    # rows of r, strides of r + 1 run along the diagonal (from 0), above it
    # (from 1) and below it (from r)
    flat = out.reshape(out.shape[:-2] + (r * r,))
    end = (n - 1) * (r + 1)  # one past the last entry of the block on a stride from 0
    flat[..., : end + 1 : r + 1] += k00 + k11.take(mesh.interface_prev, axis=-1)
    flat[..., 1:end : r + 1] += k01[..., :-1]
    flat[..., (n - 1) * r] += k01[..., -1]
    flat[..., r:end : r + 1] += k01[..., :-1]
    flat[..., n - 1] += k01[..., -1]
    return out


def arc_blocks(mesh: Mesh, partition: PartitionSpec):
    """The nodes P (M, p) of every arc and the block G = C_m[P, P] (M, p, p) of its
    Robin term C_m (:func:`robin_matrix` of the gamma that is 1 on arc m, 0 elsewhere).

    Row m of P holds the nodes of arc m's edges ascending, padded to the largest
    count p with the lowest nodes off the arc, whose rows and columns of C_m are
    zero. G takes robin_matrix's weights in its order of operations, bit for bit."""
    n, M, arc_of_edge = mesh.n_interface_nodes, partition.n_arcs, partition.arc_of_edge
    nxt, prv, arc = mesh.interface_next, mesh.interface_prev, np.arange(M)[:, None]
    on = np.zeros((M, n), dtype=bool)
    on[arc_of_edge, np.arange(n)] = on[arc_of_edge, nxt] = True
    p = int(on.sum(axis=1).max())
    # each row of [on, off] has n entries set: nonzero lists the arc's nodes, then the others
    P = (np.nonzero(np.hstack([on, ~on]))[1] % n).reshape(M, n)[:, :p]
    # g0 = g1 = 1 on the edges P -> next and prev -> P of the arc
    starts, ends = arc_of_edge[P] == arc, arc_of_edge[prv[P]] == arc
    w = mesh.interface_edge_lengths / 12.0
    G = (nxt[P][..., None] == P[:, None, :]) * (w[P] * 2.0 * starts)[..., None]
    G = G + np.swapaxes(G, 1, 2)
    G.reshape(M, -1)[:, :: p + 1] = w[P] * 4.0 * starts + w[prv[P]] * 4.0 * ends
    return P, G


def condensed_matrix(mesh: Mesh, sigma: Conductivity, gamma, border: int = 0) -> np.ndarray:
    """A = T + C_Gamma(gamma), the dense matrix of K(sigma, gamma) condensed onto the interface.

    Only the Robin term C_Gamma of :func:`robin_matrix` depends on gamma. A
    stack of s coefficients gives s matrices, (s, n, n). With a border, each
    matrix is (n + border) square with A as its leading block; the border rows
    and columns are left unset for the caller to fill.
    """
    _check_coercive(gamma)
    stack = _gamma_values(mesh, gamma).shape[:-1]
    T = gamma_free_part(mesh, sigma).T  # before A, so the first set-up does not hold A too
    n = len(T)
    A = np.empty(stack + (n + border,) * 2)
    A[..., :n, :n] = T
    return robin_matrix(mesh, gamma, out=A)


def robin_covector(mesh: Mesh, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The derivative of the Robin term in gamma, paired with interface values u and v.

    u and v are (n, k) or, one pair per member of a stack, (s, n, k); the result
    r, (n,) or (s, n), has ghat @ r = sum_k u_k^T C_Gamma(ghat) v_k for every
    nodal ghat: the transpose of the assembly in :func:`condensed_matrix`.
    """
    nxt = mesh.interface_next
    u1, v1 = u.take(nxt, axis=-2), v.take(nxt, axis=-2)
    p = (u * v).sum(axis=-1)
    q = (u * v1 + u1 * v).sum(axis=-1)
    r = (u1 * v1).sum(axis=-1)
    w = mesh.interface_edge_lengths / 12.0
    # edge e feeds its first node e and its second node e + 1
    return w * (3.0 * p + q + r) + (w * (p + q + 3.0 * r)).take(mesh.interface_prev, axis=-1)


def _checked_cholesky(K: np.ndarray) -> np.ndarray:
    """The Cholesky factor of K, whose leading block is A: the definiteness check of A."""
    try:
        return cholesky(K)
    except LinAlgError as exc:
        raise NumericalError(f"condensed matrix is not positive definite: {exc}") from exc


def assemble_system(mesh: Mesh, sigma: Conductivity, gamma) -> SparseSystem:
    """The system of gamma, or of a stack of them: the factor of :func:`condensed_matrix`
    from one Cholesky call, which is also its check of positive definiteness."""
    # a NaN in A may pass; the finiteness check of every solve catches it
    L = _checked_cholesky(condensed_matrix(mesh, sigma, gamma))
    return SparseSystem(mesh, sigma, gamma, gamma_free_part(mesh, sigma), L)


@functools.cache
def _dpotrs():
    """LAPACK dpotrs of the ILP64 OpenBLAS bundled in numpy's wheel (numpy.libs,
    loaded with numpy), looked up on the first solve; None if it is not there."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        potrs = getattr(ctypes.CDLL(str(path)), "scipy_dpotrs_64_", None)
        if potrs is not None:
            i64, ptr = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
            # uplo, n, nrhs, a, lda, b, ldb, info, and the length of uplo
            potrs.argtypes = [ctypes.c_char_p, i64, i64, ptr, i64, ptr, i64, i64, ctypes.c_size_t]
            potrs.restype = None
            return potrs
    return None


def _cholesky_solve(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A^-1 B for A = L L^T, L (n, n) or (s, n, n) and B (n,), (n, k) or (s, n, k),
    broadcast as np.linalg.solve broadcasts them: one dpotrs call per member, or,
    without dpotrs, np.linalg.solve on L and on L^T. Read column-major, numpy's
    C-ordered lower L is the upper factor L^T, and a C-ordered (k, n) block is n x k."""
    potrs = _dpotrs()
    if potrs is None:
        return np.linalg.solve(np.swapaxes(L, -1, -2), np.linalg.solve(L, B))
    n, C = L.shape[-1], B[..., None] if B.ndim == 1 else B
    X = np.empty(np.broadcast_shapes(L.shape[:-2], C.shape[:-2]) + (C.shape[-1], n))
    X[...] = np.swapaxes(C, -1, -2)  # a fresh C-ordered copy for dpotrs to overwrite
    L, k, info = np.ascontiguousarray(L, dtype=float), X.shape[-2], ctypes.c_int64()
    n_ref, k_ref, info_ref = (ctypes.byref(v) for v in (ctypes.c_int64(n), ctypes.c_int64(k), info))
    L_at, L_step, X_at = L.ctypes.data, 0 if L.size == n * n else 8 * n * n, X.ctypes.data
    for i in range(X.size // (k * n)):
        potrs(b"U", n_ref, k_ref, L_at + i * L_step, n_ref, X_at + 8 * i * k * n, n_ref,
              info_ref, 1)
        if info.value:
            raise NumericalError(f"dpotrs failed with info = {info.value}")
    X = np.swapaxes(X, -1, -2)
    return X[..., 0] if B.ndim == 1 else X


def assemble_stacks(mesh: Mesh, sigma: Conductivity, gamma):
    """Yield (span, system) for consecutive spans of a coefficient stack.

    Each system holds at most _SPAN_BYTES of matrices (at least one), so a
    long stack never holds all of its matrices at once.
    """
    values = _gamma_values(mesh, gamma)
    if values.ndim != 2:
        raise ParameterError("assemble_stacks takes a stack of coefficients")
    for span in _spans(len(values), 8 * mesh.n_interface_nodes**2):
        yield span, assemble_system(mesh, sigma, _members(gamma, span))


def inverse_form(mesh: Mesh, sigma: Conductivity, gamma, Z: np.ndarray) -> np.ndarray:
    """Z^T A(gamma)^-1 Z for Z of shape (n, d): (d, d), or (s, d, d) for a stack of s.

    Each gamma costs one Cholesky factorization, which is also the
    definiteness check of A, as in :func:`assemble_system`, and no solve of
    size n. A span of the stack holds at most _SPAN_BYTES of matrices and factors.
    An arcwise gamma of M arcs with M n <= 64 d, the measured break-even, factors
    an n x n matrix in a basis adapted to Z (:func:`_adapted_forms`); any other
    one the bordered (n + d) square matrix (:func:`_bordered_forms`).
    """
    if _gamma_values(mesh, gamma).ndim == 1:
        return inverse_form(mesh, sigma, _members(gamma, None), Z)[0]
    adapted = isinstance(gamma, ArcwiseGamma) and gamma.partition.n_arcs * len(Z) <= 64 * Z.shape[1]
    forms = (_adapted_forms if adapted else _bordered_forms)(mesh, sigma, gamma, Z)
    if not np.isfinite(forms).all():  # a NaN in A may pass the Cholesky factorization
        raise NumericalError("condensed matrix gave a non-finite form")
    return forms


def _bordered_forms(mesh: Mesh, sigma: Conductivity, gamma, Z: np.ndarray):
    """Z^T A^-1 Z of a stack from the bordered matrices K = [[A, Z], [Z^T, beta I]].

    The factor of K is [[L_A, 0], [H, *]] with H = Z^T L_A^-T, so
    Z^T A^-1 Z = H H^T, symmetric and with no solve.
    """
    n, d = Z.shape
    forms = np.empty((len(_gamma_values(mesh, gamma)), d, d))
    for span in _spans(len(forms), 16 * (n + d) ** 2):  # K and its factor
        K = condensed_matrix(mesh, sigma, _members(gamma, span), border=d)
        K[:, :n, n:] = Z
        K[:, n:, :n] = Z.T
        K[:, n:, n:] = _BORDER * np.eye(d)
        H = _checked_cholesky(K)[:, n:, :n]
        forms[span] = H @ np.swapaxes(H, 1, 2)
    return forms


def _adapted_terms(mesh: Mesh, sigma: Conductivity, partition: PartitionSpec, Z: np.ndarray):
    """T' = Phi^T T Phi, flat (n^2,), the C'_m = Phi^T C_m Phi of the M arcs, flat
    (M, n^2), and R_Z (r, d), r = min(n, d), for the orthogonal Phi = [Q_perp | Q_Z]
    of a complete QR of Z: Phi^T Z = [0; R_Z]. C_m is the Robin term of arc m
    (:func:`arc_blocks`), so Phi^T A(gamma) Phi = T' + sum_m gamma_m C'_m."""
    n, d = Z.shape
    r = min(n, d)
    Q, R = np.linalg.qr(Z, mode="complete")
    Phi = np.concatenate([Q[:, r:], Q[:, :r]], axis=1)
    P, G = arc_blocks(mesh, partition)
    C = np.swapaxes(Phi[P], 1, 2) @ G @ Phi[P]  # (M, n, p) (M, p, p) (M, p, n)
    T = gamma_free_part(mesh, sigma).T
    return (Phi.T @ T @ Phi).ravel(), C.reshape(len(C), n * n), R[:r]


def _adapted_forms(mesh: Mesh, sigma: Conductivity, gamma: ArcwiseGamma, Z: np.ndarray):
    """Z^T A^-1 Z of an arcwise stack from A' = Phi^T A Phi of :func:`_adapted_terms`.

    Z^T A^-1 Z = R_Z^T (A'^-1)_22 R_Z, and the trailing r x r block of A'^-1 is
    the inverse of the Schur complement L_22 L_22^T held by the trailing block of
    A's factor, so Z^T A^-1 Z = Y^T Y with Y = L_22^-1 R_Z. A' is orthogonally
    similar to A: its factorization is A's definiteness check. Each span of A'
    is one matmul with the C'_m; one stacked call solves all r x r systems.
    """
    _check_coercive(gamma)
    n = len(Z)
    T, C, R_Z = _adapted_terms(mesh, sigma, gamma.partition, Z)
    lead = n - len(R_Z)
    trailing = np.empty((len(gamma.values), n - lead, n - lead))
    for span in _spans(len(trailing), 16 * n * n):  # A' and its factor
        A = gamma.values[span] @ C
        A += T
        trailing[span] = _checked_cholesky(A.reshape(-1, n, n))[:, lead:, lead:]
    Y = np.linalg.solve(trailing, R_Z)
    return np.swapaxes(Y, 1, 2) @ Y


def arc_step_traces(mesh: Mesh, sigma: Conductivity, base, partition: PartitionSpec,
                    arcs, steps, g: np.ndarray):
    """Yield (span, U) for consecutive spans of the members i of arcs and steps:
    U[j] is the interface trace of the forward solve of the currents g (n_B, d)
    for the coefficient base + steps[i] on arc arcs[i] (0-based), i = span.start + j.

    A(base + t 1_arc m) = A0 + t C_m, and C_m touches only the p nodes P of arc m
    (:func:`arc_blocks`), so one inverse of A0 = A(base) and one p x p solve per
    member give every trace (Sherman-Morrison-Woodbury; Hager, SIAM Review 31,
    1989): with U0 = A0^-1 F, F = -W^T M_B g, G = C_m[P, P] and S = A0^-1[P, P],
    U = U0 - A0^-1[:, P] X where (I + t G S) X = t G U0[P]. A0 is checked positive
    definite by the Cholesky factorization that gives A0^-1, and t C_m >= 0, so
    every A0 + t C_m is too. A span holds at most _SPAN_BYTES of the arrays made
    per member: the (n, p) columns of A0^-1 and two (n, d).
    """
    arcs, steps = np.asarray(arcs, dtype=np.int64), np.asarray(steps, dtype=float)
    if arcs.ndim != 1 or arcs.shape != steps.shape:
        raise ParameterError("one step per arc index required")
    if ((arcs < 0) | (arcs >= partition.n_arcs)).any():
        raise ParameterError("arc index out of range")
    if not (steps >= 0.0).all():  # also rejects NaN
        raise ParameterError("steps must be >= 0")
    A0 = condensed_matrix(mesh, sigma, base)
    if A0.ndim != 2:
        raise ParameterError("arc_step_traces takes one base coefficient")
    A0_inv = _cholesky_solve(_checked_cholesky(A0), np.eye(len(A0)))
    load = _curve_load(mesh.boundary_mass, g, "boundary")
    U0 = A0_inv @ -(gamma_free_part(mesh, sigma).W.T @ load)
    # X is zero on the padding of P, where I + t G S and t G U0[P] have rows of I and 0
    P, G = arc_blocks(mesh, partition)
    A0_inv_P = np.swapaxes(A0_inv[:, P], 0, 1)  # (M, n, p)
    GS, GU0 = G @ A0_inv[P[:, :, None], P[:, None, :]], G @ U0[P]  # S = A0^-1[P, P]
    (n, d), p = U0.shape, P.shape[1]
    for span in _spans(len(arcs), 8 * n * (p + 2 * d)):
        t, m = steps[span, None, None], arcs[span]
        X = np.linalg.solve(np.eye(p) + t * GS[m], t * GU0[m])
        U = U0 - A0_inv_P[m] @ X
        if not np.isfinite(U).all():
            raise NumericalError("linear solve produced non-finite values")
        yield span, U


def _solve(system: SparseSystem, interface_load=None, boundary_load=None) -> np.ndarray:
    """Ring values x_R of K x = b for a load b on the interface or on the boundary.

    A load is (n,) or (n, k), shared by every member of a stack, or (s, n, k),
    one per member (s loads of one gamma). One gamma gives (n_R,) or (n_R, k);
    a stack of s, or a load (s, n, k), gives (s, n_R, k), a load (n,) counting
    as k = 1. With the interior and the boundary eliminated, A x_G = b_G - W^T b_B
    and x_B = S_BB^-1 b_B - W x_G; x_G comes from the system's kept factor of A,
    with no factorization (:func:`_cholesky_solve`). :func:`nodal_field` recovers the interior.
    """
    part = system.part
    load = boundary_load if interface_load is None else interface_load
    stacked = system.factor.ndim == 3 or load.ndim == 3
    if stacked and load.ndim == 1:
        load = load[:, None]
    rhs = load if boundary_load is None else -(part.W.T @ load)
    x_interface = _cholesky_solve(system.factor, rhs)
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
        mat = [[1.0, -1.0, -np.log(rho)], [-gamma_const, 0.0, s2 / rho], [0.0, 0.0, s2]]
    else:
        mat = [
            [rho**n, -(rho**n), -(rho ** (-n))],
            [-s1 * n * rho ** (n - 1) - gamma_const * rho**n, s2 * n * rho ** (n - 1),
             -s2 * n * rho ** (-n - 1)],
            [0.0, s2 * n, -s2 * n],
        ]
    A, B, C = np.linalg.solve(mat, [0.0, 0.0, 1.0])
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
