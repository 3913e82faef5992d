"""Structured polar mesh of the unit disk with an exactly resolved interface circle.

The disk is split into an inner region (r < 0.5, tag 1) and an annulus
(0.5 < r < 1, tag 2) by node rings placed exactly on both circles, so
curve integrals on the interface and the outer boundary reduce to sums
over polygon edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ParameterError

INTERFACE_RADIUS = 0.5
OUTER_RADIUS = 1.0


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation of the unit disk.

    nodes: (N, 2) coordinates.
    node_angle: polar angle theta in [0, 2*pi) per node (0.0 for the center).
    triangles: (T, 3) node indices, counter-clockwise.
    regions: (T,) tags, 1 = inner disk, 2 = annulus.
    interface_nodes / boundary_nodes: ring node indices in cyclic theta order.

    The rest is derived from these six on first use and kept, so a copy with
    other nodes (``dataclasses.replace``) derives its own:
    interface_edges / boundary_edges: (E, 2) index pairs; edge e connects ring
        position e to position (e + 1) % E.
    h: maximum edge length.
    interface_mass / boundary_mass: P1 mass matrices of L2(Gamma) and
        L2(dOmega) in ring positions, dense and read-only.
    cache: filled on first use, it lives and dies with the mesh. Per
        conductivity, ``fem`` keeps the gamma-free part of the Galerkin
        system: the stiffness condensed onto the interface nodes, the maps
        that give the boundary values, and the map with which
        ``fem.nodal_field`` recovers the interior. Per
        ``("nd_basis", n_modes)``, ``ndmap`` keeps the read-only
        M-orthonormal trigonometric boundary basis, which depends on neither
        gamma nor sigma, and per ``("nd_terms", sigma, n_modes)`` the
        gamma-free terms Z and F0 of the ND form.
    """

    nodes: np.ndarray
    node_angle: np.ndarray
    triangles: np.ndarray
    regions: np.ndarray
    interface_nodes: np.ndarray
    boundary_nodes: np.ndarray
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_interface_nodes(self) -> int:
        return len(self.interface_nodes)

    @property
    def n_boundary_nodes(self) -> int:
        return len(self.boundary_nodes)

    @property
    def interface_theta(self) -> np.ndarray:
        return self.node_angle[self.interface_nodes]

    @property
    def boundary_theta(self) -> np.ndarray:
        return self.node_angle[self.boundary_nodes]

    @cached_property
    def interface_edges(self) -> np.ndarray:
        return _ring_edges(self.interface_nodes)

    @cached_property
    def boundary_edges(self) -> np.ndarray:
        return _ring_edges(self.boundary_nodes)

    @cached_property
    def h(self) -> float:
        p = self.nodes[self.triangles]
        return float(np.linalg.norm(p - np.roll(p, -1, axis=1), axis=2).max())

    @cached_property
    def interface_edge_lengths(self) -> np.ndarray:
        """Length of every interface edge, computed once per mesh."""
        return edge_lengths(self, self.interface_edges)

    @cached_property
    def interface_mass(self) -> np.ndarray:
        return curve_mass(self.interface_edge_lengths)

    @cached_property
    def boundary_mass(self) -> np.ndarray:
        return curve_mass(edge_lengths(self, self.boundary_edges))

    @cached_property
    def interface_next(self) -> np.ndarray:
        """Ring position e + 1 (cyclic) for every interface position e: the far end of edge e."""
        return _read_only(np.roll(np.arange(self.n_interface_nodes), -1))

    @cached_property
    def interface_prev(self) -> np.ndarray:
        """Ring position e - 1 (cyclic) for every interface position e: the edge that ends at e."""
        return _read_only(np.roll(np.arange(self.n_interface_nodes), 1))


@dataclass(frozen=True)
class PartitionSpec:
    """Partition of the interface circle into M contiguous arcs.

    arc_of_edge maps each interface-edge index to an arc index in 0..M-1.
    """

    n_arcs: int
    arc_of_edge: np.ndarray

    @property
    def node_arc(self) -> np.ndarray:
        """Arc of every interface node: a shared node goes to the lower-index arc.

        Node e is shared by edge e - 1 and edge e (cyclic).
        """
        return np.minimum(np.roll(self.arc_of_edge, 1), self.arc_of_edge)


def generate_disk_mesh(n_r_inner: int, n_r_outer: int, n_theta: int) -> Mesh:
    """Build the structured polar mesh.

    Rings at radii 0.5*j/n_r_inner (j = 1..n_r_inner) and
    0.5 + 0.5*j/n_r_outer (j = 1..n_r_outer); n_theta nodes per ring; a fan
    around the center; two triangles per quad in every other band.
    Deterministic: identical parameters give bit-identical meshes.
    """
    if n_r_inner < 1 or n_r_outer < 1:
        raise ParameterError("n_r_inner and n_r_outer must be >= 1")
    if n_theta < 8 or n_theta % 2 != 0:
        raise ParameterError("n_theta must be even and >= 8")

    n_rings = n_r_inner + n_r_outer
    radii = np.empty(n_rings)
    radii[:n_r_inner] = INTERFACE_RADIUS * np.arange(1, n_r_inner + 1) / n_r_inner
    radii[n_r_inner:] = INTERFACE_RADIUS + (OUTER_RADIUS - INTERFACE_RADIUS) * np.arange(
        1, n_r_outer + 1
    ) / n_r_outer

    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    nodes = np.zeros((1 + n_rings * n_theta, 2))
    nodes[1:, 0] = (radii[:, None] * np.cos(theta)).ravel()
    nodes[1:, 1] = (radii[:, None] * np.sin(theta)).ravel()
    angle = np.concatenate([[0.0], np.tile(theta, n_rings)])

    # ring[j] holds the nodes of ring j + 1 in theta order, ring_next their successors
    ring = 1 + np.arange(n_rings * n_theta).reshape(n_rings, n_theta)
    ring_next = np.roll(ring, -1, axis=1)
    fan = np.column_stack([np.zeros(n_theta, dtype=np.int64), ring[0], ring_next[0]])
    # band j joins ring j + 1 (a) to ring j + 2 (b): two triangles per theta cell
    a, a_nxt, b, b_nxt = ring[:-1], ring_next[:-1], ring[1:], ring_next[1:]
    band = np.stack([a, b, b_nxt, a, b_nxt, a_nxt], axis=-1)
    triangles = np.concatenate([fan, band.reshape(-1, 3)])
    band_tag = np.where(np.arange(2, n_rings + 1) <= n_r_inner, 1, 2)
    regions = np.concatenate([np.ones(n_theta, dtype=np.int64), np.repeat(band_tag, 2 * n_theta)])

    return Mesh(
        nodes=nodes,
        node_angle=angle,
        triangles=triangles,
        regions=regions,
        interface_nodes=ring[n_r_inner - 1],
        boundary_nodes=ring[-1],
    )


def interface_partition(mesh: Mesh, n_arcs: int) -> PartitionSpec:
    """Split the interface into n_arcs arcs of equal angular extent.

    Each edge is assigned by its midpoint angle; every arc ends up with at
    least one edge because the arc width is no smaller than the edge spacing.
    """
    n_edges = mesh.n_interface_nodes
    if n_arcs < 1 or n_arcs > n_edges:
        raise ParameterError(f"n_arcs must be in 1..{n_edges}, got {n_arcs}")
    width = 2.0 * np.pi / n_arcs
    theta = mesh.interface_theta
    mid = theta + 0.5 * (2.0 * np.pi / n_edges)
    arc_of_edge = np.minimum((mid // width).astype(np.int64), n_arcs - 1)
    counts = np.bincount(arc_of_edge, minlength=n_arcs)
    if (counts == 0).any():
        raise ParameterError("partition produced an empty arc")
    return PartitionSpec(n_arcs=n_arcs, arc_of_edge=arc_of_edge)


def triangle_areas(mesh: Mesh) -> np.ndarray:
    p = mesh.nodes[mesh.triangles]
    return 0.5 * (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )


def edge_lengths(mesh: Mesh, edges: np.ndarray) -> np.ndarray:
    d = mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]]
    return np.linalg.norm(d, axis=1)


def curve_mass(length: np.ndarray) -> np.ndarray:
    """Dense, read-only P1 mass matrix of a closed polygon, or one per row of lengths (k, E).

    Edge e joins ring positions e and e + 1; an edge of length 0 adds nothing,
    so zeroing the lengths outside a set of edges gives the mass of that set.
    """
    i = np.arange(length.shape[-1])
    j = np.roll(i, -1)
    M = np.zeros(length.shape + (len(i),))
    M[..., i, i] = (length + length[..., i - 1]) / 3.0
    M[..., i, j] = M[..., j, i] = length / 6.0
    return _read_only(M)


def _ring_edges(ring: np.ndarray) -> np.ndarray:
    """Read-only (E, 2) edges of a closed ring: position e to position (e + 1) % E."""
    return _read_only(np.column_stack([ring, np.roll(ring, -1)]))


def save_mesh(mesh: Mesh, path) -> None:
    """Write the plain-text mesh format (header ``robinmesh v1``)."""
    lines = ["robinmesh v1", str(mesh.n_nodes)]
    for i, (x, y) in enumerate(mesh.nodes):
        lines.append(f"{i} {x:.17g} {y:.17g}")
    lines.append(str(len(mesh.triangles)))
    for i, (t, reg) in enumerate(zip(mesh.triangles, mesh.regions)):
        lines.append(f"{i} {t[0]} {t[1]} {t[2]} {reg}")
    lines.append(str(len(mesh.interface_edges)))
    for a, b in mesh.interface_edges:
        lines.append(f"{a} {b}")
    lines.append(str(len(mesh.boundary_edges)))
    for a, b in mesh.boundary_edges:
        lines.append(f"{a} {b}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_block(rows, pos: int, width: int, dtype):
    """The count on row pos and the block of count rows of width tokens after it."""
    if pos >= len(rows) or len(rows[pos]) != 1:
        raise ParameterError("mesh file: expected a count")
    try:
        n = int(rows[pos][0])
        block = rows[pos + 1 : pos + 1 + n]
        if n < 0 or len(block) != n or any(len(row) != width for row in block):
            raise ValueError(f"expected {n} rows of {width} values")
        return np.array(block, dtype=dtype).reshape(n, width), pos + 1 + n
    except ValueError as exc:
        raise ParameterError(f"mesh file: {exc}") from None


def _check_ring(angle: np.ndarray, edges: np.ndarray, what: str) -> None:
    """Edge e must run from ring position e to e + 1, once around the origin counter-clockwise."""
    start = edges[:, 0]
    if len(edges) < 3 or not np.array_equal(edges[:, 1], np.roll(start, -1)):
        raise ParameterError(f"mesh file: the {what} edges do not form one closed cycle")
    turn = np.mod(np.roll(angle[start], -1) - angle[start], 2.0 * np.pi)
    if not ((turn > 0).all() and abs(turn.sum() - 2.0 * np.pi) < 1e-9):
        raise ParameterError(f"mesh file: the {what} edges are not in theta order")


def load_mesh(path) -> Mesh:
    """Read the plain-text mesh format written by :func:`save_mesh`.

    A malformed file (short rows, wrong counts, non-numeric tokens, node
    indices out of range) raises ParameterError, and so do interface or
    boundary edges that do not each form one closed cycle in theta order.
    """
    with open(path) as fh:
        rows = [line.split() for line in fh if line.strip()]
    if not rows or rows[0] != ["robinmesh", "v1"]:
        raise ParameterError("not a robinmesh v1 file")
    node_rows, pos = _read_block(rows, 1, 3, float)
    tri_rows, pos = _read_block(rows, pos, 5, np.int64)
    interface_edges, pos = _read_block(rows, pos, 2, np.int64)
    boundary_edges, pos = _read_block(rows, pos, 2, np.int64)
    if pos != len(rows):
        raise ParameterError("mesh file: unexpected rows after the boundary edges")
    for block in (node_rows, tri_rows):
        if not np.array_equal(block[:, 0], np.arange(len(block))):
            raise ParameterError("mesh file: rows must be numbered 0, 1, 2, ...")
    nodes = node_rows[:, 1:]
    triangles, regions = tri_rows[:, 1:4], tri_rows[:, 4]
    if not np.isfinite(nodes).all():
        raise ParameterError("mesh file: non-finite node coordinates")
    if not np.isin(regions, (1, 2)).all():
        raise ParameterError("mesh file: region tags must be 1 or 2")
    for indices in (triangles, interface_edges, boundary_edges):
        if ((indices < 0) | (indices >= len(nodes))).any():
            raise ParameterError("mesh file: node index out of range")
    ring = np.concatenate([interface_edges[:, 0], boundary_edges[:, 0]])
    if len(np.unique(ring)) != len(ring):
        raise ParameterError("mesh file: a node appears twice on the interface and boundary")

    angle = np.mod(np.arctan2(nodes[:, 1], nodes[:, 0]), 2.0 * np.pi)
    angle[np.linalg.norm(nodes, axis=1) < 1e-14] = 0.0
    _check_ring(angle, interface_edges, "interface")
    _check_ring(angle, boundary_edges, "boundary")
    return Mesh(
        nodes=nodes,
        node_angle=angle,
        triangles=triangles,
        regions=regions,
        interface_nodes=interface_edges[:, 0].copy(),
        boundary_nodes=boundary_edges[:, 0].copy(),
    )

