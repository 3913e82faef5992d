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


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation of the unit disk.

    nodes: (N, 2) coordinates.
    node_angle: polar angle theta in [0, 2*pi) per node (0.0 for the center).
    triangles: (T, 3) node indices, counter-clockwise.
    regions: (T,) tags, 1 = inner disk, 2 = annulus.
    interface_nodes / boundary_nodes: ring node indices in cyclic theta order.
    interface_edges / boundary_edges: (E, 2) index pairs; edge e connects ring
        position e to position (e + 1) % E.
    h: maximum edge length.
    cache: the gamma-free part of the Galerkin system per conductivity,
        filled by ``fem`` on first use; it lives and dies with the mesh.
    """

    nodes: np.ndarray
    node_angle: np.ndarray
    triangles: np.ndarray
    regions: np.ndarray
    interface_nodes: np.ndarray
    boundary_nodes: np.ndarray
    interface_edges: np.ndarray
    boundary_edges: np.ndarray
    h: float
    params: tuple = field(default=())
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
    def interface_edge_lengths(self) -> np.ndarray:
        """Length of every interface edge, computed once per mesh."""
        return edge_lengths(self, self.interface_edges)

    @cached_property
    def theta_step(self) -> np.ndarray | None:
        """Node permutation that turns a structured polar mesh by one theta step.

        Node p moves to node theta_step[p]: the center stays, every ring node
        moves one position on its ring. None if the mesh does not come from
        :func:`generate_disk_mesh`, whose node layout this relies on.
        """
        if not self.params:
            return None
        n_theta = self.params[2]
        k = np.arange(self.n_nodes - 1)
        return np.concatenate([[0], 1 + k - k % n_theta + (k + 1) % n_theta])


@dataclass(frozen=True)
class PartitionSpec:
    """Partition of the interface circle into M contiguous arcs.

    arc_of_edge maps each interface-edge index to an arc index in 0..M-1.
    arc_bounds holds the M+1 angular break points.
    """

    n_arcs: int
    arc_of_edge: np.ndarray
    arc_bounds: np.ndarray

    def edges_of_arc(self, m: int) -> np.ndarray:
        if not 0 <= m < self.n_arcs:
            raise ParameterError(f"arc index {m} out of range 0..{self.n_arcs - 1}")
        return np.nonzero(self.arc_of_edge == m)[0]


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
    cos_t, sin_t = np.cos(theta), np.sin(theta)

    nodes = np.zeros((1 + n_rings * n_theta, 2))
    angle = np.zeros(len(nodes))
    for j, r in enumerate(radii):
        lo = 1 + j * n_theta
        nodes[lo : lo + n_theta, 0] = r * cos_t
        nodes[lo : lo + n_theta, 1] = r * sin_t
        angle[lo : lo + n_theta] = theta

    def ring(j):  # 1-based ring index -> node indices
        lo = 1 + (j - 1) * n_theta
        return np.arange(lo, lo + n_theta)

    tris = []
    regions = []
    r1 = ring(1)
    nxt = np.roll(r1, -1)
    for i in range(n_theta):
        tris.append((0, r1[i], nxt[i]))
        regions.append(1)
    for j in range(1, n_rings):
        a = ring(j)
        b = ring(j + 1)
        a_nxt = np.roll(a, -1)
        b_nxt = np.roll(b, -1)
        tag = 1 if j + 1 <= n_r_inner else 2
        for i in range(n_theta):
            tris.append((a[i], b[i], b_nxt[i]))
            tris.append((a[i], b_nxt[i], a_nxt[i]))
            regions.append(tag)
            regions.append(tag)

    triangles = np.asarray(tris, dtype=np.int64)
    regions = np.asarray(regions, dtype=np.int64)

    interface_nodes = ring(n_r_inner)
    boundary_nodes = ring(n_rings)
    interface_edges = np.column_stack([interface_nodes, np.roll(interface_nodes, -1)])
    boundary_edges = np.column_stack([boundary_nodes, np.roll(boundary_nodes, -1)])

    p = nodes[triangles]
    edge_len = np.concatenate(
        [
            np.linalg.norm(p[:, 1] - p[:, 0], axis=1),
            np.linalg.norm(p[:, 2] - p[:, 1], axis=1),
            np.linalg.norm(p[:, 0] - p[:, 2], axis=1),
        ]
    )
    return Mesh(
        nodes=nodes,
        node_angle=angle,
        triangles=triangles,
        regions=regions,
        interface_nodes=interface_nodes,
        boundary_nodes=boundary_nodes,
        interface_edges=interface_edges,
        boundary_edges=boundary_edges,
        h=float(edge_len.max()),
        params=(n_r_inner, n_r_outer, n_theta),
    )


def interface_partition(mesh: Mesh, n_arcs: int) -> PartitionSpec:
    """Split the interface into n_arcs arcs of equal angular extent.

    Each edge is assigned by its midpoint angle; every arc ends up with at
    least one edge because the arc width is no smaller than the edge spacing.
    """
    n_edges = len(mesh.interface_edges)
    if n_arcs < 1 or n_arcs > n_edges:
        raise ParameterError(f"n_arcs must be in 1..{n_edges}, got {n_arcs}")
    width = 2.0 * np.pi / n_arcs
    theta = mesh.interface_theta
    mid = theta + 0.5 * (2.0 * np.pi / n_edges)
    arc_of_edge = np.minimum((mid // width).astype(np.int64), n_arcs - 1)
    bounds = width * np.arange(n_arcs + 1)
    spec = PartitionSpec(n_arcs=n_arcs, arc_of_edge=arc_of_edge, arc_bounds=bounds)
    counts = np.bincount(arc_of_edge, minlength=n_arcs)
    if (counts == 0).any():
        raise ParameterError("partition produced an empty arc")
    return spec


def triangle_areas(mesh: Mesh) -> np.ndarray:
    p = mesh.nodes[mesh.triangles]
    return 0.5 * (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )


def edge_lengths(mesh: Mesh, edges: np.ndarray) -> np.ndarray:
    d = mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]]
    return np.linalg.norm(d, axis=1)


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


def load_mesh(path) -> Mesh:
    """Read the plain-text mesh format written by :func:`save_mesh`."""
    with open(path) as fh:
        tokens = fh.read().split("\n")
    rows = [row.split() for row in tokens if row.strip()]
    if rows[0] != ["robinmesh", "v1"]:
        raise ParameterError("not a robinmesh v1 file")
    pos = 1
    n_nodes = int(rows[pos][0])
    pos += 1
    nodes = np.empty((n_nodes, 2))
    for _ in range(n_nodes):
        i, x, y = rows[pos]
        nodes[int(i)] = (float(x), float(y))
        pos += 1
    n_tri = int(rows[pos][0])
    pos += 1
    triangles = np.empty((n_tri, 3), dtype=np.int64)
    regions = np.empty(n_tri, dtype=np.int64)
    for _ in range(n_tri):
        i, a, b, c, reg = (int(v) for v in rows[pos])
        triangles[i] = (a, b, c)
        regions[i] = reg
        pos += 1
    n_ie = int(rows[pos][0])
    pos += 1
    interface_edges = np.empty((n_ie, 2), dtype=np.int64)
    for e in range(n_ie):
        interface_edges[e] = [int(v) for v in rows[pos]]
        pos += 1
    n_be = int(rows[pos][0])
    pos += 1
    boundary_edges = np.empty((n_be, 2), dtype=np.int64)
    for e in range(n_be):
        boundary_edges[e] = [int(v) for v in rows[pos]]
        pos += 1

    angle = np.mod(np.arctan2(nodes[:, 1], nodes[:, 0]), 2.0 * np.pi)
    angle[np.linalg.norm(nodes, axis=1) < 1e-14] = 0.0
    p = nodes[triangles]
    edge_len = np.concatenate(
        [
            np.linalg.norm(p[:, 1] - p[:, 0], axis=1),
            np.linalg.norm(p[:, 2] - p[:, 1], axis=1),
            np.linalg.norm(p[:, 0] - p[:, 2], axis=1),
        ]
    )
    return Mesh(
        nodes=nodes,
        node_angle=angle,
        triangles=triangles,
        regions=regions,
        interface_nodes=interface_edges[:, 0].copy(),
        boundary_nodes=boundary_edges[:, 0].copy(),
        interface_edges=interface_edges,
        boundary_edges=boundary_edges,
        h=float(edge_len.max()),
    )
