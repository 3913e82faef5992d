import dataclasses

import numpy as np
import pytest

import robininv as ri
from robininv import cli, fem
from robininv.mesh import edge_lengths, triangle_areas


def test_counts_minimal_mesh():
    m = ri.generate_disk_mesh(1, 1, 8)
    assert m.n_nodes == 17  # center + 8 on interface + 8 on boundary
    assert len(m.triangles) == 24  # 8 fan + 16 band


def test_interface_ring_exact():
    m = ri.generate_disk_mesh(2, 2, 8)
    r2 = np.sum(m.nodes[m.interface_nodes] ** 2, axis=1)
    assert np.all(np.abs(r2 - 0.25) < 1e-12)
    r2b = np.sum(m.nodes[m.boundary_nodes] ** 2, axis=1)
    assert np.all(np.abs(r2b - 1.0) < 1e-12)


def test_h_halves_under_refinement():
    h_coarse = ri.generate_disk_mesh(2, 2, 32).h
    h_fine = ri.generate_disk_mesh(4, 4, 64).h
    assert h_coarse / h_fine == pytest.approx(2.0, rel=0.1)


def test_positive_areas_and_region_partition(mesh_mid):
    areas = triangle_areas(mesh_mid)
    assert np.all(areas > 0)
    # no triangle straddles the interface circle
    for tri, reg in zip(mesh_mid.triangles, mesh_mid.regions):
        r = np.linalg.norm(mesh_mid.nodes[tri], axis=1)
        if reg == 1:
            assert np.all(r <= 0.5 + 1e-12)
        else:
            assert np.all(r >= 0.5 - 1e-12)


def test_total_area_matches_disk(mesh_mid):
    # inscribed 64-gon: relative area defect below 2e-3
    total = triangle_areas(mesh_mid).sum()
    assert abs(total - np.pi) / np.pi < 2e-3


def test_interface_length_is_polygon_perimeter(mesh_mid):
    n = 64
    expected = np.pi * np.sin(np.pi / n) / (np.pi / n)
    got = edge_lengths(mesh_mid, mesh_mid.interface_edges).sum()
    assert got == pytest.approx(expected, abs=1e-12)


def test_edges_form_single_cycles(mesh_coarse):
    for edges in (mesh_coarse.interface_edges, mesh_coarse.boundary_edges):
        succ = dict(edges)
        start = edges[0][0]
        node, seen = start, 0
        while True:
            node = succ[node]
            seen += 1
            if node == start:
                break
        assert seen == len(edges)


def test_determinism():
    m1 = ri.generate_disk_mesh(3, 2, 16)
    m2 = ri.generate_disk_mesh(3, 2, 16)
    assert np.array_equal(m1.nodes, m2.nodes)
    assert np.array_equal(m1.triangles, m2.triangles)
    assert m1.h == m2.h


@pytest.mark.parametrize("args", [(0, 1, 8), (1, 0, 8), (1, 1, 6), (1, 1, 9)])
def test_invalid_sizes_rejected(args):
    with pytest.raises(ri.ParameterError):
        ri.generate_disk_mesh(*args)


def test_partition_equal_split():
    m = ri.generate_disk_mesh(1, 1, 8)
    part = ri.interface_partition(m, 4)
    counts = np.bincount(part.arc_of_edge, minlength=4)
    assert list(counts) == [2, 2, 2, 2]


def test_partition_single_arc(mesh_coarse):
    part = ri.interface_partition(mesh_coarse, 1)
    assert np.all(part.arc_of_edge == 0)


def test_partition_uneven_cover():
    m = ri.generate_disk_mesh(1, 1, 10)
    part = ri.interface_partition(m, 4)
    counts = np.bincount(part.arc_of_edge, minlength=4)
    assert set(counts) <= {2, 3}
    assert counts.sum() == 10


def test_partition_too_many_arcs(mesh_coarse):
    with pytest.raises(ri.ParameterError):
        ri.interface_partition(mesh_coarse, len(mesh_coarse.interface_edges) + 1)


def test_mesh_io_roundtrip(tmp_path, mesh_coarse, mesh_mid, sigma):
    for mesh in (mesh_coarse, mesh_mid):
        path = tmp_path / "mesh.txt"
        ri.save_mesh(mesh, path)
        m2 = ri.load_mesh(path)
        assert np.array_equal(m2.triangles, mesh.triangles)
        assert np.array_equal(m2.regions, mesh.regions)
        assert np.array_equal(m2.interface_edges, mesh.interface_edges)
        assert np.array_equal(m2.boundary_edges, mesh.boundary_edges)
        assert np.abs(m2.node_angle - mesh.node_angle).max() <= 1e-12
        # %.17g round-trips every coordinate, so both meshes give the same
        # solution, on the same theta-Fourier path
        assert np.array_equal(m2.nodes, mesh.nodes) and m2.h == mesh.h
        wedge = fem._theta_wedge(m2)
        assert wedge is not None and np.array_equal(wedge, fem._theta_wedge(mesh))
        g = np.cos(mesh.boundary_theta)
        gamma = np.full(mesh.n_interface_nodes, 2.0)
        u = ri.solve_forward(ri.assemble_system(mesh, sigma, gamma), g)
        v = ri.solve_forward(ri.assemble_system(m2, sigma, gamma), g)
        assert np.abs(u - v).max() <= 1e-12 * np.abs(u).max()


def test_copy_with_moved_nodes_derives_its_own_h(mesh_coarse):
    nodes = mesh_coarse.nodes.copy()
    nodes[0] += 0.1  # the center
    moved = dataclasses.replace(mesh_coarse, nodes=nodes)
    p = nodes[moved.triangles]
    longest = np.linalg.norm(p - np.roll(p, -1, axis=1), axis=2).max()
    assert moved.h == longest > mesh_coarse.h + 0.05
    assert np.array_equal(moved.interface_edges, mesh_coarse.interface_edges)


def test_mesh_io_rejects_other_files(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("something else\n")
    with pytest.raises(ri.ParameterError):
        ri.load_mesh(path)


def _loop_mesh_arrays(n_r_inner, n_r_outer, n_theta):
    """Triangles, regions and ring edges built cell by cell, as the mesh
    generator did before it was vectorized."""
    n_rings = n_r_inner + n_r_outer

    def ring(j):  # 1-based ring index -> node indices
        lo = 1 + (j - 1) * n_theta
        return np.arange(lo, lo + n_theta)

    tris, regions = [], []
    r1 = ring(1)
    nxt = np.roll(r1, -1)
    for i in range(n_theta):
        tris.append((0, r1[i], nxt[i]))
        regions.append(1)
    for j in range(1, n_rings):
        a, b = ring(j), ring(j + 1)
        a_nxt, b_nxt = np.roll(a, -1), np.roll(b, -1)
        tag = 1 if j + 1 <= n_r_inner else 2
        for i in range(n_theta):
            tris.append((a[i], b[i], b_nxt[i]))
            tris.append((a[i], b_nxt[i], a_nxt[i]))
            regions.append(tag)
            regions.append(tag)
    interface, boundary = ring(n_r_inner), ring(n_rings)
    return {
        "triangles": np.asarray(tris, dtype=np.int64),
        "regions": np.asarray(regions, dtype=np.int64),
        "interface_nodes": interface,
        "boundary_nodes": boundary,
        "interface_edges": np.column_stack([interface, np.roll(interface, -1)]),
        "boundary_edges": np.column_stack([boundary, np.roll(boundary, -1)]),
    }


@pytest.mark.parametrize("params", [(2, 2, 32), (4, 4, 64), (3, 5, 48)])
def test_vectorized_mesh_matches_cell_loop(params):
    mesh = ri.generate_disk_mesh(*params)
    for name, expected in _loop_mesh_arrays(*params).items():
        got = getattr(mesh, name)
        assert got.dtype == expected.dtype, name
        assert np.array_equal(got, expected), name
    # nodes ring by ring, as the loop placed them
    n_theta = params[2]
    theta = 2.0 * np.pi * np.arange(n_theta) / n_theta
    for j in range(params[0] + params[1]):
        ring = slice(1 + j * n_theta, 1 + (j + 1) * n_theta)
        r = np.hypot(*mesh.nodes[1 + j * n_theta])
        assert np.array_equal(mesh.nodes[ring, 0], r * np.cos(theta))
        assert np.array_equal(mesh.nodes[ring, 1], r * np.sin(theta))
        assert np.array_equal(mesh.node_angle[ring], theta)
    assert np.array_equal(mesh.nodes[0], [0.0, 0.0])


def test_cyclic_neighbours_match_roll(mesh_coarse):
    f = np.arange(mesh_coarse.n_interface_nodes) ** 2.0
    assert np.array_equal(f[mesh_coarse.interface_next], np.roll(f, -1))
    assert np.array_equal(f[mesh_coarse.interface_prev], np.roll(f, 1))
    assert not mesh_coarse.interface_next.flags.writeable


def test_node_arc_gives_shared_nodes_to_the_lower_arc(mesh_coarse):
    part = ri.interface_partition(mesh_coarse, 4)  # 8 edges per arc
    expected = np.repeat(np.arange(4), 8)
    expected[[8, 16, 24]] -= 1  # node 8 ends arc 0 and starts arc 1, ...
    expected[0] = 0  # node 0 joins arc 3 and arc 0
    assert np.array_equal(part.node_arc, expected)


def _mesh_lines(mesh_coarse, tmp_path):
    path = tmp_path / "mesh.txt"
    ri.save_mesh(mesh_coarse, path)
    return path.read_text().splitlines()


def _ring_block(lines, which):
    """Line range of the interface (0) or boundary (1) edge rows."""
    n_nodes = int(lines[1])
    tri_count = 2 + n_nodes
    ie_count = tri_count + 1 + int(lines[tri_count])
    be_count = ie_count + 1 + int(lines[ie_count])
    count = (ie_count, be_count)[which]
    return count + 1, count + 1 + int(lines[count])


def _swap_edges(lines, which):
    lo, _ = _ring_block(lines, which)
    lines[lo], lines[lo + 1] = lines[lo + 1], lines[lo]


def _share_ring_node(lines):
    """Start the first boundary edge at the first interface node."""
    interface_row, boundary_row = (_ring_block(lines, which)[0] for which in (0, 1))
    lines[boundary_row] = f"{lines[interface_row].split()[0]} {lines[boundary_row].split()[1]}"


def _reverse_ring(lines, which):
    lo, hi = _ring_block(lines, which)
    edges = [row.split() for row in lines[lo:hi]]
    lines[lo:hi] = [f"{b} {a}" for a, b in reversed(edges)]


MALFORMED = {
    "empty file": lambda lines: lines.clear(),
    "short node row": lambda lines: lines.__setitem__(2, "0 0.0"),
    "long triangle row": lambda lines: lines.__setitem__(
        3 + int(lines[1]), lines[3 + int(lines[1])] + " 7"
    ),
    "node count too large": lambda lines: lines.__setitem__(1, str(int(lines[1]) + 5)),
    "negative count": lambda lines: lines.__setitem__(1, "-1"),
    "non-numeric count": lambda lines: lines.__setitem__(1, "many"),
    "non-numeric coordinate": lambda lines: lines.__setitem__(2, "0 zero 0.0"),
    "non-finite coordinate": lambda lines: lines.__setitem__(2, "0 nan 0.0"),
    "fractional node index": lambda lines: lines.__setitem__(
        3 + int(lines[1]), "0 0 1.5 2 1"
    ),
    "node index out of range": lambda lines: lines.__setitem__(
        3 + int(lines[1]), f"0 0 1 {int(lines[1])} 1"
    ),
    "negative node index": lambda lines: lines.__setitem__(3 + int(lines[1]), "0 0 -1 2 1"),
    "rows out of order": lambda lines: lines.__setitem__(2, "1 0.0 0.0"),
    "unknown region": lambda lines: lines.__setitem__(3 + int(lines[1]), "0 0 1 2 3"),
    "missing boundary edges": lambda lines: lines.pop(),
    "trailing row": lambda lines: lines.append("0 1"),
    "interface not a cycle": lambda lines: _swap_edges(lines, 0),
    "boundary not a cycle": lambda lines: _swap_edges(lines, 1),
    "interface clockwise": lambda lines: _reverse_ring(lines, 0),
    "boundary clockwise": lambda lines: _reverse_ring(lines, 1),
    "node on both rings": _share_ring_node,
}


def test_reversed_triangles_are_refused_when_assembled(tmp_path, mesh_coarse, sigma):
    # the file loads, as the loader does not look at orientation; the stiffness
    # of its clockwise triangles would have negative areas
    lines = _mesh_lines(mesh_coarse, tmp_path)
    lo = 3 + int(lines[1])  # the first triangle row: index, three nodes, region
    for row in range(lo, lo + int(lines[lo - 1])):
        index, a, b, c, region = lines[row].split()
        lines[row] = f"{index} {a} {c} {b} {region}"
    path = tmp_path / "reversed.txt"
    path.write_text("\n".join(lines) + "\n")
    mesh = ri.load_mesh(path)
    with pytest.raises(ri.ParameterError, match="non-positively oriented triangles"):
        ri.assemble_system(mesh, sigma, np.ones(mesh.n_interface_nodes))


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_mesh_file_is_a_parameter_error(case, tmp_path, mesh_coarse, monkeypatch):
    lines = _mesh_lines(mesh_coarse, tmp_path)
    MALFORMED[case](lines)
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ri.ParameterError):
        ri.load_mesh(path)
    # a driver that reads the file exits with the parameter-error code 1
    monkeypatch.setattr(cli, "generate_disk_mesh", lambda *_params: ri.load_mesh(path))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n_r_inner = 2\nn_r_outer = 2\nn_theta = 32\n")
    assert cli.main(["mesh", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
