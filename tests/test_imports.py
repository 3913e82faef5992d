"""The drivers on generated meshes run on numpy alone, also after a save and load;
meshes without the rotational symmetry bring in scipy. A numpy wheel on the ILP64
scipy-openblas gives the solves their LAPACK dpotrs."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import robininv
from robininv import fem

SRC = str(Path(robininv.__file__).resolve().parents[1])

CONFIG = """
n_r_inner = 2
n_r_outer = 2
n_theta = 32
max_iter = 3
n_modes = 4
"""

DRIVERS = """
import sys
from robininv import cli
for sub in ("example1", "lipschitz", "forward"):
    assert cli.main([sub, "--config", "cfg.txt", "--out", sub]) == 0, sub
"""

LOADED = """
import dataclasses
import sys
import numpy as np
import robininv as ri
mesh = ri.generate_disk_mesh(4, 4, 64)
if MOVED:
    nodes = mesh.nodes.copy()
    nodes[0] += 1e-3  # the center
    mesh = dataclasses.replace(mesh, nodes=nodes)
ri.save_mesh(mesh, "mesh.txt")
loaded = ri.load_mesh("mesh.txt")
sigma = ri.Conductivity(2.0, 1.0)
g = np.cos(mesh.boundary_theta)
gamma = 1.0 + 0.5 * np.sin(mesh.interface_theta)
fields = [ri.nodal_field(s, ri.solve_forward(s, g))
          for s in (ri.assemble_system(m, sigma, gamma) for m in (mesh, loaded))]
assert np.abs(fields[0] - fields[1]).max() <= 1e-12 * np.abs(fields[0]).max()
"""


def _run(tmp_path, code: str) -> set:
    """Run code in a fresh interpreter in tmp_path; return the scipy modules it loaded."""
    (tmp_path / "cfg.txt").write_text(CONFIG)
    report = "\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", code + report],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return set(ast.literal_eval(done.stdout.strip().splitlines()[-1]))


def test_drivers_on_generated_meshes_import_no_scipy(tmp_path):
    assert _run(tmp_path, DRIVERS) == set()
    assert (tmp_path / "forward" / "field.csv").is_file()


def test_loaded_mesh_still_solves(tmp_path):
    # the saved and loaded generated mesh keeps its symmetry; a moved one needs scipy
    assert _run(tmp_path, "MOVED = False\n" + LOADED) == set()
    assert "scipy.sparse.linalg" in _run(tmp_path, "MOVED = True\n" + LOADED)


def test_bundled_openblas_gives_the_factor_solve():
    # without dpotrs every solve falls back to np.linalg.solve and stays correct,
    # so only this test notices a packaging change that drops it
    lapack = np.__config__.CONFIG["Build Dependencies"]["lapack"]
    if "scipy-openblas" not in str(lapack.get("name")) or "USE64BITINT" not in str(
        lapack.get("openblas configuration")
    ):
        pytest.skip("numpy is not built on the ILP64 scipy-openblas")
    assert fem._dpotrs() is not None
