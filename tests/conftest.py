import numpy as np
import pytest

import robininv as ri
from robininv import cli, fem


@pytest.fixture(scope="session")
def sigma():
    return ri.Conductivity(2.0, 1.0)


@pytest.fixture(scope="session")
def mesh_coarse():
    return ri.generate_disk_mesh(2, 2, 32)


@pytest.fixture(scope="session")
def mesh_mid():
    return ri.generate_disk_mesh(4, 4, 64)


@pytest.fixture(scope="session")
def system_coarse(mesh_coarse, sigma):
    gamma = np.full(mesh_coarse.n_interface_nodes, 2.0)
    return ri.assemble_system(mesh_coarse, sigma, gamma)


@pytest.fixture(scope="session")
def system_mid(mesh_mid, sigma):
    gamma = np.full(mesh_mid.n_interface_nodes, 2.0)
    return ri.assemble_system(mesh_mid, sigma, gamma)


@pytest.fixture
def no_nodal_field(monkeypatch):
    """Make fem.nodal_field raise wherever robininv looks it up: the code under
    test must work on the ring values that the solves return."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("nodal_field was called")

    for module in (ri, fem, cli):
        monkeypatch.setattr(module, "nodal_field", refuse)
