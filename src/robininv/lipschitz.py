"""Computable Lipschitz stability constant for arcwise-constant Robin coefficients.

For bounds 0 < a < b and a partition of the interface into M arcs, the
special coefficients gamma^(km) take the value (k+5)a/4 on arc m and a/2
elsewhere, k = 1..K with K = floor(4(b/a - 1)) + 1. CGNE produces currents
g^(km) whose solutions satisfy the localization condition
(1/2) int_{arc m} u^2 - (2b/a - 1) int_elsewhere u^2 >= 1, and
G = max ||g^(km)||^2 yields the stability constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .fem import ArcwiseGamma, Conductivity, SparseSystem, assemble_system
from .locpot import (
    CgneResult,
    arc_edge_mask,
    arc_integral_sq,
    cgne_solve,
    indicator_nodal,
)
from .mesh import Mesh, PartitionSpec
from .ndmap import nd_form_matrix, operator_norm_diff


@dataclass
class GkmEntry:
    k: int  # 1-based
    m: int  # 1-based
    g: np.ndarray
    g_norm_sq: float
    iterations: int
    achieved: bool
    functional_value: float


@dataclass
class LipschitzReport:
    a: float
    b: float
    K: int
    partition: PartitionSpec
    entries: list = field(default_factory=list)
    complete: bool = False
    G: float | None = None

    @property
    def constant_proof(self) -> float | None:
        """G itself: the proof yields ||g1 - g2||_inf <= G ||dLambda||_*."""
        return self.G

    @property
    def constant_stated(self) -> float | None:
        """1/G as printed in the quantitative stability statement."""
        return None if self.G is None else 1.0 / self.G


@dataclass
class StabilitySample:
    gamma1: np.ndarray  # per-arc values
    gamma2: np.ndarray
    diff_inf: float
    nd_diff_norm: float
    ratio: float


def compute_K(a: float, b: float) -> int:
    """K = floor(4(b/a - 1)) + 1; guarantees b < (K+4) a / 4."""
    if a <= 0 or b <= a:
        raise ParameterError("bounds must satisfy 0 < a < b")
    K = math.floor(4.0 * (b / a - 1.0)) + 1
    assert b < (K + 4) * a / 4.0 + 1e-12 * a
    return K


def gamma_km_arcwise(k: int, m: int, a: float, partition: PartitionSpec) -> ArcwiseGamma:
    """Arcwise-exact representation of gamma^(km) (1-based k and m)."""
    if not 1 <= m <= partition.n_arcs:
        raise ParameterError(f"arc index m={m} out of range")
    if k < 1:
        raise ParameterError("k must be >= 1")
    values = np.full(partition.n_arcs, a / 2.0)
    values[m - 1] = (k + 5) * a / 4.0
    return ArcwiseGamma(partition, values)


def build_gamma_km(k: int, m: int, a: float, partition: PartitionSpec) -> np.ndarray:
    """Nodal values of gamma^(km); arc-boundary nodes take the lower-index arc."""
    return gamma_km_arcwise(k, m, a, partition).values[partition.node_arc]


def gkm_condition(
    system: SparseSystem, partition: PartitionSpec, m: int, b_over_a: float, u_iface
) -> float:
    """(1/2) int_{arc m} u^2 - (2 b/a - 1) int_{Gamma \\ arc m} u^2 (1-based m)."""
    mask = arc_edge_mask(partition, [m - 1])
    on = arc_integral_sq(system, u_iface, mask)
    off = arc_integral_sq(system, u_iface, ~mask)
    return 0.5 * on - (2.0 * b_over_a - 1.0) * off


def compute_gkm(
    mesh: Mesh,
    sigma: Conductivity,
    k: int,
    m: int,
    a: float,
    b: float,
    partition: PartitionSpec,
    max_iter: int = 500,
) -> CgneResult:
    """CGNE run for A* g = 4 chi_{arc m} under gamma^(km), stopped on the
    localization condition reaching 1."""
    if b <= a or a <= 0:
        raise ParameterError("bounds must satisfy 0 < a < b")
    if not 1 <= k <= compute_K(a, b):
        raise ParameterError(f"k={k} out of range 1..{compute_K(a, b)}")
    system = assemble_system(mesh, sigma, gamma_km_arcwise(k, m, a, partition))
    target = 4.0 * indicator_nodal(partition, [m - 1])

    last = {"value": 0.0}

    def stop(_it, _res, u_trace, _g):
        val = gkm_condition(system, partition, m, b / a, u_trace)
        last["value"] = val
        return val >= 1.0

    result = cgne_solve(system, target, stop, max_iter)
    result.functional_value = last["value"]
    return result


def lipschitz_constant(
    mesh: Mesh,
    sigma: Conductivity,
    a: float,
    b: float,
    partition: PartitionSpec,
    max_iter: int = 500,
) -> LipschitzReport:
    """Run all K*M localized-potential computations and take G = max ||g||^2."""
    K = compute_K(a, b)
    report = LipschitzReport(a=a, b=b, K=K, partition=partition)
    for k in range(1, K + 1):
        for m in range(1, partition.n_arcs + 1):
            res = compute_gkm(mesh, sigma, k, m, a, b, partition, max_iter)
            report.entries.append(
                GkmEntry(
                    k=k,
                    m=m,
                    g=res.g,
                    g_norm_sq=float(res.g @ (mesh.boundary_mass @ res.g)),
                    iterations=res.iterations,
                    achieved=res.achieved,
                    functional_value=res.functional_value,
                )
            )
    achieved = [e for e in report.entries if e.achieved]
    report.complete = len(achieved) == len(report.entries)
    if achieved:
        report.G = max(e.g_norm_sq for e in achieved)
    return report


def sample_pair(rng: np.random.Generator, n_arcs: int, a: float, b: float):
    v1 = rng.uniform(a, b, size=n_arcs)
    v2 = rng.uniform(a, b, size=n_arcs)
    return v1, v2


def verify_stability(
    report: LipschitzReport,
    mesh: Mesh,
    sigma: Conductivity,
    n_samples: int,
    seed: int,
    n_modes: int = 16,
) -> list:
    """Empirical stability sweep over random arcwise coefficient pairs.

    For each pair records ||gamma1 - gamma2||_inf, the truncated ND-difference
    norm, and their ratio, to compare against the proof constant G and the
    stated constant 1/G. Refuses incomplete reports.
    """
    if not report.complete:
        raise ParameterError("stability verification requires a complete report")
    rng = np.random.default_rng(seed)
    part = report.partition
    samples = []
    for _ in range(n_samples):
        v1, v2 = sample_pair(rng, part.n_arcs, report.a, report.b)
        diff_inf = float(np.abs(v1 - v2).max())
        if diff_inf == 0.0:
            continue
        F1 = nd_form_matrix(assemble_system(mesh, sigma, ArcwiseGamma(part, v1)), n_modes)
        F2 = nd_form_matrix(assemble_system(mesh, sigma, ArcwiseGamma(part, v2)), n_modes)
        nd_norm = operator_norm_diff(F1, F2)
        ratio = diff_inf / nd_norm if nd_norm > 0 else np.inf
        samples.append(
            StabilitySample(
                gamma1=v1, gamma2=v2, diff_inf=diff_inf, nd_diff_norm=nd_norm, ratio=ratio
            )
        )
    return samples
