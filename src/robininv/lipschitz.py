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
from .fem import ArcwiseGamma, Conductivity, SparseSystem, assemble_stacks, assemble_system
from .locpot import (
    CgneResult,
    arc_edge_mask,
    cgne_lockstep,
    edge_integrals_sq,
    indicator_nodal,
)
from .mesh import Mesh, PartitionSpec
from .ndmap import NdForm, nd_form_matrix, operator_norm_diff


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
    return _localization(system, arc_edge_mask(partition, [m - 1]), b_over_a, u_iface)


def _localization(system: SparseSystem, mask: np.ndarray, b_over_a: float, u_iface) -> float:
    """:func:`gkm_condition` for the edges of arc m given as a mask."""
    per_edge = edge_integrals_sq(system, u_iface)
    on, off = float(per_edge[mask].sum()), float(per_edge[~mask].sum())
    return 0.5 * on - (2.0 * b_over_a - 1.0) * off


def _gkm_runs(system: SparseSystem, ms, a: float, b: float, partition: PartitionSpec, max_iter):
    """Lockstep CGNE runs for A* g = 4 chi_{arc m} on a stack of gamma^(km) systems,
    one m per member, each stopped on its localization condition reaching 1."""
    targets = 4.0 * np.stack([indicator_nodal(partition, [m - 1]) for m in ms])
    last = [0.0] * len(ms)

    def stop_for(i, m):
        mask = arc_edge_mask(partition, [m - 1])

        def stop(_it, _res, u_trace, _g):
            last[i] = _localization(system, mask, b / a, u_trace)
            return last[i] >= 1.0

        return stop

    stops = [stop_for(i, m) for i, m in enumerate(ms)]
    results = cgne_lockstep(system, targets, stops, max_iter)
    for result, value in zip(results, last):
        result.functional_value = value
    return results


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
    localization condition reaching 1: the runs of :func:`lipschitz_constant`
    for one (k, m), as a stack of one."""
    if b <= a or a <= 0:
        raise ParameterError("bounds must satisfy 0 < a < b")
    if not 1 <= k <= compute_K(a, b):
        raise ParameterError(f"k={k} out of range 1..{compute_K(a, b)}")
    gamma = gamma_km_arcwise(k, m, a, partition)
    system = assemble_system(mesh, sigma, ArcwiseGamma(partition, gamma.values[None]))
    return _gkm_runs(system, [m], a, b, partition, max_iter)[0]


def lipschitz_constant(
    mesh: Mesh,
    sigma: Conductivity,
    a: float,
    b: float,
    partition: PartitionSpec,
    max_iter: int = 500,
) -> LipschitzReport:
    """Run all K*M localized-potential computations and take G = max ||g||^2.

    The gamma^(km) are assembled as bounded stacks and each stack's CGNE
    runs go in lockstep.
    """
    K = compute_K(a, b)
    report = LipschitzReport(a=a, b=b, K=K, partition=partition)
    km = [(k, m) for k in range(1, K + 1) for m in range(1, partition.n_arcs + 1)]
    gammas = ArcwiseGamma(
        partition, np.stack([gamma_km_arcwise(k, m, a, partition).values for k, m in km])
    )
    for span, system in assemble_stacks(mesh, sigma, gammas):
        ms = [m for _, m in km[span]]
        for (k, m), res in zip(km[span], _gkm_runs(system, ms, a, b, partition, max_iter)):
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
    # every pair at once, in the order of n_samples sample_pair calls
    pairs = rng.uniform(report.a, report.b, size=(n_samples, 2, part.n_arcs))
    diff_inf = np.abs(pairs[:, 0] - pairs[:, 1]).max(axis=1)
    pairs, diff_inf = pairs[diff_inf != 0.0], diff_inf[diff_inf != 0.0]
    if len(pairs) == 0:
        return []
    forms = np.empty((2 * len(pairs), 2 * n_modes + 1, 2 * n_modes + 1))
    gammas = ArcwiseGamma(part, pairs.reshape(-1, part.n_arcs))
    for span, system in assemble_stacks(mesh, sigma, gammas):
        form = nd_form_matrix(system, n_modes)
        basis, forms[span] = form.basis, form.matrix
    nd_norms = operator_norm_diff(
        NdForm(n_modes, basis, forms[0::2]), NdForm(n_modes, basis, forms[1::2])
    )
    samples = []
    for (v1, v2), diff, nd_norm in zip(pairs, diff_inf.tolist(), nd_norms.tolist()):
        ratio = diff / nd_norm if nd_norm > 0 else np.inf
        samples.append(
            StabilitySample(gamma1=v1, gamma2=v2, diff_inf=diff, nd_diff_norm=nd_norm, ratio=ratio)
        )
    return samples
