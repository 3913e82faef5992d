"""Workload definitions: the CLI driver calls of one round and their configs.

Every config key that a checker relies on is written out explicitly, so the
checkers never depend on the program's defaults.
"""

from __future__ import annotations

from dataclasses import dataclass

# Ladder rungs (n_r_inner, n_r_outer, n_theta).
MID = (4, 4, 64)  # the CLI default mesh
FINE = (16, 16, 256)
COARSE = (2, 2, 32)

SIGMA = {"sigma1": 2.0, "sigma2": 1.0}

# Largest accepted relative L2(Gamma) error of a noise-free reconstruction.
# After 30 BFGS iterations on (4,4,64) the three noise-free runs reach 0.0041,
# 0.0044 and 0.0023 (0.024, 0.0054 and 0.0039 after 24 on (2,2,32), the
# self-test size); scaled by 1.1 they are 0.079-0.10 off.
RECON_ERROR_BOUND = 0.04


@dataclass(frozen=True)
class Call:
    """One CLI driver call: ``robininv <sub> --config <tag>.txt``."""

    tag: str
    sub: str
    config: dict

    def config_text(self) -> str:
        return "".join(f"{key} = {value}\n" for key, value in self.config.items())


def _mesh(rung) -> dict:
    return {"n_r_inner": rung[0], "n_r_outer": rung[1], "n_theta": rung[2]}


def recon(rung=MID, max_iter=30) -> list:
    """example1 (5 noise levels x 2 initial guesses) and example2 (2 noise levels).

    (4,4,64) rather than (2,2,32): under CPU contention from other tenants of a
    shared host, the small mesh's Python-bound solves slow down about twice as
    much, relative to their time, as the larger ones. 30 iterations bring the
    noise-free runs close enough to tell gamma x 1.1 apart; the noisy runs
    then halve their line-search steps 12-15 times per round, whatever the
    seed, so a round's work does not depend on the seed.
    """
    cfg = {**_mesh(rung), **SIGMA, "max_iter": max_iter, "c0": 0.001, "c1": 10.0,
           "lambda": 0.0, "gtol": 0.0}
    return [Call("example1", "example1", cfg), Call("example2", "example2", cfg)]


def stability(rung=MID, n_modes=4) -> list:
    """Lipschitz constant (K x M CGNE runs) plus verify_stability over 50 pairs,
    100 ND forms of 2 n_modes + 1 solves each."""
    cfg = {**_mesh(rung), **SIGMA, "partition_m": 4, "a": 1.0, "b": 2.0,
           "n_modes": n_modes, "cgne_max_iter": 500}
    return [Call("lipschitz", "lipschitz", cfg)]


def fine(rung=FINE, n_modes=16) -> list:
    """One constant coefficient on a large mesh through four drivers."""
    base = {**_mesh(rung), **SIGMA, "gamma_true": "constant:2"}
    calls = [
        Call("forward", "forward", {**base, "flux": "cos:1"}),
        Call("ndmap", "ndmap", {**base, "n_modes": n_modes}),
        Call("monotonicity", "monotonicity", dict(base)),
    ]
    for arc in range(4):
        calls.append(Call(f"locpot{arc}", "locpot", {
            **base, "partition_m": 4, "arcs": arc, "alpha": 2.0, "beta": 0.5,
            "cgne_max_iter": 500}))
    return calls


WORKLOADS = {"recon": recon, "stability": stability, "fine": fine}

# The self-test runs every workload at these sizes.
SMALL = {
    "recon": lambda: recon(COARSE, max_iter=24),
    "stability": lambda: stability(COARSE),
    # on (8,8,128) a 1 % error in a trace or an ND entry is still several
    # times the discretisation tolerance of the analytic checks
    "fine": lambda: fine((8, 8, 128), n_modes=8),
}
