import dataclasses
import math
import pathlib
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robininv as ri
from robininv import cli, fem


COARSE = """
# coarse test geometry
n_r_inner = 2
n_r_outer = 2
n_theta = 32
seed = 5
max_iter = 60
"""


def write_config(tmp_path, text=COARSE, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def test_parse_config_defaults_and_overrides(tmp_path):
    cfg = cli.parse_config(write_config(tmp_path))
    assert cfg.n_theta == 32
    assert cfg.seed == 5
    assert cfg.sigma1 == 2.0  # untouched default


def test_every_config_key_has_a_number_or_text_kind():
    keys = [f.name for f in dataclasses.fields(cli.ExperimentConfig)]
    assert list(cli.CONFIG_KINDS) == keys
    for key, kind in cli.CONFIG_KINDS.items():
        assert kind in (int, float, str)
        assert type(getattr(cli.ExperimentConfig(), key)) is kind


def test_parse_config_lambda_alias(tmp_path):
    cfg = cli.parse_config(write_config(tmp_path, "lambda = 0.25\n"))
    assert cfg.reg_lambda == 0.25


def test_parse_config_unknown_key_named(tmp_path):
    path = write_config(tmp_path, "bogus_key = 3\n")
    with pytest.raises(ri.ParameterError, match="bogus_key"):
        cli.parse_config(path)


def test_parse_config_malformed_line(tmp_path):
    path = write_config(tmp_path, "just words\n")
    with pytest.raises(ri.ParameterError):
        cli.parse_config(path)


def test_config_hash_stable(tmp_path):
    c1 = cli.parse_config(write_config(tmp_path))
    c2 = cli.parse_config(write_config(tmp_path, name="cfg2.txt"))
    assert cli.config_hash(c1) == cli.config_hash(c2)
    c2.seed = 6
    assert cli.config_hash(c1) != cli.config_hash(c2)


def test_selectors_reject_unknown():
    theta = np.linspace(0, 2 * np.pi, 8)
    with pytest.raises(ri.ParameterError):
        cli.gamma_selector("nope", theta)
    with pytest.raises(ri.ParameterError):
        cli.flux_selector("nope", theta)


def test_mesh_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["mesh", "--config", cfg, "--out", str(out)]) == 0
    mesh = ri.load_mesh(out / "mesh.txt")
    assert mesh.n_nodes == 1 + 4 * 32
    assert "nodes" in (out / "summary.txt").read_text()


def test_forward_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["forward", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "field.csv")
    assert header == ["node", "x", "y", "value"]
    assert len(rows) == 1 + 2 * 32 + 2 * 32  # node count of the (2,2,32) mesh


def test_ndmap_command_factors_its_gamma_once(tmp_path, monkeypatch):
    factored = []
    real = fem.cholesky

    def spy(K):
        factored.append(K.shape)
        return real(K)

    monkeypatch.setattr(fem, "cholesky", spy)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, COARSE + "n_modes = 4\n")
    assert cli.main(["ndmap", "--config", cfg, "--out", str(out)]) == 0
    assert factored == [(1, 32 + 9, 32 + 9)]  # the bordered matrix of its one gamma
    _, rows = read_csv(out / "ndform.csv")
    assert len(rows) == 9 * 9


def test_monotonicity_command_ordering(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["monotonicity", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "monotonicity.csv")
    assert header == ["i", "quad_gamma1", "quad_gamma2"]
    assert len(rows) == 10
    for row in rows:
        assert float(row[1]) >= float(row[2])
    assert (out / "monotonicity.gp").exists()


def test_locpot_command(tmp_path):
    cfg = write_config(tmp_path, COARSE + "gamma_true = constant:1\n")
    out = tmp_path / "out"
    assert cli.main(["locpot", "--config", cfg, "--out", str(out)]) == 0
    _, rows = read_csv(out / "locpot_residuals.csv")
    res = [float(r[1]) for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(res, res[1:]))
    assert "(stopped by stop test)" in (out / "summary.txt").read_text()


def test_lipschitz_command(tmp_path):
    cfg = write_config(tmp_path, COARSE + "n_modes = 4\n")
    out = tmp_path / "out"
    assert cli.main(["lipschitz", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "lipschitz_report.csv")
    assert header == ["k", "m", "g_norm_sq", "achieved", "condition_value"]
    assert len(rows) == 20 and all(float(r[4]) >= 1.0 for r in rows)
    assert (out / "lipschitz_verification.csv").exists()
    # no current of 1, cos and sin localizes on a quarter arc against the
    # weight 2b/a - 1 = 9: every entry is missed, so the report is incomplete
    mid = "n_r_inner = 4\nn_r_outer = 4\nn_theta = 64\nb = 5\nn_modes = 1\n"
    cfg = write_config(tmp_path, mid, name="missed.txt")
    out = tmp_path / "missed"
    assert cli.main(["lipschitz", "--config", cfg, "--out", str(out)]) == 3
    _, rows = read_csv(out / "lipschitz_report.csv")
    assert len(rows) == 17 * 4 and all(r[3] == "0" and float(r[4]) == 0.0 for r in rows)
    assert "complete=False" in (out / "summary.txt").read_text()
    assert not (out / "lipschitz_verification.csv").exists()


def test_lipschitz_nan_in_an_nd_form_exits_2(tmp_path, monkeypatch):
    # a NaN in the matrices of the arcwise ND forms only: the report is
    # written, then verify_stability stops with a numerical error and no CSV
    real = fem._adapted_terms

    def poisoned(*args):
        T, C, R_Z = real(*args)
        T = T.copy()
        T[0] = np.nan
        return T, C, R_Z

    monkeypatch.setattr(fem, "_adapted_terms", poisoned)
    cfg = write_config(tmp_path, COARSE + "n_modes = 4\n")
    out = tmp_path / "out"
    assert cli.main(["lipschitz", "--config", cfg, "--out", str(out)]) == 2
    assert (out / "lipschitz_report.csv").exists()
    assert not (out / "lipschitz_verification.csv").exists()
    assert not (out / "summary.txt").exists()


def test_reconstruct_command(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out / "history_run.csv")
    assert header == ["iteration", "J", "grad_inf_norm", "step"]
    J = [float(r[1]) for r in rows]
    assert all(b <= a + 1e-15 for a, b in zip(J, J[1:]))
    assert "rel_L2_error" in (out / "summary.txt").read_text()


def test_non_finite_cost_exits_2(tmp_path, capsys):
    # noise of 1e200 makes data whose squares overflow: the cost is not finite,
    # which is a numerical failure, not a run that ends with J = nan
    cfg = write_config(tmp_path, "n_r_inner = 2\nn_r_outer = 2\nn_theta = 16\neps = 1e200\n")
    out = tmp_path / "out"
    assert cli.main(["reconstruct", "--config", cfg, "--out", str(out)]) == 2
    assert "the cost is not finite" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_bad_config_path_exit_code(tmp_path):
    assert cli.main(["mesh", "--config", str(tmp_path / "missing.txt")]) == 1


def test_parameter_error_exit_code(tmp_path):
    cfg = write_config(tmp_path, "n_theta = 7\n")
    out = tmp_path / "out"
    assert cli.main(["mesh", "--config", cfg, "--out", str(out)]) == 1


def test_seed_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path)
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    cli.main(["forward", "--config", cfg, "--out", str(out1)])
    cli.main(["forward", "--config", cfg, "--out", str(out2), "--seed", "99"])
    first1 = (out1 / "field.csv").read_text().splitlines()[0]
    first2 = (out2 / "field.csv").read_text().splitlines()[0]
    assert "seed=5" in first1
    assert "seed=99" in first2


def test_example1_determinism(tmp_path):
    cfg = write_config(tmp_path)
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    assert cli.main(["example1", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["example1", "--config", cfg, "--out", str(out2)]) == 0
    csvs = sorted(p.name for p in out1.glob("*.csv"))
    assert csvs  # one history and coefficient file per (eps, init)
    for name in csvs:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_example_members_match_single_reconstructions(tmp_path):
    # example2 runs its (eps, init) members in lockstep; each must write what
    # a reconstruct call of that member alone writes
    cfg = write_config(tmp_path)
    out = tmp_path / "ex2"
    assert cli.main(["example2", "--config", cfg, "--out", str(out)]) == 0
    for eps in ("0", "0.05"):
        member = COARSE + f"gamma_true = example2\nfluxes = example2\neps = {eps}\n"
        single = tmp_path / f"run{eps}"
        run_cfg = write_config(tmp_path, member, name=f"run{eps}.txt")
        assert cli.main(["reconstruct", "--config", run_cfg, "--out", str(single)]) == 0
        for kind in ("history", "coefficient"):
            ours = (out / f"{kind}_eps{eps}_init_constant1.csv").read_text().splitlines()
            alone = (single / f"{kind}_run.csv").read_text().splitlines()
            assert ours[1:] == alone[1:]  # below the config comment line


def test_usage_error_exit_code(tmp_path):
    assert cli.main(["bogus", "--config", str(tmp_path / "x")]) == cli.EXIT_PARAMETER
    assert cli.main(["mesh"]) == cli.EXIT_PARAMETER  # --config missing


@pytest.mark.parametrize("line", ["n_theta = abc", "seed = 1.5", "sigma1 = two"])
def test_non_numeric_config_values_exit_1(tmp_path, line):
    cfg = write_config(tmp_path, COARSE + line + "\n")
    with pytest.raises(ri.ParameterError, match=line.split()[0]):
        cli.parse_config(cfg)
    assert cli.main(["mesh", "--config", cfg, "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("line", ["gamma_true = constant:x", "flux = cos:x"])
def test_non_numeric_selectors_exit_1(tmp_path, line):
    cfg = write_config(tmp_path, COARSE + line + "\n")
    assert cli.main(["forward", "--config", cfg, "--out", str(tmp_path / "out")]) == 1


def test_selectors_reject_non_numeric_and_non_finite():
    theta = np.linspace(0, 2 * np.pi, 8)
    for name in ("constant:x", "constant:nan", "constant:inf"):
        with pytest.raises(ri.ParameterError):
            cli.gamma_selector(name, theta)
        with pytest.raises(ri.ParameterError):
            cli.flux_selector(name, theta)
    for name in ("cos:x", "sin:1.5"):
        with pytest.raises(ri.ParameterError):
            cli.flux_selector(name, theta)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.01"])
def test_bad_eps_rejected(tmp_path, value):
    cfg = write_config(tmp_path, COARSE + f"eps = {value}\n")
    with pytest.raises(ri.ParameterError, match="eps"):
        cli.parse_config(cfg)
    assert cli.main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize(
    "line",
    ["seed = -1", f"seed = {2**64}", "max_iter = -3", "gtol = -1e-6", "reg_lambda = -1.0",
     "c0 = 0", "c1 = 1e-4", "a = -1", "b = 0.5", "n_r_inner = 0", "n_r_outer = 0",
     "n_theta = 31", "n_modes = 0", "partition_m = 0", "partition_m = 33", "alpha = -1",
     "alpha = 0", "beta = 0", "beta = -0.5"],
)
def test_out_of_range_config_values_exit_1(tmp_path, line):
    key = line.split()[0]
    # the line takes the place of the key's line in COARSE: a key is set once
    base = "".join(f"{kept}\n" for kept in COARSE.splitlines() if kept.split(" ")[0] != key)
    cfg = write_config(tmp_path, base + "eps = 0.01\n" + line + "\n")
    with pytest.raises(ri.ParameterError, match=rf"\b{key} (and|must)\b"):
        cli.parse_config(cfg)
    assert cli.main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("eps = 1\neps = 2\n", "eps is set twice, on lines 1 and 2"),
        ("lambda = 1\n\nreg_lambda = 2\n", "reg_lambda is set twice, on lines 1 and 3"),
    ],
)
def test_repeated_key_names_the_key_and_both_lines(tmp_path, text, message):
    cfg = write_config(tmp_path, text)
    with pytest.raises(ri.ParameterError, match=message):
        cli.parse_config(cfg)
    assert cli.main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()


def test_locpot_rejects_a_trivial_target(tmp_path, capsys):
    # with alpha <= 0 the target int_arc u^2 >= alpha holds for the zero current
    cfg = write_config(tmp_path, COARSE + "alpha = -1\n")
    out = tmp_path / "out"
    assert cli.main(["locpot", "--config", cfg, "--out", str(out)]) == 1
    assert "alpha must be > 0" in capsys.readouterr().err
    assert not out.exists()


def test_lipschitz_work_bound(tmp_path, capsys):
    # K * partition_m special coefficients, K = floor(4(b/a - 1)) + 1, are
    # bounded before anything is built: a = 1e-6, b = 1 asks for about 1.6e7
    for text in ("a = 1e-6\nb = 1\n", "a = 1e-300\nb = 1e300\n", "b = 626\npartition_m = 4\n"):
        cfg = write_config(tmp_path, COARSE + text)
        out = tmp_path / "out"
        assert cli.main(["lipschitz", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert all(f"{key} = " in err for key in ("a", "b", "partition_m"))
        assert f"more than {cli.MAX_GAMMA_KM} coefficients" in err
        assert not out.exists()
    # K = 2500 on 4 arcs is the largest count accepted
    cfg = cli.parse_config(write_config(tmp_path, "b = 625.75\npartition_m = 4\n"))
    assert ri.compute_K(cfg.a, cfg.b) * cfg.partition_m == cli.MAX_GAMMA_KM


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_out_of_range_seed_flag_exit_1(tmp_path, capsys, seed):
    cfg = write_config(tmp_path, COARSE + "eps = 0.01\n")
    out = str(tmp_path / "out")
    assert cli.main(["reconstruct", "--config", cfg, "--out", out, "--seed", seed]) == 1
    assert "--seed: seed must be" in capsys.readouterr().err


def test_range_errors_stop_before_any_output(tmp_path, capsys):
    # lipschitz reads n_modes when it builds the basis, and partition_m when
    # it splits the interface: both are checked, by name, before any work
    for line in ("n_modes = 0", "partition_m = 0"):
        cfg = write_config(tmp_path, COARSE + line + "\n")
        out = tmp_path / "out"
        assert cli.main(["lipschitz", "--config", cfg, "--out", str(out)]) == 1
        assert line.split()[0] + " must be" in capsys.readouterr().err
        assert not out.exists()
    # a negative weight would make the cost unbounded below; the alias names the key
    cfg = write_config(tmp_path, COARSE + "lambda = -1.0\n")
    out = tmp_path / "out"
    assert cli.main(["reconstruct", "--config", cfg, "--out", str(out)]) == 1
    assert "reg_lambda must be" in capsys.readouterr().err
    assert not out.exists()


def test_basis_larger_than_the_boundary_stops_before_any_csv(tmp_path, capsys):
    # the default n_modes = 16 needs 33 boundary nodes; n_theta = 32 has 32.
    # Only the drivers that use the ND basis reject it, before any solve
    cfg = write_config(tmp_path, COARSE)
    for sub in ("lipschitz", "ndmap"):
        out = tmp_path / sub
        assert cli.main([sub, "--config", cfg, "--out", str(out)]) == 1
        assert "n_modes must" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))
    cfg = write_config(tmp_path, COARSE.replace("max_iter = 60", "max_iter = 1"))
    assert cli.main(["example1", "--config", cfg, "--out", str(tmp_path / "ex1")]) == 0


def test_range_bounds_accepted(tmp_path):
    cfg = cli.parse_config(write_config(tmp_path, f"seed = {2**64 - 1}\nmax_iter = 0\ngtol = 0\n"))
    assert (cfg.seed, cfg.max_iter, cfg.gtol) == (2**64 - 1, 0, 0.0)
    mesh_keys = "n_r_inner = 1\nn_r_outer = 1\nn_theta = 8\nn_modes = 1\npartition_m = 8\n"
    cfg = cli.parse_config(write_config(tmp_path, mesh_keys, name="mesh.txt"))
    assert (cfg.n_r_inner, cfg.n_r_outer, cfg.n_theta, cfg.n_modes, cfg.partition_m) == (
        1, 1, 8, 1, 8
    )


def test_write_csv_matches_per_value_formatting(tmp_path):
    # the per-value expression write_csv used before it formatted whole rows
    def old_line(row):
        return ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)

    rows = [
        (0, 0.1, np.float64(2.0 / 3.0), -0.0),
        (1, float("nan"), float("inf"), -float("inf")),
        (np.int64(2), 1e-300, 123456789.0, 2**70),
        (3, 5, None, True),  # a column may change its type from row to row
        [4, np.float64(1e22), "text", np.float32(0.1)],
    ]
    cfg = cli.ExperimentConfig()
    path = tmp_path / "rows.csv"
    cli.write_csv(path, ["a", "b", "c", "d"], rows, cfg)
    expected = [f"# config={cli.config_hash(cfg)} seed={cfg.seed}", "a,b,c,d"]
    assert path.read_text() == "\n".join(expected + [old_line(row) for row in rows]) + "\n"


def test_regularization_bound_names_both_keys(tmp_path, capsys):
    # reg_lambda * c1 bounds the regularization gradient; past 1e100 the
    # line search's slope, about its square, overflows
    for text, code in (("reg_lambda = 1e300\n", 1), ("reg_lambda = 1e98\nc1 = 2000\n", 1),
                       ("reg_lambda = 1e98\nc1 = 10\nmax_iter = 1\n", 0)):
        cfg = write_config(tmp_path, "n_r_inner = 1\nn_r_outer = 1\nn_theta = 8\n" + text)
        assert cli.main(["reconstruct", "--config", cfg, "--out", str(tmp_path / "out")]) == code
    assert "reg_lambda * c1 must be <= 1e+100" in capsys.readouterr().err


@pytest.mark.parametrize("value, error", [("1e300", 1.0), ("1e-300", 1e300)])
def test_relative_error_of_extreme_true_coefficients(tmp_path, value, error):
    # the relative L2 error is scaled by the largest value, so a true gamma of
    # 1e+-300 neither overflows nor underflows when squared
    cfg = write_config(tmp_path, f"n_r_inner = 1\nn_r_outer = 1\nn_theta = 8\nmax_iter = 2\n"
                                 f"gamma_true = constant:{value}\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
    rel = float((out / "summary.txt").read_text().split("rel_L2_error=")[1])
    assert error / 2 < rel < 2 * error


def test_lipschitz_pairs_without_an_nd_difference_exit_2(tmp_path, capsys):
    # sigma2 = 1e-300 makes the gamma-free part of every ND form swamp the
    # rest: the forms of a pair agree to rounding and no ratio is finite
    cfg = write_config(tmp_path, "n_r_inner = 1\nn_r_outer = 1\nn_theta = 8\nn_modes = 2\n"
                                 "partition_m = 2\nb = 1.5\nsigma2 = 1e-300\n")
    out = tmp_path / "out"
    assert cli.main(["lipschitz", "--config", cfg, "--out", str(out)]) == 2
    assert "agree to rounding" in capsys.readouterr().err
    assert not (out / "lipschitz_verification.csv").exists()


def test_data_without_gamma_exit_2(tmp_path, capsys):
    # sigma2 = 1e-300 makes S_BB^-1 about 9e299: rounding erases the gamma part
    # W x_G of every boundary value, of the data and of the start alike, so the
    # cost is exactly 0 without telling any two gammas apart
    text = "n_r_inner = 2\nn_r_outer = 2\nn_theta = 16\nsigma2 = 1e-300\n"
    cfg, out = write_config(tmp_path, text), tmp_path / "out"
    assert cli.main(["reconstruct", "--config", cfg, "--out", str(out)]) == 2
    assert "rounding erases W x_G, the gamma part of the boundary values" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))
    # a start at the true gamma also has J = 0, but its data keep W x_G: a success
    cfg = write_config(tmp_path, text.replace("sigma2 = 1e-300", "gamma_true = constant:1"))
    assert cli.main(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
    assert "status=converged iterations=0 J=0 " in (out / "summary.txt").read_text()


# the property test's small base config: every driver finishes in milliseconds
_TINY = {"n_r_inner": "1", "n_r_outer": "1", "n_theta": "8", "max_iter": "3", "n_modes": "2",
         "partition_m": "2", "cgne_max_iter": "10", "b": "1.5"}
_NUMBERS = ["0", "-1", "-2.5", "1e300", "-1e300", "1e-300", "-1e-300", "nan", "inf", "-inf",
            "5e-324", "2.2250738585072014e-308", "1e308", "-1e308", "1.7976931348623157e308"]
_MALFORMED = ["", "abc", "1 2", "0x10", "1e", "--1", "x" * 500, "1" * 300 + "x"]
_SELECTORS = [f"{kind}:{v}" for kind in ("constant", "cos", "sin") for v in _NUMBERS + ["", "x"]]


def _csv_floats(path):
    for line in path.read_text().splitlines()[2:]:
        for token in line.split(","):
            try:
                yield float(token)
            except ValueError:
                continue


def _drive(subcommand, config, finite_on=(0,)):
    # cli.main on a config of key -> value text in a fresh directory: it warns
    # nothing, and with an exit code in finite_on writes only finite CSV floats
    with tempfile.TemporaryDirectory() as tmp:
        cfg = pathlib.Path(tmp) / "cfg.txt"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
        out = pathlib.Path(tmp) / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([subcommand, "--config", str(cfg), "--out", str(out)])
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if code in finite_on:
            for csv in out.glob("*.csv"):
                assert all(math.isfinite(v) for v in _csv_floats(csv)), csv.name
    return code


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(sorted(cli.COMMANDS)),
    st.dictionaries(
        st.sampled_from(sorted(cli.CONFIG_KINDS)),
        st.sampled_from(_NUMBERS + _MALFORMED + _SELECTORS),
        min_size=1,
        max_size=3,
    ),
)
def test_any_config_exits_with_a_documented_code(subcommand, overrides):
    # edge values for any keys of a small config: the driver returns 0..3,
    # raises nothing, warns nothing, and a success writes only finite floats
    assert _drive(subcommand, {**_TINY, **overrides}) in (0, 1, 2, 3)


# the config keys whose values are numbers: the float keys and the constant: selectors
_EXTREME_KEYS = sorted(k for k, kind in cli.CONFIG_KINDS.items() if kind is float) + [
    "gamma_true", "gamma_init", "flux", "fluxes"]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(cli.COMMANDS)), st.sampled_from(_EXTREME_KEYS),
       st.sampled_from(_NUMBERS))
def test_one_extreme_number_exits_with_a_documented_code(subcommand, key, value):
    # one number of _TINY set to an edge value: most such configs parse, so
    # the drivers meet the values, unlike the any-config property's mostly
    # malformed ones
    if cli.CONFIG_KINDS[key] is str:
        value = f"constant:{value}"
    assert _drive(subcommand, {**_TINY, key: value}) in (0, 1, 2, 3)


@pytest.mark.parametrize(
    "subcommand, overrides",
    [
        ("ndmap", {"sigma2": "1e-308"}),  # else every entry of ndform.csv is NaN
        ("ndmap", {"gamma_true": "constant:1e308"}),  # else a success after overflows
        ("forward", {"sigma1": "5e-324"}),  # a singular system
        ("lipschitz", {"sigma2": "2.2250738585072014e-308"}),  # eigvalsh does not converge
        # these overflow before a finiteness check refuses the result
        ("forward", {"sigma1": "1e308"}),
        ("reconstruct", {"eps": "1e308"}),
        ("forward", {"sigma2": "1e-300", "flux": "constant:1e300"}),
        ("locpot", {"sigma2": "1e-300", "gamma_true": "constant:1e-300"}),
    ],
)
def test_overflow_nan_and_failed_linear_algebra_exit_2(subcommand, overrides):
    # cli.main runs every driver with overflow and invalid operations raising
    # and maps them, like a failed solve or eigenproblem, to exit 2: no NaN
    # success, no uncaught LinAlgError and no RuntimeWarning first
    assert _drive(subcommand, {**_TINY, **overrides}) == 2


@st.composite
def _valid_configs(draw, subcommand):
    """A config whose every key takes a value of its valid range, moderate
    enough that no result is lost to rounding, on a small mesh."""
    n_theta = draw(st.sampled_from([8, 10, 12, 16]))
    m = draw(st.integers(2 if subcommand == "locpot" else 1, n_theta))  # locpot: arcs < all
    a = draw(st.floats(0.1, 2.0))
    moderate = st.floats(0.1, 10.0).map(repr)
    coefficient = st.sampled_from(["example1", "example2", "expinit"]) | moderate.map(
        "constant:{}".format
    )
    current = st.builds("{}:{}".format, st.sampled_from(["cos", "sin"]), st.integers(0, 20)) | (
        st.floats(-10.0, 10.0).map("constant:{!r}".format)
    )
    arcs = st.lists(st.integers(0, m - 1), min_size=1, max_size=max(1, m - 1), unique=True)
    config = {
        "n_r_inner": draw(st.integers(1, 2)),
        "n_r_outer": draw(st.integers(1, 2)),
        "n_theta": n_theta,
        "sigma1": draw(moderate),
        "sigma2": draw(moderate),
        "gamma_true": draw(coefficient),
        # inside every [c0, c1] drawn below
        "gamma_init": draw(st.sampled_from(["expinit", "constant:1"])
                           | st.floats(0.5, 2.0).map("constant:{!r}".format)),
        "fluxes": draw(st.sampled_from(["example1", "example2"]) | current),
        "flux": draw(current),
        "eps": repr(draw(st.floats(0.0, 0.2))),
        "seed": draw(st.integers(0, 2**64 - 1)),
        "reg_lambda": repr(draw(st.floats(0.0, 1.0))),
        "gtol": repr(draw(st.floats(0.0, 1e-3))),
        "max_iter": draw(st.integers(0, 4)),
        "c0": repr(draw(st.floats(1e-3, 0.5))),
        "c1": repr(draw(st.floats(2.0, 20.0))),
        "partition_m": m,
        "a": repr(a),
        "b": repr(a * draw(st.floats(1.01, 3.0))),  # K * partition_m <= 9 * 16
        "n_modes": draw(st.integers(1, (n_theta - 1) // 2)),
        "arcs": ",".join(map(str, draw(arcs))),
        "alpha": draw(moderate),
        "beta": draw(moderate),
        "cgne_max_iter": draw(st.integers(1, 30)),
    }
    return config


@pytest.mark.parametrize("subcommand", sorted(cli.COMMANDS))
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_valid_configs_succeed_or_miss_their_target(subcommand, data):
    # values inside every key's range, 12 configs per driver: the driver
    # succeeds (0) or reports a target it did not reach (3), warns nothing and
    # writes only finite floats
    config = data.draw(_valid_configs(subcommand))
    assert _drive(subcommand, config, finite_on=(0, 3)) in (0, 3)
