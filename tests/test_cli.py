import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from subquad_bsde.cli import (_BOUND_IDS, ExperimentConfig, build_parser, main, parse_config,
                              run_experiment)
from subquad_bsde.conditions import CONDITION_IDS
from subquad_bsde.errors import ConfigurationError
from subquad_bsde.generators import GENERATOR_IDS

MINIMAL = """
[experiment]
generator = example1
steps = 32
paths = 1000
alpha = 1.5
seed = 7
"""

SMALL_RUN = """
[experiment]
generator = example1
terminal = clamp-bt
terminal_bound = 3.0
alpha = 1.5
beta = 0.5
gamma = 0.25
steps = 8
paths = 1500
seed = 7
basis = piecewise-constant-bins
basis_size = 12
basis_lo = -4.0
basis_hi = 4.0
ladder = 1, 2
cloud_samples = 2000
checks = EX1, UNprime-i, pointwise, comparison
"""


def test_parse_minimal_config():
    cfg = parse_config(MINIMAL)
    assert cfg.generator == "example1"
    assert cfg.steps == 32 and cfg.paths == 1000 and cfg.seed == 7


def test_parse_rejects_alpha_out_of_range():
    with pytest.raises(ConfigurationError) as err:
        parse_config(MINIMAL.replace("alpha = 1.5", "alpha = 2.0"))
    assert any("alpha must lie in (1,2)" in m for m in err.value.messages)


def test_parse_unknown_generator_lists_catalog():
    with pytest.raises(ConfigurationError) as err:
        parse_config(MINIMAL.replace("example1", "example9"))
    assert any("example9" in m and "catalog" in m for m in err.value.messages)


def test_parse_collects_all_errors():
    bad = (MINIMAL.replace("alpha = 1.5", "alpha = 2.5")
           .replace("example1", "nope")
           .replace("paths = 1000", "paths = -3"))
    bad += "mystery = 1\n"
    with pytest.raises(ConfigurationError) as err:
        parse_config(bad)
    assert len(err.value.messages) >= 4


def test_parse_malformed_text():
    with pytest.raises(ConfigurationError):
        parse_config(MINIMAL + "paths = 1\n")     # duplicate key


def test_readme_example_config_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(block)          # its `key = value ; comment` lines drop the comment
    assert (cfg.generator, cfg.terminal, cfg.beta, cfg.comparison_shift) == (
        "example1", "clamp-bt", "0.5", 1.0)


def test_run_experiment_writes_artifacts(tmp_path):
    cfg = parse_config(SMALL_RUN)
    cfg.out = str(tmp_path / "runA")
    report = run_experiment(cfg)
    assert not report.any_violation
    out = Path(cfg.out)
    assert (out / "report.txt").exists()
    assert (out / "solution.csv").exists()
    with open(out / "solution.csv") as fh:
        header = fh.readline().strip()
    assert header == "time,y_mean,y_q05,y_q95,z_norm_mean"
    text = (out / "report.txt").read_text()
    assert "log_K" in text and "condition EX1: pass" in text


def test_run_reproducible_byte_identical(tmp_path):
    cfg1 = parse_config(SMALL_RUN)
    cfg1.out = str(tmp_path / "r1")
    run_experiment(cfg1)
    cfg2 = parse_config(SMALL_RUN)
    cfg2.out = str(tmp_path / "r2")
    run_experiment(cfg2)
    for name in ("solution.csv", "bound_pointwise-two-sided.csv", "bound_comparison.csv"):
        a = (Path(cfg1.out) / name).read_bytes()
        b = (Path(cfg2.out) / name).read_bytes()
        assert a == b, name


def test_comparison_hypothesis_violation_recorded(tmp_path):
    text = SMALL_RUN + "comparison_shift = -1.0\n"
    cfg = parse_config(text)
    cfg.out = str(tmp_path / "bad")
    report = run_experiment(cfg)
    assert report.any_violation
    assert any("hypothesis violated" in note for note in report.notes)
    assert "note: comparison hypothesis violated" in (Path(cfg.out) / "report.txt").read_text()


def test_broken_terminal_order_writes_the_measured_comparison(tmp_path):
    # xi' = xi - 1 breaks the terminal order wherever the rung's clamp at -2 does not bind,
    # and the CSV and the report line hold the measured per-node gap, allowance and
    # violation fraction
    cfg = parse_config(SMALL_RUN + "comparison_shift = -1.0\n")
    cfg.out = str(tmp_path / "bad")
    report = run_experiment(cfg)
    r = next(r for r in report.bound_results if r.bound_id == "comparison")
    assert r.verdict == "violated" and 0.9 * cfg.paths < r.terminal_failures < cfg.paths
    with open(Path(cfg.out) / "bound_comparison.csv") as fh:
        rows = list(csv.DictReader(fh))
    gaps = [float(row["gap_max"]) for row in rows]
    assert gaps[-1] == pytest.approx(1.0) and min(gaps) > 0.5
    assert float(rows[-1]["violation_fraction"]) > 0.9
    assert all(float(row["eps"]) > 0.0 for row in rows)
    assert {row["verdict"] for row in rows} == {"violated"}
    margin = min(float(row["eps"]) - float(row["gap_max"]) for row in rows)
    assert margin == float(rows[-1]["eps"]) - gaps[-1]     # node N is the measured failure
    text = (Path(cfg.out) / "report.txt").read_text()
    assert (f"bound comparison: violated (min margin {margin!r}, "
            f"violation fraction {r.violation_fraction!r})") in text
    assert 0.0 < r.violation_fraction < 1.0
    assert (f"note: comparison hypothesis violated: terminal ordering xi <= xi' fails on "
            f"{r.terminal_failures} paths (witnesses [(0, ") in text


def test_main_exit_codes(tmp_path):
    cfg_file = tmp_path / "exp.ini"
    cfg_file.write_text(SMALL_RUN + f"out = {tmp_path / 'run'}\n")
    assert main(["run", "--config", str(cfg_file)]) == 0

    bad_file = tmp_path / "bad.ini"
    bad_file.write_text(MINIMAL.replace("alpha = 1.5", "alpha = 9"))
    assert main(["run", "--config", str(bad_file)]) == 2


def test_sign_changing_gamma_fails_when_the_generator_is_built(tmp_path, capsys):
    # int_0^1 (t - 0.3) dt > 0, but gamma < 0 on [0, 0.3): a config error before
    # any path is sampled, not a failure in the constants afterwards
    cfg_file = tmp_path / "exp.ini"
    cfg_file.write_text(SMALL_RUN.replace("example1", "example2").replace("gamma = 0.25", "gamma = t - 0.3")
                        + f"out = {tmp_path / 'run'}\n")
    assert main(["run", "--config", str(cfg_file)]) == 2
    assert "config error: example2's gamma must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("generator, key", [("example1", "gamma"), ("example1", "beta"),
                                            ("convex-power", "gamma")])
def test_sign_changing_coefficient_of_the_built_profile_is_a_config_error(generator, key,
                                                                          tmp_path, capsys):
    cfg_file = tmp_path / "exp.ini"
    cfg_file.write_text(f"[experiment]\ngenerator = {generator}\n{key} = t - 0.3\n"
                        f"out = {tmp_path / 'run'}\n")
    assert main(["run", "--config", str(cfg_file)]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("config error:")]
    assert len(errors) == 1 and f"{key} must be nonnegative" in errors[0], errors
    assert f"({generator} builds it from {key} = 't - 0.3')" in errors[0], errors
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("generator", GENERATOR_IDS)
def test_run_every_catalog_generator(generator, tmp_path):
    # the zero generator's gamma integrates to 0: its report records delta_p as null
    cfg_file = tmp_path / "exp.ini"
    cfg_file.write_text(f"[experiment]\ngenerator = {generator}\nexpression = 0 - y + abs(z1)\n"
                        "steps = 4\npaths = 200\nbasis = piecewise-constant-bins\nbasis_size = 10\n"
                        f"out = {tmp_path / 'run'}\n")
    assert main(["run", "--config", str(cfg_file)]) in (0, 1)

def test_run_overrides_are_validated(tmp_path, capsys):
    cfg_file = tmp_path / "exp.ini"
    cfg_file.write_text(SMALL_RUN + f"out = {tmp_path / 'run'}\n")
    assert main(["run", "--config", str(cfg_file), "--paths", "0"]) == 2
    assert "config error: paths must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("paths", ["0", "many"])
def test_run_overrides_replace_invalid_file_keys(paths, tmp_path):
    # the flags override the file's keys, so only the config they make is validated
    cfg_file = tmp_path / "exp.ini"
    cfg_file.write_text(SMALL_RUN.replace("paths = 1500", f"paths = {paths}")
                        + f"out = {tmp_path / 'run'}\n")
    assert main(["run", "--config", str(cfg_file), "--paths", "200"]) == 0
    assert "paths = 200" in (tmp_path / "run" / "report.txt").read_text().splitlines()


def test_solve_rejects_nonpositive_ladder(tmp_path, capsys):
    assert main(["solve", "--steps", "4", "--paths", "200", "--ladder", "0", "16",
                 "--out", str(tmp_path / "sol.npz")]) == 2
    assert "config error: ladder N_MAX and Q_MAX must be positive" in capsys.readouterr().err
    assert not (tmp_path / "sol.npz").exists()


def test_solve_ladder_of_unequal_lengths(tmp_path, capsys):
    sol_file = str(tmp_path / "sol.npz")
    assert main(["solve", "--steps", "6", "--paths", "800", "--ladder", "16", "4",
                 "--seed", "2", "--out", sol_file]) == 0
    meta = json.loads(str(np.load(sol_file)["meta"]))
    assert (meta["n_max"], meta["q_max"]) == (16, 4)
    assert "gaps [" in capsys.readouterr().out


def test_solve_saves_the_ladder_it_walked(tmp_path, capsys):
    sol_file = str(tmp_path / "sol.npz")
    assert main(["solve", "--steps", "4", "--paths", "300", "--ladder", "2", "2",
                 "--seed", "2", "--out", sol_file]) == 0
    meta = json.loads(str(np.load(sol_file)["meta"]))
    assert (meta["n_levels"], meta["q_levels"]) == ([1, 2], [1, 2])
    assert (meta["n_max"], meta["q_max"]) == (2, 2)


def test_solve_file_holds_both_level_lists(tmp_path, capsys):
    sol_file = str(tmp_path / "sol.npz")
    assert main(["solve", "--steps", "4", "--paths", "200", "--ladder", "16", "4",
                 "--seed", "2", "--out", sol_file]) == 0
    meta = json.loads(str(np.load(sol_file)["meta"]))
    assert (meta["n_levels"], meta["q_levels"]) == ([1, 2, 4, 8, 16], [1, 2, 4])
    # the config's own ladder key would hold its default, not the levels walked
    assert "ladder" not in meta


def test_two_solves_to_different_paths_save_one_meta(tmp_path, capsys):
    metas = []
    for sub in ("a", "b"):
        sol_file = str(tmp_path / sub / "sol.npz")
        assert main(["solve", "--steps", "4", "--paths", "200", "--ladder", "2", "2",
                     "--seed", "2", "--out", sol_file]) == 0
        metas.append(str(np.load(sol_file)["meta"]))
    assert metas[0] == metas[1] and "out" not in json.loads(metas[0])


def test_solve_on_one_path_prints_the_ladder_verdict_without_a_share(tmp_path, capsys):
    # one path orders nothing: no comparison is counted, so no percentage is printed,
    # and the ladder's verdict does not enter the exit code
    assert main(["solve", "--steps", "4", "--paths", "1", "--ladder", "4", "4",
                 "--out", str(tmp_path / "sol.npz")]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("ladder indeterminate: violations 0/0, gaps ["), line


@pytest.mark.parametrize("generator,condition",
                         [("zero", "A5"), ("zero", "A6i"), ("linear", "A6i")])
def test_catalog_generators_declare_a5_and_a6i(generator, condition, capsys):
    rc = main(["check-conditions", "--generator", generator, "--dims", "1",
               "--condition", condition, "--samples", "1000", "--seed", "2"])
    out, err = capsys.readouterr()
    assert rc == 0, err
    assert f"condition {condition}: pass" in out


def test_check_conditions_command(capsys):
    rc = main(["check-conditions", "--generator", "example1", "--condition", "EX1",
               "--samples", "2000", "--seed", "3"])
    assert rc == 0
    assert "condition EX1: pass" in capsys.readouterr().out

    rc = main(["check-conditions", "--generator", "custom-expression",
               "--expression", "z^2", "--condition", "EX1", "--samples", "2000"])
    assert rc == 1


def test_solve_and_verify_roundtrip(tmp_path, capsys):
    sol_file = str(tmp_path / "sol.npz")
    rc = main(["solve", "--generator", "example2", "--terminal", "clamp-bt",
               "--steps", "8", "--paths", "1500", "--ladder", "4", "4",
               "--seed", "5", "--out", sol_file])
    assert rc == 0
    assert Path(sol_file).exists() and Path(sol_file).with_suffix(".csv").exists()
    capsys.readouterr()

    rc = main(["verify-bounds", "--run", sol_file, "--bound", "sup", "--p", "2"])
    assert rc == 0
    assert "satisfied" in capsys.readouterr().out

    rc = main(["verify-bounds", "--run", sol_file, "--bound", "fhat-moment"])
    assert rc == 0


def test_lemma_tests_command(capsys):
    rc = main(["lemma-tests", "--lemma", "A3", "--family", "abs", "--samples", "3000"])
    assert rc == 0
    assert "A3/abs: pass" in capsys.readouterr().out
    rc = main(["lemma-tests", "--lemma", "A1", "--samples", "2000"])
    assert rc == 0
    # A2 builds its envelope, checks the band on it, then its remainder
    rc = main(["lemma-tests", "--lemma", "A2", "--family", "convex-ray-spline",
               "--samples", "2000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "A2/convex-ray-spline: pass" in out and out.rstrip().endswith("; remainder pass"), out


@pytest.mark.parametrize("lemma, family", [("A2", "convex-ray-spline"), ("A3", "abs")])
def test_lemma_tests_exit_code_reads_the_remainder_verdict(lemma, family, capsys, monkeypatch):
    # the band holds but its remainder fails: the command must not exit 0
    monkeypatch.setattr("subquad_bsde.cli.remainder_check",
                        lambda con, samples: SimpleNamespace(verdict="fail"))
    rc = main(["lemma-tests", "--lemma", lemma, "--family", family, "--samples", "500"])
    out = capsys.readouterr().out
    assert f"{lemma}/{family}: pass" in out and out.rstrip().endswith("; remainder fail"), out
    assert rc == 1


def test_parser_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


EXPRESSION_RUN = """
[experiment]
generator = custom-expression
expression = 0 - abs(y) + 0.1*z1
terminal = constant
terminal_value = 1.0
alpha = 1.5
beta = 0.5*exp(0-t)
gamma = 0.25
steps = 8
paths = 1200
seed = 3
ladder = 1, 4
cloud_samples = 1000
checks = pointwise, sup
"""


def test_run_with_expression_generator_and_coefficients(tmp_path):
    from subquad_bsde.cli import parse_config, run_experiment
    cfg = parse_config(EXPRESSION_RUN)
    cfg.out = str(tmp_path / "expr")
    report = run_experiment(cfg)
    assert not report.any_violation
    assert cfg.beta_fn()(0.0) == pytest.approx(0.5)


def test_parse_rejects_bad_expression():
    bad = EXPRESSION_RUN.replace("beta = 0.5*exp(0-t)", "beta = import os")
    with pytest.raises(ConfigurationError) as err:
        parse_config(bad)
    assert any("beta" in m for m in err.value.messages)


def test_verify_bounds_writes_csv(tmp_path, capsys):
    sol_file = str(tmp_path / "s.npz")
    main(["solve", "--generator", "example1", "--steps", "6", "--paths", "1000",
          "--ladder", "2", "2", "--seed", "1", "--out", sol_file])
    csv_file = tmp_path / "bound.csv"
    rc = main(["verify-bounds", "--run", sol_file, "--bound", "pointwise",
               "--out", str(csv_file)])
    assert rc == 0
    header = csv_file.read_text().splitlines()[0]
    assert header == "time,log_lhs,log_rhs,se,verdict"


def test_verify_bounds_refuses_a_csv_for_fhat_moment(tmp_path, capsys):
    # fhat-moment has no per-node rows: --out is refused before the file is loaded
    csv_file = tmp_path / "fh.csv"
    assert main(["verify-bounds", "--run", str(tmp_path / "missing.npz"), "--bound", "fhat-moment",
                 "--out", str(csv_file)]) == 2
    err = capsys.readouterr().err
    assert "config error: --out: fhat-moment writes no CSV" in err
    assert "note line" in err
    assert not csv_file.exists()


def test_verify_bounds_uses_saved_zero_coefficients(tmp_path, monkeypatch):
    import subquad_bsde.cli as cli
    sol_file = str(tmp_path / "z.npz")
    assert main(["solve", "--generator", "example1", "--beta", "0", "--gamma", "0",
                 "--steps", "6", "--paths", "800", "--ladder", "2", "2", "--seed", "2",
                 "--out", sol_file]) == 0
    seen = []
    real = cli.make_generator

    def spy(*args, **kwargs):
        seen.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "make_generator", spy)
    main(["verify-bounds", "--run", sol_file, "--bound", "sup"])
    assert seen and seen[-1]["beta"](0.3) == 0.0 and seen[-1]["gamma"](0.3) == 0.0


def test_verify_bounds_on_custom_expression_solve(tmp_path, capsys):
    sol_file = str(tmp_path / "e.npz")
    assert main(["solve", "--generator", "custom-expression",
                 "--expression", "0 - abs(y) + 0.1*z1", "--terminal", "constant",
                 "--terminal-value", "1.0", "--steps", "6", "--paths", "1000",
                 "--ladder", "2", "2", "--seed", "3", "--out", sol_file]) == 0
    capsys.readouterr()
    rc = main(["verify-bounds", "--run", sol_file, "--bound", "sup"])
    assert rc == 0, capsys.readouterr().err


def test_solve_basis_range_saved_and_reloaded(tmp_path, monkeypatch):
    import subquad_bsde.cli as cli
    from subquad_bsde import RegressionBasis
    sol_file = str(tmp_path / "b.npz")
    assert main(["solve", "--generator", "example2", "--basis", "piecewise-constant-bins",
                 "--basis-size", "12", "--basis-lo", "-2.5", "--basis-hi", "2.5",
                 "--steps", "6", "--paths", "1000", "--ladder", "2", "2", "--seed", "4",
                 "--out", sol_file]) == 0
    expected = RegressionBasis("piecewise-constant-bins", 12, lo=-2.5, hi=2.5)
    assert cli._load_solution(sol_file)[0].basis == expected

    # the comparison check re-solves on the basis the run was solved on
    seen = []
    real = cli.solve_bounded

    def spy(*args, **kwargs):
        seen.append(args[4])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_bounded", spy)
    main(["verify-bounds", "--run", sol_file, "--bound", "comparison"])
    assert seen and all(basis == expected for basis in seen)

    # files saved without the range were solved on the default [-5, 5]
    data = dict(np.load(sol_file))
    meta = json.loads(str(data.pop("meta")))
    del meta["basis_lo"], meta["basis_hi"]
    old_file = str(tmp_path / "old.npz")
    np.savez_compressed(old_file, meta=json.dumps(meta), **data)
    loaded = cli._load_solution(old_file)[0].basis
    assert (loaded.lo, loaded.hi) == (-5.0, 5.0)


def test_bound_csv_headers(tmp_path):
    # the comparison check writes its own columns; the log-space bounds share theirs
    log_space = "time,log_lhs,log_rhs,se,verdict"
    comparison = "time,gap_max,eps,violation_fraction,verdict"
    cfg = parse_config(SMALL_RUN.replace("pointwise, comparison", "pointwise, sup, comparison"))
    cfg.out = str(tmp_path / "run")
    run_experiment(cfg)
    for name, header in (("bound_pointwise-two-sided.csv", log_space),
                         ("bound_sup-p2.csv", log_space),
                         ("bound_comparison.csv", comparison)):
        assert (Path(cfg.out) / name).read_text().splitlines()[0] == header, name

    sol_file = str(tmp_path / "s.npz")
    assert main(["solve", "--generator", "example2", "--steps", "6", "--paths", "1000",
                 "--ladder", "2", "2", "--seed", "1", "--out", sol_file]) == 0
    for bound, header in (("pointwise", log_space), ("pointwise-one-sided", log_space),
                          ("sup", log_space), ("comparison", comparison)):
        csv_file = tmp_path / f"{bound}.csv"
        main(["verify-bounds", "--run", sol_file, "--bound", bound, "--out", str(csv_file)])
        assert csv_file.read_text().splitlines()[0] == header, bound


_BASES = {"polynomial": ["--basis", "polynomial", "--basis-size", "3"],
          "bins": ["--basis", "piecewise-constant-bins", "--basis-size", "20"]}


@pytest.fixture(scope="module", params=list(_BASES))
def basis_solve(request, tmp_path_factory):
    """An example-1 solve on each basis, 1000 paths and 6 steps, and its solver-built field."""
    import subquad_bsde as sq
    import subquad_bsde.cli as cli
    sol_file = str(tmp_path_factory.mktemp(request.param) / "s.npz")
    assert main(["solve", "--generator", "example1", "--steps", "6", "--paths", "1000",
                 "--ladder", "4", "4", "--seed", "6", *_BASES[request.param],
                 "--out", sol_file]) == 0
    cfg = cli._load_solution(sol_file)[1]
    grid = sq.build_grid(cfg.horizon, cfg.steps, cfg.scheme)
    solved = sq.solve_ladder(cli._build_generator(cfg), cli._build_terminal(cfg), grid,
                             sq.sample_paths(grid, cfg.dims, cfg.paths, cfg.seed),
                             cli._build_basis(cfg), [1, 2, 4], [1, 2, 4]).final
    return sol_file, solved


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_a_solve_file_holds_no_per_path_array(basis_solve):
    # the field's coordinates, its fit noise and z divisors, the nodes and the meta
    sol_file, solved = basis_solve
    data = np.load(sol_file)
    steps = solved.grid.steps
    assert set(data.files) == {"meta", "nodes", "fit_noise", "z_divisor",
                               *(f"{v}_coords_{j}" for v in "yz" for j in range(steps))}
    assert all(1000 not in data[k].shape and data[k].size < 100 for k in data.files)
    meta = json.loads(str(data["meta"]))
    assert meta["terminal_sha256"] == hashlib.sha256(solved.terminal.tobytes()).hexdigest()
    for j in range(steps):
        assert _same_bits(data[f"y_coords_{j}"], solved.y_coords[j]), j
        assert _same_bits(data[f"z_coords_{j}"], solved.z_coords[j]), j
    assert _same_bits(data["z_divisor"], solved.z_divisor)
    assert _same_bits(data["fit_noise"], solved.fit_noise)


def test_a_reloaded_field_reads_the_bytes_of_the_solved_field(basis_solve):
    # the loaded field holds the file's coordinates over the re-sampled bundle's
    # projectors: every node, and both whole fields, agree with the solver's bit for bit
    import subquad_bsde.cli as cli
    sol_file, solved = basis_solve
    loaded = cli._load_solution(sol_file)[0]
    assert loaded.basis == solved.basis
    assert loaded.maps == tuple(loaded.bundle.projectors(loaded.basis))
    for j in range(solved.grid.steps + 1):
        assert _same_bits(loaded.y(j), solved.y(j)), j
    for j in range(solved.grid.steps):
        assert _same_bits(loaded.z(j), solved.z(j)), j
    assert _same_bits(loaded.Y, solved.Y) and _same_bits(loaded.Z, solved.Z)
    assert _same_bits(loaded.fit_noise, solved.fit_noise)


def test_a_per_path_solution_file_is_refused_before_sampling(basis_solve, tmp_path, monkeypatch,
                                                             capsys):
    # the format before coordinates: per-path Y and Z, and a meta with the config's
    # ladder key and no terminal hash.  Every check refuses it and says to re-solve
    import subquad_bsde.cli as cli
    sol_file, solved = basis_solve
    data = np.load(sol_file)
    meta = json.loads(str(data["meta"]))
    del meta["terminal_sha256"]
    meta["ladder"] = [1, 2, 4, 8, 16]
    old_file = str(tmp_path / "per_path.npz")
    np.savez_compressed(old_file, Y=solved.Y, Z=solved.Z, nodes=data["nodes"],
                        fit_noise=data["fit_noise"], meta=json.dumps(meta))

    def no_sampling(*args, **kwargs):
        raise AssertionError("a path was sampled")

    monkeypatch.setattr(cli, "sample_paths", no_sampling)
    for bound in _BOUND_IDS:
        capsys.readouterr()
        assert main(["verify-bounds", "--run", old_file, "--bound", bound]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {old_file}: not a solution file of projector "
                              f"coordinates (it lacks z_divisor, y_coords_0, z_coords_0, ...); "
                              f"re-solve it with `subquad-bsde solve`"), err


@pytest.fixture(scope="module")
def tiny_solve(tmp_path_factory):
    """An example-1 solve at registry-test size: 800 paths, 6 steps."""
    sol_file = str(tmp_path_factory.mktemp("tiny") / "t.npz")
    assert main(["solve", "--generator", "example1", "--steps", "6", "--paths", "800",
                 "--ladder", "2", "2", "--seed", "1", "--out", sol_file]) == 0
    return sol_file


def _rewrite_meta(src, dst, drop=(), **changes):
    """Copy of a solution file with meta keys changed or arrays dropped."""
    data = dict(np.load(src))
    meta = json.loads(str(data.pop("meta"))) | changes
    for name in drop:
        data.pop(name)
    np.savez_compressed(dst, meta=json.dumps(meta), **data)
    return str(dst)


def test_comparison_uses_saved_field_with_one_solve(tiny_solve, tmp_path, monkeypatch, capsys):
    import subquad_bsde.cli as cli
    from subquad_bsde import (make_generator, make_terminal, solve_bounded, truncate_generator,
                              truncate_terminal, verify_comparison)
    calls = []
    real = cli.solve_bounded

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_bounded", spy)
    csv_file = tmp_path / "cmp.csv"
    assert main(["verify-bounds", "--run", tiny_solve, "--bound", "comparison",
                 "--out", str(csv_file)]) == 0
    assert len(calls) == 1

    # reference: re-solve the saved field as well, on the problem the file describes
    sol, cfg, idx = cli._load_solution(tiny_solve)
    gen_t = truncate_generator(make_generator("example1", 1.5, beta=0.5, gamma=0.25), idx)
    xi, xi_hi = (truncate_terminal(make_terminal("clamp-bt", bound=3.0, shift=s), idx)
                 for s in (0.0, 1.0))
    lo, hi = (solve_bounded(gen_t, x, sol.grid, sol.bundle, sol.basis) for x in (xi, xi_hi))
    assert np.array_equal(lo.Y, sol.Y) and np.array_equal(lo.fit_noise, sol.fit_noise)
    terminal = sol.bundle.terminal()
    ref = verify_comparison(lo, hi, xi_values=xi(terminal), xi_prime_values=xi_hi(terminal))
    ref_file = tmp_path / "ref.csv"
    cli._write_csv(ref_file, ref.columns())
    assert csv_file.read_bytes() == ref_file.read_bytes()

    # a file without fit_noise is no solution file: no check reads it, the comparison's
    # allowance least of all
    old_file = _rewrite_meta(tiny_solve, tmp_path / "old.npz", drop=("fit_noise",))
    for bound in _BOUND_IDS:
        capsys.readouterr()
        assert main(["verify-bounds", "--run", old_file, "--bound", bound]) == 2
        err = capsys.readouterr().err
        assert "lacks fit_noise)" in err and "re-solve it with `subquad-bsde solve`" in err, err


def test_verify_bounds_reads_saved_comparison_shift(tiny_solve, tmp_path, capsys):
    bad_file = _rewrite_meta(tiny_solve, tmp_path / "bad.npz", comparison_shift=-1.0)
    capsys.readouterr()
    assert main(["verify-bounds", "--run", bad_file, "--bound", "comparison"]) == 1
    out = capsys.readouterr().out
    assert "bound comparison: violated" in out and "comparison hypothesis violated" in out


def test_fhat_moment_inconsistency_is_a_run_violation(tmp_path, monkeypatch):
    import dataclasses

    from subquad_bsde import bounds
    real = bounds.verify_fhat_moment

    def inconsistent(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), jensen_consistent=False)

    monkeypatch.setattr(bounds, "verify_fhat_moment", inconsistent)
    text = SMALL_RUN.replace("EX1, UNprime-i, pointwise, comparison", "fhat-moment")
    cfg = parse_config(text)
    cfg.out = str(tmp_path / "run")
    assert run_experiment(cfg).any_violation
    cfg_file = tmp_path / "exp.ini"
    cfg_file.write_text(text + f"out = {tmp_path / 'main'}\n")
    assert main(["run", "--config", str(cfg_file)]) == 1


def test_long_horizon_constants_saturate(capsys):
    # 2 A(T) = 800 overflows e^{2A} in the mu weight: the constants saturate to inf
    assert main(["check-conditions", "--condition", "EX1", "--horizon", "400", "--beta", "1",
                 "--samples", "1000"]) == 0, capsys.readouterr().err


def test_beta_gamma_flags_take_expressions(tmp_path, capsys):
    assert main(["check-conditions", "--condition", "EX1", "--beta", "0.5*exp(0-t)",
                 "--samples", "1000"]) == 0
    capsys.readouterr()
    assert main(["check-conditions", "--condition", "EX1", "--gamma", "import os",
                 "--samples", "1000"]) == 2
    assert "gamma" in capsys.readouterr().err


# example1 declares none of the coefficients these need (u_bar, v_bar, c_bar)
_UNDECLARED = ("A5", "A6i")


@pytest.mark.parametrize("command,check_id",
                         [("check-conditions", c) for c in CONDITION_IDS]
                         + [("verify-bounds", b) for b in _BOUND_IDS])
def test_every_registered_check_runs(command, check_id, tiny_solve, capsys):
    if command == "check-conditions":
        rc = main([command, "--generator", "example1", "--dims", "1", "--condition", check_id,
                   "--samples", "1000", "--seed", "2"])
    else:
        rc = main([command, "--run", tiny_solve, "--bound", check_id])
    err = capsys.readouterr().err
    if check_id in _UNDECLARED:
        assert rc == 2 and "missing coefficient" in err
    else:
        assert rc in (0, 1), err


BAD_BASE = """
[experiment]
steps = 4
paths = 200
"""


@pytest.mark.parametrize("argv,lines,message", [
    pytest.param(["run"], "scheme = foo", "unknown grid scheme 'foo'", id="scheme"),
    pytest.param(["run"], "basis_size = 0", "basis size must be >= 1, got 0", id="basis_size"),
    pytest.param(["run"], "basis = piecewise-constant-bins\nbasis_lo = 2\nbasis_hi = -2",
                 "bin range must satisfy hi > lo, got lo=2.0, hi=-2.0", id="bin-range"),
    pytest.param(["run"], "dims = 0", "dims must be >= 1, got 0", id="dims"),
    pytest.param(["run"], "p = 1.0", "p must exceed 1, got 1.0", id="p"),
    pytest.param(["run"], "basis = piecewise-constant-bins\ndims = 2",
                 "basis piecewise-constant-bins needs dims = 1, got 2", id="bins-dims"),
    pytest.param(["run"], "cloud_samples = 0", "cloud_samples must be >= 1, got 0",
                 id="cloud_samples"),
    pytest.param(["run"], "dims = 2\nchecks = A4",
                 "check A4 is stated for scalar noise and needs dims = 1, got 2", id="A4-dims"),
    pytest.param(["run"], "beta = 5%", "beta: cannot parse expression '5%'", id="percent"),
    pytest.param(["run"], "beta = abs(t - 0.333333333333)^(-1)",
                 "the integral of beta over [0, ", id="beta-not-integrable"),
    pytest.param(["run"], "generator = zero\nchecks = UN-i",
                 "check UN-i's gamma must have a finite positive integral over [0, 1], got 0.0",
                 id="zero-gamma-UN-i"),
    pytest.param(["run"], "generator = zero\nchecks = fhat-moment",
                 "check fhat-moment's gamma must have a finite positive integral", id="zero-gamma-fhat"),
    pytest.param(["solve", "--scheme", "geometric", "--steps", "64"], "",
                 "geometric grid with steps=64 and ratio=0.5", id="geometric-steps"),
    pytest.param(["check-conditions", "--condition", "EX1", "--dims", "0"], "",
                 "dims must be >= 1, got 0", id="check-conditions-dims"),
    pytest.param(["check-conditions", "--condition", "A3i", "--dims", "2"], "",
                 "check A3i is stated for scalar noise and needs dims = 1, got 2",
                 id="check-conditions-A3i-dims"),
    pytest.param(["verify-bounds", "--bound", "sup", "--p", "1"], "", "p must exceed 1, got 1.0",
                 id="verify-bounds-p"),
    pytest.param(["lemma-tests", "--lemma", "A1", "--samples", "0"], "",
                 "samples must be >= 1, got 0", id="lemma-samples-zero"),
    pytest.param(["lemma-tests", "--lemma", "A1", "--samples", "-5"], "",
                 "samples must be >= 1, got -5", id="lemma-samples-negative"),
    pytest.param(["run"], "seed = -1", "seed must lie in [0, 2**64 - 2], got -1", id="seed-negative"),
    pytest.param(["run"], f"seed = {2 ** 64 - 1}",      # its cloud would be keyed 2**64
                 f"seed must lie in [0, 2**64 - 2], got {2 ** 64 - 1}", id="seed-cloud-past-range"),
    pytest.param(["solve", "--seed", "-1"], "", "seed must lie in [0, 2**64 - 2], got -1",
                 id="solve-seed-negative"),
    pytest.param(["lemma-tests", "--lemma", "A1", "--seed", "-1"], "",
                 "seed must lie in [0, 2**64), got -1", id="lemma-seed-negative"),
    pytest.param(["lemma-tests", "--lemma", "A1", "--seed", str(2 ** 64)], "",
                 f"seed must lie in [0, 2**64), got {2 ** 64}", id="lemma-seed-past-range"),
])
def test_bad_input_is_a_config_error_before_sampling(argv, lines, message, tiny_solve, tmp_path,
                                                      monkeypatch, capsys):
    import subquad_bsde.cli as cli

    def no_sampling(*args, **kwargs):
        raise AssertionError("a path was sampled")

    monkeypatch.setattr(cli, "sample_paths", no_sampling)
    if argv[0] == "run":
        cfg_file = tmp_path / "bad.ini"
        cfg_file.write_text(BAD_BASE + lines + f"\nout = {tmp_path / 'run'}\n")
        argv = argv + ["--config", str(cfg_file)]
    elif argv[0] == "solve":
        argv = argv + ["--out", str(tmp_path / "sol.npz")]
    elif argv[0] == "verify-bounds":
        argv = argv + ["--run", tiny_solve]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err, err
    assert err.count("config error:") == 1, err
    assert not (tmp_path / "run").exists()


def test_the_largest_seeds_run(tmp_path, capsys):
    cfg_file = tmp_path / "top.ini"
    cfg_file.write_text(BAD_BASE + f"seed = {2 ** 64 - 2}\ncloud_samples = 500\n"
                        f"out = {tmp_path / 'run'}\n")
    assert main(["run", "--config", str(cfg_file)]) in (0, 1)
    assert main(["lemma-tests", "--lemma", "A1", "--seed", str(2 ** 64 - 1),
                 "--samples", "200"]) in (0, 1)
    assert "error" not in capsys.readouterr().err


def test_a_run_with_every_bound_check_leaves_numpy_ma_unloaded(tmp_path):
    # numpy.ma costs about 9 ms of import and 1 MB in every process that loads it
    text = SMALL_RUN.replace("paths = 1500", "paths = 300").replace(
        "checks = EX1, UNprime-i, pointwise, comparison", "checks = " + ", ".join(_BOUND_IDS))
    script = ("import sys\n"
              "from subquad_bsde.cli import parse_config, run_experiment\n"
              f"report = run_experiment(parse_config({text!r}, out={str(tmp_path)!r}))\n"
              "assert len(report.bound_results) == 4 and len(report.fhat_checks) == 1\n"
              "print('numpy.ma' in sys.modules)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("changes,message,sampled", [
    # the coordinates have no path axis: an edited path count is caught by the terminal
    # hash, once the paths are sampled
    pytest.param({"paths": 900}, "its terminal hash is not that of its config's terminal "
                 "truncated at (2, 2) on the paths of seed 1", True, id="paths"),
    pytest.param({"steps": 5}, "its nodes differ from the 5-step uniform grid on [0, 1.0] "
                 "of its config", False, id="steps"),
])
def test_solution_file_that_disagrees_with_its_config_is_a_config_error(
        changes, message, sampled, tiny_solve, tmp_path, monkeypatch, capsys):
    import subquad_bsde.cli as cli

    def no_sampling(*args, **kwargs):
        raise AssertionError("a path was sampled")

    if not sampled:
        monkeypatch.setattr(cli, "sample_paths", no_sampling)
    bad_file = _rewrite_meta(tiny_solve, tmp_path / "edited.npz", **changes)
    for bound in ("pointwise", "sup"):
        capsys.readouterr()
        assert main(["verify-bounds", "--run", bad_file, "--bound", bound]) == 2
        assert f"config error: {bad_file}: {message}" in capsys.readouterr().err


def test_solution_file_solved_on_other_paths_is_a_config_error(tiny_solve, tmp_path, capsys):
    # with an edited seed the stored terminal hash is not that of its config's terminal on
    # the re-sampled paths: no check may read it as the problem that was solved
    bad_file = _rewrite_meta(tiny_solve, tmp_path / "reseeded.npz", seed=2)
    for bound in ("pointwise", "sup", "comparison"):
        capsys.readouterr()
        assert main(["verify-bounds", "--run", bad_file, "--bound", bound]) == 2
        err = capsys.readouterr().err
        assert (f"config error: {bad_file}: its terminal hash is not that of its config's "
                "terminal truncated at (2, 2) on the paths of seed 2") in err, err


@pytest.mark.parametrize("edit,message", [
    pytest.param("basis_size", "y_coords_1 has shape (4,), the projectors of its config need (5,)",
                 id="basis_size"),
    pytest.param("z_coords_3", "z_coords_3 has shape (4, 2), the projectors of its config need "
                 "(4, 1)", id="z_coords"),
    pytest.param("z_divisor", "z_divisor has shape (5,), the projectors of its config need (6,)",
                 id="z_divisor"),
])
def test_coordinates_of_another_shape_are_a_config_error(edit, message, tiny_solve, tmp_path,
                                                         capsys):
    # the coordinates are read in the rebuilt projectors' bases: at basis_size 4 node 0
    # still has rank 1 (every path at B_0 = 0), node 1 has 5 columns against the file's 4
    if edit == "basis_size":
        bad_file = _rewrite_meta(tiny_solve, tmp_path / "edited.npz", basis_size=4)
    else:
        data = dict(np.load(tiny_solve))
        data[edit] = (np.concatenate([data[edit], data[edit]], axis=1) if edit == "z_coords_3"
                      else data[edit][:-1])
        bad_file = str(tmp_path / "edited.npz")
        np.savez_compressed(bad_file, **data)
    capsys.readouterr()
    assert main(["verify-bounds", "--run", bad_file, "--bound", "pointwise"]) == 2
    assert f"config error: {bad_file}: {message}" in capsys.readouterr().err


def test_verify_bounds_gates_the_requested_bound(tiny_solve, tmp_path, capsys):
    # the zero generator's gamma integrates to 0: fhat-moment is refused before sampling
    zero_file = _rewrite_meta(tiny_solve, tmp_path / "zero.npz", generator="zero")
    assert main(["verify-bounds", "--run", zero_file, "--bound", "fhat-moment"]) == 2
    assert ("config error: check fhat-moment's gamma must have a finite positive integral"
            in capsys.readouterr().err)


def test_parser_defaults_are_the_config_defaults():
    defaults = vars(ExperimentConfig())
    # flags named like a key that are not that key: file paths, and the lemma sweeps' seed
    not_keys = {"solve": {"out"}, "verify-bounds": {"out"}, "lemma-tests": {"seed"}}
    parser = build_parser()
    seen = set()
    for argv in (["check-conditions", "--condition", "EX1"], ["solve"],
                 ["verify-bounds", "--run", "s.npz", "--bound", "sup"], ["lemma-tests", "--lemma", "A1"]):
        args = vars(parser.parse_args(argv))
        keys = set(args) & set(defaults) - not_keys.get(argv[0], set())
        assert {k: args[k] for k in keys} == {k: defaults[k] for k in keys}, argv[0]
        seen |= keys
    assert seen == set(defaults) - {"ladder", "checks", "comparison_shift", "out"}
    # run's overrides have no default: an unset flag keeps the config file's value
    assert not set(vars(parser.parse_args(["run", "--config", "c.ini"]))) & set(defaults)


def test_one_path_comparison_run_is_indeterminate(tmp_path, capsys):
    # one path on any basis: every regression interpolates it, so the fit noise
    # in the comparison's allowance is inf and certifies nothing
    cfg_file = tmp_path / "one.ini"
    cfg_file.write_text("[experiment]\nsteps = 4\npaths = 1\nchecks = comparison\n"
                        f"out = {tmp_path / 'out'}\n")
    assert main(["run", "--config", str(cfg_file)]) == 1
    assert "bound comparison: indeterminate" in capsys.readouterr().out


def test_one_path_run_reports_undecided_nodes_not_a_margin(tmp_path, capsys):
    # only the horizon node of the comparison has a finite allowance; the
    # report line counts the undecided nodes and quotes no margin from it
    cfg_file = tmp_path / "one.ini"
    cfg_file.write_text("[experiment]\nsteps = 4\npaths = 1\nchecks = pointwise, comparison\n"
                        f"out = {tmp_path / 'out'}\n")
    assert main(["run", "--config", str(cfg_file)]) == 1
    lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("bound ")]
    assert lines == ["bound pointwise-two-sided: indeterminate (4 of 4 nodes undecided)",
                     "bound comparison: indeterminate (4 of 5 nodes undecided)"]
    assert _report_ladder(tmp_path / "out")["verdict"] == "indeterminate"


def _report_ladder(out: Path) -> dict:
    """The [ladder] block of a run's report.txt."""
    lines = (out / "report.txt").read_text().splitlines()
    return json.loads(lines[lines.index("[ladder]") + 1])


def test_decided_comparison_quotes_its_tightest_node_before_the_horizon(tmp_path, capsys):
    # at node N the allowance holds no fit noise and xi <= xi' is validated
    # before the check: its margin eps_N - gap_N must not set the quoted minimum
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg_file = tmp_path / "readme.ini"
    cfg_file.write_text(block.replace("out = out", f"out = {tmp_path / 'out'}"))
    assert main(["run", "--config", str(cfg_file), "--paths", "2000"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("bound comparison: ")]
    with open(tmp_path / "out" / "bound_comparison.csv") as fh:
        rows = list(csv.DictReader(fh))
    margins = [float(r["eps"]) - float(r["gap_max"]) for r in rows]
    assert {r["verdict"] for r in rows} == {"satisfied"}
    assert margins[-1] < min(margins[:-1])          # the horizon is the smallest here
    assert lines == [f"bound comparison: satisfied (min margin {min(margins[:-1])!r}, "
                     f"violation fraction 0.0)"]
    assert _report_ladder(tmp_path / "out")["verdict"] == "satisfied"
