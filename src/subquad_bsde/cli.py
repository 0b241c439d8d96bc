"""Experiment runner: config parsing, pipeline orchestration, stable outputs.

Configuration is flat key=value INI text under an [experiment] section; all
randomness flows from the single seed through named substreams.  Exit codes:
0 all requested checks satisfied, 1 violations found, 2 configuration error,
3 internal/solver error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from configparser import ConfigParser
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import conditions as cond_mod
from .constants import derive_constants
from .envelopes import (construct_A2_envelope, construct_A3_envelope, lemmaA1_check,
                        lemmaA2_check, lemmaA3_check, lemma_samples, remainder_check)
from .errors import ConfigurationError, PreconditionViolationError
from .expressions import ExpressionError, compile_time_function
from .families import FAMILY_REGISTRY
from .generators import (GENERATOR_IDS, TERMINAL_IDS, TruncationIndex, make_generator,
                         make_terminal, truncate_generator, truncate_terminal)
from .paths import RegressionBasis, as_step_major, build_grid, sample_paths
from .solver import solve_bounded, solve_ladder

_CONDITION_IDS = ("EX1", "EX1prime", "EX2", "A1", "A5", "A2i", "A2ii", "monotone-limit",
                  "A3i", "A3ii", "A4", "A6i", "A6ii",
                  "UN-i", "UN-ii", "UNprime-i", "UNprime-ii")
_BOUND_IDS = ("pointwise", "pointwise-one-sided", "sup", "comparison", "fhat-moment")


@dataclass
class ExperimentConfig:
    generator: str = "example1"
    expression: str = ""
    terminal: str = "clamp-bt"
    terminal_value: float = 0.0
    terminal_bound: float = 3.0
    terminal_shift: float = 0.0
    alpha: float = 1.5
    beta: str = "0.5"
    gamma: str = "0.25"
    dims: int = 1
    horizon: float = 1.0
    steps: int = 24
    scheme: str = "uniform"
    paths: int = 20000
    seed: int = 7
    basis: str = "polynomial"
    basis_size: int = 3
    basis_lo: float = -5.0
    basis_hi: float = 5.0
    ladder: tuple = (1, 2, 4, 8, 16)
    checks: tuple = ("EX1", "EX2", "pointwise", "sup")
    p: float = 2.0
    cloud_samples: int = 20000
    comparison_shift: float = 1.0
    out: str = "out"

    def beta_fn(self):
        return compile_time_function(self.beta)

    def gamma_fn(self):
        return compile_time_function(self.gamma)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate; reports every validation error, not just the first."""
    parser = ConfigParser()
    try:
        parser.read_string(text if text.lstrip().startswith("[") else "[experiment]\n" + text)
    except Exception as exc:
        raise ConfigurationError(f"malformed configuration text: {exc}") from None
    if not parser.has_section("experiment"):
        raise ConfigurationError("missing [experiment] section")
    raw = dict(parser.items("experiment"))
    cfg = ExperimentConfig()
    errors = []

    def take(key, conv, attr=None):
        if key in raw:
            try:
                setattr(cfg, attr or key, conv(raw.pop(key)))
            except (TypeError, ValueError) as exc:
                errors.append(f"{key}: {exc}")

    take("generator", str)
    take("expression", str)
    take("terminal", str)
    take("terminal_value", float)
    take("terminal_bound", float)
    take("terminal_shift", float)
    take("alpha", float)
    take("beta", str)
    take("gamma", str)
    take("dims", int)
    take("horizon", float)
    take("steps", int)
    take("scheme", str)
    take("paths", int)
    take("seed", int)
    take("basis", str)
    take("basis_size", int)
    take("basis_lo", float)
    take("basis_hi", float)
    take("p", float)
    take("cloud_samples", int)
    take("comparison_shift", float)
    take("out", str)
    take("ladder", lambda s: tuple(int(v) for v in s.replace(",", " ").split()))
    take("checks", lambda s: tuple(v.strip() for v in s.split(",") if v.strip()))
    for key in raw:
        errors.append(f"unknown key {key!r}")

    if cfg.generator not in GENERATOR_IDS:
        errors.append(f"unknown generator {cfg.generator!r}; catalog: {', '.join(GENERATOR_IDS)}")
    if cfg.generator == "custom-expression" and not cfg.expression:
        errors.append("custom-expression requires expression=")
    if cfg.terminal not in TERMINAL_IDS:
        errors.append(f"unknown terminal {cfg.terminal!r}; catalog: {', '.join(TERMINAL_IDS)}")
    if not 1.0 < cfg.alpha < 2.0:
        errors.append("alpha must lie in (1,2)")
    if cfg.paths < 1:
        errors.append("paths must be >= 1")
    if cfg.steps < 1:
        errors.append("steps must be >= 1")
    if cfg.horizon <= 0:
        errors.append("horizon must be positive")
    if cfg.basis not in ("polynomial", "piecewise-constant-bins"):
        errors.append(f"unknown basis {cfg.basis!r}")
    if any(v < 1 for v in cfg.ladder):
        errors.append("ladder levels must be positive integers")
    for c in cfg.checks:
        if c not in _CONDITION_IDS and c not in _BOUND_IDS:
            errors.append(f"unknown check {c!r}; conditions: {', '.join(_CONDITION_IDS)}; "
                          f"bounds: {', '.join(_BOUND_IDS)}")
    for key, fn in (("beta", ExperimentConfig.beta_fn), ("gamma", ExperimentConfig.gamma_fn)):
        try:
            fn(cfg)(0.0)
        except ExpressionError as exc:
            errors.append(f"{key}: {exc}")
    if errors:
        raise ConfigurationError(errors)
    return cfg


@dataclass
class ReportDocument:
    config: ExperimentConfig
    constants: dict = field(default_factory=dict)
    condition_reports: list = field(default_factory=list)
    bound_results: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    ladder: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    wall_clock: float = 0.0

    @property
    def any_violation(self) -> bool:
        return (any(r.verdict == "fail" for r in self.condition_reports)
                or any(r.verdict == "violated" for r in self.bound_results))


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path: Path, columns: dict) -> None:
    keys = list(columns)
    rows = zip(*(columns[k] for k in keys))
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(keys)
        for row in rows:
            w.writerow([v if isinstance(v, str) else _fmt(v) for v in row])


def _build_generator(cfg: ExperimentConfig):
    return make_generator(cfg.generator, cfg.alpha, beta=cfg.beta_fn(), gamma=cfg.gamma_fn(),
                          d=cfg.dims, horizon=cfg.horizon, expression=cfg.expression or None)


def _build_terminal(cfg: ExperimentConfig):
    return make_terminal(cfg.terminal, value=cfg.terminal_value, bound=cfg.terminal_bound,
                         shift=cfg.terminal_shift)


def _build_basis(cfg: ExperimentConfig) -> RegressionBasis:
    return RegressionBasis(cfg.basis, cfg.basis_size, lo=cfg.basis_lo, hi=cfg.basis_hi)


def run_experiment(cfg: ExperimentConfig) -> ReportDocument:
    """sample -> ladder-solve -> requested checks -> CSVs + report."""
    started = time.perf_counter()
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    gen = _build_generator(cfg)
    xi = _build_terminal(cfg)
    grid = build_grid(cfg.horizon, cfg.steps, cfg.scheme)
    bundle = sample_paths(grid, cfg.dims, cfg.paths, cfg.seed)
    basis = _build_basis(cfg)
    prof = gen.profile
    constants = derive_constants(cfg.alpha, cfg.horizon, prof.beta, prof.gamma)

    report = ReportDocument(config=cfg, constants=constants.to_dict(p_values=(cfg.p,)))

    ladder = solve_ladder(gen, xi, grid, bundle, basis, levels=list(cfg.ladder))
    sol = ladder.final
    report.ladder = {
        "levels": list(ladder.levels),
        "violations": ladder.violations,
        "comparisons": ladder.comparisons,
        "violation_fraction": ladder.violation_fraction,
        "diagonal_gaps": list(ladder.diagonal_gaps),
    }
    report.summary = sol.summary()
    _write_csv(outdir / "solution.csv", report.summary)

    cloud = cond_mod.build_cloud(cfg.horizon, cfg.dims, cfg.cloud_samples,
                                 "random", seed=cfg.seed + 1)
    idx = TruncationIndex(max(cfg.ladder), max(cfg.ladder))
    xi_vals = truncate_terminal(xi, idx)(bundle.terminal())

    for check in cfg.checks:
        if check in ("EX1", "EX1prime", "EX2", "A1", "A5"):
            report.condition_reports.append(cond_mod.check_growth(gen, check, cloud))
        elif check in ("A2i", "A2ii", "monotone-limit"):
            report.condition_reports.append(cond_mod.check_y_regularity(gen, check, cloud))
        elif check in ("A3i", "A3ii", "A4", "A6i", "A6ii"):
            report.condition_reports.append(cond_mod.check_z_regularity(gen, check, cloud))
        elif check.startswith("UN"):
            report.condition_reports.append(cond_mod.check_theta_convexity(gen, check, cloud))
        elif check == "pointwise":
            r = bounds_mod.verify_pointwise_bound(sol, constants, xi_vals, prof.f, "two-sided")
            report.bound_results.append(r)
        elif check == "pointwise-one-sided":
            r = bounds_mod.verify_pointwise_bound(sol, constants, xi_vals, prof.f, "one-sided")
            report.bound_results.append(r)
        elif check == "sup":
            r = bounds_mod.verify_sup_bound(sol, constants, xi_vals, prof.f, p=cfg.p)
            report.bound_results.append(r)
        elif check == "comparison":
            xi_hi = make_terminal(cfg.terminal, value=cfg.terminal_value,
                                  bound=cfg.terminal_bound,
                                  shift=cfg.terminal_shift + cfg.comparison_shift)
            sol_hi = solve_bounded(truncate_generator(gen, idx), truncate_terminal(xi_hi, idx),
                                   grid, bundle, basis)
            xi_hi_vals = truncate_terminal(xi_hi, idx)(bundle.terminal())
            try:
                r = bounds_mod.verify_comparison(sol, sol_hi, xi_values=xi_vals,
                                                 xi_prime_values=xi_hi_vals)
            except PreconditionViolationError as exc:
                r = bounds_mod.BoundCheckResult(
                    bound_id="comparison", times=grid.nodes.copy(),
                    log_lhs=np.zeros(grid.steps + 1), log_rhs=np.zeros(grid.steps + 1),
                    se=np.zeros(grid.steps + 1), margin_min=np.zeros(grid.steps + 1),
                    margin_median=np.zeros(grid.steps + 1), verdict="violated",
                    violation_fraction=1.0, worst_gap=float("nan"))
                report.notes.append(f"comparison hypothesis violated: {exc} "
                                    f"(witnesses {exc.witnesses[:3]})")
            report.bound_results.append(r)
        elif check == "fhat-moment":
            fh = bounds_mod.fhat_process(prof, sol)
            chk = bounds_mod.verify_fhat_moment(fh, grid, cfg.p, constants.alpha_star,
                                                gamma=prof.convexity_tier()[2], z_prime=sol.Z)
            report.notes.append(
                f"fhat-moment: log value {chk.moment.log_value!r} "
                f"(rel se {chk.moment.se_rel!r}); jensen consistent: {chk.jensen_consistent}")

    for r in report.bound_results:
        _write_csv(outdir / f"bound_{r.bound_id}.csv", r.columns())

    report.wall_clock = time.perf_counter() - started
    _write_report(outdir / "report.txt", report)
    return report


def _condition_block(r) -> str:
    lines = [f"condition {r.condition_id}: {r.verdict}",
             f"  worst margin  {r.worst_margin!r}",
             f"  samples used  {r.samples_used}"]
    for w in r.witnesses:
        lines.append(f"  witness {w}")
    if r.note:
        lines.append(f"  note: {r.note}")
    return "\n".join(lines)


def _write_report(path: Path, report: ReportDocument) -> None:
    cfg = report.config
    lines = ["experiment report", "=" * 17, ""]
    lines.append("[config]")
    for k, v in vars(cfg).items():
        lines.append(f"{k} = {v}")
    lines.append("")
    lines.append("[constants]")
    lines.append(json.dumps(report.constants, sort_keys=True, indent=2))
    lines.append("")
    lines.append("[ladder]")
    lines.append(json.dumps(report.ladder, sort_keys=True))
    lines.append("")
    for r in report.condition_reports:
        lines.append(_condition_block(r))
        lines.append("")
    for r in report.bound_results:
        lines.append(f"bound {r.bound_id}: {r.verdict} "
                     f"(min margin {float(np.min(r.margin_min))!r}, "
                     f"violation fraction {r.violation_fraction!r})")
    for note in report.notes:
        lines.append(f"note: {note}")
    lines.append("")
    lines.append(f"wall clock: {report.wall_clock:.2f} s; seed {cfg.seed}")
    path.write_text("\n".join(lines))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_run(args) -> int:
    text = Path(args.config).read_text()
    cfg = parse_config(text)
    if args.out:
        cfg.out = args.out
    if args.seed is not None:
        cfg.seed = args.seed
    if args.paths is not None:
        cfg.paths = args.paths
    if args.steps is not None:
        cfg.steps = args.steps
    report = run_experiment(cfg)
    print(Path(cfg.out, "report.txt").read_text())
    return 1 if report.any_violation else 0


def _cmd_check_conditions(args) -> int:
    gen = make_generator(args.generator, args.alpha, beta=args.beta, gamma=args.gamma,
                         d=args.dims, expression=args.expression)
    cloud = cond_mod.build_cloud(args.horizon, args.dims, args.samples,
                                 args.strategy, seed=args.seed)
    cond = args.condition
    if cond in ("EX1", "EX1prime", "EX2", "A1", "A5"):
        r = cond_mod.check_growth(gen, cond, cloud)
    elif cond in ("A2i", "A2ii", "monotone-limit"):
        r = cond_mod.check_y_regularity(gen, cond, cloud)
    elif cond in ("A3i", "A3ii", "A4", "A6i", "A6ii"):
        r = cond_mod.check_z_regularity(gen, cond, cloud)
    elif cond.startswith("UN"):
        r = cond_mod.check_theta_convexity(gen, cond, cloud)
    else:
        raise ConfigurationError(f"unknown condition {cond!r}")
    print(_condition_block(r))
    return 0 if r.verdict == "pass" else 1


def _cmd_solve(args) -> int:
    gen = make_generator(args.generator, args.alpha, beta=args.beta, gamma=args.gamma,
                         d=args.dims, expression=args.expression)
    xi = make_terminal(args.terminal, value=args.terminal_value,
                       bound=args.terminal_bound, shift=args.terminal_shift)
    grid = build_grid(args.horizon, args.steps, args.scheme)
    bundle = sample_paths(grid, args.dims, args.paths, args.seed)
    basis = RegressionBasis(args.basis, args.basis_size, lo=args.basis_lo, hi=args.basis_hi)
    n_max, q_max = args.ladder
    ladder = solve_ladder(gen, xi, grid, bundle, basis, n_max=n_max, q_max=q_max)
    sol = ladder.final
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        out, Y=sol.Y, Z=sol.Z, nodes=grid.nodes,
        meta=json.dumps({"generator": args.generator, "expression": args.expression,
                         "alpha": args.alpha, "beta": args.beta, "gamma": args.gamma,
                         "dims": args.dims, "paths": args.paths, "seed": args.seed,
                         "steps": args.steps, "horizon": args.horizon,
                         "scheme": args.scheme, "basis": args.basis,
                         "basis_size": args.basis_size,
                         "basis_lo": args.basis_lo, "basis_hi": args.basis_hi,
                         "terminal": args.terminal,
                         "terminal_bound": args.terminal_bound,
                         "terminal_value": args.terminal_value,
                         "terminal_shift": args.terminal_shift,
                         "n_max": n_max, "q_max": q_max}))
    _write_csv(out.with_suffix(".csv"), sol.summary())
    print(f"ladder violations {ladder.violations}/{ladder.comparisons} "
          f"({100 * ladder.violation_fraction:.4f}%), gaps {list(ladder.diagonal_gaps)}")
    print(f"solution written to {out} (+ {out.with_suffix('.csv').name})")
    return 0


def _load_solution(path: str):
    data = np.load(path if path.endswith(".npz") else path + ".npz", allow_pickle=False)
    meta = json.loads(str(data["meta"]))
    grid = build_grid(meta["horizon"], meta["steps"], meta["scheme"])
    bundle = sample_paths(grid, meta["dims"], meta["paths"], meta["seed"])
    # files written before the range was saved were solved on [-5, 5]
    basis = RegressionBasis(meta["basis"], meta["basis_size"],
                            lo=meta.get("basis_lo", -5.0), hi=meta.get("basis_hi", 5.0))
    from .solver import SolutionField
    # the solvers' layout, whatever order the file was written in
    sol = SolutionField(Y=as_step_major(data["Y"]), Z=as_step_major(data["Z"]), grid=grid,
                        bundle=bundle, basis=basis, method="loaded")
    return sol, meta


def _cmd_verify_bounds(args) -> int:
    sol, meta = _load_solution(args.run)
    gen = make_generator(meta["generator"], meta["alpha"], beta=meta["beta"],
                         gamma=meta["gamma"], d=meta["dims"], expression=meta.get("expression"))
    prof = gen.profile
    constants = derive_constants(meta["alpha"], meta["horizon"], prof.beta, prof.gamma)
    xi = make_terminal(meta["terminal"], value=meta["terminal_value"],
                       bound=meta["terminal_bound"], shift=meta["terminal_shift"])
    idx = TruncationIndex(meta["n_max"], meta["q_max"])
    xi_vals = truncate_terminal(xi, idx)(sol.bundle.terminal())

    if args.bound == "pointwise":
        r = bounds_mod.verify_pointwise_bound(sol, constants, xi_vals, prof.f, "two-sided")
    elif args.bound == "pointwise-one-sided":
        r = bounds_mod.verify_pointwise_bound(sol, constants, xi_vals, prof.f, "one-sided")
    elif args.bound == "sup":
        r = bounds_mod.verify_sup_bound(sol, constants, xi_vals, prof.f, p=args.p)
    elif args.bound == "fhat-moment":
        fh = bounds_mod.fhat_process(prof, sol)
        chk = bounds_mod.verify_fhat_moment(fh, sol.grid, args.p, constants.alpha_star,
                                            gamma=prof.convexity_tier()[2], z_prime=sol.Z)
        print(f"fhat moment: log value {chk.moment.log_value!r} "
              f"(rel se {chk.moment.se_rel!r}); jensen consistent: {chk.jensen_consistent}")
        return 0 if chk.jensen_consistent else 1
    elif args.bound == "comparison":
        xi_hi = make_terminal(meta["terminal"], value=meta["terminal_value"],
                              bound=meta["terminal_bound"], shift=meta["terminal_shift"] + 1.0)
        gen_t = truncate_generator(gen, idx)
        sol_hi = solve_bounded(gen_t, truncate_terminal(xi_hi, idx), sol.grid, sol.bundle, sol.basis)
        sol_lo = solve_bounded(gen_t, truncate_terminal(xi, idx), sol.grid, sol.bundle, sol.basis)
        r = bounds_mod.verify_comparison(sol_lo, sol_hi, xi_values=xi_vals,
                                         xi_prime_values=truncate_terminal(xi_hi, idx)(sol.bundle.terminal()))
    else:
        raise ConfigurationError(f"unknown bound {args.bound!r}; ids: {', '.join(_BOUND_IDS)}")
    if args.out:
        _write_csv(Path(args.out), r.columns())
    print(f"bound {r.bound_id}: {r.verdict} (min margin {float(np.min(r.margin_min))!r})")
    return 0 if r.verdict == "satisfied" else 1


def _cmd_lemma_tests(args) -> int:
    families = FAMILY_REGISTRY[args.lemma]
    names = [args.family] if args.family else list(families)
    samples = lemma_samples(args.samples, seed=args.seed)
    status = 0
    for name in names:
        if name not in families:
            raise ConfigurationError(f"unknown family {name!r} for {args.lemma}; "
                                     f"have: {', '.join(families)}")
        f = families[name](args.seed)
        if args.lemma == "A1":
            r = lemmaA1_check(f, f.k1, f.k2, samples)
            extra = ""
        elif args.lemma == "A2":
            con = construct_A2_envelope(f, f.a, f.k)
            r = lemmaA2_check(f, f.a, f.k, samples, construction=con)
            extra = f"; remainder {remainder_check(con, samples).verdict}"
        else:
            con = construct_A3_envelope(f, f.a, f.k)
            r = lemmaA3_check(f, f.a, f.k, samples, construction=con)
            extra = f"; remainder {remainder_check(con, samples).verdict}"
        print(f"{args.lemma}/{name}: {r.verdict} (worst margin {r.worst_margin!r}){extra}")
        if r.verdict != "pass":
            status = 1
    return status


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="subquad-bsde",
                                description="BSDE simulation and verification toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def add_generator_args(sp):
        sp.add_argument("--generator", default="example1", choices=GENERATOR_IDS)
        sp.add_argument("--expression", default=None)
        sp.add_argument("--alpha", type=float, default=1.5)
        sp.add_argument("--beta", type=float, default=0.5)
        sp.add_argument("--gamma", type=float, default=0.25)
        sp.add_argument("--dims", type=int, default=1)
        sp.add_argument("--horizon", type=float, default=1.0)
        sp.add_argument("--seed", type=int, default=7)

    sp = sub.add_parser("check-conditions", help="sampled verdict for one structural condition")
    add_generator_args(sp)
    sp.add_argument("--condition", required=True)
    sp.add_argument("--samples", type=int, default=20000)
    sp.add_argument("--strategy", default="random",
                    choices=("random", "grid", "adversarial-corner"))
    sp.set_defaults(fn=_cmd_check_conditions)

    sp = sub.add_parser("solve", help="truncation-ladder solve, write solution + summary CSV")
    add_generator_args(sp)
    sp.add_argument("--terminal", default="clamp-bt", choices=TERMINAL_IDS)
    sp.add_argument("--terminal-value", type=float, default=0.0)
    sp.add_argument("--terminal-bound", type=float, default=3.0)
    sp.add_argument("--terminal-shift", type=float, default=0.0)
    sp.add_argument("--steps", type=int, default=24)
    sp.add_argument("--scheme", default="uniform", choices=("uniform", "geometric"))
    sp.add_argument("--paths", type=int, default=20000)
    sp.add_argument("--ladder", type=int, nargs=2, default=(16, 16),
                    metavar=("N_MAX", "Q_MAX"))
    sp.add_argument("--basis", default="polynomial",
                    choices=("polynomial", "piecewise-constant-bins"))
    sp.add_argument("--basis-size", type=int, default=3)
    sp.add_argument("--basis-lo", type=float, default=-5.0)
    sp.add_argument("--basis-hi", type=float, default=5.0)
    sp.add_argument("--out", default="solution.npz")
    sp.set_defaults(fn=_cmd_solve)

    sp = sub.add_parser("verify-bounds", help="check an a-priori bound on a saved solution")
    sp.add_argument("--run", required=True, help="solution .npz written by solve")
    sp.add_argument("--bound", required=True, choices=_BOUND_IDS)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--out", default=None, help="optional CSV path")
    sp.set_defaults(fn=_cmd_verify_bounds)

    sp = sub.add_parser("lemma-tests", help="randomized sweeps of the band inequalities")
    sp.add_argument("--lemma", required=True, choices=("A1", "A2", "A3"))
    sp.add_argument("--family", default=None)
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=_cmd_lemma_tests)

    sp = sub.add_parser("run", help="full pipeline from a config file")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--paths", type=int, default=None)
    sp.add_argument("--steps", type=int, default=None)
    sp.set_defaults(fn=_cmd_run)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigurationError as exc:
        for msg in exc.messages:
            print(f"config error: {msg}", file=sys.stderr)
        return 2
    except Exception as exc:                     # noqa: BLE001 - exit-code contract
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
