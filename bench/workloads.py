"""The three benchmark workloads: inputs from a seed, the timed section, and its gates.

Every workload calls the toolkit through module attributes (``solver.solve_bounded``,
not a name imported once), so the tracer's rebinding in `tracer.instrument`
sees every call.  Sizes are fixed here and are the same for every seed.  They
are well below the acceptance sizes (10^5 paths), so that one run fits at
least two repetitions of setup + timed section into its time budget.
"""

from __future__ import annotations

import gc
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from subquad_bsde import bounds, cli, conditions, constants, envelopes, generators, paths, solver
from subquad_bsde.families import FAMILY_REGISTRY

ALPHA = 1.5
BINS30 = dict(kind="piecewise-constant-bins", size=30, lo=-4.8, hi=4.8)


@dataclass(frozen=True)
class Workload:
    name: str
    paths: int
    held_out_seed: int           # reserved for re-checking a claim; never used while tuning
    setup: Callable              # (seed, paths, out_dir) -> inputs dict; inputs["seeds"] names them
    run: Callable                # inputs -> outputs: the timed section
    gates: Callable              # (inputs, outputs) -> [(operation, ok)]
    digest: Callable             # (inputs, outputs) -> hex digest of the outputs


def _hash(*items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(np.ascontiguousarray(item).tobytes() if isinstance(item, np.ndarray)
                 else repr(item).encode())
    return h.hexdigest()


def _finite(*arrays) -> bool:
    return all(bool(np.all(np.isfinite(a))) for a in arrays)


# ---------------------------------------------------------------------------
# run-ladder-bins: `subquad-bsde run` on the acceptance config
# ---------------------------------------------------------------------------

LADDER_JOBS = 9
LADDER_CONDITIONS = ("EX1", "EX2", "UNprime-i")
LADDER_BOUNDS = ("pointwise", "sup", "comparison")
LADDER_CONFIG = """
[experiment]
generator = example1
terminal = clamp-bt
terminal_bound = 3.0
alpha = 1.5
beta = 0.5
gamma = 0.25
steps = 24
paths = {paths}
seed = {seed}
basis = piecewise-constant-bins
basis_size = 30
basis_lo = -4.8
basis_hi = 4.8
ladder = 1, 2, 4, 8, 16
checks = {checks}
out = {out}
"""


def _ladder_setup(seed, n_paths, out_dir):
    # The fixed-point work of the kinked driver depends on the paths seed (fallback
    # steps and driver calls per ladder differ by tens of percent between seeds),
    # so one repetition runs LADDER_JOBS experiments on consecutive seeds: the
    # spread between runs on different --seed values shrinks with their number.
    seeds = [LADDER_JOBS * seed + i for i in range(LADDER_JOBS)]
    checks = ", ".join(LADDER_CONDITIONS + LADDER_BOUNDS)
    cfgs = [cli.parse_config(LADDER_CONFIG.format(paths=n_paths, seed=s, checks=checks,
                                                  out=f"{out_dir}/job{i}"))
            for i, s in enumerate(seeds)]
    # run_experiment draws its condition cloud from seed + 1
    return {"cfgs": cfgs, "seeds": {"paths": seeds, "cloud": [s + 1 for s in seeds]}}


def _ladder_run(inputs):
    reports = []
    for cfg in inputs["cfgs"]:
        gc.collect()        # each job starts from a collected heap, like a fresh `run` process
        reports.append(cli.run_experiment(cfg))
    return reports


def _ladder_gates(inputs, reports):
    expected = dict.fromkeys(LADDER_CONDITIONS, "pass") | dict.fromkeys(LADDER_BOUNDS, "satisfied")
    gates = []
    for cfg, report in zip(inputs["cfgs"], reports):
        gaps = report.ladder["diagonal_gaps"]
        verdicts = {r.condition_id: r.verdict for r in report.condition_reports}
        verdicts.update({r.bound_id.split("-")[0]: r.verdict for r in report.bound_results})
        gates += [(f"seed {cfg.seed}: ladder violation fraction <= 0.005",
                   report.ladder["violation_fraction"] <= 0.005),
                  (f"seed {cfg.seed}: ladder diagonal gaps non-increasing",
                   all(b <= a for a, b in zip(gaps, gaps[1:])))]
        gates += [(f"seed {cfg.seed}: {c} is {v}", verdicts.get(c) == v) for c, v in expected.items()]
    return gates


def _ladder_digest(inputs, reports):
    return _hash(*[(cfg.seed, p.name, p.read_bytes()) for cfg in inputs["cfgs"]
                   for p in sorted(Path(cfg.out).glob("*.csv"))])


# ---------------------------------------------------------------------------
# oracle-poly-picard: implicit sweep against the Picard iteration, polynomial basis
# ---------------------------------------------------------------------------

def _oracle_setup(seed, n_paths, out_dir):
    return {"grid": paths.build_grid(1.0, 64, "uniform"),
            "g": generators.make_generator("linear", ALPHA, b_y=-1.0, b_z=0.5),
            "xi": generators.make_terminal("clamp-bt", bound=3.0),
            "basis": paths.RegressionBasis("polynomial", 4),
            "n_paths": n_paths, "seeds": {"paths": seed}}


def _oracle_run(inputs):
    grid, g, xi, basis = inputs["grid"], inputs["g"], inputs["xi"], inputs["basis"]
    bundle = paths.sample_paths(grid, 1, inputs["n_paths"], inputs["seeds"]["paths"])
    implicit = solver.solve_bounded(g, xi, grid, bundle, basis)
    picard = solver.picard_solve(g, xi, grid, bundle, basis)
    return implicit, picard


def _oracle_gates(inputs, outputs):
    implicit, picard = outputs
    return [("solve_bounded finite", _finite(implicit.Y, implicit.Z)),
            ("picard_solve finite", _finite(picard.Y, picard.Z)),
            ("sup |Y_implicit - Y_picard| <= 5e-3",
             float(np.max(np.abs(implicit.Y - picard.Y))) <= 5e-3)]


def _oracle_digest(inputs, outputs):
    return _hash(*(a for sol in outputs for a in (sol.Y, sol.Z)))


# ---------------------------------------------------------------------------
# verify-bounds-residuals: the verification job on fields solved during setup
# ---------------------------------------------------------------------------

def _declared_conditions(g) -> list[str]:
    return sorted(f.removeprefix("satisfies-") for f in g.flags if f.startswith("satisfies-"))


def _verify_setup(seed, n_paths, out_dir):
    grid = paths.build_grid(1.0, 24, "uniform")
    bundle = paths.sample_paths(grid, 1, n_paths, seed)
    basis = paths.RegressionBasis(**BINS30)
    g1 = generators.make_generator("example1", ALPHA, beta=0.5, gamma=0.25)
    g2 = generators.make_generator("example2", ALPHA, beta=0.5, gamma=0.25)
    idx = generators.TruncationIndex(16, 16)
    gt = generators.truncate_generator(g1, idx)
    xi = generators.truncate_terminal(generators.make_terminal("clamp-bt", bound=3.0), idx)
    xi_hi = generators.truncate_terminal(
        generators.make_terminal("clamp-bt", bound=3.0, shift=1.0), idx)
    return {"grid": grid, "bundle": bundle, "g1": g1, "g2": g2, "gt": gt,
            "lo": solver.solve_bounded(gt, xi, grid, bundle, basis),
            "hi": solver.solve_bounded(gt, xi_hi, grid, bundle, basis),
            "xi_lo": xi(bundle.terminal()), "xi_hi": xi_hi(bundle.terminal()),
            "seeds": {"paths": seed, "cloud": seed + 1, "lemma": seed + 2}}


def _verify_run(inputs):
    g1, g2, gt, lo, hi = (inputs[k] for k in ("g1", "g2", "gt", "lo", "hi"))
    prof = g1.profile
    seeds = inputs["seeds"]
    out = {}

    cs = constants.derive_constants(ALPHA, 1.0, prof.beta, prof.gamma)
    out["constants"] = (cs.log_K.log, cs.K_p(2.0).log, cs.delta_p(2.0))

    out["conditions"] = []
    for strategy in ("random", "adversarial-corner"):
        cloud = conditions.build_cloud(1.0, 1, 20_000, strategy, seed=seeds["cloud"])
        for g in (g1, g2):
            for cid in _declared_conditions(g):
                check = conditions.check_growth if cid.startswith("EX") \
                    else conditions.check_theta_convexity
                out["conditions"].append((f"{g.name} {cid} {strategy}", check(g, cid, cloud)))

    samples = envelopes.lemma_samples(10_000, seed=seeds["lemma"])
    out["lemmas"] = []
    for lemma, families in FAMILY_REGISTRY.items():
        for name, make in families.items():
            f = make(0)
            if lemma == "A1":
                out["lemmas"].append((f"A1 {name}", envelopes.lemmaA1_check(f, f.k1, f.k2, samples)))
                continue
            construct, check = ((envelopes.construct_A2_envelope, envelopes.lemmaA2_check)
                                if lemma == "A2" else
                                (envelopes.construct_A3_envelope, envelopes.lemmaA3_check))
            con = construct(f, f.a, f.k)
            out["lemmas"].append((f"{lemma} {name}", check(f, f.a, f.k, samples, construction=con)))
            out["lemmas"].append((f"{lemma} {name} remainder", envelopes.remainder_check(con, samples)))

    xi_lo, xi_hi = inputs["xi_lo"], inputs["xi_hi"]
    out["bounds"] = [
        bounds.verify_pointwise_bound(lo, cs, xi_lo, prof.f, "two-sided"),
        bounds.verify_pointwise_bound(lo, cs, xi_lo, prof.f, "one-sided"),
        bounds.verify_sup_bound(lo, cs, xi_lo, prof.f, p=2.0),
        bounds.verify_comparison(lo, hi, xi_values=xi_lo, xi_prime_values=xi_hi),
    ]
    fhat = bounds.fhat_process(prof, lo)
    out["fhat"] = bounds.verify_fhat_moment(fhat, inputs["grid"], 2.0, cs.alpha_star,
                                            gamma=prof.convexity_tier()[2], z_prime=lo.Z)
    out["consistency"] = solver.consistency_residual(lo, gt)
    out["theta"] = solver.theta_residual(lo, hi, 0.5, g=gt, g_prime=gt)
    return out


def _verify_gates(inputs, out):
    return ([("pre-solve xi finite", _finite(inputs["lo"].Y, inputs["lo"].Z)),
             ("pre-solve xi + 1 finite", _finite(inputs["hi"].Y, inputs["hi"].Z)),
             ("constants finite", all(math.isfinite(v) for v in out["constants"]))]
            + [(f"condition {name} passes", r.verdict == "pass") for name, r in out["conditions"]]
            + [(f"lemma {name} passes", r.verdict == "pass") for name, r in out["lemmas"]]
            + [(f"bound {r.bound_id} satisfied", r.verdict == "satisfied") for r in out["bounds"]]
            + [("fhat moment Jensen-consistent", out["fhat"].jensen_consistent is True),
               ("consistency residual finite", _finite(out["consistency"])),
               ("theta residual finite", _finite(out["theta"].consistency, out["theta"].dU))])


def _verify_digest(inputs, out):
    return _hash(out["constants"],
                 [(n, r.verdict, r.worst_margin) for n, r in out["conditions"] + out["lemmas"]],
                 *[a for r in out["bounds"] for a in (r.log_lhs, r.log_rhs, r.margin_min)],
                 out["fhat"].moment.log_value, out["fhat"].jensen_majorant.log_value,
                 out["consistency"], out["theta"].consistency)


WORKLOADS = {
    "run-ladder-bins": Workload("run-ladder-bins", 5_000, 90_001,
                                _ladder_setup, _ladder_run, _ladder_gates, _ladder_digest),
    "oracle-poly-picard": Workload("oracle-poly-picard", 30_000, 90_002,
                                   _oracle_setup, _oracle_run, _oracle_gates, _oracle_digest),
    "verify-bounds-residuals": Workload("verify-bounds-residuals", 40_000, 90_003,
                                        _verify_setup, _verify_run, _verify_gates, _verify_digest),
}
