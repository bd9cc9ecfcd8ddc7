"""The benchmark's workloads: input generation, one timed repetition, checks.

Each workload draws a pool of inputs from the benchmark seed during
set-up; repetition k runs pool item k mod len(pool), so a run sees a new
instance on every repetition until the pool wraps.  The package only
receives the generated specs and instance files.  A repetition is one
closed-loop call sequence in this process with ``workers=1``.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import checks
from permqubo import bench, cli
from permqubo.bench import ExperimentSpec
from permqubo.qubo import FORMULATIONS

GAP_SCALES = (1.0, 2.0, 3.0, 4.0, 5.0)


# Full and smoke-test sizes per workload; "pool" is the number of distinct
# inputs drawn at set-up, more than a run at full size gets through.
SIZES = {
    "gap-scan": {
        "full": {"n": 3, "gap_samples": 33, "pool": 40},
        "tiny": {"n": 3, "gap_samples": 5, "pool": 3},
    },
    "anneal-9q": {
        "full": {"n": 3, "tau": 20.0, "pool": 40},
        "tiny": {"n": 3, "tau": 2.0, "steps": 10, "slices": 10, "shots": 50, "pool": 3},
    },
    "sa-16bit": {
        "full": {"n": 4, "runs": 500, "sweeps": 100, "pool": 200},
        "tiny": {"n": 4, "runs": 20, "sweeps": 5, "pool": 3},
    },
    "cli-solve-n8": {
        "full": {"n": 8, "runs": 500, "sweeps": 10, "pool": 32},
        "tiny": {"n": 4, "runs": 20, "sweeps": 2, "pool": 3},
    },
}


def _item_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _specs(name: str, params: dict, seed: int, index: int) -> list[ExperimentSpec]:
    base = {"n": params["n"], "num_instances": 1, "seed": seed}
    if name == "gap-scan":
        # One scale column of the preset per repetition, cycling through all
        # five: a whole preset instance takes ~10 s and its time varies by
        # ~20% with the instance, so a run must average over many instances.
        return [ExperimentSpec(**base, scales=(GAP_SCALES[index % len(GAP_SCALES)],),
                               solver="brute", gap_samples=params["gap_samples"])]
    if name == "anneal-9q":
        solver_params = {k: params[k] for k in ("tau", "steps", "slices", "shots") if k in params}
        return [ExperimentSpec(**base, solver=solver, solver_params=solver_params)
                for solver in ("schrodinger", "trotter")]
    return [ExperimentSpec(**base, solver="sa",
                           solver_params={"runs": params["runs"], "sweeps": params["sweeps"]})]


def setup(name: str, seed: int, tiny: bool, workdir) -> list[dict]:
    """Generate the input pool; the CLI workload also writes instance files."""
    params = SIZES[name]["tiny" if tiny else "full"]
    pool = []
    for i in range(params["pool"]):
        item_seed = _item_seed(seed, i)
        spec = ExperimentSpec(n=params["n"], num_instances=1, seed=item_seed)
        item = {"seed": item_seed, "instance": bench.generate_instances(spec)[0]}
        if name == "cli-solve-n8":
            item["path"] = Path(workdir) / f"instance-{i}.json"
            item["instance"].save(item["path"])
        else:
            item["specs"] = _specs(name, params, item_seed, i)
        pool.append(item)
    return pool


def solves_per_rep(name: str) -> int:
    return 2 * len(FORMULATIONS) if name == "anneal-9q" else len(FORMULATIONS)


def run(name: str, params: dict, item: dict, workdir):
    """One timed repetition; returns what the checks need."""
    if name != "cli-solve-n8":
        # Called through the module so the traced pass sees the call.
        return [bench.run_experiment(spec, workers=1) for spec in item["specs"]]
    codes = []
    for f in FORMULATIONS:
        argv = [
            "solve", "--instance", str(item["path"]), "--formulation", f,
            "--solver", "sa", "--runs", str(params["runs"]), "--sweeps", str(params["sweeps"]),
            "--seed", str(item["seed"] % 2**31),
            "--out", str(Path(workdir) / f"out-{f}.json"),
            "--hist-out", str(Path(workdir) / f"hist-{f}.csv"),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main(argv))
    return codes


def _references(item: dict) -> tuple[float, float]:
    if "ref" not in item:
        inst = item["instance"]
        item["ref"] = checks.qap_optimum(inst.W, inst.c, inst.n)
    return item["ref"]


def check(name: str, item: dict, output, calls: list, workdir) -> list[dict]:
    """Per-solve outcome dicts: failures (list of messages), success, fraction.

    ``calls`` holds the captured (name, args, kwargs, result) solver calls of
    the repetition in call order, one per solve of each kind.
    """
    inst = item["instance"]
    W, c, n = inst.W, inst.c, inst.n
    f_opt, f_worst = _references(item)
    by_name = {}
    for call in calls:
        by_name.setdefault(call[0], []).append(call)

    if name == "cli-solve-n8":
        sa_calls = by_name.get("simulated_annealing", [])
        return [
            _check_cli_solve(f, code, sa_calls[i] if i < len(sa_calls) else None,
                             W, c, n, f_opt, f_worst, workdir)
            for i, (f, code) in enumerate(zip(FORMULATIONS, output))
        ]

    outcomes = []
    sampler = {"anneal-9q": "measure", "sa-16bit": "simulated_annealing"}.get(name)
    samplesets = iter(by_name.get(sampler, []))
    profiles = iter(by_name.get("gap_profile", []))
    states = iter(by_name.get("evolve", []) + by_name.get("evolve_trotter", []))
    for report in output:
        record = report.instances[0]
        head = []
        if not (checks.close(record["f_opt"], f_opt) and checks.close(record["f_worst"], f_worst)):
            head.append(f"oracle ({record['f_opt']!r}, {record['f_worst']!r}) != ({f_opt!r}, {f_worst!r})")
        for result in record["results"]:
            failures = head + checks.check_result(result, n, W, c, f_opt, f_worst)
            if name == "gap-scan":
                failures += _check_gap_solve(result, next(profiles, None), n, W, c, f_opt, f_worst)
            else:
                if name == "anneal-9q":
                    state = next(states, None)
                    failures += ["missing final state"] if state is None else checks.check_norm(state[3])
                failures += _check_samples(result, next(samplesets, None), n, W, c, f_opt)
            outcomes.append({"failures": failures, "success": bool(result["success"]),
                             "fraction": float(result["success_fraction"])})
    return outcomes


def _check_gap_solve(result, call, n, W, c, f_opt, f_worst) -> list[str]:
    if call is None:
        return ["missing gap profile"]
    failures = checks.check_gap(call[1][0], call[3], result["min_gap"])
    found = checks.normalized_energy(result["formulation"], n, W, c,
                                     result["most_frequent_bits"], f_opt, f_worst)
    if not checks.is_optimal(found, f_opt):
        failures.append(f"brute solver missed the optimum by {found!r}")
    return failures


def _check_samples(result, call, n, W, c, f_opt) -> list[str]:
    if call is None:
        return ["missing sample set"]
    _, args, kwargs, samples = call
    model = kwargs.get("model", args[0] if args else None)
    entries = [e.to_dict() for e in samples.entries]
    failures = checks.check_entries(entries, model, W, c)
    expected = checks.success_fraction(entries, n, W, c, f_opt)
    if abs(expected - result["success_fraction"]) > 1e-12:
        failures.append(f"success fraction {result['success_fraction']!r} != recomputed {expected!r}")
    return failures


def _check_cli_solve(formulation, code, call, W, c, n, f_opt, f_worst, workdir) -> dict:
    if code != 0 or call is None:
        return {"failures": [f"solve --formulation {formulation} exited {code}"],
                "success": False, "fraction": 0.0}
    workdir = Path(workdir)
    try:
        payload = json.loads((workdir / f"out-{formulation}.json").read_text(encoding="utf-8"))
        summary = payload["summary"]
        entries = payload["entries"]
        hist_total = sum(
            int(line.split(",")[1])
            for line in (workdir / f"hist-{formulation}.csv").read_text(encoding="utf-8").splitlines()[1:]
        )
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return {"failures": [f"unreadable output: {exc!r}"], "success": False, "fraction": 0.0}
    failures = checks.check_entries(entries, call[1][0], W, c)
    expected = checks.normalized_energy(formulation, n, W, c, summary["most_frequent"]["bits"],
                                        f_opt, f_worst)
    reported = summary["most_frequent_normalized_energy"]
    if not checks.close(reported, expected, rtol=1e-8):
        failures.append(f"summary normalized energy {reported!r} != recomputed {expected!r}")
    fraction = checks.success_fraction(entries, n, W, c, f_opt)
    if abs(fraction - summary["success"]["probability"]) > 1e-12:
        failures.append("summary success probability disagrees with the samples")
    if hist_total != payload["total"]:
        failures.append(f"histogram counts {hist_total} != total {payload['total']}")
    return {"failures": failures, "success": checks.is_optimal(expected, f_opt),
            "fraction": float(summary["success"]["probability"])}
