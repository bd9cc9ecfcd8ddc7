"""Experiment harness: seeded instance suites and per-formulation reports.

A spec fixes the instance distribution (size, count, sparsity, seed),
the formulations and penalty scales to compare, and the solver; the
report collects per-instance normalised energies (0 = optimal), success
flags and optional spectral-gap minima, plus their aggregates.  Each
solver run is priced by ``anneal.price``, which holds the one optimality
rule; an invalid output is charged the worst permutation's energy
f_worst, so invalid outputs are priced rather than dropped.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .anneal import (
    AnnealSchedule,
    SampleSet,
    _make_entries,
    evolve,
    evolve_trotter,
    measure,
    price,
    simulated_annealing,
)
from .errors import SIZE_CAPS, _check_json_types, check_size
from .qap import DistanceData, QapInstance, isometric_cost, permutation_extremes
from .qubo import build_formulation, normalize_couplings, to_spin, exhaustive_minimum
from .qubo import FORMULATIONS, _model_dim
from .spectral import build_hamiltonians, gap_profile
from .provenance import sha256_of_text

SOLVERS = ("brute", "sa", "schrodinger", "trotter")
# The tightest cap of errors.SIZE_CAPS that each solver meets on the model's size.
_SOLVER_CAPS = {"brute": ("enumeration",), "sa": (),
                "schrodinger": ("evolution",), "trotter": ("evolution",)}

# Every solver parameter: its default and its JSON type (see
# errors._has_json_type).  A solver reads the keys it uses and ignores
# the others.
SOLVER_DEFAULTS = {
    "sweeps": (100, int), "runs": (500, int), "schedule": (None, (None, [float])),  # sa
    "tau": (100.0, float), "steps": (None, (None, int)), "shots": (500, int),  # schrodinger, trotter
    "slices": (256, int),  # trotter
}


# JSON type of each spec field.
_SPEC_TYPES = {
    "n": int, "num_instances": int, "seed": int, "formulations": [str], "scales": [float],
    "sparsity": float, "solver": str, "solver_params": dict, "gap_samples": int,
}


def _is_count(value) -> bool:
    """Whether ``value`` is an integer >= 1 (a bool is not)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1


def _is_number(value) -> bool:
    """Whether ``value`` is a number (a bool is not)."""
    return isinstance(value, (int, float, np.number)) and not isinstance(value, bool)


def _check_solver_params(params) -> None:
    """Refuse a solver_params mapping with an unknown key or an out-of-range value."""
    if not isinstance(params, dict):
        raise ValueError(f"solver_params must be a mapping, got {params!r}")
    unknown = sorted(set(params) - set(SOLVER_DEFAULTS))
    if unknown:
        raise ValueError(
            f"unknown solver_params key(s) {unknown}; expected among {sorted(SOLVER_DEFAULTS)}"
        )
    for key in ("runs", "sweeps", "shots", "slices", "steps"):
        value = params.get(key)
        if key in params and not (_is_count(value) or key == "steps" and value is None):
            raise ValueError(f"solver_params {key} must be an integer >= 1, got {value!r}")
    tau = params.get("tau")
    if "tau" in params and not (_is_number(tau) and np.isfinite(tau) and tau > 0):
        raise ValueError(f"solver_params tau must be finite and positive, got {tau!r}")
    schedule = params.get("schedule")
    if schedule is not None and not (
        len(schedule) == 2 and all(np.isfinite(t) and t > 0 for t in schedule)
    ):
        raise ValueError(f"solver_params schedule must be null or two positive numbers, got {schedule!r}")


@dataclass
class ExperimentSpec:
    """Configuration of one benchmark run."""

    n: int
    num_instances: int
    seed: int
    formulations: tuple = FORMULATIONS
    scales: tuple = (1.0,)
    sparsity: float = 0.0
    solver: str = "brute"
    solver_params: dict = field(default_factory=dict)
    gap_samples: int = 0

    def __post_init__(self):
        self.n = int(self.n)
        self.num_instances = int(self.num_instances)
        self.seed = int(self.seed)
        self.formulations = tuple(self.formulations)
        self.scales = tuple(float(s) for s in self.scales)
        self.sparsity = float(self.sparsity)
        self.gap_samples = int(self.gap_samples)
        if self.num_instances < 1:
            raise ValueError("num_instances must be at least 1")
        if not self.formulations:
            raise ValueError("formulations must be nonempty")
        for f in self.formulations:
            if f not in FORMULATIONS:
                raise ValueError(f"unknown formulation {f!r}")
        if not self.scales:
            raise ValueError("scales must be nonempty")
        for s in self.scales:
            if not (np.isfinite(s) and s > 0.0):
                raise ValueError(f"scales must be finite and positive, got {s}")
        if not 0.0 <= self.sparsity < 1.0:
            raise ValueError(f"sparsity must lie in [0, 1), got {self.sparsity}")
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}; expected one of {SOLVERS}")
        _check_solver_params(self.solver_params)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "num_instances": self.num_instances,
            "seed": self.seed,
            "formulations": list(self.formulations),
            "scales": list(self.scales),
            "sparsity": self.sparsity,
            "solver": self.solver,
            "solver_params": self.solver_params,
            "gap_samples": self.gap_samples,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        if not isinstance(data, dict):
            raise ValueError(f"experiment spec must be a JSON object, got {data!r}")
        for key in ("n", "num_instances", "seed"):
            if key not in data:
                raise ValueError(f"experiment spec is missing field {key!r}")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown experiment spec key(s) {unknown}")
        _check_json_types(data, _SPEC_TYPES, "experiment spec")
        _check_json_types(data.get("solver_params", {}),
                          {k: kind for k, (_, kind) in SOLVER_DEFAULTS.items()},
                          "experiment spec solver_params")
        return cls(**data)

    @classmethod
    def load(cls, path) -> "ExperimentSpec":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True), encoding="utf-8")


def generate_instances(spec: ExperimentSpec) -> list[QapInstance]:
    """Seeded i.i.d. uniform [-1, 1] instances, optionally sparsified.

    With sparsity s > 0, exactly floor(s * (n^4 + n^2)) positions among
    all W and c entries (chosen uniformly without replacement) are set
    to zero.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    m = n * n
    instances = []
    for _ in range(spec.num_instances):
        W = rng.uniform(-1.0, 1.0, size=(m, m))
        c = rng.uniform(-1.0, 1.0, size=m)
        if spec.sparsity > 0.0:
            total = m * m + m
            k = int(spec.sparsity * total)
            idx = rng.choice(total, size=k, replace=False)
            flat_w = W.reshape(-1)
            w_idx = idx[idx < m * m]
            c_idx = idx[idx >= m * m] - m * m
            flat_w[w_idx] = 0.0
            c[c_idx] = 0.0
            W = flat_w.reshape(m, m)
        instances.append(QapInstance(n=n, W=W, c=c))
    return instances


def _instance_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _check_solver_size(n: int, formulations, solver: str, gaps: bool = False) -> None:
    """Refuse, before any work, a run that would hit a size cap: the oracle's on n, and
    the solver's and (with ``gaps``) the gap profiles' on the largest model."""
    top = max(_model_dim(f, n) for f in formulations)
    sizes = dict.fromkeys(_SOLVER_CAPS[solver] + (("hamiltonian",) if gaps else ()), top)
    sizes["oracle"] = n
    for what in SIZE_CAPS:
        if what in sizes:
            check_size(what, sizes[what])


def _solve(model, solver: str, params: dict, seed: int) -> SampleSet:
    """Run ``solver`` on ``model``; ``params`` overrides SOLVER_DEFAULTS."""
    params = {k: params.get(k, default) for k, (default, _) in SOLVER_DEFAULTS.items()}
    if solver == "brute":
        bits, _ = exhaustive_minimum(model)
        entries = _make_entries(bits[None, :], np.ones(1, dtype=int), model)
        return SampleSet(entries=entries, total=1, metadata={"solver": "brute"})
    if solver == "sa":
        return simulated_annealing(
            model,
            sweeps=int(params["sweeps"]),
            runs=int(params["runs"]),
            seed=seed,
            schedule=params["schedule"],
        )
    sched = AnnealSchedule(tau=float(params["tau"]), steps=params["steps"])
    spin, _ = normalize_couplings(to_spin(model))
    pair = build_hamiltonians(spin)
    if solver == "schrodinger":
        state = evolve(pair, sched)
        resolution = {"steps": sched.effective_steps()}
    else:
        slices = int(params["slices"])
        state = evolve_trotter(pair, sched, slices=slices)
        resolution = {"slices": slices}
    samples = measure(state, shots=int(params["shots"]), seed=seed, model=model)
    samples.metadata["solver"] = solver
    samples.metadata["schedule"] = {"tau": sched.tau, "path": [list(p) for p in sched.path], **resolution}
    return samples


def _run_instance(spec: ExperimentSpec, index: int, inst: QapInstance) -> dict:
    _, f_opt, _, f_worst = permutation_extremes(inst)
    run_seed = _instance_seed(spec.seed, index)
    record = {"instance": index, "f_opt": f_opt, "f_worst": f_worst, "results": []}
    for formulation in spec.formulations:
        for scale in spec.scales:
            model = build_formulation(inst, formulation, scale)
            priced = price(_solve(model, spec.solver, spec.solver_params, run_seed),
                           inst, f_opt, f_worst)
            result = {
                "formulation": formulation,
                "scale": scale,
                "normalized_energy": priced.normalized_energy,
                "success": priced.success,
                "valid": priced.valid,
                "most_frequent_bits": list(priced.most_frequent.bits),
                "success_fraction": priced.report.probability,
                "min_gap": None,
            }
            if spec.gap_samples > 0:
                result["min_gap"] = gap_profile(model, num_samples=spec.gap_samples).min_gap
            record["results"].append(result)
    return record


@dataclass
class BenchReport:
    """Per-instance records plus aggregates of one experiment."""

    spec: ExperimentSpec
    instances: list
    aggregates: dict
    provenance: dict

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "instances": self.instances,
            "aggregates": self.aggregates,
            "provenance": self.provenance,
            # Hardware-only quantities have no simulator analog; the keys
            # exist so report schemas line up without fabricated values.
            "not_applicable": {
                "chain_strength": None,
                "chain_length": None,
                "chain_breaks": None,
                "external_baseline_energy": None,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def save(self, path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([
                "instance", "formulation", "scale", "normalized_energy",
                "success", "success_fraction", "valid", "min_gap",
            ])
            for record in self.instances:
                for res in record["results"]:
                    writer.writerow([
                        record["instance"], res["formulation"], repr(res["scale"]),
                        repr(res["normalized_energy"]), int(res["success"]),
                        repr(res["success_fraction"]), int(res["valid"]),
                        "" if res["min_gap"] is None else repr(res["min_gap"]),
                    ])


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> BenchReport:
    """Run the configured suite, one instance after another, and aggregate."""
    # ``workers`` stays only for perfbench/workloads.py; it goes with the next benchmark change.
    if workers != 1:
        raise ValueError(f"instances run serially; workers must be 1, got {workers!r}")
    _check_solver_size(spec.n, spec.formulations, spec.solver, gaps=spec.gap_samples > 0)
    records = [_run_instance(spec, i, inst) for i, inst in enumerate(generate_instances(spec))]

    aggregates = {}
    for formulation in spec.formulations:
        for scale in spec.scales:
            rows = [
                res
                for record in records
                for res in record["results"]
                if res["formulation"] == formulation and res["scale"] == scale
            ]
            key = f"{formulation}@{scale!r}"
            gaps = [r["min_gap"] for r in rows if r["min_gap"] is not None]
            aggregates[key] = {
                "formulation": formulation,
                "scale": scale,
                "mean_normalized_energy": float(np.mean([r["normalized_energy"] for r in rows])),
                "mean_success": float(np.mean([r["success"] for r in rows])),
                "mean_success_fraction": float(np.mean([r["success_fraction"] for r in rows])),
                "mean_min_gap": float(np.mean(gaps)) if gaps else None,
            }
    spec_json = json.dumps(spec.to_dict(), sort_keys=True)
    provenance = {
        "version": __version__,
        "seed": spec.seed,
        "spec_hash": sha256_of_text(spec_json),
    }
    return BenchReport(spec=spec, instances=records, aggregates=aggregates, provenance=provenance)


def mean_color_sorting_instance(colors, grid_side: int) -> QapInstance:
    """Assignment costs for arranging colors on a square grid.

    d1 is the pairwise Euclidean distance between the given colors
    (one triple per grid cell), d2 the Euclidean distance between grid
    coordinates (index k sits at row k // side, column k % side); the
    costs reward layouts where color distance mirrors grid distance.
    """
    colors = np.asarray(colors, dtype=float)
    if colors.ndim != 2 or colors.shape[0] != grid_side**2:
        raise ValueError(
            f"expected {grid_side**2} color vectors, got array of shape {colors.shape}"
        )
    diff = colors[:, None, :] - colors[None, :, :]
    d1 = np.sqrt((diff**2).sum(axis=2))
    coords = np.array([(k // grid_side, k % grid_side) for k in range(grid_side**2)], dtype=float)
    gdiff = coords[:, None, :] - coords[None, :, :]
    d2 = np.sqrt((gdiff**2).sum(axis=2))
    return isometric_cost(DistanceData(d1=d1, d2=d2))


PRESETS = {
    # Gap-versus-penalty-strength scan across all formulations.
    "gap-scan": dict(
        num_instances=10, formulations=FORMULATIONS, scales=(1.0, 2.0, 3.0, 4.0, 5.0),
        solver="brute", gap_samples=33, default_n=3,
    ),
    # Dense random instances solved by repeated annealing runs.
    "random-dense": dict(
        num_instances=10, formulations=FORMULATIONS, scales=(1.0,),
        solver="sa", solver_params={"runs": 500, "sweeps": 200}, default_n=3,
    ),
    # Per-run optimum probability against the 1/n! guessing reference.
    "success-probability": dict(
        num_instances=10, formulations=FORMULATIONS, scales=(1.0,),
        solver="sa", solver_params={"runs": 500, "sweeps": 100}, default_n=4,
    ),
    # Large simulated-annealing comparison of the three formulations.
    "sa-comparison": dict(
        num_instances=10, formulations=FORMULATIONS, scales=(1.0,),
        solver="sa", solver_params={"runs": 5000, "sweeps": 50}, default_n=4,
    ),
}


def preset_spec(name: str, n: int | None = None, seed: int = 0) -> ExperimentSpec:
    """Instantiate a named preset, optionally overriding the instance size."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    cfg = dict(PRESETS[name])
    default_n = cfg.pop("default_n")
    return ExperimentSpec(n=n if n is not None else default_n, seed=seed, **cfg)
