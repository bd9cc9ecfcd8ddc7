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

import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .anneal import (
    AnnealSchedule,
    SampleSet,
    _check_evolution_request,
    _check_sa_request,
    evolve,
    evolve_trotter,
    measure,
    price,
    simulated_annealing,
)
from .errors import _check_json_types, _json_fields, check_count, check_distinct, check_positive
from .errors import check_size, read_json, write_csv
from .qap import DistanceData, QapInstance, isometric_cost, permutation_extremes
from .qubo import build_formulation, exhaustive_minimum
from .qubo import FORMULATIONS, _model_dim
from .spectral import _check_gap_request, annealing_hamiltonian, gap_profile

# Every solver and its request check on the model's size and every solver parameter
# (``_with_defaults``): the check that the solver's Python entry makes, size cap first.
SOLVERS = {
    "brute": lambda dim, params: check_size("enumeration", dim),
    "sa": lambda dim, params: _check_sa_request(params["runs"], params["sweeps"], dim),
    "schrodinger": lambda dim, params: _check_evolution_request(dim, AnnealSchedule(
        tau=params["tau"], steps=params["steps"]).effective_steps()),
    "trotter": lambda dim, params: _check_evolution_request(dim, params["slices"]),
}


def _check_schedule(what: str, value) -> None:
    """Refuse an SA schedule that is not two finite positive temperatures."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"{what} must be null or two temperatures, got {value!r}")
    for t in value:
        check_positive(what, t)


# Every solver parameter: its default, its JSON type (see
# errors._fault) and its range rule.  A solver reads the keys it
# uses and ignores the others.  `solve` has a flag for each number-valued row.
SOLVER_DEFAULTS = {
    "sweeps": (100, int, check_count), "runs": (500, int, check_count),  # sa
    "schedule": (None, (None, [float]), _check_schedule),  # sa
    "tau": (100.0, float, check_positive), "steps": (None, (None, int), check_count),
    "shots": (500, int, check_count),  # schrodinger, trotter
    "slices": (256, int, check_count),  # trotter
}


# JSON type of each spec field, and the fields to_dict writes.
_SPEC_TYPES = {
    "n": int, "num_instances": int, "seed": int, "formulations": [str], "scales": [float],
    "sparsity": float, "solver": str, "solver_params": dict, "gap_samples": int,
}
# JSON type of each report field that `report` reads, per level; the top level's are
# the fields to_dict writes, and a result's are the report CSV's columns after `instance`.
_REPORT_TYPES = {"spec": dict, "instances": [dict], "aggregates": dict, "provenance": dict}
_AGGREGATE_TYPES = {"mean_normalized_energy": float, "mean_success": float,
                    "mean_min_gap": (None, float)}
_RECORD_TYPES = {"instance": int, "results": [dict]}
_RESULT_TYPES = {
    "formulation": str, "scale": float, "normalized_energy": float, "success": bool,
    "success_fraction": float, "valid": bool, "min_gap": (None, float),
}
# The result fields that an aggregate averages, each as mean_<field>.
_AVERAGED = ("normalized_energy", "success", "success_fraction", "min_gap")


def _check_solver_params(params, name: str = "solver_params {}") -> None:
    """Refuse a solver_params mapping with an unknown key or an out-of-range value,
    naming a key by ``name`` (a spec's "solver_params tau", solve's "--tau")."""
    if not isinstance(params, dict):
        raise ValueError(f"solver_params must be a mapping, got {params!r}")
    unknown = sorted(set(params) - set(SOLVER_DEFAULTS))
    if unknown:
        raise ValueError(
            f"unknown solver_params key(s) {unknown}; expected among {sorted(SOLVER_DEFAULTS)}"
        )
    for key, value in params.items():
        default, _, rule = SOLVER_DEFAULTS[key]
        if value is not None or default is not None:  # null asks for the solver's own rule
            rule(name.format(key), value)


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
        self.n = check_count("n", self.n)
        self.num_instances = check_count("num_instances", self.num_instances)
        self.seed = check_count("seed", self.seed, least=0)
        self.formulations = tuple(self.formulations)
        self.scales = tuple(check_positive("scale", s) for s in self.scales)
        self.sparsity = float(self.sparsity)
        # 0 computes no gaps; a profile needs two points.
        self.gap_samples = check_count("gap_samples", self.gap_samples,
                                       least=0 if self.gap_samples == 0 else 2)
        if not self.formulations:
            raise ValueError("formulations must be nonempty")
        for f in self.formulations:
            if f not in FORMULATIONS:
                raise ValueError(f"unknown formulation {f!r}")
            _model_dim(f, self.n)  # refuses inserted below n = 2
        if not self.scales:
            raise ValueError("scales must be nonempty")
        check_distinct("formulations", self.formulations)
        check_distinct("scales", self.scales)
        if not 0.0 <= self.sparsity < 1.0:
            raise ValueError(f"sparsity must lie in [0, 1), got {self.sparsity}")
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}; expected one of {tuple(SOLVERS)}")
        _check_solver_params(self.solver_params)
        # A copy, so that editing one spec's parameters (a preset's) edits no other spec.
        self.solver_params = dict(self.solver_params)

    def to_dict(self) -> dict:
        return _json_fields(self, _SPEC_TYPES)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        _check_json_types(data, _SPEC_TYPES, "experiment spec",
                          required=("n", "num_instances", "seed"))
        unknown = sorted(set(data) - set(_SPEC_TYPES))
        if unknown:
            raise ValueError(f"unknown experiment spec key(s) {unknown}")
        _check_json_types(data.get("solver_params", {}),
                          {k: kind for k, (_, kind, _) in SOLVER_DEFAULTS.items()},
                          "experiment spec solver_params", required=())
        return cls(**data)

    @classmethod
    def load(cls, path) -> "ExperimentSpec":
        return read_json(path, cls.from_dict)


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
            flat = np.concatenate([W.reshape(-1), c])
            flat[rng.choice(flat.size, size=int(spec.sparsity * flat.size), replace=False)] = 0.0
            W, c = flat[:m * m].reshape(m, m), flat[m * m:]
        instances.append(QapInstance(n=n, W=W, c=c))
    return instances


def _instance_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _with_defaults(params: dict) -> dict:
    """Every solver parameter: ``params`` over SOLVER_DEFAULTS."""
    return {k: params.get(k, default) for k, (default, _, _) in SOLVER_DEFAULTS.items()}


def _check_solver_size(solver: str, dim: int, n: int | None = None, gap_samples: int = 0,
                       params: dict | None = None) -> None:
    """Refuse, before any work, a run that a cap would refuse later, with the same
    message: when an instance of size ``n`` is priced, the oracle's cap on n; then the
    solver's own request check (``SOLVERS``) on the largest model's ``dim`` and
    ``params``; then gap profiles of ``gap_samples`` points (``_check_gap_request``)."""
    if n is not None:
        check_size("oracle", n)
    SOLVERS[solver](dim, _with_defaults(params or {}))
    if gap_samples:
        _check_gap_request(dim, gap_samples)


def _solve(model, solver: str, params: dict, seed: int) -> SampleSet:
    """Run ``solver`` on ``model``; ``params`` overrides SOLVER_DEFAULTS."""
    params = _with_defaults(params)
    if solver == "brute":
        bits, _ = exhaustive_minimum(model)
        samples = SampleSet.from_states(model, bits[None, :], np.ones(1, dtype=int), {})
    elif solver == "sa":
        samples = simulated_annealing(model, sweeps=params["sweeps"], runs=params["runs"],
                                      seed=seed, schedule=params["schedule"])
    else:
        sched = AnnealSchedule(tau=params["tau"], steps=params["steps"])
        pair = annealing_hamiltonian(model)
        if solver == "schrodinger":
            state = evolve(pair, sched)
            resolution = {"steps": sched.effective_steps()}
        else:
            state = evolve_trotter(pair, sched, slices=params["slices"])
            resolution = {"slices": params["slices"]}
        samples = measure(state, shots=params["shots"], seed=seed, model=model)
        samples.metadata["schedule"] = {"tau": sched.tau, "path": [list(p) for p in sched.path],
                                        **resolution}
    samples.metadata["solver"] = solver
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
                "valid": priced.most_frequent.valid,
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
        return _json_fields(self, _REPORT_TYPES)

    @classmethod
    def from_dict(cls, data: dict) -> "BenchReport":
        """Check the fields that `report` reads: the spec, the aggregates and the records."""
        what = "benchmark report"
        _check_json_types(data, _REPORT_TYPES, what, required=("spec", "instances", "aggregates"))
        for key, agg in data["aggregates"].items():
            _check_json_types(agg, _AGGREGATE_TYPES, f"{what} aggregate {key!r}")
        for i, record in enumerate(data["instances"]):
            _check_json_types(record, _RECORD_TYPES, f"{what} instance record {i}")
            for res in record["results"]:
                _check_json_types(res, _RESULT_TYPES, f"{what} instance record {i} result")
        return cls(spec=ExperimentSpec.from_dict(data["spec"]), instances=data["instances"],
                   aggregates=data["aggregates"], provenance=data.get("provenance", {}))

    def to_csv(self, path) -> None:
        """One row per result: its instance, then its fields in the order of _RESULT_TYPES."""
        write_csv(path, ["instance", *_RESULT_TYPES],
                  ([record["instance"], *(res[key] for key in _RESULT_TYPES)]
                   for record in self.instances for res in record["results"]))


def _mean(values: list) -> float | None:
    """The mean of the non-null ``values``, or None when every one is null."""
    values = [v for v in values if v is not None]
    return float(np.mean(values)) if values else None


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> BenchReport:
    """Run the configured suite, one instance after another, and aggregate."""
    # ``workers`` stays only for perfbench/workloads.py; it goes with the next benchmark change.
    if workers != 1:
        raise ValueError(f"instances run serially; workers must be 1, got {workers!r}")
    top = max(_model_dim(f, spec.n) for f in spec.formulations)
    _check_solver_size(spec.solver, top, spec.n, gap_samples=spec.gap_samples,
                       params=spec.solver_params)
    records = [_run_instance(spec, i, inst) for i, inst in enumerate(generate_instances(spec))]

    # Every record holds one result per (formulation, scale) pair, in one order, so the
    # k-th results of all records form the k-th pair's aggregate.
    aggregates = {}
    for rows in zip(*(record["results"] for record in records)):
        formulation, scale = rows[0]["formulation"], rows[0]["scale"]
        aggregates[f"{formulation}@{scale!r}"] = {
            "formulation": formulation, "scale": scale,
            **{f"mean_{key}": _mean([r[key] for r in rows]) for key in _AVERAGED}}
    spec_json = json.dumps(spec.to_dict(), sort_keys=True)
    provenance = {
        "version": __version__,
        "seed": spec.seed,
        "spec_hash": hashlib.sha256(spec_json.encode("utf-8")).hexdigest(),
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
    "gap-scan": ExperimentSpec(
        n=3, num_instances=10, seed=0, scales=(1.0, 2.0, 3.0, 4.0, 5.0), solver="brute",
        gap_samples=33,
    ),
    # Dense random instances solved by repeated annealing runs.
    "random-dense": ExperimentSpec(
        n=3, num_instances=10, seed=0, solver="sa", solver_params={"runs": 500, "sweeps": 200},
    ),
    # Per-run optimum probability against the 1/n! guessing reference.
    "success-probability": ExperimentSpec(
        n=4, num_instances=10, seed=0, solver="sa", solver_params={"runs": 500, "sweeps": 100},
    ),
    # Large simulated-annealing comparison of the three formulations.
    "sa-comparison": ExperimentSpec(
        n=4, num_instances=10, seed=0, solver="sa", solver_params={"runs": 5000, "sweeps": 50},
    ),
}


def preset_spec(name: str, n: int | None = None, seed: int = 0) -> ExperimentSpec:
    """A named preset with its instance size (unless ``n`` overrides it) and ``seed``."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    preset = PRESETS[name]
    return replace(preset, n=preset.n if n is None else n, seed=seed)
