"""Call-site instrumentation for the benchmark: output capture and layer spans.

Both mechanisms replace a permqubo function in every permqubo module
namespace that binds it (``permqubo.bench.gap_profile``,
``permqubo.anneal.decode``, ...), so calls between modules go through the
wrapper, and put the originals back on exit.  Nothing inside the package
changes.

* Capture keeps the arguments and result of a few coarse calls whose
  outputs the package drops (final states, gap profiles, sample sets) so
  the benchmark can check them.  It runs in every pass; it adds one
  Python call per solver invocation.
* Tracing records a span (repetition id, span id, parent id, name,
  start, end, attributes) around each public call into a layer and
  counts ``HamiltonianPair.apply`` matvecs on the innermost open span.
  Spans stay in memory until the run writes them out.  It runs only in
  the traced pass.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import math
from collections import defaultdict
from time import perf_counter

import permqubo
from permqubo import anneal, bench, cli, qap, qubo, spectral

MODULES = (permqubo, bench, cli, qap, qubo, spectral, anneal)
LAYERS = ("bench", "cli", "qap", "qubo", "spectral", "anneal")


_EVOLVE_SIGNATURE = inspect.signature(anneal.evolve)


def _steps(args, kwargs, result):
    sched = _EVOLVE_SIGNATURE.bind(*args, **kwargs).arguments["sched"]
    return {"steps": sched.effective_steps()}


def _flips(args, kwargs, result):
    meta = result.metadata
    return {"flips": meta["runs"] * meta["sweeps"] * len(result.entries[0].bits)}


def _perms(args, kwargs, result):
    return {"perms": math.factorial(args[0].n)}


def _valid(args, kwargs, result):
    return {"valid": result is not None}


# Span name -> (original function, attribute extractor or None).
TRACED = {
    "bench.run_experiment": (bench.run_experiment, None),
    "bench.generate": (bench.generate_instances, None),
    "cli.main": (cli.main, None),
    "qap.brute_force": (qap.brute_force_qap, _perms),
    "qap.worst": (qap.worst_permutation, _perms),
    "qubo.build": (qubo.build_formulation, None),
    "qubo.decode": (qubo.decode, _valid),
    "qubo.exhaustive": (qubo.exhaustive_minimum, None),
    "qubo.to_spin": (qubo.to_spin, None),
    "qubo.normalize": (qubo.normalize_couplings, None),
    "spectral.profile": (spectral.gap_profile, None),
    "spectral.hamiltonian": (spectral.build_hamiltonians, None),
    "spectral.eigensolve": (spectral.two_lowest_eigenvalues, None),
    "spectral.eigsh": (spectral.eigsh, None),
    "anneal.evolve": (anneal.evolve, _steps),
    "anneal.trotter": (anneal.evolve_trotter, None),
    "anneal.measure": (anneal.measure, None),
    "anneal.sa": (anneal.simulated_annealing, _flips),
    "anneal.most_frequent": (anneal.most_frequent, None),
    "anneal.success_probability": (anneal.success_probability, None),
}

CAPTURED = {
    "gap_profile": spectral.gap_profile,
    "evolve": anneal.evolve,
    "evolve_trotter": anneal.evolve_trotter,
    "measure": anneal.measure,
    "simulated_annealing": anneal.simulated_annealing,
}


@contextlib.contextmanager
def _rebound(replacements: dict, apply=None):
    """Rebind each original function (keyed by id) in every module that binds it."""
    saved = []
    try:
        for mod in MODULES:
            for name, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    saved.append((mod, name, value))
                    setattr(mod, name, hit[1])
        if apply is not None:
            saved.append((spectral.HamiltonianPair, "apply", spectral.HamiltonianPair.apply))
            spectral.HamiltonianPair.apply = apply
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


class Capture:
    """Records (name, args, kwargs, result) of the CAPTURED calls."""

    def __init__(self):
        self.calls = []

    def wrap(self, name, fn):
        def captured(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.calls.append((name, args, kwargs, result))
            return result
        return captured

    def take(self) -> list:
        calls, self.calls = self.calls, []
        return calls


class Tracer:
    """In-memory span recorder for the traced pass."""

    def __init__(self):
        self.spans = []  # [rep, id, parent, name, start, end, attrs]
        self.matvecs = defaultdict(int)  # span id -> apply calls made directly under it
        self.rep = 0
        self._stack = []

    def wrap(self, name, fn, extract=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [self.rep, sid, stack[-1] if stack else None, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(sid)
            span[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                stack.pop()
            if extract is not None:
                span[6] = extract(args, kwargs, result)
            return result
        return traced

    def counting_apply(self, fn):
        matvecs, stack = self.matvecs, self._stack

        def apply(pair, u, v):
            matvecs[stack[-1] if stack else None] += 1
            return fn(pair, u, v)
        return apply


@contextlib.contextmanager
def instrumented(capture: Capture, tracer: Tracer | None = None):
    """Install capture wrappers, plus span wrappers when ``tracer`` is given."""
    wrappers = {}
    for name, fn in CAPTURED.items():
        wrappers[id(fn)] = (fn, capture.wrap(name, fn))
    apply = None
    if tracer is not None:
        for name, (fn, extract) in TRACED.items():
            inner = wrappers.get(id(fn), (fn, fn))[1]
            wrappers[id(fn)] = (fn, tracer.wrap(name, inner, extract))
        apply = tracer.counting_apply(spectral.HamiltonianPair.apply)
    with _rebound(wrappers, apply):
        yield


def self_times(tracer: Tracer) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    spans = tracer.spans
    own = [span[5] - span[4] for span in spans]
    for span in spans:
        if span[2] is not None:
            own[span[2]] -= span[5] - span[4]
    return own


def layer_metrics(tracer: Tracer, reps: int) -> dict:
    """Per-layer metrics as {name: (value, unit)}, averaged over ``reps`` traced repetitions."""
    spans = tracer.spans
    own = self_times(tracer)
    # Matvecs of a span's whole subtree; children always have larger ids.
    matvecs = [tracer.matvecs.get(i, 0) for i in range(len(spans))]
    eigsh_calls = [0] * len(spans)
    for span in reversed(spans):
        if span[2] is not None:
            matvecs[span[2]] += matvecs[span[1]]
            eigsh_calls[span[2]] += span[3] == "spectral.eigsh"
    named = defaultdict(list)
    for span in spans:
        named[span[3]].append(span)

    def total_self(*names):
        return sum(own[s[1]] for name in names for s in named[name])

    def mean(values):
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    def attr(span, key):  # spans of calls that raised carry no attributes
        return span[6][key] if span[6] else 0

    arpack = [s for s in named["spectral.eigensolve"] if eigsh_calls[s[1]]]
    oracle = named["qap.brute_force"] + named["qap.worst"]
    decodes = named["qubo.decode"]
    roots = sum(s[5] - s[4] for s in spans if s[2] is None)
    layer_self = defaultdict(float)
    for span in spans:
        layer_self[span[3].split(".")[0]] += own[span[1]]

    metrics = {
        "spectral.eigensolves": (len(named["spectral.eigensolve"]) / reps, "count"),
        "spectral.eigensolve_s": (mean(s[5] - s[4] for s in named["spectral.eigensolve"]), "s"),
        "spectral.matvecs_per_eigensolve": (mean(matvecs[s[1]] for s in arpack), "count"),
        "spectral.eigsh_attempts_per_eigensolve": (mean(eigsh_calls[s[1]] for s in arpack), "ratio"),
        "spectral.profile_s": (mean(s[5] - s[4] for s in named["spectral.profile"]), "s"),
        "anneal.evolve_s": (mean(s[5] - s[4] for s in named["anneal.evolve"]), "s"),
        "anneal.matvecs_per_step": (ratio(sum(matvecs[s[1]] for s in named["anneal.evolve"]),
                                          sum(attr(s, "steps") for s in named["anneal.evolve"])), "count"),
        "anneal.trotter_s": (mean(s[5] - s[4] for s in named["anneal.trotter"]), "s"),
        "anneal.sa_s": (mean(own[s[1]] for s in named["anneal.sa"]), "s"),
        "anneal.sa_ns_per_flip": (1e9 * ratio(total_self("anneal.sa"),
                                              sum(attr(s, "flips") for s in named["anneal.sa"])), "ns"),
        "anneal.measure_s": (mean(own[s[1]] for s in named["anneal.measure"]), "s"),
        "anneal.score_s": (total_self("anneal.success_probability", "anneal.most_frequent") / reps, "s"),
        "qap.oracle_calls": (len(oracle) / reps, "count"),
        "qap.oracle_s": (total_self("qap.brute_force", "qap.worst") / reps, "s"),
        "qap.ns_per_perm": (1e9 * ratio(total_self("qap.brute_force", "qap.worst"),
                                        sum(attr(s, "perms") for s in oracle)), "ns"),
        # Each repetition solves one instance, which needs one min and one max scan.
        "qap.oracle_useful_ratio": (ratio(2 * reps, len(oracle)), "ratio"),
        "qubo.build_s": (total_self("qubo.build") / reps, "s"),
        "qubo.decode_s": (total_self("qubo.decode") / reps, "s"),
        "qubo.decode_valid_ratio": (ratio(sum(attr(s, "valid") for s in decodes), len(decodes)), "ratio"),
        "qubo.exhaustive_s": (total_self("qubo.exhaustive") / reps, "s"),
        "cli.self_s": (total_self("cli.main") / reps, "s"),
        "bench.self_s": (total_self("bench.run_experiment") / reps, "s"),
        "bench.generate_s": (total_self("bench.generate") / reps, "s"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (ratio(layer_self[layer], roots), "ratio")
    return metrics


def write(tracer: Tracer, path) -> None:
    """Spans as JSON lines: rep, id, parent, name, start, end, attrs, matvecs."""
    with open(path, "w", encoding="utf-8") as fh:
        for rep, sid, parent, name, start, end, attrs in tracer.spans:
            fh.write(json.dumps({"rep": rep, "id": sid, "parent": parent, "name": name,
                                 "start": start, "end": end, "attrs": attrs,
                                 "matvecs": tracer.matvecs.get(sid, 0)}) + "\n")
