"""Command-line interface.

Subcommands:
    build   -- reformulate an instance file as an unconstrained model
    gap     -- spectral-gap profiles along the interpolation path
    solve   -- run a solver and report the sample distribution
    bench   -- run a full experiment spec (or preset)
    report  -- render a benchmark report to CSV / a console summary

Exit codes: 0 success, 2 validation error, 3 solver failure,
4 size-cap refusal.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys
from pathlib import Path

from . import __version__, bench
from .anneal import most_frequent, price
from .bench import (
    PRESETS,
    SOLVER_DEFAULTS,
    SOLVERS,
    BenchReport,
    ExperimentSpec,
    preset_spec,
    run_experiment,
)
from .errors import SizeCapError, SolverError, check_count, check_distinct, check_positive
from .errors import _json_fields, read_json, write_json
from .qap import QapInstance, permutation_extremes
from .qubo import (
    FORMULATIONS,
    QuboModel,
    _model_dim,
    build_formulation,
    coupling_report,
    export_sparse,
    penalty_bounds,
)
from .spectral import _check_gap_request, gap_profile


def _provenance(paths, **extra) -> dict:
    """Tool version, the SHA-256 of each input file keyed by its path, and ``extra``
    (solve's seed)."""
    inputs = {str(p): hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths}
    return {"version": __version__, "inputs": inputs, **extra}


def _write_outputs(*outputs) -> None:
    """Write all (path, write) outputs or none; a pair with no path is skipped.

    ``write(tmp)`` fills a temporary file beside its target; the files are
    renamed into place in order only after every write succeeded.  On any
    failure the temporary files are deleted, and so are the targets this
    call already renamed into place.
    """
    staged = []
    placed = []
    try:
        for path, write in outputs:
            if not path:
                continue
            path = Path(path)
            tmp = path.with_name(f".{path.name}.{os.getpid()}.{len(staged)}.tmp")
            staged.append((tmp, path))
            try:
                write(tmp)
            except OSError as exc:  # name the target, not the temporary file
                raise OSError(exc.errno, exc.strerror, str(path)) from None
        for tmp, path in staged:
            try:
                os.replace(tmp, path)
            except OSError as exc:
                raise OSError(exc.errno, exc.strerror, str(path)) from None
            placed.append(path)
    except BaseException:
        for path in placed:
            path.unlink(missing_ok=True)
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise


def _print_aggregates(aggregates: dict) -> None:
    for key, agg in sorted(aggregates.items()):
        gap = agg["mean_min_gap"]
        gap_text = f" mean_min_gap={gap:.6g}" if gap is not None else ""
        print(
            f"{key}: mean_normalized_energy={agg['mean_normalized_energy']:.6g} "
            f"mean_success={agg['mean_success']:.3f}{gap_text}"
        )


def _inputs(args) -> list:
    """The input paths a command reads (None where a flag is unset)."""
    return [getattr(args, name, None) for name in ("instance", "qubo", "spec", "report")]


def _check_outputs(paths, inputs) -> None:
    """Refuse, before any work, an output path in a missing directory or naming one, an
    output that resolves to one of the ``inputs``, and two outputs that resolve to the
    same file; a None path is skipped."""
    read = {Path(p).resolve() for p in filter(None, inputs)}
    seen = set()
    for path in filter(None, paths):
        target = Path(path).resolve()
        if not Path(path).parent.is_dir():
            raise ValueError(f"directory of output {path} does not exist")
        if Path(path).is_dir():
            raise ValueError(f"output {path} is a directory")
        if target in read:
            raise ValueError(f"output {path} would overwrite an input file")
        if target in seen:
            raise ValueError(f"two outputs name the same file {path}")
        seen.add(target)


def cmd_build(args) -> int:
    check_positive("--scale", args.scale)
    inst = QapInstance.load(args.instance)
    model = build_formulation(inst, args.formulation, args.scale)
    bounds = penalty_bounds(inst)
    ranges = coupling_report(model, inst)
    payload = model.to_dict()
    payload["scale"] = args.scale
    payload["penalty_bounds"] = _json_fields(bounds, vars(bounds))
    payload["coupling_report"] = ranges.to_dict()
    payload["provenance"] = _provenance([args.instance])
    _write_outputs((args.out, lambda p: write_json(p, payload)),
                   (args.sparse_out, lambda p: export_sparse(model, p)))
    if args.formulation == "baseline":
        lam_text = f"lambda={bounds.lambda_baseline:.6g}"
    elif args.formulation == "row_wise":
        lam_text = "lambda_i=" + ",".join(f"{v:.6g}" for v in bounds.lambda_rows)
    else:
        lam_text = (
            "lambda1=" + ",".join(f"{v:.6g}" for v in bounds.lambda1)
            + f" lambda2={bounds.lambda2:.6g}"
        )
    print(
        f"built {args.formulation} model: dim={model.dim} scale={args.scale} {lam_text} "
        f"Q range [{ranges.quadratic_problem[0]:.3g}, {ranges.quadratic_penalty[1]:.3g}] "
        f"q range [{ranges.linear_penalty[0]:.3g}, {ranges.linear_problem[1]:.3g}]"
    )
    return 0


def _scale_name(scale: float) -> str:
    """A scale as its per-scale CSV name spells it: "{scale:g}" when that reads back as
    the same float, else its repr, so two scales never share a name."""
    short = f"{scale:g}"
    return short if float(short) == scale else repr(scale)


def _number(text: str):
    """``text`` as a float, or the text itself when it spells no number, for a range
    rule to refuse by name."""
    try:
        return float(text)
    except ValueError:
        return text


def cmd_gap(args) -> int:
    inst = QapInstance.load(args.instance)
    scales = [check_positive("--scales", _number(s)) for s in args.scales.split(",")]
    check_distinct("--scales", scales)
    check_count("--samples", args.samples, least=2)
    _check_gap_request(_model_dim(args.formulation, inst.n), args.samples)
    out = Path(args.out)
    fmt = "json" if out.suffix.lower() == ".json" else "csv"
    csv_paths = [out] if len(scales) == 1 else [
        out.with_name(f"{out.stem}_scale{_scale_name(scale)}{out.suffix or '.csv'}")
        for scale in scales]
    if fmt == "csv" and len(scales) > 1:
        _check_outputs([*csv_paths, args.summary_out], _inputs(args))
    summaries = []
    curves = []
    outputs = []
    for scale, csv_path in zip(scales, csv_paths):
        model = build_formulation(inst, args.formulation, scale)
        profile = gap_profile(model, num_samples=args.samples)
        entry = profile.summary(scale=scale, formulation=args.formulation)
        if fmt == "csv":
            outputs.append((csv_path, profile.to_csv))
            entry["csv"] = str(csv_path)
        else:
            curves.append({**entry, **{k: v.tolist() for k, v in profile.curve().items()}})
        summaries.append(entry)
        print(f"scale={_scale_name(scale)}: "
              f"min_gap={profile.min_gap:.6g} at u={profile.argmin_t:.4g}")
    provenance = _provenance([args.instance])
    summary = {"profiles": summaries, "provenance": provenance}
    if fmt == "json":
        outputs.append((out, lambda p: write_json(p, {"profiles": curves,
                                                      "provenance": provenance})))
    _write_outputs(*outputs, (args.summary_out, lambda p: write_json(p, summary)))
    return 0


def cmd_solve(args) -> int:
    params = {k: v for k, v in vars(args).items() if k in SOLVER_DEFAULTS and v is not None}
    bench._check_solver_params(params, "--{}")
    check_count("--seed", args.seed, least=0)
    if not (args.qubo or args.instance):
        raise ValueError("solve needs --instance (or --qubo)")
    if args.qubo and (args.formulation is not None or args.scale is not None):
        raise ValueError("--qubo fixes the formulation and scale; drop --formulation and --scale")
    if args.scale is not None:
        check_positive("--scale", args.scale)
    inst = QapInstance.load(args.instance) if args.instance else None
    if args.qubo:
        model = QuboModel.load(args.qubo)
    else:
        model = build_formulation(inst, args.formulation or "baseline",
                                  1.0 if args.scale is None else args.scale)
    if inst is not None and model.n != inst.n:
        raise ValueError(f"model {args.qubo} has n={model.n}, but the instance has n={inst.n}")
    bench._check_solver_size(args.solver, model.dim, inst.n if inst is not None else None,
                             params=params)

    samples = bench._solve(model, args.solver, params, args.seed)
    samples.metadata["provenance"] = _provenance(
        [p for p in (args.qubo, args.instance) if p], seed=args.seed
    )

    summary = {"total": samples.total}
    if inst is not None:
        _, f_opt, _, f_worst = permutation_extremes(inst)
        priced = price(samples, inst, f_opt, f_worst)
        mf, report = priced.most_frequent, priced.report
        summary["success"] = report.to_dict()
        summary["most_frequent_normalized_energy"] = priced.normalized_energy
        print(
            f"success probability {report.probability:.4f} "
            f"(random guessing {report.reference.numerator}/{report.reference.denominator} "
            f"= {float(report.reference):.4%}); most frequent solution normalized energy "
            f"{priced.normalized_energy:.6g}"
        )
    else:
        mf = most_frequent(samples)
        print(f"most frequent state energy {mf.energy:.6g} (count {mf.count}/{samples.total})")
    summary["most_frequent"] = mf.to_dict()
    payload = samples.to_dict()
    payload["summary"] = summary
    _write_outputs((args.out, lambda p: write_json(p, payload)),
                   (args.hist_out, samples.histogram_csv))
    return 0


def cmd_bench(args) -> int:
    if args.spec and args.preset:
        raise ValueError("bench takes --spec or --preset, not both")
    if args.n is not None and not args.preset:
        raise ValueError("--n sets a preset's instance size; it needs --preset")
    if args.seed is not None and not args.preset:
        raise ValueError("--seed sets a preset's seed; it needs --preset (a spec holds its own)")
    if args.preset:
        spec = preset_spec(args.preset, n=args.n, seed=args.seed or 0)
    else:
        if not args.spec:
            raise ValueError("bench needs --spec or --preset")
        spec = ExperimentSpec.load(args.spec)
    report = run_experiment(spec)
    if args.spec:
        report.provenance.update(_provenance([args.spec]))
    _write_outputs((args.out, lambda p: write_json(p, report.to_dict())),
                   (args.csv_out, report.to_csv))
    _print_aggregates(report.aggregates)
    return 0


def cmd_report(args) -> int:
    report = read_json(args.report, BenchReport.from_dict)
    if args.out:
        _write_outputs((args.out, report.to_csv))
        print(f"wrote {args.out}")
    _print_aggregates(report.aggregates)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use."""
    parser = argparse.ArgumentParser(
        prog="permqubo",
        description="Permutation-constrained assignment problems as unconstrained binary models",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build an unconstrained model from an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--formulation", required=True, choices=FORMULATIONS)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--out", required=True, help="model JSON output path")
    p.add_argument("--sparse-out", help="optional upper-triangular text export")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("gap", help="spectral-gap profile along the interpolation path")
    p.add_argument("--instance", required=True)
    p.add_argument("--formulation", required=True, choices=FORMULATIONS)
    p.add_argument("--scales", default="1.0", help="comma-separated penalty scales")
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--out", required=True,
                   help="CSV output path (suffixed per scale); a .json path gets one JSON file")
    p.add_argument("--summary-out",
                   help="optional JSON summary path: each scale's min_gap and argmin_t")
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("solve", help="run a solver and report the sample distribution")
    p.add_argument("--instance", help="instance JSON (enables success statistics)")
    p.add_argument("--qubo", help="prebuilt model JSON (instead of building)")
    # Unset, they mean baseline at scale 1; a --qubo model fixes both.
    p.add_argument("--formulation", choices=FORMULATIONS)
    p.add_argument("--scale", type=float)
    p.add_argument("--solver", required=True, choices=SOLVERS)
    # One flag per number-valued solver parameter; one left unset takes its
    # bench.SOLVER_DEFAULTS value.  A list (the SA schedule) is set in a spec only.
    for key, (_, kind, _) in SOLVER_DEFAULTS.items():
        kind = kind[-1] if isinstance(kind, tuple) else kind  # (None, int): null or an int
        if kind in (int, float):
            p.add_argument(f"--{key}", type=kind)
    p.add_argument("--out", required=True, help="sample set JSON output path")
    p.add_argument("--hist-out", help="optional histogram CSV path")
    p.add_argument("--seed", type=int, default=0, help="solver seed (sa runs, measurement shots)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="run an experiment spec or preset")
    p.add_argument("--spec", help="experiment spec JSON")
    p.add_argument("--preset", choices=PRESETS)
    p.add_argument("--n", type=int, help="instance size override for presets")
    p.add_argument("--out", required=True, help="report JSON output path")
    p.add_argument("--csv-out", help="optional CSV table path")
    p.add_argument("--seed", type=int, help="preset instance seed (default 0)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="render a benchmark report")
    p.add_argument("--report", required=True, help="report JSON produced by bench")
    p.add_argument("--out", help="CSV table output path")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_outputs([path for name, path in vars(args).items()
                        if name == "out" or name.endswith("_out")], _inputs(args))
        return args.func(args)
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
