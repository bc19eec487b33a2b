"""Batch front door: one command per invocation, JSON in, report out.

Exit codes: 0 success, 1 malformed input, 2 mathematical infeasibility
(non-generic setups, unbalanced volume targets, solver failure, ...), 3 a
failed internal consistency check (a bug, never a property of the input;
reported on stderr with the prefix "internal:").

Each library function reads and bounds its own options; a value out of
range is malformed input (exit 1), and README's option table gives the
worst-case times at the bounds.  An option the command does not read, from
the job file or a flag, or a JSON null, is malformed input as well.

Reports embed the sha256 of the canonical input JSON and echo the input, so
a report can be re-run bit-for-bit; ``serialize.report_dumps`` renders the
bytes of json.dumps(report, indent=2, sort_keys=True).  Rationals travel as
"p/q" strings; floats appear only in solver output, to 12 significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import minkowski, serialize, stability
from .build import BundleSpec, alpha_surface_formula, projectivized_bundle
from .errors import InfeasibleError, InputError, InternalError, ToricGitError
from .git import GitSetup, descends, descent_violations, pullback_functor, pushforward
from .klyachko import FiltrationSheaf
from .polytope import HPolytope

COMMANDS = (
    "quotient", "classify", "slope", "stability", "descend", "pullback",
    "pushforward", "minkowski-check", "solve-minkowski", "alpha",
    "slope-identity", "compatible-subgroups", "bundle", "falsify-converse",
)


# the options with a command-line flag, and their argparse types
FLAGS = {"tol": float, "seed": int, "max_iter": int, "cap": int, "k_max": int}
SOLVER_OPTIONS = ("tol", "max_iter", "seed")
READS = {
    "stability": ("cap", "random_trials", "seed"),
    "solve-minkowski": SOLVER_OPTIONS,
    "alpha": SOLVER_OPTIONS,
    "slope-identity": SOLVER_OPTIONS,
    "compatible-subgroups": ("k_max",),
}


def _check_options(command: str, options: dict) -> None:
    """Reject an option the command does not read, or a JSON null (the
    solver's default seed is None); the library reads and bounds the rest."""
    for key, val in options.items():
        if key not in READS.get(command, ()):
            raise InputError(f'command "{command}" does not read option "{key}"')
        if val is None:
            raise InputError(f'option "{key}" must not be null')


def _need(payload: dict, key: str):
    if key not in payload:
        raise InputError(f'missing input key "{key}"')
    return payload[key]


def _setup(payload) -> GitSetup:
    return GitSetup.from_json_dict(_need(payload, "setup"))


def _sheaf(payload, key="sheaf") -> FiltrationSheaf:
    return FiltrationSheaf.from_json_dict(_need(payload, key))


def _indices(payload, setup: GitSetup) -> dict[int, int]:
    """The job's index vector, all keys read before any value; zero when absent."""
    raw = payload.get("indices")
    if raw is None:
        return {f: 0 for f in setup.unstable_facets}
    keyed = serialize.mapping(raw, serialize.facet_id, kind='"indices" object')
    return serialize.mapping(keyed, value=serialize.int_from_obj)


def run_command(command: str, payload: dict, options: dict) -> dict:
    """Dispatch a single job; returns the result dictionary."""
    _check_options(command, options)
    if command == "quotient":
        setup = _setup(payload)
        py, fmap, b = setup.quotient_polytope()
        return {
            "quotient_polytope": py.to_json_dict(),
            "facet_map": {str(k): v for k, v in fmap.items()},
            "b": {str(k): v for k, v in b.items()},
            "dim_quotient": setup.dim_quotient(),
        }
    if command == "classify":
        setup = _setup(payload)
        return {
            "faces": setup.classification_report(),
            "generic": setup.is_generic(),
            "stable_facets": list(setup.stable_facets),
            "unstable_facets": list(setup.unstable_facets),
        }
    if command == "slope":
        poly = HPolytope.from_json_dict(_need(payload, "polytope"))
        sheaf = _sheaf(payload)
        return {"slope": serialize.frac_to_str(stability.slope(sheaf, poly.latvols()))}
    if command == "stability":
        poly = HPolytope.from_json_dict(_need(payload, "polytope"))
        sheaf = _sheaf(payload)
        verdict = stability.check_stability(sheaf, poly.latvols(), **options)
        return {"verdict": verdict.to_json_dict()}
    if command == "descend":
        setup = _setup(payload)
        sheaf = _sheaf(payload)
        return {"descends": descends(setup, sheaf),
                "b": {str(k): v for k, v in setup.b_values().items()},
                "violations": [{"facet": f, "jump": j, "b": bf}
                               for f, j, bf in descent_violations(setup, sheaf)]}
    if command == "pullback":
        setup = _setup(payload)
        sheaf = _sheaf(payload)
        ivec = _indices(payload, setup)
        lifted = pullback_functor(setup, ivec, sheaf)
        return {"sheaf": lifted.to_json_dict(),
                "indices": {str(k): v for k, v in sorted(ivec.items())}}
    if command == "pushforward":
        setup = _setup(payload)
        sheaf = _sheaf(payload)
        return {"sheaf": pushforward(setup, sheaf).to_json_dict()}
    if command == "minkowski-check":
        setup = _setup(payload)
        return minkowski.minkowski_condition(setup).to_json_dict()
    if command == "solve-minkowski":
        sol = minkowski.solve_minkowski(_need(payload, "normals"),
                                        _need(payload, "volumes"), **options)
        return {
            "normals": [list(u) for u in sol.normals],
            "supports": [f"{a:.12g}" for a in sol.supports],
            "residual": f"{sol.residual:.12g}",
            "iterations": sol.iterations,
        }
    if command == "alpha":
        setup = _setup(payload)
        alpha = minkowski.ample_class_alpha(setup, **options)
        return {"alpha": alpha.to_json_dict()}
    if command == "slope-identity":
        setup = _setup(payload)
        sheaf = _sheaf(payload)
        ivec = _indices(payload, setup)
        alpha = minkowski.ample_class_alpha(setup, **options)
        report = minkowski.verify_slope_identity(setup, sheaf, ivec, alpha)
        return {"identity": report.to_json_dict(), "alpha": alpha.to_json_dict()}
    if command == "compatible-subgroups":
        poly = HPolytope.from_json_dict(_need(payload, "polytope"))
        res = minkowski.compatible_subgroups(poly, **options)
        return res.to_json_dict()
    if command == "bundle":
        spec = BundleSpec.from_json_dict(payload)
        setup = projectivized_bundle(spec)
        out = {"setup": setup.to_json_dict(),
               "stable_facets": list(setup.stable_facets),
               "unstable_facets": list(setup.unstable_facets)}
        if spec.base.n == 2 and spec.fiber_rank == 2:
            out["alpha_formula"] = alpha_surface_formula(spec).to_json_dict()
        return out
    if command == "falsify-converse":
        setup = _setup(payload)
        cx = minkowski.converse_falsifier(setup)
        return {"counterexample": None if cx is None else cx.to_json_dict()}
    raise InputError(f"unknown command {command!r}")


def _render_text(command: str, result: dict) -> str:
    lines = [f"command: {command}"]

    def walk(obj, indent="  "):
        if isinstance(obj, dict):
            for k, v in obj.items():
                if isinstance(v, (dict, list)):
                    lines.append(f"{indent}{k}:")
                    walk(v, indent + "  ")
                else:
                    lines.append(f"{indent}{k}: {v}")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    walk(v, indent + "  ")
                    lines.append(indent + "-")
                else:
                    lines.append(f"{indent}- {v}")

    walk(result)
    return "\n".join(lines)


PARSER = argparse.ArgumentParser(
    prog="toricgit",
    description="Exact toric GIT quotients, filtration sheaves, slope "
                "stability, and quotient-class reconstruction.")
PARSER.add_argument("--input", required=True, help="JSON job file")
PARSER.add_argument("--command", choices=COMMANDS, help="command (overrides the job file)")
for key, kind in FLAGS.items():
    PARSER.add_argument("--" + key.replace("_", "-"), type=kind, dest=key)
PARSER.add_argument("--output", help="write the report here instead of stdout")
PARSER.add_argument("--format", choices=("json", "text"), default="json")


def main(argv: Optional[list[str]] = None) -> int:
    args = PARSER.parse_args(argv)

    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # bad JSON, or an integer literal past the digit limit
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        raw = serialize.mapping(raw, kind="JSON object in the job file")
        command = args.command or raw.get("command")
        if command not in COMMANDS:
            raise InputError(f"no valid command given (got {command!r})")
        payload = serialize.mapping(raw.get("inputs", raw), kind='"inputs" object')
        options = serialize.mapping(raw.get("options", {}), kind='"options" object')
        options = {**options, **{key: val for key, val in vars(args).items()
                                 if key in FLAGS and val is not None}}
        result = run_command(command, payload, options)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleError as exc:
        print(f"infeasible: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except ToricGitError as exc:
        print(f"failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    report = {
        "command": command,
        "input_sha256": serialize.sha256_of(payload),
        "input": payload,
        "options": {k: options[k] for k in sorted(options)},
        "result": result,
    }
    if args.format == "json":
        text = serialize.report_dumps(report)
    else:
        text = _render_text(command, result)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:  # a missing directory, no permission, a full disk
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
