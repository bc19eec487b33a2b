"""Batch front door: one command per invocation, JSON in, report out.

Exit codes: 0 success, 1 malformed input, 2 mathematical infeasibility
(non-generic setups, unbalanced volume targets, solver failure, ...), 3 a
failed internal consistency check (a bug, never a property of the input;
reported on stderr with the prefix "internal:").

Options that size a search are bounded above; a larger value is malformed
input (exit 1).  Worst cases, two runs each on a shared 2-vCPU Intel Xeon
with Python 3.11.7:
* random_trials <= 10,000: the trials of a Heuristic rank-4 stability job
  on four facets take 0.85-0.91 s at the bound (the cost per trial grows
  with rank and facet count);
* k_max <= 12: compatible-subgroups builds one setup per GIT chamber, so
  its cost does not grow with the supports; on P^2, F_1, F_2, P^1 x P^1,
  P^3, the hexagon and the 3000 x 3000 square it takes at most ~0.05 s;
* cap <= 10,000 (stability.DEFAULT_CAP): the meet+join closure of a
  generic rank-4 full-flag sheaf on F_1 takes 2.4-2.7 s at the bound
  (0.27-0.32 s at 1,000, 9.0-10.6 s at 30,000).
An option the command does not read, from the job file or a flag, is
malformed input as well.

Reports embed the sha256 of the canonical input JSON and echo the input, so
a report can be re-run bit-for-bit.  Rationals travel as "p/q" strings;
floats appear only in solver output, printed with 12 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from . import minkowski, serialize, stability
from .build import BundleSpec, alpha_surface_formula, projectivized_bundle
from .errors import InfeasibleError, InputError, InternalError, ToricGitError
from .git import (GitSetup, UnstableIndexVector, descends, descent_violations,
                  pullback_functor, pushforward)
from .klyachko import FiltrationSheaf
from .polytope import HPolytope

COMMANDS = (
    "quotient", "classify", "slope", "stability", "descend", "pullback",
    "pushforward", "minkowski-check", "solve-minkowski", "alpha",
    "slope-identity", "compatible-subgroups", "bundle", "falsify-converse",
)


# option -> (type, minimum, maximum).  The minimum of tol is the solver's
# accuracy floor; the maxima bound the options that size a search (see the
# module docstring).
OPTIONS = {
    "cap": (int, 0, stability.DEFAULT_CAP),
    "random_trials": (int, 0, 10_000),
    "seed": (int, None, None),
    "max_iter": (int, 1, None),
    "k_max": (int, 1, 12),
    "tol": (float, minkowski.TOL_FLOOR, None),
}
SOLVER_OPTIONS = ("tol", "max_iter", "seed")
READS = {
    "stability": ("cap", "random_trials", "seed"),
    "solve-minkowski": SOLVER_OPTIONS,
    "alpha": SOLVER_OPTIONS,
    "slope-identity": SOLVER_OPTIONS,
    "compatible-subgroups": ("k_max",),
}


def _check_options(command: str, options: dict) -> None:
    """Reject an option the command does not read or a value out of its
    range; the library defaults apply to the options not given."""
    for key, val in options.items():
        if key not in READS.get(command, ()):
            raise InputError(f'command "{command}" does not read option "{key}"')
        kind, minimum, maximum = OPTIONS[key]
        if kind is float:
            if isinstance(val, bool) or not isinstance(val, (int, float)) \
                    or not math.isfinite(val) or val < minimum:
                raise InputError(
                    f'option "{key}" must be a finite number >= {minimum:g}, got {val!r}')
            continue
        if isinstance(val, bool) or not isinstance(val, int):
            raise InputError(f'option "{key}" must be an integer, got {val!r}')
        if minimum is not None and val < minimum:
            raise InputError(f'option "{key}" must be >= {minimum}, got {val}')
        if maximum is not None and val > maximum:
            raise InputError(f'option "{key}" must be <= {maximum}, got {val}')


def _need(payload: dict, key: str):
    if key not in payload:
        raise InputError(f'missing input key "{key}"')
    return payload[key]


def _need_list(payload: dict, key: str) -> list:
    val = _need(payload, key)
    if not isinstance(val, list):
        raise InputError(f'input "{key}" must be a list, got {val!r}')
    return val


def _setup(payload) -> GitSetup:
    return GitSetup.from_json_dict(_need(payload, "setup"))


def _sheaf(payload, key="sheaf") -> FiltrationSheaf:
    return FiltrationSheaf.from_json_dict(_need(payload, key))


def _indices(payload, setup: GitSetup) -> UnstableIndexVector:
    raw = payload.get("indices")
    if raw is None:
        return UnstableIndexVector.zero(setup)
    if not isinstance(raw, dict):
        raise InputError("indices must be an object facet -> integer")
    return UnstableIndexVector.from_dict({serialize.facet_id(k): v for k, v in raw.items()})


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
                "indices": {str(k): v for k, v in ivec.entries}}
    if command == "pushforward":
        setup = _setup(payload)
        sheaf = _sheaf(payload)
        return {"sheaf": pushforward(setup, sheaf).to_json_dict()}
    if command == "minkowski-check":
        setup = _setup(payload)
        return minkowski.minkowski_condition(setup).to_json_dict()
    if command == "solve-minkowski":
        sol = minkowski.solve_minkowski(_need_list(payload, "normals"),
                                        _need_list(payload, "volumes"), **options)
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
for key in ("tol", "seed", "max_iter", "cap", "k_max"):
    PARSER.add_argument("--" + key.replace("_", "-"), type=OPTIONS[key][0], dest=key)
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
        if not isinstance(raw, dict):
            raise InputError("job file must contain a JSON object")
        command = args.command or raw.get("command")
        if command not in COMMANDS:
            raise InputError(f"no valid command given (got {command!r})")
        payload = raw.get("inputs", raw)
        if not isinstance(payload, dict):
            raise InputError('"inputs" must be a JSON object')
        options = raw.get("options", {})
        if not isinstance(options, dict):
            raise InputError('"options" must be a JSON object')
        options = {**options, **{key: val for key, val in vars(args).items()
                                 if key in OPTIONS and val is not None}}
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
        text = json.dumps(report, indent=2, sort_keys=True)
    else:
        text = _render_text(command, result)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
