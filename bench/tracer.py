"""Span tracing for the traced benchmark run, installed from outside.

``Tracer.install()`` replaces the public functions of every ``toricgit``
module at every binding site (the defining module, each module that
re-imported the name, and the package namespace), plus the methods and
cached properties of the package's classes, with wrappers that record a
span per call.  ``uninstall()`` puts the originals back.

Spans are kept in memory as flat arrays (id = position, parent, name,
trace id = job execution, start, end) and written once at the end of the
run.  A span's self time is its duration minus the time its child spans
cover; a layer's self time is the sum over the spans of its modules.

Not wrapped: dunder methods other than ``__init__``, properties, and
private helpers (names starting with ``_``) except cached properties.
Their time counts toward the innermost wrapped caller.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from time import perf_counter

MODULES = ("build", "cli", "git", "klyachko", "lattice", "linalg", "minkowski",
           "polytope", "serialize", "stability")

# module -> layer; serialize belongs to the CLI layer
LAYER_OF = {m: m for m in MODULES}
LAYER_OF["serialize"] = "cli"
LAYERS = ("cli", "build", "lattice", "linalg", "polytope", "git", "klyachko",
          "stability", "minkowski")

# Binding sites that must record calls on the workload meant to exercise
# them; a traced run in which one stays at zero fails.
REQUIRED_SITES = {
    "stability-mix": (
        "cli.main", "stability.check_stability", "stability.candidate_subspaces",
        "stability.subsheaf", "stability.det_indices", "klyachko.Subspace.intersect",
        "klyachko.Subspace.add", "klyachko.FiltrationSheaf.from_json_dict",
        "linalg.rref", "cli.descends", "cli.pushforward", "cli.pullback_functor",
        "serialize.frac_to_str",
    ),
    "quotient-class": (
        "cli.main", "minkowski.hsystem_volume_data", "minkowski.slope",
        "minkowski.solve_minkowski", "minkowski.ample_class_alpha",
        "minkowski.verify_slope_identity", "minkowski.minkowski_condition",
        "cli.projectivized_bundle", "cli.alpha_surface_formula",
        "build.BundleSpec.from_json_dict", "polytope.HPolytope.__init__",
        "polytope.HPolytope.face_lattice", "git.GitSetup.__init__",
        "git.quotient",
    ),
    "git-classify": (
        "cli.main", "linalg.feasible_point", "git.GitSetup.__init__",
        "git.GitSetup.classification_report", "polytope.HPolytope.__init__",
        "polytope.HPolytope.face_lattice", "polytope.HPolytope.vertices",
        "minkowski.compatible_subgroups", "minkowski.translation_classes",
        "minkowski.converse_falsifier", "cli.descends",
    ),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        # one entry per span
        self.parent = array("i")
        self.name = array("i")
        self.trace = array("i")
        self.start = array("d")
        self.end = array("d")
        # per-name aggregates
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.incl_s: list[float] = []  # outermost calls only
        self._active: list[int] = []
        self.site_calls: dict[str, int] = {}
        self.counters = {
            "stability.candidates": 0, "stability.cap_hits": 0,
            "stability.certified": 0, "minkowski.solver_iterations": 0,
            "minkowski.solver_volume_evals": 0, "minkowski.max_residual": 0.0,
        }
        self.trace_id = -1
        self._stack: list[list] = []  # [span id, time covered by child spans]
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_index(self, name: str) -> int:
        idx = self._name_idx.get(name)
        if idx is None:
            idx = self._name_idx[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.incl_s.append(0.0)
            self._active.append(0)
        return idx

    def _wrap(self, fn, name: str, site: str):
        idx = self._name_index(name)
        hook = _RESULT_HOOKS.get(name)
        solver_idx = self._name_index("minkowski.solve_minkowski")
        counts_solver_eval = name == "polytope.hsystem_volume_data"
        stack, active, calls = self._stack, self._active, self.calls
        self.site_calls.setdefault(site, 0)
        site_calls = self.site_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            site_calls[site] += 1
            calls[idx] += 1
            if counts_solver_eval and active[solver_idx]:
                self.counters["minkowski.solver_volume_evals"] += 1
            sid = len(self.start)
            self.parent.append(stack[-1][0] if stack else -1)
            self.name.append(idx)
            self.trace.append(self.trace_id)
            self.start.append(0.0)
            self.end.append(0.0)
            active[idx] += 1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                active[idx] -= 1
                dur = t1 - t0
                self.start[sid] = t0
                self.end[sid] = t1
                self.self_s[idx] += dur - frame[1]
                if not active[idx]:
                    self.incl_s[idx] += dur
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                hook(self.counters, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {m: sys.modules[f"toricgit.{m}"] for m in MODULES}
        pkg = sys.modules["toricgit"]
        wrapped: dict[int, object] = {}
        # functions, at every module binding site
        for mname, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if home not in mods:
                    continue
                canonical = f"{home}.{obj.__qualname__}"
                self._set(mod, attr, self._wrap(obj, canonical, f"{mname}.{attr}"))
                wrapped.setdefault(id(obj), canonical)
        for attr, obj in list(vars(pkg).items()):
            if inspect.isfunction(obj) and id(obj) in wrapped:
                self._set(pkg, attr, self._wrap(obj, wrapped[id(obj)], f"toricgit.{attr}"))
        # methods and cached properties, on their classes
        for mname, mod in mods.items():
            for cls in list(vars(mod).values()):
                if not inspect.isclass(cls) or cls.__module__ != mod.__name__:
                    continue
                for attr, member in list(vars(cls).items()):
                    canonical = f"{mname}.{cls.__name__}.{attr}"
                    if isinstance(member, functools.cached_property):
                        prop = functools.cached_property(
                            self._wrap(member.func, canonical, canonical))
                        prop.__set_name__(cls, attr)
                        self._set(cls, attr, prop)
                    elif attr.startswith("_") and attr != "__init__":
                        continue
                    elif isinstance(member, staticmethod):
                        self._set(cls, attr, staticmethod(
                            self._wrap(member.__func__, canonical, canonical)))
                    elif inspect.isfunction(member):
                        self._set(cls, attr, self._wrap(member, canonical, canonical))

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def _incl(self, name: str) -> float:
        """Time inside the outermost calls of ``name``."""
        idx = self._name_idx.get(name)
        return 0.0 if idx is None else self.incl_s[idx]

    def _layer_self(self, layer: str) -> float:
        return sum(s for n, s in zip(self.names, self.self_s)
                   if LAYER_OF[n.partition(".")[0]] == layer)

    def calls_of(self, name: str) -> int:
        idx = self._name_idx.get(name)
        return 0 if idx is None else self.calls[idx]

    def metrics(self) -> dict[str, tuple[float, str]]:
        c = self.counters
        verdicts = self.calls_of("stability.check_stability")
        out = {f"{layer}.self_s": (self._layer_self(layer), "s") for layer in LAYERS}
        out.update({
            "klyachko.meet_join.calls": (
                self.calls_of("klyachko.Subspace.intersect")
                + self.calls_of("klyachko.Subspace.add"), "count"),
            "klyachko.subsheaf.calls": (self.calls_of("klyachko.subsheaf"), "count"),
            "stability.candidates": (c["stability.candidates"], "count"),
            "stability.verdicts": (verdicts, "count"),
            "stability.cap_hits": (c["stability.cap_hits"], "count"),
            "stability.certified_share": (
                c["stability.certified"] / verdicts if verdicts else 0.0, "share"),
            "linalg.rref.calls": (self.calls_of("linalg.rref"), "count"),
            "polytope.volume.s": (
                self._incl("polytope.hsystem_volume_data"), "s"),
            "polytope.volume_evals": (
                self.calls_of("polytope.hsystem_volume_data"), "count"),
            "minkowski.solver.s": (
                self._incl("minkowski.solve_minkowski"), "s"),
            "minkowski.solver_iterations": (c["minkowski.solver_iterations"], "count"),
            "minkowski.solver_volume_evals": (
                c["minkowski.solver_volume_evals"], "count"),
            "minkowski.max_residual": (c["minkowski.max_residual"], "1"),
            "linalg.feasible_point.calls": (
                self.calls_of("linalg.feasible_point"), "count"),
            "linalg.feasible_point.s": (
                self._incl("linalg.feasible_point"), "s"),
            "git.setups": (self.calls_of("git.GitSetup.__init__"), "count"),
            "git.setup.s": (self._incl("git.GitSetup.__init__"), "s"),
            "polytope.construct.s": (
                self._incl("polytope.HPolytope.__init__"), "s"),
            "polytope.face_lattice.s": (
                self._incl("polytope.HPolytope.face_lattice"), "s"),
        })
        return out

    def missing_sites(self, workload: str) -> list[str]:
        return [s for s in REQUIRED_SITES[workload] if not self.site_calls.get(s)]

    def write(self, path_prefix) -> None:
        """Spans as raw little-endian arrays plus a JSON index."""
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": {}, "site_calls": self.site_calls}
        for field in ("parent", "name", "trace", "start", "end"):
            arr = getattr(self, field)
            if sys.byteorder != "little":
                arr = array(arr.typecode, arr)
                arr.byteswap()
            fname = f"{path_prefix}.{field}.bin"
            with open(fname, "wb") as fh:
                arr.tofile(fh)
            header["arrays"][field] = {"file": fname.rpartition("/")[2],
                                       "typecode": arr.typecode}
        with open(f"{path_prefix}.json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)


def _candidates(counters, family) -> None:
    counters["stability.candidates"] += len(family.subspaces)
    if not family.reached_fixpoint:
        counters["stability.cap_hits"] += 1


def _stratum(counters, result) -> None:
    if not result[2]:
        counters["stability.cap_hits"] += 1


def _verdict(counters, verdict) -> None:
    if verdict.certainty == "Certified":
        counters["stability.certified"] += 1


def _solution(counters, sol) -> None:
    counters["minkowski.solver_iterations"] += sol.iterations
    counters["minkowski.max_residual"] = max(counters["minkowski.max_residual"],
                                             sol.residual)


_RESULT_HOOKS = {
    "stability.candidate_subspaces": _candidates,
    "stability.max_line_slope": _stratum,
    "stability.max_hyperplane_slope": _stratum,
    "stability.check_stability": _verdict,
    "minkowski.solve_minkowski": _solution,
}
