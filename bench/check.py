"""Output checker: every job's exit code and report.

Two kinds of check run on each report:

* reference-free checks, on every seed: exact recomputation of slopes and
  witness slopes, exact stability verdicts where the search space is known
  (rank 2, and sheaves built from one basis), descent and functor
  identities, face classifications and moduli against the recorded
  invariants of the base setup a moved setup came from, and solver
  outputs against their own targets;
* golden checks, on the default seed: the report against the one recorded
  from the program when the benchmark was written (``golden/``).

Fractions, verdicts and certainty tiers compare exactly.  Solver floats
compare by their normalized direction within the job's ``tol``.  A
Heuristic golden verdict accepts any answer the mathematics allows: the
same slope; an Unstable verdict stays Unstable with a witness slope at
least the golden one; Stable only when Certified.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import corpus
from exact import (
    basis_max_subsheaf_slope,
    box_facet_areas,
    polygon_edge_lengths,
    rank,
    sheaf_slope,
    subsheaf_slope,
)

DEFAULT_TOL = 1e-6


class CheckError(Exception):
    pass


def _ensure(cond, msg):
    if not cond:
        raise CheckError(msg)


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# parsing job inputs (independently of the program)


def _facets(poly):
    return [(tuple(f["normal"]), Fraction(f["support"])) for f in poly["facets"]]


def _filtrations(sheaf):
    raw = sheaf["filtrations"]
    return [[(e["i"], [[Fraction(x) for x in row] for row in e["basis"]])
             for e in raw[str(f)]] for f in range(len(raw))]


def _latvols_2d(facets):
    return polygon_edge_lengths([u for u, _ in facets], [a for _, a in facets])


def _direction(values):
    norm = math.sqrt(sum(v * v for v in values))
    return [v / norm for v in values]


# ---------------------------------------------------------------------------
# summaries shared with the golden recorder


def classify_summary(result):
    return {"faces": [[f["face"], f["dim"], f["status"]] for f in result["faces"]],
            "generic": result["generic"], "stable": result["stable_facets"],
            "unstable": result["unstable_facets"]}


def _segment_or_polygon_lengths(poly):
    facets = _facets(poly)
    if poly["n"] == 1:
        return [sum(a for _, a in facets)]
    if poly["n"] == 2:
        return _latvols_2d(facets)
    return None


def quotient_summary(result, dilation=1):
    lengths = _segment_or_polygon_lengths(result["quotient_polytope"])
    return {"b": result["b"], "facet_map": result["facet_map"],
            "dim": result["dim_quotient"],
            "lengths": None if lengths is None else
            [corpus.q_str(x / dilation) for x in lengths]}


def falsify_summary(result):
    cx = result["counterexample"]
    return {"facet_pair": None if cx is None else cx["facet_pair"]}


def compat_summary(result):
    return {"count": len(result["subgroups"]), "upper_bound": result["upper_bound"],
            "zero_direction_subsets": result["zero_direction_subsets"],
            "complete_hypothesis": result["complete_hypothesis"],
            "subgroups": sorted([s["dilation"], s["stable_facets"], s["from_vertex_star"]]
                                for s in result["subgroups"])}


def golden_entry(command, rc, report):
    """The part of a report the golden comparison keeps."""
    if rc != 0:
        return {"exit": rc}
    res = report["result"]
    if command == "stability":
        v = res["verdict"]
        kept = {k: v[k] for k in ("status", "certainty", "slope", "witness_slope")}
    elif command == "solve-minkowski":
        kept = {"normals": res["normals"],
                "direction": _direction([float(a) for a in res["supports"]])}
    elif command == "alpha":
        kept = _alpha_golden(res["alpha"])
    elif command == "slope-identity":
        ident = res["identity"]
        kept = {"lhs": ident["lhs"], "correction": ident["correction"],
                "mu_alpha": float(ident["mu_alpha"]), "alpha": _alpha_golden(res["alpha"])}
    else:
        kept = {"sha256": _digest(res)}
    return {"exit": 0, "result": kept}


def _alpha_golden(alpha):
    return {"normals": alpha["normals"], "targets": alpha["targets"],
            "direction": _direction([float(a) for a in alpha["supports"]])}


# ---------------------------------------------------------------------------
# the checker


class Checker:
    def __init__(self, invariants, golden=None):
        self.invariants = invariants
        self.golden = golden or {}

    def expected_exit(self, job):
        if job["expect"] is not None:
            return job["expect"]
        base = self.invariants["setups"][job["meta"]["base"]]
        return base[job["command"]]["exit"]

    def check(self, job, rc, traceback, report):
        """Raise CheckError naming the first problem with this execution."""
        if traceback is not None:
            raise CheckError(f"traceback escaped: {traceback.strip().splitlines()[-1]}")
        want = self.expected_exit(job)
        _ensure(rc == want, f"exit code {rc}, expected {want}")
        if rc == 0:
            _ensure(report["input"] == job["job"]["inputs"], "report does not echo its input")
            getattr(self, "_" + job["command"].replace("-", "_"))(job, report["result"])
        gold = self.golden.get(job["name"])
        if gold is not None:
            self._against_golden(job, rc, report, gold)

    # -- golden --------------------------------------------------------------

    def _against_golden(self, job, rc, report, gold):
        _ensure(rc == gold["exit"], f"exit code {rc}, golden {gold['exit']}")
        if rc != 0:
            return
        now = golden_entry(job["command"], rc, report)["result"]
        want = gold["result"]
        tol = job["job"].get("options", {}).get("tol", DEFAULT_TOL)
        if job["command"] == "stability":
            self._verdict_vs_golden(now, want)
        elif job["command"] in ("solve-minkowski", "alpha"):
            self._solver_vs_golden(now, want, tol)
        elif job["command"] == "slope-identity":
            for key in ("lhs", "correction"):
                _ensure(now[key] == want[key], f"{key} {now[key]} != golden {want[key]}")
            _ensure(abs(now["mu_alpha"] - want["mu_alpha"])
                    <= tol * max(1.0, abs(want["mu_alpha"])), "mu_alpha moved")
            self._solver_vs_golden(now["alpha"], want["alpha"], tol)
        else:
            _ensure(now == want, "result differs from golden")

    @staticmethod
    def _verdict_vs_golden(now, want):
        _ensure(now["slope"] == want["slope"], "slope differs from golden")
        if want["certainty"] == "Certified":
            _ensure(now == want, f"certified verdict {now} != golden {want}")
            return
        if want["status"] == "Unstable":
            _ensure(now["status"] == "Unstable", "golden Unstable, now not")
            _ensure(Fraction(now["witness_slope"]) >= Fraction(want["witness_slope"]),
                    "witness slope below golden")

    @staticmethod
    def _solver_vs_golden(now, want, tol):
        for key in ("normals", "targets"):
            if key in want:
                _ensure(now[key] == want[key], f"{key} differ from golden")
        diff = max(abs(a - b) for a, b in zip(now["direction"], want["direction"]))
        _ensure(diff <= tol, f"direction differs from golden by {diff:.3e}")

    # -- per command -----------------------------------------------------------

    def _stability(self, job, res):
        v = res["verdict"]
        inputs = job["job"]["inputs"]
        facets = _facets(inputs["polytope"])
        latvols = _latvols_2d(facets)
        r = inputs["sheaf"]["rank"]
        filts = _filtrations(inputs["sheaf"])
        mu = sheaf_slope(r, filts, latvols)
        _ensure(Fraction(v["slope"]) == mu, f"slope {v['slope']} != {mu}")
        status, certainty = v["status"], v["certainty"]
        ws = None
        if v["witness"] is not None:
            w_rows = [[Fraction(x) for x in row] for row in v["witness"]]
            ws = subsheaf_slope(w_rows, filts, latvols)
            _ensure(Fraction(v["witness_slope"]) == ws,
                    f"witness slope {v['witness_slope']} != recomputed {ws}")
        if status == "Unstable":
            _ensure(ws is not None and ws > mu, "Unstable without a destabilizing witness")
        elif status == "Semistable":
            _ensure(ws == mu or (ws is None and certainty == "Heuristic"),
                    "Semistable witness slope differs from slope")
        else:
            _ensure(status == "Stable" and certainty == "Certified",
                    f"{status}/{certainty} is not a valid verdict")
        best = self._exact_max(job, r, filts, latvols)
        if best is None:
            return
        if ws is not None:
            _ensure(ws <= best, "witness slope above the exact maximum")
        if certainty == "Certified":
            want = "Unstable" if best > mu else "Semistable" if best == mu else "Stable"
            _ensure(status == want, f"certified {status}, exact answer {want}")

    @staticmethod
    def _exact_max(job, r, filts, latvols):
        tier = job["meta"].get("tier")
        if tier == "exact-basis":
            chains = [[(i, frozenset(s)) for i, s in steps] for steps in job["meta"]["chains"]]
            return basis_max_subsheaf_slope(r, chains, latvols)
        if tier == "exact-rank2":
            # every line is a jump line or generic; a generic line is
            # represented by one outside all jump lines
            lines = [b for steps in filts for _, b in steps if len(b) == 1]
            t = 0
            while any(rank(line + [[1, t]]) == 1 for line in lines):
                t += 1
            lines.append([[Fraction(1), Fraction(t)]])
            return max(subsheaf_slope(line, filts, latvols) for line in lines)
        return None

    def _slope(self, job, res):
        inputs = job["job"]["inputs"]
        latvols = _latvols_2d(_facets(inputs["polytope"]))
        mu = sheaf_slope(inputs["sheaf"]["rank"], _filtrations(inputs["sheaf"]), latvols)
        _ensure(Fraction(res["slope"]) == mu, f"slope {res['slope']} != {mu}")

    def _descend(self, job, res):
        stable, _, b = corpus.SMALL_SETUPS[job["meta"]["setup"]]
        filts = _filtrations(job["job"]["inputs"]["sheaf"])
        violations = [{"facet": f, "jump": j, "b": b[f]}
                      for f in stable for j, _ in filts[f] if j % b[f]]
        _ensure(res["violations"] == violations, "descent violations differ")
        _ensure(res["descends"] == (not violations), "descent verdict wrong")
        _ensure(res["b"] == {str(f): v for f, v in b.items()}, "moduli b differ")

    def _pushforward(self, job, res):
        stable, _, b = corpus.SMALL_SETUPS[job["meta"]["setup"]]
        filts = _filtrations(job["job"]["inputs"]["sheaf"])
        out = _filtrations(res["sheaf"])
        r = job["job"]["inputs"]["sheaf"]["rank"]
        _ensure(res["sheaf"]["rank"] == r and len(out) == len(stable), "shape differs")
        for pos, f in enumerate(stable):
            for i, basis in out[pos]:
                # E-check(i) = E^F(b i): the last input step at index <= b i
                below = [bb for j, bb in filts[f] if j <= b[f] * i]
                _ensure(below and _same_span(basis, below[-1]),
                        f"pushforward step {i} on facet {f} is not E(b i)")

    def _pullback(self, job, res):
        stable, unstable, b = corpus.SMALL_SETUPS[job["meta"]["setup"]]
        inputs = job["job"]["inputs"]
        filts = _filtrations(inputs["sheaf"])
        out = _filtrations(res["sheaf"])
        r = inputs["sheaf"]["rank"]
        for pos, f in enumerate(stable):
            _ensure([i for i, _ in out[f]] == [b[f] * j for j, _ in filts[pos]],
                    f"pullback jumps on facet {f} are not b-multiples")
            for (_, x), (_, y) in zip(out[f], filts[pos]):
                _ensure(_same_span(x, y), f"pullback subspace differs on facet {f}")
        for f in unstable:
            _ensure(len(out[f]) == 1 and out[f][0][0] == inputs["indices"][str(f)]
                    and rank(out[f][0][1]) == r, f"unstable facet {f} is not one full jump")

    def _base_invariants(self, job):
        return self.invariants["setups"][job["meta"]["base"]]

    def _classify(self, job, res):
        inv = self._base_invariants(job)["classify"]
        _ensure(classify_summary(res) == inv["summary"], "classification differs from base")
        setup = job["job"]["inputs"]["setup"]
        facets = _facets(setup["polytope"])
        gens = setup["sublattice"]
        for face in res["faces"]:
            if face["witness"] is None:
                continue
            w = [Fraction(x) for x in face["witness"]]
            _ensure(all(sum(a * b for a, b in zip(w, g)) == 0 for g in gens),
                    f"witness of face {face['face']} is off the slice")
            for f, (u, a) in enumerate(facets):
                val = sum(x * y for x, y in zip(w, u)) + a
                if f in face["face"]:
                    _ensure(val == 0, f"witness of face {face['face']} leaves the face")
                else:
                    _ensure(val > 0 if face["status"] == "Stable" else val >= 0,
                            f"witness of face {face['face']} is not in its relative interior")

    def _quotient(self, job, res):
        inv = self._base_invariants(job)["quotient"]
        got = quotient_summary(res, job["meta"]["dilation"])
        _ensure(got == inv["summary"], f"quotient {got} differs from base {inv['summary']}")

    def _falsify_converse(self, job, res):
        inv = self._base_invariants(job)["falsify-converse"]
        _ensure(falsify_summary(res) == inv["summary"], "falsifier differs from base")
        cx = res["counterexample"]
        if cx is not None:
            a, b = cx["lifted_slopes"]
            _ensure(Fraction(a) == Fraction(b), "lifted slopes differ")
            _ensure(len(set(cx["ratios"].values())) > 1, "ratios are constant")

    def _compatible_subgroups(self, job, res):
        want = self.invariants["compatible"][job["meta"]["base"]]
        _ensure(compat_summary(res) == want, "subgroup search differs from base")

    def _bundle(self, job, res):
        base, summands = job["meta"]["bundle"]
        summands = [{int(k): v for k, v in s.items()} for s in summands]
        facets, gens = corpus.bundle_setup_facets(base, summands)
        got = _facets(res["setup"]["polytope"])
        _ensure(got == [(u, Fraction(a)) for u, a in facets], "bundle polytope differs")
        _ensure(res["setup"]["sublattice"] == [list(g) for g in gens], "bundle subgroup differs")
        nb = len(corpus.BUNDLE_BASES[base])
        _ensure(res["stable_facets"] == list(range(nb))
                and res["unstable_facets"] == list(range(nb, len(facets))),
                "bundle stable/unstable facets differ")
        # every base is a surface, so two summands carry the closed form
        _ensure(("alpha_formula" in res) == (len(summands) == 2), "closed form presence")
        if len(summands) == 2:
            want = {}
            for rho, (_, a) in enumerate(corpus.BUNDLE_BASES[base]):
                c = 3 * a + summands[0].get(rho, 0) + summands[1].get(rho, 0)
                if c:
                    want[str(rho)] = corpus.q_str(c)
            _ensure(res["alpha_formula"] == want, "closed-form alpha differs")

    def _minkowski_check(self, job, res):
        _ensure(res["holds"] is True and all(Fraction(x) == 0 for x in res["defect"]),
                "balanced setup fails the Minkowski condition")

    def _alpha(self, job, res):
        self._alpha_report(job, res["alpha"])

    def _alpha_report(self, job, alpha):
        tol = job["job"].get("options", {}).get("tol", DEFAULT_TOL)
        base = job["meta"]["bundle"][0]
        normals = [list(u) for u, _ in corpus.BUNDLE_BASES[base]]
        _ensure(alpha["normals"] == normals, "alpha normals are not the base's")
        _ensure(float(alpha["residual"]) <= tol, "alpha residual above tol")
        lengths = polygon_edge_lengths([tuple(u) for u in alpha["normals"]],
                                       [float(a) for a in alpha["supports"]])
        self._volumes_match(lengths, alpha["targets"], tol)

    def _slope_identity(self, job, res):
        self._alpha_report(job, res["alpha"])
        ident = res["identity"]
        lhs, corr = Fraction(ident["lhs"]), Fraction(ident["correction"])
        residual = abs(float(lhs) - (float(ident["mu_alpha"]) - float(corr)))
        _ensure(abs(residual - float(ident["residual"])) <= 1e-9 * max(1.0, abs(float(lhs))),
                "identity residual does not match its terms")
        _ensure(residual <= 1e-4 * max(1.0, abs(float(lhs))), "slope identity fails")

    def _solve_minkowski(self, job, res):
        tol = job["job"].get("options", {}).get("tol", DEFAULT_TOL)
        inputs = job["job"]["inputs"]
        _ensure(res["normals"] == inputs["normals"], "solver normals differ")
        _ensure(float(res["residual"]) <= tol, "solver residual above tol")
        normals = [tuple(u) for u in res["normals"]]
        supports = [float(a) for a in res["supports"]]
        if job["meta"]["shape"] == "box":
            vols = box_facet_areas(normals, supports)
        else:
            vols = polygon_edge_lengths(normals, supports)
        self._volumes_match(vols, inputs["volumes"], tol)

    @staticmethod
    def _volumes_match(vols, targets, tol):
        err = max(abs(v - float(Fraction(t))) / float(Fraction(t)) for v, t in zip(vols, targets))
        _ensure(err <= 2 * tol + 1e-9, f"facet volumes off their targets by {err:.3e}")


def _same_span(a, b) -> bool:
    ra = rank(a)
    return ra == rank(b) == rank(list(a) + list(b))
