"""The Minkowski condition and the quotient ample class.

A generic setup satisfies the Minkowski condition when the degree-weighted
stable normals vanish modulo the sublattice:
    sum_{F stable} deg_P(D_F) * pi(u_F) = 0   in N_Y (x) QQ.
That balance is exactly the solvability condition for prescribing the facet
volumes b_F * deg_P(D_F) on the quotient normals, and the resulting polytope
(unique up to translation) is the quotient class that makes the pullback
functors slope-compatible.

In the plane with exact targets the solver is exact: a convex polygon is
fixed up to translation by its normals and lattice edge lengths, so it walks
the edges in angular order and reads the supports off the vertices.  In
dimension >= 3, and for float targets (balanced only within tol), it is
floating point: damped Newton on the facet-volume map L(a) = targets.  The
Jacobian dL/da comes exactly from the volume engine
(polytope.hsystem_volume_data with rates), a bordered system fixes the
translations in its kernel, and a step is halved until the largest relative
residual falls.  Volumes are evaluated exactly on rational snaps of the
float iterates (denominators <= 10^12).  The solver is the only float path:
its supports feed just the alpha and solve-minkowski reports.  The degrees
of alpha are exact without any solve (quotient_degrees: by Minkowski's
theorem they are the targets), so slopes and stability against alpha, and
the slope identity, are exact in every dimension.  Everything else in this
module is exact rational arithmetic.

Accuracy floor.  Snapping moves a support by at most 1/(q * 10^12), q the
snapped denominator, and by about 1e-24 for a generic float, so float
rounding, not the snapping, limits the iterate.  On 120 seeded solves
(polygons with float targets, 3-D and 4-D polytopes with targets scaled by
1e-3 to 1e4, each iterated to a standstill) the residual came down to at
most 3e-13.  solve_minkowski rejects tol below TOL_FLOOR = 1e-10, which
leaves a margin of over two decades.  The snapping is absolute, so it also
bounds the size: supports below about 1e-12 snap to 0, and such a tiny
polytope fails with NoConvergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from random import Random
from typing import Mapping, NamedTuple, Optional, Sequence

from . import linalg, serialize
from .errors import (
    CurveQuotient,
    InfeasibleTargets,
    InputError,
    InternalError,
    MinkowskiFails,
    NoConvergence,
)
from .git import GitSetup, pullback_functor, translation_classes
from .klyachko import FiltrationSheaf, direct_sum, line_bundle
from .lattice import Sublattice, primitive_content
from .polytope import HPolytope, check_normals, hsystem_volume_data
from .stability import slope

IntVec = tuple[int, ...]

SOLVER_TOL = 1e-6
TOL_FLOOR = 1e-10
SOLVER_MAX_ITER = 10_000
RATIONALIZE_DENOM = 10 ** 12
MAX_K = 12  # the largest dilation compatible_subgroups accepts


@dataclass(frozen=True)
class MinkowskiReport:
    defect: tuple[Fraction, ...]
    holds: bool

    def to_json_dict(self) -> dict:
        return {
            "defect": [serialize.frac_to_str(x) for x in self.defect],
            "holds": self.holds,
        }


def minkowski_condition(setup: GitSetup) -> MinkowskiReport:
    """Exact evaluation of the degree-weighted stable-normal sum in the
    quotient lattice."""
    setup.require_generic()
    q = setup.quotient_lattice
    defect = [Fraction(0)] * q.rank
    for f in setup.stable_facets:
        deg = setup.polytope.facet_latvol(f)
        proj = q.project(setup.polytope.facets[f][0])
        defect = [d + deg * p for d, p in zip(defect, proj)]
    defect_t = tuple(defect)
    return MinkowskiReport(defect_t, all(x == 0 for x in defect_t))


# ---------------------------------------------------------------------------
# reconstruction of a polytope from facet volumes


@dataclass(frozen=True)
class MinkowskiSolution:
    normals: tuple[IntVec, ...]
    supports: tuple[float, ...]
    residual: float
    iterations: int
    exact: Optional[tuple[Fraction, ...]] = None  # the supports of an exact solve


def _snap(support: float) -> Fraction:
    """A float support of the solver's iterate as a nearby rational."""
    if not math.isfinite(support):
        raise NoConvergence("solver iterate is no longer finite")
    return Fraction(support).limit_denominator(RATIONALIZE_DENOM)


def _floats(values) -> list[float]:
    """The exact values as floats; one beyond the float range is a solver
    failure, as an overflowing iterate is."""
    try:
        return [float(x) for x in values]
    except OverflowError:
        raise NoConvergence("a target or support exceeds the float range") from None


class _Iterate(NamedTuple):
    """The snapped iterate's facet volumes and their rates, as floats, and
    its vertex rays."""
    latvols: list[float]
    rates: list[list[float]]
    rays: list


def _evaluate(n: int, normals, supports) -> _Iterate:
    cons = [(u, _snap(a)) for u, a in zip(normals, supports)]
    vol, latvols, rays, rates = hsystem_volume_data(n, cons, rates=True)
    _floats([vol])  # the solver handles the polytopes whose volume is a float
    return _Iterate(_floats(latvols), [_floats(row) for row in rates], rays)


def _residual(latvols: Sequence[float], f: Sequence[float]) -> float:
    """The largest relative facet-volume error."""
    return max(abs(lv - fi) / fi for lv, fi in zip(latvols, f))


def _absent(it: _Iterate, f: Sequence[float]) -> list[int]:
    """The facets whose volume is negligible (at most 1e-9) against the
    target: the rates of an absent facet vanish, so the Newton system would
    be singular."""
    return [i for i, (lv, fi) in enumerate(zip(it.latvols, f)) if lv <= 1e-9 * fi]


def _present(n: int, normals, f: list[float], a: list[float], it: _Iterate):
    """(supports, iterate) with every facet present: cut the absent facets
    in one at a time, each a hundredth of the polytope's width inside the
    current vertex set."""
    for _ in range(2 * len(normals)):
        absent = _absent(it, f)
        if not absent:
            return a, it
        i = absent[0]
        heights = [linalg.dot(r[:n], normals[i]) / r[n] for r in it.rays]
        lo, hi = min(heights), max(heights)
        a = a[:i] + [-(lo + 0.01 * (hi - lo))] + a[i + 1:]
        it = _evaluate(n, normals, a)
    raise NoConvergence("facets stay absent")


def _newton_step(rates, normals, r: list[float]) -> list[float]:
    """The step d with H d + U mu = r, U^T d = 0: the bordered system fixes
    the translations, which span the kernel of the rate matrix H, and mu
    absorbs the imbalance of float targets.  Gaussian elimination with
    partial pivoting; U is scaled to the size of H."""
    m, n = len(normals), len(normals[0])
    s = max(abs(x) for row in rates for x in row) or 1.0
    mat = [list(row) + [s * x for x in u] + [ri] for row, u, ri in zip(rates, normals, r)]
    mat += [[s * u[j] for u in normals] + [0.0] * (n + 1) for j in range(n)]
    size = m + n
    for c in range(size):
        p = max(range(c, size), key=lambda i: abs(mat[i][c]))
        if abs(mat[p][c]) <= 1e-12 * s:
            raise NoConvergence("singular Newton system")
        mat[c], mat[p] = mat[p], mat[c]
        piv = mat[c]
        for i in range(c + 1, size):
            q = mat[i][c] / piv[c]
            if q:
                mat[i] = [x - q * y for x, y in zip(mat[i], piv)]
    x = [0.0] * size
    for c in reversed(range(size)):
        x[c] = (mat[c][size] - sum(mat[c][k] * x[k] for k in range(c + 1, size))) / mat[c][c]
    return x[:m]


def _solver_options(tol, max_iter, seed) -> tuple[float, int, Optional[int]]:
    """tol >= TOL_FLOOR finite, max_iter >= 1, seed an integer or None."""
    return (serialize.float_option("tol", tol, TOL_FLOOR),
            serialize.int_option("max_iter", max_iter, 1),
            None if seed is None else serialize.int_option("seed", seed))


def _target(v) -> Fraction:
    """A volume target; a float is for the float path, balanced only within tol."""
    if not isinstance(v, float):
        return serialize.frac_from_obj(v)
    if not math.isfinite(v):
        raise InputError(f"facet volume targets must be finite, got {v!r}")
    return Fraction(v).limit_denominator(RATIONALIZE_DENOM)


def solve_minkowski(
    normals: Sequence[Sequence[int]],
    volumes: Sequence,
    tol: float = SOLVER_TOL,
    max_iter: int = SOLVER_MAX_ITER,
    seed: Optional[int] = None,
) -> MinkowskiSolution:
    """Reconstruct support numbers whose facet volumes match the targets.

    Requires tol >= TOL_FLOOR, the balance sum volumes_i * normals_i = 0
    (checked exactly for rational targets, within tol otherwise) and
    normals spanning.  The translation gauge puts the vertex barycenter at
    the origin; the scale is fixed by the targets.  Planar exact targets
    are solved exactly by _planar_solution (residual 0, 0 iterations, the
    exact supports kept; max_iter and seed do not change the answer).
    Everything else takes at most max_iter damped Newton steps, until the
    largest relative residual is at most tol / 2, from the polytope
    circumscribed about the unit ball (supports jittered by the seed),
    scaled to the targets.
    """
    tol, max_iter, seed = _solver_options(tol, max_iter, seed)
    normals = serialize.items(normals, kind="normal list")
    if not normals:
        raise InputError("normals must be nonempty")
    n = len(serialize.int_vector(normals[0]))
    if n < 2:
        raise InputError("the facet-volume problem needs dimension >= 2")
    norm_t = check_normals(n, normals)
    targets = list(serialize.items(volumes, _target, len(norm_t), "volume list"))
    if any(t <= 0 for t in targets):
        raise InputError("facet volume targets must be positive")
    if linalg.int_rank(norm_t) != n:
        raise InfeasibleTargets("normals do not span the ambient space")
    balance = [sum(t * u[j] for t, u in zip(targets, norm_t)) for j in range(n)]
    exact_targets = not any(isinstance(v, float) for v in volumes)
    if exact_targets:
        if any(x != 0 for x in balance):
            raise InfeasibleTargets(f"weighted normal sum is {balance}, not zero")
    else:
        scale = max(abs(float(t)) for t in targets) or 1.0
        if any(abs(float(x)) > tol * scale for x in balance):
            raise InfeasibleTargets(f"weighted normal sum {balance} exceeds tolerance")
    if n == 2 and exact_targets:
        return _planar_solution(norm_t, targets)

    f = _floats(targets)
    rng = Random(seed)
    # the polytope circumscribed about the unit ball has every facet
    a = [math.hypot(*u) * (1.0 + (rng.uniform(0.0, 0.3) if seed is not None else 0.0))
         for u in norm_t]
    # facet volumes are homogeneous of degree n - 1 in the supports
    kappa = (sum(f) / sum(_evaluate(n, norm_t, a).latvols)) ** (1.0 / (n - 1))
    a = [kappa * x for x in a]
    a, it = _present(n, norm_t, f, a, _evaluate(n, norm_t, a))
    res = _residual(it.latvols, f)
    iterations = 0
    while res > tol / 2:
        if iterations == max_iter:
            raise NoConvergence(f"facet-volume residual {res:.3e} after {max_iter} iterations")
        iterations += 1
        d = _newton_step(it.rates, norm_t, [fi - lv for fi, lv in zip(f, it.latvols)])
        t = 1.0
        for _ in range(60):
            cand = [ai + t * di for ai, di in zip(a, d)]
            c_it = _evaluate(n, norm_t, cand)
            c_res = _residual(c_it.latvols, f)
            if c_res < res and not _absent(c_it, f):
                break
            t *= 0.5
        else:
            break  # no step lowers the residual: the final check decides
        a, it, res = cand, c_it, c_res

    # fix the translation gauge at the snapped iterate's vertex barycenter
    bary = linalg.barycenter([[Fraction(x, r[n]) for x in r[:n]] for r in it.rays])
    a = [float(_snap(ai) + linalg.dot(bary, u)) for ai, u in zip(a, norm_t)]
    _, lat_final, _ = hsystem_volume_data(n, [(u, _snap(ai)) for u, ai in zip(norm_t, a)])
    residual = _residual(_floats(lat_final), f)
    if residual > tol:
        raise NoConvergence(
            f"facet-volume residual {residual:.3e} above tolerance {tol:.3e}")
    return MinkowskiSolution(norm_t, tuple(a), residual, iterations)


def _by_angle(u: IntVec, v: IntVec) -> int:
    """Counterclockwise order of distinct primitive plane vectors from the
    positive x-axis: the half-plane [0, pi) first, then the sign of the
    cross product, which decides inside a half-plane."""
    hu = 0 if u[1] > 0 or (u[1] == 0 and u[0] > 0) else 1
    hv = 0 if v[1] > 0 or (v[1] == 0 and v[0] > 0) else 1
    return hu - hv or v[0] * u[1] - u[0] * v[1]


def _planar_solution(normals: tuple[IntVec, ...], targets: list[Fraction]) -> MinkowskiSolution:
    """The exact polygon with lattice edge lengths ``targets`` on the inward
    normals (Minkowski's existence theorem; Schneider, Convex Bodies).

    The edge on the primitive normal (a, b) is its length times (b, -a), so
    the edges in the normals' counterclockwise order close up (the targets
    balance) into a convex polygon.  Walking them from the origin gives each
    edge its start vertex p; with the vertex barycenter c moved to the origin
    (the Newton solver's gauge) its support is <c - p, u>.
    """
    start, p = {}, (0, 0)
    for i in sorted(range(len(normals)),
                    key=cmp_to_key(lambda i, j: _by_angle(normals[i], normals[j]))):
        (a, b), t = normals[i], targets[i]
        start[i] = p
        p = (p[0] + t * b, p[1] - t * a)
    bary = linalg.barycenter(list(start.values()))
    supports = [linalg.dot([c - x for c, x in zip(bary, start[i])], u)
                for i, u in enumerate(normals)]
    _, latvols, _ = hsystem_volume_data(2, list(zip(normals, supports)))
    if latvols != targets:
        raise InternalError(f"edge walk gave facet volumes {latvols}, not {targets}")
    return MinkowskiSolution(normals, tuple(_floats(supports)), 0.0, 0, tuple(supports))


# ---------------------------------------------------------------------------
# the quotient ample class


@dataclass(frozen=True)
class AmpleClassNumeric:
    """Numerically reconstructed quotient class: one float support per
    quotient facet, vertex-barycenter gauge.  ``targets`` are its exact
    facet degrees (quotient_degrees)."""

    normals: tuple[IntVec, ...]
    supports: tuple[float, ...]
    residual: float
    targets: tuple[Fraction, ...]
    gauge: str = "vertex-barycenter"

    def direction(self) -> tuple[float, ...]:
        """Supports normalized to unit Euclidean length (class up to scale,
        gauge already fixed)."""
        norm = math.sqrt(sum(a * a for a in self.supports))
        return tuple(a / norm for a in self.supports)

    def to_json_dict(self) -> dict:
        return {
            "normals": [list(u) for u in self.normals],
            "supports": [f"{a:.12g}" for a in self.supports],
            "residual": f"{self.residual:.12g}",
            "targets": [serialize.frac_to_str(t) for t in self.targets],
            "gauge": self.gauge,
        }


def quotient_degrees(setup: GitSetup) -> tuple[Fraction, ...]:
    """b_F * deg_P(D_F) for the stable facets F, in quotient facet order: the
    facet volumes prescribed to the quotient class alpha, and so, once it
    exists, its exact degree vector."""
    b = setup.b_values()
    return tuple(b[f] * setup.polytope.facet_latvol(f) for f in setup.stable_facets)


def ample_class_alpha(
    setup: GitSetup,
    tol: float = SOLVER_TOL,
    max_iter: int = SOLVER_MAX_ITER,
    seed: Optional[int] = None,
) -> AmpleClassNumeric:
    """The unique (up to scale) quotient class with facet volumes
    b_F * deg_P(D_F); exists iff the Minkowski condition holds."""
    tol, max_iter, seed = _solver_options(tol, max_iter, seed)
    setup.require_generic()
    if setup.dim_quotient() < 2:
        raise CurveQuotient(
            "one-dimensional quotient: degrees of points are polarization-free")
    report = minkowski_condition(setup)
    if not report.holds:
        raise MinkowskiFails(f"Minkowski defect {report.defect} is nonzero")
    py, _, _ = setup.quotient_polytope()
    targets = quotient_degrees(setup)
    sol = solve_minkowski([u for u, _ in py.facets], targets, tol, max_iter, seed)
    return AmpleClassNumeric(
        normals=sol.normals,
        supports=sol.supports,
        residual=sol.residual,
        targets=targets,
    )


# ---------------------------------------------------------------------------
# the slope identity


@dataclass(frozen=True)
class SlopeIdentityReport:
    lhs: Fraction            # mu_L of the lifted sheaf
    mu_alpha: Fraction       # quotient slope against alpha's exact degrees
    correction: Fraction     # sum over unstable facets of i_F deg_L(D_F)
    residual: Fraction

    def to_json_dict(self) -> dict:
        return {
            "lhs": serialize.frac_to_str(self.lhs),
            "mu_alpha": f"{float(self.mu_alpha):.12g}",
            "correction": serialize.frac_to_str(self.correction),
            "residual": f"{float(self.residual):.12g}",
        }


def verify_slope_identity(
    setup: GitSetup,
    quotient_sheaf: FiltrationSheaf,
    indices: Mapping[int, int],
    alpha: AmpleClassNumeric,
) -> SlopeIdentityReport:
    """|mu_L(lift) - (mu_alpha(sheaf) - sum_us i_F deg_L(D_F))|, exactly: mu_alpha
    reads alpha's exact degrees (its targets), not its float supports."""
    setup.require_generic()
    lift = pullback_functor(setup, indices, quotient_sheaf)
    lhs = slope(lift, setup.polytope.latvols())
    mu_alpha = slope(quotient_sheaf, alpha.targets)
    # the lift's one jump on an unstable facet F sits at i_F
    correction = sum((lift.filtrations[f][0][0] * setup.polytope.facet_latvol(f)
                      for f in setup.unstable_facets), Fraction(0))
    return SlopeIdentityReport(lhs, mu_alpha, correction, abs(lhs - (mu_alpha - correction)))


def curve_slope_ratio(setup: GitSetup) -> tuple[dict[int, Fraction], bool]:
    """For one-dimensional quotients: the per-stable-facet ratios
    c_F = b_F deg_L(D_F) (a point has degree 1 under every class) and
    whether they agree, which is exactly the Minkowski condition."""
    setup.require_generic()
    if setup.dim_quotient() != 1:
        raise InputError("curve ratio only for one-dimensional quotients")
    ratios = dict(zip(setup.stable_facets, quotient_degrees(setup)))
    values = set(ratios.values())
    return ratios, len(values) == 1


# ---------------------------------------------------------------------------
# converse falsifier


@dataclass(frozen=True)
class ConverseCounterexample:
    facet_pair: tuple[int, int]
    d1: int
    d2: int
    quotient_sheaf: FiltrationSheaf
    lifted_slopes: tuple[Fraction, Fraction]
    ratios: dict[int, Fraction]
    defect: tuple[Fraction, ...]

    def to_json_dict(self) -> dict:
        return {
            "facet_pair": list(self.facet_pair),
            "d1": self.d1,
            "d2": self.d2,
            "quotient_sheaf": self.quotient_sheaf.to_json_dict(),
            "lifted_slopes": [serialize.frac_to_str(s) for s in self.lifted_slopes],
            "ratios": {str(k): serialize.frac_to_str(v)
                       for k, v in self.ratios.items()},
            "defect": [serialize.frac_to_str(x) for x in self.defect],
        }


def converse_falsifier(setup: GitSetup) -> Optional[ConverseCounterexample]:
    """When the Minkowski condition fails, build the equal-slope direct sum
    of two quotient line bundles whose lifts have equal slope on X while no
    quotient class can balance them on Y.

    The ratios c_F = b_F deg_L(D_F) / deg_{P_Y}(D_F-check) evaluated against
    the quotient polytope's own class cannot all agree when the defect is
    nonzero (their agreement would force the defect to vanish through the
    quotient polytope's facet-normal balance), so a witness pair exists.
    Returns None when the condition holds.
    """
    setup.require_generic()
    report = minkowski_condition(setup)
    if report.holds:
        return None
    py, fmap, _ = setup.quotient_polytope()
    degrees = dict(zip(setup.stable_facets, quotient_degrees(setup)))
    ratios = {f: degrees[f] / py.facet_latvol(fmap[f]) for f in setup.stable_facets}
    pair = None
    for f1, f2 in combinations(setup.stable_facets, 2):
        if ratios[f1] != ratios[f2]:
            pair = (f1, f2)
            break
    if pair is None:
        raise InternalError("nonzero defect but constant ratio table")
    f1, f2 = pair
    d1, d2 = degrees[f2], degrees[f1]
    d1i, d2i = linalg.int_rows([(d1, d2)])[0]
    sheaf = direct_sum(
        line_bundle(py.num_facets, {fmap[f1]: d1i}),
        line_bundle(py.num_facets, {fmap[f2]: d2i}),
    )
    zero = {f: 0 for f in setup.unstable_facets}
    lift1 = pullback_functor(setup, zero, line_bundle(py.num_facets, {fmap[f1]: d1i}))
    lift2 = pullback_functor(setup, zero, line_bundle(py.num_facets, {fmap[f2]: d2i}))
    degrees_x = setup.polytope.latvols()
    s1, s2 = slope(lift1, degrees_x), slope(lift2, degrees_x)
    if s1 != s2:
        raise InternalError("constructed summands must have equal lifted slopes")
    return ConverseCounterexample(
        facet_pair=pair, d1=d1i, d2=d2i, quotient_sheaf=sheaf,
        lifted_slopes=(s1, s2), ratios=ratios, defect=report.defect)


# ---------------------------------------------------------------------------
# compatible one-parameter subgroups


@dataclass(frozen=True)
class CompatibleSubgroup:
    sublattice: Sublattice
    stable_facets: tuple[int, ...]
    dilation: int
    polytope: HPolytope            # the witnessing linearized polytope
    from_vertex_star: bool

    def to_json_dict(self) -> dict:
        return {
            "sublattice": [list(g) for g in self.sublattice.generators],
            "stable_facets": list(self.stable_facets),
            "dilation": self.dilation,
            "polytope": self.polytope.to_json_dict(),
            "from_vertex_star": self.from_vertex_star,
        }


@dataclass(frozen=True)
class SubgroupSearch:
    subgroups: tuple[CompatibleSubgroup, ...]
    upper_bound: int
    zero_direction_subsets: int    # subsets with u_D = 0, outside the bound's hypothesis
    complete_hypothesis: bool      # True when no subset had u_D = 0

    def to_json_dict(self) -> dict:
        return {
            "subgroups": [s.to_json_dict() for s in self.subgroups],
            "upper_bound": self.upper_bound,
            "zero_direction_subsets": self.zero_direction_subsets,
            "complete_hypothesis": self.complete_hypothesis,
        }


def compatible_subgroups(
    poly: HPolytope, k_max: int = 6
) -> SubgroupSearch:
    """Bounded search for one-parameter subgroups admitting a generic
    linearization whose stable divisors balance.

    For every facet subset D of size n..d-1 the weighted normal sum u_D
    determines the only possible subgroup (its saturated span); subsets with
    u_D = 0 are reported separately since the counting bound assumes they do
    not occur.  For each candidate the search scans dilations up to k_max
    and their GIT chambers, read off the vertex values (the classification
    is constant on a chamber); a hit, a chamber with stable facets exactly
    D, is confirmed by its setup and then satisfies the Minkowski condition
    automatically (verified exactly anyway).
    """
    k_max = serialize.int_option("k_max", k_max, 1, MAX_K)
    n = serialize.instance(poly, HPolytope).n
    d = poly.num_facets
    degrees = linalg.int_rows([poly.latvols()])[0]  # a positive multiple
    vertex_stars = {face.key() for face in poly.face_lattice if face.dim == 0}
    upper_bound = sum(math.comb(d, k) for k in range(n, d))
    found: dict[tuple[IntVec, ...], CompatibleSubgroup] = {}
    zero_direction = 0
    for size in range(n, d):
        for subset in combinations(range(d), size):
            u_d = [0] * n
            for f in subset:
                u_d = [x + degrees[f] * c for x, c in zip(u_d, poly.facets[f][0])]
            if not any(u_d):
                zero_direction += 1
                continue
            prim, _ = primitive_content(u_d)
            n0 = Sublattice(n, (prim,))  # a primitive vector spans a saturated line
            if n0.generators in found:
                continue
            witness = _search_linearization(poly, n0, subset, k_max)
            if witness is None:
                continue
            setup, k = witness
            if not minkowski_condition(setup).holds:
                raise InternalError("stable set matches the direction but defect nonzero")
            found[n0.generators] = CompatibleSubgroup(
                sublattice=n0,
                stable_facets=setup.stable_facets,
                dilation=k,
                polytope=setup.polytope,
                from_vertex_star=tuple(sorted(subset)) in vertex_stars,
            )
    return SubgroupSearch(
        subgroups=tuple(found.values()),
        upper_bound=upper_bound,
        zero_direction_subsets=zero_direction,
        complete_hypothesis=zero_direction == 0,
    )


def _chambers(poly: HPolytope, gen: IntVec) -> tuple[int, list[tuple[int, int, tuple[int, ...]]]]:
    """(T, the open GIT chambers (lo, hi, stable facets) of (P, ZZ gen)): lo
    and hi are consecutive walls T<v, gen> over the vertices v of P, T the
    lcm of their rays' t, from the highest down; the stable facets of a
    slice <m, gen> = c inside are those whose vertex values straddle c."""
    table = poly._table[0]
    scale = math.lcm(*(r[-1] for r, _ in table))
    vals = [linalg.dot(r[:-1], gen) * (scale // r[-1]) for r, _ in table]
    spans = [[v for v, (_, act) in zip(vals, table) if f in act] for f in range(poly.num_facets)]
    walls = sorted(set(vals), reverse=True)
    return scale, [(lo, hi, tuple(f for f, vs in enumerate(spans) if min(vs) <= lo < hi <= max(vs)))
                   for hi, lo in zip(walls, walls[1:])]


def _search_linearization(
    poly: HPolytope, n0: Sublattice, subset: Sequence[int], k_max: int
) -> Optional[tuple[GitSetup, int]]:
    """The first hit (setup, k) of a scan over the GIT chambers of k*P, k =
    1..k_max, read off vertex values (Thaddeus 1996; Dolgachev-Hu 1998).

    N0 = ZZ g; lattice translates of k*P slice it at <m, g> = c, c in ZZ.
    Strictly between consecutive walls k<v, g>, the slice meets a face Q iff
    min_Q < c < max_Q, and then meets ri Q, where <., g> is not constant:
    dir Q + U spans, so Q is stable.  So for rank N0 < n each open chamber
    is generic with stable facets those straddling c (``_chambers``), and
    no wall is (a vertex in the slice is never stable); for n = 1 no facet
    (a point) straddles.  Chambers are visited from the highest down at
    their greatest integer c, for k = 1, 2, ...; only the hit builds a
    setup, the translate of the first of ``translation_classes`` slicing
    at c, which confirms the chamber exactly.
    """
    want = tuple(sorted(subset))
    scale, chambers = _chambers(poly, n0.generators[0])
    for k in range(1, k_max + 1):
        for lo, hi, stable in chambers:
            c = (k * hi - 1) // scale  # the greatest integer below k*hi/T
            if stable != want or c * scale <= k * lo:
                continue
            (s0,), base = next(translation_classes(poly, n0, k))  # slices k*P at -s0
            rinv = [row[0] for row in linalg.integer_right_inverse(n0.generators)]
            setup = GitSetup(base.translate([r * (-c - s0) for r in rinv]), n0)
            if not setup.is_generic() or setup.stable_facets != want:
                raise InternalError(f"chamber at {c} on {k}P is not generic with facets {want}")
            return setup, k
    return None


def is_weighted_projective_quotient(setup: GitSetup) -> bool:
    """Picard-rank-1 test for the quotient: facet count = dim + 1."""
    setup.require_generic()
    py, _, _ = setup.quotient_polytope()
    return py.num_facets == py.n + 1
