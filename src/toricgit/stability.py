"""Slopes and slope-stability verdicts for equivariant reflexive sheaves.

The slope of a sheaf against an ample class L is the exact rational
  mu(S) = -(1/rank) * sum_F i_F(det S) * deg_F,
where deg_F = D_F . L^{n-1} is the degree of the divisor of facet F.  So a
class enters only through its degree vector, one Fraction per facet: the
facet volumes HPolytope.latvols() of a polytope's class, or the targets of
the Minkowski quotient class (minkowski.quotient_degrees).
Stability only needs to be tested against equivariant subsheaves, i.e.
against subspaces W of the underlying space.  That family is infinite, so
the search runs over:

* an exact maximization over ALL one-dimensional W via profiles on the
  intersection closure of the jump subspaces (any line sits inside a
  closure member with a pointwise-better profile, and a generic line of a
  member realizes the member's profile),
* an exact maximization over ALL corank-one W as the line search of the
  dual sheaf: S_W is the kernel of a rank-one quotient whose dual is the
  line subsheaf of dual(S) cut out by W^perp, so
  (r-1) mu(S_W) = r mu(S) + mu(dual(S)_{W^perp}),
* from rank 4 on, the closure of the proper jump subspaces under pairwise
  intersection and sum (the "candidates").

For ranks <= 3 every proper subspace is a line or a hyperplane, so the two
exact strata cover everything and the candidate closure is not built: the
verdict is Certified exactly when both strata closures reached their fixed
point.  From rank 4 on it is Certified only when, in addition, every proper
jump subspace has dimension 1 or rank-1 and the candidate closure reached
its fixed point.  No closure meets a pair with a line or the full space,
whose meet can only be 0 or one of the pair; the candidate closure still
adds them.  Any closure stopped at ``cap`` sets ``cap_exceeded``;
without certified completeness the middle dimensions are attacked with
seeded random subspaces and the verdict never claims Stable.

Candidates and random subspaces are scored without building subsheaves,
from W's Schubert position against each facet's flag.  In the facet's
flag-adapted coordinates (``FiltrationSheaf.flag_coordinates``) x lies in
E_k iff its coordinates from dim E_k on vanish.  Bring W's coordinates,
last column first, to echelon form: the last nonzero coordinates j of its
rows are W's position, dim(W n E_k) is the number of them below dim E_k,
and i_F(det S_W) is the sum of their levels, the index of the first jump
containing the coordinate.  That is one integer elimination per facet for
every jump at once, and none for a line.  A profile p(C)_F is the level of
C's highest nonzero coordinate.  Degree sums run in integers, over the
degree vector times the lcm D of its denominators (``linalg.int_rows`` of
(degrees, 1)), with one division by D per returned slope.  Each distinct
(witness, slope) pair of the line and hyperplane strata and of the verdict
is re-verified through ``subsheaf`` once, the verdict's last.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from random import Random
from typing import Optional, Sequence

from . import linalg, serialize
from .errors import FacetMismatch, InputError, InternalError
from .klyachko import FiltrationSheaf, Subspace, det_indices, dual, subsheaf

STABLE = "Stable"
SEMISTABLE = "Semistable"
UNSTABLE = "Unstable"
CERTIFIED = "Certified"
HEURISTIC = "Heuristic"

DEFAULT_CAP = 10_000  # also the largest cap accepted
DEFAULT_RANDOM_TRIALS = 1_000
MAX_RANDOM_TRIALS = 10_000
DEFAULT_SEED = 20_240_601


def slope(sheaf: FiltrationSheaf, degrees: Sequence[Fraction]) -> Fraction:
    """Exact slope of the sheaf against the class with these (exact) facet degrees."""
    degrees = serialize.frac_vector(degrees)
    if serialize.instance(sheaf, FiltrationSheaf).num_facets != len(degrees):
        raise FacetMismatch("sheaf facet set does not match the degree vector")
    total = sum((i * d for i, d in zip(det_indices(sheaf), degrees)), Fraction(0))
    return -total / sheaf.rank


@dataclass(frozen=True)
class CandidateFamily:
    subspaces: tuple[Subspace, ...]
    reached_fixpoint: bool


def _proper_jump_subspaces(sheaf: FiltrationSheaf) -> list[Subspace]:
    out = []
    seen = set()
    for f in range(sheaf.num_facets):
        for _, v in sheaf.filtrations[f]:
            if 0 < v.dim < sheaf.rank and v not in seen:
                seen.add(v)
                out.append(v)
    return out


def _closure(
    seeds: Sequence[Subspace], rank: int, cap: int, join: bool
) -> tuple[list[Subspace], bool]:
    """Close a family of subspaces under pairwise intersection, and with
    ``join`` also under sum keeping proper subspaces only; returns (members,
    reached_fixpoint).  The closure stops, short of its fixed point, as soon
    as a new member takes it past ``cap`` members (0..DEFAULT_CAP).  A pair
    with a line or the full space is not met: the meet is 0 or a member."""
    cap = serialize.int_option("cap", cap, 0, DEFAULT_CAP)
    found: dict[Subspace, None] = dict.fromkeys(seeds)
    frontier = list(found)
    old: list[Subspace] = []
    while frontier:
        new: list[Subspace] = []
        for k, a in enumerate(frontier):
            # (a, frontier[j]), j < k, was met as (frontier[j], a)
            for b in old + frontier[k + 1:]:
                trivial = a.dim in (1, rank) or b.dim in (1, rank)
                results = [] if trivial else [a.intersect(b)]
                if join:
                    results.append(a.add(b))
                for c in results:
                    if c.is_zero() or (join and c.dim >= rank):
                        continue
                    if c not in found:
                        found[c] = None
                        new.append(c)
                        if len(found) > cap:
                            return list(found), False
        old += frontier
        frontier = new
    return list(found), True


def candidate_subspaces(
    sheaf: FiltrationSheaf, cap: int = DEFAULT_CAP
) -> CandidateFamily:
    """The proper jump subspaces closed under pairwise intersection and sum,
    iterated to a fixed point (or to ``cap``, which downgrades verdicts)."""
    seeds = _proper_jump_subspaces(serialize.instance(sheaf, FiltrationSheaf))
    members, fixpoint = _closure(seeds, sheaf.rank, cap, join=True)
    return CandidateFamily(tuple(members), fixpoint)


def _verify_witness(
    sheaf: FiltrationSheaf, degrees: Sequence[Fraction], w: Subspace, value: Fraction,
    what: str,
) -> None:
    """Re-derive a witness's slope from its actual subsheaf."""
    if slope(subsheaf(sheaf, w), degrees) != value:
        raise InternalError(f"{what} witness slope failed verification")


# ---------------------------------------------------------------------------
# slopes from Schubert positions


def _positions(cols: Sequence[Sequence[int]], rows: Sequence[Sequence[int]]) -> list[int]:
    """The Schubert position of the span of ``rows`` (independent) against
    a flag with these adapted columns: the last nonzero coordinates of an
    echelon form, read off the pivots of the reversed coordinates."""
    top = len(cols) - 1
    coords = linalg.pairings(rows, cols[::-1])
    if len(coords) == 1:
        return [top - next(q for q, x in enumerate(coords[0]) if x)]
    return [top - q for q in linalg.echelon(coords, reduce=False)[1]]


def _slope_scorer(sheaf: FiltrationSheaf, degrees: Sequence[Fraction]):
    """mu(subsheaf(S, W)) from W's Schubert positions alone, for W given by
    its integer rows: i_F(det S_W) is the sum of the levels of W's
    positions against facet F's flag."""
    flags = sheaf.flag_coordinates
    *int_degrees, den = linalg.int_rows([[*degrees, 1]])[0]

    def score(w_rows: tuple[tuple[int, ...], ...]) -> Fraction:
        total = sum(sum(levels[j] for j in _positions(cols, w_rows)) * deg
                    for deg, (cols, levels) in zip(int_degrees, flags))
        return Fraction(-total, den * len(w_rows))

    return score


# ---------------------------------------------------------------------------
# exact strata


def _profile(sheaf: FiltrationSheaf, c: Subspace) -> list[int]:
    """p(C)_F = min{i : C <= E^F(i)}: the level of C's highest nonzero
    flag-adapted coordinate (the first level for C = 0), scanned from the top."""
    out = []
    for cols, levels in sheaf.flag_coordinates:
        top = len(cols) - 1
        while top and not any([sum(map(mul, row, cols[top])) for row in c.rows]):
            top -= 1
        out.append(levels[top])
    return out


def _generic_vector_avoiding(c: Subspace, avoid: list[Subspace]) -> tuple:
    """A vector of C outside every listed proper subspace of C, found on the
    moment curve through C's basis (at most dim-1 bad parameters per
    avoided subspace)."""
    basis = c.rows
    bound = len(avoid) * max(len(basis) - 1, 0) + 1
    for t in range(bound + 1):
        v = tuple(
            sum(t ** k * basis[k][j] for k in range(len(basis)))
            for j in range(c.ambient))
        if any(v) and all(d._residuals([v]) for d in avoid):
            return v
    raise InternalError("moment curve failed to avoid proper subspaces")


def _line_stratum(
    sheaf: FiltrationSheaf, degrees: Sequence[Fraction], cap: int
) -> tuple[Fraction, Subspace, bool]:
    """Exact maximum of mu(subsheaf(S, line)) over all lines, unverified.

    Any line V lies in C(V) = intersection of the jump subspaces E^F(p(V)_F),
    a member of the intersection closure with a pointwise-smaller profile;
    conversely a generic line of a closure member C realizes C's profile.
    So the max over closure members of -sum_F p(C)_F deg_F is the exact
    line maximum.  Returns (max, witness line, closure reached fixpoint).
    """
    seeds = [v for f in range(sheaf.num_facets) for _, v in sheaf.filtrations[f]]
    members, fixpoint = _closure(seeds, sheaf.rank, cap, join=False)
    *int_degrees, den = linalg.int_rows([[*degrees, 1]])[0]
    profiles = [_profile(sheaf, c) for c in members]
    values = [-sum(p * d for p, d in zip(prof, int_degrees)) for prof in profiles]
    k = values.index(max(values))  # the first member of largest value
    best, best_c, best_profile = values[k], members[k], profiles[k]
    # realize the profile with an actual line of best_c
    avoid = []
    for f, p in enumerate(best_profile):
        below = best_c.intersect(sheaf.value_at(f, p - 1))
        if below.dim < best_c.dim:
            avoid.append(below)
    vec = _generic_vector_avoiding(best_c, avoid)
    return Fraction(best, den), Subspace._of_rows(sheaf.rank, [vec]), fixpoint


def max_line_slope(
    sheaf: FiltrationSheaf, degrees: Sequence[Fraction], cap: int = DEFAULT_CAP
) -> tuple[Fraction, Subspace, bool]:
    """Exact maximum of mu(subsheaf(S, line)) over all lines, with a line
    realizing it (re-verified through ``subsheaf``) and whether the
    intersection closure reached its fixed point."""
    degrees = serialize.frac_vector(degrees)
    best, line, fixpoint = _line_stratum(serialize.instance(sheaf, FiltrationSheaf), degrees, cap)
    _verify_witness(sheaf, degrees, line, best, "line")
    return best, line, fixpoint


def max_hyperplane_slope(
    sheaf: FiltrationSheaf, degrees: Sequence[Fraction], cap: int = DEFAULT_CAP
) -> tuple[Fraction, Subspace, bool]:
    """Exact maximum of mu(subsheaf(S, W)) over all corank-one W (rank >= 2).

    S_W is the kernel of a rank-one quotient whose dual is the line subsheaf
    of dual(S) cut out by W^perp, so (r-1) mu(S_W) = r mu(S) + mu(dual(S)_L)
    with L = W^perp: the hyperplane maximum is the line maximum of the dual
    sheaf.  Returns (max, witness hyperplane, closure reached fixpoint).
    """
    if serialize.instance(sheaf, FiltrationSheaf).rank < 2:
        raise InputError("hyperplane stratum needs rank >= 2")
    degrees = serialize.frac_vector(degrees)
    best, hyper, fixpoint = _hyperplane_stratum(sheaf, degrees, cap, slope(sheaf, degrees))
    _verify_witness(sheaf, degrees, hyper, best, "hyperplane")
    return best, hyper, fixpoint


def _hyperplane_stratum(
    sheaf: FiltrationSheaf, degrees: Sequence[Fraction], cap: int, mu: Fraction
) -> tuple[Fraction, Subspace, bool]:
    """``max_hyperplane_slope`` unverified, given mu = mu(S)."""
    val, line, fixpoint = _line_stratum(dual(sheaf), degrees, cap)
    return (sheaf.rank * mu + val) / (sheaf.rank - 1), line.perp(), fixpoint


def _random_subspace(rng: Random, r: int) -> Subspace:
    """A random proper subspace of random dimension."""
    dim = rng.randint(1, r - 1)
    while True:
        w = Subspace._of_rows(r, [[rng.randint(-5, 5) for _ in range(r)] for _ in range(dim)])
        if w.dim == dim:
            return w


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class StabilityVerdict:
    status: str
    certainty: str
    slope: Fraction
    witness: Optional[Subspace] = None
    witness_slope: Optional[Fraction] = None
    slope_table: tuple[tuple[int, Fraction], ...] = field(default=())
    seed: Optional[int] = None
    cap_exceeded: bool = False
    ground_field: str = "QQ"
    notes: str = ""

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "certainty": self.certainty,
            "slope": serialize.frac_to_str(self.slope),
            "witness": None if self.witness is None else self.witness.to_json(),
            "witness_slope": None if self.witness_slope is None
            else serialize.frac_to_str(self.witness_slope),
            "slope_table": [
                {"dim": d, "slope": serialize.frac_to_str(s)}
                for d, s in self.slope_table
            ],
            "seed": self.seed,
            "cap_exceeded": self.cap_exceeded,
            "ground_field": self.ground_field,
            "notes": self.notes,
        }


def check_stability(
    sheaf: FiltrationSheaf,
    degrees: Sequence[Fraction],
    cap: int = DEFAULT_CAP,
    random_trials: int = DEFAULT_RANDOM_TRIALS,
    seed: int = DEFAULT_SEED,
) -> StabilityVerdict:
    """Slope-stability verdict against the class with the given facet
    degrees, with an explicit certainty tier.

    The dimension-1 and corank-1 strata are searched exactly in all cases.
    For rank <= 3 they are all proper subspaces, so the verdict is Certified
    exactly when both strata closures reached their fixed point.  From rank
    4 on, certified completeness also needs every proper jump subspace to
    have dimension 1 or rank-1 and the candidate closure to reach its fixed
    point.  ``cap_exceeded`` is set when any closure stopped at ``cap``.
    Without certified completeness the verdict never claims Stable; a clean
    sweep is reported as Semistable/Heuristic after seeded random
    falsification.
    """
    serialize.int_option("cap", cap, 0, DEFAULT_CAP)  # a rank-1 sheaf builds no closure
    random_trials = serialize.int_option("random_trials", random_trials, 0, MAX_RANDOM_TRIALS)
    seed = serialize.int_option("seed", seed)
    degrees = serialize.frac_vector(degrees)
    mu = slope(sheaf, degrees)
    r = sheaf.rank
    if r == 1:
        return StabilityVerdict(
            status=STABLE, certainty=CERTIFIED, slope=mu, seed=seed,
            notes="rank 1: no proper subsheaves")

    score = _slope_scorer(sheaf, degrees)
    evaluations: list[tuple[Fraction, int, Subspace]] = []  # (slope, dim W, W)
    capped = []
    if r >= 4:
        family = candidate_subspaces(sheaf, cap)
        for w in family.subspaces:
            evaluations.append((score(w.rows), w.dim, w))
        if not family.reached_fixpoint:
            capped.append("candidates")

    line_val, line_witness, line_fix = _line_stratum(sheaf, degrees, cap)
    evaluations.append((line_val, 1, line_witness))
    hyp_val, hyp_witness, hyp_fix = _hyperplane_stratum(sheaf, degrees, cap, mu)
    evaluations.append((hyp_val, r - 1, hyp_witness))
    if not line_fix:
        capped.append("lines")
    if not hyp_fix:
        capped.append("hyperplanes")

    cap_exceeded = bool(capped)
    complete = not cap_exceeded and (
        r <= 3 or {v.dim for v in _proper_jump_subspaces(sheaf)} <= {1, r - 1})
    certainty = CERTIFIED if complete else HEURISTIC

    notes = []
    if cap_exceeded:
        notes.append(f"subspace closure cap {cap} exceeded ({', '.join(capped)})")
    if not complete:
        rng = Random(seed)
        for _ in range(random_trials):
            w = _random_subspace(rng, r)
            evaluations.append((score(w.rows), w.dim, w))
        searched = "exact strata incomplete" if r <= 3 else "middle strata heuristic"
        notes.append(f"{searched}; falsified against {random_trials} random subspaces")

    best_val, _, witness = max(evaluations, key=lambda e: e[0])
    table = tuple(sorted(((d, v) for v, d, _ in evaluations), key=lambda t: -t[1]))[:100]
    common = dict(slope=mu, slope_table=table, seed=seed, cap_exceeded=cap_exceeded)

    witnesses = {(line_witness, line_val): "line", (hyp_witness, hyp_val): "hyperplane"}
    if best_val >= mu:  # the final witness last
        witnesses.pop((witness, best_val), None)
        witnesses[witness, best_val] = "final"
    for (w, value), what in witnesses.items():  # each distinct pair once
        _verify_witness(sheaf, degrees, w, value, what)
    if best_val >= mu:
        return StabilityVerdict(
            status=UNSTABLE if best_val > mu else SEMISTABLE, certainty=certainty,
            witness=witness, witness_slope=best_val, notes="; ".join(notes), **common)
    if complete:
        return StabilityVerdict(
            status=STABLE, certainty=CERTIFIED, notes="; ".join(notes), **common)
    return StabilityVerdict(
        status=SEMISTABLE, certainty=HEURISTIC, **common,
        notes="; ".join(notes + ["no destabilizer found; Stable not certifiable"]))
