import ast
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from toricgit import linalg, stability
from toricgit.build import hirzebruch
from toricgit.errors import FacetMismatch
from toricgit.klyachko import (
    FiltrationSheaf,
    Subspace,
    det_indices,
    direct_sum,
    dual,
    hom_space,
    line_bundle,
    structure_sheaf,
    subsheaf,
)
from toricgit.polytope import HPolytope
from toricgit.stability import (
    SEMISTABLE,
    STABLE,
    UNSTABLE,
    candidate_subspaces,
    check_stability,
    max_hyperplane_slope,
    max_line_slope,
    slope,
)

from util import count_calls, random_flag, random_sheaf, random_subspace

SRC = Path(__file__).resolve().parent.parent / "src"

# classes enter as degree vectors, one per facet: here polytopes' facet volumes
P2 = HPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)])
P2_O1 = P2.latvols()
SEGMENT = HPolytope(1, [((1,), 1), ((-1,), 1)]).latvols()
F1 = hirzebruch(1).latvols()

L1 = Subspace.span(2, [(1, 0)])
L2 = Subspace.span(2, [(0, 1)])
L3 = Subspace.span(2, [(1, 1)])
E2 = Subspace.full(2)
TANGENT = FiltrationSheaf(2, (((-1, L1), (0, E2)),
                              ((-1, L2), (0, E2)),
                              ((-1, L3), (0, E2))))


def test_slope_structure_sheaf_zero():
    assert slope(structure_sheaf(3), P2_O1) == 0


def test_slope_tangent_shape():
    assert slope(TANGENT, P2_O1) == Fraction(3, 2)


def test_slope_rank_one_is_minus_degree():
    # O(-D) has slope -deg(D)
    om_d = line_bundle(3, {0: -2, 2: -1})   # D = 2 D_0 + D_2
    assert slope(om_d, P2_O1) == -3


def test_slope_facet_mismatch():
    with pytest.raises(FacetMismatch):
        slope(structure_sheaf(2), P2_O1)


def test_candidates_rank_one_empty():
    fam = candidate_subspaces(structure_sheaf(3))
    assert fam.subspaces == () and fam.reached_fixpoint


def test_candidates_three_lines():
    fam = candidate_subspaces(TANGENT)
    assert set(fam.subspaces) == {L1, L2, L3}
    assert fam.reached_fixpoint


def test_candidates_full_jump_empty():
    # both summands jump at the same index: the only jump subspace is E
    s = direct_sum(line_bundle(2, {0: 1}), line_bundle(2, {0: 1}))
    assert candidate_subspaces(s).subspaces == ()


def test_tangent_shape_stable_certified():
    verdict = check_stability(TANGENT, P2_O1)
    assert verdict.status == STABLE
    assert verdict.certainty == "Certified"
    assert verdict.slope == Fraction(3, 2)
    # best candidate line slope is 1 < 3/2
    assert verdict.slope_table[0][1] == 1


def test_line_max_profile_value():
    val, witness, fixpoint = max_line_slope(TANGENT, P2_O1)
    assert val == 1 and witness.dim == 1 and fixpoint
    assert slope(subsheaf(TANGENT, witness), P2_O1) == 1


def test_split_unstable_witness_is_bigger_summand():
    oa = line_bundle(2, {0: 3})   # slope 3 on the segment
    ob = line_bundle(2, {0: 1})   # slope 1
    verdict = check_stability(direct_sum(oa, ob), SEGMENT)
    assert verdict.status == UNSTABLE
    assert verdict.witness == Subspace.span(2, [(1, 0)])
    assert verdict.witness_slope == 3
    assert verdict.slope == 2


def test_split_verdicts_match_degree_sign():
    # rank-2 closures never grow past their seeds, so even cap 0 certifies
    for a, b in [(2, -1), (0, 0), (-3, -3), (1, 2)]:
        s = direct_sum(line_bundle(2, {0: a}), line_bundle(2, {0: b}))
        for cap in (stability.DEFAULT_CAP, 0):
            verdict = check_stability(s, SEGMENT, cap=cap)
            if a == b:
                assert verdict.status == SEMISTABLE
            else:
                assert verdict.status == UNSTABLE
            assert verdict.certainty == "Certified" and not verdict.cap_exceeded


def test_polystable_not_stable():
    s = direct_sum(line_bundle(2, {0: 2}), line_bundle(2, {0: 2}))
    verdict = check_stability(s, SEGMENT)
    assert verdict.status == SEMISTABLE
    assert verdict.certainty == "Certified"


def test_rank_one_always_stable():
    verdict = check_stability(line_bundle(3, {1: 7}), P2_O1)
    assert (verdict.status, verdict.certainty) == (STABLE, "Certified")


def test_verdict_invariant_under_dilation():
    rng = Random(50)
    for _ in range(10):
        s = random_sheaf(rng, 2, 3)
        v1 = check_stability(s, P2_O1)
        v2 = check_stability(s, P2.dilate(3).latvols())
        assert v1.status == v2.status
        assert v2.slope == 3 * v1.slope  # k^{n-1} scaling


def test_slope_gap_invariant_under_jump_shift():
    # shifting all jumps at one facet by delta shifts every slope alike
    rng = Random(51)
    for _ in range(10):
        s = random_sheaf(rng, 2, 3)
        delta = rng.randint(-2, 2)
        shifted = FiltrationSheaf(
            s.rank,
            (tuple((i + delta, v) for i, v in s.filtrations[0]),) + s.filtrations[1:])
        w = random_subspace(rng, 2, 1)
        gap = slope(s, P2_O1) - slope(subsheaf(s, w), P2_O1)
        gap_shifted = slope(shifted, P2_O1) - slope(subsheaf(shifted, w), P2_O1)
        assert gap == gap_shifted
        assert check_stability(s, P2_O1).status == check_stability(shifted, P2_O1).status


def test_dual_negates_slope():
    rng = Random(58)
    for degrees in (P2_O1, F1, P2.dilate(2).latvols()):
        for _ in range(20):
            s = random_sheaf(rng, rng.randint(1, 5), len(degrees))
            assert slope(dual(s), degrees) == -slope(s, degrees)


def coprofile_hyperplane_oracle(sheaf, degrees, cap):
    """The hyperplane maximum by co-profiles on the sum closure of the proper
    jump subspaces: for corank-one W, i_F(det S_W) = i_F(det S) - j_F(W) with
    j_F(W) = min{i : E^F(i) not<= W}, and a generic hyperplane above a sum S0
    contains exactly the jump steps inside S0.  Returns (max, member count,
    reached fixpoint)."""
    r = sheaf.rank
    found = dict.fromkeys(
        v for filt in sheaf.filtrations for _, v in filt if 0 < v.dim < r)
    frontier, fixpoint = list(found), True
    while frontier and fixpoint:
        new = []
        for a in frontier:
            for b in list(found):
                c = a.add(b)
                if a != b and c.dim < r and c not in found:
                    found[c] = None
                    new.append(c)
                    if len(found) > cap:
                        fixpoint = False
                        break
            if not fixpoint:
                break
        frontier = new
    det_sum = sum((Fraction(i) * degrees[f]
                   for f, i in enumerate(det_indices(sheaf))), Fraction(0))
    best = None
    for s0 in [Subspace.zero(r), *found]:
        jsum = sum((Fraction(next(i for i, v in filt if not s0.contains(v)))
                    * degrees[f] for f, filt in enumerate(sheaf.filtrations)),
                   Fraction(0))
        val = (jsum - det_sum) / (r - 1)
        if best is None or val > best:
            best = val
    return best, len(found), fixpoint


def test_hyperplane_stratum_matches_coprofile_oracle():
    rng = Random(59)
    classes = (P2_O1, F1, P2.dilate(2).latvols())
    for k in range(300):
        r = (2, 3, 4, 5, 2, 3)[k % 6]
        degrees = classes[k % 3] if r <= 3 else P2_O1
        s = random_sheaf(rng, r, len(degrees))
        want, size, want_fix = coprofile_hyperplane_oracle(s, degrees, stability.DEFAULT_CAP)
        val, hyper, fixpoint = max_hyperplane_slope(s, degrees)
        assert val == want and fixpoint == want_fix
        assert hyper.dim == r - 1
        if k % 10 == 0:
            # the dual line closure also holds the full dual space, so it
            # stops at ``cap`` exactly where the sum closure stops at cap - 1
            for cap in (size, size + 1):
                assert max_hyperplane_slope(s, degrees, cap=cap)[2] == \
                    coprofile_hyperplane_oracle(s, degrees, cap - 1)[2]


def test_line_profile_max_dominates_random_lines():
    rng = Random(52)
    for _ in range(25):
        s = random_sheaf(rng, 2, 3)
        best, _, _ = max_line_slope(s, P2_O1)
        for _ in range(100):
            line = random_subspace(rng, 2, 1)
            assert slope(subsheaf(s, line), P2_O1) <= best


def test_unstable_witness_verifies_exactly():
    rng = Random(53)
    for _ in range(20):
        s = random_sheaf(rng, rng.randint(2, 3), 3)
        verdict = check_stability(s, P2_O1, cap=400, random_trials=100)
        if verdict.status == UNSTABLE:
            assert slope(subsheaf(s, verdict.witness), P2_O1) == verdict.witness_slope
            assert verdict.witness_slope > verdict.slope


def generic_full_flag_sheaf(rng, rank, num_facets):
    """Generic full flags jumping at -1, 0, .., rank-2 on every facet; from
    four facets on their meet/join closure is infinite."""
    return FiltrationSheaf(rank, tuple(
        tuple(zip(range(-1, rank - 1), random_flag(rng, rank, list(range(1, rank + 1)))))
        for _ in range(num_facets)))


def line_hyperplane_sheaf(rng, num_facets):
    """Rank 4 with every proper jump a line or a hyperplane, 0-2 per facet."""
    filts = []
    for _ in range(num_facets):
        dims = sorted(rng.sample((1, 3), rng.randint(0, 2))) + [4]
        idx = sorted(rng.sample(range(-3, 4), len(dims)))
        filts.append(tuple(zip(idx, random_flag(rng, 4, dims))))
    return FiltrationSheaf(4, tuple(filts))


def test_certified_stable_sheaves_are_simple():
    # a stable sheaf is simple (Huybrechts-Lehn, Cor. 1.2.8): End = QQ.
    # Rank 4 uses a small cap, since only Certified verdicts are checked
    rng = Random(84)
    start = time.perf_counter()
    seen = Counter()
    for k in range(360):
        degrees = (P2_O1, F1)[k % 2]
        if k < 300:
            s = random_sheaf(rng, rng.randint(2, 3), len(degrees))
            verdict = check_stability(s, degrees)
        else:
            s = line_hyperplane_sheaf(rng, len(degrees))
            verdict = check_stability(s, degrees, cap=200, random_trials=20)
        seen[verdict.status, verdict.certainty, s.rank] += 1
        if (verdict.status, verdict.certainty) == (STABLE, "Certified"):
            assert hom_space(s, s).dim == 1
    assert sum(n for (status, cert, _), n in seen.items()
               if (status, cert) == (STABLE, "Certified")) >= 20
    assert sum(n for (_, cert, r), n in seen.items() if cert == "Certified" and r == 4) >= 20
    assert time.perf_counter() - start < 10


def test_cap_exceeded_downgrades_to_heuristic():
    # four generic full flags in rank 4 spin up a meet/join closure past any cap
    rng = Random(54)
    square = HPolytope(2, [((1, 0), 1), ((-1, 0), 1), ((0, 1), 1), ((0, -1), 1)]).latvols()
    for _ in range(5):
        s = generic_full_flag_sheaf(rng, 4, 4)
        verdict = check_stability(s, square, cap=40, random_trials=20)
        if verdict.cap_exceeded:
            assert verdict.certainty == "Heuristic"
            assert "candidates" in verdict.notes
            break
    else:
        pytest.fail("no rank-4 sheaf with generic full flags exceeded cap=40")


def test_rank3_generic_flags_certified_from_exact_strata(monkeypatch):
    # four generic full flags: the candidate closure is infinite, yet lines
    # and planes are every proper subspace and both strata close finitely
    def no_candidates(*_):
        raise AssertionError("rank 3 must not build the candidate closure")

    monkeypatch.setattr(stability, "candidate_subspaces", no_candidates)
    s = generic_full_flag_sheaf(Random(55), 3, 4)
    verdict = check_stability(s, F1)
    assert verdict.certainty == "Certified" and not verdict.cap_exceeded
    assert verdict.slope == 0
    best = max(max_line_slope(s, F1)[0], max_hyperplane_slope(s, F1)[0])
    want = UNSTABLE if best > 0 else SEMISTABLE if best == 0 else STABLE
    assert verdict.status == want
    if verdict.witness is not None:
        assert verdict.witness_slope == best


def test_elimination_work_counts_are_pinned(monkeypatch):
    # exact elimination counts of one Certified rank-3 job: containment
    # reads residuals against the cached kernel of the stored rows, a sum or
    # meet reads the smaller side's residuals against the larger side and
    # eliminates only two or more of them (so no pair in QQ^3 ranks), a
    # proper meet costs one rref, a perp one rref of that kernel, the
    # closure meets each unordered pair once and never a line or the full
    # space, a subsheaf's coordinates are read off its rows, and every rref
    # is one echelon, so a second elimination routine, a stacked rank or a
    # trivial meet creeping back in shows as a changed count
    s = generic_full_flag_sheaf(Random(55), 3, 4)
    counts = {name: count_calls(monkeypatch, linalg, name)
              for name in ("echelon", "int_rank", "rref")}
    meets = count_calls(monkeypatch, Subspace, "intersect")
    verdict = check_stability(s, F1)
    assert verdict.certainty == "Certified"
    assert {name: c[name] for name, c in counts.items()} == \
        {"echelon": 26, "int_rank": 0, "rref": 26}
    assert meets["intersect"] == 44
    for gone in ("rank", "nullspace", "solve_general"):
        assert not hasattr(linalg, gone), gone


def test_profiles_and_line_scores_eliminate_nothing(monkeypatch):
    # flag-adapted coordinates come from the jumps' kernels; a profile is
    # read off the highest nonzero coordinate and a line's position off its
    # last nonzero coordinate, so neither needs an echelon form
    s = generic_full_flag_sheaf(Random(54), 4, 4)
    members, fixpoint = stability._closure(
        [v for filt in s.filtrations for _, v in filt], 4, stability.DEFAULT_CAP, join=False)
    assert fixpoint and len(members) == 35
    lines = [c for c in members if c.dim == 1] + [random_subspace(Random(76), 4, 1)]
    calls = count_calls(monkeypatch, linalg, "echelon")
    score = stability._slope_scorer(s, F1)
    profiles = [stability._profile(s, c) for c in members]
    scores = [score(line.rows) for line in lines]
    assert calls["echelon"] == 0
    assert profiles == [jump_rank_profile(s, c) for c in members]
    assert len(lines) > 10
    assert scores == [slope(subsheaf(s, line), F1) for line in lines]


def test_strata_cap_hit_sets_cap_exceeded():
    # rank 3 builds no candidates, so only a strata closure can hit the cap
    s = generic_full_flag_sheaf(Random(56), 3, 4)
    verdict = check_stability(s, F1, cap=9, random_trials=10)
    assert verdict.cap_exceeded and verdict.certainty == "Heuristic"
    assert "lines" in verdict.notes or "hyperplanes" in verdict.notes
    assert verdict.status != STABLE


def test_dimension_count_slope_matches_subsheaf():
    rng = Random(57)
    classes = (P2_O1, F1, P2.dilate(2).latvols())
    for _ in range(200):
        degrees = rng.choice(classes)
        r = rng.randint(2, 5)
        s = random_sheaf(rng, r, len(degrees))
        score = stability._slope_scorer(s, degrees)
        for _ in range(5):
            w = random_subspace(rng, r, rng.randint(1, r - 1))
            assert score(w.rows) == slope(subsheaf(s, w), degrees)


def jump_rank_scorer(sheaf, degrees):
    """The former scorer: dim(W n E) = dim W + dim E - rank[W; E], one
    integer rank per jump."""
    r = sheaf.rank
    jumps = [[(i, v.dim, v.rows) for i, v in filt] for filt in sheaf.filtrations]

    def score(w_rows):
        dim_w = len(w_rows)
        total = Fraction(0)
        for deg, facet_jumps in zip(degrees, jumps):
            index, prev = 0, 0
            for i, dim_e, e_rows in facet_jumps:
                d = dim_w if dim_e == r else dim_w + dim_e - linalg.int_rank(w_rows + e_rows)
                index += i * (d - prev)
                prev = d
                if d == dim_w:
                    break
            total += index * deg
        return -total / dim_w

    return score


def jump_rank_profile(sheaf, c):
    """The former profile: the first jump containing C, by stacked rank."""
    return [next(i for i, v in filt if linalg.int_rank(v.rows + c.rows) == v.dim)
            for filt in sheaf.filtrations]


def special_subspace(rng, sheaf, dim):
    """A subspace spanned by vectors of random jump subspaces: it meets the
    flags in more than the generic dimensions."""
    r = sheaf.rank
    jumps = [v for filt in sheaf.filtrations for _, v in filt]
    while True:
        vecs = [[sum(rng.randint(-2, 2) * row[j] for row in rng.choice(jumps).rows)
                 for j in range(r)] for _ in range(dim)]
        w = Subspace.span(r, vecs)
        if w.dim == dim:
            return w


def test_schubert_scores_and_profiles_match_jump_rank_oracles():
    # sheaves of rank 2-5 with full and partial flags, and their duals;
    # random and special W of every dimension, and the closure members
    rng = Random(74)
    classes = (P2_O1, F1, P2.dilate(2).latvols())
    seen = dict.fromkeys(("partial", "special"), 0)
    for k in range(320):
        degrees, r = classes[k % 3], 2 + k % 4
        s = random_sheaf(rng, r, len(degrees))
        for sheaf in (s, dual(s)):
            score, want = stability._slope_scorer(sheaf, degrees), jump_rank_scorer(sheaf, degrees)
            seen["partial"] += any(len(filt) < r for filt in sheaf.filtrations)
            for dim in range(r + 1):
                for w in (random_subspace(rng, r, dim), special_subspace(rng, sheaf, dim)):
                    assert stability._profile(sheaf, w) == jump_rank_profile(sheaf, w)
                    if dim:
                        assert score(w.rows) == want(w.rows)
                        seen["special"] += score(w.rows) != score(
                            random_subspace(rng, r, dim).rows)
            seeds = [v for filt in sheaf.filtrations for _, v in filt]
            for c in stability._closure(seeds, r, 60, join=False)[0]:
                assert stability._profile(sheaf, c) == jump_rank_profile(sheaf, c)
    assert all(count >= 200 for count in seen.values()), seen


def all_pairs_closure(seeds, rank, cap, join):
    """The former closure: every frontier member against every member found
    before the round, both orders of each pair."""
    found = dict.fromkeys(seeds)
    frontier = list(found)
    while frontier:
        new = []
        existing = list(found)
        for a in frontier:
            for b in existing:
                if a == b:
                    continue
                results = [a.intersect(b), a.add(b)] if join else [a.intersect(b)]
                for c in results:
                    if c.is_zero() or (join and c.dim >= rank):
                        continue
                    if c not in found:
                        found[c] = None
                        new.append(c)
                        if len(found) > cap:
                            return list(found), False
        frontier = new
    return list(found), True


def test_closure_matches_the_all_pairs_oracle():
    # members in order and the fixpoint flag, at every cap up to one past
    # the fixpoint (or past 30 members), in both modes
    rng = Random(75)
    seen = dict.fromkeys(("fixpoint", "capped"), 0)
    for k in range(36):
        r = 2 + k % 3
        s = generic_full_flag_sheaf(rng, r, 4) if k % 4 == 3 else random_sheaf(rng, r, 3)
        for join in (False, True):
            seeds = (stability._proper_jump_subspaces(s) if join
                     else [v for filt in s.filtrations for _, v in filt])
            members, fixpoint = all_pairs_closure(seeds, r, 30, join)
            seen["fixpoint" if fixpoint else "capped"] += 1
            for cap in range(len(members) + 2 if fixpoint else 32):
                assert stability._closure(seeds, r, cap, join) == \
                    all_pairs_closure(seeds, r, cap, join)
    assert all(count >= 8 for count in seen.values()), seen


def test_closure_never_meets_a_line_or_the_full_space(monkeypatch):
    # such a meet is 0 or one of the pair, so the closure skips it; the
    # members are still checked against the oracle above
    met = []
    original = Subspace.intersect

    def recording(a, b):
        met.append((a.dim, b.dim, a.ambient))
        return original(a, b)

    monkeypatch.setattr(Subspace, "intersect", recording)
    rng = Random(92)
    for k in range(24):
        r = 2 + k % 4
        s = generic_full_flag_sheaf(rng, r, 4) if k % 3 == 2 else random_sheaf(rng, r, 4)
        for join in (False, True):
            seeds = (stability._proper_jump_subspaces(s) if join
                     else [v for filt in s.filtrations for _, v in filt])
            stability._closure(seeds, r, 60, join)
    assert len(met) > 100
    assert all({a, b}.isdisjoint({1, n}) for a, b, n in met)


def test_integer_degree_sums_match_fraction_oracles():
    # scores and line values sum in integers over the degree vector times
    # the lcm of its denominators; degree vectors with denominators (the
    # facet volumes 1/2 of a triangle with support 1/2, as on the modulus-2
    # quotients, and seeded positive rationals) must give the Fraction sums
    rng = Random(93)
    triangle = HPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), Fraction(1, 2))]).latvols()
    assert {d.denominator for d in triangle} == {2}
    checked = 0
    for k in range(18):
        r = 2 + k % 3
        nf = 3 if k % 2 else 4
        degrees = triangle if nf == 3 and k % 4 == 1 else tuple(
            Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 4, 6, 7))) for _ in range(nf))
        s = random_sheaf(rng, r, nf)
        score = stability._slope_scorer(s, degrees)
        ws = [random_subspace(rng, r, rng.randint(1, r - 1)) for _ in range(4)]
        ws += list(candidate_subspaces(s, 40).subspaces)[:8]
        for w in ws:
            assert score(w.rows) == slope(subsheaf(s, w), degrees)
        seeds = [v for filt in s.filtrations for _, v in filt]
        members, fixpoint = stability._closure(seeds, r, 200, join=False)
        oracle = max(-sum((Fraction(p) * d for p, d in
                           zip(stability._profile(s, c), degrees)), Fraction(0))
                     for c in members)
        value, line, line_fix = stability._line_stratum(s, degrees, 200)
        assert (value, line_fix) == (oracle, fixpoint)
        assert slope(subsheaf(s, line), degrees) == value
        checked += len(ws)
    assert checked > 100


def test_semistable_witness_reverified_through_subsheaf(monkeypatch):
    seen = []

    def recording_subsheaf(sheaf, w):
        seen.append(w)
        return subsheaf(sheaf, w)

    monkeypatch.setattr(stability, "subsheaf", recording_subsheaf)
    s = direct_sum(line_bundle(2, {0: 2}), line_bundle(2, {0: 2}))
    verdict = check_stability(s, SEGMENT)
    assert verdict.status == SEMISTABLE
    assert seen[-1] == verdict.witness


def test_witness_check_survives_optimize_flag():
    # a subsheaf with shifted jumps has the wrong slope; the witness check
    # must raise even when assert statements are compiled away
    code = (
        "from toricgit import stability\n"
        "from toricgit.errors import InternalError\n"
        "from toricgit.klyachko import FiltrationSheaf, direct_sum, line_bundle, subsheaf\n"
        "from toricgit.polytope import HPolytope\n"
        "def shifted(sheaf, w):\n"
        "    sub = subsheaf(sheaf, w)\n"
        "    return FiltrationSheaf(sub.rank, tuple(\n"
        "        tuple((i + 1, v) for i, v in f) for f in sub.filtrations))\n"
        "stability.subsheaf = shifted\n"
        "seg = HPolytope(1, [((1,), 1), ((-1,), 1)])\n"
        "s = direct_sum(line_bundle(2, {0: 3}), line_bundle(2, {0: 1}))\n"
        "try:\n"
        "    stability.check_stability(s, seg.latvols())\n"
        "except InternalError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    raise SystemExit('witness check vanished')\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, timeout=120, env={"PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    assert "witness slope failed verification" in proc.stdout


def test_package_has_no_assert_statements():
    # invariant checks raise InternalError, so python -O keeps them
    for path in sorted((SRC / "toricgit").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert at lines {lines}"


def test_package_imports_only_the_standard_library():
    # the package stays stdlib-only: every absolute import names a stdlib module
    for path in sorted((SRC / "toricgit").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, \
                    f"{path.name}:{node.lineno} imports {name}"


def test_verdict_serialization():
    verdict = check_stability(TANGENT, P2_O1)
    data = verdict.to_json_dict()
    assert data["status"] == "Stable" and data["ground_field"] == "QQ"
    assert data["slope"] == "3/2"
    assert isinstance(data["seed"], int)
