import math
from collections import Counter
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from toricgit import lattice, linalg, minkowski
from toricgit.build import BundleSpec, hirzebruch, product, projective_space, projectivized_bundle
from toricgit.errors import (
    CurveQuotient,
    InfeasibleTargets,
    InputError,
    NoConvergence,
    NotGeneric,
)
from toricgit.git import GitSetup, translation_classes
from toricgit.lattice import Sublattice, primitive_content, saturate
from toricgit.minkowski import (
    MAX_K,
    ample_class_alpha,
    compatible_subgroups,
    converse_falsifier,
    curve_slope_ratio,
    is_weighted_projective_quotient,
    minkowski_condition,
    solve_minkowski,
)
from toricgit.polytope import HPolytope

from util import (
    BASE_FAMILIES,
    count_calls,
    normalized_supports,
    random_generic_setup,
    random_polytope,
    solved_polytope,
)

N0_DIAG = Sublattice(2, ((1, 1),))
SETUP = GitSetup(HPolytope(2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)]), N0_DIAG)
# box [-1,2] x [-1,3]: stable degrees (4, 3), Minkowski defect 1
PERTURBED = GitSetup(
    HPolytope(2, [((1, 0), 1), ((0, 1), 1), ((-1, 0), 2), ((0, -1), 3)]), N0_DIAG)


def test_condition_holds_on_balanced_setup():
    report = minkowski_condition(SETUP)
    assert report.holds and report.defect == (Fraction(0),)


def test_condition_defect_on_perturbed_setup():
    report = minkowski_condition(PERTURBED)
    assert not report.holds
    assert report.defect in ((Fraction(1),), (Fraction(-1),))


def test_condition_requires_generic():
    bad = GitSetup(HPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)]), N0_DIAG)
    with pytest.raises(NotGeneric):
        minkowski_condition(bad)


def test_condition_with_zero_sublattice_always_holds():
    rng = Random(80)
    for poly in (projective_space(2, 2),
                 product(projective_space(1, 1), projective_space(1, 3)),
                 HPolytope(2, [((1, 0), 2), ((0, 1), 1), ((-1, 1), 3), ((0, -1), 1)])):
        setup = GitSetup(poly, Sublattice(2, ()))
        report = minkowski_condition(setup)
        assert report.holds


def test_solver_rectangle_from_spec_targets():
    sol = solve_minkowski([(1, 0), (0, 1), (-1, 0), (0, -1)], [2, 1, 2, 1])
    assert sol.residual <= 1e-6
    expected = (0.5, 1.0, 0.5, 1.0)
    assert max(abs(a - e) for a, e in zip(sol.supports, expected)) < 1e-5
    # the snapped polytope has exactly the requested facet volumes
    poly = solved_polytope(sol)
    assert poly.latvols() == (2, 1, 2, 1)


def test_solver_square_symmetry():
    sol = solve_minkowski([(1, 0), (0, 1), (-1, 0), (0, -1)], [1, 1, 1, 1])
    assert max(abs(a - 0.5) for a in sol.supports) < 1e-7


def test_solver_restarts_agree_up_to_translation():
    a = solve_minkowski([(1, 0), (0, 1), (-1, 0), (0, -1)], [2, 1, 2, 1], seed=11)
    b = solve_minkowski([(1, 0), (0, 1), (-1, 0), (0, -1)], [2, 1, 2, 1], seed=99)
    assert max(abs(x - y) for x, y in zip(a.supports, b.supports)) <= 1e-5


def test_solver_infeasible_targets():
    with pytest.raises(InfeasibleTargets):
        solve_minkowski([(1, 0), (0, 1), (-1, 0), (0, -1)], [2, 1, 1, 1])
    with pytest.raises(InfeasibleTargets):
        solve_minkowski([(1, 0), (0, 1), (-1, -1)], [1, 2, 1])  # sum = (0, 1)
    with pytest.raises(InfeasibleTargets):
        solve_minkowski([(1, 0), (-1, 0)], [1, 1])  # normals do not span


def test_solver_hexagon():
    normals = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
    targets = [1, 2, 1, 1, 2, 1]
    # balance: (1-1) + (1-1)*(-1,1)... verified inside; residual small
    sol = solve_minkowski(normals, targets, tol=1e-7)
    assert sol.residual <= 1e-7


def test_solver_three_dimensional_cube():
    normals = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    for tol in (1e-5, 1e-9):
        sol = solve_minkowski(normals, [2, 2, 8, 8, 4, 4], tol=tol)
        assert sol.residual <= tol and sol.iterations <= 10
        poly = solved_polytope(sol, 10 ** 4)
        # a 1 x 4 x 2 box: x-faces have area 8 ... checked via targets
        lv = [float(x) for x in poly.latvols()]
        assert max(abs(a - b) / b for a, b in zip(lv, [2, 2, 8, 8, 4, 4])) < 1e-4


def test_solver_fails_typed_below_the_snapping_size():
    # supports near 1e-15 snap to 0 at denominators <= 10^12
    cube = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    assert solve_minkowski(cube, [Fraction(1, 10 ** 20)] * 6).residual == 0
    with pytest.raises(NoConvergence):
        solve_minkowski(cube, [Fraction(1, 10 ** 30)] * 6)


def test_solver_cuts_in_a_facet_absent_at_the_start(monkeypatch):
    # the cube [-1, 1]^3 with a sliver cut off an edge by 5x + y >= -11/2;
    # from the start jittered by seed 4 that cut misses the start polytope
    normals = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
               (5, 1, 0)]
    poly = HPolytope(3, [(u, 1) for u in normals[:6]] + [((5, 1, 0), Fraction(11, 2))])
    targets = list(poly.latvols())
    first = []
    volume_data = minkowski.hsystem_volume_data

    def recording(*args, **kwargs):
        out = volume_data(*args, **kwargs)
        first.append(out[1])
        return out

    monkeypatch.setattr(minkowski, "hsystem_volume_data", recording)
    sol = solve_minkowski(normals, targets, tol=1e-9, seed=4)
    assert first[0][6] == 0 and all(first[0][:6])
    assert sol.residual <= 1e-9 and sol.iterations <= 10
    bary = linalg.barycenter(poly.vertices)
    gauged = [float(a + sum(b * c for b, c in zip(bary, u))) for u, a in poly.facets]
    assert max(abs(x - y) for x, y in zip(sol.supports, gauged)) < 1e-8


def test_solver_newton_on_polytopes_of_dimension_three_and_four():
    # targets read off seeded polytopes, exact and as floats, at three scales
    rng = Random(113)
    for k in range(16):
        n = 3 if k % 4 else 4
        poly = random_polytope(rng, n)
        scale = Fraction(rng.choice((1, 1000))) / rng.choice((1, 1000))
        targets = [scale * t for t in poly.latvols()]
        normals = [u for u, _ in poly.facets]
        for volumes in (targets, [float(t) for t in targets]):
            sol = solve_minkowski(normals, volumes, tol=1e-9, seed=k if k % 2 else None)
            assert sol.residual <= 1e-9 and sol.iterations <= 10 and sol.exact is None


def test_solver_rejects_tol_below_the_floor():
    square = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    cube = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    for normals in (square, cube):
        for tol in (minkowski.TOL_FLOOR / 2, 0.0, -1.0, float("nan")):
            with pytest.raises(InputError):
                solve_minkowski(normals, [1] * len(normals), tol=tol)
        assert solve_minkowski(normals, [1] * len(normals),
                               tol=minkowski.TOL_FLOOR).residual <= minkowski.TOL_FLOOR


def _random_primitive(rng: Random) -> tuple[int, int]:
    while True:
        u = (rng.randint(-3, 3), rng.randint(-3, 3))
        if u != (0, 0):
            return primitive_content(u)[0]


def random_balanced_polygon(rng: Random, q: int) -> tuple[list, list]:
    """Distinct primitive normals with entries in [-3, 3], often with an
    opposite pair, and positive targets in (1/q)ZZ whose weighted normal sum
    is exactly zero: the last two targets close the polygon."""
    while True:
        normals = []
        for _ in range(rng.randint(3, 7)):
            u = _random_primitive(rng)
            if u not in normals:
                normals.append(u)
        if rng.random() < 0.3 and (-normals[0][0], -normals[0][1]) not in normals:
            normals.insert(1, (-normals[0][0], -normals[0][1]))
        *free, v, w = normals
        d = v[0] * w[1] - v[1] * w[0]
        if d == 0:
            continue
        # free targets in (d/q)ZZ keep the closing ones in (1/q)ZZ
        targets = [Fraction(abs(d) * rng.randint(1, 4 * q), q) for _ in free]
        s = [-sum(t * u[j] for t, u in zip(targets, free)) for j in range(2)]
        t_v = (s[0] * w[1] - s[1] * w[0]) / d
        t_w = (v[0] * s[1] - v[1] * s[0]) / d
        if t_v > 0 and t_w > 0:
            return normals, targets + [t_v, t_w]


def _direction(supports):
    norm = math.sqrt(sum(a * a for a in supports))
    return [a / norm for a in supports]


def test_planar_solver_is_exact_and_agrees_with_newton():
    rng = Random(109)
    cases = []
    # the surface classes of the rank-1 and rank-2 bundles over dP6
    hexagon = HPolytope(2, [(u, 1) for u in ((1, 0), (0, 1), (-1, 1), (-1, 0),
                                             (0, -1), (1, -1))])
    for summands in (({4: 1},), ({3: 1},), ({0: 1, 1: 1},), ({5: 1},),
                     ({4: 1}, {1: 1}), ({3: 1}, {4: 1}), ({4: 2}, {0: 1, 4: 2})):
        alpha = ample_class_alpha(projectivized_bundle(BundleSpec(hexagon, summands)))
        cases.append((list(alpha.normals), list(alpha.targets)))
    # an octagon with targets over 997
    cases.append(([(0, -1), (-2, 1), (-1, -1), (1, 1), (1, 2), (0, 1), (-1, -3), (4, 1)],
                  [Fraction(t, 997) for t in (1038, 6247, 5820, 98, 3638, 4723, 5502, 5020)]))
    for _ in range(200):
        cases.append(random_balanced_polygon(rng, rng.choice((1, 2, 3, 6, 12, 997, 99991))))
    opposite = sum(any((-u[0], -u[1]) in normals for u in normals) for normals, _ in cases)
    assert opposite >= 50
    for k, (normals, targets) in enumerate(cases):
        sol = solve_minkowski(normals, targets, tol=1e-9, seed=k)
        assert (sol.residual, sol.iterations) == (0.0, 0)
        poly = solved_polytope(sol)
        assert poly.latvols() == tuple(targets)
        assert linalg.barycenter(poly.vertices) == (0, 0)
        # the same targets as floats take Newton, at the default tol
        newton = solve_minkowski(normals, [float(t) for t in targets],
                                 seed=k if k % 2 else None)
        assert newton.residual <= 1e-6 and newton.exact is None
        diff = max(abs(a - b) for a, b in zip(_direction(sol.supports),
                                              _direction(newton.supports)))
        assert diff <= 1e-6


def test_exact_planar_solution_keeps_the_exact_supports():
    # a sliver: supports up to 1.5e7 with denominator 3 * 99991, which the
    # float supports snapped at denominators <= 10^6 do not recover
    normals = [(-1115767, 1118151), (1, 0), (0, -1)]
    targets = [Fraction(1, 99991), Fraction(1115767, 99991), Fraction(1118151, 99991)]
    sol = solve_minkowski(normals, targets)
    exact = HPolytope(2, zip(normals, sol.exact))
    assert exact.latvols() == tuple(targets)
    assert linalg.barycenter(exact.vertices) == (0, 0)
    snapped = HPolytope(2, [(u, Fraction(a).limit_denominator(10 ** 6))
                            for u, a in zip(normals, sol.supports)])
    assert snapped.latvols() != tuple(targets)


def test_solver_volume_evaluations_are_pinned(monkeypatch):
    calls = count_calls(monkeypatch, minkowski, "hsystem_volume_data")
    # the edge walk is checked by one evaluation, whatever tol, max_iter and seed
    hexagon = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
    solve_minkowski(hexagon, [1, 2, 1, 1, 2, 1], tol=1e-9, max_iter=1, seed=4)
    assert calls["hsystem_volume_data"] == 1
    # Newton on the 1 x 4 x 2 box: the start, the scaled start, one full step
    # per iteration and the final check
    cube = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    sol = solve_minkowski(cube, [2, 2, 8, 8, 4, 4], tol=1e-5)
    assert sol.iterations == 5
    assert calls["hsystem_volume_data"] == 1 + 8
    with pytest.raises(NoConvergence):
        solve_minkowski(cube, [2, 2, 8, 8, 4, 4], tol=1e-5, max_iter=4)


def test_solver_rejects_dimension_one():
    with pytest.raises(InputError):
        solve_minkowski([(1,), (-1,)], [1, 1])


def test_solver_round_trip_reconstructs_known_polytopes():
    # targets taken from an actual polytope must reproduce it up to the
    # translation gauge (uniqueness of the facet-volume problem)
    rng = Random(83)
    shapes = [
        HPolytope(2, [((1, 0), 2), ((0, 1), 1), ((-1, -1), 3)]),
        HPolytope(2, [((1, 0), 1), ((0, 1), 2), ((-1, 1), 3), ((0, -1), 1)]),
        HPolytope(2, [((1, 0), 1), ((0, 1), 1), ((-1, 0), 2), ((0, -1), 3)]),
    ]
    for poly in shapes:
        normals = [u for u, _ in poly.facets]
        sol = solve_minkowski(normals, list(poly.latvols()), tol=1e-7,
                              seed=rng.randint(0, 10 ** 6))
        bary = linalg.barycenter(poly.vertices)
        gauged = [float(a + sum(Fraction(b) * c for b, c in zip(bary, u)))
                  for u, a in poly.facets]
        assert max(abs(x - y) for x, y in zip(sol.supports, gauged)) < 1e-5


def test_alpha_curve_quotient_guard():
    with pytest.raises(CurveQuotient):
        ample_class_alpha(SETUP)


def test_curve_ratio_constancy_matches_condition():
    ratios, const = curve_slope_ratio(SETUP)
    assert const and set(ratios.values()) == {Fraction(3)}
    ratios2, const2 = curve_slope_ratio(PERTURBED)
    assert not const2 and sorted(ratios2.values()) == [3, 4]


def test_curve_quotient_proportionality_identity():
    # dim(Y) = 1: the slope identity degenerates to the exact rational
    # proportionality mu_L(lift) + correction = c * mu_deg(sheaf), with
    # mu_deg the slope for the degree-1-per-point convention
    from toricgit.git import pullback_functor
    from toricgit.klyachko import det_indices
    from toricgit.stability import slope

    from util import random_sheaf

    rng = Random(86)
    ratios, const = curve_slope_ratio(SETUP)
    assert const
    c = next(iter(ratios.values()))
    for _ in range(15):
        q_sheaf = random_sheaf(rng, rng.randint(1, 3), 2)
        ivec = {f: rng.randint(-2, 2) for f in SETUP.unstable_facets}
        lifted = pullback_functor(SETUP, ivec, q_sheaf)
        lhs = slope(lifted, SETUP.polytope.latvols())
        correction = sum(i * SETUP.polytope.facet_latvol(f)
                         for f, i in ivec.items())
        mu_deg = -Fraction(sum(det_indices(q_sheaf)), q_sheaf.rank)
        assert lhs + correction == c * mu_deg


def test_falsifier_produces_counterexample_on_perturbed_setup():
    cx = converse_falsifier(PERTURBED)
    assert cx is not None
    assert cx.lifted_slopes[0] == cx.lifted_slopes[1]
    assert len(set(cx.ratios.values())) > 1
    assert any(x != 0 for x in cx.defect)
    # the construction swaps the weighted degrees
    assert {cx.d1, cx.d2} == {3, 4}


def test_falsifier_none_on_balanced_setups():
    assert converse_falsifier(SETUP) is None
    rng = Random(81)
    for _ in range(10):
        setup = random_generic_setup(rng)
        if minkowski_condition(setup).holds:
            assert converse_falsifier(setup) is None
        else:
            assert converse_falsifier(setup) is not None


def test_weighted_projective_quotient_tests():
    # 1-dimensional quotients always have 2 = dim + 1 facets
    assert is_weighted_projective_quotient(SETUP)
    # a bundle over the square quotients to the square: 4 facets, dim 2
    from toricgit.build import BundleSpec, projectivized_bundle

    base = product(projective_space(1, 2), projective_space(1, 2))
    bundle = projectivized_bundle(BundleSpec(base, ({},)))
    assert not is_weighted_projective_quotient(bundle)


def test_compatible_subgroups_p2():
    res = compatible_subgroups(projective_space(2, 1), k_max=6)
    found = {s.sublattice.generators for s in res.subgroups}
    assert found == {((1, 1),), ((1, 0),), ((0, 1),)}
    assert res.upper_bound == 3
    assert res.complete_hypothesis
    for s in res.subgroups:
        assert s.from_vertex_star
        setup = GitSetup(s.polytope, s.sublattice)
        assert is_weighted_projective_quotient(setup)
        assert minkowski_condition(setup).holds


def test_compatible_subgroups_p3():
    res = compatible_subgroups(projective_space(3, 1), k_max=6)
    assert len(res.subgroups) == 4
    assert res.upper_bound == 4
    for s in res.subgroups:
        setup = GitSetup(s.polytope, s.sublattice)
        assert is_weighted_projective_quotient(setup)


def test_hirzebruch_hypothesis_vs_square():
    from toricgit.build import hirzebruch

    # parameter >= 2 keeps every weighted normal sum nonzero
    res = compatible_subgroups(hirzebruch(2, (0, 0, 2, 1)), k_max=3)
    assert res.complete_hypothesis
    # the product of two equal segments has cancelling subsets
    square = product(projective_space(1, 1), projective_space(1, 1))
    res2 = compatible_subgroups(square, k_max=3)
    assert not res2.complete_hypothesis
    assert res2.zero_direction_subsets > 0


def test_vertex_star_directions_never_vanish():
    rng = Random(82)
    polys = [projective_space(2, k) for k in (1, 2)] + [
        product(projective_space(1, 1), projective_space(1, 2))]
    for poly in polys:
        degrees = poly.latvols()
        for face in poly.face_lattice:
            if face.dim == 0:
                u = [sum(degrees[f] * poly.facets[f][0][j]
                         for f in face.active_facets) for j in range(poly.n)]
                assert any(x != 0 for x in u)


def test_normalized_supports_translation_and_scale_invariance():
    normals = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    base = normalized_supports(normals, [1, 2, 3, 4])
    shifted = normalized_supports(normals, [
        Fraction(1) - 1, Fraction(2) - 2, Fraction(3) + 1, Fraction(4) + 2])
    scaled = normalized_supports(normals, [3, 6, 9, 12])
    assert max(abs(a - b) for a, b in zip(base, shifted)) < 1e-12
    assert max(abs(a - b) for a, b in zip(base, scaled)) < 1e-12


def full_scan_search(poly, n0, subset, k_max):
    """Oracle for minkowski._search_linearization: one setup per lattice
    translation class, in the order of translation_classes."""
    want = tuple(sorted(subset))
    for k in range(1, k_max + 1):
        for _, moved in translation_classes(poly, n0, k):
            setup = GitSetup(moved, n0)
            if setup.is_generic() and setup.stable_facets == want:
                return setup, k
    return None


def test_chamber_scan_finds_what_the_full_translation_scan_finds(monkeypatch):
    rng = Random(97)
    hits = 0
    for _ in range(30):
        poly = rng.choice(BASE_FAMILIES)()
        poly = poly.dilate(Fraction(rng.randint(1, 3), rng.randint(1, 2))).translate(
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(poly.n)])
        k_max = rng.randint(4, 6)
        got = compatible_subgroups(poly, k_max).to_json_dict()
        with monkeypatch.context() as m:
            m.setattr(minkowski, "_search_linearization", full_scan_search)
            assert compatible_subgroups(poly, k_max).to_json_dict() == got
        hits += len(got["subgroups"])
    assert hits >= 30


def test_subgroup_search_builds_one_setup_per_chamber_on_f1(monkeypatch):
    calls = count_calls(monkeypatch, minkowski, "GitSetup")
    compatible_subgroups(hirzebruch(1), k_max=6)
    assert calls["GitSetup"] == 3  # one per hit: the chambers are read off the vertices


def test_subgroup_search_builds_one_quotient_lattice_per_sublattice(monkeypatch):
    calls = count_calls(monkeypatch, lattice, "QuotientLattice")
    res = compatible_subgroups(hirzebruch(1), k_max=6)
    assert len(res.subgroups) == 3
    assert calls["QuotientLattice"] == 3  # one per direction hit, of the 5 searched


def search_directions(poly) -> dict:
    """The saturated directions N0 = ZZ u_D that compatible_subgroups tries,
    each with its facet subsets D (size n..d-1, u_D != 0)."""
    degrees = poly.latvols()
    out = {}
    for size in range(poly.n, poly.num_facets):
        for subset in combinations(range(poly.num_facets), size):
            u = [sum(degrees[f] * poly.facets[f][0][j] for f in subset) for j in range(poly.n)]
            if any(u):
                prim = primitive_content(linalg.int_rows([u])[0])[0]
                gens = saturate(Sublattice(poly.n, (prim,))).generators
                out.setdefault(gens, set()).add(subset)
    return out


def test_chamber_rule_matches_the_setup_in_every_chamber():
    # every open chamber of every direction the search tries, at every
    # dilation, whether its stable set is a subset D of that direction (a
    # hit) or not: the stable facets read off the vertex values
    # (minkowski._chambers) are those of the classified setup at both the
    # greatest and the least integer slice inside, and the setup is generic
    # iff rank N0 = 1 < n
    rng = Random(211)
    polys = [projective_space(1, 3), hirzebruch(1).translate([Fraction(1, 3), 0])]
    polys += [family() for family in BASE_FAMILIES[:4]]
    polys += [random_polytope(rng, n) for n in (1, 2, 2, 3)]
    seen = Counter()
    for poly in polys:
        poly = poly.dilate(Fraction(rng.randint(1, 3), rng.randint(1, 2))).translate(
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(poly.n)])
        directions = search_directions(poly)
        chosen = sorted(directions)
        if poly.n == 3:
            chosen = rng.sample(chosen, min(4, len(chosen)))
        for gens in chosen:
            n0 = Sublattice(poly.n, gens)
            rinv = [row[0] for row in linalg.integer_right_inverse(gens)]
            scale, chambers = minkowski._chambers(poly, gens[0])
            for k in range(1, MAX_K + 1):
                dilated = poly.dilate(k)
                for lo, hi, stable in chambers:
                    slices = {(k * hi - 1) // scale, k * lo // scale + 1}
                    for c in (c for c in slices if k * lo < c * scale < k * hi):
                        # the slice <m, g> = c of k*P is <m, g> = 0 of its translate
                        setup = GitSetup(dilated.translate([-c * r for r in rinv]), n0)
                        assert setup.stable_facets == stable, (poly.facets, gens, k, c)
                        assert setup.is_generic() == (poly.n > 1)
                        seen[poly.n] += 1
                        seen["hit" if stable in directions[gens] else "miss"] += 1
    assert seen[1] >= 10 and seen[2] >= 1000 and seen[3] >= 200, seen
    assert seen["hit"] >= 100 and seen["miss"] >= 1000, seen
