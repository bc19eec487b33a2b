"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with `pytest -s tests/test_acceptance.py` to see
them).  Tolerances are pinned here and nowhere else."""

import time
from fractions import Fraction
from random import Random

from toricgit.build import (
    BundleSpec,
    alpha_surface_formula,
    hirzebruch,
    product,
    projective_space,
    projectivized_bundle,
)
from toricgit.errors import InfeasibleTargets
from toricgit.git import (
    GitSetup,
    descends,
    pullback,
    pullback_functor,
    pushforward,
    restrict_to_stable,
    translation_classes,
)
from toricgit.klyachko import (
    FiltrationSheaf,
    Subspace,
    det_indices,
    dimension_jumps,
    direct_sum,
    line_bundle,
    subsheaf,
)
from toricgit.lattice import Sublattice
from toricgit.minkowski import (
    ample_class_alpha,
    compatible_subgroups,
    converse_falsifier,
    minkowski_condition,
    solve_minkowski,
    verify_slope_identity,
    is_weighted_projective_quotient,
)
from toricgit.polytope import HPolytope
from toricgit.stability import check_stability, max_line_slope, slope

import pytest

from util import (
    anticanonical,
    jump_indices,
    normalized_supports,
    random_sheaf,
    random_subspace,
    solved_polytope,
)


def _bundle_setup_2_2():
    """The projectivized-bundle setup over the doubled square base with the
    two balanced summands; stable facets 0-3, unstable 4-6."""
    base = product(projective_space(1, 2), projective_space(1, 2))
    spec = BundleSpec(base, ({0: 1}, {2: 1}))
    return spec, projectivized_bundle(spec)


@pytest.fixture(scope="module")
def setup_pool():
    """Generic rank-1-subgroup setups drawn from the 2-d families, spanning
    nontrivial divisibility moduli."""
    families = [
        projective_space(2, 1),
        projective_space(2, 2),
        hirzebruch(1),
        hirzebruch(2, (0, 0, 2, 1)),
        product(projective_space(1, 1), projective_space(1, 2)),
    ]
    directions = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, 3), (2, -1)]
    pool = []
    for poly in families:
        for direction in directions:
            n0 = Sublattice(2, (direction,))
            for k in (1, 2, 3):
                for _, moved in translation_classes(poly, n0, k):
                    setup = GitSetup(moved, n0)
                    if setup.is_generic():
                        pool.append(setup)
    assert len(pool) >= 200
    # the divisibility machinery must actually be exercised
    assert any(b > 1 for s in pool for b in s.b_values().values())
    return pool


def test_acceptance_01_projective_plane_pipeline():
    t0 = time.monotonic()
    poly = HPolytope(2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)])
    setup = GitSetup(poly, Sublattice(2, ((1, 1),)))
    assert setup.is_generic()
    assert len(setup.stable_facets) == 2
    py, fmap, b = setup.quotient_polytope()
    assert tuple(b[f] for f in setup.stable_facets) == (1, 1)
    assert py.n == 1 and py.volume() == 2
    report = minkowski_condition(setup)
    assert report.holds and report.defect == (Fraction(0),)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: PASS - generic, 2 stable facets, b=(1,1), "
          f"quotient segment of length 2, defect 0 ({elapsed:.3f}s)")


def test_acceptance_02_compatible_subgroups_projective_spaces():
    t0 = time.monotonic()
    res2 = compatible_subgroups(projective_space(2, 1), k_max=6)
    assert len(res2.subgroups) == 3
    assert res2.upper_bound == 3  # the counting bound equals n+1 when d = n+1
    for s in res2.subgroups:
        assert is_weighted_projective_quotient(GitSetup(s.polytope, s.sublattice))
    res3 = compatible_subgroups(projective_space(3, 1), k_max=6)
    assert len(res3.subgroups) == 4
    assert res3.upper_bound == 4
    for s in res3.subgroups:
        assert is_weighted_projective_quotient(GitSetup(s.polytope, s.sublattice))
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 2: PASS - P2: 3 subgroups, P3: 4 subgroups, all "
          f"weighted projective, bounds n+1 ({elapsed:.3f}s)")


def test_acceptance_03_latvol_equals_degree():
    for k in (1, 2, 3):
        poly = projective_space(2, k)
        assert all(lv == k for lv in poly.latvols())
        assert poly.degree(anticanonical(poly)) == 3 * k
    f1 = hirzebruch(1)
    sums = [sum(lv * u[j] for (u, _), lv in zip(f1.facets, f1.latvols()))
            for j in range(2)]
    assert sums == [0, 0]
    print("\nACCEPTANCE 3: PASS - P2 O(k) facet volumes k, deg(-K)=3k "
          "(k=1,2,3); Hirzebruch closure sum 0, all exact")


def test_acceptance_04_descent_round_trips(setup_pool):
    t0 = time.monotonic()
    rng = Random(20240604)
    descending = non_descending = 0
    for _ in range(200):
        setup = rng.choice(setup_pool)
        d = setup.polytope.num_facets
        b = setup.b_values()
        py, _, _ = setup.quotient_polytope()

        # pushforward o pullback functor = identity on quotient sheaves
        q_sheaf = random_sheaf(rng, rng.randint(1, 3), py.num_facets)
        ivec = {f: rng.randint(-2, 2) for f in setup.unstable_facets}
        assert pushforward(setup, pullback_functor(setup, ivec, q_sheaf)) == q_sheaf

        # descends <=> jump divisibility <=> pullback(pushforward(S)) = S|stable
        mult = [b.get(f, 1) if rng.random() < 0.6 else 1 for f in range(d)]
        sheaf = random_sheaf(rng, rng.randint(1, 3), d, multiples=mult)
        divisible = all(j % b[f] == 0 for f in setup.stable_facets
                        for j in jump_indices(sheaf, f))
        ok = descends(setup, sheaf)
        assert ok == divisible
        stable = restrict_to_stable(setup, sheaf)
        assert (pullback(setup, pushforward(setup, sheaf)) == stable) == ok

        # subsheaves of descending sheaves descend
        if ok and sheaf.rank > 1:
            w = random_subspace(rng, sheaf.rank, rng.randint(1, sheaf.rank - 1))
            assert descends(setup, subsheaf(sheaf, w))
        descending += ok
        non_descending += not ok
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    assert descending and non_descending
    print(f"\nACCEPTANCE 4: PASS - 200 random setups/sheaves, round trips "
          f"exact ({descending} descending / {non_descending} not, {elapsed:.1f}s)")


def test_acceptance_05_functor_identities(setup_pool):
    rng = Random(20240605)
    for _ in range(60):
        setup = rng.choice(setup_pool)
        py, fmap, _ = setup.quotient_polytope()
        b = setup.b_values()
        q_sheaf = random_sheaf(rng, rng.randint(1, 3), py.num_facets)
        ivec = {f: rng.randint(-2, 2) for f in setup.unstable_facets}
        lifted = pullback_functor(setup, ivec, q_sheaf)
        # jump comparison
        for f in setup.stable_facets:
            jumps = dimension_jumps(lifted, f)
            assert all(i % b[f] == 0 for i in jumps)
            assert {i // b[f]: e for i, e in jumps.items()} == \
                dimension_jumps(q_sheaf, fmap[f])
        for f, i_f in ivec.items():
            assert dimension_jumps(lifted, f) == {i_f: -q_sheaf.rank}
        # determinant comparison
        det_x, det_y = det_indices(lifted), det_indices(q_sheaf)
        for f in setup.stable_facets:
            assert det_x[f] == b[f] * det_y[fmap[f]]
        for f, i_f in ivec.items():
            assert det_x[f] == i_f * q_sheaf.rank
        # line-bundle image identity
        f1 = rng.choice(setup.stable_facets)
        image = pullback_functor(setup, ivec, line_bundle(py.num_facets, {fmap[f1]: 1}))
        coeffs = {f1: b[f1], **{f: -i_f for f, i_f in ivec.items()}}
        assert image == line_bundle(setup.polytope.num_facets, coeffs)
    print("\nACCEPTANCE 5: PASS - functor jump/determinant/line-bundle "
          "identities exact on 60 random setups")


def test_acceptance_06_slope_identity_numerical():
    t0 = time.monotonic()
    _, setup = _bundle_setup_2_2()
    alpha = ample_class_alpha(setup, seed=20240606)
    rng = Random(20240606)
    for trial in range(50):
        q_sheaf = random_sheaf(rng, rng.randint(1, 3), 4)
        if trial % 2 == 0:
            ivec = {f: 0 for f in setup.unstable_facets}
        else:
            ivec = {f: rng.randint(-3, 3) for f in setup.unstable_facets}
        report = verify_slope_identity(setup, q_sheaf, ivec, alpha)
        assert report.residual == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 6: PASS - 50 random sheaves, slope identity exact "
          f"({elapsed:.1f}s)")


def test_acceptance_07_alpha_direction_matches_formula():
    spec, setup = _bundle_setup_2_2()
    alpha = ample_class_alpha(setup, seed=20240607)
    assert alpha.residual <= 1e-6
    py, _, _ = setup.quotient_polytope()
    formula = alpha_surface_formula(spec).as_dict()
    reference = normalized_supports(
        [u for u, _ in py.facets],
        [formula.get(i, Fraction(0)) for i in range(py.num_facets)])
    diff = max(abs(a - b) for a, b in zip(alpha.direction(), reference))
    assert diff <= 1e-12
    # trivial-bundle control: direction of the cube of the base class, which
    # is the base class direction
    base = product(projective_space(1, 2), projective_space(1, 2))
    trivial = projectivized_bundle(BundleSpec(base, ({}, {})))
    alpha0 = ample_class_alpha(trivial, seed=20240607)
    ref0 = normalized_supports([u for u, _ in base.facets],
                               [a for _, a in base.facets])
    diff0 = max(abs(a - b) for a, b in zip(alpha0.direction(), ref0))
    assert diff0 <= 1e-12
    print(f"\nACCEPTANCE 7: PASS - alpha direction vs closed form diff "
          f"{diff:.2e}; trivial-bundle control diff {diff0:.2e}")


def test_acceptance_08_stability_preserved_by_lift():
    _, setup = _bundle_setup_2_2()
    alpha = ample_class_alpha(setup, seed=20240608)
    zero = {f: 0 for f in setup.unstable_facets}
    rng = Random(20240608)
    statuses = set()
    for _ in range(20):
        q_sheaf = random_sheaf(rng, 2, 4)
        down = check_stability(q_sheaf, alpha.targets)
        up = check_stability(pullback_functor(setup, zero, q_sheaf),
                             setup.polytope.latvols())
        assert down.certainty == "Certified" and up.certainty == "Certified"
        assert down.status == up.status
        statuses.add(down.status)
    print(f"\nACCEPTANCE 8: PASS - 20 random rank-2 sheaves, verdicts agree "
          f"(statuses seen: {sorted(statuses)})")


def test_acceptance_09_converse_falsifier():
    # hand-perturbed box: stable degrees (4, 3) against the diagonal subgroup
    perturbed = GitSetup(
        HPolytope(2, [((1, 0), 1), ((0, 1), 1), ((-1, 0), 2), ((0, -1), 3)]),
        Sublattice(2, ((1, 1),)))
    assert not minkowski_condition(perturbed).holds
    cx = converse_falsifier(perturbed)
    assert cx is not None
    assert cx.lifted_slopes[0] == cx.lifted_slopes[1]  # equal slopes upstairs
    assert len(set(cx.ratios.values())) > 1            # ratio c not constant
    # bundle setups always balance
    for summands in (({},), ({0: 1}, {2: 1}), ({1: 1},)):
        base = product(projective_space(1, 2), projective_space(1, 2))
        setup = projectivized_bundle(BundleSpec(base, summands))
        assert converse_falsifier(setup) is None
    print("\nACCEPTANCE 9: PASS - perturbed setup falsified (equal lifted "
          "slopes, ratios {0}), bundles return none".format(
              sorted(cx.ratios.values())))


def test_acceptance_10_minkowski_solver_unit():
    normals = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    sol = solve_minkowski(normals, [2, 1, 2, 1])
    assert sol.residual <= 1e-6
    snapped = solved_polytope(sol)
    assert snapped.latvols() == (2, 1, 2, 1)       # exact 1 x 2 rectangle
    a = solve_minkowski(normals, [2, 1, 2, 1], seed=101)
    b = solve_minkowski(normals, [2, 1, 2, 1], seed=202)
    drift = max(abs(x - y) for x, y in zip(a.supports, b.supports))
    assert drift == 0                               # exact: the seed is not read
    try:
        solve_minkowski(normals, [2, 1, 1, 1])
        raise AssertionError("unbalanced targets must be rejected")
    except InfeasibleTargets:
        pass
    print(f"\nACCEPTANCE 10: PASS - rectangle residual {sol.residual:.2e}, "
          f"restart drift {drift:.2e}, infeasible rejected")


def test_acceptance_11_stability_oracle():
    t0 = time.monotonic()
    p2_o1 = projective_space(2, 1).latvols()
    lines = [Subspace.span(2, [(1, 0)]), Subspace.span(2, [(0, 1)]),
             Subspace.span(2, [(1, 1)])]
    full = Subspace.full(2)
    tangent = FiltrationSheaf(2, tuple(((-1, l), (0, full)) for l in lines))
    verdict = check_stability(tangent, p2_o1)
    assert (verdict.status, verdict.certainty) == ("Stable", "Certified")
    assert verdict.slope == Fraction(3, 2)

    segment = projective_space(1, 2).latvols()
    for a, b in ((3, 1), (0, 0), (-1, 2), (2, 2), (-4, -4), (5, -5)):
        s = direct_sum(line_bundle(2, {0: a}), line_bundle(2, {0: b}))
        v = check_stability(s, segment)
        if a == b:
            assert v.status == "Semistable"
        else:
            assert v.status == "Unstable"

    rng = Random(20240611)
    for _ in range(50):
        sheaf = random_sheaf(rng, 2, 3)
        best, _, _ = max_line_slope(sheaf, p2_o1)
        for _ in range(500):
            line = random_subspace(rng, 2, 1)
            assert slope(subsheaf(sheaf, line), p2_o1) <= best
    elapsed = time.monotonic() - t0
    print(f"\nACCEPTANCE 11: PASS - tangent-shape Stable/Certified mu=3/2, "
          f"split verdicts match sign, line max dominates 500x50 random "
          f"lines ({elapsed:.1f}s)")
