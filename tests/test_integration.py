"""End-to-end pipeline on quotients with nontrivial divisibility moduli.

The acceptance bundle setups all have b_F = 1; these cases run the whole
stack (classification, quotient, balance check, class reconstruction, slope
identity, verdict preservation) through a modulus-2 facet on a box, where
the quotients are a weighted projective triangle and a hexagon.
"""

from random import Random

from toricgit import minkowski
from toricgit.build import BundleSpec, product, projective_space, projectivized_bundle
from toricgit.git import (
    GitSetup,
    pullback_functor,
    translation_classes,
)
from toricgit.lattice import Sublattice
from toricgit.minkowski import (
    ample_class_alpha,
    is_weighted_projective_quotient,
    minkowski_condition,
    quotient_degrees,
    verify_slope_identity,
)
from toricgit.stability import check_stability

from util import random_sheaf

import pytest


@pytest.fixture(scope="module")
def b2_setups():
    box = product(product(projective_space(1, 1), projective_space(1, 1)),
                  projective_space(1, 2))
    n0 = Sublattice(3, ((2, 2, 1),))
    out = []
    for _, moved in translation_classes(box, n0, 1):
        setup = GitSetup(moved, n0)
        if setup.is_generic():
            out.append(setup)
    assert len(out) >= 3
    return out


def test_modulus_two_quotients_balance_exactly(b2_setups):
    shapes = set()
    for setup in b2_setups:
        assert minkowski_condition(setup).holds
        assert 2 in setup.b_values().values()
        py, _, _ = setup.quotient_polytope()
        shapes.add(py.num_facets)
    # both the triangle (weighted projective) and hexagon quotients occur
    assert 3 in shapes and 6 in shapes


def test_modulus_two_slope_identity(b2_setups):
    rng = Random(2024)
    for setup in b2_setups[:3]:
        py, _, _ = setup.quotient_polytope()
        alpha = ample_class_alpha(setup, seed=9)
        assert alpha.residual <= 1e-6
        for _ in range(6):
            sheaf = random_sheaf(rng, rng.randint(1, 3), py.num_facets)
            ivec = {f: rng.randint(-2, 2) for f in setup.unstable_facets}
            report = verify_slope_identity(setup, sheaf, ivec, alpha)
            assert report.residual == 0


def test_modulus_two_weighted_projective_quotient(b2_setups):
    kinds = {is_weighted_projective_quotient(s) for s in b2_setups}
    assert kinds == {True, False}


def test_modulus_two_stability_preserved(b2_setups):
    rng = Random(2025)
    setup = next(s for s in b2_setups
                 if is_weighted_projective_quotient(s))
    py, _, _ = setup.quotient_polytope()
    alpha = ample_class_alpha(setup, seed=9)
    zero = {f: 0 for f in setup.unstable_facets}
    for _ in range(8):
        sheaf = random_sheaf(rng, 2, py.num_facets)
        down = check_stability(sheaf, alpha.targets)
        up = check_stability(pullback_functor(setup, zero, sheaf), setup.polytope.latvols())
        assert down.certainty == up.certainty == "Certified"
        assert down.status == up.status


def test_threefold_quotient_stability_against_exact_degrees(monkeypatch):
    # P(O + O(D)) over P^2 x P^1 quotients to a 3-fold, where alpha's float
    # supports snap to a polytope with other facet volumes; the verdict
    # against alpha's exact degrees needs no solve and matches the lift's
    def no_solve(*_args, **_kwargs):
        raise AssertionError("a verdict against alpha must not solve")

    monkeypatch.setattr(minkowski, "solve_minkowski", no_solve)
    base = product(projective_space(2, 3), projective_space(1, 3))
    rng = Random(2026)
    statuses = set()
    for summands in (({0: 1},), ({3: 1},), ({0: 1}, {4: 1})):
        setup = projectivized_bundle(BundleSpec(base, summands))
        assert setup.dim_quotient() == 3 and minkowski_condition(setup).holds
        degrees = quotient_degrees(setup)
        for k in range(10):
            sheaf = random_sheaf(rng, rng.randint(2, 3), base.num_facets)
            ivec = {f: 0 for f in setup.unstable_facets} if k % 2 else \
                {f: rng.randint(-2, 2) for f in setup.unstable_facets}
            down = check_stability(sheaf, degrees)
            up = check_stability(pullback_functor(setup, ivec, sheaf),
                                 setup.polytope.latvols())
            assert down.certainty == up.certainty == "Certified"
            assert down.status == up.status
            statuses.add(down.status)
    assert {"Stable", "Unstable"} <= statuses
