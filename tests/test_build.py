from fractions import Fraction
from random import Random

import pytest

from toricgit.build import (
    MAX_DIM,
    BundleSpec,
    alpha_surface_formula,
    hirzebruch,
    product,
    projective_space,
    projectivized_bundle,
)
from toricgit.errors import InputError, NotAmple
from toricgit.git import pullback_functor
from toricgit.klyachko import MAX_FACETS, line_bundle, structure_sheaf
from toricgit.minkowski import minkowski_condition
from toricgit.polytope import same_normal_fan

from util import jump_indices, random_quotient_sheaf, support_vector


def test_projective_space_polytope():
    p = projective_space(2, 3)
    assert p.num_facets == 3
    assert len(p.vertices) == 3
    # same class as the (1,1,1)-support simplex up to translation
    translated = p.translate((-1, -1))
    assert support_vector(translated) == (Fraction(1), Fraction(1), Fraction(1))
    assert same_normal_fan(p, translated)


def test_projective_space_vertex_count_and_closure():
    for n, k in ((1, 2), (2, 1), (3, 2)):
        p = projective_space(n, k)
        assert len(p.vertices) == n + 1
        sums = [sum(lv * u[j] for (u, _), lv in zip(p.facets, p.latvols()))
                for j in range(n)]
        assert all(x == 0 for x in sums)


def test_projective_space_parameter_validation():
    with pytest.raises(InputError):
        projective_space(0, 1)
    with pytest.raises(InputError):
        projective_space(2, 0)


def test_size_slots_are_bounded():
    # a size past its named maximum is malformed input, not a request for
    # that many facets
    assert projective_space(MAX_DIM).num_facets == MAX_DIM + 1
    assert line_bundle(MAX_FACETS, {0: 1}).num_facets == MAX_FACETS
    for call in (lambda: projective_space(MAX_DIM + 1), lambda: projective_space(10 ** 30),
                 lambda: line_bundle(MAX_FACETS + 1, {}), lambda: line_bundle(10 ** 30, {}),
                 lambda: line_bundle(-1, {})):
        with pytest.raises(InputError):
            call()


def test_product_of_segments_is_square():
    sq = product(projective_space(1, 1), projective_space(1, 1))
    assert sq.n == 2 and sq.num_facets == 4
    assert sq.volume() == 1


def test_hirzebruch_has_four_facets():
    h = hirzebruch(1)
    assert h.num_facets == 4
    assert h.n == 2
    h2 = hirzebruch(2, (0, 0, 2, 1))
    assert h2.num_facets == 4


def test_bundle_p1_over_p1_is_p1xp1_shape():
    # trivial summand: X = P^1 x P^1 but with the fiber segment centered
    seg = projective_space(1, 2)
    spec = BundleSpec(seg, ({},))
    setup = projectivized_bundle(spec)
    assert setup.polytope.n == 2
    assert setup.stable_facets == (0, 1)
    assert setup.unstable_facets == (2, 3)
    py, _, b = setup.quotient_polytope()
    assert py == seg
    assert set(b.values()) == {1}


def test_bundle_setup_invariants_random():
    rng = Random(90)
    bases = [projective_space(2, 3),
             product(projective_space(1, 2), projective_space(1, 2))]
    for base in bases:
        for _ in range(4):
            r = rng.randint(1, 2)
            summands = tuple(
                {f: rng.randint(0, 1) for f in range(base.num_facets)}
                for _ in range(r))
            try:
                setup = projectivized_bundle(BundleSpec(base, summands))
            except NotAmple:
                continue
            d = base.num_facets
            assert setup.stable_facets == tuple(range(d))
            assert setup.unstable_facets == tuple(range(d, d + r + 1))
            assert minkowski_condition(setup).holds
            py, _, b = setup.quotient_polytope()
            assert py == base and set(b.values()) == {1}


def test_bundle_not_ample_raises_with_advice():
    base = product(projective_space(1, 2), projective_space(1, 2))
    with pytest.raises(NotAmple):
        projectivized_bundle(BundleSpec(base, ({0: 5},)))


def test_functor_zero_is_fiberwise_pullback_shape():
    # P_0 copies stable filtrations (b = 1) and jumps at 0 on fiber facets
    rng = Random(91)
    base = product(projective_space(1, 2), projective_space(1, 2))
    setup = projectivized_bundle(BundleSpec(base, ({0: 1}, {2: 1})))
    sheaf = random_quotient_sheaf(rng, setup)
    lifted = pullback_functor(setup, {f: 0 for f in setup.unstable_facets}, sheaf)
    for f in setup.stable_facets:
        assert lifted.filtrations[f] == sheaf.filtrations[f]
    for f in setup.unstable_facets:
        assert jump_indices(lifted, f) == (0,)
        assert lifted.value_at(f, 0).is_full()


def test_structure_sheaf_lifts_to_structure_sheaf():
    seg = projective_space(1, 2)
    setup = projectivized_bundle(BundleSpec(seg, ({},)))
    lifted = pullback_functor(setup, {f: 0 for f in setup.unstable_facets},
                              structure_sheaf(2))
    assert lifted == structure_sheaf(4)


def test_alpha_surface_formula_values():
    # trivial bundle over P^2 with L_Y = O(1): the class 3H (every facet
    # divisor is linearly equivalent to H, so compare total H-coefficients)
    spec = BundleSpec(projective_space(2, 1), ({}, {}))
    out = alpha_surface_formula(spec)
    assert sum(out.as_dict().values()) == 3
    # L_Y = O(1,1), D1 = O(1,0), D2 = 0 -> class 3(1,1)+(1,0) = (4,3)
    base = product(projective_space(1, 1), projective_space(1, 1))
    spec2 = BundleSpec(base, ({0: 1}, {}))
    out2 = alpha_surface_formula(spec2).as_dict()
    # base facets 0,1 are the x-sides (supports 0,1), 2,3 the y-sides
    assert out2 == {0: 1, 1: 3, 3: 3}
    x_class = out2.get(0, 0) + out2.get(1, 0)
    y_class = out2.get(2, 0) + out2.get(3, 0)
    assert (x_class, y_class) == (4, 3)
    # dimension guard
    with pytest.raises(InputError):
        alpha_surface_formula(BundleSpec(projective_space(1, 1), ({},)))


def test_bundle_summands_reject_non_integers():
    base = projective_space(2, 1)
    for summand in ({0: 1.7}, {0: Fraction(2)}, {0.0: 1}, {"0": 1}, {0: True}):
        with pytest.raises(InputError, match="expected integer"):
            BundleSpec(base, (summand,))
    assert BundleSpec(base, ({0: 2, 1: 0},)).summands == ({0: 2},)


def test_bundle_json_round_trip():
    base = product(projective_space(1, 2), projective_space(1, 2))
    spec = BundleSpec(base, ({0: 1}, {2: 1}))
    assert BundleSpec.from_json_dict(spec.to_json_dict()) == spec
