import json
from collections import Counter
from fractions import Fraction
from itertools import islice, product
from random import Random

import pytest

from toricgit import linalg
from toricgit.build import BundleSpec, projective_space, projectivized_bundle
from toricgit.cli import main
from toricgit.errors import InputError, InternalError, NotGeneric, NotSaturated
from toricgit.git import (
    STABLE,
    STRICTLY_SEMISTABLE,
    UNSTABLE,
    GitSetup,
    descends,
    in_image,
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
    hom_space,
    is_morphism,
    line_bundle,
    structure_sheaf,
    subsheaf,
)
from toricgit.lattice import Sublattice
from toricgit.polytope import HPolytope

from util import (
    count_calls,
    jump_indices,
    fourier_motzkin_point,
    non_simple_polytope,
    random_generic_setup,
    random_polytope,
    random_quotient_sheaf,
    random_saturated_sublattice,
    random_sheaf,
    random_subspace,
)

N0_DIAG = Sublattice(2, ((1, 1),))
P2_TRANSLATED = HPolytope(2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)])
P2_UNTRANSLATED = HPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)])

SETUP = GitSetup(P2_TRANSLATED, N0_DIAG)


def status_of(setup, facets):
    key = frozenset(facets)
    for fs in setup.classification:
        if fs.face.active_facets == key:
            return fs.status
    raise AssertionError(f"no face with active set {facets}")


def test_classification_of_translated_degree3_setup():
    assert status_of(SETUP, [0]) == STABLE
    assert status_of(SETUP, [1]) == STABLE
    assert status_of(SETUP, [2]) == UNSTABLE
    assert status_of(SETUP, []) == STABLE
    for pair in ([0, 1], [0, 2], [1, 2]):
        assert status_of(SETUP, pair) == UNSTABLE
    assert SETUP.is_generic()
    assert SETUP.stable_facets == (0, 1)
    assert SETUP.unstable_facets == (2,)


def test_untranslated_setup_meets_u_only_at_vertex():
    setup = GitSetup(P2_UNTRANSLATED, N0_DIAG)
    assert not setup.is_generic()
    assert status_of(setup, [0, 1]) == STRICTLY_SEMISTABLE
    assert setup.stable_facets == ()


def test_full_sublattice_not_generic():
    full = Sublattice(2, ((1, 0), (0, 1)))
    assert not GitSetup(P2_TRANSLATED, full).is_generic()


def test_zero_sublattice_everything_stable():
    setup = GitSetup(P2_TRANSLATED, Sublattice(2, ()))
    assert setup.is_generic()
    assert all(fs.status == STABLE for fs in setup.classification)
    py, fmap, b = setup.quotient_polytope()
    assert py.num_facets == 3 and all(v == 1 for v in b.values())


def test_unsaturated_sublattice_rejected():
    with pytest.raises(NotSaturated):
        GitSetup(P2_TRANSLATED, Sublattice(2, ((2, 2),)))


def test_semistable_monotone_under_face_inclusion():
    rng = Random(60)
    for _ in range(12):
        setup = random_generic_setup(rng)
        by_key = {fs.face.active_facets: fs.status for fs in setup.classification}
        for fs in setup.classification:
            if fs.status == STABLE:
                # every face containing a stable face is semistable
                for other in setup.classification:
                    if other.face.active_facets < fs.face.active_facets:
                        assert by_key[other.face.active_facets] != UNSTABLE


def test_quotient_polytope_segment():
    py, fmap, b = SETUP.quotient_polytope()
    assert py.n == 1
    assert py.volume() == 2  # lattice length 2 segment
    assert b == {0: 1, 1: 1}
    assert fmap == {0: 0, 1: 1}


def test_quotient_polytope_not_generic_fails_fast():
    setup = GitSetup(P2_UNTRANSLATED, N0_DIAG)
    with pytest.raises(NotGeneric):
        setup.quotient_polytope()
    with pytest.raises(NotGeneric):
        pushforward(setup, structure_sheaf(3))
    with pytest.raises(NotGeneric):
        descends(setup, structure_sheaf(3))


def test_b_values_with_content_two():
    # N0 = Z(1,2): pi = (2, -1) pairing, pi(e1) = 2
    n0 = Sublattice(2, ((1, 2),))
    found = None
    for k in (1, 2, 3, 4):
        for _, moved in translation_classes(P2_UNTRANSLATED, n0, k):
            setup = GitSetup(moved, n0)
            if setup.is_generic() and 0 in setup.stable_facets:
                found = setup
                break
        if found:
            break
    assert found is not None
    assert found.b_values()[0] == 2


def test_translation_classes_are_enumerated_lazily():
    # 10**15 + 1 classes: the first is read without storing the others
    box = HPolytope(2, [((1, 0), 0), ((-1, 0), 10 ** 15), ((0, 1), 0), ((0, -1), 1)])
    classes = translation_classes(box, Sublattice(2, [(1, 0)]), 1)
    assert [s for s, _ in islice(classes, 2)] == [(-10 ** 15,), (1 - 10 ** 15,)]
    # in the order of itertools.product, the first generator slowest
    cube = HPolytope(3, [(u, a) for i in range(3) for u, a in
                         (((0,) * i + (1,) + (0,) * (2 - i), 0),
                          ((0,) * i + (-1,) + (0,) * (2 - i), 2 + i))])
    n0 = Sublattice(3, [(1, 0, 0), (0, 1, 0)])
    assert [s for s, _ in translation_classes(cube, n0, 1)] == \
        list(product(range(-2, 1), range(-3, 1)))


def synthetic_b2_setup():
    """A generic setup with b = 2 on one stable facet (for divisibility)."""
    n0 = Sublattice(2, ((1, 2),))
    for k in (1, 2, 3, 4):
        for _, moved in translation_classes(P2_UNTRANSLATED, n0, k):
            setup = GitSetup(moved, n0)
            if setup.is_generic() and set(setup.b_values().values()) == {1, 2}:
                return setup
    raise AssertionError("no b=2 setup found")


def test_pushforward_copies_when_b_is_one():
    rng = Random(61)
    sheaf = random_sheaf(rng, 2, 3)
    pf = pushforward(SETUP, sheaf)
    assert pf.filtrations == tuple(sheaf.filtrations[f] for f in SETUP.stable_facets)


def test_pushforward_b2_jump_compression():
    setup = synthetic_b2_setup()
    bmap = setup.b_values()
    f2 = next(f for f in setup.stable_facets if bmap[f] == 2)
    pos = setup.stable_facets.index(f2)
    full = Subspace.full(1)
    filts = []
    for f in range(setup.polytope.num_facets):
        filts.append(((1, full),) if f == f2 else ((0, full),))
    sheaf = FiltrationSheaf(1, tuple(filts))
    pf = pushforward(setup, sheaf)
    # E(1): pushforward jumps at ceil(1/2) = 1 since E(0) = 0, E(2) = E
    assert jump_indices(pf, pos) == (1,)


def test_pullback_scales_jumps_by_b():
    setup = synthetic_b2_setup()
    b = setup.b_values()
    py, fmap, _ = setup.quotient_polytope()
    sheaf = line_bundle(py.num_facets, {0: 1})  # jump at -1 on quotient facet 0
    pb = pullback(setup, sheaf)
    for pos, f in enumerate(setup.stable_facets):
        expected = tuple(b[f] * j for j in jump_indices(sheaf, fmap[f]))
        assert jump_indices(pb, pos) == expected


def test_pullback_floor_division_negative_jumps():
    setup = synthetic_b2_setup()
    b = setup.b_values()
    py, fmap, _ = setup.quotient_polytope()
    # quotient sheaf with a jump at -1: lifted jump sits at -b_F
    sheaf = line_bundle(py.num_facets, {f: 1 for f in range(py.num_facets)})
    pb = pullback(setup, sheaf)
    for pos, f in enumerate(setup.stable_facets):
        assert jump_indices(pb, pos) == (-b[f],)


def test_descends_examples():
    # with all b = 1 everything descends
    rng = Random(62)
    assert descends(SETUP, random_sheaf(rng, 2, 3))
    setup = synthetic_b2_setup()
    bmap = setup.b_values()
    f2 = next(f for f in setup.stable_facets if bmap[f] == 2)
    full = Subspace.full(1)
    filts = []
    for f in range(setup.polytope.num_facets):
        filts.append(((3, full),) if f == f2 else ((0, full),))
    assert not descends(setup, FiltrationSheaf(1, tuple(filts)))
    filts[f2] = ((4, full),)
    assert descends(setup, FiltrationSheaf(1, tuple(filts)))


def test_pullback_functor_round_trip_and_membership():
    rng = Random(63)
    for _ in range(10):
        setup = random_generic_setup(rng)
        sheaf = random_quotient_sheaf(rng, setup)
        ivec = {f: rng.randint(-2, 2) for f in setup.unstable_facets}
        lifted = pullback_functor(setup, ivec, sheaf)
        assert in_image(setup, ivec, lifted)
        assert descends(setup, lifted)
        assert pushforward(setup, lifted) == sheaf  # pushforward o functor = id
        # wrong index vector is rejected by the membership test
        if setup.unstable_facets:
            wrong = {f: v + 1 for f, v in ivec.items()}
            assert not in_image(setup, wrong, lifted)


def test_index_vector_rejects_non_integers():
    sheaf = line_bundle(2, {0: 1})
    for d in ({2.9: 0.5}, {2: 0.5}, {2.0: 1}, {"2": 1}, {2: Fraction(1)}, {True: 0}):
        with pytest.raises(InputError, match="expected integer"):
            pullback_functor(SETUP, d, sheaf)
        with pytest.raises(InputError, match="expected integer"):
            in_image(SETUP, d, pullback_functor(SETUP, {2: 0}, sheaf))
    # the key order of the mapping does not matter
    setup = projectivized_bundle(BundleSpec(projective_space(1, 2), ({},)))
    assert setup.unstable_facets == (2, 3)
    lifted = pullback_functor(setup, {3: -1, 2: 0}, structure_sheaf(2))
    assert lifted == pullback_functor(setup, {2: 0, 3: -1}, structure_sheaf(2))
    assert lifted.filtrations[2:] == (((0, Subspace.full(1)),), ((-1, Subspace.full(1)),))


def test_in_image_rejects_multi_jump_unstable_facets():
    rng = Random(64)
    setup = SETUP
    sheaf = random_quotient_sheaf(rng, setup, max_rank=2)
    ivec = {f: 0 for f in setup.unstable_facets}
    lifted = pullback_functor(setup, ivec, sheaf)
    if lifted.rank >= 2:
        # replace the unstable facet filtration with two jumps
        w = random_subspace(rng, lifted.rank, 1)
        full = Subspace.full(lifted.rank)
        broken = list(lifted.filtrations)
        broken[2] = ((0, w), (1, full))
        assert not in_image(setup, ivec, FiltrationSheaf(lifted.rank, tuple(broken)))


def test_descent_jump_divisibility_equivalence():
    rng = Random(65)
    checked_divisible = checked_indivisible = 0
    for _ in range(30):
        setup = random_generic_setup(rng)
        b = setup.b_values()
        mult = [b.get(f, 1) if rng.random() < 0.5 else 1
                for f in range(setup.polytope.num_facets)]
        sheaf = random_sheaf(rng, rng.randint(1, 3), setup.polytope.num_facets,
                             multiples=mult)
        want = all(j % b[f] == 0
                   for f in setup.stable_facets for j in jump_indices(sheaf, f))
        assert descends(setup, sheaf) == want
        stable = restrict_to_stable(setup, sheaf)
        roundtrip = pullback(setup, pushforward(setup, sheaf))
        assert (roundtrip == stable) == want
        checked_divisible += want
        checked_indivisible += not want
    assert checked_divisible and checked_indivisible


def test_subsheaf_of_descending_descends():
    rng = Random(66)
    for _ in range(15):
        setup = random_generic_setup(rng)
        b = setup.b_values()
        mult = [b.get(f, 1) for f in range(setup.polytope.num_facets)]
        sheaf = random_sheaf(rng, rng.randint(2, 3), setup.polytope.num_facets,
                             multiples=mult)
        assert descends(setup, sheaf)
        w = random_subspace(rng, sheaf.rank, rng.randint(1, sheaf.rank - 1))
        assert descends(setup, subsheaf(sheaf, w))


def test_functor_jump_comparison():
    rng = Random(67)
    for _ in range(15):
        setup = random_generic_setup(rng)
        b = setup.b_values()
        sheaf = random_quotient_sheaf(rng, setup)
        ivec = {f: rng.randint(-2, 2) for f in setup.unstable_facets}
        lifted = pullback_functor(setup, ivec, sheaf)
        _, fmap, _ = setup.quotient_polytope()
        for f in setup.stable_facets:
            jumps = dimension_jumps(lifted, f)
            source = dimension_jumps(sheaf, fmap[f])
            assert all(i % b[f] == 0 for i in jumps)
            assert {i // b[f]: e for i, e in jumps.items()} == source
        for f, i_f in ivec.items():
            assert dimension_jumps(lifted, f) == {i_f: -sheaf.rank}


def test_functor_determinant_comparison():
    rng = Random(68)
    for _ in range(15):
        setup = random_generic_setup(rng)
        b = setup.b_values()
        sheaf = random_quotient_sheaf(rng, setup)
        ivec = {f: rng.randint(-2, 2) for f in setup.unstable_facets}
        lifted = pullback_functor(setup, ivec, sheaf)
        _, fmap, _ = setup.quotient_polytope()
        det_x = det_indices(lifted)
        det_y = det_indices(sheaf)
        for f in setup.stable_facets:
            assert det_x[f] == b[f] * det_y[fmap[f]]
        for f, i_f in ivec.items():
            assert det_x[f] == i_f * sheaf.rank


def test_functor_line_bundle_identity():
    rng = Random(69)
    for _ in range(10):
        setup = random_generic_setup(rng)
        b = setup.b_values()
        py, fmap, _ = setup.quotient_polytope()
        f1 = rng.choice(setup.stable_facets)
        ivec = {f: rng.randint(-2, 2) for f in setup.unstable_facets}
        lifted = pullback_functor(setup, ivec,
                                  line_bundle(py.num_facets, {fmap[f1]: 1}))
        coeffs = {f1: b[f1]}
        for f, i_f in ivec.items():
            coeffs[f] = -i_f
        expected = line_bundle(setup.polytope.num_facets, coeffs)
        assert lifted == expected


def test_functor_faithful_on_morphisms():
    # the functor keeps the matrix, and it is fully faithful:
    # Hom(F S, F T) = Hom(S, T) inside the same matrix space
    rng = Random(70)
    s1 = random_quotient_sheaf(rng, SETUP, max_rank=2)
    lifted = pullback_functor(SETUP, {f: 0 for f in SETUP.unstable_facets}, s1)
    assert is_morphism(lifted, lifted, linalg.identity_mat(s1.rank))
    seen = Counter()
    for _ in range(100):
        setup = random_generic_setup(rng)
        ivec = {f: rng.randint(-2, 2) for f in setup.unstable_facets}
        s, t = random_quotient_sheaf(rng, setup), random_quotient_sheaf(rng, setup)
        if rng.random() < 0.3:
            t = direct_sum(s, t) if rng.random() < 0.5 else direct_sum(t, s)
        hom = hom_space(s, t)
        assert hom_space(pullback_functor(setup, ivec, s),
                         pullback_functor(setup, ivec, t)) == hom
        seen["b != 1"] += any(setup.b_values()[f] != 1 for f in setup.stable_facets)
        seen["proper"] += 0 < hom.dim < s.rank * t.rank
    assert seen["b != 1"] >= 30 and seen["proper"] >= 10


def test_index_vector_key_mismatch():
    sheaf = line_bundle(2, {0: 1})
    for ivec in ({0: 1}, {}, {2: 0, 3: 0}):
        with pytest.raises(InputError, match=r"index vector keys .* != unstable facets \(2,\)"):
            pullback_functor(SETUP, ivec, sheaf)
        with pytest.raises(InputError, match="index vector keys"):
            in_image(SETUP, ivec, pullback_functor(SETUP, {2: 0}, sheaf))


def test_setup_json_round_trip():
    js = SETUP.to_json_dict()
    setup = GitSetup.from_json_dict(js)
    assert setup.polytope == SETUP.polytope
    assert setup.sublattice == SETUP.sublattice


def test_u_basis_annihilates_sublattice():
    for row in SETUP.u_basis:
        for gen in SETUP.sublattice.generators:
            assert sum(a * b for a, b in zip(row, gen)) == 0
    assert len(SETUP.u_basis) == SETUP.dim_quotient()


def test_sheaf_facet_count_mismatches_raise():
    from toricgit.errors import FacetMismatch

    with pytest.raises(FacetMismatch):
        pushforward(SETUP, structure_sheaf(5))
    py, _, _ = SETUP.quotient_polytope()
    with pytest.raises(FacetMismatch):
        pullback(SETUP, structure_sheaf(py.num_facets + 1))
    with pytest.raises(FacetMismatch):
        descends(SETUP, structure_sheaf(5))


def fourier_motzkin_classification(setup, seen=None):
    """Oracle: two Fourier-Motzkin calls per face, one on the loose system
    (does Q meet U?) and one on the strict system (does ri Q meet U?), and
    the rank-additivity test of transversality on every face whose relative
    interior meets U; those faces are counted in ``seen["ri meets U"]``."""
    p = setup.polytope
    gens = setup.sublattice.generators
    out = []
    for face in p.face_lattice:
        active = sorted(face.active_facets)
        eqs = [(p.facets[f][0], -p.facets[f][1]) for f in active]
        eqs += [(gen, Fraction(0)) for gen in gens]
        loose = [(p.facets[f][0], -p.facets[f][1], False)
                 for f in range(p.num_facets) if f not in face.active_facets]
        meet = fourier_motzkin_point(p.n, eqs, loose)
        if meet is None:
            out.append((face.active_facets, UNSTABLE, None))
            continue
        interior = fourier_motzkin_point(p.n, eqs, [(u, c, True) for u, c, _ in loose])
        if seen is not None:
            seen["ri meets U"] += interior is not None
        normals = [p.facets[f][0] for f in active]
        transversal = linalg.int_rank(normals + list(gens)) == linalg.int_rank(normals) + len(gens)
        if interior is not None and transversal:
            out.append((face.active_facets, STABLE, interior))
        else:
            out.append((face.active_facets, STRICTLY_SEMISTABLE, meet))
    return out


def random_setup(rng, n, rank):
    """A random polytope moved by a small integer translation, against a
    random saturated sublattice of the given rank."""
    return GitSetup(*random_setup_parts(rng, n, rank))


def random_setup_parts(rng, n, rank):
    t = [rng.randint(-1, 1) for _ in range(n)]
    return (random_polytope(rng, n).translate(t),
            random_saturated_sublattice(rng, n, rank))


def test_slice_vertex_classification_matches_fourier_motzkin(monkeypatch):
    # a face whose relative interior meets U is transversal when a slice
    # vertex over it is tight on exactly n - g facets; otherwise one rank
    # test decides.  Both branches are taken, on random and on non-simple
    # polytopes (pyramids over cubes, cross-polytopes), and so are strictly
    # semistable faces with a vertex in U
    ranks = count_calls(monkeypatch, linalg, "int_rank")
    rng, other = Random(71), Random(712)
    statuses, seen = Counter(), Counter()
    setups = 0
    for n, reps in ((2, 50), (3, 10), (4, 3)):
        for rank in range(n + 1):
            for k in range(reps + (reps // 2 if n > 2 else 0)):
                if k < reps:
                    poly, sub = random_setup_parts(rng, n, rank)
                else:
                    poly = non_simple_polytope(other, n)
                    sub = random_saturated_sublattice(other, n, rank)
                poly.face_lattice
                ranks.clear()
                setup = GitSetup(poly, sub)
                seen["rank"] += ranks["int_rank"]
                got = [(fs.face.active_facets, fs.status, fs.witness)
                       for fs in setup.classification]
                assert got == fourier_motzkin_classification(setup, seen)
                statuses.update((n, fs.status) for fs in setup.classification)
                seen["sss with a vertex in U"] += sum(
                    fs.status == STRICTLY_SEMISTABLE and any(
                        not any(linalg.dot(poly.vertices[i], gen) for gen in sub.generators)
                        for i in fs.face.vertex_ids)
                    for fs in setup.classification)
                setups += 1
    assert setups >= 200
    for n in (2, 3, 4):
        for status in (STABLE, STRICTLY_SEMISTABLE, UNSTABLE):
            assert statuses[n, status] > 0, (n, status)
    simple = seen["ri meets U"] - seen["rank"]
    assert simple > 50 and seen["rank"] > 50 and seen["sss with a vertex in U"] > 0, seen


def test_witness_search_matches_fourier_motzkin_on_face_systems():
    # every face of seeded setups, each with its affine hull and U cut by
    # the other facets, loose and strict: the same point or both None
    rng = Random(73)
    seen = Counter()
    for n, reps in ((2, 60), (3, 14), (4, 3)):
        for rank in range(n + 1):
            for _ in range(reps):
                setup = random_setup(rng, n, rank)
                p, gens = setup.polytope, setup.sublattice.generators
                for face in p.face_lattice:
                    eqs = [(p.facets[f][0], -p.facets[f][1]) for f in sorted(face.active_facets)]
                    eqs += [(gen, Fraction(0)) for gen in gens]
                    for strict in (False, True):
                        others = [(u, -a, strict) for f, (u, a) in enumerate(p.facets)
                                  if f not in face.active_facets]
                        want = fourier_motzkin_point(p.n, eqs, others)
                        assert linalg.feasible_point(p.n, eqs, others) == want
                        seen[n, want is None] += 1
    assert sum(seen.values()) >= 5000, seen
    for n in (2, 3, 4):
        assert seen[n, True] >= 100 and seen[n, False] >= 100, seen


def test_classification_calls_fourier_motzkin_once_per_face_meeting_u(monkeypatch):
    rng = Random(72)
    calls = count_calls(monkeypatch, linalg, "feasible_point")
    for n in (2, 3, 4):
        for rank in range(n + 1):
            calls.clear()
            setup = random_setup(rng, n, rank)
            setup.is_generic(), setup.stable_facets, setup.unstable_facets
            if setup.is_generic():
                setup.quotient_polytope()
            assert calls["feasible_point"] == 0  # building and reading statuses
            first = [fs.witness for fs in setup.classification]
            assert calls["feasible_point"] == sum(
                fs.status != UNSTABLE for fs in setup.classification)
            calls.clear()
            assert [fs.witness for fs in setup.classification] == first
            setup.classification_report()
            assert calls["feasible_point"] == 0  # witnesses are cached


def cube_facets(n, lo, hi):
    e = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return [(u, -lo) for u in e] + [(tuple(-x for x in u), hi) for u in e]


SQUARE_PYRAMID = [((0, 0, 1), 0), ((0, -1, -1), 1), ((0, 1, -1), 1),
                  ((-1, 0, -1), 1), ((1, 0, -1), 1)]  # apex (0, 0, 1)


@pytest.mark.parametrize("n, facets, gens, pinned", [
    # generic: every vertex of P and of the slice is simple
    (2, P2_TRANSLATED.facets, ((1, 1),), 0),
    (4, cube_facets(4, Fraction(-3, 8), Fraction(5, 8)), ((1, 1, 1, 1),), 0),
    # U through the apex: its face dimension (in the face lattice) and its
    # transversality (in the classification) each take one rank
    (3, SQUARE_PYRAMID, ((1, 0, 0),), 2),
    # U through the cube vertices that permute (1, -1/3, -1/3, -1/3)
    (4, cube_facets(4, Fraction(-1, 3), 1), ((1, 1, 1, 1),), 15),
])
def test_elimination_counts_of_construction_are_pinned(monkeypatch, n, facets, gens, pinned):
    # building the polytope, its face lattice and the setup eliminates only
    # where a vertex of P or of the slice is tight on too many facets; rref
    # is called by the witnesses alone, once each
    calls = {name: count_calls(monkeypatch, linalg, name) for name in ("echelon", "rref")}
    poly = HPolytope(n, facets)
    poly.face_lattice
    setup = GitSetup(poly, Sublattice(n, gens))
    assert (calls["echelon"]["echelon"], calls["rref"]["rref"]) == (pinned, 0)
    assert setup.is_generic() == (pinned == 0)
    meets_u = sum(fs.status != UNSTABLE for fs in setup.classification)
    [fs.witness for fs in setup.classification]
    assert calls["rref"]["rref"] == meets_u
    assert calls["echelon"]["echelon"] == pinned + meets_u


def test_classification_raises_when_witness_search_disagrees(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(linalg, "feasible_point", lambda *args, **kwargs: None)
    setup = GitSetup(P2_TRANSLATED, N0_DIAG)
    assert setup.is_generic() and setup.stable_facets == (0, 1)
    meets_u = [fs for fs in setup.classification if fs.status != UNSTABLE]
    with pytest.raises(InternalError, match="the witness search finds no point"):
        meets_u[0].witness
    with pytest.raises(InternalError):
        setup.classification_report()
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"command": "classify", "inputs": {"setup": setup.to_json_dict()}}))
    assert main(["--input", str(job)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal: InternalError: ") and "Traceback" not in err
