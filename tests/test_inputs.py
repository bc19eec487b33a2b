"""The library's input boundary: every public entry point reads its
integers, rationals, lists, mappings and package objects through the
``serialize`` readers, so junk in any scalar, container or object slot
returns or raises a typed error, and no non-integer is read as a nearby
integer."""

from fractions import Fraction

import pytest

from toricgit import serialize
from toricgit import (
    BundleSpec,
    DivisorClass,
    FiltrationSheaf,
    GitSetup,
    HPolytope,
    Sublattice,
    Subspace,
    ample_class_alpha,
    candidate_subspaces,
    check_stability,
    compatible_subgroups,
    det_indices,
    dimension_jumps,
    direct_sum,
    first_chern,
    hirzebruch,
    hom_space,
    is_morphism,
    line_bundle,
    projective_space,
    projectivized_bundle,
    product,
    pullback_functor,
    quotient,
    same_normal_fan,
    saturate,
    saturation_index,
    sections_on_chart,
    slope,
    solve_minkowski,
    subsheaf,
)
from toricgit.errors import InputError, ToricGitError
from toricgit.klyachko import dual
from toricgit.stability import max_hyperplane_slope, max_line_slope

HUGE = 10 ** 30
JUNK = (float("nan"), float("inf"), float("-inf"), 1.5, Fraction(1, 2), True, None,
        "x", "1/0", [], HUGE)
CONTAINER_JUNK = (5, "x", None, 1.5, {}, {"a": 1}, [5], (None,))
OBJECT_JUNK = (5, "x", None, [5], {})

P2 = projective_space(2, 3)
VERTEX = next(f for f in P2.face_lattice if f.dim == 0)
L1, L2, L3 = (Subspace.span(2, [v]) for v in ((1, 0), (0, 1), (1, 1)))
E2 = Subspace.full(2)
TANGENT = FiltrationSheaf(2, (((-1, L1), (0, E2)), ((-1, L2), (0, E2)), ((-1, L3), (0, E2))))
Q = quotient(3, Sublattice(3, [(1, 1, 0)]))
SEGMENT = HPolytope(1, [((1,), 0), ((-1,), 2)])
SQUARE_NORMALS = [(1, 0), (-1, 0), (0, 1), (0, -1)]
HEXAGON = HPolytope(2, [(u, 1) for u in ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))])
SURFACE_QUOTIENT = projectivized_bundle(BundleSpec(HEXAGON, ({4: 1},)))
DIAGONAL = Sublattice(2, ((1, 1),))
GENERIC = GitSetup(HPolytope(2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)]), DIAGONAL)

# (name, call, valid arguments): each scalar, list, tuple, dict and package
# object among the arguments is a slot
ENTRY_POINTS = (
    ("HPolytope", HPolytope, (2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), "3/2")])),
    ("translate", P2.translate, ((1, Fraction(-1, 2)),)),
    ("dilate", P2.dilate, (Fraction(3, 2),)),
    ("degree", lambda d: P2.degree(DivisorClass.from_dict(d)), ({0: 1, 2: "1/2"},)),
    ("DivisorClass.from_dict", DivisorClass.from_dict, ({0: 1, 1: Fraction(1, 3)},)),
    ("Sublattice", Sublattice, (2, [(2, 4), (0, 3)])),
    ("Sublattice.contains", Sublattice(2, [(1, 2)]).contains, ((2, 4),)),
    ("QuotientLattice.project", Q.project, ((1, 2, 3),)),
    ("QuotientLattice.lift", Q.lift, ((1, -2),)),
    ("Subspace.span", Subspace.span, (3, [(1, 2, 3), (0, 1, "1/2")])),
    ("contains_vector", L3.contains_vector, ((Fraction(1, 2), "1/2"),)),
    ("FiltrationSheaf", FiltrationSheaf, (2, (((-1, L1), (0, E2)), ((0, E2),)))),
    ("line_bundle", line_bundle, (3, {0: 1, 2: -2})),
    ("sections_on_chart", sections_on_chart, (TANGENT, P2, VERTEX, (1, 0))),
    ("is_morphism", is_morphism, (TANGENT, TANGENT, ((1, 0), (0, "1")))),
    ("hom_space", hom_space, (TANGENT, TANGENT)),
    ("dual", dual, (TANGENT,)),
    ("det_indices", det_indices, (TANGENT,)),
    ("dimension_jumps", dimension_jumps, (TANGENT, 2)),
    ("first_chern", first_chern, (TANGENT,)),
    ("pullback_functor", lambda i: pullback_functor(GENERIC, i, line_bundle(2, {0: 1})),
     ({2: -1},)),
    ("BundleSpec", BundleSpec, (P2, ({0: 1}, {2: 1}))),
    ("GitSetup", GitSetup, (P2, DIAGONAL)),
    ("subsheaf", subsheaf, (TANGENT, L3)),
    ("check_stability", check_stability, (TANGENT, P2.latvols())),
    ("candidate_subspaces", candidate_subspaces, (TANGENT, 50)),
    ("max_line_slope", max_line_slope, (TANGENT, P2.latvols(), 50)),
    ("max_hyperplane_slope", max_hyperplane_slope, (TANGENT, P2.latvols(), 50)),
    ("direct_sum", direct_sum, (TANGENT, TANGENT)),
    ("product", product, (P2, SEGMENT)),
    ("same_normal_fan", same_normal_fan, (P2, P2.dilate(2))),
    ("compatible_subgroups", lambda p: compatible_subgroups(p, k_max=2), (P2,)),
    ("quotient", quotient, (2, DIAGONAL)),
    ("saturate", saturate, (Sublattice(2, [(2, 4)]),)),
    ("saturation_index", saturation_index, (Sublattice(2, [(2, 4)]),)),
    ("projective_space", projective_space, (2, 3)),
    ("hirzebruch", hirzebruch, (1, (0, 0, 1, "1/2"))),
    ("solve_minkowski", lambda u: solve_minkowski(u, [1, 1, 1, 1]), (SQUARE_NORMALS,)),
    ("facet_latvol", P2.facet_latvol, (1,)),
    ("value_at", TANGENT.value_at, (2, -1)),
    ("slope", lambda d: slope(TANGENT, d), ((3, "3", Fraction(3)),)),
    # search options: each entry point reads and bounds its own
    ("check_stability options",
     lambda cap, trials, seed: check_stability(TANGENT, P2.latvols(), cap=cap,
                                               random_trials=trials, seed=seed), (50, 5, 3)),
    ("solve_minkowski options",
     lambda tol, max_iter, seed: solve_minkowski(SQUARE_NORMALS, [1, 1, 1, 1], tol=tol,
                                                 max_iter=max_iter, seed=seed), (1e-6, 50, 2)),
    ("ample_class_alpha options",
     lambda tol, max_iter, seed: ample_class_alpha(SURFACE_QUOTIENT, tol=tol,
                                                   max_iter=max_iter, seed=seed), (1e-6, 50, 2)),
    ("compatible_subgroups options", lambda k: compatible_subgroups(P2, k_max=k), (2,)),
)

def _is_scalar(x) -> bool:
    return x is None or isinstance(x, (int, float, str, Fraction))


def _slots(obj, path=()):
    """(path, junk values) for the scalars, containers and package objects
    in nested lists, tuples and dicts below the argument tuple; a dict key
    is the slot ("key", k) and takes scalar junk."""
    if type(obj).__module__.startswith("toricgit."):
        yield path, OBJECT_JUNK
        return
    if _is_scalar(obj):
        yield path, JUNK
        return
    if path and isinstance(obj, (list, tuple, dict)):
        yield path, CONTAINER_JUNK
    if isinstance(obj, (list, tuple)):
        for i, x in enumerate(obj):
            yield from _slots(x, path + (i,))
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield path + (("key", k),), JUNK
            yield from _slots(v, path + (k,))


def _replace(obj, path, value):
    """A copy of obj with the slot at path replaced."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(obj, dict):
        if isinstance(head, tuple) and head[0] == "key":
            return {(value if k == head[1] else k): v for k, v in obj.items()}
        return {k: _replace(v, rest, value) if k == head else v for k, v in obj.items()}
    out = [_replace(x, rest, value) if i == head else x for i, x in enumerate(obj)]
    return type(obj)(out)


def test_valid_arguments_are_accepted():
    for name, call, args in ENTRY_POINTS:
        call(*args)


def test_junk_in_every_slot_raises_a_typed_error():
    calls = 0
    for name, call, args in ENTRY_POINTS:
        for path, junks in _slots(args):
            is_key = isinstance(path[-1], tuple)
            for junk in junks:
                if is_key and isinstance(junk, list):  # not hashable
                    continue
                try:
                    call(*_replace(args, path, junk))
                except ToricGitError:
                    pass
                except Exception as exc:  # noqa: BLE001 - the failure under test
                    pytest.fail(f"{name} with {junk!r} at {path}: {type(exc).__name__}: {exc}")
                calls += 1
    assert calls > 900


def test_non_integers_are_rejected_not_truncated():
    for call in (
        lambda: Sublattice(2, [(Fraction(1, 2), 1)]),
        lambda: Sublattice(2, [(1.5, 0)]),
        lambda: line_bundle(2, {0: Fraction(1, 2)}),
        lambda: FiltrationSheaf(1, (((Fraction(3, 2), Subspace.full(1)),),)),
        lambda: DivisorClass.from_dict({Fraction(3, 2): 1}),
        lambda: quotient(2, Sublattice(2, [(1, 0)])).lift([1.9]),
        lambda: quotient(2, Sublattice(2, [(1, 0)])).project([0, 2.5]),
        lambda: solve_minkowski([(Fraction(3, 2), 0), (-1, 0), (0, 1), (0, -1)], [1, 1, 1, 1]),
    ):
        with pytest.raises(InputError):
            call()


def test_floats_in_subspaces_raise_input_error():
    with pytest.raises(InputError):
        Subspace.span(2, [[0.5, 1]])
    with pytest.raises(InputError):
        L1.contains_vector([0.5, 0])
    assert Subspace.span(2, [["1/2", 1]]) == Subspace.span(2, [[1, 2]])
    assert L1.contains_vector([Fraction(1, 2), 0])


def test_values_past_the_digit_limit_are_echoed_safely():
    # a rejected value is echoed in the message; one holding an integer past
    # the int-to-str digit limit must still give InputError, not ValueError
    big = 10 ** 5000
    for call in (
        lambda: serialize.int_from_obj(Fraction(big)),
        lambda: serialize.int_option("cap", Fraction(big)),
        lambda: serialize.int_vector(big),
        lambda: serialize.frac_vector(big),
        lambda: serialize.frac_from_obj([big]),
    ):
        with pytest.raises(InputError, match="too large to print"):
            call()
    with pytest.raises(InputError, match=r"got \[1, 2\]"):
        serialize.frac_from_obj([1, 2])
