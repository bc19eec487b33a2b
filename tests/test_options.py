"""Search options are read where the searches live: every library entry
point bounds its own options, so a direct call rejects what a CLI job
rejects, and the CLI holds only option names."""

import inspect
import json
from fractions import Fraction

import pytest

from toricgit import (
    BundleSpec,
    FiltrationSheaf,
    GitSetup,
    HPolytope,
    Sublattice,
    Subspace,
    ample_class_alpha,
    check_stability,
    cli,
    compatible_subgroups,
    direct_sum,
    line_bundle,
    minkowski,
    projective_space,
    projectivized_bundle,
    slope,
    solve_minkowski,
    stability,
)
from toricgit.errors import FacetMismatch, InputError, NotGeneric

P2 = HPolytope(2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)])
L1, L2, L3 = (Subspace.span(2, [v]) for v in ((1, 0), (0, 1), (1, 1)))
E2 = Subspace.full(2)
TANGENT = FiltrationSheaf(2, (((-1, L1), (0, E2)), ((-1, L2), (0, E2)), ((-1, L3), (0, E2))))
SQUARE_NORMALS = [(1, 0), (0, 1), (-1, 0), (0, -1)]
SQUARE_VOLUMES = ["2", "1", "2", "1"]
CUBE_NORMALS = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
# P^2 with the diagonal subgroup at the untranslated linearization: not generic
NON_GENERIC = GitSetup(HPolytope(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)]),
                       Sublattice(2, ((1, 1),)))
HEXAGON = HPolytope(2, [(u, 1) for u in ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))])
SURFACE_QUOTIENT = projectivized_bundle(BundleSpec(HEXAGON, ({4: 1},)))

BAD_TOL = ("x", -1, 0, minkowski.TOL_FLOOR / 2, True, [1e-6], float("nan"), float("inf"),
           10 ** 400, -(10 ** 5000))
BAD_SEED = ([1], "x", True, 1.5)


def _stab(**options):
    return check_stability(TANGENT, P2.latvols(), **options)


def _solve(**options):
    return solve_minkowski(SQUARE_NORMALS, SQUARE_VOLUMES, **options)


def test_out_of_range_options_raise_input_error_in_library_calls():
    """The option cases of the CLI's malformed-job test, called directly."""
    cases = [
        *((_stab, "cap", v) for v in ("x", -1, -5, 2.5, 10_001, 10 ** 9)),
        *((_stab, "random_trials", v) for v in (2.5, "x", -1, 10_001)),
        *((_stab, "seed", v) for v in (*BAD_SEED, None)),
        *((lambda **o: compatible_subgroups(P2, **o), "k_max", v)
          for v in (0, 13, 2.5, "x", True)),
        *((_solve, "max_iter", v) for v in (0, 1.5, "x", None)),
        *((_solve, "tol", v) for v in BAD_TOL),
        *((_solve, "seed", v) for v in BAD_SEED),
        # a bad option is reported before the setup check
        *((lambda **o: ample_class_alpha(NON_GENERIC, **o), key, v)
          for key, values in (("tol", BAD_TOL), ("max_iter", (0, 1.5)), ("seed", BAD_SEED))
          for v in values),
    ]
    for call, key, value in cases:
        with pytest.raises(InputError, match=f'option "{key}"'):
            call(**{key: value})
    # a rank-1 sheaf builds no closure, and still reads its cap
    with pytest.raises(InputError, match='option "cap"'):
        check_stability(line_bundle(3, {0: 1}), P2.latvols(), cap=-1)
    # the unsolved start polytope is never returned as a solution
    with pytest.raises(InputError, match='option "tol"'):
        solve_minkowski(CUBE_NORMALS, [2, 2, 8, 8, 4, 4], tol=float("inf"))
    with pytest.raises(NotGeneric):
        ample_class_alpha(NON_GENERIC)


def test_option_bounds_are_accepted_in_library_calls():
    for options in ({"cap": 0}, {"cap": stability.DEFAULT_CAP}, {"random_trials": 0},
                    {"random_trials": stability.MAX_RANDOM_TRIALS}, {"seed": -(10 ** 30)}):
        assert _stab(**options).status == "Stable", options
    for k in (1, minkowski.MAX_K):
        compatible_subgroups(P2, k_max=k)
    for options in ({"tol": minkowski.TOL_FLOOR}, {"max_iter": 1}, {"seed": None},
                    {"tol": 10 ** 30}):
        assert _solve(**options).residual == 0, options
        ample_class_alpha(SURFACE_QUOTIENT, **options)
    sol = solve_minkowski(CUBE_NORMALS, [2, 2, 8, 8, 4, 4], tol=minkowski.TOL_FLOOR, seed=3)
    assert sol.residual <= minkowski.TOL_FLOOR


def test_degree_vectors_are_read_as_exact_rationals():
    split = direct_sum(line_bundle(3, {0: 1}), line_bundle(3, {1: 1}))
    for degrees in ([0.5, 1, 1], [Fraction(1, 2), float("nan"), 1], ["1/2", "x", 1], 5):
        with pytest.raises(InputError):
            check_stability(split, degrees)
        with pytest.raises(InputError):
            slope(split, degrees)
    for degrees in ([1, 1], [1, 1, 1, 1]):
        with pytest.raises(FacetMismatch):
            check_stability(split, degrees)
        with pytest.raises(FacetMismatch):
            slope(split, degrees)
    exact = check_stability(split, ["1/2", 1, 1])
    assert exact.slope == Fraction(3, 4) and type(exact.slope) is Fraction
    assert slope(split, ("1/2", 1, Fraction(1))) == exact.slope
    for search in (stability.max_line_slope, stability.max_hyperplane_slope):
        with pytest.raises(InputError):
            search(split, [0.5, 1, 1])
        assert search(split, ["1/2", 1, 1])[0] == search(split, [Fraction(1, 2), 1, 1])[0]


def test_facet_and_jump_indices_are_read():
    p2 = projective_space(2, 3)
    assert p2.facet_latvol(1) == 3
    for bad in ("1", 1.0, None, True, -1, 3):
        with pytest.raises(InputError):
            p2.facet_latvol(bad)
    assert TANGENT.value_at(2, -1) == L3 and TANGENT.value_at(0, -2).is_zero()
    for facet, i in ((-1, 0), (3, 0), ("0", 0), (0.0, 0), (0, -0.5), (0, Fraction(-1)),
                     (0, "0"), (0, None)):
        with pytest.raises(InputError):
            TANGENT.value_at(facet, i)


# command -> the library function that reads its options
OPTION_READERS = {
    "stability": stability.check_stability,
    "solve-minkowski": minkowski.solve_minkowski,
    "alpha": minkowski.ample_class_alpha,
    "slope-identity": minkowski.ample_class_alpha,
    "compatible-subgroups": minkowski.compatible_subgroups,
}


def test_cli_option_names_match_library_keywords():
    assert set(cli.READS) == set(OPTION_READERS)
    keyword = (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    for command, names in cli.READS.items():
        params = inspect.signature(OPTION_READERS[command]).parameters
        for name in names:
            assert name in params and params[name].kind in keyword, (command, name)
            assert params[name].default is not inspect.Parameter.empty, (command, name)
    read = {name for names in cli.READS.values() for name in names}
    flags = {a.dest for a in cli.PARSER._actions if a.option_strings} \
        - {"help", "input", "command", "output", "format"}
    assert flags == set(cli.FLAGS) and flags <= read


def test_cli_reports_a_tol_past_the_float_range_as_input_error(tmp_path, capsys):
    # a JSON integer of 401 digits parses, and is no float
    job = tmp_path / "job.json"
    job.write_text(json.dumps({"command": "solve-minkowski", "options": {"tol": 10 ** 400},
                               "inputs": {"normals": SQUARE_NORMALS, "volumes": SQUARE_VOLUMES}}))
    assert cli.main(["--input", str(job)]) == 1
    assert capsys.readouterr().err.startswith('error: option "tol" must be a finite number')
