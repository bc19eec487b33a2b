"""The report emitter against its oracle: ``serialize.report_dumps(obj)``
must equal ``json.dumps(obj, indent=2, sort_keys=True)`` byte for byte, on
seeded nested values and on the reports of every CLI command.

Needs no pytest, so it also runs as a plain script on any interpreter:

    PYTHONPATH=src python tests/test_report_emitter.py
"""

import json
from random import Random

from toricgit import cli
from toricgit.serialize import report_dumps, sha256_of

SCALARS = (0, 1, -7, 10 ** 399 + 1, -(10 ** 399), True, False, None, 0.0, -0.0, 1.5,
           1e-07, -2.5e-300, 1e300, 1e16, 123456789.125, float("inf"), float("-inf"),
           float("nan"), "", "p/q", "\x00\x1f\x7f\"\\/\n\t", "é中 😀", "\ud800x")
KEYS = ("", "a", "b", "0", "10", "é", "中", "\x01", "\ud800", "z" * 40)


def random_value(rng: Random, depth: int = 0):
    """A seeded JSON-like value: the scalars above and random floats, ints and
    text, nested in dicts (string keys, or all-int keys), lists and tuples,
    some of them empty."""
    roll = rng.random()
    if depth >= 4 or roll < 0.45:
        return rng.choice((
            rng.choice(SCALARS), rng.uniform(-1e6, 1e6), rng.randint(-10 ** 20, 10 ** 20),
            "".join(chr(rng.choice((rng.randint(0, 0x7f), rng.randint(0x80, 0x2fff))))
                    for _ in range(rng.randint(0, 6)))))
    size = rng.choice((0, 1, 2, 3, 5))
    items = [random_value(rng, depth + 1) for _ in range(size)]
    if roll < 0.6:
        return items
    if roll < 0.7:
        return tuple(items)
    if roll < 0.8:
        return {rng.randint(-3, 30): x for x in items}
    return {rng.choice(KEYS) + str(i % 2): x for i, x in enumerate(items)}


def test_emitter_matches_json_dumps_on_seeded_values():
    rng = Random(71)
    for _ in range(2000):
        value = random_value(rng)
        assert report_dumps(value) == json.dumps(value, indent=2, sort_keys=True), value
    for value in (*SCALARS, [], {}, (), [[]], {"a": {}}, {1: 1, 2: True}, {1.5: 0, -0.0: 1},
                  {None: 1}, {True: [1, 1.0]}, [0, False, 1, True]):
        assert report_dumps(value) == json.dumps(value, indent=2, sort_keys=True), value


SETUP = {"polytope": {"n": 2, "facets": [
    {"normal": [1, 0], "support": "1/1"}, {"normal": [0, 1], "support": "1/1"},
    {"normal": [-1, -1], "support": "1/1"}]}, "sublattice": [[1, 1]]}
SHEAF = {"rank": 2, "filtrations": {
    "0": [{"i": -1, "basis": [["1/1", "0/1"]]}, {"i": 0, "basis": [["1", "0"], ["0", "1"]]}],
    "1": [{"i": -1, "basis": [["0/1", "1/1"]]}, {"i": 0, "basis": [["1", "0"], ["0", "1"]]}],
    "2": [{"i": -1, "basis": [["1/1", "1/1"]]}, {"i": 0, "basis": [["1", "0"], ["0", "1"]]}]}}
SQUARE = {"n": 2, "facets": [
    {"normal": [1, 0], "support": "0"}, {"normal": [-1, 0], "support": "2"},
    {"normal": [0, 1], "support": "0"}, {"normal": [0, -1], "support": "2"}]}
HEXAGON = {"n": 2, "facets": [{"normal": u, "support": "1"} for u in
                              ([1, 0], [0, 1], [-1, 1], [-1, 0], [0, -1], [1, -1])]}
BUNDLE = {"base": SQUARE, "summands": [{"0": 1}, {"2": 1}]}
LINE_ON_SQUARE = {"rank": 1, "filtrations": {str(f): [{"i": 0, "basis": [["1"]]}]
                                             for f in range(4)}}


def command_jobs():
    """(command, inputs, options), one or more per CLI command; pullback runs
    on the pushforward's sheaf, the alpha jobs on the bundle's setup."""
    bundle_setup = cli.run_command("bundle", BUNDLE, {})["setup"]
    pushed = cli.run_command("pushforward", {"setup": SETUP, "sheaf": SHEAF}, {})["sheaf"]
    return [
        ("quotient", {"setup": SETUP}, {}),
        ("classify", {"setup": SETUP}, {}),
        ("slope", {"polytope": SETUP["polytope"], "sheaf": SHEAF}, {}),
        ("stability", {"polytope": SETUP["polytope"], "sheaf": SHEAF},
         {"cap": 50, "random_trials": 5, "seed": 3}),
        ("descend", {"setup": SETUP, "sheaf": SHEAF}, {}),
        ("pullback", {"setup": SETUP, "sheaf": pushed, "indices": {"2": 0}}, {}),
        ("pushforward", {"setup": SETUP, "sheaf": SHEAF}, {}),
        ("minkowski-check", {"setup": SETUP}, {}),
        ("solve-minkowski", {"normals": [[1, 0], [0, 1], [-1, 0], [0, -1]],
                             "volumes": ["2", "1", "2", "1"]}, {"tol": 1e-6}),
        ("solve-minkowski", {"normals": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0],
                                         [0, -1, 0], [0, 0, -1]],
                             "volumes": [2, 3, 6, 2, 3, 6]}, {"seed": 4}),
        ("alpha", {"setup": bundle_setup}, {"seed": 5}),
        ("slope-identity", {"setup": bundle_setup, "sheaf": LINE_ON_SQUARE,
                            "indices": {"4": 1, "5": 0, "6": -2}}, {"seed": 5}),
        ("compatible-subgroups", {"polytope": HEXAGON}, {"k_max": 4}),
        ("bundle", BUNDLE, {}),
        ("bundle", {"base": HEXAGON, "summands": [{"4": 1}, {"1": 1}]}, {}),
        ("falsify-converse", {"setup": SETUP}, {}),
        ("falsify-converse", {"setup": {"polytope": {"n": 2, "facets": [
            {"normal": [1, 0], "support": 1}, {"normal": [0, 1], "support": 1},
            {"normal": [-1, 0], "support": 2}, {"normal": [0, -1], "support": 3}]},
            "sublattice": [[1, 1]]}}, {}),
    ]


def test_emitter_matches_json_dumps_on_every_command_report():
    jobs = command_jobs()
    assert {command for command, _, _ in jobs} == set(cli.COMMANDS)
    for command, inputs, options in jobs:
        report = {"command": command, "input_sha256": sha256_of(inputs), "input": inputs,
                  "options": options, "result": cli.run_command(command, inputs, options)}
        assert report_dumps(report) == json.dumps(report, indent=2, sort_keys=True), command


if __name__ == "__main__":
    import sys

    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: passed")
    print(f"Python {sys.version.split()[0]}: every emitter check passed")
