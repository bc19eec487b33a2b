"""Seeded job corpus for the three benchmark workloads.

Every job is a CLI job file (``{"command", "inputs", "options"}``) written
as plain JSON; nothing here imports ``toricgit``.  A workload's corpus is one
*pass*: a fixed mix of job kinds whose parameters are drawn from the seed.
The composition is the same for every seed, so metrics taken over whole
passes compare across seeds.

Each job also carries ``expect``, its exit code (None: the one recorded
for its base setup in ``golden/invariants.json``), and ``meta``: facts the
output checker needs that the program never sees (the basis a sheaf was
built from, the base setup a moved setup came from).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from random import Random

from exact import polygon_edge_lengths, rank

DEFAULT_SEED = 1
WORKLOADS = ("stability-mix", "quotient-class", "git-classify")


# ---------------------------------------------------------------------------
# polytopes, as lists of (normal, support)


def simplex(n, k):
    facets = [(tuple(int(i == j) for j in range(n)), 0) for i in range(n)]
    return facets + [((-1,) * n, k)]


def hirzebruch1(b, c):
    return [((1, 0), 0), ((0, 1), 0), ((-1, 1), b), ((0, -1), c)]


def box(sides):
    """Product of segments [0, s_i], facets ordered e_1, -e_1, e_2, ..."""
    n = len(sides)
    out = []
    for i, s in enumerate(sides):
        e = tuple(int(i == j) for j in range(n))
        out += [(e, 0), (tuple(-x for x in e), s)]
    return out


HEXAGON_NORMALS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


def hexagon(k=1):
    return [(u, k) for u in HEXAGON_NORMALS]


def poly_json(facets):
    n = len(facets[0][0])
    return {"n": n, "facets": [
        {"normal": list(u), "support": q_str(a)} for u, a in facets]}


def q_str(x):
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


BASES_2D = {
    "P2": lambda k: simplex(2, k),
    "F1": lambda k: hirzebruch1(k, k),
    "P1P1": lambda k: box([k, k]),
}


# ---------------------------------------------------------------------------
# sheaves


def _random_invertible(rng, r, lo=-3, hi=3):
    while True:
        m = [[rng.randint(lo, hi) for _ in range(r)] for _ in range(r)]
        if rank(m) == r:
            return m


def _jump_indices(rng, count, lo=-3, hi=3):
    return sorted(rng.sample(range(lo, hi + 1), count))


def sheaf_json(r, filtrations):
    """filtrations: per facet a list of (index, basis rows)."""
    return {"rank": r, "filtrations": {
        str(f): [{"i": i, "basis": [list(row) for row in basis]} for i, basis in steps]
        for f, steps in enumerate(filtrations)}}


def generic_sheaf(rng, r, nf):
    """Generic full flags: the meet/join closure of four or more of them is
    infinite, so the stability search runs into its cap."""
    filts = []
    for _ in range(nf):
        m = _random_invertible(rng, r)
        idx = _jump_indices(rng, r)
        filts.append([(idx[d], m[:d + 1]) for d in range(r)])
    return filts


def basis_sheaf(rng, r, nf, dims):
    """Flags spanned by subsets of one random basis B, with proper jump
    dimensions drawn from ``dims``.  Returns (filtrations, subset chains,
    B); the closure is finite and the exact maximum is known."""
    b = _random_invertible(rng, r)
    filts, chains = [], []
    for _ in range(nf):
        order = list(range(r))
        rng.shuffle(order)
        steps = sorted(rng.sample(dims, rng.randint(0, len(dims)))) + [r]
        idx = _jump_indices(rng, len(steps))
        filts.append([(i, [b[j] for j in order[:d]]) for i, d in zip(idx, steps)])
        chains.append([(i, sorted(order[:d])) for i, d in zip(idx, steps)])
    return filts, chains, b


def rank2_sheaf(rng, nf):
    filts = []
    for _ in range(nf):
        if rng.random() < 0.25:
            filts.append([(rng.randint(-3, 3), [[1, 0], [0, 1]])])
            continue
        line = [0, 0]
        while not any(line):
            line = [rng.randint(-3, 3), rng.randint(-3, 3)]
        i, j = _jump_indices(rng, 2)
        filts.append([(i, [line]), (j, [[1, 0], [0, 1]])])
    return filts


def random_sheaf(rng, r, nf, multiples=None):
    """Random partial flags; jumps on facet f are multiples of multiples[f]."""
    filts = []
    for f in range(nf):
        m = _random_invertible(rng, r)
        dims = sorted(set(rng.sample(range(1, r + 1), rng.randint(1, r))) | {r})
        mult = multiples.get(f, 1) if multiples else 1
        idx = _jump_indices(rng, len(dims))
        filts.append([(mult * i, m[:d]) for i, d in zip(idx, dims)])
    return filts


# ---------------------------------------------------------------------------
# GIT setups: fixed base entries, moved by seeded lattice automorphisms


def _annihilator_basis(gens, n):
    """Integer vectors orthogonal to every generator (small search; bases
    here have tiny entries)."""
    out = []
    cand = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    cand += [tuple(int(j == a) - int(j == b) for j in range(n))
             for a in range(n) for b in range(n) if a != b]
    for v in cand:
        if all(sum(x * g for x, g in zip(v, gen)) == 0 for gen in gens):
            if rank(out + [v]) > len(out):
                out.append(v)
    return out


# label -> (facets, sublattice generators).  Expected behaviour (generic or
# not, Minkowski or not) is recorded from the program in
# golden/invariants.json; the comments say why each entry is here.
SETUPS = {
    # 2-D, rank-1 sublattices
    "P2-e1": ([((1, 0), 1), ((0, 1), 0), ((-1, -1), 1)], [(1, 0)]),
    "P2-d1m1": ([((1, 0), 1), ((0, 1), 0), ((-1, -1), 1)], [(1, -1)]),          # Minkowski fails
    "F1-d11": ([((1, 0), 2), ((0, 1), 0), ((-1, 1), -1), ((0, -1), 1)], [(1, 1)]),  # b = 2
    "F1-d12": ([((1, 0), 3), ((0, 1), 0), ((-1, 1), -2), ((0, -1), 1)], [(1, 2)]),  # b = 3
    "F1-e2": ([((1, 0), 0), ((0, 1), 1), ((-1, 1), 3), ((0, -1), 1)], [(0, 1)]),
    "P1P1-d12": ([((1, 0), 3), ((-1, 0), -1), ((0, 1), 0), ((0, -1), 2)], [(1, 2)]),
    "P1P1-d11-ng": ([((1, 0), 1), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 1)], [(1, 1)]),  # not generic
    "dP6-d11": (hexagon(1), [(1, 1)]),
    "dP6-d12": (hexagon(2), [(1, 2)]),
    # 3-D
    "cube3-d111": ([((1, 0, 0), 5), ((-1, 0, 0), -3), ((0, 1, 0), 0), ((0, -1, 0), 2),
                    ((0, 0, 1), 0), ((0, 0, -1), 2)], [(1, 1, 1)]),
    "cube3-d111-ng": ([((1, 0, 0), 4), ((-1, 0, 0), -2), ((0, 1, 0), 0), ((0, -1, 0), 2),
                       ((0, 0, 1), 0), ((0, 0, -1), 2)], [(1, 1, 1)]),  # not generic
    "cube3-e1e2": ([((1, 0, 0), 1), ((-1, 0, 0), 1), ((0, 1, 0), 1), ((0, -1, 0), 1),
                    ((0, 0, 1), 0), ((0, 0, -1), 2)], [(1, 0, 0), (0, 1, 0)]),
    "P2P1-d111": ([((1, 0, 0), 3), ((0, 1, 0), 0), ((-1, -1, 0), -1), ((0, 0, 1), 0),
                   ((0, 0, -1), 2)], [(1, 1, 1)]),                       # Minkowski fails
    "P3-d111": ([((1, 0, 0), 2), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), 1)],
                [(1, 1, 1)]),
    # 4-D
    "cube4-d1111": ([((1, 0, 0, 0), 7), ((-1, 0, 0, 0), -5), ((0, 1, 0, 0), 0),
                     ((0, -1, 0, 0), 2), ((0, 0, 1, 0), 0), ((0, 0, -1, 0), 2),
                     ((0, 0, 0, 1), 0), ((0, 0, 0, -1), 2)], [(1, 1, 1, 1)]),
    "P2P2-d1111": ([((1, 0, 0, 0), 1), ((0, 1, 0, 0), 0), ((-1, -1, 0, 0), 1),
                    ((0, 0, 1, 0), 0), ((0, 0, 0, 1), 0), ((0, 0, -1, -1), 2)],
                   [(1, 1, 1, 1)]),
    "P2P2-r2": ([((1, 0, 0, 0), 1), ((0, 1, 0, 0), 1), ((-1, -1, 0, 0), 1),
                 ((0, 0, 1, 0), 1), ((0, 0, 0, 1), 1), ((0, 0, -1, -1), 1)],
                [(1, 0, 1, 0), (0, 1, 0, 1)]),
}

# 2-D generic setups used for descend/pushforward/pullback jobs; their
# stable facets, unstable facets and moduli b are fixed by the entry.
SMALL_SETUPS = {
    "P2-e1": ((1, 2), (0,), {1: 1, 2: 1}),
    "F1-e2": ((0, 2), (1, 3), {0: 1, 2: 1}),
    "F1-d11": ((2, 3), (0, 1), {2: 2, 3: 1}),
    "P1P1-d12": ((0, 1), (2, 3), {0: 2, 1: 2}),
}


def _elementary(n, i, j, c):
    m = [[int(a == b) for b in range(n)] for a in range(n)]
    m[i][j] = c
    return m


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def random_unimodular(rng, n, steps=2):
    """(h, g) with h acting on normals and g = h^{-T} on points; both
    products of elementary matrices with entries +-1."""
    h = [[int(a == b) for b in range(n)] for a in range(n)]
    hinv = [row[:] for row in h]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        h = _matmul(h, _elementary(n, i, j, c))
        hinv = _matmul(_elementary(n, i, j, -c), hinv)
    g = [list(col) for col in zip(*hinv)]
    return h, g


def move_setup(rng, label):
    """A seeded lattice automorphism, dilation and translation inside the
    annihilator of the sublattice applied to a base setup.  None of them
    changes the face classification, the moduli b or the Minkowski
    condition, so the base's recorded invariants still apply."""
    facets, gens = SETUPS[label]
    n = len(facets[0][0])
    h, g = random_unimodular(rng, n)
    k = rng.choice((1, 2))
    ann = _annihilator_basis(gens, n)
    t = [0] * n
    for v in ann:
        c = rng.randint(-2, 2)
        t = [x + c * y for x, y in zip(t, v)]
    t = [sum(g[i][j] * t[j] for j in range(n)) for i in range(n)]
    moved = []
    for u, a in facets:
        u2 = tuple(sum(h[i][j] * u[j] for j in range(n)) for i in range(n))
        moved.append((u2, k * a - sum(x * y for x, y in zip(t, u2))))
    gens2 = [tuple(sum(h[i][j] * v[j] for j in range(n)) for i in range(n)) for v in gens]
    return moved, gens2, k


def setup_json(facets, gens):
    return {"polytope": poly_json(facets), "sublattice": [list(v) for v in gens]}


# ---------------------------------------------------------------------------
# bundles: summand choices verified to give valid polytopes

BUNDLE_BASES = {
    "P2": simplex(2, 2),
    "F1": hirzebruch1(2, 2),
    "P1P1": box([2, 2]),
    "dP6": hexagon(1),
}

BUNDLE_SUMMANDS = {
    ("P2", 1): [({0: 1},), ({2: 1},), ({1: 1},)],
    ("P2", 2): [({1: 1, 2: 2}, {0: 1, 1: 1}), ({0: 2}, {2: 2}),
                ({0: 1}, {0: 2, 1: 1}), ({1: 2, 2: 2}, {0: 2})],
    ("F1", 1): [({2: 2},), ({0: 1, 2: 2},), ({0: 1},), ({1: 1, 2: 2},), ({1: 1},)],
    ("F1", 2): [({1: 2, 3: 1}, {3: 2}), ({2: 1, 3: 1}, {1: 1}), ({3: 1}, {2: 1}),
                ({1: 2, 2: 2}, {1: 2})],
    ("P1P1", 1): [({1: 1, 3: 1},), ({3: 1},), ({1: 1, 2: 1},), ({0: 1},)],
    ("P1P1", 2): [({2: 2}, {2: 1}), ({0: 1, 2: 2}, {3: 2}), ({1: 1, 2: 1}, {3: 1}),
                  ({0: 1, 2: 1}, {2: 1})],
    ("dP6", 1): [({4: 1},), ({3: 1},), ({0: 1, 1: 1},), ({5: 1},)],
    ("dP6", 2): [({4: 1}, {1: 1}), ({3: 1}, {4: 1}), ({4: 2}, {0: 1, 4: 2})],
}

# summands whose assembled polytope is invalid (expected exit 2, NotAmple)
BUNDLE_NOT_AMPLE = [("P2", ({1: 1, 2: 2},)), ("dP6", ({3: 2}, {5: 1})),
                    ("F1", ({2: 1, 3: 2}, {0: 2})), ("P1P1", ({0: 1, 2: 2},))]


def bundle_json(base, summands):
    return {"base": poly_json(BUNDLE_BASES[base]),
            "summands": [{str(k): v for k, v in s.items()} for s in summands]}


def bundle_setup_facets(base, summands):
    """Total-space polytope and canonical sublattice of the projectivized
    split bundle, in the program's documented convention."""
    bf = BUNDLE_BASES[base]
    ny, r = len(bf[0][0]), len(summands)
    facets = [(u + tuple(summands[i].get(rho, 0) for i in range(r)), a)
              for rho, (u, a) in enumerate(bf)]
    for i in range(r):
        facets.append(((0,) * ny + tuple(int(i == j) for j in range(r)), 1))
    facets.append(((0,) * ny + (-1,) * r, 1))
    gens = [(0,) * ny + tuple(int(i == j) for j in range(r)) for i in range(r)]
    return facets, gens


# ---------------------------------------------------------------------------
# workloads


def _job(name, command, inputs, expect=0, options=None, **meta):
    job = {"command": command, "inputs": inputs}
    if options:
        job["options"] = options
    return {"name": name, "command": command, "job": job, "expect": expect, "meta": meta}


def _stability_mix(rng):
    jobs = []

    def base():
        name = rng.choice(sorted(BASES_2D))
        k = rng.choice((1, 2))
        return name, BASES_2D[name](k)

    def add(kind, n, make):
        for i in range(n):
            jobs.append(make(f"{kind}-{i:02d}"))

    def stab_rank2(name):
        b, facets = base()
        return _job(name, "stability",
                    {"polytope": poly_json(facets),
                     "sheaf": sheaf_json(2, rank2_sheaf(rng, len(facets)))},
                    base=b, tier="exact-rank2")

    def stab_basis(r, dims, options=None):
        def make(name):
            b, facets = base()
            filts, chains, _ = basis_sheaf(rng, r, len(facets), dims)
            return _job(name, "stability",
                        {"polytope": poly_json(facets), "sheaf": sheaf_json(r, filts)},
                        options=options, base=b, tier="exact-basis", chains=chains)
        return make

    def stab_closure(r, cap):
        def make(name):
            b = rng.choice(("F1", "P1P1"))  # four facets: four generic flags
            facets = BASES_2D[b](rng.choice((1, 2)))
            return _job(name, "stability",
                        {"polytope": poly_json(facets),
                         "sheaf": sheaf_json(r, generic_sheaf(rng, r, len(facets)))},
                        options={"cap": cap, "random_trials": 20},
                        base=b, tier="closure-bound")
        return make

    def slope_job(name):
        b, facets = base()
        r = rng.randint(2, 4)
        return _job(name, "slope", {"polytope": poly_json(facets),
                                    "sheaf": sheaf_json(r, random_sheaf(rng, r, len(facets)))},
                    base=b)

    def small_setup():
        label = rng.choice(sorted(SMALL_SETUPS))
        return label, SETUPS[label]

    def descend_job(name):
        label, (facets, gens) = small_setup()
        b = SMALL_SETUPS[label][2]
        mult = b if rng.random() < 0.5 else None
        r = rng.randint(2, 4)
        return _job(name, "descend",
                    {"setup": setup_json(facets, gens),
                     "sheaf": sheaf_json(r, random_sheaf(rng, r, len(facets), mult))},
                    setup=label)

    def push_job(name):
        label, (facets, gens) = small_setup()
        r = rng.randint(2, 4)
        return _job(name, "pushforward",
                    {"setup": setup_json(facets, gens),
                     "sheaf": sheaf_json(r, random_sheaf(rng, r, len(facets)))},
                    setup=label)

    def pull_job(name):
        label, (facets, gens) = small_setup()
        stable, unstable, _ = SMALL_SETUPS[label]
        r = rng.randint(2, 4)
        return _job(name, "pullback",
                    {"setup": setup_json(facets, gens),
                     "sheaf": sheaf_json(r, random_sheaf(rng, r, len(stable))),
                     "indices": {str(f): rng.randint(-2, 2) for f in unstable}},
                    setup=label)

    add("stability-r2", 8, stab_rank2)
    add("stability-r3", 8, stab_basis(3, [1, 2]))
    add("stability-r4", 4, stab_basis(4, [1, 3]))
    add("stability-r4-middle", 2, stab_basis(4, [1, 2, 3], {"random_trials": 20}))
    add("stability-r3-closure", 12, stab_closure(3, 30))
    add("stability-r4-closure", 4, stab_closure(4, 20))
    add("slope", 6, slope_job)
    add("descend", 6, descend_job)
    add("pushforward", 6, push_job)
    add("pullback", 5, pull_job)
    jobs += _touch_other_layers(rng)
    return jobs


def _touch_other_layers(rng):
    """One small solve and one bundle per pass, so that the idle layers'
    times are small but never exactly zero."""
    a = rng.randint(1, 3)  # a square: the solver stops after one step
    square = ((1, 0), (0, 1), (-1, 0), (0, -1))
    base, summands = "P2", rng.choice(BUNDLE_SUMMANDS[("P2", 1)])
    return [
        _job("solve-square", "solve-minkowski",
             {"normals": [list(u) for u in square], "volumes": [a, a, a, a]},
             shape="polygon"),
        _job("bundle-P2-1", "bundle", bundle_json(base, summands), bundle=[base, summands]),
    ]


def _hexagon_solve(name, rng):
    """Facet-volume targets taken from an actual hexagon, so they balance."""
    sup = [rng.randint(3, 5) for _ in HEXAGON_NORMALS]  # every edge stays positive
    lengths = polygon_edge_lengths(HEXAGON_NORMALS, [Fraction(a) for a in sup])
    return _job(name, "solve-minkowski",
                {"normals": [list(u) for u in HEXAGON_NORMALS],
                 "volumes": [q_str(x) for x in lengths]},
                shape="polygon")


def _box_solve(name, sides):
    a, b, c = sides
    normals = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    areas = [b * c, b * c, a * c, a * c, a * b, a * b]
    return _job(name, "solve-minkowski",
                {"normals": [list(u) for u in normals], "volumes": areas},
                options={"tol": 1e-5}, shape="box")


def _cube_setup(sides, axis):
    """A box translated to straddle the hyperplane x_axis = 0, quotiented by
    the coordinate direction e_axis (a product quotient that balances)."""
    facets = box(sides)
    n = len(sides)
    shift = sides[axis] // 2
    moved = []
    for u, a in facets:
        moved.append((u, a + u[axis] * shift))
    return moved, [tuple(int(i == axis) for i in range(n))]


def _quotient_class(rng):
    jobs = [
        _job("baseline-solve-hexagon", "solve-minkowski",
             {"normals": [list(u) for u in HEXAGON_NORMALS], "volumes": [1, 2, 1, 1, 2, 1]},
             options={"tol": 1e-7}, shape="polygon"),
        _box_solve("baseline-solve-3cube", (4, 1, 2)),
        _job("baseline-alpha-dP6-1", "alpha",
             {"setup": setup_json(*bundle_setup_facets("dP6", ({0: 1, 1: 1},)))},
             bundle=["dP6", [{0: 1, 1: 1}]]),
        _job("baseline-alpha-dP6-2", "alpha",
             {"setup": setup_json(*bundle_setup_facets("dP6", ({4: 1}, {1: 1})))},
             bundle=["dP6", [{4: 1}, {1: 1}]]),
        _job("baseline-5cube-minkowski", "minkowski-check",
             {"setup": setup_json(*_cube_setup([2] * 5, 4))}, balanced=True),
    ]

    # two jobs of each kind per (base, fibre rank); the seed picks summands
    combos = [(b, r) for b in sorted(BUNDLE_BASES) for r in (1, 2)]
    for (b, r), i in product(combos, range(2)):
        s = rng.choice(BUNDLE_SUMMANDS[(b, r)])
        jobs.append(_job(f"bundle-{b}-{r}-{i}", "bundle", bundle_json(b, s),
                         bundle=[b, s]))
        s = rng.choice(BUNDLE_SUMMANDS[(b, r)])
        jobs.append(_job(f"alpha-{b}-{r}-{i}", "alpha",
                         {"setup": setup_json(*bundle_setup_facets(b, s))},
                         bundle=[b, s]))
    b, s = rng.choice(BUNDLE_NOT_AMPLE)
    jobs.append(_job("bundle-not-ample", "bundle", bundle_json(b, s), expect=2,
                     bundle=[b, s]))
    for (b, r), i in product((("P2", 1), ("F1", 2), ("P1P1", 1), ("dP6", 1)), range(2)):
        s = rng.choice(BUNDLE_SUMMANDS[(b, r)])
        nf = len(BUNDLE_BASES[b])
        rk = rng.randint(1, 3)
        facets, gens = bundle_setup_facets(b, s)
        jobs.append(_job(f"slope-identity-{b}-{r}-{i}", "slope-identity",
                         {"setup": setup_json(facets, gens),
                          "sheaf": sheaf_json(rk, random_sheaf(rng, rk, nf)),
                          "indices": {str(f): rng.randint(-2, 2)
                                      for f in range(nf, len(facets))}},
                         bundle=[b, s]))
    for b, r in (("F1", 1), ("P1P1", 2), ("P2", 2), ("dP6", 1)):
        s = rng.choice(BUNDLE_SUMMANDS[(b, r)])
        jobs.append(_job(f"minkowski-bundle-{b}-{r}", "minkowski-check",
                         {"setup": setup_json(*bundle_setup_facets(b, s))},
                         balanced=True))
    for dim, i in product((3, 4), range(2)):
        sides = [rng.randint(1, 3) for _ in range(dim)]
        axis = rng.randrange(dim)
        sides[axis] = max(sides[axis], 2)  # the slice must cross the interior
        jobs.append(_job(f"minkowski-cube{dim}-{i}", "minkowski-check",
                         {"setup": setup_json(*_cube_setup(sides, axis))}, balanced=True))
    jobs.append(_hexagon_solve("solve-hexagon-00", rng))
    jobs.append(_hexagon_solve("solve-hexagon-01", rng))
    jobs.append(_box_solve("solve-box-00", tuple(rng.randint(1, 4) for _ in range(3))))
    return jobs


COMPAT_BASES = {"P2": simplex(2, 1), "F1": hirzebruch1(1, 1),
                "P1P1": box([1, 1]), "dP6": hexagon(1)}


def _git_classify(rng):
    jobs = []
    labels = sorted(SETUPS)
    for label in labels:
        facets, gens, k = move_setup(rng, label)
        jobs.append(_job(f"classify-{label}", "classify",
                         {"setup": setup_json(facets, gens)}, expect=None,
                         base=label, dilation=k))
        facets, gens, k = move_setup(rng, label)
        jobs.append(_job(f"quotient-{label}", "quotient",
                         {"setup": setup_json(facets, gens)}, expect=None,
                         base=label, dilation=k))
    for label in labels:
        facets, gens, k = move_setup(rng, label)
        jobs.append(_job(f"falsify-{label}", "falsify-converse",
                         {"setup": setup_json(facets, gens)}, expect=None,
                         base=label, dilation=k))
    for i in range(6):
        label = rng.choice(sorted(SMALL_SETUPS))
        facets, gens, k = move_setup(rng, label)
        r = rng.randint(2, 3)
        b = SMALL_SETUPS[label][2]
        mult = b if rng.random() < 0.5 else None
        jobs.append(_job(f"descend-{i:02d}", "descend",
                         {"setup": setup_json(facets, gens),
                          "sheaf": sheaf_json(r, random_sheaf(rng, r, len(facets), mult))},
                         setup=label))
    jobs.append(_job("baseline-compatible-F1", "compatible-subgroups",
                     {"polytope": poly_json(COMPAT_BASES["F1"])}, base="F1"))
    for b in sorted(COMPAT_BASES):
        facets = COMPAT_BASES[b]
        h, _ = random_unimodular(rng, 2)
        t = (rng.randint(-2, 2), rng.randint(-2, 2))
        moved = []
        for u, a in facets:
            u2 = tuple(sum(h[i][j] * u[j] for j in range(2)) for i in range(2))
            moved.append((u2, a - sum(x * y for x, y in zip(t, u2))))
        jobs.append(_job(f"compatible-{b}", "compatible-subgroups",
                         {"polytope": poly_json(moved)}, base=b))
    jobs += _malformed(rng)
    jobs += _touch_other_layers(rng)
    return jobs


def _malformed(rng):
    """Malformed jobs: each must exit 1 with a typed error, not a traceback."""
    label = rng.choice(sorted(SMALL_SETUPS))
    facets, gens = SETUPS[label]
    stable, unstable, _ = SMALL_SETUPS[label]
    r = rng.randint(2, 3)
    sheaf = sheaf_json(r, random_sheaf(rng, r, len(facets)))
    sheaf["filtrations"]["0"][0]["basis"] = 5
    qsheaf = sheaf_json(r, random_sheaf(rng, r, len(stable)))
    indices = {str(f): 0 for f in unstable}
    indices["x"] = rng.randint(-2, 2)
    bundle = bundle_json("P2", rng.choice(BUNDLE_SUMMANDS[("P2", 1)]))
    bundle["summands"][0]["a"] = 1
    base = rng.choice(sorted(BASES_2D))
    facets2 = BASES_2D[base](1)
    stab = {"polytope": poly_json(facets2),
            "sheaf": sheaf_json(2, rank2_sheaf(rng, len(facets2)))}
    return [
        _job("malformed-basis", "descend",
             {"setup": setup_json(facets, gens), "sheaf": sheaf}, expect=1),
        _job("malformed-indices", "pullback",
             {"setup": setup_json(facets, gens), "sheaf": qsheaf, "indices": indices},
             expect=1),
        _job("malformed-summand", "bundle", bundle, expect=1),
        _job("malformed-cap", "stability", stab, expect=1, options={"cap": "x"}),
    ]


GENERATORS = {
    "stability-mix": _stability_mix,
    "quotient-class": _quotient_class,
    "git-classify": _git_classify,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's pass for this seed, in a seeded order."""
    rng = Random(f"{workload}:{seed}")
    jobs = GENERATORS[workload](rng)
    rng.shuffle(jobs)
    return jobs
