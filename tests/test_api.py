"""The public API: every exported name resolves, once, removed names stay
removed (a half-removed export otherwise shows only under import *), and
README's quick starts run."""

from pathlib import Path

import toricgit
from toricgit import build, cli, git, klyachko, lattice, linalg, minkowski

# a lattice is passed as its rank, an index vector as a facet -> integer mapping
SEGMENT_SETUP = git.GitSetup(toricgit.HPolytope(1, [((1,), 0), ((-1,), 1)]),
                             lattice.Sublattice(1, ()))

REMOVED = {
    toricgit: ("SheafMorphism", "Lattice", "UnstableIndexVector"),
    klyachko: ("SheafMorphism", "inclusion_morphism"),
    klyachko.Subspace: ("image_under",),
    git: ("pullback_functor_morphism", "SheafMorphism", "UnstableIndexVector", "Lattice"),
    SEGMENT_SETUP: ("lattice",),
    lattice: ("Lattice",),
    minkowski: ("UnstableIndexVector", "Lattice"),
    build: ("Lattice",),
    cli: ("UnstableIndexVector",),
    linalg: ("mat_vec", "transpose", "frac_mat", "Mat"),
}


def test_exports_resolve_once():
    names = toricgit.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(toricgit, name), name
    namespace = {}
    exec("from toricgit import *", namespace)
    assert set(names) <= set(namespace)


def test_removed_names_are_gone():
    for owner, names in REMOVED.items():
        for name in names:
            assert not hasattr(owner, name), (owner, name)
            assert name not in getattr(owner, "__all__", ())


def _between(text: str, start: str, end: str) -> str:
    return text.split(start, 1)[1].split(end, 1)[0]


def test_readme_quick_starts_run(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    exec(_between(readme, "```python\n", "```"), {})
    assert capsys.readouterr().out == "Unstable Certified\n"
    job = tmp_path / "job.json"
    job.write_text(_between(readme, "<<'EOF'\n", "EOF\n"), encoding="utf-8")
    assert cli.main(["--input", str(job), "--format", "text"]) == 0
    assert capsys.readouterr().out.startswith("command: classify\n")
