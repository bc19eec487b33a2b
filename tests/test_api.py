"""The public API: every exported name resolves, once, and removed names
stay removed (a half-removed export otherwise shows only under import *)."""

import toricgit
from toricgit import git, klyachko, linalg

REMOVED = {
    toricgit: ("SheafMorphism",),
    klyachko: ("SheafMorphism", "inclusion_morphism"),
    klyachko.Subspace: ("image_under",),
    git: ("pullback_functor_morphism", "SheafMorphism"),
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
