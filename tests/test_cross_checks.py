"""Cross-validations that tie independent subsystems together."""
import pytest

from repherd.catalog import ar_quiver
from repherd.dims import DimValue
from repherd.endo import endomorphism_algebra, global_dimension
from repherd.homological import almost_split_sequence
from repherd.modules import (
    direct_sum,
    hom_dim,
    indec_isomorphic,
    indecomposable_summands,
    projective_at,
)

from tests.conftest import catalog_of


def test_end_of_regular_module_has_algebra_dimension(a2, a3, loop2, tilted4, tilted5, sq, d4):
    for alg in (a2, a3, loop2, tilted4, tilted5, sq, d4):
        nv = alg.quiver.n_vertices
        reg = direct_sum(alg, [projective_at(alg, v) for v in range(nv)])
        assert endomorphism_algebra(reg).dim == alg.dim


def test_additive_generator_gives_global_dimension_at_most_two(a3, loop2):
    """End of the sum of all indecomposables of a representation-finite
    algebra has global dimension at most two."""
    for alg in (a3, loop2):
        cat = catalog_of(alg)
        assert cat.complete
        m = direct_sum(alg, [node.rep for node in cat.nodes])
        g = endomorphism_algebra(m)
        gd = global_dimension(g)
        assert gd.is_finite and gd.value <= 2, gd
        # and it is exactly 2 as soon as the algebra is not semisimple
        assert gd == DimValue.finite(2)


def test_ar_arrows_match_middle_term_multiplicities(loop2, tilted4):
    """Arrow multiplicities from rad/rad^2 equal the middle-term counts of
    the almost-split sequences, and the radical summands of projectives."""
    for alg in (loop2, tilted4):
        cat = catalog_of(alg)
        arrows, _ = ar_quiver(cat)
        into = {}
        for i, j, m in arrows:
            into.setdefault(j, {})[i] = m
        for j, node in enumerate(cat.nodes):
            expected = {}
            if node.proj_vertex is not None:
                from repherd.modules import radical_of

                rad, _ = radical_of(node.rep)
                pieces = indecomposable_summands(rad)
            else:
                seq = almost_split_sequence(node.rep)
                pieces = indecomposable_summands(seq.middle)
            for p in pieces:
                idx = cat.find(p)
                assert idx is not None
                expected[idx] = expected.get(idx, 0) + 1
            assert into.get(j, {}) == expected, cat.nodes[j].name


def test_hom_dimension_matrix_symmetry_under_duality(loop2):
    """Hom(X, Y) over A matches Hom(DY, DX) over the opposite algebra."""
    from repherd.modules import dual_module

    cat = catalog_of(loop2)
    for i in range(len(cat.nodes)):
        for j in range(len(cat.nodes)):
            x, y = cat.nodes[i].rep, cat.nodes[j].rep
            assert hom_dim(x, y) == hom_dim(dual_module(y), dual_module(x))
