import itertools
import random

import pytest

from repherd import catalog, modules
from repherd.catalog import Budget, ar_quiver, enumerate_indecomposables, left_right_parts, node_facts
from repherd.errors import BudgetExceeded, IncompleteCatalog
from repherd.fields import PrimeField
from repherd.homological import (
    ShortExactSequence,
    almost_split_sequence,
    ar_translate,
    ar_translate_inv,
)
from repherd.io import algebra_from_dict
from repherd.linalg import Mat, SpanTracker, rank
from repherd.modules import (
    ModuleMorphism,
    Representation,
    compose,
    direct_sum,
    dual_module,
    endomorphism_radical,
    gen_cogen,
    hom_basis,
    indec_isomorphic,
    indecomposable_summands,
    is_isomorphic,
    iso_class_index,
    known_index,
    morphism_flat,
)

from tests.reference import endomorphism_algebra, from_rows, hom_dim
from tests.conftest import catalog_of, in_form, load_fixture_algebra, rebased, verify_almost_split
from tests.test_cli import E6


def names(cat):
    return sorted(n.name for n in cat.nodes)


@pytest.mark.parametrize("name", ["a2", "a3", "d4", "h5", "loop2", "sq", "tilted4", "tilted5"])
def test_catalog_entries_over_q_are_in_the_stored_form(name):
    """Every arrow matrix of every node of a complete catalog over Q holds ints
    where integral and Fractions with denominator > 1 elsewhere."""
    alg = load_fixture_algebra(name)
    cat = catalog_of(alg)
    assert cat.complete and alg.field.kind == "Q"
    for node in cat.nodes:
        assert all(in_form(alg.field, x) for m in node.rep.mats for x in m.entries), node.name


def test_catalog_a2(a2):
    cat = catalog_of(a2)
    assert cat.complete and len(cat) == 3
    arrows, tau = ar_quiver(cat)
    assert len(arrows) == 2
    assert all(m == 1 for _, _, m in arrows)


def test_catalog_loop2_matches_figure(loop2):
    cat = catalog_of(loop2)
    assert cat.complete and len(cat) == 5
    assert names(cat) == ["I(1)", "I(2)", "P(1)", "P(2)", "S(1)"]
    arrows, tau = ar_quiver(cat)
    byname = {(cat.nodes[i].name, cat.nodes[j].name): m for i, j, m in arrows}
    assert byname == {
        ("P(2)", "P(1)"): 1,
        ("S(1)", "P(1)"): 1,
        ("P(1)", "I(1)"): 1,
        ("P(1)", "I(2)"): 1,
        ("I(1)", "S(1)"): 1,
        ("I(2)", "S(1)"): 1,
    }
    # tau table from the mesh: tau S(1) = P(1), tau I(2) = S(1), tau I(1) = P(2)
    tau_names = {cat.nodes[i].name: cat.nodes[j].name for i, j in tau.items()}
    assert tau_names == {"S(1)": "P(1)", "I(2)": "S(1)", "I(1)": "P(2)"}


def test_catalog_tilted4(tilted4):
    cat = catalog_of(tilted4)
    assert cat.complete and len(cat) == 10
    arrows, _ = ar_quiver(cat)
    assert len(arrows) == 12  # the printed figure carries twelve arrows
    byname = {(cat.nodes[i].name, cat.nodes[j].name) for i, j, _ in arrows}
    assert ("P(1)", "P(2)") in byname and ("I(1)", "S(2)") in byname and ("S(2)", "P(4)") in byname


def test_catalog_tilted5(tilted5):
    cat = catalog_of(tilted5)
    assert cat.complete and len(cat) == 14
    assert "τ⁻¹P(2)" in names(cat)


def test_catalog_d4_and_sq(d4, sq):
    assert len(catalog_of(d4)) == 12
    cat = catalog_of(sq)
    assert cat.complete
    # commuting square: 7 distinct projectives/injectives (P(1) = I(4)),
    # the two middle simples, and the two tau-orbit modules of S(4)'s slice
    assert len(cat) == 11


def test_kron_budget(kron):
    cat = enumerate_indecomposables(kron, Budget(max_modules=20, max_total_dim=128))
    assert not cat.complete
    cat2 = enumerate_indecomposables(kron)
    assert not cat2.complete
    with pytest.raises(BudgetExceeded):
        enumerate_indecomposables(kron, Budget(max_modules=20, max_total_dim=128), strict=True)
    with pytest.raises(IncompleteCatalog):
        ar_quiver(cat)
    with pytest.raises(IncompleteCatalog):
        left_right_parts(cat)


def test_completeness_certificate(loop2, tilted4):
    for alg in (loop2, tilted4):
        cat = catalog_of(alg)
        for node in cat.nodes:
            if node.proj_vertex is None:
                seq = almost_split_sequence(node.rep)
                verify_almost_split(seq, cat)
                for piece in indecomposable_summands(seq.middle):
                    assert cat.find(piece) is not None


def test_tau_orbits_terminate(loop2, tilted5):
    for alg in (loop2, tilted5):
        cat = catalog_of(alg)
        for i, node in enumerate(cat.nodes):
            seen = set()
            cur = i
            while cat.nodes[cur].proj_vertex is None:
                assert cur not in seen
                seen.add(cur)
                cur = cat.nodes[cur].tau
                assert cur is not None


def test_field_independence(gf101):
    for name in ("loop2", "tilted4"):
        aq = load_fixture_algebra(name)
        ap = load_fixture_algebra(name, field=gf101)
        cq = enumerate_indecomposables(aq)
        cp = enumerate_indecomposables(ap)
        assert len(cq) == len(cp) and cq.complete == cp.complete
        assert sorted(n.rep.dims for n in cq.nodes) == sorted(n.rep.dims for n in cp.nodes)
        homs_q = sorted(hom_dim(x.rep, y.rep) for x in cq.nodes for y in cq.nodes)
        homs_p = sorted(hom_dim(x.rep, y.rep) for x in cp.nodes for y in cp.nodes)
        assert homs_q == homs_p


def test_left_right_parts_hereditary(a3):
    cat = catalog_of(a3)
    left, _ = left_right_parts(cat)
    assert left == list(range(len(cat)))


def test_left_right_parts_loop2(loop2):
    cat = catalog_of(loop2)
    left, _ = left_right_parts(cat)
    s1 = next(i for i, n in enumerate(cat.nodes) if n.name == "S(1)")
    assert s1 not in left
    assert left == [next(i for i, n in enumerate(cat.nodes) if n.name == "P(2)")]
    # pd facts consistent with proj_dim
    facts = {node.name: fact for node, fact in zip(cat.nodes, node_facts(cat))}
    assert str(facts["S(1)"]["pd"]) == "infinite"
    assert str(facts["P(2)"]["pd"]) == "0"


def test_pd_tables_cross_checked(tilted4):
    from repherd.homological import proj_dim

    cat = catalog_of(tilted4)
    for node, fact in zip(cat.nodes, node_facts(cat)):
        assert str(fact["pd"]) == str(proj_dim(node.rep))


COMPLETE_FIXTURES = ("a2", "a3", "d4", "h5", "loop2", "sq", "tilted4", "tilted5")


def _rad_rad2_arrows(cat):
    """Reference AR arrows (i, j, dim rad(i, j)/rad^2(i, j)), from every Hom space and every composite."""
    n = len(cat.nodes)
    fld = cat.algebra.field
    rad_bases = {}
    for i in range(n):
        for j in range(n):
            x, y = cat.nodes[i].rep, cat.nodes[j].rep
            rad_bases[(i, j)] = endomorphism_radical(x) if i == j else hom_basis(x, y)
    arrows = []
    for i in range(n):
        for j in range(n):
            base = rad_bases[(i, j)]
            if not base:
                continue
            width = len(morphism_flat(base[0]))
            sq = SpanTracker(fld, width)
            for w in range(n):
                for f1 in rad_bases[(i, w)]:
                    for f2 in rad_bases[(w, j)]:
                        sq.add(morphism_flat(compose(f2, f1)))
            total = SpanTracker(fld, width)
            for b in base:
                total.add(morphism_flat(b))
            if total.dim > sq.dim:
                arrows.append((i, j, total.dim - sq.dim))
    return arrows


def _hom_reach_parts(cat):
    """Reference (left, right): closures of nonzero Hom between the nodes, X itself included."""
    n = len(cat.nodes)
    facts = node_facts(cat)
    reach = [{j for j in range(n) if j == i or hom_dim(cat.nodes[i].rep, cat.nodes[j].rep)} for i in range(n)]
    grew = True
    while grew:
        grew = False
        for i in range(n):
            wider = set().union(*(reach[j] for j in reach[i]))
            if wider != reach[i]:
                reach[i], grew = wider, True
    left = [i for i in range(n) if all(facts[j]["pd"].le(1) is True for j in range(n) if i in reach[j])]
    right = [i for i in range(n) if all(facts[j]["id"].le(1) is True for j in reach[i])]
    return left, right


@pytest.mark.parametrize("field", [None, PrimeField(101)], ids=["Q", "GF101"])
@pytest.mark.parametrize("name", [*COMPLETE_FIXTURES, "E6"])
def test_recorded_arrows_and_parts_match_the_hom_references(name, field):
    """The arrows knitting records are those of rad/rad^2, with multiplicities, and the left and
    right parts read off them are those of reachability by nonzero maps."""
    if name == "E6":
        cat = catalog_of(algebra_from_dict(dict(E6, field="Q"), field=field), Budget(max_total_dim=256))
    else:
        cat = catalog_of(load_fixture_algebra(name, field=field))
    assert cat.complete
    assert ar_quiver(cat)[0] == _rad_rad2_arrows(cat)
    assert left_right_parts(cat) == _hom_reach_parts(cat)


@pytest.mark.parametrize("field", [None, PrimeField(101)], ids=["Q", "GF101"])
@pytest.mark.parametrize("name", COMPLETE_FIXTURES)
def test_knitted_tau_links_match_recomputed_translates(name, field):
    cat = catalog_of(load_fixture_algebra(name, field=field))
    assert cat.complete
    for node in cat.nodes:
        assert node.tau == cat.find(ar_translate(node.rep))
        assert node.tau_inv == cat.find(ar_translate_inv(node.rep))


@pytest.mark.parametrize("name", ["h5", "tilted5"])
def test_enumeration_takes_one_tau_step_per_non_projective_node(name, monkeypatch):
    """Each non-projective node is the right end of one tau step, which transposes once: z over
    A when the step ends at z, and D(M) over A^op, whose transpose is tau^{-1} M, when it starts
    at M.  A sequence is built only where the arrows out of its left end fall short, each one
    ending at a distinct node (over A^op it is the dual of the one ending at D(its left term))."""
    alg = load_fixture_algebra(name)
    steps, built = [], []
    real_transpose, real_sequence = catalog._transpose_with_cover, catalog.almost_split_sequence

    def transposing(z):
        out = real_transpose(z)
        steps.append(z if z.algebra is alg else out[0])
        return out

    def building(z, *args, **kwargs):
        seq = real_sequence(z, *args, **kwargs)
        if z.algebra is alg:
            built.append(z)
        else:
            assert z.algebra is alg.opposite
            built.append(dual_module(seq.left.source))
        return seq

    monkeypatch.setattr(catalog, "_transpose_with_cover", transposing)
    monkeypatch.setattr(catalog, "almost_split_sequence", building)
    cat = enumerate_indecomposables(alg)
    assert cat.complete
    non_projective = [i for i, node in enumerate(cat.nodes) if node.proj_vertex is None]
    assert sorted(cat.find(z) for z in steps) == non_projective
    ends = [cat.find(z) for z in built]
    assert len(set(ends)) == len(ends) and set(ends) <= set(non_projective)
    assert len(built) < len(non_projective)


@pytest.mark.parametrize("name", ["a3", "loop2", "d4", "tilted4"])
def test_endomorphism_radical_matches_the_trace_form(name):
    """The certified nilpotent parts span the trace-form radical of End(X), for every node X."""
    from repherd.endo import algebra_radical
    from repherd.linalg import Mat, rank
    from repherd.modules import endomorphism_radical, morphism_combo, morphism_flat

    alg = load_fixture_algebra(name)
    cat = catalog_of(alg)
    assert cat.complete
    for node in cat.nodes:
        x = node.rep
        g, basis = endomorphism_algebra(x)
        reference = [morphism_flat(morphism_combo(alg.field, basis, r, x, x)) for r in algebra_radical(g)]
        certified = [morphism_flat(r) for r in endomorphism_radical(x)]
        assert len(certified) == len(reference) == g.dim - 1
        if reference:
            assert rank(from_rows(alg.field, reference + certified)) == len(reference)


def _dual_sequence(seq):
    """The dual of 0 -> X -> E -> Z -> 0 over the opposite algebra: 0 -> DZ -> DE -> DX -> 0."""
    dz, de, dx = dual_module(seq.right.target), dual_module(seq.middle), dual_module(seq.left.source)
    left = ModuleMorphism(dz, de, tuple(m.transpose() for m in seq.right.mats)).check()
    right = ModuleMorphism(de, dx, tuple(m.transpose() for m in seq.left.mats)).check()
    return ShortExactSequence(left, right).verify()


@pytest.mark.parametrize("field", [None, PrimeField(101)], ids=["Q", "GF101"])
@pytest.mark.parametrize("name", COMPLETE_FIXTURES)
def test_sequence_starting_at_a_node_is_the_dual_of_one_over_the_opposite(name, field):
    """For each non-injective node M, the dual of the sequence over A^op that ends at DM
    starts at M, ends at tau^{-1} M with the matrices of Tr DM, has the middle term of the
    sequence built at tau^{-1} M, and is almost split."""
    cat = catalog_of(load_fixture_algebra(name, field=field))
    assert cat.complete
    for node in cat.nodes:
        if node.inj_vertex is not None:
            continue
        dual = _dual_sequence(almost_split_sequence(dual_module(node.rep)))
        tau_inv, tr_d = dual.right.target, ar_translate_inv(node.rep)
        assert tuple(dual.left.source.mats) == tuple(node.rep.mats)
        assert tuple(tau_inv.mats) == tuple(tr_d.mats)
        assert is_isomorphic(dual.middle, almost_split_sequence(tr_d).middle)
        verify_almost_split(dual, cat)


@pytest.mark.parametrize("field", [None, PrimeField(101)], ids=["Q", "GF101"])
@pytest.mark.parametrize("name", COMPLETE_FIXTURES)
def test_carried_radical_equals_a_fresh_one(name, field):
    """Every node found by splitting carries its locality certificate; the radical read off it
    equals, entry by entry, the one split afresh on a copy, and the dual's carried radical spans
    the same space as a fresh one."""
    alg = load_fixture_algebra(name, field=field)
    cat = catalog_of(alg)
    for node in cat.nodes:
        if node.rep.local_parts is None:
            assert node.in_add_gen_cogen
        else:
            _assert_carried_radical(node.rep)


def _assert_carried_radical(x):
    fresh = Representation(x.algebra, x.dims, x.mats)
    assert fresh.local_parts is None
    assert [r.mats for r in endomorphism_radical(x)] == [r.mats for r in endomorphism_radical(fresh)]
    dx = dual_module(x)
    carried = [morphism_flat(r) for r in endomorphism_radical(dx)]
    split = [morphism_flat(r) for r in endomorphism_radical(Representation(dx.algebra, dx.dims, dx.mats))]
    assert len(carried) == len(split)
    if split:
        fld = x.algebra.field
        assert rank(from_rows(fld, split)) == rank(from_rows(fld, carried + split)) == len(split)


def _kronecker_regular(alg, n, lam):
    """The Kronecker module with a = I and b = J_n(lam); End is k[x]/(x^n)."""
    fld = alg.field
    jordan = [[lam if i == j else int(j == i + 1) for j in range(n)] for i in range(n)]
    return Representation(alg, (n, n), [Mat.identity(fld, n), from_rows(fld, jordan)])


@pytest.mark.parametrize("field", [None, PrimeField(101)], ids=["Q", "GF101"])
def test_carried_radical_of_pieces_with_a_nonzero_radical(field):
    """The fixture catalogs hold only bricks and modules of add(A + DA), whose carried radicals
    are empty; here the pieces of sums in a random basis have radicals of dimension 0 to 2."""
    rng = random.Random(12)
    loop2 = load_fixture_algebra("loop2", field=field)
    kron = load_fixture_algebra("kron", field=field)
    gc = gen_cogen(loop2)
    sums = [
        direct_sum(loop2, [gc.projectives[0], gc.injectives[0], gc.projectives[1]]),
        direct_sum(kron, [_kronecker_regular(kron, 2, 1), _kronecker_regular(kron, 3, 0)]),
    ]
    sizes = []
    for m in sums:
        pieces = indecomposable_summands(rebased(m, rng))
        for piece in pieces:
            _assert_carried_radical(piece)
        sizes += [len(endomorphism_radical(p)) for p in pieces]
    assert sorted(sizes) == [0, 1, 1, 1, 2]


@pytest.mark.parametrize("field", [None, PrimeField(101)], ids=["Q", "GF101"])
@pytest.mark.parametrize("name", COMPLETE_FIXTURES)
def test_seeding_flags_the_projective_and_injective_nodes(name, field):
    """Seeding sets the vertex flags; no later node is projective or injective."""
    alg = load_fixture_algebra(name, field=field)
    gc = gen_cogen(alg)
    cat = catalog_of(alg)
    assert cat.complete
    for node in cat.nodes:
        assert node.proj_vertex == iso_class_index(node.rep, gc.projectives)
        assert node.inj_vertex == iso_class_index(node.rep, gc.injectives)


def test_a_budget_that_stops_the_seeding_stops_the_knitting(d4):
    gc = gen_cogen(d4)
    cat = enumerate_indecomposables(d4, Budget(max_modules=3))
    assert not cat.complete and len(cat) == 3
    for node in cat.nodes:
        assert node.arrows is None
        assert node.proj_vertex == iso_class_index(node.rep, gc.projectives)
        assert node.inj_vertex == iso_class_index(node.rep, gc.injectives)


def _lookup_inputs(cat, rng):
    """The middle terms of the almost-split sequences ending at the nodes, and sums of two and
    three nodes in a random basis, one of them with a repeated summand."""
    alg = cat.algebra
    reps = [node.rep for node in cat.nodes]
    out = [almost_split_sequence(node.rep).middle for node in cat.nodes if node.proj_vertex is None]
    for k in (2, 3):
        out.append(rebased(direct_sum(alg, rng.sample(reps, k)), rng))
    x = rng.choice(reps)
    out.append(rebased(direct_sum(alg, [x, x, rng.choice(reps)]), rng))
    return out


@pytest.mark.parametrize("field", [None, PrimeField(101)], ids=["Q", "GF101"])
@pytest.mark.parametrize("name", COMPLETE_FIXTURES)
def test_summands_are_looked_up_among_the_nodes(name, field, monkeypatch):
    """Given the nodes, every summand is a node's module itself, in the place and class that
    the plain split gives, and only the modules that split get an End solve."""
    alg = load_fixture_algebra(name, field=field)
    cat = catalog_of(alg)
    known = [node.rep for node in cat.nodes]
    inputs = _lookup_inputs(cat, random.Random(18))
    ends = []
    real = modules.hom_basis

    def counting(m, n):
        if m is n:
            ends.append(m)
        return real(m, n)

    monkeypatch.setattr(modules, "hom_basis", counting)
    for m in inputs:
        plain = indecomposable_summands(m)
        del ends[:]
        looked_up = indecomposable_summands(m, known)
        assert [known_index(p, known) for p in looked_up] == [cat.find(p) for p in plain]
        assert len(ends) == len(looked_up) - 1  # one End solve per split, none per piece


@pytest.mark.parametrize("field", [None, PrimeField(101)], ids=["Q", "GF101"])
def test_a_sum_with_the_dimension_vector_of_a_node_still_splits(field):
    rng = random.Random(5)
    split = 0
    for name in COMPLETE_FIXTURES:
        alg = load_fixture_algebra(name, field=field)
        known = [node.rep for node in catalog_of(alg).nodes]
        dims = {x.dims for x in known}
        for a, b in itertools.combinations_with_replacement(range(len(known)), 2):
            if tuple(x + y for x, y in zip(known[a].dims, known[b].dims)) in dims:
                pieces = indecomposable_summands(rebased(direct_sum(alg, [known[a], known[b]]), rng), known)
                assert sorted(known_index(p, known) for p in pieces) == [a, b]
                split += 1
    assert split > 10


def test_a_repeated_new_summand_maps_to_one_node(kron):
    """The middle terms X + X of the Kronecker catalog add X once, as one arrow of
    multiplicity 2."""
    cat = enumerate_indecomposables(kron, Budget(max_modules=12))
    assert not cat.complete and len(cat) == 12
    assert [cat.find(node.rep) for node in cat.nodes] == list(range(12))
    arrows = [node.arrows for node in cat.nodes if node.arrows]
    assert len(arrows) == 9 and all(arrow == 2 for a in arrows for arrow in a.values())
