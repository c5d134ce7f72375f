"""Filter/ultrafilter checks, positive-property counting, cardinal experiments."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homlkit import analysis
from homlkit.analysis import (
    FAMILY_TYPE,
    ModalSet,
    PropertyFamily,
    all_modal_sets,
    diagonal_witness,
    distinct_positive_count,
    equipollent,
    is_modal_filter,
    is_modal_ultrafilter,
    min_positive_count,
    successor_cardinal_check,
    surjection_exists,
)
from homlkit.errors import HomlError
from homlkit.grounder import enumerate_models, find_model, ground
from homlkit.semantics import KripkeModel, SBool, STable, Scope
from homlkit.surface import load_theory
from homlkit.theories import load_bundle


def one_world_model(m):
    scope = Scope(1, m)
    return KripkeModel(scope, ((True,),), tuple((True,) for _ in range(m)))


def family_from_sets(scope, members):
    """PropertyFamily whose members (at every world) are the given modal sets."""
    member_idx = {s.index(scope) for s in members}
    size = len(all_modal_sets(scope))
    rows = tuple(
        tuple(j in member_idx for _ in range(scope.num_worlds)) for j in range(size)
    )
    return PropertyFamily(scope, rows)


def principal_family(scope, entity):
    members = [s for s in all_modal_sets(scope)
               if all(s.table[entity][w] for w in range(scope.num_worlds))]
    return family_from_sets(scope, members)


def test_principal_family_is_ultrafilter():
    model = one_world_model(3)
    fam = principal_family(model.scope, 1)
    assert is_modal_filter(model, fam).globally
    assert is_modal_ultrafilter(model, fam, "intension").globally
    assert is_modal_ultrafilter(model, fam, "extension").globally


def test_empty_family_is_not_a_filter():
    model = one_world_model(2)
    fam = family_from_sets(model.scope, [])
    report = is_modal_filter(model, fam)
    assert not report.globally
    assert any("full set" in f for f in report.failures)


def test_family_containing_empty_set_is_not_a_filter():
    model = one_world_model(2)
    fam = family_from_sets(model.scope, all_modal_sets(model.scope))
    report = is_modal_filter(model, fam)
    assert not report.globally
    assert any("empty set" in f for f in report.failures)


def test_filter_strictly_below_principal_is_not_ultra():
    model = one_world_model(2)
    full = ModalSet.rigid([0, 1], 2, 1)
    fam = family_from_sets(model.scope, [full])  # the trivial filter
    assert is_modal_filter(model, fam).globally
    assert not is_modal_ultrafilter(model, fam, "intension").globally


def test_ultra_implies_filter_over_all_one_world_families():
    model = one_world_model(2)
    sets = all_modal_sets(model.scope)
    for bits in itertools.product([False, True], repeat=len(sets)):
        fam = family_from_sets(model.scope, [s for s, b in zip(sets, bits) if b])
        if is_modal_ultrafilter(model, fam, "intension").globally:
            assert is_modal_filter(model, fam).globally


# -- classical oracle ---------------------------------------------------------

def classical_is_filter(points, members, maximal):
    """Textbook filter conditions on a family of subsets of ``points``; with
    ``maximal``, the ultrafilter conditions."""
    universe = frozenset(points)
    family = {frozenset(s) for s in members}
    if universe not in family or frozenset() in family:
        return False
    subsets = [frozenset(c) for r in range(len(universe) + 1)
               for c in itertools.combinations(universe, r)]
    for a in family:
        for b in subsets:
            if a <= b and b not in family:
                return False
        for b in family:
            if (a & b) not in family:
                return False
    if maximal:
        for a in subsets:
            if a not in family and (universe - a) not in family:
                return False
    return True


def classical_is_ultrafilter(m, members):
    return classical_is_filter(range(m), members, maximal=True)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_one_world_agreement_with_classical_oracle(m):
    model = one_world_model(m)
    sets = all_modal_sets(model.scope)
    ultra_count = 0
    for bits in itertools.product([False, True], repeat=len(sets)):
        members = [s for s, b in zip(sets, bits) if b]
        fam = family_from_sets(model.scope, members)
        expected = classical_is_ultrafilter(m, [s.extension(0) for s in members])
        got = is_modal_ultrafilter(model, fam, "intension").globally
        assert got == expected
        assert is_modal_ultrafilter(model, fam, "extension").globally == expected
        ultra_count += got
    assert ultra_count == m  # only the principal ultrafilters exist


SCOPE22 = Scope(2, 2)
SETS22 = all_modal_sets(SCOPE22)
CELLS22 = frozenset(itertools.product(range(2), range(2)))


def cells_of(mset):
    """A modal set as the set of its (entity, world) pairs."""
    return frozenset((e, w) for e, row in enumerate(mset.table) for w, b in enumerate(row) if b)


def modal_set_of(cells):
    return ModalSet(tuple(tuple((e, w) in cells for w in range(2)) for e in range(2)))


@settings(max_examples=150, deadline=None)
@given(generators=st.tuples(st.sampled_from(SETS22), st.sampled_from(SETS22)),
       flips=st.lists(st.tuples(st.integers(0, len(SETS22) - 1), st.integers(0, 1)),
                      max_size=3))
@example(generators=(modal_set_of({(0, 0)}), modal_set_of({(1, 1)})), flips=[])
@example(generators=(modal_set_of(CELLS22), modal_set_of(set())), flips=[])
def test_two_world_agreement_with_oracles(generators, flips):
    # At world w the family is the principal filter of generators[w] (an
    # ultrafilter when that is one cell), with some memberships flipped.
    membership = [[cells_of(g) <= cells_of(s) for g in generators] for s in SETS22]
    for j, w in flips:
        membership[j][w] = not membership[j][w]
    family = PropertyFamily(SCOPE22, tuple(tuple(row) for row in membership))
    model = KripkeModel(SCOPE22, ((True, True), (True, True)), ((True, True), (True, True)))
    extension = is_modal_ultrafilter(model, family, "extension").per_world
    intension = is_modal_ultrafilter(model, family, "intension").per_world
    modal_filter = is_modal_filter(model, family).per_world
    for w in range(2):
        members = [s for s, row in zip(SETS22, membership) if row[w]]
        assert extension[w] == classical_is_filter(
            range(2), [s.extension(w) for s in members], maximal=True)
        as_cells = [cells_of(s) for s in members]
        assert intension[w] == classical_is_filter(CELLS22, as_cells, maximal=True)
        assert modal_filter[w] == classical_is_filter(CELLS22, as_cells, maximal=False)


# -- positive property counting ----------------------------------------------

def test_count_when_only_full_set_positive():
    scope = Scope(1, 2)
    only_full = STable(tuple(
        STable((SBool(all(s.table[e][0] for e in range(2))),))
        for s in all_modal_sets(scope)
    ))
    model = KripkeModel(scope, ((True,),), ((True,), (True,)),
                        {"P": only_full}, {"P": FAMILY_TYPE})
    assert distinct_positive_count(model) == 1


def test_goedel_counts_at_fixed_entity_counts():
    theory = load_bundle("goedel").theory
    for m, expected in [(2, 2), (3, 4)]:
        result = min_positive_count(theory, Scope(1, m))
        assert result.complete
        assert result.minimum == expected


def test_min_count_unsat_theory_flagged():
    theory = load_theory("const P : (i > prop) > prop\nconst c : prop\naxiom c & not c\n")
    result = min_positive_count(theory, Scope(1, 1))
    assert result.empty_model_class
    assert result.minimum == 0


def test_min_count_monotone_under_added_axiom():
    base = load_bundle("goedel").theory
    stronger = base.with_axioms(
        base.axioms + load_theory(
            "const P : (i > prop) > prop\n"
            "axiom forallP phi:i>prop. (P phi) -> box (existsA y. phi y)\n"
        ).axioms
    )
    scope = Scope(1, 2)
    base_count = min_positive_count(base, scope)
    strong_count = min_positive_count(stronger, scope)
    assert strong_count.model_count <= base_count.model_count
    assert not strong_count.empty_model_class
    assert strong_count.minimum >= base_count.minimum


def test_actualist_entity_mode():
    theory = load_bundle("goedel").theory
    result = min_positive_count(theory, Scope(1, 3), entity_mode="actualist", entities=2)
    assert result.complete
    assert result.model_count > 0
    # The constraint is on existsAt only; the possibilist property space still
    # has three entities, so the principal ultrafilter keeps four members.
    assert result.minimum == 4


def test_actualist_count_leaves_ground_problem_unchanged(monkeypatch):
    grounded = []

    def recording_ground(*args, **kwargs):
        problem = ground(*args, **kwargs)
        grounded.append((problem, [list(clause) for clause in problem.clauses]))
        return problem

    monkeypatch.setattr(analysis, "ground", recording_ground)
    theory = load_bundle("goedel").theory
    result = min_positive_count(theory, Scope(1, 3), entity_mode="actualist", entities=2)
    assert result.minimum == 4
    [(problem, before)] = grounded
    assert problem.clauses == before


# -- equipollence and successor ------------------------------------------------

def test_equipollent_examples():
    model = one_world_model(3)
    single = ModalSet.rigid([0], 3, 1)
    pair_a = ModalSet.rigid([0, 1], 3, 1)
    pair_b = ModalSet.rigid([1, 2], 3, 1)
    assert equipollent(model, single, single)
    assert not equipollent(model, single, pair_a)
    # Oracle: brute force over all 27 maps, frozen result.
    assert equipollent(model, pair_a, pair_b)


def test_equipollent_needs_uniform_witness_across_worlds():
    scope = Scope(2, 2)
    model = KripkeModel(scope, ((True, True), (True, True)),
                        ((True, True), (True, True)))
    rigid_a = ModalSet(((True, True), (False, False)))
    drifting = ModalSet(((True, False), (False, True)))
    assert not equipollent(model, rigid_a, drifting)
    assert equipollent(model, rigid_a, rigid_a)


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)])
def test_successor_checks_all_k(n, m):
    scope = Scope(n, m)
    model = KripkeModel(
        scope,
        tuple(tuple(True for _ in range(n)) for _ in range(n)),
        tuple(tuple(True for _ in range(n)) for _ in range(m)),
    )
    for k in range(m):
        assert successor_cardinal_check(model, k), (n, m, k)
    with pytest.raises(HomlError):
        successor_cardinal_check(model, m)


def test_successor_class_against_direct_size_count():
    # Independent oracle at one world: the class of a rigid k-set is exactly
    # the sets of size k, so the successor lands on the size-(k+1) sets.
    model = one_world_model(3)
    sets = all_modal_sets(model.scope)
    for k in range(3):
        target = {s for s in sets if len(s.extension(0)) == k + 1}
        base = ModalSet.rigid(range(k), 3, 1)
        reachable = {
            q for q in sets if equipollent(model, q, ModalSet.rigid(range(k + 1), 3, 1))
        }
        assert reachable == target
        assert successor_cardinal_check(model, k)


# -- surjections and the diagonal ----------------------------------------------

def test_surjection_blocked_by_pigeonhole():
    theory = load_bundle("goedel").theory
    model = find_model(theory, Scope(1, 3))
    assert distinct_positive_count(model) == 4  # > 3 entities
    assert not surjection_exists(model)


def test_surjection_exists_when_few_positives():
    scope = Scope(1, 2)
    family = STable(tuple(
        STable((SBool(s.extension(0) == frozenset({0, 1})),))
        for s in all_modal_sets(scope)
    ))
    model = KripkeModel(scope, ((True,),), ((True,), (True,)),
                        {"P": family}, {"P": FAMILY_TYPE})
    assert distinct_positive_count(model) == 1
    assert surjection_exists(model)


def test_diagonal_differs_from_every_image():
    model = one_world_model(2)
    sets = all_modal_sets(model.scope)
    for mapping in itertools.product(sets, repeat=2):
        diag, outside = diagonal_witness(model, list(mapping))
        for e in range(2):
            assert diag.table[e][0] != mapping[e].table[e][0]
        assert outside == all(diag != mapping[e] for e in range(2))
        assert outside  # pointwise difference forces it out of the range


def test_goedel_models_pass_configured_ultrafilter_mode():
    bundle = load_bundle("goedel")
    mode = bundle.manifest["ultrafilter_mode"]
    for n, m in [(1, 2), (2, 1), (2, 2)]:
        for model in enumerate_models(bundle.theory, Scope(n, m)):
            fam = PropertyFamily.from_model(model, "P")
            assert is_modal_ultrafilter(model, fam, mode).globally
