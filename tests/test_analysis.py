"""Filter/ultrafilter checks, positive-property counting, cardinal experiments."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homlkit import analysis
from homlkit.analysis import (
    FAMILY_TYPE,
    PROPERTY_TYPE,
    count_positive,
    diagonal_witness,
    equipollent,
    is_modal_filter,
    is_modal_ultrafilter,
    min_positive_count,
    positive_sets,
    successor_cardinal_check,
    surjection_exists,
)
from homlkit.errors import HomlError
from homlkit.frozen import replace
from homlkit.grounder import enumerate_models, find_model, ground
from homlkit.semantics import KripkeModel, Scope, digits, position
from homlkit.surface import load_theory
from homlkit.theories import load_bundle


def one_world_model(m):
    scope = Scope(1, m)
    return KripkeModel(scope, (1,), (1 << m) - 1)


# A modal set is its Fun(Ind, Prop) position: m entity rows of n world bits.

def modal_sets(scope):
    return range(2 ** (scope.num_worlds * scope.num_entities))


def modal_set(table):
    """The position of the modal set with table[e][w] for entity e, world w."""
    return position([position(row, 2) for row in table], 2 ** len(table[0]))


def rigid(entities, scope):
    n, m = scope.num_worlds, scope.num_entities
    return modal_set([[e in entities] * n for e in range(m)])


def cells_of(scope, s):
    """Modal set s as its (entity, world) pairs."""
    n, m = scope.num_worlds, scope.num_entities
    return frozenset((e, w) for e, row in enumerate(digits(s, m, 2 ** n))
                     for w in range(n) if row >> (n - 1 - w) & 1)


def extension(scope, s, w):
    return frozenset(e for e, v in cells_of(scope, s) if v == w)


def family_model(model, rows):
    """``model`` with the family P holding modal set s at world w iff
    rows[s][w]."""
    n = model.scope.num_worlds
    p = position([position(row, 2) for row in rows], 2 ** n)
    return KripkeModel(model.scope, model.accessibility, model.exists_at,
                       constant_types={"P": FAMILY_TYPE}, positions={"P": p})


def family_from_sets(model, members):
    """``model`` with a family whose members (at every world) are the given
    modal sets."""
    n = model.scope.num_worlds
    return family_model(model, [[s in members] * n for s in modal_sets(model.scope)])


def principal_family(model, entity):
    scope = model.scope
    members = {s for s in modal_sets(scope)
               if all((entity, w) in cells_of(scope, s) for w in range(scope.num_worlds))}
    return family_from_sets(model, members)


def test_principal_family_is_ultrafilter():
    fam = principal_family(one_world_model(3), 1)
    assert is_modal_filter(fam).globally
    assert is_modal_ultrafilter(fam, "P", "intension").globally
    assert is_modal_ultrafilter(fam, "P", "extension").globally


def test_empty_family_is_not_a_filter():
    fam = family_from_sets(one_world_model(2), set())
    report = is_modal_filter(fam)
    assert not report.globally
    assert any("full set" in f for f in report.failures)


def test_family_containing_empty_set_is_not_a_filter():
    model = one_world_model(2)
    fam = family_from_sets(model, set(modal_sets(model.scope)))
    report = is_modal_filter(fam)
    assert not report.globally
    assert any("empty set" in f for f in report.failures)


def test_filter_strictly_below_principal_is_not_ultra():
    model = one_world_model(2)
    full = rigid([0, 1], model.scope)
    fam = family_from_sets(model, {full})  # the trivial filter
    assert is_modal_filter(fam).globally
    assert not is_modal_ultrafilter(fam, "P", "intension").globally


def test_ultra_implies_filter_over_all_one_world_families():
    model = one_world_model(2)
    sets = modal_sets(model.scope)
    for bits in itertools.product([False, True], repeat=len(sets)):
        fam = family_from_sets(model, {s for s, b in zip(sets, bits) if b})
        if is_modal_ultrafilter(fam, "P", "intension").globally:
            assert is_modal_filter(fam).globally


def test_family_must_be_an_interpreted_family_constant():
    model = one_world_model(2)
    with pytest.raises(HomlError, match="does not interpret"):
        is_modal_filter(model)
    with pytest.raises(HomlError, match="not a property family"):
        positive_sets(KripkeModel(model.scope, model.accessibility, model.exists_at,
                                  constant_types={"P": PROPERTY_TYPE}, positions={"P": 0}))


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
    sets = modal_sets(model.scope)
    ultra_count = 0
    for bits in itertools.product([False, True], repeat=len(sets)):
        members = {s for s, b in zip(sets, bits) if b}
        fam = family_from_sets(model, members)
        expected = classical_is_ultrafilter(m, [extension(model.scope, s, 0) for s in members])
        got = is_modal_ultrafilter(fam, "P", "intension").globally
        assert got == expected
        assert is_modal_ultrafilter(fam, "P", "extension").globally == expected
        ultra_count += got
    assert ultra_count == m  # only the principal ultrafilters exist


SCOPE22 = Scope(2, 2)
SETS22 = modal_sets(SCOPE22)
CELLS22 = frozenset(itertools.product(range(2), range(2)))


def modal_set_of(cells):
    return modal_set([[(e, w) in cells for w in range(2)] for e in range(2)])


@settings(max_examples=150, deadline=None)
@given(generators=st.tuples(st.sampled_from(SETS22), st.sampled_from(SETS22)),
       flips=st.lists(st.tuples(st.integers(0, len(SETS22) - 1), st.integers(0, 1)),
                      max_size=3))
@example(generators=(modal_set_of({(0, 0)}), modal_set_of({(1, 1)})), flips=[])
@example(generators=(modal_set_of(CELLS22), modal_set_of(set())), flips=[])
def test_two_world_agreement_with_oracles(generators, flips):
    # At world w the family is the principal filter of generators[w] (an
    # ultrafilter when that is one cell), with some memberships flipped.
    membership = [[cells_of(SCOPE22, g) <= cells_of(SCOPE22, s) for g in generators]
                  for s in SETS22]
    for j, w in flips:
        membership[j][w] = not membership[j][w]
    model = KripkeModel(SCOPE22, (0b11, 0b11), 0b11_11)
    family = family_model(model, membership)
    by_extension = is_modal_ultrafilter(family, "P", "extension").per_world
    intension = is_modal_ultrafilter(family, "P", "intension").per_world
    modal_filter = is_modal_filter(family).per_world
    for w in range(2):
        members = [s for s, row in zip(SETS22, membership) if row[w]]
        assert by_extension[w] == classical_is_filter(
            range(2), [extension(SCOPE22, s, w) for s in members], maximal=True)
        as_cells = [cells_of(SCOPE22, s) for s in members]
        assert intension[w] == classical_is_filter(CELLS22, as_cells, maximal=True)
        assert modal_filter[w] == classical_is_filter(CELLS22, as_cells, maximal=False)


# -- positive property counting ----------------------------------------------

def test_count_when_only_full_set_positive():
    scope = Scope(1, 2)
    model = family_model(one_world_model(2),
                         [[extension(scope, s, 0) == {0, 1}] for s in modal_sets(scope)])
    assert len(positive_sets(model)) == 1


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
    stronger = replace(base, axioms=(
        base.axioms + load_theory(
            "const P : (i > prop) > prop\n"
            "axiom forallP phi:i>prop. (P phi) -> box (existsA y. phi y)\n"
        ).axioms
    ))
    scope = Scope(1, 2)
    base_count = min_positive_count(base, scope)
    strong_count = min_positive_count(stronger, scope)
    assert strong_count.model_count <= base_count.model_count
    assert not strong_count.empty_model_class
    assert strong_count.minimum >= base_count.minimum


def test_actualist_entity_mode():
    theory = load_bundle("goedel").theory
    result = min_positive_count(theory, Scope(1, 3), entities=2)
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
    result = min_positive_count(theory, Scope(1, 3), entities=2)
    assert result.minimum == 4
    [(problem, before)] = grounded
    assert problem.clauses == before


@pytest.mark.parametrize("kwargs,message", [
    ({"entities": -1}, "the actualist entity count must be >= 0, got -1"),
    ({"world": 1}, "counting world 1 is not one of the 1 worlds of scope (n=1, m=3)"),
    ({"entities": 4}, "cannot require 4 existing entities with only 3 in scope"),
])
def test_count_arguments_are_checked_before_grounding(kwargs, message, monkeypatch):
    grounded = []

    def recording_ground(*args, **kw):
        grounded.append(args)
        return ground(*args, **kw)

    monkeypatch.setattr(analysis, "ground", recording_ground)
    theory = load_bundle("goedel").theory
    with pytest.raises(HomlError) as err:
        min_positive_count(theory, Scope(1, 3), **kwargs)
    assert str(err.value) == message
    assert grounded == []


# -- equipollence and successor ------------------------------------------------

def test_equipollent_examples():
    model = one_world_model(3)
    single = rigid([0], model.scope)
    pair_a = rigid([0, 1], model.scope)
    pair_b = rigid([1, 2], model.scope)
    assert equipollent(model, single, single)
    assert not equipollent(model, single, pair_a)
    # Oracle: brute force over all 27 maps, frozen result.
    assert equipollent(model, pair_a, pair_b)


def test_equipollent_needs_uniform_witness_across_worlds():
    scope = Scope(2, 2)
    model = KripkeModel(scope, (0b11, 0b11), 0b11_11)
    rigid_a = modal_set(((True, True), (False, False)))
    drifting = modal_set(((True, False), (False, True)))
    assert not equipollent(model, rigid_a, drifting)
    assert equipollent(model, rigid_a, rigid_a)


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3)])
def test_successor_checks_all_k(n, m):
    scope = Scope(n, m)
    model = KripkeModel(scope, ((1 << n) - 1,) * n, (1 << n * m) - 1)
    for k in range(m):
        assert successor_cardinal_check(model, k), (n, m, k)
    with pytest.raises(HomlError):
        successor_cardinal_check(model, m)


def test_successor_class_against_direct_size_count():
    # Independent oracle at one world: the class of a rigid k-set is exactly
    # the sets of size k, so the successor lands on the size-(k+1) sets.
    model = one_world_model(3)
    sets = modal_sets(model.scope)
    for k in range(3):
        target = {s for s in sets if len(extension(model.scope, s, 0)) == k + 1}
        reachable = {
            q for q in sets if equipollent(model, q, rigid(range(k + 1), model.scope))
        }
        assert reachable == target
        assert successor_cardinal_check(model, k)


# -- surjections and the diagonal ----------------------------------------------

def test_surjection_blocked_by_pigeonhole():
    theory = load_bundle("goedel").theory
    model = find_model(theory, Scope(1, 3))
    assert len(positive_sets(model)) == 4  # > 3 entities
    assert not surjection_exists(model)


def test_surjection_exists_when_few_positives():
    scope = Scope(1, 2)
    model = family_model(one_world_model(2), [[extension(scope, s, 0) == frozenset({0, 1})]
                                              for s in modal_sets(scope)])
    assert len(positive_sets(model)) == 1
    assert surjection_exists(model)


def _brute_force_surjection(m, k):
    """The definition, searched: some map from m entities hits each of k
    positive sets, and there is at least one."""
    return k > 0 and any(len(set(image)) == k
                         for image in itertools.product(range(k), repeat=m))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_surjection_exists_matches_the_brute_force_search(m):
    # The fewest worlds that give at least five modal sets to choose from.
    n = next(n for n in itertools.count(1) if 2 ** (n * m) >= 5)
    scope = Scope(n, m)
    base = KripkeModel(scope, ((1 << n) - 1,) * n, (1 << (n * m)) - 1)
    for k in range(6):
        model = family_from_sets(base, set(range(k)))
        assert len(positive_sets(model)) == k
        assert surjection_exists(model) == _brute_force_surjection(m, k), (m, k)


def test_diagonal_differs_from_every_image():
    model = one_world_model(2)
    scope = model.scope
    for mapping in itertools.product(modal_sets(scope), repeat=2):
        diag, outside = diagonal_witness(model, list(mapping))
        for e in range(2):
            assert ((e, 0) in cells_of(scope, diag)) != ((e, 0) in cells_of(scope, mapping[e]))
        assert outside == all(diag != mapping[e] for e in range(2))
        assert outside  # pointwise difference forces it out of the range


@pytest.mark.parametrize("bad", [999, 4, -1, -5, True, "1", 1.0])
def test_modal_sets_must_be_positions_at_the_scope(bad):
    model = one_world_model(2)  # (1,2): four modal sets, positions 0..3
    with pytest.raises(HomlError, match="i > prop values at scope"):
        diagonal_witness(model, [bad, 0])
    with pytest.raises(HomlError, match="i > prop values at scope"):
        diagonal_witness(model, [0, bad])
    with pytest.raises(HomlError, match="i > prop values at scope"):
        equipollent(model, bad, 3)
    with pytest.raises(HomlError, match="i > prop values at scope"):
        equipollent(model, 3, bad)
    with pytest.raises(HomlError, match="i > prop values at scope"):
        analysis.equipollence_class(model, bad)
    assert diagonal_witness(model, [3, 0]) == (1, True)
    assert analysis.equipollence_class(model, 3) == frozenset({3})


def test_goedel_models_pass_configured_ultrafilter_mode():
    bundle = load_bundle("goedel")
    mode = bundle.manifest["ultrafilter_mode"]
    for n, m in [(1, 2), (2, 1), (2, 2)]:
        for model in enumerate_models(bundle.theory, Scope(n, m)):
            assert is_modal_ultrafilter(model, "P", mode).globally


def test_positive_sets_reject_a_world_outside_the_scope():
    model = find_model(load_bundle("goedel").theory, Scope(2, 2))
    assert all(0 <= s < 16 for s in positive_sets(model, "P", 1))  # the last world
    for world in (-1, 2):
        with pytest.raises(HomlError, match=f"counting world {world} is not one"):
            positive_sets(model, "P", world)
        with pytest.raises(HomlError, match=f"counting world {world} is not one"):
            count_positive([model], "P", world)


# -- every family at the smallest scopes --------------------------------------

@pytest.mark.parametrize("n,m", [(1, 2), (2, 1), (1, 3)])
def test_every_family_agrees_with_classical_oracle(n, m):
    scope = Scope(n, m)
    sets = modal_sets(scope)
    cells = frozenset(itertools.product(range(m), range(n)))
    model = KripkeModel(scope, ((1 << n) - 1,) * n, (1 << n * m) - 1)
    families = 2 ** (len(sets) * n)
    assert families == {(1, 2): 16, (2, 1): 256, (1, 3): 256}[(n, m)]
    for p in range(families):
        fam = KripkeModel(scope, model.accessibility, model.exists_at,
                          constant_types={"P": FAMILY_TYPE}, positions={"P": p})
        modal_filter = is_modal_filter(fam).per_world
        intension = is_modal_ultrafilter(fam, "P", "intension").per_world
        by_extension = is_modal_ultrafilter(fam, "P", "extension").per_world
        rows = digits(p, len(sets), 2 ** n)
        for w in range(n):
            members = [cells_of(scope, j) for j in sets if rows[j] >> (n - 1 - w) & 1]
            assert modal_filter[w] == classical_is_filter(cells, members, maximal=False)
            assert intension[w] == classical_is_filter(cells, members, maximal=True)
            assert by_extension[w] == classical_is_filter(
                range(m), [{e for e, v in s if v == w} for s in members], maximal=True)
