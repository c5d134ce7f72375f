"""Grounding, solving, decoding: oracle equivalence against exhaustive eval."""

import copy
import dataclasses
import itertools
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homlkit.grounder as grounder
from homlkit.errors import BudgetExceededError, GroundingError, HomlError, ScopeCapError
from homlkit.frozen import replace
from homlkit.grounder import (
    _FALSE,
    _TRUE,
    GroundProblem,
    _Formulas,
    _ground,
    _Grounding,
    check_validity_bounded,
    enumerate_models,
    export_dimacs,
    find_model,
    ground,
    iterate_models,
    solve,
)
from homlkit.logictypes import Fun, Ind, Prop
from homlkit.semantics import (
    Countermodel,
    Indeterminate,
    KripkeModel,
    Scope,
    ValidUpToScope,
    _places,
    denotation_size,
    eval_term,
    table_view,
)
from homlkit.solver import SAT, solve_cnf
from homlkit.surface import load_theory
from homlkit.terms import And, ExistsA, ForallA, ForallP, LeibnizEq, Var, subterms
from homlkit.theories import load_bundle
from homlkit.theory import FRAME_FLAGS, Theory
from reference import (
    ListFormulas,
    brute_force_find_model,
    bundle_variants,
    count_full_models,
    decode as reference_decode,
    enumerate_full_models,
    expand_sugar,
    frame_holds,
    holds_at,
    mvalid,
    random_models,
    relation_from_bits,
)


CODEC_TYPES = (Prop, Ind, Fun(Ind, Prop), Fun(Prop, Prop), Fun(Ind, Ind),
               Fun(Fun(Ind, Prop), Prop))


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (1, 3)])
def test_lifted_constants_round_trip(n, m):
    """lift, concrete_index and sym_eq agree on every position of every type
    (at most 2^8 of them at these scopes)."""
    g = _Grounding(load_theory(""), Scope(n, m))
    for ty in CODEC_TYPES:
        size = denotation_size(ty, g.scope)
        assert size <= 2 ** 8
        for i in range(size):
            sv = g.lift(i, ty)
            assert g.concrete_index(sv, ty) == i, (ty, i)
            for j in range(size):
                assert g.sym_eq(sv, ty, j) == (_TRUE if i == j else _FALSE), (ty, i, j)
    # An individual is a one-hot row. A row of constants that is not one-hot
    # has no position, nor does a table containing it, nor a row with an
    # unknown cell.
    for row in itertools.product((_TRUE, _FALSE), repeat=m):
        if row.count(_TRUE) != 1:
            assert g.concrete_index(row, Ind) is None, row
            assert g.concrete_index((row,) * m, Fun(Ind, Ind)) is None, row
    unknown = g.f.var(1)
    assert g.concrete_index((unknown,) + g.lift(0, Prop)[1:], Prop) is None


@pytest.mark.parametrize("n,m", [(1, 2), (2, 1), (1, 3), (2, 2)])
def test_reading_an_entry_by_position_is_applying_to_the_lifted_position(n, m):
    # at(f, j) is the entry that apply finds for the lifted value of j, on
    # the unknowns of a constant of each function type, and neither adds a
    # formula node.
    scope = Scope(n, m)
    theory = load_theory("".join(f"const c{k} : {ty}\n" for k, ty in enumerate(CODEC_TYPES)))
    g = _Grounding(theory, scope)
    for k, ty in enumerate(CODEC_TYPES):
        if not isinstance(ty, Fun):
            continue
        sv = g.const_sym[f"c{k}"]
        base = denotation_size(ty.codomain, scope)
        divs = _places(denotation_size(ty.domain, scope), base)
        nodes = len(g.f.nodes)
        for j in range(len(divs)):
            assert g.at(sv, j, ty, divs, base) == g.apply(sv, g.lift(j, ty.domain), ty, divs, base)
        assert len(g.f.nodes) == nodes, ty


# Random operations on a formula store: an op and indices into the ids made
# so far, which start as true and false; few variables, so that operands
# repeat, fold to constants and are each other's negations.
_STORE_OPS = st.lists(st.tuples(st.sampled_from(["var", "neg", "conj", "disj", "implies", "iff"]),
                                st.lists(st.integers(min_value=0, max_value=40), min_size=1,
                                         max_size=4)), max_size=60)


@settings(max_examples=300, deadline=None)
@given(_STORE_OPS)
def test_binary_connectives_build_the_nodes_of_the_list_based_ones(ops):
    fast, ref = _Formulas(), ListFormulas()
    ids = [_TRUE, _FALSE]
    for op, picks in ops:
        picked = [ids[i % len(ids)] for i in picks]
        if op == "var":
            args = (picks[0] % 4 + 1,)
        elif op == "neg":
            args = (picked[0],)
        elif op in ("implies", "iff"):
            args = (picked[0], picked[-1])
        else:
            args = (picked,)
        nid = getattr(fast, op)(*args)
        assert nid == getattr(ref, op)(*args), (op, args)
        ids.append(nid)
    assert fast.nodes == ref.nodes and fast.intern == ref.intern


@pytest.mark.parametrize("n,m", [(1, 2), (2, 1), (2, 2)])
def test_operation_memo_hits_are_sound(n, m):
    # Every entry of the per-grounding operation memo is keyed by a whole
    # call of an undecorated operation; run again, that call returns the
    # stored value and makes no new formula node.
    # The methods that _per_grounding wraps share one code object.
    undecorated = {f.__wrapped__ for f in vars(_Grounding).values()
                   if getattr(f, "__code__", None) is _Grounding.box.__code__}
    checked = set()
    for bundle in bundle_variants():
        for goal in (None, *bundle.theory.goals):
            g = _ground(bundle.theory, Scope(n, m), negated_goal=goal)
            for (op, *args), value in list(g.ops.items()):
                assert op in undecorated and op.__code__.co_argcount == 1 + len(args), (op, args)
                nodes = len(g.f.nodes)
                assert op(g, *args) == value, (bundle.id, bundle.variant, op.__name__, args)
                assert len(g.f.nodes) == nodes, (bundle.id, bundle.variant, op.__name__, args)
                checked.add(op)
    assert checked == undecorated


def _leaves(cells):
    """A constant's cells (or lifted formula ids) in the order of its bits."""
    return [cells] if isinstance(cells, int) else [v for sub in cells for v in _leaves(sub)]


DECODE_SCOPES = [(1, 2), (2, 1), (1, 3), (2, 2)]


def _codec_problem(scope):
    """The ground problem of one constant of each of CODEC_TYPES."""
    return ground(load_theory("".join(f"const c{k} : {ty}\n"
                                      for k, ty in enumerate(CODEC_TYPES))), scope)


def _selector_rows(cells, ty):
    """A constant's selector rows, in the order of its bits."""
    if ty == Ind:
        return [cells]
    if isinstance(ty, Fun):
        return [row for sub in cells for row in _selector_rows(sub, ty.codomain)]
    return []


@pytest.mark.parametrize("n,m", DECODE_SCOPES)
def test_decode_reads_each_constants_position_from_its_cells(n, m):
    # Bits set as lift lays out position i decode to position i, and the
    # decoded model equals the model built by hand from those positions.
    # At (2,2), (i > prop) > prop has 2^32 values, past the denotation cap,
    # so positions are drawn below its table's bound.
    scope = Scope(n, m)
    problem = _codec_problem(scope)
    g = _Grounding(load_theory(""), scope)
    bound = {ty: m if table_view(ty, scope) is None
             else table_view(ty, scope)[1] ** table_view(ty, scope)[0]
             for ty in CODEC_TYPES}
    rng = random.Random(n * 10 + m)
    for _ in range(50):
        bits = [rng.randrange(2) for _ in range(problem.num_vars)]
        want = {name: rng.randrange(bound[ty]) for name, ty in problem.signature}
        for name, ty in problem.signature:
            for v, cell in zip(_leaves(problem.const_cells[name]), _leaves(g.lift(want[name], ty))):
                bits[v - 1] = int(cell == _TRUE)
        model = problem.decode(bits)
        assert model.positions == want
        # Bit n-1-v of world w's mask is the cell r(w,v); existsAt's m rows
        # of n world bits are its cells in order, the first most significant.
        assert model.accessibility == tuple(
            sum(bits[v - 1] << (n - 1 - k) for k, v in enumerate(row)) for row in problem.r_vars)
        cells = [v for row in problem.ex_vars for v in row]
        assert model.exists_at == sum(bits[v - 1] << (n * m - 1 - k) for k, v in enumerate(cells))
        by_hand = KripkeModel(scope, model.accessibility, model.exists_at, want,
                              dict(problem.signature))
        assert by_hand == model and by_hand.positions == want
        assert model._int_form[2] == {**want, "existsAt": model.exists_at}


def test_decode_checks_selector_bits():
    # The solver's model passes; an individual's selector row with no bit,
    # two bits or every bit set, at the top level or inside a table keyed
    # by individuals or by props, does not.
    for source, scope, rows in (
            ("const c : i\nconst f : i > i\n", Scope(1, 2), [("c",), ("f", 1)]),
            ("const h : prop > i\n", Scope(1, 3), [("h", 0), ("h", 1)])):
        problem = ground(load_theory(source), scope)
        _, bits, _ = solve_cnf(problem.num_vars, problem.clauses)
        assert problem.decode(bits) == reference_decode(problem, bits)
        m = scope.num_entities
        for name, *path in rows:
            cells = problem.const_cells[name]
            for k in path:
                cells = cells[k]
            for count in (0, *range(2, m + 1)):
                for chosen in itertools.combinations(range(m), count):
                    bad = list(bits)
                    for e, v in enumerate(cells):
                        bad[v - 1] = int(e in chosen)
                    with pytest.raises(HomlError, match="exactly-one"):
                        problem.decode(bad)


@pytest.mark.parametrize("n,m", DECODE_SCOPES)
def test_decode_agrees_with_the_reference_reader(n, m):
    # On random 0/1 lists over every codec type, where most selector rows
    # are one-hot and some are not, decode gives the reference's model, or
    # raises where the reference finds a broken row.
    problem = _codec_problem(Scope(n, m))
    rng = random.Random(1000 + n * 10 + m)
    broken = 0
    for _ in range(200):
        bits = [rng.randrange(2) for _ in range(problem.num_vars)]
        for name, ty in problem.signature:
            for row in _selector_rows(problem.const_cells[name], ty):
                if rng.random() < 0.95:
                    pick = rng.randrange(m)
                    for e, v in enumerate(row):
                        bits[v - 1] = int(e == pick)
        try:
            want = reference_decode(problem, bits)
        except HomlError:
            broken += 1
            with pytest.raises(HomlError, match="exactly-one"):
                problem.decode(bits)
        else:
            assert problem.decode(bits) == want
    assert 0 < broken < 200


def test_decode_rejects_a_list_that_is_not_a_model_of_the_problem():
    # The list must hold num_vars values, and each value decode reads must
    # be 0 or 1 (False and True are those ints).
    problem = ground(load_bundle("k").theory, Scope(2, 1))
    _, bits, _ = solve_cnf(problem.num_vars, problem.clauses)
    assert problem.decode([bool(b) for b in bits]) == problem.decode(bits)
    with pytest.raises(HomlError, match="has 9 values, not the problem's 10 variables"):
        problem.decode(bits[:-1])
    with pytest.raises(HomlError, match="has 13 values, not the problem's 10 variables"):
        problem.decode(bits + [0, 0, 0])
    goedel = ground(load_bundle("goedel").theory, Scope(1, 1))
    _, goedel_bits, _ = solve_cnf(goedel.num_vars, goedel.clauses)
    d = len(goedel.decision_vars)
    assert d < goedel.num_vars
    with pytest.raises(HomlError, match=f"has {d} values, not the problem's {goedel.num_vars} "):
        goedel.decode(goedel_bits[:d])
    signed = [v if b else -v for v, b in enumerate(bits, 1)]
    with pytest.raises(HomlError, match="of variable 1 is not 0 or 1"):
        problem.decode(signed)
    for value in (2, -1, 256, 1.0, "1", None, b"\x01"):
        bad = list(bits)
        bad[4] = value
        with pytest.raises(HomlError, match=re.escape(f"value {value!r} of variable 5 is not 0 or 1")):
            problem.decode(bad)


def test_ground_problem_copies_and_pickles_after_decoding():
    # A problem that has decoded a model copies, deep-copies and pickles to
    # an equal problem, without its derived layout and reader, which lays
    # out and decodes alike.
    problem = _codec_problem(Scope(1, 3))
    _, bits, _ = solve_cnf(problem.num_vars, problem.clauses)
    model = problem.decode(bits)
    flipped = list(bits)
    flipped[0] ^= 1
    for twin in (copy.copy(problem), copy.deepcopy(problem), pickle.loads(pickle.dumps(problem))):
        assert twin == problem
        assert not [k for k in vars(twin) if k.startswith("_")]
        assert (twin.meanings, twin.const_cells) == (problem.meanings, problem.const_cells)
        assert twin.decode(bits) == model
        assert twin.decode(flipped) == problem.decode(flipped) != model


def test_iterate_models_with_limit_0_builds_no_solver(monkeypatch):
    class NoSolver:
        def __init__(self, *args):
            raise AssertionError("a solver was built")

    problem = ground(load_bundle("k").theory, Scope(2, 1))
    monkeypatch.setattr(grounder, "Solver", NoSolver)
    assert list(iterate_models(problem, limit=0)) == []
    with pytest.raises(AssertionError, match="a solver was built"):
        next(iterate_models(problem, limit=1))


def test_ground_problem_fields_reject_mutation():
    problem = ground(load_theory("const c : i\nconst p : prop\n"), Scope(2, 2))
    for container, key in ((problem.const_cells["p"], 0), (problem.decision_vars, 0),
                           (problem.r_vars, 0), (problem.r_vars[0], 0), (problem.ex_vars[1], 0)):
        with pytest.raises(TypeError):
            container[key] = 2
    for name in ("meanings", "const_cells", "r_vars", "decision_vars", "num_vars"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(problem, name, {})
    # meanings and const_cells are new dicts on each read: changing one
    # changes nothing in the problem.
    problem.meanings[1] = problem.const_cells["c"] = 2
    assert problem.meanings[1] == "r(w0,w0)" and problem.const_cells["c"] == (9, 10)


def test_contradictory_axiom_unsat_everywhere():
    theory = load_theory("const c : prop\naxiom c & not c\n")
    for n, m in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        assert find_model(theory, Scope(n, m)) is None


def test_false_axiom_grounds_to_empty_clause():
    theory = load_theory("axiom bot\n")
    problem = ground(theory, Scope(2, 1))
    assert [] in problem.clauses
    assert find_model(theory, Scope(2, 1)) is None


@pytest.mark.parametrize("formula,index", [
    (Var(0, Prop), 0),
    (ForallP(Prop, And(Var(0, Prop), Var(2, Prop))), 1),
])
def test_open_root_is_a_grounding_error_naming_its_free_index(formula, index):
    # An open axiom or goal is a GroundingError, not an IndexError.
    scope = Scope(1, 1)
    with pytest.raises(GroundingError, match=f"de Bruijn index {index} is free"):
        ground(Theory(name="x", axioms=(formula,)), scope)
    with pytest.raises(GroundingError, match=f"de Bruijn index {index} is free"):
        check_validity_bounded(Theory(name="x"), formula, scope)


def test_refl_flag_forces_reflexive_edges():
    theory = load_theory("frame refl\nconst c : prop\n")
    problem = ground(theory, Scope(2, 1))
    units = {tuple(c) for c in problem.clauses if len(c) == 1}
    assert (problem.r_vars[0][0],) in units
    assert (problem.r_vars[1][1],) in units


def test_solve_direct_problems():
    # r(w0,w0) is variable 1 and existsAt(e0,w0) variable 2.
    unsat = GroundProblem(Scope(1, 1), (), num_vars=2, clauses=[[1], [-1]])
    assert solve(unsat) is None
    sat = GroundProblem(Scope(1, 1), (), num_vars=2, clauses=[[1, 2]])
    model = solve(sat)
    assert model.accessibility[0] or model.exists_at
    # The least model sets variable 1 false.
    assert (model.accessibility, model.exists_at) == ((0,), 1)


def test_solve_raises_budget_exceeded_with_conflicts_reached():
    problem = ground(load_bundle("goedel").theory, Scope(2, 2))
    for budget in (1, 2):
        with pytest.raises(BudgetExceededError) as info:
            solve(problem, budget)
        assert (info.value.budget, info.value.conflicts) == (budget, budget)
    assert solve(problem, 3) is not None


def test_check_validity_at_budget_one_is_indeterminate():
    theory = load_bundle("goedel").theory
    verdict = check_validity_bounded(theory, theory.goals[0], Scope(2, 2), budget=1)
    assert verdict == Indeterminate("conflict budget 1 exhausted")


def test_k_axiom_refutation_unsat():
    theory = load_theory(
        "const p : prop\nconst q : prop\n"
        "goal (box (p -> q)) -> ((box p) -> (box q))\n"
    )
    verdict = check_validity_bounded(theory, theory.goals[0], Scope(2, 1))
    assert isinstance(verdict, ValidUpToScope)


def test_t_schema_countermodel_matches_brute_force():
    theory = load_theory("const p : prop\ngoal (box p) -> p\n")
    scope = Scope(2, 1)
    # Oracle: exhaustive search for a countermodel using eval only.
    oracle_found = False
    for model in enumerate_full_models(theory.signature, scope):
        if any(not holds_at(model, theory.goals[0], w) for w in range(2)):
            oracle_found = True
            break
    verdict = check_validity_bounded(theory, theory.goals[0], scope)
    assert oracle_found
    assert isinstance(verdict, Countermodel)
    # Soundness: the returned countermodel falsifies the goal at the world.
    assert not holds_at(verdict.model, theory.goals[0], verdict.world)


def test_lifted_tautology_valid():
    theory = load_theory("const a : prop\ngoal a -> a\n")
    verdict = check_validity_bounded(theory, theory.goals[0], Scope(2, 2))
    assert isinstance(verdict, ValidUpToScope)


def test_find_model_empty_theory():
    theory = load_theory("")
    assert find_model(theory, Scope(1, 1)) is not None


def test_enumerate_free_components_count():
    # One world, one entity, one prop constant, no frame flags:
    # 2 r-choices x 2 existsAt-choices x 2 constant-choices = 8 models.
    theory = load_theory("const c : prop\n")
    models = list(enumerate_models(theory, Scope(1, 1)))
    assert len(models) == 8
    assert len(set(map(str, models))) == 8  # pairwise distinct


def test_enumerate_respects_axioms():
    theory = load_theory("const c : prop\naxiom c\n")
    for model in enumerate_models(theory, Scope(1, 1)):
        assert model.positions["c"] == 1  # true at the one world


def test_iterate_models_leaves_problem_unchanged():
    problem = ground(load_theory("const c : prop\n"), Scope(1, 1))
    before = [list(clause) for clause in problem.clauses]
    assert len(list(iterate_models(problem))) == 8
    assert problem.clauses == before


def test_individual_constant_decoding():
    theory = load_theory("const k : i\naxiom existsAt k\n")
    model = find_model(theory, Scope(1, 2))
    assert model is not None
    entity = model.positions["k"]
    # One world: existsAt's position has one bit per entity, entity 0 first.
    assert model.exists_at >> (1 - entity) & 1


@pytest.mark.parametrize("m", range(5))
def test_exactly_k_holds_on_the_assignments_with_k_true(m):
    lits = [3 * v - 1 for v in range(1, m + 1)]  # any distinct variables
    for k in range(m + 1):
        clauses = grounder.exactly(lits, k)
        for bits in itertools.product([False, True], repeat=m):
            true = {v if b else -v for v, b in zip(lits, bits)}
            holds = all(any(lit in true for lit in clause) for clause in clauses)
            assert holds == (sum(bits) == k), (m, k, bits)
    if m:
        assert grounder.exactly(lits, 1) == [lits] + [[-a, -b] for a, b in
                                                    itertools.combinations(lits, 2)]


def test_declared_existence_constant_is_rejected():
    # existsAt is the existence table's name; a theory built in code that
    # declares it would get cells that no formula reads.
    theory = Theory("t", signature=(("existsAt", Fun(Ind, Prop)),))
    with pytest.raises(GroundingError, match="'existsAt' is reserved"):
        ground(theory, Scope(1, 2))


def test_repeated_constant_name_is_rejected():
    # The parser refuses a repeated name; a theory built in code is refused
    # when grounded, since its formulas would read only the last declaration.
    theory = Theory("t", signature=(("p", Prop), ("q", Prop), ("p", Prop)))
    with pytest.raises(GroundingError, match="constant 'p' is declared more than once"):
        list(enumerate_models(theory, Scope(1, 1)))
    with pytest.raises(GroundingError, match="more than once"):
        ground(theory, Scope(2, 2))


def test_order_limit_rejected():
    theory = load_theory("const F : ((i > prop) > prop) > prop\n")
    with pytest.raises(GroundingError) as err:
        ground(theory, Scope(1, 1))
    assert "beyond order" in str(err.value)


def test_export_dimacs_exact_bytes():
    meanings = b"c 1 r(w0,w0)\nc 2 existsAt(e0,w0)\n"
    one = GroundProblem(Scope(1, 1), (), num_vars=2, clauses=[[1]])
    assert export_dimacs(one) == meanings + b"p cnf 2 1\n1 0\n"
    empty = GroundProblem(Scope(1, 1), (), num_vars=2, clauses=[])
    assert export_dimacs(empty) == meanings + b"p cnf 2 0\n"


def test_a_problem_without_its_layouts_variables_is_refused():
    # (1,2) with c : i lays out r(w0,w0), existsAt's 2 cells and c's 2
    # selector bits: 5 decision variables. Built with fewer, the problem
    # refuses to decode, export or show its layout rather than misread it.
    short = GroundProblem(Scope(1, 2), (("c", Ind),), num_vars=4, clauses=[[1]])
    for read in (lambda: short.decode([1, 0, 0, 1]), lambda: export_dimacs(short),
                 lambda: short.r_vars, lambda: short.decision_vars,
                 lambda: solve(short), lambda: next(iterate_models(short))):
        with pytest.raises(HomlError, match="4 variables, fewer than the 5 decision variables"):
            read()
    full = replace(short, num_vars=5, clauses=[[1], [4, 5], [-4, -5]])
    assert len(full.decision_vars) == 5 and solve(full).positions == {"c": 1}


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_decision_variables_are_laid_out_as_one_prefix(n, m):
    # Every bundle variant's problem numbers its decision variables 1..d and
    # names each: the relation's rows, then existsAt's entity rows, then
    # each constant's cells in signature order.
    for bundle in bundle_variants():
        problem = ground(bundle.theory, Scope(n, m))
        d = len(problem.decision_vars)
        assert list(problem.decision_vars) == list(range(1, d + 1))
        assert list(problem.meanings) == list(range(1, d + 1)) and d <= problem.num_vars
        cells = [*problem.r_vars, *problem.ex_vars,
                 *(problem.const_cells[name] for name, _ in problem.signature)]
        assert [v for part in cells for v in _leaves(part)] == list(range(1, d + 1))
        assert problem.meanings[problem.r_vars[-1][0]] == f"r(w{n - 1},w0)"
        assert problem.meanings[problem.ex_vars[-1][-1]] == f"existsAt(e{m - 1},w{n - 1})"


def test_export_dimacs_writes_any_sequence_of_literals():
    # The solver takes a clause as any sequence of ints, and so does export.
    problem = ground(load_theory("const c : prop\n"), Scope(1, 1))
    want = export_dimacs(replace(problem, clauses=problem.clauses + [[1, -2], []]))
    assert want.endswith(b"\n1 -2 0\n0\n")
    for clause, empty in (((1, -2), ()), (range(1, -3, -3), range(0))):
        assert export_dimacs(replace(problem, clauses=problem.clauses + [clause, empty])) == want


def _parse_dimacs(data: bytes):
    """Independent DIMACS reader used as the round-trip oracle."""
    num_vars = num_clauses = None
    clauses = []
    for line in data.decode("utf-8").splitlines():
        if line.startswith("c") or not line.strip():
            continue
        if line.startswith("p"):
            _, _, nv, nc = line.split()
            num_vars, num_clauses = int(nv), int(nc)
            continue
        lits = [int(x) for x in line.split()]
        assert lits[-1] == 0
        clauses.append(lits[:-1])
    assert num_clauses == len(clauses)
    return num_vars, clauses


def _brute_force_cnf_sat(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in clauses):
            return True
    return False


@pytest.mark.parametrize("source,scope,expect_sat", [
    ("const c : prop\naxiom box c\n", Scope(2, 1), True),
    ("const c : prop\naxiom c & not c\n", Scope(1, 1), False),
    ("frame refl\nconst c : prop\naxiom (box c) & not c\n", Scope(2, 1), False),
])
def test_dimacs_round_trip_agrees(source, scope, expect_sat):
    theory = load_theory(source)
    problem = ground(theory, scope)
    data = export_dimacs(problem)
    num_vars, clauses = _parse_dimacs(data)
    assert num_vars == problem.num_vars
    if num_vars <= 20:
        assert _brute_force_cnf_sat(num_vars, clauses) == expect_sat
    assert (solve(problem) is not None) == expect_sat


def test_dimacs_meanings_are_comments():
    theory = load_theory("const c : prop\n")
    problem = ground(theory, Scope(1, 1))
    lines = export_dimacs(problem).decode().splitlines()
    comments = [l for l in lines if l.startswith("c ")]
    assert any("r(w0,w0)" in l for l in comments)
    assert any("existsAt(e0,w0)" in l for l in comments)
    assert any("c@w0" in l for l in comments)


ORACLE_GRID = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]


def _suite_theories():
    out = []
    for bundle_id in ("k", "t", "s4", "s5", "church", "filters", "goedel", "modal_math"):
        out.append((bundle_id, load_bundle(bundle_id).theory))
    out.append(("goedel-1970", load_bundle("goedel", formulation="goedel-1970").theory))
    out.append(("goedel-possibilist", load_bundle("goedel", quantifier="possibilist").theory))
    out.append(("modal-math-infinity", load_bundle("modal_math", extension="infinity").theory))
    return out


def test_oracle_equivalence_on_bundled_suite():
    """find_model agrees with exhaustive eval-based search on small scopes.

    The full sweep up to 10^6 candidate models runs in the acceptance suite;
    this keeps the unit-test version fast.
    """
    checked = 0
    for label, theory in _suite_theories():
        for n, m in ORACLE_GRID:
            scope = Scope(n, m)
            try:
                work = count_full_models(theory.signature, scope)
            except Exception:
                continue
            if work > 10 ** 4:
                continue
            oracle = brute_force_find_model(theory, scope)
            found = find_model(theory, scope)
            assert (oracle is None) == (found is None), (label, scope)
            if found is not None:
                assert found.satisfies_frame(theory.frame_flags)
                for ax in theory.axioms:
                    assert mvalid(found, ax), (label, scope)
            checked += 1
    assert checked >= 30


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_frame_models_are_counted_by_the_textbook_conditions(n, m):
    # With no constants, the models are the relations that the reference's
    # frame check accepts, each with every existence table.
    for k in range(len(FRAME_FLAGS) + 1):
        for flags in itertools.combinations(FRAME_FLAGS, k):
            theory = Theory("frames", frame_flags=frozenset(flags))
            relations = sum(frame_holds(relation_from_bits(bits, n), flags)
                            for bits in range(2 ** (n * n)))
            found = list(enumerate_models(theory, Scope(n, m)))
            assert len(found) == relations * 2 ** (n * m), (n, m, flags)
            assert all(model.satisfies_frame(flags) for model in found)


def test_unknown_frame_flag_is_not_grounded():
    with pytest.raises(HomlError, match="unknown frame flags"):
        ground(Theory("t", frame_flags=frozenset({"reflexive"})), Scope(1, 1))


def test_determinism_identical_problems_and_models():
    theory = load_theory("frame refl\nconst P : i > prop\naxiom existsP x:i. P x\n")
    scope = Scope(2, 2)
    p1, p2 = ground(theory, scope), ground(theory, scope)
    assert p1.clauses == p2.clauses
    assert p1.num_vars == p2.num_vars
    assert find_model(theory, scope) == find_model(theory, scope)
    first_three = lambda: [m for m in enumerate_models(theory, scope, limit=3)]
    assert first_three() == first_three()


def test_assignment_satisfies_every_clause():
    theory = load_bundle("goedel").theory
    problem = ground(theory, Scope(2, 1))
    status, model, _ = solve_cnf(problem.num_vars, problem.clauses)
    assert status == SAT
    for clause in problem.clauses:
        assert any((model[abs(l) - 1] == 1) == (l > 0) for l in clause), clause
    assert problem.decode(model) == solve(problem)


def _random_formula(rng, depth, ctx, use_consts=True):
    """Random prop-typed core term over {p: prop, A: i>prop, c: i}.

    ctx tracks the de Bruijn binder types (innermost first); with
    use_consts=False only p and bound variables are used.
    """
    from homlkit.logictypes import Fun, Ind, Prop
    from homlkit.terms import (
        And, App, Box, Const, Diamond, ExistsP, ForallP, Iff, Implies,
        LeibnizEq, Not, Or, Var,
    )

    def ind_term():
        choices = [Const("c", Ind)] if use_consts else []
        for i, ty in enumerate(ctx):
            if ty == Ind:
                choices.append(Var(i, Ind, "x"))
        return rng.choice(choices)

    atoms = ["p"]
    if use_consts:
        atoms.append("app")
    if use_consts or any(ty == Ind for ty in ctx):
        atoms.append("leib")
    if depth <= 0:
        kind = rng.choice(atoms)
    else:
        kind = rng.choice(atoms + ["not", "box", "dia", "and", "or",
                                   "implies", "iff", "forall", "exists"])
    if kind == "p":
        return Const("p", Prop)
    if kind == "app":
        return App(Const("A", Fun(Ind, Prop)), ind_term())
    if kind == "leib":
        return LeibnizEq(ind_term(), ind_term())
    if kind in ("not", "box", "dia"):
        cls = {"not": Not, "box": Box, "dia": Diamond}[kind]
        return cls(_random_formula(rng, depth - 1, ctx, use_consts))
    if kind in ("and", "or", "implies", "iff"):
        cls = {"and": And, "or": Or, "implies": Implies, "iff": Iff}[kind]
        return cls(_random_formula(rng, depth - 1, ctx, use_consts),
                   _random_formula(rng, depth - 1, ctx, use_consts))
    var_type = Ind if rng.random() < 0.7 else Prop
    cls = ForallP if kind == "forall" else ExistsP
    return cls(var_type, _random_formula(rng, depth - 1, [var_type] + ctx, use_consts), "x")


def test_validity_differential_on_random_formulas():
    """The refutation path agrees with exhaustive search on random goals."""
    import random

    from homlkit.logictypes import Fun, Ind, Prop

    rng = random.Random(2024)
    signature = (("p", Prop), ("A", Fun(Ind, Prop)), ("c", Ind))
    theory = load_theory("const p : prop\nconst A : i > prop\nconst c : i\n")
    scopes = [Scope(2, 1), Scope(1, 2)]
    valid_seen = counter_seen = 0
    for _ in range(120):
        goal = _random_formula(rng, 3, [])
        for scope in scopes:
            oracle_has_counter = any(
                not holds_at(model, goal, w)
                for model in enumerate_full_models(signature, scope)
                for w in range(scope.num_worlds)
            )
            verdict = check_validity_bounded(theory, goal, scope)
            if oracle_has_counter:
                assert isinstance(verdict, Countermodel), goal
                assert not holds_at(verdict.model, goal, verdict.world)
                counter_seen += 1
            else:
                assert isinstance(verdict, ValidUpToScope), goal
                valid_seen += 1
    assert valid_seen > 5 and counter_seen > 5


def test_validity_differential_with_higher_order_constant():
    """Applications of an unknown family to lambda-built properties agree
    with exhaustive search (exercises the symbolic-argument encoding)."""
    import random

    from homlkit.logictypes import Fun, Ind, Prop
    from homlkit.terms import App, Box, Const, Iff, Lam, Not, Or

    rng = random.Random(7)
    fam_type = Fun(Fun(Ind, Prop), Prop)
    signature = (("p", Prop), ("U", fam_type))
    theory = load_theory("const p : prop\nconst U : (i > prop) > prop\n")
    valid_seen = counter_seen = 0
    for _ in range(40):
        prop_body = _random_formula(rng, 2, [Ind], use_consts=False)
        applied = App(Const("U", fam_type), Lam(Ind, prop_body, "x"))
        goal = rng.choice([
            applied,
            Or(applied, Const("p", Prop)),
            Iff(applied, Box(Const("p", Prop))),
            Not(applied),
        ])
        for scope in (Scope(1, 1), Scope(1, 2)):
            oracle_has_counter = any(
                not holds_at(model, goal, w)
                for model in enumerate_full_models(signature, scope)
                for w in range(scope.num_worlds)
            )
            verdict = check_validity_bounded(theory, goal, scope)
            if oracle_has_counter:
                assert isinstance(verdict, Countermodel), goal
                assert not holds_at(verdict.model, goal, verdict.world)
                counter_seen += 1
            else:
                assert isinstance(verdict, ValidUpToScope), goal
                valid_seen += 1
    assert counter_seen > 5


def test_countermodel_completeness_at_small_scope():
    # If the grounder reports validity, exhaustive enumeration agrees.
    theory = load_theory("frame refl\nconst p : prop\ngoal (box p) -> p\n")
    scope = Scope(2, 1)
    verdict = check_validity_bounded(theory, theory.goals[0], scope)
    assert isinstance(verdict, ValidUpToScope)
    for model in enumerate_full_models(theory.signature, scope):
        if model.satisfies_frame(theory.frame_flags):
            assert mvalid(model, theory.goals[0])


SUGAR_SOURCE = (
    "const P : i > prop\nconst c : i\nconst d : i\nconst p : prop\n"
    "axiom forallA x. box (P x)\naxiom existsA x. (P x) & (dia p)\n"
    "goal c == d\ngoal (P c) == p\ngoal (forallA x. P x) -> (existsA y. P y)\n"
)


def _sugar_nodes(theory) -> int:
    return sum(type(t) in (ForallA, ExistsA, LeibnizEq)
               for f in theory.axioms + theory.goals for t in subterms(f))


def _assert_sugar_means_its_expansion(theory, scope):
    """The sugar nodes, which elaboration keeps, ground to the same DIMACS
    bytes and evaluate to the same masks as their textbook expansion."""
    expanded = replace(
        theory, axioms=tuple(map(expand_sugar, theory.axioms)),
        goals=tuple(map(expand_sugar, theory.goals)))
    problems = [(None, None), *zip(theory.goals, expanded.goals)]
    for sugar_goal, core_goal in problems:
        assert export_dimacs(ground(theory, scope, sugar_goal)) == \
            export_dimacs(ground(expanded, scope, core_goal)), (theory.name, scope, sugar_goal)
    formulas = list(zip(theory.axioms + theory.goals, expanded.axioms + expanded.goals))
    for model in random_models(theory.signature, scope, random.Random(0), 4):
        for sugar, core in formulas:
            assert eval_term(model, [], sugar) == eval_term(model, [], core), \
                (theory.name, scope, sugar)


@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (2, 3)])
def test_sugar_grounds_as_its_elaboration(n, m):
    theory = load_theory(SUGAR_SOURCE)
    assert _sugar_nodes(theory) == 6
    _assert_sugar_means_its_expansion(theory, Scope(n, m))


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (1, 2)])
def test_bundle_sugar_grounds_as_its_expansion(n, m):
    assert _sugar_nodes(load_bundle("modal_math").theory) == 30
    for bundle in bundle_variants():
        _assert_sugar_means_its_expansion(bundle.theory, Scope(n, m))


def test_definitional_leibniz_past_the_cap_is_identity():
    # LogiKEy texts define Leibniz equality; inlined, it quantifies over
    # (i>prop)>prop, past the denotation cap at (2,2), so only the compile
    # rule's recognition of its shape can answer these goals.
    theory = load_theory(
        "def leq := \\x:i>prop. \\y:i>prop. forallP q:(i>prop)>prop. (q x) -> (q y)\n"
        "goal forallP p:i>prop. leq p p\n"
        "goal forallP p:i>prop. forallP r:i>prop. (leq p r) -> (leq r p)\n")
    scope = Scope(2, 2)
    with pytest.raises(ScopeCapError):
        denotation_size(Fun(Fun(Ind, Prop), Prop), scope)
    for goal in theory.goals:
        assert check_validity_bounded(theory, goal, scope) == ValidUpToScope(scope)

