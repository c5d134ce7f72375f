"""Grounding, solving, decoding: oracle equivalence against exhaustive eval."""

import dataclasses
import itertools
import random

import pytest

from homlkit.errors import BudgetExceededError, GroundingError, HomlError
from homlkit.grounder import (
    _FALSE,
    _TRUE,
    GroundProblem,
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
)
from homlkit.solver import SAT, solve_cnf
from homlkit.surface import elaborate, load_theory, parse, typecheck
from homlkit.theories import load_bundle
from reference import (
    brute_force_find_model,
    count_full_models,
    enumerate_full_models,
    holds_at,
    mvalid,
)


CODEC_TYPES = (Prop, Ind, Fun(Ind, Prop), Fun(Prop, Prop), Fun(Ind, Ind),
               Fun(Fun(Ind, Prop), Prop))


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (1, 3)])
def test_lifted_constants_round_trip(n, m):
    """lift, concrete_index and sym_eq agree on every position of every type
    (at most 2^8 of them at these scopes)."""
    g = _Grounding(load_theory(""), Scope(n, m))
    for ty in CODEC_TYPES:
        size = g.size(ty)
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


def _leaves(cells):
    """A constant's cells (or lifted formula ids) in the order of its bits."""
    return [cells] if isinstance(cells, int) else [v for sub in cells for v in _leaves(sub)]


@pytest.mark.parametrize("n,m", [(1, 2), (2, 1)])
def test_decode_reads_each_constants_position_from_its_cells(n, m):
    # Bits set as lift lays out position i decode to position i, and the
    # decoded model equals the model built by hand from those positions.
    scope = Scope(n, m)
    problem = ground(load_theory("".join(f"const c{k} : {ty}\n"
                                         for k, ty in enumerate(CODEC_TYPES))), scope)
    g = _Grounding(load_theory(""), scope)
    rng = random.Random(n * 10 + m)
    for _ in range(50):
        bits = [rng.randrange(2) for _ in range(problem.num_vars)]
        want = {name: rng.randrange(g.size(ty)) for name, ty in problem.signature}
        for name, ty in problem.signature:
            for v, cell in zip(_leaves(problem.const_cells[name]), _leaves(g.lift(want[name], ty))):
                bits[v - 1] = int(cell == _TRUE)
        model = problem.decode(bits)
        assert model.positions == want
        assert model.accessibility == tuple(tuple(bits[v - 1] == 1 for v in row)
                                            for row in problem.r_vars)
        by_hand = KripkeModel(scope, model.accessibility, model.exists_at, want,
                              dict(problem.signature))
        assert by_hand == model and by_hand.positions == want


def test_decode_checks_selector_bits():
    # The solver's model passes; an individual's selector row with no bit
    # or two bits set, at the top level or inside a table, does not.
    problem = ground(load_theory("const c : i\nconst f : i > i\n"), Scope(1, 2))
    _, bits, _ = solve_cnf(problem.num_vars, problem.clauses)
    assert problem.decode(bits) is not None
    for cells in (problem.const_cells["c"], problem.const_cells["f"][1]):
        for value in (0, 1):
            bad = list(bits)
            for v in cells:
                bad[v - 1] = value
            with pytest.raises(HomlError, match="exactly-one"):
                problem.decode(bad)


def test_ground_problem_fields_reject_mutation():
    problem = ground(load_theory("const c : i\nconst p : prop\n"), Scope(2, 2))
    for container, key in ((problem.meanings, 1), (problem.const_cells, "c"),
                           (problem.const_cells["p"], 0), (problem.decision_vars, 0),
                           (problem.r_vars, 0), (problem.r_vars[0], 0), (problem.ex_vars[1], 0)):
        with pytest.raises(TypeError):
            container[key] = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        problem.meanings = {}
    # Decision variables given as a list enumerate the same models.
    listed = dataclasses.replace(problem, decision_vars=list(problem.decision_vars))
    assert list(iterate_models(listed, limit=5)) == list(iterate_models(problem, limit=5))


def test_contradictory_axiom_unsat_everywhere():
    theory = load_theory("const c : prop\naxiom c & not c\n")
    for n, m in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        assert find_model(theory, Scope(n, m)) is None


def test_false_axiom_grounds_to_empty_clause():
    theory = load_theory("axiom bot\n")
    problem = ground(theory, Scope(2, 1))
    assert [] in problem.clauses
    assert find_model(theory, Scope(2, 1)) is None


def test_refl_flag_forces_reflexive_edges():
    theory = load_theory("frame refl\nconst c : prop\n")
    problem = ground(theory, Scope(2, 1))
    units = {tuple(c) for c in problem.clauses if len(c) == 1}
    assert (problem.r_vars[0][0],) in units
    assert (problem.r_vars[1][1],) in units


def test_solve_direct_problems():
    base = dict(scope=Scope(1, 1), meanings={}, decision_vars=[1],
                r_vars=[[1]], ex_vars=[[1]], const_cells={}, signature=())
    unsat = GroundProblem(num_vars=1, clauses=[[1], [-1]], **base)
    assert solve(unsat) is None
    # r(w0,w0) is variable 1 and existsAt(e0,w0) variable 2.
    sat = GroundProblem(num_vars=2, clauses=[[1, 2]],
                        **dict(base, decision_vars=[1, 2], ex_vars=[[2]]))
    model = solve(sat)
    assert model.accessibility[0][0] or model.exists_at[0][0]
    # The least model sets variable 1 false.
    assert (model.accessibility, model.exists_at) == (((False,),), ((True,),))


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
    assert model.exists_at[entity][0] is True


def test_order_limit_rejected():
    theory = load_theory("const F : ((i > prop) > prop) > prop\n")
    with pytest.raises(GroundingError) as err:
        ground(theory, Scope(1, 1))
    assert "beyond order" in str(err.value)


def test_export_dimacs_exact_bytes():
    base = dict(scope=Scope(1, 1), meanings={}, decision_vars=[1],
                r_vars=[[1]], ex_vars=[[1]], const_cells={}, signature=())
    one = GroundProblem(num_vars=1, clauses=[[1]], **base)
    assert export_dimacs(one) == b"p cnf 1 1\n1 0\n"
    empty = GroundProblem(num_vars=0, clauses=[], **dict(base, decision_vars=[]))
    assert export_dimacs(empty) == b"p cnf 0 0\n"


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


@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (2, 3)])
def test_sugar_grounds_as_its_elaboration(n, m):
    """Actualist quantifiers and Leibniz equality, left in the terms, ground
    to the same DIMACS bytes as the terms elaborate expands them to."""
    checked = typecheck(parse(SUGAR_SOURCE))
    core = elaborate(checked)
    scope = Scope(n, m)
    goals = [(None, None)] + list(zip(checked.goals, core.goals))
    for sugar_goal, core_goal in goals:
        assert export_dimacs(ground(checked, scope, sugar_goal)) == \
            export_dimacs(ground(core, scope, core_goal)), sugar_goal
