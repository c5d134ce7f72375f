"""Denotation enumeration and the finite-scope evaluator."""

import functools
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlkit.errors import HomlError, ScopeCapError
from homlkit.logictypes import Fun, Ind, Prop
from homlkit.semantics import (
    KripkeModel,
    Scope,
    _Compiler,
    _EvalCtx,
    denotation_size,
    digits,
    eval_term,
    holds_at,
    model_from_json,
    model_to_json,
    mvalid,
    position_from_json,
    position_to_json,
    table_view,
)
from homlkit.surface import load_theory
from homlkit.terms import (
    BINDERS,
    And,
    App,
    Box,
    Const,
    Diamond,
    ExistsA,
    ExistsP,
    ForallP,
    Iff,
    Implies,
    Lam,
    LeibnizEq,
    Not,
    Or,
    Var,
    children,
    free_vars,
    subterms,
)
from homlkit.theories import BUNDLE_IDS, load_bundle
from homlkit.theory import FRAME_FLAGS
from reference import (
    _candidate_model,
    enumerate_full_models,
    frame_holds,
    random_models,
    relation_from_bits,
    term_dependencies,
)
import reference

TAU = Fun(Ind, Prop)


def total_relation(n):
    """Every world sees every world: n full world masks."""
    return ((1 << n) - 1,) * n


def test_denotation_sizes():
    assert denotation_size(Ind, Scope(1, 3)) == 3
    assert denotation_size(Fun(Ind, Prop), Scope(2, 2)) == 16
    assert denotation_size(Fun(Fun(Ind, Prop), Prop), Scope(1, 2)) == 16


def test_denotation_cap_exceeded_names_type():
    with pytest.raises(ScopeCapError) as err:
        denotation_size(Fun(Fun(Ind, Prop), Prop), Scope(2, 2))
    assert "(i > prop) > prop" in str(err.value)


def test_table_view_is_derived_once_per_type_and_scope():
    # Equal but distinct types and scopes read the one cached view.
    tys, scopes = (Fun(Ind, Prop), Fun(Ind, Prop)), (Scope(2, 2), Scope(2, 2))
    assert tys[0] is not tys[1] and scopes[0] is not scopes[1]
    view = table_view(tys[0], scopes[0])
    assert view == (2, 4, Prop)
    assert table_view(tys[1], scopes[1]) is view
    # A type past the cap stores nothing: it raises on every call, whether
    # its own size (i > prop) > prop or its domain's size is too large.
    over = Fun(Fun(Ind, Prop), Prop)
    for _ in range(2):
        with pytest.raises(ScopeCapError):
            denotation_size(over, Scope(2, 2))
        with pytest.raises(ScopeCapError):
            table_view(Fun(over, Prop), Scope(2, 2))


def enumeration(ty, scope):
    """The values of ty at the scope in the JSON of position_to_json, in
    position order."""
    return [position_to_json(i, ty, scope) for i in range(denotation_size(ty, scope))]


def test_enumerate_prop_single_world():
    assert enumeration(Prop, Scope(1, 1)) == [[False], [True]]


def test_enumerate_property_space_smallest_scope():
    assert enumeration(Fun(Ind, Prop), Scope(1, 1)) == [[[False]], [[True]]]


def product_order(ty, scope):
    """The canonical enumeration spelled out with itertools.product: a
    table's entries vary like the digits of a number, the first entry
    slowest."""
    if ty == Ind:
        return list(range(scope.num_entities))
    if ty == Prop:
        return [list(bits) for bits in itertools.product((False, True), repeat=scope.num_worlds)]
    entries = product_order(ty.codomain, scope)
    return [list(row)
            for row in itertools.product(entries, repeat=denotation_size(ty.domain, scope))]


def test_enumerate_lengths_and_uniqueness():
    scope = Scope(2, 2)
    for ty in (Ind, Prop, Fun(Ind, Prop), Fun(Ind, Ind), Fun(Prop, Prop)):
        values = enumeration(ty, scope)
        assert len(values) == denotation_size(ty, scope)
        assert len({json.dumps(v) for v in values}) == len(values)
        assert values == product_order(ty, scope)
        for i, v in enumerate(values):
            assert position_from_json(v, ty, scope) == i


def test_single_reflexive_world_box_is_identity():
    scope = Scope(1, 1)
    model = KripkeModel(scope, (1,), 1, {"c": 1}, {"c": Prop})
    c = Const("c", Prop)
    assert holds_at(model, Box(c), 0) == holds_at(model, c, 0)
    model2 = KripkeModel(scope, (1,), 1, {"c": 0}, {"c": Prop})
    assert holds_at(model2, Box(c), 0) == holds_at(model2, c, 0)


def test_two_world_footnote_model():
    # phi false at both worlds, psi false at i1 and true at i2, total r:
    # the lifted equivalence holds at i1 although the tables differ.
    scope = Scope(2, 1)
    model = KripkeModel(
        scope, total_relation(2), 0b11,
        {"phi": 0b00, "psi": 0b01},  # a prop's position is its world mask, world 0 first
        {"phi": Prop, "psi": Prop},
    )
    phi, psi = Const("phi", Prop), Const("psi", Prop)
    assert holds_at(model, Iff(phi, psi), 0) is True
    assert eval_term(model, [], phi) != eval_term(model, [], psi)
    # ... and Leibniz equality accordingly fails at i1.
    assert holds_at(model, LeibnizEq(phi, psi), 0) is False


def test_top_bot():
    theory = load_theory("const c : prop\naxiom top\ngoal bot\n")
    scope = Scope(2, 2)
    model = KripkeModel(scope, total_relation(2), 0b11_11, {"c": 0b10}, {"c": Prop})
    top, bot = theory.axioms[0], theory.goals[0]
    for w in range(2):
        assert holds_at(model, top, w) is True
        assert holds_at(model, bot, w) is False


def _barcan_terms():
    src = (
        "const P : i > prop\n"
        "goal (forallP x:i. box (P x)) -> (box (forallP x:i. P x))\n"
        "goal (forallA x. box (P x)) -> (box (forallA x. P x))\n"
    )
    theory = load_theory(src)
    return theory.goals


def test_barcan_possibilist_valid_actualist_not_at_2_2():
    # Oracle: brute force over every model at scope (2,2).
    possibilist, actualist = _barcan_terms()
    scope = Scope(2, 2)
    signature = (("P", TAU),)
    possibilist_valid = True
    actualist_countermodels = 0
    for model in enumerate_full_models(signature, scope):
        if not mvalid(model, possibilist):
            possibilist_valid = False
        if not mvalid(model, actualist):
            actualist_countermodels += 1
    assert possibilist_valid
    assert actualist_countermodels > 0


def test_k_schema_valid_over_enumerated_props():
    src = "const p : prop\nconst q : prop\ngoal (box (p -> q)) -> ((box p) -> (box q))\n"
    goal = load_theory(src).goals[0]
    for n, m in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        signature = (("p", Prop), ("q", Prop))
        for model in enumerate_full_models(signature, Scope(n, m)):
            assert mvalid(model, goal)


def test_necessitation_per_model():
    src = "const p : prop\ngoal p\n"
    goal = load_theory(src).goals[0]
    for model in enumerate_full_models((("p", Prop),), Scope(2, 1)):
        if mvalid(model, goal):
            assert mvalid(model, Box(goal))


def test_refl_gives_t_and_equivalence_gives_s5_pattern():
    src = "const p : prop\ngoal (box p) -> p\ngoal (dia p) -> (box (dia p))\n"
    t_schema, five_schema = load_theory(src).goals
    signature = (("p", Prop),)
    # Neither schema reads the existence table, so one table stands for all
    # of them; every (relation, p) pair is still visited.
    assert not any(term_dependencies(schema)[1] for schema in (t_schema, five_schema))
    for n, m in [(2, 1), (3, 2)]:
        scope = Scope(n, m)
        everyone = tuple(tuple(True for _ in range(n)) for _ in range(m))
        for r_bits in range(2 ** (n * n)):
            relation = relation_from_bits(r_bits, n)
            for p in range(denotation_size(Prop, scope)):
                model = _candidate_model(signature, scope, relation, everyone, (p,))
                if model.satisfies_frame({"refl"}):
                    assert mvalid(model, t_schema)
                if model.satisfies_frame({"refl", "symm", "trans"}):
                    assert mvalid(model, five_schema)


def test_satisfies_frame_agrees_with_the_textbook_conditions():
    # Every relation up to three worlds under every set of flags: the clause
    # templates, read on the model's masks, against the reference's rows.
    flag_sets = [set(c) for k in range(4) for c in itertools.combinations(FRAME_FLAGS, k)]
    for n in (1, 2, 3):
        for r_bits in range(2 ** (n * n)):
            relation = relation_from_bits(r_bits, n)
            model = _candidate_model((), Scope(n, 1), relation, ((True,) * n,), ())
            for flags in flag_sets:
                want = frame_holds(relation, flags)
                assert model.satisfies_frame(flags) == want, (n, r_bits, flags)


@pytest.mark.parametrize("flags", [{"reflexive"}, {"refl", "Trans"}, "refl"])
def test_unknown_frame_flag_is_an_error(flags):
    model = KripkeModel(Scope(1, 1), (1,), 1)
    with pytest.raises(HomlError, match="unknown frame flags"):
        model.satisfies_frame(flags)
    assert model.satisfies_frame({"refl"})


def test_leibniz_on_individuals_is_index_identity():
    theory = load_theory(
        "const a : i\nconst b : i\n"
        "def leq := \\x:i. \\y:i. forallP q:i>prop. (q x) -> (q y)\n"
        "goal leq a b\ngoal a == b\n")
    defined, native = theory.goals
    assert native == LeibnizEq(Const("a", Ind), Const("b", Ind))
    signature = (("a", Ind), ("b", Ind))
    for model in enumerate_full_models(signature, Scope(2, 2)):
        same = model.positions["a"] == model.positions["b"]
        assert mvalid(model, defined) == same
        assert mvalid(model, native) == same


def test_eval_deterministic():
    theory = load_theory("const P : i > prop\ngoal forallP x:i. (P x) | (not (P x))\n")
    goal = theory.goals[0]
    scope = Scope(2, 2)
    model = KripkeModel(
        scope, total_relation(2), 0b10_01,  # entity 0 exists at world 0, entity 1 at world 1
        {"P": 7}, {"P": TAU},
    )
    first = eval_term(model, [], goal)
    again = eval_term(model, [], goal)
    assert first == again


def test_eval_term_with_environment():
    scope = Scope(2, 2)
    model = KripkeModel(scope, total_relation(2), 0b11_11)
    applied = App(Var(0, TAU, "f"), Var(1, Ind, "x"))
    env = [5, 1]  # f at position 5 of TAU, x entity 1
    expected = digits(5, 2, 4)[1]  # f's entry for entity 1, a prop position
    assert eval_term(model, env, applied) == expected


def test_exists_actualist_empty_domain_vacuous():
    # existsAt all-false: actualist exists is false, actualist forall vacuous.
    scope = Scope(1, 2)
    model = KripkeModel(scope, (1,), 0b0_0, {"A": 3}, {"A": TAU})
    assert holds_at(model, ExistsA(Ind, App(Const("A", TAU), Var(0, Ind))), 0) is False
    assert eval_term(model, [], ForallP(Ind, Implies(App(Const("existsAt", TAU), Var(0, Ind)),
                                                     App(Const("A", TAU), Var(0, Ind))))) == 1


def test_model_json_round_trip():
    scope = Scope(2, 2)
    model = KripkeModel(
        scope, (0b10, 0b11), 0b10_01,
        {"P": 9, "c": 1},
        {"P": TAU, "c": Ind},
    )
    text = json.dumps(model_to_json(model), sort_keys=True, separators=(",", ":"))
    back = model_from_json(json.loads(text))
    assert back == model
    assert json.dumps(model_to_json(back), sort_keys=True, separators=(",", ":")) == text


# The value codec's types; (i>prop)>prop is past the cap at (2,2).
ROUND_TRIP_TYPES = (Prop, Ind, TAU, Fun(Prop, Prop), Fun(Ind, Ind), Fun(TAU, Prop))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_positions_round_trip_through_json(data):
    # A model of random positions at a random scope up to (2,2): each
    # position comes back from its JSON, and the model from its document.
    scope = Scope(data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2)))
    n, m = scope.num_worlds, scope.num_entities
    types = {f"c{k}": ty for k, ty in enumerate(ROUND_TRIP_TYPES) if _within_cap([ty], scope)}
    positions = {name: data.draw(st.integers(0, denotation_size(ty, scope) - 1))
                 for name, ty in types.items()}
    acc = tuple(data.draw(st.integers(0, 2 ** n - 1)) for _ in range(n))
    exists = data.draw(st.integers(0, 2 ** (n * m) - 1))
    model = KripkeModel(scope, acc, exists, positions, types)
    for name, i in positions.items():
        assert position_from_json(position_to_json(i, types[name], scope), types[name], scope) == i
    back = model_from_json(json.loads(
        json.dumps(model_to_json(model), sort_keys=True, separators=(",", ":"))))
    assert back.positions == positions
    assert back == model
    assert model_to_json(back) == model_to_json(model)


@pytest.mark.parametrize("value,ty", [
    ([True], Prop),               # one world bit at two worlds
    (2, Ind),                     # no entity 2 at two entities
    (-1, Ind),
    ([0, True], Prop),            # an entity where a world bit is due
    (True, Prop),                 # a world bit where a table is due
    ([[True, False]] * 3, TAU),   # three entries for two entities
])
def test_position_from_json_rejects_ill_typed_value(value, ty):
    scope = Scope(2, 2)
    with pytest.raises(HomlError):
        position_from_json(value, ty, scope)
    assert position_from_json(position_to_json(1, ty, scope), ty, scope) == 1


HAND_BUILT = {"scope": Scope(2, 2), "accessibility": (0b11, 0b11),
              "exists_at": 0b11_11, "positions": {"c": 3},
              "constant_types": {"c": TAU}}


@pytest.mark.parametrize("field,value,message", [
    # The old row-shape cases, now counts: three masks and one for two
    # worlds; one mask per entity and rows of bits where existsAt's position
    # is due.
    ("accessibility", (0b11,) * 3, "accessibility relation has wrong shape"),
    ("accessibility", (0b11,), "accessibility relation has wrong shape"),
    ("exists_at", (0b11, 0b11), "existence table has wrong shape"),
    ("exists_at", ((True, True),) * 2, "existence table has wrong shape"),
    ("positions", {"c": 3, "d": 0}, "constant 'd' has no declared type"),
    ("positions", {"c": 16}, "constant 'c' has position 16,"),  # TAU has 16 values
    ("positions", {"c": -1}, "constant 'c' has position -1,"),
    ("positions", {"c": True}, "constant 'c' has position True,"),
    ("positions", {"c": 3.0}, "constant 'c' has position 3.0,"),
    # Rows of world bits, one int, or a list where a tuple of masks is due.
    ("accessibility", ((True, True),) * 2, "is not a tuple of 2 masks of 0..3"),
    ("accessibility", 0b1111, "is not a tuple of 2 masks of 0..3"),
    ("accessibility", [0b11, 0b11], "is not a tuple of 2 masks of 0..3"),
    # A mask out of range would see a world outside the frame.
    ("accessibility", (0b100, 0b01), "is not a tuple of 2 masks of 0..3"),
    ("accessibility", (-1, 0b11), "is not a tuple of 2 masks of 0..3"),
    ("accessibility", (True, 0b11), "is not a tuple of 2 masks of 0..3"),
    ("accessibility", (1.0, 0b11), "is not a tuple of 2 masks of 0..3"),
    # existsAt has 16 positions at (2,2).
    ("exists_at", 16, "existence table has wrong shape: 16 "),
    ("exists_at", -1, "existence table has wrong shape: -1 "),
    ("exists_at", True, "existence table has wrong shape: True "),
])
def test_hand_built_model_is_checked_when_first_evaluated(field, value, message):
    # The constructor checks nothing; every evaluation, the frame check and
    # the JSON writer check the whole model, also constants the formula does
    # not mention.
    model = KripkeModel(**{**HAND_BUILT, field: value})
    top = ExistsP(Prop, Var(0, Prop))
    for evaluate in (mvalid, lambda m, f: eval_term(m, [], f), lambda m, f: holds_at(m, f, 0),
                     lambda m, f: m.satisfies_frame(FRAME_FLAGS), lambda m, f: model_to_json(m)):
        with pytest.raises(HomlError, match=message):
            evaluate(model, top)
    good = KripkeModel(**HAND_BUILT)
    assert mvalid(good, top) and good.satisfies_frame(FRAME_FLAGS) and model_to_json(good)


def test_existence_constant_in_a_document_is_rejected_when_read():
    # A document's existence table is its exists_at; a constant named
    # existsAt beside it is refused, not shadowed by exists_at.
    doc = model_to_json(KripkeModel(Scope(1, 2), (1,), 0b01))
    assert doc["exists_at"] == [[False], [True]]
    doc["constants"]["existsAt"] = {"type": "i > prop", "value": [[False], [False]]}
    model = model_from_json(doc)
    top = ExistsP(Prop, Var(0, Prop))
    for evaluate in (mvalid, lambda m, f: model_to_json(m)):
        with pytest.raises(HomlError, match="'existsAt' is reserved"):
            evaluate(model, top)


def test_model_keeps_its_own_dicts():
    # Changing the caller's dicts, before or after the first evaluation,
    # changes neither the model nor what it answers.
    p = Const("p", Prop)
    for evaluate_first in (False, True):
        positions, types = {"p": 3}, {"p": Prop}
        model = KripkeModel(Scope(2, 1), total_relation(2), 0b11, positions, types)
        if evaluate_first:
            assert mvalid(model, p)
        positions["p"], types["p"] = 99, Ind
        assert model.positions == {"p": 3} and model.constant_types == {"p": Prop}
        assert mvalid(model, p)


def test_position_past_the_denotation_cap_is_checked_against_its_table():
    # (i > prop) > prop has 4^16 values at (2,2), past the cap, which bounds
    # only what is enumerated: goedel's models hold such a value.
    ty, scope = Fun(TAU, Prop), Scope(2, 2)
    applied = App(Const("P", ty), Const("existsAt", TAU))
    frame = (scope, total_relation(2), 0b11_11)
    model = KripkeModel(*frame, {"P": 4 ** 16 - 1}, {"P": ty})
    assert eval_term(model, [], applied) == 0b11  # every entry of P is true everywhere
    with pytest.raises(HomlError, match="constant 'P' has position 4294967296,"):
        eval_term(KripkeModel(*frame, {"P": 4 ** 16}, {"P": ty}), [], applied)


@pytest.mark.parametrize("env", [[4], [-1], [True], [1.0], [4, 0]])
def test_eval_term_rejects_env_position_outside_its_type(env):
    # Var(0) is a prop at two worlds, positions 0..3; a slot the term does
    # not read is not checked.
    model = KripkeModel(Scope(2, 1), total_relation(2), 0b11)
    with pytest.raises(HomlError, match="de Bruijn index 0 has position"):
        eval_term(model, env, Not(Var(0, Prop)))
    assert eval_term(model, [0b01, 4], Not(Var(0, Prop))) == 0b10


@pytest.mark.parametrize("value,ty", [
    ([True], "prop"), (2, "i"), ([[True, True]] * 3, "i > prop"),
    (1.7, "i"), (True, "i"), (-1, "i"), ("0", "i"),      # not an entity of 0..1
    (["no", True], "prop"), ([1, 0], "prop"), ([None, False], "prop"),  # not booleans
    ({"0": True, "1": True}, "prop"), ([[True, True], [True, 1]], "i > prop"),
    # A field of the document rather than a constant's type: the value replaces it.
    ([[1, "x"], [0, 0]], "exists_at"), ([[True, True]], "exists_at"),
    ([[True], [True]], "exists_at"), ("TT", "exists_at"),
    (2.0, "num_worlds"), (True, "num_worlds"), ("2", "num_entities"), (0, "num_entities"),
])
def test_model_from_json_rejects_ill_typed_value(value, ty):
    data = model_to_json(KripkeModel(Scope(2, 2), total_relation(2), 0b11_11))
    if ty in data:
        data[ty] = value
    else:
        data["constants"] = {"c": {"type": ty, "value": value}}
    with pytest.raises(HomlError):
        model_from_json(data)


@pytest.mark.parametrize("pair", [
    [-1, 0], [0, -1],             # negative indices would wrap to world n-1
    [2, 0], [0, 2],               # no world 2 at two worlds
    [0], [0, 1, 1], 0, "01",      # not a pair
    [0.0, 1], [True, 0], [None, 0],
])
def test_model_from_json_rejects_bad_accessibility_pair(pair):
    data = model_to_json(KripkeModel(Scope(2, 2), total_relation(2), 0b11_11))
    data["accessibility"] = [[0, 1], pair]
    with pytest.raises(HomlError, match="accessibility pair"):
        model_from_json(data)
    data["accessibility"] = [[0, 1], [1, 1]]
    assert model_from_json(data).accessibility == (0b01, 0b01)


# A document of the wrong structure, each built from a valid one.
WRONG_STRUCTURE = {
    "accessibility-not-a-list": lambda d: {**d, "accessibility": 5},
    "constants-a-list": lambda d: {**d, "constants": []},
    "no-exists_at": lambda d: {k: v for k, v in d.items() if k != "exists_at"},
    "no-num_worlds": lambda d: {k: v for k, v in d.items() if k != "num_worlds"},
    "constant-without-type": lambda d: {**d, "constants": {"c": {"value": 1}}},
    "constant-type-not-text": lambda d: {**d, "constants": {"c": {"type": 5, "value": 1}}},
    "constant-not-an-object": lambda d: {**d, "constants": {"c": 3}},
    "top-level-list": lambda d: [d],
}


@pytest.mark.parametrize("case", WRONG_STRUCTURE)
def test_model_from_json_rejects_wrong_structure(case):
    data = model_to_json(KripkeModel(Scope(2, 2), total_relation(2), 0b11_11,
                                     {"c": 1}, {"c": Ind}))
    assert model_from_json(data).positions == {"c": 1}
    with pytest.raises(HomlError):
        model_from_json(WRONG_STRUCTURE[case](data))


@pytest.mark.parametrize("size", [(2.5, 1), (1, 2.0), ("2", 1), (True, True), (1, False)])
def test_scope_sizes_are_ints(size):
    with pytest.raises(HomlError, match="is not two ints"):
        Scope(*size)


@pytest.mark.parametrize("connective,left", [
    (And, ForallP(Prop, Var(0, Prop))),   # false everywhere
    (Or, ExistsP(Prop, Var(0, Prop))),    # true everywhere
    (Implies, ForallP(Prop, Var(0, Prop))),
])
def test_decided_left_side_still_reports_uninterpreted_constant(connective, left):
    # The left side alone decides the mask, so the right side is never
    # evaluated; the constant it mentions must still be interpreted.
    from homlkit.errors import HomlError

    model = KripkeModel(Scope(2, 1), total_relation(2), 0b11)
    formula = connective(left, Const("q", Prop))
    for evaluate in (mvalid, lambda m, f: eval_term(m, [], f), lambda m, f: holds_at(m, f, 0)):
        with pytest.raises(HomlError, match="does not interpret constant 'q'"):
            evaluate(model, formula)


def test_eval_error_cases():
    import pytest
    from homlkit.errors import HomlError

    with pytest.raises(HomlError):
        Scope(0, 1)
    scope = Scope(1, 1)
    model = KripkeModel(scope, (1,), 1)
    with pytest.raises(HomlError):
        eval_term(model, [], Const("missing", Prop))
    with pytest.raises(HomlError):
        eval_term(model, [], Var(0, Prop, "free"))


@pytest.mark.parametrize("formula,index", [
    (Var(0, Prop), 0),
    (ForallP(Prop, And(Var(0, Prop), Var(2, Prop))), 1),
])
def test_open_formula_is_an_error_naming_its_free_index(formula, index):
    # A formula evaluated without an env must be closed; an open one is a
    # HomlError that names its least free index, not an IndexError.
    model = KripkeModel(Scope(1, 1), (1,), 1)
    for evaluate in (mvalid, lambda m, f: holds_at(m, f, 0)):
        with pytest.raises(HomlError, match=f"de Bruijn index {index} is free"):
            evaluate(model, formula)
    # The same term under an env that closes it evaluates.
    assert eval_term(model, [0] * (index + 1), formula) in (0, 1)


def test_diamond_dual_of_box():
    scope = Scope(2, 1)
    for model in enumerate_full_models((("p", Prop),), scope):
        p = Const("p", Prop)
        assert eval_term(model, [], Diamond(p)) == eval_term(model, [], Not(Box(Not(p))))


def test_holds_at_rejects_worlds_outside_scope():
    from homlkit.errors import HomlError

    scope = Scope(2, 1)
    p = Const("p", Prop)
    model = KripkeModel(scope, total_relation(2), 0b11, {"p": 0b11}, {"p": Prop})
    assert holds_at(model, p, 0) and holds_at(model, p, 1)
    for world in (-1, 2):
        with pytest.raises(HomlError, match="outside 0..1"):
            holds_at(model, p, world)


# Sugar nodes, kept by elaboration, and Leibniz equality written as a
# definition, which inlines to the shape that leibniz_shape recognises.
SUGAR_SOURCE = (
    "const P : i > prop\nconst c : i\nconst d : i\nconst p : prop\n"
    "def leq := \\x:i>prop. \\y:i>prop. forallP q:(i>prop)>prop. (q x) -> (q y)\n"
    "goal forallA x. box (P x)\ngoal existsA x. (P x) & (dia p)\n"
    "goal c == d\ngoal (P c) == p\ngoal (forallA x. P x) -> (existsA y. P y)\n"
    "goal leq P (\\x:i. (P x) & p)\n"
)


def test_rule_table_agrees_with_reference():
    # The library's evaluator (rule table, concrete carrier) against the
    # reference ladder in tests/reference.py: every closed prop subterm of
    # every bundle's axioms and goals, and of hand-built actualist and
    # Leibniz sugar, on random models.
    import random

    rng = random.Random(0)
    theories = [(load_bundle(b).theory, scope)
                for b in BUNDLE_IDS for scope in (Scope(2, 1), Scope(1, 2))]
    theories.append((load_theory(SUGAR_SOURCE), Scope(2, 2)))
    compared = 0
    for theory, scope in theories:
        formulas = {t for f in theory.axioms + theory.goals for t in subterms(f)
                    if t.ty == Prop and not free_vars(t)}
        for model in random_models(theory.signature, scope, rng, 8):
            for formula in formulas:
                assert eval_term(model, [], formula) == reference.eval_term(model, [], formula), \
                    (theory.name, formula)
                compared += 1
    assert compared > 1000


# Random scopes up to (3,2) and (2,3). A formula is compared when every type
# it quantifies over is within the denotation cap and the reference
# evaluator visits at most VISIT_BUDGET nodes for it.
RANDOM_SCOPES = [Scope(n, m) for n in (1, 2, 3) for m in (1, 2, 3) if n * m <= 6]
VISIT_BUDGET = 100_000


def _visits(term, scope):
    """An upper bound on the nodes the reference evaluator visits: a binder
    runs its body once per value of its variable."""
    inner = sum(_visits(k, scope) for k in children(term))
    if type(term) in BINDERS:
        inner *= denotation_size(term.var_type, scope)
    return 1 + inner


def _within_cap(types, scope):
    try:
        for ty in types:
            denotation_size(ty, scope)
    except ScopeCapError:
        return False
    return True


@functools.lru_cache(maxsize=None)
def _comparable_cases():
    """(theory, scope, formulas) for every theory whose constants fit the
    scope's cap, with its closed prop subterms within the visit budget."""
    theories = [load_bundle(b).theory for b in BUNDLE_IDS]
    theories.append(load_theory(SUGAR_SOURCE))
    cases = []
    for theory in theories:
        closed = list(dict.fromkeys(
            t for f in theory.axioms + theory.goals for t in subterms(f)
            if t.ty == Prop and not free_vars(t)))
        for scope in RANDOM_SCOPES:
            if not _within_cap([ty for _, ty in theory.signature], scope):
                continue
            formulas = tuple(
                f for f in closed
                if _within_cap([t.var_type for t in subterms(f) if type(t) in BINDERS], scope)
                and _visits(f, scope) <= VISIT_BUDGET)
            if formulas:
                cases.append((theory, scope, formulas))
    return cases


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rule_table_agrees_with_reference_at_random_scopes(data):
    # The compiled evaluator (short-circuit, binder memo, compile-time
    # sizes and Leibniz shapes) against the reference ladder, at a random
    # scope on a random model.
    theory, scope, formulas = data.draw(st.sampled_from(_comparable_cases()))
    rng = data.draw(st.randoms(use_true_random=False))
    model = next(random_models(theory.signature, scope, rng, 1))
    for formula in formulas:
        assert eval_term(model, [], formula) == reference.eval_term(model, [], formula), \
            (theory.name, scope, formula)


def test_threads_share_compiled_terms_and_models():
    # Threads compile the same fresh terms and evaluate them on the same
    # models at once; every call must give the reference's mask.
    import random
    import sys
    import threading

    theory = load_theory(SUGAR_SOURCE)
    scope = Scope(2, 2)
    formulas = list(theory.goals)
    models = list(random_models(theory.signature, scope, random.Random(1), 6))
    expected = [[reference.eval_term(m, [], f) for f in formulas] for m in models]
    barrier = threading.Barrier(4)
    wrong = []

    def work():
        try:
            barrier.wait(timeout=10)
            for _ in range(300):
                got = [[eval_term(m, [], f) for f in formulas] for m in models]
                if got != expected:
                    wrong.append(got)
        except Exception as exc:  # a thread's exception never reaches the test
            wrong.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


# The binder memo stores a binder's value only where its key can repeat: a
# binder whose free slots are the whole env runs unmemoised. R x y over
# individuals, at a scope where each binder has two values to range over.
REL = Const("R", Fun(Ind, Fun(Ind, Prop)))


def _rel(x: int, y: int):
    return App(App(REL, Var(x, Ind)), Var(y, Ind))


def _memo_after(model, formula):
    """The formula's mask in one concrete call, and the call's binder memo."""
    ctx = _EvalCtx(model)
    mask = _Compiler(model.scope).code(formula)(ctx, [])
    return mask, ctx.memo


def _rel_models(count, seed=3):
    import random

    return list(random_models((("R", REL.const_type),), Scope(2, 2), random.Random(seed), count))


def test_binder_over_every_enclosing_variable_stores_nothing():
    # forallP x. existsP y. R x y: the inner binder's one free slot is the
    # whole env, so only the closed outer binder leaves an entry.
    formula = ForallP(Ind, ExistsP(Ind, _rel(1, 0)))
    for model in _rel_models(6):
        mask, memo = _memo_after(model, formula)
        assert mask == reference.eval_term(model, [], formula)
        assert len(memo) == 1 and not any(isinstance(key, tuple) for key in memo)


def test_binder_that_skips_an_enclosing_variable_is_memoised():
    # forallP x. forallP y. existsP z. R x z: the inner binder skips y, so
    # its value is stored per x; the middle binder mentions only x, the
    # whole env there, and stores nothing.
    formula = ForallP(Ind, ForallP(Ind, ExistsP(Ind, _rel(2, 0))))
    for model in _rel_models(6):
        mask, memo = _memo_after(model, formula)
        assert mask == reference.eval_term(model, [], formula)
        keyed = [key for key in memo if isinstance(key, tuple)]
        # Keyed entries come from one binder only, the inner one.
        assert keyed and len({run for run, _ in keyed}) == 1
        assert len(memo) == 1 + len(keyed)


def test_one_binder_instance_at_two_depths_gives_the_reference_mask():
    # One instance of existsP y. R x y sits under one binder (its free slot
    # is the whole env, unmemoised) and under two (memoised on the inner
    # one); a compiled closure serves both, in either order.
    inner = ExistsP(Ind, _rel(1, 0))
    shallow, deep = ForallP(Ind, inner), ForallP(Ind, ForallP(Ind, inner))
    formulas = [Iff(deep, shallow), Iff(shallow, deep), Or(Not(shallow), deep),
                And(deep, Diamond(shallow))]
    for model in _rel_models(8, seed=5):
        for formula in formulas:
            assert _memo_after(model, formula)[0] == reference.eval_term(model, [], formula)
            assert mvalid(model, formula) == reference.mvalid(model, formula)


# Applications and equalities with a bare bound variable on either side: in
# model-free nodes (read in place from the env) and in model-dependent ones
# (handed over by the carrier's ``bound``). Signature: P : i > prop, c : i,
# p : prop.
PRED, IND_C, PROP_P = Const("P", TAU), Const("c", Ind), Const("p", Prop)
IDENTITY = Lam(Ind, Var(0, Ind))
BOUND_OPERAND_FORMULAS = [
    ForallP(Ind, App(PRED, Var(0, Ind))),                            # Const Var
    ExistsP(TAU, And(App(Var(0, TAU), IND_C), PROP_P)),              # Var Const
    ExistsP(Ind, LeibnizEq(Var(0, Ind), IND_C)),                     # Var == Const
    ForallP(Ind, Implies(LeibnizEq(IND_C, Var(0, Ind)), App(PRED, Var(0, Ind)))),
    Or(PROP_P, ForallP(Ind, ExistsP(TAU, App(Var(0, TAU), Var(1, Ind))))),   # free: Var Var
    And(PROP_P, ForallP(Ind, ExistsP(Ind, LeibnizEq(Var(0, Ind), Var(1, Ind))))),
    Iff(PROP_P, ForallP(TAU, ForallP(Ind, Iff(App(Var(1, TAU), App(IDENTITY, Var(0, Ind))),
                                              App(Var(1, TAU), Var(0, Ind)))))),
    Iff(PROP_P, ForallP(Ind, And(LeibnizEq(App(IDENTITY, Var(0, Ind)), Var(0, Ind)),
                                 LeibnizEq(Var(0, Ind), App(IDENTITY, Var(0, Ind)))))),
    ForallP(Ind, Iff(App(PRED, Var(0, Ind)),
                     ExistsP(Ind, LeibnizEq(App(IDENTITY, Var(1, Ind)), Var(0, Ind))))),
    ForallP(TAU, Implies(ForallP(Ind, App(Var(1, TAU), Var(0, Ind))), App(Var(0, TAU), IND_C))),
    # Leibniz's expansion, compiled as an equality of two bound variables.
    ForallP(Ind, ForallP(Ind, Implies(
        ForallP(TAU, Implies(App(Var(0, TAU), Var(2, Ind)), App(Var(0, TAU), Var(1, Ind)))),
        Iff(App(PRED, Var(1, Ind)), App(PRED, Var(0, Ind)))))),
]
BOUND_OPERAND_SIGNATURE = (("P", TAU), ("c", Ind), ("p", Prop))


@pytest.mark.parametrize("scope", [Scope(2, 1), Scope(1, 2), Scope(2, 2)])
def test_bound_operands_agree_with_the_reference(scope):
    import random

    models = list(random_models(BOUND_OPERAND_SIGNATURE, scope, random.Random(11), 12))
    for formula in BOUND_OPERAND_FORMULAS:
        for model in models:
            assert eval_term(model, [], formula) == reference.eval_term(model, [], formula), formula


@pytest.mark.parametrize("scope", [Scope(2, 1), Scope(1, 2)])
def test_bound_operands_ground_to_the_reference_models(scope):
    # The symbolic carrier: each formula as the one axiom of a theory has
    # exactly the models that the reference evaluator accepts.
    from homlkit.grounder import enumerate_models
    from homlkit.theory import Theory

    def doc(model):
        return json.dumps(model_to_json(model), sort_keys=True)

    candidates = list(enumerate_full_models(BOUND_OPERAND_SIGNATURE, scope))
    for formula in BOUND_OPERAND_FORMULAS:
        theory = Theory(name="bound", signature=BOUND_OPERAND_SIGNATURE, axioms=(formula,))
        oracle = {doc(m) for m in candidates if reference.mvalid(m, formula)}
        assert {doc(m) for m in enumerate_models(theory, scope)} == oracle, formula


def test_application_past_the_listed_place_values_agrees_with_the_reference():
    # Q : (i > prop) > prop at (2,5) is a table of 1,024 entries in base 4,
    # too long for its place values to be listed: each is computed when
    # read.
    import random

    rng = random.Random(4)
    scope = Scope(2, 5)
    family = Fun(TAU, Prop)
    types = {"Q": family, "r": TAU}
    for _ in range(4):
        positions = {"Q": rng.randrange(4 ** 1024), "r": rng.randrange(1024)}
        model = KripkeModel(scope, total_relation(2), 0, positions, types)
        for formula in (App(Const("Q", family), Const("r", TAU)),
                        Not(App(Const("Q", family), Lam(Ind, Not(App(Const("r", TAU), Var(0, Ind))))))):
            assert eval_term(model, [], formula) == reference.eval_term(model, [], formula)


# A prop-typed model-free formula runs at one world when it is world-invariant
# (``_world_invariant``). Each formula here breaks one side condition, so its
# truth differs between worlds, and two worlds refute what one cannot: ``==``
# over prop, and a variable whose type has prop in its domain.
NOT_WORLD_INVARIANT = [
    "forallP p:prop. forallP q:prop. (p <-> q) -> (p == q)",
    "forallP Q:prop>prop. forallP p:prop. forallP q:prop. (p <-> q) -> ((Q p) <-> (Q q))",
]


@pytest.mark.parametrize("text", NOT_WORLD_INVARIANT)
def test_formula_that_is_not_world_invariant_keeps_its_countermodel(text):
    from homlkit.grounder import check_validity_bounded
    from homlkit.semantics import Countermodel, ValidUpToScope

    theory = load_theory(f"goal {text}\n")
    goal = theory.goals[0]
    assert check_validity_bounded(theory, goal, Scope(1, 1)) == ValidUpToScope(Scope(1, 1))
    assert type(check_validity_bounded(theory, goal, Scope(2, 1))) is Countermodel
    assert mvalid(KripkeModel(Scope(1, 1), (1,), 0), goal)
    assert not mvalid(KripkeModel(Scope(2, 1), total_relation(2), 0), goal)
    # Opened at its outermost variable, p or Q, the formula is evaluated
    # under an env that gives it each of its values.
    opened = goal.body
    ty = goal.var_type
    for scope in (Scope(1, 1), Scope(2, 1)):
        model = KripkeModel(scope, total_relation(scope.num_worlds), 0)
        for value in range(denotation_size(ty, scope)):
            assert eval_term(model, [value], opened) == reference.eval_term(model, [value], opened)


def test_formula_with_a_free_prop_variable_is_evaluated_at_every_world():
    # existsP q:prop. p & q is p itself, so a free p of type prop makes the
    # value differ between worlds, though every node acts on each world
    # alone.
    opened = ExistsP(Prop, And(Var(1, Prop), Var(0, Prop)))
    model = KripkeModel(Scope(2, 1), total_relation(2), 0)
    for p in range(4):
        assert eval_term(model, [p], opened) == p == reference.eval_term(model, [p], opened)


def test_world_invariant_formula_past_the_cap_still_raises():
    # r : i>i>prop has 2^24 values at (6,2), past the cap, and 16 at one
    # world: the formula is compiled at its real scope before it runs at one.
    from homlkit.grounder import check_validity_bounded
    from homlkit.semantics import _world_invariant

    theory = load_theory("goal forallP r:i>i>prop. forallP x:i. (r x x) -> (r x x)\n")
    goal = theory.goals[0]
    assert _world_invariant(goal)
    with pytest.raises(ScopeCapError):
        check_validity_bounded(theory, goal, Scope(6, 2))
    with pytest.raises(ScopeCapError):
        mvalid(KripkeModel(Scope(6, 2), total_relation(6), 0), goal)
    assert mvalid(KripkeModel(Scope(1, 2), (1,), 0), goal)
