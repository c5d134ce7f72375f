"""The contract of the frozen value classes: terms, surface nodes, verdicts
and analysis results. Each compares equal only to its own class, leaves
``hint`` out of ``==`` and ``hash``, hashes as the tuple of its compared
fields, refuses assignment and deletion, keeps its repr, and builds from
positional or keyword arguments."""

import copy
import dataclasses
import pickle

import pytest

from homlkit.analysis import CountResult, FilterReport
from homlkit.logictypes import Fun, Ind, Prop
from homlkit.semantics import (
    Countermodel,
    Indeterminate,
    KripkeModel,
    Satisfiable,
    Scope,
    Unsatisfiable,
    ValidUpToScope,
)
from homlkit.surface import SApp, SBinary, SBinder, SConst, SName, SUnary, Token
from homlkit.terms import (
    And,
    App,
    Box,
    Const,
    Diamond,
    ExistsA,
    ExistsP,
    ForallA,
    ForallP,
    Iff,
    Implies,
    Lam,
    LeibnizEq,
    Not,
    Or,
    Var,
)
from homlkit.theories import PostulateResult, load_bundle

P, Q = Const("p", Prop), Const("q", Prop)
SCOPE = Scope(1, 2)
MODEL = KripkeModel(SCOPE, ((True,),), ((True,), (False,)))

# (class, fields in order with a sample value each); a second sample of every
# compared field is derived by the test.
CASES = [
    (Var, {"index": 0, "var_type": Ind, "hint": "y"}),
    (Const, {"name": "p", "const_type": Prop}),
    (Lam, {"var_type": Ind, "body": P, "hint": "y"}),
    (App, {"fn": Const("f", Fun(Prop, Prop)), "arg": P}),
    *[(kind, {"arg": P}) for kind in (Not, Box, Diamond)],
    *[(kind, {"left": P, "right": Q}) for kind in (And, Or, Implies, Iff, LeibnizEq)],
    *[(kind, {"var_type": Ind, "body": P, "hint": "y"})
      for kind in (ForallP, ExistsP, ForallA, ExistsA)],
    (Token, {"kind": "ident", "text": "p", "line": 1, "col": 2}),
    (SName, {"name": "p", "line": 1, "col": 2}),
    (SBinder, {"kind": "forallP", "name": "x", "var_type": Ind, "body": "b", "line": 1,
               "col": 2}),
    (SApp, {"fn": "f", "arg": "a", "line": 1, "col": 2}),
    (SUnary, {"kind": "not", "arg": "a", "line": 1, "col": 2}),
    (SBinary, {"kind": "&", "left": "a", "right": "b", "line": 1, "col": 2}),
    (SConst, {"kind": "top", "line": 1, "col": 2}),
    (ValidUpToScope, {"scope": SCOPE}),
    (Countermodel, {"model": MODEL, "world": 0}),
    (Satisfiable, {"model": MODEL}),
    (Unsatisfiable, {"scope": SCOPE}),
    (Indeterminate, {"reason": "budget"}),
    (FilterReport, {"per_world": (True, False), "failures": ("w1: empty set is a member",)}),
    (CountResult, {"minimum": 1, "maximum": 2, "model_count": 3, "complete": True,
                   "empty_model_class": False}),
    (PostulateResult, {"label": "ext", "scope": SCOPE, "expected": "valid",
                       "verdict": ValidUpToScope(SCOPE), "as_expected": True}),
]
IDS = [cls.__name__ for cls, _ in CASES]

# Classes whose fields have the same names and sample values: they must not
# compare equal to each other.
SAME_SHAPE = [(And, Or), (Implies, Iff), (Iff, LeibnizEq), (Not, Box), (Box, Diamond),
              (ForallP, ExistsP), (ForallA, ExistsA), (ForallP, Lam),
              (ValidUpToScope, Unsatisfiable)]


def _other(value):
    """A sample different from ``value``, of the same kind."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, str):
        return value + "'"
    if isinstance(value, tuple):
        return value[::-1] if value[::-1] != value else value + value
    if value is Ind:
        return Prop
    if value is Prop:
        return Ind
    if isinstance(value, Scope):
        return Scope(value.num_worlds + 1, value.num_entities)
    if isinstance(value, KripkeModel):
        return KripkeModel(value.scope, ((False,),), value.exists_at)
    if isinstance(value, ValidUpToScope):
        return Unsatisfiable(value.scope)
    return Const(value.name + "'", value.const_type)


def _compared(fields):
    return {name: value for name, value in fields.items() if name != "hint"}


@pytest.mark.parametrize("cls,fields", CASES, ids=IDS)
def test_equality_compares_the_fields_but_hint(cls, fields):
    x = cls(*fields.values())
    assert x == cls(*fields.values()) and not x != cls(*fields.values())
    assert x != object() and x != tuple(fields.values())
    for name, value in fields.items():
        changed = cls(**{**fields, name: _other(value)})
        if name == "hint":
            assert changed == x
            if cls.__hash__ is not None:
                assert hash(changed) == hash(x)
        else:
            assert changed != x and not changed == x


@pytest.mark.parametrize("a,b", SAME_SHAPE, ids=[f"{a.__name__}-{b.__name__}" for a, b in SAME_SHAPE])
def test_equality_applies_within_one_class(a, b):
    fields = {**dict(CASES)[a], **dict(CASES)[b]}
    x = a(**{k: v for k, v in fields.items() if k in dict(CASES)[a]})
    y = b(**{k: v for k, v in fields.items() if k in dict(CASES)[b]})
    assert x != y and y != x and not x == y


@pytest.mark.parametrize("cls,fields", CASES, ids=IDS)
def test_hash_is_the_hash_of_the_compared_fields(cls, fields):
    x = cls(*fields.values())
    key = tuple(_compared(fields).values())
    try:
        expected = hash(key)
    except TypeError:  # a KripkeModel holds dicts
        with pytest.raises(TypeError):
            hash(x)
        return
    assert hash(x) == expected
    assert {x: 1}[cls(*fields.values())] == 1


@pytest.mark.parametrize("cls,fields", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields):
    x = cls(*fields.values())
    for name, value in fields.items():
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, name, _other(value))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(x, name)
        assert getattr(x, name) == value
    with pytest.raises(dataclasses.FrozenInstanceError):
        x.extra = 1


@pytest.mark.parametrize("cls,fields", CASES, ids=IDS)
def test_repr_names_every_field(cls, fields):
    args = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(*fields.values())) == f"{cls.__name__}({args})"


def test_repr_text():
    assert repr(Var(0, Ind)) == "Var(index=0, var_type=Ind, hint='x')"
    assert repr(App(Const("f", Fun(Ind, Prop)), Var(1, Ind, "y"))) == (
        "App(fn=Const(name='f', const_type=Fun(Ind, Prop)), "
        "arg=Var(index=1, var_type=Ind, hint='y'))")
    assert repr(ForallA(Ind, Not(P), "z")) == (
        "ForallA(var_type=Ind, body=Not(arg=Const(name='p', const_type=Prop)), hint='z')")
    assert repr(Token("kw", "box", 3, 7)) == "Token(kind='kw', text='box', line=3, col=7)"
    assert repr(ValidUpToScope(Scope(2, 1))) == (
        "ValidUpToScope(scope=Scope(num_worlds=2, num_entities=1))")
    assert repr(Indeterminate("budget")) == "Indeterminate(reason='budget')"
    assert repr(CountResult(0, 2, 5, False, True)) == (
        "CountResult(minimum=0, maximum=2, model_count=5, complete=False, "
        "empty_model_class=True)")


@pytest.mark.parametrize("cls,fields", CASES, ids=IDS)
def test_construction_by_position_or_keyword(cls, fields):
    x = cls(*fields.values())
    assert cls(**fields) == x
    assert cls(*list(fields.values())[:1], **dict(list(fields.items())[1:])) == x
    assert all(getattr(x, name) is value for name, value in fields.items())
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(**fields, unknown=1)
    required = [name for name in fields if name != "hint"]
    with pytest.raises(TypeError):
        cls(*[fields[name] for name in required[:-1]])
    with pytest.raises(TypeError):
        cls(*fields.values(), **{required[0]: fields[required[0]]})


def test_hint_defaults_to_x():
    assert Var(0, Ind).hint == "x"
    assert Var(0, Ind, hint="y").hint == "y"
    for kind in (Lam, ForallP, ExistsP, ForallA, ExistsA):
        assert kind(Ind, P).hint == "x"
        assert kind(var_type=Ind, body=P).hint == "x"


@pytest.mark.parametrize("cls,fields", CASES, ids=IDS)
def test_copies_and_pickles_equal_the_original(cls, fields):
    x = cls(*fields.values())
    for back in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(back) is cls and back == x
        assert all(getattr(back, name) == value for name, value in fields.items())


def test_term_copies_drop_cached_types_and_closures():
    from homlkit.grounder import ground

    theory = load_bundle("k").theory
    ground(theory, Scope(2, 1), negated_goal=theory.goals[0])
    term = theory.goals[0]
    assert term.ty == Prop and "_ty" in term.__dict__ and "_codes" in term.__dict__
    for back in (copy.copy(term), copy.deepcopy(term), pickle.loads(pickle.dumps(term))):
        assert back == term and hash(back) == hash(term)
        assert not [k for k in back.__dict__ if k.startswith("_")]
        assert back.ty == Prop
