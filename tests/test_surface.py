"""Lexing, parsing, type checking, and elaboration of the theory DSL."""

import pytest

from homlkit.errors import HomlError, NestingDepthError, ParseError, TypeCheckError
from homlkit.grounder import check_validity_bounded
from homlkit.logictypes import Fun, Ind, Prop
from homlkit.semantics import KripkeModel, Scope, mvalid
from homlkit.surface import (
    SApp,
    SBinder,
    SName,
    SUnary,
    elaborate,
    load_theory,
    parse,
    parse_term_text,
    parse_type_text,
    typecheck,
)
from homlkit.terms import (
    App,
    Box,
    Const,
    ExistsA,
    ExistsP,
    ForallA,
    ForallP,
    Implies,
    LeibnizEq,
    Not,
    Var,
    check_term,
    children,
    constants_of,
    is_closed,
)
from homlkit.theories import load_bundle
from homlkit.theory import Theory, format_theory


def test_parse_axiom_ast_shape():
    theory = parse("const P : i > prop\naxiom box (forallP x:i. P x)\n")
    assert len(theory.axioms) == 1
    ax = theory.axioms[0]
    assert isinstance(ax, SUnary) and ax.kind == "box"
    quant = ax.arg
    assert isinstance(quant, SBinder) and quant.kind == "forallP"
    assert isinstance(quant.body, SApp)


def test_parse_unmatched_paren_reports_position():
    with pytest.raises(ParseError) as err:
        parse("axiom box (\n", filename="bad.homl")
    assert "bad.homl:1:" in str(err.value)


def test_parse_types():
    assert parse_type_text("i") == Ind
    assert parse_type_text("prop") == Prop
    assert parse_type_text("i > i > prop") == Fun(Ind, Fun(Ind, Prop))
    assert parse_type_text("(i > prop) > prop") == Fun(Fun(Ind, Prop), Prop)


def test_goedel_bundle_declaration_counts():
    theory = parse(load_bundle("goedel").source)
    assert len(theory.axioms) == 5
    assert len(theory.definitions) == 3
    assert len(theory.goals) == 1


def test_typecheck_annotates_box_formula():
    theory = typecheck(parse("const P : i > prop\naxiom forallP x:i. box (P x)\n"))
    ax = theory.axioms[0]
    assert ax.ty == Prop
    assert isinstance(ax, ForallP)
    assert isinstance(ax.body, Box)
    assert ax.body.arg.ty == Prop


def test_typecheck_self_application_rejected():
    with pytest.raises(TypeCheckError) as err:
        typecheck(parse("const P : i > prop\naxiom forallP x:i. P P\n"))
    assert "expected i, actual i > prop" in str(err.value)


def test_actualist_quantifier_restricted_to_individuals():
    with pytest.raises(TypeCheckError) as err:
        typecheck(parse("const c : prop\naxiom existsA q:i>prop. c\n"))
    assert "restricted to individuals" in str(err.value)


def test_actualist_binder_defaults_to_individuals():
    theory = typecheck(parse("const A : i > prop\ngoal existsA x. A x\n"))
    goal = theory.goals[0]
    assert isinstance(goal, ExistsA)
    assert goal.var_type == Ind


def test_unbound_identifier():
    with pytest.raises(TypeCheckError) as err:
        typecheck(parse("axiom box q\n"))
    assert "unbound identifier 'q'" in str(err.value)


def test_definition_may_not_reference_later_definition():
    src = "const c : prop\ndef a := b\ndef b := c\n"
    with pytest.raises(TypeCheckError) as err:
        typecheck(parse(src))
    assert "unbound identifier 'b'" in str(err.value)


def test_non_prop_axiom_reports_position():
    with pytest.raises(TypeCheckError) as err:
        typecheck(parse("const k : i\naxiom k\n", filename="t.homl"), filename="t.homl")
    assert "t.homl:2:" in str(err.value)
    assert "axiom must have type prop" in str(err.value)


# Message and position of each typing rule's error, as the surface checker
# reports them (file:line:col: message); at least one case per rule.
TYPE_ERRORS = [
    ('const c : i\naxiom c c\n',
     't.homl:2:9: cannot apply a term of type i'),
    ('axiom top top\n',
     't.homl:1:11: cannot apply a term of type prop'),
    ('const P : i > prop\naxiom forallP x:i. P P\n',
     't.homl:2:22: type mismatch: expected i, actual i > prop'),
    ('const R : i > i > prop\nconst p : prop\naxiom forallP x:i. R x p\n',
     't.homl:3:24: type mismatch: expected i, actual prop'),
    ('const c : i\naxiom not c\n',
     't.homl:2:7: type mismatch: expected prop, actual i'),
    ('const c : i\naxiom box c\n',
     't.homl:2:7: type mismatch: expected prop, actual i'),
    ('const c : i\naxiom dia c\n',
     't.homl:2:7: type mismatch: expected prop, actual i'),
    ('const c : i\nconst p : prop\naxiom c & p\n',
     't.homl:3:9: type mismatch: expected prop, actual i'),
    ('const c : i\nconst p : prop\naxiom p | c\n',
     't.homl:3:9: type mismatch: expected prop, actual i'),
    ('const c : i\nconst p : prop\naxiom p -> c\n',
     't.homl:3:9: type mismatch: expected prop, actual i'),
    ('const c : i\nconst p : prop\naxiom c <-> c\n',
     't.homl:3:9: type mismatch: expected prop, actual i'),
    ('const c : i\nconst p : prop\naxiom c == p\n',
     't.homl:3:9: equality between distinct types i and prop'),
    ('const c : i\naxiom (\\x:i. x) == c\n',
     't.homl:2:17: equality between distinct types i > i and i'),
    ('axiom forallP x:i. x\n',
     't.homl:1:7: quantifier body must have type prop, got i'),
    ('axiom existsP x:i. x\n',
     't.homl:1:7: quantifier body must have type prop, got i'),
    ('axiom forallA x. x\n',
     't.homl:1:7: quantifier body must have type prop, got i'),
    ('axiom existsA x:i. x\n',
     't.homl:1:7: quantifier body must have type prop, got i'),
    ('const c : prop\naxiom existsA q:i>prop. c\n',
     't.homl:2:7: actualist quantifier restricted to individuals'),
    ('axiom existsA q:i>prop. not q\n',
     't.homl:1:7: actualist quantifier restricted to individuals'),
    ('axiom forallA q:prop. q c\n',
     't.homl:1:7: actualist quantifier restricted to individuals'),
    ('def f := \\x:i. not x\n',
     't.homl:1:16: type mismatch: expected prop, actual i'),
    ('def f := \\x:i. x\naxiom f\n',
     't.homl:2:7: axiom must have type prop, got i > i'),
    ('const k : i\naxiom k\n',
     't.homl:2:7: axiom must have type prop, got i'),
    ('const k : i\ngoal k\n',
     't.homl:2:6: goal must have type prop, got i'),
    ('axiom existsAt\n',
     't.homl:1:7: axiom must have type prop, got i > prop'),
    ('const P : i > prop\n\n# comment\naxiom forallP x:i. box (P x & x)\n',
     't.homl:4:29: type mismatch: expected prop, actual i'),
    ('axiom box q\n',
     "t.homl:1:11: unbound identifier 'q'"),
    ('const c : prop\ndef a := b\ndef b := c\n',
     "t.homl:2:10: unbound identifier 'b'"),
    ('const c : prop\ndef g := \\x:i. c\naxiom g c\n',
     't.homl:3:9: type mismatch: expected i, actual prop'),
]


@pytest.mark.parametrize("source,message", TYPE_ERRORS)
def test_type_error_messages_and_positions(source, message):
    with pytest.raises(TypeCheckError) as err:
        typecheck(parse(source, "t.homl"), "t.homl")
    assert str(err.value) == message


def test_elaborate_leibniz_on_individuals():
    theory = load_theory("const a : i\nconst b : i\naxiom a == b\n")
    ax = theory.axioms[0]
    expected = ForallP(
        Fun(Ind, Prop),
        Implies(
            App(Var(0, Fun(Ind, Prop)), Const("a", Ind)),
            App(Var(0, Fun(Ind, Prop)), Const("b", Ind)),
        ),
    )
    assert ax == expected  # structural equality is alpha-equivalence


def test_elaborate_actualist_uses_exists_at():
    theory = load_theory("const A : i > prop\naxiom existsA x. A x\n")
    ax = theory.axioms[0]
    assert isinstance(ax, ExistsP)
    assert "existsAt" in constants_of(ax)


def test_elaborate_without_definitions_is_identity():
    checked = typecheck(parse("const c : prop\naxiom box c\ngoal c\n"))
    elaborated = elaborate(checked)
    assert elaborated.axioms == checked.axioms
    assert elaborated.goals == checked.goals


@pytest.mark.parametrize("bundle_id,params", [
    ("k", {}), ("t", {}), ("s4", {}), ("s5", {}),
    ("church", {}), ("filters", {}), ("goedel", {}),
    ("goedel", {"quantifier": "possibilist"}),
    ("goedel", {"formulation": "goedel-1970"}),
    ("modal_math", {}), ("modal_math", {"extension": "infinity"}),
])
def test_print_parse_round_trip(bundle_id, params):
    bundle = load_bundle(bundle_id, **params)
    printed = format_theory(bundle.checked)
    reparsed = typecheck(parse(printed))
    assert reparsed.axioms == bundle.checked.axioms
    assert reparsed.goals == bundle.checked.goals
    assert reparsed.definitions == bundle.checked.definitions
    assert reparsed.frame_flags == bundle.checked.frame_flags


def test_printed_binder_does_not_capture_a_constant():
    # The definition's body mentions the constant x; once inlined under a
    # binder hinted x, the printer must rename the binder.
    src = "theory cap\nconst x : i\nconst P : i > prop\ndef q := P x\naxiom forallP x:i. q\n"
    theory = elaborate(typecheck(parse(src)))
    printed = format_theory(theory)
    assert "(forallP x':i. (P x))" in printed
    assert typecheck(parse(printed)).axioms == theory.axioms


def test_theory_without_name_round_trips():
    theory = typecheck(parse("const c : prop\naxiom c\n"))
    printed = format_theory(theory)
    assert not printed.startswith("theory")
    reparsed = typecheck(parse(printed))
    assert reparsed == theory


@pytest.mark.parametrize("theory,message", [
    (Theory("t", signature=(("c", Ind),), axioms=(Not(Const("c", Ind)),)),
     "type mismatch: expected prop, actual i"),
    (Theory("t", axioms=(ForallP(Ind, Var(1, Prop)),)),
     "unbound de Bruijn index 1"),
    (Theory("t", signature=(("c", Ind),),
            definitions=(("d", App(Const("c", Ind), Const("c", Ind))),)),
     "cannot apply a term of type i"),
])
def test_typecheck_checks_core_terms(theory, message):
    with pytest.raises(TypeCheckError) as err:
        typecheck(theory)
    assert err.value.message == message


@pytest.mark.parametrize("bundle_id", ["k", "church", "filters", "goedel", "modal_math"])
def test_elaboration_preserves_types_and_is_core(bundle_id):
    bundle = load_bundle(bundle_id)
    for term in bundle.theory.axioms + bundle.theory.goals:
        assert check_term(term) == Prop
        assert is_closed(term)
        assert _core_only(term)
        defined = {name for name, _ in bundle.checked.definitions}
        assert not (constants_of(term) & defined)


def _core_only(term):
    if isinstance(term, (LeibnizEq, ForallA, ExistsA)):
        return False
    return all(_core_only(sub) for sub in children(term))


def test_unicode_aliases():
    ascii_theory = load_theory("const P : i > prop\naxiom box (forallP x:i. not (P x))\n")
    unicode_theory = load_theory("const P : i > prop\naxiom □ (∀ x:i. ¬ (P x))\n")
    assert ascii_theory.axioms == unicode_theory.axioms


def test_duplicate_and_reserved_declarations():
    with pytest.raises(ParseError):
        parse("const c : prop\nconst c : i\n")
    with pytest.raises(ParseError):
        parse("const existsAt : i > prop\n")
    with pytest.raises(ParseError):
        parse("frame shiny\n")


def test_type_depth_limit():
    deep = "i"
    for _ in range(40):
        deep = f"({deep}) > prop"
    with pytest.raises(TypeCheckError):
        typecheck(parse(f"const c : {deep}\n"))


def test_binder_swallows_to_the_right():
    term = parse_term_text("forallP x:i. p -> q")
    assert isinstance(term, SBinder)
    assert term.kind == "forallP"


def test_deeply_nested_input_raises_nesting_depth_error():
    # Each stage that recurses once or more per level of a term raises the
    # typed error, not RecursionError: parse, typecheck, elaborate, and
    # compiling for the grounder and for the evaluator.
    source = "const p : prop\ngoal " + "not " * 400 + "p\n"
    theory = load_theory(source)
    with pytest.raises(NestingDepthError, match="^input nested too deeply: "):
        check_validity_bounded(theory, theory.goals[0], Scope(1, 1))
    model = KripkeModel(Scope(1, 1), ((True,),), ((True,),), {"p": 1}, {"p": Prop})
    with pytest.raises(NestingDepthError):
        mvalid(model, theory.goals[0])
    with pytest.raises(NestingDepthError):
        parse("goal " + "not " * 5000 + "p\n")
    surface = SName("p", 1, 1)
    for _ in range(5000):
        surface = SUnary("not", surface, 1, 1)
    with pytest.raises(NestingDepthError):
        typecheck(Theory("deep", signature=(("p", Prop),), axioms=(surface,)))
    core = Const("p", Prop)
    for _ in range(5000):
        core = Not(core)
    with pytest.raises(NestingDepthError):
        elaborate(Theory("deep", signature=(("p", Prop),), axioms=(core,)))
    assert issubclass(NestingDepthError, HomlError)
