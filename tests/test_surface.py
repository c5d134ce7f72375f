"""Lexing, parsing, type checking, and elaboration of the theory DSL."""

import pytest

from homlkit.errors import (
    HomlError,
    LexError,
    NestingDepthError,
    ParseError,
    SourceError,
    TypeCheckError,
)
from homlkit.grounder import check_validity_bounded
from homlkit.logictypes import Fun, Ind, Prop
from homlkit.semantics import KripkeModel, Scope, mvalid
from homlkit.surface import (
    SBinder,
    SName,
    SNode,
    elaborate,
    load_theory,
    parse,
    parse_term_text,
    parse_type_text,
    typecheck,
)
from homlkit.terms import (
    And,
    App,
    Box,
    Const,
    ExistsA,
    ForallP,
    Implies,
    Lam,
    LeibnizEq,
    Not,
    Var,
    check_term,
    constants_of,
    is_closed,
)
from homlkit.theories import load_bundle
from homlkit.theory import Theory, format_theory


def test_parse_axiom_ast_shape():
    theory = parse("const P : i > prop\naxiom box (forallP x:i. P x)\n")
    assert len(theory.axioms) == 1
    ax = theory.axioms[0]
    assert isinstance(ax, SNode) and ax.kind is Box
    (quant,) = ax.args
    assert isinstance(quant, SBinder) and quant.kind is ForallP
    assert isinstance(quant.body, SNode) and quant.body.kind is App


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
    # Elaboration keeps the node; its compile rule makes it identity.
    theory = load_theory("const a : i\nconst b : i\naxiom a == b\n")
    assert theory.axioms == (LeibnizEq(Const("a", Ind), Const("b", Ind)),)


def test_elaborate_actualist_uses_exists_at():
    # Elaboration keeps the node; its compile rule guards it by existsAt.
    theory = load_theory("const A : i > prop\naxiom existsA x. A x\n")
    ax = theory.axioms[0]
    assert ax == ExistsA(Ind, App(Const("A", Fun(Ind, Prop)), Var(0, Ind)), "x")
    everywhere = {"A": 1}  # A holds of the one entity at the one world
    types = {"A": Fun(Ind, Prop)}
    present = KripkeModel(Scope(1, 1), (1,), 1, everywhere, types)
    absent = KripkeModel(Scope(1, 1), (1,), 0, everywhere, types)
    assert mvalid(present, ax) and not mvalid(absent, ax)


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


PRED = (("P", Fun(Ind, Prop)), ("R", Fun(Ind, Fun(Ind, Prop))))


def test_core_terms_nest_under_surface_binders():
    # P x and R y x as surface nodes around core terms, checked under the
    # surface binders above them: Var(1) is y below "forallP y. forallP x".
    lam = SBinder(Lam, "x", Ind, SNode(App, (SName("P", 1, 11), Var(0, Ind, "x")), 1, 13), 1, 7)
    pair = SNode(App, (App(Const("R", PRED[1][1]), Var(1, Ind, "y")), SName("x", 1, 40)), 1, 40)
    axiom = SBinder(ForallP, "y", Ind, SBinder(ForallP, "x", Ind, pair, 1, 20), 1, 7)
    theory = Theory("t", signature=PRED, definitions=(("d", lam),), axioms=(axiom,))
    source = ("const P : i > prop\nconst R : i > i > prop\ndef d := \\x:i. P x\n"
              "axiom forallP y:i. forallP x:i. R y x\n")
    expected = typecheck(parse(source))
    checked = typecheck(theory)
    assert checked.definitions == expected.definitions
    assert checked.axioms == expected.axioms


@pytest.mark.parametrize("core,message", [
    (Var(1, Ind, "x"), "unbound de Bruijn index 1"),
    (Var(0, Prop, "x"), "variable type mismatch: expected i, got prop"),
])
def test_core_variable_is_checked_against_the_surface_binders(core, message):
    body = SNode(App, (SName("P", 1, 11), core), 1, 13)
    theory = Theory("t", signature=PRED, definitions=(("d", SBinder(Lam, "x", Ind, body, 1, 7)),))
    with pytest.raises(TypeCheckError) as err:
        typecheck(theory)
    assert err.value.message == message


def test_core_term_error_is_placed_at_the_enclosing_surface_node():
    # A core term has no position: its error reads at the nearest surface
    # node around it, in the file typecheck was given, and at 0:0 only
    # when it is the whole axiom.
    unbound, deeper = Var(1, Prop), ForallP(Ind, Var(2, Prop))
    for axiom, where in [(SNode(Not, (unbound,), 3, 5), "3:5: unbound de Bruijn index 1"),
                         (SBinder(ForallP, "p", Prop, SNode(Not, (unbound,), 3, 9), 3, 1),
                          "3:9: unbound de Bruijn index 1"),
                         (SBinder(ForallP, "p", Prop, deeper, 4, 2),
                          "4:2: unbound de Bruijn index 2"),
                         (ForallP(Ind, unbound), "0:0: unbound de Bruijn index 1")]:
        with pytest.raises(TypeCheckError) as err:
            typecheck(Theory("t", axioms=(axiom,)), "t.homl")
        assert str(err.value) == f"t.homl:{where}"


def test_top_and_bot_parse_to_their_core_terms():
    p = Var(0, Prop, "p")
    top, bot = ForallP(Prop, Implies(p, p), "p"), ForallP(Prop, p, "p")
    assert parse_term_text("top") == parse_term_text("⊤") == top
    assert parse_term_text("bot") == parse_term_text("⊥") == bot
    assert parse_term_text("P top") == SNode(App, (SName("P", 1, 1), top), 1, 3)
    assert parse_term_text("top & bot") == SNode(And, (top, bot), 1, 5)
    theory = load_theory("const P : prop > prop\naxiom P top -> not (P bot)\n")
    const_p = Const("P", Fun(Prop, Prop))
    assert theory.axioms == (Implies(App(const_p, top), Not(App(const_p, bot))),)


@pytest.mark.parametrize("bundle_id", ["k", "church", "filters", "goedel", "modal_math"])
def test_elaboration_preserves_types_and_is_core(bundle_id):
    # Core here means free of defined constants; the sugar nodes stay.
    bundle = load_bundle(bundle_id)
    defined = {name for name, _ in bundle.checked.definitions}
    for term in bundle.theory.axioms + bundle.theory.goals:
        assert check_term(term) == Prop
        assert is_closed(term)
        assert not (constants_of(term) & defined)


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


@pytest.mark.parametrize("read, text, message", [
    (parse, "const p : prop\naxiom p )\n", "<input>:2:9: unexpected trailing ')'"),
    (parse, "const p : prop\ngoal p . p\n", "<input>:2:8: unexpected trailing '.'"),
    (parse, "const p : prop )\n", "<input>:1:16: unexpected trailing ')'"),
    (parse, "theory t u\n", "<input>:1:10: unexpected trailing 'u'"),
    (parse_term_text, "p )", "<input>:1:3: unexpected trailing ')'"),
    (parse_type_text, "i )", "<input>:1:3: unexpected trailing ')'"),
])
def test_every_declaration_ends_at_its_line_end(read, text, message):
    with pytest.raises(ParseError) as err:
        read(text)
    assert str(err.value) == message


# Message and position of each error that the lexer and the parser raise
# while reading a declaration (file:line:col: message).
PARSE_ERRORS = [
    (LexError, "const p : prop\naxiom p $ p\n", "t.homl:2:9: unexpected character '$'"),
    (ParseError, "const p :\n", "t.homl:1:10: unexpected end of line"),
    (ParseError, "const p prop\n", "t.homl:1:9: expected ':', got 'prop'"),
    (ParseError, "const p : &\n", "t.homl:1:11: expected a type, got '&'"),
    (ParseError, "axiom forallP : i. p\n", "t.homl:1:15: expected a bound variable name"),
    (ParseError, "axiom forallP\n", "t.homl:1:14: expected a bound variable name"),
    (ParseError, "axiom forallP x. x\n",
     "t.homl:1:15: binder 'forallP' requires a type annotation"),
    (ParseError, "def f := \\x. x\n", "t.homl:1:11: binder 'lam' requires a type annotation"),
    (ParseError, "const p : prop\naxiom p & )\n", "t.homl:2:11: expected a term, got ')'"),
    (ParseError, "p\n", "t.homl:1:1: expected a declaration keyword, got 'p'"),
    (ParseError, "const p : prop\nbox p\n",
     "t.homl:2:1: unexpected keyword 'box' at start of declaration"),
    # A keyword alone on its line: the error lands at the line's end.
    (ParseError, "const p : prop\naxiom\n", "t.homl:2:6: expected a term"),
    (ParseError, "theory\n", "t.homl:1:7: expected 'ident'"),
    (ParseError, "const\n", "t.homl:1:6: expected 'ident'"),
]


@pytest.mark.parametrize("error,source,message", PARSE_ERRORS)
def test_parse_error_messages_and_positions(error, source, message):
    with pytest.raises(SourceError) as err:
        parse(source, "t.homl")
    assert type(err.value) is error
    assert str(err.value) == message


def test_type_depth_limit():
    deep = "i"
    for _ in range(40):
        deep = f"({deep}) > prop"
    with pytest.raises(TypeCheckError):
        typecheck(parse(f"const c : {deep}\n"))


def test_binder_swallows_to_the_right():
    term = parse_term_text("forallP x:i. p -> q")
    assert isinstance(term, SBinder)
    assert term.kind is ForallP


def test_deeply_nested_input_raises_nesting_depth_error():
    # Each stage that recurses once or more per level of a term raises the
    # typed error, not RecursionError: parse, typecheck, elaborate, and
    # compiling for the grounder and for the evaluator.
    source = "const p : prop\ngoal " + "not " * 400 + "p\n"
    theory = load_theory(source)
    with pytest.raises(NestingDepthError, match="^input nested too deeply: "):
        check_validity_bounded(theory, theory.goals[0], Scope(1, 1))
    model = KripkeModel(Scope(1, 1), (1,), 1, {"p": 1}, {"p": Prop})
    with pytest.raises(NestingDepthError):
        mvalid(model, theory.goals[0])
    with pytest.raises(NestingDepthError):
        parse("goal " + "not " * 5000 + "p\n")
    surface = SName("p", 1, 1)
    for _ in range(5000):
        surface = SNode(Not, (surface,), 1, 1)
    with pytest.raises(NestingDepthError):
        typecheck(Theory("deep", signature=(("p", Prop),), axioms=(surface,)))
    core = Const("p", Prop)
    for _ in range(5000):
        core = Not(core)
    with pytest.raises(NestingDepthError):
        elaborate(Theory("deep", signature=(("p", Prop),), axioms=(core,)))
    assert issubclass(NestingDepthError, HomlError)
