"""Surface language for theory files: lexing, parsing, type checking, elaboration.

The concrete syntax is line-oriented: one declaration per line, ``#`` comments,
ASCII keywords with optional Unicode aliases. Types are written ``i``, ``prop``
and ``a > b`` (right-associative). Errors are reported as ``file:line:col: message``.

The parser maps each keyword to its core node kind once, as it reads it: an
application or connective becomes an ``SNode`` tagged with its ``terms``
class, a binder an ``SBinder``, and ``top``/``bot`` their core terms. Only
names wait for the checker, which resolves them and builds the core nodes. A
core term may stand anywhere in a surface tree; the checker checks it as it
is, under the binders above it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from .errors import LexError, ParseError, TypeCheckError, depth_guarded
from .frozen import Frozen, replace
from .logictypes import Fun, Ind, LogicType, Prop, check_type_depth
from .terms import (
    EXISTS_AT,
    EXISTS_AT_TYPE,
    KEYWORD,
    QUANTIFIERS,
    UNARY_CONNECTIVES,
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
    Term,
    Var,
    beta_normalize,
    check_bound_type,
    check_term,
    replace_consts,
)
from .theory import DEFAULT_NAME, FRAME_FLAGS, Theory

# The node kind of each surface keyword, read back from the one table.
_NODE = {keyword: kind for kind, keyword in KEYWORD.items()}
_BINDER_KWS = {KEYWORD[kind] for kind in QUANTIFIERS}
_UNARY_KWS = {KEYWORD[kind] for kind in UNARY_CONNECTIVES}

KEYWORDS = {
    "theory", "frame", "const", "def", "axiom", "goal", "top", "bot",
    *_BINDER_KWS, *_UNARY_KWS,
}

_UNICODE_ALIASES = {"⊤": "top", "⊥": "bot", **{alias: KEYWORD[kind] for alias, kind in (
    ("□", Box), ("◇", Diamond), ("∀", ForallP), ("∃", ExistsP), ("¬", Not), ("λ", Lam),
    ("∧", And), ("∨", Or), ("→", Implies), ("↔", Iff), ("≡", LeibnizEq))}}

_PUNCT = ("<->", ":=", "->", "==", "(", ")", ":", ".", "\\", "&", "|", ">")


class Token(Frozen):
    kind: str  # 'ident', 'kw', or the punctuation itself
    text: str
    line: int
    col: int


def _lex_line(line: str, lineno: int, filename: str) -> list[Token]:
    tokens = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c == "#":
            break
        if c.isspace():
            i += 1
            continue
        if c in _UNICODE_ALIASES:
            alias = _UNICODE_ALIASES[c]
            tokens.append(Token("kw" if alias in KEYWORDS else alias, alias, lineno, i + 1))
            i += 1
            continue
        matched = False
        for p in _PUNCT:
            if line.startswith(p, i):
                tokens.append(Token(p, p, lineno, i + 1))
                i += len(p)
                matched = True
                break
        if matched:
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (line[j].isalnum() or line[j] in "_'"):
                j += 1
            word = line[i:j]
            tokens.append(Token("kw" if word in KEYWORDS else "ident", word, lineno, i + 1))
            i = j
            continue
        raise LexError(f"unexpected character {c!r}", lineno, i + 1, filename)
    return tokens


# ---------------------------------------------------------------------------
# Surface (raw) AST produced by the parser, before name resolution.

class SName(Frozen):
    name: str
    line: int
    col: int


class SBinder(Frozen):
    kind: type  # the binder's node kind: Lam, ForallP, ExistsP, ForallA or ExistsA
    name: str
    var_type: Optional[LogicType]
    body: object
    line: int
    col: int


class SNode(Frozen):
    kind: type  # App or a connective's node kind: Not, Box, And, LeibnizEq, ...
    args: tuple  # its children in the order of the kind's fields
    line: int
    col: int


# (precedence, right-associative?) for the infix operators, loosest first.
_INFIX = {KEYWORD[Iff]: (1, False), KEYWORD[Implies]: (2, True), KEYWORD[Or]: (3, False),
          KEYWORD[And]: (4, False), KEYWORD[LeibnizEq]: (5, False)}


class _TermParser:
    def __init__(self, tokens: list[Token], filename: str, lineno: int):
        self.tokens = tokens
        self.pos = 0
        self.filename = filename
        self.lineno = lineno

    def error(self, message, token=None):
        tok = token or self.peek()
        col = tok.col if tok else (self.tokens[-1].col + len(self.tokens[-1].text) if self.tokens else 1)
        raise ParseError(message, self.lineno, col, self.filename)

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            self.error("unexpected end of line")
        self.pos += 1
        return tok

    def end(self) -> None:
        """Raise unless the line's tokens are all read."""
        tok = self.peek()
        if tok is not None:
            self.error(f"unexpected trailing {tok.text!r}")

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            self.error(f"expected {kind!r}" + (f", got {tok.text!r}" if tok else ""))
        return self.next()

    # Types: atype ('>' type)?, atype: i | prop | (type)
    def parse_type(self) -> LogicType:
        left = self.parse_atype()
        if self.peek() and self.peek().kind == ">":
            self.next()
            return Fun(left, self.parse_type())
        return left

    def parse_atype(self) -> LogicType:
        tok = self.next()
        if tok.kind == "ident" and tok.text == "i":
            return Ind
        if tok.kind == "ident" and tok.text == "prop":
            return Prop
        if tok.kind == "(":
            inner = self.parse_type()
            self.expect(")")
            return inner
        self.error(f"expected a type, got {tok.text!r}", tok)

    # Terms, by precedence climbing. Binders swallow everything to the right.
    def parse_term(self, min_prec: int = 0):
        left = self.parse_operand(min_prec)
        while True:
            tok = self.peek()
            if tok is None or tok.kind not in _INFIX:
                return left
            prec, right_assoc = _INFIX[tok.kind]
            if prec < min_prec:
                return left
            self.next()
            right = self.parse_term(prec if right_assoc else prec + 1)
            left = SNode(_NODE[tok.kind], (left, right), tok.line, tok.col)

    def parse_operand(self, min_prec: int):
        tok = self.peek()
        if tok is None:
            self.error("expected a term")
        if tok.kind == "kw" and tok.text in _BINDER_KWS or tok.kind == "\\":
            return self.parse_binder()
        if tok.kind == "kw" and tok.text in _UNARY_KWS:
            self.next()
            return SNode(_NODE[tok.text], (self.parse_operand(min_prec),), tok.line, tok.col)
        return self.parse_app()

    def parse_binder(self):
        tok = self.next()
        kind = _NODE[tok.text]
        name_tok = self.peek()
        if name_tok is None or name_tok.kind != "ident":
            self.error("expected a bound variable name")
        self.next()
        var_type = None
        if self.peek() and self.peek().kind == ":":
            self.next()
            var_type = self.parse_type()
        elif kind not in (ForallA, ExistsA):
            name = "lam" if kind is Lam else tok.text
            self.error(f"binder {name!r} requires a type annotation", name_tok)
        self.expect(".")
        body = self.parse_term(0)
        return SBinder(kind, name_tok.text, var_type, body, tok.line, tok.col)

    def parse_app(self):
        term = self.parse_atom()
        while True:
            tok = self.peek()
            if tok is None:
                return term
            if tok.kind == "ident" or tok.kind == "(" or (tok.kind == "kw" and tok.text in ("top", "bot")):
                arg = self.parse_atom()
                term = SNode(App, (term, arg), tok.line, tok.col)
            else:
                return term

    def parse_atom(self):
        tok = self.next()
        if tok.kind == "ident":
            return SName(tok.text, tok.line, tok.col)
        if tok.kind == "kw" and tok.text in ("top", "bot"):
            # top := forallP p:prop. p -> p,  bot := forallP p:prop. p
            p = Var(0, Prop, "p")
            return ForallP(Prop, Implies(p, p) if tok.text == "top" else p, "p")
        if tok.kind == "(":
            inner = self.parse_term(0)
            self.expect(")")
            return inner
        self.error(f"expected a term, got {tok.text!r}", tok)


def parse_term_text(text: str):
    """Parse a single term, written on one line."""
    parser = _TermParser(_lex_line(text, 1, "<input>"), "<input>", 1)
    term = parser.parse_term(0)
    parser.end()
    return term


def parse_type_text(text: str) -> LogicType:
    parser = _TermParser(_lex_line(text, 1, "<input>"), "<input>", 1)
    ty = parser.parse_type()
    parser.end()
    return ty


@depth_guarded
def parse(text: str, filename: str = "<input>") -> Theory:
    """Parse theory source into a Theory with raw (unchecked) term ASTs."""
    name = DEFAULT_NAME
    signature = []
    definitions = []
    axioms = []
    goals = []
    frame_flags = set()
    seen = set()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        tokens = _lex_line(raw_line, lineno, filename)
        if not tokens:
            continue
        parser = _TermParser(tokens, filename, lineno)
        head = parser.next()
        if head.kind != "kw":
            parser.error(f"expected a declaration keyword, got {head.text!r}", head)
        if head.text == "theory":
            tok = parser.expect("ident")
            name = tok.text
        elif head.text == "frame":
            while parser.peek() is not None:
                tok = parser.next()
                if tok.kind != "ident" or tok.text not in FRAME_FLAGS:
                    parser.error(f"unknown frame flag {tok.text!r}", tok)
                frame_flags.add(tok.text)
        elif head.text in ("const", "def"):
            tok = parser.expect("ident")
            if tok.text in seen:
                parser.error(f"duplicate declaration of {tok.text!r}", tok)
            if tok.text == EXISTS_AT:
                parser.error(f"{EXISTS_AT!r} is reserved", tok)
            if head.text == "const":
                parser.expect(":")
                signature.append((tok.text, parser.parse_type()))
            else:
                parser.expect(":=")
                definitions.append((tok.text, parser.parse_term(0)))
            seen.add(tok.text)
        elif head.text in ("axiom", "goal"):
            term = parser.parse_term(0)
            (axioms if head.text == "axiom" else goals).append(term)
        else:
            parser.error(f"unexpected keyword {head.text!r} at start of declaration", head)
        parser.end()
    return Theory(name, signature=tuple(signature), definitions=tuple(definitions),
                  axioms=tuple(axioms), goals=tuple(goals), frame_flags=frozenset(frame_flags))


# ---------------------------------------------------------------------------
# Type checking: resolve names against binders, signature, and definitions,
# producing core de Bruijn terms annotated with their types.

class _Checker:
    def __init__(self, signature, def_types, filename):
        self.signature = dict(signature)
        self.def_types = def_types
        self.filename = filename

    def err(self, message, node):
        """Raise at ``node``'s source position, or at 0:0 for no node."""
        raise TypeCheckError(message, getattr(node, "line", 0), getattr(node, "col", 0),
                             self.filename)

    @contextmanager
    def at(self, node):
        """Place a typing rule's error at ``node``'s source position."""
        try:
            yield
        except TypeCheckError as exc:
            self.err(exc.message, node)

    def check(self, node, env, outer=None) -> Term:
        """env is a list of (name, type), innermost binder first. A node that
        is not a surface node is a core term, checked as it is under env; its
        error is placed at ``outer``, the nearest enclosing surface node, and
        at 0:0 when it stands alone."""
        if type(node) is SName:
            for idx, (bname, bty) in enumerate(env):
                if bname == node.name:
                    return Var(idx, bty, bname)
            if node.name == EXISTS_AT:
                return Const(EXISTS_AT, EXISTS_AT_TYPE)
            if node.name in self.signature:
                return Const(node.name, self.signature[node.name])
            if node.name in self.def_types:
                return Const(node.name, self.def_types[node.name])
            self.err(f"unbound identifier {node.name!r}", node)
        if type(node) is SBinder:
            var_type = node.var_type if node.var_type is not None else Ind
            check_type_depth(var_type)
            with self.at(node):
                check_bound_type(node.kind, var_type)
            body = self.check(node.body, [(node.name, var_type)] + env, node)
            core = node.kind(var_type, body, node.name)
        elif type(node) is SNode:
            core = node.kind(*[self.check(arg, env, node) for arg in node.args])
        else:
            with self.at(outer):
                check_term(node, [ty for _, ty in env])
            return node
        with self.at(node):
            core.ty  # runs the node kind's typing rule
        return core


@depth_guarded
def typecheck(theory: Theory, filename: str = "<input>") -> Theory:
    """Resolve and type-annotate a parsed theory.

    Definition bodies may reference only signature constants and earlier
    definitions, so acyclicity holds by construction. Axioms and goals must be
    closed terms of type prop. A core term may stand anywhere in a surface
    tree, or be the whole of one; it is checked as it is, under the surface
    binders above it, and its error is placed in ``filename`` at the nearest
    enclosing surface node, or at 0:0 when it is the whole term.
    """
    def_types: dict[str, LogicType] = {}
    checker = _Checker(theory.signature, def_types, filename)
    for name, ty in theory.signature:
        check_type_depth(ty)

    checked_defs = []
    for name, body in theory.definitions:
        core = checker.check(body, [])
        def_types[name] = core.ty
        checked_defs.append((name, core))

    def check_formula(node, kind):
        core = checker.check(node, [])
        if core.ty != Prop:
            checker.err(f"{kind} must have type prop, got {core.ty}", node)
        return core

    checked_axioms = [check_formula(ax, "axiom") for ax in theory.axioms]
    checked_goals = [check_formula(goal, "goal") for goal in theory.goals]
    return replace(theory, definitions=tuple(checked_defs), axioms=tuple(checked_axioms),
                   goals=tuple(checked_goals))


@depth_guarded
def elaborate(theory: Theory) -> Theory:
    """Inline definitions and beta-normalize a checked theory.

    The result contains no defined constants and keeps its types. Leibniz
    equality and the actualist quantifiers stay nodes: they mean what their
    compile rules in ``semantics`` say.
    """
    # A definition mentions only earlier ones, so each inlined body is free
    # of defined constants and one replace_consts pass inlines a term fully.
    inlined: dict[str, Term] = {}
    for name, body in theory.definitions:
        inlined[name] = replace_consts(body, inlined)

    def elab(term: Term) -> Term:
        return beta_normalize(replace_consts(term, inlined))

    return replace(theory, definitions=(), axioms=tuple(elab(ax) for ax in theory.axioms),
                   goals=tuple(elab(goal) for goal in theory.goals))


def load_theory(text: str, filename: str = "<input>") -> Theory:
    """parse + typecheck + elaborate in one step."""
    return elaborate(typecheck(parse(text, filename), filename))
