"""Theories: named bundles of signature, definitions, axioms, goals, frame flags."""

from __future__ import annotations

from .errors import HomlError
from .frozen import Frozen
from .logictypes import LogicType, format_type
from .terms import Term, format_term

FRAME_FLAGS = ("refl", "symm", "trans")
# The name of a theory whose source has no ``theory`` line; it is a keyword,
# so format_theory leaves the line out rather than print it.
DEFAULT_NAME = "theory"


class Theory(Frozen):
    name: str
    signature: tuple[tuple[str, LogicType], ...] = ()
    definitions: tuple[tuple[str, Term], ...] = ()
    axioms: tuple[Term, ...] = ()
    goals: tuple[Term, ...] = ()
    frame_flags: frozenset[str] = frozenset()


def check_frame_flags(flags) -> None:
    """Raise HomlError naming every flag of ``flags`` not in FRAME_FLAGS."""
    unknown = set(flags).difference(FRAME_FLAGS)
    if unknown:
        raise HomlError(f"unknown frame flags {sorted(unknown, key=str)}")


def frame_clauses(flags, r) -> list[list[int]]:
    """The frame conditions of ``flags``, stated once: clauses over literals
    ``r[w][v]``, each saying that world w sees v, in the order refl, symm,
    trans, without the clauses that always hold. The grounder passes its
    relation variables; ``KripkeModel.satisfies_frame`` numbers the cells."""
    check_frame_flags(flags)
    worlds = range(len(r))
    clauses = [[r[w][w]] for w in worlds] if "refl" in flags else []
    if "symm" in flags:
        clauses += ([-r[w][v], r[v][w]] for w in worlds for v in worlds if w != v)
    if "trans" in flags:
        clauses += ([-r[u][v], -r[v][w], r[u][w]]
                    for u in worlds for v in worlds for w in worlds if u != v and v != w)
    return clauses


def format_theory(theory: Theory) -> str:
    """Render a theory back into the line-oriented DSL."""
    lines = [] if theory.name == DEFAULT_NAME else [f"theory {theory.name}"]
    if theory.frame_flags:
        flags = " ".join(f for f in FRAME_FLAGS if f in theory.frame_flags)
        lines.append(f"frame {flags}")
    for name, ty in theory.signature:
        lines.append(f"const {name} : {format_type(ty)}")
    for name, body in theory.definitions:
        lines.append(f"def {name} := {format_term(body)}")
    for ax in theory.axioms:
        lines.append(f"axiom {format_term(ax)}")
    for goal in theory.goals:
        lines.append(f"goal {format_term(goal)}")
    return "\n".join(lines) + "\n"
