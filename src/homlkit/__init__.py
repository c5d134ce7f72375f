"""homlkit: a higher-order modal logic toolkit.

Finite Kripke semantics for a typed modal lambda calculus, a SAT-backed
bounded model/countermodel finder, bundled theories (frame logics, lifted
Church postulates, modal filters, the ontological theory, modalised
mathematics), and semantic analyses over found models.
"""

from .errors import (
    BudgetExceededError,
    BundleError,
    GroundingError,
    HomlError,
    LexError,
    NestingDepthError,
    ParseError,
    ScopeCapError,
    SourceError,
    TypeCheckError,
)
from .grounder import (
    check_validity_bounded,
    enumerate_models,
    export_dimacs,
    find_model,
    ground,
    solve,
)
from .logictypes import Fun, Ind, LogicType, Prop
from .semantics import (
    Countermodel,
    Indeterminate,
    KripkeModel,
    Satisfiable,
    Scope,
    SemValue,
    Unsatisfiable,
    ValidUpToScope,
    denotation_size,
    enumerate_denotation,
    eval_term,
    holds_at,
    model_from_json,
    model_to_json,
    mvalid,
)
from .surface import elaborate, load_theory, parse, typecheck
from .terms import Term
from .theories import check_church_postulates, load_bundle
from .theory import Theory, format_theory

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError", "BundleError", "GroundingError", "HomlError",
    "LexError", "NestingDepthError", "ParseError", "ScopeCapError", "SourceError",
    "TypeCheckError",
    "check_validity_bounded", "enumerate_models", "export_dimacs", "find_model",
    "ground", "solve", "Fun", "Ind", "LogicType", "Prop",
    "Countermodel", "Indeterminate", "KripkeModel", "Satisfiable", "Scope",
    "SemValue", "Unsatisfiable", "ValidUpToScope", "denotation_size",
    "enumerate_denotation", "eval_term", "holds_at", "model_from_json",
    "model_to_json", "mvalid", "elaborate", "load_theory", "parse", "typecheck",
    "Term", "check_church_postulates", "load_bundle", "Theory", "format_theory",
    "__version__",
]
