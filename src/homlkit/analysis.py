"""Semantic experiments over models: modal filters and ultrafilters, positive
property counting, equipollence and cardinal successor checks, and the
finite diagonal/surjection experiments.

A modal set is a ``Fun(Ind, Prop)`` value, and it is read as its position:
m entity rows of n world bits, so the position is the mask of the set's
(entity, world) cells, just as a ``prop``'s position is its world mask.
Meet is ``&``, the world-wise complement is ``^ full``, and inclusion at
every world is ``a & b == a``. A property family is a ``Fun(Fun(Ind, Prop),
Prop)`` value: one world mask per modal set, saying where the set is in it.
``_holding`` reads both, world by world, through ``table_view`` and ``digits``.
"""

from __future__ import annotations

import itertools
from typing import Collection, Iterable, Optional, Sequence

from .errors import BudgetExceededError, HomlError
from .frozen import Frozen, replace
from .grounder import exactly, ground, iterate_models
from .logictypes import Fun, Ind, Prop
from .semantics import (
    KripkeModel,
    Scope,
    _check_position,
    _world_bits,
    denotation_size,
    digits,
    position,
    table_view,
)
from .solver import DEFAULT_CONFLICT_BUDGET
from .theory import Theory

PROPERTY_TYPE = Fun(Ind, Prop)
FAMILY_TYPE = Fun(PROPERTY_TYPE, Prop)


def _check_world(world: int, scope: Scope):
    if not 0 <= world < scope.num_worlds:
        raise HomlError(f"counting world {world} is not one of the {scope.num_worlds} "
                        f"worlds of scope {scope}")


def _holding(i: int, ty: Fun, scope: Scope) -> list[list[int]]:
    """Per world, the entries of position i of the prop-valued table type
    ``ty`` that hold there: a modal set's entities, a family's modal sets."""
    length, base, _ = table_view(ty, scope)
    bits = [_world_bits(entry, scope) for entry in range(base)]  # read each entry value once
    rows = [bits[entry] for entry in digits(i, length, base)]
    return [[j for j, row in enumerate(rows) if row[w]] for w in range(scope.num_worlds)]


def _members(model: KripkeModel, constant: str) -> list[list[int]]:
    """Per world, the modal sets the property family ``constant`` holds there."""
    i = model.positions.get(constant)
    if i is None:
        raise HomlError(f"model does not interpret constant {constant!r}")
    if model.constant_types[constant] != FAMILY_TYPE:
        raise HomlError(f"constant {constant!r} is not a property family")
    return _holding(i, FAMILY_TYPE, model.scope)


class FilterReport(Frozen):
    per_world: tuple[bool, ...]
    failures: tuple[str, ...]

    @property
    def globally(self) -> bool:
        return all(self.per_world)


def _filter_report(members_per_world: Sequence[Collection[int]], width: int,
                   maximal: bool) -> FilterReport:
    """The filter conditions on the ``width``-bit masks, per world: the full
    mask is a member, 0 is not, members are upward closed under inclusion
    and closed under meet. With ``maximal``, also: each mask or its
    complement is a member."""
    full = (1 << width) - 1
    universe = range(full + 1)
    per_world = []
    failures = []
    for w, held in enumerate(members_per_world):
        members, ordered = set(held), sorted(held)
        bad = []
        if full not in members:
            bad.append("full set not a member")
        if 0 in members:
            bad.append("empty set is a member")
        bad += [f"not upward closed at {a} <= {b}"
                for a in ordered for b in universe if a & b == a and b not in members]
        bad += [f"not closed under meet at {a}, {b}"
                for a in ordered for b in ordered if a & b not in members]
        if maximal:
            bad += [f"neither {s} nor its complement is a member"
                    for s in universe if s not in members and s ^ full not in members]
        per_world.append(not bad)
        failures += [f"w{w}: {f}" for f in bad]
    return FilterReport(tuple(per_world), tuple(failures))


def is_modal_filter(model: KripkeModel) -> FilterReport:
    """The four filter conditions on the family ``P``, per world: contains
    the full set, excludes the empty set, upward closed under every-world
    inclusion, closed under world-wise intersection."""
    scope = model.scope
    return _filter_report(_members(model, "P"), scope.num_worlds * scope.num_entities, False)


def is_modal_ultrafilter(model: KripkeModel, constant: str = "P",
                         mode: str = "intension") -> FilterReport:
    """Filter conditions plus maximality: each modal set or its world-wise
    complement is a member. In extension mode the conditions are evaluated on
    world-projected extensions instead."""
    members = _members(model, constant)
    scope = model.scope
    if mode == "intension":
        return _filter_report(members, scope.num_worlds * scope.num_entities, True)
    if mode != "extension":
        raise HomlError(f"unknown ultrafilter mode {mode!r}")
    entities = range(scope.num_entities)
    extensions = [{position([e in _holding(s, PROPERTY_TYPE, scope)[w] for e in entities], 2)
                   for s in sets} for w, sets in enumerate(members)]
    return _filter_report(extensions, scope.num_entities, True)


# ---------------------------------------------------------------------------
# Positive property counting

def positive_sets(model: KripkeModel, constant: str = "P", world: int = 0) -> list[int]:
    """Modal sets the family holds positive at the given world."""
    _check_world(world, model.scope)
    return _members(model, constant)[world]


class CountResult(Frozen):
    minimum: int
    maximum: int
    model_count: int
    complete: bool
    empty_model_class: bool


def min_positive_count(theory: Theory, scope: Scope, constant: str = "P",
                       world: int = 0, entities: Optional[int] = None,
                       budget: int = DEFAULT_CONFLICT_BUDGET,
                       model_limit: Optional[int] = None) -> CountResult:
    """Minimum number of positive modal sets over every model at the scope.

    "Exactly k entities" is read possibilistically when ``entities`` is None
    (the scope's entity count is k); an int ``entities`` reads it
    actualistically instead, constraining how many entities satisfy existsAt
    at the designated world. The arguments are checked before the theory is
    grounded.
    """
    _check_world(world, scope)
    if entities is not None and entities < 0:
        raise HomlError(f"the actualist entity count must be >= 0, got {entities}")
    if dict(theory.signature).get(constant) != FAMILY_TYPE:
        raise HomlError(f"theory has no property family constant {constant!r}")
    if entities is not None and entities > scope.num_entities:
        raise HomlError(f"cannot require {entities} existing entities "
                        f"with only {scope.num_entities} in scope")
    problem = ground(theory, scope)
    if entities is not None:
        at_world = [row[world] for row in problem.ex_vars]
        problem = replace(problem, clauses=problem.clauses + exactly(at_world, entities))
    return count_positive(iterate_models(problem, budget=budget), constant, world, model_limit)


def count_positive(models: Iterable[KripkeModel], constant: str = "P", world: int = 0,
                   limit: Optional[int] = None) -> CountResult:
    """Minimum and maximum number of positive modal sets over the first
    ``limit`` models; incomplete when the limit is reached or the solver
    budget runs out while the models are produced."""
    minimum = None
    maximum = None
    seen = 0
    complete = True
    try:
        for model in itertools.islice(models, limit):
            count = len(positive_sets(model, constant, world))
            minimum = count if minimum is None else min(minimum, count)
            maximum = count if maximum is None else max(maximum, count)
            seen += 1
        if limit is not None and seen >= limit:
            complete = False
    except BudgetExceededError:
        complete = False
    if minimum is None:
        return CountResult(0, 0, seen, complete, complete)
    return CountResult(minimum, maximum, seen, complete, False)


# ---------------------------------------------------------------------------
# Equipollence, cardinal successor, diagonal experiments

def equipollent(model: KripkeModel, p: int, q: int) -> bool:
    """True iff some single enumerated map is, at every world, a bijection
    between p's and q's extensions."""
    scope = model.scope
    m = scope.num_entities
    for s in (p, q):
        _check_position(s, PROPERTY_TYPE, scope, "modal set")
    denotation_size(Fun(Ind, Ind), scope)  # enforce the enumeration cap
    p_ext = _holding(p, PROPERTY_TYPE, scope)
    q_ext = [frozenset(ext) for ext in _holding(q, PROPERTY_TYPE, scope)]
    if any(len(a) != len(b) for a, b in zip(p_ext, q_ext)):
        return False
    # The extensions have equal sizes, so a map onto q's is a bijection.
    return any(all(frozenset(fn[e] for e in a) == b for a, b in zip(p_ext, q_ext))
               for fn in itertools.product(range(m), repeat=m))


def equipollence_class(model: KripkeModel, p: int) -> frozenset[int]:
    size = denotation_size(PROPERTY_TYPE, model.scope)
    return frozenset(q for q in range(size) if equipollent(model, q, p))


def successor_cardinal_check(model: KripkeModel, k: int) -> bool:
    """The successor construction applied to the class of a rigid k-element
    set yields exactly the class of rigid (k+1)-element sets."""
    m, base, _ = table_view(PROPERTY_TYPE, model.scope)
    if k < 0 or k + 1 > m:
        raise HomlError(f"successor of a {k}-element set needs {k + 1} <= m = {m}")
    full = base - 1
    # The rigid set of the first j entities: their rows hold at every world.
    rigid = lambda j: position([full] * j + [0] * (m - j), base)
    successor_class = set()
    for p in equipollence_class(model, rigid(k)):
        rows = digits(p, m, base)
        for z in range(m):
            if rows[z]:
                continue  # z must be fresh for p at every world
            extended = position(rows[:z] + [full] + rows[z + 1:], base)
            successor_class |= equipollence_class(model, extended)
    return successor_class == equipollence_class(model, rigid(k + 1))


def surjection_exists(model: KripkeModel) -> bool:
    """Whether a total map from the entities onto the modal sets that ``P``
    holds positive at world 0 exists: exactly when there is such a set and
    there are no more of them than entities (send one entity to each set,
    the rest to any)."""
    k = len(positive_sets(model))
    return 0 < k <= model.scope.num_entities


def diagonal_witness(model: KripkeModel, mapping: Sequence[int]) -> tuple[int, bool]:
    """Per-world diagonal of a map entity -> modal set: D(x)(w) = not F(x)(x)(w).

    Returns the diagonal set and whether it lies outside the range of the map.
    """
    m, base, _ = table_view(PROPERTY_TYPE, model.scope)
    if len(mapping) != m:
        raise HomlError(f"mapping must assign a modal set to each of the {m} entities")
    for f in mapping:
        _check_position(f, PROPERTY_TYPE, model.scope, "modal set")
    full = base - 1
    diag = position([full ^ digits(f, m, base)[e] for e, f in enumerate(mapping)], base)
    return diag, diag not in mapping
