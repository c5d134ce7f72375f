"""Semantic experiments over models: modal filters and ultrafilters, positive
property counting, equipollence and cardinal successor checks, and the
finite diagonal/surjection experiments."""

from __future__ import annotations

import itertools
import operator
from dataclasses import replace
from typing import Callable, Iterable, Optional, Sequence

from .errors import BudgetExceededError, HomlError
from .frozen import Frozen
from .grounder import GroundProblem, ground, iterate_models
from .logictypes import Fun, Ind, Prop
from .semantics import (
    KripkeModel,
    Scope,
    denotation_size,
    digits,
    position,
)
from .solver import DEFAULT_CONFLICT_BUDGET
from .theory import Theory

PROPERTY_TYPE = Fun(Ind, Prop)
FAMILY_TYPE = Fun(PROPERTY_TYPE, Prop)


class ModalSet(Frozen):
    """A world-relativised predicate over individuals: table[e][w]."""

    table: tuple[tuple[bool, ...], ...]

    @property
    def num_entities(self):
        return len(self.table)

    @property
    def num_worlds(self):
        return len(self.table[0])

    # A Fun(Ind, Prop) value is m entries in base 2^n, each a row of n
    # world bits.

    @classmethod
    def from_index(cls, i: int, scope: Scope) -> "ModalSet":
        n, m = scope.num_worlds, scope.num_entities
        return cls(tuple(tuple(bit == 1 for bit in digits(row, n, 2))
                         for row in digits(i, m, 2 ** n)))

    @classmethod
    def rigid(cls, entities, m: int, n: int) -> "ModalSet":
        chosen = set(entities)
        return cls(tuple(tuple(e in chosen for _ in range(n)) for e in range(m)))

    def index(self, scope: Scope) -> int:
        return position((position(row, 2) for row in self.table), 2 ** scope.num_worlds)

    def extension(self, world: int) -> frozenset[int]:
        return frozenset(e for e in range(self.num_entities) if self.table[e][world])

    def complement(self) -> "ModalSet":
        return ModalSet(tuple(tuple(not v for v in row) for row in self.table))

    def intersect(self, other: "ModalSet") -> "ModalSet":
        return ModalSet(
            tuple(
                tuple(a and b for a, b in zip(ra, rb))
                for ra, rb in zip(self.table, other.table)
            )
        )

    def rigid_subset_of(self, other: "ModalSet") -> bool:
        """Inclusion at every world."""
        return all(
            (not a) or b
            for ra, rb in zip(self.table, other.table)
            for a, b in zip(ra, rb)
        )


def all_modal_sets(scope: Scope) -> list[ModalSet]:
    size = denotation_size(PROPERTY_TYPE, scope)
    return [ModalSet.from_index(i, scope) for i in range(size)]


class PropertyFamily(Frozen):
    """A modal set of modal sets: membership[property index][world]."""

    scope: Scope
    membership: tuple[tuple[bool, ...], ...]

    @classmethod
    def from_model(cls, model: KripkeModel, constant: str) -> "PropertyFamily":
        i = model.positions.get(constant)
        if i is None:
            raise HomlError(f"model does not interpret constant {constant!r}")
        if model.constant_types[constant] != FAMILY_TYPE:
            raise HomlError(f"constant {constant!r} is not a property family")
        # A family is one prop entry per property, each a row of n world bits.
        n = model.scope.num_worlds
        size = denotation_size(PROPERTY_TYPE, model.scope)
        return cls(model.scope, tuple(tuple(bit == 1 for bit in digits(row, n, 2))
                                      for row in digits(i, size, 2 ** n)))


class FilterReport(Frozen):
    per_world: tuple[bool, ...]
    failures: tuple[str, ...]

    @property
    def globally(self) -> bool:
        return all(self.per_world)


def _check_scope(model: KripkeModel, family: PropertyFamily):
    if family.scope.num_worlds != model.scope.num_worlds or \
            family.scope.num_entities != model.scope.num_entities:
        raise HomlError(f"family scope {family.scope} does not match model scope {model.scope}")


def _filter_report(num_worlds: int, universe: Sequence, member: Callable, full, empty,
                   leq: Callable, meet: Callable,
                   complement: Optional[Callable] = None) -> FilterReport:
    """The filter conditions on a finite lattice, per world: the full set is a
    member, the empty set is not, members are upward closed under ``leq`` and
    closed under ``meet``. With a ``complement``, also maximality: each set or
    its complement is a member."""
    per_world = []
    failures = []
    for w in range(num_worlds):
        members = [s for s in universe if member(s, w)]
        bad = []
        if not member(full, w):
            bad.append("full set not a member")
        if member(empty, w):
            bad.append("empty set is a member")
        bad += [f"not upward closed at {a} <= {b}"
                for a in members for b in universe if leq(a, b) and not member(b, w)]
        bad += [f"not closed under meet at {a}, {b}"
                for a in members for b in members if not member(meet(a, b), w)]
        if complement is not None:
            bad += [f"neither {s} nor its complement is a member"
                    for s in universe if not member(s, w) and not member(complement(s), w)]
        per_world.append(not bad)
        failures += [f"w{w}: {f}" for f in bad]
    return FilterReport(tuple(per_world), tuple(failures))


def _modal_set_report(model: KripkeModel, family: PropertyFamily,
                      complement: Optional[Callable] = None) -> FilterReport:
    """The filter conditions over all modal sets, ordered by every-world
    inclusion with world-wise intersection as meet."""
    scope = model.scope
    m, n = scope.num_entities, scope.num_worlds
    sets = all_modal_sets(scope)
    position = {s: j for j, s in enumerate(sets)}
    return _filter_report(
        n, sets, lambda s, w: family.membership[position[s]][w],
        ModalSet.rigid(range(m), m, n), ModalSet.rigid((), m, n),
        ModalSet.rigid_subset_of, ModalSet.intersect, complement)


def is_modal_filter(model: KripkeModel, family: PropertyFamily) -> FilterReport:
    """The four filter conditions, per world: contains the full set, excludes
    the empty set, upward closed under every-world inclusion, closed under
    world-wise intersection."""
    _check_scope(model, family)
    return _modal_set_report(model, family)


def is_modal_ultrafilter(model: KripkeModel, family: PropertyFamily,
                         mode: str = "intension") -> FilterReport:
    """Filter conditions plus maximality: each modal set or its world-wise
    complement is a member. In extension mode the conditions are evaluated on
    world-projected extensions instead."""
    _check_scope(model, family)
    if mode == "intension":
        return _modal_set_report(model, family, ModalSet.complement)
    if mode != "extension":
        raise HomlError(f"unknown ultrafilter mode {mode!r}")
    scope = model.scope
    n, m = scope.num_worlds, scope.num_entities
    full = frozenset(range(m))
    universe = [frozenset(c) for r in range(m + 1) for c in itertools.combinations(range(m), r)]
    sets = all_modal_sets(scope)
    extensions = [{s.extension(w) for s, row in zip(sets, family.membership) if row[w]}
                  for w in range(n)]
    return _filter_report(n, universe, lambda a, w: a in extensions[w], full, frozenset(),
                          operator.le, operator.and_, full.__sub__)


# ---------------------------------------------------------------------------
# Positive property counting

def positive_sets(model: KripkeModel, constant: str = "P", world: int = 0,
                  strict: bool = False) -> list[ModalSet]:
    """Modal sets the family holds positive: at the designated world by
    default, at every world in strict mode."""
    family = PropertyFamily.from_model(model, constant)
    out = []
    for j, row in enumerate(family.membership):
        hit = all(row) if strict else row[world]
        if hit:
            out.append(ModalSet.from_index(j, model.scope))
    return out


def distinct_positive_count(model: KripkeModel, constant: str = "P", world: int = 0,
                            strict: bool = False) -> int:
    """Number of pairwise structurally-distinct positive modal sets."""
    return len(positive_sets(model, constant, world, strict))


class CountResult(Frozen):
    minimum: int
    maximum: int
    model_count: int
    complete: bool
    empty_model_class: bool


def _exactly_k_clauses(problem: GroundProblem, k: int, world: int) -> list[list[int]]:
    """Exactly k entities satisfy existsAt at the given world."""
    vars_at_w = [problem.ex_vars[e][world] for e in range(len(problem.ex_vars))]
    m = len(vars_at_w)
    if k > m:
        raise HomlError(f"cannot require {k} existing entities with only {m} in scope")
    clauses = []
    for combo in itertools.combinations(vars_at_w, k + 1):
        clauses.append([-v for v in combo])
    for combo in itertools.combinations(vars_at_w, m - k + 1):
        clauses.append(list(combo))
    return clauses


def min_positive_count(theory: Theory, scope: Scope, constant: str = "P",
                       world: int = 0, strict: bool = False,
                       entity_mode: str = "possibilist",
                       entities: Optional[int] = None,
                       budget: int = DEFAULT_CONFLICT_BUDGET,
                       model_limit: Optional[int] = None) -> CountResult:
    """Minimum of distinct_positive_count over every model at the scope.

    "Exactly k entities" defaults to the possibilist reading (the scope's
    entity count is k); the actualist reading instead constrains how many
    entities satisfy existsAt at the designated world.
    """
    if not 0 <= world < scope.num_worlds:
        raise HomlError(f"counting world {world} is not one of the {scope.num_worlds} "
                        f"worlds of scope {scope}")
    if entities is not None and entities < 0:
        raise HomlError(f"the actualist entity count must be >= 0, got {entities}")
    if dict(theory.signature).get(constant) != FAMILY_TYPE:
        raise HomlError(f"theory has no property family constant {constant!r}")
    problem = ground(theory, scope)
    if entity_mode == "actualist":
        if entities is None:
            raise HomlError("actualist entity mode requires an entity count")
        extra = _exactly_k_clauses(problem, entities, world)
        problem = replace(problem, clauses=problem.clauses + extra)
    elif entity_mode != "possibilist":
        raise HomlError(f"unknown entity mode {entity_mode!r}")
    return count_positive(iterate_models(problem, budget=budget), constant, world, strict,
                          model_limit)


def count_positive(models: Iterable[KripkeModel], constant: str = "P", world: int = 0,
                   strict: bool = False, limit: Optional[int] = None) -> CountResult:
    """Minimum and maximum of distinct_positive_count over the first ``limit``
    models; incomplete when the limit is reached or the solver budget runs
    out while the models are produced."""
    minimum = None
    maximum = None
    seen = 0
    complete = True
    try:
        for model in itertools.islice(models, limit):
            count = distinct_positive_count(model, constant, world, strict)
            minimum = count if minimum is None else min(minimum, count)
            maximum = count if maximum is None else max(maximum, count)
            seen += 1
        if limit is not None and seen >= limit:
            complete = False
    except BudgetExceededError:
        complete = False
    if minimum is None:
        return CountResult(0, 0, seen, complete, True)
    return CountResult(minimum, maximum, seen, complete, False)


# ---------------------------------------------------------------------------
# Equipollence, cardinal successor, diagonal experiments

def equipollent(model: KripkeModel, p: ModalSet, q: ModalSet) -> bool:
    """True iff some single enumerated map is, at every world, a bijection
    between p's and q's extensions."""
    scope = model.scope
    m = scope.num_entities
    denotation_size(Fun(Ind, Ind), scope)  # enforce the enumeration cap
    worlds = range(scope.num_worlds)
    p_ext = [p.extension(w) for w in worlds]
    q_ext = [q.extension(w) for w in worlds]
    if any(len(a) != len(b) for a, b in zip(p_ext, q_ext)):
        return False
    for fn in itertools.product(range(m), repeat=m):
        if all(
            frozenset(fn[e] for e in p_ext[w]) == q_ext[w]
            and len({fn[e] for e in p_ext[w]}) == len(p_ext[w])
            for w in worlds
        ):
            return True
    return False


def equipollence_class(model: KripkeModel, p: ModalSet) -> frozenset[ModalSet]:
    return frozenset(q for q in all_modal_sets(model.scope) if equipollent(model, q, p))


def successor_cardinal_check(model: KripkeModel, k: int) -> bool:
    """The successor construction applied to the class of a rigid k-element
    set yields exactly the class of rigid (k+1)-element sets."""
    scope = model.scope
    m, n = scope.num_entities, scope.num_worlds
    if k < 0 or k + 1 > m:
        raise HomlError(f"successor of a {k}-element set needs {k + 1} <= m = {m}")
    base = ModalSet.rigid(range(k), m, n)
    target = ModalSet.rigid(range(k + 1), m, n)
    base_class = equipollence_class(model, base)
    target_class = equipollence_class(model, target)
    successor_class = set()
    sets = all_modal_sets(scope)
    for p in base_class:
        for z in range(m):
            if any(p.table[z][w] for w in range(n)):
                continue  # z must be fresh for p at every world
            extended = ModalSet(
                tuple(
                    tuple(p.table[e][w] or e == z for w in range(n))
                    for e in range(m)
                )
            )
            for q in sets:
                if equipollent(model, q, extended):
                    successor_class.add(q)
    return successor_class == set(target_class)


def surjection_exists(model: KripkeModel, constant: str = "P", world: int = 0,
                      strict: bool = False) -> bool:
    """Whether any total map from entities onto the positive modal sets exists
    (exhaustive over enumerated maps)."""
    positives = positive_sets(model, constant, world, strict)
    m = model.scope.num_entities
    if not positives:
        return False
    if len(positives) > m:
        return False
    for image in itertools.product(range(len(positives)), repeat=m):
        if len(set(image)) == len(positives):
            return True
    return False


def diagonal_witness(model: KripkeModel, mapping: Sequence[ModalSet]) -> tuple[ModalSet, bool]:
    """Per-world diagonal of a map entity -> modal set: D(x)(w) = not F(x)(x)(w).

    Returns the diagonal set and whether it lies outside the range of the map.
    """
    scope = model.scope
    m, n = scope.num_entities, scope.num_worlds
    if len(mapping) != m:
        raise HomlError(f"mapping must assign a modal set to each of the {m} entities")
    diag = ModalSet(
        tuple(tuple(not mapping[e].table[e][w] for w in range(n)) for e in range(m))
    )
    outside = all(diag != mapping[e] for e in range(m))
    return diag, outside
