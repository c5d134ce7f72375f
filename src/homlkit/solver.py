"""Incremental CDCL SAT solver.

Two-watched-literal propagation, first-UIP clause learning and
non-chronological backjumping, in the style of MiniSat (Eén & Sörensson,
SAT 2003). The decision order is static: the lowest unassigned variable,
tried false first. There are no restarts and no clause deletion, and learned
clauses stay valid when clauses are added, so one `Solver` can answer a
sequence of calls that each add clauses, such as model enumeration with
blocking clauses.

Clauses enter by one loader, `Solver.add_clauses`, which the constructor
also calls. It checks the range of every literal before it adds
any clause, then backjumps to level 0 once and simplifies each clause there
as MiniSat does: duplicate literals are dropped, tautologies and satisfied
clauses skipped, false literals removed; an empty clause makes the solver
unsatisfiable, a unit is assigned, and any other clause is watched on its
first two literals. A two-literal clause, most of what the grounder emits,
is simplified by comparing its literals and their two values. Loading a
list of clauses at once and loading them one by one build the same watch
lists and trail, so they meet the same conflicts.

The first model found is the lexicographically least one (variable 1 first,
false before true). Because every decision sets the lowest unassigned
variable false and the search never restarts, a literal implied at decision
level d is implied by the clauses (original and learned, which the original
clauses entail) together with the decisions at levels 1..d, all of them false
literals on lower variables. So if the returned model M sets v true, every
model that agrees with M below v also sets v true, and no model is less than
M. Enumeration order, and every model decoded from the solver, depend only
on the clauses, not on the conflicts the search happened to meet.

Enumeration resumes from the model it found rather than from level 0. After
a SAT answer the solver keeps its trail, and `Solver.block(k)` adds the
clause that negates the model's decisions on variables 1..k. Those decisions
opened the first decision levels, so the clause is asserting: the solver
backjumps to the level below its deepest literal, sets that literal, and the
next `solve` goes on from there. The argument above still holds for the
resumed search. A blocking clause is one of the clauses, and the literal it
asserts is implied by the clauses and the decisions at lower levels. So every
`solve` returns the least model of the clauses added so far, and blocking
each model in turn yields the projections in lexicographic order.
"""

from itertools import chain, compress
from operator import not_

SAT = 10
UNSAT = 20
UNKNOWN = 0

DEFAULT_CONFLICT_BUDGET = 10_000_000

_CHECK_CHUNK = 4096  # clauses whose literals `add_clauses` range-checks at once


class Solver:
    """A CNF over variables 1..num_vars that accepts clauses between solves."""

    def __init__(self, num_vars, clauses=()):
        self.num_vars = num_vars
        size = 2 * num_vars + 1
        # Indexed by literal: v at v and -v at -v, which a list of odd
        # length wraps to the upper half.
        self._value = [0] * size  # 1 true, -1 false, 0 unassigned
        self._watches = [[] for _ in range(size)]
        # Indexed by variable.
        self._level = [0] * (num_vars + 1)
        self._reason = [None] * (num_vars + 1)  # implying clause, its lit 0 first
        self._seen = [False] * (num_vars + 1)
        self._trail = []
        self._trail_lim = []  # trail length at each decision
        self._qhead = 0
        self._ok = True  # False once the clauses are known unsatisfiable
        self.add_clauses(clauses)

    def add_clauses(self, clauses):
        """Add clauses, each a sequence of literals, as MiniSat adds them at
        decision level 0.

        Every literal of every clause is checked first: a literal that is 0
        or beyond num_vars raises `ValueError` naming it, and then no clause
        is added and the solver is left as it was. Otherwise the solver
        backjumps to level 0, where assigned literals are final, and takes
        the clauses in order. A clause's duplicate literals are dropped, and
        a tautology or a clause already satisfied is skipped. Its false
        literals are removed: none left makes the solver unsatisfiable, one
        is assigned, and two or more are watched on the first two. A clause
        of two distinct literals gets the same outcome from comparing its
        literals and their values, with no set or list built. The solver
        stores its own copy of each clause, and the caller's are never
        changed.
        """
        if not isinstance(clauses, (list, tuple)):
            clauses = list(clauses)
        num_vars = self.num_vars
        # In chunks, so the flat copy of the literals stays small.
        for start in range(0, len(clauses), _CHECK_CHUNK):
            chunk = clauses[start:start + _CHECK_CHUNK]
            flat = list(chain.from_iterable(chunk))
            if flat and (min(flat) < -num_vars or max(flat) > num_vars or 0 in flat):
                lit = next(lit for lit in flat if lit == 0 or abs(lit) > num_vars)
                raise ValueError(f"literal {lit} out of range")
        if not clauses:
            return
        if self._trail_lim:
            self._backjump(0)
        if not self._ok:
            return  # already unsatisfiable
        value = self._value
        value_of = value.__getitem__
        watches = self._watches
        trail = self._trail
        for clause in clauses:
            if len(clause) == 2:
                a, b = clause
                if a == -b:
                    continue  # a tautology
                if a != b:
                    x, y = value[a], value[b]
                    if not (x or y):
                        lits = [a, b]
                        watches[a].append(lits)
                        watches[b].append(lits)
                    elif x != 1 and y != 1:  # not satisfied at level 0
                        if x and y:
                            self._ok = False
                            return
                        self._assign(b if x else a, None)
                    continue
            lits = clause
            if len(set(map(abs, lits))) < len(lits):
                lits = list(dict.fromkeys(lits))
                if len(set(map(abs, lits))) < len(lits):
                    continue  # a tautology
            if trail and any(map(value_of, lits)):
                values = list(map(value_of, lits))
                if 1 in values:
                    continue  # satisfied at level 0
                lits = list(compress(lits, map(not_, values)))
            if len(lits) > 1:
                if lits is clause:
                    lits = list(clause)  # its own copy: propagation reorders it
                watches[lits[0]].append(lits)
                watches[lits[1]].append(lits)
            elif lits:
                self._assign(lits[0], None)
            else:
                self._ok = False
                return

    def solve(self, conflict_budget=DEFAULT_CONFLICT_BUDGET):
        """Search for a model of the clauses added so far.

        Returns (status, model, conflicts): model is a list of num_vars 0/1
        values (index 0 = variable 1) when status is SAT, else None. UNKNOWN
        means the conflict budget ran out. After SAT the solver keeps the
        model on its trail for `block`; otherwise it is left at level 0.
        """
        conflicts = 0
        if not self._ok:
            return UNSAT, None, conflicts
        value = self._value
        trail = self._trail
        trail_lim = self._trail_lim
        num_vars = self.num_vars
        # Every variable below it is assigned: decisions go lowest first.
        next_var = -trail[trail_lim[-1]] if trail_lim else 1
        while True:
            conflict = self._propagate()
            if conflict is not None:
                if not trail_lim:
                    self._ok = False
                    return UNSAT, None, conflicts
                conflicts += 1
                if conflicts >= conflict_budget:
                    self._backjump(0)
                    return UNKNOWN, None, conflicts
                learnt, level = self._analyze(conflict)
                # The decision that opened level+1 was on the lowest variable
                # unassigned at levels up to `level`.
                next_var = -trail[trail_lim[level]]
                self._backjump(level)
                if len(learnt) > 1:
                    self._watches[learnt[0]].append(learnt)
                    self._watches[learnt[1]].append(learnt)
                    self._assign(learnt[0], learnt)
                else:
                    self._assign(learnt[0], None)
                continue
            v = next_var
            while v <= num_vars and value[v] != 0:
                v += 1
            if v > num_vars:
                model = [1 if value[x] == 1 else 0 for x in range(1, num_vars + 1)]
                return SAT, model, conflicts
            next_var = v
            trail_lim.append(len(trail))
            self._assign(-v, None)

    def block(self, k):
        """Exclude every model that agrees with the last model found on
        variables 1..k, and resume the search from that model.

        Call it after `solve` answered SAT. The clause added negates the
        model's decisions on variables 1..k: decisions go lowest variable
        first, so they opened the first L levels, and with the clauses they
        imply the model's value of every variable up to k. The clause is
        asserting: the solver backjumps to level L-1 and sets its deepest
        literal there, and the next `solve` resumes from that point.

        The clause is watched on that literal and on the first decision's,
        with the rest in ascending order. The usual pair, its two deepest
        literals, sits on the variables that later models reassign most
        often, so each model found would visit many earlier blocking
        clauses; the first decision changes least often. A watched literal
        that is already false can delay a propagation of the clause, never
        a conflict: the clause is examined whenever its other watched
        literal is falsified.
        """
        if not 0 <= k <= self.num_vars:
            raise ValueError(f"projection size {k} out of range")
        trail = self._trail
        if not self._ok or len(trail) < self.num_vars:
            raise ValueError("block needs the model of the last solve")
        # A decision sets its variable false, so its negation is the variable.
        lits = []
        for mark in self._trail_lim:
            v = -trail[mark]
            if v > k:
                break
            lits.append(v)
        level = len(lits)
        if level == 0:
            self._ok = False  # variables 1..k are fixed at level 0
            self._backjump(0)
            return
        self._backjump(level - 1)
        if level == 1:
            self._assign(lits[0], None)
            return
        clause = [lits[-1], *lits[:-1]]
        self._watches[clause[0]].append(clause)
        self._watches[clause[1]].append(clause)
        self._assign(clause[0], clause)

    def _assign(self, lit, reason):
        value = self._value
        value[lit] = 1
        value[-lit] = -1
        v = abs(lit)
        self._level[v] = len(self._trail_lim)
        self._reason[v] = reason
        self._trail.append(lit)

    def _propagate(self):
        """Unit propagation over the unpropagated trail; the falsified clause
        on conflict, else None."""
        value = self._value
        watches = self._watches
        level = self._level
        reason = self._reason
        trail = self._trail
        current = len(self._trail_lim)
        qhead = self._qhead
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            ws = watches[false_lit]
            i = j = 0
            end = len(ws)
            while i < end:
                clause = ws[i]
                i += 1
                # Keep the falsified watch at position 1.
                if clause[0] == false_lit:
                    clause[0] = clause[1]
                    clause[1] = false_lit
                first = clause[0]
                if value[first] == 1:
                    ws[j] = clause
                    j += 1
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if value[lit] != -1:
                        clause[1] = lit
                        clause[k] = false_lit
                        watches[lit].append(clause)
                        break
                else:
                    ws[j] = clause
                    j += 1
                    if value[first] == -1:
                        del ws[j:i]
                        self._qhead = len(trail)
                        return clause
                    value[first] = 1
                    value[-first] = -1
                    v = abs(first)
                    level[v] = current
                    reason[v] = clause
                    trail.append(first)
            del ws[j:]
        self._qhead = qhead
        return None

    def _analyze(self, conflict):
        """First-UIP learned clause (asserting literal first, a literal of
        the backjump level second) and the level to backjump to."""
        seen = self._seen
        level = self._level
        reason = self._reason
        trail = self._trail
        current = len(self._trail_lim)
        learnt = [0]
        marked = []
        pending = 0  # seen literals of the current level not yet resolved
        index = len(trail) - 1
        clause = conflict
        while True:
            # Seen variables stay marked until the end, so the implied
            # literal at position 0 of a reason clause is skipped.
            for lit in clause:
                v = abs(lit)
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    marked.append(v)
                    if level[v] == current:
                        pending += 1
                    else:
                        learnt.append(lit)
            while not seen[abs(trail[index])]:
                index -= 1
            uip = trail[index]
            index -= 1
            pending -= 1
            if pending == 0:
                break
            clause = reason[abs(uip)]
        for v in marked:
            seen[v] = False
        learnt[0] = -uip
        if len(learnt) == 1:
            return learnt, 0
        best = max(range(1, len(learnt)), key=lambda k: level[abs(learnt[k])])
        learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt, level[abs(learnt[1])]

    def _backjump(self, target):
        trail_lim = self._trail_lim
        if len(trail_lim) <= target:
            return
        mark = trail_lim[target]
        value = self._value
        trail = self._trail
        for lit in trail[mark:]:
            value[lit] = 0
            value[-lit] = 0
        del trail[mark:]
        del trail_lim[target:]
        self._qhead = mark


def solve_cnf(num_vars, clauses, conflict_budget=DEFAULT_CONFLICT_BUDGET):
    """Solve a CNF over variables 1..num_vars in one call; see `Solver.solve`."""
    return Solver(num_vars, clauses).solve(conflict_budget)
