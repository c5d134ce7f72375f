"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single pass/fail line (shown with `pytest -s`, or in the captured
output). Run the whole suite with:

    pytest tests/test_acceptance.py -v -s
"""

import functools
import hashlib
import itertools
import json
import pathlib
import time

from homlkit.analysis import (
    FAMILY_TYPE,
    is_modal_ultrafilter,
    min_positive_count,
    successor_cardinal_check,
)
from homlkit.cli import main as cli_main
from homlkit.grounder import check_validity_bounded, enumerate_models, find_model
from homlkit.logictypes import Prop
from homlkit.semantics import (
    Countermodel,
    KripkeModel,
    Scope,
    ValidUpToScope,
    model_from_json,
    position,
    position_to_json,
)
from homlkit.theories import check_church_postulates, load_bundle
from reference import brute_force_find_model, count_full_models, holds_at, mvalid


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} ({label}): FAIL")
                raise
            print(f"criterion {num:2d} ({label}): PASS [{time.time() - start:.1f}s]")
        return wrapper
    return deco


def run_cli(argv, capsys):
    code = cli_main(argv)
    return code, capsys.readouterr().out


GOEDEL = load_bundle("goedel")
SCOPES_LE_2 = [Scope(1, 1), Scope(1, 2), Scope(2, 1), Scope(2, 2)]


@criterion(1, "goedel consistency")
def test_criterion_1_goedel_consistency(capsys):
    start = time.time()
    code, out = run_cli(["find-model", "--bundle", "goedel", "--scope", "1,1"], capsys)
    elapsed = time.time() - start
    assert code == 0
    report = json.loads(out)
    assert report["result"]["verdict"] == "satisfiable"
    model = model_from_json(report["result"]["model"])
    assert model.scope.num_worlds <= 2 and model.scope.num_entities <= 2
    for ax in GOEDEL.theory.axioms:
        assert mvalid(model, ax)
    assert elapsed <= 10.0


@criterion(2, "goedel validity at scope")
def test_criterion_2_goedel_validity():
    for quantifier in ("actualist", "possibilist"):
        bundle = load_bundle("goedel", quantifier=quantifier)
        for scope in SCOPES_LE_2:
            start = time.time()
            verdict = check_validity_bounded(bundle.theory, bundle.theory.goals[0], scope)
            assert isinstance(verdict, ValidUpToScope), (quantifier, scope)
            assert time.time() - start <= 60.0


@criterion(3, "positive property counts")
def test_criterion_3_positive_counts(capsys):
    start = time.time()
    code, out = run_cli(["count-positive", "--bundle", "goedel", "--entities", "2"], capsys)
    assert code == 0 and json.loads(out)["minimum"] == 2
    code, out = run_cli(["count-positive", "--bundle", "goedel", "--entities", "3"], capsys)
    assert code == 0 and json.loads(out)["minimum"] == 4
    # Reported (not asserted) at two worlds, within a bounded model budget.
    two_world = min_positive_count(GOEDEL.theory, Scope(2, 2), model_limit=64)
    print(f"  [report] scope (2,2): min={two_world.minimum} max={two_world.maximum} "
          f"models={two_world.model_count} complete={two_world.complete}")
    assert time.time() - start <= 300.0


def _criteria_1_to_3_models():
    models = [find_model(GOEDEL.theory, Scope(1, 1))]
    for m in (2, 3):
        models.extend(enumerate_models(GOEDEL.theory, Scope(1, m)))
    models.extend(enumerate_models(GOEDEL.theory, Scope(2, 2), limit=64))
    return models


@criterion(4, "ultrafilter theorem, finite form")
def test_criterion_4_ultrafilter():
    mode = GOEDEL.manifest["ultrafilter_mode"]
    models = _criteria_1_to_3_models()
    failures = 0
    for model in models:
        if not is_modal_ultrafilter(model, "P", mode).globally:
            failures += 1
    assert models
    assert failures == 0


@criterion(5, "church postulate suite")
def test_criterion_5_church():
    start = time.time()
    results = check_church_postulates(Scope(2, 2))
    assert all(r.as_expected for r in results)
    nontrivial = {r.label: r for r in results}["bool_ext_nontrivial"].verdict
    assert isinstance(nontrivial, Countermodel)
    model, world = nontrivial.model, nontrivial.world
    # Isomorphic to the two-world countermodel: total accessibility, the first
    # proposition false everywhere, the second true at exactly one world, and
    # the goal evaluated at the world where both are false.
    assert model.scope.num_worlds == 2
    assert all(model.accessibility[w][v] for w in range(2) for v in range(2))
    p_bits = position_to_json(model.positions["p"], Prop, model.scope)
    q_bits = position_to_json(model.positions["q"], Prop, model.scope)
    assert p_bits == [False, False]
    assert sum(q_bits) == 1
    assert q_bits[world] is False
    one_world = check_church_postulates(Scope(1, 2))
    by_label = {r.label: r for r in one_world}
    assert isinstance(by_label["bool_ext_nontrivial"].verdict, ValidUpToScope)
    assert all(r.as_expected for r in one_world)
    assert time.time() - start <= 60.0


@criterion(6, "frame logic sanity")
def test_criterion_6_frame_logics():
    expected_valid = {
        "k": {"K"},
        "t": {"K", "T"},
        "s4": {"K", "T", "4"},
        "s5": {"K", "T", "4", "5"},
    }
    scope = Scope(3, 2)
    for bundle_id, valid_set in expected_valid.items():
        bundle = load_bundle(bundle_id)
        for label, goal in zip(bundle.goal_labels, bundle.theory.goals):
            verdict = check_validity_bounded(bundle.theory, goal, scope)
            if label in valid_set:
                assert isinstance(verdict, ValidUpToScope), (bundle_id, label)
            else:
                assert isinstance(verdict, Countermodel), (bundle_id, label)
                assert not holds_at(verdict.model, goal, verdict.world)


def _bundled_suite():
    out = []
    for bundle_id in ("k", "t", "s4", "s5", "church", "filters", "goedel", "modal_math"):
        out.append((bundle_id, load_bundle(bundle_id).theory))
    out.append(("goedel/possibilist", load_bundle("goedel", quantifier="possibilist").theory))
    out.append(("goedel/1970", load_bundle("goedel", formulation="goedel-1970").theory))
    out.append(("goedel/1970-possibilist",
                load_bundle("goedel", quantifier="possibilist",
                            formulation="goedel-1970").theory))
    out.append(("modal_math/infinity", load_bundle("modal_math", extension="infinity").theory))
    return out


@criterion(7, "oracle equivalence")
def test_criterion_7_oracle_equivalence():
    grid = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 2)]
    agreements = 0
    for label, theory in _bundled_suite():
        for n, m in grid:
            scope = Scope(n, m)
            try:
                work = count_full_models(theory.signature, scope)
            except Exception:
                continue
            if work > 10 ** 6:
                continue
            oracle = brute_force_find_model(theory, scope)
            found = find_model(theory, scope)
            assert (oracle is None) == (found is None), (label, n, m)
            if found is not None:
                assert found.satisfies_frame(theory.frame_flags), (label, n, m)
                for ax in theory.axioms:
                    assert mvalid(found, ax), (label, n, m)
            agreements += 1
    print(f"  [report] {agreements} (theory, scope) pairs agree")
    assert agreements >= 40


def _classical_is_ultrafilter(m, extensions):
    universe = frozenset(range(m))
    family = set(extensions)
    if universe not in family or frozenset() in family:
        return False
    subsets = [frozenset(c) for r in range(m + 1)
               for c in itertools.combinations(range(m), r)]
    for a in family:
        if any(a <= b and b not in family for b in subsets):
            return False
        if any((a & b) not in family for b in family):
            return False
    return all(a in family or (universe - a) in family for a in subsets)


@criterion(8, "filter oracle")
def test_criterion_8_filter_oracle():
    for m in (1, 2, 3):
        scope = Scope(1, m)
        model = KripkeModel(scope, ((True,),), tuple((True,) for _ in range(m)))
        # At one world a modal set's position is its m-bit entity mask, and
        # a family's position is its membership bits read as one number.
        sets = range(2 ** m)
        ultra_count = 0
        for bits in itertools.product([False, True], repeat=len(sets)):
            members = [s for s, b in zip(sets, bits) if b]
            family = KripkeModel(scope, model.accessibility, model.exists_at,
                                 constant_types={"P": FAMILY_TYPE},
                                 positions={"P": position(bits, 2)})
            extensions = [frozenset(e for e in range(m) if s >> (m - 1 - e) & 1)
                          for s in members]
            expected = _classical_is_ultrafilter(m, extensions)
            assert is_modal_ultrafilter(family, "P", "intension").globally == expected
            ultra_count += expected
        assert ultra_count == m


@criterion(9, "modal math")
def test_criterion_9_modal_math():
    for n in (1, 2):
        for m in (1, 2, 3):
            scope = Scope(n, m)
            model = KripkeModel(
                scope,
                tuple(tuple(True for _ in range(n)) for _ in range(n)),
                tuple(tuple(True for _ in range(n)) for _ in range(m)),
            )
            for k in range(m):
                assert successor_cardinal_check(model, k), (n, m, k)
    infinity = load_bundle("modal_math", extension="infinity")
    for check in infinity.manifest["models"]:
        if check.get("variant") != "infinity":
            continue
        assert find_model(infinity.theory, Scope(*check["scope"])) is None, check


DETERMINISM_INVOCATIONS = [
    ["goedel-suite"],
    ["church-suite"],
    ["check", "--bundle", "goedel", "--scope", "2,2"],
    ["check", "--bundle", "goedel", "--quantifier", "possibilist", "--scope", "2,2"],
    ["count-positive", "--bundle", "goedel", "--entities", "2"],
    ["count-positive", "--bundle", "goedel", "--entities", "3"],
    ["find-model", "--bundle", "goedel", "--scope", "1,2"],
    ["enumerate", "--bundle", "filters", "--scope", "1,2", "--limit", "8"],
    ["check", "--bundle", "modal_math", "--scope", "2,2"],
]


# One "<sha256>  <argv>" line per invocation: the digest of its first run's
# chunk (header line plus stdout). When a report changes on purpose, the
# file is replaced by the lines the failing assertion prints.
DETERMINISM_DIGESTS = pathlib.Path(__file__).parent / "data" / "determinism.sha256"


@criterion(10, "determinism")
def test_criterion_10_determinism(capsys):
    def run_suite():
        chunks = []
        for argv in DETERMINISM_INVOCATIONS:
            code, out = run_cli(argv, capsys)
            chunks.append(f"--- {' '.join(argv)} (exit {code}) ---\n{out}")
        return chunks

    first = run_suite()
    second = run_suite()
    assert first == second
    digests = [
        f"{hashlib.sha256(chunk.encode('utf-8')).hexdigest()}  {' '.join(argv)}"
        for chunk, argv in zip(first, DETERMINISM_INVOCATIONS)
    ]
    pinned = DETERMINISM_DIGESTS.read_text(encoding="utf-8").splitlines()
    assert digests == pinned, "\n".join(digests)
