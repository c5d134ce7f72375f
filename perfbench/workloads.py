"""The benchmark's four workloads: their tasks and their correctness oracle.

A task is one verdict, one enumerated model, or one CLI invocation. Tasks run
one at a time in a single process (a closed loop with one task in flight):
homlkit is a batch tool, and each caller waits for its verdict.

The oracle takes the expected verdicts and counts from ``manifest.json`` and
from counting arguments, not from the code under test. It also re-checks
every model the program returns with the evaluator (``mvalid`` on each
axiom, ``holds_at`` on the refuted goal) and the frame conditions. It keeps
its own references to those functions, so the tracer never counts its calls.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import homlkit.cli
import homlkit.grounder
import homlkit.theories
from homlkit.semantics import (
    Countermodel,
    Scope,
    ValidUpToScope,
    holds_at,
    model_from_json,
    model_to_json,
    mvalid,
)

MANIFEST_PATH = Path(homlkit.theories.__file__).parent / "data" / "manifest.json"
MANIFEST = json.loads(MANIFEST_PATH.read_text("utf-8"))

# tests/test_acceptance.py's DETERMINISM_INVOCATIONS without
# `check --bundle modal_math --scope 2,2`, whose checks modal-math-ground runs.
SUITE_INVOCATIONS = [
    ["goedel-suite"],
    ["church-suite"],
    ["check", "--bundle", "goedel", "--scope", "2,2"],
    ["check", "--bundle", "goedel", "--quantifier", "possibilist", "--scope", "2,2"],
    ["count-positive", "--bundle", "goedel", "--entities", "2"],
    ["count-positive", "--bundle", "goedel", "--entities", "3"],
    ["find-model", "--bundle", "goedel", "--scope", "1,2"],
    ["enumerate", "--bundle", "filters", "--scope", "1,2", "--limit", "8"],
]

# Infinity at (2,3) alone takes 14-17 s on the code path (3,2) already
# exercises; it would triple every modal-math-ground run.
INFINITY_SKIPPED = [2, 3]


@dataclass
class Task:
    id: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None, or why the output is wrong
    text: Callable[[object], str]  # canonical output text, digested for order checks


def _canonical(data) -> str:
    return json.dumps(data, sort_keys=True)


def _variant_key(bundle_id: str, params: dict) -> str:
    return bundle_id + "".join(f":{k}={v}" for k, v in sorted(params.items()))


def _model_problem(theory, model) -> Optional[str]:
    """Re-check a model the program returned against the theory it claims."""
    if not model.satisfies_frame(theory.frame_flags):
        return "model breaks a frame condition"
    if not all(mvalid(model, ax) for ax in theory.axioms):
        return "model fails an axiom under mvalid"
    return None


# ---------------------------------------------------------------------------
# Bounded validity checks and model finding (frame-refute, modal-math-ground)

def _check_task(bundle, check) -> Task:
    theory, goal = bundle.theory, bundle.goal(check["goal"])
    scope = Scope(*check["scope"])
    expect = check["expect"]

    def run():
        return homlkit.grounder.check_validity_bounded(theory, goal, scope)

    def judge(verdict):
        if isinstance(verdict, ValidUpToScope):
            got = "valid"
        elif isinstance(verdict, Countermodel):
            got = "countermodel"
        else:
            return f"no verdict: {verdict!r}"
        if got != expect:
            return f"expected {expect}, got {got}"
        if got == "countermodel":
            if holds_at(verdict.model, goal, verdict.world):
                return "countermodel satisfies the goal at its world"
            return _model_problem(theory, verdict.model)
        return None

    def text(verdict):
        if isinstance(verdict, Countermodel):
            return _canonical([verdict.world, model_to_json(verdict.model)])
        return type(verdict).__name__

    n, m = check["scope"]
    return Task(f"{bundle.id}:{check['goal']}@{n},{m}", run, judge, text)


def _find_model_task(bundle, entry) -> Task:
    theory = bundle.theory
    scope = Scope(*entry["scope"])
    expect = entry["expect"]

    def run():
        return homlkit.grounder.find_model(theory, scope)

    def judge(model):
        got = "unsat" if model is None else "sat"
        if got != expect:
            return f"expected {expect}, got {got}"
        return None if model is None else _model_problem(theory, model)

    def text(model):
        return "unsat" if model is None else _canonical(model_to_json(model))

    n, m = entry["scope"]
    return Task(f"{bundle.id}/{bundle.variant}:find-model@{n},{m}", run, judge, text)


def frame_refute_tasks(bundles) -> list[Task]:
    return [_check_task(bundles[b], check)
            for b in ("k", "t", "s4", "s5") for check in MANIFEST[b]["checks"]]


def modal_math_tasks(bundles) -> list[Task]:
    core = bundles["modal_math"]
    infinity = bundles[_variant_key("modal_math", {"extension": "infinity"})]
    tasks = [_check_task(core, check) for check in MANIFEST["modal_math"]["checks"]]
    tasks += [_find_model_task(infinity, entry) for entry in MANIFEST["modal_math"]["models"]
              if entry.get("variant") == "infinity" and entry["scope"] != INFINITY_SKIPPED]
    return tasks


# ---------------------------------------------------------------------------
# enumerate-k: every model of K at (2,1)

ENUM_SCOPE = (2, 1)


def enumerate_k_expected_count() -> int:
    """K declares two prop constants and has no axioms or frame flags, so
    every assignment to the n*n accessibility bits, the m*n existence bits
    and the 2*n constant cells is a model."""
    n, m = ENUM_SCOPE
    return 2 ** (n * n + m * n + 2 * n)


def enumerate_k_tasks(bundles) -> list[Task]:
    """One task per expected model, then one that must find the enumeration
    exhausted. All of them step one generator, so they run in order."""
    theory = bundles["k"].theory
    models = homlkit.grounder.enumerate_models(theory, Scope(*ENUM_SCOPE))
    want = enumerate_k_expected_count()

    def judge_model(model):
        return "enumeration ended early" if model is None else _model_problem(theory, model)

    def judge_end(model):
        return None if model is None else f"more than {want} models"

    def text(model):
        return "end" if model is None else _canonical(model_to_json(model))

    step = lambda: next(models, None)  # noqa: E731
    tasks = [Task(f"model#{i}", step, judge_model, text) for i in range(want)]
    tasks.append(Task("exhausted", step, judge_end, text))
    return tasks


def enumerate_k_check(outputs) -> list[str]:
    if len({text for text in outputs.values()}) != len(outputs):
        return ["enumeration repeated a model"]
    return []


# ---------------------------------------------------------------------------
# suites: the CLI end to end, in process

def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = homlkit.cli.main(list(argv))
    return code, out.getvalue()


def _manifest_check(bundle_id, goal, scope, variant=None):
    for check in MANIFEST[bundle_id]["checks"]:
        if check["goal"] == goal and check["scope"] == scope \
                and check.get("variant", variant) == variant:
            return check["expect"]
    return None


def _positive_min(worlds, entities):
    for entry in MANIFEST["goedel"]["positive_counts"]:
        if entry["worlds"] == worlds and entry["entities"] == entities:
            return entry["min"]
    return None


def _judge_report(argv, report, bundles) -> Optional[str]:
    command = argv[0]
    goedel = bundles["goedel"]
    if command == "goedel-suite":
        results = report["results"]
        consistency = results["consistency"]
        if not consistency["satisfiable"]:
            return "goedel theory reported inconsistent"
        problem = _model_problem(goedel.theory, model_from_json(consistency["model"]))
        if problem:
            return problem
        for entry in results["validity"]:
            variant = f"{entry['quantifier']}:scott"
            want = _manifest_check("goedel", "necessary_existence", entry["scope"], variant)
            if want != "valid" or entry["verdict"] != "valid_up_to_scope":
                return f"necessary existence at {entry['quantifier']} {entry['scope']}"
        asserted = 0
        for entry in results["positive_counts"]:
            want = _positive_min(*entry["scope"])
            if want is None:
                continue
            asserted += 1
            if not (entry["complete"] and entry["minimum"] == entry["maximum"] == want):
                return f"positive count at {entry['scope']}: {entry['minimum']}..{entry['maximum']}, want exactly {want}"
        if asserted != len(MANIFEST["goedel"]["positive_counts"]):
            return "a manifest positive count is missing from the report"
        if not results["ultrafilter"]:
            return "no models checked for the ultrafilter property"
        for entry in results["ultrafilter"]:
            if not (entry["ultrafilter"] and all(entry["per_world"])):
                return f"model {entry['model']} is not an ultrafilter"
        return None
    if command == "church-suite":
        church = bundles["church"]
        for entry in report["results"]:
            want = _manifest_check("church", entry["postulate"], entry["scope"]) or "valid"
            got = "valid" if entry["verdict"] == "valid_up_to_scope" else entry["verdict"]
            if got != want:
                return f"{entry['postulate']} at {entry['scope']}: expected {want}, got {got}"
            if got == "countermodel":
                model = model_from_json(entry["model"])
                if holds_at(model, church.goal(entry["postulate"]), entry["world"]):
                    return f"{entry['postulate']}: countermodel satisfies the goal"
                problem = _model_problem(church.theory, model)
                if problem:
                    return problem
        return None
    if command == "check":
        variant = report["variant"]
        for entry in report["results"]:
            want = _manifest_check("goedel", entry["goal"], entry["scope"], variant)
            if want != "valid" or entry["verdict"] != "valid_up_to_scope":
                return f"{entry['goal']} at {entry['scope']} ({variant}): {entry['verdict']}"
        return None
    if command == "count-positive":
        want = _positive_min(*report["scope"])
        if not (report["complete"] and report["minimum"] == report["maximum"] == want):
            return f"count-positive {report['scope']}: {report['minimum']}..{report['maximum']}, want exactly {want}"
        return None
    if command == "find-model":
        result = report["result"]
        if result["verdict"] != "satisfiable":
            return f"goedel find-model: {result['verdict']}"
        return _model_problem(goedel.theory, model_from_json(result["model"]))
    if command == "enumerate":
        models = report["models"]
        limit = int(argv[argv.index("--limit") + 1])
        if report["count"] != limit or len(models) != limit:
            return f"enumerate returned {report['count']} models, want {limit}"
        if len({_canonical(m) for m in models}) != len(models):
            return "enumerate repeated a model"
        for data in models:
            problem = _model_problem(bundles["filters"].theory, model_from_json(data))
            if problem:
                return problem
        return None
    return f"no oracle for {command}"


def suite_tasks(bundles) -> list[Task]:
    tasks = []
    for argv in SUITE_INVOCATIONS:
        def judge(output, argv=argv):
            code, text = output
            if code != 0:
                return f"exit code {code}"
            return _judge_report(argv, json.loads(text), bundles)

        tasks.append(Task(" ".join(argv), lambda argv=argv: run_cli(argv), judge,
                          lambda output: output[1]))
    return tasks


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    # (bundle id, variant parameters) loaded during set-up
    variants: tuple
    # modules imported during set-up besides homlkit itself
    imports: tuple
    # builds one pass's task list from the loaded bundles
    tasks: Callable
    # False when tasks depend on each other's order (one shared generator)
    shuffle: bool = True
    # whole-pass check over {task id: output text}
    check_pass: Callable = lambda outputs: []


WORKLOADS = {
    "frame-refute": Workload(
        "frame-refute",
        (("k", {}), ("t", {}), ("s4", {}), ("s5", {})), (), frame_refute_tasks),
    "modal-math-ground": Workload(
        "modal-math-ground",
        (("modal_math", {}), ("modal_math", {"extension": "infinity"})), (), modal_math_tasks),
    "enumerate-k": Workload("enumerate-k", (("k", {}),), (), enumerate_k_tasks,
                            shuffle=False, check_pass=enumerate_k_check),
    "suites": Workload(
        "suites",
        (("goedel", {}), ("goedel", {"quantifier": "possibilist"}), ("church", {}),
         ("filters", {})),
        ("homlkit.cli",), suite_tasks),
}


def load_variants(workload: Workload) -> dict:
    """Load every bundle variant the workload uses, keyed for the task builders."""
    return {_variant_key(b, params): homlkit.theories.load_bundle(b, **params)
            for b, params in workload.variants}
