"""Command-line entry point: parse -> elaborate -> ground/evaluate -> analyse.

Output is a JSON report (canonical, byte-stable across runs); the text format
is rendered from it. Exit codes: 0 expected verdicts, 1 counter-result,
2 usage or parse error, 3 budget exhaustion.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .analysis import (
    PROPERTY_TYPE,
    count_positive,
    is_modal_ultrafilter,
    min_positive_count,
    positive_sets,
)
from .errors import BudgetExceededError, HomlError
from .frozen import replace
from .grounder import (
    check_validity_bounded,
    enumerate_models,
    export_dimacs,
    find_model,
    ground,
)
from .semantics import (
    Countermodel,
    Indeterminate,
    KripkeModel,
    Satisfiable,
    Scope,
    Unsatisfiable,
    ValidUpToScope,
    model_to_json,
    mvalid,
    position_to_json,
)
from .solver import DEFAULT_CONFLICT_BUDGET
from .surface import load_theory
from .theories import check_church_postulates, load_bundle
from .theory import Theory, check_frame_flags

EXIT_OK = 0
EXIT_COUNTER = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _parse_scope(text: str) -> Scope:
    try:
        n, m = (int(part) for part in text.split(","))
        return Scope(n, m)
    except (ValueError, HomlError) as exc:
        raise HomlError(f"bad scope {text!r} (expected N,M with N,M >= 1): {exc}") from exc


def _integer(text, name: str, least=None):
    """None or an integer (at least ``least``) from the command line; parsed
    here, not by argparse, so a malformed value gets a JSON error report."""
    if text is None:
        return None
    rule = "an integer" if least is None else f"an integer >= {least}"
    try:
        value = int(text)
    except ValueError:
        raise HomlError(f"{name} must be {rule}, got {text!r}") from None
    if least is not None and value < least:
        raise HomlError(f"{name} must be {rule}, got {value}")
    return value


def _budget(args) -> int:
    if args.budget is None:
        return DEFAULT_CONFLICT_BUDGET
    return _integer(args.budget, "--budget", 0)


def _load_theory_arg(args) -> tuple[Theory, dict]:
    """Resolve --bundle/--file plus variant flags into an elaborated theory."""
    if args.bundle:
        params = {key: getattr(args, key) for key in ("quantifier", "formulation", "extension")
                  if getattr(args, key) is not None}
        bundle = load_bundle(args.bundle, **params)
        theory = bundle.theory
        meta = {"bundle": args.bundle, "variant": bundle.variant,
                "goal_labels": list(bundle.goal_labels), "manifest": bundle.manifest}
    else:
        try:
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read()
        except UnicodeDecodeError as exc:
            raise HomlError(f"{args.file}: not UTF-8 text: {exc}") from None
        theory = load_theory(text, args.file)
        meta = {"file": args.file,
                "goal_labels": [f"goal{i}" for i in range(len(theory.goals))]}
    if args.frame is not None:
        flags = frozenset(f for f in args.frame.split(",") if f)
        check_frame_flags(flags)
        theory = replace(theory, frame_flags=flags)
    return theory, meta


def _goal(theory: Theory, labels: list, label: str):
    """The theory's goal with this label."""
    if label not in labels:
        raise HomlError(f"no goal labelled {label!r} (have {labels})")
    return theory.goals[labels.index(label)]


def _bundle_keys(meta: dict) -> dict:
    """The report's ``bundle`` and ``variant`` for a theory loaded from a bundle."""
    return {key: meta[key] for key in ("bundle", "variant") if key in meta}


def _verdict_json(verdict) -> dict:
    if isinstance(verdict, ValidUpToScope):
        return {"verdict": "valid_up_to_scope", "scope": _scope_list(verdict.scope)}
    if isinstance(verdict, Countermodel):
        return {"verdict": "countermodel", "world": verdict.world,
                "model": model_to_json(verdict.model)}
    if isinstance(verdict, Satisfiable):
        return {"verdict": "satisfiable", "model": model_to_json(verdict.model)}
    if isinstance(verdict, Unsatisfiable):
        return {"verdict": "unsatisfiable", "scope": _scope_list(verdict.scope)}
    if isinstance(verdict, Indeterminate):
        return {"verdict": "indeterminate", "reason": verdict.reason}
    raise HomlError(f"unknown verdict {verdict!r}")


def _scope_list(scope: Scope) -> list[int]:
    return [scope.num_worlds, scope.num_entities]


def _exit_code(verdicts, as_expected: bool) -> int:
    """A run's exit code: an Indeterminate verdict outranks a result that is
    not as expected."""
    if any(isinstance(verdict, Indeterminate) for verdict in verdicts):
        return EXIT_BUDGET
    return EXIT_OK if as_expected else EXIT_COUNTER


# ---------------------------------------------------------------------------
# Commands

def cmd_check(args) -> tuple[int, dict]:
    theory, meta = _load_theory_arg(args)
    scope = _parse_scope(args.scope)
    budget = _budget(args)
    labels = meta["goal_labels"]
    wanted = labels if args.goal is None else [args.goal]
    results = []
    verdicts = []
    for label in wanted:
        goal = _goal(theory, labels, label)
        verdict = check_validity_bounded(theory, goal, scope, budget)
        results.append({"goal": label, "scope": _scope_list(scope), **_verdict_json(verdict)})
        verdicts.append(verdict)
    report = {"command": "check", "scope": _scope_list(scope), "results": results,
              **_bundle_keys(meta)}
    as_expected = not any(isinstance(verdict, Countermodel) for verdict in verdicts)
    return _exit_code(verdicts, as_expected), report


def cmd_find_model(args) -> tuple[int, dict]:
    theory, meta = _load_theory_arg(args)
    scope = _parse_scope(args.scope)
    model = find_model(theory, scope, _budget(args))
    report = {"command": "find-model", "scope": _scope_list(scope), **_bundle_keys(meta)}
    if model is None:
        report["result"] = _verdict_json(Unsatisfiable(scope))
        return EXIT_COUNTER, report
    axioms_hold = all(mvalid(model, ax) for ax in theory.axioms)
    report["result"] = {**_verdict_json(Satisfiable(model)), "axioms_hold": axioms_hold}
    return EXIT_OK if axioms_hold else EXIT_COUNTER, report


def cmd_enumerate(args) -> tuple[int, dict]:
    theory, meta = _load_theory_arg(args)
    scope = _parse_scope(args.scope)
    limit = _integer(args.limit, "--limit", 0)
    models = list(enumerate_models(theory, scope, limit=limit, budget=_budget(args)))
    report = {
        "command": "enumerate",
        "scope": _scope_list(scope),
        "count": len(models),
        "limit": limit,
        "models": [model_to_json(m) for m in models],
        **_bundle_keys(meta),
    }
    return EXIT_OK, report


def cmd_church_suite(args) -> tuple[int, dict]:
    scope = _parse_scope(args.scope)
    budget = _budget(args)
    results = check_church_postulates(scope, budget)
    one_world = Scope(*load_bundle("church").manifest["one_world_scope"])
    results += check_church_postulates(one_world, budget)
    entries = [{"postulate": res.label, "scope": _scope_list(res.scope), "expected": res.expected,
                "as_expected": res.as_expected, **_verdict_json(res.verdict)} for res in results]
    report = {"command": "church-suite", "scope": _scope_list(scope),
              "one_world_scope": _scope_list(one_world), "results": entries}
    ok = all(res.as_expected for res in results)
    return _exit_code([res.verdict for res in results], ok), report


def cmd_goedel_suite(args) -> tuple[int, dict]:
    budget = _budget(args)
    report_limit = _integer(args.report_limit, "--report-limit", 0)
    bundle = load_bundle("goedel")
    manifest = bundle.manifest
    mode = manifest["ultrafilter_mode"]
    world = manifest["counting_world"]
    report = {"command": "goedel-suite", "ultrafilter_mode": mode, "results": {}}
    collected: list[tuple[str, KripkeModel]] = []

    smallest = Scope(*manifest["smallest_model_scope"])
    model = find_model(bundle.theory, smallest, budget)
    consistent = model is not None and all(mvalid(model, ax) for ax in bundle.theory.axioms)
    ok = consistent
    report["results"]["consistency"] = {
        "scope": _scope_list(smallest),
        "satisfiable": model is not None,
        "axioms_hold": consistent,
        "model": model_to_json(model) if model else None,
    }
    if model is not None:
        collected.append(("consistency", model))

    validity = []
    verdicts = []
    for check in manifest["checks"]:
        params = dict(zip(manifest["params"],
                          check.get("variant", manifest["default_variant"]).split(":")))
        variant_bundle = load_bundle("goedel", **params)
        scope = Scope(*check["scope"])
        verdict = check_validity_bounded(variant_bundle.theory, variant_bundle.goal(check["goal"]),
                                         scope, budget)
        expected = Countermodel if check["expect"] == "countermodel" else ValidUpToScope
        entry = {"quantifier": params["quantifier"], "scope": _scope_list(scope),
                 **_verdict_json(verdict), "as_expected": isinstance(verdict, expected)}
        ok = ok and entry["as_expected"]
        validity.append(entry)
        verdicts.append(verdict)
    report["results"]["validity"] = validity

    # The manifest's counts are asserted; the two-world count is reported,
    # not asserted, within a bounded model budget.
    specs = [(spec["worlds"], spec["entities"], spec["min"], None)
             for spec in manifest["positive_counts"]]
    specs.append((2, 2, None, report_limit))
    counting = []
    for n, m, expected, limit in specs:
        scope = Scope(n, m)
        models = list(enumerate_models(bundle.theory, scope, budget=budget, limit=limit))
        count = count_positive(models, manifest["positive_constant"], world, limit=limit)
        matches = expected is None or (count.complete and count.minimum == expected)
        ok = ok and matches
        counting.append({
            "scope": [n, m],
            "expected_min": expected,
            "minimum": count.minimum,
            "maximum": count.maximum,
            "models": count.model_count,
            "complete": count.complete,
            "as_expected": matches,
        })
        collected.extend((f"count{n},{m}#{i}", found) for i, found in enumerate(models))
    report["results"]["positive_counts"] = counting

    ultra = []
    for tag, found in collected:
        rep = is_modal_ultrafilter(found, manifest["positive_constant"], mode)
        ok = ok and rep.globally
        witnesses = positive_sets(found, manifest["positive_constant"], world)
        ultra.append({
            "model": tag,
            "scope": _scope_list(found.scope),
            "per_world": list(rep.per_world),
            "ultrafilter": rep.globally,
            "positive_count": len(witnesses),
            "positive_sets": [position_to_json(s, PROPERTY_TYPE, found.scope)
                              for s in witnesses],
        })
    report["results"]["ultrafilter"] = ultra
    report["ok"] = ok
    return _exit_code(verdicts, ok), report


def cmd_count_positive(args) -> tuple[int, dict]:
    theory, meta = _load_theory_arg(args)
    manifest = meta.get("manifest", {})
    constant = manifest.get("positive_constant", "P") if args.constant is None else args.constant
    world = (manifest.get("counting_world", 0) if args.counting_world is None
             else _integer(args.counting_world, "--counting-world"))
    entities = _integer(args.entities, "--entities")
    actualist = args.entity_mode == "actualist"
    if actualist:
        scope = _parse_scope(args.scope)
    else:
        scope = Scope(_integer(args.worlds, "--worlds"), entities)
    result = min_positive_count(theory, scope, constant=constant, world=world,
                                entities=entities if actualist else None,
                                budget=_budget(args),
                                model_limit=_integer(args.limit, "--limit", 0))
    report = {
        "command": "count-positive",
        "scope": _scope_list(scope),
        "entities": entities,
        "entity_mode": args.entity_mode,
        "counting_mode": "designated",
        "counting_world": world,
        "minimum": result.minimum,
        "maximum": result.maximum,
        "models": result.model_count,
        "complete": result.complete,
        "empty_model_class": result.empty_model_class,
        **_bundle_keys(meta),
    }
    if not result.complete:
        return EXIT_BUDGET, report
    expected = None
    if constant == manifest.get("positive_constant"):
        for entry in manifest.get("positive_counts", []):
            if entry["worlds"] == scope.num_worlds and entry["entities"] == scope.num_entities:
                expected = entry["min"]
    if expected is not None and not actualist:
        report["expected_min"] = expected
        if result.minimum != expected:
            return EXIT_COUNTER, report
    return EXIT_OK, report


def cmd_export_cnf(args) -> tuple[int, dict]:
    theory, meta = _load_theory_arg(args)
    scope = _parse_scope(args.scope)
    negated_goal = None
    if args.mode == "refute":
        labels = meta["goal_labels"]
        if not labels:
            raise HomlError("refute mode requires a goal")
        negated_goal = _goal(theory, labels, labels[0] if args.goal is None else args.goal)
    problem = ground(theory, scope, negated_goal=negated_goal)
    data = export_dimacs(problem)
    if args.out:
        with open(args.out, "wb") as handle:
            handle.write(data)
    else:
        sys.stdout.buffer.write(data)
    return EXIT_OK, {}


# ---------------------------------------------------------------------------

def _render_text(report: dict, indent: int = 0) -> str:
    pad = "  " * indent
    lines = []
    if isinstance(report, dict):
        for key in sorted(report):
            value = report[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(_render_text(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {value}")
    elif isinstance(report, list):
        for item in report:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.append(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {item}")
    else:
        lines.append(f"{pad}{report}")
    return "\n".join(lines)


def _add_theory_args(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--bundle", help="bundled theory id")
    group.add_argument("--file", help="theory-DSL source file")
    sub.add_argument("--quantifier", choices=["actualist", "possibilist"])
    sub.add_argument("--formulation", choices=["scott", "goedel-1970"])
    sub.add_argument("--extension", choices=["core", "infinity"])
    sub.add_argument("--frame", help="override frame flags, e.g. refl,symm,trans")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Raise, so that main reports it like any other usage error."""
        raise HomlError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="homlkit",
        description="Higher-order modal logic toolkit: bounded model finding over finite Kripke models.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "text"], default="json")
    common.add_argument("--out", help="write the report to this path instead of stdout")
    common.add_argument("--budget", help="solver conflict budget")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("check", parents=[common], help="bounded validity check of theory goals")
    _add_theory_args(sub)
    sub.add_argument("--scope", default="2,2")
    sub.add_argument("--goal", help="goal label (default: all goals)")
    sub.set_defaults(handler=cmd_check)

    sub = subs.add_parser("find-model", parents=[common], help="find a model of the axioms at a scope")
    _add_theory_args(sub)
    sub.add_argument("--scope", default="2,2")
    sub.set_defaults(handler=cmd_find_model)

    sub = subs.add_parser("enumerate", parents=[common], help="enumerate models at a scope")
    _add_theory_args(sub)
    sub.add_argument("--scope", default="1,1")
    sub.add_argument("--limit")
    sub.set_defaults(handler=cmd_enumerate)

    sub = subs.add_parser("church-suite", parents=[common], help="check the lifted Church postulates")
    sub.add_argument("--scope", default="2,2")
    sub.set_defaults(handler=cmd_church_suite)

    sub = subs.add_parser("goedel-suite", parents=[common], help="consistency, validity, counting, ultrafilter checks")
    sub.add_argument("--report-limit", default="64",
                     help="model cap for the two-world count report")
    sub.set_defaults(handler=cmd_goedel_suite)

    sub = subs.add_parser("count-positive", parents=[common], help="minimum distinct positive properties over models")
    _add_theory_args(sub)
    sub.add_argument("--entities", required=True)
    sub.add_argument("--worlds", default="1")
    sub.add_argument("--scope", default="2,2", help="full scope for actualist entity mode")
    sub.add_argument("--entity-mode", choices=["possibilist", "actualist"], default="possibilist")
    sub.add_argument("--counting-world",
                     help="world to count at (default: the bundle's counting_world, else 0)")
    sub.add_argument("--constant",
                     help="property family to count (default: the bundle's, else P)")
    sub.add_argument("--limit")
    sub.set_defaults(handler=cmd_count_positive)

    sub = subs.add_parser("export-cnf", parents=[common], help="export the ground problem as DIMACS CNF")
    _add_theory_args(sub)
    sub.add_argument("--scope", default="2,2")
    sub.add_argument("--mode", choices=["satisfy", "refute"], default="satisfy")
    sub.add_argument("--goal", help="goal label for refute mode")
    sub.set_defaults(handler=cmd_export_cnf)
    return parser


# Built on first use, not at import, and reused: parsing changes nothing in
# the parser, and each call parses into a namespace of its own.
_parser = functools.cache(build_parser)


def _format_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    return _render_text(report) + "\n"


def main(argv=None) -> int:
    # Parsing fills in this namespace: the command is set as soon as it is
    # read, so a usage error found after that names it in its report.
    args = argparse.Namespace(command=None, format="json", out=None)
    try:
        _parser().parse_args(argv, namespace=args)
        exit_code, report = args.handler(args)
    except SystemExit as exc:  # --help
        return EXIT_USAGE if exc.code not in (0, None) else 0
    except (HomlError, OSError) as exc:  # NestingDepthError too: exit 2
        report = {"command": args.command, "error": str(exc)}
        exit_code = EXIT_BUDGET if isinstance(exc, BudgetExceededError) else EXIT_USAGE
    if report:
        text = _format_report(report, args.format)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as handle:
                    handle.write(text)
                return exit_code
            except OSError as exc:  # the report that says so goes to stdout
                exit_code = EXIT_USAGE
                text = _format_report({"command": args.command, "error": str(exc)}, args.format)
        sys.stdout.write(text)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
