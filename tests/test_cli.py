"""CLI: exit codes, report stability, DIMACS export."""

import hashlib
import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest

from homlkit import theories
from homlkit.analysis import positive_sets
from homlkit.cli import main
from homlkit.grounder import enumerate_models, export_dimacs, ground
from homlkit.semantics import Scope
from homlkit.theories import load_bundle
from reference import bundle_variants


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_check_goedel_exits_zero(capsys):
    code, out = run_cli(["check", "--bundle", "goedel", "--scope", "2,2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["results"][0]["verdict"] == "valid_up_to_scope"


def test_check_countermodel_exits_one(tmp_path, capsys):
    path = tmp_path / "t.homl"
    path.write_text("const p : prop\ngoal (box p) -> p\n")
    code, out = run_cli(["check", "--file", str(path), "--scope", "2,1"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["results"][0]["verdict"] == "countermodel"
    assert "model" in report["results"][0]


def test_parse_error_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.homl"
    path.write_text("axiom box (\n")
    code, out = run_cli(["check", "--file", str(path)], capsys)
    assert code == 2
    report = json.loads(out)
    assert "broken.homl:1:" in report["error"]


def test_deeply_nested_source_exits_two(tmp_path, capsys):
    path = tmp_path / "deep.homl"
    path.write_text("const p : prop\ngoal " + "not " * 400 + "p\n")
    code = main(["check", "--file", str(path), "--scope", "1,1"])
    captured = capsys.readouterr()
    assert code == 2
    report = json.loads(captured.out)
    assert report["command"] == "check"
    assert "nested too deeply" in report["error"]
    assert "Traceback" not in captured.err


def test_non_utf8_file_exits_two(tmp_path, capsys):
    path = tmp_path / "latin1.homl"
    path.write_bytes("const p : prop\ngoal p \u00e9\n".encode("latin-1"))
    code = main(["check", "--file", str(path), "--scope", "1,1"])
    captured = capsys.readouterr()
    assert code == 2
    report = json.loads(captured.out)
    assert report["command"] == "check"
    assert "latin1.homl: not UTF-8 text" in report["error"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [["check", "--bundle", "k", "--scope", "1,1"],
                                  ["check", "--bundle", "k", "--scope", "1,1", "--format", "text"],
                                  ["export-cnf", "--bundle", "k", "--scope", "1,1"]],
                         ids=["check", "check-text", "export-cnf"])
def test_unwritable_out_exits_two_with_a_report_on_stdout(argv, tmp_path, capsys):
    out = tmp_path / "no" / "such" / "dir" / "x.json"
    code = main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2 and not out.parent.exists()
    expected = {"command": argv[0], "error": f"[Errno 2] No such file or directory: '{out}'"}
    if "text" in argv:
        assert captured.out == "".join(f"{k}: {v}\n" for k, v in expected.items())
    else:
        assert json.loads(captured.out) == expected
    assert "Traceback" not in captured.err


def test_import_adds_neither_dataclasses_nor_inspect():
    """``import homlkit.cli`` loads neither module, in a fresh interpreter,
    beyond what the bare interpreter (its ``site`` included) already has."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).parent.parent / "src")}
    probe = "import sys{}; print(' '.join(sys.modules))"
    bare, cli = (set(subprocess.run([sys.executable, "-c", probe.format(extra)], env=env,
                                    capture_output=True, text=True, check=True,
                                    timeout=60).stdout.split())
                 for extra in ("", "; import homlkit.cli"))
    assert "homlkit.cli" in cli
    assert not {"dataclasses", "inspect"} & (cli - bare)


def test_loading_a_bundle_reads_no_importlib_resources():
    """Importing the CLI and loading a bundle, in an isolated interpreter
    without ``site``, loads neither ``importlib.resources`` nor ``inspect``
    (which ``importlib.resources`` imports from Python 3.12 on)."""
    src = str(pathlib.Path(__file__).parent.parent / "src")
    probe = (f"import sys; sys.path.insert(0, {src!r}); import homlkit.cli; "
             "homlkit.cli.load_bundle('k'); print(' '.join(sys.modules))")
    loaded = set(subprocess.run([sys.executable, "-I", "-S", "-c", probe], capture_output=True,
                                text=True, check=True, timeout=60).stdout.split())
    assert "homlkit.theories" in loaded
    assert not {"importlib.resources", "inspect"} & loaded


def test_unknown_bundle_exits_two(capsys):
    code, out = run_cli(["check", "--bundle", "nonsense"], capsys)
    assert code == 2


def test_find_model_unsat_exits_one(tmp_path, capsys):
    path = tmp_path / "t.homl"
    path.write_text("const c : prop\naxiom c & not c\n")
    code, out = run_cli(["find-model", "--file", str(path), "--scope", "1,1"], capsys)
    assert code == 1
    assert json.loads(out)["result"]["verdict"] == "unsatisfiable"


def _verdicts(report):
    """Every "verdict" value in a report, at any depth."""
    if isinstance(report, dict):
        found = [report["verdict"]] if "verdict" in report else []
        return found + [v for value in report.values() for v in _verdicts(value)]
    if isinstance(report, list):
        return [v for item in report for v in _verdicts(item)]
    return []


EXHAUSTED = "conflict budget 1 exhausted after 1 conflicts"


@pytest.mark.parametrize("argv,indeterminate,error", [
    (["check", "--bundle", "goedel", "--scope", "2,2", "--budget", "1"], 1, None),
    (["church-suite", "--budget", "1"], 7, None),
    (["goedel-suite", "--budget", "3"], 2, None),
    (["find-model", "--bundle", "goedel", "--scope", "2,2", "--budget", "1"], 0, EXHAUSTED),
    (["enumerate", "--bundle", "goedel", "--scope", "2,2", "--budget", "1"], 0, EXHAUSTED),
], ids=["check", "church-suite", "goedel-suite", "find-model", "enumerate"])
def test_budget_exhaustion_exits_three(argv, indeterminate, error, capsys):
    """An indeterminate verdict outranks a result that is not as expected."""
    code, out = run_cli(argv, capsys)
    assert code == 3
    report = json.loads(out)
    assert report.get("error") == error
    assert _verdicts(report).count("indeterminate") == indeterminate


def test_reports_are_byte_identical(capsys):
    argvs = [
        ["check", "--bundle", "goedel", "--scope", "2,2"],
        ["find-model", "--bundle", "goedel", "--scope", "1,2"],
        ["count-positive", "--bundle", "goedel", "--entities", "2"],
        ["enumerate", "--bundle", "k", "--scope", "1,1", "--limit", "4"],
    ]
    for argv in argvs:
        _, first = run_cli(argv, capsys)
        _, second = run_cli(argv, capsys)
        assert first == second, argv


def test_count_positive_matches_manifest(capsys):
    code, out = run_cli(["count-positive", "--bundle", "goedel", "--entities", "3"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["minimum"] == 4
    assert report["expected_min"] == 4


@pytest.mark.parametrize("stop", [["--limit", "0"], ["--budget", "0"]])
def test_incomplete_count_reports_no_empty_model_class(stop, capsys):
    # Goedel has a model at (1,1); a count stopped before the first model
    # does not know whether the class is empty.
    code, out = run_cli(["count-positive", "--bundle", "goedel", "--entities", "1", *stop],
                        capsys)
    report = json.loads(out)
    assert code == 3
    assert (report["models"], report["complete"], report["empty_model_class"]) == \
        (0, False, False)
    code, out = run_cli(["count-positive", "--bundle", "goedel", "--entities", "1"], capsys)
    report = json.loads(out)
    assert (report["models"], report["complete"], report["empty_model_class"]) == \
        (1, True, False)


def test_export_cnf_to_file(tmp_path, capsys):
    out_path = tmp_path / "problem.cnf"
    code, _ = run_cli(["export-cnf", "--bundle", "k", "--scope", "1,1",
                       "--out", str(out_path)], capsys)
    assert code == 0
    data = out_path.read_bytes()
    assert b"p cnf " in data
    assert data.endswith(b"0\n")


def test_export_cnf_refute_mode(capsys):
    code, out = run_cli(["export-cnf", "--bundle", "k", "--scope", "2,1",
                         "--mode", "refute", "--goal", "T"], capsys)
    assert code == 0
    assert "p cnf" in out


def test_export_cnf_refute_names_an_unknown_goal(capsys):
    code, out = run_cli(["export-cnf", "--bundle", "k", "--scope", "1,1",
                         "--mode", "refute", "--goal", "nope"], capsys)
    assert code == 2
    assert json.loads(out) == {"command": "export-cnf",
                               "error": "no goal labelled 'nope' (have ['K', 'T', '4', '5'])"}


@pytest.mark.parametrize("goal", [[], ["--goal", "nope"]])
def test_export_cnf_refute_without_goals_exits_two(goal, tmp_path, capsys):
    path = tmp_path / "t.homl"
    path.write_text("const p : prop\naxiom p\n")
    code, out = run_cli(["export-cnf", "--file", str(path), "--scope", "1,1",
                         "--mode", "refute", *goal], capsys)
    assert code == 2
    assert json.loads(out) == {"command": "export-cnf", "error": "refute mode requires a goal"}


def test_church_suite_exits_zero(capsys):
    code, out = run_cli(["church-suite"], capsys)
    assert code == 0
    report = json.loads(out)
    assert all(entry["as_expected"] for entry in report["results"])


def test_church_suite_reads_its_one_world_scope_from_the_manifest(capsys, monkeypatch):
    manifest = load_bundle("church").manifest
    monkeypatch.setitem(manifest, "one_world_scope", [1, 1])
    code, out = run_cli(["church-suite"], capsys)
    report = json.loads(out)
    assert code == 0
    assert report["one_world_scope"] == [1, 1]
    assert {tuple(entry["scope"]) for entry in report["results"]} == {(2, 2), (1, 1)}


def test_count_positive_counts_at_the_manifests_world(capsys, monkeypatch):
    bundle = load_bundle("goedel")
    monkeypatch.setitem(bundle.manifest, "counting_world", 1)
    code, out = run_cli(COUNT_POSITIVE + ["--worlds", "2", "--limit", "1"], capsys)
    report = json.loads(out)
    assert code == 3  # the limit stops the count
    assert report["counting_world"] == 1
    [first] = itertools.islice(enumerate_models(bundle.theory, Scope(2, 2)), 1)
    assert report["minimum"] == len(positive_sets(first, "P", 1))


def test_goedel_suite_runs_exactly_the_manifests_checks(capsys, monkeypatch):
    manifest = load_bundle("goedel").manifest
    monkeypatch.setitem(manifest, "checks", [
        {"goal": "necessary_existence", "scope": [1, 2], "expect": "valid",
         "variant": "possibilist:scott"},
        {"goal": "necessary_existence", "scope": [2, 1], "expect": "countermodel"},
    ])
    monkeypatch.setitem(manifest, "positive_counts", [])
    code, out = run_cli(["goedel-suite", "--report-limit", "0"], capsys)
    validity = json.loads(out)["results"]["validity"]
    assert [(entry["quantifier"], entry["scope"], entry["verdict"], entry["as_expected"])
            for entry in validity] == [
        ("possibilist", [1, 2], "valid_up_to_scope", True),
        ("actualist", [2, 1], "valid_up_to_scope", False),  # the default variant
    ]
    assert code == 1


@pytest.mark.parametrize("argv,variant", [
    (["--bundle", "goedel", "--formulation", "goedel-1970", "--scope", "1,1"],
     "actualist:goedel-1970"),
    (["--bundle", "goedel", "--formulation", "goedel-1970", "--quantifier", "possibilist",
      "--scope", "1,1"], "possibilist:goedel-1970"),
    (["--bundle", "modal_math", "--extension", "infinity", "--scope", "2,2"], "infinity"),
])
def test_variant_flags_select_the_unsatisfiable_variants(argv, variant, capsys):
    code, out = run_cli(["find-model", *argv], capsys)
    report = json.loads(out)
    assert code == 1
    assert report["result"]["verdict"] == "unsatisfiable"
    assert report["variant"] == variant


@pytest.mark.parametrize("argv", [
    ["count-positive", "--bundle", "goedel", "--entities", "2", "--counting-mode", "strict"],
    ["goedel-suite", "--ultrafilter-mode", "extension"],
    ["church-suite", "--one-world-scope", "1,1"],
])
def test_suite_settings_are_not_options(argv, capsys):
    code, out = run_cli(argv, capsys)
    report = json.loads(out)
    assert code == 2
    assert report == {"command": argv[0],
                      "error": f"unrecognized arguments: {' '.join(argv[-2:])}"}


def test_text_format(capsys):
    code, out = run_cli(["check", "--bundle", "s5", "--scope", "2,1",
                         "--goal", "5", "--format", "text"], capsys)
    assert code == 0
    assert "valid_up_to_scope" in out


def test_frame_override(tmp_path, capsys):
    path = tmp_path / "t.homl"
    path.write_text("const p : prop\ngoal (box p) -> p\n")
    code, _ = run_cli(["check", "--file", str(path), "--scope", "2,1",
                       "--frame", "refl"], capsys)
    assert code == 0


def test_unknown_frame_flags_are_named_before_the_scope_is_read(capsys):
    # The same message as the grounder's, and reported ahead of a bad scope.
    code, out = run_cli(["check", "--bundle", "k", "--scope", "x",
                         "--frame", "trans,shiny,dull"], capsys)
    assert code == 2
    assert json.loads(out)["error"] == "unknown frame flags ['dull', 'shiny']"


COUNT_POSITIVE = ["count-positive", "--bundle", "goedel", "--entities", "2"]


@pytest.mark.parametrize("argv", [
    pytest.param(["check", "--bundle", "goedel", "--scope", "1,1", "--budget", "-1"],
                 id="budget-negative"),
    pytest.param(COUNT_POSITIVE + ["--counting-world", "5"], id="counting-world-5"),
    pytest.param(COUNT_POSITIVE + ["--counting-world", "-1"], id="counting-world-negative"),
    pytest.param(COUNT_POSITIVE + ["--limit", "-1"], id="count-limit-negative"),
    pytest.param(["goedel-suite", "--report-limit", "-1"], id="report-limit-negative"),
    pytest.param(["enumerate", "--bundle", "k", "--scope", "1,1", "--limit", "-1"],
                 id="enumerate-limit-negative"),
    pytest.param(["count-positive", "--bundle", "goedel", "--entity-mode", "actualist",
                  "--entities", "-1", "--scope", "2,2"], id="actualist-entities-negative"),
    pytest.param(["enumerate", "--bundle", "k", "--scope", "1,1", "--limit", "abc"],
                 id="enumerate-limit-abc"),
    pytest.param(["check", "--bundle", "goedel", "--scope", "1,1", "--budget", "abc"],
                 id="budget-abc"),
    pytest.param(COUNT_POSITIVE + ["--counting-world", "x"], id="counting-world-x"),
    pytest.param(["count-positive", "--bundle", "goedel", "--entities", "x"], id="entities-x"),
    pytest.param(COUNT_POSITIVE + ["--worlds", "x"], id="worlds-x"),
    pytest.param(["goedel-suite", "--report-limit", "x"], id="report-limit-x"),
    pytest.param(["count-positive", "--bundle", "goedel"], id="entities-missing"),
    pytest.param(COUNT_POSITIVE + ["--entity-mode", "x"], id="entity-mode-x"),
])
def test_malformed_numbers_exit_two(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert set(json.loads(captured.out)) == {"command", "error"}
    assert "Traceback" not in captured.err


def test_zero_counts_are_valid(capsys):
    code, out = run_cli(["enumerate", "--bundle", "k", "--scope", "1,1",
                         "--limit", "0", "--budget", "0"], capsys)
    assert code == 0
    assert json.loads(out)["count"] == 0


def test_help_exits_zero(capsys):
    assert main(["count-positive", "--help"]) == 0
    assert "--counting-world" in capsys.readouterr().out


# A goal, a usage error, help, then no goal: nothing of one call may reach
# the next, now that the parser is built once per process.
SEQUENCE = [
    ["check", "--bundle", "goedel", "--goal", "necessary_existence"],
    ["check", "--bundle", "goedel", "--scope"],
    ["check", "--help"],
    ["check", "--bundle", "goedel"],
    ["check", "--bundle", "k", "--scope", "2,1", "--goal", "K", "--format", "text"],
    ["check", "--bundle", "k", "--scope", "2,1"],
]


def test_each_call_in_one_process_reports_as_if_run_alone(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help text is wrapped to the terminal's width
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).parent.parent / "src")}
    in_process = [run_cli(argv, capsys) for argv in SEQUENCE]
    alone = []
    for argv in SEQUENCE:
        out = subprocess.run([sys.executable, "-m", "homlkit.cli", *argv], env=env,
                             capture_output=True, text=True, timeout=120)
        alone.append((out.returncode, out.stdout))
    assert in_process == alone
    assert [code for code, _ in in_process] == [0, 2, 0, 0, 0, 1]
    assert len(json.loads(in_process[-1][1])["results"]) == 4


def test_no_command_changes_a_bundle_manifest(capsys):
    from test_acceptance import DETERMINISM_INVOCATIONS

    for argv in DETERMINISM_INVOCATIONS:
        main(argv)
    capsys.readouterr()
    path = pathlib.Path(theories.__file__).parent / "data" / "manifest.json"
    fresh = json.loads(path.read_text(encoding="utf-8"))
    for bundle in bundle_variants():
        assert bundle.manifest == fresh[bundle.id], (bundle.id, bundle.variant)


def test_unknown_positive_constant_exits_two(capsys):
    code, out = run_cli(COUNT_POSITIVE + ["--constant", "NoSuch"], capsys)
    assert code == 2
    assert "NoSuch" in json.loads(out)["error"]


EXPORT_CNF_INVOCATIONS = [
    ["--bundle", "goedel", "--scope", "2,2"],
    ["--bundle", "goedel", "--scope", "2,2", "--mode", "refute", "--goal", "necessary_existence"],
    ["--bundle", "goedel", "--quantifier", "possibilist", "--scope", "2,2",
     "--mode", "refute", "--goal", "necessary_existence"],
    ["--bundle", "filters", "--scope", "2,2"],
    ["--bundle", "church", "--scope", "2,2", "--mode", "refute", "--goal", "bool_ext_nontrivial"],
    ["--bundle", "k", "--scope", "3,2", "--mode", "refute", "--goal", "K"],
]
# One "<sha256>  <argv>" line per invocation: the digest of the DIMACS file
# that `export-cnf <argv>` writes. It pins the grounder's formula-node order,
# and with it the Tseitin variable numbers.
EXPORT_CNF_DIGESTS = pathlib.Path(__file__).parent / "data" / "export_cnf.sha256"


def _export_cnf_digests(tmp_path) -> list[str]:
    digests = []
    for argv in EXPORT_CNF_INVOCATIONS:
        out_path = tmp_path / "problem.cnf"
        assert main(["export-cnf", *argv, "--out", str(out_path)]) == 0, argv
        digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
        digests.append(f"{digest}  {' '.join(argv)}")
    return digests


def test_export_cnf_bytes_pinned(tmp_path, capsys):
    digests = _export_cnf_digests(tmp_path)
    capsys.readouterr()
    pinned = EXPORT_CNF_DIGESTS.read_text(encoding="utf-8").splitlines()
    assert digests == pinned, "\n".join(digests)


# One "<sha256>  <bundle> <variant> <n,m> <problem>" line per ground problem
# of every bundle variant at each sweep scope: the satisfiability problem of
# its axioms, then the refutation of each goal, named by its label.
SWEEP_SCOPES = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3)]
EXPORT_CNF_SWEEP = pathlib.Path(__file__).parent / "data" / "export_cnf_sweep.sha256"


def _dimacs_line(bundle, n: int, m: int, label: str, goal) -> str:
    data = export_dimacs(ground(bundle.theory, Scope(n, m), negated_goal=goal))
    return f"{hashlib.sha256(data).hexdigest()}  {bundle.id} {bundle.variant} {n},{m} {label}"


def _export_cnf_sweep() -> list[str]:
    lines = []
    for bundle in bundle_variants():
        problems = [("satisfy", None), *zip(bundle.goal_labels, bundle.theory.goals)]
        for n, m in SWEEP_SCOPES:
            for label, goal in problems:
                lines.append(_dimacs_line(bundle, n, m, label, goal))
    return lines


def test_export_cnf_sweep_pinned():
    lines = _export_cnf_sweep()
    assert lines == EXPORT_CNF_SWEEP.read_text(encoding="utf-8").splitlines(), "\n".join(lines)


# The same line format for Goedel's satisfiability problem, both quantifier
# variants, at the two scopes past the sweep where the grounder's operation
# memo does most of its work.
EXPORT_CNF_GOEDEL = pathlib.Path(__file__).parent / "data" / "export_cnf_goedel.sha256"


def test_export_cnf_goedel_pinned():
    lines = [_dimacs_line(load_bundle("goedel", quantifier=q), n, m, "satisfy", None)
             for q in ("actualist", "possibilist") for n, m in ((3, 2), (2, 3))]
    assert lines == EXPORT_CNF_GOEDEL.read_text(encoding="utf-8").splitlines(), "\n".join(lines)


def test_memo_bound_of_one_changes_no_verdict_and_no_byte(tmp_path, capsys, monkeypatch):
    # With room for one entry, every binder memo is emptied before each
    # store, in both carriers. Values must not depend on what was evicted.
    import homlkit.semantics
    from homlkit.grounder import check_validity_bounded, find_model
    from homlkit.semantics import Scope, ValidUpToScope

    core = load_bundle("modal_math")
    checks = [c for c in core.manifest["checks"] if c["scope"] in ([1, 2], [2, 2])]
    assert len(checks) == 6
    infinity = load_bundle("modal_math", extension="infinity").theory
    monkeypatch.setattr(homlkit.semantics, "MEMO_BOUND", 1)
    for check in checks:
        scope = Scope(*check["scope"])
        verdict = check_validity_bounded(core.theory, core.goal(check["goal"]), scope)
        assert check["expect"] == "valid" and verdict == ValidUpToScope(scope), check
    assert find_model(infinity, Scope(1, 2)) is None
    digests = _export_cnf_digests(tmp_path)
    capsys.readouterr()
    assert digests == EXPORT_CNF_DIGESTS.read_text(encoding="utf-8").splitlines()
