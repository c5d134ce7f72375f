#!/usr/bin/env python3
"""Start-up microbenchmark: what importing the CLI and loading a bundle cost,
and what the value classes cost per instance.

Prints the best of N fresh-interpreter times of ``import homlkit.cli``
(the interpreter's own start-up excluded), once with bytecode cached, as a
user's second run finds it, and once compiling every module; the
standard-library modules that the import adds to those the bare interpreter
has loaded; the best of N fresh-interpreter times of the first
``load_bundle`` of ``goedel`` and of ``modal_math`` and of a repeated one,
which returns the bundle the first loaded; and the best per-instance
construct, ``==`` and ``hash`` times of ``App``, ``Var``, ``Token``, and of
``Fun`` and ``Scope``, which key the per-(type, scope) caches of
``semantics.table_view`` and ``denotation_size``.
Bytecode goes to a temporary ``PYTHONPYCACHEPREFIX``, so nothing is written
into the tree. Exits 1 only when the import or a load fails.

    PYTHONPATH=src python benchmarks/bench_startup.py [--runs N]
"""

import argparse
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import timeit
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Run in a fresh interpreter: the import's time, then the modules other than
# homlkit's that it added.
PROBE = """
import sys, time
before = set(sys.modules)
t0 = time.perf_counter()
import homlkit.cli
elapsed = time.perf_counter() - t0
print(elapsed)
print(" ".join(sorted(name for name in set(sys.modules) - before
                      if name.split(".")[0] != "homlkit")))
"""


# Run in a fresh interpreter: a bundle's first load, then a repeated one.
LOAD_PROBE = """
import sys, time
from homlkit.theories import load_bundle
for _ in range(2):
    t0 = time.perf_counter()
    load_bundle(sys.argv[1])
    print(time.perf_counter() - t0)
"""


def fresh_runs(probe: str, runs: int, cached: bool, *args: str) -> list[list[str]]:
    """The stdout lines of ``runs`` fresh interpreters running ``probe``."""
    with tempfile.TemporaryDirectory() as prefix:
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONPYCACHEPREFIX": prefix}
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        if not cached:
            env["PYTHONDONTWRITEBYTECODE"] = "1"
        outputs = []
        # A cached run first writes the bytecode, unreported.
        for i in range(runs + cached):
            out = subprocess.run([sys.executable, "-c", probe, *args], env=env,
                                 capture_output=True, text=True, timeout=120)
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                sys.exit(1)
            if i or not cached:
                outputs.append(out.stdout.splitlines())
    return outputs


def import_times(runs: int, cached: bool) -> tuple[list[float], list[str]]:
    outputs = fresh_runs(PROBE, runs, cached)
    return [float(elapsed) for elapsed, _ in outputs], outputs[-1][1].split()


def load_times(bundle_id: str, runs: int) -> tuple[float, float]:
    """Best first and repeated ``load_bundle`` times, bytecode cached."""
    outputs = fresh_runs(LOAD_PROBE, runs, True, bundle_id)
    return min(float(first) for first, _ in outputs), min(float(again) for _, again in outputs)


def per_instance_ns() -> dict[str, tuple[float, float, float]]:
    from homlkit.logictypes import Fun, Ind, Prop
    from homlkit.semantics import Scope
    from homlkit.surface import Token
    from homlkit.terms import App, Const, Var

    f, x = Const("f", Fun(Ind, Prop)), Var(0, Ind, "x")
    samples = {
        "App": (App, (f, x)),
        "Var": (Var, (0, Ind, "x")),
        "Token": (Token, ("ident", "p", 3, 7)),
        "Fun": (Fun, (Fun(Ind, Prop), Prop)),
        "Scope": (Scope, (3, 2)),
    }
    number = 20_000
    best = lambda stmt: min(timeit.repeat(stmt, number=number, repeat=7)) / number * 1e9
    out = {}
    for name, (cls, args) in samples.items():
        a, b = cls(*args), cls(*args)
        out[name] = (best(lambda: cls(*args)), best(lambda: a == b), best(lambda: hash(a)))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=15, help="fresh interpreters per condition")
    args = parser.parse_args()
    print(f"Python {platform.python_version()} on {platform.machine()}, "
          f"{os.cpu_count()} CPUs; best of {args.runs} fresh interpreters")
    for cached in (True, False):
        times, added = import_times(args.runs, cached)
        label = "bytecode cached" if cached else "bytecode uncached (compiles every module)"
        print(f"import homlkit.cli, {label}: best {min(times) * 1e3:.1f} ms, "
              f"median {statistics.median(times) * 1e3:.1f} ms")
    print(f"standard-library modules the import adds: {len(added)} ({', '.join(added)})")
    for bundle_id in ("goedel", "modal_math"):
        first, again = load_times(bundle_id, args.runs)
        print(f"load_bundle({bundle_id!r}), bytecode cached: first best {first * 1e3:.1f} ms, "
              f"repeated best {again * 1e6:.1f} us")
    print(f"{'class':<10}{'construct ns':>14}{'== ns':>8}{'hash ns':>9}")
    for name, (init, eq, hsh) in per_instance_ns().items():
        print(f"{name:<10}{init:>14.0f}{eq:>8.0f}{hsh:>9.0f}")


if __name__ == "__main__":
    main()
