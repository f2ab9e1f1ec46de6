"""Function census: which ``src/repro`` functions does nothing ever enter?

    python3 tools/census.py [--out docs/census.md]

Runs tier-1 (``pytest -q``, without ``-x``: a timing assertion that fails
under the profiler must not cut the run short), the four bench workloads
(``bench/run.py --smoke`` plus one full-size ``bench/child.py`` lap each,
seeds 1 and 2) and every script under ``examples/`` (``serving_client.py``
against a live ``raqlet serve``) with a call profiler installed in every
Python process they start, child processes included.  It then lists each function defined
under ``src/repro`` that none of them entered, with its line count, as
Markdown.

The profiler is a ``sitecustomize`` module placed first on ``PYTHONPATH``:
``sys.setprofile`` plus ``threading.setprofile`` record every code object
that receives a ``call`` event, and an ``atexit`` hook writes the ones under
``src/repro`` to one file per process.  ``subprocess.Popen`` is wrapped so a
child started with an explicit environment (the bench pins its children's)
inherits the profiler too.  A process killed by a signal writes nothing.
Tier-1 and the bench/examples runs write to separate directories, so the
report also counts the functions only tier-1 enters.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Set, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
PACKAGE = os.path.join(SRC, "repro")

#: the profiler every traced process imports at start-up
SITECUSTOMIZE = '''
import atexit, os, sys, threading

_OUT = os.environ.get("CENSUS_OUT")
if _OUT:
    _entered = set()

    def _profile(frame, event, arg, _add=_entered.add):
        if event == "call":
            _add(frame.f_code)

    def _dump():
        sys.setprofile(None)
        threading.setprofile(None)
        rows = {
            (code.co_filename, code.co_firstlineno)
            for code in list(_entered)
            if "/src/repro/" in code.co_filename
        }
        path = os.path.join(_OUT, "%d.txt" % os.getpid())
        with open(path, "w") as handle:
            for filename, line in sorted(rows):
                handle.write("%s\\t%d\\n" % (os.path.realpath(filename), line))

    import subprocess

    _popen_init = subprocess.Popen.__init__

    def _traced_init(self, *args, **kwargs):
        env = kwargs.get("env")
        if env is not None and "CENSUS_OUT" not in env:
            env = dict(env)
            env["CENSUS_OUT"] = _OUT
            site = os.path.dirname(os.path.abspath(__file__))
            env["PYTHONPATH"] = os.pathsep.join(
                part for part in (site, env.get("PYTHONPATH")) if part
            )
            kwargs["env"] = env
        _popen_init(self, *args, **kwargs)

    subprocess.Popen.__init__ = _traced_init
    atexit.register(_dump)
    threading.setprofile(_profile)
    sys.setprofile(_profile)
'''

Function = Tuple[str, str, int, int]  # (relative path, qualname, first line, lines)


def defined_functions() -> List[Function]:
    """Every ``def`` under ``src/repro`` with the line its code object
    starts on (the first decorator's, as CPython counts it)."""
    found: List[Function] = []
    for root, _dirs, files in os.walk(PACKAGE):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            with open(path) as handle:
                tree = ast.parse(handle.read(), path)
            relative = os.path.relpath(path, REPO)

            def visit(node, prefix: str) -> None:
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        first = min(
                            [child.lineno]
                            + [decorator.lineno for decorator in child.decorator_list]
                        )
                        qualname = prefix + child.name
                        found.append(
                            (relative, qualname, first, child.end_lineno - child.lineno + 1)
                        )
                        visit(child, qualname + ".<locals>.")
                    elif isinstance(child, ast.ClassDef):
                        visit(child, prefix + child.name + ".")

            visit(tree, "")
    return found


def entered(out_dir: str) -> Set[Tuple[str, int]]:
    seen: Set[Tuple[str, int]] = set()
    for name in os.listdir(out_dir):
        with open(os.path.join(out_dir, name)) as handle:
            for line in handle:
                filename, first = line.rstrip("\n").split("\t")
                seen.add((os.path.relpath(filename, REPO), int(first)))
    return seen


def run(command: List[str], env: Dict[str, str], **kwargs) -> int:
    print("census: " + " ".join(command), flush=True)
    return subprocess.run(command, cwd=REPO, env=env, check=False, **kwargs).returncode


def serve_and_drive(env: Dict[str, str]) -> int:
    """``raqlet serve`` on a free port, driven by ``examples/serving_client.py``."""
    command = [sys.executable, "-m", "repro.cli", "serve", "--scale", "60",
               "--port", "0", "--workers", "2"]
    print("census: " + " ".join(command), flush=True)
    server = subprocess.Popen(command, cwd=REPO, env=env, stdout=subprocess.PIPE, text=True)
    port = None
    deadline = time.monotonic() + 120
    while port is None and time.monotonic() < deadline:
        line = server.stdout.readline()
        if not line:
            break
        match = re.search(r"raqlet serving on [^:]+:(\d+)", line)
        if match:
            port = match.group(1)
    if port is None:
        server.kill()
        server.wait()
        return 1
    code = run([sys.executable, "examples/serving_client.py", "--port", port,
                "--shutdown"], env)
    server.stdout.read()
    return code or server.wait(timeout=60)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(REPO, "docs", "census.md"))
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as site, tempfile.TemporaryDirectory() as out:
        with open(os.path.join(site, "sitecustomize.py"), "w") as handle:
            handle.write(SITECUSTOMIZE)
        phases: Dict[str, List[List[str]]] = {
            "tier1": [[sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]],
            "bench": [],
        }
        workloads = ("compile_corpus", "oneshot_table1", "session_stream", "serve_mix")
        for workload in workloads:
            phases["bench"].append([sys.executable, "bench/run.py", "--smoke",
                                    "--workload", workload])
            for seed in (1, 2):
                phases["bench"].append([sys.executable, "bench/child.py", "--workload",
                                        workload, "--seed", str(seed), "--laps", "1"])
        for name in sorted(os.listdir(os.path.join(REPO, "examples"))):
            if name.endswith(".py") and name != "serving_client.py":
                phases["bench"].append([sys.executable, os.path.join("examples", name)])
        failures = []
        seen: Dict[str, Set[Tuple[str, int]]] = {}
        processes = 0
        for phase, commands in phases.items():
            phase_out = os.path.join(out, phase)
            os.mkdir(phase_out)
            env = dict(os.environ, CENSUS_OUT=phase_out,
                       PYTHONPATH=os.pathsep.join([site, SRC]))
            for command in commands:
                if run(command, env, stdout=subprocess.DEVNULL):
                    failures.append(" ".join(command[1:]))
            if phase == "bench" and serve_and_drive(env):
                failures.append("serve + examples/serving_client.py")
            seen[phase] = entered(phase_out)
            processes += len(os.listdir(phase_out))

    functions = defined_functions()
    everywhere = seen["tier1"] | seen["bench"]
    never = [f for f in functions if (f[0], f[2]) not in everywhere]
    tier1_only = [f for f in functions
                  if (f[0], f[2]) in seen["tier1"] and (f[0], f[2]) not in seen["bench"]]
    write_report(args.out, functions, never, tier1_only, processes, failures)
    print(f"census: {len(never)} of {len(functions)} functions never entered "
          f"({sum(f[3] for f in never)} lines); report in {args.out}")
    return 1 if failures else 0


def write_report(path, functions, never, tier1_only, processes, failures) -> None:
    lines = [
        "# Function census",
        "",
        "The `src/repro` functions that no traced process entered.  Produced by",
        "",
        "```",
        "python3 tools/census.py",
        "```",
        "",
        "which runs tier-1, the four bench workloads (`--smoke` plus one "
        "full-size lap per workload on seeds 1 and 2) and "
        "every script under `examples/` with a call profiler in every Python "
        f"process, child processes included ({processes} processes traced).",
        "A `def` counts as entered when its code object received a `call` event.",
        "",
        f"**{len(never)} of {len(functions)} functions "
        f"({sum(f[3] for f in never)} lines) were never entered.**",
        "",
    ]
    if failures:
        lines += ["Commands that exited non-zero (their processes still count):", ""]
        lines += [f"- `{failure}`" for failure in failures] + [""]
    lines += ["| file | function | line | lines |", "|---|---|---:|---:|"]
    for relative, qualname, first, count in sorted(never):
        lines.append(f"| `{relative}` | `{qualname}` | {first} | {count} |")
    per_file: Dict[str, List[Function]] = {}
    for function in tier1_only:
        per_file.setdefault(function[0], []).append(function)
    lines += [
        "",
        "## Entered by tier-1 only",
        "",
        f"{len(tier1_only)} functions ({sum(f[3] for f in tier1_only)} lines) are "
        "entered by tier-1 but by neither the bench workloads nor `examples/`:",
        "",
        "| file | functions | lines |",
        "|---|---:|---:|",
    ]
    for relative in sorted(per_file):
        group = per_file[relative]
        lines.append(f"| `{relative}` | {len(group)} | {sum(f[3] for f in group)} |")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    sys.exit(main())
