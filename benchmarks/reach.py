"""Function-level reachability: which ``src/`` functions a command calls.

``run`` executes a command with a ``sitecustomize`` call hook on its
``PYTHONPATH``.  Every Python process the command starts (pool workers
included: they fork with the hook armed) appends the first call of each
``src/`` function to ``OUT/<pid>.txt`` as ``path:qualname``.  The hook
is a global ``sys.settrace``/``threading.settrace`` tracer that never
traces lines; ``sys.settrace`` is wrapped so that clearing the hook, as
pytest-benchmark does around each measured call, re-arms it.  (Not
``sys.setprofile``: tier-1's ``cProfile`` call-budget tests reset it.)

    python benchmarks/reach.py run OUT -- python -m pytest -q
    python benchmarks/reach.py run OUT -- python -m repro.bench fig02
    python benchmarks/reach.py missing OUT          # defined, never called
    python benchmarks/reach.py lost OLD NEW         # called in OLD, not NEW

``missing`` lists the functions defined under ``src/`` (``--src``) that
no process recorded in ``OUT``; ``lost`` lists those recorded in
``OLD`` but not in ``NEW`` that ``src/`` still defines.  Running the
same non-test callers on two commits into OLD and NEW, ``lost`` names
every function a change left without a non-test caller.
"""

from __future__ import annotations

import argparse
import inspect
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

_HOOK = """\
import importlib.util, os
_spec = importlib.util.spec_from_file_location("_reach", os.environ["REACH_MODULE"])
_mod = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_mod)
_mod.arm(os.environ["REACH_OUT"], os.environ["REACH_SRC"])
"""


def arm(out: str, src: str) -> None:
    """Install the call hook in this process (called by ``sitecustomize``)."""
    prefix = os.path.join(os.path.abspath(src), "")
    # Keyed by id (hashing a code object hashes its bytecode); holding
    # the object keeps its id from being reused.
    seen: dict[int, object] = {}

    def hook(frame, event, arg):
        code = frame.f_code
        if id(code) not in seen:
            seen[id(code)] = code
            if code.co_filename.startswith(prefix):
                # Appended at once: pool workers leave through os._exit.
                path = os.path.join(out, f"{os.getpid()}.txt")
                with open(path, "a") as fh:
                    rel = code.co_filename[len(prefix):]
                    fh.write(f"{rel}:{code.co_qualname}\n")
        return None

    real_settrace = sys.settrace

    def settrace(fn):
        real_settrace(hook if fn is None else fn)

    sys.settrace = settrace
    real_settrace(hook)
    threading.settrace(hook)


def defined(src: Path) -> set[str]:
    """``path:qualname`` of every function defined under ``src``."""
    out: set[str] = set()
    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
            # Class bodies lack CO_NEWLOCALS; lambdas and comprehensions
            # are named "<...>".
            if code.co_flags & inspect.CO_NEWLOCALS and code.co_name[0] != "<":
                out.add(f"{rel}:{code.co_qualname}")
    return out


def recorded(out: Path) -> set[str]:
    return {line for f in out.glob("*.txt") for line in f.read_text().split()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python benchmarks/reach.py")
    parser.add_argument("--src", type=Path, default=Path("src"))
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run a command with the hook")
    run.add_argument("out", type=Path)
    run.add_argument("command", nargs=argparse.REMAINDER)
    sub.add_parser("missing").add_argument("out", type=Path)
    lost = sub.add_parser("lost")
    lost.add_argument("old", type=Path)
    lost.add_argument("new", type=Path)
    args = parser.parse_args(argv)

    if args.cmd == "run":
        command = args.command[1:] if args.command[:1] == ["--"] else args.command
        args.out.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory() as hook_dir:
            Path(hook_dir, "sitecustomize.py").write_text(_HOOK)
            env = dict(os.environ)
            env.update(
                REACH_MODULE=os.path.abspath(__file__),
                REACH_OUT=str(args.out.resolve()),
                REACH_SRC=str(args.src.resolve()),
                PYTHONPATH=os.pathsep.join(
                    p for p in (hook_dir, env.get("PYTHONPATH")) if p
                ),
            )
            return subprocess.call(command, env=env)
    names = defined(args.src)
    if args.cmd == "missing":
        report = names - recorded(args.out)
    else:
        report = (recorded(args.old) - recorded(args.new)) & names
    print("\n".join(sorted(report)))
    print(f"{len(report)} of {len(names)} functions", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
