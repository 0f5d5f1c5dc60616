"""List the functions and knobs in src/riskbench that nothing reaches.

    python tools/reach.py

Runs the command-line tests (tests/test_cli.py) alone, whose cases reach
src/riskbench only through `riskbench.cli.main`, under one `sys.setprofile`
hook that records every code object called, pinned to one CPU so that the
study and the consistency ladder run in the calling thread, the only one
the hook sees. Then lists each function and method in src/riskbench that
never ran, which no command runs: delete it, move it into the tests that
call it, or keep it in KEEP with a one-line reason.

The same hook reads the bound arguments of every call into a function or
method of src/riskbench and notes each defaulted parameter bound to another
value than its default. A value counts as the default when it is the default
object itself, or an equal int, float, str, bool, tuple or None. Each
defaulted parameter of a function that ran but was never set otherwise is a
knob that nothing turns: make it a constant, or keep it in KEEP_KNOBS with a
one-line reason. Dataclass fields are outside this check (their generated
`__init__` is not code in src/riskbench), and a generator's parameters are
read again at each resume.

Exit status: 0 when every unreached function is in KEEP, every unturned
knob is in KEEP_KNOBS and neither list holds an entry that ran or was set;
1 otherwise; 2, with one line on stderr, when riskbench was imported from
another tree or a command-line test did not pass. Takes about 7 s on a
2-core Intel Xeon.
"""

from __future__ import annotations

import importlib
import inspect
import os
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "riskbench"

_ROBUST = "the paper's robust representation, checked by criterion 5 against axioms and oracle"
# "<module>:<qualified name>" -> why it stays although nothing above calls
# it: only SupremumCre, which no subcommand builds
KEEP = {
    "core:SupremumCre.__post_init__": _ROBUST,
    "core:SupremumCre.n": _ROBUST,
    "core:SupremumCre.rows": _ROBUST,
}

# "<module>:<qualified name>(<parameter>)" -> why the default stays although
# nothing above binds another value
KEEP_KNOBS: dict[str, str] = {}


def defined_functions() -> dict[tuple, tuple[str, tuple | None]]:
    """{(file, first line, name): ("<module>:<qualified name>", enclosing
    function's key or None)} for every def in src/riskbench, methods and
    nested defs included. Lambdas and comprehensions are left out: they are
    expressions of the function that holds them, not functions of the API.
    Class bodies are walked but not listed; they run at import."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        filename = os.path.realpath(path)
        stack = [(compile(path.read_text(encoding="utf-8"), filename, "exec"), "", None)]
        while stack:
            code, prefix, parent = stack.pop()
            for const in code.co_consts:
                if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
                    continue
                qualname = prefix + const.co_name
                if const.co_flags & inspect.CO_OPTIMIZED:
                    key = (filename, const.co_firstlineno, const.co_name)
                    out[key] = (f"{path.stem}:{qualname}", parent)
                    stack.append((const, qualname + ".", key))
                else:
                    stack.append((const, qualname + ".", parent))
    return out


def defaulted_parameters() -> dict[types.CodeType, tuple[str, dict]]:
    """{code: ("<module>:<qualified name>", {parameter: default})} for every
    function and method in src/riskbench that has defaulted parameters,
    found through the attributes of the imported riskbench modules."""
    src = SRC.resolve()
    modules = [
        importlib.import_module("riskbench" if path.stem == "__init__" else f"riskbench.{path.stem}")
        for path in SRC.glob("*.py")
    ]
    stack = [obj for module in modules for obj in vars(module).values()]
    out = {}
    seen = set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (staticmethod, classmethod)):
            stack.append(obj.__func__)
        elif isinstance(obj, property):
            stack += [obj.fget, obj.fset, obj.fdel]
        elif isinstance(obj, type) and (obj.__module__ or "").startswith("riskbench"):
            stack += vars(obj).values()
        elif isinstance(obj, types.FunctionType):
            path = Path(os.path.realpath(obj.__code__.co_filename))
            if path.parent != src:
                continue
            defaults = {
                name: param.default
                for name, param in inspect.signature(obj).parameters.items()
                if param.default is not param.empty
            }
            if defaults:
                out[obj.__code__] = (f"{path.stem}:{obj.__qualname__}", defaults)
        elif hasattr(obj, "__wrapped__"):
            stack.append(obj.__wrapped__)
    return out


_PLAIN = (int, float, str, bool, tuple, type(None))


def is_default(value, default) -> bool:
    if value is default:
        return True
    if not (isinstance(value, _PLAIN) and isinstance(default, _PLAIN)):
        return False
    try:
        return bool(value == default)
    except ValueError:  # a tuple holding arrays
        return False


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest
    import riskbench

    if Path(riskbench.__file__).resolve().parent != SRC.resolve():
        print(f"riskbench imported from {riskbench.__file__}, not {SRC}", file=sys.stderr)
        return 2

    called = set()
    knob_owners = defaulted_parameters()
    # parameters not yet seen bound to another value than their default
    unturned = {code: dict(defaults) for code, (_, defaults) in knob_owners.items()}

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)
            left = unturned.get(frame.f_code)
            if left:
                bound = frame.f_locals
                for param in [p for p, d in left.items() if not is_default(bound[p], d)]:
                    del left[param]

    # run_study hands its tasks to forked workers and the ladder its
    # replications to threads when they see more than one CPU, and the hook
    # records only this process's calling thread: on one CPU all runs here
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.setprofile(hook)
    try:
        flags = ["-q", "--tb=line", "-p", "no:cacheprovider"]
        cli_tests = pytest.main([str(ROOT / "tests" / "test_cli.py"), *flags])
    finally:
        sys.setprofile(None)
    if cli_tests != pytest.ExitCode.OK:
        print(f"command-line tests did not pass: pytest exit {cli_tests}", file=sys.stderr)
        return 2

    ran = {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_name) for c in called}
    # a def nested in an unreached function is listed through its outermost one
    unreached = sorted(
        (name, key[1])
        for key, (name, parent) in defined_functions().items()
        if key not in ran and (parent is None or parent in ran)
    )
    print(f"\n{len(unreached)} functions in src/riskbench never ran:")
    for name, line in unreached:
        why = KEEP.get(name, "NOT KEPT: delete it or add it to KEEP")
        print(f"  {f'{name} (line {line})':56} {why}")
    unreached = {name for name, _ in unreached}
    for name in sorted(set(KEEP) - unreached):
        print(f"  {name:56} in KEEP but reached: take it out of KEEP")

    knobs = sorted(
        f"{knob_owners[code][0]}({param})"
        for code, left in unturned.items()
        if code in called
        for param in left
    )
    print(f"\n{len(knobs)} defaulted parameters in src/riskbench never set to another value:")
    for knob in knobs:
        print(f"  {knob:56} {KEEP_KNOBS.get(knob, 'NOT KEPT: make it a constant or add it to KEEP_KNOBS')}")
    for knob in sorted(set(KEEP_KNOBS) - set(knobs)):
        print(f"  {knob:56} in KEEP_KNOBS but set: take it out of KEEP_KNOBS")
    return 0 if unreached == set(KEEP) and set(knobs) == set(KEEP_KNOBS) else 1


if __name__ == "__main__":
    sys.exit(main())
