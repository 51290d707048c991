"""Find dead code by running its callers: the caller corpus.

Runs every CLI command and registered study, the examples and the tools in
this process, one by one, under ``sys.setprofile``.  It fails when a function
of ``src/repro`` (``DEAD001``'s universe; no test runs) never runs and has no
line ``module:Symbol reason`` in ``caller_corpus_allowlist.txt`` (a reason of
:data:`REASONS` or ``flag:<name>``), when an entry ran or names no function,
and when an invocation exits with an unexpected code.  Prefer a new invocation
in :func:`corpus` to a new entry::

    PYTHONDONTWRITEBYTECODE=1 PYTHONPATH=src python tools/caller_corpus.py
"""

import contextlib
import cProfile
import io
import os
import runpy
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
ALLOWLIST = os.path.join(ROOT, "tools", "caller_corpus_allowlist.txt")
REASONS = ("pool-only", "error-only", "interface-default", "debug-dunder", "perfbench")
# 700 + 100: at 300 instructions campaign's 1% length check fails.
RUN = ("--instructions", "700", "--warmup", "100", "--jobs", "1")
GO = ("--benchmarks", "go") + RUN


def corpus(tmp: str):
    """``(argv, expected exit code)`` pairs; a ``.py`` head runs that script."""
    from repro.cli import _REGISTERED
    from repro.studies import all_studies

    cache, stream = ("--cache-dir", f"{tmp}/cache"), f"{tmp}/run.jsonl"
    repro = [
        ((name,) if name in _REGISTERED else ("study", "run", name)) + GO
        for name in all_studies()
    ] + [
        ("list",), ("table2",), ("table3",), ("study", "list"), ("ablations",) + GO,
        ("figure3", "--bars", "energy", "--csv", f"{tmp}/f.csv", "--json", f"{tmp}/f.json")
        + GO, ("figure6", "--bars", "ed") + GO,
        ("campaign", "C2", "gating:1", "--seeds", "2", "--save", f"{tmp}/c.json") + GO,
        ("smt", "--mix", "mix2-branchy", "--policy", "round-robin", "--sharing", "shared",
         "--seed", "3") + RUN,
        ("smt", "--mix", "mix2-steady") + RUN + cache,  # cold, then warm: an SMT
        ("smt", "--mix", "mix2-steady") + RUN + cache,  # result's cache round trip
        ("run", "go", "C2") + RUN + cache, ("run", "go", "C2", "jrs") + RUN + cache,
        ("study", "run", "mshr", "--jobs", "2") + GO[:-2],  # the pool's parent side
        ("run", "go", "gating:1", "--sanitize") + RUN,
        ("run", "go", "A1", "--telemetry-out", stream) + RUN,
        ("telemetry", "summary", stream), ("telemetry", "export", stream),
        ("telemetry", "top", stream, "--top", "5"),
        ("cache", "info") + cache, ("cache", "prune", "--max-bytes", "1") + cache,
        ("check",), ("check", "--format", "json"),
    ]
    scripts = [  # the examples at their CI lengths, plus one that adapts
        (f"examples/{name}.py", *args) for name, *args in (
            ("ablation_study", "1"), ("adaptive_throttling", "1"),
            ("adaptive_throttling", "2000"), ("confidence_quality", "1"),
            ("custom_workload", "1"), ("deep_pipeline_study", "700"),
            ("policy_exploration", "twolf", "700"), ("policy_pareto", "1"),
            ("power_breakdown", "go", "1"), ("quickstart", "go", "1"),
            ("wrong_path_forensics",))
    ] + [("tools/tune_workloads.py", "1")] + [
        ("tools/profile_run.py", "--instructions", "700", "--warmup", "100") + extra
        for extra in ((), ("--stage-timers",), ("--skip-stats", "--experiment", "C2"),
                      ("--mix", "mix2-branchy"))
    ]
    return [(argv, 0) for argv in repro + scripts] + [  # and the error paths
        (("run", "go", "C2", "bogus"), 1), (("run", "go"), 2), (("smt",), 2),
        (("figure3", "--seeds", "9"), 2), (("study", "run", "nope"), 1),
    ]


def invoke(argv):
    """Run one invocation in this process: ``(exit code, output)``."""
    from repro.cli import main

    environ, saved_argv, output = dict(os.environ), sys.argv, io.StringIO()
    try:
        with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
            if argv[0].endswith(".py"):
                sys.argv = list(argv)
                runpy.run_path(os.path.join(ROOT, argv[0]), run_name="__main__")
                code = 0
            else:
                code = main(list(argv))
    except SystemExit as exit:
        code = exit.code
    except Exception:  # an uncaught error exits the interpreter with 1
        code = 1
        output.write(traceback.format_exc())
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.argv = saved_argv
    return (code if isinstance(code, int) else int(code is not None)), output.getvalue()


def universe():
    """``DEAD001``'s symbols as ``module:Symbol``, and file path -> module."""
    from repro.analysis.walker import ProjectIndex, qualified_symbols

    modules = ProjectIndex.build(SRC).modules
    symbols = {
        f"{info.name}:{symbol}" for info in modules
        for symbol, node in qualified_symbols(info.tree) if node is not info.tree
    }
    return symbols, {os.path.join(SRC, info.path): info.name for info in modules}


def read_allowlist(path: str = ALLOWLIST):
    """``(symbol, reason)`` per entry line; ``#`` starts a comment."""
    with open(path, encoding="utf-8") as handle:
        lines = [line.split("#", 1)[0].split() for line in handle]
    return [(line[0], " ".join(line[1:])) for line in lines if line]


def compare(never_run, allowed):
    """``(never-run symbols with no entry, entries that are not never-run)``."""
    allowed = set(allowed)
    return sorted(set(never_run) - allowed), sorted(allowed - set(never_run))


def main() -> int:
    start, seen = time.perf_counter(), set()

    def hook(frame, event, arg, add=seen.add):
        add(frame.f_code)

    class Profile(cProfile.Profile):  # before 3.12, a profile takes the hook over
        def disable(self):
            super().disable()
            sys.setprofile(hook)

    cProfile.Profile = Profile  # so tools/profile_run.py hands it back
    sys.setprofile(hook)
    with tempfile.TemporaryDirectory() as tmp:
        invocations = corpus(tmp)
        results = [(argv, expected, *invoke(argv)) for argv, expected in invocations]
    sys.setprofile(None)
    symbols, modules = universe()
    ran = {f"{modules.get(os.path.abspath(code.co_filename))}:{code.co_qualname}"
           for code in seen}
    never_run = symbols - ran
    new, stale = compare(never_run, [symbol for symbol, _ in read_allowlist()])
    failed = [result for result in results if result[1] != result[2]]
    for argv, expected, code, output in failed:
        print(f"exit {code}, expected {expected}: {' '.join(argv)}\n{output[-2000:]}")
    for symbol in new:
        print(f"never ran, no allowlist entry: {symbol}")
    for symbol in stale:
        print(f"stale allowlist entry ({'it ran' if symbol in symbols else 'no such function'}):"
              f" {symbol}")
    print(f"caller corpus: {len(invocations)} invocations, {len(symbols)} functions, "
          f"{len(never_run)} never ran; {time.perf_counter() - start:.0f} s wall")
    return 1 if failed or new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
