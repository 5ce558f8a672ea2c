"""Self-test of the benchmark's own gates: a timing that is zero, missing or
not a number, an empty trace, or an output that differs from its golden must
each fail the run.  ``run.py`` executes this before every measurement;
``python3 perfbench/selftest.py`` runs it alone."""

import math
import sys


def expect_failure(run, label, action):
    try:
        action()
    except run.BenchError:
        return
    raise AssertionError(f"self-test: {label} was accepted")


def check(run):
    """Raise ``AssertionError`` unless every gate of ``run`` refuses bad input."""
    good = {name: 1.5 for name in run.END_TO_END}
    run.validate(good, run.END_TO_END)
    for name in run.END_TO_END:
        for label, value in (("zero", 0.0), ("NaN", math.nan), ("infinite", math.inf),
                             ("negative", -1.0), ("non-numeric", None)):
            expect_failure(run, f"a {label} {name}",
                           lambda: run.validate({**good, name: value}, run.END_TO_END))
        missing = {k: v for k, v in good.items() if k != name}
        expect_failure(run, f"a missing {name}",
                       lambda: run.validate(missing, run.END_TO_END))
    expect_failure(run, "an empty trace", lambda: run.self_times([], 1.0))
    unclosed = [{"id": 0, "parent": None, "name": "sweeps.run", "start": 1.0, "end": None}]
    expect_failure(run, "an unclosed span", lambda: run.self_times(unclosed, 2.0))

    gate = run.Gate("selftest", 0)
    report = {"fingerprint": "a", "points": 1, "engine_runs": [
        {"flit_hops": 10, "messages_submitted": 1, "messages_completed": 1}]}
    gate.check(report)
    changed = dict(report, fingerprint="b")
    expect_failure(run, "a changed fingerprint", lambda: gate.check(changed))


def main():
    import run

    check(run)
    print("perfbench self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
