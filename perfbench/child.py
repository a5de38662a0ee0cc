"""One benchmark child process: runs `noma_perf.cli.main` on one argument
vector and records what the parent needs.

    python3 perfbench/child.py SPEC.json

SPEC holds `src` (the directory to import noma_perf from), `argv` (the CLI
arguments), `probe` (stop right after the config parse), `trace` (record
spans) and the `result` and `spans` output paths.

The result file holds the monotonic times at which numpy was imported
(before anything of the program) and at which the config parse returned
(the end of set-up), the CLI's exit code and standard output, and
the Python and numpy versions. With tracing on, wrappers
around the package's public functions record one span per call, patched
where each name is called; spans stay in memory and are written to the
spans file when the child ends.
"""

import contextlib
import io
import itertools
import json
import sys
import threading
import time


def now():
    # CLOCK_MONOTONIC is system-wide, so the parent can subtract its own
    # readings taken before the child was spawned
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SetupDone(BaseException):
    """Raised by the set-up probe once the config is parsed."""


class Tracer:
    """Spans as (id, name, start, end, thread, parent, count, bytes).

    The parent of a span is the innermost open span of its own thread or,
    in a worker thread with none open, of the main thread: Monte Carlo
    pool threads thereby nest under the `simulate` call that fed them.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, measure=None):
        """`fn` wrapped so that each call records a span; `measure(result)`
        gives the span's (count, bytes)."""
        def traced(*args, **kwargs):
            stack = self._stack()
            outer = stack or self._main_stack
            parent = outer[-1] if outer else None
            sid = next(self._ids)
            stack.append(sid)
            result = None
            start = now()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = now()
                stack.pop()
                count, nbytes = measure(result) if measure and result is not None else (1, 0)
                with self._lock:
                    self.spans.append((sid, name, start, end, threading.get_ident(),
                                       parent, count, nbytes))
        return traced

    def patch(self, module, attr, name, measure=None):
        if hasattr(module, attr):
            setattr(module, attr, self.wrap(name, getattr(module, attr), measure))


def _elements(result):
    return int(getattr(result, "size", 1)), 0


def _draws(result):
    arrays = {id(a): a for a in result if a is not None}
    return int(result[2].size), int(sum(a.nbytes for a in arrays.values()))


def _trials(result):
    return int(result.trials), 0


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    # start-up that the program cannot change: the parent paces the
    # machine's speed with it
    import numpy
    startup_done = now()
    sys.path.insert(0, spec["src"])

    from noma_perf import analytic, montecarlo

    tracer = Tracer() if spec["trace"] else None
    if tracer:
        # cli captures the outage evaluators at import, so these go first
        for attr in dir(analytic):
            if attr.startswith(("outage_", "secrecy_")) and callable(getattr(analytic, attr)):
                tracer.patch(analytic, attr, "analytic." + attr.split("_", 1)[0])
        tracer.patch(analytic, "expint_e1_scaled", "specfun.e1", _elements)
        tracer.patch(analytic, "lower_incomplete_gamma", "specfun.gammainc", _elements)
        tracer.patch(montecarlo, "sample_batch", "channel.sample", _draws)
        tracer.patch(montecarlo, "simulate", "montecarlo.simulate", _trials)

    from noma_perf import cli

    setup_done = []
    parse_config = cli.parse_config

    def parse_and_mark(path):
        settings = parse_config(path)
        if not setup_done:
            setup_done.append(now())
        if spec["probe"]:
            raise SetupDone
        return settings

    cli.parse_config = parse_and_mark
    run_cli = cli.main
    if tracer:
        tracer.patch(cli, "parse_config", "config.parse")
        tracer.patch(cli, "sample_batch", "channel.sample", _draws)
        tracer.patch(cli, "power_split", "noma_core")
        tracer.patch(cli, "multicast_rate", "noma_core")
        run_cli = tracer.wrap("cli", cli.main)

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = run_cli(spec["argv"])
        except SetupDone:
            rc = 0
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 1

    if tracer:
        with open(spec["spans"], "w") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))
    with open(spec["result"], "w") as fh:
        json.dump({
            "startup_done": startup_done,
            "setup_done": setup_done[0] if setup_done else None,
            "rc": rc,
            "stdout": out.getvalue(),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
        }, fh)


if __name__ == "__main__":
    main()
