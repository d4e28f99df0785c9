"""Tracing from outside the program: wrap gbst's public functions and record spans.

As a script it runs one CLI command traced:

    PYTHONPATH=src python3 perfbench/shim.py TRACE.json -- learn --data x.gbsr --json

It times the imports of numpy, scipy.linalg and gbst.cli in turn, wraps
every traced function at each gbst module that binds its name, runs
``gbst.cli.main(argv)`` and, when the command ends, writes the spans it
kept in memory to TRACE.json.  The fit-batch worker uses ``Tracer``
directly around a pass.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

# module -> public functions whose calls are spans ("_write" is the CLI's output step)
TRACED = {
    "gbst.cli": ("_write",),
    "gbst.dataset": ("read_gbsr",),
    "gbst.estimation": ("residual_covariances", "solve_ml"),
    "gbst.spectral": ("derive_gbt",),
    "gbst.trig": ("oracle_check",),
    "gbst.coding": (
        "alpha_sweep", "evaluate_metrics", "integerize",
        "quantize_roundtrip_distortion", "sample_gmrf",
    ),
    "gbst.graph": ("matrix_text",),
}
_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * _PAGE


def maxrss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _work(name, args, kwargs, result) -> dict:
    """Amount of work of one call, for the layer rates."""
    if name == "read_gbsr":
        return {"bytes": os.path.getsize(args[0])}
    if name == "residual_covariances":
        return {"bytes": int(args[0].blocks.nbytes)}
    if name == "solve_ml":
        return {"iterations": int(result.iterations)}
    if name == "quantize_roundtrip_distortion":
        blocks = args[0]
        return {"blocks": int(blocks.shape[0]) if blocks.ndim == 3 else 1}
    if name == "sample_gmrf":
        return {"vectors": int(args[1] if len(args) > 1 else kwargs["count"])}
    if name == "matrix_text":
        return {"bytes": len(result)}
    if name == "_write":
        return {"bytes": len(args[1])}
    return {}


class Tracer:
    """Spans kept in memory: [name, start, end, id, parent id, work], times in seconds."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []

    def wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            sid = len(tracer.spans)
            tracer.spans.append(None)  # reserve the id so that children can point at it
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(sid)
            rss0, peak0 = rss_bytes(), maxrss_bytes()
            t0 = time.perf_counter()
            work = {"raised": 1}
            try:
                result = fn(*args, **kwargs)
                work = _work(name, args, kwargs, result)
                if name in ("read_gbsr", "residual_covariances"):
                    # the call's own peak is known only if it raised the process's high-water
                    # mark; otherwise the RSS it left behind is a lower bound
                    peak = maxrss_bytes()
                    work["rss_growth"] = max((peak if peak > peak0 else rss_bytes()) - rss0, 0)
                return result
            finally:
                tracer._stack.pop()
                tracer.spans[sid] = [name, t0, time.perf_counter(), sid, parent, work]

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace each traced function in every loaded gbst module that binds it."""
        originals = {}
        for modname, names in TRACED.items():
            mod = sys.modules[modname]
            for name in names:
                originals[id(getattr(mod, name))] = (name, getattr(mod, name))
        for modname, mod in list(sys.modules.items()):
            if not (modname == "gbst" or modname.startswith("gbst.")):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][1] is value:
                    name, fn = originals[id(value)]
                    self._saved.append((mod, attr, fn))
                    setattr(mod, attr, self.wrap(name, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in self._saved:
            setattr(mod, attr, fn)
        self._saved.clear()


def timed_imports() -> dict:
    """Import numpy, scipy.linalg and gbst.cli in turn; wall time of each, CPU time of all."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import scipy.linalg  # noqa: F401

    t2 = time.perf_counter()
    import gbst.cli  # noqa: F401

    t3 = time.perf_counter()
    return {"numpy": t1 - t0, "scipy": t2 - t1, "gbst": t3 - t2, "cpu": time.process_time() - c0}


def main() -> int:
    out, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        raise SystemExit("usage: shim.py TRACE.json -- <gbst arguments>")
    imports = timed_imports()
    import gbst.cli

    tracer = Tracer()
    tracer.install()
    try:
        rc = tracer.wrap("main", gbst.cli.main)(argv)
    finally:
        with open(out, "w") as f:
            json.dump({"imports": imports, "spans": tracer.spans}, f)
    return rc


if __name__ == "__main__":
    sys.exit(main())
