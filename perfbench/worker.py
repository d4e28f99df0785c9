"""Long-lived fit-batch worker: pays the import once, then runs one library pass per request.

    PYTHONPATH=src python3 perfbench/worker.py INPUTS.npz

It answers on stdout with one JSON line per request read from stdin:
``pass 0`` runs an untraced pass, ``pass 1`` a traced one, ``spans``
returns the spans of every traced pass so far, and end of input stops it.
"""

from __future__ import annotations

import json
import resource
import sys
import time

from shim import Tracer, timed_imports

FAMILIES = ("L1", "L2")
ALPHAS = [i * 0.25 for i in range(9)]


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def fit_pass(stacks, qblocks, step) -> list:
    """One pass: for each N and family, covariances -> ML fit -> refine -> sweep -> GBT -> table -> quantize."""
    # imported per pass so that a traced pass gets the wrapped functions
    from gbst import (
        GraphFamily, GraphParams, alpha_sweep, build_ggl, derive_gbt, integerize,
        make_dataset, quantize_roundtrip_distortion, refine, residual_covariances, solve_ml,
    )

    out = []
    for n, blocks in stacks.items():
        dataset = make_dataset(blocks)
        row_cov, col_cov = residual_covariances(dataset)
        for name in FAMILIES:
            family = GraphFamily(name)
            fits = [solve_ml(cov, family) for cov in (row_cov, col_cov)]
            alphas = [refine(sol, n).alpha for sol in fits]
            rows = alpha_sweep(row_cov, n, family, ALPHAS)
            row_t, col_t = (derive_gbt(build_ggl(GraphParams(1.0, a, family), n)) for a in alphas)
            tables = [integerize(t).entries.tolist() for t in (row_t, col_t)]
            mse, entropy = quantize_roundtrip_distortion(qblocks[n], row_t, col_t, step)
            out.append({
                "n": n, "family": name,
                "fits": [[sol.w_star, sol.v_star] for sol in fits],
                "alphas": alphas,
                "sweep": [[a, m.coding_gain_db, m.energy_compaction, m.entropy_proxy_bits] for a, m in rows],
                "tables": tables,
                "quantize": [mse, entropy],
            })
    return out


def main() -> int:
    imports = timed_imports()
    import numpy as np

    with np.load(sys.argv[1]) as data:
        step = float(data["step"])
        sizes = [int(n) for n in data["sizes"]]
        stacks = {n: data[f"blocks{n}"].astype(np.float64) for n in sizes}
        qblocks = {n: stacks[n][: int(data["qcount"])] for n in sizes}
    tracer = Tracer()
    print(json.dumps({"imports": imports}), flush=True)
    for line in sys.stdin:
        cmd = line.split()
        if cmd == ["spans"]:
            print(json.dumps({"spans": tracer.spans}), flush=True)
            continue
        traced = cmd == ["pass", "1"]
        if traced:
            tracer.install()
        c0, t0 = _cpu(), time.perf_counter()
        try:
            results = fit_pass(stacks, qblocks, step)
        finally:
            wall, cpu = time.perf_counter() - t0, _cpu() - c0
            tracer.uninstall()
        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps({"wall": wall, "cpu": cpu, "maxrss_kb": maxrss, "results": results}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
