"""Command-line interface: verify, basis, learn, refine, sweep, gen-matrix, sample.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 data error.
All commands are deterministic given their flags and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

if __name__ == "__main__":
    # The command owns its process.  At N <= 64 no BLAS or LAPACK call gains
    # from a second thread, which only spins after numpy loads and after each
    # first eigh at N > 25.  Set before numpy loads; a value the user set wins.
    # Library callers, and main() called in-process, keep numpy's default.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

import numpy as np

from . import coding, estimation, trig
from .dataset import read_gbsr
from .errors import GBSTError
from .estimation import ALPHA_STEP
from .graph import GraphFamily, GraphParams, build_ggl, matrix_text, text_blocks
from .spectral import derive_gbt, gbt_dump
from .trig import TrigTransformKind

VERIFY_SIZES = (4, 8, 16, 32)
VERIFY_TOL = 1e-8
_MAX_ALPHAS = 4096


def _write(path, text) -> None:
    """Write a str, or each str of an iterable in turn, to the file at ``path`` or to stdout."""
    if isinstance(text, str):
        text = (text,)
    if path is None:
        sys.stdout.writelines(text)
    else:
        with open(path, "w") as f:
            f.writelines(text)


class _Counted:
    """The strs of ``parts`` in turn; len() is the characters given so far.

    perfbench/shim.py takes len() of ``_write``'s text, after the write, as
    the bytes written; a streamed text answers it without being held whole.
    """

    def __init__(self, parts):
        self.parts, self.chars = parts, 0

    def __iter__(self):
        for part in self.parts:
            self.chars += len(part)
            yield part

    def __len__(self):
        return self.chars


def _laplacian(args):
    """The graph named by --w, --v, --family and --n."""
    return build_ggl(GraphParams(args.w, args.v, args.family), args.n)


def cmd_verify(args, parser) -> int:
    kinds = [TrigTransformKind(args.kind)] if args.kind else list(trig.CORRESPONDENCE)
    sizes = [args.n] if args.n is not None else list(VERIFY_SIZES)
    failed = False
    for kind in kinds:
        ratio, family = trig.CORRESPONDENCE[kind]
        family = family or GraphFamily.L1
        params = GraphParams(1.0, ratio, family)
        for n in sizes:
            dev = trig.oracle_check(kind, params, n)
            ok = dev <= VERIFY_TOL
            failed |= not ok
            print(f"{'PASS' if ok else 'FAIL'} {kind.value} N={n} dev={dev:.3e}")
    return 1 if failed else 0


def cmd_basis(args, parser) -> int:
    lap = _laplacian(args)
    t = derive_gbt(lap)
    _write(args.out, gbt_dump(t, lap))
    if args.plot_data:
        idx = np.arange(t.size)
        blocks = (f"# k={k}\n" + matrix_text(np.column_stack((idx, t.basis[:, k]))) for k in idx)
        _write(args.plot_data, "".join(blocks))
    return 0


def cmd_learn(args, parser) -> int:
    dataset = read_gbsr(args.data)
    (cov,) = estimation.residual_covariances(dataset, (args.direction,))
    sol = estimation.solve_ml(cov, args.family)
    ref = estimation.refine(sol, dataset.block_size)
    record = {
        "direction": args.direction,
        "family": args.family,
        "n": dataset.block_size,
        "blocks": dataset.block_count,
        "w_star": sol.w_star,
        "v_star": sol.v_star,
        "ratio": sol.ratio,
        "alpha": ref.alpha,
        "objective": sol.objective,
        "converged": sol.converged,
        "iterations": sol.iterations,
        "boundary": sol.boundary,
    }
    if args.json:
        print(json.dumps(record))
    else:
        for key, value in record.items():
            print(f"{key}: {value}")
    return 0


def cmd_refine(args, parser) -> int:
    sol = estimation.MLSolution(w_star=args.w, v_star=args.v, objective=0.0)
    ref = estimation.refine(sol, args.n)
    if args.json:
        print(json.dumps({"ratio": args.v / args.w, "alpha": ref.alpha, "n": args.n}))
    else:
        print(f"alpha: {ref.alpha}")
    return 0


def _parse_alphas(spec: str, parser) -> list[float]:
    try:
        start, step, end = (float(x) for x in spec.split(":"))
    except ValueError:
        parser.error(f"--alphas must be start:step:end, got {spec!r}")
    if not all(math.isfinite(x) for x in (start, step, end)):
        parser.error(f"--alphas parts must be finite, got {spec!r}")
    if step <= 0 or not (step / ALPHA_STEP).is_integer():  # a huge step overflows step / ALPHA_STEP to inf
        parser.error(f"--alphas step must be a positive multiple of {ALPHA_STEP:g}, got {step}")
    span = (end - start) / step
    if span >= _MAX_ALPHAS:  # checked before the list is built
        parser.error(f"--alphas range {spec!r} has more than {_MAX_ALPHAS} points")
    count = int(round(max(span, -1.0)))  # any negative span is empty; -inf must not reach int()
    alphas = [start + i * step for i in range(count + 1) if start + i * step <= end + 1e-9]
    if not alphas:
        parser.error(f"--alphas range {spec!r} is empty")
    return alphas


def cmd_sweep(args, parser) -> int:
    alphas = _parse_alphas(args.alphas, parser)
    n = args.n
    if args.data:
        dataset = read_gbsr(args.data)
        if n is None:
            n = dataset.block_size
        coding.check_transform_size(n, dataset.block_size)  # before the data pass
        (cov,) = estimation.residual_covariances(dataset, ("row",))
    else:
        if args.model_v is None:
            parser.error("sweep needs --data or --model-v")
        if n is None:
            parser.error("sweep --model-v needs --n")
        cov = coding.model_covariance(build_ggl(GraphParams(1.0, args.model_v, args.family), n))
    rows = coding.alpha_sweep(cov, n, args.family, alphas)
    _write(args.out, coding.sweep_csv(rows))
    return 0


def cmd_gen_matrix(args, parser) -> int:
    if args.kind:
        t = trig.trig_matrix(TrigTransformKind(args.kind), args.n)
    elif args.w is not None and args.v is not None:
        t = derive_gbt(_laplacian(args))
    else:
        parser.error("gen-matrix needs --kind or both --w and --v")
    m = coding.integerize(t)
    _write(args.out, coding.int_matrix_text(m))
    return 0


def cmd_sample(args, parser) -> int:
    # the draw's checks run on this call, so a bad count, seed or precision leaves no file
    chunks = coding.gmrf_chunks(_laplacian(args), args.count, args.seed)
    _write(args.out, _Counted(text_blocks(chunks)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gbst")
    sub = parser.add_subparsers(dest="command", required=True)
    families = [f.value for f in GraphFamily]

    def command(name, run, summary):
        p = sub.add_parser(name, help=summary)
        # each command gets its own subparser, so its usage errors name the subcommand
        p.set_defaults(run=run, parser=p)
        return p

    def graph_options(p, required=True):  # the options that _laplacian reads
        p.add_argument("--family", choices=families, default="L1")
        p.add_argument("--w", type=float, required=required)
        p.add_argument("--v", type=float, required=required)
        p.add_argument("--n", type=int, required=True)

    p = command("verify", cmd_verify, "check all graph/trig correspondences")
    p.add_argument("--kind", choices=[k.value for k in TrigTransformKind])
    p.add_argument("--n", type=int)

    p = command("basis", cmd_basis, "dump a transform basis")
    graph_options(p)
    p.add_argument("--out")
    p.add_argument("--plot-data", dest="plot_data")

    p = command("learn", cmd_learn, "fit graph parameters to a GBSR dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--family", choices=families, default="L1")
    p.add_argument("--direction", choices=estimation.DIRECTIONS, default="row")
    p.add_argument("--json", action="store_true")

    p = command("refine", cmd_refine, "normalize and round a parameter pair")
    p.add_argument("--w", type=float, required=True)
    p.add_argument("--v", type=float, required=True)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = command("sweep", cmd_sweep, "coding metrics across the alpha grid")
    p.add_argument("--n", type=int, help="block size; defaults to the --data file's")
    p.add_argument("--family", choices=families, default="L1")
    p.add_argument("--alphas", required=True, help=f"start:step:end, step a multiple of {ALPHA_STEP:g}")
    p.add_argument("--model-v", dest="model_v", type=float)
    p.add_argument("--data")
    p.add_argument("--out")

    p = command("gen-matrix", cmd_gen_matrix, "8-bit integer transform table")
    p.add_argument("--kind", choices=[k.value for k in TrigTransformKind])
    graph_options(p, required=False)
    p.add_argument("--out")

    p = command("sample", cmd_sample, "draw reproducible GMRF vectors")
    graph_options(p)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.run(args, args.parser)
        sys.stdout.flush()  # a closed or full stdout fails here, as a data error
        return code
    except (GBSTError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    # With the output flushed, skip interpreter teardown: unloading numpy costs ~17 ms per command.
    code = main()
    sys.stderr.flush()
    os._exit(code)
