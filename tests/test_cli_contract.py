"""The command line's contract on numeric flags: a typed exit code, never a traceback.

Hypothesis draws the numeric flags of ``basis``, ``gen-matrix``, ``sample``,
``sweep --model-v``, ``refine`` and ``verify --n`` from edge values (0, -1,
2^63, nan, inf, 1e308, 5e-324) and a few ordinary ones.  Each call runs
in-process through ``tools/compare_cli.run_call``, with warnings raised as
errors, so a numpy warning escapes like any other exception.  A count from
these values never starts a long draw: 2^63 passes the sample-size bound.
"""

import importlib.util
import os
import tempfile
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "compare_cli.py")
EDGE = ("0", "-1", str(2**63), "nan", "inf", "1e308", "5e-324")
ORDINARY = {"--w": ("1", "2.5"), "--v": ("0.75", "1"), "--n": ("2", "8"), "--count": ("1", "3"),
            "--seed": ("0", "7"), "--model-v": ("0.5", "2")}
# each command with its fixed arguments, then its drawn flags
COMMANDS = {
    "basis": ([], ("--w", "--v", "--n")),
    "gen-matrix": ([], ("--w", "--v", "--n")),
    "sample": ([], ("--w", "--v", "--n", "--count", "--seed")),
    "sweep": (["--alphas", "0:0.25:1"], ("--model-v", "--n")),
    "refine": ([], ("--w", "--v", "--n")),
    "verify": ([], ("--n",)),
}


def _load_tool():
    spec = importlib.util.spec_from_file_location("compare_cli", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run_call = _load_tool().run_call


@st.composite
def numeric_argv(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    fixed, flags = COMMANDS[command]
    # --flag=value, so that argparse reads "-1" as a value
    return [command, *fixed, *(f"{flag}={draw(st.sampled_from(EDGE + ORDINARY[flag]))}" for flag in flags)]


@settings(max_examples=200, deadline=None)
@given(argv=numeric_argv())
# 4w + v overflows: these warned, then exited 0 with a table of -2^63 or rows of zeros
@example(argv=["gen-matrix", "--w=1e308", "--v=0", "--n=64"])
@example(argv=["sample", "--w=1e308", "--v=1e308", "--n=4", "--count=2", "--seed=0"])
def test_numeric_flags_end_in_a_typed_exit(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parts = run_call(argv, tempfile.gettempdir())
    code, err = int(parts["exit"]), parts["stderr"].decode()
    assert code in (0, 1, 2, 3)
    assert code != 1 or argv[0] == "verify"
    if code == 3:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.count("error:") == 1
