"""The command line's contract: a typed exit code, never a traceback.

Hypothesis draws the numeric flags of ``basis``, ``gen-matrix``, ``sample``,
``sweep --model-v``, ``refine`` and ``verify --n`` from edge values (0, -1,
2^63, nan, inf, 1e308, 5e-324) and a few ordinary ones.  It also runs
``learn`` and ``sweep --data`` on truncated, corrupt and degenerate GBSR
files, and ``sweep`` on malformed and edge ``--alphas`` ranges.  Each call
runs in-process through ``tools/compare_cli.run_call``, with warnings raised
as errors, so a numpy warning escapes like any other exception.  A count
from these values never starts a long draw: 2^63 passes the sample-size bound.
"""

import importlib.util
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gbst.dataset import _HEADER, MAGIC, VERSION

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
    assert_typed_exit(argv, tempfile.gettempdir())


def assert_typed_exit(argv, data_dir):
    """Run ``argv``; its exit is 0-3, 1 only from verify, and an exit 3 prints one ``error:`` line."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parts = run_call(argv, data_dir)
    code, err = int(parts["exit"]), parts["stderr"].decode()
    assert code in (0, 1, 2, 3)
    assert code != 1 or argv[0] == "verify"
    if code == 3:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.count("error:") == 1


def _gbsr(n, m, payload_blocks=None, magic=MAGIC, version=VERSION):
    """A GBSR file's bytes: the header of (n, m), then ``payload_blocks`` random i16 n x n blocks."""
    blocks = np.random.default_rng(n).integers(-99, 100, (m if payload_blocks is None else payload_blocks, n, n))
    return _HEADER.pack(magic, version, n, m) + blocks.astype("<i2").tobytes()


_GOOD = _gbsr(4, 40)
# file name -> bytes; "missing.gbsr" is never written
GBSR_FILES = {
    "good.gbsr": _GOOD,
    "constant.gbsr": _HEADER.pack(MAGIC, VERSION, 4, 3) + bytes(2 * 3 * 16),
    "empty.gbsr": b"",
    "short_header.gbsr": _GOOD[: _HEADER.size - 1],
    "header_only.gbsr": _GOOD[: _HEADER.size],
    "short_payload.gbsr": _GOOD[:-1],
    "long_payload.gbsr": _GOOD + b"\0",
    "bad_magic.gbsr": b"GBSX" + _GOOD[4:],
    "wrong_version.gbsr": _gbsr(4, 40, version=VERSION + 1),
    "zero_count.gbsr": _gbsr(4, 0),
    "n_zero.gbsr": _gbsr(0, 5),
    "n_one.gbsr": _gbsr(1, 5),
    "n_too_big.gbsr": _gbsr(65, 1),
    "huge_count.gbsr": _gbsr(4, 2**32 - 1, payload_blocks=2),
}
ALPHAS = ("0:0.25:2", "1:1:1", "a:b:c", "0:0:1", "1:0.25:0", "nan:1:2", "0:0.3:1", "0:0.25", "",
          "-1:0.25:0", "0:0.25:1e308", "1e308:0.25:1e308", "0:1e308:1e308", "-inf:1:0", "5e-324:0.25:1")


@pytest.fixture(scope="module")
def gbsr_dir(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("gbsr")
    for name, data in GBSR_FILES.items():
        (data_dir / name).write_bytes(data)
    return str(data_dir)


@st.composite
def data_argv(draw):
    data = draw(st.sampled_from(sorted(GBSR_FILES) + ["missing.gbsr", "."]))
    if draw(st.booleans()):
        return ["learn", f"--data={data}", f"--family={draw(st.sampled_from(['L1', 'L2']))}",
                f"--direction={draw(st.sampled_from(['row', 'col']))}", "--json"]
    source = draw(st.sampled_from([[f"--data={data}"], [f"--data={data}", "--n=8"], ["--model-v=1", "--n=4"]]))
    return ["sweep", f"--alphas={draw(st.sampled_from(ALPHAS))}", *source]


@settings(max_examples=150, deadline=None)
@given(argv=data_argv())
@example(argv=["learn", "--data=short_payload.gbsr", "--json"])
@example(argv=["sweep", "--alphas=0:0.3:1", "--data=zero_count.gbsr"])
def test_data_files_and_alphas_end_in_a_typed_exit(gbsr_dir, argv):
    # relative --data paths resolve in gbsr_dir: run_call runs in an empty cwd, so they are made absolute
    argv = [f"--data={os.path.join(gbsr_dir, a[7:])}" if a.startswith("--data=") else a for a in argv]
    assert_typed_exit(argv, gbsr_dir)
