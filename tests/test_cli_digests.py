"""Every call of tools/compare_cli.py's matrix still gives the digests in cli_digests.json.

The command line's outputs are pinned bytes: basis dumps, integer tables,
sweep CSV, learn records, seeded samples, exit codes and error text.  The
manifest records, per call, a digest of each part (``exit``, ``stdout``,
``stderr``, ``file:<name>``), so a failure names the calls and the parts
that moved.  A change that moves an output on purpose reruns
``PYTHONPATH=src python tools/compare_cli.py``, commits the manifest and
names the moved calls in CHANGES.md.

The manifest holds the bits of the build that wrote it, and another numpy,
BLAS or machine may round differently, so on another build the check fails
and names both fingerprints rather than comparing digests.
"""

import json
import os
import tempfile

import pytest

import gbst.cli

HERE = os.path.dirname(os.path.abspath(__file__))
TOOLS = os.path.join(os.path.dirname(HERE), "tools")


@pytest.fixture
def tool(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(TOOLS)
    # the data directory and every call's working directory
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    import compare_cli

    return compare_cli


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(HERE, "cli_digests.json")) as f:
        return json.load(f)


def check_build(tool, manifest):
    here = tool.fingerprint()
    if manifest["fingerprint"] != here:
        pytest.fail(f"cli_digests.json holds the digests of {manifest['fingerprint']}, "
                    f"but this build is {here}: compare on that build, or check this build's "
                    "outputs and rerun tools/compare_cli.py")


def moved(expected, actual):
    """One line per call whose digests differ: the call, then each part that moved."""
    lines = []
    for call in [*expected, *(c for c in actual if c not in expected)]:
        old, new = expected.get(call, {}), actual.get(call, {})
        parts = sorted(p for p in old.keys() | new.keys() if old.get(p) != new.get(p))
        if parts:
            lines.append(f"{call}: {', '.join(parts)}")
    return lines


def test_every_call_gives_its_committed_digests(tool, manifest, monkeypatch, tmp_path):
    check_build(tool, manifest)
    run_call, ran, leaked = tool.run_call, [], []

    def run_and_check(argv, data_dir):
        parts = run_call(argv, data_dir)
        ran.append(argv)
        leaked.extend(f"{argv}: {part}" for part, data in parts.items()
                      if str(tmp_path).encode() in data)
        return parts

    monkeypatch.setattr(tool, "run_call", run_and_check)
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    actual = tool.digests()
    assert (os.getcwd(), os.environ.get("COLUMNS")) == (cwd, columns)
    assert len(actual) == len(ran) == len(manifest["calls"])  # one key per call
    assert not [call for call in actual if str(tmp_path) in call]
    assert not leaked
    lines = moved(manifest["calls"], actual)
    if lines:
        pytest.fail(f"{len(lines)} of {len(actual)} calls moved:\n" + "\n".join(lines))


def test_a_moved_byte_is_named_with_its_call_and_part(tool, manifest, monkeypatch):
    dump, matrix = gbst.cli.gbt_dump, tool.call_matrix
    monkeypatch.setattr(gbst.cli, "gbt_dump", lambda t, lap: "moved " + dump(t, lap))
    # the calls at N = 8, less the long samples
    monkeypatch.setattr(tool, "call_matrix",
                        lambda data: [c for c in matrix(data) if "8" in c and "big.txt" not in c])
    actual = tool.digests()
    expected = {call: manifest["calls"][call] for call in actual}
    dumped = [call for call in expected
              if call.startswith("gbst basis ") and "file:basis.txt" in expected[call]]
    assert len(dumped) == 14 and len(expected) > 4 * len(dumped)
    assert moved(expected, actual) == [f"{call}: file:basis.txt" for call in dumped]


def test_another_build_fails_naming_both_fingerprints(tool, manifest):
    other = dict(manifest, fingerprint=dict(manifest["fingerprint"], numpy="1.0.0"))
    with pytest.raises(pytest.fail.Exception) as info:
        check_build(tool, other)
    assert str(other["fingerprint"]) in str(info.value)
    assert str(tool.fingerprint()) in str(info.value)
