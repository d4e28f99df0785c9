"""``python -m gbst`` and the ``gbst`` console script: run gbst.cli as ``__main__``."""

import runpy


def main():
    runpy.run_module("gbst.cli", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
