"""Regenerate, or check, the golden output corpus of tests/golden.

    python tests/golden/regenerate.py          # rewrite <name>.out and exit_codes.txt
    python tests/golden/regenerate.py --check  # compare; exit 1 on a difference

Each request of requests.txt runs in this process through
abcyl.cli.main.  The listed commands never import numpy, so --check
also runs on an interpreter that has no numpy installed.
"""

from __future__ import annotations

import contextlib
import io
import shlex
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXIT_CODES = HERE / "exit_codes.txt"


def requests() -> list[tuple[str, list[str]]]:
    """(name, argv) of each line of requests.txt."""
    out = []
    for line in (HERE / "requests.txt").read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, *argv = shlex.split(line)
            out.append((name, argv))
    return out


def expected() -> dict[str, tuple[int, str]]:
    """name -> (exit code, stdout) as the corpus records it."""
    codes = dict(line.split() for line in
                 EXIT_CODES.read_text(encoding="utf-8").splitlines())
    return {name: (int(codes[name]),
                   (HERE / f"{name}.out").read_text(encoding="utf-8"))
            for name, _ in requests()}


def run(argv: list[str]) -> tuple[int, str]:
    """The exit code and stdout of `abcyl <argv>`, stderr discarded."""
    from abcyl.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    got = {name: run(args) for name, args in requests()}
    if argv == ["--check"]:
        want = expected()
        moved = [name for name in got if got[name] != want[name]]
        for name in moved:
            print(f"differs: {name}", file=sys.stderr)
        print(f"{len(got) - len(moved)} of {len(got)} requests match")
        return 1 if moved else 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    for name, (_, stdout) in got.items():
        (HERE / f"{name}.out").write_text(stdout, encoding="utf-8", newline="")
    EXIT_CODES.write_text("".join(f"{name} {code}\n"
                                  for name, (code, _) in got.items()),
                          encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
