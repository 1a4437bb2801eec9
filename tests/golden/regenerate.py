"""Regenerate, or check, the golden output corpus of tests/golden.

    python tests/golden/regenerate.py          # rewrite <name>.out and exit_codes.txt
    python tests/golden/regenerate.py --check  # compare; exit 1 on a difference

Each request runs in this process through abcyl.cli.main.  The corpus
has two lists.  The commands of requests.txt never import numpy, and
their stdout is compared byte for byte, so --check also runs on an
interpreter that has no numpy installed.  The packet and verify
requests of numpy_layers/requests.txt are compared cell by cell (see
cells_match); --check skips them, with a note, when numpy is missing.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import re
import shlex
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
NUMPY_LAYERS = HERE / "numpy_layers"

# a number may move by this much relative to max(1, |recorded|): the BLAS
# thread count moves the last digit of a long sum, and a process that
# loads numpy before abcyl.cli does not run it on one thread
RTOL = 1e-12
# the separators between the cells of CSV and JSON output
_SEPARATORS = re.compile(r"([\s,:\[\]{}]+)")


def requests(corpus: Path = HERE) -> list[tuple[str, list[str]]]:
    """(name, argv) of each line of the corpus's requests.txt."""
    out = []
    for line in (corpus / "requests.txt").read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, *argv = shlex.split(line)
            out.append((name, argv))
    return out


def expected(corpus: Path = HERE) -> dict[str, tuple[int, str]]:
    """name -> (exit code, stdout) as the corpus records it."""
    codes = dict(line.split() for line in (corpus / "exit_codes.txt")
                 .read_text(encoding="utf-8").splitlines())
    return {name: (int(codes[name]),
                   (corpus / f"{name}.out").read_text(encoding="utf-8"))
            for name, _ in requests(corpus)}


def run(argv: list[str]) -> tuple[int, str]:
    """The exit code and stdout of `abcyl <argv>`, stderr discarded."""
    from abcyl.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _close(got: str, want: str) -> bool:
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    return abs(g - w) <= RTOL * max(1.0, abs(w))


def cells_match(got: tuple[int, str], want: tuple[int, str]) -> bool:
    """Whether (exit code, stdout) got matches want: the exit code, every
    separator and every cell that is not a number exactly, and each number
    within RTOL * max(1, |recorded|)."""
    cells, recorded = (_SEPARATORS.split(out) for _, out in (got, want))
    return (got[0] == want[0] and len(cells) == len(recorded)
            and all(a == b or _close(a, b) for a, b in zip(cells, recorded)))


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    corpora = {HERE: tuple.__eq__, NUMPY_LAYERS: cells_match}
    if argv == ["--check"]:
        if importlib.util.find_spec("numpy") is None:
            print("numpy is not installed: the requests of "
                  "numpy_layers/requests.txt are skipped", file=sys.stderr)
            del corpora[NUMPY_LAYERS]
        differ = 0
        for corpus, same in corpora.items():
            want = expected(corpus)
            got = {name: run(args) for name, args in requests(corpus)}
            moved = [name for name in got if not same(got[name], want[name])]
            for name in moved:
                print(f"differs: {name}", file=sys.stderr)
            print(f"{len(got) - len(moved)} of {len(got)} requests of "
                  f"{(corpus / 'requests.txt').relative_to(HERE)} match")
            differ += len(moved)
        return 1 if differ else 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    for corpus in corpora:
        got = {name: run(args) for name, args in requests(corpus)}
        for name, (_, stdout) in got.items():
            (corpus / f"{name}.out").write_text(stdout, encoding="utf-8",
                                                newline="")
        (corpus / "exit_codes.txt").write_text(
            "".join(f"{name} {code}\n" for name, (code, _) in got.items()),
            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
