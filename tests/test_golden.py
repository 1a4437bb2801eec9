"""The golden output corpus: every request of tests/golden/requests.txt
prints exactly its recorded stdout and exits with its recorded code.

A change that moves a byte regenerates the corpus with
tests/golden/regenerate.py and names each moved cell.
"""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "golden_regenerate", Path(__file__).parent / "golden" / "regenerate.py")
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)

_EXPECTED = golden.expected()


@pytest.mark.parametrize("name, argv", golden.requests(),
                         ids=[name for name, _ in golden.requests()])
def test_request_prints_its_golden_output(name, argv):
    assert golden.run(argv) == _EXPECTED[name]


def test_every_golden_file_has_a_request():
    names = {name for name, _ in golden.requests()}
    assert len(names) == len(golden.requests())
    outs = {p.stem for p in (Path(__file__).parent / "golden").glob("*.out")}
    assert outs == names
