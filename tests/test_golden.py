"""The golden output corpus: every request of tests/golden/requests.txt
prints exactly its recorded stdout and exits with its recorded code, and
every request of tests/golden/numpy_layers/requests.txt matches its
recording cell by cell.

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


_NUMPY_REQUESTS = golden.requests(golden.NUMPY_LAYERS)
_EXPECTED_NUMPY = golden.expected(golden.NUMPY_LAYERS)


@pytest.mark.parametrize("name, argv", _NUMPY_REQUESTS,
                         ids=[name for name, _ in _NUMPY_REQUESTS])
def test_numpy_request_matches_its_golden_cells(name, argv):
    assert golden.cells_match(golden.run(argv), _EXPECTED_NUMPY[name])


def test_every_numpy_golden_file_has_a_request():
    names = {name for name, _ in _NUMPY_REQUESTS}
    assert len(names) == len(_NUMPY_REQUESTS)
    assert {p.stem for p in golden.NUMPY_LAYERS.glob("*.out")} == names


def test_cells_match_lets_only_numbers_move_and_only_by_the_tolerance():
    want = (0, "row,z\nnorm,,0.99999999999999722,,\n")
    # the last digit that the BLAS thread count moves at korder 2000
    assert golden.cells_match((0, "row,z\nnorm,,0.99999999999999711,,\n"),
                              want)
    for got in [(4, want[1]),
                (0, "row,z\nnorm,,0.99999999999799722,,\n"),
                (0, "row,z\nR_E,,0.99999999999999722,,\n"),
                (0, "row,z\nnorm,0.99999999999999722,,,\n"),
                (0, "row,z\nnorm,,0.99999999999999722,,\nnorm,,1,,\n"),
                (0, "")]:
        assert not golden.cells_match(got, want)
    assert golden.cells_match((0, '{"worst": 1.5e-13}'), (0, '{"worst": 0}'))
    assert not golden.cells_match((0, '{"worst": 2e-12}'), (0, '{"worst": 0}'))
    assert not golden.cells_match((0, '{"passed": false}'),
                                  (0, '{"passed": true}'))
