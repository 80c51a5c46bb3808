"""The line tools/identity.py prints for one comparison."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "identity.py"
_SPEC = importlib.util.spec_from_file_location("identity_tool", _PATH)
identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity)

_DIGEST = "0123456789abcdef" * 4


def test_identical_row_prints_its_fields():
    row = [_DIGEST, 0.75, 1200, 3]
    line = identity.row_line("known seed 1", row, list(row), [1.0, 2.0], [1.0, 2.0])
    assert line == (
        "known seed 1: identical (digest 0123456789abcdef, final_ndcg5 0.75, clicks 1200, capped 3)"
    )


def test_differing_workload_shows_how_far_its_weights_and_ndcg_moved():
    want = [_DIGEST, 0.75, 1200, 3]
    got = ["fedcba9876543210" * 4, 0.7525, 1200, 3]
    line = identity.row_line("em seed 7", want, got, [2.0, -4.0, 0.0], [2.0, -4.5, 0.0])
    assert line == (
        "em seed 7: DIFFERS (digest 0123456789abcdef vs fedcba9876543210,"
        " final_ndcg5 0.75 vs 0.7525; final weights: largest difference 0.5 absolute,"
        " 0.125 relative; final_ndcg5 difference +0.0025)"
    )


def test_differing_corpus_digest_has_no_weights_to_compare():
    line = identity.row_line("load_svmlight ragged seed 1", [_DIGEST], ["f" * 64])
    assert line == "load_svmlight ragged seed 1: DIFFERS (digest 0123456789abcdef vs ffffffffffffffff)"
