"""The lines tools/identity.py prints for its comparisons."""

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


def _outputs(root, name, csv_rows, manifest="{}\n"):
    out = root / name
    out.mkdir()
    lines = ["round,ndcg5,mean_client_loss,total_clicks", *csv_rows]
    (out / "run_rep0.csv").write_text("\n".join(lines) + "\n")
    (out / "manifest.json").write_text(manifest)
    return out


def test_differing_cli_outputs_show_each_file_and_column(tmp_path):
    want = _outputs(tmp_path, "rev", ["0,0.5,2.0,10", "1,0.625,1.5,12", "2,0.75,1.25,9"])
    got = _outputs(
        tmp_path, "checkout", ["0,0.5,2.0,10", "1,0.625,1.5000000000000002,12", "2,0.75,1.0,9"],
        manifest='{"seed": 1}\n',
    )
    assert identity.output_lines(want, got) == [
        "manifest.json: DIFFERS",
        "run_rep0.csv round: identical",
        "run_rep0.csv ndcg5: identical",
        "run_rep0.csv mean_client_loss: DIFFERS in 2 of 3 rows;"
        " largest difference 0.25 absolute, 0.2 relative",
        "run_rep0.csv total_clicks: identical",
    ]


def test_whole_files_read_identical_or_only_on_one_side(tmp_path):
    rows = ["0,0.5,2.0,10", "1,0.625,1.5,12"]
    want, got = _outputs(tmp_path, "rev", rows), _outputs(tmp_path, "checkout", rows)
    (want / "lambda.json").write_text("{}\n")
    assert identity.output_lines(want, got) == [
        "lambda.json: only in rev",
        "manifest.json: identical",
        "run_rep0.csv: identical",
    ]
