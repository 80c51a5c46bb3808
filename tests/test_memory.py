"""Peak memory of loading and preparing a corpus, in multiples of the
feature bytes it yields. numpy reports its array allocations to
tracemalloc, so the traced peak counts every full-size temporary."""

import tracemalloc
from dataclasses import replace

from fedltr.cli import load_experiment_data, parse_spec
from fedltr.dataset import _ranges, generate_synthetic, load_svmlight, write_svmlight


def _traced_peak(build):
    """The result of `build()` and the peak bytes traced while it ran.
    A first untraced call keeps lazy imports out of the count."""
    build()
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_preparing_a_corpus_holds_at_most_two_copies():
    # Filter, scale and split: each stage's input is freed once its output
    # exists, and scaling builds no full-size temporary.
    spec = parse_spec(None, {})
    spec = replace(
        spec, synthetic={"queries": 200, "docs_per_query": 20, "feature_dim": 50, "seed": 3}
    )
    (train, test), peak = _traced_peak(lambda: load_experiment_data(spec))
    assert peak <= 2.5 * (train.features.nbytes + test.features.nbytes)


def test_generating_a_corpus_holds_about_one_copy():
    # The per-query loop writes into the feature block; grading adds three
    # arrays of one value per document, 2 % of the block each at 50 features.
    data, peak = _traced_peak(lambda: generate_synthetic(500, 20, 50, seed=7))
    assert peak <= 1.08 * data.features.nbytes


def test_loading_a_dense_file_as_one_range_holds_about_one_copy(tmp_path):
    # Its lines are dense and equally wide, and its queries contiguous: the
    # buffer of token values is the feature matrix.
    path = str(tmp_path / "dense.txt")
    write_svmlight(generate_synthetic(60, 20, 50, seed=4), path)
    assert len(_ranges(path)) == 1
    data, peak = _traced_peak(lambda: load_svmlight(path))
    assert peak <= 1.5 * data.features.nbytes


def test_loading_a_dense_file_holds_at_most_three_copies(tmp_path, range_counts):
    # With several ranges the workers hold the tokens, and this process the
    # ranges' dense blocks and the matrix.
    path = str(tmp_path / "dense.txt")
    write_svmlight(generate_synthetic(60, 20, 50, seed=4), path)
    for n in range_counts:
        data, peak = _traced_peak(lambda: load_svmlight(path))
        assert peak <= 3.5 * data.features.nbytes, n
