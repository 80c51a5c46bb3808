"""Dataset loading, preprocessing, synthetic generation, and splitting."""

import pickle

import numpy as np
import pytest

from fedltr.baseline import LambdaConfig, train_lambda_linear
from fedltr.dataset import (
    Dataset,
    Query,
    filter_uniform_queries,
    generate_synthetic,
    load_svmlight,
    normalize_query_level,
    split,
    write_svmlight,
)
from fedltr.metrics import mean_ndcg
from fedltr.ranker import LinearRanker


def _write(tmp_path, text):
    path = tmp_path / "data.txt"
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadSvmlight:
    def test_parses_basic_file(self, tmp_path):
        path = _write(tmp_path, "3 qid:1 1:0.5 2:1.0\n0 qid:1 1:0.2\n")
        data = load_svmlight(path)
        assert data.n_queries == 1
        assert data.feature_dim == 2
        q = data.queries[0]
        assert q.qid == 1
        np.testing.assert_array_equal(q.labels, [3, 0])
        np.testing.assert_allclose(q.features, [[0.5, 1.0], [0.2, 0.0]])

    def test_missing_feature_fills_zero(self, tmp_path):
        path = _write(tmp_path, "1 qid:4 1:0.1 2:0.9\n2 qid:4 1:0.3\n")
        data = load_svmlight(path)
        assert data.queries[0].features[1, 1] == 0.0

    def test_bad_label_names_line(self, tmp_path):
        path = _write(tmp_path, "x qid:1 1:0.5\n")
        with pytest.raises(ValueError, match="line 1"):
            load_svmlight(path)

    def test_bad_feature_names_line(self, tmp_path):
        path = _write(tmp_path, "1 qid:1 1:0.5\n2 qid:1 1:oops\n")
        with pytest.raises(ValueError, match="line 2"):
            load_svmlight(path)

    @pytest.mark.parametrize("token", ["1:nan", "2:inf", "1:-inf"])
    def test_non_finite_feature_names_line(self, tmp_path, token):
        path = _write(tmp_path, f"1 qid:1 1:0.5\n2 qid:1 {token}\n")
        with pytest.raises(ValueError, match="line 2: non-finite"):
            load_svmlight(path)

    def test_empty_file_errors(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            load_svmlight(_write(tmp_path, "\n\n"))

    def test_comments_ignored(self, tmp_path):
        path = _write(tmp_path, "2 qid:1 1:0.5 # docid=17\n1 qid:1 1:0.1\n")
        data = load_svmlight(path)
        np.testing.assert_array_equal(data.queries[0].labels, [2, 1])

    def test_groups_by_qid_preserving_order(self, tmp_path):
        path = _write(tmp_path, "1 qid:9 1:1\n0 qid:2 1:2\n3 qid:9 1:3\n")
        data = load_svmlight(path)
        assert [q.qid for q in data.queries] == [9, 2]
        np.testing.assert_array_equal(data.queries[0].labels, [1, 3])

    def test_round_trip(self, tmp_path):
        original = generate_synthetic(6, 5, 4, seed=11)
        path = str(tmp_path / "rt.txt")
        write_svmlight(original, path)
        loaded = load_svmlight(path)
        assert loaded.feature_dim == original.feature_dim
        assert loaded.n_queries == original.n_queries
        for a, b in zip(loaded.queries, original.queries):
            assert a.qid == b.qid
            np.testing.assert_array_equal(a.labels, b.labels)
            np.testing.assert_array_equal(a.features, b.features)

    def test_bad_token_after_blank_and_comment_lines_names_its_line(self, tmp_path):
        path = _write(tmp_path, "1 qid:1 1:0.5\n\n# a comment\n2 qid:1 1:0.7\n0 qid:2 1:x\n")
        with pytest.raises(ValueError, match="line 5: bad feature '1:x'"):
            load_svmlight(path)

    @pytest.mark.parametrize(
        "token, message",
        [
            ("3", "bad feature '3'"),
            ("1:", "bad feature '1:'"),
            ("1:2:3", "bad feature '1:2:3'"),
            ("x:1", "bad feature 'x:1'"),
            ("0:1.0", "feature indices are 1-based, got 0"),
            # A colon touching whitespace splits one token into two.
            ("1: 0.5", "bad feature '1:'"),
            ("1 :0.5", "bad feature '1'"),
            (":3 4", "bad feature ':3'"),
            # The flat index buffer holds 64-bit integers.
            ("9223372036854775808:1", "feature index 9223372036854775808 is too large"),
        ],
    )
    def test_malformed_token_names_line(self, tmp_path, token, message):
        path = _write(tmp_path, f"1 qid:1 1:0.5\n2 qid:1 1:0.25 {token} 3:0.5\n")
        with pytest.raises(ValueError, match=f"^line 2: {message}$"):
            load_svmlight(path)

    def test_qid_beyond_64_bits_names_line(self, tmp_path):
        path = _write(tmp_path, "1 qid:1 1:0.5\n2 qid:9223372036854775808 1:0.5\n")
        with pytest.raises(ValueError, match="line 2: qid 9223372036854775808 is too large"):
            load_svmlight(path)

    def test_first_bad_line_is_reported(self, tmp_path):
        # An earlier line's non-finite value wins over a later line's bad label.
        path = _write(tmp_path, "1 qid:1 1:0.5\n1 qid:1 1:nan\nx qid:1 1:0.5\n")
        with pytest.raises(ValueError, match="line 2: non-finite"):
            load_svmlight(path)

    def test_finite_values_whose_sum_overflows_are_kept(self, tmp_path):
        data = load_svmlight(_write(tmp_path, "1 qid:1 1:1e308 2:1e308\n0 qid:1 1:0.5\n"))
        np.testing.assert_array_equal(data.features, [[1e308, 1e308], [0.5, 0.0]])

    def test_duplicate_index_keeps_last_value(self, tmp_path):
        data = load_svmlight(_write(tmp_path, "1 qid:1 1:0.5 1:0.7\n0 qid:1 2:0.1 1:0.3\n"))
        np.testing.assert_array_equal(data.queries[0].features, [[0.7, 0.0], [0.3, 0.1]])

    def test_interleaved_sparse_queries_round_trip(self, tmp_path):
        text = "0 qid:7 2:0.5\n1 qid:3 1:1.5 3:2.5\n2 qid:7 5:-1.25\n3 qid:3 4:4 2:0.125\n"
        data = load_svmlight(_write(tmp_path, text))
        assert [q.qid for q in data.queries] == [7, 3]
        assert data.feature_dim == 5
        np.testing.assert_array_equal(
            data.features,
            [
                [0.0, 0.5, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0, -1.25],
                [1.5, 0.0, 2.5, 0.0, 0.0],
                [0.0, 0.125, 0.0, 4.0, 0.0],
            ],
        )
        np.testing.assert_array_equal(data.labels, [0, 2, 1, 3])
        path = str(tmp_path / "again.txt")
        write_svmlight(data, path)
        again = load_svmlight(path)
        assert [q.qid for q in again.queries] == [7, 3]
        np.testing.assert_array_equal(again.features, data.features)
        np.testing.assert_array_equal(again.labels, data.labels)

    def test_queries_are_views_of_the_packed_arrays(self, tmp_path):
        path = str(tmp_path / "data.txt")
        write_svmlight(generate_synthetic(12, 4, 3, seed=5), path)
        loaded = load_svmlight(path)
        normalized = normalize_query_level(filter_uniform_queries(loaded))
        for data in (loaded, normalized, *split(normalized, 0.25, seed=1)):
            for q in data.queries:
                assert np.shares_memory(q.features, data.features)
                assert np.shares_memory(q.labels, data.labels)

    def test_pickled_dataset_keeps_one_copy(self):
        data = generate_synthetic(5, 3, 2, seed=1)
        data.queries  # noqa: B018 - builds the query views before pickling
        copy = pickle.loads(pickle.dumps(data))
        np.testing.assert_array_equal(copy.features, data.features)
        assert np.shares_memory(copy.queries[2].features, copy.features)


class TestFilterUniformQueries:
    def test_removes_single_grade_query(self):
        q = Query(qid=1, features=np.zeros((3, 2)), labels=np.array([3, 3, 3]))
        assert filter_uniform_queries(Dataset((q,), 2)).n_queries == 0

    def test_retains_mixed_grades(self):
        q = Query(qid=1, features=np.zeros((2, 2)), labels=np.array([3, 0]))
        assert filter_uniform_queries(Dataset((q,), 2)).n_queries == 1

    def test_empty_dataset_passes_through(self):
        assert filter_uniform_queries(Dataset((), 2)).n_queries == 0

    def test_idempotent(self):
        data = generate_synthetic(30, 4, 3, seed=2)
        once = filter_uniform_queries(data)
        twice = filter_uniform_queries(once)
        assert [q.qid for q in twice.queries] == [q.qid for q in once.queries]


class TestNormalizeQueryLevel:
    def test_min_max_formula(self):
        q = Query(
            qid=1,
            features=np.array([[2.0], [4.0], [6.0]]),
            labels=np.array([0, 1, 2]),
        )
        out = normalize_query_level(Dataset((q,), 1)).queries[0]
        np.testing.assert_allclose(out.features[:, 0], [0.0, 0.5, 1.0])

    def test_constant_feature_maps_to_zero(self):
        q = Query(qid=1, features=np.array([[5.0], [5.0]]), labels=np.array([0, 1]))
        out = normalize_query_level(Dataset((q,), 1)).queries[0]
        np.testing.assert_array_equal(out.features, [[0.0], [0.0]])

    def test_extremes_unchanged(self):
        q = Query(qid=1, features=np.array([[0.0], [1.0]]), labels=np.array([0, 1]))
        out = normalize_query_level(Dataset((q,), 1)).queries[0]
        np.testing.assert_array_equal(out.features, q.features)

    def test_preserves_per_feature_order(self):
        rng = np.random.default_rng(8)
        q = Query(qid=1, features=rng.normal(size=(7, 4)), labels=np.arange(7) % 5)
        out = normalize_query_level(Dataset((q,), 4)).queries[0]
        for j in range(4):
            np.testing.assert_array_equal(
                np.argsort(out.features[:, j], kind="stable"),
                np.argsort(q.features[:, j], kind="stable"),
            )

    def test_output_in_unit_interval(self):
        data = normalize_query_level(generate_synthetic(10, 6, 5, seed=4))
        for q in data.queries:
            assert q.features.min() >= 0.0 and q.features.max() <= 1.0


class TestGenerateSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(50, 20, 10, seed=7)
        b = generate_synthetic(50, 20, 10, seed=7)
        for qa, qb in zip(a.queries, b.queries):
            np.testing.assert_array_equal(qa.features, qb.features)
            np.testing.assert_array_equal(qa.labels, qb.labels)

    def test_shape(self):
        data = generate_synthetic(1, 2, 1, seed=0)
        assert data.n_queries == 1
        assert data.queries[0].n_docs == 2
        assert data.feature_dim == 1

    def test_all_grades_occur(self):
        data = generate_synthetic(200, 20, 10, seed=5)
        grades = set(np.concatenate([q.labels for q in data.queries]).tolist())
        assert grades == {0, 1, 2, 3, 4}

    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError):
            generate_synthetic(0, 2, 1, seed=0)

    @pytest.mark.parametrize("noise_sd", [-1.0, float("nan"), float("inf")])
    def test_noise_sd_must_be_finite_and_nonnegative(self, noise_sd):
        with pytest.raises(
            ValueError, match=r"^dataset\.synthetic\.noise_sd must be a finite real >= 0, got "
        ):
            generate_synthetic(3, 2, 1, seed=0, noise_sd=noise_sd)

    def test_trained_ranker_beats_random_ranker(self):
        # The corpus is learnable: a ranker trained on its grades ranks
        # held-out queries well above a random one.
        data = normalize_query_level(filter_uniform_queries(generate_synthetic(100, 15, 8, seed=9)))
        train, test = split(data, 0.25, seed=9)
        trained = train_lambda_linear(train, LambdaConfig(), seed=1)
        rng = np.random.default_rng(1)
        random_score = mean_ndcg(LinearRanker(rng.normal(size=8)), test, 5)
        assert mean_ndcg(trained, test, 5) > random_score + 0.1


class TestSplit:
    def test_counts(self):
        data = generate_synthetic(100, 3, 2, seed=1)
        train, test = split(data, 0.2, seed=0)
        assert train.n_queries == 80 and test.n_queries == 20

    def test_deterministic(self):
        data = generate_synthetic(40, 3, 2, seed=1)
        first = split(data, 0.3, seed=5)
        second = split(data, 0.3, seed=5)
        assert [q.qid for q in first[0].queries] == [q.qid for q in second[0].queries]
        assert [q.qid for q in first[1].queries] == [q.qid for q in second[1].queries]

    def test_disjoint_union(self):
        data = generate_synthetic(30, 3, 2, seed=1)
        train, test = split(data, 0.25, seed=2)
        train_ids = {q.qid for q in train.queries}
        test_ids = {q.qid for q in test.queries}
        assert not train_ids & test_ids
        assert train_ids | test_ids == {q.qid for q in data.queries}

    def test_fraction_range_checked(self):
        data = generate_synthetic(10, 3, 2, seed=1)
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                split(data, bad, seed=0)

    def test_empty_dataset_errors(self):
        with pytest.raises(ValueError):
            split(Dataset((), 2), 0.5, seed=0)

    @pytest.mark.parametrize(
        "n, test_fraction, counts",
        [(2, 0.2, "2 train and 0 test"), (1, 0.6, "0 train and 1 test")],
    )
    def test_empty_part_errors_with_both_counts(self, n, test_fraction, counts):
        with pytest.raises(ValueError, match=f"the split of {n} queries .* leaves {counts} queries"):
            split(generate_synthetic(n, 3, 2, seed=1), test_fraction, seed=0)
