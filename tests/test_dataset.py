"""Dataset loading, preprocessing, synthetic generation, and splitting."""

import multiprocessing
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedltr
from fedltr.baseline import train_lambda_linear
from fedltr.dataset import (
    Dataset,
    Query,
    _ranges,
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

    def test_bad_label_names_line(self, tmp_path, range_counts):
        path = _write(tmp_path, "x qid:1 1:0.5\n")
        for _ in range_counts:
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
    def test_malformed_token_names_line(self, tmp_path, token, message, range_counts):
        path = _write(tmp_path, f"1 qid:1 1:0.5\n2 qid:1 1:0.25 {token} 3:0.5\n")
        for _ in range_counts:
            with pytest.raises(ValueError, match=f"^line 2: {message}$"):
                load_svmlight(path)

    def test_feature_index_too_large_for_its_block_names_line(self, tmp_path, range_counts):
        # A block this wide has more bytes than numpy allows, and allocating it
        # failed with numpy's own error, naming no line.
        text = "1 qid:1 1:0.5\n\n# a comment\n0 qid:1 2:0.25 999999999999999999:0.5\n1 qid:2 3:1\n"
        path = _write(tmp_path, text)
        message = "^line 4: feature index 999999999999999999 is too large$"
        for _ in range_counts:
            with pytest.raises(ValueError, match=message):
                load_svmlight(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("1", "expected '<label> qid:<id> ...'"),
            ("1 1:0.5", "missing qid field"),
            ("1 qid:x 1:0.5", "bad qid 'qid:x'"),
        ],
    )
    def test_malformed_qid_field_names_line(self, tmp_path, line, message, range_counts):
        path = _write(tmp_path, f"1 qid:1 1:0.5\n{line}\n")
        for _ in range_counts:
            with pytest.raises(ValueError, match=f"^line 2: {re.escape(message)}$"):
                load_svmlight(path)

    def test_qid_beyond_64_bits_names_line(self, tmp_path, range_counts):
        path = _write(tmp_path, "1 qid:1 1:0.5\n2 qid:9223372036854775808 1:0.5\n")
        for _ in range_counts:
            with pytest.raises(ValueError, match="line 2: qid 9223372036854775808 is too large"):
                load_svmlight(path)

    def test_label_beyond_64_bits_names_line(self, tmp_path, range_counts):
        path = _write(tmp_path, "1 qid:1 1:0.5\n99999999999999999999999 qid:1 1:0.25\n")
        message = "^line 2: label 99999999999999999999999 is too large$"
        for _ in range_counts:
            with pytest.raises(ValueError, match=message):
                load_svmlight(path)

    @pytest.mark.parametrize(
        "line, token",
        [
            # int() and float() read each "_" as a digit separator.
            ("2 qid:1 1_0:0.5", "1_0:0.5"),
            ("2 qid:1 1:0_5", "1:0_5"),
            ("1_0 qid:1 1:0.5", "1_0"),
            ("2 qid:1_0 1:0.5", "qid:1_0"),
        ],
    )
    def test_underscore_names_line_and_token(self, tmp_path, line, token, range_counts):
        path = _write(tmp_path, f"1 qid:1 1:0.5\n{line}\n")
        for _ in range_counts:
            with pytest.raises(ValueError, match=f"^line 2: underscore in '{token}'$"):
                load_svmlight(path)

    @pytest.mark.parametrize(
        "line, char",
        [
            # int(), float() and str.split() read these as ASCII digits and spaces.
            ("2 qid:1 １:0.5", "１"),
            ("2 qid:1 1:٠.٥", "٠"),
            ("２ qid:1 1:0.5", "２"),
            ("2 qid:1 1:0.5", " "),
            ("2 qid:1 1:0.5　2:0.25", "　"),
            # It wins over an underscore and over a bad label.
            ("2 qid:1_0 １:0.5", "１"),
            ("x qid:1 1:0.5\u00a02:0.25", "\u00a0"),
        ],
    )
    def test_non_ascii_character_names_line(self, tmp_path, line, char, range_counts):
        path = _write(tmp_path, f"1 qid:1 1:0.5\n{line}\n")
        message = f"^line 2: non-ASCII character {re.escape(repr(char))}$"
        for _ in range_counts:
            with pytest.raises(ValueError, match=message):
                load_svmlight(path)

    @pytest.mark.parametrize(
        "line, char",
        [
            # str.split(), int() and float() read these as spaces.
            ("2 qid:1 1:0.5\x1f2:0.25", "\x1f"),
            ("2\x1cqid:1 1:0.5", "\x1c"),
            # It wins over an underscore.
            ("2 qid:1_0 1:0.5\x1f2:0.25", "\x1f"),
        ],
    )
    def test_control_character_names_line(self, tmp_path, line, char, range_counts):
        path = _write(tmp_path, f"1 qid:1 1:0.5\n{line}\n")
        message = f"^line 2: control character {re.escape(repr(char))}$"
        for _ in range_counts:
            with pytest.raises(ValueError, match=message):
                load_svmlight(path)

    def test_negative_label_names_line(self, tmp_path, range_counts):
        # A negative grade has a negative gain 2^g - 1.
        path = _write(tmp_path, "1 qid:1 1:0.5\n-1 qid:1 1:0.25\n")
        for _ in range_counts:
            with pytest.raises(ValueError, match="^line 2: label -1 is negative$"):
                load_svmlight(path)

    @pytest.mark.parametrize("comment", [b"doc_id=1_0", b"\xff"])
    def test_any_bytes_in_a_comment_load(self, tmp_path, comment, range_counts):
        # A comment is never parsed: neither "_" nor invalid UTF-8 in it fails the load.
        lines = [b"1 qid:1 1:0.5", b"0 qid:1 1:0.25"]
        plain, commented = tmp_path / "plain.txt", tmp_path / "commented.txt"
        plain.write_bytes(b"".join(line + b"\n" for line in lines))
        commented.write_bytes(b"".join(line + b" # " + comment + b"\n" for line in lines))
        for _ in range_counts:
            got, want = load_svmlight(str(commented)), load_svmlight(str(plain))
            for name in ("features", "labels", "qids", "lengths"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            np.testing.assert_array_equal(got.features, [[0.5], [0.25]])

    @pytest.mark.parametrize(
        "tokens, bad",
        [("1:0.5:2 0.7", "1:0.5:2"), ("1:0.5 2:0.7:", "2:0.7:"), ("1:0.5 2 :0.7", "2")],
    )
    def test_canonical_indices_in_malformed_tokens_name_line(
        self, tmp_path, tokens, bad, range_counts
    ):
        # Each line's index strings read 1, 2 and it has as many colons as
        # tokens; only its separators tell that its tokens are malformed.
        path = _write(tmp_path, f"1 qid:1 1:0.5 2:0.25\n2 qid:1 {tokens}\n")
        for _ in range_counts:
            with pytest.raises(ValueError, match=f"^line 2: bad feature '{bad}'$"):
                load_svmlight(path)

    @pytest.mark.parametrize("mixed", [False, True])
    def test_tabs_and_double_spaces_give_the_single_spaced_arrays(
        self, tmp_path, mixed, range_counts
    ):
        # Other separators make every line go the general way. The mixed
        # file adds dense lines of another width and lines whose indices
        # fall or repeat, so no range is all dense lines of one width.
        path = tmp_path / "dense.txt"
        write_svmlight(generate_synthetic(6, 5, 4, seed=2), str(path))
        text = path.read_text()
        if mixed:
            extra = ["3 qid:1 1:0.5 2:-1.5", "0 qid:2 3:0.25 1:2 3:7", "1 qid:1 2:0.125 2:4.5"]
            lines = text.splitlines()
            text = "\n".join(lines[:9] + extra + lines[9:]) + "\n"
            path.write_text(text)
        spaced = tmp_path / "spaced.txt"
        spaced.write_text(text.replace(" qid", "\tqid").replace(" ", "  "))
        for _ in range_counts:
            got, want = load_svmlight(str(path)), load_svmlight(str(spaced))
            for name in ("features", "labels", "qids", "lengths"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.shape == b.shape, name
                assert a.tobytes() == b.tobytes(), name
        if mixed:
            # Query 1 gains rows 5 and 6, query 2 its fifth; a repeated
            # index keeps its last value.
            np.testing.assert_array_equal(got.features[5:7], [[0.5, -1.5, 0, 0], [0, 4.5, 0, 0]])
            np.testing.assert_array_equal(got.features[got.offsets[1] + 4], [2.0, 0.0, 7.0, 0.0])

    def test_a_range_of_only_blank_and_comment_lines_loads(self, tmp_path, range_counts):
        lines = ["1 qid:1 1:0.5 2:0.25"] + ["# a comment line", "   ", ""] * 5 + ["0 qid:1 1:0.75"]
        path = _write(tmp_path, "\n".join(lines) + "\n")
        for n in range_counts:
            data = load_svmlight(path)
            np.testing.assert_array_equal(data.features, [[0.5, 0.25], [0.75, 0.0]])
            np.testing.assert_array_equal(data.labels, [1, 0])
        # With four ranges, the middle two hold only comment and blank lines.
        assert n == 4 and all(b"qid" not in Path(path).read_bytes()[a:b] for a, b in _ranges(path)[1:3])

    def test_first_bad_line_is_reported(self, tmp_path, range_counts):
        # An earlier line's non-finite value wins over a later line's bad label.
        path = _write(tmp_path, "1 qid:1 1:0.5\n1 qid:1 1:nan\nx qid:1 1:0.5\n")
        for _ in range_counts:
            with pytest.raises(ValueError, match="line 2: non-finite"):
                load_svmlight(path)

    def test_bad_line_in_a_later_range_names_its_line_in_the_file(self, tmp_path, range_counts):
        # Lone-CR and CRLF line ends before the bad line count as a text-mode
        # file counts them.
        text = "1 qid:1 1:0.5\r" * 4 + "# é\r\n\r\n" + "1 qid:2 2:0.5\n" * 4 + "0 qid:2 2:x\n"
        path = tmp_path / "data.txt"
        path.write_bytes(text.encode("utf-8"))
        for n in range_counts:
            with pytest.raises(ValueError, match="^line 11: bad feature '2:x'$"):
                load_svmlight(str(path))
        # The last of four ranges holds lines 10 and 11.
        assert len(_ranges(str(path))) == n == 4
        assert _ranges(str(path))[-1][0] == len(text.encode()) - len("1 qid:2 2:0.5\n0 qid:2 2:x\n")

    # The invalid byte wins over a fullwidth digit before it.
    @pytest.mark.parametrize("index, position", [(b"1", 12), ("１".encode(), 14)])
    def test_non_utf8_byte_names_its_line_in_the_file(
        self, tmp_path, index, position, range_counts
    ):
        # The decoder's own error names a position within the line only.
        bad_line = b"0 qid:1 " + index + b":0.\xff\n"
        raw = b"1 qid:1 1:0.5\r" * 3 + b"1 qid:1 1:0.5\r\n" * 3 + bad_line
        path = tmp_path / "data.txt"
        path.write_bytes(raw)
        message = f"^line 7: 'utf-8' codec can't decode byte 0xff in position {position}:"
        for n in range_counts:
            with pytest.raises(ValueError, match=message):
                load_svmlight(str(path))
        # The last range starts at the bad line.
        assert n == 4 and _ranges(str(path))[-1] == (raw.index(b"0 qid"), len(raw))

    def test_the_earlier_of_two_ranges_with_a_bad_line_wins(self, tmp_path, range_counts):
        text = "1 qid:1 1:0.5\n" * 3 + "1 qid:1 1:inf\n" + "1 qid:1 1:0.5\n" * 3 + "x qid:1\n"
        path = _write(tmp_path, text)
        for n in range_counts:
            with pytest.raises(ValueError, match="^line 4: non-finite feature '1:inf'$"):
                load_svmlight(path)
        # Two lines per range: bad lines 4 and 8 sit in ranges 1 and 3.
        assert _ranges(path) == [(0, 28), (28, 56), (56, 84), (84, len(text))]

    def test_every_split_into_ranges_gives_the_same_dataset(self, tmp_path, range_counts):
        # Interleaved queries, so each spans every cut; repeated and falling
        # indices; the widest index in a later range only.
        lines = ["# corpus: naïve café ✓", ""]
        for i in range(30):
            extra = " 12:1.25" if i == 25 else ""
            lines.append(f"{i % 5} qid:{(5, 9, 7)[i % 3]} {1 + i % 4}:{i / 8} 3:-{i} 3:{i}.5{extra}")
            if i % 7 == 3:
                lines += ["   ", f"# doc {i}: é"]
        text = "".join(line + ("\n", "\r\n", "\r")[k % 3] for k, line in enumerate(lines))
        path = tmp_path / "data.txt"
        path.write_bytes(text.encode("utf-8"))
        unix = tmp_path / "unix.txt"
        unix.write_bytes(text.replace("\r\n", "\n").replace("\r", "\n").encode("utf-8"))
        want = load_svmlight(str(unix))
        assert want.n_queries == 3 and want.features.shape == (30, 12)
        raw = path.read_bytes()
        for n in range_counts:
            data = load_svmlight(str(path))
            assert len(_ranges(str(path))) == n
            for start, _ in _ranges(str(path))[1:]:
                assert b"qid:5" in raw[:start] and b"qid:5" in raw[start:]
            for name in ("features", "labels", "qids", "lengths"):
                got, expected = getattr(data, name), getattr(want, name)
                assert got.dtype == expected.dtype and got.shape == expected.shape, name
                assert got.tobytes() == expected.tobytes(), name

    def test_a_small_file_is_parsed_without_a_pool(self, tmp_path):
        # Each range holds at least 2 MiB, so this file is one range, parsed
        # in the calling process without importing concurrent.futures.
        path = _write(tmp_path, "1 qid:1 1:0.5\n" * 1000)
        code = (
            "import sys; from fedltr.dataset import load_svmlight; "
            "load_svmlight(sys.argv[1]); print('concurrent.futures' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(fedltr.__file__).parent.parent)}
        proc = subprocess.run(
            [sys.executable, "-c", code, path], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout == "False\n"

    def test_a_pool_worker_parses_one_range(self, tmp_path, range_counts):
        # A multiprocessing.Pool worker is daemonic and may not start a pool
        # of its own. Forked, it sees the forced split.
        path = _write(tmp_path, "1 qid:1 1:0.5\n0 qid:2 1:0.25\n1 qid:1 1:0.75\n")
        want = load_svmlight(path)
        for _ in range_counts:
            with multiprocessing.get_context("fork").Pool(1) as pool:
                data = pool.apply(load_svmlight, (path,))
            assert data.features.tobytes() == want.features.tobytes()
            np.testing.assert_array_equal(data.qids, [1, 2])

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
        # Reading the views keeps none of them, so none is pickled.
        assert data.queries[2].qid == 3 and "queries" not in vars(data)
        copy = pickle.loads(pickle.dumps(data))
        np.testing.assert_array_equal(copy.features, data.features)
        assert np.shares_memory(copy.queries[2].features, copy.features)


class TestDocRows:
    def test_rows_are_padded_with_each_querys_first_row(self):
        # Lengths 3, 1 and 4 at offsets 0, 3 and 4; query 2 asked twice.
        data = Dataset(
            queries=tuple(
                Query(qid=q, features=np.zeros((n, 2)), labels=np.zeros(n, dtype=np.int64))
                for q, n in ((1, 3), (2, 1), (3, 4))
            ),
            feature_dim=2,
        )
        index, valid = data.doc_rows(np.array([2, 0, 2, 1]))
        np.testing.assert_array_equal(
            index, [[4, 5, 6, 7], [0, 1, 2, 0], [4, 5, 6, 7], [3, 3, 3, 3]]
        )
        np.testing.assert_array_equal(valid, np.arange(4) < np.array([4, 3, 4, 1])[:, None])
        index, valid = data.doc_rows(np.array([1, 0]))
        np.testing.assert_array_equal(index, [[3, 3, 3], [0, 1, 2]])
        np.testing.assert_array_equal(valid, [[True, False, False], [True, True, True]])

    def test_no_queries_give_empty_rows(self):
        index, valid = generate_synthetic(3, 4, 2, seed=1).doc_rows(np.zeros(0, dtype=np.int64))
        assert index.shape == (0, 0) and valid.shape == (0, 0)


class TestQuery:
    @pytest.mark.parametrize(
        "features, n_labels, message",
        [
            (np.zeros(3), 3, "features must be a 2-d array"),
            (np.zeros((3, 2)), 2, "features/labels length mismatch"),
            (np.zeros((0, 2)), 0, "query has no documents"),
        ],
        ids=["1-d", "mismatch", "empty"],
    )
    def test_malformed_query_is_rejected(self, features, n_labels, message):
        with pytest.raises(ValueError, match=f"^query 5: {message}$"):
            Query(qid=5, features=features, labels=np.zeros(n_labels, dtype=np.int64))


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

    def test_blocks_give_the_per_query_formula(self):
        # Queries of 1 to 700 documents straddle the row blocks.
        rng = np.random.default_rng(12)
        queries = tuple(
            Query(qid=i, features=rng.normal(size=(n, 3)), labels=np.arange(n) % 5)
            for i, n in enumerate([700, 1, 255, 2, 300, 513])
        )
        queries[4].features[:, 1] = 2.5  # a constant feature
        data = Dataset(queries, 3)
        for got, q in zip(normalize_query_level(data).queries, data.queries):
            lo, span = q.features.min(axis=0), np.ptp(q.features, axis=0)
            want = np.where(span > 0, (q.features - lo) / np.where(span > 0, span, 1.0), 0.0)
            np.testing.assert_array_equal(got.features, want)

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

    def test_trained_ranker_beats_random_ranker(self):
        # The corpus is learnable: a ranker trained on its grades ranks
        # held-out queries well above a random one.
        data = normalize_query_level(filter_uniform_queries(generate_synthetic(100, 15, 8, seed=9)))
        train, test = split(data, 0.25, seed=9)
        trained = train_lambda_linear(train, seed=1)
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
