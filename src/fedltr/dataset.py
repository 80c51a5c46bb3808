"""Learning-to-rank datasets: SVMLight/LETOR loading, preprocessing, synthetic generation."""

from __future__ import annotations

import contextlib
import math
import os
import re
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .rules import INT64_MAX, check


@dataclass(frozen=True)
class Query:
    """A query with its candidate documents.

    Features are stored one row per document; ``labels[i]`` is the integer
    relevance grade of document ``i``. Row order is the file/generation order
    and is the tie-breaking order used by rankers.
    """

    qid: int
    features: np.ndarray  # shape (n_docs, feature_dim)
    labels: np.ndarray  # shape (n_docs,), grades in {0,...,4}

    def __post_init__(self) -> None:
        if self.features.ndim != 2:
            raise ValueError(f"query {self.qid}: features must be a 2-d array")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError(f"query {self.qid}: features/labels length mismatch")
        if self.labels.shape[0] == 0:
            raise ValueError(f"query {self.qid}: query has no documents")

    @property
    def n_docs(self) -> int:
        return self.features.shape[0]


class Dataset:
    """An immutable collection of queries sharing one feature dimension,
    its documents in one flat array, query after query.

    Query r (the dataset's r-th query, id qids[r]) owns rows offsets[r] to
    offsets[r] + lengths[r] - 1 of `features` and `labels`, in document
    order. No query is padded and every query has a document. Reading
    `queries` builds one Query per query, its arrays views into the flat
    ones; nothing keeps them.
    """

    def __init__(self, queries: Sequence[Query], feature_dim: int) -> None:
        # The empty leading arrays fix shape and dtype when there is no query.
        self.features = np.concatenate(
            [np.zeros((0, feature_dim))] + [q.features for q in queries]
        )
        self.labels = np.concatenate([np.zeros(0, dtype=np.int64)] + [q.labels for q in queries])
        self.qids = np.array([q.qid for q in queries], dtype=np.int64)
        self.lengths = np.array([q.n_docs for q in queries], dtype=np.int64)

    @classmethod
    def from_arrays(
        cls, features: np.ndarray, labels: np.ndarray, qids: np.ndarray, lengths: np.ndarray
    ) -> Dataset:
        """A dataset of flat arrays laid out as the class describes."""
        dataset = cls.__new__(cls)
        dataset.__dict__.update(features=features, labels=labels, qids=qids, lengths=lengths)
        return dataset

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_queries(self) -> int:
        return self.lengths.size

    @cached_property
    def offsets(self) -> np.ndarray:
        return np.cumsum(self.lengths) - self.lengths

    @property
    def queries(self) -> tuple[Query, ...]:
        cuts = self.offsets[1:]
        return tuple(
            Query(qid=qid, features=features, labels=labels)
            for qid, features, labels in zip(
                self.qids.tolist(), np.split(self.features, cuts), np.split(self.labels, cuts)
            )
        )

    def doc_rows(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flat row indices of the documents of `queries`, one query per
        line padded to the longest of them, and the mask of real documents.
        Padding entries point at the query's first document."""
        lengths = self.lengths[queries]
        j = np.arange(lengths.max(initial=0))
        valid = j < lengths[:, None]
        return self.offsets[queries][:, None] + np.where(valid, j, 0), valid

    def padded(self, values: np.ndarray, fill) -> np.ndarray:
        """Per-document `values` as a (query, document) matrix as wide as
        the longest query, `fill` past each query's end."""
        index, valid = self.doc_rows(np.arange(self.lengths.size))
        return np.where(valid, values[index], fill)

    def select(self, queries: np.ndarray) -> Dataset:
        """A copy of the queries at indices `queries`, in that order."""
        lengths = self.lengths[queries]
        starts = np.cumsum(lengths) - lengths
        docs = np.repeat(self.offsets[queries] - starts, lengths) + np.arange(lengths.sum())
        return Dataset.from_arrays(
            self.features[docs], self.labels[docs], self.qids[queries], lengths
        )


# bytes.translate deletion table of every byte but the colon and ASCII
# whitespace, which leaves the separators of a line's `idx:val` tokens.
_NOT_SEPARATOR = bytes(c for c in range(256) if c not in b" \t\n\r\x0b\x0c:")


def _parse_tokens(lineno: int, tokens: list[bytes]) -> tuple[list[int], list[float]]:
    """The indices and values of one line's `idx:val` tokens, one token at
    a time; raises on the first bad token."""
    indices, values = [], []
    for tok in tokens:
        idx_s, _, val_s = tok.partition(b":")
        try:
            idx = int(idx_s)
            val = float(val_s)
        except ValueError:
            raise ValueError(f"line {lineno}: bad feature {tok.decode()!r}") from None
        if idx < 1:
            raise ValueError(f"line {lineno}: feature indices are 1-based, got {idx}")
        if idx > INT64_MAX:
            raise ValueError(f"line {lineno}: feature index {idx} is too large")
        if not math.isfinite(val):
            raise ValueError(f"line {lineno}: non-finite feature {tok.decode()!r}")
        indices.append(idx)
        values.append(val)
    return indices, values


# A file splits into one byte range per processor, each at least this
# long. Parsing 2 MiB takes about 0.1 s, ten times what starting, using and
# stopping a one-worker pool took on a 2-vCPU machine.
_RANGE_BYTES = 2 << 20


def worker_count(jobs: int) -> int:
    """The number of worker processes to spread `jobs` jobs over: one per
    processor this process may run on, at most `jobs` and at least 1. It is
    1 in a daemonic process, such as a multiprocessing.Pool worker, which
    may not start worker processes."""
    affinity = getattr(os, "sched_getaffinity", None)
    n = max(1, min(len(affinity(0)) if affinity else os.cpu_count() or 1, jobs))
    if n > 1:
        from multiprocessing import current_process

        n = 1 if current_process().daemon else n
    return n


def _ranges(path: str) -> list[tuple[int, int]]:
    """The byte ranges of `path`, in file order, one per worker process that
    `worker_count` allows, each at least _RANGE_BYTES long. Every cut falls
    just after a newline byte, so no line, CRLF pair or UTF-8 sequence is
    split."""
    size = os.path.getsize(path)
    n, cuts = worker_count(size // _RANGE_BYTES), [0]
    with open(path, "rb") as fh:
        for i in range(1, n):
            fh.seek(i * size // n)
            fh.readline()
            if cuts[-1] < fh.tell() < size:
                cuts.append(fh.tell())
    return list(zip(cuts, cuts[1:] + [size]))


def _lines(path: str, start: int, end: int):
    """The undecoded lines of bytes [start, end) of `path`, which ends just
    after a newline byte or at the end of the file, split as a text-mode file
    splits them: CRLF, CR and LF each end a line."""
    with open(path, "rb") as fh:
        fh.seek(start)
        while start < end and (raw := fh.readline()):
            start += len(raw)
            yield from raw.splitlines() if b"\r" in raw else (raw,)


def _parse_range(path: str, start: int, end: int, first_line: int = 1):
    """Parse bytes [start, end) of an SVMLight file, numbering its lines
    from `first_line`. Returns each document's label and qid and the dense
    block of the range's documents, in file order, as wide as the range's
    largest index.

    Each line is parsed as bytes, only its label and qid one at a time. Its
    tokens go in bulk into flat buffers, checked as a whole; a line that
    fails goes token by token. An error names a line's bad character first.
    """
    qids, labels, linenos = array("q"), array("q"), array("q")
    ends = array("q")  # tokens read up to the end of each document
    index, values = array("q"), array("d")
    sparse = array("b")  # whether `index` holds each document's indices
    names, skeleton = [], b""
    with contextlib.closing(_lines(path, start, end)) as fh:
        for lineno, raw in enumerate(fh, start=first_line):
            line = raw.split(b"#", 1)[0].strip()
            if not line:
                continue
            try:
                # int() and float() read "_" as a digit separator: "1_0" is 10.
                if b"_" in line:
                    token = next(tok for tok in line.split() if b"_" in tok)
                    raise ValueError(f"line {lineno}: underscore in {token.decode()!r}")
                parts = line.split(None, 2)
                if len(parts) < 2:
                    raise ValueError(f"line {lineno}: expected '<label> qid:<id> ...'")
                try:
                    label = int(parts[0])
                except ValueError:
                    raise ValueError(f"line {lineno}: bad label {parts[0].decode()!r}") from None
                # A negative grade would have a negative gain 2^g - 1.
                if not 0 <= label <= INT64_MAX:
                    problem = "negative" if label < 0 else "too large"
                    raise ValueError(f"line {lineno}: label {label} is {problem}")
                if not parts[1].startswith(b"qid:"):
                    raise ValueError(f"line {lineno}: missing qid field")
                try:
                    qid = int(parts[1][4:])
                except ValueError:
                    raise ValueError(f"line {lineno}: bad qid {parts[1].decode()!r}") from None
                if abs(qid) > INT64_MAX:
                    raise ValueError(f"line {lineno}: qid {qid} is too large")
                tokens = parts[2] if len(parts) > 2 else b""
                done, marked = len(values), len(index)
                try:
                    pieces = tokens.replace(b":", b" ").split()
                    ids, n = pieces[0::2], len(pieces) // 2
                    if n > len(names):
                        names, skeleton = [b"%d" % i for i in range(1, n + 1)], b" :" * n
                    # A dense line has index strings "1".."n" and separators ": : ... :";
                    # its last index, compared first, turns a sparse line away cheaply.
                    separators = tokens.translate(None, _NOT_SEPARATOR)
                    dense = ids[-1:] == names[n - 1 : n] and separators == skeleton[1 : 2 * n]
                    if not (dense and ids == names[:n]):
                        n = len(tokens.split())
                        # Every one of the n tokens is one nonempty index, a
                        # colon and one nonempty value exactly when each token
                        # holds one colon and there are two pieces per token.
                        if 2 * n != len(pieces) or separators.split() != [b":"] * n:
                            raise ValueError("malformed token")
                        index.extend(map(int, ids))
                    values.extend(map(float, pieces[1::2]))
                    # A nan or inf value makes the sum nan or inf.
                    if min(index[marked:], default=1) < 1 or not math.isfinite(sum(values[done:])):
                        raise ValueError("bad index or value")
                except (ValueError, OverflowError):
                    # Rare lines (bad tokens or values, finite values whose sum
                    # overflows) go token by token.
                    del index[marked:], values[done:]
                    line_index, line_values = _parse_tokens(lineno, tokens.split())
                    index.extend(line_index)
                    values.extend(line_values)
            except ValueError:
                # On str, int(), float() and split() read "１" as 1 and U+00A0 and U+001F
                # as spaces; on bytes they raise, so only a failed line can hold one.
                try:
                    text = raw.decode("utf-8").split("#", 1)[0]
                except UnicodeDecodeError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from None
                for kind, chars in (("non-ASCII", r"[^\x00-\x7f]"), ("control", r"[\x1c-\x1f]")):
                    if bad := re.search(chars, text):
                        raise ValueError(f"line {lineno}: {kind} character {bad[0]!r}") from None
                raise
            sparse.append(len(index) > marked)
            qids.append(qid)
            labels.append(label)
            linenos.append(lineno)
            ends.append(len(values))

    val = np.frombuffer(values, dtype=np.float64)
    doc_ends = np.frombuffer(ends, dtype=np.int64)
    is_sparse = np.frombuffer(sparse, dtype=np.bool_)
    n_docs, width = doc_ends.size, np.diff(doc_ends, prepend=0)
    if not is_sparse.any() and (width == width[:1]).all():
        # Dense lines, all as wide: the values are the block.
        return labels, qids, val.reshape(n_docs, int(width[0]) if n_docs else 0)
    idx = np.frombuffer(index, dtype=np.int64)
    if not is_sparse.all():
        # A dense line's indices are 1 up to its width; `index` holds the others'.
        idx = np.arange(1, val.size + 1)
        idx[np.repeat(is_sparse, width)] = index
        del index
        idx -= np.repeat((doc_ends - width) * ~is_sparse, width)
    # `idx` is not empty: a sparse line, or the wider of two lines, has a token.
    top = int(idx.argmax())
    feature_dim = int(idx[top])
    # A line whose indices do not rise may repeat one: keep its last value.
    rising = idx[1:] > idx[:-1]
    starts = doc_ends[:-1]
    rising[starts[(starts > 0) & (starts < idx.size)] - 1] = True
    repeats = not rising.all()
    del rising
    # Each token's position in the flat (document, feature) block, over its index.
    position = idx
    position += np.repeat(np.arange(n_docs) * feature_dim - 1, width)
    if repeats:
        _, first_from_end = np.unique(position[::-1], return_index=True)
        last = position.size - 1 - first_from_end
        position, val = position[last], val[last]
    try:
        block = np.zeros((n_docs, feature_dim), dtype=np.float64)
    except (ValueError, MemoryError):
        line = linenos[np.searchsorted(doc_ends, top, side="right")]
        raise ValueError(f"line {line}: feature index {feature_dim} is too large") from None
    np.put(block, position, val)
    return labels, qids, block


def load_svmlight(path: str) -> Dataset:
    """Parse an SVMLight/LETOR file into a Dataset.

    Each line is ASCII ``<label> qid:<id> <idx>:<val> ...`` with 1-based
    feature indices; any bytes after ``#`` are a comment. Documents are
    grouped by qid in file order, missing feature indices are filled with 0,
    a repeated index keeps its last value, and the feature dimension is the
    maximal index seen anywhere in the file. A ``_`` outside a comment is an
    error, not a digit separator. An error names the file's first bad line,
    but for the case below.

    The file is split at line ends into one byte range per processor this
    process may run on, each at least 2 MiB, so a smaller file is one range
    parsed in this process. Several ranges are parsed by a pool of worker
    processes, one each, into a dense block of the range's documents; the
    blocks are then copied into place query by query. The result does not
    depend on the number of ranges, which `worker_count` sets, but for one
    case: a feature index too large to allocate shows only once its range's
    lines parse, so for a file with such an index and a later bad line, which
    of the two lines the error names can depend on the ranges. A range of dense
    lines (indices 1..n in order, single spaces) of one width is its block's
    value buffer, and the matrix of a one-range file of contiguous queries.
    """
    ranges = _ranges(path)
    if len(ranges) == 1:
        parts = [_parse_range(path, *ranges[0])]
    else:
        # Imported here, as a file of one range never needs its resident memory.
        from concurrent.futures import ProcessPoolExecutor

        # This process only waits: parsing here, it would hold the
        # interpreter lock against the pool's threads that hand the workers
        # their ranges, and a worker could start only when it finished.
        with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
            futures = [pool.submit(_parse_range, path, *bounds) for bounds in ranges]
            parts = []
            for (start, end), future in zip(ranges, futures):
                try:
                    parts.append(future.result())
                except ValueError:
                    # A worker numbers lines from the start of its range.
                    first_line = 1 + sum(1 for _ in _lines(path, 0, start))
                    parts.append(_parse_range(path, start, end, first_line))
            del futures
    labels, qids, blocks = map(list, zip(*parts))
    del parts
    qid = np.concatenate(qids)
    if not qid.size:
        raise ValueError(f"{path}: empty dataset")
    # Each document's query is keyed by the query's first document, so
    # queries go in order of first appearance, documents in file order.
    _, first, inverse = np.unique(qid, return_index=True, return_inverse=True)
    key, first = first[inverse], np.sort(first)
    order = np.argsort(key, kind="stable")
    row = np.empty(qid.size, dtype=np.int64)
    row[order] = np.arange(qid.size)
    if len(blocks) == 1 and (np.diff(key) >= 0).all():
        # One range whose queries are already contiguous: its block is the matrix.
        features = blocks.pop()
    else:
        features = np.zeros((qid.size, max(block.shape[1] for block in blocks)))
    done = 0
    for k in range(len(blocks)):
        # Each block is freed once copied.
        block, blocks[k] = blocks[k], None
        features[row[done : done + len(block)], : block.shape[1]] = block
        done += len(block)
    return Dataset.from_arrays(
        features, np.concatenate(labels)[order], qid[first], np.bincount(key)[first]
    )


def write_svmlight(dataset: Dataset, path: str) -> None:
    """Write a Dataset in SVMLight/LETOR format (dense, full-precision floats)."""
    with open(path, "w", encoding="utf-8") as fh:
        for q in dataset.queries:
            for i in range(q.n_docs):
                feats = " ".join(
                    f"{j + 1}:{float(v)!r}" for j, v in enumerate(q.features[i])
                )
                fh.write(f"{int(q.labels[i])} qid:{q.qid} {feats}\n")


def filter_uniform_queries(dataset: Dataset) -> Dataset:
    """Drop queries whose documents all carry the same relevance grade."""
    if dataset.n_queries == 0:
        return dataset
    labels, offsets = dataset.labels, dataset.offsets
    mixed = np.maximum.reduceat(labels, offsets) != np.minimum.reduceat(labels, offsets)
    if mixed.all():
        return dataset
    return dataset.select(np.flatnonzero(mixed))


def normalize_query_level(dataset: Dataset) -> Dataset:
    """Min-max scale each feature to [0, 1] within each query.

    Constant features map to 0 (deterministic degenerate rule).
    """
    if dataset.n_queries == 0:
        return dataset
    features, offsets = dataset.features, dataset.offsets
    # Minima and maxima are exact whatever the order of reduction, so each
    # value is the one a per-query (x - lo) / span gives.
    lo = np.minimum.reduceat(features, offsets, axis=0)
    span = np.maximum.reduceat(features, offsets, axis=0) - lo
    query = np.repeat(np.arange(dataset.n_queries), dataset.lengths)
    positive = span > 0
    divisor = np.where(positive, span, 1.0)
    # Blocks of 256 rows keep the per-document copies of lo and divisor small.
    scaled = np.empty_like(features)
    for start in range(0, features.shape[0], 256):
        block, q = scaled[start : start + 256], query[start : start + 256]
        np.subtract(features[start : start + 256], lo[q], out=block)
        block /= divisor[q]
        block[~positive[q]] = 0.0
    return Dataset.from_arrays(scaled, dataset.labels, dataset.qids, dataset.lengths)


# Grade rule: grade = round(4 * sigmoid(scale * z + offset + noise)), the noise
# normal with sd _NOISE_SD. The offset skews mass toward low grades, mimicking
# the irrelevant-heavy label balance of public LTR collections.
_GRADE_SCALE = 2.5
_GRADE_OFFSET = -0.75
_NOISE_SD = 1.5
# The value rule of every argument of generate_synthetic, the spec's
# `dataset.synthetic` section; see `rules`.
SYNTHETIC_RULES = {
    "queries": "integer [1, inf)",
    "docs_per_query": "integer [1, inf)",
    "feature_dim": "integer [1, inf)",
    "seed": "integer [0, inf)",
}
# The value rule of split's test fraction, the spec's `test_fraction`.
SPLIT_RULES = {"test_fraction": "real (0, 1)"}


def generate_synthetic(queries: int, docs_per_query: int, feature_dim: int, seed: int) -> Dataset:
    """Generate a learnable graded-relevance dataset from a hidden linear model.

    Features are uniform on [0, 1]; grades follow a noisy sigmoid of a hidden
    linear score, so every grade occurs with positive probability and a linear
    ranker can do well above random. Deterministic given the seed.
    """
    # Before any other name is bound, locals() holds just the arguments.
    check("dataset.synthetic", SYNTHETIC_RULES, locals())
    rng = np.random.default_rng(seed)
    hidden = rng.normal(size=feature_dim)
    # Std of (x - 1/2) @ hidden with x ~ U[0,1]^F, used to put the hidden score
    # on a fixed scale regardless of dimension.
    score_sd = max(np.sqrt(float(hidden @ hidden) / 12.0), 1e-12)
    features = np.empty((queries, docs_per_query, feature_dim))
    z = np.empty((queries, docs_per_query))
    noise = np.empty((queries, docs_per_query))
    # Query by query, the stream draws its features, then its label noise.
    for x, z_row, noise_row in zip(features, z, noise):
        rng.random(out=x)
        np.matmul(x - 0.5, hidden, out=z_row)
        noise_row[:] = rng.normal(0.0, _NOISE_SD, size=docs_per_query)
    # The grade rule over every document in place, in its operations' order.
    z /= score_sd
    z *= _GRADE_SCALE
    z += _GRADE_OFFSET
    z += noise
    np.exp(np.negative(z, out=z), out=z)
    z += 1.0
    np.divide(4.0, z, out=z)
    labels = np.clip(np.rint(z, out=z), 0, 4, out=z).astype(np.int64)
    return Dataset.from_arrays(
        features.reshape(-1, feature_dim),
        labels.ravel(),
        np.arange(1, queries + 1, dtype=np.int64),
        np.full(queries, docs_per_query, dtype=np.int64),
    )


def split(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Query-level train/test split: disjoint, union = input, seed-deterministic.
    Both parts keep the input's query order, and neither may be empty."""
    check("", SPLIT_RULES, {"test_fraction": test_fraction})
    n = dataset.n_queries
    n_test = int(round(n * test_fraction))
    if not 0 < n_test < n:
        raise ValueError(
            f"the split of {n} queries at test_fraction {test_fraction!r} leaves "
            f"{n - n_test} train and {n_test} test queries; each part needs one"
        )
    rng = np.random.default_rng(seed)
    is_test = np.zeros(n, dtype=bool)
    is_test[rng.permutation(n)[:n_test]] = True
    return (
        dataset.select(np.flatnonzero(~is_test)),
        dataset.select(np.flatnonzero(is_test)),
    )
