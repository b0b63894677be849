"""BM25 retrieval over plain-text corpora, with eager sparse scoring.

Tokenization is lowercase alphanumeric splitting, no stemming, no stopwords.
Following BM25S (Lu, arXiv 2407.03618), every (term, document) contribution is
computed once at build time into compressed sparse rows, so scoring a query is
a gather of its terms' rows plus one `np.bincount` accumulation. The build
maps every token to an integer term id and makes one sort of (term row,
document) keys, which yields the postings in row order and their term
frequencies; the contributions are then computed a fixed-size slice of postings
at a time, so only one slice's temporaries are live beside the kept arrays.
Each document sums its contributions in query-term order, as a loop over
postings would, so scores are bit-identical to the scalar formula.
The index is immutable after build and persists to a versioned binary format
(header, JSON metadata line, raw arrays, texts) whose bytes are a pure function
of the inputs. A loaded index maps the file and decodes a text when it is read.
Ingestion and index-file errors are `IngestionError`s that name the file.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import mmap
import numbers
from array import array
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import records
from .errors import (
    ContractViolationError,
    EmptyQueryError,
    IndexFormatError,
    IngestionError,
)
from .mdp import Observation, ObservationKind

INDEX_MAGIC = "criticplan-bm25-index"
INDEX_VERSION = 3
_SCORE_SLICE = 1 << 16  # postings scored at a time by `build_index`

# Every byte but ASCII [a-z0-9] becomes a space. UTF-8 puts no ASCII byte inside
# a multi-byte character, so the words left are the text's `[a-z0-9]+` runs.
_SPACE_OUT = bytes(c if chr(c) in "abcdefghijklmnopqrstuvwxyz0123456789" else 32 for c in range(256))


def _words(text: str, errors: str = "surrogatepass") -> list[bytes]:
    return text.lower().encode("utf-8", errors).translate(_SPACE_OUT).split()


def tokenize(text: str) -> list[str]:
    return [word.decode("ascii") for word in _words(text)]


@dataclass(frozen=True)
class Bm25Params:
    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self):
        for name, value in (("k1", self.k1), ("b", self.b)):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ContractViolationError(f"{name} must be a number, got {value!r}")
        if not 0 < self.k1 < math.inf:
            raise ContractViolationError("k1 must be finite and > 0")
        if not 0.0 <= self.b <= 1.0:
            raise ContractViolationError("b must be in [0, 1]")


@dataclass(frozen=True, eq=False)
class Corpus:
    """Built BM25 index: documents plus precomputed term-document scores.

    Row `terms[t]` of the CSR arrays holds term t's postings: the documents
    `positions[offsets[row]:offsets[row + 1]]` (ascending) and their BM25
    contributions `scores[...]`. `doc_rank[p]` is the rank of `doc_ids[p]` in
    sorted order, the tie-break of equal scores. Treat the arrays as
    read-only.
    """

    corpus_id: str
    params: Bm25Params
    doc_ids: tuple[str, ...]
    doc_texts: Sequence[str]  # a built corpus's tuple, or a loaded one's `_MappedTexts`
    avgdl: float
    terms: Mapping[str, int]
    offsets: np.ndarray
    positions: np.ndarray
    scores: np.ndarray
    doc_rank: np.ndarray

    def __len__(self) -> int:
        return len(self.doc_ids)

    def document_frequency(self, term: str) -> int:
        row = self.terms.get(term)
        return 0 if row is None else int(self.offsets[row + 1] - self.offsets[row])


def _ranks(items) -> np.ndarray:
    """`rank[i]` is the rank of `items[i]` in sorted order."""
    rank = np.empty(len(items), dtype=np.int64)
    rank[sorted(range(len(items)), key=items.__getitem__)] = np.arange(len(items))
    return rank


def build_index(
    documents: Iterable[tuple[str, str]],
    params: Bm25Params = Bm25Params(),
    corpus_id: str = "corpus",
) -> Corpus:
    """Index (doc_id, text) pairs. Duplicate doc_ids are an ingestion error."""
    doc_ids: list[str] = []
    doc_texts: list[str] = []
    doc_lengths: list[int] = []
    term_ids = defaultdict(itertools.count().__next__)  # term bytes -> id in first-seen order
    token_ids = array("q")  # every document's tokens as term ids, in document order
    seen: set[str] = set()
    for doc_id, text in documents:
        if doc_id in seen:
            raise IngestionError(f"duplicate doc_id {doc_id!r}")
        seen.add(doc_id)
        try:  # the index stores both as UTF-8
            tokens = _words(text, "strict")
            doc_id.encode("utf-8")
        except UnicodeEncodeError as err:
            raise IngestionError(f"doc_id {doc_id!r}: text or id cannot be encoded as "
                                 f"UTF-8 ({err.reason})") from None
        doc_ids.append(doc_id)
        doc_texts.append(text)
        doc_lengths.append(len(tokens))
        token_ids.extend(map(term_ids.__getitem__, tokens))
    del seen
    n = len(doc_ids)
    avgdl = sum(doc_lengths) / n if n else 0.0
    id_terms = [term.decode("ascii") for term in term_ids]
    del term_ids
    terms = {term: row for row, term in enumerate(sorted(id_terms))}
    # One in-place sort of the (term row, document) keys puts the postings in CSR order,
    # each row's documents ascending. Each run of equal keys is a posting, and the run's
    # length its tf. Each large temporary is made once, in place, and dropped after use.
    keys = np.frombuffer(token_ids, np.int64)
    del token_ids  # the view keeps the buffer alive
    np.take(_ranks(id_terms) * n, keys, out=keys, mode="clip")  # "raise" would copy `out`
    keys += np.repeat(np.arange(n, dtype=np.intc), doc_lengths)
    keys.sort()
    new = np.empty(len(keys) + 1, dtype=bool)  # each run's start, and the end
    new[[0, -1]] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:-1])
    keys = keys[new[:-1]]
    offsets = keys.searchsorted(np.arange(len(terms) + 1) * n)
    keys %= n
    positions = keys.astype(np.int32)
    del keys
    starts = np.flatnonzero(new)
    del new
    tf = np.empty(len(positions), dtype=np.int32)  # a tf never exceeds its document's length
    np.subtract(starts[1:], starts[:-1], out=tf, casting="unsafe")
    del starts
    idf = np.array([math.log((n - d + 0.5) / (d + 0.5) + 1.0) for d in np.diff(offsets).tolist()])
    lengths = np.array(doc_lengths, dtype=np.float64)
    # The scalar formula's operations in its order, a slice of postings at a time:
    # every float is bit-identical, and one slice's temporaries are live at once.
    k1, b = params.k1, params.b
    scores = np.empty(len(positions), dtype=np.float64)
    for lo in range(0, len(scores), _SCORE_SLICE):
        hi = min(lo + _SCORE_SLICE, len(scores))
        norm = lengths[positions[lo:hi]]
        norm *= b
        norm /= avgdl
        norm += 1.0 - b
        norm *= k1
        norm += tf[lo:hi]
        top, end = offsets.searchsorted([lo, hi - 1], "right") - 1  # the slice's first, last row
        per_row = np.diff(offsets[top:end + 2].clip(lo, hi))  # each row's postings in the slice
        out = np.multiply(np.repeat(idf[top:end + 1], per_row), tf[lo:hi], out=scores[lo:hi])
        out *= k1 + 1.0
        out /= norm
    return Corpus(corpus_id, params, tuple(doc_ids), tuple(doc_texts), avgdl, terms,
                  offsets, positions, scores, _ranks(doc_ids))


def _accumulate(corpus: Corpus, query: str) -> np.ndarray:
    """Per-document BM25 totals of `query`, summed in query-term order."""
    terms = tokenize(query)
    if not terms:
        raise EmptyQueryError(f"query {query!r} tokenized to nothing")
    spans = [(corpus.offsets[row], corpus.offsets[row + 1])
             for row in (corpus.terms.get(term) for term in terms) if row is not None]
    if not spans:
        return np.zeros(len(corpus))
    return np.bincount(
        np.concatenate([corpus.positions[lo:hi] for lo, hi in spans]),
        weights=np.concatenate([corpus.scores[lo:hi] for lo, hi in spans]),
        minlength=len(corpus),
    )


def score_query(corpus: Corpus, query: str) -> dict[str, float]:
    """Okapi BM25 scores for every document matching at least one query term."""
    totals = _accumulate(corpus, query)
    hits = np.flatnonzero(totals)
    return dict(zip([corpus.doc_ids[p] for p in hits.tolist()], totals[hits].tolist()))


def retrieve_scored(corpus: Corpus, query: str, k: int) -> list[tuple[Observation, float]]:
    """Top-k Doc observations with scores, descending; ties by ascending doc_id.

    Zero-score documents carry no evidence and are excluded.
    """
    if k < 1:
        raise ContractViolationError("k must be >= 1")
    totals = _accumulate(corpus, query)
    hits = np.flatnonzero(totals > 0.0)
    if len(hits) > k:  # keep every document tied with the k-th best score
        hits = hits[totals[hits] >= np.partition(totals[hits], len(hits) - k)[len(hits) - k]]
    top = hits[np.lexsort((corpus.doc_rank[hits], -totals[hits]))[:k]].tolist()
    return [
        (Observation(kind=ObservationKind.DOC, text=corpus.doc_texts[p],
                     doc_id=corpus.doc_ids[p]), s)
        for p, s in zip(top, totals[top].tolist())
    ]


def retrieve(corpus: Corpus, query: str, k: int) -> list[Observation]:
    return [obs for obs, _ in retrieve_scored(corpus, query, k)]


# ------------------------------------------------------------------ persistence


def index_bytes(corpus: Corpus) -> bytes:
    """Serialized index; byte-identical for identical inputs.

    Layout: the header line, one sorted-key JSON metadata line, then the raw
    little-endian arrays `<i8` offsets, `<i4` positions, `<f8` scores and `<i8`
    text bounds (one per document, plus one), then the documents' UTF-8 texts
    concatenated: document p's text is bytes `bounds[p]:bounds[p + 1]` of them.
    """
    return b"".join(_index_parts(corpus))


def _index_parts(corpus: Corpus):
    """`index_bytes` in parts: the arrays uncopied, and each text encoded on its own."""
    terms = sorted(corpus.terms, key=corpus.terms.__getitem__)
    meta = {
        "corpus_id": corpus.corpus_id,
        "params": {"k1": corpus.params.k1, "b": corpus.params.b},
        "avgdl": corpus.avgdl,
        "doc_ids": list(corpus.doc_ids),
        "terms": terms,
        "postings": len(corpus.positions),
    }
    yield (f"{INDEX_MAGIC} {INDEX_VERSION}\n" + json.dumps(
        meta, ensure_ascii=False, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")
    yield corpus.offsets.astype("<i8", copy=False)
    yield corpus.positions.astype("<i4", copy=False)
    yield corpus.scores.astype("<f8", copy=False)
    yield np.cumsum([0, *map(len, map(str.encode, corpus.doc_texts))]).astype("<i8")
    yield from map(str.encode, corpus.doc_texts)  # UTF-8


def save_index(corpus: Corpus, path) -> None:
    records.write(path, _index_parts(corpus))


class _MappedTexts(Sequence[str]):
    """A loaded index's document texts, each decoded from the map when it is read."""

    def __init__(self, path, bounds: np.ndarray, section: memoryview):
        self._path, self._bounds, self._section = path, bounds, section

    def __len__(self) -> int:
        return len(self._bounds) - 1

    def __getitem__(self, index: int) -> str:
        p = range(len(self))[index]  # an IndexError past the end, as iteration needs
        lo, hi = self._bounds[p:p + 2].tolist()
        try:
            return str(self._section[lo:hi], "utf-8")
        except UnicodeDecodeError as err:
            raise IndexFormatError(f"{self._path}: text {p} is not UTF-8: {err}") from None


def load_index(path) -> Corpus:
    """Map a v3 index read-only; any malformed file is an IndexFormatError naming it.

    Replacing the file (as `criticplan index` does) keeps the map valid; rewriting it does not.
    """
    with records.open_input(path, IndexFormatError) as fh:  # an empty file cannot be mapped
        data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) if fh.seek(0, 2) else b""
    head_end = data.find(b"\n") + 1 or len(data)
    arrays_at = data.find(b"\n", head_end) + 1 or len(data)
    header = data[:head_end].rstrip(b"\n")
    magic, _, version = header.decode("utf-8", "replace").partition(" ")
    if magic != INDEX_MAGIC:
        raise IndexFormatError(f"{path}: bad magic header {header[:64]!r}")
    if version != str(INDEX_VERSION):
        raise IndexFormatError(
            f"{path}: unsupported index version {version[:16]!r} (this build reads "
            f"version {INDEX_VERSION}; rerun `criticplan index` to rebuild it)"
        )
    try:
        meta = json.loads(data[head_end:arrays_at].decode("utf-8"))
        n_offsets, n_postings = len(meta["terms"]) + 1, int(meta["postings"])
        fields = (meta["corpus_id"], Bm25Params(**meta["params"]), tuple(meta["doc_ids"]))
        avgdl, terms = meta["avgdl"], {term: row for row, term in enumerate(meta["terms"])}
        doc_rank = _ranks(fields[2])
    except (ValueError, KeyError, TypeError, ContractViolationError) as err:
        raise IndexFormatError(f"{path}: bad index metadata: {err!r}") from None
    bounds_at = arrays_at + 8 * n_offsets + 12 * n_postings
    texts_at = bounds_at + 8 * (len(doc_rank) + 1)
    if n_postings < 0 or len(data) < texts_at:
        raise IndexFormatError(f"{path}: array section holds {len(data) - arrays_at} bytes, at "
                               f"least {texts_at - arrays_at} expected for {n_postings} postings")
    offsets = np.frombuffer(data, "<i8", n_offsets, arrays_at)
    positions = np.frombuffer(data, "<i4", n_postings, arrays_at + 8 * n_offsets)
    scores = np.frombuffer(data, "<f8", n_postings, arrays_at + 8 * n_offsets + 4 * n_postings)
    bounds = np.frombuffer(data, "<i8", len(doc_rank) + 1, bounds_at)
    if bounds[0] != 0 or bounds[-1] != len(data) - texts_at or np.any(np.diff(bounds) < 0):
        raise IndexFormatError(f"{path}: text bounds do not split the text section's bytes")
    if (offsets[0] != 0 or offsets[-1] != n_postings or np.any(np.diff(offsets) < 0)
            or n_postings and not 0 <= positions.min() <= positions.max() < len(doc_rank)):
        raise IndexFormatError(f"{path}: offsets or positions out of range")
    texts = _MappedTexts(path, bounds, memoryview(data)[texts_at:])
    return Corpus(*fields, texts, avgdl, terms, offsets, positions, scores, doc_rank)


# -------------------------------------------------------------------- ingestion


def ingest_directory(directory) -> list[tuple[str, str]]:
    """Read every *.txt file under `directory`; doc_id is the relative path."""
    root = Path(directory)
    if not root.is_dir():
        raise IngestionError(f"{directory}: not a directory")
    documents = []
    for path in sorted(root.rglob("*.txt")):
        try:  # text mode: "\r\n" and "\r" read as "\n"
            with io.TextIOWrapper(records.open_input(path, IngestionError), "utf-8") as fh:
                documents.append((path.relative_to(root).as_posix(), fh.read()))
        except UnicodeDecodeError as err:
            raise IngestionError(f"{path}: {err}") from err
    return documents


def ingest_jsonl(path) -> list[tuple[str, str]]:
    """Read a line-delimited file of {"id": ..., "text": ...} records."""
    return records.read(path, _document, IngestionError)


def _document(record: dict) -> tuple[str, str]:
    if not isinstance(record["text"], str):
        raise TypeError(f"document text must be a string, got {record['text']!r}")
    return str(record["id"]), record["text"]
