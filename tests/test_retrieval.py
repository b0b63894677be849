from __future__ import annotations

import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from criticplan.errors import ContractViolationError, EmptyQueryError, IndexFormatError, IngestionError
from criticplan.mdp import ObservationKind
from criticplan.retrieval import (
    Bm25Params,
    build_index,
    index_bytes,
    ingest_directory,
    ingest_jsonl,
    load_index,
    retrieve,
    retrieve_scored,
    save_index,
    score_query,
    tokenize,
)


def naive_bm25(documents, query, params=Bm25Params()):
    """Brute-force reference scorer: evaluates the formula term by term."""
    token_lists = {doc_id: tokenize(text) for doc_id, text in documents}
    n = len(token_lists)
    avgdl = sum(len(t) for t in token_lists.values()) / n if n else 0.0
    scores = {}
    for doc_id, tokens in token_lists.items():
        s = 0.0
        for term in tokenize(query):
            tf = tokens.count(term)
            if tf == 0:
                continue
            df = sum(1 for other in token_lists.values() if term in other)
            idf = math.log((n - df + 0.5) / (df + 0.5) + 1.0)
            s += idf * tf * (params.k1 + 1) / (
                tf + params.k1 * (1 - params.b + params.b * len(tokens) / avgdl)
            )
        scores[doc_id] = s
    return scores


THREE_DOCS = [
    ("d0", "cat sat on the mat"),
    ("d1", "dog sat"),
    ("d2", "cat cat cat"),
]


class TestBuildIndex:
    def test_document_frequencies(self):
        corpus = build_index([("a", "a b"), ("b", "b c")])
        assert corpus.document_frequency("b") == 2
        assert corpus.document_frequency("a") == 1
        assert corpus.document_frequency("c") == 1

    def test_empty_corpus_returns_empty_results(self):
        corpus = build_index([])
        assert len(corpus) == 0
        assert retrieve(corpus, "anything", 5) == []

    def test_duplicate_doc_id(self):
        with pytest.raises(IngestionError):
            build_index([("a", "x"), ("a", "y")])

    def test_bad_params(self):
        with pytest.raises(ContractViolationError):
            Bm25Params(k1=0)
        with pytest.raises(ContractViolationError):
            Bm25Params(b=1.5)


class TestRetrieve:
    def test_no_matching_terms_gives_empty_result(self):
        corpus = build_index(THREE_DOCS)
        assert retrieve(corpus, "zebra", 5) == []

    def test_hand_computed_scores(self):
        # Frozen from an independent evaluation of the scoring formula on the
        # same token lists (k1=1.2, b=0.75).
        corpus = build_index(THREE_DOCS)
        scores = score_query(corpus, "cat")
        assert scores["d2"] == pytest.approx(0.7547503535332982, abs=1e-9)
        assert scores["d0"] == pytest.approx(0.39019169220400696, abs=1e-9)
        assert "d1" not in scores

    def test_result_order_and_zero_exclusion(self):
        corpus = build_index(THREE_DOCS)
        hits = retrieve_scored(corpus, "cat", 10)
        assert [obs.doc_id for obs, _ in hits] == ["d2", "d0"]
        assert all(score > 0 for _, score in hits)
        assert all(obs.kind is ObservationKind.DOC for obs, _ in hits)

    def test_k_10_returns_exactly_10_when_enough_match(self):
        documents = [(f"doc{i:02d}", f"shared term plus token{i}") for i in range(15)]
        corpus = build_index(documents)
        assert len(retrieve(corpus, "shared", 10)) == 10

    def test_empty_query_error(self):
        corpus = build_index(THREE_DOCS)
        with pytest.raises(EmptyQueryError):
            retrieve(corpus, "...!!!", 3)

    def test_query_with_lone_surrogate_retrieves(self):
        corpus = build_index(THREE_DOCS)
        assert tokenize("cat\ud800sat") == ["cat", "sat"]
        assert [obs.doc_id for obs in retrieve(corpus, "cat \udfff", 3)] == ["d2", "d0"]

    def test_tie_break_ascending_doc_id(self):
        corpus = build_index([("b", "term"), ("a", "term")])
        assert [obs.doc_id for obs in retrieve(corpus, "term", 2)] == ["a", "b"]


class TestScoreProperties:
    def _random_corpus(self, rng, n_docs):
        vocabulary = [f"w{i}" for i in range(12)]
        return [
            (f"d{i}", " ".join(rng.choices(vocabulary, k=rng.randint(1, 30))))
            for i in range(n_docs)
        ]

    def test_matches_naive_reference_on_random_corpora(self):
        rng = random.Random(7)
        for _ in range(30):
            documents = self._random_corpus(rng, rng.randint(1, 20))
            corpus = build_index(documents)
            query = " ".join(rng.choices([f"w{i}" for i in range(14)], k=3))
            scores = score_query(corpus, query)
            reference = naive_bm25(documents, query)
            for doc_id, expected in reference.items():
                got = scores.get(doc_id, 0.0)
                assert got == pytest.approx(expected, abs=1e-9)

    def test_matches_naive_reference_on_hundred_doc_corpus(self):
        rng = random.Random(19)
        documents = self._random_corpus(rng, 100)
        corpus = build_index(documents)
        for _ in range(20):
            query = " ".join(rng.choices([f"w{i}" for i in range(14)], k=4))
            scores = score_query(corpus, query)
            reference = naive_bm25(documents, query)
            for doc_id, expected in reference.items():
                assert scores.get(doc_id, 0.0) == pytest.approx(expected, abs=1e-9)

    def test_scores_non_increasing(self):
        rng = random.Random(11)
        documents = self._random_corpus(rng, 25)
        corpus = build_index(documents)
        hits = retrieve_scored(corpus, "w0 w1 w2", 25)
        values = [score for _, score in hits]
        assert values == sorted(values, reverse=True)

    def test_prefix_property(self):
        rng = random.Random(13)
        documents = self._random_corpus(rng, 25)
        corpus = build_index(documents)
        for small, large in [(1, 5), (3, 10), (5, 25)]:
            small_ids = [o.doc_id for o in retrieve(corpus, "w0 w1", small)]
            large_ids = [o.doc_id for o in retrieve(corpus, "w0 w1", large)]
            assert large_ids[: len(small_ids)] == small_ids


class TestPersistence:
    def test_round_trip(self, tmp_path):
        corpus = build_index(THREE_DOCS)
        path = tmp_path / "corpus.bm25"
        save_index(corpus, path)
        loaded = load_index(path)
        assert loaded.doc_ids == corpus.doc_ids
        assert score_query(loaded, "cat") == score_query(corpus, "cat")
        # Texts are decoded as they are read, and the arrays are read-only views of the map.
        assert tuple(loaded.doc_texts) == corpus.doc_texts
        assert loaded.doc_texts[-1] == "cat cat cat" and len(loaded.doc_texts) == 3
        with pytest.raises(IndexError):
            loaded.doc_texts[3]
        assert not loaded.scores.flags.writeable

    def test_rebuild_is_byte_identical(self):
        first = index_bytes(build_index(THREE_DOCS))
        second = index_bytes(build_index(list(THREE_DOCS)))
        assert first == second

    def test_streamed_file_is_index_bytes_past_a_run_of_empty_texts(self, tmp_path):
        # Every text is written and read back, however many before it are empty.
        documents = [(f"e{i:04d}", "") for i in range(2000)] + [("last", "última cat")]
        corpus = build_index(documents)
        path = tmp_path / "corpus.bm25"
        save_index(corpus, path)
        assert path.read_bytes() == index_bytes(corpus)
        assert list(load_index(path).doc_texts) == [text for _, text in documents]

    def test_index_without_postings_loads(self, tmp_path):
        documents = [("a", ""), ("b", "-- !? --")]  # every text tokenizes to nothing
        path = tmp_path / "corpus.bm25"
        save_index(build_index(documents), path)
        loaded = load_index(path)
        assert len(loaded.positions) == 0
        assert list(loaded.doc_texts) == [text for _, text in documents]
        assert retrieve(loaded, "cat", 5) == []

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "corpus.bm25"
        path.write_text("not-an-index 1\n{}")
        with pytest.raises(IndexFormatError):
            load_index(path)

    def test_bad_version_rejected(self, tmp_path):
        corpus = build_index(THREE_DOCS)
        path = tmp_path / "corpus.bm25"
        _, body = index_bytes(corpus).split(b"\n", 1)
        path.write_bytes(b"criticplan-bm25-index 99\n" + body)
        with pytest.raises(IndexFormatError):
            load_index(path)

    def test_v1_index_rejected_with_rebuild_hint(self, tmp_path):
        path = tmp_path / "corpus.bm25"
        path.write_text('criticplan-bm25-index 1\n{"avgdl":2.0,"corpus_id":"c","doc_ids":["a"],'
                        '"doc_lengths":[2],"doc_texts":["x y"],"params":{"b":0.75,"k1":1.2},'
                        '"postings":{"x":{"0":1},"y":{"0":1}}}\n')
        with pytest.raises(IndexFormatError) as excinfo:
            load_index(path)
        assert str(path) in str(excinfo.value)
        assert "criticplan index" in str(excinfo.value)

    def test_v2_index_rejected_with_rebuild_hint(self, tmp_path):
        """Version 2 kept the texts in the metadata line and ended after the scores."""
        _, meta_line, arrays = index_bytes(build_index(THREE_DOCS)).split(b"\n", 2)
        meta = json.loads(meta_line)
        meta["doc_texts"] = [text for _, text in THREE_DOCS]
        arrays = arrays[:8 * (len(meta["terms"]) + 1) + 12 * meta["postings"]]
        path = tmp_path / "corpus.bm25"
        path.write_bytes(b"criticplan-bm25-index 2\n"
                         + json.dumps(meta, sort_keys=True).encode("utf-8") + b"\n" + arrays)
        with pytest.raises(IndexFormatError) as excinfo:
            load_index(path)
        assert str(path) in str(excinfo.value)
        assert "criticplan index" in str(excinfo.value)


def _edit_meta(edit):
    def splice(header, meta_line, arrays):
        meta = json.loads(meta_line)
        edit(meta)
        return header, json.dumps(meta, sort_keys=True).encode("utf-8"), arrays
    return splice


def _edit_arrays(edit):
    """Apply `edit(offsets, positions)` to writable copies of the array section."""
    def splice(header, meta_line, arrays):
        meta = json.loads(meta_line)
        n_offsets, n_postings = len(meta["terms"]) + 1, meta["postings"]
        offsets = np.frombuffer(arrays, "<i8", n_offsets).copy()
        positions = np.frombuffer(arrays, "<i4", n_postings, 8 * n_offsets).copy()
        edit(offsets, positions)
        rest = arrays[8 * n_offsets + 4 * n_postings:]
        return header, meta_line, offsets.tobytes() + positions.tobytes() + rest
    return splice


def _edit_texts(edit):
    """Apply `edit(bounds, texts)` to writable copies of the text bounds and bytes."""
    def splice(header, meta_line, arrays):
        meta = json.loads(meta_line)
        at = 8 * (len(meta["terms"]) + 1) + 12 * meta["postings"]
        n_bounds = len(meta["doc_ids"]) + 1
        bounds = np.frombuffer(arrays, "<i8", n_bounds, at).copy()
        texts = bytearray(arrays[at + 8 * n_bounds:])
        edit(bounds, texts)
        return header, meta_line, arrays[:at] + bounds.tobytes() + bytes(texts)
    return splice


def _set(array, index, value):
    array[index] = value


MALFORMED_INDEXES = {
    "non-integer version": (lambda h, m, a: (b"criticplan-bm25-index x", m, a), "version"),
    "non-utf8 header": (lambda h, m, a: (b"\xff" + h, m, a), "magic"),
    "non-utf8 metadata": (lambda h, m, a: (h, m.replace(b'"d0"', b'"d\xff"'), a), "metadata"),
    "bad metadata json": (lambda h, m, a: (h, m[:-1], a), "metadata"),
    "missing metadata key": (_edit_meta(lambda meta: meta.pop("doc_ids")), "metadata"),
    "text bounds not monotone": (_edit_texts(lambda b, t: _set(b, 1, b[2] + 1)), "text bounds"),
    "text bounds end short": (_edit_texts(lambda b, t: _set(b, -1, b[-1] - 1)), "text bounds"),
    "non-utf8 text": (_edit_texts(lambda b, t: _set(t, 0, 0xFF)), "text 0 is not UTF-8"),
    "non-number param": (_edit_meta(lambda meta: meta["params"].update(k1="1.2")), "metadata"),
    "truncated arrays": (lambda h, m, a: (h, m, a[:-3]), "bytes"),
    "posting count mismatch": (
        _edit_meta(lambda meta: meta.update(postings=meta["postings"] + 1)), "bytes"),
    "offsets not monotone": (_edit_arrays(lambda o, p: _set(o, 1, 100)), "offsets"),
    "offsets end short": (_edit_arrays(lambda o, p: _set(o, -1, o[-1] - 1)), "offsets"),
    "position out of range": (_edit_arrays(lambda o, p: _set(p, 0, 3)), "positions"),
    "negative position": (_edit_arrays(lambda o, p: _set(p, 0, -1)), "positions"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INDEXES))
def test_malformed_index_is_format_error_naming_file(tmp_path, case):
    splice, expected = MALFORMED_INDEXES[case]
    header, meta_line, arrays = index_bytes(build_index(THREE_DOCS)).split(b"\n", 2)
    header, meta_line, arrays = splice(header, meta_line, arrays)
    path = tmp_path / "corpus.bm25"
    path.write_bytes(header + b"\n" + meta_line + b"\n" + arrays)
    with pytest.raises(IndexFormatError) as excinfo:
        tuple(load_index(path).doc_texts)  # a text is checked when it is read
    message = str(excinfo.value)
    assert str(path) in message
    assert expected in message.replace(str(path), "")


def _zipf_corpus(seed=2024, docs=2000, length=100, vocabulary=2000):
    rng = random.Random(seed)
    words = [f"w{rank}" for rank in range(vocabulary)]
    weights = [1.0 / (rank + 1) for rank in range(vocabulary)]
    return [(f"doc-{i:05d}", " ".join(rng.choices(words, weights, k=length)))
            for i in range(docs)]


class TestMemory:
    """Allocation peaks of build and save, measured with tracemalloc (not timed).

    Building 2,000 docs of 100 tokens peaks near 2.25x its kept postings arrays;
    holding tf, the norm and the scores of every posting at once peaked at 2.9x,
    and sorting a copy for the unique keys and scoring in new arrays at 5.5x.
    Saving peaks near 0.15x the file, most of it the JSON metadata line (one
    string per doc id and term); joining the whole file in memory peaked at 2.1x.
    """

    @staticmethod
    def _peak(fn, *args):
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    def test_build_peak_is_a_small_multiple_of_the_kept_arrays(self):
        documents = _zipf_corpus()
        corpus, peak = self._peak(build_index, documents)
        assert peak < 2.5 * (corpus.positions.nbytes + corpus.scores.nbytes)

    def test_save_peak_is_below_a_quarter_of_the_file(self, tmp_path):
        corpus = build_index(_zipf_corpus())
        path = tmp_path / "corpus.bm25"
        _, peak = self._peak(save_index, corpus, path)
        assert peak < path.stat().st_size / 4


class TestIngestion:
    def test_directory_ingestion_uses_relative_paths(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "one.txt").write_text("first")
        (tmp_path / "sub" / "two.txt").write_text("second")
        documents = ingest_directory(tmp_path)
        assert documents == [("one.txt", "first"), ("sub/two.txt", "second")]

    def test_non_utf8_text_file_names_path(self, tmp_path):
        (tmp_path / "good.txt").write_text("fine")
        (tmp_path / "bad.txt").write_bytes(b"caf\xe9")
        with pytest.raises(IngestionError, match="can't decode byte 0xe9") as err:
            ingest_directory(tmp_path)
        assert str(tmp_path / "bad.txt") in str(err.value)

    def test_jsonl_ingestion(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "a", "text": "alpha"}\n{"id": "b", "text": "beta"}\n')
        assert ingest_jsonl(path) == [("a", "alpha"), ("b", "beta")]

    def test_bad_jsonl_record(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "a"}\n')
        with pytest.raises(IngestionError):
            ingest_jsonl(path)

    def test_non_string_text_names_line(self, tmp_path):
        path = tmp_path / "docs.jsonl"
        path.write_text('{"id": "a", "text": "alpha"}\n{"id": "b", "text": null}\n')
        with pytest.raises(IngestionError, match="text must be a string") as err:
            ingest_jsonl(path)
        assert f"{path}:2:" in str(err.value)
