"""The eager-sparse index against the scalar code it replaced.

`dict_score_query` and `dict_retrieve_scored` are the scalar loops that scored
one posting at a time. The eager index performs the same floating-point
operations in the same order, so scores must be equal with `==`, not within a
tolerance. `counter_build_index` is the per-document `Counter` builder that
the one-sort integer builder replaced; both must serialize to the same bytes.
The byte-translation tokenizer must split as the `[a-z0-9]+` regex it replaced.
"""

from __future__ import annotations

import math
import re
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from criticplan.retrieval import (
    Bm25Params,
    Corpus,
    build_index,
    index_bytes,
    load_index,
    retrieve_scored,
    save_index,
    score_query,
    tokenize,
)

VOCABULARY = [f"w{i}" for i in range(8)]


def dict_score_query(documents, query, params):
    doc_ids, doc_lengths, postings = [], [], {}
    for position, (doc_id, text) in enumerate(documents):
        tokens = tokenize(text)
        doc_ids.append(doc_id)
        doc_lengths.append(len(tokens))
        for term, tf in Counter(tokens).items():
            postings.setdefault(term, {})[position] = tf
    avgdl = sum(doc_lengths) / len(doc_lengths) if doc_lengths else 0.0
    k1, b, n = params.k1, params.b, len(doc_ids)
    scores = {}
    for term in tokenize(query):
        entry = postings.get(term)
        if not entry:
            continue
        idf = math.log((n - len(entry) + 0.5) / (len(entry) + 0.5) + 1.0)
        for position, tf in entry.items():
            norm = k1 * (1.0 - b + b * doc_lengths[position] / avgdl)
            scores[position] = scores.get(position, 0.0) + idf * tf * (k1 + 1.0) / (tf + norm)
    return {doc_ids[p]: s for p, s in scores.items()}


def counter_build_index(documents, params=Bm25Params(), corpus_id="corpus"):
    """Count each document's terms, then sort every posting by its term's row."""
    doc_ids, doc_texts, doc_lengths, distinct_terms = [], [], [], []
    vocabulary, posting_terms, tfs = {}, [], []
    for doc_id, text in documents:
        tokens = tokenize(text)
        counts = Counter(tokens)
        doc_ids.append(doc_id)
        doc_texts.append(text)
        doc_lengths.append(len(tokens))
        distinct_terms.append(len(counts))
        posting_terms.extend(map(vocabulary.setdefault, counts, counts))
        tfs.extend(counts.values())
    n = len(doc_ids)
    avgdl = sum(doc_lengths) / n if n else 0.0
    terms = {term: row for row, term in enumerate(sorted(vocabulary))}
    rows = np.fromiter(map(terms.__getitem__, posting_terms), np.int64, len(posting_terms))
    order = np.argsort(rows, kind="stable")
    df = np.bincount(rows, minlength=len(terms))
    positions = np.repeat(np.arange(n, dtype=np.int32), distinct_terms)[order]
    tf = np.array(tfs, dtype=np.int64)[order]
    idf = [math.log((n - d + 0.5) / (d + 0.5) + 1.0) for d in df.tolist()]
    k1, b = params.k1, params.b
    norm = k1 * (1.0 - b + b * np.array(doc_lengths, dtype=np.int64)[positions] / avgdl)
    scores = np.repeat(np.array(idf, dtype=np.float64), df) * tf * (k1 + 1.0) / (tf + norm)
    doc_rank = np.empty(n, dtype=np.int64)
    doc_rank[sorted(range(n), key=doc_ids.__getitem__)] = np.arange(n)
    return Corpus(corpus_id, params, tuple(doc_ids), tuple(doc_texts), avgdl, terms,
                  np.concatenate(([0], np.cumsum(df))), positions, scores, doc_rank)


def dict_retrieve_scored(documents, query, params, k):
    scores = dict_score_query(documents, query, params)
    ranked = sorted(
        ((doc_id, s) for doc_id, s in scores.items() if s > 0.0),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return ranked[:k]


def _hits(corpus, query, k):
    return [(obs.doc_id, score) for obs, score in retrieve_scored(corpus, query, k)]


params_strategy = st.builds(
    Bm25Params,
    k1=st.floats(min_value=0.01, max_value=3.0) | st.integers(1, 3),
    b=st.floats(min_value=0.0, max_value=1.0) | st.sampled_from([0, 1]),
)
texts = st.lists(st.sampled_from(VOCABULARY), max_size=12).map(" ".join)
queries = st.lists(st.sampled_from(VOCABULARY + ["absent"]), min_size=1, max_size=6).map(
    " ".join
)


@st.composite
def corpora(draw, min_size=0, text=texts):
    bodies = draw(st.lists(text, min_size=min_size, max_size=25))
    doc_ids = draw(st.permutations([f"d{i:02d}" for i in range(len(bodies))]))
    return list(zip(doc_ids, bodies))


# Pieces whose first-seen order differs from sorted order (w9 before w10),
# that lowercasing changes (DOG, the Kelvin sign, dotted capital I) or that
# hold no token at all (punctuation, the empty string).
PIECES = ["w9", "w10", "w1", "dog", "DOG", "Dog", "\u212a", "k", "\u0130", "i", "a1b2",
          "!!", "...", "-", ""]
SEPARATORS = [" ", "  ", ",", "\n", "-", "?!"]
mixed_texts = st.lists(st.tuples(st.sampled_from(PIECES), st.sampled_from(SEPARATORS)),
                       max_size=16).map(lambda pairs: "".join(p + s for p, s in pairs))


# Any code point, surrogates included, mixed with characters that lowercasing
# turns into (or next to) ASCII word characters.
any_texts = st.lists(st.characters(exclude_categories=()) | st.sampled_from(PIECES + SEPARATORS),
                     max_size=24).map("".join)


@settings(max_examples=500, deadline=None)
@given(any_texts)
@example("a\x00b \u212aelvin \u0130stanbul \ud800x\udfffy \uff21\u00e9t\u00e9 \U0001f600z9")
def test_tokenize_equals_regex(text):
    assert tokenize(text) == re.findall(r"[a-z0-9]+", text.lower())


@st.composite
def tied_corpora(draw):
    """Many documents with one identical text, shuffled doc_ids, plus others."""
    shared = draw(texts.filter(bool))
    bodies = [shared] * draw(st.integers(2, 30)) + draw(st.lists(texts, max_size=10))
    doc_ids = draw(st.permutations([f"d{i:02d}" for i in range(len(bodies))]))
    return list(zip(doc_ids, bodies)), shared


@settings(max_examples=200, deadline=None)
@given(corpora(), queries, params_strategy)
def test_scores_equal_dict_scorer(documents, query, params):
    corpus = build_index(documents, params=params)
    assert score_query(corpus, query) == dict_score_query(documents, query, params)
    repeated = f"{query} {query}"
    assert score_query(corpus, repeated) == dict_score_query(documents, repeated, params)


@settings(max_examples=200, deadline=None)
@given(corpora(), queries, params_strategy, st.integers(1, 30))
def test_top_k_equals_dict_scorer_and_excludes_zero_scores(documents, query, params, k):
    corpus = build_index(documents, params=params)
    hits = _hits(corpus, query, k)
    assert hits == dict_retrieve_scored(documents, query, params, k)
    query_terms = set(tokenize(query))
    texts_by_id = dict(documents)
    for doc_id, score in hits:
        assert score > 0.0
        assert query_terms & set(tokenize(texts_by_id[doc_id]))


@settings(max_examples=200, deadline=None)
@given(tied_corpora(), params_strategy, st.integers(1, 12))
def test_ties_at_the_k_boundary_break_by_doc_id(tied, params, k):
    documents, shared = tied
    corpus = build_index(documents, params=params)
    query = shared.split()[0]
    assert _hits(corpus, query, k) == dict_retrieve_scored(documents, query, params, k)


@settings(max_examples=100, deadline=None)
@given(corpora(min_size=1), queries, params_strategy)
def test_save_load_round_trip_is_identical(documents, query, params):
    corpus = build_index(documents, params=params)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "corpus.bm25"
        save_index(corpus, path)
        loaded = load_index(path)
    assert index_bytes(loaded) == index_bytes(corpus)
    assert loaded.doc_ids == corpus.doc_ids and tuple(loaded.doc_texts) == corpus.doc_texts
    assert score_query(loaded, query) == score_query(corpus, query)
    assert _hits(loaded, query, 10) == _hits(corpus, query, 10)


@settings(max_examples=300, deadline=None)
@given(corpora(text=mixed_texts | texts), params_strategy)
@example([("d1", "w9 w10 w9 W10"), ("d0", ""), ("d2", "!! ... -"), ("d3", "DOG dog \u212a k"),
          ("d4", "w1 w1 w1")], Bm25Params())
def test_index_bytes_equal_counter_builder(documents, params):
    corpus = build_index(documents, params=params, corpus_id="c")
    reference = counter_build_index(documents, params=params, corpus_id="c")
    assert index_bytes(corpus) == index_bytes(reference)
    assert corpus.terms == reference.terms
    for name in ("offsets", "positions", "scores", "doc_rank"):
        built, expected = getattr(corpus, name), getattr(reference, name)
        assert built.dtype == expected.dtype and np.array_equal(built, expected), name
