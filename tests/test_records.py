"""The shared record-file codec and every loader built on it."""

from __future__ import annotations

import ast
import inspect
import json
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from criticplan import generation, records
from criticplan.cli import load_problems, main
from criticplan.critics import (
    CriticKind,
    LinearCritic,
    PreferencePair,
    export_pairs,
    import_pairs,
    pairs_filename,
)
from criticplan.errors import CriticPlanError
from criticplan.evaluation import load_judgments
from criticplan.generation import ScriptedBackend
from criticplan.mdp import Observation, ObservationKind
from criticplan.retrieval import ingest_jsonl

# Line separators JSON leaves unescaped, non-ASCII text and the empty string.
TEXT = st.text(st.characters(blacklist_categories=("Cs",)) | st.sampled_from("\u2028\u2029é日"))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=12,
)
RECORDS = st.dictionaries(TEXT, JSON_VALUES, max_size=5)


@settings(max_examples=60, deadline=None)
@given(st.lists(RECORDS, max_size=6))
def test_read_returns_what_header_and_lines_wrote(written):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.jsonl"
        path.write_text(records.header("probe", 3, seed=1) + records.lines(written),
                        encoding="utf-8")
        assert records.read(path, lambda record: record, ValueError, ("probe", 3)) == written


@settings(max_examples=60, deadline=None)
@given(st.one_of(RECORDS, JSON_VALUES, st.floats()))
def test_dumps_is_compact_json_dumps(value):
    # `dumps` reuses one encoder; its bytes are those of a fresh `json.dumps`.
    assert records.dumps(value) == json.dumps(value, ensure_ascii=False, separators=(",", ":"))


OBSERVATION_KINDS = [ObservationKind.RATIONALE, ObservationKind.QUERY, ObservationKind.DOC]


@st.composite
def observations(draw):
    kind = draw(st.sampled_from(OBSERVATION_KINDS))
    doc_id = draw(TEXT) if kind is ObservationKind.DOC else None
    return Observation(kind=kind, text=draw(TEXT), doc_id=doc_id)


@st.composite
def preference_pairs(draw):
    values = draw(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2, unique=True))
    return PreferencePair(
        kind=draw(st.sampled_from(list(CriticKind))),
        problem_id=draw(TEXT),
        context_observations=tuple(draw(st.lists(observations(), max_size=3))),
        chosen=draw(observations()),
        rejected=draw(observations()),
        chosen_value=max(values),
        rejected_value=min(values),
        chosen_visits=draw(st.integers(0, 10**6)),
        rejected_visits=draw(st.integers(0, 10**6)),
    )


@settings(max_examples=40, deadline=None)
@given(st.lists(preference_pairs(), max_size=6))
def test_export_then_import_gives_equal_pairs(pairs):
    with tempfile.TemporaryDirectory() as tmp:
        export_pairs(pairs, tmp)
        for kind in CriticKind:
            path = Path(tmp) / pairs_filename(kind)
            expected = [pair for pair in pairs if pair.kind is kind]
            assert (import_pairs(path) if path.exists() else []) == expected


def _eval_results(path: Path):
    """`criticplan eval` of `path`, a results.jsonl, for a problem set holding p1."""
    problems = path.parent / "problems.jsonl"
    problems.write_text('{"problem_id": "p1", "statement": "s", "gold_label": "x"}\n')
    config = path.parent / "config.json"
    config.write_text(json.dumps({"paths": {"problems_file": str(problems),
                                            "output_dir": str(path.parent)}}))
    result = CliRunner().invoke(main, ["--config", str(config), "eval"])
    if result.exception is not None:
        raise result.exception
    return result.output


PAIR = records.dumps({
    "kind": "rationale", "problem_id": "p", "context": [],
    "chosen": {"kind": "rationale", "text": "a", "doc_id": None},
    "rejected": {"kind": "rationale", "text": "b", "doc_id": None},
    "chosen_value": 1.0, "rejected_value": 0.0, "chosen_visits": 1, "rejected_visits": 1,
})
# name: (loader, header line or None, a good record, a record missing a key)
LINE_FILES = {
    "problems": (load_problems, None,
                 '{"problem_id": "p1", "statement": "s"}', '{"problem_id": "p2"}'),
    "judgments": (load_judgments, None,
                  '{"problem_id": "p1", "relevant_doc_ids": ["a"]}', '{"problem_id": "p2"}'),
    "corpus": (ingest_jsonl, None, '{"id": "a", "text": "alpha"}', '{"id": "b"}'),
    "pairs": (import_pairs, '{"format": "preference-pairs", "version": 1}', PAIR,
              '{"kind": "rationale", "problem_id": "p"}'),
    "results": (_eval_results, '{"format": "solve-results", "version": 1}',
                '{"problem_id": "p1", "task": "answer_match", "final_answer": "x"}',
                '{"problem_id": "p1"}'),
}
CRITIC = {"format": "linear-critic", "version": 1, "kind": "doc", "dim": 2, "weights": [0, 1]}
SCRIPTED = {"format": "scripted-generator", "version": 1,
            "sample": [{"match": "x", "candidates": ["a"]}]}
# name: (loader, a good document, the same document missing a key)
DOCUMENT_FILES = {
    "critic": (LinearCritic.load, CRITIC, {k: v for k, v in CRITIC.items() if k != "weights"}),
    "scripted": (ScriptedBackend.from_file, SCRIPTED,
                 {**SCRIPTED, "sample": [{"candidates": ["a"]}]}),
}
LOADERS = {name: spec[0] for name, spec in {**LINE_FILES, **DOCUMENT_FILES}.items()}
WRONG_HEADER = {"format": "decision-log", "version": 1}


def _malformed_files():
    """(loader name, file text, what follows the path in the error) per case."""
    for name, (_, header, good, missing) in LINE_FILES.items():
        head = [header] if header else []
        bad_lines = {"bad-json": '{"problem_id": "p1",', "non-object": "[1, 2]",
                     "missing-key": missing}
        for case, bad in bad_lines.items():
            yield pytest.param(name, "\n".join(head + [good, bad]) + "\n",
                               f":{len(head) + 2}: ", id=f"{name}-{case}")
        if header:
            yield pytest.param(name, f"{json.dumps(WRONG_HEADER)}\n{good}\n", ":1: ",
                               id=f"{name}-wrong-header")
    for name, (_, good, missing) in DOCUMENT_FILES.items():
        documents = {"bad-json": json.dumps(good)[:-9], "non-object": "[]",
                     "missing-key": json.dumps(missing),
                     "wrong-header": json.dumps({**good, **WRONG_HEADER})}
        for case, text in documents.items():
            yield pytest.param(name, text, ": ", id=f"{name}-{case}")


def test_write_joins_chunks(tmp_path):
    path = tmp_path / "out" / "data.bin"
    records.write(path, iter([b"ab", bytearray(b"cd"), memoryview(b"ef"), b""]))
    assert path.read_bytes() == b"abcdef"


def test_chunks_that_fail_midway_keep_the_previous_file(tmp_path):
    path = tmp_path / "data.bin"
    records.write(path, "previous")

    def chunks():
        yield b"new start "
        raise RuntimeError("chunk source failed")

    with pytest.raises(RuntimeError, match="chunk source failed"):
        records.write(path, chunks())
    assert path.read_bytes() == b"previous"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("name, text, where", list(_malformed_files()))
def test_malformed_file_error_names_path_and_line(tmp_path, name, text, where):
    path = tmp_path / "results.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CriticPlanError) as err:
        LOADERS[name](path)
    assert f"{path}{where}" in str(err.value)


@pytest.mark.parametrize("bad_line", [1, 3])
@pytest.mark.parametrize("name", list(LINE_FILES))
def test_non_utf8_line_names_path_and_line(tmp_path, name, bad_line):
    _, header, good, _ = LINE_FILES[name]
    # A blank line 2 keeps a problems file from repeating its problem_id before line 3.
    lines = [(header or good).encode(), b"", good.encode()]
    # A UTF-16 byte-order mark: what a file saved as UTF-16 starts with.
    lines[bad_line - 1] = b"\xff\xfe" + lines[bad_line - 1]
    path = tmp_path / "results.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(CriticPlanError) as err:
        LOADERS[name](path)
    assert f"{path}:{bad_line}: 'utf-8' codec can't decode" in str(err.value)


@pytest.mark.parametrize("name", list(DOCUMENT_FILES))
def test_non_utf8_document_names_path(tmp_path, name):
    path = tmp_path / "input"
    path.write_bytes(json.dumps(DOCUMENT_FILES[name][1]).encode("utf-16"))
    with pytest.raises(CriticPlanError) as err:
        LOADERS[name](path)
    assert f"{path}: 'utf-8' codec can't decode" in str(err.value)


@pytest.mark.parametrize("name", list(LOADERS))
def test_directory_in_place_of_a_file_names_it(tmp_path, name):
    path = tmp_path / "results.jsonl"
    path.mkdir()
    with pytest.raises(CriticPlanError) as err:
        LOADERS[name](path)
    assert str(err.value).startswith(f"{path}: ")


@pytest.mark.parametrize("name", list(DOCUMENT_FILES))
def test_document_loaders_accept_the_good_document(tmp_path, name):
    loader, good, _ = DOCUMENT_FILES[name]
    path = tmp_path / "input"
    path.write_text(json.dumps(good), encoding="utf-8")
    assert loader(path)


def _calls(source: str):
    """(node, called name, the module or object it is called on) of every call in `source`."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            yield node, name, getattr(getattr(func, "value", None), "id", None)


def _file_reads(source: str):
    """(line, call) of every call in `source` that opens or reads a file."""
    for node, name, _ in _calls(source):
        if name in ("open", "read_text", "read_bytes"):
            yield node.lineno, name


def _file_writes(source: str):
    """(line, call) of every call in `source` that writes a file."""
    for node, name, module in _calls(source):
        if (name in ("write_text", "write_bytes")
                or module == "os" and name in ("replace", "rename")):
            yield node.lineno, name
        elif name == "open":
            # open(file, mode) and os.open(file, flags); a Path's open(mode).
            at = 1 if isinstance(node.func, ast.Name) or module in ("os", "io", "builtins") else 0
            mode = next((kw.value for kw in node.keywords if kw.arg in ("mode", "flags")),
                        node.args[at] if len(node.args) > at else None)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and isinstance(mode.value, str)
                                         and not set("wax+") & set(mode.value)):
                yield node.lineno, f"open({ast.unparse(mode)})"


@pytest.mark.parametrize("source, writes", [
    ('open(path, "w")', True), ('open(path, mode="ab")', True), ('path.open("x")', True),
    ('open(path, "r+b")', True), ('open(path, mode)', True), ("os.open(path, os.O_WRONLY)", True),
    ("path.write_text(text)", True), ("Path(path).write_bytes(data)", True),
    ("os.replace(source, path)", True),
    ("open(path)", False), ('open(path, "rb")', False), ('path.open("r")', False),
    ('text.replace("a", "b")', False), ("path.read_bytes()", False),
])
def test_file_write_detector(source, writes):
    assert bool(list(_file_writes(source))) is writes


def test_only_records_writes_files():
    """Every output goes through `records.write`; no other module writes a file."""
    package = Path(records.__file__).parent
    writes = [f"{path.name}:{line}: {call}" for path in sorted(package.glob("*.py"))
              if path.name != "records.py"
              for line, call in _file_writes(path.read_text(encoding="utf-8"))]
    assert writes == []


@pytest.mark.parametrize("source, reads", [
    ("open(path)", True), ('path.open("rb")', True), ("os.open(path, os.O_RDONLY)", True),
    ("path.read_text()", True), ("Path(path).read_bytes()", True),
    ("urllib.request.urlopen(request)", False), ("records.open_input(path, error)", False),
    ("fh.read()", False),
])
def test_file_read_detector(source, reads):
    assert bool(list(_file_reads(source))) is reads


def test_only_records_opens_input_files():
    """Every input is opened by `records.open_input`, bar the packaged prompt templates."""
    package = Path(records.__file__).parent
    lines, start = inspect.getsourcelines(generation.load_template)
    allowed = {("generation.py", line) for line in range(start, start + len(lines))}
    reads = [f"{path.name}:{line}: {call}" for path in sorted(package.glob("*.py"))
             if path.name != "records.py"
             for line, call in _file_reads(path.read_text(encoding="utf-8"))
             if (path.name, line) not in allowed]
    assert reads == []
