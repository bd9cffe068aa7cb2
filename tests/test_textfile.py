import ast
import inspect
import re
from pathlib import Path

import pytest

import docalign
from docalign import align_cda, align_url, corpus, evaluation, lexicon, pipeline
from docalign import vectorspace as vs
from docalign.errors import FormatError
from docalign.textfile import read_lines
from tests.conftest import make_record


class TestReadLines:
    def test_numbers_lines_and_drops_line_ends(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"a\n\nb\r\nc")
        assert list(read_lines(path)) == [(1, "a"), (3, "b"), (4, "c")]
        assert list(read_lines(path, skip_blank=False)) == [
            (1, "a"), (2, ""), (3, "b"), (4, "c")]

    def test_lone_carriage_return_stays_in_its_line(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"a\rb\nc\r\r\n")
        assert list(read_lines(path)) == [(1, "a\rb"), (2, "c\r")]

    def test_fields(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_bytes(b"a\tb\n\nc\td\te\n")
        lines = read_lines(path, 2)
        assert next(lines) == (1, ["a", "b"])
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}:3: expected 2 "
                                              r"tab-separated fields, got 3$"):
            next(lines)

    def test_blank_line_has_one_field_when_kept(self, tmp_path):
        path = tmp_path / "f.tsv"
        path.write_bytes(b"a\tb\n\n")
        with pytest.raises(FormatError, match=r":2: expected 2 tab-separated fields, got 1$"):
            list(read_lines(path, 2, skip_blank=False))

    @pytest.mark.parametrize("data, reason", [
        (b"ok\nbad \xff byte\n", "invalid start byte"),
        (b"ok\ncut \xc3\n", "invalid continuation byte"),
        (b"ok\ncut \xc3", "unexpected end of data"),
    ])
    def test_bad_byte_names_file_and_line(self, tmp_path, data, reason):
        path = tmp_path / "f.txt"
        path.write_bytes(data)
        with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}:2: not UTF-8: "
                                              rf"{reason}$"):
            list(read_lines(path))


# loader -> (file name, a valid first and second line, the call that loads
# the file at a path, as data that compares with ==)
LOADERS = {
    "translation table": ("t.tsv", b"cat\tchat\t0.5\ndog\tchien\t1",
                          lambda p: [a.tolist() for a in lexicon.load_translation_table(
                              p, {"cat": 0, "dog": 1}, {"chat": 0, "chien": 1})]),
    "embeddings": ("e.txt", b"1 2\ncat 1 0",
                   lambda p: (lambda e: (e.words, e.vectors.tolist()))(
                       lexicon.load_embeddings(p))),
    "lexicon": ("l.tsv", b"chat\tcat\t1\nchien\tcat\t0.5",
                lambda p: lexicon.load_alignment(p, "fr", {"cat"})),
    "vocabulary": ("v.txt", b"cat\ndog", vs.load_vocabulary),
    "pairs": ("p.tsv", b"a.com\thttp://a.com/en\thttp://a.com/fr\tfr\t0.5\tcda\n"
                       b"a.com\thttp://a.com/en/2\thttp://a.com/fr/2\tfr\t0.25\tcda",
              align_cda.load_pairs),
    "gold": ("g.tsv", b"http://a.com/en\thttp://a.com/fr\nhttp://a.com/en/2\thttp://a.com/fr/2",
             evaluation.load_gold),
    "identifiers": ("i.txt", b"fr\nde # German", align_url.load_identifier_set),
    "stopwords": ("s.txt", b"the\nof", pipeline._load_stopwords),
}


def _write(root: Path, name: str):
    """Write a valid file for ``name`` under ``root``; return its path and a
    call that loads it."""
    root.mkdir(parents=True)
    if name == "urls.txt":
        vocab = vs.Vocabulary(words=["a", "b"])
        terms = vs.count_terms([["a"], ["b"]], vocab)
        vs.save_vectors(vs.vectorize(["u1", "u2"], terms, vs.compute_idf(terms)), root)
        return root / "urls.txt", lambda: vs.load_vectors(root).urls
    if name == "docs.tsv":
        corpus.write_partitions(corpus.group_by_domain([
            make_record("http://a.com/1", ["x"]), make_record("http://a.com/2", ["y"])]),
            root)
        return root / corpus.DOCS, lambda: corpus.read_partitions(root)
    if name == "input":
        path = root / "in.jsonl"
        path.write_bytes(b'{"url": "http://a.com/1", "lang": "en", "text": "a"}\n'
                         b'{"url": "http://a.com/2", "lang": "fr", "text": "b"}\n')

        def ingest():
            pipeline.ingest(pipeline.PipelineConfig(input=str(path), out=str(root / "out")))
            return corpus.read_partitions(root / "out" / "corpus")

        return path, ingest
    file, lines, load = LOADERS[name]
    (root / file).write_bytes(lines + b"\n")
    return root / file, lambda: load(root / file)


@pytest.mark.parametrize("name", [*LOADERS, "urls.txt", "docs.tsv", "input"])
def test_bad_byte_on_line_2_names_file_and_line(tmp_path, name):
    path, load = _write(tmp_path / "d", name)
    first, second, *rest = path.read_bytes().split(b"\n")
    path.write_bytes(b"\n".join([first, b"\xff" + second, *rest]))
    with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}:2: not UTF-8"):
        load()


@pytest.mark.parametrize("name", [*LOADERS, "urls.txt", "docs.tsv", "input"])
def test_crlf_file_loads_as_its_lf_copy(tmp_path, name):
    _lf_path, load_lf = _write(tmp_path / "lf", name)
    crlf_path, load_crlf = _write(tmp_path / "crlf", name)
    crlf_path.write_bytes(crlf_path.read_bytes().replace(b"\n", b"\r\n"))
    assert load_crlf() == load_lf()


@pytest.mark.parametrize("name", [*LOADERS, "urls.txt", "docs.tsv", "input"])
def test_bom_file_loads_as_its_plain_copy(tmp_path, name):
    _plain_path, load_plain = _write(tmp_path / "plain", name)
    bom_path, load_bom = _write(tmp_path / "bom", name)
    bom_path.write_bytes(b"\xef\xbb\xbf" + bom_path.read_bytes())
    assert load_bom() == load_plain()


SRC = Path(docalign.__file__).parent


def _calls(path: Path):
    return [node for node in ast.walk(ast.parse(path.read_bytes(), filename=str(path)))
            if isinstance(node, ast.Call)]


def _open_mode(node: ast.Call):
    """The mode of an ``open`` or ``.open`` call: "r" when not given, None
    when computed at run time. Any other call has the empty mode, which
    neither reads nor writes."""
    func = node.func
    if isinstance(func, ast.Name) and func.id == "open":
        positional = node.args[1:2]
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        positional = node.args[:1]  # Path.open(mode)
    else:
        return ""
    mode = next((kw.value for kw in node.keywords if kw.arg == "mode"),
                positional[0] if positional else ast.Constant("r"))
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None  # a mode computed at run time could read or write text


def _text_reads(path: Path):
    """Line numbers of the calls in ``path`` that open a file for reading in
    text mode: ``open`` or ``.open`` with a mode (default "r") that reads
    and has no "b", and ``.read_text``."""
    for node in _calls(path):
        mode = _open_mode(node)
        if (isinstance(node.func, ast.Attribute) and node.func.attr == "read_text"
                or mode is None or ("b" not in mode and ("r" in mode or "+" in mode))):
            yield node.lineno


def _text_writes(path: Path):
    """Line numbers of the calls in ``path`` that write a file in text mode
    and give no ``encoding=``, so write in the locale's encoding:
    ``.write_text``, and ``open`` or ``.open`` with a mode that writes and
    has no "b"."""
    for node in _calls(path):
        if any(kw.arg == "encoding" for kw in node.keywords):
            continue
        mode = _open_mode(node)
        if (isinstance(node.func, ast.Attribute) and node.func.attr == "write_text"
                or mode is None or ("b" not in mode and any(c in mode for c in "wax+"))):
            yield node.lineno


def test_no_text_mode_reads_outside_the_line_reader():
    """Every text file is read through ``textfile.read_lines`` (or as bytes),
    so the UTF-8 and line-end rule holds for every loader."""
    found = [f"{path.relative_to(SRC.parent)}:{line}"
             for path in sorted(SRC.glob("*.py")) for line in _text_reads(path)]
    assert not found, "text-mode reads: " + ", ".join(found)


def test_every_text_write_names_its_encoding():
    """Every text file the pipeline writes is UTF-8, whatever the locale."""
    found = [f"{path.relative_to(SRC.parent)}:{line}"
             for path in sorted(SRC.glob("*.py")) for line in _text_writes(path)]
    assert not found, "text writes without an encoding: " + ", ".join(found)


def _indented_json(path: Path):
    """Line numbers of the calls in ``path`` that lay JSON out for a reader:
    ``json.dumps`` or ``json.dump`` with an ``indent=``."""
    for node in _calls(path):
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr in ("dump", "dumps")
                and isinstance(func.value, ast.Name) and func.value.id == "json"
                and any(kw.arg == "indent" for kw in node.keywords)):
            yield node.lineno


def test_json_reports_have_one_writer():
    """``manifest.json``, ``report.json`` and ``evaluate --json`` share one
    layout, so they are written by ``pipeline.write_json`` alone."""
    found = [(path.name, line) for path in sorted(SRC.glob("*.py"))
             for line in _indented_json(path)]
    source, start = inspect.getsourcelines(pipeline.write_json)
    assert len(found) == 1, "indented JSON written at: " + ", ".join(map(str, found))
    assert found[0][0] == "pipeline.py" and start <= found[0][1] < start + len(source)


def _unread_dataclass_fields(paths):
    """``(path, line, "Class.field")`` for each field of a ``@dataclass`` in
    ``paths`` whose name is never read as an attribute in any of them."""
    trees = {path: ast.parse(path.read_bytes(), filename=str(path)) for path in paths}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    for path, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
            if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
                       for d in decorators):
                continue
            for stmt in cls.body:
                if (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                        and stmt.target.id not in read):
                    yield path, stmt.lineno, f"{cls.name}.{stmt.target.id}"


def test_every_dataclass_field_is_read():
    """A field that nothing reads is state kept for no one."""
    found = [f"{path.relative_to(SRC.parent)}:{line} {name}"
             for path, line, name in _unread_dataclass_fields(sorted(SRC.glob("*.py")))]
    assert not found, "unread dataclass fields: " + ", ".join(found)


def test_guard_lists_unread_dataclass_fields(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import dataclasses\n"
                    "@dataclasses.dataclass(frozen=True)\n"
                    "class A:\n    a: int\n    b: int = 0\n"
                    "class B:\n    c: int\n"
                    "A(1).a\n")
    assert list(_unread_dataclass_fields([path])) == [(path, 5, "A.b")]


@pytest.mark.parametrize("source, flagged", [
    ('open(p)', True),
    ('open(p, encoding="utf-8")', True),
    ('open(p, "r+b")', False),
    ('open(p, "w", encoding="utf-8")', False),
    ('open(p, "a+")', True),
    ('open(p, mode="rb")', False),
    ('open(p, m)', True),
    ('Path(p).open()', True),
    ('Path(p).open("rb")', False),
    ('Path(p).read_text()', True),
    ('Path(p).read_bytes()', False),
    ('Path(p).write_text("x")', False),
])
def test_guard_flags_text_mode_reads(tmp_path, source, flagged):
    path = tmp_path / "m.py"
    path.write_text(f"x = 1\n{source}\n")
    assert list(_text_reads(path)) == ([2] if flagged else [])


@pytest.mark.parametrize("source, flagged", [
    ('Path(p).write_text("x")', True),
    ('Path(p).write_text("x", encoding="utf-8")', False),
    ('Path(p).write_bytes(b"x")', False),
    ('open(p, "w")', True),
    ('open(p, "w", encoding="utf-8")', False),
    ('open(p, mode="a")', True),
    ('open(p, "x")', True),
    ('open(p, "r+")', True),
    ('open(p, "wb")', False),
    ('open(p)', False),
    ('open(p, m)', True),
    ('open(p, m, encoding="utf-8")', False),
    ('Path(p).open("w")', True),
    ('Path(p).open("w", encoding="utf-8")', False),
    ('Path(p).open("ab")', False),
])
def test_guard_flags_text_writes_without_encoding(tmp_path, source, flagged):
    path = tmp_path / "m.py"
    path.write_text(f"x = 1\n{source}\n")
    assert list(_text_writes(path)) == ([2] if flagged else [])


@pytest.mark.parametrize("source, flagged", [
    ('json.dumps(x, indent=2)', True),
    ('json.dumps(x, sort_keys=True, indent=2, ensure_ascii=False)', True),
    ('json.dump(x, fh, indent=2)', True),
    ('json.dumps(x)', False),
    ('json.dumps(x, sort_keys=True, ensure_ascii=False)', False),
    ('json.loads(s)', False),
    ('yaml.dump(x, indent=2)', False),
])
def test_guard_flags_indented_json(tmp_path, source, flagged):
    path = tmp_path / "m.py"
    path.write_text(f"x = 1\n{source}\n")
    assert list(_indented_json(path)) == ([2] if flagged else [])
