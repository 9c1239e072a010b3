"""The shared container of saved models and truecasers.

One table of malformed containers is fed to both loaders: each must raise
its own module's error with a message that names its kind, and the CLI
commands that read the file must exit 2 on it.
"""

import ast
import gzip
import json
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

import casener
from casener import container, crf
from casener.cli import EXIT_DATA, main
from casener.features import FeatureMap, TemplateSet
from casener.truecase import Truecaser, TruecaserFormatError
from conftest import container_blob, container_parts, old_crf_blob

#: kind -> (loader, its error, the CLI arguments that load a file of it)
LOADERS = {
    "crf": (crf.load, crf.ModelFormatError, ["tag", "--model"]),
    "truecaser": (Truecaser.from_bytes, TruecaserFormatError,
                  ["truecase", "--model"]),
}


def _gz(payload: bytes) -> bytes:
    return gzip.compress(payload, mtime=0)


def _doc(kind: str, **fields) -> bytes:
    return _gz(json.dumps({"format": f"casener-{kind}", **fields}).encode())


#: case -> the malformed data of that case for a kind
MALFORMED = {
    "empty": lambda kind: b"",
    "not-gzip": lambda kind: b"not a container at all",
    "invalid-utf8": lambda kind: _gz(b'{"format": "\xff\xfe"}'),
    "not-json": lambda kind: _gz(b"{format: casener"),
    "json-array": lambda kind: _gz(b"[1, 2]"),
    "other-kind": lambda kind: _doc(
        "truecaser" if kind == "crf" else "crf", version=1
    ),
    "missing-version": lambda kind: _doc(kind),
    "other-version": lambda kind: _doc(kind, version=999),
    "long-integer": lambda kind: _gz(b"1" * 5000),
    "deep-nesting": lambda kind: _gz(b"[" * 100_000),
    # The JSON ends at the first raw newline, so an indented document is
    # cut short even at the kind's own version.
    "pretty-printed": lambda kind: _gz(json.dumps({
        "format": f"casener-{kind}",
        "version": {"crf": crf._VERSION, "truecaser": 4}[kind],
    }, indent=1).encode()),
}


def _crf_container(tags: list[str], weight: float = 0.0) -> bytes:
    """A one-feature, two-tag CRF container whose emission weights both
    equal `weight` and whose other weights are 0."""
    weights = np.zeros(1 * 2 + 2 + 2 + 2 * 2)
    weights[:2] = weight
    return container.dump("crf", crf._VERSION, {
        "template_set": TemplateSet.CASE_AWARE.value,
        "tags": tags, "features": ["w0=a"], "metadata": {},
    }, weights.astype("<f8").tobytes())


def _without_o() -> bytes:
    """A CRF container that is valid but for a tag set lacking "O"."""
    return _crf_container(["B-A", "E-A"])


@pytest.mark.parametrize("case", MALFORMED)
@pytest.mark.parametrize("kind", LOADERS)
def test_malformed_container_rejected(kind, case):
    load, error, _ = LOADERS[kind]
    with pytest.raises(error, match=kind):
        load(MALFORMED[case](kind))


@pytest.mark.parametrize("case", MALFORMED)
@pytest.mark.parametrize("kind", LOADERS)
def test_malformed_container_exits_2(tmp_path, capsys, kind, case):
    load, error, argv = LOADERS[kind]
    data = MALFORMED[case](kind)
    path = tmp_path / "file.bin"
    path.write_bytes(data)
    with pytest.raises(error) as caught:
        load(data)
    assert main([*argv, str(path), "--input",
                 str(tmp_path / "input.conll")]) == EXIT_DATA
    assert f"data error: {caught.value}" in capsys.readouterr().err


def test_model_without_o_rejected(tmp_path, capsys):
    with pytest.raises(ValueError, match='lacks "O"'):
        crf.CrfModel(FeatureMap(("w0=a",), ("B-A", "E-A")),
                     TemplateSet.CASE_AWARE, np.zeros((1, 2)), np.zeros(2),
                     np.zeros(2), np.zeros((2, 2)))
    with pytest.raises(crf.ModelFormatError, match='lacks "O"'):
        crf.load(_without_o())
    path = tmp_path / "no-o.crf"
    path.write_bytes(_without_o())
    assert main(["tag", "--model", str(path), "--input",
                 str(tmp_path / "input.conll")]) == EXIT_DATA
    assert 'lacks "O"' in capsys.readouterr().err


@pytest.mark.parametrize("data, message", [
    (_crf_container(["O", "S-A"], float("nan")),
     "non-finite values in emission weights"),
    (_crf_container(["O", "X-A"]),
     "position 1: prefix 'X' of tag 'X-A' is not part of scheme IOBES"),
])
def test_model_with_nan_weight_or_non_iobes_tag_rejected(tmp_path, capsys,
                                                         data, message):
    with pytest.raises(crf.ModelFormatError, match=message):
        crf.load(data)
    path = tmp_path / "bad.crf"
    path.write_bytes(data)
    assert main(["tag", "--model", str(path), "--input",
                 str(tmp_path / "input.conll")]) == EXIT_DATA
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("version", [4.0, True, "4"])
def test_version_must_be_the_integer(version):
    # 4.0 == 4 in Python, and True == 1: neither is the version 4 or 1.
    with pytest.raises(ValueError, match=f"unsupported x version {version!r}"):
        container.load(container.dump("x", version, {}), "x", int(version),
                       ValueError)


def test_dump_is_stable_and_loads_back():
    fields = {"b": [1, "é"], "a": {"y": 2.5}}
    data = container.dump("x", 4, fields)
    assert data == container.dump("x", 4, dict(reversed(fields.items())))
    assert data[4:8] == b"\0\0\0\0"  # gzip mtime
    assert gzip.decompress(data) == (
        '{"a":{"y":2.5},"b":[1,"é"],"format":"casener-x","version":4}'
    ).encode("utf-8")
    doc = {"format": "casener-x", "version": 4, **fields}
    assert container.load(data, "x", 4, ValueError) == (doc, b"")
    block = b"\n\0raw"  # a block may hold any byte
    framed = container.dump("x", 4, fields, block)
    assert gzip.decompress(framed) == gzip.decompress(data) + b"\n" + block
    assert container.load(framed, "x", 4, ValueError) == (doc, block)


#: 300,000 float64 weights of four values, so deflate finds matches
#: across the boundaries of the blocks they are cut into.
_WEIGHTS = np.random.default_rng(0).integers(0, 4, 300_000).astype("<f8")


@pytest.mark.parametrize("blocks", [
    (),
    (b"",),
    (b"\n\0raw",),
    (b"", b""),
    (b"ab", b"", np.arange(6.0).reshape(2, 3)),
    (_WEIGHTS[:100_001], _WEIGHTS[100_001:100_003], np.empty(0),
     _WEIGHTS[100_003:].reshape(-1, 7)),
    (_WEIGHTS[: (1 << 17) + 1], np.tile(_WEIGHTS, 2).reshape(-1, 5)),
], ids=["none", "one-empty", "one", "all-empty", "several", "large",
        "over-1-mib"])
def test_dump_compresses_the_parts_as_one_string(blocks):
    """`dump` makes the bytes of compressing the JSON line, and a newline
    and the blocks joined when they hold a byte, in one call."""
    text = '{"format":"casener-x","version":4}'.encode()
    joined = b"".join(memoryview(block).cast("B") for block in blocks)
    whole = text + b"\n" + joined if joined else text
    assert container.dump("x", 4, {}, *blocks) == zlib.compress(
        whole, 6, wbits=31
    )


def test_dump_holds_the_output_about_once():
    """Dumping 8 MiB of incompressible weights holds well under two copies
    of its output at once."""
    block = np.random.default_rng(0).random(1 << 20)
    tracemalloc.start()
    try:
        data = container.dump("x", 4, {}, block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(data) > block.nbytes * 0.9
    assert peak < 1.5 * block.nbytes


def _spaces_gzip(size: int) -> bytes:
    """A gzip of `size` spaces, compressed 1 MiB at a time so the full
    expansion is never held."""
    deflate = zlib.compressobj(9, wbits=31)
    chunk = b" " * (1 << 20)
    return b"".join([*(deflate.compress(chunk) for _ in range(size >> 20)),
                     deflate.flush()])


@pytest.mark.parametrize("command", ["tag", "truecase"])
def test_decompression_stops_at_the_cap(tmp_path, capsys, monkeypatch,
                                        command):
    """A small file that expands past the cap exits 2 from `tag --model`
    and `truecase --input`, having decompressed little of it."""
    expansion, cap = 32 << 20, 64 << 10
    monkeypatch.setattr(container, "MAX_DECOMPRESSED", cap)
    blob = tmp_path / "blob.gz"
    blob.write_bytes(_spaces_gzip(expansion))
    assert blob.stat().st_size < expansion // 500
    tracemalloc.start()
    try:
        code = main([command, "--model", str(blob),
                     "--input", str(tmp_path / "input.conll")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_DATA
    assert f"gzip stream of at most {cap} bytes" in capsys.readouterr().err
    assert peak < expansion // 16


#: A valid one-feature, two-tag model, and its JSON document and block.
_MODEL = _crf_container(["O", "S-A"], 0.5)
_DOC, _BLOCK = container_parts(_MODEL)


def _without(field: str) -> bytes:
    return container_blob({k: v for k, v in _DOC.items() if k != field},
                          _BLOCK)


#: case -> (a model file with that defect, the error message it gives)
CORRUPT_MODELS = {
    "block-one-byte-short": (container_blob(_DOC, _BLOCK[:-1]),
                             "weight block holds 79 bytes, expected 80"),
    "block-one-byte-long": (container_blob(_DOC, _BLOCK + b"\0"),
                            "weight block holds 81 bytes, expected 80"),
    "no-block": (container_blob(_DOC),
                 "weight block holds 0 bytes, expected 80"),
    **{f"no-{field}": (_without(field), f"malformed model fields: '{field}'")
       for field in ("template_set", "tags", "features", "metadata")},
    "version-2": (old_crf_blob(crf.load(_MODEL)), "unsupported crf version 2"),
}


@pytest.fixture
def tag_inputs(tmp_path):
    """Paths of a valid model, truecaser and input for `casener tag`."""
    model, caser = tmp_path / "ok.crf", tmp_path / "ok.bin"
    model.write_bytes(_MODEL)
    caser.write_bytes(Truecaser({"oslo": "Oslo"}).to_bytes())
    (tmp_path / "input.conll").write_text("oslo\n\n", "utf-8")
    return str(model), str(caser), str(tmp_path / "input.conll")


@pytest.mark.parametrize("case", CORRUPT_MODELS)
def test_corrupt_model_rejected(tmp_path, capsys, tag_inputs, case):
    data, message = CORRUPT_MODELS[case]
    with pytest.raises(crf.ModelFormatError, match=message):
        crf.load(data)
    path = tmp_path / "bad.crf"
    path.write_bytes(data)
    assert main(["tag", "--model", str(path), "--input",
                 tag_inputs[2]]) == EXIT_DATA
    assert f"data error: {message}" in capsys.readouterr().err


def test_truecaser_with_a_block_rejected(tmp_path, capsys, tag_inputs):
    doc, _ = container_parts(Truecaser({"oslo": "Oslo"}).to_bytes())
    data = container_blob(doc, b"\0" * 8)
    message = "unexpected block in truecaser data"
    with pytest.raises(TruecaserFormatError, match=message):
        Truecaser.from_bytes(data)
    path = tmp_path / "bad.bin"
    path.write_bytes(data)
    model, caser, source = tag_inputs
    assert main(["tag", "--model", model, "--truecaser", caser,
                 "--input", source]) == 0
    assert capsys.readouterr().out == "oslo O\n\n"
    assert main(["tag", "--model", model, "--truecaser", str(path),
                 "--input", source]) == EXIT_DATA
    assert f"data error: {message}" in capsys.readouterr().err


def test_container_is_the_only_owner_of_the_file_framing():
    """No module but `container` imports gzip, zlib or base64."""
    found = []
    for path in sorted(Path(casener.__file__).parent.glob("*.py")):
        if path.name == "container.py":
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            names = (
                [alias.name for alias in node.names]
                if isinstance(node, ast.Import)
                else [node.module or ""] if isinstance(node, ast.ImportFrom)
                else []
            )
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] in {"gzip", "zlib", "base64"}]
    assert found == []
