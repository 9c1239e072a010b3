"""The shared container of saved models and truecasers.

One table of malformed containers is fed to both loaders: each must raise
its own module's error with a message that names its kind, and the CLI
commands that read the file must exit 2 on it.
"""

import gzip
import json

import numpy as np
import pytest

from casener import container, crf
from casener.cli import EXIT_DATA, main
from casener.features import FeatureMap, TemplateSet
from casener.truecase import Truecaser, TruecaserFormatError

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
}


def _crf_container(tags: list[str], weight: float = 0.0) -> bytes:
    """A two-tag CRF container whose emission weights all equal `weight`."""
    encode = crf._encode_array
    return container.dump("crf", crf._VERSION, {
        "template_set": TemplateSet.CASE_AWARE.value,
        "tags": tags, "features": ["w0=a"],
        "emission": encode(np.full((1, 2), weight)),
        "begin": encode(np.zeros(2)), "end": encode(np.zeros(2)),
        "transition": encode(np.zeros((2, 2))), "metadata": {},
    })


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
    assert container.load(data, "x", 4, ValueError) == {
        "format": "casener-x", "version": 4, **fields,
    }
