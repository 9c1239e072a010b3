"""Every file the package writes goes through `container.write_file`.

The writer replaces its target whole or not at all, so no other module may
open a file for writing, and a failed write must leave the old file as it
was, with no temporary file beside it.
"""

import ast
import errno
import os
from pathlib import Path

import pytest

from casener.container import write_file
from conftest import CLI_WRITERS, WRITERS, CliFailed

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "casener"
#: What writes or replaces a file: these functions of these modules, any
#: `.write_bytes`/`.write_text` call, and an `open` whose mode writes.
_MODULES = {"os", "tempfile", "shutil"}
_FUNCTIONS = {"fdopen", "mkstemp", "replace", "copy", "copyfile", "move"}


def _open_mode(call: ast.Call) -> str | None:
    """The mode of an `open` call: its literal, "r" if it gives none, and
    None if it is not a literal."""
    for keyword in call.keywords:
        if keyword.arg == "mode":
            value = keyword.value
            return value.value if isinstance(value, ast.Constant) else None
    for arg in call.args:
        if (isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                and arg.value and set(arg.value) <= set("rwaxbt+")):
            return arg.value
    return "r" if len(call.args) < 2 else None


def _writes(tree: ast.AST) -> list[ast.AST]:
    """The nodes of `tree` that write or replace a file, or import a
    function of `_MODULES` that does."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in _MODULES and any(
                    alias.name in _FUNCTIONS for alias in node.names):
                found.append(node)
            continue
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        module = getattr(getattr(func, "value", None), "id", None)
        if (name == "open" and set(_open_mode(node) or "w") & set("wax+")
                or name in ("write_bytes", "write_text")
                or name in _FUNCTIONS and module in _MODULES):
            found.append(node)
    return found


def test_write_file_is_the_only_writer():
    modules = sorted(_PACKAGE.glob("*.py"))
    assert "container.py" in {path.name for path in modules}
    found = []
    for path in modules:
        tree = ast.parse(path.read_text("utf-8"))
        allowed: set[int] = set()
        if path.name == "container.py":
            [writer] = [node for node in tree.body
                        if isinstance(node, ast.FunctionDef)
                        and node.name == "write_file"]
            allowed = {id(node) for node in _writes(writer)}
            assert len(allowed) == 3, "write_file no longer writes a file"
        found += [f"{path.name}:{node.lineno}" for node in _writes(tree)
                  if id(node) not in allowed]
    assert found == []


def test_guard_sees_each_kind_of_write():
    tree = ast.parse(
        "open(p, 'w')\nopen(p, mode='ab')\nopen(p, m)\nPath(p).open('w')\n"
        "os.fdopen(fd, 'wb')\ntempfile.mkstemp()\nos.replace(a, b)\n"
        "p.write_bytes(b)\nfrom os import replace\ngzip.open(p, 'wb')\n"
        "open(p)\nopen(p, 'rb')\nopen(p, 'r', encoding='utf-8')\n"
        "s.replace('a', 'b')\nreplace(span, type=t)\n"
        "from dataclasses import replace\n"
    )
    assert sorted(node.lineno for node in _writes(tree)) == list(range(1, 11))


class _FailingFile:
    """A file that writes the first half of its data, then fails as a
    full disk does."""

    def __init__(self, handle) -> None:
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.handle.close()

    def write(self, data: bytes) -> int:
        self.handle.write(data[: len(data) // 2])
        self.handle.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("writer", WRITERS)
def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch, writer):
    """A write that fails partway leaves each old output byte-identical and
    no temporary file.  The package's functions raise the OSError; a
    command reports it as a data error and exits 2."""
    for path in WRITERS[writer](tmp_path):
        path.write_bytes(f"old {path.name}\n".encode())
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    real_fdopen = os.fdopen
    monkeypatch.setattr(os, "fdopen", lambda *args, **kwargs: _FailingFile(
        real_fdopen(*args, **kwargs)))
    if writer in CLI_WRITERS:
        failure = CliFailed, r"^exit 2: data error: .*No space left on device"
    else:
        failure = OSError, "No space left on device"
    with pytest.raises(failure[0], match=failure[1]):
        WRITERS[writer](tmp_path)
    monkeypatch.undo()
    assert {path.name: path.read_bytes()
            for path in tmp_path.iterdir()} == before


def test_symlinked_output_keeps_its_link(tmp_path):
    (tmp_path / "real.txt").write_bytes(b"old\n")
    (tmp_path / "link.txt").symlink_to("real.txt")
    write_file(str(tmp_path / "link.txt"), b"new\n")
    assert (tmp_path / "link.txt").is_symlink()
    assert (tmp_path / "real.txt").read_bytes() == b"new\n"
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "real.txt"]


def test_write_file_never_sets_the_umask(tmp_path, monkeypatch):
    """The umask is shared by every thread of the process, so the writer
    leaves it alone: the kernel applies it to the new file."""
    umask = os.umask(0o027)
    os.umask(umask)

    def set_umask(mask):
        raise AssertionError("write_file set the umask")

    monkeypatch.setattr(os, "umask", set_umask)
    write_file(str(tmp_path / "out.txt"), b"data")
    monkeypatch.undo()
    assert (tmp_path / "out.txt").stat().st_mode & 0o777 == 0o666 & ~umask


@pytest.mark.parametrize("target", ["/dev/null", "."])
def test_only_a_regular_file_is_replaced(tmp_path, monkeypatch, target):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match="is not a regular file"):
        write_file(target, b"data")
    assert os.listdir(tmp_path) == []
