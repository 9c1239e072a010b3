"""Saved files: `write_file`, which writes every file the package writes,
and the versioned container of models and truecasers, the package's only
framing of bytes.

A container is one gzip member at level 6, zlib's default, and mtime 0,
so equal contents save to equal bytes.  It holds one line of JSON (sorted
keys, no spaces, UTF-8): "format" is "casener-<kind>", "version" the
kind's integer format version, and the other keys are the kind's own
fields.  A newline and a raw block that the kind lays out may follow.
`load` ends the JSON at the first raw newline, for every kind, so the JSON
line must hold none: a pretty-printed container is corrupt data.  `dump`
compresses the parts in sequence, into the bytes of compressing them joined.
"""

import io
import json
import os
import tempfile
import zlib


def write_file(path: str, data: bytes) -> None:
    """Replace the regular file `path` resolves to with `data` through a
    temporary file in its directory, so a failed write changes nothing and
    a symlink keeps its link; the mode is that of a new file (0o666 & ~umask)."""
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        raise ValueError(f"{path!r} is not a regular file")
    umask = os.umask(0)  # the only way to read it; restored at once
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".casener-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump(kind: str, version: int, fields: dict, *blocks) -> bytes:
    """`fields` in a container of `kind` and `version`, then a newline and
    the C-contiguous buffers `blocks` if they hold a byte, compressed 1 MiB
    at a time into one `BytesIO`, whose buffer CPython returns uncopied."""
    doc = {"format": f"casener-{kind}", "version": version, **fields}
    text = json.dumps(
        doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8")
    rest = (b"\n", *blocks) if any(memoryview(b).nbytes for b in blocks) else ()
    deflate = zlib.compressobj(6, wbits=31)
    out, step = io.BytesIO(), 1 << 20
    for part in (text, *rest):
        view = memoryview(part).cast("B")
        for start in range(0, len(view), step):
            out.write(deflate.compress(view[start : start + step]))
    out.write(deflate.flush())
    return out.getvalue()


#: The most bytes a container may decompress to.  Saved models expand
#: 2.4-2.5 times (seed-42 synth: 174 KB) or 1.5 times (a 474,000-weight
#: long-tail model: 4.3 MB), but an all-zero one 35 times, so a bound on the
#: ratio would reject valid files.  A weight takes 8 bytes and its share of
#: the feature names about 1, so 256 MiB holds some 30 million weights.
MAX_DECOMPRESSED = 256 << 20


def load(data: bytes, kind: str, version: int, error: type) -> tuple[dict, bytes]:
    """The document and the block (empty if none) of a container of `kind`
    and `version`; any other data, or data that decompresses past
    `MAX_DECOMPRESSED` bytes, raises `error` with a message that names
    `kind`, having held at most that."""
    if not data:
        raise error(f"empty {kind} data")
    inflate = zlib.decompressobj(wbits=31)  # one gzip member
    try:
        raw = inflate.decompress(data, MAX_DECOMPRESSED + 1)
        if len(raw) > MAX_DECOMPRESSED or not inflate.eof or inflate.unused_data:
            raise zlib.error(f"not one gzip stream of at most {MAX_DECOMPRESSED} bytes")
        text, _, block = raw.partition(b"\n")
        doc = json.loads(text)
    except (zlib.error, ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and over-long integers;
        # RecursionError, arrays nested too deep.
        raise error(f"corrupt {kind} data: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != f"casener-{kind}":
        raise error(f"not a {kind} file")
    if type(doc.get("version")) is not int or doc["version"] != version:
        raise error(f"unsupported {kind} version {doc.get('version')!r}")
    return doc, block
