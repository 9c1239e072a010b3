"""Saved files: `write_file`, which writes every file the package writes,
and the versioned gzip + JSON container of models and truecasers.

A container is one JSON object (sorted keys, no spaces, UTF-8): "format"
is "casener-<kind>", "version" the kind's integer format version, and the
other keys are the kind's own fields.  gzip's mtime is 0, so equal fields
save to equal bytes.
"""

import gzip
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


def dump(kind: str, version: int, fields: dict) -> bytes:
    """`fields` in a container of `kind` and `version`."""
    doc = {"format": f"casener-{kind}", "version": version, **fields}
    return gzip.compress(json.dumps(
        doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8"), mtime=0)


#: The most bytes a container may decompress to.  Saved models expand
#: 1.6-1.9 times (seed-42 synth: 227 KB; a 480,000-weight long-tail model:
#: 5.6 MB), but an all-zero one 45 times, so a bound on the ratio would
#: reject valid files.  256 MiB holds some 23 million weights.
MAX_DECOMPRESSED = 256 << 20


def load(data: bytes, kind: str, version: int, error: type) -> dict:
    """The document of a container of `kind` and `version`; any other
    data, or data that decompresses past `MAX_DECOMPRESSED` bytes, raises
    `error` with a message that names `kind`, having held at most that."""
    if not data:
        raise error(f"empty {kind} data")
    inflate = zlib.decompressobj(wbits=31)  # one gzip member
    try:
        raw = inflate.decompress(data, MAX_DECOMPRESSED + 1)
        if len(raw) > MAX_DECOMPRESSED or not inflate.eof or inflate.unused_data:
            raise zlib.error(f"not one gzip stream of at most {MAX_DECOMPRESSED} bytes")
        doc = json.loads(raw)
    except (zlib.error, ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and over-long integers;
        # RecursionError, arrays nested too deep.
        raise error(f"corrupt {kind} data: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != f"casener-{kind}":
        raise error(f"not a {kind} file")
    if type(doc.get("version")) is not int or doc["version"] != version:
        raise error(f"unsupported {kind} version {doc.get('version')!r}")
    return doc
