"""The versioned gzip + JSON container of saved models and truecasers.

One JSON object (sorted keys, no spaces, UTF-8): "format" is
"casener-<kind>", "version" the kind's integer format version, and the
other keys are the kind's own fields.  gzip's mtime is 0, so equal fields
save to equal bytes.
"""

import gzip
import json
import zlib


def dump(kind: str, version: int, fields: dict) -> bytes:
    """`fields` in a container of `kind` and `version`."""
    doc = {"format": f"casener-{kind}", "version": version, **fields}
    return gzip.compress(json.dumps(
        doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False
    ).encode("utf-8"), mtime=0)


def load(data: bytes, kind: str, version: int, error: type) -> dict:
    """The document of a container of `kind` and `version`; any other
    data raises `error` with a message that names `kind`."""
    if not data:
        raise error(f"empty {kind} data")
    try:
        doc = json.loads(gzip.decompress(data))
    except (OSError, EOFError, zlib.error, ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and over-long integers;
        # RecursionError, arrays nested too deep.
        raise error(f"corrupt {kind} data: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != f"casener-{kind}":
        raise error(f"not a {kind} file")
    if type(doc.get("version")) is not int or doc["version"] != version:
        raise error(f"unsupported {kind} version {doc.get('version')!r}")
    return doc
