"""The case-free key is defined once, as `corpus.case_key`.

`tag_corpus` reuses one sentence's tags for every sentence with the same
key, which is sound only while the caseless features and the truecaser key
words the same way.  So no other module of the package may spell a case
fold of its own.  `transforms` makes the lowercased and uppercased test
copies, and `synth` writes its corpora's decoys and noise: both change text
rather than look it up, and may call `str.lower`.
"""

import ast
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "casener"
_FOLDS = {"lower", "casefold"}
_MAY_FOLD = {"transforms.py", "synth.py"}


def _folds(tree: ast.AST) -> list[ast.Attribute]:
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in _FOLDS]


def test_case_key_is_the_only_case_fold():
    modules = sorted(_PACKAGE.glob("*.py"))
    assert {"corpus.py", *_MAY_FOLD} <= {path.name for path in modules}
    found = []
    for path in modules:
        if path.name in _MAY_FOLD:
            continue
        tree = ast.parse(path.read_text("utf-8"))
        allowed: set[int] = set()
        if path.name == "corpus.py":
            [definition] = [
                node for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["case_key"]
            ]
            allowed = {id(node) for node in _folds(definition)}
            assert allowed, "case_key is no longer a case fold"
        found += [f"{path.name}:{node.lineno}: .{node.attr}"
                  for node in _folds(tree) if id(node) not in allowed]
    assert found == []
