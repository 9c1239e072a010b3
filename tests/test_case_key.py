"""The case-free key is defined once, as `corpus.case_key`.

`tag_corpus` reuses one sentence's tags for every sentence with the same
key, which is sound only while the caseless features and the truecaser key
words the same way.  So no other module of the package may spell a case
fold of its own.  `transforms` makes the lowercased and uppercased test
copies, and `synth` writes its corpora's decoys and noise: both change text
rather than look it up, and may call `str.lower`.  The key itself must give
a sentence and its lowercased and uppercased copies the same caseless
features and the same truecased text, for any Unicode token.
"""

import ast
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from casener.corpus import AnnotatedSentence, Corpus, Sentence, TagSequence
from casener.features import TemplateSet, extract
from casener.transforms import to_lower, to_upper
from casener.truecase import train_truecaser, truecase

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
                node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == "case_key"
            ]
            allowed = {id(node) for node in _folds(definition)}
            assert allowed, "case_key is no longer a case fold"
        found += [f"{path.name}:{node.lineno}: .{node.attr}"
                  for node in _folds(tree) if id(node) not in allowed]
    assert found == []


# Tokens over all of Unicode but surrogates and whitespace, which no token
# holds.
_TOKENS = st.text(
    st.characters(blacklist_categories=("Cs",)).filter(
        lambda c: not c.isspace()
    ),
    min_size=1, max_size=6,
)


@settings(max_examples=300)
@given(tokens=st.lists(_TOKENS, min_size=1, max_size=4))
@example(tokens=["Straße", "ﬁnance", "ı", "İ"])
@example(tokens=["ΣΑΣ", "ǅ", "ͅ", "ẞ"])
@example(tokens=["ß"])
def test_caseless_features_and_truecasing_ignore_case(tokens):
    # The invariant the caseless and truecasing rows rest on: a sentence
    # and its lowercased and uppercased copies give the same caseless
    # features and the same truecased text.
    sentence = Sentence(tuple(tokens))
    variants = [sentence, to_lower(sentence), to_upper(sentence)]
    caser = train_truecaser(Corpus((AnnotatedSentence(
        sentence, TagSequence(("O",) * len(sentence))
    ),)))
    features = [
        [extract(v, i, TemplateSet.CASE_AGNOSTIC) for i in range(len(v))]
        for v in variants
    ]
    assert features[0] == features[1] == features[2]
    truecased = [truecase(caser, v) for v in variants]
    assert truecased[0] == truecased[1] == truecased[2]
