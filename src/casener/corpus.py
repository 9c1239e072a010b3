"""CoNLL-style corpus handling: parsing, writing, tagging schemes, entity spans.

Tokens are plain strings; a sentence is an ordered tuple of them.  Tags in
memory are IOBES.  Only this module parses tags or knows IOBES: one rule
table (`_legal_*`) serves `validate_tags` and `label_space_rules`, and
`label_space` builds a model's tag set.  IOB1 and IOB2 exist only inside
``parse_conll``.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from . import container

DOCSTART = "-DOCSTART-"

#: Type alias: a token is a non-empty string without whitespace.
Token = str


def case_key(token: str) -> str:
    """A token's case-free key, the one case-insensitive lookup: caseless
    features, `tag_corpus`'s memo and the truecaser read tokens through it.
    Unlike `str.lower`, which it equals on ASCII, it gives a token and its
    lowercased and uppercased forms one key in all of Unicode ("Straße",
    "straße" and "STRASSE" key "strasse")."""
    return token.upper().casefold()


def init_cap_form(word: str) -> str:
    """Uppercase the first cased character of `word`."""
    for i, c in enumerate(word):
        if c.isupper() or c.islower():
            return word[:i] + c.upper() + word[i + 1 :]
    return word

#: Matches exactly the characters for which `str.isspace` is true.
_WHITESPACE = re.compile(r"\s")


class CorpusError(ValueError):
    """Base class for corpus-related failures."""


class ParseError(CorpusError):
    """Malformed CoNLL input; the message carries the offending line number."""


class TagValidationError(CorpusError):
    """A tag string or tag transition is illegal for its scheme."""


class Scheme(enum.Enum):
    IOB1 = "IOB1"
    IOB2 = "IOB2"
    IOBES = "IOBES"


def split_tag(tag: str) -> tuple[str, str | None]:
    """Split ``"B-ORG"`` into ``("B", "ORG")`` and ``"O"`` into ``("O", None)``."""
    if tag == "O":
        return "O", None
    prefix, sep, entity_type = tag.partition("-")
    # "O" takes no type: "O-X" would pass every scheme check as an O.
    if sep != "-" or not entity_type or len(prefix) != 1 or prefix == "O":
        raise TagValidationError(f"malformed tag {tag!r}")
    return prefix, entity_type


def _legal_start(prefix: str) -> bool:
    return prefix in ("O", "B", "S")


def _legal_transition(
    prev: tuple[str, str | None], cur: tuple[str, str | None]
) -> bool:
    (pp, pt), (cp, ct) = prev, cur
    if pp in ("B", "I"):
        return cp in ("I", "E") and ct == pt
    return cp in ("O", "B", "S")


def _legal_end(prefix: str) -> bool:
    return prefix in ("O", "E", "S")


def _parsed_tags(
    tags: Sequence[str], scheme: Scheme
) -> dict[str, tuple[str, str | None]]:
    """`split_tag` of each distinct tag of `tags`, in first-occurrence
    order; an error names the first position whose prefix `scheme` lacks."""
    allowed = "OBIES" if scheme is Scheme.IOBES else "OBI"
    parsed = {}
    for tag in dict.fromkeys(tags):
        prefix, _ = parsed[tag] = split_tag(tag)
        if prefix not in allowed:
            raise TagValidationError(
                f"position {tags.index(tag)}: prefix {prefix!r} of "
                f"tag {tag!r} is not part of scheme {scheme.value}"
            )
    return parsed


def validate_tags(tags: Sequence[str], scheme: Scheme = Scheme.IOBES) -> None:
    """Raise :class:`TagValidationError` unless `tags` is legal IOBES.

    Any other `scheme` is an error: `parse_conll` checks other schemes'
    tags while it rewrites them.  Each distinct tag is parsed once
    (`_parsed_tags`), then the transitions are checked left to right, so
    an error names the first illegal position.
    """
    if scheme is not Scheme.IOBES:
        raise TagValidationError(f"tags are IOBES, not {scheme}")
    if not tags:
        raise TagValidationError("empty tag sequence")
    parsed = _parsed_tags(tags, scheme)
    if not _legal_start(parsed[tags[0]][0]):
        raise TagValidationError(
            f"position 0: tag {tags[0]!r} cannot open a sentence "
            "in scheme IOBES"
        )
    for i, (prev, cur) in enumerate(zip(tags, tags[1:]), 1):
        if not _legal_transition(parsed[prev], parsed[cur]):
            raise TagValidationError(
                f"position {i}: transition {prev!r} -> {cur!r} is illegal "
                "in scheme IOBES"
            )
    if not _legal_end(parsed[tags[-1]][0]):
        raise TagValidationError(
            f"position {len(tags) - 1}: tag {tags[-1]!r} cannot close "
            "a sentence in scheme IOBES"
        )


def label_space(tags: Iterable[str]) -> tuple[str, ...]:
    """The IOBES label space of the entity types among `tags`: "O", then
    all of B/I/E/S for each type, sorted."""
    types = {split_tag(tag)[1] for tag in set(tags)} - {None}
    return ("O",) + tuple(sorted(f"{p}-{t}" for t in types for p in "BIES"))


def label_space_rules(
    tags: Sequence[str],
) -> tuple[list[bool], list[list[bool]], list[bool]]:
    """Which of the distinct `tags` may open a sentence, follow each tag
    (row: previous, column: next) and close one; `TagValidationError`
    unless every tag is IOBES and "O", which keeps a path legal, is one."""
    parsed = list(_parsed_tags(tags, Scheme.IOBES).values())
    if "O" not in tags:
        raise TagValidationError('the tag set lacks "O"')
    return (
        [_legal_start(prefix) for prefix, _ in parsed],
        [[_legal_transition(prev, cur) for cur in parsed] for prev in parsed],
        [_legal_end(prefix) for prefix, _ in parsed],
    )


@dataclass(frozen=True, slots=True)
class Sentence:
    """An ordered, non-empty sequence of whitespace-free tokens."""

    tokens: tuple[Token, ...]

    def __post_init__(self) -> None:
        tokens = tuple(self.tokens)
        object.__setattr__(self, "tokens", tokens)
        if not tokens:
            raise CorpusError("a sentence must contain at least one token")
        # One check over the whole sentence; the per-token walk only runs
        # to name the first bad token.
        if all(tokens) and not _WHITESPACE.search("".join(tokens)):
            return
        for i, tok in enumerate(tokens):
            if not tok:
                raise CorpusError(f"token {i} is empty")
            if _WHITESPACE.search(tok):
                raise CorpusError(f"token {i} ({tok!r}) contains whitespace")

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokens)


@dataclass(frozen=True, slots=True)
class TagSequence:
    """Per-token IOBES labels; validated on construction, where
    `validate_tags` rejects any other `scheme`."""

    tags: tuple[str, ...]
    scheme: Scheme = Scheme.IOBES

    def __post_init__(self) -> None:
        object.__setattr__(self, "tags", tuple(self.tags))
        validate_tags(self.tags, self.scheme)

    def __len__(self) -> int:
        return len(self.tags)


@dataclass(frozen=True, slots=True)
class AnnotatedSentence:
    """A sentence paired with its gold tag sequence."""

    sentence: Sentence
    gold: TagSequence

    def __post_init__(self) -> None:
        if len(self.sentence.tokens) != len(self.gold.tags):
            raise CorpusError(
                f"sentence has {len(self.sentence)} tokens but the tag "
                f"sequence has {len(self.gold)}"
            )


@dataclass(frozen=True, slots=True)
class Corpus:
    """An ordered collection of annotated sentences.  `provenance` is a
    free-text note kept for callers that set it; equality ignores it, and
    every corpus the package builds leaves it empty.

    The value types are frozen and slotted: they carry no instance
    `__dict__`, which keeps the many per-sentence objects of a corpus, its
    case variants and its predictions small.  Being frozen, a corpus may
    hold one object many times, as `synth.generate` and `make_variant`
    build one per distinct value; `parse_conll` builds one per sentence.
    """

    sentences: tuple[AnnotatedSentence, ...]
    provenance: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sentences", tuple(self.sentences))

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self) -> Iterator[AnnotatedSentence]:
        return iter(self.sentences)


@dataclass(frozen=True, order=True, slots=True)
class EntitySpan:
    """A labelled token range; `start` and `end` are inclusive indices."""

    start: int
    end: int
    entity_type: str

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise CorpusError(f"invalid span boundaries ({self.start}, {self.end})")
        if not self.entity_type:
            raise CorpusError("span entity type must be non-empty")


def extract_spans(tags: TagSequence) -> tuple[EntitySpan, ...]:
    """Return the entity spans of `tags`, sorted by start position."""
    spans: list[EntitySpan] = []
    start = 0
    for i, tag in enumerate(tags.tags):
        prefix, etype = split_tag(tag)
        if prefix in ("B", "S"):
            start = i
        if prefix in ("E", "S"):
            spans.append(EntitySpan(start, i, etype))
    return tuple(spans)


def spans_to_tags(spans: Iterable[EntitySpan], length: int) -> TagSequence:
    """Encode non-overlapping `spans` as IOBES tags for `length` tokens."""
    if length < 1:
        raise CorpusError("tag sequences must cover at least one token")
    ordered = sorted(spans)
    prev: EntitySpan | None = None
    for span in ordered:
        if span.end >= length:
            raise CorpusError(f"span {span} exceeds sentence length {length}")
        if prev is not None and span.start <= prev.end:
            raise CorpusError(f"spans {prev} and {span} overlap")
        prev = span

    tags = ["O"] * length
    for span in ordered:
        etype = span.entity_type
        if span.start == span.end:
            tags[span.start] = f"S-{etype}"
        else:
            tags[span.start] = f"B-{etype}"
            for i in range(span.start + 1, span.end):
                tags[i] = f"I-{etype}"
            tags[span.end] = f"E-{etype}"
    return TagSequence(tuple(tags))


def _detect(
    tag_sequences: Iterable[Sequence[str]],
) -> tuple[Scheme, tuple[int, int] | None]:
    """The scheme of raw tag sequences and, when it is IOB1, the (sequence,
    position) of the first orphan I-X, the tag that decided it.

    Any E/S prefix means IOBES; otherwise an I-X that continues no chunk
    means IOB1; otherwise IOB2.  The tags have passed `split_tag`, so a
    tag's prefix is its first character.
    """
    orphan = None
    for s, tags in enumerate(tag_sequences):
        for i, tag in enumerate(tags):
            prefix = tag[0]
            if prefix in ("E", "S"):
                return Scheme.IOBES, None
            if orphan is None and prefix == "I" and not _continues(tags, i):
                orphan = (s, i)
    return (Scheme.IOB2, None) if orphan is None else (Scheme.IOB1, orphan)


def _continues(tags: Sequence[str], i: int) -> bool:
    """True if `tags[i]` follows a B or I of its type (O/B/I tags only)."""
    return i > 0 and tags[i - 1] != "O" and tags[i - 1][1:] == tags[i][1:]


def _to_iobes(tags: Sequence[str], scheme: Scheme) -> TagSequence:
    """Check IOB1 or IOB2 `tags` and rewrite them as IOBES.

    Every prefix must be O, B or I, and a tag that continues no chunk must
    not be a B in IOB1 (where B only splits adjacent chunks of one type)
    or an I in IOB2 (where every chunk opens with B).  Errors name the
    first offending position, a bad prefix before all else.  A chunk starts
    at a B, or at an I that continues no chunk of its type, and runs over
    the I's of its type that follow; `spans_to_tags` writes the chunks.
    """
    _parsed_tags(tags, scheme)
    must_continue = "B" if scheme is Scheme.IOB1 else "I"
    spans = []
    start = 0
    for i, tag in enumerate(tags):
        if tag != "O":
            continues = _continues(tags, i)
            if not continues and tag[0] == must_continue:
                where = (f"transition {tags[i - 1]!r} -> {tag!r} is illegal"
                         if i else f"tag {tag!r} cannot open a sentence")
                raise TagValidationError(
                    f"position {i}: {where} in scheme {scheme.value}"
                )
            if tag[0] == "B" or not continues:
                start = i
            if i + 1 == len(tags) or tags[i + 1] != "I" + tag[1:]:
                spans.append(EntitySpan(start, i, tag[2:]))
    return spans_to_tags(spans, len(tags))


def parse_conll(text: str) -> Corpus:
    """Parse CoNLL-style column text into a Corpus of IOBES tags.

    Columns are separated by runs of spaces/tabs; the token is the first
    column and the tag the last.  A blank line ends a sentence; lines whose
    first column is ``-DOCSTART-`` are document markers and are dropped.
    The scheme is detected over the whole input (`_detect`); IOB1 and IOB2
    tags are checked by `_to_iobes`, and IOBES ones by `TagSequence`.
    """
    raw_sentences: list[tuple[int, list[str], list[str]]] = []
    tokens: list[str] = []
    tags: list[str] = []
    first_line = 0

    def flush() -> None:
        nonlocal tokens, tags
        if tokens:
            raw_sentences.append((first_line, tokens, tags))
            tokens, tags = [], []

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line.strip():
            flush()
            continue
        cols = line.split()
        if cols[0] == DOCSTART:
            flush()
            continue
        if len(cols) < 2:
            raise ParseError(
                f"line {lineno}: too few columns ({len(cols)}) for a token "
                f"and a tag: {line!r}"
            )
        try:
            split_tag(cols[-1])
        except TagValidationError as exc:
            raise TagValidationError(f"line {lineno}: {exc}") from None
        if not tokens:
            first_line = lineno
        tokens.append(cols[0])
        tags.append(cols[-1])
    flush()

    detected, orphan = _detect(t for _, _, t in raw_sentences)
    # An error under IOB1 may lie far from the tag that made the input IOB1.
    hint = ""
    if orphan is not None:
        line, _, sent_tags = raw_sentences[orphan[0]]
        hint = (f"; IOB1 was inferred from line {line + orphan[1]}, where "
                f"{sent_tags[orphan[1]]!r} continues no chunk")

    annotated: list[AnnotatedSentence] = []
    for index, (start_line, sent_tokens, sent_tags) in enumerate(raw_sentences):
        try:
            gold = (TagSequence(tuple(sent_tags)) if detected is Scheme.IOBES
                    else _to_iobes(sent_tags, detected))
        except TagValidationError as exc:
            raise TagValidationError(
                f"sentence {index + 1} (starting at line {start_line}): "
                f"{exc}{hint}"
            ) from exc
        annotated.append(AnnotatedSentence(Sentence(tuple(sent_tokens)), gold))
    return Corpus(tuple(annotated))


def write_conll(corpus: Corpus) -> str:
    """Render `corpus` as CoNLL text; inverse of :func:`parse_conll`."""
    blocks = []
    for ann in corpus:
        lines = [
            f"{token} {tag}"
            for token, tag in zip(ann.sentence.tokens, ann.gold.tags)
        ]
        blocks.append("\n".join(lines) + "\n\n")
    return "".join(blocks)


def read_conll_file(path: str) -> Corpus:
    with open(path, "r", encoding="utf-8-sig") as handle:
        return parse_conll(handle.read())


def write_conll_file(corpus: Corpus, path: str) -> None:
    container.write_file(path, write_conll(corpus).encode("utf-8"))
