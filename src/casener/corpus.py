"""CoNLL-style corpus handling: parsing, writing, tagging schemes, entity spans.

Tokens are plain strings; a sentence is an ordered tuple of them.  Tag
sequences carry their tagging scheme and are validated on construction, so
any ``TagSequence`` reachable from this module is scheme-legal.  The
canonical in-memory scheme is IOBES; ``parse_conll`` converts on load.

The construction checks do their work once per distinct value: a
``Sentence`` searches its joined tokens for whitespace in one pass, and
``validate_tags`` parses each distinct tag and checks each distinct
transition once.  Errors still name the first offending token or position.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

DOCSTART = "-DOCSTART-"

#: Type alias: a token is a non-empty string without whitespace.
Token = str

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

    @property
    def prefixes(self) -> frozenset[str]:
        return _PREFIXES[self]


_PREFIXES = {
    Scheme.IOB1: frozenset("BI"),
    Scheme.IOB2: frozenset("BI"),
    Scheme.IOBES: frozenset("BIES"),
}


def split_tag(tag: str) -> tuple[str, str | None]:
    """Split ``"B-ORG"`` into ``("B", "ORG")`` and ``"O"`` into ``("O", None)``."""
    if tag == "O":
        return "O", None
    prefix, sep, entity_type = tag.partition("-")
    # "O" takes no type: "O-X" would pass every scheme check as an O.
    if sep != "-" or not entity_type or len(prefix) != 1 or prefix == "O":
        raise TagValidationError(f"malformed tag {tag!r}")
    return prefix, entity_type


def _legal_start(prefix: str, scheme: Scheme) -> bool:
    if scheme is Scheme.IOB1:
        return prefix in ("O", "I")
    if scheme is Scheme.IOB2:
        return prefix in ("O", "B")
    return prefix in ("O", "B", "S")


def _legal_transition(
    prev: tuple[str, str | None], cur: tuple[str, str | None], scheme: Scheme
) -> bool:
    (pp, pt), (cp, ct) = prev, cur
    if scheme is Scheme.IOB1:
        # B marks the boundary between adjacent chunks of the same type.
        if cp == "B":
            return pp in ("B", "I") and pt == ct
        return True
    if scheme is Scheme.IOB2:
        if cp == "I":
            return pp in ("B", "I") and pt == ct
        return True
    # IOBES
    if pp in ("B", "I"):
        return cp in ("I", "E") and ct == pt
    return cp in ("O", "B", "S")


def _legal_end(prefix: str, scheme: Scheme) -> bool:
    if scheme is Scheme.IOBES:
        return prefix in ("O", "E", "S")
    return True


def is_legal_start(tag: str, scheme: Scheme) -> bool:
    """True if `tag` may open a sentence under `scheme`."""
    return _legal_start(split_tag(tag)[0], scheme)


def is_legal_transition(prev: str, cur: str, scheme: Scheme) -> bool:
    """True if `cur` may directly follow `prev` under `scheme`."""
    return _legal_transition(split_tag(prev), split_tag(cur), scheme)


def is_legal_end(tag: str, scheme: Scheme) -> bool:
    """True if `tag` may close a sentence under `scheme`."""
    return _legal_end(split_tag(tag)[0], scheme)


def validate_tags(tags: Sequence[str], scheme: Scheme, context: str = "") -> None:
    """Raise :class:`TagValidationError` unless `tags` is legal under `scheme`.

    Each distinct tag is parsed once and each distinct transition checked
    once, in first-occurrence order, so an error names the first offending
    position.
    """
    if not tags:
        raise TagValidationError(f"{context}empty tag sequence")
    parsed: dict[str, tuple[str, str | None]] = {}
    for tag in dict.fromkeys(tags):
        prefix, _ = parsed[tag] = split_tag(tag)
        if prefix != "O" and prefix not in scheme.prefixes:
            raise TagValidationError(
                f"{context}position {tags.index(tag)}: prefix {prefix!r} of "
                f"tag {tag!r} is not part of scheme {scheme.value}"
            )
    if not _legal_start(parsed[tags[0]][0], scheme):
        raise TagValidationError(
            f"{context}position 0: tag {tags[0]!r} cannot open a sentence "
            f"in scheme {scheme.value}"
        )
    pairs = list(zip(tags, tags[1:]))
    for prev, cur in dict.fromkeys(pairs):
        if not _legal_transition(parsed[prev], parsed[cur], scheme):
            raise TagValidationError(
                f"{context}position {pairs.index((prev, cur)) + 1}: "
                f"transition {prev!r} -> {cur!r} is illegal in scheme "
                f"{scheme.value}"
            )
    if not _legal_end(parsed[tags[-1]][0], scheme):
        raise TagValidationError(
            f"{context}position {len(tags) - 1}: tag {tags[-1]!r} cannot close "
            f"a sentence in scheme {scheme.value}"
        )


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class TagSequence:
    """Per-token labels in a declared scheme; validated on construction."""

    tags: tuple[str, ...]
    scheme: Scheme

    def __post_init__(self) -> None:
        object.__setattr__(self, "tags", tuple(self.tags))
        validate_tags(self.tags, self.scheme)

    def __len__(self) -> int:
        return len(self.tags)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Corpus:
    """An ordered collection of annotated sentences.

    `provenance` is a free-text note about where the data came from; it is
    ignored by equality comparisons.
    """

    sentences: tuple[AnnotatedSentence, ...]
    provenance: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sentences", tuple(self.sentences))

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self) -> Iterator[AnnotatedSentence]:
        return iter(self.sentences)


@dataclass(frozen=True, order=True)
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
    """Return the maximal entity spans of `tags`, sorted by start position.

    The result is identical for all three schemes encoding the same
    annotation.
    """
    parsed = [split_tag(t) for t in tags.tags]
    spans: list[EntitySpan] = []
    if tags.scheme is Scheme.IOBES:
        start = 0
        for i, (prefix, etype) in enumerate(parsed):
            if prefix == "S":
                spans.append(EntitySpan(i, i, etype))
            elif prefix == "B":
                start = i
            elif prefix == "E":
                spans.append(EntitySpan(start, i, etype))
        return tuple(spans)

    open_start: int | None = None
    open_type: str | None = None
    for i, (prefix, etype) in enumerate(parsed):
        if prefix == "O":
            if open_start is not None:
                spans.append(EntitySpan(open_start, i - 1, open_type))
                open_start = None
        elif prefix == "B" or (open_start is not None and etype != open_type):
            # B always opens a chunk; in IOB1 an I of a new type does too.
            if open_start is not None:
                spans.append(EntitySpan(open_start, i - 1, open_type))
            open_start, open_type = i, etype
        elif open_start is None:
            open_start, open_type = i, etype
    if open_start is not None:
        spans.append(EntitySpan(open_start, len(parsed) - 1, open_type))
    return tuple(spans)


def spans_to_tags(
    spans: Iterable[EntitySpan], length: int, scheme: Scheme
) -> TagSequence:
    """Encode non-overlapping `spans` as a tag sequence of `length` tokens."""
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
    last: EntitySpan | None = None
    for span in ordered:
        etype = span.entity_type
        if scheme is Scheme.IOBES:
            if span.start == span.end:
                tags[span.start] = f"S-{etype}"
            else:
                tags[span.start] = f"B-{etype}"
                for i in range(span.start + 1, span.end):
                    tags[i] = f"I-{etype}"
                tags[span.end] = f"E-{etype}"
        elif scheme is Scheme.IOB2:
            tags[span.start] = f"B-{etype}"
            for i in range(span.start + 1, span.end + 1):
                tags[i] = f"I-{etype}"
        else:  # IOB1: chunks open with I unless adjacent to a same-type chunk
            adjacent = (
                last is not None
                and last.end == span.start - 1
                and last.entity_type == etype
            )
            tags[span.start] = f"B-{etype}" if adjacent else f"I-{etype}"
            for i in range(span.start + 1, span.end + 1):
                tags[i] = f"I-{etype}"
        last = span
    return TagSequence(tuple(tags), scheme)


def convert_scheme(tags: TagSequence, target: Scheme) -> TagSequence:
    """Re-encode `tags` in `target`; the span set is preserved exactly."""
    if tags.scheme is target:
        return tags
    return spans_to_tags(extract_spans(tags), len(tags), target)


def detect_scheme(tag_sequences: Iterable[Sequence[str]]) -> Scheme:
    """Guess the scheme of raw tag sequences.

    Any E/S prefix means IOBES; otherwise an I-X with no preceding B-X/I-X of
    the same type means IOB1; otherwise IOB2.
    """
    saw_orphan_i = False
    for tags in tag_sequences:
        prev_prefix, prev_type = "O", None
        for tag in tags:
            prefix, etype = split_tag(tag)
            if prefix in ("E", "S"):
                return Scheme.IOBES
            if prefix == "I" and not (
                prev_prefix in ("B", "I") and prev_type == etype
            ):
                saw_orphan_i = True
            prev_prefix, prev_type = prefix, etype
    return Scheme.IOB1 if saw_orphan_i else Scheme.IOB2


def parse_conll(text: str) -> Corpus:
    """Parse CoNLL-style column text into a Corpus (canonical IOBES tags).

    Columns are separated by runs of spaces/tabs; the token is the first
    column and the tag the last.  A blank line ends a sentence; lines whose
    first column is ``-DOCSTART-`` are document markers and are dropped.
    The tagging scheme is auto-detected over the whole input.
    """
    raw_sentences: list[tuple[int, list[str], list[str]]] = []
    tokens: list[str] = []
    tags: list[str] = []
    first_line = 0
    docstart_count = 0

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
            docstart_count += 1
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

    detected = detect_scheme(t for _, _, t in raw_sentences)

    annotated: list[AnnotatedSentence] = []
    for index, (start_line, sent_tokens, sent_tags) in enumerate(raw_sentences):
        context = f"sentence {index + 1} (starting at line {start_line}): "
        try:
            seq = TagSequence(tuple(sent_tags), detected)
        except TagValidationError as exc:
            raise TagValidationError(f"{context}{exc}") from exc
        annotated.append(
            AnnotatedSentence(
                Sentence(tuple(sent_tokens)),
                convert_scheme(seq, Scheme.IOBES),
            )
        )

    provenance = (
        f"parsed {len(annotated)} sentence(s) from CoNLL text; "
        f"scheme {detected.value} converted to IOBES; "
        f"{docstart_count} {DOCSTART} line(s) dropped"
    )
    return Corpus(tuple(annotated), provenance)


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
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    corpus = parse_conll(text)
    return Corpus(corpus.sentences, f"{path}: {corpus.provenance}")


def write_conll_file(corpus: Corpus, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(write_conll(corpus))
