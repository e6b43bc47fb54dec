"""Target sequences, the seqlogical annotation reader, and tag naturalization.

A parse is its target sequence: a tuple of target tokens in depth-first
order (`TargetSequence`), the sequence the decoder emits (Rongali et al.,
2020). A target token is a `Pointer` to a source position or a `ConceptTag`,
a begin or end concept token. A tag is its (name, boundary) symbol and its
description: equality and hashing cover the symbol, and the description only
feeds the concept encoder. `make_tag` works a tag's kind (intent, slot or
open-type) out of its name's prefix or its type text and writes it into the
description; no tag stores it. ``parse_seqlogical`` reads a bracketed
annotation straight into a sequence, and a sequence is valid exactly when
``check_target`` accepts it; ``check_target`` reads the labeled spans in the
same pass as it validates. Labels and concept tags are read from the
sequence by ``target_tags``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Literal, Optional, Union

from .errors import (
    EmptyUtteranceError,
    MalformedAnnotationError,
    MalformedTargetError,
    UnknownTagFormatError,
)

Kind = Literal["intent", "slot", "open-type"]
Boundary = Literal["begin", "end"]


@dataclass(frozen=True)
class Utterance:
    """A whitespace-tokenized source utterance."""

    tokens: tuple[str, ...]
    raw: str


@dataclass(frozen=True)
class ConceptTag:
    """One output-vocabulary concept token: a tag name at one boundary.

    Begin and end boundaries of the same label are distinct concept tokens
    with distinct descriptions. Token identity is the (name, boundary)
    symbol; the description does not take part in equality or hashing.
    """

    name: str
    boundary: Boundary
    description: str = field(compare=False)

    @property
    def token_string(self) -> str:
        return f"[{self.name}" if self.boundary == "begin" else f"{self.name}]"


@dataclass(frozen=True)
class Pointer:
    """Target token referencing the i-th source token."""

    index: int

    @property
    def token_string(self) -> str:
        return f"@ptr_{self.index}"


TargetToken = Union[Pointer, ConceptTag]
TargetSequence = tuple[TargetToken, ...]  # a parse as the decoder emits it


def token_strings(seq: TargetSequence) -> list[str]:
    return [t.token_string for t in seq]


def tokenize_utterance(raw: str) -> Utterance:
    """Split a raw utterance into maximal non-whitespace runs."""
    tokens = tuple(raw.split())
    if not tokens:
        raise EmptyUtteranceError("utterance contains no tokens")
    return Utterance(tokens=tokens, raw=raw)


def _name_kind(name: str) -> Kind:
    """The kind a tag name's prefix gives: ``IN:`` intent, ``SL:`` slot, none open-type."""
    if not name or name in ("IN:", "SL:") or "[" in name or "]" in name:
        raise UnknownTagFormatError(f"malformed tag name: {name!r}")
    if name.startswith("IN:"):
        return "intent"
    return "slot" if name.startswith("SL:") else "open-type"


def make_tag(name: str, boundary: Boundary,
             type_text: Optional[str] = None) -> ConceptTag:
    """Build a ConceptTag with its lowercase natural-language description.

    A tag with type text is open-type and becomes "<boundary> <type text>";
    otherwise its kind is the one its name's prefix gives, and an intent or
    slot becomes "<boundary> <name words> <kind>". An open-type tag is
    described only by its type text, so an open-type name without type text,
    or blank type text, raises `UnknownTagFormatError`.
    """
    kind = _name_kind(name)  # refuses a malformed name, with type text too
    if type_text is None and kind != "open-type":
        body = f"{name[3:].lower().replace('_', ' ')} {kind}"
    else:
        body = " ".join((type_text or "").lower().split())
        if not body:
            raise UnknownTagFormatError(f"open-type tag {name!r} has no type text")
    return ConceptTag(name=name, boundary=boundary, description=f"{boundary} {body}")


@lru_cache(maxsize=4096)  # `parse_seqlogical` asks again for every opener of every row
def tags_for_label(name: str) -> tuple[ConceptTag, ConceptTag]:
    """Begin and end concept tokens for one boundary-free label; frozen, so shared."""
    return make_tag(name, "begin"), make_tag(name, "end")


def parse_seqlogical(annotation: str, utterance: Utterance) -> TargetSequence:
    """Read a bracketed seqlogical annotation into its target sequence, in one pass.

    The annotation interleaves ``[IN:NAME`` / ``[SL:NAME`` openers, plain
    words, and bare ``]`` closers. Words must match the utterance tokens in
    order and become pointers to their positions; each ``]`` emits the end
    tag of the innermost open label. The root must be an intent covering
    every utterance token, with nothing after it.
    """
    out: list[TargetToken] = []
    ends: list[ConceptTag] = []  # end token of each open label, innermost last
    cursor = 0
    for item in annotation.split():
        if item == "]":
            if not ends:
                raise MalformedAnnotationError("unbalanced ']' in annotation")
            out.append(ends.pop())
        elif item.startswith("["):
            if _name_kind(item[1:]) == "open-type":
                raise MalformedAnnotationError(f"unrecognized tag opener: {item!r}")
            if out and not ends:
                raise MalformedAnnotationError("content after root closes")
            begin, end = tags_for_label(item[1:])
            out.append(begin)
            ends.append(end)
        else:
            if not ends:
                raise MalformedAnnotationError(f"word {item!r} outside any tag")
            if cursor >= len(utterance.tokens):
                raise MalformedAnnotationError(
                    f"annotation has more words than the utterance: {item!r}"
                )
            if utterance.tokens[cursor] != item:
                raise MalformedAnnotationError(
                    f"word {item!r} does not match utterance token "
                    f"{utterance.tokens[cursor]!r} at position {cursor}"
                )
            out.append(Pointer(cursor))
            cursor += 1
    if ends:
        raise MalformedAnnotationError("annotation ends with unclosed tags")
    if not out:
        raise MalformedAnnotationError("annotation contains no tags")
    if cursor != len(utterance.tokens):
        raise MalformedAnnotationError(
            f"annotation covers {cursor} of {len(utterance.tokens)} utterance tokens"
        )
    root = out[0].name  # a word outside any tag raised above, so out[0] is an opener
    if _name_kind(root) != "intent":
        raise MalformedAnnotationError(f"root tag {root!r} is not an intent")
    return tuple(out)


Span = tuple[str, Optional[int], Optional[int]]


def check_target(seq: TargetSequence, utterance: Utterance) -> Counter[Span]:
    """The labeled spans of ``seq`` if it is a valid parse of the utterance;
    else `MalformedTargetError` with the first offending position and the reason.

    This is the one rule for a valid target: brackets close in order with
    matching names, every pointer is in range and inside a tag, and the tags
    form a single root with nothing after it. A tag pair spans (label, min,
    max) of the pointers between the pair, nested pairs included, or (label,
    None, None) with none; each pair counts once, so a repeated span counts
    as often as it occurs.
    """
    n = len(utterance.tokens)
    spans: Counter[Span] = Counter()
    pointers: list[int] = []
    opened: list[tuple[str, int]] = []  # (name, len(pointers)) per open tag, innermost last
    for pos, token in enumerate(seq):
        if pos and not opened:  # only a closed root leaves nothing open
            raise MalformedTargetError("tokens after the root closes", pos)
        if isinstance(token, Pointer):
            if not 0 <= token.index < n:
                raise MalformedTargetError(
                    "pointer out of range", pos,
                    f"pointer @ptr_{token.index} out of range for {n} source tokens")
            if not opened:
                raise MalformedTargetError("pointer outside any tag", pos)
            pointers.append(token.index)
        elif token.boundary == "begin":
            opened.append((token.name, len(pointers)))
        elif not opened:
            raise MalformedTargetError("end tag with no open tag", pos,
                                       f"end tag {token.name!r} with no open tag")
        elif opened[-1][0] != token.name:
            raise MalformedTargetError(
                "end tag does not match open tag", pos,
                f"end tag {token.name!r} does not match open tag {opened[-1][0]!r}")
        else:
            inside = pointers[opened.pop()[1]:]
            spans[(token.name, min(inside), max(inside)) if inside
                  else (token.name, None, None)] += 1
    if opened:
        raise MalformedTargetError("sequence ends with unclosed tags", len(seq))
    if not seq:
        raise MalformedTargetError("sequence contains no tags", 0)
    return spans


def target_tags(seq: TargetSequence) -> tuple[ConceptTag, ...]:
    """Distinct concept tags of a sequence, in first-occurrence order."""
    return tuple(dict.fromkeys(t for t in seq if isinstance(t, ConceptTag)))
