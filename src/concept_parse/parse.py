"""Parse trees, pointer linearization, and tag naturalization.

A parse is represented two ways: as a :class:`ParseTree` over utterance token
indices, and as a :class:`TargetSequence` of pointer tokens and begin/end
concept tokens. ``linearize`` and ``delinearize`` convert between the two and
are exact inverses on valid inputs; a sequence is valid exactly when
``delinearize`` accepts it.

Records carry only the target sequence. The tree lives where annotations are
read and written (``parse_seqlogical``, ``to_seqlogical``) and where validity
is decided (``delinearize``); labels, concept tags and labeled spans are read
from the sequence by ``target_tags`` and ``labeled_spans``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Literal, Optional, Union

from .errors import (
    EmptyUtteranceError,
    MalformedAnnotationError,
    MalformedTargetError,
    PointerRangeError,
    UnknownTagFormatError,
)

Kind = Literal["intent", "slot", "open-type"]
Boundary = Literal["begin", "end"]


@dataclass(frozen=True)
class Utterance:
    """A whitespace-tokenized source utterance."""

    tokens: tuple[str, ...]
    raw: str

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class ConceptTag:
    """One output-vocabulary concept token: a tag name at one boundary.

    Begin and end boundaries of the same label are distinct concept tokens
    with distinct descriptions.
    """

    name: str
    kind: Kind
    boundary: Boundary
    description: str

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


@dataclass(frozen=True, eq=False)
class Concept:
    """Target token carrying a concept tag.

    Token identity is the (name, boundary) symbol; the description is bank
    metadata and does not participate in equality.
    """

    tag: ConceptTag

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Concept)
                and self.tag.name == other.tag.name
                and self.tag.boundary == other.tag.boundary)

    def __hash__(self) -> int:
        return hash((self.tag.name, self.tag.boundary))

    @property
    def token_string(self) -> str:
        return self.tag.token_string


TargetToken = Union[Pointer, Concept]


@dataclass(frozen=True)
class ParseTree:
    """Labeled tree over utterance token indices.

    ``children`` holds subtrees and integer token indices in surface order.
    """

    name: str
    kind: Kind
    children: tuple[Union["ParseTree", int], ...]


@dataclass(frozen=True)
class TargetSequence:
    """Linearized parse: pointers plus begin/end concept tokens."""

    tokens: tuple[TargetToken, ...]

    def __len__(self) -> int:
        return len(self.tokens)

    def token_strings(self) -> list[str]:
        return [t.token_string for t in self.tokens]


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


def split_tag_token(token: str) -> tuple[str, Kind, Boundary]:
    """Decompose a tag token string into (name, kind, boundary)."""
    if token.startswith("[") and len(token) > 1:
        name, boundary = token[1:], "begin"
    elif token.endswith("]") and len(token) > 1:
        name, boundary = token[:-1], "end"
    else:
        raise UnknownTagFormatError(f"not a tag token: {token!r}")
    return name, _name_kind(name), boundary


def make_tag(name: str, kind: Kind, boundary: Boundary,
             type_text: Optional[str] = None) -> ConceptTag:
    """Build a ConceptTag with its lowercase natural-language description.

    An intent or slot becomes "<boundary> <name words> <kind>", and its name
    must carry the kind's ``IN:``/``SL:`` prefix. An open-type tag becomes
    "<boundary> <type text>", falling back to the name's words without type
    text; blank type text raises `UnknownTagFormatError`.
    """
    prefix_kind = _name_kind(name)
    if kind == "open-type":
        text = name.replace("_", " ") if type_text is None else type_text
        body = " ".join(text.lower().split())
        if not body:
            raise UnknownTagFormatError(f"open-type tag {name!r} has blank type text")
    elif kind == prefix_kind:
        body = f"{name[3:].lower().replace('_', ' ')} {kind}"
    else:
        raise UnknownTagFormatError(f"tag name {name!r} is not a {kind} name")
    return ConceptTag(name=name, kind=kind, boundary=boundary,
                      description=f"{boundary} {body}")


@lru_cache(maxsize=4096)  # `linearize` asks again for every node of every record
def tags_for_label(name: str, kind: Kind) -> tuple[ConceptTag, ConceptTag]:
    """Begin and end concept tokens for one boundary-free label; frozen, so shared."""
    return make_tag(name, kind, "begin"), make_tag(name, kind, "end")


def build_concept_tags(labels: Iterable[tuple[str, Kind]]) -> list[ConceptTag]:
    """Begin/end tags for a set of labels, in deterministic (name, begin, end) order."""
    tags: list[ConceptTag] = []
    for name, kind in sorted(set(labels)):
        tags.extend(tags_for_label(name, kind))
    return tags


def parse_seqlogical(annotation: str, utterance: Utterance) -> ParseTree:
    """Parse a bracketed seqlogical annotation against its utterance.

    The annotation interleaves ``[IN:NAME`` / ``[SL:NAME`` openers, plain
    words, and bare ``]`` closers; words must match the utterance tokens in
    order and map to their positions.
    """
    items = annotation.split()
    # stack of (name, kind, children) frames
    stack: list[tuple[str, Kind, list[Union[ParseTree, int]]]] = []
    root: Optional[ParseTree] = None
    cursor = 0
    for item in items:
        if item == "]":
            if not stack:
                raise MalformedAnnotationError("unbalanced ']' in annotation")
            name, kind, children = stack.pop()
            node = ParseTree(name=name, kind=kind, children=tuple(children))
            if stack:
                stack[-1][2].append(node)
            elif root is None:
                root = node
            else:
                raise MalformedAnnotationError("multiple root nodes in annotation")
        elif item.startswith("["):
            name, kind, _ = split_tag_token(item)
            if kind == "open-type":
                raise MalformedAnnotationError(f"unrecognized tag opener: {item!r}")
            if root is not None:
                raise MalformedAnnotationError("content after root closes")
            stack.append((name, kind, []))
        else:
            if not stack:
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
            stack[-1][2].append(cursor)
            cursor += 1
    if stack:
        raise MalformedAnnotationError("annotation ends with unclosed tags")
    if root is None:
        raise MalformedAnnotationError("annotation contains no tags")
    if cursor != len(utterance.tokens):
        raise MalformedAnnotationError(
            f"annotation covers {cursor} of {len(utterance.tokens)} utterance tokens"
        )
    if root.kind != "intent":
        raise MalformedAnnotationError(f"root tag {root.name!r} is not an intent")
    return root


def linearize(tree: ParseTree, utterance: Utterance) -> TargetSequence:
    """Depth-first emission: begin tag, children (indices as pointers), end tag."""
    n = len(utterance.tokens)
    out: list[TargetToken] = []

    def emit(node: ParseTree) -> None:
        begin, end = tags_for_label(node.name, node.kind)
        out.append(Concept(begin))
        for child in node.children:
            if isinstance(child, ParseTree):
                emit(child)
            else:
                if not 0 <= child < n:
                    raise PointerRangeError(
                        f"leaf index {child} out of range for {n} source tokens"
                    )
                out.append(Pointer(child))
        out.append(Concept(end))

    emit(tree)
    return TargetSequence(tokens=tuple(out))


def delinearize(seq: TargetSequence, utterance: Utterance) -> ParseTree:
    """Rebuild the parse tree from a target sequence; inverse of linearize.

    This is the one rule for a valid target: brackets close in order with
    matching names, every pointer is in range and inside a tag, and the tags
    form a single root with nothing after it. Anything else raises
    `MalformedTargetError` at the first offending position.
    """
    n = len(utterance.tokens)
    stack: list[tuple[ConceptTag, list[Union[ParseTree, int]]]] = []
    root: Optional[ParseTree] = None
    for pos, token in enumerate(seq.tokens):
        if root is not None:
            raise MalformedTargetError("tokens after the root closes", pos)
        if isinstance(token, Pointer):
            if not 0 <= token.index < n:
                raise MalformedTargetError(
                    f"pointer @ptr_{token.index} out of range for {n} source tokens", pos
                )
            if not stack:
                raise MalformedTargetError("pointer outside any tag", pos)
            stack[-1][1].append(token.index)
        elif token.tag.boundary == "begin":
            stack.append((token.tag, []))
        else:
            if not stack:
                raise MalformedTargetError(
                    f"end tag {token.tag.name!r} with no open tag", pos
                )
            open_tag, children = stack.pop()
            if open_tag.name != token.tag.name:
                raise MalformedTargetError(
                    f"end tag {token.tag.name!r} does not match open tag "
                    f"{open_tag.name!r}", pos
                )
            node = ParseTree(name=open_tag.name, kind=open_tag.kind,
                             children=tuple(children))
            if stack:
                stack[-1][1].append(node)
            else:
                root = node
    if stack:
        raise MalformedTargetError("sequence ends with unclosed tags", len(seq.tokens))
    if root is None:
        raise MalformedTargetError("sequence contains no tags", 0)
    return root


def to_seqlogical(tree: ParseTree, utterance: Utterance) -> str:
    """Serialize a tree to the bracketed annotation format; inverse of parse_seqlogical.

    Raises as `linearize` does, which it writes out token by token.
    """
    return " ".join(
        utterance.tokens[t.index] if isinstance(t, Pointer)
        else (f"[{t.tag.name}" if t.tag.boundary == "begin" else "]")
        for t in linearize(tree, utterance).tokens)


Span = tuple[str, Optional[int], Optional[int]]


def labeled_spans(seq: TargetSequence) -> set[Span]:
    """The (label, start, end) triples of a valid sequence's tag pairs, as a set.

    The span covers the min/max pointer between the pair, nested pairs
    included; a pair with no pointer inside yields (label, None, None).
    """
    spans: set[Span] = set()
    pointers: list[int] = []
    opened: list[int] = []  # len(pointers) at each open begin tag
    for token in seq.tokens:
        if isinstance(token, Pointer):
            pointers.append(token.index)
        elif token.tag.boundary == "begin":
            opened.append(len(pointers))
        else:
            inside = pointers[opened.pop():]
            spans.add((token.tag.name, min(inside), max(inside)) if inside
                      else (token.tag.name, None, None))
    return spans


def target_tags(seq: TargetSequence) -> tuple[ConceptTag, ...]:
    """Distinct concept tags of a sequence, in first-occurrence order."""
    seen: dict[Concept, ConceptTag] = {}
    for token in seq.tokens:
        if isinstance(token, Concept):
            seen.setdefault(token, token.tag)
    return tuple(seen.values())
