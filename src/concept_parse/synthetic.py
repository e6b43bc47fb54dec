"""Synthetic corpora: grammar-generated parse domains and wiki-style tagging data.

Everything here is deterministic in its seed. These generators feed the test
fixtures and the benchmark workloads without shipping any real corpus.
"""

from __future__ import annotations

import json
from typing import Sequence, Union

import numpy as np

from .parse import ParseTree, to_seqlogical, tokenize_utterance

PLACES = ["airport", "mall", "station", "library", "museum", "harbor", "bakery", "gym"]
FOODS = ["coffee", "pizza", "sushi", "bagel", "soup"]
TIMES = ["tomorrow", "tonight", "today", "monday", "friday"]
CITIES = ["boston", "austin", "denver", "seattle", "oslo"]
ZONES = ["east coast", "west coast", "mountain area", "lake region"]

Row = tuple[str, str, str]


def _intent(name: str, children: Sequence[Union[ParseTree, int]]) -> ParseTree:
    return ParseTree(name=name, kind="intent", children=tuple(children))


def _slot(name: str, children: Sequence[Union[ParseTree, int]]) -> ParseTree:
    return ParseTree(name=name, kind="slot", children=tuple(children))


def _row(domain: str, words: list[str], tree: ParseTree) -> Row:
    utterance = tokenize_utterance(" ".join(words))
    return domain, utterance.raw, to_seqlogical(tree, utterance)


# compositional example used throughout the docs and golden tests
COMPOSITIONAL_UTTERANCE = "How far is the coffee shop"
COMPOSITIONAL_ANNOTATION = (
    "[IN:GET_DISTANCE How far is [SL:DESTINATION [IN:GET_RESTAURANT_LOCATION "
    "the [SL:TYPE_FOOD coffee ] shop ] ] ]"
)


def two_domain_rows(per_domain: int = 50, seed: int = 0) -> list[Row]:
    """A navigation/weather corpus with four labels per domain."""
    rng = np.random.default_rng(seed)
    rows: list[Row] = []
    for _ in range(per_domain):
        place = str(rng.choice(PLACES))
        time = str(rng.choice(TIMES))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            words = ["how", "far", "is", "the", place]
            tree = _intent("IN:GET_DISTANCE",
                           [0, 1, 2, _slot("SL:DESTINATION", [3, 4])])
        elif kind == 1:
            words = ["when", "do", "we", "reach", "the", place, time]
            tree = _intent("IN:GET_ETA",
                           [0, 1, 2, 3, _slot("SL:DESTINATION", [4, 5]),
                            _slot("SL:DATE_TIME", [6])])
        else:
            words = ["how", "far", "is", "the", place, time]
            tree = _intent("IN:GET_DISTANCE",
                           [0, 1, 2, _slot("SL:DESTINATION", [3, 4]),
                            _slot("SL:DATE_TIME", [5])])
        rows.append(_row("navigation", words, tree))
    for _ in range(per_domain):
        city = str(rng.choice(CITIES))
        time = str(rng.choice(TIMES))
        kind = int(rng.integers(0, 3))
        if kind == 0:
            words = ["what", "is", "the", "weather", "in", city]
            tree = _intent("IN:GET_WEATHER",
                           [0, 1, 2, 3, 4, _slot("SL:LOCATION", [5])])
        elif kind == 1:
            words = ["when", "does", "the", "sun", "set", "in", city]
            tree = _intent("IN:GET_SUNSET",
                           [0, 1, 2, 3, 4, 5, _slot("SL:LOCATION", [6])])
        else:
            words = ["what", "is", "the", "weather", "in", city, time]
            tree = _intent("IN:GET_WEATHER",
                           [0, 1, 2, 3, 4, _slot("SL:LOCATION", [5]),
                            _slot("SL:DATE_TIME", [6])])
        rows.append(_row("weather", words, tree))
    return rows


def transfer_pair_rows(per_domain: int = 60, seed: int = 0) -> list[Row]:
    """Two domains whose tag names recombine the same description words.

    Domain ``alpha`` pairs get/show verbs with distance/time objects and
    near-place/clock-zone slots; domain ``beta`` swaps the pairings, so its
    tags are unseen symbols built from seen description words.
    """
    rng = np.random.default_rng(seed)
    rows: list[Row] = []

    def place_filler() -> list[str]:
        return ["the", str(rng.choice(PLACES))]

    def zone_filler() -> list[str]:
        return ["the"] + str(rng.choice(ZONES)).split()

    for _ in range(per_domain):
        if int(rng.integers(0, 2)) == 0:
            filler = place_filler()
            words = ["get", "the", "distance", "to"] + filler
            tree = _intent("IN:GET_DISTANCE",
                           [0, 1, 2, 3,
                            _slot("SL:NEAR_PLACE", list(range(4, 4 + len(filler))))])
        else:
            filler = zone_filler()
            words = ["show", "the", "time", "for"] + filler
            tree = _intent("IN:SHOW_TIME",
                           [0, 1, 2, 3,
                            _slot("SL:CLOCK_ZONE", list(range(4, 4 + len(filler))))])
        rows.append(_row("alpha", words, tree))
    for _ in range(per_domain):
        if int(rng.integers(0, 2)) == 0:
            filler = place_filler()
            words = ["show", "the", "distance", "to"] + filler
            tree = _intent("IN:SHOW_DISTANCE",
                           [0, 1, 2, 3,
                            _slot("SL:CLOCK_PLACE", list(range(4, 4 + len(filler))))])
        else:
            filler = zone_filler()
            words = ["get", "the", "time", "for"] + filler
            tree = _intent("IN:GET_TIME",
                           [0, 1, 2, 3,
                            _slot("SL:NEAR_ZONE", list(range(4, 4 + len(filler))))])
        rows.append(_row("beta", words, tree))
    return rows


_WIKI_TYPES = [
    ("PLACE_KIND", "famous place", PLACES),
    ("FOOD_KIND", "food kind", FOODS),
    ("TIME_KIND", "time word", TIMES),
    ("CITY_KIND", "city name", CITIES),
]


def wiki_payloads(count: int = 120, seed: int = 0) -> list[dict]:
    """Wiki-style contexts with typed mentions, as JSON-serializable dicts."""
    rng = np.random.default_rng(seed)
    payloads: list[dict] = []
    for _ in range(count):
        sentences: list[str] = []
        mentions: list[dict] = []
        offset = 0
        for _ in range(int(rng.integers(1, 3))):
            entity, type_name, pool = _WIKI_TYPES[int(rng.integers(0, len(_WIKI_TYPES)))]
            word = str(rng.choice(pool))
            template = int(rng.integers(0, 3))
            if template == 0:
                prefix, suffix = "we visit the ", " every year ."
                span = "the " + word
                sentence = "we visit " + span + suffix
                start = len("we visit ")
            elif template == 1:
                prefix = ""
                span = word
                sentence = span + " is a " + type_name + " near the harbor ."
                start = 0
            else:
                span = word
                sentence = "the town is famous for " + span + " ."
                start = len("the town is famous for ")
            mentions.append({
                "start": offset + start,
                "end": offset + start + len(span),
                "entity": entity,
                "type": type_name,
            })
            sentences.append(sentence)
            offset += len(sentence) + 1
        payloads.append({"context": " ".join(sentences), "mentions": mentions})
    return payloads


def write_wiki_jsonl(payloads: Sequence[dict], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for payload in payloads:
            handle.write(json.dumps(payload, sort_keys=True) + "\n")
