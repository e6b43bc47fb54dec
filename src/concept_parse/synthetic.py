"""A synthetic transfer corpus: two parse domains whose tags recombine the same
description words.

`transfer_pair_rows` is deterministic in its seed. It feeds the benchmark
workloads and the tests without shipping any real corpus.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .parse import ParseTree, to_seqlogical, tokenize_utterance

PLACES = ["airport", "mall", "station", "library", "museum", "harbor", "bakery", "gym"]
ZONES = ["east coast", "west coast", "mountain area", "lake region"]

Row = tuple[str, str, str]


def _intent(name: str, children: Sequence[Union[ParseTree, int]]) -> ParseTree:
    return ParseTree(name=name, kind="intent", children=tuple(children))


def _slot(name: str, children: Sequence[Union[ParseTree, int]]) -> ParseTree:
    return ParseTree(name=name, kind="slot", children=tuple(children))


def _row(domain: str, words: list[str], tree: ParseTree) -> Row:
    utterance = tokenize_utterance(" ".join(words))
    return domain, utterance.raw, to_seqlogical(tree, utterance)


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
