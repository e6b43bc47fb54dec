"""A synthetic transfer corpus: two parse domains whose tags recombine the same
description words.

`transfer_pair_rows` is deterministic in its seed and writes each row's
annotation string directly from a fixed frame. It feeds the benchmark
workloads and the tests without shipping any real corpus.
"""

from __future__ import annotations

import numpy as np

PLACES = ["airport", "mall", "station", "library", "museum", "harbor", "bakery", "gym"]
ZONES = ["east coast", "west coast", "mountain area", "lake region"]

Row = tuple[str, str, str]

# per domain, the two frames a row draws from: (words before the slot, intent,
# slot, the nouns the slot filler "the <noun>" draws from)
_FRAMES = (
    ("alpha", (("get the distance to", "IN:GET_DISTANCE", "SL:NEAR_PLACE", PLACES),
               ("show the time for", "IN:SHOW_TIME", "SL:CLOCK_ZONE", ZONES))),
    ("beta", (("show the distance to", "IN:SHOW_DISTANCE", "SL:CLOCK_PLACE", PLACES),
              ("get the time for", "IN:GET_TIME", "SL:NEAR_ZONE", ZONES))),
)


def transfer_pair_rows(per_domain: int = 60, seed: int = 0) -> list[Row]:
    """Two domains whose tag names recombine the same description words.

    Domain ``alpha`` pairs get/show verbs with distance/time objects and
    near-place/clock-zone slots; domain ``beta`` swaps the pairings, so its
    tags are unseen symbols built from seen description words.
    """
    rng = np.random.default_rng(seed)
    rows: list[Row] = []
    for domain, frames in _FRAMES:
        for _ in range(per_domain):
            prefix, intent, slot, nouns = frames[int(rng.integers(0, 2))]
            filler = f"the {rng.choice(nouns)}"
            rows.append((domain, f"{prefix} {filler}",
                         f"[{intent} {prefix} [{slot} {filler} ] ]"))
    return rows
