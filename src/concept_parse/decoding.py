"""Beam-search decoding over the dynamic m+n output space.

The search feeds each beam's chosen output index back to
`ConceptModel.decode_step` as the next input, starting from the model's BOS
index, and carries the decoder state as a value that it reorders by parent.
Generation stops when the bracket stack closes back to the top level, when an
end tag arrives with nothing open (an invalid but finished shape), or at the
model's maximum target length. Scoring is cumulative log-probability with no
length normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import require_count
from .model import ConceptBank, ConceptModel, _token_at
from .parse import TargetSequence, Utterance


@dataclass(frozen=True)
class Hypothesis:
    """A decoded sequence with its cumulative log-probability."""

    tokens: TargetSequence
    log_prob: float
    truncated: bool = False  # cut by the length cap before the root bracket closed


def _bracket_steps(bank: ConceptBank, n: int) -> np.ndarray:
    """Depth change of every output index: +1 begin tag, -1 end tag, 0 pointer."""
    steps = np.zeros(bank.m + n, dtype=np.int64)
    steps[:bank.m] = [1 if t.boundary == "begin" else -1 for t in bank.tags]
    return steps


def beam_decode(model: ConceptModel, utterance: Utterance,
                bank: ConceptBank, beam_width: int = 4) -> list[Hypothesis]:
    """Length-unnormalized beam search; returns finished hypotheses, best first.

    Every target position runs one `decode_step` over all live beams. The
    candidates are the beams' cumulative log-probabilities (float64) plus each
    step log-probability, flattened beam-major. A stable sort picks the best
    ``beam_width``, so ties break by beam order, then by output index. A pick
    that closes the root bracket, or reaches the model's ``max_target_len``
    tokens, joins the pool of finished hypotheses; the rest live on, each with
    its parent's decoder state and its pick as the next input. A beam's path is
    its parent's with its pick's token appended, from one table of the tokens
    the search's output indices stand for, so a finished beam's path is its
    hypothesis's tokens.
    """
    require_count("beam width", beam_width, 1)
    src = model.encode_source(utterance.tokens)
    width = bank.m + len(src)
    tokens = tuple(_token_at(i, bank) for i in range(width))
    steps = _bracket_steps(bank, len(src))
    state = model.initial_state(src, bank)
    prev = np.array([model.bos_index(bank.m)])
    scores = np.zeros(1)                            # per live beam, float64
    depths = np.zeros(1, dtype=np.int64)
    paths: list[TargetSequence] = [()]              # per live beam: its tokens so far
    pool: list[Hypothesis] = []
    while scores.size:
        log_probs, state = model.decode_step(state, prev)
        totals = (scores[:, None] + log_probs).ravel()
        picked = np.argsort(-totals, kind="stable")[:beam_width]
        parents, indices = np.divmod(picked, width)
        moves = steps[indices]
        depths = depths[parents] + moves
        finished = (moves < 0) & (depths <= 0)
        capped = state.t >= model.config.max_target_len
        paths = [paths[p] + (tokens[i],) for p, i in zip(parents.tolist(), indices.tolist())]
        if capped or finished.any():
            done = finished | capped
            for beam in np.flatnonzero(done):
                pool.append(Hypothesis(
                    tokens=paths[beam], log_prob=float(totals[picked[beam]]),
                    truncated=not finished[beam]))
            live = ~done
            parents, indices = parents[live], indices[live]
            picked, depths = picked[live], depths[live]
            paths = [path for path, keep in zip(paths, live) if keep]
        scores = totals[picked]
        state = state.reorder(parents)
        prev = indices
    pool.sort(key=lambda h: -h.log_prob)
    return pool

