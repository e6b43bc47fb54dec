"""Shared fixtures for model-level tests, and the per-beam search oracle."""

from dataclasses import replace

from concept_parse.data import record_from_row, tags_from_records
from concept_parse.decoding import Hypothesis, _token_at
from concept_parse.model import ConceptModel, ModelConfig, build_vocabularies
from concept_parse.parse import Pointer


def records_from_rows(rows):
    return [record_from_row(*row) for row in rows]


def build_model(records, tags=None, wiki_records=(), seed=0, **config_kwargs):
    """A model whose vocabularies cover the given records and pretraining data."""
    tags = tags if tags is not None else tags_from_records(records)
    token_sequences = [r.utterance.tokens for r in records]
    token_sequences += [r.utterance.tokens for r in wiki_records]
    descriptions = [t.description for t in tags]
    descriptions += [t.description for r in wiki_records for t in r.tags]
    source_vocab, concept_vocab = build_vocabularies(token_sequences, descriptions)
    config = ModelConfig(**config_kwargs)
    return ConceptModel(config, source_vocab, concept_vocab, seed=seed)


TINY = dict(width=32, encoder_layers=1, encoder_heads=2, decoder_layers=1,
            decoder_heads=2, concept_layers=1, concept_heads=2,
            max_source_len=32, max_target_len=48, ff_width=64)


def zero_grads(params):
    for p in params:
        p.zero_grad()


def advance(depth, token):
    """New bracket depth and whether the sequence just finished structurally."""
    if isinstance(token, Pointer):
        return depth, False
    if token.tag.boundary == "begin":
        return depth + 1, False
    if depth <= 1:
        # closes the root, or an end tag with nothing open
        return 0, True
    return depth - 1, False


def fork(state):
    """A copy of a decoder state whose self-attention caches it owns alone."""
    return replace(state, self_keys=tuple(k.copy() for k in state.self_keys),
                   self_values=tuple(v.copy() for v in state.self_values))


def reference_beam_decode(model, utterance, bank, beam_width, max_len=None):
    """Per-beam search: one decode_step per live beam, every candidate sorted.

    Candidates are listed beam-major, then by output index, and sorted stably
    by score, so ties break as in `beam_decode`.
    """
    max_len = max_len or model.config.max_target_len
    src = model.encode_source(utterance.tokens)
    active = [((), 0.0, model.initial_state(src), model.bos_embedding(), 0)]
    pool = []
    while active:
        candidates = []
        for tokens, log_prob, state, prev, depth in active:
            dist, new_state = model.decode_step(fork(state), prev, src, bank)
            for index, lp in enumerate(dist.log_probabilities[0]):
                candidates.append((log_prob + float(lp), tokens, depth, index,
                                   new_state))
        candidates.sort(key=lambda c: -c[0])
        active = []
        for log_prob, tokens, depth, index, state in candidates[:beam_width]:
            token = _token_at(index, bank)
            tokens = tokens + (token,)
            depth, finished = advance(depth, token)
            if finished:
                pool.append(Hypothesis(tokens=tokens, log_prob=log_prob,
                                       finished=True))
            elif len(tokens) >= max_len:
                pool.append(Hypothesis(tokens=tokens, log_prob=log_prob,
                                       finished=True, truncated=True))
            else:
                active.append((tokens, log_prob, state,
                               model.target_embed(token, bank), depth))
    pool.sort(key=lambda h: -h.log_prob)
    return pool
