"""The concept-augmented pointer seq2seq network.

Three transformer stacks share one autodiff substrate: a source encoder, a
concept encoder that turns tag descriptions into vectors, and an
autoregressive decoder whose per-step output distribution spans the m encoded
concept tokens plus the n source-pointer positions. A sequence may be as long
as its position table has rows, a description counting its summary token:
`_embed` checks this in every graph forward, before any weight changes, and
`decode_step` at each step, and both raise `LengthExceededError`.

The batched teacher-forced forward used for training records gradients; the
stepwise decoding path (`decode_step` and everything built on it) is
inference-only and does not record a graph. Both paths compute layer norm,
attention, log-softmax and GELU with the same ``autodiff.*_kernel`` functions.
In the graph each attention sublayer is one `ad.mha` node and each
feed-forward sublayer one `ad.feed_forward` node.

Both paths feed the decoder by output index. `_input_table` stacks the bank's
concept vectors, the pointer embeddings and a BOS row, so row i is the input
for output index i and `bos_index` names the BOS row. `_output_index` is the one
rule from a target token to its output index: `build_batch` indexes gold with
it, and `target_embed` returns that row of `_input_table`. `_token_at`, its
inverse, turns the search's picks back into tokens. Teacher forcing
gathers `PaddedBatch.inputs` from the table. `decode_step` takes a
`DecoderState` and each beam's previous output index, and returns the step's
log-probabilities over the m + n output indices with a new state; it never
writes into the old one, and the search reorders states by parent between steps.

Within one search the source states, the bank and every product made only
from them and the weights are fixed. `initial_state` computes them once: each
layer's ln2, query projection, keys, values and output projection, and the
final layer norm and output head, fold into per-search maps (`DecoderState`),
which agree with teacher forcing to rounding, not bit for bit. ln1 and ln3 are
not folded: in a measured variant that did, the step saved what the search's
set-up lost.

Weights are read by name from ``self.params``; only `decode_step` reads the
position table and each decoder layer's weights (which `initial_state` folds)
through views bound once by `_assemble`. A `Parameter`'s ``data`` view is never
rebound (`adam_step`, a restore into `value_buffer` and `load` all write
through it), so the bound views follow every later write; a state keeps the
folded products of the weights it was made from. An attention sublayer's
weights are one (4, d, d) parameter, Wq, Wk, Wv and Wo in that order, and its
biases one (4, d): `ad.mha` reads them whole, each decoder layer binds the
slices a step reads, so self-attention Q, K and V are one (3, d, d) product,
and `initial_state` slices the cross-attention's once per search.

`_layout` fixes every parameter's name, shape and initialisation once: a new
model draws its values from a seed in that order, and `ConceptModel.load`
fills the same layout from a checkpoint without drawing.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import (
    CheckpointMismatchError,
    EmptyDescriptionError,
    LengthExceededError,
    NonFiniteError,
    PointerRangeError,
    ShapeError,
    UnknownConceptError,
    require_count,
)
from .parse import ConceptTag, Pointer, TargetToken

PAD, UNK, SUMMARY = "<pad>", "<unk>", "<sum>"
_SPECIALS = (PAD, UNK, SUMMARY)
_NEG = -1e9


@dataclass(frozen=True)
class ModelConfig:
    """Structural hyper-parameters; the vocabularies are passed to the model. The
    source encoder, concept encoder and decoder share width, layers and heads."""

    width: int = 64
    layers: int = 2
    heads: int = 4
    max_source_len: int = 64
    max_target_len: int = 96
    ff_width: int = 256
    precision: str = "single"

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name != "precision":
                require_count(f.name, getattr(self, f.name), 0 if f.name == "layers" else 1)
        if self.width % self.heads:
            raise ValueError(f"width {self.width} not divisible by head count {self.heads}")
        if self.precision not in tuple(ad.DTYPES):  # a tuple: no hash of an unhashable value
            raise ValueError(f"precision must be single or double, got {self.precision!r}")


def build_vocabularies(token_sequences: Iterable[Sequence[str]],
                       description_texts: Iterable[str]
                       ) -> tuple["Vocabulary", "Vocabulary"]:
    """Source vocabulary from utterance tokens, concept vocabulary from descriptions."""
    source = Vocabulary.build(token_sequences)
    concept = Vocabulary.build([text.split() for text in description_texts])
    return source, concept


class Vocabulary:
    """Whitespace-token vocabulary whose first three tokens are the
    pad/unk/summary specials, wherever ``tokens`` has them."""

    def __init__(self, tokens: Sequence[str]):
        self.tokens: tuple[str, ...] = (*_SPECIALS, *(t for t in tokens if t not in _SPECIALS))
        self.index: dict[str, int] = {t: i for i, t in enumerate(self.tokens)}

    @classmethod
    def build(cls, texts: Iterable[Sequence[str]]) -> "Vocabulary":
        """Vocabulary over every token seen at least once, in sorted order."""
        seen: set[str] = set()
        for tokens in texts:
            seen.update(tokens)
        return cls(sorted(seen))

    def __len__(self) -> int:
        return len(self.tokens)

    def ids(self, tokens: Sequence[str]) -> np.ndarray:
        unk = self.index[UNK]
        return np.array([self.index.get(t, unk) for t in tokens], dtype=np.int64)


@dataclass(frozen=True)
class ConceptBank:
    """Ordered concept tokens with their encoded vectors."""

    tags: tuple[ConceptTag, ...]
    vectors: np.ndarray  # (m, width)

    def __post_init__(self) -> None:
        if len(self.tags) != self.vectors.shape[0]:
            raise ShapeError("bank tag count does not match vector rows")

    @property
    def m(self) -> int:
        return len(self.tags)


@dataclass(frozen=True)
class DecoderState:
    """A group of beams of one search at target position t.

    The first four fields stay fixed during a search: the decoder input table
    (`ConceptModel._input_table`) and the folded products. ``cross[i]`` is layer
    i's fold (A, c, O): with γ, β its ln2 gain and bias, K_h, V_h head h's keys
    and values of the source states and Wo_h head h's rows of Wo,
    A = [(γ ⊙ Wq)_h K_hᵀ / √hd] (d, heads * n), c = [(β Wq + bq)_h K_hᵀ / √hd]
    and O = [V_h Wo_h] (heads * n, d). With γ_f, β_f the final layer norm's, B
    the bank vectors and S the source states, ``head`` is
    [(γ_f ⊙ Wc) Bᵀ | (γ_f ⊙ Wp) Sᵀ] / √d (d, m + n) and ``head_bias``
    [(β_f Wc + bc) Bᵀ | (β_f Wp + bp) Sᵀ] / √d. ``cache[i]`` is layer i's one
    self-attention cache, keys then values of every beam's positions below t,
    (2, beams, heads, t, head_dim). A state is a value: `decode_step` and
    `reorder` build new states and never write into an existing one.
    """

    table: np.ndarray
    cross: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    head: np.ndarray
    head_bias: np.ndarray
    cache: tuple[np.ndarray, ...]
    t: int

    def reorder(self, parents: np.ndarray) -> "DecoderState":
        """State whose beam b continues beam ``parents[b]`` of this one."""
        return DecoderState(self.table, self.cross, self.head, self.head_bias,
                            tuple(kv[:, parents] for kv in self.cache), self.t)


@dataclass(frozen=True)
class PaddedBatch:
    """Teacher-forcing arrays for a batch of records under one bank layout."""

    src_ids: np.ndarray       # (B, N) int, N the longest source in the batch
    src_pad: np.ndarray       # (B, N) model dtype, additive: 0 at a token, _NEG at padding
    gold: np.ndarray          # (B, L_max) int, output index: concept i, pointer m + j; pad 0
    tgt_mask: np.ndarray      # (B, L_max) model dtype: 1 at a target token, 0 at padding
    inputs: np.ndarray        # (B, L_max) int, decoder-input row: BOS, then gold shifted,
    #                           so padding holds the last gold index, then 0


def _layout(config: ModelConfig, source_size: int, concept_size: int
            ) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, init) of every parameter in arena order.

    ``init`` is ``normal`` (a truncated-normal draw per trailing matrix), ``zeros``,
    ``ones`` or ``eye``; `ConceptModel` draws the normal ones in this order from its seed.
    """
    d, ff = config.width, config.ff_width
    layout: list[tuple[str, tuple[int, ...], str]] = []

    def param(name: str, shape: tuple[int, ...], init: str = "normal") -> None:
        layout.append((name, shape, init))

    def block(prefix: str, cross: bool) -> None:
        for ln in ("ln1", "ln2", "ln3")[: 3 if cross else 2]:
            param(f"{prefix}.{ln}.gain", (d,), "ones")
            param(f"{prefix}.{ln}.bias", (d,), "zeros")
        for attn in ("self", "cross") if cross else ("self",):
            param(f"{prefix}.{attn}.w", (4, d, d))  # Wq, Wk, Wv, Wo
            param(f"{prefix}.{attn}.b", (4, d), "zeros")
        param(f"{prefix}.ff.w1", (d, ff))
        param(f"{prefix}.ff.b1", (ff,), "zeros")
        param(f"{prefix}.ff.w2", (ff, d))
        param(f"{prefix}.ff.b2", (d,), "zeros")

    for side, size in (("encoder", source_size), ("concept", concept_size)):
        param(f"{side}.embed", (size, d))
        param(f"{side}.pos", (config.max_source_len, d))
        for i in range(config.layers):
            block(f"{side}.{i}", cross=False)
        param(f"{side}.final_ln.gain", (d,), "ones")
        param(f"{side}.final_ln.bias", (d,), "zeros")
    param("concept.adapter.w", (d, d), "eye")
    param("concept.adapter.b", (d,), "zeros")

    param("decoder.ptr_embed", (config.max_source_len, d))
    param("decoder.pos", (config.max_target_len, d))
    param("decoder.bos", (d,))
    for i in range(config.layers):
        block(f"decoder.{i}", cross=True)
    param("decoder.final_ln.gain", (d,), "ones")
    param("decoder.final_ln.bias", (d,), "zeros")
    param("head.concept.w", (d, d))
    param("head.concept.b", (d,), "zeros")
    param("head.pointer.w", (d, d))
    param("head.pointer.b", (d,), "zeros")
    return layout


def _value_count(config: ModelConfig, source_size: int, concept_size: int) -> int:
    """The number of values in `_layout`'s parameters; every layer adds the same ones."""
    none, one = (sum(math.prod(shape) for _, shape, _ in
                     _layout(replace(config, layers=layers), source_size, concept_size))
                 for layers in (0, 1))
    return none + (one - none) * config.layers


def _output_index(token: TargetToken, rows: dict[ConceptTag, int], m: int, n: int) -> int:
    """The one token-to-index rule: tag ``token`` is output index ``rows[token]``
    and pointer j, of n source tokens, m + j; that index is also the token's row
    of the decoder input table."""
    if isinstance(token, Pointer):
        if not 0 <= token.index < n:
            raise PointerRangeError(f"pointer {token.index} outside {n} source tokens")
        return m + token.index
    row = rows.get(token)
    if row is None:
        raise UnknownConceptError(f"concept {token.token_string!r} not present in the bank")
    return row


def _token_at(index: int, bank: ConceptBank) -> TargetToken:
    """The inverse of `_output_index`: the token output ``index`` stands for under ``bank``."""
    return bank.tags[index] if index < bank.m else Pointer(index - bank.m)


def _read_checkpoint_file(path: Path) -> bytes:
    """The bytes of a checkpoint file or sidecar; a missing or unreadable file
    raises `CheckpointMismatchError` naming it."""
    try:
        return path.read_bytes()
    except OSError as err:
        raise CheckpointMismatchError(f"{path}: cannot read ({err.strerror or err})") from err


class ConceptModel:
    """Encoder, concept encoder, decoder, and the dynamic m+n output head."""

    def __init__(self, config: ModelConfig, source_vocab: Vocabulary,
                 concept_vocab: Vocabulary, seed: int = 0):
        rng = np.random.default_rng(seed)
        for name, shape, init in self._assemble(config, source_vocab, concept_vocab):
            view = self.params[name].data
            if init == "normal":
                for matrix in view.reshape(-1, *shape[-2:]):
                    matrix[...] = ad.trunc_normal(rng, matrix.shape, dtype=self.dtype)
            elif init == "ones":
                view.fill(1.0)
            elif init == "eye":
                np.fill_diagonal(view, 1.0)

    def _assemble(self, config: ModelConfig, source_vocab: Vocabulary,
                  concept_vocab: Vocabulary) -> list[tuple[str, tuple[int, ...], str]]:
        """Lay the parameters out, zero-valued, in one arena, and bind the views
        `decode_step` reads; returns `_layout`."""
        self.config = config
        self.source_vocab = source_vocab
        self.concept_vocab = concept_vocab
        self.dtype = ad.DTYPES[config.precision]
        layout = _layout(config, len(source_vocab), len(concept_vocab))
        self.params: dict[str, Parameter] = ad.arena_parameters(
            {name: shape for name, shape, _ in layout}, self.dtype)
        # decode_step's views: the position table, each decoder layer's by name
        # below the layer, and the slices of its attention weights that a step reads
        self._step_pos = self.params["decoder.pos"].data
        self._step_layers = []
        for prefix in (f"decoder.{i}." for i in range(config.layers)):
            views = {name[len(prefix):]: p.data for name, p in self.params.items()
                     if name.startswith(prefix)}
            w, b = views["self.w"], views["self.b"]
            views.update({"self.wqkv": w[:3], "self.bqkv": b[:3, None], "self.wo": w[3],
                          "self.bo": b[3], "cross.bo": views["cross.b"][3]})
            self._step_layers.append(views)
        return layout

    def parameters(self) -> dict[str, Parameter]:
        return self.params

    def value_buffer(self) -> np.ndarray:
        """The arena's flat value buffer, which every parameter's ``data`` views."""
        return next(iter(self.params.values())).arena.data

    # graph building blocks (gradient-recording)

    def _mha(self, prefix: str, x: Tensor, mask: Optional[np.ndarray],
             kv: Optional[Tensor] = None) -> Tensor:
        return ad.mha(x, self.params[f"{prefix}.w"], self.params[f"{prefix}.b"],
                      self.config.heads, mask, kv)

    def _ln(self, prefix: str, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self.params[f"{prefix}.gain"], self.params[f"{prefix}.bias"])

    def _ff(self, prefix: str, x: Tensor) -> Tensor:
        return ad.feed_forward(x, *(self.params[f"{prefix}.{name}"]
                                    for name in ("w1", "b1", "w2", "b2")))

    def _stack(self, side: str, x: Tensor, mask: Optional[np.ndarray],
               enc: Optional[Tensor] = None, enc_mask: Optional[np.ndarray] = None
               ) -> Tensor:
        """The ``{side}`` stack's pre-norm blocks and final layer norm over ``x``;
        with ``enc``, each block cross-attends to it between self-attention and
        the feed-forward, as `_layout`'s ``block(prefix, cross)`` lays out."""
        for i in range(self.config.layers):
            prefix = f"{side}.{i}"
            h = self._ln(f"{prefix}.ln1", x)
            x = ad.add(x, self._mha(f"{prefix}.self", h, mask))
            if enc is not None:
                h = self._ln(f"{prefix}.ln2", x)
                x = ad.add(x, self._mha(f"{prefix}.cross", h, enc_mask, enc))
            ff_ln = "ln3" if enc is not None else "ln2"
            x = ad.add(x, self._ff(f"{prefix}.ff", self._ln(f"{prefix}.{ff_ln}", x)))
        return self._ln(f"{side}.final_ln", x)

    def _embed(self, table: Tensor, side: str, ids: np.ndarray) -> Tensor:
        """Rows ``ids`` (B, T) of ``table`` plus the first T rows of ``{side}.pos``;
        raises `LengthExceededError` when that table has fewer than T rows."""
        pos, length = self.params[f"{side}.pos"], ids.shape[1]
        if length > len(pos.data):
            raise LengthExceededError(
                f"{side} input of {length} positions exceeds {side}.pos's {len(pos.data)} rows")
        return ad.add(ad.gather_rows(table, ids), ad.gather_rows(pos, slice(0, length)))

    def _pad(self, rows: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Id rows padded with 0 to the longest, (B, T), and their additive pad
        mask (B, T): 0 at a token, `_NEG` at padding."""
        ids = np.zeros((len(rows), max(len(row) for row in rows)), dtype=np.int64)
        pad = np.full(ids.shape, _NEG, dtype=self.dtype)
        for i, row in enumerate(rows):
            ids[i, :len(row)] = row
            pad[i, :len(row)] = 0.0
        return ids, pad

    def encode_source_batch(self, src_ids: np.ndarray, src_pad: np.ndarray) -> Tensor:
        """Graph forward over a padded batch of source id arrays; ``src_pad`` is
        the additive pad mask (B, N) of `_pad`."""
        x = self._embed(self.params["encoder.embed"], "encoder", src_ids)
        return self._stack("encoder", x, src_pad[:, None, None, :])

    def encode_source(self, tokens: Sequence[str]) -> np.ndarray:
        """Encoder states (n, width) of one utterance; deterministic given
        parameters and input."""
        if len(tokens) == 0:
            raise ShapeError("cannot encode an empty token sequence")
        with ad.no_grad():
            states = self.encode_source_batch(*self._pad([self.source_vocab.ids(tokens)]))
        return states.data[0]

    def encode_concepts_tensor(self, tags: Sequence[ConceptTag]) -> Tensor:
        """Graph forward of the concept encoder over tag descriptions."""
        if len(tags) == 0:
            raise EmptyDescriptionError("concept bank needs at least one tag")
        descriptions = []
        for tag in tags:
            words = tag.description.split()
            if not words:
                raise EmptyDescriptionError(f"tag {tag.name!r} has an empty description")
            descriptions.append(words)
        ids, pad = self._pad([self.concept_vocab.ids([SUMMARY, *words])
                              for words in descriptions])
        x = self._embed(self.params["concept.embed"], "concept", ids)
        summary = ad.take_index(self._stack("concept", x, pad[:, None, None, :]), 0, axis=1)
        return ad.affine(summary, self.params["concept.adapter.w"],
                         self.params["concept.adapter.b"])

    def encode_concepts(self, tags: Sequence[ConceptTag]) -> ConceptBank:
        """Encode tag descriptions into the bank used for decoding."""
        with ad.no_grad():
            vectors = self.encode_concepts_tensor(tags)
        return ConceptBank(tags=tuple(tags), vectors=vectors.data)

    compile_domain = encode_concepts  # the bank of a (new) domain's tags

    # stepwise decoding (inference only)

    def target_embed(self, token: TargetToken, bank: ConceptBank) -> np.ndarray:
        """Decoder input of one target token under a bank: its row of `_input_table`,
        found by `_output_index` as `build_batch` finds it."""
        index = _output_index(token, {tag: i for i, tag in enumerate(bank.tags)}, bank.m,
                              self.config.max_source_len)
        with ad.no_grad():
            return self._input_table(ad.constant(bank.vectors)).data[index]

    def bos_index(self, m: int) -> int:
        """Row of the BOS input in the decoder input table of an m-tag bank."""
        return m + self.config.max_source_len

    def _input_table(self, bank_vectors: Tensor) -> Tensor:
        """Decoder input of every output index, (m + max_source_len + 1, width).

        Row i < m is concept vector i of the bank, row m + j the embedding of
        pointer j, and the last row, `bos_index`, the BOS embedding.
        """
        bos = ad.reshape(self.params["decoder.bos"], (1, self.config.width))
        return ad.concat([bank_vectors, self.params["decoder.ptr_embed"], bos], axis=0)

    def initial_state(self, src_states: np.ndarray, bank: ConceptBank) -> DecoderState:
        """One-beam state at position 0 of a search over ``src_states`` (n,
        width) and ``bank``, with the search's cross-attention and output head
        folded as `DecoderState` sets out."""
        cfg = self.config
        d = cfg.width
        heads, hd = cfg.heads, d // cfg.heads
        n = src_states.shape[0]
        with ad.no_grad():
            table = self._input_table(ad.constant(bank.vectors)).data
        cross = []
        for w in self._step_layers:
            cw, cb = w["cross.w"], w["cross.b"]
            k, v = src_states @ cw[1:3] + cb[1:3, None]
            keys = k.reshape(n, heads, hd).transpose(1, 2, 0) / math.sqrt(hd)
            wq = w["ln2.gain"][:, None] * cw[0]
            bq = w["ln2.bias"] @ cw[0] + cb[0]
            a = wq.reshape(d, heads, hd).transpose(1, 0, 2) @ keys
            c = bq.reshape(heads, 1, hd) @ keys
            o = v.reshape(n, heads, hd).transpose(1, 0, 2) @ cw[3].reshape(heads, hd, d)
            cross.append((a.transpose(1, 0, 2).reshape(d, -1), c.ravel(), o.reshape(-1, d)))
        params = self.params
        gain, bias = params["decoder.final_ln.gain"].data, params["decoder.final_ln.bias"].data
        parts = [(params[f"head.{kind}.w"].data, params[f"head.{kind}.b"].data, rows.T)
                 for kind, rows in (("concept", bank.vectors), ("pointer", src_states))]
        head = np.concatenate([(gain[:, None] * w) @ rows for w, _, rows in parts], axis=1)
        head_bias = np.concatenate([(bias @ w + b) @ rows for w, b, rows in parts])
        empty = (np.zeros((2, 1, heads, 0, hd), dtype=self.dtype),) * cfg.layers
        return DecoderState(table, tuple(cross), head / math.sqrt(d),
                            head_bias / math.sqrt(d), empty, 0)

    def decode_step(self, state: DecoderState, prev: np.ndarray
                    ) -> tuple[np.ndarray, DecoderState]:
        """One autoregressive step of every beam in ``state``.

        ``prev`` holds each beam's previous output index, (beams,), or
        `bos_index` at the first step; it picks the beam's row of the decoder
        input table. Returns the step's log-probabilities, (beams, m + n),
        whose first m entries follow the bank's tag order and last n are
        pointers in source order, and the state at t + 1, whose key/value
        caches append each beam's new keys and values. ``state`` is unchanged.

        A ``prev`` of another shape, or holding anything but rows of the
        table, raises `ShapeError`. A decode leaves the model here, so a NaN or
        Inf weight or folded product, which the final log-softmax spreads over
        its row, raises `NonFiniteError` here.
        """
        cfg = self.config
        t = state.t
        if t >= cfg.max_target_len:
            raise LengthExceededError(
                f"decoding step {t} exceeds maximum target length "
                f"{cfg.max_target_len}")
        prev = np.asarray(prev)
        if prev.ndim != 1 or any(kv.shape[1] != len(prev) for kv in state.cache[:1]):
            raise ShapeError(f"need one previous output index per beam of the state, "
                             f"got shape {prev.shape}")
        try:  # a negative index would wrap round to the table's last rows
            if prev.dtype.kind not in "iu" or np.minimum.reduce(prev, initial=0) < 0:
                raise IndexError
            x = state.table[prev] + self._step_pos[t]
        except IndexError:
            raise ShapeError(f"previous output indices {prev.tolist()} must be integers in "
                             f"[0, {len(state.table)}), the decoder input table's rows") from None
        d = cfg.width
        heads, hd = cfg.heads, d // cfg.heads
        beams = len(prev)
        cache = []
        for w, (a, c, o), past in zip(self._step_layers, state.cross, state.cache):
            h, _, _ = ad.layer_norm_kernel(x, w["ln1.gain"], w["ln1.bias"])
            qkv = h @ w["self.wqkv"] + w["self.bqkv"]
            kv = np.concatenate([past, qkv[1:].reshape(2, beams, heads, 1, hd)], axis=3)
            cache.append(kv)
            mix, _ = ad.attention_kernel(qkv[0].reshape(beams, heads, 1, hd), kv[0], kv[1])
            x = x + mix.reshape(beams, d) @ w["self.wo"] + w["self.bo"]

            xhat, _ = ad.normalize_kernel(x)
            logits = xhat @ a + c
            weights = ad.softmax_kernel(logits.reshape(beams, heads, -1))
            x = x + weights.reshape(beams, -1) @ o + w["cross.bo"]

            h, _, _ = ad.layer_norm_kernel(x, w["ln3.gain"], w["ln3.bias"])
            hidden, _ = ad.gelu_kernel(h @ w["ff.w1"] + w["ff.b1"])
            x = x + hidden @ w["ff.w2"] + w["ff.b2"]

        xhat, _ = ad.normalize_kernel(x)
        log_probs = ad.log_softmax_kernel(xhat @ state.head + state.head_bias)
        if not np.isfinite(log_probs).all():
            raise NonFiniteError(f"decoding step {t} produced NaN or Inf log-probabilities")
        return log_probs, DecoderState(state.table, state.cross, state.head,
                                       state.head_bias, tuple(cache), t + 1)

    # batched teacher-forced forward (training)

    def build_batch(self, records: Sequence, bank_tags: Sequence[ConceptTag]) -> PaddedBatch:
        """Pad and index a record batch against a bank's m + n layout."""
        rows = {tag: i for i, tag in enumerate(bank_tags)}
        m = len(bank_tags)
        src_ids, src_pad = self._pad([self.source_vocab.ids(r.utterance.tokens)
                                      for r in records])
        gold, tgt_pad = self._pad([[_output_index(token, rows, m, len(r.utterance.tokens))
                                    for token in r.target] for r in records])
        bos = np.full((len(records), 1), self.bos_index(m), dtype=np.int64)
        return PaddedBatch(src_ids=src_ids, src_pad=src_pad, gold=gold,
                           tgt_mask=(tgt_pad == 0.0).astype(self.dtype),
                           inputs=np.concatenate([bos, gold[:, :-1]], axis=1))

    def teacher_log_probs(self, batch: PaddedBatch, bank_vectors: Tensor) -> Tensor:
        """Gradient-recording log-probabilities (B, L, m + N) for a batch."""
        cfg = self.config
        l_max = batch.gold.shape[1]
        enc = self.encode_source_batch(batch.src_ids, batch.src_pad)
        x = self._embed(self._input_table(bank_vectors), "decoder", batch.inputs)
        causal = (np.triu(np.ones((l_max, l_max), dtype=self.dtype), k=1)
                  * _NEG)[None, None, :, :]
        d_t = self._stack("decoder", x, causal, enc, batch.src_pad[:, None, None, :])

        concept_q = ad.affine(d_t, self.params["head.concept.w"], self.params["head.concept.b"])
        pointer_q = ad.affine(d_t, self.params["head.pointer.w"], self.params["head.pointer.b"])
        scale = 1.0 / math.sqrt(cfg.width)
        s = ad.scale(ad.matmul(concept_q, ad.transpose(bank_vectors, (1, 0))), scale)
        a = ad.scale(ad.matmul(pointer_q, ad.transpose(enc, (0, 2, 1))), scale)
        a = ad.add(a, ad.constant(batch.src_pad[:, None, :]))
        logits = ad.concat([s, a], axis=-1)
        return ad.log_softmax(logits)

    # persistence

    def save(self, path: Union[str, Path]) -> None:
        """Write `value_buffer` as little-endian bytes, and the JSON sidecar.

        A NaN or infinite value raises `NonFiniteError` before either file is
        written."""
        path = Path(path)
        values = self.value_buffer()
        if not np.isfinite(values).all():
            raise NonFiniteError(f"{path}: the model holds NaN or Inf values")
        blob = values.astype(values.dtype.newbyteorder("<"), copy=False).tobytes()
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_bytes(blob)
        tmp.replace(path)
        sidecar = {**self._header(), "digest": self.identity_digest(),
                   "params_sha256": hashlib.sha256(blob).hexdigest()}
        tmp = path.with_name(path.name + ".json.tmp")
        tmp.write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n",
                       encoding="utf-8")
        tmp.replace(path.with_name(path.name + ".json"))

    def _header(self) -> dict:
        """The config and both vocabularies, which the sidecar holds and the digest hashes."""
        return {"config": asdict(self.config), "source_vocab": list(self.source_vocab.tokens),
                "concept_vocab": list(self.concept_vocab.tokens)}

    def identity_digest(self) -> str:
        """Hash of `_header` and every parameter's (name, shape) in arena order,
        which fixes where each value sits in the value buffer."""
        payload = json.dumps(
            {**self._header(),
             "layout": [[name, list(p.data.shape)] for name, p in self.params.items()]},
            sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ConceptModel":
        """Rebuild a model from a checkpoint.

        The file is checked before anything is allocated, in this order. The
        sidecar must parse, and its config must name exactly the `ModelConfig`
        fields. The parameter file must hash to the sidecar's
        ``params_sha256`` and hold exactly the bytes of the layout that the
        config and vocabularies give, which `_value_count` counts from one layer,
        so that the layout never allocates more than the file holds, and every
        value must be finite. Only then is the model laid out with zero values,
        not drawn from a seed; the sidecar's digest must equal its
        `identity_digest`, and the file's values are copied in. A missing or
        unreadable file, a malformed sidecar, or any mismatch raises
        `CheckpointMismatchError` naming the path.
        """
        path = Path(path)
        raw = _read_checkpoint_file(path.with_name(path.name + ".json"))
        try:
            sidecar = json.loads(raw.decode("utf-8"))
            keys = set(sidecar["config"])
            expected = {f.name for f in fields(ModelConfig)}
            if keys != expected:
                raise CheckpointMismatchError(
                    f"{path}: sidecar config has unknown keys {sorted(keys - expected)} "
                    f"and lacks {sorted(expected - keys)}")
            config = ModelConfig(**sidecar["config"])
            source_vocab = Vocabulary(sidecar["source_vocab"])
            concept_vocab = Vocabulary(sidecar["concept_vocab"])
            blob = _read_checkpoint_file(path)
            if sidecar.get("params_sha256") != hashlib.sha256(blob).hexdigest():
                raise CheckpointMismatchError(
                    f"{path}: parameter file bytes do not match the sidecar's params_sha256")
            dtype = np.dtype(ad.DTYPES[config.precision]).newbyteorder("<")
            nbytes = _value_count(config, len(source_vocab), len(concept_vocab)) * dtype.itemsize
            if len(blob) != nbytes:
                raise CheckpointMismatchError(
                    f"{path}: parameter file holds {len(blob)} bytes, the model's "
                    f"{config.precision}-precision layout {nbytes}")
            values = np.frombuffer(blob, dtype=dtype)
            if not np.isfinite(values).all():
                raise CheckpointMismatchError(f"{path}: parameter file holds NaN or Inf values")
        except (ValueError, TypeError, KeyError, RecursionError) as err:
            raise CheckpointMismatchError(
                f"{path}: malformed sidecar ({type(err).__name__}: {err})") from err
        model = cls.__new__(cls)
        model._assemble(config, source_vocab, concept_vocab)
        if sidecar.get("digest") != model.identity_digest():
            raise CheckpointMismatchError(
                f"{path}: sidecar digest does not match the rebuilt model's config, "
                f"vocabularies or parameter layout")
        model.value_buffer()[...] = values
        return model
