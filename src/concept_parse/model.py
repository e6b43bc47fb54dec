"""The concept-augmented pointer seq2seq network.

Three transformer stacks share one autodiff substrate: a source encoder, a
concept encoder that turns tag descriptions into vectors, and an
autoregressive decoder whose per-step output distribution spans the m encoded
concept tokens plus the n source-pointer positions.

The batched teacher-forced forward used for training records gradients; the
stepwise decoding path (`decode_step` and everything built on it) is
inference-only and does not record a graph. `decode_step` advances a group of
beams together: every array it reads or returns carries a leading beam axis,
and the search reorders the self-attention caches by parent between steps.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import (
    CheckpointMismatchError,
    EmptyDescriptionError,
    LengthExceededError,
    PointerRangeError,
    ShapeError,
    UnknownConceptError,
)
from .parse import Concept, ConceptTag, Pointer, TargetSequence, TargetToken, Utterance

PAD, UNK, SUMMARY = "<pad>", "<unk>", "<sum>"
_SPECIALS = (PAD, UNK, SUMMARY)
_NEG = -1e9


@dataclass(frozen=True)
class ModelConfig:
    """Structural hyper-parameters; vocabulary sizes bind at construction."""

    width: int = 64
    encoder_layers: int = 2
    encoder_heads: int = 4
    decoder_layers: int = 2
    decoder_heads: int = 4
    concept_layers: int = 2
    concept_heads: int = 4
    max_source_len: int = 64
    max_target_len: int = 96
    ff_width: int = 256
    precision: str = "single"
    source_vocab_size: Optional[int] = None
    concept_vocab_size: Optional[int] = None

    def __post_init__(self) -> None:
        for heads in (self.encoder_heads, self.decoder_heads, self.concept_heads):
            if self.width % heads:
                raise ValueError(
                    f"width {self.width} not divisible by head count {heads}")
        if self.precision not in ad.DTYPES:
            raise ValueError(f"precision must be single or double, got {self.precision!r}")


def build_vocabularies(token_sequences: Iterable[Sequence[str]],
                       description_texts: Iterable[str]
                       ) -> tuple["Vocabulary", "Vocabulary"]:
    """Source vocabulary from utterance tokens, concept vocabulary from descriptions."""
    source = Vocabulary.build(token_sequences)
    concept = Vocabulary.build([text.split() for text in description_texts])
    return source, concept


class Vocabulary:
    """Whitespace-token vocabulary with pad/unk/summary specials."""

    def __init__(self, tokens: Sequence[str]):
        if tuple(tokens[:3]) != _SPECIALS:
            tokens = list(_SPECIALS) + [t for t in tokens if t not in _SPECIALS]
        self.tokens: tuple[str, ...] = tuple(tokens)
        self.index: dict[str, int] = {t: i for i, t in enumerate(self.tokens)}

    @classmethod
    def build(cls, texts: Iterable[Sequence[str]]) -> "Vocabulary":
        """Vocabulary over every token seen at least once, in sorted order."""
        seen: set[str] = set()
        for tokens in texts:
            seen.update(tokens)
        return cls(list(_SPECIALS) + sorted(seen - set(_SPECIALS)))

    def __len__(self) -> int:
        return len(self.tokens)

    def ids(self, tokens: Sequence[str]) -> np.ndarray:
        unk = self.index[UNK]
        return np.array([self.index.get(t, unk) for t in tokens], dtype=np.int64)


@dataclass(frozen=True)
class SourceEncoding:
    """Encoder hidden states for one utterance."""

    states: np.ndarray  # (n, width)

    @property
    def n(self) -> int:
        return self.states.shape[0]


@dataclass(frozen=True)
class ConceptBank:
    """Ordered concept tokens with their encoded vectors."""

    tags: tuple[ConceptTag, ...]
    vectors: np.ndarray  # (m, width)
    _rows: Mapping[tuple[str, str], int] = field(init=False, repr=False,
                                                 compare=False)

    def __post_init__(self) -> None:
        if len(self.tags) != self.vectors.shape[0]:
            raise ShapeError("bank tag count does not match vector rows")
        object.__setattr__(self, "_rows", MappingProxyType(
            {(t.name, t.boundary): i for i, t in enumerate(self.tags)}))

    @property
    def m(self) -> int:
        return len(self.tags)

    def row_index(self) -> Mapping[tuple[str, str], int]:
        """Row of each (name, boundary) key; built once per bank."""
        return self._rows


@dataclass(frozen=True)
class CompiledDomain:
    """A frozen bank ready for decoding without the concept encoder."""

    bank: ConceptBank

    @property
    def m(self) -> int:
        return self.bank.m


@dataclass(frozen=True)
class DecoderState:
    """Per-layer attention caches of a group of beams at target position t.

    The self-attention caches are preallocated to ``max_target_len`` with a
    leading beam axis, (beams, heads, max_target_len, head_dim); positions
    below t are filled. `ConceptModel.decode_step` writes position t in place
    and returns the state at t + 1 over the same arrays, so stepping one state
    twice overwrites what the first step wrote. `reorder` gives the beams of
    the next step their own caches. The cross-attention caches, (heads, n,
    head_dim) per layer, are shared by every beam.
    """

    self_keys: tuple[np.ndarray, ...]
    self_values: tuple[np.ndarray, ...]
    cross_keys: tuple[np.ndarray, ...]
    cross_values: tuple[np.ndarray, ...]
    t: int
    beams: int = 1

    def reorder(self, parents: np.ndarray) -> "DecoderState":
        """State whose beam b continues beam ``parents[b]`` of this one.

        Only the filled prefix is copied. The identity order returns this
        state itself.
        """
        if len(parents) == self.beams and \
                np.array_equal(parents, np.arange(self.beams)):
            return self
        t = self.t

        def gather(cache: np.ndarray) -> np.ndarray:
            out = np.empty((len(parents),) + cache.shape[1:], dtype=cache.dtype)
            out[:, :, :t] = cache[parents, :, :t]
            return out

        return DecoderState(
            self_keys=tuple(gather(k) for k in self.self_keys),
            self_values=tuple(gather(v) for v in self.self_values),
            cross_keys=self.cross_keys, cross_values=self.cross_values, t=t,
            beams=len(parents))


@dataclass(frozen=True)
class StepDistribution:
    """One decoding step's scores and normalized probabilities.

    Index layout of the last axis: the first m entries follow the bank's tag
    order, the last n entries are pointers in source order. `decode_step`
    returns arrays with a leading beam axis, (beams, m + n).
    """

    concept_scores: np.ndarray
    pointer_scores: np.ndarray
    probabilities: np.ndarray
    log_probabilities: np.ndarray

    @property
    def m(self) -> int:
        return self.concept_scores.shape[-1]

    @property
    def n(self) -> int:
        return self.pointer_scores.shape[-1]

    def argmax(self) -> np.ndarray:
        """Best index along the m + n axis, per beam."""
        return np.argmax(self.log_probabilities, axis=-1)


@dataclass(frozen=True)
class PaddedBatch:
    """Teacher-forcing arrays for a batch of records under one bank layout."""

    src_ids: np.ndarray       # (B, n_max) int
    src_mask: np.ndarray      # (B, n_max) model dtype, 1 real / 0 pad
    gold: np.ndarray          # (B, L_max) int, indices into m + n_max layout
    tgt_mask: np.ndarray      # (B, L_max)
    bos_sel: np.ndarray       # (B, L_max, 1)
    ptr_sel: np.ndarray       # (B, L_max, 1)
    ptr_ids: np.ndarray       # (B, L_max) int
    con_sel: np.ndarray       # (B, L_max, 1)
    con_ids: np.ndarray       # (B, L_max) int
    n_max: int
    m: int

    @property
    def size(self) -> int:
        return self.src_ids.shape[0]


# plain-numpy pieces for the stepwise decoding path

def _softmax_np(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax_np(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _ln_np(x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered / np.sqrt(var + eps) * gain + bias


class ConceptModel:
    """Encoder, concept encoder, decoder, and the dynamic m+n output head."""

    def __init__(self, config: ModelConfig, source_vocab: Vocabulary,
                 concept_vocab: Vocabulary, seed: int = 0):
        config = replace(config, source_vocab_size=len(source_vocab),
                         concept_vocab_size=len(concept_vocab))
        self.config = config
        self.source_vocab = source_vocab
        self.concept_vocab = concept_vocab
        self.dtype = ad.DTYPES[config.precision]
        self.params: dict[str, Parameter] = {}
        rng = np.random.default_rng(seed)
        d, ff = config.width, config.ff_width

        def param(name: str, shape: tuple[int, ...], init: str = "normal") -> None:
            if init == "normal":
                data = ad.trunc_normal(rng, shape, dtype=self.dtype)
            elif init == "zeros":
                data = np.zeros(shape, dtype=self.dtype)
            elif init == "ones":
                data = np.ones(shape, dtype=self.dtype)
            elif init == "eye":
                data = np.eye(shape[0], dtype=self.dtype)
            else:
                raise ValueError(init)
            self.params[name] = Parameter(name, data)

        def block(prefix: str, cross: bool) -> None:
            for ln in ("ln1", "ln2", "ln3")[: 3 if cross else 2]:
                param(f"{prefix}.{ln}.gain", (d,), "ones")
                param(f"{prefix}.{ln}.bias", (d,), "zeros")
            attns = ("self", "cross") if cross else ("self",)
            for attn in attns:
                for w in ("wq", "wk", "wv", "wo"):
                    param(f"{prefix}.{attn}.{w}", (d, d))
                for b in ("bq", "bk", "bv", "bo"):
                    param(f"{prefix}.{attn}.{b}", (d,), "zeros")
            param(f"{prefix}.ff.w1", (d, ff))
            param(f"{prefix}.ff.b1", (ff,), "zeros")
            param(f"{prefix}.ff.w2", (ff, d))
            param(f"{prefix}.ff.b2", (d,), "zeros")

        param("encoder.embed", (len(source_vocab), d))
        param("encoder.pos", (config.max_source_len, d))
        for i in range(config.encoder_layers):
            block(f"encoder.{i}", cross=False)
        param("encoder.final_ln.gain", (d,), "ones")
        param("encoder.final_ln.bias", (d,), "zeros")

        param("concept.embed", (len(concept_vocab), d))
        param("concept.pos", (config.max_source_len, d))
        for i in range(config.concept_layers):
            block(f"concept.{i}", cross=False)
        param("concept.final_ln.gain", (d,), "ones")
        param("concept.final_ln.bias", (d,), "zeros")
        param("concept.adapter.w", (d, d), "eye")
        param("concept.adapter.b", (d,), "zeros")

        param("decoder.ptr_embed", (config.max_source_len, d))
        param("decoder.pos", (config.max_target_len, d))
        param("decoder.bos", (d,))
        for i in range(config.decoder_layers):
            block(f"decoder.{i}", cross=True)
        param("decoder.final_ln.gain", (d,), "ones")
        param("decoder.final_ln.bias", (d,), "zeros")
        param("head.concept.w", (d, d))
        param("head.concept.b", (d,), "zeros")
        param("head.pointer.w", (d, d))
        param("head.pointer.b", (d,), "zeros")

    # parameter access

    def _p(self, name: str) -> Tensor:
        return self.params[name].leaf()

    def _arr(self, name: str) -> np.ndarray:
        return self.params[name].data

    def parameters(self) -> dict[str, Parameter]:
        return self.params

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def restore(self, snapshot: dict[str, np.ndarray]) -> None:
        for name, data in snapshot.items():
            self.params[name].data = data.copy()

    # graph building blocks (gradient-recording)

    def _mha(self, prefix: str, x: Tensor, kv: Tensor, heads: int,
             mask: Optional[np.ndarray]) -> Tensor:
        d = self.config.width
        hd = d // heads
        b, tq = x.data.shape[0], x.data.shape[1]
        tk = kv.data.shape[1]

        def split(t: Tensor, length: int) -> Tensor:
            return ad.transpose(ad.reshape(t, (b, length, heads, hd)), (0, 2, 1, 3))

        q = split(ad.affine(x, self._p(f"{prefix}.wq"), self._p(f"{prefix}.bq")), tq)
        k = split(ad.affine(kv, self._p(f"{prefix}.wk"), self._p(f"{prefix}.bk")), tk)
        v = split(ad.affine(kv, self._p(f"{prefix}.wv"), self._p(f"{prefix}.bv")), tk)
        logits = ad.scale(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(hd))
        if mask is not None:
            logits = ad.add(logits, ad.constant(mask))
        mix = ad.matmul(ad.softmax(logits), v)
        mix = ad.reshape(ad.transpose(mix, (0, 2, 1, 3)), (b, tq, d))
        return ad.affine(mix, self._p(f"{prefix}.wo"), self._p(f"{prefix}.bo"))

    def _ln(self, prefix: str, x: Tensor) -> Tensor:
        return ad.layer_norm(x, self._p(f"{prefix}.gain"), self._p(f"{prefix}.bias"))

    def _ff(self, prefix: str, x: Tensor) -> Tensor:
        hidden = ad.gelu(ad.affine(x, self._p(f"{prefix}.w1"), self._p(f"{prefix}.b1")))
        return ad.affine(hidden, self._p(f"{prefix}.w2"), self._p(f"{prefix}.b2"))

    def _encoder_stack(self, side: str, layers: int, heads: int, x: Tensor,
                       pad_mask: Optional[np.ndarray]) -> Tensor:
        for i in range(layers):
            prefix = f"{side}.{i}"
            h = self._ln(f"{prefix}.ln1", x)
            x = ad.add(x, self._mha(f"{prefix}.self", h, h, heads, pad_mask))
            x = ad.add(x, self._ff(f"{prefix}.ff", self._ln(f"{prefix}.ln2", x)))
        return self._ln(f"{side}.final_ln", x)

    def _embed_source(self, src_ids: np.ndarray) -> Tensor:
        n = src_ids.shape[1]
        tok = ad.gather_rows(self._p("encoder.embed"), src_ids)
        pos = ad.gather_rows(self._p("encoder.pos"), np.arange(n))
        return ad.add(tok, pos)

    def encode_source_batch(self, src_ids: np.ndarray,
                            src_mask: Optional[np.ndarray]) -> Tensor:
        """Graph forward over a padded batch of source id arrays."""
        if src_ids.shape[1] > self.config.max_source_len:
            raise LengthExceededError(
                f"source length {src_ids.shape[1]} exceeds maximum "
                f"{self.config.max_source_len}")
        attn_mask = None
        if src_mask is not None:
            attn_mask = ((1.0 - src_mask) * _NEG).astype(self.dtype)[:, None, None, :]
        x = self._embed_source(src_ids)
        return self._encoder_stack("encoder", self.config.encoder_layers,
                                   self.config.encoder_heads, x, attn_mask)

    def encode_source(self, tokens: Sequence[str]) -> SourceEncoding:
        """Encode one utterance; deterministic given parameters and input."""
        if len(tokens) == 0:
            raise ShapeError("cannot encode an empty token sequence")
        ids = self.source_vocab.ids(tokens)[None, :]
        with ad.no_grad():
            states = self.encode_source_batch(ids, None)
        return SourceEncoding(states=states.data[0])

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
        longest = max(len(w) for w in descriptions)
        if longest + 1 > self.config.max_source_len:
            raise LengthExceededError(
                f"description length {longest} exceeds maximum "
                f"{self.config.max_source_len - 1}")
        m = len(tags)
        ids = np.zeros((m, longest + 1), dtype=np.int64)
        mask = np.zeros((m, longest + 1), dtype=self.dtype)
        ids[:, 0] = self.concept_vocab.index[SUMMARY]
        mask[:, 0] = 1.0
        for row, words in enumerate(descriptions):
            ids[row, 1:1 + len(words)] = self.concept_vocab.ids(words)
            mask[row, 1:1 + len(words)] = 1.0
        attn_mask = ((1.0 - mask) * _NEG).astype(self.dtype)[:, None, None, :]
        tok = ad.gather_rows(self._p("concept.embed"), ids)
        pos = ad.gather_rows(self._p("concept.pos"), np.arange(longest + 1))
        x = ad.add(tok, pos)
        x = self._encoder_stack("concept", self.config.concept_layers,
                                self.config.concept_heads, x, attn_mask)
        summary = ad.take_index(x, 0, axis=1)
        return ad.affine(summary, self._p("concept.adapter.w"), self._p("concept.adapter.b"))

    def encode_concepts(self, tags: Sequence[ConceptTag]) -> ConceptBank:
        """Encode tag descriptions into the bank used for decoding."""
        with ad.no_grad():
            vectors = self.encode_concepts_tensor(tags)
        return ConceptBank(tags=tuple(tags), vectors=vectors.data)

    def compile_domain(self, tags_or_bank: Union[Sequence[ConceptTag], ConceptBank]) -> CompiledDomain:
        """Freeze a bank as the static output space for a (new) domain."""
        if isinstance(tags_or_bank, ConceptBank):
            bank = tags_or_bank
        else:
            bank = self.encode_concepts(tags_or_bank)
        return CompiledDomain(bank=bank)

    # stepwise decoding (inference only)

    def target_embed(self, token: TargetToken, bank: ConceptBank) -> np.ndarray:
        """Decoder input embedding of one target token under a bank."""
        if isinstance(token, Pointer):
            if not 0 <= token.index < self.config.max_source_len:
                raise PointerRangeError(
                    f"pointer index {token.index} outside the embedding table "
                    f"(max {self.config.max_source_len - 1})")
            return self._arr("decoder.ptr_embed")[token.index]
        row = bank.row_index().get((token.tag.name, token.tag.boundary))
        if row is None:
            raise UnknownConceptError(
                f"concept {token.tag.token_string!r} not present in the bank")
        return bank.vectors[row]

    def initial_state(self, src: SourceEncoding) -> DecoderState:
        """One-beam decoder state with precomputed cross-attention caches."""
        cfg = self.config
        heads, hd = cfg.decoder_heads, cfg.width // cfg.decoder_heads
        self_k, self_v, cross_k, cross_v = [], [], [], []
        n = src.n
        for i in range(cfg.decoder_layers):
            prefix = f"decoder.{i}.cross"
            k = src.states @ self._arr(f"{prefix}.wk") + self._arr(f"{prefix}.bk")
            v = src.states @ self._arr(f"{prefix}.wv") + self._arr(f"{prefix}.bv")
            cross_k.append(k.reshape(n, heads, hd).transpose(1, 0, 2))
            cross_v.append(v.reshape(n, heads, hd).transpose(1, 0, 2))
            shape = (1, heads, cfg.max_target_len, hd)
            self_k.append(np.zeros(shape, dtype=self.dtype))
            self_v.append(np.zeros(shape, dtype=self.dtype))
        return DecoderState(
            self_keys=tuple(self_k), self_values=tuple(self_v),
            cross_keys=tuple(cross_k), cross_values=tuple(cross_v), t=0)

    def bos_embedding(self) -> np.ndarray:
        return self._arr("decoder.bos")

    def input_table(self, bank: ConceptBank, src: SourceEncoding) -> np.ndarray:
        """Decoder input embedding of every output index, (m + n, width).

        Row i < m is concept vector i of the bank; row m + j is the embedding
        of pointer j.
        """
        return np.concatenate([bank.vectors, self._arr("decoder.ptr_embed")[:src.n]])

    def _step_attention(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
        # q (beams, heads, 1, hd); k, v (beams, heads, t, hd) or (heads, t, hd)
        hd = q.shape[-1]
        logits = q @ np.swapaxes(k, -1, -2) / math.sqrt(hd)
        return _softmax_np(logits) @ v

    def decode_step(self, state: DecoderState, prev_embed: np.ndarray,
                    src: SourceEncoding, bank: Union[ConceptBank, CompiledDomain]
                    ) -> tuple[StepDistribution, DecoderState]:
        """One autoregressive step of every beam in ``state``.

        ``prev_embed`` holds each beam's decoder input, (beams, width); a
        single (width,) row is taken as one beam. The new self-attention key
        and value of each beam are written in place at position ``state.t``
        of the caches, which the returned state at t + 1 shares. The
        distribution's arrays are (beams, m + n).
        """
        if isinstance(bank, CompiledDomain):
            bank = bank.bank
        cfg = self.config
        t = state.t
        if t >= cfg.max_target_len:
            raise LengthExceededError(
                f"decoding step {t} exceeds maximum target length "
                f"{cfg.max_target_len}")
        d = cfg.width
        heads, hd = cfg.decoder_heads, d // cfg.decoder_heads
        x = prev_embed.reshape(-1, d) + self._arr("decoder.pos")[t]
        beams = x.shape[0]
        if beams != state.beams:
            raise ShapeError(f"{beams} decoder inputs for {state.beams} beams")
        for i in range(cfg.decoder_layers):
            prefix = f"decoder.{i}"
            keys, values = state.self_keys[i], state.self_values[i]
            h = _ln_np(x, self._arr(f"{prefix}.ln1.gain"), self._arr(f"{prefix}.ln1.bias"))
            q = (h @ self._arr(f"{prefix}.self.wq") + self._arr(f"{prefix}.self.bq"))
            k = (h @ self._arr(f"{prefix}.self.wk") + self._arr(f"{prefix}.self.bk"))
            v = (h @ self._arr(f"{prefix}.self.wv") + self._arr(f"{prefix}.self.bv"))
            keys[:, :, t] = k.reshape(beams, heads, hd)
            values[:, :, t] = v.reshape(beams, heads, hd)
            mix = self._step_attention(q.reshape(beams, heads, 1, hd),
                                       keys[:, :, :t + 1], values[:, :, :t + 1])
            x = x + mix.reshape(beams, d) @ self._arr(f"{prefix}.self.wo") \
                + self._arr(f"{prefix}.self.bo")

            h = _ln_np(x, self._arr(f"{prefix}.ln2.gain"), self._arr(f"{prefix}.ln2.bias"))
            q = (h @ self._arr(f"{prefix}.cross.wq") + self._arr(f"{prefix}.cross.bq"))
            mix = self._step_attention(q.reshape(beams, heads, 1, hd),
                                       state.cross_keys[i], state.cross_values[i])
            x = x + mix.reshape(beams, d) @ self._arr(f"{prefix}.cross.wo") \
                + self._arr(f"{prefix}.cross.bo")

            h = _ln_np(x, self._arr(f"{prefix}.ln3.gain"), self._arr(f"{prefix}.ln3.bias"))
            hidden, _ = ad.gelu_kernel(
                h @ self._arr(f"{prefix}.ff.w1") + self._arr(f"{prefix}.ff.b1"))
            x = x + hidden @ self._arr(f"{prefix}.ff.w2") + self._arr(f"{prefix}.ff.b2")

        d_t = _ln_np(x, self._arr("decoder.final_ln.gain"), self._arr("decoder.final_ln.bias"))
        concept_q = d_t @ self._arr("head.concept.w") + self._arr("head.concept.b")
        pointer_q = d_t @ self._arr("head.pointer.w") + self._arr("head.pointer.b")
        s = concept_q @ bank.vectors.T / math.sqrt(d)
        a = pointer_q @ src.states.T / math.sqrt(d)
        log_probs = _log_softmax_np(np.concatenate([s, a], axis=1))
        new_state = DecoderState(
            self_keys=state.self_keys, self_values=state.self_values,
            cross_keys=state.cross_keys, cross_values=state.cross_values, t=t + 1,
            beams=beams)
        return StepDistribution(
            concept_scores=s, pointer_scores=a,
            probabilities=np.exp(log_probs), log_probabilities=log_probs), new_state

    def forward_teacher_forced(self, utterance: Utterance, target: TargetSequence,
                               bank: Union[ConceptBank, CompiledDomain]
                               ) -> list[StepDistribution]:
        """Per-position distributions conditioned on the gold prefix.

        This is literally the stepwise decode loop fed gold tokens, so its
        outputs match `decode_step` bit for bit; each has a beam axis of one.
        """
        if isinstance(bank, CompiledDomain):
            bank = bank.bank
        src = self.encode_source(utterance.tokens)
        state = self.initial_state(src)
        prev = self.bos_embedding()
        out: list[StepDistribution] = []
        for token in target.tokens:
            dist, state = self.decode_step(state, prev, src, bank)
            out.append(dist)
            prev = self.target_embed(token, bank)
        return out

    # batched teacher-forced forward (training)

    def build_batch(self, records: Sequence, bank_tags: Sequence[ConceptTag]) -> PaddedBatch:
        """Pad and index a record batch against a bank's m + n layout."""
        cfg = self.config
        rows = {(t.name, t.boundary): i for i, t in enumerate(bank_tags)}
        m = len(bank_tags)
        n_max = max(len(r.utterance.tokens) for r in records)
        l_max = max(len(r.target.tokens) for r in records)
        if n_max > cfg.max_source_len:
            raise LengthExceededError(
                f"source length {n_max} exceeds maximum {cfg.max_source_len}")
        if l_max > cfg.max_target_len:
            raise LengthExceededError(
                f"target length {l_max} exceeds maximum {cfg.max_target_len}")
        b = len(records)
        src_ids = np.zeros((b, n_max), dtype=np.int64)
        src_mask = np.zeros((b, n_max), dtype=self.dtype)
        gold = np.zeros((b, l_max), dtype=np.int64)
        tgt_mask = np.zeros((b, l_max), dtype=self.dtype)
        bos_sel = np.zeros((b, l_max, 1), dtype=self.dtype)
        ptr_sel = np.zeros((b, l_max, 1), dtype=self.dtype)
        ptr_ids = np.zeros((b, l_max), dtype=np.int64)
        con_sel = np.zeros((b, l_max, 1), dtype=self.dtype)
        con_ids = np.zeros((b, l_max), dtype=np.int64)

        def token_row(token: TargetToken) -> int:
            if isinstance(token, Pointer):
                return m + token.index
            row = rows.get((token.tag.name, token.tag.boundary))
            if row is None:
                raise UnknownConceptError(
                    f"concept {token.tag.token_string!r} not present in the bank")
            return row

        for i, record in enumerate(records):
            n = len(record.utterance.tokens)
            src_ids[i, :n] = self.source_vocab.ids(record.utterance.tokens)
            src_mask[i, :n] = 1.0
            length = len(record.target.tokens)
            tgt_mask[i, :length] = 1.0
            bos_sel[i, 0, 0] = 1.0
            for t, token in enumerate(record.target.tokens):
                gold[i, t] = token_row(token)
            for t, token in enumerate(record.target.tokens[:-1]):
                # decoder input at position t+1 is gold token t
                if isinstance(token, Pointer):
                    ptr_sel[i, t + 1, 0] = 1.0
                    ptr_ids[i, t + 1] = token.index
                else:
                    con_sel[i, t + 1, 0] = 1.0
                    con_ids[i, t + 1] = rows[(token.tag.name, token.tag.boundary)]
        return PaddedBatch(src_ids=src_ids, src_mask=src_mask, gold=gold,
                           tgt_mask=tgt_mask, bos_sel=bos_sel, ptr_sel=ptr_sel,
                           ptr_ids=ptr_ids, con_sel=con_sel, con_ids=con_ids,
                           n_max=n_max, m=m)

    def teacher_log_probs(self, batch: PaddedBatch, bank_vectors: Tensor) -> Tensor:
        """Gradient-recording log-probabilities (B, L, m + n_max) for a batch."""
        cfg = self.config
        l_max = batch.gold.shape[1]
        enc = self.encode_source_batch(batch.src_ids, batch.src_mask)

        bos = ad.reshape(self._p("decoder.bos"), (1, 1, cfg.width))
        ptr = ad.gather_rows(self._p("decoder.ptr_embed"), batch.ptr_ids)
        con = ad.gather_rows(bank_vectors, batch.con_ids)
        x = ad.add(ad.add(ad.mul(ad.constant(batch.bos_sel), bos),
                          ad.mul(ad.constant(batch.ptr_sel), ptr)),
                   ad.mul(ad.constant(batch.con_sel), con))
        pos = ad.gather_rows(self._p("decoder.pos"), np.arange(l_max))
        x = ad.add(x, pos)

        causal = (np.triu(np.ones((l_max, l_max), dtype=self.dtype), k=1)
                  * _NEG)[None, None, :, :]
        src_pad = ((1.0 - batch.src_mask) * _NEG).astype(self.dtype)[:, None, None, :]
        for i in range(cfg.decoder_layers):
            prefix = f"decoder.{i}"
            h = self._ln(f"{prefix}.ln1", x)
            x = ad.add(x, self._mha(f"{prefix}.self", h, h, cfg.decoder_heads, causal))
            h = self._ln(f"{prefix}.ln2", x)
            x = ad.add(x, self._mha(f"{prefix}.cross", h, enc, cfg.decoder_heads, src_pad))
            x = ad.add(x, self._ff(f"{prefix}.ff", self._ln(f"{prefix}.ln3", x)))
        d_t = self._ln("decoder.final_ln", x)

        concept_q = ad.affine(d_t, self._p("head.concept.w"), self._p("head.concept.b"))
        pointer_q = ad.affine(d_t, self._p("head.pointer.w"), self._p("head.pointer.b"))
        scale = 1.0 / math.sqrt(cfg.width)
        s = ad.scale(ad.matmul(concept_q, ad.transpose(bank_vectors, (1, 0))), scale)
        a = ad.scale(ad.matmul(pointer_q, ad.transpose(enc, (0, 2, 1))), scale)
        pointer_pad = ((1.0 - batch.src_mask) * _NEG).astype(self.dtype)[:, None, :]
        a = ad.add(a, ad.constant(pointer_pad))
        logits = ad.concat([s, a], axis=-1)
        return ad.log_softmax(logits)

    # persistence

    def save(self, path: Union[str, Path],
             train_tags: Sequence[ConceptTag] = ()) -> None:
        """Write the binary parameter file and its JSON sidecar."""
        path = Path(path)
        ad.save_parameters(self.params, path, self.config.precision)
        sidecar = {
            "config": asdict(self.config),
            "source_vocab": list(self.source_vocab.tokens),
            "concept_vocab": list(self.concept_vocab.tokens),
            "train_tags": [
                {"name": t.name, "kind": t.kind, "boundary": t.boundary,
                 "description": t.description}
                for t in train_tags],
            "digest": self.identity_digest(),
        }
        tmp = path.with_name(path.name + ".json.tmp")
        tmp.write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n",
                       encoding="utf-8")
        tmp.replace(path.with_name(path.name + ".json"))

    def identity_digest(self) -> str:
        """Hash of the structural config plus both vocabularies."""
        payload = json.dumps(
            {"config": asdict(self.config),
             "source_vocab": list(self.source_vocab.tokens),
             "concept_vocab": list(self.concept_vocab.tokens)},
            sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    @classmethod
    def load(cls, path: Union[str, Path]) -> tuple["ConceptModel", list[ConceptTag]]:
        """Rebuild a model (and its training-time tag list) from a checkpoint."""
        path = Path(path)
        sidecar = json.loads(path.with_name(path.name + ".json").read_text(encoding="utf-8"))
        config = ModelConfig(**sidecar["config"])
        model = cls(config, Vocabulary(sidecar["source_vocab"]),
                    Vocabulary(sidecar["concept_vocab"]), seed=0)
        arrays, precision = ad.load_parameters(path)
        if precision != config.precision:
            raise ValueError(
                f"{path}: precision {precision} does not match config {config.precision}")
        missing = sorted(set(model.params) - set(arrays))
        if missing:
            raise CheckpointMismatchError(f"{path}: missing parameters {missing}")
        for name, data in arrays.items():
            if name not in model.params:
                raise CheckpointMismatchError(f"{path}: unexpected parameter {name!r}")
            if model.params[name].data.shape != data.shape:
                raise CheckpointMismatchError(
                    f"{path}: shape {data.shape} for parameter {name!r}, "
                    f"model has {model.params[name].data.shape}")
            model.params[name].data = data
        tags = [ConceptTag(name=t["name"], kind=t["kind"], boundary=t["boundary"],
                           description=t["description"])
                for t in sidecar["train_tags"]]
        return model, tags
