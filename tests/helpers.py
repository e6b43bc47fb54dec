"""Shared fixtures for the tests, and the oracles they compare against.

Fixtures: model builders, a parser for target token strings, the labeled
spans of a target over an utterance long enough for it, a random
parse-tree generator for round-trip property tests, a navigation/weather
corpus, wiki-style pretraining payloads, writers for the TSV and JSON-lines
formats the loaders read, and a parameter alone in its own arena. Oracles: the
tree walks that write a tree's target sequence and annotation and that count
its labeled spans and labels, the per-beam search, the stepwise teacher-forced
forward, single-query and multi-head attention through single graph ops, the
attention and feed-forward sublayers composed of single graph ops, a no-grad
batch cross-entropy, per-parameter Adam, the shared kernels' reductions
written with the ndarray methods, and the truncated-normal draw that re-scans
the whole array."""

import json
import math
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

import concept_parse.autodiff as ad
from concept_parse.data import load_wikiwiki_jsonl, record_from_row, tags_from_records
from concept_parse.decoding import Hypothesis
from concept_parse.errors import ShapeError, UnknownTagFormatError
from concept_parse.model import ConceptModel, ModelConfig, _token_at, build_vocabularies
from concept_parse.parse import Pointer, check_target, make_tag, target_tags, tokenize_utterance
from concept_parse.synthetic import PLACES
from concept_parse.training import batch_nll_tensor


def records_from_rows(rows):
    return [record_from_row(*row) for row in rows]


def build_model(records, tags=None, wiki_records=(), seed=0, **config_kwargs):
    """A model whose vocabularies cover the given records and pretraining data."""
    tags = tags if tags is not None else tags_from_records(records)
    token_sequences = [r.utterance.tokens for r in records]
    token_sequences += [r.utterance.tokens for r in wiki_records]
    descriptions = [t.description for t in tags]
    descriptions += [t.description for r in wiki_records for t in target_tags(r.target)]
    source_vocab, concept_vocab = build_vocabularies(token_sequences, descriptions)
    config = ModelConfig(**config_kwargs)
    return ConceptModel(config, source_vocab, concept_vocab, seed=seed)


TINY = dict(width=32, layers=1, heads=2, max_source_len=32, max_target_len=48, ff_width=64)


def split_tag_token(token):
    """The (name, boundary) of a tag token string: ``[NAME`` begins, ``NAME]`` ends."""
    if token.startswith("[") and len(token) > 1:
        return token[1:], "begin"
    if token.endswith("]") and len(token) > 1:
        return token[:-1], "end"
    raise UnknownTagFormatError(f"not a tag token: {token!r}")


def token_from_string(s):
    """One serialized target token; tag descriptions come from naturalization."""
    if s.startswith("@ptr_"):
        return Pointer(int(s[5:]))
    return make_tag(*split_tag_token(s))


def sequence_from_strings(strings):
    """A target sequence from serialized tokens such as ``["[IN:A", "@ptr_0", "IN:A]"]``."""
    return tuple(token_from_string(s) for s in strings)


def target_spans(seq):
    """`check_target`'s labeled spans of a sequence, over an utterance just long
    enough for its pointers."""
    n = 1 + max((t.index for t in seq if isinstance(t, Pointer)), default=0)
    return check_target(seq, tokenize_utterance(" w" * n))


FOODS = ["coffee", "pizza", "sushi", "bagel", "soup"]
TIMES = ["tomorrow", "tonight", "today", "monday", "friday"]
CITIES = ["boston", "austin", "denver", "seattle", "oslo"]

# compositional example used throughout the golden tests
COMPOSITIONAL_UTTERANCE = "How far is the coffee shop"
COMPOSITIONAL_ANNOTATION = (
    "[IN:GET_DISTANCE How far is [SL:DESTINATION [IN:GET_RESTAURANT_LOCATION "
    "the [SL:TYPE_FOOD coffee ] shop ] ] ]"
)


# the frames of the navigation and weather rows, one per ``kind`` draw
_NAVIGATION = (
    "[IN:GET_DISTANCE how far is [SL:DESTINATION the {place} ] ]",
    "[IN:GET_ETA when do we reach [SL:DESTINATION the {place} ] [SL:DATE_TIME {time} ] ]",
    "[IN:GET_DISTANCE how far is [SL:DESTINATION the {place} ] [SL:DATE_TIME {time} ] ]",
)
_WEATHER = (
    "[IN:GET_WEATHER what is the weather in [SL:LOCATION {city} ] ]",
    "[IN:GET_SUNSET when does the sun set in [SL:LOCATION {city} ] ]",
    "[IN:GET_WEATHER what is the weather in [SL:LOCATION {city} ] [SL:DATE_TIME {time} ] ]",
)


def _annotated_row(domain, annotation):
    """A (domain, utterance, annotation) row whose utterance is the annotation's words."""
    words = [item for item in annotation.split() if item != "]" and not item.startswith("[")]
    return domain, " ".join(words), annotation


def two_domain_rows(per_domain=50, seed=0):
    """A navigation/weather corpus of (domain, utterance, annotation) rows,
    four labels per domain."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(per_domain):
        place = str(rng.choice(PLACES))
        time = str(rng.choice(TIMES))
        frame = _NAVIGATION[int(rng.integers(0, 3))]
        rows.append(_annotated_row("navigation", frame.format(place=place, time=time)))
    for _ in range(per_domain):
        city = str(rng.choice(CITIES))
        time = str(rng.choice(TIMES))
        frame = _WEATHER[int(rng.integers(0, 3))]
        rows.append(_annotated_row("weather", frame.format(city=city, time=time)))
    return rows


def write_topv2_tsv(path, rows):
    """Write (domain, utterance, semantic_parse) rows as a TSV corpus file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("domain\tutterance\tsemantic_parse\n")
        for domain, utterance, annotation in rows:
            handle.write(f"{domain}\t{utterance}\t{annotation}\n")
    return path


_WIKI_TYPES = [
    ("PLACE_KIND", "famous place", PLACES),
    ("FOOD_KIND", "food kind", FOODS),
    ("TIME_KIND", "time word", TIMES),
    ("CITY_KIND", "city name", CITIES),
]


def wiki_payloads(count=120, seed=0):
    """Wiki-style contexts with typed mentions, as JSON-serializable dicts."""
    rng = np.random.default_rng(seed)
    payloads = []
    for _ in range(count):
        sentences = []
        mentions = []
        offset = 0
        for _ in range(int(rng.integers(1, 3))):
            entity, type_name, pool = _WIKI_TYPES[int(rng.integers(0, len(_WIKI_TYPES)))]
            word = str(rng.choice(pool))
            template = int(rng.integers(0, 3))
            if template == 0:
                span = "the " + word
                sentence = "we visit " + span + " every year ."
                start = len("we visit ")
            elif template == 1:
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


def write_wiki_jsonl(payloads, path):
    with open(path, "w", encoding="utf-8") as handle:
        for payload in payloads:
            handle.write(json.dumps(payload, sort_keys=True) + "\n")


def load_wiki(tmp_path, payloads):
    """(records, report) of `load_wikiwiki_jsonl` on the payloads written as JSON lines."""
    path = tmp_path / "w.jsonl"
    write_wiki_jsonl(payloads, path)
    return load_wikiwiki_jsonl(path)


FILLER_WORDS = PLACES + FOODS + TIMES + CITIES + [
    "the", "a", "is", "near", "open", "every", "we", "visit", "famous",
]
_INTENT_POOL = ["IN:ALPHA", "IN:BETA", "IN:GAMMA", "IN:DELTA"]
_SLOT_POOL = ["SL:ONE", "SL:TWO", "SL:THREE"]


@dataclass(frozen=True)
class Tree:
    """A labeled tree over utterance token indices; ``children`` holds
    subtrees and integer token indices in surface order."""

    name: str
    kind: str
    children: tuple = ()


def random_parse_example(rng, max_tokens=12, max_depth=4):
    """A random utterance with a random nested tree covering all its tokens."""
    n = int(rng.integers(1, max_tokens + 1))
    words = [str(rng.choice(FILLER_WORDS)) for _ in range(n)]
    utterance = tokenize_utterance(" ".join(words))

    def build(indices, depth, kind):
        pool = _INTENT_POOL if kind == "intent" else _SLOT_POOL
        name = str(rng.choice(pool))
        children = []
        i = 0
        while i < len(indices):
            run = int(rng.integers(1, min(4, len(indices) - i) + 1))
            chunk = indices[i:i + run]
            nest = depth < max_depth and len(chunk) >= 1 and rng.random() < 0.35
            if nest:
                other = "slot" if kind == "intent" else "intent"
                children.append(build(chunk, depth + 1, other))
            else:
                children.extend(chunk)
            i += run
        if depth < max_depth and rng.random() < 0.08:
            # occasional childless node, exercising empty-span handling
            other = "slot" if kind == "intent" else "intent"
            empty_pool = _SLOT_POOL if other == "slot" else _INTENT_POOL
            children.insert(int(rng.integers(0, len(children) + 1)),
                            Tree(name=str(rng.choice(empty_pool)), kind=other))
        return Tree(name=name, kind=kind, children=tuple(children))

    return utterance, build(list(range(n)), 0, "intent")


def random_roundtrip_corpus(count=500, seed=0):
    rng = np.random.default_rng(seed)
    return [random_parse_example(rng) for _ in range(count)]


def oracle_target(tree):
    """The target sequence of a tree by a depth-first walk: begin tag,
    children (indices as pointers), end tag."""
    def emit(node):
        yield make_tag(node.name, "begin")
        for child in node.children:
            yield from emit(child) if isinstance(child, Tree) else [Pointer(child)]
        yield make_tag(node.name, "end")

    return tuple(emit(tree))


def oracle_annotation(tree, utterance):
    """The bracketed seqlogical annotation of a tree over its utterance: its
    target's tokens written as opener, word or ``]``."""
    return " ".join(utterance.tokens[t.index] if isinstance(t, Pointer)
                    else f"[{t.name}" if t.boundary == "begin" else "]"
                    for t in oracle_target(tree))


def walk_spans_and_labels(tree):
    """Labeled spans (a multiset) and (name, kind) labels of a tree, by a
    depth-first walk.

    Each node gives (name, min leaf, max leaf) over the leaves of its subtree,
    or (name, None, None) when it has none.
    """
    spans, labels = Counter(), set()

    def walk(node):
        labels.add((node.name, node.kind))
        leaves = []
        for child in node.children:
            leaves.extend(walk(child) if isinstance(child, Tree) else [child])
        spans[(node.name, min(leaves), max(leaves)) if leaves
              else (node.name, None, None)] += 1
        return leaves

    walk(tree)
    return spans, labels


def parameter(name, data):
    """A parameter alone in its own arena, holding a copy of ``data``."""
    data = np.asarray(data)
    p = ad.arena_parameters({name: data.shape}, data.dtype)[name]
    p.data = data
    return p


def zero_grads(params):
    for p in params:
        p.grad.fill(0)


def reference_adam_step(params, state, lr, betas=(0.9, 0.999), eps=1e-8,
                        weight_decay=0.0):
    """Adam one parameter at a time in fresh arrays, the form `adam_step` replaces.

    ``state`` maps each parameter name to its (step, m, v) and is updated.
    """
    b1, b2 = betas
    for p in params:
        step, m, v = state.get(p.name, (0, np.zeros_like(p.data), np.zeros_like(p.data)))
        step += 1
        m = b1 * m + (1.0 - b1) * p.grad
        v = b2 * v + (1.0 - b2) * (p.grad * p.grad)
        m_hat = m / (1.0 - b1 ** step)
        v_hat = v / (1.0 - b2 ** step)
        data = p.data
        if weight_decay:
            data = data - lr * weight_decay * data
        p.data = data - lr * m_hat / (np.sqrt(v_hat) + eps)
        p.grad.fill(0)
        state[p.name] = (step, m, v)


def advance(depth, token):
    """New bracket depth and whether the sequence just finished structurally."""
    if isinstance(token, Pointer):
        return depth, False
    if token.boundary == "begin":
        return depth + 1, False
    if depth <= 1:
        # closes the root, or an end tag with nothing open
        return 0, True
    return depth - 1, False


def reference_beam_decode(model, utterance, bank, beam_width):
    """Per-beam search: one decode_step per live beam, every candidate sorted.

    Candidates are listed beam-major, then by output index, and sorted stably
    by score, so ties break as in `beam_decode`. Hypotheses are cut at the
    model's ``max_target_len``. Each candidate keeps the state its beam's step
    returned, which later steps of other candidates leave as it is.
    """
    state = model.initial_state(model.encode_source(utterance.tokens), bank)
    active = [((), 0.0, state, model.bos_index(bank.m), 0)]
    pool = []
    while active:
        candidates = []
        for tokens, log_prob, state, prev, depth in active:
            log_probs, new_state = model.decode_step(state, np.array([prev]))
            for index, lp in enumerate(log_probs[0]):
                candidates.append((log_prob + float(lp), tokens, depth, index,
                                   new_state))
        candidates.sort(key=lambda c: -c[0])
        active = []
        for log_prob, tokens, depth, index, state in candidates[:beam_width]:
            token = _token_at(index, bank)
            tokens = tokens + (token,)
            depth, finished = advance(depth, token)
            if finished:
                pool.append(Hypothesis(tokens=tokens, log_prob=log_prob))
            elif len(tokens) >= model.config.max_target_len:
                pool.append(Hypothesis(tokens=tokens, log_prob=log_prob,
                                       truncated=True))
            else:
                active.append((tokens, log_prob, state, index, depth))
    pool.sort(key=lambda h: -h.log_prob)
    return pool


def teacher_forcing_indices(model, utterance, target, bank):
    """Decoder inputs (BOS, then the gold shifted) and gold output indices of
    one target under ``bank``, as `build_batch` lays them out."""
    record = SimpleNamespace(utterance=utterance, target=target)
    batch = model.build_batch([record], bank.tags)
    return batch.inputs[0], batch.gold[0]


def forward_teacher_forced(model, utterance, target, bank):
    """Per-position distributions conditioned on the gold prefix.

    This is the stepwise decode loop fed the teacher-forcing inputs, so its
    log-probabilities match `decode_step` bit for bit; each has a beam axis
    of one.
    """
    inputs, _ = teacher_forcing_indices(model, utterance, target, bank)
    state = model.initial_state(model.encode_source(utterance.tokens), bank)
    out = []
    for prev in inputs:
        log_probs, state = model.decode_step(state, np.array([prev]))
        out.append(log_probs)
    return out


def batch_cross_entropy(model, records, tags):
    """Teacher-forced CE of a batch under the bank spanned by ``tags``."""
    with ad.no_grad():
        bank_vectors = model.encode_concepts_tensor(tags)
        return batch_nll_tensor(model, records, tags, bank_vectors).item()


def scaled_dot_attention(query, keys, values):
    """Single-query attention: weights = softmax(q . K / sqrt(d)); mix = weights . V."""
    if keys.data.ndim != 2 or values.data.ndim != 2:
        raise ShapeError("keys and values must be 2-d (k, d)")
    if query.data.shape[-1] != keys.data.shape[-1]:
        raise ShapeError(
            f"query width {query.data.shape} does not match keys {keys.data.shape}")
    if keys.data.shape[0] != values.data.shape[0]:
        raise ShapeError("keys and values must agree on the first dimension")
    d = keys.data.shape[-1]
    q2 = ad.reshape(query, (1, d)) if query.data.ndim == 1 else query
    logits = ad.scale(ad.matmul(q2, ad.transpose(keys, (1, 0))), 1.0 / math.sqrt(d))
    weights = ad.softmax(logits)
    mix = ad.matmul(weights, values)
    return (ad.reshape(weights, (keys.data.shape[0],)),
            ad.reshape(mix, (values.data.shape[-1],)))


def composed_attention(q, k, v, heads, mask=None):
    """Multi-head attention of (B, T, d) projections built from single graph
    ops (reshape, transpose, matmul, scale, add, softmax): the oracle for the
    attention inside the one-node `ad.mha`."""
    b, tq, d = q.data.shape
    tk, hd = k.data.shape[1], d // heads

    def split(t, length):
        return ad.transpose(ad.reshape(t, (b, length, heads, hd)), (0, 2, 1, 3))

    logits = ad.scale(ad.matmul(split(q, tq), ad.transpose(split(k, tk), (0, 1, 3, 2))),
                      1.0 / math.sqrt(hd))
    if mask is not None:
        logits = ad.add(logits, ad.constant(mask))
    mix = ad.matmul(ad.softmax(logits), split(v, tk))
    return ad.reshape(ad.transpose(mix, (0, 2, 1, 3)), (b, tq, d))


def composed_mha(x, w, b, heads, mask=None, kv=None):
    """`ad.mha`'s sublayer as `ad.affine` projections around `composed_attention`;
    projection i reads slice i of the stacked ``w`` (4, d, d) and ``b`` (4, d)."""
    wq, wk, wv, wo = (ad.take_index(w, i, 0) for i in range(4))
    bq, bk, bv, bo = (ad.take_index(b, i, 0) for i in range(4))
    source = x if kv is None else kv
    mix = composed_attention(ad.affine(x, wq, bq), ad.affine(source, wk, bk),
                             ad.affine(source, wv, bv), heads, mask)
    return ad.affine(mix, wo, bo)


def composed_feed_forward(x, w1, b1, w2, b2):
    """`ad.feed_forward`'s sublayer as `ad.affine`, `ad.gelu` and `ad.affine`."""
    return ad.affine(ad.gelu(ad.affine(x, w1, b1)), w2, b2)


# The method-call forms (ndarray.mean, .max, .sum) of the autodiff kernels'
# reductions. The softmax kernels equal them byte for byte; the layer-norm
# kernels take row means as products and are held to them, taken in double
# precision, within a stated tolerance.


def method_layer_norm(x, gain, bias, eps=1e-5):
    """`layer_norm_kernel`'s (result, normalized input, inverse deviation)."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    return xhat * gain + bias, xhat, inv


def method_layer_norm_input_grad(g, gain, xhat, inv):
    """The input gradient of `ad.layer_norm`'s vjp."""
    gy = g * gain
    mean_gy = gy.mean(axis=-1, keepdims=True)
    mean_gy_xhat = (gy * xhat).mean(axis=-1, keepdims=True)
    return inv * (gy - mean_gy - xhat * mean_gy_xhat)


def method_softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def method_log_softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def reference_trunc_normal(rng, shape, dtype=np.float32):
    """`ad.trunc_normal` as a loop that re-scans the whole array each round."""
    std = 0.02
    values = rng.normal(0.0, std, size=shape)
    limit = 2.0 * std
    for _ in range(16):
        mask = np.abs(values) > limit
        if not mask.any():
            break
        values[mask] = rng.normal(0.0, std, size=int(mask.sum()))
    return np.clip(values, -limit, limit).astype(dtype)
