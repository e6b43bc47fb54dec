"""Seeded mutation tests of every file format the package reads (after
Claessen & Hughes, 2000, "QuickCheck").

Each mutant either loads what a clean parse of its bytes gives or raises a
`ConceptParseError`; no other exception may escape. A checkpoint loads only
the saved config and the values its sidecar's hash names, a TSV record passes
`check_target`, and a wiki record's pointers index its utterance. Byte mutants flip, insert or delete one to
three bytes, drawn from `np.random.default_rng` with a fixed seed. Field
mutants replace one value of the JSON, in turn every value, with each entry
of `FIELD_POOL`. The 1,373 cases: a TINY checkpoint's sidecar with each of
its 45 fields replaced by each pool entry (405) and 300 byte mutants; 100
parameter files, cut, extended or flipped, half with a sidecar rehashed to
match; 60 parameter files with one value made NaN or infinite and the sidecar
rehashed, none of which may load; 200 TSV corpora; a wiki JSON line with each
of its 12 fields replaced by each pool entry (108) and 200 JSON-lines byte
mutants.
"""

import hashlib
import json

import numpy as np
import pytest

from concept_parse.data import load_topv2_tsv, load_wikiwiki_jsonl
from concept_parse.errors import CheckpointMismatchError, ConceptParseError
from concept_parse.model import ConceptModel
from concept_parse.parse import Pointer, check_target
from concept_parse.synthetic import transfer_pair_rows

from helpers import (
    TINY,
    build_model,
    records_from_rows,
    wiki_payloads,
    write_topv2_tsv,
    write_wiki_jsonl,
)

# JSON texts that replace a field: each a wrong type, an overflow, a huge
# count, an empty value or nesting past the parser's recursion limit
FIELD_POOL = ("null", "true", "2.0", "1e400", str(1 << 40), '""', "[]", "{}",
              "[" * 100_000 + "]" * 100_000)
_HOLE = "\x00mutant\x00"


def byte_mutant(rng, data: bytes) -> bytes:
    """``data`` with one to three bytes flipped, inserted or deleted."""
    out = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        op, at = int(rng.integers(0, 3)), int(rng.integers(0, len(out) + 1))
        if op == 0 or not out:
            out.insert(at, int(rng.integers(0, 256)))
        elif op == 1:
            out[at % len(out)] ^= int(rng.integers(1, 256))
        else:
            del out[at % len(out)]
    return bytes(out)


def field_mutants(value):
    """The JSON text of ``value`` with one field replaced by one pool entry,
    for every field (dict entry or list element, at any depth) and entry."""
    def slots(node):
        keys = node.keys() if isinstance(node, dict) else \
            range(len(node)) if isinstance(node, list) else ()
        for key in keys:
            yield node, key
            yield from slots(node[key])

    for node, key in list(slots(value)):
        kept, node[key] = node[key], _HOLE
        text = json.dumps(value)
        node[key] = kept
        for replacement in FIELD_POOL:
            yield text.replace(json.dumps(_HOLE), replacement).encode("utf-8")


def loads_or_fails_typed(load, path):
    """``load(path)``, or None when it raises a `ConceptParseError`."""
    try:
        return load(path)
    except ConceptParseError:
        return None


@pytest.fixture
def checkpoint(tmp_path):
    model = build_model(records_from_rows(transfer_pair_rows(4, seed=0)), seed=1, **TINY)
    path = tmp_path / "model.ckpt"
    model.save(path)
    return model, path, path.with_name(path.name + ".json")


def assert_loads_saved(path, model, values):
    """A checkpoint that loads holds the saved config, and the ``values`` its
    sidecar's ``params_sha256`` names."""
    loaded = loads_or_fails_typed(ConceptModel.load, path)
    if loaded is not None:
        assert loaded.config == model.config
        assert loaded.value_buffer().tobytes() == values
    return loaded is not None


def test_sidecar_mutants(checkpoint):
    model, path, sidecar_path = checkpoint
    clean = sidecar_path.read_bytes()
    rng = np.random.default_rng(2000)
    mutants = [*field_mutants(json.loads(clean)),
               *(byte_mutant(rng, clean) for _ in range(300))]
    loaded = 0
    for mutant in mutants:
        sidecar_path.write_bytes(mutant)
        loaded += assert_loads_saved(path, model, model.value_buffer().tobytes())
    assert len(mutants) > 500 and loaded > 0  # whitespace flips still load


def test_parameter_file_mutants(checkpoint):
    model, path, sidecar_path = checkpoint
    clean, sidecar = path.read_bytes(), json.loads(sidecar_path.read_bytes())
    rng = np.random.default_rng(1990)
    loaded = 0
    for case in range(100):
        op, at = case % 3, int(rng.integers(0, len(clean)))
        mutant = (clean[:at] if op == 0 else clean + rng.bytes(at % 64 + 1) if op == 1
                  else byte_mutant(rng, clean))
        path.write_bytes(mutant)
        # odd cases rehash the sidecar to match, so the size checks decide
        named = mutant if case % 2 else clean
        sidecar["params_sha256"] = hashlib.sha256(named).hexdigest()
        sidecar_path.write_text(json.dumps(sidecar), encoding="utf-8")
        loaded += assert_loads_saved(path, model, named)
    assert loaded > 0  # a rehashed flip of a value byte loads that value


def test_non_finite_parameter_file_mutants(checkpoint):
    model, path, sidecar_path = checkpoint
    values, sidecar = model.value_buffer().astype("<f4"), json.loads(sidecar_path.read_bytes())
    rng = np.random.default_rng(1991)
    for _ in range(60):
        # all-ones exponent, random sign and mantissa: infinite when the mantissa is 0
        bits = np.uint32(0x7F800000 | int(rng.integers(0, 2)) << 31
                         | int(rng.integers(0, 1 << 23)) * int(rng.integers(0, 2)))
        mutant = values.copy()
        mutant.view("<u4")[int(rng.integers(0, mutant.size))] = bits
        blob = mutant.tobytes()
        path.write_bytes(blob)
        sidecar["params_sha256"] = hashlib.sha256(blob).hexdigest()
        sidecar_path.write_text(json.dumps(sidecar), encoding="utf-8")
        with pytest.raises(CheckpointMismatchError, match="NaN or Inf"):
            ConceptModel.load(path)


def test_tsv_mutants(tmp_path):
    path = tmp_path / "corpus.tsv"
    write_topv2_tsv(path, transfer_pair_rows(3, seed=0))
    clean = path.read_bytes()
    rng = np.random.default_rng(1970)
    for _ in range(200):
        path.write_bytes(byte_mutant(rng, clean))
        loaded = loads_or_fails_typed(load_topv2_tsv, path)
        for record in loaded[0] if loaded else ():
            check_target(record.target, record.utterance)


def test_wiki_jsonl_mutants(tmp_path):
    path = tmp_path / "wiki.jsonl"
    payloads = wiki_payloads(count=4, seed=0)
    write_wiki_jsonl(payloads, path)
    clean = path.read_bytes()
    rest = clean[clean.index(b"\n"):]
    rng = np.random.default_rng(1983)
    mutants = [*(first + rest for first in field_mutants(payloads[0])),
               *(byte_mutant(rng, clean) for _ in range(200))]
    for mutant in mutants:
        path.write_bytes(mutant)
        loaded = loads_or_fails_typed(load_wikiwiki_jsonl, path)
        for record in loaded[0] if loaded else ():
            n = len(record.utterance.tokens)
            assert all(0 <= token.index < n for token in record.target
                       if isinstance(token, Pointer))
