"""Single-line mutants of the protocol rules, and the test that kills each.

Each `Mutant` names a module of ``src/concept_parse``, one of its source
lines (without indentation; it occurs exactly once in the module), the line
that replaces it, and the id of a test that fails under the mutant, or
``"equivalent: <reason>"`` where no test can tell the mutant from the rule.
The runner applies each mutant to a temporary copy of the repository, never
to the working tree, and runs its killing test there:

    python tests/mutants.py [module ...]

With no module it runs every mutant. It first checks that every killing test
passes on the unmutated copy, then prints one line per mutant, and exits 1 if
a mutant that is not equivalent survives (or its test run errs).
`tests/test_packaging.py` checks, in tier-1, that each table line occurs
exactly once in its module and that each killing test is defined.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
EQUIVALENT = "equivalent: "


class Mutant(NamedTuple):
    module: str
    line: str
    replacement: str
    killed_by: str


MUTANTS = (
    # the seven rules that no test pinned at the last re-anchor
    Mutant("data", "if any(counts.get(label, 0) < k for label in labels):",
           "if all(counts.get(label, 0) < k for label in labels):",
           "tests/test_data.py::TestSampleSpi::test_multi_label_records_cover_every_label"),
    Mutant("data", "n_held = max(1, round(fraction * len(domain_records))) \\",
           "n_held = max(0, round(fraction * len(domain_records))) \\",
           "tests/test_data.py::TestLeaveOneOut::test_a_small_domain_holds_back_one_record"),
    Mutant("training", "result.stopped_early = epoch < epochs - 1",
           "result.stopped_early = True",
           "tests/test_training.py::TestTrainKnownDomains::"
           "test_a_loop_that_runs_every_epoch_did_not_stop_early"),
    Mutant("training", "size=min(cfg.batch_size, len(known_records)))", "size=1)",
           "tests/test_training.py::TestFewshotFinetune::"
           "test_each_step_rehearses_a_full_known_batch"),
    Mutant("training", "[cfg.seed, 7_001],", "[cfg.seed],",
           "tests/test_training.py::TestPretrainLoop::test_shuffles_from_its_own_stream"),
    Mutant("parse", "spans[(token.name, min(inside), max(inside)) if inside",
           "spans[(token.name, inside[0], inside[-1]) if inside",
           "tests/test_parse.py::TestSpans::test_out_of_order_pointers_span_min_to_max"),
    Mutant("evaluation", '"em": int(pred == record.target),',
           '"em": int(pred_spans == gold_spans),',
           "tests/test_evaluation.py::TestExactMatch::"
           "test_equal_spans_in_another_order_are_no_match"),
    # a tag's kind: the root must be an intent, an opener an intent or a slot,
    # type text makes a tag open-type, and an open-type tag needs type text
    Mutant("parse", 'if _name_kind(root) != "intent":', "if False:",
           "tests/test_parse.py::TestSeqlogical::test_malformed[[SL:B x ]]"),
    Mutant("parse", 'if _name_kind(item[1:]) == "open-type":', "if False:",
           "tests/test_parse.py::TestSeqlogical::"
           "test_tag_opener_must_name_an_intent_or_slot[[IN:A [B x ] ]-MalformedAnnotationError]"),
    Mutant("parse", 'if type_text is None and kind != "open-type":',
           'if kind != "open-type":',
           "tests/test_parse.py::TestNaturalize::test_open_type_is_described_by_its_type_text"),
    Mutant("parse", 'body = " ".join((type_text or "").lower().split())',
           'body = " ".join((type_text or name).lower().split())',
           "tests/test_parse.py::TestNaturalize::test_open_type_requires_text"),
    # equivalent, or equivalent up to float rounding
    Mutant("parse", "if pos and not opened:  # only a closed root leaves nothing open",
           "if pos > 1 and not opened:  # only a closed root leaves nothing open",
           EQUIVALENT + "the token at position 0 opens a tag or raises, so a tag is "
           "open at position 1"),
    Mutant("evaluation", "_TF_CHUNK = 64", "_TF_CHUNK = 1",
           EQUIVALENT + "a record's teacher-forced argmax does not depend on the records "
           "beside it; only the padded shapes, and so float rounding, change"),
    Mutant("evaluation", '"valid": reason is None,',
           '"valid": reason is None and not best.truncated,',
           EQUIVALENT + "a truncated output never closes its root, so check_target "
           "already rejects it"),
    # the bank's tag order, the token-to-index rule, the pad rule, the digest check,
    # the position limit and the vocabulary's specials
    Mutant("data", "key=lambda tag: (tag.name, tag.boundary))",
           "key=lambda tag: (tag.boundary, tag.name))",
           "tests/test_data.py::TestTagsFromRecords::test_tags_sort_by_name_then_boundary"),
    Mutant("model", "self.config.max_source_len)", "self.config.max_source_len + 1)",
           "tests/test_model.py::TestTargetEmbed::test_last_pointer_row_and_the_bound"),
    Mutant("model", "if not 0 <= token.index < n:", "if not 0 <= token.index <= n:",
           "tests/test_model.py::TestBatchedForward::test_pointer_outside_utterance_rejected"),
    Mutant("model", "return m + token.index", "return token.index",
           "tests/test_model.py::TestTargetEmbed::test_last_pointer_row_and_the_bound"),
    Mutant("model", "inputs=np.concatenate([bos, gold[:, :-1]], axis=1))",
           "inputs=np.concatenate([bos, gold[:, 1:]], axis=1))",
           "tests/test_model.py::TestBatchedForward::"
           "test_inputs_index_the_decoder_input_table"),
    Mutant("model", "tgt_mask=(tgt_pad == 0.0).astype(self.dtype),",
           "tgt_mask=np.ones(gold.shape, dtype=self.dtype),",
           "tests/test_model.py::TestPadPositions::"
           "test_loss_and_gradients_ignore_inputs_at_padding[single]"),
    Mutant("model", 'if sidecar.get("digest") != model.identity_digest():', "if False:",
           "tests/test_model.py::TestPersistence::"
           "test_sidecar_digest_must_match_rebuilt_model[tampered_digest]"),
    Mutant("model", "if length > len(pos.data):", "if length >= len(pos.data):",
           "tests/test_model.py::TestPositionLimits::"
           "test_a_sequence_may_fill_its_position_table[target]"),
    Mutant("model",
           "self.tokens: tuple[str, ...] = (*_SPECIALS, *(t for t in tokens if t not in _SPECIALS))",
           "self.tokens: tuple[str, ...] = tuple(tokens)",
           "tests/test_model.py::TestVocabulary::test_specials_come_first"),
    # the beam search: its tie order, stopping rules, pool order and float64 scores
    Mutant("decoding", 'picked = np.argsort(-totals, kind="stable")[:beam_width]',
           "picked = np.argsort(-totals)[:beam_width]",
           "tests/test_model.py::TestNoDecoderLayers::test_decodes_and_teacher_forces"),
    Mutant("decoding", "finished = (moves < 0) & (depths <= 0)", "finished = depths <= 0",
           "tests/test_decode.py::TestBeamOracle::test_matches_exhaustive_enumeration"),
    Mutant("decoding", "finished = (moves < 0) & (depths <= 0)",
           "finished = (moves < 0) & (depths == 0)",
           "tests/test_decode.py::TestBeamOracle::test_matches_exhaustive_enumeration"),
    Mutant("decoding", "done = finished | capped", "done = finished",
           "tests/test_decode.py::TestBeamOracle::test_matches_exhaustive_enumeration"),
    Mutant("decoding", "depths = depths[parents] + moves", "depths = depths + moves",
           "tests/test_decode.py::TestBeamOracle::test_matches_exhaustive_enumeration"),
    Mutant("decoding", "pool.sort(key=lambda h: -h.log_prob)",
           "pool.sort(key=lambda h: h.log_prob)",
           "tests/test_decode.py::TestBeamOracle::test_matches_exhaustive_enumeration"),
    Mutant("decoding", "totals = (scores[:, None] + log_probs).ravel()",
           "totals = (scores[:, None] + log_probs.astype(np.float32)).ravel()",
           "tests/test_decode.py::TestBatchedBeamOracle::test_matches_per_beam_search"),
    Mutant("decoding", "truncated=not finished[beam]))", "truncated=False))",
           "tests/test_decode.py::TestBatchedBeamOracle::test_matches_per_beam_search"),
    Mutant("decoding",
           "paths = [paths[p] + (tokens[i],) for p, i in zip(parents.tolist(), indices.tolist())]",
           "paths = [paths[0] + (tokens[i],) for p, i in zip(parents.tolist(), indices.tolist())]",
           "tests/test_decode.py::TestBatchedBeamOracle::test_matches_per_beam_search"),
    # the schedule, Adam, and the backward of the attention and feed-forward sublayers
    Mutant("autodiff", "return schedule.base_lr * step / warmup",
           "return schedule.base_lr * (step + 1) / warmup",
           "tests/test_autodiff.py::TestSchedule::test_linear_warmup_value"),
    Mutant("autodiff", "return schedule.base_lr * (total - step + 1) / (total - warmup + 1)",
           "return schedule.base_lr * (total - step + 1) / (total + 1)",
           "tests/test_autodiff.py::TestSchedule::test_linear_decay_value"),
    Mutant("autodiff", "if not 0 < step <= total:", "if step > total:",
           "tests/test_autodiff.py::TestSchedule::test_no_steps_is_a_schedule"),
    Mutant("autodiff", "c1 = 1.0 - b1 ** arena.step", "c1 = 1.0",
           "tests/test_autodiff.py::TestAdam::test_first_step_close_to_signed_lr"),
    Mutant("autodiff", "c2 = 1.0 - b2 ** arena.step", "c2 = 1.0",
           "tests/test_autodiff.py::TestAdam::test_matches_scalar_reference"),
    Mutant("autodiff", "np.multiply(data, lr * weight_decay, out=s)",
           "np.multiply(data, weight_decay, out=s)",
           "tests/test_autodiff.py::TestAdam::test_decay_only_step"),
    Mutant("autodiff", "if len(arenas) != 1 or len(ids) != next(iter(arenas)).count:",
           "if len(arenas) != 1 or len(ids) > next(iter(arenas)).count:",
           "tests/test_arena.py::TestFlatAdam::test_part_of_an_arena_is_refused"),
    Mutant("autodiff", "gl /= math.sqrt(hd)", "gl /= 1.0",
           "tests/test_autodiff.py::TestOpGradients::test_attention[4-pad_mask]"),
    Mutant("autodiff", "gl -= np.add.reduce(gl * probs, axis=-1, keepdims=True)", "gl -= 0.0",
           "tests/test_autodiff.py::TestOpGradients::test_attention[4-pad_mask]"),
    Mutant("autodiff", "gpre = gelu_grad(pre, t)", "gpre = np.ones_like(pre)",
           "tests/test_autodiff.py::TestOpGradients::test_feed_forward"),
    Mutant("autodiff", "dx += slope", "dx += 0.0",
           "tests/test_autodiff.py::TestOpGradients::test_feed_forward"),
    Mutant("autodiff",
           "for i, (rows, grad) in enumerate(((x2, gq), (s2, gk), (s2, gv), (merged, g2))):",
           "for i, (rows, grad) in enumerate(((x2, gq), (s2, gv), (s2, gk), (merged, g2))):",
           "tests/test_autodiff.py::TestOpGradients::test_attention[4-pad_mask]"),
    # each regime starts Adam afresh and reads its rate at Adam's next step, and the
    # decoder reads a tag through its description
    Mutant("training", "arena.m[...], arena.v[...], arena.step = 0.0, 0.0, 0", "pass",
           "tests/test_training.py::TestFewshotFinetune::"
           "test_a_chained_regime_ends_as_one_resumed_from_a_checkpoint"),
    Mutant("training", '_optimize(model, losses["loss"], lr_at(schedule, arena.step + 1), cfg)',
           '_optimize(model, losses["loss"], lr_at(schedule, arena.step), cfg)',
           "tests/test_training.py::TestTrainKnownDomains::"
           "test_every_scheduled_step_runs_at_a_positive_rate"),
    Mutant("model", "words = tag.description.split()", "words = tags[0].description.split()",
           "tests/test_training.py::TestDescriptionAblation::"
           "test_rotated_descriptions_cost_known_domain_likelihood[0]"),
    # each decoder layer norm folds its gain and bias into the product that reads
    # it, and an inference entry checks its own output
    Mutant("model", 'bqkv = (w["ln1.bias"] @ sw + sb)[:, None]', "bqkv = sb[:, None]",
           "tests/test_model.py::TestBatchedForward::"
           "test_matches_stepwise_with_every_gain_and_bias_drawn"),
    Mutant("model", 'w1 = w["ln3.gain"][:, None] * w["ff.w1"]', 'w1 = w["ff.w1"]',
           "tests/test_model.py::TestBatchedForward::"
           "test_matches_stepwise_with_every_gain_and_bias_drawn"),
    Mutant("model", 'ad.require_finite(states.data, "encode_source")', "pass",
           "tests/test_model.py::TestInferenceChecksItsOutput::"
           "test_a_nan_weight_raises[encode_source-encoder.0.ff.w1]"),
    # the stacked parameters: one draw per trailing matrix, and the size a layout reads
    Mutant("model", "for matrix in view.reshape(-1, *shape[-2:]):", "for matrix in (view,):",
           "tests/test_model.py::TestModelConfig::test_the_seeded_values_are_pinned[default]"),
    Mutant("model", "return none + (one - none) * config.layers", "return none + (one - none)",
           "tests/test_model.py::TestPersistence::"
           "test_closed_form_size_is_the_layout_size[default]"),
)


def source_path(root: Path, module: str) -> Path:
    return root / "src" / "concept_parse" / f"{module}.py"


def mutate(source: str, mutant: Mutant) -> str:
    """``source`` with the one line whose text is ``mutant.line`` replaced,
    keeping its indentation; `ValueError` unless exactly one line matches."""
    lines = source.splitlines(keepends=True)
    at = [i for i, line in enumerate(lines) if line.strip() == mutant.line]
    if len(at) != 1:
        raise ValueError(f"{mutant.module}: {mutant.line!r} occurs {len(at)} times, not once")
    line = lines[at[0]]
    lines[at[0]] = line[:len(line) - len(line.lstrip())] + mutant.replacement + "\n"
    return "".join(lines)


def run_tests(copy: Path, ids: list[str]) -> int:
    """Exit code of pytest over ``ids`` in the copy, stopping at the first failure."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *ids], cwd=copy, env=env, capture_output=True).returncode


def main(argv: list[str]) -> int:
    known = sorted({m.module for m in MUTANTS})
    unknown = set(argv) - set(known)
    if unknown:
        print(f"unknown modules {sorted(unknown)}; the table has {known}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m.module in argv]
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".perfbench_out"))
        ids = sorted({m.killed_by for m in chosen if not m.killed_by.startswith(EQUIVALENT)})
        if ids and run_tests(copy, ids) != 0:
            print("a killing test fails on the unmutated copy", file=sys.stderr)
            return 2
        counts = {"killed": 0, "survived": 0, "error": 0, "equivalent": 0}
        for mutant in chosen:
            if mutant.killed_by.startswith(EQUIVALENT):
                outcome = "equivalent"
            else:
                path = source_path(copy, mutant.module)
                original = path.read_text(encoding="utf-8")
                path.write_text(mutate(original, mutant), encoding="utf-8")
                try:
                    code = run_tests(copy, [mutant.killed_by])
                finally:
                    path.write_text(original, encoding="utf-8")
                # pytest exits 1 when tests ran and one failed; other codes are errors
                outcome = {0: "survived", 1: "killed"}.get(code, "error")
            counts[outcome] += 1
            print(f"{outcome:10} {mutant.module}: {mutant.line} -> {mutant.replacement}")
    print(", ".join(f"{n} {outcome}" for outcome, n in counts.items()))
    return 1 if counts["survived"] or counts["error"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
