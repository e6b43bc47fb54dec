"""The benchmark workloads and the closed loop that measures them.

Each workload is a set-up (data and model, repeated to time it) and a *pass*,
a fixed amount of work that the loop repeats until the run's time is used up.
Passes of one run do identical work on identical inputs, so their outputs and,
in traced runs, their call counts must agree exactly; any disagreement is a
failed check. Why each workload exists is written in README.md.

Inputs come from ``concept_parse.synthetic`` with the workload seed; the model
is the default ``ModelConfig`` with a fixed initialisation seed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from concept_parse import autodiff as ad
from concept_parse import data, evaluation, synthetic, training
from concept_parse.errors import ConceptParseError
from concept_parse.model import ConceptModel, ModelConfig, build_vocabularies

from tracing import LAYER_METRICS, PASS_SPAN, SETUP_SPAN, SpanTree, Tracer

MODEL_SEED = 0
HELD_OUT = "beta"
BEAM_WIDTH = 4

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("latency_ms_p90", "ms"),
              ("records_per_s", "records/s"), ("pass_s", "s"))


@dataclass(frozen=True)
class Scale:
    """Sizes of every workload; ``Scale()`` is what the benchmark runs."""

    model: dict = field(default_factory=dict)   # ModelConfig overrides
    setup_reps: int = 15
    min_passes: int = 3
    # train
    train_per_domain: int = 120
    round_steps: int = 24
    tf_passes: int = 2
    min_steps: int = 100
    # decode
    decode_per_domain: int = 480
    decode_train_steps: int = 60
    decode_setup_reps: int = 3
    decode_utterances: Optional[int] = None     # None: every known-domain test record


@dataclass
class PassResult:
    """What one pass did: per-operation latencies, throughput and outputs."""

    latencies_ms: list[float] = field(default_factory=list)
    records: int = 0
    records_s: float = 0.0
    outputs: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    tf_eval_records: int = 0
    tf_eval_s: float = 0.0


# shared pieces

def corpus(rows, seed: int):
    """Records, the carved test pool and the leave-``beta``-out split."""
    records = [data.record_from_row(*row) for row in rows]
    train, test = data.carve_test_split(records, seed=seed)
    split = data.build_leave_one_out(train, test, HELD_OUT, seed=seed)
    return records, test, split


def new_model(scale: Scale, records) -> ConceptModel:
    """The default-config model with vocabularies covering ``records``."""
    source_vocab, concept_vocab = build_vocabularies(
        [r.utterance.tokens for r in records],
        [t.description for t in data.tags_from_records(records)])
    return ConceptModel(ModelConfig(**scale.model), source_vocab, concept_vocab,
                        seed=MODEL_SEED)


def step_batches(known_train, cfg: training.TrainConfig, steps: int) -> list[list]:
    """The first ``steps`` batches in ``train_known_domains`` order."""
    batches: list[list] = []
    epoch = 0
    while len(batches) < steps:
        rng = np.random.default_rng([cfg.seed, epoch])
        batches += training.make_batches(known_train, cfg.batch_size, rng)
        epoch += 1
    return batches[:steps]


def train_step(model: ConceptModel, batch, tags, lr: float,
               cfg: training.TrainConfig) -> float:
    """One update, the same public calls as ``train_known_domains``' inner loop."""
    bank_vectors = model.encode_concepts_tensor(tags)
    loss = training.batch_nll_tensor(model, batch, tags, bank_vectors)
    ad.backward(loss)
    ad.adam_step(model.parameters().values(), lr=lr, betas=cfg.adam_betas,
                 eps=cfg.adam_eps, weight_decay=cfg.weight_decay)
    return loss.item()


def run_steps(model, batches, tags, cfg, result: PassResult) -> float:
    """Train on ``batches`` with a warmup/decay schedule over them; last loss."""
    schedule = ad.Schedule(cfg.learning_rate, cfg.warmup_proportion, len(batches))
    loss = math.nan
    for step, batch in enumerate(batches, start=1):
        result.attempted += 1
        start = time.perf_counter()
        try:
            loss = train_step(model, batch, tags, ad.lr_at(schedule, step), cfg)
        except ConceptParseError:
            loss = math.nan
        elapsed = time.perf_counter() - start
        if not math.isfinite(loss):
            result.failed += 1
        result.latencies_ms.append(elapsed * 1e3)
        result.records += len(batch)
        result.records_s += elapsed
    return loss


def evaluate_each(model, domain, records, result: PassResult) -> dict:
    """Beam-4 ``evaluate_domain`` one utterance at a time; EM, F1, validity, hash."""
    em = valid = matched = predicted = gold = 0
    digest = hashlib.sha256()
    for record in records:
        result.attempted += 1
        start = time.perf_counter()
        try:
            report = evaluation.evaluate_domain(model, domain, [record],
                                                beam_width=BEAM_WIDTH)
        except ConceptParseError:
            result.failed += 1
            digest.update(b"<error>\n")
            continue
        finally:
            elapsed = time.perf_counter() - start
            result.latencies_ms.append(elapsed * 1e3)
            result.records += 1
            result.records_s += elapsed
        pred = report.outcomes[0]["pred"]
        digest.update(json.dumps(pred).encode("utf-8") + b"\n")
        em += round(report.em / 100.0)
        valid += round(report.validity / 100.0)
        matched += report.matched_spans
        predicted += report.predicted_spans
        gold += report.gold_spans
    precision = matched / predicted if predicted else 0.0
    recall = matched / gold if gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    n = len(records)
    return {"em": 100.0 * em / n, "f1": 100.0 * f1, "validity": 100.0 * valid / n,
            "hyp_sha256": digest.hexdigest()}


def params_digest(model: ConceptModel) -> str:
    digest = hashlib.sha256()
    for name, p in model.parameters().items():
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(p.data).tobytes())
    return digest.hexdigest()


# workloads

class Train:
    """Known-domain training steps, then teacher-forced accuracy passes.

    A pass starts from a freshly initialised model, takes ``round_steps``
    batch-16 steps and then makes ``tf_passes`` teacher-forced passes over the
    known records.
    """

    name = "train"
    report_names = {"latency_ms_p50": "train_step_ms_p50",
                    "latency_ms_p90": "train_step_ms_p90",
                    "records_per_s": "train_records_per_s",
                    "pass_s": "train_round_s"}

    def __init__(self, scale: Scale, seed: int):
        self.scale, self.seed = scale, seed
        self.cfg = training.TrainConfig()

    def setup(self) -> str:
        records, _, split = corpus(synthetic.transfer_pair_rows(
            self.scale.train_per_domain, seed=self.seed), self.seed)
        self.records = records
        self.known = list(split.known_train) + list(split.known_valid)
        self.tags = data.tags_from_records(self.known)
        self.batches = step_batches(list(split.known_train), self.cfg,
                                    self.scale.round_steps)
        self.model = new_model(self.scale, records)
        return data.corpus_fingerprint(records)["digest"]

    def min_passes(self) -> int:
        return max(self.scale.min_passes,
                   math.ceil(self.scale.min_steps / self.scale.round_steps))

    def prepare_pass(self) -> None:
        self.model = new_model(self.scale, self.records)

    def run_pass(self, result: PassResult) -> None:
        loss = run_steps(self.model, self.batches, self.tags, self.cfg, result)
        accuracies = []
        start = time.perf_counter()
        for _ in range(self.scale.tf_passes):
            result.attempted += 1
            try:
                accuracies.append(evaluation.teacher_forced_accuracy(
                    self.model, self.known, self.tags))
            except ConceptParseError:
                result.failed += 1
        result.tf_eval_s = time.perf_counter() - start
        result.tf_eval_records = self.scale.tf_passes * len(self.known)
        result.outputs = {"final_loss": float(loss).hex(), "final_loss_value": loss,
                          "tf_accuracy": accuracies}


class Decode:
    """Beam-4 evaluation of known-domain test utterances with a trained model.

    Set-up trains the model for a fixed number of steps with ``train_step``.
    A pass compiles the known domain and decodes every test utterance.
    """

    name = "decode"
    report_names = {"latency_ms_p50": "decode_ms_p50",
                    "latency_ms_p90": "decode_ms_p90",
                    "records_per_s": "decode_records_per_s",
                    "pass_s": "decode_pass_s"}

    def __init__(self, scale: Scale, seed: int):
        self.scale, self.seed = scale, seed
        self.cfg = training.TrainConfig()

    def setup(self) -> str:
        records, test, split = corpus(synthetic.transfer_pair_rows(
            self.scale.decode_per_domain, seed=self.seed), self.seed)
        known_train = list(split.known_train)
        self.tags = data.tags_from_records(known_train + list(split.known_valid))
        known_test = [r for r in test if r.domain != HELD_OUT]
        self.test = known_test[:self.scale.decode_utterances]
        self.model = new_model(self.scale, records)
        batches = step_batches(known_train, self.cfg, self.scale.decode_train_steps)
        loss = run_steps(self.model, batches, self.tags, self.cfg, PassResult())
        if not math.isfinite(loss):
            raise ConceptParseError("set-up training produced a non-finite loss")
        return params_digest(self.model)

    def min_passes(self) -> int:
        return self.scale.min_passes

    def prepare_pass(self) -> None:
        pass

    def run_pass(self, result: PassResult) -> None:
        domain = self.model.compile_domain(self.tags)
        result.outputs = evaluate_each(self.model, domain, self.test, result)


WORKLOADS = {w.name: w for w in (Train, Decode)}


# the closed loop

def _quantile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _passes(workload, count: Optional[int], seconds: float,
            tracer: Optional[Tracer],
            progress: Callable[[float], None] = lambda share: None
            ) -> tuple[list[PassResult], list[float]]:
    """Run passes until ``count`` are done, or ``seconds`` and the minimum are.

    ``progress`` is told, before each pass, what share of ``seconds`` is gone.
    """
    results: list[PassResult] = []
    walls: list[float] = []
    began = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - began
        progress(min(elapsed / seconds, 1.0) if seconds else 1.0)
        if count is not None and len(results) >= count:
            break
        if count is None and len(results) >= workload.min_passes() and \
                elapsed >= seconds:
            break
        workload.prepare_pass()
        gc.collect()
        result = PassResult()
        start = time.perf_counter()
        with tracer.span(PASS_SPAN) if tracer else nullcontext():
            workload.run_pass(result)
        walls.append(time.perf_counter() - start)
        results.append(result)
    return results, walls


def _mismatches(values: list) -> int:
    """Number of values that differ from the first."""
    return sum(v != values[0] for v in values[1:])


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: Path,
        program: str, scale: Scale = Scale()) -> dict:
    """Set up, measure and check one workload; returns the run's record.

    ``program`` identifies the code and environment that made the outputs:
    outputs are compared with a stored earlier run only when it is the same.
    """
    workload = WORKLOADS[name](scale, seed)
    tracer = Tracer() if trace else None
    checks: dict[str, bool] = {}
    attempted = failed = 0

    reps = scale.decode_setup_reps if name == "decode" else scale.setup_reps
    setup_times, fingerprints = [], []

    def set_up_to(share: float) -> None:
        # Set-ups are spread over the untraced passes, so that setup_s samples
        # the machine over the same stretch of time as the other metrics.
        while len(setup_times) < max(1, math.ceil(reps * share)):
            gc.collect()
            start = time.perf_counter()
            with tracer.installed() if tracer else nullcontext():
                with tracer.span(SETUP_SPAN) if tracer else nullcontext():
                    fingerprints.append(workload.setup())
            setup_times.append(time.perf_counter() - start)

    set_up_to(0.0)
    # one untimed pass, so that lazy initialisation and caches are warm
    workload.prepare_pass()
    workload.run_pass(PassResult())

    plain, plain_walls = _passes(workload, None, seconds / 2 if trace else seconds,
                                 None, set_up_to)
    results = plain
    if trace:
        with tracer.installed():
            traced, traced_walls = _passes(workload, len(plain), 0.0, tracer)
        results = plain + traced
    setup_mismatches = _mismatches(fingerprints)
    checks["setup_repeats"] = setup_mismatches == 0
    failed += setup_mismatches
    for r in results:
        attempted += r.attempted
        failed += r.failed
    mismatches = _mismatches([r.outputs for r in results])
    checks["outputs_repeat"] = mismatches == 0
    failed += mismatches

    record: dict = {"workload": name, "seed": seed, "trace": trace,
                    "outputs": results[0].outputs}
    if trace:
        tree = SpanTree(tracer)
        counts = tree.pass_counts()
        count_mismatches = _mismatches(counts)
        checks["counts_repeat"] = count_mismatches == 0
        failed += count_mismatches
        overhead = (statistics.median(traced_walls) / statistics.median(plain_walls)
                    - 1.0) * 100.0
        metrics = tree.layer_metrics(overhead)
        units = dict(LAYER_METRICS)
        record["counts"] = counts[0]
        record["metrics"] = {k: {"value": metrics[k], "unit": units[k]}
                             for k, _ in LAYER_METRICS}
        tracer.write(out_dir / f"trace-{name}.json")
    else:
        latencies = [x for r in results for x in r.latencies_ms]
        values = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
            "latency_ms_p90": _quantile(latencies, 90),
            "records_per_s": sum(r.records for r in results)
            / sum(r.records_s for r in results),
            "pass_s": statistics.median(plain_walls),
        }
        samples = {"setup_s": len(setup_times), "peak_rss_mb": 1,
                   "latency_ms_p90": len(latencies),
                   "records_per_s": sum(r.records for r in results),
                   "pass_s": len(plain_walls)}
        record["metrics"] = {k: {"value": values[k], "unit": unit, "n": samples[k],
                                 "name": workload.report_names.get(k, k)}
                             for k, unit in END_TO_END}
        # reported beside the gated metrics; see README.md for why
        record["also"] = {"latency_ms_p50": {
            "value": _quantile(latencies, 50), "unit": "ms", "n": len(latencies),
            "name": workload.report_names["latency_ms_p50"]}}
        tf_records = sum(r.tf_eval_records for r in results)
        if tf_records:
            record["also"]["tf_eval_records_per_s"] = {
                "value": tf_records / sum(r.tf_eval_s for r in results),
                "unit": "records/s", "n": tf_records}

    stored_ok = check_against_stored(out_dir, name, seed, program, record)
    checks["repeats_across_runs"] = stored_ok
    failed += int(not stored_ok)
    record.update(checks=checks, attempted=max(attempted, 1), failed=failed,
                  correct=failed == 0 and all(checks.values()))
    return record


def check_against_stored(out_dir: Path, name: str, seed: int, program: str,
                         record: dict) -> bool:
    """Compare outputs and counts with an earlier run of the same program and seed."""
    path = out_dir / "checks" / f"{name}-seed{seed}.json"
    stored: dict = {}
    if path.exists():
        stored = json.loads(path.read_text(encoding="utf-8"))
        if stored.get("program") != program:
            stored = {}
    ok = True
    for key in ("outputs", "counts"):
        if key not in record:
            continue
        if key in stored:
            ok = ok and stored[key] == json.loads(json.dumps(record[key]))
        else:
            stored[key] = record[key]
    stored["program"] = program
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(stored, sort_keys=True), encoding="utf-8")
    return ok


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
