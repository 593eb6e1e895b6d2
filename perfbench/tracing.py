"""Spans recorded from outside the program, and their reduction to the
per-layer metrics.

The tracer wraps every public function of the program's modules (and
rebinds the names other modules imported), the pair sampler, the
network's forward/backward entry points and, per network instance,
each layer's forward and backward, named by the layer's spec name.  A
span is [name, start_ns, end_ns, parent index]; spans stay in memory
until the job ends and are then written out as JSON.

Only the standard library is imported here, so loading the tracer does
not move the timed import of faceverify.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict

MODULES = (
    "faceverify.align",
    "faceverify.pnm",
    "faceverify.linalg",
    "faceverify.metric",
    "faceverify.templates",
    "faceverify.evaluation",
    "faceverify.storage",
    "faceverify.pipeline",
    "faceverify.micronet.network",
    "faceverify.micronet.training",
)

# Called once per pair step inside train_metric: a wrapper there would
# cost more than the step it measures.
PER_PAIR = {"metric.hinge_step", "metric.distance", "metric.similarity", "metric.cosine_score"}

# Spec kinds after the feature layer, reported together as the classifier.
CLASSIFIER_KINDS = {"dropout", "fully_connected", "softmax_xent"}

# Spec names of the stock architecture's conv, PReLU, LRN and max-pool
# layers; the toy net (width/4) uses the same names.
LAYERS = (
    "conv11", "prelu11", "conv12", "prelu12", "norm1", "pool1",
    "conv21", "prelu21", "conv22", "prelu22", "norm2", "pool2",
    "conv31", "prelu31", "conv32", "prelu32", "pool3",
    "conv41", "prelu41", "conv42", "prelu42", "pool4",
    "conv51", "prelu51", "conv52",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._epoch_lengths: list[int] = []

    def span(self, name: str, fn, on_result=None):
        """fn wrapped so each call records one span (and, optionally,
        counts taken from its result)."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    # -- counts taken from results --------------------------------------

    def _on_epoch(self, batch) -> None:
        self.counts["metric.pair_steps"] += len(batch.y)
        self._epoch_lengths.append(len(batch.y))

    def _on_train_metric(self, result) -> None:
        fractions = result[1]
        lengths = self._epoch_lengths[-len(fractions):]
        self.counts["metric.violating_steps"] += sum(round(f * n) for f, n in zip(fractions, lengths))

    def _on_roc(self, curve) -> None:
        self.counts["evaluation.roc_points"] += len(curve.far)

    def _on_extract(self, feats) -> None:
        self.counts["micronet.extracted_images"] += feats.shape[0]

    def _on_train(self, result) -> None:
        self.counts["micronet.training.iterations"] += result.iterations

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        hooks = {
            "metric.train_metric": self._on_train_metric,
            "evaluation.roc": self._on_roc,
            "micronet.network.extract_features": self._on_extract,
            "micronet.training.train": self._on_train,
        }
        wrapped = {}
        for modname in MODULES:
            mod = importlib.import_module(modname)
            short = modname.removeprefix("faceverify.")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                name = f"{short}.{attr}"
                if inspect.isfunction(fn) and fn.__module__ == modname and name not in PER_PAIR:
                    wrapped[fn] = self.span(name, fn, hooks.get(name))
        # rebind the names other modules bound with `from ... import`
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("faceverify"):
                for attr, value in list(vars(mod).items()):
                    if inspect.isfunction(value) and value in wrapped:
                        setattr(mod, attr, wrapped[value])
        self._install_pair_sampler()
        self._install_network()

    def _install_pair_sampler(self) -> None:
        from faceverify.metric import PairSampler

        timed_init = self.span("metric.PairSampler", PairSampler.__init__)
        counts = self.counts

        def init(sampler, *args, **kwargs):
            tracemalloc.start()
            try:
                timed_init(sampler, *args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            counts["metric.pair_sampler_peak_bytes"] = max(counts["metric.pair_sampler_peak_bytes"], peak)

        PairSampler.__init__ = init
        PairSampler.epoch = self.span("metric.PairSampler.epoch", PairSampler.epoch, self._on_epoch)

    def _install_network(self) -> None:
        from faceverify.micronet.network import Network

        for method in ("forward", "loss", "backward", "features"):
            setattr(Network, method, self.span(f"micronet.Network.{method}", getattr(Network, method)))
        built = Network.__init__
        tracer = self

        def init(net, *args, **kwargs):
            built(net, *args, **kwargs)
            tracer.instrument(net)

        Network.__init__ = init

    def instrument(self, net) -> None:
        """Per-instance spans on every layer, named by its spec name."""
        for spec, layer in zip(net.spec.layers, net.layers):
            group = "classifier" if spec.kind in CLASSIFIER_KINDS else spec.name
            layer.forward = self.span(f"micronet.{group}.fwd", layer.forward)
            layer.backward = self.span(f"micronet.{group}.bwd", layer.backward)
            if spec.kind == "softmax_xent":
                layer.loss = self.span(f"micronet.{group}.fwd", layer.loss)
                layer.backward_from_labels = self.span(f"micronet.{group}.bwd", layer.backward_from_labels)

    def dump(self, path, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts), **extra}, fh)


def reduce_spans(doc: dict) -> dict[str, float]:
    """Per-layer metrics of one traced job.  Times are totals over the
    job (and its set-up, for the checkpoint read); a layer the job never
    calls reads 0."""
    spans, counts = doc["spans"], defaultdict(int, doc["counts"])
    total = defaultdict(int)
    for name, start, end, _ in spans:
        total[name] += end - start
    pipeline_runs = {k for k, span in enumerate(spans) if span[0] == "pipeline.run_pipeline"}
    pipeline_children = sum(end - start for _, start, end, parent in spans if parent in pipeline_runs)

    def sec(name):
        return total[name] / 1e9

    def ms(name):
        return total[name] / 1e6

    steps = counts["metric.pair_steps"]
    images = counts["micronet.extracted_images"]
    iters = counts["micronet.training.iterations"]
    train_s = sec("micronet.training.train")
    m = {
        "setup.import_s": doc["import_s"],
        "traced.wall_s": doc["wall_s"],
        "metric.train_metric_s": sec("metric.train_metric"),
        "metric.us_per_step": (sec("metric.train_metric") - sec("metric.PairSampler")) / steps * 1e6 if steps else 0.0,
        "metric.pair_steps": steps,
        "metric.violating_steps": counts["metric.violating_steps"],
        "metric.pair_sampler_s": sec("metric.PairSampler"),
        "metric.pair_sampler_peak_mb": counts["metric.pair_sampler_peak_bytes"] / 1e6,
        "templates.build_templates_s": sec("templates.build_templates"),
        "templates.score_templates_s": sec("templates.score_templates"),
        "templates.write_score_matrix_s": sec("templates.write_score_matrix"),
        "evaluation.roc_s": sec("evaluation.roc"),
        "evaluation.cmc_s": sec("evaluation.cmc"),
        "evaluation.emit_curves_s": sec("evaluation.emit_curves"),
        "evaluation.roc_points": counts["evaluation.roc_points"],
        "pipeline.synthesize_dataset_s": sec("pipeline.synthesize_dataset"),
        "pipeline.self_s": (total["pipeline.run_pipeline"] - pipeline_children) / 1e9,
        "storage.write_features_s": sec("storage.write_features"),
        "storage.write_metric_model_s": sec("storage.write_metric_model"),
        "storage.read_checkpoint_s": sec("storage.read_checkpoint"),
        "align.estimate_similarity_s": sec("align.estimate_similarity"),
        "align.warp_to_canonical_s": sec("align.warp_to_canonical"),
        "pnm.read_pnm_s": sec("pnm.read_pnm"),
        "pnm.write_pnm_s": sec("pnm.write_pnm"),
        "micronet.extract_images_per_s": images / sec("micronet.network.extract_features") if images else 0.0,
        "micronet.training.augment_ms": ms("micronet.training.augment_batch"),
        "micronet.training.update_ms": (
            ms("micronet.training.train") - ms("micronet.Network.loss")
            - ms("micronet.Network.backward") - ms("micronet.training.augment_batch")
        ) if iters else 0.0,
        "micronet.training.s_per_iter": train_s / iters if iters else 0.0,
    }
    for layer in (*LAYERS, "pool5", "classifier"):
        for d in ("fwd", "bwd"):
            m[f"micronet.{layer}.{d}_ms"] = ms(f"micronet.{layer}.{d}")
    return m
