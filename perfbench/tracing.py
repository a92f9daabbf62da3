"""Spans and counts at the layer boundaries of featgroups, from outside it.

`Tracer.install` replaces each public entry point at the name its callers
look up (a module global or a class attribute) with a wrapper that records a
span: name, start, end, the index of the span it ran inside, and the phase of
the benchmark it ran in. A few boundaries also count work: tape nodes made by
`Tensor._op`, clustering iterations, page faults over a training step, and
reclusterings that changed the membership. Everything stays in memory until
`write`; `uninstall` puts the originals back, so untraced code runs unwrapped.
"""

from __future__ import annotations

import json
import resource
import time
from pathlib import Path

import numpy as np

from featgroups import autodiff, cli, clustering, model, serialization, synthdata, trainer

# (owner, attribute, span name). The same function is wrapped at every name
# a caller reaches it by; spans carry the layer's name, not the caller's.
SPANS = [
    (model.GroupedStepwiseModel, "forward", "model.forward"),
    (model.GroupedStepwiseModel, "feature_embed", "model.feature_embed"),
    (model.GroupedStepwiseModel, "group_embed", "model.group_embed"),
    (model.GroupedStepwiseModel, "sequence_forward", "model.sequence_forward"),
    (autodiff.Tensor, "backward", "autodiff.backward"),
    (trainer, "adam_step", "autodiff.adam"),
    (trainer, "recluster", "clustering.recluster"),
    (clustering, "converge", "clustering.converge"),
    (synthdata, "converge", "clustering.converge"),
    (clustering, "init_kmeanspp", "clustering.init_kmeanspp"),
    (trainer, "init_kmeanspp", "clustering.init_kmeanspp"),
    (synthdata, "init_kmeanspp", "clustering.init_kmeanspp"),
    (trainer, "train", "trainer.train"),
    (cli, "train", "trainer.train"),
    (trainer, "evaluate", "trainer.evaluate"),
    (trainer, "_batched_logits", "trainer.validation"),
    (trainer, "ari", "metrics.ari"),
    (trainer, "nmi", "metrics.nmi"),
    (trainer, "silhouette", "metrics.silhouette"),
    (trainer, "auroc", "metrics.auroc"),
    (trainer, "auprc", "metrics.auprc"),
    (cli, "ari", "metrics.ari"),
    (cli, "nmi", "metrics.nmi"),
    (cli, "silhouette", "metrics.silhouette"),
    (synthdata, "generate_dataset", "synthdata.generate_dataset"),
    (cli, "generate_dataset", "synthdata.generate_dataset"),
    (synthdata, "static_kmeans_baseline", "synthdata.static_kmeans_baseline"),
    (cli, "static_kmeans_baseline", "synthdata.static_kmeans_baseline"),
    (serialization, "write_tensors", "serialization.write_tensors"),
    (synthdata, "write_tensors", "serialization.write_tensors"),
    (serialization, "read_tensors", "serialization.read_tensors"),
    (synthdata, "read_tensors", "serialization.read_tensors"),
    (cli, "cmd_generate", "cli.generate"),
    (cli, "cmd_train", "cli.train"),
    (cli, "cmd_benchmark", "cli.benchmark"),
    (cli, "cmd_history", "cli.history"),
]

# name, unit: the per-layer metrics `Tracer.summary` reports
PER_LAYER = [
    ("autodiff.backward_ms", "ms"),
    ("autodiff.adam_ms", "ms"),
    ("autodiff.tensors_per_step", "count"),
    ("autodiff.minor_faults_per_step", "count"),
    ("model.forward_ms", "ms"),
    ("model.feature_embed_ms", "ms"),
    ("model.group_embed_ms", "ms"),
    ("model.sequence_forward_ms", "ms"),
    ("clustering.recluster_ms", "ms"),
    ("clustering.update_steps_per_recluster", "count"),
    ("clustering.membership_change_ratio", "ratio"),
    ("clustering.init_kmeanspp_ms", "ms"),
    ("trainer.validation_ms", "ms"),
    ("trainer.self_ms_per_epoch", "ms"),
    ("metrics.ms_per_epoch", "ms"),
    ("synthdata.generate_s", "s"),
    ("synthdata.static_baseline_s", "s"),
    ("serialization.write_ms", "ms"),
    ("serialization.read_ms", "ms"),
    ("serialization.bytes_written", "bytes"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
]

NAME, START, END, PARENT, PHASE = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, phase]
        self.counts: dict[str, int] = {}
        self.phase = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._validating = 0  # open validation spans
        self._step_start: tuple | None = None  # (tape nodes, minor faults) at a step's forward
        self._recluster_start = 0  # update steps counted when the open recluster began

    # ------------------------------------------------------------------

    def install(self):
        if self._saved:
            return
        for owner, attr, name in SPANS:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._span(original, name))
        op = autodiff.Tensor.__dict__["_op"]
        self._saved.append((autodiff.Tensor, "_op", op))
        autodiff.Tensor._op = staticmethod(self._counted(op.__func__, "autodiff.tensors"))
        self._saved.append((clustering, "update_step", clustering.update_step))
        clustering.update_step = self._counted(clustering.update_step, "clustering.update_steps")

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _count(self, key: str, n: int = 1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _counted(self, fn, key: str):
        def counted(*args, **kwargs):
            self._count(key)
            return fn(*args, **kwargs)

        return counted

    def _span(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            tracer._enter(name, args)
            index = len(tracer.spans)
            tracer.spans.append([name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.phase])
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index][START] = start
                tracer.spans[index][END] = end
                tracer._leave(name, args)
            tracer._after(name, args, result)
            return result

        return traced

    def _enter(self, name: str, args):
        if name == "trainer.validation":
            self._validating += 1
        elif name == "clustering.recluster":
            self._recluster_start = self.counts.get("clustering.update_steps", 0)
        elif name == "model.forward" and not self._validating:
            self._step_start = (self.counts.get("autodiff.tensors", 0), _minor_faults())

    def _leave(self, name: str, args):
        if name == "trainer.validation":
            self._validating -= 1
        elif name == "clustering.recluster":
            steps = self.counts.get("clustering.update_steps", 0) - self._recluster_start
            self._count("clustering.update_steps_in_recluster", steps)
        elif name == "autodiff.adam" and self._step_start is not None:
            tensors, faults = self._step_start
            self._count("autodiff.step_tensors", self.counts.get("autodiff.tensors", 0) - tensors)
            self._count("autodiff.step_faults", _minor_faults() - faults)
            self._step_start = None

    def _after(self, name: str, args, result):
        if name == "clustering.recluster":
            previous = args[1].membership
            if previous is not None and not np.array_equal(result[0], previous):
                self._count("clustering.membership_changes")
        elif name == "serialization.write_tensors" and self.phase != "setup":
            self._count("serialization.bytes", Path(args[0]).stat().st_size)

    # ------------------------------------------------------------------

    def summary(self, rounds: int, overhead_s: float) -> dict[str, float]:
        """Per-layer metrics over the traced rounds (set-up spans count only
        toward `synthdata.generate_s`)."""
        spans = self.spans
        in_rounds = [i for i, s in enumerate(spans) if s[PHASE] != "setup"]
        children: dict[int, float] = {}
        for s in spans:
            if s[PARENT] >= 0:
                children[s[PARENT]] = children.get(s[PARENT], 0.0) + s[END] - s[START]

        def duration(i):
            return spans[i][END] - spans[i][START]

        def under(i, name):
            parent = spans[i][PARENT]
            while parent >= 0:
                if spans[parent][NAME] == name:
                    return True
                parent = spans[parent][PARENT]
            return False

        def named(name, indices=in_rounds):
            return [i for i in indices if spans[i][NAME] == name]

        def mean_ms(indices):
            return 1000.0 * sum(map(duration, indices)) / len(indices) if indices else 0.0

        steps = [i for i in named("model.forward") if not under(i, "trainer.validation")]
        step_set = set(steps)
        epochs = [i for i in named("trainer.validation") if not under(i, "trainer.evaluate")]
        n_steps, n_epochs = len(steps), len(epochs)
        reclusters = named("clustering.recluster")
        metric_spans = [i for i in in_rounds if spans[i][NAME].startswith("metrics.") and under(i, "trainer.train")]
        cli_spans = [i for i in in_rounds if spans[i][NAME].startswith("cli.")]
        writes = named("serialization.write_tensors")
        generated = named("synthdata.generate_dataset", range(len(spans)))
        statics = named("synthdata.static_kmeans_baseline")

        def per(total, n):
            return total / n if n else 0.0

        def stage_ms(name):
            return mean_ms([i for i in named(name) if spans[i][PARENT] in step_set])

        self_train = sum(duration(i) - children.get(i, 0.0) for i in named("trainer.train"))
        counts = self.counts
        return {
            "autodiff.backward_ms": mean_ms(named("autodiff.backward")),
            "autodiff.adam_ms": mean_ms(named("autodiff.adam")),
            "autodiff.tensors_per_step": per(counts.get("autodiff.step_tensors", 0), n_steps),
            "autodiff.minor_faults_per_step": per(counts.get("autodiff.step_faults", 0), n_steps),
            "model.forward_ms": mean_ms(steps),
            "model.feature_embed_ms": stage_ms("model.feature_embed"),
            "model.group_embed_ms": stage_ms("model.group_embed"),
            "model.sequence_forward_ms": stage_ms("model.sequence_forward"),
            "clustering.recluster_ms": mean_ms(reclusters),
            "clustering.update_steps_per_recluster": per(
                counts.get("clustering.update_steps_in_recluster", 0), len(reclusters)
            ),
            "clustering.membership_change_ratio": per(counts.get("clustering.membership_changes", 0), len(reclusters)),
            "clustering.init_kmeanspp_ms": mean_ms(named("clustering.init_kmeanspp")),
            "trainer.validation_ms": per(1000.0 * sum(map(duration, epochs)), n_epochs),
            "trainer.self_ms_per_epoch": per(1000.0 * self_train, n_epochs),
            "metrics.ms_per_epoch": per(1000.0 * sum(map(duration, metric_spans)), n_epochs),
            "synthdata.generate_s": mean_ms(generated) / 1000.0,
            "synthdata.static_baseline_s": mean_ms(statics) / 1000.0,
            "serialization.write_ms": mean_ms(writes),
            "serialization.read_ms": mean_ms(named("serialization.read_tensors")),
            "serialization.bytes_written": per(counts.get("serialization.bytes", 0), rounds),
            "cli.self_s": per(sum(duration(i) - children.get(i, 0.0) for i in cli_spans), rounds),
            "trace.overhead_s": overhead_s,
        }

    def write(self, path: Path, extra: dict):
        payload = {
            **extra,
            "span_fields": ["name", "start", "end", "parent", "phase"],
            "spans": self.spans,
            "counts": self.counts,
        }
        path.write_text(json.dumps(payload) + "\n")


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
