"""The tracer wraps and restores the entry points and reports every metric.

    python3 -m pytest perfbench/test_tracing.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import tracing  # noqa: E402
from featgroups import autodiff, synthdata, trainer  # noqa: E402


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_uninstall_restores_every_entry_point():
    targets = [(owner, attr) for owner, attr, _ in tracing.SPANS]
    targets += [(autodiff.Tensor, "_op"), (tracing.clustering, "update_step")]
    before = [current(owner, attr) for owner, attr in targets]
    tracer = tracing.Tracer()
    tracer.install()
    assert all(current(o, a) is not b for (o, a), b in zip(targets, before))
    tracer.uninstall()
    assert all(current(o, a) is b for (o, a), b in zip(targets, before))


def test_a_traced_training_run_reports_every_layer():
    dataset = synthdata.generate_dataset(synthdata.GpSpec(samples=80, length=5))
    config = trainer.ExperimentConfig(seed=1, epochs=2, patience=2, batch_size=40)
    tracer = tracing.Tracer()
    tracer.phase = "round1"
    tracer.install()
    try:
        trainer.train(config, dataset)
    finally:
        tracer.uninstall()
    summary = tracer.summary(rounds=1, overhead_s=0.0)
    assert list(summary) == [name for name, _ in tracing.PER_LAYER]
    names = [span[tracing.NAME] for span in tracer.spans]
    # 72 training samples in batches of 40: two steps per epoch
    assert names.count("autodiff.backward") == names.count("autodiff.adam") == 4
    assert names.count("clustering.recluster") == 2
    assert summary["autodiff.tensors_per_step"] > 0
    assert summary["clustering.update_steps_per_recluster"] >= 1
    assert summary["model.forward_ms"] >= summary["model.sequence_forward_ms"] > 0
    assert summary["trainer.self_ms_per_epoch"] > 0
    for span in tracer.spans:
        assert span[tracing.END] >= span[tracing.START]
