"""The benchmark's outside-in layer hooks still resolve and fire.

``perfbench/layertrace.py`` wraps the package's layer entry points by name
from outside; a refactor that renames or bypasses one of them would zero
that layer's metrics without any other test failing.  These tests run the
tiny damping and QBM sweeps of ``perfbench/workloads.py`` in-process under
the tracer, with both benchmark modules loaded unchanged.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from gaussnm import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations here
    spec.loader.exec_module(module)
    return module


layertrace = _load("layertrace")
workloads = _load("workloads")


def _inside(spans, span, name) -> bool:
    while span.parent >= 0:
        span = spans[span.parent]
        if span.name == name:
            return True
    return False


@pytest.mark.parametrize("name", ["damping_sweep", "qbm_sweep"])
def test_layer_hooks_fire(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    cfg = tmp_path / "single.cfg"
    cfg.write_text(wl.config_text(workloads.DEFAULT_SEED, workers=1, tiny=True))
    tracer = layertrace.Tracer()
    with tracer.installed(run=0):
        rc = cli.main(["reproduce", "--figure", str(wl.figure), "--config",
                       str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    qbm = name == "qbm_sweep"
    expected = {"channels.maps", "states.fidelity_arrays",
                "measure.maximize_measure", "measure.first_order"}
    if qbm:
        expected.add("spectral.build_coefficients")
    assert expected <= tracer.span_names(0)
    # the optimizer's own evolution and fidelity calls go through the hooks
    for layer in ("channels.maps", "states.fidelity_arrays"):
        assert any(s.name == layer and _inside(tracer.spans, s,
                                               "measure.maximize_measure")
                   for s in tracer.spans), layer
    metrics = tracer.metrics(0)
    assert metrics["measure.maps_per_objective"] > 0.0
    assert (metrics["channels.propagator_builds"] > 0) == qbm
