"""The benchmark's trace points must name library attributes that exist and are called.

`perfbench/run.py --trace 1` wraps functions at the module attribute their
caller looks up; a rename or an inlined call would silently zero a counter.
"""

from dataclasses import replace

import numpy as np

from perfbench.protocol import trace_points
from perfbench.tracing import Tracer, patched

from benchplan import fitting
from benchplan.evaluate import evaluate_task
from benchplan.fitting import FitConfig
from benchplan.mdp import TransitionModel
from benchplan.taskgen import generate_dataset


def test_every_trace_point_resolves():
    points = trace_points(Tracer())
    assert points
    for module, attr, _ in points:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_traced_planners_count_their_inner_calls(level1_run):
    dataset, fitted = level1_run
    # a fresh model builds its step tables, reading `action_legal` once per key,
    # in the traced pass; the session's fitted model may have built them already
    model = fitted.model
    fitted = replace(fitted, model=TransitionModel(model.cardinalities, model.thresh,
                                                   model.counts))
    tracer = Tracer()
    with patched(trace_points(tracer)):
        for i, task in enumerate(dataset.subset("test")[:3]):
            for planner in ("symbolic", "token"):
                evaluate_task(task, fitted, fitted.codebook, planner=planner,
                              noise_sigma=0.0, top_k=5, l_max=None,
                              rng=np.random.default_rng([0, i]))
    assert tracer.calls("mdp.plan") == 3
    assert tracer.calls("token_maps.plan_tokenspace") == 3
    assert tracer.counts["mdp.action_legal"] == len(model.action_keys)
    assert tracer.counts["token_maps.transition"] > 0
    assert tracer.calls("symbols.symbolize") > 0


def test_traced_fit_times_each_kmeans():
    dataset = generate_dataset(2, (40, 4, 4), seed=5)
    tracer = Tracer()
    with patched(trace_points(tracer)):
        fitted = fitting.fit_pipeline(dataset, FitConfig(noise_sigma=0.2))
    symbolizer = fitted.symbolizer
    assert tracer.calls("symbols.fit_kmeans") == len(symbolizer.centers)
    assert tracer.counts["symbols.lloyd_iters"] == sum(symbolizer.iterations)
    assert sum(symbolizer.iterations) > len(symbolizer.centers)  # noisy: Lloyd steps run
