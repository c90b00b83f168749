"""Tests of the benchmark itself: generator determinism, that every output
check catches an injected fault, and that the traced run sees every layer
function it claims for a workload (a missed rebinding records no spans)."""

import dataclasses
import json
import os

import pytest

import checks
import pipeline
import scenegen
from tracing import Span, Tracer, layer_metrics, load_layers, self_times, traced_functions

SEED = 3


def _tree(root):
    out = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


def test_generator_same_bytes_for_a_seed(tmp_path):
    spec = dataclasses.replace(scenegen.WORKLOADS["mask-composite"], n_train=4, n_aug=1,
                               scenes_per_camera=2, objects_per_frame=3)
    a = _tree(scenegen.generate(spec, SEED, str(tmp_path / "a")).root)
    b = _tree(scenegen.generate(spec, SEED, str(tmp_path / "b")).root)
    c = _tree(scenegen.generate(spec, SEED + 1, str(tmp_path / "c")).root)
    assert "masks/0_2.pgm" in a and "annotations.json" in a
    assert a == b
    assert a["annotations.json"] != c["annotations.json"]


def test_self_time_subtracts_union_of_parallel_children():
    spans = [Span(1, None, "cli.augment", None, 0.0, 10.0),
             Span(2, 1, "sampler.augment_frame", "0", 1.0, 4.0),
             Span(3, 1, "sampler.augment_frame", "1", 3.0, 6.0),  # overlaps span 2
             Span(4, 1, "dataset_io.save_layout", "1", 8.0, 9.0)]
    assert self_times(spans)[1] == pytest.approx(4.0)
    assert self_times(spans)[2] == pytest.approx(3.0)


@pytest.fixture(scope="module")
def small_round(tmp_path_factory):
    """One real in-process round on a small grid-scaled street workload."""
    spec = dataclasses.replace(scenegen.WORKLOADS["hd-road"], grid_w=160, grid_h=90,
                               n_train=8, n_aug=2, boxes_per_frame=12)
    data = scenegen.generate(spec, SEED, str(tmp_path_factory.mktemp("small")))
    rnd = pipeline.run_round(data, SEED, 2, pipeline.InProcessRunner(data.root), "out")
    return data, rnd


def _with_layout(rnd, name, edit):
    """Copy of the round with one refined layout rewritten by `edit(doc)`."""
    outputs = {k: dict(v) if isinstance(v, dict) else v for k, v in rnd.outputs.items()}
    doc = json.loads(outputs["refined"][name])
    edit(doc)
    outputs["refined"][name] = json.dumps(doc).encode()
    return pipeline.Round(invocations=list(rnd.invocations), outputs=outputs)


def _unclipped(doc, spec):
    return next(p for p in doc["proposals"]
                if p["box"][0] - p["box"][2] / 2 > 0 and p["box"][0] + p["box"][2] / 2 < spec.frame_w)


def test_clean_round_passes_every_check(small_round, tmp_path):
    data, rnd = small_round
    assert checks.pipeline_round(data, rnd, None, str(tmp_path)) == []
    assert checks.pipeline_round(data, rnd, rnd, str(tmp_path)) == []


def test_tampered_layout_byte_is_caught(small_round):
    _, rnd = small_round
    layouts = dict(rnd.outputs["layouts"])
    raw = bytearray(layouts["0.json"])
    raw[raw.index(b".") + 1] ^= 1  # one digit of the first float
    layouts["0.json"] = bytes(raw)
    assert checks.identical(rnd.outputs["layouts_j1"], layouts, "jobs")
    tampered = pipeline.Round(invocations=rnd.invocations, outputs={**rnd.outputs, "layouts": layouts})
    assert checks.same_outputs(rnd, tampered, "rounds")


def test_anchor_outside_band_is_caught(small_round, tmp_path):
    data, rnd = small_round

    def far_depth(doc):
        _unclipped(doc, data.spec)["d"] += 3 * pipeline.TAU

    def sky_anchor(doc):
        p = _unclipped(doc, data.spec)
        scale = data.spec.frame_w / data.spec.grid_w
        p["box"][1] = 1.0 * scale  # bottom edge on grid row 0: sky, not drivable
        p["box"][3] = min(p["box"][3], p["box"][1])

    for edit, message in ((far_depth, "not within"), (sky_anchor, "not drivable")):
        errors = checks.layouts(data, _with_layout(rnd, "1.json", edit).outputs["refined"],
                                pipeline.TAU, "refined")
        assert any(message in e for e in errors), errors


def test_box_outside_frame_and_miscount_are_caught(small_round):
    data, rnd = small_round

    def off_frame(doc):
        doc["proposals"][0]["box"][0] = -50.0

    def lost_proposal(doc):
        doc["proposals"].pop()

    for edit, message in ((off_frame, "not inside the frame"), (lost_proposal, "objects per frame")):
        errors = checks.layouts(data, _with_layout(rnd, "0.json", edit).outputs["refined"],
                                pipeline.TAU, "refined")
        assert any(message in e for e in errors), errors


def test_model_roundtrip_and_exit_codes_are_checked(small_round, tmp_path):
    _, rnd = small_round
    model = rnd.outputs["model"]
    assert checks.model_roundtrip(model, str(tmp_path)) == []
    assert checks.model_roundtrip(model.replace(b": ", b":  ", 1), str(tmp_path))
    failed = pipeline.Invocation("eval", ["eval"], 2, 0.1)
    assert checks.exit_codes([*rnd.invocations, failed]) == ["eval: exit code 2 for eval"]


def _expected_work(workload):
    """(layer, function) pairs layers.json says do work on `workload`."""
    for name, layer in load_layers().items():
        for move in layer["moves"]:
            if workload in move["workloads"]:
                for fn in move.get("functions", layer.get("functions", pipeline.STAGES)):
                    yield name, fn


SMALL = {
    "hd-road": dict(n_aug=2, objects_per_frame=40),
    "dense-fit": dict(n_train=40, n_aug=2),
    "mask-composite": dict(n_train=8, n_aug=1),
}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_round_records_spans_for_every_claimed_function(workload, tmp_path):
    spec = dataclasses.replace(scenegen.WORKLOADS[workload], **SMALL[workload])
    data = scenegen.generate(spec, SEED, str(tmp_path / "data"))
    functions = traced_functions(load_layers())
    tracer = Tracer()
    tracer.install(functions)
    try:
        rnd = pipeline.run_round(data, SEED, 2, pipeline.InProcessRunner(data.root, tracer), "out")
    finally:
        tracer.uninstall()
    assert checks.exit_codes(rnd.invocations) == []
    metrics = layer_metrics(tracer.spans, functions, pipeline.STAGES)
    idle = [f"{layer}.{fn}" for layer, fn in _expected_work(workload)
            if metrics[f"{layer}.{fn}.calls"] == 0]
    assert idle == []
    proposals = [s for s in tracer.spans if s.name == "sampler.propose"]
    assert proposals and {s.frame for s in proposals} == set(data.aug_frame_ids)
    bands = [s for s in tracer.spans if s.name == "geometry.placement_band"]
    assert all(s.frame in data.aug_frame_ids and s.parent is not None for s in bands)
    # uninstall restored every binding
    from scene_placer import cli, sampler
    assert not hasattr(sampler.placement_band, "__wrapped__")
    assert not hasattr(cli.fit_model, "__wrapped__")
