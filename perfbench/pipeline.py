"""One benchmark round: fit -> augment (--jobs 1) -> augment (--jobs nproc)
-> refine (one call per layout) -> eval, through the real CLI.

A runner executes one CLI call. `ProcessRunner` starts a fresh interpreter per
call, timed from outside, with peak RSS from wait4. `InProcessRunner` calls
`scene_placer.cli.main` directly, optionally inside a tracer stage span.
"""

from __future__ import annotations

import io
import os
import shutil
import subprocess
import sys
import threading
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

TAU = 5.0
STAGES = ("fit", "augment", "augment_par", "refine", "eval")
CLI_TIMEOUT_S = 150.0


@dataclass
class Invocation:
    stage: str
    argv: list
    returncode: int
    wall_s: float
    max_rss_mb: float = 0.0


@dataclass
class Round:
    invocations: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)  # "model", "report": bytes; layout dirs: {name: bytes}

    def wall(self, stage) -> float:
        return sum(inv.wall_s for inv in self.invocations if inv.stage == stage)

    @property
    def complete(self) -> bool:
        return all(inv.returncode == 0 for inv in self.invocations) and "report" in self.outputs

    @property
    def pipeline_s(self) -> float:
        return sum(self.wall(s) for s in ("fit", "augment_par", "refine", "eval"))


class ProcessRunner:
    def __init__(self, cwd: str, env: dict, log_path: str):
        self.cwd, self.env, self.log_path = cwd, env, log_path

    def __call__(self, stage: str, argv: list) -> Invocation:
        with open(self.log_path, "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "scene_placer.cli", *argv],
                                    cwd=self.cwd, env=self.env, stdout=log, stderr=log)
            killer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Invocation(stage, argv, proc.returncode, wall, usage.ru_maxrss / 1024.0)


class InProcessRunner:
    def __init__(self, cwd: str, tracer=None):
        self.cwd, self.tracer = cwd, tracer

    def __call__(self, stage: str, argv: list) -> Invocation:
        from scene_placer import cli

        sink = io.StringIO()
        span = self.tracer.stage(f"cli.{stage}") if self.tracer else nullcontext()
        prev = os.getcwd()
        os.chdir(self.cwd)
        try:
            with redirect_stdout(sink), redirect_stderr(sink), span:
                start = time.perf_counter()
                try:
                    rc = cli.main(argv)
                except SystemExit as e:  # argparse usage errors
                    rc = e.code if isinstance(e.code, int) else 2
                wall = time.perf_counter() - start
        finally:
            os.chdir(prev)
        return Invocation(stage, argv, rc, wall)


def _read_dir(path: str) -> dict:
    if not os.path.isdir(path):
        return {}
    out = {}
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as f:
            out[name] = f.read()
    return out


def run_round(data, seed: int, jobs: int, run, out: str) -> Round:
    """Run the pipeline once; `out` is a fresh directory relative to the
    dataset root (the working directory of every call). Stops at the first
    failing call. Outputs are read back into memory and `out` is removed."""
    spec = data.spec
    rnd = Round()
    os.makedirs(os.path.join(data.root, out, "refined"))

    def call(stage, argv):
        inv = run(stage, argv)
        rnd.invocations.append(inv)
        return inv.returncode == 0

    model = f"{out}/model.json"
    grids = ["--depth-dir", "depth", "--semantic-dir", "semantic"]
    augment = ["augment", "augment.json", "--model", model, *grids, "--seed", str(seed),
               "--tau", str(TAU), "--objects-per-frame", str(spec.objects_per_frame)]
    if spec.masks:
        augment += ["--masks-dir", "masks"]
    steps = [("fit", ["fit", "annotations.json", "--depth-dir", "depth", "--out-model", model]),
             ("augment", augment + ["--jobs", "1", "--out-layouts", f"{out}/layouts_j1"]),
             ("augment_par", augment + ["--jobs", str(jobs), "--out-layouts", f"{out}/layouts"])]
    steps += [("refine", ["refine", f"{out}/layouts/{fid}.json", "--width", str(spec.frame_w),
                          "--height", str(spec.frame_h), "--out", f"{out}/refined/{fid}.json"])
              for fid in data.aug_frame_ids]
    steps.append(("eval", ["eval", "annotations.json", "--model", model, "--layouts",
                           f"{out}/refined", *grids, "--tau", str(TAU),
                           "--out-report", f"{out}/report.json"]))
    for stage, argv in steps:
        if not call(stage, argv):
            break

    root = os.path.join(data.root, out)
    for key, name in (("model", "model.json"), ("report", "report.json")):
        path = os.path.join(root, name)
        if os.path.exists(path):
            with open(path, "rb") as f:
                rnd.outputs[key] = f.read()
    for key in ("layouts_j1", "layouts", "refined"):
        rnd.outputs[key] = _read_dir(os.path.join(root, key))
    shutil.rmtree(root)
    return rnd
