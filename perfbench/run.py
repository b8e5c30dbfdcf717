"""Benchmark harness for the pidual command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S [--trace 0|1]

Runs one workload's CLI command in fresh interpreters, one at a time (a
closed loop with a single client), for S seconds, then checks every run's
artifacts. With ``--trace 0`` it also times the workload's set-up and a
fixed calibration job (``calibrate.py``) after each command, and reports the
end-to-end metrics scaled to a reference machine speed; with ``--trace 1``
it alternates untraced and traced runs and reports the per-layer metrics. A
readable report goes to stderr and to
``.perfbench/<workload>-trace<T>/result.json``; the last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--workload all`` runs every
workload in turn and prefixes each metric with its workload's name.
perfbench/README.md describes the workloads and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans as spans_mod

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_SETUP_PROBES = 5
MAX_RISK_MC_GAP = 0.01
# The median time of calibrate.py on the 2-vCPU machine the baselines were
# measured on. The timing metrics are scaled by this over the calibration time
# measured around each command, so they read as seconds at that machine's
# usual speed, and a host that slows down for minutes slows both alike.
REFERENCE_CALIBRATION_S = 0.37


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the pidual subcommand, "train" or "risk"
    config: str  # relative to the checkout root, or absolute
    extra: tuple[str, ...] = ()
    grid_trials: int = 0  # trials a grid command must report; 0 without a grid
    min_auc: tuple[tuple[str, float], ...] = ()  # detection AUC floors
    deadline_s: float = 170.0  # a benchmark run must be over within 180 s


WORKLOADS = {
    w.name: w
    for w in (
        # The floors are those of tests/test_acceptance.py.
        Workload(
            "train_gated", "train", "configs/benchmark.ini",
            min_auc=(("gate", 0.95), ("confidence", 0.90)),
        ),
        # One grid command takes 50-80 s here, so a traced run (two commands)
        # needs more time than the benchmark contract's runs get.
        Workload(
            "grid_workers2", "train", "configs/grid.ini", ("--workers", "2"),
            grid_trials=4, deadline_s=400.0,
        ),
        Workload("risk_sweep", "risk", "configs/risk_sweep.ini"),
    )
}


@dataclass
class Run:
    """One CLI command: what it cost and which checks it failed."""

    out: Path
    spans: Path | None  # the span file of a traced run
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    failures: list[str] = field(default_factory=list)


def timed(argv: list[str], log: Path, timeout: float) -> tuple[float, float, float, int]:
    """Run argv to its end: wall s, CPU s and peak RSS MB of its process tree, exit code.

    The caller's environment passes through; only ``src`` is put in front of
    PYTHONPATH so that the checkout's pidual is the one imported. The command
    runs in its own process group, which is killed on timeout and at the end,
    so no grid worker outlives it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT, env=env, start_new_session=True
        )

        def kill() -> None:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            kill()  # whatever the command left running in its group
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6, proc.returncode


def invoke(w: Workload, seed: int, run_dir: Path, index: int, traced: bool, deadline: float) -> Run:
    out = run_dir / f"out{index:03d}"
    args = [w.command, "--config", str(ROOT / w.config), *w.extra, "--seed", str(seed), "--out", str(out)]
    spans = run_dir / f"spans{index:03d}.json" if traced else None
    if traced:
        argv = [sys.executable, str(HERE / "trace_main.py"), str(spans), *args]
    else:
        argv = [sys.executable, "-m", "pidual", *args]
    timeout = max(deadline - time.monotonic(), 1.0)
    run = Run(out, spans, *timed(argv, run_dir / f"log{index:03d}.txt", timeout))
    if run.returncode != 0:
        run.failures.append(f"exit code {run.returncode}")
    return run


class Expected:
    """What the workload's config says its artifacts must hold."""

    def __init__(self, w: Workload, seed: int) -> None:
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from pidual.config import build_dataset, load_experiment_config

        self.cfg = load_experiment_config(ROOT / w.config, seed)
        self.ds = build_dataset(self.cfg) if w.command == "train" else None
        r = self.cfg.risk
        self.risk_rows = 1 if r.sweep == "none" else len(r.sweep_values)
        if w.command == "risk":
            self.files = ["risk.csv", "risk.svg"]
            self.items = 2 * r.resamples * self.risk_rows
        else:
            self.files = ["summary.json", "best_checkpoint.json", "selected_dynamics.svg"]
            self.files += [f"trial_{i:03d}_record.csv" for i in range(max(w.grid_trials, 1))]
            for method in self.cfg.detection_methods:
                self.files += [f"detection_{method}.json", f"detection_{method}_hist.svg"]
            # A grid trains every point, then re-runs the selected one.
            trials = w.grid_trials + 1 if w.grid_trials else 1
            self.items = self.ds.split_indices("train").size * self.cfg.train.epochs * trials


def check_train(w: Workload, exp: Expected, out: Path) -> tuple[list[str], dict, int]:
    """Failed checks, quality figures and the number of failed grid trials."""
    from pidual import data as data_mod
    from pidual import model as model_mod

    fails = []
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    trials = summary["trials"]
    not_ok = [t["index"] for t in trials if t["status"] != "ok"]
    if len(trials) != max(w.grid_trials, 1) or not_ok:
        fails.append(f"{len(trials)} trials reported, not ok: {not_ok}")
    auc = summary["detection_auc"]
    for method, floor in w.min_auc:
        if not auc.get(method, -math.inf) >= floor:
            fails.append(f"{method} AUC {auc.get(method)} below {floor}")
    selected = next(t for t in trials if t["index"] == summary["selected_trial"])
    model = model_mod.load_checkpoint(out / "best_checkpoint.json")
    x, _ = exp.ds.eval_inputs(data_mod.SPLIT_CLEAN_TEST)
    labels = exp.ds.clean_labels_of(data_mod.SPLIT_CLEAN_TEST)
    acc = float((model_mod.forward_infer(model, x).argmax(axis=1) == labels).mean())
    if acc != selected["clean_test_at_best"]:
        fails.append(f"checkpoint scores {acc!r} on clean test, summary says {selected['clean_test_at_best']!r}")
    quality = {
        "clean_test_acc": selected["clean_test_at_best"],
        "gate_auc": auc.get("gate"),
        "confidence_auc": auc.get("confidence"),
    }
    return fails, quality, len(not_ok)


def check_risk(w: Workload, exp: Expected, out: Path) -> tuple[list[str], dict, int]:
    with (out / "risk.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    fails = []
    if len(rows) != exp.risk_rows:
        fails.append(f"risk.csv has {len(rows)} rows, not {exp.risk_rows}")
    gap = max(
        (
            abs(float(row[mc]) - float(row[closed])) / float(row[closed])
            for row in rows
            for mc, closed in (("mc_ols", "ols_total"), ("mc_pidual", "pidual_total"))
        ),
        default=math.inf,
    )
    if not gap <= MAX_RISK_MC_GAP:
        fails.append(f"risk_mc_gap {gap!r} above {MAX_RISK_MC_GAP}")
    return fails, {"risk_mc_gap": gap}, 0


def digest(out: Path) -> str:
    """Hash of every artifact, with summary.json's wall clock left out."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "summary.json":
            doc = json.loads(data)
            doc.pop("wall_clock_seconds", None)
            data = json.dumps(doc, sort_keys=True).encode()
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()


def check_runs(w: Workload, seed: int, runs: list[Run], problems: list[str]) -> tuple[Expected | None, dict, int]:
    """Check every run in place; returns the expectations, quality figures and failed trials."""
    try:
        exp = Expected(w, seed)
    except Exception as exc:  # the harness reports a broken workload, it does not crash
        problems.append(f"cannot read the workload config: {exc!r}")
        exp = None
    check = check_risk if w.command == "risk" else check_train
    quality: dict = {}
    failed_trials = 0
    reference = None
    for run in runs:
        if run.returncode != 0:
            continue
        if exp is None:
            run.failures.append("unchecked: the workload config did not load")
            continue
        missing = [name for name in exp.files if not (run.out / name).is_file()]
        if missing:
            run.failures.append(f"missing artifacts: {missing}")
            continue
        try:
            fails, figures, bad_trials = check(w, exp, run.out)
        except Exception as exc:
            run.failures.append(f"check raised {exc!r}")
            continue
        run.failures += fails
        failed_trials += bad_trials
        quality = quality or figures
        run_digest = digest(run.out)
        reference = reference or run_digest
        if run_digest != reference:
            run.failures.append("artifacts differ from the first run at this seed")
    return exp, quality, failed_trials


def machine_context() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy older than 1.26 prints its config only
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "loadavg": os.getloadavg(),
    }


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, work_dir: Path) -> tuple[dict, dict]:
    """Measure and check one workload; returns the result line and the full report."""
    deadline = time.monotonic() + w.deadline_s
    run_dir = work_dir / f"{w.name}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    machine = machine_context()
    problems: list[str] = []

    setup: list[float] = []
    calibration: list[float] = []

    def probe(script: str, *args: str) -> tuple[float, Path]:
        log = run_dir / f"{Path(script).stem}{len(setup):03d}.txt"
        wall, _, _, code = timed([sys.executable, str(HERE / script), *args], log, max(deadline - time.monotonic(), 1.0))
        if code != 0:
            problems.append(f"{script} {len(setup)}: exit code {code}")
        return wall, log

    def calibrate() -> None:
        _, log = probe("calibrate.py")
        try:
            calibration.append(float(log.read_text(encoding="utf-8")))
        except ValueError:
            calibration.append(math.nan)
            problems.append(f"calibration {len(calibration) - 1} printed no time")

    def probe_setup() -> None:
        setup.append(probe("setup_probe.py", w.command, str(ROOT / w.config), str(seed))[0])
        calibrate()

    runs: list[Run] = []
    iteration_s = 0.0
    start = time.monotonic()
    if not trace:
        calibrate()
    # A run starts no command it expects to end after `seconds`, so that its
    # length, and the length of the whole benchmark, stays predictable.
    while len(runs) < 1 + trace or (
        time.monotonic() - start + iteration_s <= seconds
        and time.monotonic() + iteration_s < deadline - 5.0
    ):
        began = time.monotonic()
        # In a traced run every second command is traced.
        runs.append(invoke(w, seed, run_dir, len(runs), trace and len(runs) % 2 == 1, deadline))
        if not trace:
            # One set-up probe and one calibration after each command spread
            # the probes over the run, as the commands are.
            probe_setup()
        iteration_s = max(iteration_s, time.monotonic() - began)
    while not trace and len(setup) < MIN_SETUP_PROBES:
        probe_setup()

    exp, quality, failed_trials = check_runs(w, seed, runs, problems)
    attempted = len(runs) * (1 + w.grid_trials)
    failed = sum(1 for r in runs if r.failures) + failed_trials

    plain = [r for r in runs if r.spans is None]
    wall = statistics.median(r.wall_s for r in plain)
    # Command k and set-up probe k sit between calibrations k and k + 1.
    speed = [REFERENCE_CALIBRATION_S * 2 / (a + b) for a, b in zip(calibration, calibration[1:])]
    if trace:
        traced = [r for r in runs if r.spans is not None]
        per_run = [
            spans_mod.layer_metrics(spans_mod.load(r.spans))
            for r in traced
            if r.returncode == 0 and r.spans.is_file()
        ] or [spans_mod.layer_metrics([])]
        metrics = {
            name: (statistics.median(m[name][0] for m in per_run), unit)
            for name, (_, unit) in per_run[0].items()
        }
        metrics["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced) - wall, "s")
    else:
        scaled_wall = statistics.median(r.wall_s * f for r, f in zip(runs, speed))
        metrics = {
            "wall_s": (scaled_wall, "s"),
            "cpu_s": (statistics.median(r.cpu_s * f for r, f in zip(runs, speed)), "s"),
            "peak_rss_mb": (statistics.median(r.rss_mb for r in runs), "MB"),
            "setup_s": (statistics.median(s * f for s, f in zip(setup, speed)), "s"),
            "items_per_s": ((exp.items if exp else 0) / scaled_wall, "1/s"),
        }

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    report = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine,
        "failed_share": failed / attempted,
        "quality": quality,
        "problems": problems,
        "wall_s_quartiles": _quartiles([r.wall_s for r in plain]),
        "unscaled_medians": {
            "wall_s": wall,
            "cpu_s": statistics.median(r.cpu_s for r in runs),
            "setup_s": statistics.median(setup) if setup else None,
        },
        "setup_s_runs": setup,
        "calibration_s": calibration,
        "speed_factors": speed,
        "runs": [
            {
                "traced": r.spans is not None,
                "wall_s": r.wall_s,
                "cpu_s": r.cpu_s,
                "peak_rss_mb": r.rss_mb,
                "exit_code": r.returncode,
                "failures": r.failures,
            }
            for r in runs
        ],
        **result,
    }
    (run_dir / "result.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return result, report


def print_report(report: dict) -> None:
    def say(line: str) -> None:
        print(line, file=sys.stderr)

    say(f"== {report['workload']} seed={report['seed']} trace={int(report['trace'])}")
    say(f"machine: {json.dumps(report['machine'])}")
    say(f"runs: {len(report['runs'])}  attempted: {report['attempted']}  failed: {report['failed']}"
        f"  failed_share: {report['failed_share']:.4g}")
    for name, m in report["metrics"].items():
        say(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    if not report["trace"]:
        q1, _, q3 = report["wall_s_quartiles"]
        say(f"  {'unscaled wall_s quartiles':40s} {q1:.4f} .. {q3:.4f} s")
        for name, value in report["unscaled_medians"].items():
            say(f"  {'unscaled ' + name:40s} {value:>14.6g} s")
        say(f"  {'speed factors':40s} {min(report['speed_factors']):.3f} .. {max(report['speed_factors']):.3f}")
    for name, value in report["quality"].items():
        say(f"  {name:40s} {value!r}")
    for i, run in enumerate(report["runs"]):
        for failure in run["failures"]:
            say(f"  run {i} failed: {failure}")
    for problem in report["problems"]:
        say(f"  problem: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True, help="passed to pidual as --seed")
    parser.add_argument("--seconds", type=float, required=True, help="how long to keep running the command")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pidual" / "cli.py").is_file():
        print(f"perfbench: no pidual sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name], report = run_workload(
            WORKLOADS[name], args.seed, args.seconds, bool(args.trace), ROOT / ".perfbench"
        )
        print_report(report)
    if len(results) == 1:
        line = results[names[0]]
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
