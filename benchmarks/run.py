"""Benchmark of the bigwinners CLI on seeded workloads.

    python3 benchmarks/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  With ``--trace 0`` each command of the
workload runs as ``python -m bigwinners.cli ...`` in a fresh interpreter,
one after another (a closed loop with one caller), for ``--seconds``
seconds; timings include interpreter start and package import, which every
CLI user pays.  With ``--trace 1`` the same commands run in this process,
alternately plain and under the span tracer, and the per-layer costs are
reported.  Every command's exit code and reports are checked against what
the workload generator knows; reruns must give byte-identical reports.
The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import fixtures
from tracer import COUNTED_ARGS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
IMPORTTIME_LAUNCHES = 3
# A fixed program that does not use bigwinners: interpreter start, numpy
# import, string parsing and numpy draws, like the CLI commands.  It runs
# before every timed step and once after the last.  The shared machine's
# speed drifts by 20-30% over tens of minutes with no code change, so each
# step's wall time is divided by the mean of the reference times just
# before and just after it, and the gated times are those ratios times
# REF_S: seconds at the baseline machine's usual speed.
REFERENCE = (
    "import numpy as np\n"
    "rows = [f'{i},T{i % 400},{i * 0.37:.4f}' for i in range(150_000)]\n"
    "total = sum(float(row.split(',')[2]) for row in rows)\n"
    "draws = np.random.default_rng(0).lognormal(0.0, 1.0, 3_000_000)\n"
    "np.sort(draws)\n"
)
REF_S = 0.45
IMPORT_MODULES = (
    "bigwinners", "bigwinners.cli", "bigwinners.distributions", "bigwinners.empirical",
    "bigwinners.gbm", "bigwinners.index_model", "bigwinners.lognormal_sum",
    "numpy", "scipy.stats", "scipy.optimize",
)
SOURCE_MODULES = ("cli", "distributions", "empirical", "gbm", "index_model", "lognormal_sum",
                  "errors", "__init__")
# Traced functions reported one by one; every other traced function is
# summed into other.self_s.
LAYER_FUNCTIONS = (
    "cli.main", "cli.write_report",
    "empirical.load_panel", "empirical.total_returns", "empirical.top_contribution",
    "empirical.summarize_index", "empirical.kde_mode", "empirical.kde_mode_bootstrap_stderr",
    "empirical.tail_filter", "empirical.fit_macroscopic", "empirical.qq_data",
    "empirical.write_returns_csv",
    "gbm.estimate_gbm", "gbm.build_panel", "gbm.write_panel_csv",
    "lognormal_sum.regime_curve", "lognormal_sum.mc_typical_mean",
    "index_model.simulate_index", "index_model.sample_ratio_summary",
    "distributions.fit_lognormal", "distributions.fit_skew_normal", "distributions.fit_gamma",
    "distributions.huber_regression", "distributions.pearson_correlation",
    "distributions.quantile",
)
COUNT_METRICS = (
    ("empirical.load_panel.rows", "count"), ("io.bytes_read", "B"),
    ("empirical.tickers_loaded", "count"), ("empirical.tickers_kept_ratio", "fraction"),
    ("empirical.kde_unstable_notes", "count"),
    ("empirical.kde_mode_bootstrap_stderr.replicates", "count"),
    ("index_model.sample_ratio_summary.replicates", "count"),
    ("lognormal_sum.draws", "count"), ("lognormal_sum.formula_gap_max", "ratio"),
    ("gbm.clamped_estimates", "count"), ("gbm.fit_errors", "count"),
    ("cli.write_report.rows", "count"), ("cli.write_report.bytes", "B"),
    ("empirical.write_returns_csv.rows", "count"), ("empirical.write_returns_csv.bytes", "B"),
    ("gbm.write_panel_csv.bytes", "B"),
)


@dataclass
class Op:
    """One CLI command of a workload and the check of its output."""

    name: str
    argv: list[str]
    out: Path
    check: Callable[[int, str, Path], list[str]]


@dataclass
class Workload:
    ops: list[Op]
    work_ops: tuple[str, ...]  # commands whose time the throughput divides by
    work_units: float  # price rows ingested or log-normal draws, per pass
    units_name: str
    panel: fixtures.Panel | None = None
    reads: tuple[Path, ...] = ()  # price files the commands read, per pass


def _panel_ops(panel: fixtures.Panel, out: Path, gbm_args: list[str], fmt: str, qq: bool):
    src = str(panel.path)
    analyze = ["analyze", "--input", src, "--out", str(out / "analyze")]
    if qq:
        analyze.append("--qq")
    gbm = ["gbm", "--input", src, *gbm_args, "--out", str(out / "gbm")]
    if fmt != "csv":
        gbm += ["--format", fmt]
    return [
        Op("analyze", analyze, out / "analyze",
           lambda rc, err, o: checks.check_analyze(rc, err, o, panel, qq=qq)),
        Op("gbm", gbm, out / "gbm", lambda rc, err, o: checks.check_gbm(rc, err, o, panel, fmt)),
    ]


def build_workload(name: str, seed: int, work: Path) -> Workload:
    """Generate the inputs of one workload (untimed) and its commands."""
    out = work / "out"
    if name == "panel_long":
        panel = fixtures.make_panel(fixtures.PANEL_LONG, seed, work / "in")
        ops = _panel_ops(panel, out, ["--dt", repr(fixtures.PANEL_LONG.dt_years)], "csv", False)
        ops.append(Op("reject", ["analyze", "--input", str(panel.bad_path),
                                 "--out", str(out / "reject")], out / "reject",
                      lambda rc, err, o: checks.check_reject(rc, err, o, panel)))
        return Workload(ops, ("analyze", "gbm"), 2 * panel.data_rows, "rows", panel,
                        (panel.path, panel.path, panel.bad_path))
    if name == "panel_wide":
        panel = fixtures.make_panel(fixtures.PANEL_WIDE, seed, work / "in")
        ops = _panel_ops(panel, out, ["--dt", "1"], "json", True)
        return Workload(ops, ("analyze", "gbm"), 2 * panel.data_rows, "rows", panel,
                        (panel.path, panel.path))
    if name == "monte_carlo":
        regime_seed, model_seed = (int(s) for s in np.random.SeedSequence(seed).generate_state(2))
        regime = checks.RegimeSpec(mu=0.95, sigma=1.02, reps=50_000, seed=regime_seed,
                                   grid=tuple(2**k for k in range(11)))
        model = checks.ModelSpec(mu_d=0.12, sigma_d=0.03, sigma=0.1, horizon=16,
                                 simulate=300_000, seed=model_seed)
        ops = [
            Op("regime", ["regime", "--mu", repr(regime.mu), "--sigma", repr(regime.sigma),
                          "--reps", str(regime.reps), "--seed", str(regime.seed),
                          "--out", str(out / "regime")], out / "regime",
               lambda rc, err, o: checks.check_regime(rc, err, o, regime)),
            Op("model", ["model", "--mu-d", repr(model.mu_d), "--sigma-d", repr(model.sigma_d),
                         "--sigma", repr(model.sigma), "--horizon", repr(model.horizon),
                         "--simulate", str(model.simulate), "--export-sample",
                         "--seed", str(model.seed), "--out", str(out / "model")],
               out / "model", lambda rc, err, o: checks.check_model(rc, err, o, model)),
        ]
        draws = sum(regime.grid) * regime.reps
        return Workload(ops, ("regime",), draws, "draws")
    raise SystemExit(f"unknown workload {name!r}")


WORKLOADS = ("panel_long", "panel_wide", "monte_carlo")


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def launch(args: list[str], env: dict[str, str]) -> tuple[int, float, int, str]:
    """Run ``python <args>``; return exit code, wall seconds, peak RSS (KiB), stderr."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        with proc.stderr:
            err = proc.stderr.read().decode("utf-8", "replace")
        # wait4 rather than Popen.wait, for the child's own peak RSS.
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss, err


class Tally:
    """Attempted and failed operations, plus the byte-identity reference."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, dict[str, str]] = {}

    def count(self, problems: list[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"check failed: {what}: {problem}", file=sys.stderr)

    def record(self, op: Op, rc: int, err: str, extra: list[str] = ()) -> None:
        """Check a command's first output in full and later ones for byte identity."""
        digests = checks.digests(op.out)
        if op.name not in self.reference:
            problems = op.check(rc, err, op.out)
            self.reference[op.name] = digests
        elif digests != self.reference[op.name]:
            problems = ["reports differ from the first run of this command"]
        else:
            problems = []
        self.count([*problems, *extra], op.name)


def _fresh(out: Path) -> None:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)


def timed_run(wl: Workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Closed loop over a set-up launch and the workload's commands until ``seconds`` pass.

    Steps run round-robin, one at a time, with a reference launch before
    each and after the last; a run ends at most one step after the
    deadline, and each step runs at least once.  A set-up launch is a fresh
    ``import bigwinners.cli``.  A step's scaled time is the median over its
    runs of REF_S * wall / (mean of the two reference times around it).
    cycle_s sums the commands' scaled times: the time one caller waits for
    the workload's whole command sequence.
    """
    env = child_env()

    def reference() -> float:
        rc, wall, _, err = launch(["-c", REFERENCE], env)
        tally.count([] if rc == 0 else [f"reference failed: {err.strip()[-200:]}"], "reference")
        return wall

    launch(["-c", "import bigwinners.cli"], env)
    steps: list[Op | None] = [None, *wl.ops]  # None is a set-up launch
    walls: dict[str, list[float]] = defaultdict(list)
    scaled: dict[str, list[float]] = defaultdict(list)
    refs = [reference()]
    peak_kib = 0
    deadline = time.perf_counter() + seconds
    done = 0
    while done < len(steps) or time.perf_counter() < deadline:
        op = steps[done % len(steps)]
        if op is None:
            name = "setup"
            rc, wall, _, err = launch(["-c", "import bigwinners.cli"], env)
            tally.count([] if rc == 0 else [f"import failed: {err.strip()[-200:]}"], name)
        else:
            name = op.name
            _fresh(op.out)
            rc, wall, rss, err = launch(["-m", "bigwinners.cli", *op.argv], env)
            tally.record(op, rc, err)
            peak_kib = max(peak_kib, rss)
        refs.append(reference())
        walls[name].append(wall)
        scaled[name].append(REF_S * wall / ((refs[-2] + refs[-1]) / 2))
        done += 1

    med = {name: statistics.median(values) for name, values in walls.items()}
    metrics = {
        "setup_s": (statistics.median(scaled["setup"]), "s"),
        "cycle_s": (sum(statistics.median(scaled[op.name]) for op in wl.ops), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }
    commands = sum(len(walls[op.name]) for op in wl.ops)
    table = {f"{op.name}_s": (med[op.name], "s", len(walls[op.name])) for op in wl.ops}
    table.update({
        "reference_s": (statistics.median(refs), "s", len(refs)),
        "setup_wall_s": (med["setup"], "s", len(walls["setup"])),
        "cycle_wall_s": (sum(med[op.name] for op in wl.ops), "s", commands),
        f"{wl.units_name}_per_s": (wl.work_units / sum(med[n] for n in wl.work_ops),
                                   f"{wl.units_name}/s", commands),
        "setup_s": (metrics["setup_s"][0], "s", len(walls["setup"])),
        "cycle_s": (metrics["cycle_s"][0], "s", commands),
        "peak_rss_mb": (metrics["peak_rss_mb"][0], "MB", commands),
    })
    return metrics, table


# ---------------------------------------------------------------------------
# Traced in-process run
# ---------------------------------------------------------------------------

def _package_import_us(report: str) -> dict[str, float]:
    """Cumulative import time (us) of each IMPORT_MODULES entry.

    ``-X importtime`` prints children before their parent, indented one
    level deeper.  A module with a line of its own takes that line's
    cumulative time.  Lazily loaded packages (``scipy.stats``) get no line,
    so their cost is the sum over their submodule lines that no other
    submodule line of the package encloses.
    """
    entries = []
    for line in report.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            entries.append((len(name) - len(name.lstrip()), name.strip(), float(parts[1])))
    own = {name: cumulative for _, name, cumulative in reversed(entries)}
    totals = {m: own[m] for m in IMPORT_MODULES if m in own}
    ancestors: list[str] = []
    depths: list[int] = []
    for depth, name, cumulative in reversed(entries):
        while depths and depths[-1] >= depth:
            depths.pop()
            ancestors.pop()
        for module in IMPORT_MODULES:
            prefix = module + "."
            if module not in own and name.startswith(prefix) and not any(
                    a.startswith(prefix) for a in ancestors):
                totals[module] = totals.get(module, 0.0) + cumulative
        depths.append(depth)
        ancestors.append(name)
    return {m: totals.get(m, 0.0) for m in IMPORT_MODULES}


def import_times(env: dict[str, str]) -> dict[str, float]:
    """Median over launches of each module's cumulative import time (us)."""
    runs = [_package_import_us(launch(["-X", "importtime", "-c", "import bigwinners.cli"], env)[3])
            for _ in range(IMPORTTIME_LAUNCHES)]
    return {m: statistics.median(run[m] for run in runs) for m in IMPORT_MODULES}


def _load_panel_notes_problems(tracer: Tracer, panel: fixtures.Panel) -> list[str]:
    result, tracer.kept_result = tracer.kept_result, None
    if result is None:
        return []
    noted = tuple(sorted(note.split(":")[0] for note in result.notes))
    return [] if noted == panel.shuffled else [f"load notes name {noted}, expected {panel.shuffled}"]


def traced_run(wl: Workload, name: str, seed: int, seconds: float, tally: Tally):
    """Alternate plain and traced in-process passes until ``seconds`` pass.

    Returns the per-layer metrics (medians over traced passes) and the
    number of traced passes.
    """
    env = child_env()
    imports = import_times(env)
    sys.path.insert(0, str(SRC))
    import bigwinners.cli as cli

    tracer = Tracer(run_id=f"{name}-{seed}-{os.getpid()}")
    plain: list[float] = []
    traced: list[float] = []
    main_share: list[float] = []
    layers: list[dict] = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        for tracing in (False, True):
            if tracing:
                tracer.install()
            first_span = len(tracer.spans)
            total = 0.0
            try:
                for op in wl.ops:
                    _fresh(op.out)
                    err = io.StringIO()
                    with contextlib.redirect_stderr(err):
                        start = time.perf_counter()
                        rc = cli.main(op.argv)
                        total += time.perf_counter() - start
                    extra = []
                    if tracing and wl.panel:
                        extra = _load_panel_notes_problems(tracer, wl.panel)
                    tally.record(op, rc, err.getvalue(), extra)
            finally:
                tracer.uninstall()
            if tracing:
                stats = tracer.summarize(first_span)
                traced.append(total)
                main_share.append(stats["cli.main"]["self_s"] / total)
                layers.append(stats)
            else:
                plain.append(total)
    tracer.write(ROOT / ".bench_traces" / f"{name}-{seed}.jsonl")

    metrics: dict[str, tuple[float, str]] = {}
    for fn in LAYER_FUNCTIONS:
        for key, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s")):
            values = [s.get(fn, {}).get(key, 0.0) for s in layers]
            metrics[f"{fn}.{key}"] = (statistics.median(values), unit)
    other = [sum(v["self_s"] for k, v in s.items() if k not in LAYER_FUNCTIONS) for s in layers]
    metrics["other.self_s"] = (statistics.median(other), "s")

    counts: dict[str, float] = defaultdict(float)
    for op in wl.ops:
        for key, value in checks.report_counts(op.out).items():
            counts[key] += value
    if wl.panel:
        counts["empirical.load_panel.rows"] = len(wl.reads) * wl.panel.data_rows
        counts["io.bytes_read"] = sum(path.stat().st_size for path in wl.reads)
        counts["empirical.tickers_loaded"] = wl.panel.spec.tickers
        counts["empirical.tickers_kept_ratio"] = counts["empirical.tickers_kept"] / wl.panel.spec.tickers
    for fn, arg in COUNTED_ARGS.items():
        counts[f"{fn}.{arg}"] = tracer.arg_counts[fn] / len(layers)
    for key, unit in COUNT_METRICS:
        metrics[key] = (counts.get(key, 0.0), unit)

    untraced_s, traced_s = statistics.median(plain), statistics.median(traced)
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    metrics["cli.main.self_share"] = (statistics.median(main_share), "fraction")
    for module, value in imports.items():
        metrics[f"import.{module}.cumulative_us"] = (value, "us")
    total_lines = 0
    for module in SOURCE_MODULES:
        lines = len((SRC / "bigwinners" / f"{module}.py").read_text(encoding="utf-8").splitlines())
        total_lines += lines
        metrics[f"{module.strip('_') or module}.src_lines"] = (lines, "lines")
    metrics["bigwinners.src_lines"] = (total_lines, "lines")
    return metrics, len(layers)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    tally = Tally()
    try:
        wl = build_workload(name, seed, work)
        if trace:
            metrics, passes = traced_run(wl, name, seed, seconds, tally)
            table = {k: (v, unit, passes) for k, (v, unit) in metrics.items()}
        else:
            metrics, table = timed_run(wl, seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    table["fail_ratio"] = (tally.failed / max(tally.attempted, 1), "fraction", tally.attempted)
    print(f"# workload {name} seed {seed}: {tally.attempted} operations, {tally.failed} failed")
    for key, (value, unit, samples) in table.items():
        print(f"{name:12s} {key:48s} {value:16.6g} {unit:9s} n={samples}")
    return {
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bigwinners" / "cli.py").is_file():
        print(f"benchmark: no bigwinners package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    seed = args.seed % 2**64  # numpy seed sequences take no negative seeds
    results = {n: run_workload(n, seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
