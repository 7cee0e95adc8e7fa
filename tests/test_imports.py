"""No command loads scipy: the package runs on numpy alone.

``distributions`` computes the special functions itself: ``_ndtri`` for the
log-normal ``quantile`` (``analyze --qq``), ``_erfc`` for the exact oracle
``exact_typical_mean_ratio``, ``_log_ndtr`` and ``_psi`` for the skew-normal and
gamma fits.  Each case runs in a fresh interpreter and reads ``sys.modules``:
whether ``scipy`` is there at all, and which public scipy submodules (the module
names in ``scipy.__all__``) are.  A module-level ``import scipy`` or ``from scipy
import stats`` would add its import cost to every command and fail here, and so
does the AST check of each module's imports; a fresh interpreter that cannot
import scipy at all runs every command.

The same fresh interpreters check which of the modules that only one command
runs (``gbm``, ``index_model``, ``lognormal_sum``) each launch runs.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
REPORT = (
    "import json, sys, scipy\n"
    "print(json.dumps(sorted({m.split('.')[1] for m in sys.modules if m.startswith('scipy.')}"
    " & set(scipy.__all__))))\n"
)


def fresh_output(code: str) -> str:
    """The last line ``code`` prints when run in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def scipy_loaded(code: str) -> set[str]:
    """Public scipy submodules loaded after running ``code`` in a fresh interpreter."""
    return set(json.loads(fresh_output(code + "\n" + REPORT)))


def cli_loaded(expected_rc: int, *args: str) -> set[str]:
    """Public scipy submodules loaded by one ``cli.main`` call that must exit ``expected_rc``."""
    return scipy_loaded(f"import bigwinners.cli\nrc = bigwinners.cli.main({list(args)!r})\n"
                        f"assert rc == {expected_rc}, rc")


@pytest.fixture(scope="module")
def price_file(tmp_path_factory):
    """Twelve seeded random-walk tickers on 40 consecutive days."""
    rng = np.random.default_rng(5)
    path = tmp_path_factory.mktemp("prices") / "panel.csv"
    days = np.arange(np.datetime64("2006-01-02"), np.datetime64("2006-02-11"))
    lines = ["ticker,date,adj_close"]
    for i in range(12):
        prices = 10.0 * np.exp(np.cumsum(rng.normal(0.002 * i, 0.02, days.size)))
        lines += [f"T{i:02d},{day},{price!r}" for day, price in zip(days, prices.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_import_loads_no_scipy_submodule():
    assert scipy_loaded("import bigwinners.cli") == set()


@pytest.mark.parametrize("command", ["analyze", "gbm"])
def test_analyze_and_gbm_never_load_stats(price_file, tmp_path, command):
    """Neither loads any scipy submodule: gbm's skew-normal and gamma fits take their
    special functions from ``distributions._log_ndtr`` and ``distributions._psi``."""
    loaded = cli_loaded(0, command, "--input", str(price_file), "--out", str(tmp_path))
    assert loaded == set()


REGIME_ARGV = ["regime", "--mu", "0.5", "--sigma", "1.0", "--reps", "10000", "--n-grid", "1,4", "--seed", "1"]
MODEL_ARGV = ["model", "--mu-d", "0.12", "--sigma-d", "0.03", "--sigma", "0.1", "--horizon", "16",
              "--simulate", "20000", "--seed", "1"]


@pytest.mark.parametrize("argv", [REGIME_ARGV, MODEL_ARGV], ids=lambda argv: argv[0])
def test_monte_carlo_commands_load_no_scipy_submodule(tmp_path, argv):
    """The Monte Carlo typical mean and its bootstrap take their KDE modes without scipy."""
    assert cli_loaded(0, *argv, "--out", str(tmp_path)) == set()


def test_malformed_file_loads_no_scipy_submodule(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("ticker,date,adj_close\nAAA,2006-01-02,1.0\nAAA,not-a-date,2.0\n", encoding="utf-8")
    assert cli_loaded(2, "analyze", "--input", str(bad), "--out", str(tmp_path)) == set()


def test_no_module_names_scipy_optimize():
    """scipy.optimize loads linalg, sparse, spatial and fft with it, and no module needs
    it: ``kde_mode`` refines its mode with a three-point parabola and the skew-normal
    fit runs its own Newton solve.  A use fails here."""
    users = sorted(path.name for path in (SRC / "bigwinners").glob("*.py")
                   if "scipy.optimize" in path.read_text(encoding="utf-8"))
    assert users == []


def test_only_distributions_words_the_integer_count_rule():
    """Every count goes through ``distributions._check_count``; a second copy of its rule fails here."""
    owners = sorted(path.name for path in (SRC / "bigwinners").glob("*.py")
                    if "must be an integer, got" in path.read_text(encoding="utf-8"))
    assert owners == ["distributions.py"]


def test_only_grid_bins_and_tilts_the_kde_sample():
    """``empirical._grid`` alone calls ``np.histogram`` and takes the tilt ``np.exp`` of the
    grid centers, and ``index_model`` leaves the 5-point minimum to ``kde_mode``; a second
    copy of either rule fails here."""
    def bins_or_tilts(node):
        name = ast.unparse(node.func)
        return name == "np.histogram" or name == "np.exp" and "centers" in ast.unparse(node)

    tree = ast.parse((SRC / "bigwinners" / "empirical.py").read_text(encoding="utf-8"))
    owners = [getattr(top, "name", None) for top in tree.body for node in ast.walk(top)
              if isinstance(node, ast.Call) and bins_or_tilts(node)]
    assert owners == ["_grid", "_grid"]
    assert "KDE_MIN_POINTS" not in (SRC / "bigwinners" / "index_model.py").read_text(encoding="utf-8")


def test_no_module_names_scipy_stats():
    """scipy.stats costs about a second to import and no module needs it; a use fails here."""
    users = sorted(path.name for path in (SRC / "bigwinners").glob("*.py")
                   if "scipy.stats" in path.read_text(encoding="utf-8"))
    assert users == []


@pytest.mark.parametrize(
    "argv, expected_rc",
    [
        ([], 0),
        (["analyze", "--input", "PRICES"], 0),
        (["analyze", "--input", "PRICES", "--format", "json"], 0),
        (["analyze", "--input", "MALFORMED"], 2),
        (["gbm", "--input", "PRICES"], 0),
        (["gbm", "--input", "PRICES", "--estimator", "mle", "--format", "json"], 0),
        (REGIME_ARGV, 0),
        (MODEL_ARGV, 0),
        (["analyze", "--input", "PRICES", "--qq"], 0),
    ],
    ids=["import", "analyze", "analyze-json", "analyze-malformed", "gbm", "gbm-mle-json", "regime-reps",
         "model-simulate", "analyze-qq"],
)
def test_no_command_imports_scipy_at_all(price_file, tmp_path, argv, expected_rc):
    """``import bigwinners.cli`` and every command leave ``scipy`` itself out of
    ``sys.modules``."""
    malformed = tmp_path / "malformed.csv"
    malformed.write_text("ticker,date,adj_close\nAAA,2006-01-02,1.0\nAAA,not-a-date,2.0\n", encoding="utf-8")
    paths = {"PRICES": str(price_file), "MALFORMED": str(malformed)}
    args = [paths.get(arg, arg) for arg in argv] + (["--out", str(tmp_path / "out")] if argv else [])
    run = f"rc = bigwinners.cli.main({args!r})\nassert rc == {expected_rc}, rc\n" if argv else ""
    assert fresh_output(f"import sys, bigwinners.cli\n{run}print('scipy' in sys.modules)") == "False"


def test_every_command_runs_where_scipy_cannot_be_imported(price_file, tmp_path):
    """With ``sys.modules["scipy"] = None`` any scipy import raises ImportError; every
    command, and the exact oracle, still runs."""
    out = str(tmp_path / "out")
    runs = [["analyze", "--input", str(price_file)], ["analyze", "--input", str(price_file), "--qq"],
            ["gbm", "--input", str(price_file)], REGIME_ARGV, MODEL_ARGV]
    code = (
        "import sys\nsys.modules['scipy'] = None\n"
        "import bigwinners.cli\nfrom bigwinners import LogNormalParams, exact_typical_mean_ratio\n"
        f"assert [bigwinners.cli.main(argv + ['--out', {out!r}]) for argv in {runs!r}] == [0] * {len(runs)}\n"
        "print(exact_typical_mean_ratio(LogNormalParams(0.0, 1.0), 4))\n"
    )
    assert 0.0 < float(fresh_output(code)) < 1.0


def module_level_scipy_imports(source: str) -> list[int]:
    """Lines of ``source`` that import scipy (or a part of it) outside every function body."""
    tree = ast.parse(source)
    in_function = {id(node) for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)}

    def names_scipy(node) -> bool:
        modules = [alias.name for alias in node.names] if isinstance(node, ast.Import) else [node.module or ""]
        return any(module.split(".")[0] == "scipy" for module in modules)

    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in in_function
                  and names_scipy(node))


def test_no_module_imports_scipy_outside_a_function():
    users = {path.name: lines for path in sorted((SRC / "bigwinners").glob("*.py"))
             if (lines := module_level_scipy_imports(path.read_text(encoding="utf-8")))}
    assert users == {}


def test_module_level_scipy_imports_sees_each_form():
    source = (
        "import scipy\n"
        "from scipy import special\n"
        "import numpy, scipy.special as sp\n"
        "def f():\n"
        "    import scipy\n"
        "    from scipy.special import ndtr\n"
        "class C:\n"
        "    import scipy.stats\n"
        "if True:\n"
        "    from scipy.special import ndtri\n"
        "from . import scipy_like\n"
        "import scipyx\n"
    )
    assert module_level_scipy_imports(source) == [1, 2, 3, 8, 10]


@pytest.mark.parametrize(
    "argv, loaded",
    [([], "False"), (["regime", "--mu", "0", "--sigma", "1", "--n-grid", "1,2", "--reps", "10000", "--seed", "1"],
                     "True")],
    ids=["import", "regime-reps"],
)
def test_thread_pool_loads_only_when_regime_draws(tmp_path, argv, loaded):
    """``regime --reps`` imports concurrent.futures (about 10 ms, with logging) where
    it starts its pool, so no command's start-up pays for it."""
    run = f"assert bigwinners.cli.main({argv + ['--out', str(tmp_path)]!r}) == 0\n" if argv else ""
    assert fresh_output(f"import sys, bigwinners.cli\n{run}print('concurrent.futures' in sys.modules)") == loaded


PUBLIC_NAMES = {
    "AsymmetricLaplaceParams", "GammaParams", "LogNormalParams", "MomentSummary", "SkewNormalParams",
    "fit_asymmetric_laplace", "fit_gamma", "fit_lognormal", "fit_skew_normal", "huber_regression",
    "lognormal_moments", "pearson_correlation", "sample",
    "IndexSummary", "KDEModeResult", "PricePanel", "ReturnSample", "fit_macroscopic", "kde_mode", "load_panel",
    "qq_data", "summarize_index", "tail_filter", "top_contribution", "total_returns",
    "DriftVolPanel", "GBMEstimate", "GBMParams", "PricePath", "build_panel", "estimate_gbm", "simulate_gbm",
    "DriftModelParams", "UnderperformanceRatios", "implied_lognormal", "model_ratios", "simulate_index",
    "classify_regime", "exact_typical_mean_ratio", "mc_typical_mean", "regime_curve", "typical_mean_ratio",
}


def test_package_imports_only_names_in_each_modules_all():
    """The public surface is each module's ``__all__``: ``bigwinners/__init__.py``
    re-exports from it, eagerly or through its lazy name table, and adds no name
    of its own; together the two are the 42 public names."""
    import bigwinners

    tree = ast.parse((SRC / "bigwinners" / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    eager = set()
    for node in imports:
        module = importlib.import_module(f"bigwinners.{node.module}")
        assert {alias.name for alias in node.names} <= set(module.__all__), node.module
        eager |= {alias.name for alias in node.names}
    for short, names in bigwinners._LAZY.items():
        assert set(names) <= set(importlib.import_module(f"bigwinners.{short}").__all__), short
    lazy = [name for names in bigwinners._LAZY.values() for name in names]
    assert len(eager) + len(lazy) == len(PUBLIC_NAMES) == 42
    assert eager | set(lazy) == PUBLIC_NAMES


LAZY_MODULES = ("gbm", "index_model", "lognormal_sum")


@pytest.mark.parametrize(
    "argv, ran",
    [
        ([], []),
        (["analyze", "--input", "PRICES"], []),
        (["analyze", "--input", "PRICES", "--qq"], []),
        (["gbm", "--input", "PRICES"], ["gbm"]),
        (REGIME_ARGV, ["lognormal_sum"]),
        (MODEL_ARGV, ["index_model"]),
    ],
    ids=["import", "analyze", "analyze-qq", "gbm", "regime-reps", "model-simulate"],
)
def test_each_launch_runs_only_its_commands_module(price_file, tmp_path, argv, ran):
    """``import bigwinners.cli`` registers ``gbm``, ``index_model`` and ``lognormal_sum``
    unrun, and each command runs only its own one of them.  A lazy module's type is
    ``importlib.util._LazyModule`` until it runs (``type()`` does not run it).  The
    package's lazy names are then the submodules' own objects."""
    args = [str(price_file) if arg == "PRICES" else arg for arg in argv] + (["--out", str(tmp_path)] if argv else [])
    run = f"assert bigwinners.cli.main({args!r}) == 0\n" if argv else ""
    code = (
        f"import sys, types, bigwinners.cli\n{run}"
        f"ran = [m for m in {LAZY_MODULES!r} if type(sys.modules['bigwinners.' + m]) is types.ModuleType]\n"
        "from bigwinners import build_panel, regime_curve, simulate_index\n"
        "from bigwinners import gbm, index_model, lognormal_sum\n"
        "assert build_panel is gbm.build_panel and regime_curve is lognormal_sum.regime_curve\n"
        "assert simulate_index is index_model.simulate_index\n"
        "print(ran)\n"
    )
    assert fresh_output(code) == repr(ran)


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports (anywhere, ``__future__`` aside) but never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    return sorted(imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


def test_no_module_imports_a_name_it_never_uses():
    """No linter runs on the package, so a dead import fails here.  ``__init__.py``
    is left out: its imports are the re-exported public surface."""
    unused = {path.name: names for path in sorted((SRC / "bigwinners").glob("*.py"))
              if path.name != "__init__.py" and (names := unused_imports(path.read_text(encoding="utf-8")))}
    assert unused == {}


def test_unused_imports_sees_each_import_form():
    source = "import a.b\nimport c as d\nfrom e import f, g as h\nfrom __future__ import annotations\nf(a)\n"
    assert unused_imports(source) == ["d", "h"]


def test_no_function_imports_a_package_module():
    """Each module names the package's modules once, at module level, so what a launch
    runs is decided in one place: ``cli`` takes the lazy ``gbm``, ``index_model`` and
    ``lognormal_sum`` as ``from . import`` names, which do not run them, and reads each
    only inside its command.  A package import inside a function fails here; standard
    library imports there (``json``, ``concurrent.futures``) stay."""
    def imports_package(node) -> bool:
        if isinstance(node, ast.ImportFrom):
            return node.level > 0 or (node.module or "").split(".")[0] == "bigwinners"
        return isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "bigwinners" for alias in node.names)

    inside = {}
    for path in sorted((SRC / "bigwinners").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = sorted({node.lineno for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        for node in ast.walk(fn) if imports_package(node)})
        if lines:
            inside[path.name] = lines
    assert inside == {}
