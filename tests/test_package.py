import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xnb
import xnb.cli
from xnb.dataset import save_csv

from tests.conftest import make_separated

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_resolves():
    missing = [name for name in xnb.__all__ if not hasattr(xnb, name)]
    assert missing == []
    assert len(set(xnb.__all__)) == len(xnb.__all__)


def _xnb_chain(node: ast.AST) -> tuple[str, ...] | None:
    """The ("a", "b", ...) of a dotted name ``xnb.a.b...``; None for any other node."""
    chain = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if chain and isinstance(node, ast.Name) and node.id == "xnb":
        return tuple(reversed(chain))
    return None


def _xnb_attribute_chains(tree: ast.AST):
    """Each dotted name ``xnb.a.b...`` in a module, as ("a", "b", ...), prefixes included."""
    for node in ast.walk(tree):
        chain = _xnb_chain(node)
        if chain:
            yield chain


def test_every_name_the_benchmark_reads_resolves():
    # the benchmark reaches the library through attributes of the xnb module;
    # a refactor that drops one would otherwise fail only the benchmark's own run
    chains = {
        (path.name, chain)
        for path in sorted((ROOT / "bench").glob("*.py"))
        for chain in _xnb_attribute_chains(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert chains  # the benchmark does read the library through the module
    missing = []
    for name, chain in sorted(chains):
        target = xnb
        for attr in chain:
            if not hasattr(target, attr):
                missing.append(f"{name}: xnb.{'.'.join(chain)}")
                break
            target = getattr(target, attr)
    assert missing == []


# the spans that bench/run.py reads from a verb process: traced_verb.py wraps each
# function of xnb.__all__ that xnb.cli imports by name, and names its span after
# the function's module and name
_VERB_SPANS = (
    "dataset.load_csv",
    "classifier.fit_gnb",
    "classifier.fit_fnb",
    "classifier.fit_xnb",
    "classifier.save_model",
    "classifier.load_model",
    "classifier.predict",
    "evaluation.evaluate_cv",
)


@pytest.mark.parametrize("span", _VERB_SPANS)
def test_every_verb_span_the_benchmark_reads_is_traced(span):
    # a CLI that reached one of these through a wrapper or an alias would leave
    # its span, and the per-layer metrics read from it, empty without an error
    module, name = span.split(".")
    assert name in xnb.__all__
    fn = getattr(xnb, name)
    assert inspect.isfunction(fn) and getattr(xnb.cli, name, None) is fn
    assert fn.__module__ == f"xnb.{module}" and fn.__name__ == name


def _unbound_call(node: ast.Call, target) -> str | None:
    """Why the call ``node`` cannot bind to ``target``'s signature; None if it can."""
    if any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords):
        return "a * or ** argument cannot be checked"
    try:
        inspect.signature(target).bind(*node.args, **{k.arg: k.value for k in node.keywords})
    except TypeError as exc:
        return str(exc)
    return None


def test_every_call_the_benchmark_makes_binds():
    # a renamed or removed parameter (jobs=, theta=, mu=, ...) would otherwise
    # fail only the benchmark's own run, which Tier-1 does not include
    calls = [
        (f"{path.name}:{node.lineno}: xnb.{'.'.join(chain)}", node, chain)
        for path in sorted((ROOT / "bench").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and (chain := _xnb_chain(node.func))
    ]
    assert calls  # the benchmark does call the library through the module
    problems = []
    for where, node, chain in calls:
        target = xnb
        for attr in chain:
            target = getattr(target, attr)
        problem = _unbound_call(node, target)
        if problem:
            problems.append(f"{where}: {problem}")
    assert problems == []


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports and never reads; its ``__all__`` counts as a read."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return [name for name in imported if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    # a deletion that leaves its imports behind fails here, not in a linter
    # the project does not depend on
    unused = [
        f"{path.name}: {name}"
        for path in sorted((ROOT / "src" / "xnb").glob("*.py"))
        for name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert unused == []


# warnings: every library notice is a WARNING record on its module's logger, while
# a warnings.warn would print once per process, with its source line; io: every
# CSV is read as bytes through one csv reader that decodes lines as it takes
# them, so no module wraps a file in a text stream
@pytest.mark.parametrize("module", ["warnings", "io"])
def test_no_module_imports(module):
    importers = [
        path.name
        for path in sorted((ROOT / "src" / "xnb").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == module for alias in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == module
    ]
    assert importers == []


def test_records_set_their_fields_only_through_own():
    # what a record keeps is set once, in its constructor, through errors.own:
    # no module caches state on a record lazily or sets a field by hand
    cachers, setters = [], []
    for path in sorted((ROOT / "src" / "xnb").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        helper = {
            id(node)
            for top in tree.body
            if path.name == "errors.py" and isinstance(top, ast.FunctionDef) and top.name == "own"
            for node in ast.walk(top)
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ImportFrom) and any(alias.name == "cached_property" for alias in node.names)
                or isinstance(node, ast.Attribute) and node.attr == "cached_property"
            ):
                cachers.append(path.name)
            if isinstance(node, ast.Attribute) and node.attr == "__setattr__":
                setters.append(f"{path.name}{' (own)' if id(node) in helper else f':{node.lineno}'}")
    assert cachers == []
    assert setters == ["errors.py (own)"]


def _unused_private_definitions(modules: dict[str, ast.Module]) -> list[str]:
    """Module-level functions and classes named ``_...`` that no code outside their own definition reads."""
    reads = []  # (top-level statement, the names it reads)
    for tree in modules.values():
        for statement in tree.body:
            names = {node.id for node in ast.walk(statement) if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(statement) if isinstance(node, ast.Attribute)}
            reads.append((statement, names))
    return [
        f"{name}: {statement.name}"
        for name, tree in modules.items()
        for statement in tree.body
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef))
        and statement.name.startswith("_")
        and not any(statement.name in names for other, names in reads if other is not statement)
    ]


def test_every_private_helper_is_used():
    # a deletion that leaves a private helper behind fails here, as a
    # leftover import fails the check above
    modules = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "xnb").glob("*.py"))
    }
    assert _unused_private_definitions(modules) == []


def _run_demo(demo: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    result = _run_demo(demo)
    assert result.returncode == 0, result.stderr


def test_feature_relevance_demo_selects_proper_subsets():
    # the demo shows minimal per-class subsets: no class may run out of
    # candidates and take every variable
    lines = _run_demo("02_feature_relevance.py").stdout.splitlines()
    exhausted = next(line for line in lines if line.startswith("exhausted"))
    assert ast.literal_eval(exhausted.split(":", 1)[1].strip()) == {"a": False, "b": False, "c": False}
    start = next(i for i, line in enumerate(lines) if line.startswith("selected variables per class"))
    subsets = [ast.literal_eval(line.split(":", 1)[1].strip()) for line in lines[start + 1 : start + 4]]
    assert all(0 < len(subset) < 8 for subset in subsets)


# the numpy submodules that ``import numpy`` leaves out and loads on first use
_LAZY_NUMPY = (
    "numpy.char", "numpy.ctypeslib", "numpy.f2py", "numpy.fft", "numpy.ma", "numpy.matlib",
    "numpy.polynomial", "numpy.random", "numpy.rec", "numpy.testing", "numpy.typing",
)


def _lazy_numpy_after(code: str, *argv: str) -> list[str]:
    """The lazily loaded numpy submodules in ``sys.modules`` after ``code`` runs in a fresh interpreter."""
    probe = f"import sys\n{code}\nprint(sorted(m for m in {_LAZY_NUMPY!r} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", probe, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return ast.literal_eval(result.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    """A directory with a tiny training CSV and an xnb model fitted to it."""
    tmp = tmp_path_factory.mktemp("imports")
    d, _ = make_separated(n=30, m=6, k=2, seed=0)
    save_csv(d, tmp / "train.csv")
    argv = ["fit", "--data", str(tmp / "train.csv"), "--model", str(tmp / "model.json")]
    assert xnb.cli.main(argv) == 0
    return tmp


@pytest.mark.parametrize(
    "verb, loaded",
    [
        ("fit", []),
        ("predict", []),
        ("evaluate", ["numpy.random"]),  # the fold shuffle
        ("select", []),
        ("diagnose", ["numpy.random"]),  # the pair sample
        ("inspect hellinger", []),
    ],
    ids=["fit", "predict", "evaluate", "select", "diagnose", "inspect-hellinger"],
)
def test_each_verb_loads_only_the_numpy_submodules_it_needs(tiny_inputs, verb, loaded):
    # numpy.ma alone costs about 15 ms per process, which every CLI run pays
    data, out = str(tiny_inputs / "train.csv"), str(tiny_inputs / f"{verb.replace(' ', '-')}.out")
    flags = {
        "fit": ["--data", data, "--model", out],
        "predict": ["--data", data, "--model", str(tiny_inputs / "model.json"), "--out", out],
        "evaluate": ["--data", data, "--k", "3", "--out", out],
        "diagnose": ["--data", data, "--max-pairs", "3", "--out", out],  # 3 of the 15 pairs: a sample
    }.get(verb, ["--data", data, "--out", out])
    code = "from xnb.cli import main\nassert main(sys.argv[1:]) == 0"
    assert _lazy_numpy_after(code, *verb.split(), *flags) == loaded


def test_save_csv_loads_no_lazy_numpy_submodule(tiny_inputs):
    code = (
        "from xnb.dataset import Dataset, save_csv\n"
        f"save_csv(Dataset(('a', 'b'), [[1.5, -0.0], [5e-324, 1e300]], ('x', 'y')), {str(tiny_inputs / 'out.csv')!r})"
    )
    assert _lazy_numpy_after(code) == []
