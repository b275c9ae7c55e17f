"""Every function, class, method and module constant of the package is
reached from the package itself or from the benchmark, or is public.

A name counts as reached when some module of `src/ringfft` or
`perfbench` reads it as a name, an attribute or an import; the tests do
not count, so code that only tests reach shows up here.  Dunders are
called by Python itself and are exempt.  The definitions that only the
benchmark reaches are listed by name.
"""

import ast
from pathlib import Path

import ringfft

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ringfft"
BENCHMARK = ROOT / "perfbench"


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.glob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _definitions(tree):
    """Top-level functions, classes and assigned names, and the methods
    of those classes, as (qualified name, name)."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, name.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs):
                    yield f"{node.name}.{item.name}", item.name


def _uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
            if node.asname:
                yield node.asname


def _unreached(*dirs):
    """The package's definitions no module of dirs uses, but dunders
    and public names."""
    used = {name for _path, tree in _trees(*dirs) for name in _uses(tree)}
    return [
        f"{path.relative_to(ROOT)}: {qualname}"
        for path, tree in _trees(PACKAGE)
        for qualname, name in _definitions(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in used and name not in ringfft.__all__]


def test_every_definition_is_reached_outside_the_tests():
    assert _unreached(PACKAGE, BENCHMARK) == []


def test_only_the_benchmark_reaches_these_definitions():
    # the package itself does not use them; a change that adds or frees
    # a path only the benchmark takes updates this list
    assert _unreached(PACKAGE) == [
        "src/ringfft/banksim.py: pe_butterfly",
        "src/ringfft/transform.py: pack",
        "src/ringfft/twiddles.py: fetch_twiddle",
    ]


BLAS_CALLS = {"dot", "vdot", "matmul", "inner", "tensordot", "einsum"}


def test_the_package_makes_no_matrix_product():
    # numpy hands matrix products to BLAS, whose kernel is picked per
    # CPU and whose helper threads spin on the calling thread's CPU time;
    # the oracles multiply elementwise and sum instead
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path, tree in _trees(PACKAGE) for node in ast.walk(tree)
        if isinstance(getattr(node, "op", None), ast.MatMult)  # a @ b, @=
        or isinstance(node, ast.Call) and (
            getattr(node.func, "attr", None) in BLAS_CALLS
            or getattr(node.func, "id", None) in BLAS_CALLS)]
    assert found == []


def test_the_simulator_has_one_run_path():
    # every run, from held words or the memory image, with or without a
    # stage hook or a stop, is the one `run_lowering` call in
    # `Simulator.run`; a second runner would be a second run path
    tree = ast.parse((PACKAGE / "banksim.py").read_text())

    def sites(node):
        return sum(isinstance(call, ast.Call) and "run_lowering" in (
            getattr(call.func, "id", None), getattr(call.func, "attr", None))
            for call in ast.walk(node))

    simulator = next(node for node in tree.body
                     if isinstance(node, ast.ClassDef)
                     and node.name == "Simulator")
    run = next(node for node in simulator.body
               if isinstance(node, ast.FunctionDef) and node.name == "run")
    assert "execute" not in {node.name for node in ast.walk(tree)
                             if isinstance(node, ast.FunctionDef)}
    assert sites(tree) == sites(run) == 1
