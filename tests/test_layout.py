"""Library code that only tests call belongs in tests/oracles.py, not src/:
src/ reads every public top-level name and every public method and property
of its classes.  No module of the package imports another's private names, a
default that no caller changes is a constant, the package runs on numpy
alone, the rank cap is checked only in the CLI, and CI runs the Tier-1
command of ROADMAP.md."""

import ast
import re
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chevalley"


def public_definitions(tree):
    """Top-level functions, classes and assigned names without a leading _."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def public_members(tree):
    """(class, name) of each method and property (cached or not) of each
    class in the module, names with a leading _ left out, dunders with them;
    dataclass fields are annotations, not functions, so they are left out."""
    return {(node.name, f.name) for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) for f in node.body
            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")}


def references(tree):
    """Names read anywhere in the module, as bare names or as attributes."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_every_public_name_is_used_in_src():
    # __init__ only re-exports, so its imports do not count as uses
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    used = set().union(*(references(tree) for tree in trees.values()))
    unused = sorted(f"{module}:{name}" for module, tree in trees.items()
                    for name in public_definitions(tree) - used)
    assert not unused, f"defined in src/ but used only outside it: {unused}"


def test_every_public_member_is_used_in_src():
    # a read of the attribute name anywhere in src/ counts, on any object
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))]
    used = set().union(*map(references, trees))
    unused = sorted(f"{cls}.{name}" for tree in trees
                    for cls, name in public_members(tree) if name not in used)
    assert not unused, f"members of src/ classes used only outside it: {unused}"


def test_no_module_imports_a_private_name_of_another():
    # a name shared across modules is public; relative or absolute imports,
    # also inside a function
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "chevalley":
                continue
            found += [f"{path.name}:{node.lineno} imports {alias.name}"
                      for alias in node.names if alias.name.startswith("_")]
    assert not found, f"private names imported across modules: {found}"


def test_src_never_imports_scipy():
    # any import statement counts, also one inside a function
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert not found, f"scipy imported in src/: {found}"


def test_rank_cap_is_checked_only_in_the_cli():
    # the CLI refuses an instance above --rank-cap; the library enumerates
    # whatever it is asked to
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Raise)
                    and "InstanceTooLargeError" in ast.dump(node)):
                found.append(f"{path.name}:{node.lineno} raises InstanceTooLargeError")
            elif isinstance(node, (ast.FunctionDef, ast.Lambda)):
                a = node.args
                found += [f"{path.name}:{node.lineno} takes rank_cap"
                          for arg in a.posonlyargs + a.args + a.kwonlyargs
                          if arg.arg == "rank_cap"]
    assert not found, f"rank cap handled outside cli.py: {found}"


def defaulted_parameters(tree):
    """(callable name, parameter, position or None) for each parameter with a
    default on a public top-level function or public class's __init__."""
    found = []
    for node in tree.body:
        if getattr(node, "name", "_").startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            func, skip = node, 0
        elif isinstance(node, ast.ClassDef):
            inits = [f for f in node.body
                     if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
            if not inits:
                continue
            func, skip = inits[0], 1  # self is not passed at the call
        else:
            continue
        a = func.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)  # defaults fill the tail
        found += [(node.name, arg.arg, i - skip)
                  for i, arg in enumerate(positional) if i >= first]
        found += [(node.name, arg.arg, None)
                  for arg, default in zip(a.kwonlyargs, a.kw_defaults)
                  if default is not None]
    return found


def test_every_default_is_set_by_some_caller():
    # a default no caller outside the unit tests overrides is a constant
    callers = [*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").glob("*.py"),
               ROOT / "tests" / "test_acceptance.py", ROOT / "bench" / "child.py"]
    calls = {}
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            calls.setdefault(name, []).append(node)
    params = [p for path in sorted(PACKAGE.glob("*.py"))
              for p in defaulted_parameters(ast.parse(path.read_text()))]
    assert params, "the scan found no defaulted parameters"

    def is_set(param, position, call):
        # **kwargs and *args may carry any parameter
        if any(kw.arg in (param, None) for kw in call.keywords):
            return True
        if any(isinstance(arg, ast.Starred) for arg in call.args):
            return True
        return position is not None and position < len(call.args)

    unset = [f"{name}({param}=)" for name, param, position in params
             if not any(is_set(param, position, call)
                        for call in calls.get(name, []))]
    assert not unset, f"defaults that no caller sets: {unset}"


def test_ci_runs_the_tier1_command():
    roadmap = (ROOT / "ROADMAP.md").read_text()
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap).group(1)
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    (job,) = workflow["jobs"].values()
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.11"]
    runs = [step["run"] for step in job["steps"] if "run" in step]
    assert runs[:2] == ["pip install -e .[test]", command]
    # then the exit codes of the installed `chevalley` script, which no test
    # runs, each command with the exit code it must give (the k > n/2 graph
    # states and eigenvectors among them)
    entry, strict, bounded, gate, smoke = runs[2:]
    assert "chevalley $args" in entry and "exit 1" in entry
    assert re.findall(r"^(\d) (.+)$", entry, re.M) == [
        ("0", "verify --k 3 --n 7"), ("0", "sweep --n-max 12"),
        ("0", "inequalities --n-max 60"), ("0", "spectrum --k 3 --n 7"),
        ("0", "graph --k 2 --n 5"), ("0", "graph --k 7 --n 10 --format json"),
        ("0", "spectrum --k 5 --n 7"), ("0", "fk --k 2 --x-min 3 --x-max 5 --step 1"),
        ("0", "verify --k 2 --n 40 --tol 0.9"), ("1", "verify --k 3 --n 8 --max-iter 0"),
        ("1", "verify --k 3 --n 8 --max-iter 0 --format json"),
        ("1", "spectrum --k 3 --n 7 --tol 1e-16"),
        ("2", "sweep --n-max 1"), ("2", "verify --k 3 --n 7 --tol 1")]
    # then a failed check's report, captured without letting bash -e end the
    # step on the expected exit 1: strict JSON whose "failed" names it
    assert ("code=0; out=$(chevalley verify --k 3 --n 8 --max-iter 0 --format json)"
            " || code=$?") in strict
    assert 'if [ "$code" != 1 ]' in strict and "parse_constant=refuse" in strict
    assert "'converged' not in" in strict and '<<< "$out"' in strict
    # then Gr(1,6000) inside 700 MB of address space, exit 0: a table that
    # grows with n^2 (549 MB of phases there) cannot be allocated
    assert bounded == ("(ulimit -v 700000; OPENBLAS_NUM_THREADS=1 "
                       "chevalley verify --k 1 --n 6000 > /dev/null)")
    # then the benchmark's correctness gate: one loop over workload:seed
    # pairs, every workload at seed 0 and held-out seeds
    pairs = re.search(r"for run in ([^;]+);", gate).group(1).replace("\\", " ").split()
    assert pairs == ["matrix-thin:0", "sweep:0", "verify:0", "verify:1", "verify:2",
                     "matrix-thin:1", "inequalities:0", "inequalities:1",
                     "inequalities:5"]
    assert ('bench/run.py --workload "${run%:*}" --seed "${run#*:}" --seconds 1 --trace 0'
            in gate)
    assert "['correct'] is not True" in gate
    # and one traced run per workload, failing on a wrong result or on a
    # tracer hook that no longer reads its counts (a changed signature);
    # a traced name absent from the package is reported, not failed
    workloads = re.search(r"for workload in ([^;]+);", smoke).group(1).split()
    assert workloads == ["verify", "sweep", "matrix-thin", "inequalities"]
    assert ('bench/run.py --workload "$workload" --seed 0 --seconds 1 --trace 1'
            in smoke)
    assert 'grep -q "counts not readable"' in smoke and "exit 1" in smoke
    assert "['correct'] is not True" in smoke
    assert "not traced" not in smoke
