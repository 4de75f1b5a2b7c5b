"""Documentation-accuracy tests: the README quickstart must run, examples
and benchmarks must at least compile (two run end to end), and the docs
must reference real modules."""

import ast
import json
import linecache
import os
import pathlib
import py_compile
import re
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


def _run_example(name, **env):
    """Run ``examples/<name>`` as a script (loop bodies are read from
    their source file); a failed assertion inside it is a nonzero exit."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), **env)
    subprocess.run(
        [sys.executable, str(REPO / "examples" / name)],
        env=env, check=True, stdout=subprocess.DEVNULL,
    )


class TestReadmeQuickstart:
    def test_quickstart_block_executes(self):
        readme = (REPO / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
        assert blocks, "README must contain a python quickstart block"
        snippet = blocks[0]
        # The snippet assumes a dataset in scope; provide one, then run it.
        preamble = (
            "from repro.data import netflix_like\n"
            "_ds = netflix_like(num_rows=40, num_cols=30, num_ratings=600,"
            " seed=99)\n"
            "entries = _ds.entries\n"
            "num_rows, num_cols, K = _ds.num_rows, _ds.num_cols, 4\n"
        )
        source = preamble + snippet
        filename = "<readme-quickstart>"
        linecache.cache[filename] = (
            len(source), None, source.splitlines(True), filename
        )
        namespace = {}
        exec(compile(source, filename, "exec"), namespace)
        loop = namespace["loop"]
        assert "2D unordered" in loop.plan.describe()

    def test_readme_module_paths_exist(self):
        readme = (REPO / "README.md").read_text()
        for match in re.findall(r"`benchmarks/(bench_\w+\.py)`", readme):
            assert (REPO / "benchmarks" / match).exists(), match

    def test_readme_referenced_files_exist(self):
        readme = (REPO / "README.md").read_text()
        for match in re.findall(r"\| `(\w+\.py)` \|", readme):
            assert (
                (REPO / "examples" / match).exists()
                or (REPO / "benchmarks" / match).exists()
            ), match


class TestEverythingCompiles:
    @pytest.mark.parametrize(
        "path",
        sorted(
            str(p.relative_to(REPO))
            for p in (REPO / "examples").glob("*.py")
        ),
    )
    def test_examples_compile(self, path):
        py_compile.compile(str(REPO / path), doraise=True)

    @pytest.mark.parametrize(
        "path",
        sorted(
            str(p.relative_to(REPO))
            for p in (REPO / "benchmarks").glob("*.py")
        ),
    )
    def test_benchmarks_compile(self, path):
        py_compile.compile(str(REPO / path), doraise=True)

    def test_src_has_no_unused_imports(self):
        """Every module-level import under ``src/repro`` is referenced
        (pyflakes' F401, which this suite cannot assume is installed).
        Package ``__init__`` files re-export; a name in ``__all__`` or in
        a string annotation counts as used."""
        def module_imports(body):
            for stmt in body:
                if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                    yield stmt
                elif isinstance(stmt, (ast.If, ast.Try)):
                    for handler in getattr(stmt, "handlers", []):
                        yield from module_imports(handler.body)
                    for block in (stmt.body, stmt.orelse,
                                  getattr(stmt, "finalbody", [])):
                        yield from module_imports(block)

        def names(tree):
            return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}

        unused = []
        for path in sorted((REPO / "src" / "repro").rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text())
            used = names(tree)
            for node in ast.walk(tree):
                note = getattr(node, "annotation", None) or \
                    getattr(node, "returns", None)
                for sub in ast.walk(note) if note else ():
                    if isinstance(sub, ast.Constant) and \
                            isinstance(sub.value, str):
                        used |= names(ast.parse(sub.value))
                if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets
                ):
                    used |= set(ast.literal_eval(node.value))
            for stmt in module_imports(tree.body):
                if getattr(stmt, "module", None) == "__future__":
                    continue
                for alias in stmt.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.relative_to(REPO)}:{stmt.lineno} {name}")
        assert not unused


class TestExamplesRun:
    def test_quickstart_trace_is_valid(self, tmp_path):
        """Tracing end to end: the exported file loads and passes the
        Chrome trace-event schema check."""
        from repro.obs import validate_chrome_trace

        path = tmp_path / "trace.json"
        _run_example("quickstart.py", REPRO_TRACE=str(path))
        trace = json.loads(path.read_text())
        assert trace["traceEvents"]
        assert validate_chrome_trace(trace) == []

    def test_fault_tolerance_recovers(self):
        """The example asserts that the faulted run recovers to bit-equal
        parameters and that the no-plan path stays bit-identical."""
        _run_example("fault_tolerance.py")


class TestDesignDocConsistency:
    def test_design_modules_exist(self):
        design = (REPO / "DESIGN.md").read_text()
        for match in set(re.findall(r"`repro\.([\w.]+)`", design)):
            parts = match.split(".")
            # References may be dotted class paths; accept when any prefix
            # resolves to a module or package.
            resolved = False
            for depth in range(len(parts), 0, -1):
                candidate = REPO / "src" / "repro" / pathlib.Path(*parts[:depth])
                if (
                    candidate.with_suffix(".py").exists()
                    or (candidate / "__init__.py").exists()
                ):
                    resolved = True
                    break
            assert resolved, f"DESIGN.md references missing module repro.{match}"

    def test_experiments_benchmarks_exist(self):
        experiments = (REPO / "EXPERIMENTS.md").read_text()
        for match in set(re.findall(r"bench_\w+\.py", experiments)):
            assert (REPO / "benchmarks" / match).exists(), match


class TestReadmeQuickstartConverges:
    def test_snippet_training_actually_improves(self):
        """The README's quickstart must not just run — it must train."""
        readme = (REPO / "README.md").read_text()
        snippet = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)[0]
        preamble = (
            "from repro.data import netflix_like\n"
            "_ds = netflix_like(num_rows=40, num_cols=30, num_ratings=600,"
            " seed=99)\n"
            "entries = _ds.entries\n"
            "num_rows, num_cols, K = _ds.num_rows, _ds.num_cols, 4\n"
        )
        source = preamble + snippet
        filename = "<readme-quickstart-2>"
        linecache.cache[filename] = (
            len(source), None, source.splitlines(True), filename
        )
        namespace = {}
        exec(compile(source, filename, "exec"), namespace)
        W, H = namespace["W"], namespace["H"]
        total = 0.0
        for (i, j), value in namespace["ratings"].entries():
            total += (value - W.values[:, i] @ H.values[:, j]) ** 2
        initial = sum(v * v for _k, v in entries_approx(namespace))
        assert total < initial


def entries_approx(namespace):
    # With 0.1-scale init, initial predictions are near zero: the initial
    # loss is approximately the sum of squared ratings.
    return list(namespace["ratings"].entries())
