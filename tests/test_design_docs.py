"""Documentation-consistency checks: the repo's promises hold."""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_required_docs_exist():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        assert (ROOT / name).is_file(), name


def test_design_md_confirms_paper_identity():
    text = (ROOT / "DESIGN.md").read_text()
    assert "Paper identity check" in text
    assert "Hetero-DMR" in text


def test_every_bench_listed_in_readme():
    readme = (ROOT / "README.md").read_text()
    benches = sorted(p.stem for p in (ROOT / "benchmarks").glob(
        "bench_*.py"))
    for bench in benches:
        assert bench in readme, "{} missing from README".format(bench)


def test_every_figure_bench_exists():
    """DESIGN.md's experiment index names a bench per table/figure."""
    design = (ROOT / "DESIGN.md").read_text()
    for ref in re.findall(r"benchmarks/(bench_\w+)\.py", design):
        assert (ROOT / "benchmarks" / (ref + ".py")).is_file(), ref


def test_figure_benches_share_the_session_runner():
    """benchmarks/conftest.py promises one runner per session.  A bench
    that imports the fixture gets its own per-module copy, and with it
    its own cache, so it would re-simulate every cell it shares."""
    for bench in sorted((ROOT / "benchmarks").glob("bench_*.py")):
        imports = re.findall(r"^from conftest import (.*)$",
                             bench.read_text(), re.MULTILINE)
        for names in imports:
            assert "runner" not in names.split(", "), bench.name


def test_examples_listed_in_readme_exist():
    readme = (ROOT / "README.md").read_text()
    for ref in re.findall(r"examples/(\w+)\.py", readme):
        assert (ROOT / "examples" / (ref + ".py")).is_file(), ref


def _packages():
    """``repro`` and every package under it, from the source tree."""
    src = ROOT / "src"
    return ["repro"] + sorted(
        ".".join(init.parent.relative_to(src).parts)
        for init in (src / "repro").glob("*/__init__.py"))


def test_public_modules_have_docstrings():
    import importlib
    for name in _packages():
        mod = importlib.import_module(name)
        assert mod.__doc__, name


def test_public_classes_documented():
    """Every exported class/function of every package carries a
    docstring (deliverable e: doc comments on every public item)."""
    import importlib
    import inspect
    for pkg_name in _packages():
        pkg = importlib.import_module(pkg_name)
        for name in getattr(pkg, "__all__", []):
            obj = getattr(pkg, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, "{}.{}".format(pkg_name, name)
