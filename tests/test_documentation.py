"""Documentation-contract tests.

The deliverable requires doc comments on every public item; these tests
enforce it mechanically, and check that the README's import examples
actually work.
"""

import importlib
import inspect
import pathlib
import pkgutil
import re
import subprocess

import pytest

import repro

SRC_ROOT = pathlib.Path(repro.__file__).parent


def _walk_modules():
    for info in pkgutil.walk_packages(
        [str(SRC_ROOT)], prefix="repro."
    ):
        yield importlib.import_module(info.name)


def test_every_module_has_a_docstring():
    missing = [
        module.__name__
        for module in _walk_modules()
        if not (module.__doc__ or "").strip()
    ]
    assert not missing, missing


def test_every_public_class_and_function_is_documented():
    missing = []
    for module in _walk_modules():
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-export; documented at its home
            if not (obj.__doc__ or "").strip():
                missing.append(f"{module.__name__}.{name}")
    assert not missing, missing


def test_public_methods_are_documented():
    missing = []
    for module in _walk_modules():
        for cls_name, cls in vars(module).items():
            if cls_name.startswith("_") or not inspect.isclass(cls):
                continue
            if cls.__module__ != module.__name__:
                continue
            for name, member in vars(cls).items():
                if name.startswith("_"):
                    continue
                if not inspect.isfunction(member):
                    continue
                if not (member.__doc__ or "").strip():
                    missing.append(f"{module.__name__}.{cls_name}.{name}")
    assert not missing, missing


def test_readme_quickstart_imports_work():
    from repro.core.runner import Job  # noqa
    from repro.core.sweeps import run_architecture_comparison  # noqa
    from repro.core.report import (  # noqa
        format_breakdown_table,
        format_miss_rate_table,
    )
    from repro.workloads import WORKLOADS

    assert "eqntott" in WORKLOADS


def test_documented_docs_exist():
    root = SRC_ROOT.parent.parent
    for doc in (
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "CONTRIBUTING.md",
        "CHANGELOG.md",
        "docs/MODEL.md",
        "docs/WORKLOADS.md",
        "docs/REPRODUCING.md",
        "docs/CLI.md",
    ):
        assert (root / doc).is_file(), doc


def test_experiments_and_reproducing_name_catalog_studies():
    # Every "*Bench:*" line of EXPERIMENTS.md and every row of the
    # claim table in docs/REPRODUCING.md names studies, and only
    # studies, of the catalog `repro reproduce` runs; between them the
    # two documents cover the whole catalog.
    from repro.core.paper import STUDIES

    root = SRC_ROOT.parent.parent
    bench_lines = [
        line
        for line in (root / "EXPERIMENTS.md").read_text().splitlines()
        if line.startswith("*Bench:*")
    ]
    table = (root / "docs" / "REPRODUCING.md").read_text()
    table = table.split("| Claim | Study")[1].split("\n\n")[0]
    claim_rows = [
        line.rsplit("|", 2)[1] for line in table.splitlines()[2:]
    ]
    assert len(bench_lines) >= 18 and len(claim_rows) == 8
    named = set()
    for line in bench_lines + claim_rows:
        studies = re.findall(r"`([a-z0-9_]+)`", line.split("(")[0])
        assert studies and set(studies) <= set(STUDIES), line
        named.update(studies)
    assert named == set(STUDIES)


def test_cli_reference_is_current():
    """``docs/CLI.md`` is what ``scripts/gen_cli_doc.py`` renders from
    the parser: a flag added, renamed or re-documented without
    regenerating the page fails here."""
    import sys

    root = SRC_ROOT.parent.parent
    checked = subprocess.run(
        [sys.executable, str(root / "scripts" / "gen_cli_doc.py"), "--check"],
        capture_output=True, text=True,
    )
    assert checked.returncode == 0, checked.stdout + checked.stderr


def test_examples_exist_and_are_executable_scripts():
    root = SRC_ROOT.parent.parent
    examples = sorted((root / "examples").glob("*.py"))
    assert len(examples) >= 3
    for example in examples:
        text = example.read_text()
        assert '"""' in text.split("\n", 2)[-1] or text.startswith(
            "#!"
        ), example
        assert "def main" in text, example


def test_version_has_a_single_source():
    # pyproject.toml takes the version from the package (no second
    # literal to drift), and the changelog's newest entry is that
    # version. Plain text checks: tomllib needs Python 3.11.
    root = SRC_ROOT.parent.parent
    pyproject = (root / "pyproject.toml").read_text()
    project = pyproject.split("[project]")[1].split("\n[")[0]
    assert 'dynamic = ["version"]' in project
    assert "\nversion =" not in project
    assert 'version = { attr = "repro.__version__" }' in pyproject
    changelog = (root / "CHANGELOG.md").read_text()
    newest = changelog.split("\n## ", 1)[1].split("\n", 1)[0].strip()
    assert newest == repro.__version__


#: deleted paths: the second timing stack (1.23.0; the ledger is the
#: one place host time is measured), the two smoke scripts (1.24.0;
#: their checks are tier-1 tests) and the two functions that re-spelled
#: a ``Job`` as keywords (1.27.0; ``Job.run`` / ``Job.build`` are the
#: one spelling), the eleven figure-claim builders (1.28.0; every
#: claim is a ``holds`` / ``within`` over named quantities), and the
#: replay lane's engine switch (1.29.0; a replay runs through ``System``)
DELETED_PATHS = re.compile(
    r"(?<![\w.])micro\.py|bench_gate|serve_bench|microbench\.json"
    r"|bench_runner\.json|repro\.perf\b|repro/perf\.py"
    r"|ckpt_smoke\.py|serve_smoke\.py"
    r"|\brun_one\b|\brun_observed\b"
    r"|\b(?:faster_than|normalized_within|no_invalidation_misses"
    r"|l[12]_(?:replacement|invalidation)_\w+|memory_stall_share_below"
    r"|uses_cache_to_cache|istall_share_at_least)\b"
    r"|\b(?:use_kernel|_run_kernel|_run_interpreter)\b"
    r"|\b(?:MultistageCrossbar|_Interconnect|run_replay|trace_factory"
    r"|resolve_trace)\b|trace[./]backend"
    r"|\b(?:StallReason|MissKind|peek_start)\b|tests/oracles"
    r"|oracles\.conservation|\b(?:export_prometheus|WorkloadParams)\b"
    r"|_Handler\.parse_request\b|\b_drain_body\b"
)
#: the top-level documents that describe the program as it is; the
#: other top-level ones (changelog, roadmap, ...) are history and plans
CURRENT_DOCS = {"README.md", "CONTRIBUTING.md", "DESIGN.md", "EXPERIMENTS.md"}


def _tracked_files(root):
    try:
        listed = subprocess.run(
            ["git", "ls-files", "-z"], cwd=root, capture_output=True,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    return [name for name in listed.decode().split("\0") if name]


def test_no_file_names_a_deleted_path():
    root = SRC_ROOT.parent.parent
    named = []
    for name in _tracked_files(root):
        if "/" not in name and name.endswith(".md") and (
            name not in CURRENT_DOCS
        ):
            continue
        if name == "tests/test_documentation.py" or name.startswith(
            "benchmarks/ledger/"  # edited only with the benchmark itself
        ):
            continue
        path = root / name
        if not path.is_file():
            continue  # deleted in the work tree, not yet in the index
        text = path.read_bytes().decode("utf-8", errors="replace")
        if name == "docs/PERFORMANCE.md":
            # §3-§15 are the dated measurements, kept as history
            head, rest = text.split("\n## 3. ", 1)
            text = head + "\n" + rest.split("\n## 16. ", 1)[1]
        named += [
            f"{name}: {match.group()}"
            for match in DELETED_PATHS.finditer(text)
        ]
    assert not named, named


def test_checkpoint_wire_table_is_rendered_from_the_codec_table():
    # docs/CHECKPOINTING.md §2 shows the table the snapshot walker
    # reads, not a description of it: regenerate with
    # ``python scripts/gen_ckpt_wire_table.py`` after changing a row.
    from conftest import load_script

    generator = load_script("gen_ckpt_wire_table")
    text = generator.DOC_PATH.read_text(encoding="utf-8")
    assert generator.committed(text) == generator.render()
    assert generator.spliced(text) == text
