"""The README's library example runs, and the package exports what it imports."""

import re
from pathlib import Path

import tracelink

ROOT = Path(__file__).resolve().parent.parent


def library_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_block_runs(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    exec(compile(library_block(), "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith("[('AFInfoBox', ")
    assert set(eval(printed[-1])) == {"ir-only", "b+o+i"}


def test_package_exports_what_the_readme_imports():
    imported = {
        name.strip()
        for names in re.findall(r"^from tracelink import (.+)$", library_block(), re.MULTILINE)
        for name in names.split(",")
    }
    assert sorted(tracelink.__all__) == sorted(imported)
    assert all(hasattr(tracelink, name) for name in tracelink.__all__)
