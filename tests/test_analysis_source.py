"""The shared source index (``repro.analysis.source``).

Pins the two properties every static pass now inherits from it: each
file is parsed and tokenized exactly once per ``repro check static``,
and module identity comes from the package layout, so a copied or
installed tree is analysed exactly like the source checkout.
"""

import ast
import os
import shutil
import tokenize
from collections import Counter

import pytest

import repro.analysis.alloc as alloc
from repro.analysis.check import run_check
from repro.analysis.source import SourceIndex, module_name, package_root


def _package_files() -> set[str]:
    return {
        os.path.join(dirpath, name)
        for dirpath, _dirnames, filenames in os.walk(package_root())
        for name in filenames
        if name.endswith(".py")
    }


def test_static_check_parses_and_tokenizes_each_file_once(monkeypatch):
    parsed: Counter = Counter()
    tokenized = []
    real_parse = ast.parse
    real_tokens = tokenize.generate_tokens

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed[filename] += 1
        return real_parse(source, filename, *args, **kwargs)

    def counting_tokens(readline):
        tokenized.append(readline)
        return real_tokens(readline)

    monkeypatch.setattr(ast, "parse", counting_parse)
    monkeypatch.setattr(tokenize, "generate_tokens", counting_tokens)
    assert run_check("static") == []
    files = _package_files()
    assert set(parsed) == files
    assert set(parsed.values()) == {1}
    assert len(tokenized) == len(files)


def _hot_set(root: str, monkeypatch) -> set[str]:
    hot: list[str] = []
    real = alloc._hot_functions

    def spy(index):
        result = real(index)
        hot.extend(f.qualname for f in result)
        return result

    monkeypatch.setattr(alloc, "_hot_functions", spy)
    assert alloc.alloc_scan(SourceIndex.from_paths([root])).findings == []
    return set(hot)


def test_installed_layout_names_modules_like_the_checkout(tmp_path, monkeypatch):
    """A package copied outside any ``src/`` tree keeps its dotted
    module names — stems such as ``window`` and ``__init__`` no longer
    collide — so the ALLOC pass finds the same hot functions."""
    copy = tmp_path / "site" / "repro"
    shutil.copytree(
        package_root(), copy, ignore=shutil.ignore_patterns("__pycache__")
    )
    here = SourceIndex.from_paths([package_root()])
    there = SourceIndex.from_paths([str(copy)])
    names = {m.name for m in here.modules}
    assert {m.name for m in there.modules} == names
    assert len(names) == len(here.modules)
    assert {"repro", "repro.simmpi.window", "repro.stream.window"} <= names
    in_tree = _hot_set(package_root(), monkeypatch)
    assert in_tree
    assert _hot_set(str(copy), monkeypatch) == in_tree


def test_module_name_outside_a_package_is_the_stem(tmp_path):
    path = tmp_path / "helper.py"
    path.write_text("x = 1\n")
    assert module_name(str(path)) == "helper"
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    assert module_name(str(pkg / "__init__.py")) == "pkg"
    assert module_name(str(pkg / "mod.py")) == "pkg.mod"


def test_non_python_path_rejected(tmp_path):
    bad = tmp_path / "notes.txt"
    bad.write_text("")
    with pytest.raises(ValueError, match="not a directory or .py file"):
        SourceIndex.from_paths([str(bad)])
