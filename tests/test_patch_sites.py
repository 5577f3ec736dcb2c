"""Names other code looks up by string resolve.

``bench/spans.py`` patches the functions in its ``PATCH_SITES`` by module
and attribute name for the traced benchmark run, and ``mant.__all__`` lists
the package's exports.  A deleted or renamed function fails here, not only
in a traced run or at a user's import.
"""

import importlib
import importlib.util
from pathlib import Path

import mant

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def patch_sites():
    """``PATCH_SITES`` of ``bench/spans.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.PATCH_SITES


def test_every_patch_site_resolves():
    sites = patch_sites()
    missing = []
    for module_name, attr, _ in sites:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):   # "KvCache.append_k": a class, then its method
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert sites
    assert missing == []


def test_every_export_resolves():
    assert [name for name in mant.__all__ if not hasattr(mant, name)] == []
