"""Every process memo in ramseykit is one the cold_memos fixture empties.

A memo here is a module-level dict, set or list (dunder names aside).  One
added without an entry in conftest's MEMOS fails this test, and so does an
entry whose reset leaves the memo warm.  The functools caches of pure
functions (parsed term texts, depth plans, fingerprints, small
enumerations) are not memos of this kind; the fixture empties the
small-enumeration cache too, since a warm one changes which code runs.
"""

import importlib
import pkgutil

import ramseykit
from ramseykit import ResultRecord, ResultStore, preset_family, threshold, witnesses


def module_containers():
    """(module, name) of each module-level dict, set or list in the package."""
    found = set()
    for info in pkgutil.iter_modules(ramseykit.__path__):
        module = importlib.import_module(f"ramseykit.{info.name}")
        for name, value in vars(module).items():
            if not name.startswith("__") and isinstance(value, (dict, set, list)):
                found.add((module, name))
    return found


def names(pairs):
    return sorted(f"{module.__name__}.{name}" for module, name in pairs)


def test_every_memo_is_reset(cold_memos, tmp_path):
    assert names(module_containers()) == names(cold_memos)
    assert witnesses._small_stream.cache_info().currsize == 0
    # warm each memo, then empty it the way the fixture does
    res = threshold(preset_family("schur"), 2, 10)
    store = ResultStore(tmp_path / "results.jsonl")
    store.append(ResultRecord("threshold", res.fingerprint, {"r": 2}, res.to_json(), {}))
    store.index()
    assert all(getattr(module, name) for module, name in cold_memos), names(
        pair for pair in cold_memos if not getattr(*pair))
    for forget in cold_memos.values():
        forget()
    assert not [pair for pair in cold_memos if getattr(*pair)]
