"""The package's public surface: ``__all__`` and the names removed from it."""

import ast
import inspect
from pathlib import Path

import pytest

import dynminhash
from dynminhash import core, hashing
from dynminhash.hashing import HashFamily, PairwiseHash


def test_all_is_sorted_and_duplicate_free():
    assert dynminhash.__all__ == sorted(set(dynminhash.__all__))


def test_all_names_resolve():
    assert [name for name in dynminhash.__all__ if not hasattr(dynminhash, name)] == []


def test_every_public_name_has_a_caller_outside_the_tests():
    """Each name of ``__all__`` is read somewhere in the package's modules
    (``__init__`` aside), perfbench or the demos, test files left out.
    ``read_stream`` waits for a stream-replay command to read it back."""
    root = Path(__file__).resolve().parent.parent
    files = [p for d in ("src", "perfbench", "demos") for p in sorted((root / d).rglob("*.py"))
             if p.name != "__init__.py" and not p.name.startswith("test_")]
    read = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert [name for name in dynminhash.__all__ if name not in read] == ["read_stream"]


@pytest.mark.parametrize("owner, name", [
    (dynminhash, "TabulationHash"),
    (dynminhash, "make_key"),
    (dynminhash, "split_key"),
    (core, "make_key"),
    (core, "split_key"),
    (hashing, "TabulationHash"),
    (HashFamily, "fn"),
    (HashFamily, "functions"),
    (HashFamily, "eval_one"),
    (HashFamily, "eval_many"),
    (HashFamily, "from_tables"),
    (HashFamily, "_keys_under"),
    (HashFamily, "_prefix_keys"),
    (HashFamily, "_flat_hashes"),
    (core.BufferedSketch, "_dtop"),
    (PairwiseHash, "eval_many"),
])
def test_removed_names_are_gone(owner, name):
    assert not hasattr(owner, name)


def test_min_hashes_takes_no_option():
    assert list(inspect.signature(HashFamily.min_hashes).parameters) == ["self", "elements"]
