"""The package's read-only records, and the modules a CLI process loads."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mckaycuts
from mckaycuts.construct import construct_cut
from mckaycuts.groups import Generator, GroupSpec, embedding_from_spec
from mckaycuts.heights import height_from_cut
from mckaycuts.mutation import enumerate_cut_lattice
from mckaycuts.quiver import build_mckay, cut_quiver
from mckaycuts.typesimplex import enumerate_types

THIRD = (2, [(3, (1, 1, 1))])
TYPE = (1, 1, 1)


def _embedding():
    return embedding_from_spec(GroupSpec.make(*THIRD))


def _quiver():
    return build_mckay(_embedding())


def _cut():
    return construct_cut(_quiver(), TYPE)


# Each factory builds a new, equal-valued record on every call, from a new
# quiver where it needs one.  Value records compare equal across calls
# (a cut on its arrows alone, whatever its quiver); the rest are equal
# only to themselves.  The last column names the fields kept out of repr.
RECORDS = {
    "Generator": (lambda: Generator(3, (1, 1, 1)), True, ()),
    "GroupSpec": (lambda: GroupSpec.make(*THIRD), True, ()),
    "LatticeEmbedding": (_embedding, True, ()),
    "TypeSimplexReport": (lambda: enumerate_types(_embedding()), True, ()),
    "Cut": (_cut, True, ()),
    "McKayQuiver": (_quiver, False, ()),
    "Subquiver": (lambda: cut_quiver(_quiver(), _cut()), False, ()),
    "HeightFunction": (lambda: height_from_cut(_quiver(), _cut()), False, ("values",)),
    "MutationLattice": (
        lambda: enumerate_cut_lattice(_quiver(), TYPE), False, ("packed", "bounds")
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_semantics(name):
    make, by_value, hidden = RECORDS[name]
    a, b = make(), make()
    cls = type(a)
    assert cls.__name__ == name and a is not b
    assert a == a and hash(a) == hash(a)
    assert (a == b) is by_value and (a != b) is not by_value
    if by_value:
        assert hash(a) == hash(b)
    assert a != object()

    fields = dict(vars(a))
    assert fields
    for name_ in fields:
        with pytest.raises(AttributeError):
            setattr(a, name_, None)
        with pytest.raises(AttributeError):
            delattr(a, name_)
    with pytest.raises(AttributeError):
        a.extra = None
    assert vars(a) == fields

    # The constructor takes the fields positionally or by keyword.
    for copy in (cls(*fields.values()), cls(**fields)):
        assert vars(copy) == fields
        assert (copy == a) is by_value
    with pytest.raises(TypeError):
        cls(*fields.values(), None)
    with pytest.raises(TypeError):
        cls(*list(fields.values())[1:])

    text = repr(a)
    assert text.startswith(f"{name}(")
    for field in fields:
        assert bool(re.search(rf"\b{field}=", text)) is (field not in hidden), field


def test_the_lattice_holds_its_type_ints_and_bounds_alone():
    # The Hasse edges and the extremes are read off the sorted ints.
    lattice = enumerate_cut_lattice(_quiver(), TYPE)
    assert type(lattice)._fields == ("cut_type", "packed", "bounds")
    assert tuple(vars(lattice)) == type(lattice)._fields
    assert repr(lattice) == "MutationLattice(cut_type=(1, 1, 1))"
    assert (lattice.min_index, lattice.max_index) == (0, 2)
    assert lattice.hasse_edges == ((0, 1, 1), (1, 2, 2))
    for derived in ("hasse_edges", "max_index", "min_index"):
        with pytest.raises(AttributeError):
            setattr(lattice, derived, None)


# The modules whose functions the benchmark's trace mode wraps right
# after importing the CLI (perfbench/spans.py).
TRACED_MODULES = [
    "mckaycuts.cli",
    "mckaycuts.construct",
    "mckaycuts.groups",
    "mckaycuts.heights",
    "mckaycuts.intlat",
    "mckaycuts.mutation",
    "mckaycuts.quiver",
    "mckaycuts.typesimplex",
    "mckaycuts.verify",
]


def _span_targets():
    """The (module, attribute) pairs of ``SPANS`` in perfbench/spans.py."""
    path = Path(__file__).parents[1] / "perfbench" / "spans.py"
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets) == "SPANS":
            spans = ast.literal_eval(node.value)
            return [pair for pairs in spans.values() for pair in pairs]
    raise AssertionError("perfbench/spans.py assigns no SPANS")


@pytest.mark.parametrize("module_name, attr", _span_targets())
def test_every_span_target_resolves(module_name, attr):
    # The trace mode wraps ``owner.__dict__[key]``, so a renamed target
    # breaks ``--trace 1``.
    assert module_name in TRACED_MODULES
    owner = importlib.import_module(module_name)
    *classes, key = attr.split(".")
    for name in classes:
        owner = owner.__dict__[name]
    assert callable(owner.__dict__[key])


def test_cli_import_loads_no_dataclasses_or_inspect():
    # -S keeps site hooks from loading modules of their own.
    src = str(Path(mckaycuts.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, mckaycuts.cli; print(*sorted(sys.modules))"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert not {"dataclasses", "inspect"} & loaded
    assert set(TRACED_MODULES) <= loaded
