import ast
import dataclasses
import importlib
import inspect
import pkgutil
import random
import re
from pathlib import Path

import numpy as np
import pytest

import bakermic
from bakermic.brqmi import MultiImage
from bakermic.cipher import ImageParams, derive_schedule, make_key
from bakermic.qcircuit import Circuit, Gate

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    # a name removed from a module but left in __all__ would break `import *`
    assert len(set(bakermic.__all__)) == len(bakermic.__all__)
    missing = [name for name in bakermic.__all__ if not hasattr(bakermic, name)]
    assert missing == []
    namespace = {}
    exec("from bakermic import *", namespace)
    assert set(bakermic.__all__) <= set(namespace)


def test_the_package_defines_only_what_it_or_the_tracer_names():
    # a public function, class or method of a public class that no other
    # code in the package names, and that the benchmark tracer does not wrap
    # or read, runs only under tests: it belongs in tests/oracles.py
    trees = [ast.parse(path.read_text()) for path in sorted(Path(bakermic.__file__).parent.glob("*.py"))]
    named = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name)
    tracer = (ROOT / "perfbench" / "tracing.py").read_text()

    def public(body):
        return [d for d in body if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and not d.name.startswith("_")]

    defined = [d for tree in trees for d in public(tree.body)]
    defined += [m for d in defined if isinstance(d, ast.ClassDef) for m in public(d.body)]
    unnamed = [d.name for d in defined if d.name not in named and not re.search(rf"\b{d.name}\b", tracer)]
    assert unnamed == []


def test_readme_api_sketch_runs():
    (sketch,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    exec(compile(sketch, "README.md", "exec"), {})


def test_records_are_frozen():
    # a record's checks and caches hold for its life; the report analyze
    # fills in field by field is the one accumulator
    thawed = []
    for info in pkgutil.iter_modules(bakermic.__path__):
        module = importlib.import_module(f"bakermic.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                if not cls.__dataclass_params__.frozen:
                    thawed.append(f"{info.name}.{name}")
    assert thawed == ["analysis.MetricsReport"]


def test_records_refuse_changes_after_their_checks():
    given = np.zeros((1, 2, 2), np.uint8)
    img = MultiImage(n=1, bit_depth=8, pixels=given)
    assert np.shares_memory(img.pixels, given)  # a view of the array given, not a copy
    with pytest.raises(dataclasses.FrozenInstanceError):
        img.pixels = np.full((1, 2, 2), 300, np.uint16)
    with pytest.raises(ValueError, match="read-only"):
        img.pixels[0, 0, 0] = 255
    sched = derive_schedule(make_key(n=1, m_prime=1, bit_depth=2, rng=random.Random(1)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        sched.stage1 = sched.stage1[::-1]
    # stage 2's selections are Python ints, so sums over them cannot wrap
    assert all(type(v) is int for pair in sched.stage2 for v in pair)
    circuit = Circuit(n=1, gates=[Gate(targets=(0, 1))])
    with pytest.raises(AttributeError):
        circuit.gates.append(Gate(targets=(0, 1)))


def test_an_out_of_range_pixel_cannot_reach_the_cipher():
    # a 300 in a depth-8 set would encrypt, and decrypt to 300 mod 256
    pixels = np.zeros((1, 2, 2), np.uint16)
    img = MultiImage(n=1, bit_depth=8, pixels=pixels)
    assert img.pixels.dtype == np.uint8 and not img.pixels.flags.writeable
    pixels[0, 0, 0] = 300
    with pytest.raises(ValueError, match="below 256"):
        dataclasses.replace(img, pixels=pixels)
    with pytest.raises(ValueError, match="below 256"):
        MultiImage(n=1, bit_depth=8, pixels=pixels)
    assert int(img.pixels.max()) == 0  # the cast to uint8 made a copy


def test_replace_checks_each_record_again():
    img = MultiImage(n=1, bit_depth=8, pixels=np.zeros((1, 2, 2), np.uint8))
    with pytest.raises(ValueError, match="integers"):
        dataclasses.replace(img, pixels=np.zeros((1, 2, 2)))
    with pytest.raises(ValueError, match="wire 5"):
        dataclasses.replace(Circuit(n=1), gates=(Gate(targets=(0, 5)),))
    key = make_key(n=1, m_prime=2, bit_depth=2, rng=random.Random(1))
    with pytest.raises(ValueError, match=r"q must be in \[4, 15\]"):
        dataclasses.replace(key, image_params=(ImageParams(2.5, 3.0, 3),) + key.image_params[1:])
