"""The package's layer order, checked in fresh interpreters.

Lowest first: ``util``/``obs`` < ``sat`` < ``core`` < ``engine`` <
``consistency``/``reductions``/``memsys``/``service`` < ``cli``.  A
module imports only from its own layer and those below, and the
packages' public names load on first use, so importing one module
loads only what it needs.
"""

import importlib
import json
from pathlib import Path

import pytest

import repro
from tests.conftest import run_in_fresh_interpreter

SRC = Path(repro.__file__).resolve().parent

LAYER = {
    "util": 0, "obs": 0,
    "sat": 1,
    "core": 2,
    "engine": 3,
    "consistency": 4, "reductions": 4, "memsys": 4, "service": 4,
    "cli": 5, "__main__": 5,
}


def _layer(module: str) -> int:
    parts = module.split(".")
    return LAYER[parts[1]] if len(parts) > 1 else -1


def _modules(package: str) -> list[str]:
    path = SRC / package
    if not path.is_dir():
        return [f"repro.{package}"]
    return sorted(
        f"repro.{package}"
        + ("" if f.stem == "__init__" else f".{f.stem}")
        for f in path.glob("*.py")
    )


LOW_LAYERS = [m for p in ("util", "obs", "sat", "core") for m in _modules(p)]


def loaded_by(module: str) -> set[str]:
    """The ``repro`` modules that importing ``module`` alone loads."""
    out = run_in_fresh_interpreter(
        "-c",
        f"import json, sys, {module}\n"
        "print(json.dumps([m for m in sys.modules"
        " if m.split('.')[0] == 'repro']))",
    )
    return set(json.loads(out))


@pytest.mark.parametrize("module", LOW_LAYERS)
def test_low_layer_module_loads_nothing_above_it(module):
    above = sorted(m for m in loaded_by(module) if _layer(m) > _layer(module))
    assert not above, f"{module} loads {above}"


def test_import_repro_loads_no_engine():
    assert not any(m.startswith("repro.engine") for m in loaded_by("repro"))


def test_core_types_loads_no_sat():
    loaded = loaded_by("repro.core.types")
    assert not any(m.startswith("repro.sat") for m in loaded)


def test_streaming_loads_no_sat_and_no_other_engine_module():
    loaded = loaded_by("repro.engine.streaming")
    assert not any(m.startswith("repro.sat") for m in loaded)
    engine = sorted(m for m in loaded if m.startswith("repro.engine."))
    assert engine == ["repro.engine.streaming"]


def test_cli_loads_no_offline_engine_and_no_sat():
    """A cold start parses its arguments before it loads what its
    command runs: ``repro monitor`` never pays for the offline engine."""
    loaded = loaded_by("repro.cli")
    assert "repro.engine.executor" not in loaded
    assert not any(m.startswith("repro.sat") for m in loaded)


@pytest.mark.parametrize(
    "package", ["repro", "repro.core", "repro.engine", "repro.sat", "repro.util"]
)
def test_every_public_name_resolves(package):
    mod = importlib.import_module(package)
    for name in mod.__all__:
        assert getattr(mod, name) is not None, name
    with pytest.raises(AttributeError):
        mod.no_such_name


def test_from_package_import_submodule_still_works():
    from repro.core import kernels
    from repro.engine import streaming

    assert kernels.__name__ == "repro.core.kernels"
    assert streaming.__name__ == "repro.engine.streaming"
