"""Every symbol the lazy ``repro`` façade advertises must resolve."""

import importlib

import pytest

import repro


@pytest.mark.parametrize("name", sorted(repro.__all__))
def test_facade_symbol_resolves(name):
    value = getattr(repro, name)
    assert value is not None
    # The façade must re-export the defining module's object, not a copy.
    module = importlib.import_module(repro._EXPORTS[name])
    assert getattr(module, name) is value


def test_facade_rejects_unknown_symbols():
    with pytest.raises(AttributeError):
        repro.no_such_symbol


def test_dir_lists_the_whole_facade():
    assert set(repro.__all__) <= set(dir(repro))


@pytest.mark.parametrize("module, name", [
    ("repro.nn", "quantize_per_channel"),
    ("repro.nn", "dequantize"),
    ("repro.nn", "QUANT_SCHEME"),
    ("repro.serve", "LEGACY_API_VERSION"),
    ("repro.serve", "API_VERSION"),
    ("repro.serve.api", "advertised_version"),
    ("repro.core.predictor", "INT8_R2_BUDGET"),
])
def test_removed_compatibility_symbols_stay_gone(module, name):
    """The int8 tier and the v1 wire API were deleted, not hidden."""
    mod = importlib.import_module(module)
    assert not hasattr(mod, name)
    assert name not in getattr(mod, "__all__", ())
