"""k-clique counting on sparse graphs by sampling over dense-subgraph covers.

Each public name is imported from its module on first use (PEP 562), so
``import turanshadow`` loads neither numpy nor any submodule; a submodule
such as ``turanshadow.shadow`` is imported when it is first named.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "baseline": ("BaselineReport", "edge_sampling_estimate"),
    "estimator": (
        "DEFAULT_SAMPLES", "EstimateReport", "SamplerState", "build_sampler",
        "estimate_from_trials", "f_of", "gamma_of", "required_samples",
        "run_trials", "turan_shadow_count"),
    "graph": (
        "DegeneracyOrder", "EdgeListParseError", "Graph", "degeneracy_order",
        "load_edge_list"),
    "oracle": (
        "CountOverflowError", "ExactCount", "TimeBudgetExceeded",
        "exact_kclique_count"),
    "shadow": (
        "MAX_K", "ShadowEntry", "TuranShadow", "shadow_finder"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:  # importing a submodule binds it on the package
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
