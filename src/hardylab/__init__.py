"""Hardy-nonlocality and CHSH analysis toolkit for two-qubit states.

The public names resolve lazily: `import hardylab` loads no submodule.
The first access to a name imports the submodule that defines it. Each
submodule ends by binding all of its public names here, so once it is
imported, by whatever route, later lookups are plain attribute hits and
see the objects its code defined, whatever replaces them there later.
"""

from importlib import import_module

__version__ = "0.1.0"

# Every public name, under the submodule that defines it.
_EXPORTS = {
    "qstate": (
        "DomainError", "EntanglementClass", "ExperimentConfig", "HardyVariant",
        "MeasurementSetting", "SchmidtState", "config_from_file", "config_from_text",
        "entanglement_class", "make_state",
    ),
    "correlations": (
        "CorrelationSet", "JointDistribution", "PerfectCorrelation", "batch_correlation",
        "batch_probabilities", "correlation", "correlation_set", "is_perfectly_correlated",
        "joint_distribution", "pair_distributions",
    ),
    "hardy": (
        "DegenerateBeta0", "HardyCheck", "HardySolution", "NotPartiallyEntangled",
        "check_hardy", "hardy_inequality_lhs_rhs", "maximal_entanglement_forcing",
        "solve_hardy", "solve_vanishing_condition",
    ),
    "chsh": (
        "DELTA_MAX", "GOLDEN_MEAN", "ChshResult", "ScanGrid", "delta_closed_form",
        "delta_from_correlations", "delta_from_probabilities", "evaluate",
        "maximal_free_angle_delta", "optimize_delta", "scan_surface",
    ),
    "lhv": (
        "ALL_ASSIGNMENTS", "DeterministicAssignment", "MixtureStrategy", "StochasticStrategy",
        "TrialTally", "is_locally_realizable", "lhv_joint_probability",
        "local_realism_forcing", "simulate", "strategy_from_text",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def _publish(namespace: dict) -> None:
    """Bind a submodule's public names here; its last statement calls this."""
    home = namespace["__name__"].rpartition(".")[2]
    globals().update((name, namespace[name]) for name in _EXPORTS[home])


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import_module(f"{__name__}.{_HOME[name]}")
    return globals()[name]


def __dir__():
    return sorted(set(globals()).union(_HOME))
