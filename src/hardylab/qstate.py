"""Schmidt-form two-qubit states and dichotomic measurement settings.

A state is written as c1|u1 u2> + c2|v1 v2> with real coefficients
satisfying c1^2 + c2^2 = 1. A dichotomic (+1/-1) observable on one
particle is parameterized by a mixing angle beta and a relative phase
delta; only the per-particle phase differences ever enter downstream
probability formulas, so the individual basis phases are not stored.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from typing import Iterator

__all__ = [
    "ROUNDING_TOL",
    "ZERO_TOL",
    "BOUNDARY_TOL",
    "PAIR_ORDER",
    "OUTCOME_ORDER",
    "DomainError",
    "EntanglementClass",
    "HardyVariant",
    "SchmidtState",
    "MeasurementSetting",
    "ExperimentConfig",
    "make_state",
    "entanglement_class",
    "config_from_text",
    "config_from_file",
]

# The tolerance table: every numerical threshold of the package, each
# named for the decision it makes. Other modules import these.
#
# ROUNDING_TOL: float residue of an identity that holds exactly
#   (normalization, the c1^2 clamp, probability range and sum, |E| <= 1,
#   the mixture weight sum, breakpoint ends).
# ZERO_TOL: a closed-form probability or identity residue that must
#   vanish (Hardy's zero conditions, Delta = 2 + 4 P).
# BOUNDARY_TOL: how close a value may come to a domain boundary or a
#   bound and still count as on it (product or maximal state, degenerate
#   beta0, Delta > 2, perfect correlation, density mass, DELTA_MAX).
ROUNDING_TOL = 1e-12
ZERO_TOL = 1e-10
BOUNDARY_TOL = 1e-9

# Setting pairs (particle-1 index k, particle-2 index l) in canonical
# order: the joint measurements (D11,D21), (D11,D22), (D12,D21), (D12,D22).
PAIR_ORDER: tuple[tuple[int, int], ...] = ((1, 1), (1, 2), (2, 1), (2, 2))

# Outcome pairs in canonical order.
OUTCOME_ORDER: tuple[tuple[int, int], ...] = ((1, 1), (1, -1), (-1, 1), (-1, -1))


class DomainError(ValueError):
    """An input lies outside an operation's mathematical domain."""


class EntanglementClass(Enum):
    PRODUCT = "product"
    MAXIMAL = "maximal"
    PARTIAL = "partial"


class HardyVariant(Enum):
    """Outcome-sign convention for the four conditions.

    Variants are plain relabelings of measurement outcomes: a sign
    factor f = -1 on a particle swaps the roles of its +1 and -1
    results in every condition. Defined here, with the other plain
    value types, so that the CLI can offer the variant names without
    loading the Hardy solver; hardy re-exports it.
    """

    CANONICAL = "canonical"
    ALL_FLIPPED = "all-flipped"
    PARTICLE1_FLIPPED = "particle1-flipped"
    PARTICLE2_FLIPPED = "particle2-flipped"

    @cached_property
    def sign_factors(self) -> tuple[int, int]:
        """Per-particle outcome sign factors (f1, f2)."""
        return {
            HardyVariant.CANONICAL: (1, 1),
            HardyVariant.ALL_FLIPPED: (-1, -1),
            HardyVariant.PARTICLE1_FLIPPED: (-1, 1),
            HardyVariant.PARTICLE2_FLIPPED: (1, -1),
        }[self]


def _is_real(value) -> bool:
    """Whether value is a numbers.Real: numpy scalars are, strings, bytes
    and Decimals are not. A float or int skips the slower abstract check."""
    return isinstance(value, (float, int)) or isinstance(value, numbers.Real)


def _require_real(name: str, value: float) -> float:
    if type(value) is float:  # the common case, first for speed
        return value
    if not _is_real(value):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{name} must be finite, got a number beyond the float range") from None


def _require_finite(name: str, value: float) -> float:
    value = _require_real(name, value)
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return value


def _require_tolerance(name: str, value: float) -> float:
    value = _require_finite(name, value)
    if value <= 0:
        raise DomainError(f"{name} must be positive, got {value!r}")
    return value


def _require_count(value, minimum: int, message: str) -> int:
    """value as an int; DomainError(message) unless it is an integer >= minimum.

    Floats (integral or not), strings and bools are refused, not truncated.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= minimum:
        return int(value)
    raise DomainError(message)


@dataclass(frozen=True)
class SchmidtState:
    """Two-term biorthogonal state with real coefficients c1, c2."""

    c1: float
    c2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "c1", _require_finite("c1", self.c1))
        object.__setattr__(self, "c2", _require_finite("c2", self.c2))
        residue = abs(self.c1 * self.c1 + self.c2 * self.c2 - 1.0)
        if residue > ROUNDING_TOL:
            raise DomainError(
                f"c1^2 + c2^2 deviates from 1 by {residue:.3e} "
                f"(> {ROUNDING_TOL:g})"
            )

    @property
    def c1_squared(self) -> float:
        return self.c1 * self.c1


@dataclass(frozen=True)
class MeasurementSetting:
    """One observable: mixing angle beta and relative phase delta (radians).

    All probability formulas are invariant under beta -> beta + pi (both
    eigenvectors flip sign) and depend on deltas only through the
    difference between the particle-1 and particle-2 values.
    """

    beta: float
    delta: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", _require_finite("beta", self.beta))
        object.__setattr__(self, "delta", _require_finite("delta", self.delta))


@dataclass(frozen=True)
class ExperimentConfig:
    """A state plus the four settings D_ij, one per (particle, index) pair."""

    state: SchmidtState
    d11: MeasurementSetting
    d12: MeasurementSetting
    d21: MeasurementSetting
    d22: MeasurementSetting

    def __post_init__(self) -> None:
        if not isinstance(self.state, SchmidtState):
            raise DomainError(f"state must be a SchmidtState, got {self.state!r}")
        for name in ("d11", "d12", "d21", "d22"):
            if not isinstance(getattr(self, name), MeasurementSetting):
                raise DomainError(
                    f"{name} must be a MeasurementSetting, got {getattr(self, name)!r}"
                )

    def __getstate__(self) -> dict:
        # The fields only: what correlations caches on the instance is
        # derived from them and must not change the pickled bytes.
        return {field.name: getattr(self, field.name) for field in fields(self)}

    def setting(self, particle: int, index: int) -> MeasurementSetting:
        """Return D_(particle)(index) for particle, index in {1, 2}."""
        try:
            return self.settings[(particle, index)]
        except KeyError:
            raise DomainError(
                f"no setting ({particle}, {index}); both indices must be 1 or 2"
            ) from None

    def pair(self, k: int, l: int) -> tuple[MeasurementSetting, MeasurementSetting]:
        """Return (D1k, D2l), the settings measured jointly in pair (k, l)."""
        if (k, l) not in PAIR_ORDER:
            raise DomainError(f"no setting pair ({k}, {l}); both indices must be 1 or 2")
        return (self.d11 if k == 1 else self.d12), (self.d21 if l == 1 else self.d22)

    @property
    def settings(self) -> dict[tuple[int, int], MeasurementSetting]:
        return {
            (1, 1): self.d11,
            (1, 2): self.d12,
            (2, 1): self.d21,
            (2, 2): self.d22,
        }


def _check_sign(name: str, sign: float) -> float:
    if sign not in (1, -1):
        raise DomainError(f"{name} must be +1 or -1, got {sign!r}")
    return float(sign)


def _clamp_c1_squared(c1_squared: float) -> float:
    """A finite c1^2 clamped into [0, 1]; DomainError if it strays further
    than ROUNDING_TOL."""
    if c1_squared < -ROUNDING_TOL or c1_squared > 1.0 + ROUNDING_TOL:
        raise DomainError(f"c1_squared must lie in [0, 1], got {c1_squared!r}")
    return min(max(c1_squared, 0.0), 1.0)


def make_state(c1_squared: float, sign_c1: int = +1, sign_c2: int = +1) -> SchmidtState:
    """Build a state from c1^2 and explicit coefficient signs.

    c1_squared may stray outside [0, 1] by at most ROUNDING_TOL;
    anything further is a domain error.
    """
    c1_squared = _require_finite("c1_squared", c1_squared)
    s1 = _check_sign("sign_c1", sign_c1)
    s2 = _check_sign("sign_c2", sign_c2)
    c1_squared = _clamp_c1_squared(c1_squared)
    return SchmidtState(
        c1=s1 * math.sqrt(c1_squared),
        c2=s2 * math.sqrt(1.0 - c1_squared),
    )


def _entanglement_flags(c1, c2, tol: float = BOUNDARY_TOL):
    """(product, maximal) flags of the coefficient magnitudes c1, c2.

    Plain arithmetic, so floats and broadcast numpy arrays both work:
    the one definition behind entanglement_class and the Hardy domain.
    """
    return c1 * c2 <= tol, abs(c1 - c2) <= tol


def entanglement_class(
    state: SchmidtState, tol: float = BOUNDARY_TOL
) -> EntanglementClass:
    """Classify as product, maximally entangled, or partially entangled."""
    tol = _require_tolerance("tol", tol)
    product, maximal = _entanglement_flags(abs(state.c1), abs(state.c2), tol)
    if product:
        return EntanglementClass.PRODUCT
    if maximal:
        return EntanglementClass.MAXIMAL
    return EntanglementClass.PARTIAL


# ---------- config-file ingestion (key = value text) ----------

_SETTING_TAGS = ("11", "12", "21", "22")

_REQUIRED_KEYS = ("c1_squared",) + tuple(f"beta_{t}_deg" for t in _SETTING_TAGS)

_OPTIONAL_KEYS = ("sign_c1", "sign_c2") + tuple(
    f"delta_{t}_deg" for t in _SETTING_TAGS
)


def _key_value_lines(text: str) -> Iterator[tuple[int, str, str]]:
    """Yield (line number, key, value) for each 'key = value' line.

    Keys and values are stripped; blank lines and lines starting with
    '#' are skipped, and any other line without '=' is an error.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DomainError(f"line {lineno}: expected 'key = value', got {raw!r}")
        yield lineno, key.strip(), value.strip()


def config_from_text(text: str) -> ExperimentConfig:
    """Parse a key = value experiment description.

    Recognized keys: c1_squared, sign_c1, sign_c2, and beta_IJ_deg /
    delta_IJ_deg for IJ in 11, 12, 21, 22. Angles are given in degrees
    and converted to radians here. Blank lines and lines starting with
    '#' are ignored. Unknown or repeated keys are an error; the signs
    default to +1 and the deltas to 0.
    """
    values: dict[str, float] = {}
    for lineno, key, value in _key_value_lines(text):
        if key not in _REQUIRED_KEYS and key not in _OPTIONAL_KEYS:
            raise DomainError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise DomainError(f"line {lineno}: repeated key {key!r}")
        try:
            values[key] = float(value)
        except ValueError:
            raise DomainError(
                f"line {lineno}: value for {key!r} is not a number: {value!r}"
            ) from None
    missing = [key for key in _REQUIRED_KEYS if key not in values]
    if missing:
        raise DomainError(f"missing required keys: {', '.join(missing)}")

    state = make_state(
        values["c1_squared"],
        sign_c1=values.get("sign_c1", 1),
        sign_c2=values.get("sign_c2", 1),
    )
    return ExperimentConfig(
        state=state,
        **{
            f"d{tag}": MeasurementSetting(
                beta=math.radians(values[f"beta_{tag}_deg"]),
                delta=math.radians(values.get(f"delta_{tag}_deg", 0.0)),
            )
            for tag in _SETTING_TAGS
        },
    )


def config_from_file(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except ValueError as exc:  # undecodable bytes, or a NUL byte in the path
        raise DomainError(f"cannot read config file: {exc}") from None
    return config_from_text(text)


# Bind this module's public names in the package namespace.
from . import _publish

_publish(globals())
