"""State construction, classification, and config-file parsing."""

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab.qstate import (
    BOUNDARY_TOL,
    PAIR_ORDER,
    ROUNDING_TOL,
    DomainError,
    EntanglementClass,
    ExperimentConfig,
    MeasurementSetting,
    SchmidtState,
    config_from_file,
    config_from_text,
    entanglement_class,
    make_state,
)

GOLDEN_TEXT = """
# golden experiment
c1_squared = 0.3
beta_11_deg = 10.5
beta_12_deg = 40
beta_21_deg = -37.5
beta_22_deg = 100
delta_12_deg = 12.25
"""


class TestSchmidtState:
    def test_accepts_normalized_pair(self):
        state = SchmidtState(0.6, 0.8)
        assert state.c1 == 0.6
        assert state.c1_squared == pytest.approx(0.36, abs=1e-15)

    def test_rejects_unnormalized_pair(self):
        with pytest.raises(DomainError, match="deviates from 1"):
            SchmidtState(0.6, 0.81)

    @pytest.mark.parametrize(
        "bad",
        [float("nan"), float("inf"), "x", None, "0.6", b"1", Decimal("0.6"),
         pytest.param(10**400, id="huge-int")],
    )
    def test_rejects_non_finite_coefficient(self, bad):
        with pytest.raises(DomainError):
            SchmidtState(bad, 0.8)

    def test_tolerates_rounding_residue(self):
        c1 = math.sqrt(0.3)
        c2 = math.sqrt(0.7)
        SchmidtState(c1, c2)  # residue well under ROUNDING_TOL


class TestMakeState:
    def test_golden_coefficients(self):
        state = make_state(0.3)
        assert state.c1 == pytest.approx(math.sqrt(0.3), abs=1e-16)
        assert state.c2 == pytest.approx(math.sqrt(0.7), abs=1e-16)

    def test_signs_applied(self):
        state = make_state(0.3, sign_c1=-1, sign_c2=-1)
        assert state.c1 < 0 and state.c2 < 0
        assert state.c1_squared == pytest.approx(0.3, abs=1e-15)

    def test_clamps_rounding_stray(self):
        assert make_state(1.0 + 0.5 * ROUNDING_TOL).c1 == 1.0
        assert make_state(-0.5 * ROUNDING_TOL).c1 == 0.0

    @pytest.mark.parametrize(
        "bad", [-0.1, 1.1, float("nan"), "0.3", Decimal("0.3"), pytest.param(10**400, id="huge-int")]
    )
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(DomainError):
            make_state(bad)

    @pytest.mark.parametrize("scalar", [np.float64, np.float32, np.longdouble])
    def test_accepts_numpy_scalars(self, scalar):
        assert make_state(scalar(0.25)) == make_state(0.25)

    @pytest.mark.parametrize("sign", [0, 2, 0.5, "plus"])
    def test_rejects_bad_sign(self, sign):
        with pytest.raises(DomainError, match="sign_c1"):
            make_state(0.3, sign_c1=sign)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200)
    def test_always_normalized(self, c1_squared):
        state = make_state(c1_squared)
        assert abs(state.c1 ** 2 + state.c2 ** 2 - 1.0) <= ROUNDING_TOL
        assert abs(state.c1_squared - c1_squared) <= 1e-12


class TestEntanglementClass:
    @pytest.mark.parametrize(
        "c1_squared,expected",
        [
            (0.0, EntanglementClass.PRODUCT),
            (1.0, EntanglementClass.PRODUCT),
            (0.5, EntanglementClass.MAXIMAL),
            (0.3, EntanglementClass.PARTIAL),
            (0.177352, EntanglementClass.PARTIAL),
        ],
    )
    def test_classification(self, c1_squared, expected):
        assert entanglement_class(make_state(c1_squared)) is expected

    def test_signs_do_not_matter(self):
        state = make_state(0.5, sign_c1=-1)
        assert entanglement_class(state) is EntanglementClass.MAXIMAL

    def test_widened_tolerance(self):
        state = make_state(0.5005)
        assert entanglement_class(state) is EntanglementClass.PARTIAL
        assert entanglement_class(state, tol=1e-2) is EntanglementClass.MAXIMAL

    @pytest.mark.parametrize(
        "tol,message",
        [
            (math.nan, "finite"),
            (math.inf, "finite"),
            (0.0, "positive"),
            (-1.0, "positive"),
            ("x", "real number"),
        ],
    )
    def test_rejects_bad_tolerance(self, tol, message):
        with pytest.raises(DomainError, match=f"tol must be (a )?{message}"):
            entanglement_class(make_state(0.5), tol=tol)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200)
    def test_trichotomy_matches_definition(self, c1_squared):
        state = make_state(c1_squared)
        got = entanglement_class(state)
        if abs(state.c1 * state.c2) <= BOUNDARY_TOL:
            assert got is EntanglementClass.PRODUCT
        elif abs(abs(state.c1) - abs(state.c2)) <= BOUNDARY_TOL:
            assert got is EntanglementClass.MAXIMAL
        else:
            assert got is EntanglementClass.PARTIAL


class TestMeasurementSetting:
    def test_delta_defaults_to_zero(self):
        setting = MeasurementSetting(0.4)
        assert setting.delta == 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            MeasurementSetting(float("inf"))
        with pytest.raises(DomainError):
            MeasurementSetting(0.0, float("nan"))

    @pytest.mark.parametrize(
        "beta,delta,message",
        [
            ("0.5", b"1", "beta must be a real number"),
            (0.5, b"1", "delta must be a real number"),
            (Decimal("0.5"), 0.0, "beta must be a real number"),
            (0.5, 10**400, "delta must be finite"),
        ],
        ids=["str", "bytes", "decimal", "huge-int"],
    )
    def test_rejects_non_real(self, beta, delta, message):
        with pytest.raises(DomainError, match=message):
            MeasurementSetting(beta, delta)


class TestExperimentConfig:
    def _config(self):
        return ExperimentConfig(
            state=make_state(0.3),
            d11=MeasurementSetting(0.1),
            d12=MeasurementSetting(0.2),
            d21=MeasurementSetting(0.3),
            d22=MeasurementSetting(0.4),
        )

    def test_setting_lookup(self):
        config = self._config()
        assert config.setting(1, 1) is config.d11
        assert config.setting(1, 2) is config.d12
        assert config.setting(2, 1) is config.d21
        assert config.setting(2, 2) is config.d22

    @pytest.mark.parametrize("particle,index", [(0, 1), (1, 3), (3, 1), (2, 0)])
    def test_setting_rejects_bad_indices(self, particle, index):
        with pytest.raises(DomainError, match="indices must be 1 or 2"):
            self._config().setting(particle, index)

    def test_pair_lookup(self):
        config = self._config()
        assert [config.pair(k, l) for k, l in PAIR_ORDER] == [
            (config.d11, config.d21),
            (config.d11, config.d22),
            (config.d12, config.d21),
            (config.d12, config.d22),
        ]

    def test_pair_accepts_what_setting_accepts(self):
        config = self._config()
        assert config.pair(2.0, 1.0) == (config.setting(1, 2.0), config.setting(2, 1.0))

    @pytest.mark.parametrize("k,l", [(0, 1), (1, 3), (3, 1), (2, 0), (-1, 1), (1.5, 1)])
    def test_pair_rejects_bad_indices(self, k, l):
        with pytest.raises(DomainError, match="indices must be 1 or 2"):
            self._config().pair(k, l)

    def test_settings_dict(self):
        config = self._config()
        assert config.settings == {
            (1, 1): config.d11,
            (1, 2): config.d12,
            (2, 1): config.d21,
            (2, 2): config.d22,
        }

    def test_rejects_wrong_types(self):
        with pytest.raises(DomainError, match="state must be a SchmidtState, got 1"):
            ExperimentConfig(1, 2, 3, 4, 5)
        setting = MeasurementSetting(0.1)
        for position, name in enumerate(("d11", "d12", "d21", "d22")):
            args = [setting] * 4
            args[position] = 0.1
            with pytest.raises(DomainError, match=f"{name} must be a MeasurementSetting"):
                ExperimentConfig(make_state(0.3), *args)


class TestConfigParsing:
    def test_golden_text(self):
        config = config_from_text(GOLDEN_TEXT)
        assert config.state.c1_squared == pytest.approx(0.3, abs=1e-15)
        assert config.d11.beta == math.radians(10.5)
        assert config.d12.beta == math.radians(40)
        assert config.d21.beta == math.radians(-37.5)
        assert config.d22.beta == math.radians(100)
        assert config.d12.delta == math.radians(12.25)
        # unspecified deltas default to 0
        assert config.d11.delta == 0.0
        assert config.d21.delta == 0.0

    def test_signs(self):
        text = GOLDEN_TEXT + "sign_c1 = -1\nsign_c2 = 1\n"
        config = config_from_text(text)
        assert config.state.c1 < 0 < config.state.c2

    def test_unknown_key(self):
        with pytest.raises(DomainError, match="unknown key"):
            config_from_text(GOLDEN_TEXT + "gamma_11_deg = 3\n")

    def test_repeated_key(self):
        with pytest.raises(DomainError, match="repeated key"):
            config_from_text(GOLDEN_TEXT + "c1_squared = 0.4\n")

    def test_missing_key(self):
        with pytest.raises(DomainError, match="missing required keys"):
            config_from_text("c1_squared = 0.3\nbeta_11_deg = 0\n")

    def test_bad_number(self):
        with pytest.raises(DomainError, match="not a number"):
            config_from_text(GOLDEN_TEXT.replace("0.3", "zero point three"))

    def test_line_without_equals(self):
        with pytest.raises(DomainError, match="expected 'key = value'"):
            config_from_text("c1_squared 0.3\n")

    def test_from_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(GOLDEN_TEXT, encoding="utf-8")
        config = config_from_file(str(path))
        assert config.d22.beta == math.radians(100)

    @given(
        text=st.one_of(
            st.text(),
            # GOLDEN_TEXT with up to three keys set to awkward values (or added).
            st.dictionaries(
                st.sampled_from(
                    ["c1_squared", "sign_c1", "sign_c2", "beta_11_deg", "beta_22_deg",
                     "delta_12_deg", "beta_13_deg"]
                ),
                st.one_of(
                    st.sampled_from(
                        ["0.3", "1", "-1", "0", "1.0000000000001", "1e400", "-1e400",
                         "1e308", "nan", "inf", "0.5", ""]
                    ),
                    st.text(max_size=12),
                ),
                max_size=3,
            ).map(
                lambda changes: "\n".join(
                    line for line in GOLDEN_TEXT.splitlines()
                    if line.partition(" =")[0] not in changes
                ) + "".join(f"\n{k} = {v}" for k, v in changes.items())
            ),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_any_text_parses_or_raises_domain_error(self, text):
        try:
            config = config_from_text(text)
        except DomainError:
            return
        assert isinstance(config, ExperimentConfig)

    @given(
        c1_squared=st.floats(min_value=0.0, max_value=1.0),
        betas=st.lists(
            st.floats(min_value=-360, max_value=360), min_size=4, max_size=4
        ),
    )
    @settings(max_examples=100)
    def test_round_trip_degrees(self, c1_squared, betas):
        lines = [f"c1_squared = {c1_squared!r}"]
        lines += [
            f"beta_{tag}_deg = {value!r}"
            for tag, value in zip(("11", "12", "21", "22"), betas)
        ]
        config = config_from_text("\n".join(lines))
        for tag, value in zip(("11", "12", "21", "22"), betas):
            assert config.setting(int(tag[0]), int(tag[1])).beta == math.radians(value)
