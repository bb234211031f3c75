"""Geometry, pathloss, and channel-generation tests against hand-derived values."""

import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import reference_box_muller, table1_with
from hypothesis import given
from hypothesis import strategies as st

from rispla.auth import Feature
from rispla.channel import (
    EvanescentError,
    GeometryError,
    PerElement,
    ScalarGradient,
    Scenario,
    ScenarioFormatError,
    fspl,
    incidence_angle,
    load_scenario,
    pathloss_pair,
    ris_pathloss,
    ris_pathloss_grid,
)
from rispla.mc import (
    Hypothesis,
    TrialPlan,
    _cascade,
    _cir_vectors,
    _uniform_blocks,
    empirical_distribution,
)

# hand evaluation of the reflection pathloss, zero gradient, shipped geometry:
#   lambda = 299792458 / 28e9 = 0.0107068735 m
#   Alice: d_i = sqrt(200), cos(theta_i) = 10/sqrt(200);  Eve: d_i = 10, cos = 1
#   r = |bob - ris| = 10
#   PL = 1e6/(4 pi)^2 * (0.25/(d_i r))^2 * cos^2
GOLDEN_PL_ALICE = 0.009894646840072048
GOLDEN_PL_EVE = 0.0395785873602882
TABLE1 = Path(__file__).resolve().parents[1] / "scenarios" / "table1.cfg"


def make_scenario(**overrides) -> Scenario:
    base = dict(
        alice_pos=(100.0, 100.0, 1.0),
        eve_pos=(90.0, 100.0, 1.0),
        bob_pos=(90.0, 80.0, 1.0),
        ris_pos=(90.0, 90.0, 1.0),
        ris_normal=(0.0, 1.0, 0.0),
        element_a=0.5,
        element_b=0.5,
        n_elements=256,
        frequency_hz=28e9,
        tx_gain=1000.0,
        rx_gain=1000.0,
        tx_power_w=1.0,
        lq_db=100.0,
    )
    base.update(overrides)
    return Scenario(**base)


class TestScenario:
    def test_shipped_file_matches_table(self, scenario):
        assert scenario.n_elements == 256
        assert scenario.frequency_hz == 28e9
        assert scenario.tx_gain == 1000.0
        np.testing.assert_allclose(scenario.alice_pos, [100, 100, 1])
        np.testing.assert_allclose(scenario.eve_pos, [90, 100, 1])
        np.testing.assert_allclose(scenario.ris_pos, [90, 90, 1])

    def test_derived_quantities(self, scenario):
        assert scenario.wavelength == pytest.approx(0.0107068735, rel=1e-9)
        assert scenario.noise_variance == pytest.approx(
            scenario.tx_power_w * 10 ** (-scenario.lq_db / 10))
        assert scenario.noise_sigma == pytest.approx(math.sqrt(scenario.noise_variance))

    def test_unit_normal_required(self):
        with pytest.raises(ValueError, match="unit norm"):
            make_scenario(ris_normal=(0.0, 2.0, 0.0))

    def test_distinct_positions_required(self):
        with pytest.raises(ValueError, match="distinct"):
            make_scenario(alice_pos=(90.0, 90.0, 1.0))

    @pytest.mark.parametrize("point", [(90.0, 80.0), (90.0, 80.0, 1.0, 0.0), 90.0])
    def test_position_must_be_a_3_vector(self, point):
        with pytest.raises(ValueError, match="bob_pos must be a 3-vector"):
            make_scenario(bob_pos=point)

    def test_parse_error_names_line(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("alice_pos = 1, 2, 3\nnot a line\n")
        with pytest.raises(ScenarioFormatError, match=r":2:"):
            load_scenario(bad)

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("mystery = 4\n")
        with pytest.raises(ScenarioFormatError, match="unknown key"):
            load_scenario(bad)

    def test_repeated_key_names_both_lines(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        lines = TABLE1.read_text().splitlines()
        bad.write_text("\n".join(lines) + "\n\n# the link quality again\nlq_db = 30\n")
        first, repeat = 1 + lines.index("lq_db = 100"), len(lines) + 3
        message = f"bad.cfg:{repeat}: lq_db repeats line {first}$"
        with pytest.raises(ScenarioFormatError, match=message):
            load_scenario(bad)

    def test_missing_key_reported(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("alice_pos = 1, 2, 3\n")
        with pytest.raises(ScenarioFormatError, match="missing"):
            load_scenario(bad)

    @pytest.mark.parametrize("key,value", [
        ("tx_power_w", "nan"),
        ("lq_db", "nan"),
        ("ris_normal", "nan, nan, nan"),
        ("lq_db", "inf"),
    ], ids=["nan-power", "nan-lq", "nan-normal", "infinite-lq"])
    def test_non_finite_value_refused(self, tmp_path, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(table1_with(**{key: value}))
        with pytest.raises(ScenarioFormatError, match=f"{key} must be finite"):
            load_scenario(cfg)

    @pytest.mark.parametrize("key,value,message", [
        ("element_a", "0", "element dimensions must be positive"),
        ("element_b", "-0.5", "element dimensions must be positive"),
        ("n_elements", "0", "n_elements must be a positive integer, got 0"),
        ("n_elements", "-4", "n_elements must be a positive integer, got -4"),
        ("frequency_hz", "0", "frequency_hz must be positive"),
        ("frequency_hz", "-28e9", "frequency_hz must be positive"),
        ("alice_pos", "100, north, 1", "non-numeric component in alice_pos"),
        ("lq_db", "loud", "non-numeric value for lq_db"),
        ("n_elements", "2.5", "non-numeric value for n_elements"),
    ], ids=["zero-element-a", "negative-element-b", "zero-elements", "negative-elements",
            "zero-frequency", "negative-frequency", "word-in-position", "word-for-lq",
            "fractional-elements"])
    def test_out_of_domain_value_refused(self, tmp_path, key, value, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(table1_with(**{key: value}))
        with pytest.raises(ScenarioFormatError, match=re.escape(message)):
            load_scenario(cfg)

    def test_comments_and_blanks_ignored(self, tmp_path, scenario):
        cfg = tmp_path / "ok.cfg"
        lines = [
            "# full config",
            "alice_pos = 100, 100, 1  # legitimate",
            "eve_pos = 90, 100, 1",
            "bob_pos = 90, 80, 1",
            "ris_pos = 90, 90, 1",
            "",
            "ris_normal = 0, 1, 0",
            "element_a = 0.5",
            "element_b = 0.5",
            "n_elements = 256",
            "frequency_hz = 28e9",
            "tx_gain = 1000",
            "rx_gain = 1000",
            "tx_power_w = 1",
            "lq_db = 100",
        ]
        cfg.write_text("\n".join(lines) + "\n")
        sc = load_scenario(cfg)
        assert sc.n_elements == scenario.n_elements
        assert sc.sigma_g_sq == 1.0  # optional key defaults

    @pytest.mark.parametrize("lq", [-40.0, 0.0, 37.5, 3000.0])
    def test_link_quality_copy_equals_a_checked_scenario(self, scenario, lq):
        # a sweep's link qualities skip __post_init__: they must be what it would build
        derived, checked = scenario.at_link_quality(lq), replace(scenario, lq_db=lq)
        for name in scenario.__dataclass_fields__:
            assert np.asarray(getattr(derived, name)).tobytes() == (
                np.asarray(getattr(checked, name)).tobytes()), name
        assert derived.geometry_key == checked.geometry_key == scenario.geometry_key
        assert derived.noise_sigma == checked.noise_sigma
        assert scenario.lq_db == 100.0  # the loaded scenario is not changed

    def test_every_point_of_a_sweep_has_its_own_noise_sigma(self, scenario):
        # noise_sigma is computed once per scenario: a copy at another link quality has its own
        parent = replace(scenario, lq_db=30.0)
        assert parent.noise_sigma == math.sqrt(parent.noise_variance)
        lqs = [0.0, 30.0, 55.5, -12.25]
        points = [parent.at_link_quality(lq) for lq in lqs]
        assert [p.noise_sigma for p in points] == [
            math.sqrt(1.0 * 10.0 ** (-lq / 10.0)) for lq in lqs]  # table1's 1 W
        assert len({p.noise_sigma for p in points}) == len(lqs)
        assert parent.noise_sigma == points[1].noise_sigma and parent.lq_db == 30.0

    def test_geometry_key_holds_every_field_but_the_link_quality(self, scenario):
        assert replace(scenario, tx_gain=999.0).geometry_key != scenario.geometry_key
        assert replace(scenario, lq_db=1.0).geometry_key == scenario.geometry_key


class TestIncidenceAngle:
    def test_normal_ray(self):
        sc = make_scenario()
        assert incidence_angle((90.0, 95.0, 1.0), sc) == pytest.approx(0.0, abs=1e-12)

    def test_forty_five_degrees(self):
        sc = make_scenario()
        assert incidence_angle((95.0, 95.0, 1.0), sc) == pytest.approx(math.pi / 4, abs=1e-12)

    def test_table_geometry_alice(self, scenario):
        # arccos(10 / sqrt(200)) = pi/4
        assert incidence_angle(scenario.alice_pos, scenario) == pytest.approx(
            math.pi / 4, abs=1e-9)

    def test_in_plane_is_degenerate(self):
        sc = make_scenario()
        with pytest.raises(GeometryError):
            incidence_angle((95.0, 90.0, 1.0), sc)

    def test_behind_panel_is_degenerate(self):
        sc = make_scenario()
        with pytest.raises(GeometryError):
            incidence_angle((90.0, 85.0, 1.0), sc)

    def test_at_the_panel_is_degenerate(self):
        sc = make_scenario()
        with pytest.raises(GeometryError, match="coincides with the panel position"):
            incidence_angle(sc.ris_pos, sc)


def specular_gain(sc, tx_pos) -> float:
    """Gt Gr / (4 pi)^2 * (ab / (d_i r))^2 * cos^2(theta_i): the pathloss where sinc^2 = 1."""
    tx = np.asarray(tx_pos, dtype=float)
    d_i = np.linalg.norm(tx - sc.ris_pos)
    r = np.linalg.norm(sc.bob_pos - sc.ris_pos)
    cos_i = math.cos(incidence_angle(tx, sc))
    return (sc.tx_gain * sc.rx_gain / (4 * math.pi) ** 2
            * (sc.element_a * sc.element_b / (d_i * r)) ** 2 * cos_i**2)


class TestReflectionAngle:
    """The reflected ray theta_r, seen through the lobe factor sinc^2(u) of the pathloss,
    u = (pi b / lambda) (sin theta_i - sin theta_r)."""

    def test_specular_when_flat(self):
        # zero gradient: theta_r = theta_i, so u = 0 and the lobe factor is 1
        sc = make_scenario()
        for theta in (0.0, 0.3, 1.2):
            tx = sc.ris_pos + 10.0 * np.array([math.sin(theta), math.cos(theta), 0.0])
            pathloss, propagating = ris_pathloss_grid(sc, tx, [0.0])
            assert propagating.tolist() == [True]
            assert pathloss[0] == pytest.approx(specular_gain(sc, tx), rel=1e-12)

    def test_half_sine_offset(self):
        # theta_i = 0 and sin(theta_r) = 1/2, i.e. theta_r = pi/6
        sc = make_scenario()
        tx = (90.0, 95.0, 1.0)
        gradient = 0.5 * 2 * math.pi * sc.refractive_index / sc.wavelength
        u = (math.pi * sc.element_b / sc.wavelength) * (0.0 - math.sin(math.pi / 6))
        expected = specular_gain(sc, tx) * (math.sin(u) / u) ** 2
        assert ris_pathloss(sc, tx, gradient) == pytest.approx(expected, rel=1e-9)

    def test_evanescent(self):
        sc = make_scenario()
        tx = (95.0, 95.0, 1.0)  # theta_i = pi/4
        gradient = 1.2 * 2 * math.pi / sc.wavelength  # asin argument 0.7071 + 1.2 > 1
        pathloss, propagating = ris_pathloss_grid(sc, tx, [gradient, 0.0, -2.0 * gradient])
        assert propagating.tolist() == [False, True, False]
        assert np.isnan(pathloss).tolist() == [True, False, True]
        with pytest.raises(EvanescentError):
            ris_pathloss(sc, tx, gradient)


class TestRisPathloss:
    def test_golden_specular_values(self, scenario):
        assert ris_pathloss(scenario, scenario.alice_pos, 0.0) == pytest.approx(
            GOLDEN_PL_ALICE, rel=1e-12)
        assert ris_pathloss(scenario, scenario.eve_pos, 0.0) == pytest.approx(
            GOLDEN_PL_EVE, rel=1e-12)

    def test_specular_closed_form(self):
        sc = make_scenario()
        d_i = math.sqrt(200.0)
        r = 10.0
        expected = (sc.tx_gain * sc.rx_gain / (4 * math.pi) ** 2
                    * (0.25 / (d_i * r)) ** 2 * 0.5)
        assert ris_pathloss(sc, sc.alice_pos, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_distance_scaling(self):
        sc = make_scenario()
        far = make_scenario(
            alice_pos=(110.0, 110.0, 1.0),   # doubles d_i along the same ray
            bob_pos=(90.0, 70.0, 1.0),       # doubles r
        )
        ratio = ris_pathloss(far, far.alice_pos, 0.0) / ris_pathloss(sc, sc.alice_pos, 0.0)
        assert ratio == pytest.approx(1.0 / 16.0, rel=1e-12)

    def test_continuous_at_specular_point(self, scenario):
        base = ris_pathloss(scenario, scenario.alice_pos, 0.0)
        for g in (1e-9, -1e-9):
            assert ris_pathloss(scenario, scenario.alice_pos, g) == pytest.approx(
                base, rel=1e-6)

    def test_rigid_rotation_invariance(self, scenario):
        base = ris_pathloss(scenario, scenario.alice_pos, 5.0)
        rng = np.random.default_rng(3)
        for _ in range(5):
            a, b = rng.uniform(0, 2 * math.pi, 2)
            rz = np.array([[math.cos(a), -math.sin(a), 0],
                           [math.sin(a), math.cos(a), 0], [0, 0, 1]])
            rx = np.array([[1, 0, 0], [0, math.cos(b), -math.sin(b)],
                           [0, math.sin(b), math.cos(b)]])
            rot = rz @ rx
            sc = replace(
                scenario,
                alice_pos=rot @ scenario.alice_pos,
                eve_pos=rot @ scenario.eve_pos,
                bob_pos=rot @ scenario.bob_pos,
                ris_pos=rot @ scenario.ris_pos,
                ris_normal=rot @ scenario.ris_normal,
            )
            assert ris_pathloss(sc, sc.alice_pos, 5.0) == pytest.approx(base, rel=1e-9)

    def test_pathloss_pair(self, scenario):
        assert pathloss_pair(scenario, 0.0) == pytest.approx((GOLDEN_PL_ALICE, GOLDEN_PL_EVE),
                                                             rel=1e-12)
        assert pathloss_pair(scenario, 0.0, ris=False) == (
            fspl(scenario.alice_pos, scenario.bob_pos, scenario),
            fspl(scenario.eve_pos, scenario.bob_pos, scenario))

    def test_evanescent_propagates(self, scenario):
        huge = 2.0 * 2 * math.pi / scenario.wavelength
        with pytest.raises(EvanescentError):
            ris_pathloss(scenario, scenario.alice_pos, huge)


class TestFspl:
    def test_unit_gain_distance(self):
        sc = make_scenario(tx_gain=1.0, rx_gain=1.0)
        d = sc.wavelength / (4 * math.pi)
        assert fspl((0.0, 0.0, 0.0), (d, 0.0, 0.0), sc) == pytest.approx(1.0, rel=1e-12)

    def test_inverse_square(self, scenario):
        p1 = fspl((0.0, 0.0, 0.0), (10.0, 0.0, 0.0), scenario)
        p2 = fspl((0.0, 0.0, 0.0), (20.0, 0.0, 0.0), scenario)
        assert p1 / p2 == pytest.approx(4.0, rel=1e-12)

    def test_hand_friis_value(self, scenario):
        # frozen: 1e6 * (0.0107068735 / (4 pi * 14.142))^2 = 3.6298e-3
        assert fspl((0.0, 0.0, 0.0), (14.142, 0.0, 0.0), scenario) == pytest.approx(
            3.63e-3, rel=1e-2)

    def test_coincident_positions(self, scenario):
        with pytest.raises(GeometryError):
            fspl((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), scenario)


def cir_draws(n: int, trials: int, seed: int, sigma_g_sq: float = 1.0, first: int = 0):
    """(h, g, unit noise) of engine trials [first, first + trials) on n elements."""
    draws = _cir_vectors(seed, n, sigma_g_sq, range(first, first + trials))
    return draws.h, draws.g, draws.noise


def cascade(h, g, phases) -> complex:
    """The engine's trial cascade for a single realization."""
    return complex(_cascade(np.atleast_2d(h), np.atleast_2d(g), np.asarray(phases, float))[0])


class TestSampleCir:
    """Fading draws as the engine decodes them from its uniform blocks."""

    def test_moments(self, scenario_small):
        n = scenario_small.n_elements
        h, _, _ = cir_draws(n, 10**5 // n, seed=8)
        assert abs(h.mean()) < 3.0 / math.sqrt(h.size)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, rel=0.03)

    def test_g_variance_scales(self):
        _, g, _ = cir_draws(8, 2000, seed=9, sigma_g_sq=4.0)
        assert np.mean(np.abs(g) ** 2) == pytest.approx(4.0, rel=0.03)

    def test_stream_contract(self):
        # a trial's draws depend only on (seed, trial), alone or inside a batch
        h3, g3, _ = cir_draws(8, 3, seed=5)
        h1, g1, _ = cir_draws(8, 1, seed=5, first=1)
        np.testing.assert_array_equal(h1[0], h3[1])
        np.testing.assert_array_equal(g1[0], g3[1])
        assert not np.array_equal(h3[0], h3[1])


class TestCascadedGain:
    def test_identity(self):
        assert cascade([1.0 + 0j], [1.0 + 0j], [0.0]) == pytest.approx(1.0 + 0j)

    def test_pure_rotation(self):
        assert cascade([1.0 + 0j], [1.0 + 0j], [math.pi / 2]) == pytest.approx(1j, abs=1e-12)

    def test_coherent_alignment(self):
        rng = np.random.default_rng(12)
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi = -(np.angle(g) - np.angle(h))
        assert abs(cascade(h, g, psi)) == pytest.approx(np.sum(np.abs(h) * np.abs(g)), rel=1e-12)

    def test_zero_phases_match_inner_product(self):
        rng = np.random.default_rng(13)
        h = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        g = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        assert cascade(h, g, np.zeros(6)) == pytest.approx(complex(np.sum(np.conj(h) * g)),
                                                           rel=1e-12)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31))
    def test_triangle_inequality(self, n, seed):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi = rng.uniform(0, 2 * math.pi, n)
        assert abs(cascade(h, g, psi)) <= np.sum(np.abs(h) * np.abs(g)) + 1e-9


class TestAddNoise:
    """Receiver noise as the engine adds it."""

    def test_zero_sigma_identity(self, scenario_small):
        silent = replace(scenario_small, lq_db=4000.0)  # 10^-400 underflows to 0
        assert silent.noise_sigma == 0.0
        plans = [
            TrialPlan(n_trials=500, master_seed=3, feature=Feature.PATHLOSS,
                      scenario=silent, profile=ScalarGradient(0.0)),
            TrialPlan(n_trials=500, master_seed=3, feature=Feature.CIR_MAGNITUDE,
                      scenario=silent, profile=PerElement(np.zeros(8)), refade_alice=False),
        ]
        for plan in plans:
            assert np.all(empirical_distribution(plan, Hypothesis.H0) == 0.0)

    def test_real_variance(self):
        block = _uniform_blocks(21, 4, 1, 10**6)
        noise, _ = reference_box_muller(block[:, 1], block[:, 2])  # the pathloss noise draw
        assert noise.var() == pytest.approx(1.0, rel=0.01)

    def test_complex_variance_convention(self):
        _, _, noise = cir_draws(1, 2 * 10**5, seed=22)
        assert np.mean(np.abs(noise) ** 2) == pytest.approx(1.0, rel=0.01)
        # each part carries half the power
        assert noise.real.var() == pytest.approx(0.5, rel=0.02)


class TestPhaseProfiles:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("make", [lambda v: ScalarGradient(v),
                                      lambda v: PerElement([0.0] * 7 + [v])],
                             ids=["gradient", "per-element"])
    def test_refuses_nonfinite(self, make, value):
        # NaN phases make every statistic NaN, which every threshold rejects: pfa 1 and
        # pmd 0; a NaN gradient counts as propagating and ends the same way
        with pytest.raises(ValueError, match="finite"):
            make(value)

    def test_keeps_finite_values(self):
        assert ScalarGradient(3.5).gradient == 3.5
        phases = PerElement([-math.pi / 2, 2 * math.pi, 1.0]).phases
        assert phases.tolist() == pytest.approx([1.5 * math.pi, 0.0, 1.0])
        assert not phases.flags.writeable
