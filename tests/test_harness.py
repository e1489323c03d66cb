import argparse
import dataclasses
import importlib
import json
import os
import platform
import pkgutil
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
import yaml

import cransim
from cransim import (cellgeom, channel, downlink, harness, scheduler,
                     uplink)
from cransim.cli import build_config, main as cli_main
from cransim.errors import ConfigurationError, DomainError
from helpers import max_efficiency


def test_percentile_reference_values():
    assert harness.percentile([1, 2, 3, 4, 5], 50) == 3.0
    assert harness.percentile([1, 2, 3, 4, 5], 0) == 1.0
    assert harness.percentile([1, 2, 3, 4, 5], 100) == 5.0


def test_percentile_uniform_sampling_oracle():
    rng = np.random.default_rng(8)
    samples = rng.uniform(0.0, 1.0, 10 ** 5)
    assert harness.percentile(samples, 5) == pytest.approx(0.05, abs=0.005)


def test_percentile_domain_errors():
    with pytest.raises(DomainError):
        harness.percentile([], 50)
    with pytest.raises(DomainError):
        harness.percentile([1.0], 101)


def test_rate_mapping():
    shannon = harness.RateMapping()
    assert np.allclose(shannon.apply([0.5, 9.0]), [0.5, 9.0])
    lte = harness.RateMapping(kind="attenuated")
    assert np.allclose(lte.apply([0.5, 9.0]), [0.3, 4.4])
    with pytest.raises(ConfigurationError):
        harness.RateMapping(kind="magic").apply([1.0])
    # a negative scale or cap would map rates below zero; a NaN is refused
    # by the field rule
    for name in ("scale", "cap"):
        for bad, message in ((-0.5, "must be >= 0"),
                             (float("nan"), "must be finite")):
            with pytest.raises(ConfigurationError,
                               match=f"rate_mapping.{name} {message}"):
                harness.RateMapping(kind="attenuated", **{name: bad})
        with pytest.raises(ConfigurationError, match=f"rate_mapping.{name}"):
            harness.ExperimentConfig.from_dict(dict(rate_mapping=dict(
                kind="attenuated", **{name: -0.5})))


def test_config_from_dict_and_yaml(tmp_path):
    data = dict(direction="uplink", mode="both", k_ms=2, n_pico=1,
                c_macro=3.0, c_pico=1.0, alpha=[0.0, 1.0], beta=0.5,
                slots=2, drops=3, seed=9,
                rate_mapping=dict(kind="attenuated", scale=0.5, cap=4.0),
                reuse="F1", propagation=dict(inter_site_distance_m=400.0))
    cfg = harness.ExperimentConfig.from_dict(data)
    assert cfg.rate_mapping.cap == 4.0
    assert cfg.reuse == "F1"
    assert cfg.propagation.inter_site_distance_m == 400.0

    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(data))
    cfg2 = build_config(argparse.Namespace(preset=None, config=str(path)))
    assert dataclasses.asdict(cfg2) == dataclasses.asdict(cfg)

    for bad in (dict(direction="sideways"), dict(bogus_key=1),
                dict(solver=dict(bogus=1)), dict(propagation=dict(bogus=1)),
                dict(k_ms="x"), dict(solver=5), dict(reuse="F7"),
                dict(rate_mapping=dict(kind="nope")),
                dict(propagation=dict(inter_site_distance_m=-5))):
        with pytest.raises(ConfigurationError):
            harness.ExperimentConfig.from_dict(bad)


def test_config_from_dict_fuzz_raises_only_configuration_errors():
    """Random dicts with unknown keys, wrong types and wrong nested types:
    from_dict returns a config whose settings have their declared types, or
    raises ConfigurationError, and nothing else."""
    rng = np.random.default_rng(56)
    junk = [None, True, -3, 2, 2.5, float("nan"), float("inf"), float("-inf"),
            "x", "F1", [], [1.0, "x"], [1.0, 2.0], {}, {"bogus": 1},
            {"kind": "nope"}, 7j]
    nested = {"rate_mapping": harness.RateMapping,
              "propagation": cellgeom.PropagationParams}

    def names(cls):
        return [f.name for f in dataclasses.fields(cls)] + ["bogus"]

    def pick(keys, n):
        return {str(k): junk[rng.integers(len(junk))]
                for k in rng.choice(keys, size=n)}

    loaded = 0
    for _ in range(400):
        data = pick(names(harness.ExperimentConfig), rng.integers(1, 4))
        for key in [k for k in data if k in nested]:
            if rng.random() < 0.5:
                data[key] = pick(names(nested[key]), rng.integers(1, 3))
        try:
            cfg = harness.ExperimentConfig.from_dict(data)
        except ConfigurationError:
            continue
        loaded += 1
        for key, cls in nested.items():
            assert isinstance(getattr(cfg, key), cls)
        for f in dataclasses.fields(cfg.rate_mapping):
            value = getattr(cfg.rate_mapping, f.name)
            kinds = (int, float) if f.type is float else f.type
            assert isinstance(value, kinds), (f.name, value)
            assert not isinstance(value, bool), (f.name, value)
        for sub in (cfg, cfg.rate_mapping, cfg.propagation):
            for f in dataclasses.fields(sub):
                if f.type is float:
                    assert np.isfinite(getattr(sub, f.name)), f.name
    assert 0 < loaded < 400


def test_presets_are_valid_configs():
    for name, preset in harness.PRESETS.items():
        cfg = harness.ExperimentConfig.from_dict(preset)
        assert cfg.direction in ("uplink", "downlink"), name


def test_run_experiment_single_user_pipeline_identity():
    cfg = harness.ExperimentConfig(direction="uplink", mode="point_to_point",
                                   k_ms=1, n_pico=0, c_macro=40.0,
                                   c_pico=40.0, alpha=0.0, slots=1, drops=1,
                                   seed=5)
    report = harness.run_experiment(cfg)
    got = report.metrics["point_to_point"].rates[0, 0, 0]

    # rebuild the same drop by hand and solve it directly
    topo = cellgeom.build_layout(harness._drop_seed(5, 0), 1, 0,
                                 cfg.propagation)
    cluster = channel.build_cluster(topo, cfg.propagation, direction="uplink")
    chan = channel.realize_channel(cluster, 0, harness._slot_rng(5, 0, 0))
    res = uplink.optimize_ul(chan, cluster.backhaul_capacities(40.0, 40.0),
                             np.ones(1), "point_to_point",
                             cluster.power_limits_ul())
    assert got == pytest.approx(res.rates[0], abs=1e-12)
    assert report.metrics["point_to_point"].p50_sum_rate == pytest.approx(
        got, abs=1e-12)

    # with huge backhaul the single-user rate is the ideal combining rate
    p_ms = cluster.power_limits_ul()[0]
    snr = p_ms * np.sum(np.abs(chan.h_ul[:, 0]) ** 2 / chan.sigma2_z_ul)
    assert got == pytest.approx(np.log2(1.0 + snr), abs=1e-3)


def test_mode_both_is_aligned_with_single_mode_runs(tmp_path):
    """A single-mode run writes its half of a both-mode run's files.  Both
    uplink modes of a slot share its vertex table, which keeps one design
    per (vertex, mode); neither mode may see the other's.  A downlink
    multiterminal run also solves point-to-point as its start: from the
    second slot on, the two modes' weights differ."""
    base = dict(k_ms=2, n_pico=1, c_macro=3.0, c_pico=1.0, slots=3, drops=2,
                seed=11)
    for direction, alpha in (("uplink", 0.0), ("uplink", 1.0),
                             ("downlink", 2.0)):
        reports = {mode: harness.run_experiment(harness.ExperimentConfig(
            direction=direction, alpha=alpha, mode=mode, **base))
            for mode in ("both",) + harness.MODE_ORDER}
        for mode, report in reports.items():
            harness.write_report(report, tmp_path / mode)
        records = (tmp_path / "both" / "records.csv").read_text()
        for mode in harness.MODE_ORDER:
            both, solo = reports["both"].metrics[mode], reports[mode]
            assert solo.modes == (mode,)
            assert np.array_equal(both.rates, solo.metrics[mode].rates), \
                (alpha, mode)
            assert both.mm_iterations == solo.metrics[mode].mm_iterations
            other, = set(harness.MODE_ORDER) - {mode}
            assert [line for line in records.splitlines()
                    if f",{other}," not in line] == (
                tmp_path / mode / "records.csv").read_text().splitlines()
            name = f"cdf_{mode}.dat"
            assert (tmp_path / "both" / name).read_bytes() \
                == (tmp_path / mode / name).read_bytes(), (alpha, mode)


def test_mode_both_builds_one_vertex_table_per_slot(monkeypatch):
    # both modes of a slot share its vertex table; at alpha = 0 both weigh
    # every MS alike, and the multiterminal rates are those of a run
    # without p2p
    tables = counting(monkeypatch, uplink, "VertexTable")
    base = dict(direction="uplink", k_ms=2, n_pico=1, c_macro=3.0,
                c_pico=1.0, alpha=0.0, slots=2, drops=2, seed=11)
    both = harness.run_experiment(
        harness.ExperimentConfig(mode="both", **base))
    assert len(tables) == base["drops"] * base["slots"]
    solo = harness.run_experiment(
        harness.ExperimentConfig(mode="multiterminal", **base))
    assert np.array_equal(both.metrics["multiterminal"].rates,
                          solo.metrics["multiterminal"].rates)


def test_paired_dominance_at_alpha_zero():
    cfg = harness.ExperimentConfig(direction="uplink", mode="both", k_ms=3,
                                   n_pico=2, c_macro=3.0, c_pico=1.0,
                                   alpha=0.0, slots=2, drops=3, seed=13)
    report = harness.run_experiment(cfg)
    p2p = report.metrics["point_to_point"].rates.sum(axis=2)
    mt = report.metrics["multiterminal"].rates.sum(axis=2)
    assert np.all(mt >= p2p - 1e-9)


def test_downlink_paired_objective_dominance_at_alpha_zero():
    cfg = harness.ExperimentConfig(direction="downlink", mode="both", k_ms=2,
                                   n_pico=1, c_macro=3.0, c_pico=1.0,
                                   alpha=0.0, slots=1, drops=2, seed=29)
    report = harness.run_experiment(cfg)
    p2p = report.metrics["point_to_point"].rates.sum(axis=2)
    mt = report.metrics["multiterminal"].rates.sum(axis=2)
    assert np.all(mt >= p2p - 1e-9)


def test_config_rejects_negative_alpha():
    with pytest.raises(ConfigurationError):
        harness.ExperimentConfig(alpha=-0.5)
    with pytest.raises(ConfigurationError):
        harness.ExperimentConfig(alpha=[0.0, -1.0])


@pytest.mark.parametrize("direction, name, value", [
    ("downlink", "rate_mapping", {"kind": "attenuated"}),
    ("uplink", "propagation", {"inter_site_distance_m": 400.0}),
])
def test_config_rejects_nested_settings_of_another_type(direction, name,
                                                        value):
    """A mapping given for a nested setting is refused when the config is
    built, not met later as an AttributeError; from_dict still builds it."""
    with pytest.raises(ConfigurationError,
                       match=f"^{name} must be a .*, got dict; "
                             f"ExperimentConfig.from_dict takes a mapping$"):
        harness.ExperimentConfig(direction=direction, **{name: value})
    loaded = harness.ExperimentConfig.from_dict(
        {"direction": direction, name: value})
    assert getattr(loaded, name) == type(getattr(loaded, name))(**value)


@pytest.mark.parametrize("name, value", [
    ("seed", 1.5), ("k_ms", 2.5), ("drops", "5"), ("beta", "x"),
    ("slots", True), ("c_pico", None), ("reuse", 3), ("jobs", 2.0),
])
def test_config_validate_checks_field_types(name, value):
    """A config built directly is held to its fields' types, as a loaded one
    is: a fractional seed would run as its integer part, and a string count
    would raise TypeError mid-check."""
    with pytest.raises(ConfigurationError,
                       match=f"^{name} must be of type "):
        harness.ExperimentConfig(**{name: value})
    with pytest.raises(ConfigurationError,
                       match=f"^{name} must be of type "):
        harness.ExperimentConfig.from_dict({name: value})


_MAPPING_HINT = "; ExperimentConfig.from_dict takes a mapping"


_REFUSED = [
    ("k_ms", "5", "k_ms must be of type int, got '5'"),
    ("seed", 2.0, "seed must be of type int, got 2.0"),
    ("slots", False, "slots must be of type int, got False"),
    ("beta", "x", "beta must be of type float, got 'x'"),
    ("beta", True, "beta must be of type float, got True"),
    ("c_pico", 1j, "c_pico must be of type float, got 1j"),
    ("c_macro", float("nan"), "c_macro must be finite, got nan"),
    ("c_pico", -np.inf, "c_pico must be finite, got -inf"),
    ("c_macro", 10 ** 400, "c_macro must be finite, got 1000"),
    ("c_pico", -10 ** 400, "c_pico must be finite, got -1000"),
    ("beta", Fraction(10 ** 400), "beta must be finite, got Fraction(1000"),
    ("reuse", 3, "reuse must be of type str, got 3"),
    ("reuse", ["F1"], "reuse must be of type str, got ['F1']"),
    ("rate_mapping", 5, "rate_mapping must be a RateMapping, got int"
     + _MAPPING_HINT),
    ("rate_mapping", [("kind", "shannon")], "rate_mapping must be a "
     "RateMapping, got list" + _MAPPING_HINT),
    ("propagation", "x", "propagation must be a PropagationParams, got str"
     + _MAPPING_HINT),
    ("rate_mapping", {"kind": "attenuated", "scale": np.inf},
     "rate_mapping.scale must be finite, got inf"),
    ("rate_mapping", {"scale": "x"},
     "rate_mapping.scale must be of type float, got 'x'"),
    ("rate_mapping", {"cap": np.nan}, "rate_mapping.cap must be finite"),
    ("rate_mapping", {"kind": 7}, "unknown rate mapping 7"),
    ("propagation", {"macro_pathloss": (128.1,)},
     "propagation.macro_pathloss must be of type tuple, got (128.1,)"),
    ("propagation", {"pico_pathloss": (38.0, 30.0, 1.0)},
     "propagation.pico_pathloss must be of type tuple"),
    ("propagation", {"pico_pathloss": (38.0, "30")},
     "propagation.pico_pathloss must be of type tuple"),
    ("propagation", {"macro_pathloss": "ab"},
     "propagation.macro_pathloss must be of type tuple, got 'ab'"),
    ("propagation", {"macro_pathloss": (128.1, np.nan)},
     "propagation.macro_pathloss must be finite, got (128.1, nan)"),
    ("propagation", {"bandwidth_hz": "x"},
     "propagation.bandwidth_hz must be of type float, got 'x'"),
    ("propagation", {"tx_ms_dbm": -np.inf},
     "propagation.tx_ms_dbm must be finite, got -inf"),
    ("propagation", {"inter_site_distance_m": 0},
     "inter_site_distance_m must be > 0"),
]


@pytest.mark.parametrize("name, value, message", _REFUSED,
                         ids=[f"{n}={v!r}"[:48] for n, v, _ in _REFUSED])
def test_config_paths_refuse_a_value_with_one_message(name, value, message):
    """A config built directly and one loaded by from_dict are refused by
    one rule in the same words.  A nested setting given as a dict is built
    by its class on the direct path."""
    nested = {"rate_mapping": harness.RateMapping,
              "propagation": cellgeom.PropagationParams}.get(name)
    with pytest.raises(ConfigurationError) as built:
        given = nested(**value) if isinstance(value, dict) else value
        harness.ExperimentConfig(**{name: given})
    with pytest.raises(ConfigurationError) as loaded:
        harness.ExperimentConfig.from_dict({name: value})
    assert str(built.value) == str(loaded.value)
    assert str(built.value).startswith(message), str(built.value)


@pytest.mark.filterwarnings("error")
def test_config_validate_takes_numbers_of_the_field_types():
    """numpy scalars and an int for a float field pass, stored as the
    field's type, and a direction or mode of another type keeps its own
    message.  A float32 or float16 passes without a warning, although the
    float64 maximum does not fit in either."""
    for given, stored in (
            (dict(seed=np.int64(3), k_ms=np.int32(2), c_macro=3,
                  beta=np.float64(0.25), alpha=np.int64(1)),
             dict(seed=3, k_ms=2, c_macro=3.0, beta=0.25, alpha=1.0)),
            (dict(beta=np.float32(0.5), alpha=np.float32(0.5),
                  c_macro=np.float16(2.0)),
             dict(beta=0.5, alpha=0.5, c_macro=2.0))):
        config = harness.ExperimentConfig(**given)
        for name, value in stored.items():
            got = getattr(config, name)
            assert type(got) is type(value) and got == value, name
    for name in ("direction", "mode"):
        with pytest.raises(ConfigurationError, match=f"^unknown {name} 5$"):
            harness.ExperimentConfig(**{name: 5})


def test_config_rejects_non_finite_capacities():
    """A config refuses a NaN or infinite capacity in both directions when
    built directly, not only at load: the bare ``c < 0`` test lets a NaN
    through."""
    for direction in ("uplink", "downlink"):
        for name in ("c_macro", "c_pico"):
            for bad in (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(ConfigurationError,
                                   match=f"^{name} must be finite, got "):
                    harness.ExperimentConfig(direction=direction,
                                             **{name: bad})
                # loading names the field, as before
                with pytest.raises(ConfigurationError,
                                   match=f"{name} must be finite"):
                    harness.ExperimentConfig.from_dict(
                        {name: bad, "direction": direction})
            with pytest.raises(ConfigurationError,
                               match="must be finite and >= 0"):
                harness.ExperimentConfig(direction=direction, **{name: -1.0})


@pytest.fixture
def refused(tmp_path, capsys):
    """Run the CLI on argv, which must exit 2 with one error line and write
    nothing, and return that line."""
    def run(argv):
        out = tmp_path / "never"
        capsys.readouterr()
        assert cli_main(argv + ["--out", str(out)]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()
        return err
    return run


def test_config_rejects_uplink_capacity_above_the_bound(refused):
    """An uplink capacity is bounded by capacity_max at its BS type's
    thermal floor, which every uplink noise power reaches; the downlink
    has no such bound."""
    prop = cellgeom.PropagationParams()
    bounds = {name: float(uplink.capacity_max(channel.thermal_noise_w(
        nf, prop.bandwidth_hz))) for name, nf in
        (("c_macro", prop.nf_macro_db), ("c_pico", prop.nf_pico_db))}
    assert 1007.0 < bounds["c_macro"] < bounds["c_pico"] < 1008.0
    for name, bound in bounds.items():
        assert harness.ExperimentConfig.from_dict({name: bound})
        with pytest.raises(ConfigurationError, match=f"uplink {name} must"):
            harness.ExperimentConfig.from_dict(
                {name: float(np.nextafter(bound, np.inf))})
        assert harness.ExperimentConfig.from_dict(
            {name: 1e4, "direction": "downlink"})
    assert refused(["uplink", "--preset", "ul-sweep", "--alpha", "1",
                    "--slots", "2", "--drops", "2", "--c-macro", "1e4",
                    "--c-pico", "1e4"]) \
        .startswith("error: uplink c_macro must")


def test_config_rejects_vanishing_uplink_capacity(refused):
    """A positive uplink capacity below uplink.CAPACITY_MIN, whose 2^c - 1
    rounds toward 0, is refused before any drop; 0 switches the backhaul
    off, and the downlink has no such bound."""
    low = uplink.CAPACITY_MIN
    for name in ("c_macro", "c_pico"):
        for ok in (0.0, low):
            assert harness.ExperimentConfig.from_dict({name: ok})
        with pytest.raises(ConfigurationError, match=f"uplink {name} must"):
            harness.ExperimentConfig.from_dict(
                {name: float(np.nextafter(low, 0.0))})
        assert harness.ExperimentConfig.from_dict(
            {name: 1e-16, "direction": "downlink"})
    assert refused(["uplink", "--preset", "ul-sweep", "--alpha", "1",
                    "--slots", "2", "--drops", "2", "--c-pico", "1e-16"]) \
        .startswith("error: uplink c_pico must be 0 or >=")


def test_config_rejects_uplink_k_ms_above_the_vertex_cap(refused):
    """The uplink power solve scores 2^K power-box vertices, so an uplink
    config takes at most uplink.K_MS_MAX MSs; the downlink has no cap."""
    k = uplink.K_MS_MAX
    assert harness.ExperimentConfig.from_dict({"k_ms": k})
    with pytest.raises(ConfigurationError, match="uplink k_ms must be"):
        harness.ExperimentConfig.from_dict({"k_ms": k + 1})
    assert harness.ExperimentConfig.from_dict(
        {"k_ms": k + 1, "direction": "downlink"})
    assert refused(["uplink", "--preset", "ul-sweep", "--k-ms", str(k + 1),
                    "--drops", "1"]).startswith("error: uplink k_ms must be")


def test_config_rejects_downlink_cluster_above_the_subset_cap(refused):
    """The downlink solver enumerates the backhaul subsets of the active BSs
    (3 macro sectors and n_pico picos, each when its capacity is > 0), so a
    downlink config takes at most downlink.SUBSET_ENUM_CAP of them; the
    uplink has no such cap."""
    cap = downlink.SUBSET_ENUM_CAP
    dl = {"direction": "downlink"}
    assert harness.ExperimentConfig.from_dict({**dl, "n_pico": cap - 3})
    for over in ({"n_pico": cap - 2}, {"n_pico": cap + 1, "c_macro": 0.0}):
        with pytest.raises(ConfigurationError, match="downlink n_pico must"):
            harness.ExperimentConfig.from_dict({**dl, **over})
    for inactive in ({"n_pico": cap + 5, "c_pico": 0.0},
                     {"n_pico": cap, "c_macro": 0.0}):
        assert harness.ExperimentConfig.from_dict({**dl, **inactive})
    assert harness.ExperimentConfig.from_dict({"n_pico": cap})
    err = refused(["downlink", "--preset", "dl-sweep-b", "--alpha", "2",
                   "--slots", "1", "--drops", "2", "--n-pico", str(cap - 2)])
    assert err.startswith("error: downlink n_pico must") \
        and f"{cap} active BSs" in err


def test_cli_sweep_requires_a_direction(tmp_path, refused):
    """A sweep takes its direction from --direction, a preset or a config
    file; with none it exits 2 with one error line, writing nothing."""
    flags = ["--alpha", "0,1", "--drops", "1", "--slots", "1", "--k-ms", "1",
             "--n-pico", "0", "--mode", "point_to_point"]
    assert "--direction" in refused(["sweep"] + flags)
    config = tmp_path / "dl.yaml"
    config.write_text("direction: downlink\n")
    for given, direction in ((["--direction", "downlink"], "downlink"),
                             (["--config", str(config)], "downlink"),
                             (["--preset", "ul-sweep"], "uplink")):
        out = tmp_path / given[0].strip("-")
        assert cli_main(["sweep"] + given + flags + ["--out", str(out)]) == 0
        assert f"direction={direction}" in \
            (out / "alpha_0" / "summary.txt").read_text()


def test_config_rejects_alpha_whose_weights_overflow(refused):
    # at the r_bar floor the weight is R_BAR_FLOOR**-alpha, finite up to
    # ALPHA_MAX and inf above it
    limit = scheduler.ALPHA_MAX
    with np.errstate(over="ignore"):
        assert np.isfinite(np.float64(scheduler.R_BAR_FLOOR) ** -limit)
        assert np.isinf(np.float64(scheduler.R_BAR_FLOOR) ** -(limit + 0.01))
    assert harness.ExperimentConfig.from_dict(dict(alpha=limit)).alpha == limit
    for alpha in (limit + 0.01, [1.0, 200.0]):
        with pytest.raises(ConfigurationError, match="overflow"):
            harness.ExperimentConfig.from_dict(dict(alpha=alpha))
    assert "weights overflow" in refused(["uplink", "--preset", "ul-sweep",
                                          "--alpha", "200", "--slots", "2",
                                          "--drops", "1"])


# Runs whose result files must not depend on --jobs: both links, both
# modes, sweeps, one MS, F1 reuse, and clusters and layouts at their
# extremes.  Each has 2-3 drops, so at --jobs 5 the pool has one worker per
# drop.  A config file named in a run is one of CONFIG_FILES.
ACROSS_JOBS = {
    "dl-sweep-b": "sweep --preset dl-sweep-b --slots 2 --alpha 2 --drops 2",
    "dl-mt": "downlink --preset dl-sweep-b --mode multiterminal --alpha 2 "
             "--slots 2 --drops 2",
    "ul-sweep": "sweep --preset ul-sweep --slots 2 --alpha 0,1 --drops 2",
    "ul-20-picos": "uplink --preset ul-cdf --n-pico 20 --drops 3",
    "ul-one-ms": "uplink --preset ul-sweep --alpha 0 --slots 2 --drops 2 "
                 "--k-ms 1 --n-pico 0",
    "dl-sweep-a": "sweep --preset dl-sweep-a --slots 2 --alpha 2 --drops 2",
    "dl-one-ms": "downlink --preset dl-sweep-b --alpha 1 --slots 2 --drops 2 "
                 "--k-ms 1 --n-pico 0",
    # 9 active BSs: the chain kernel and feasible_dl past 6 BSs; run as
    # `python -m cransim.cli`, so its pool forks from a clean parent
    "dl-9-bs": "downlink --preset dl-sweep-b --n-pico 6 --alpha 2 --slots 2 "
               "--drops 2",
    "ul-far-macro": "uplink --preset ul-sweep --config far.yaml --alpha 0 "
                    "--slots 2 --drops 3",
    "ul-f1": "uplink --config f1.yaml --k-ms 3 --n-pico 1 --alpha 1 "
             "--slots 2 --drops 2 --seed 29",
    "dl-f1": "downlink --config f1.yaml --k-ms 3 --n-pico 1 --alpha 1 "
             "--slots 2 --drops 2 --seed 29",
}
CONFIG_FILES = {
    # a macro distance of 250 m rejects about nine in ten candidates, so
    # node placement scans cells candidate window by window
    "far.yaml": "propagation: {min_dist_macro_m: 250.0}\n",
    # universal reuse: all 18 other cells interfere
    "f1.yaml": "reuse: F1\n"}


def src_env():
    """The environment with cransim's source directory on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(cransim.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def files_under(root):
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


def assert_same_results(got, want):
    """The result tree `got` holds the files of `want`, each byte-identical
    but timing.json, which holds wall-clock time, jobs and versions."""
    files = files_under(want)
    assert files_under(got) == files
    for path in files:
        if path.name != "timing.json":
            assert (got / path).read_bytes() == (want / path).read_bytes(), \
                (got, path)


@pytest.mark.parametrize("name", sorted(ACROSS_JOBS))
def test_result_files_identical_across_jobs(tmp_path, monkeypatch, name):
    """Every result file but timing.json, of a run or of a sweep's whole
    tree, is byte-identical at --jobs 1, 2 and 5 (1 and 2 in a fresh
    interpreter, where each run pays its imports)."""
    monkeypatch.chdir(tmp_path)
    for file_name, text in CONFIG_FILES.items():
        (tmp_path / file_name).write_text(text)
    first, fresh = tmp_path / "jobs1", name == "dl-9-bs"
    for jobs in (1, 2) if fresh else (1, 2, 5):
        out = tmp_path / f"jobs{jobs}"
        argv = ACROSS_JOBS[name].split() + ["--jobs", str(jobs), "--out",
                                            str(out)]
        if fresh:
            proc = subprocess.run([sys.executable, "-m", "cransim.cli",
                                   *argv], env=src_env(), capture_output=True,
                                  text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
        else:
            assert cli_main(argv) == 0, jobs
        assert_same_results(out, first)
        for path in out.rglob("timing.json"):
            timing = json.loads(path.read_text())
            assert timing["elapsed_s"] > 0 and timing["jobs"] == jobs
            assert timing["versions"] == {
                "cransim": cransim.__version__, "numpy": np.__version__,
                "python": platform.python_version()}
    runs = [p.parent for p in first.rglob("records.csv")]
    for run in runs:
        assert {"timing.json", "summary.txt", "config.json"} \
            <= {p.name for p in run.iterdir()}
        cfg = harness.ExperimentConfig.from_dict(
            json.loads((run / "config.json").read_text()))
        records = (run / "records.csv").read_text().splitlines()
        assert records[0] == "drop,slot,mode,ms,rate"
        assert len(records) == \
            1 + cfg.drops * cfg.slots * len(cfg.modes) * cfg.k_ms
    assert runs


def test_pool_has_no_more_workers_than_drops(monkeypatch):
    """A forking pool starts every worker it is given at the first submit:
    a run asks for at most one worker per drop, and runs in its own process
    when that is one.  The pool is faked, so no process starts."""
    asked = []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
    base = dict(direction="uplink", mode="point_to_point", k_ms=1, n_pico=0,
                slots=1, seed=3)
    serial = harness.run_experiment(
        harness.ExperimentConfig(drops=2, **base))
    assert asked == []
    harness.run_experiment(harness.ExperimentConfig(drops=1, jobs=64, **base))
    assert asked == []
    pooled = harness.run_experiment(
        harness.ExperimentConfig(drops=2, jobs=64, **base))
    assert asked == [2]
    assert np.array_equal(pooled.metrics["point_to_point"].rates,
                          serial.metrics["point_to_point"].rates)


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_config_example_loads():
    with open(README) as fh:
        block = re.search(r"```yaml\n(.*?)```", fh.read(), re.S).group(1)
    cfg = harness.ExperimentConfig.from_dict(yaml.safe_load(block))
    assert (cfg.direction, cfg.n_pico) == ("uplink", 10)


def test_readme_names_exist():
    """Every backticked `module.NAME` of README.md whose module is one of
    cransim's, `cransim.module` included, names an attribute that exists."""
    modules = {m.name for m in pkgutil.iter_modules(cransim.__path__)}
    for module in modules:
        importlib.import_module(f"cransim.{module}")
    with open(README) as fh:
        names = re.findall(r"`(\w+(?:\.\w+)+)`", fh.read())
    checked = 0
    for name in names:
        parts = name.split(".")
        if parts[0] in modules:
            parts.insert(0, "cransim")
        if parts[0] != "cransim":
            continue
        obj = cransim
        for attr in parts[1:]:
            assert hasattr(obj, attr), name
            obj = getattr(obj, attr)
        checked += 1
    assert checked >= 10


def test_run_experiment_rejects_alpha_list():
    cfg = harness.ExperimentConfig(alpha=[0.0, 1.0])
    with pytest.raises(ConfigurationError):
        harness.run_experiment(cfg)


def test_alpha_sweep_points_and_soft_checks():
    cfg = harness.ExperimentConfig(direction="uplink", mode="both", k_ms=2,
                                   n_pico=1, c_macro=6.0, c_pico=2.0,
                                   alpha=[0.0, 2.0], beta=0.5, slots=3,
                                   drops=3, seed=19)
    sweep = harness.alpha_sweep(cfg)
    assert sweep.alphas == (0.0, 2.0)
    for mode in ("point_to_point", "multiterminal"):
        pts = [rep.metrics[mode] for rep in sweep.reports]
        assert len(pts) == 2
        # sum-rate operation maximizes average efficiency by construction
        assert pts[0].avg_spectral_efficiency == pytest.approx(
            max_efficiency(sweep, mode))
    # CDF of sum rate is a valid distribution function
    samples = sweep.reports[0].metrics["multiterminal"].sum_rate_samples
    assert np.all(np.diff(samples) >= 0)
    assert np.all(samples >= 0)


def test_alpha_sweep_notes_print_nine_digits():
    """The soft check's note prints each cell-edge throughput as FLOAT_FMT,
    as every other number of a result file is printed.  At this seed the
    cell edge falls from alpha 1 to 3 in both modes."""
    cfg = harness.ExperimentConfig(direction="uplink", mode="both", k_ms=3,
                                   n_pico=1, alpha=[0.0, 1.0, 3.0], slots=3,
                                   drops=2, seed=2)
    sweep = harness.alpha_sweep(cfg)
    assert len(sweep.notes) == 2
    for note, mode in zip(sweep.notes, cfg.modes):
        head, numbers = note.split(": ")
        assert head.endswith(f"for {mode}")
        numbers = numbers.strip("[]").split(", ")
        assert numbers == [
            harness.FLOAT_FMT % rep.metrics[mode].cell_edge_throughput
            for rep in sweep.reports]
        assert all(harness.FLOAT_FMT % float(x) == x for x in numbers)


SWEEP_BASE = dict(mode="both", k_ms=2, n_pico=1, c_macro=6.0, c_pico=2.0,
                  beta=0.5, slots=2, drops=3, seed=31)
SWEEP_ALPHAS = {"uplink": [0.0, 1.0, 3.0], "downlink": [2.0, 3.0, 4.0]}


@pytest.mark.parametrize("direction", ["uplink", "downlink"])
def test_alpha_sweep_matches_single_alpha_runs(direction):
    """Sharing each drop's geometry across alphas, and one pool per sweep,
    leave every alpha's rates exactly as a run at that alpha alone."""
    alphas = SWEEP_ALPHAS[direction]
    single = [harness.run_experiment(harness.ExperimentConfig(
        direction=direction, alpha=a, **SWEEP_BASE))
        for a in alphas]
    for jobs in (1, 2):
        sweep = harness.alpha_sweep(harness.ExperimentConfig(
            direction=direction, alpha=alphas, jobs=jobs, **SWEEP_BASE))
        assert len(sweep.reports) == len(alphas)
        for a, got, want in zip(alphas, sweep.reports, single):
            assert got.config.alpha == a
            for mode in want.metrics:
                assert np.array_equal(got.metrics[mode].rates,
                                      want.metrics[mode].rates), (jobs, a)


def counting(monkeypatch, module, name):
    """Record the first argument of every call to module.name."""
    calls, fn = [], getattr(module, name)

    def counted(first, *args, **kwargs):
        calls.append(first)
        return fn(first, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_alpha_sweep_builds_each_drop_once(monkeypatch):
    layouts = counting(monkeypatch, cellgeom, "build_layout")
    clusters = counting(monkeypatch, channel, "build_cluster")
    slots = counting(monkeypatch, channel, "realize_channel")
    cfg = harness.ExperimentConfig(direction="uplink",
                                   alpha=SWEEP_ALPHAS["uplink"], **SWEEP_BASE)
    harness.alpha_sweep(cfg)
    assert layouts == [harness._drop_seed(cfg.seed, d)
                       for d in range(cfg.drops)]
    assert len(clusters) == cfg.drops
    # every alpha reuses the drop's realized slots
    assert len(slots) == cfg.drops * cfg.slots


def test_alpha_sweep_builds_one_vertex_table_per_slot(monkeypatch):
    # every alpha and mode of a sweep shares a slot's vertex table; the
    # first slot's weights are equal at every alpha, so with one slot per
    # drop an uplink sweep's last alpha equals a run at that alpha alone
    tables = counting(monkeypatch, uplink, "VertexTable")
    cfg = harness.ExperimentConfig(direction="uplink",
                                   alpha=SWEEP_ALPHAS["uplink"],
                                   **dict(SWEEP_BASE, slots=1))
    sweep = harness.alpha_sweep(cfg)
    assert len(tables) == cfg.drops * cfg.slots
    single = harness.run_experiment(dataclasses.replace(cfg, alpha=3.0))
    for mode in cfg.modes:
        assert np.array_equal(sweep.reports[-1].metrics[mode].rates,
                              single.metrics[mode].rates)


def test_drop_reuse_is_per_direction(monkeypatch):
    """An uplink run and then a downlink run of an otherwise equal config
    in one process build a cluster each, and the drop cache never hands one
    direction's cluster to the other."""
    clusters = counting(monkeypatch, channel, "build_cluster")
    base = dict(k_ms=2, n_pico=1, alpha=2.0, slots=2, drops=1, seed=13)
    up = harness.ExperimentConfig(direction="uplink", **base)
    down = harness.ExperimentConfig(direction="downlink", **base)
    harness.run_experiment(up)
    harness.run_experiment(down)
    assert len(clusters) == 2
    built = []
    try:
        for cfg in (up, down):
            harness._simulate_drop(cfg, 0)
            built.append(harness._last_drop[1])
    finally:
        harness._last_drop.clear()
    assert [c.direction for c in built] == ["uplink", "downlink"]
    assert built[0].sigma2_dl is None and built[1].ul_interference is None
    assert len(clusters) == 4


def test_drop_reuse_is_per_backhaul_capacity():
    """Consecutive uplink drops that differ only in their capacities get
    vertex tables of their own capacities from the drop cache."""
    base = dict(direction="uplink", k_ms=2, n_pico=1, alpha=1.0, slots=2,
                drops=1, seed=13)
    configs = [harness.ExperimentConfig(c_macro=c, **base) for c in (3, 9)]
    try:
        drops = [harness._simulate_drop(cfg, 0) for cfg in configs]
    finally:
        harness._last_drop.clear()
    for cfg, drop in zip(configs, drops):
        report = harness.run_experiment(cfg)
        for mode in cfg.modes:
            assert np.array_equal(drop.rates[mode],
                                  report.metrics[mode].rates[0])


# one small uplink drop, and a value other than its own for every config
# field but alpha
DROP_BASE = harness.ExperimentConfig(mode="point_to_point", k_ms=1, n_pico=0,
                                     slots=1, drops=1, alpha=1.0)
OTHER_VALUES = dict(
    direction="downlink", mode="multiterminal", k_ms=2, n_pico=1,
    c_macro=4.0, c_pico=2.0, beta=0.25, slots=2, drops=2, seed=2,
    reuse="F1", jobs=2, rate_mapping=harness.RateMapping(kind="attenuated"),
    propagation=cellgeom.PropagationParams(inter_site_distance_m=400.0))


def clusters_built(monkeypatch, calls):
    """How many clusters consecutive `_simulate_drop(config, drop)` calls
    build, from an empty drop cache."""
    clusters = counting(monkeypatch, channel, "build_cluster")
    try:
        for cfg, drop in calls:
            harness._simulate_drop(cfg, drop)
    finally:
        harness._last_drop.clear()
    return len(clusters)


@pytest.mark.parametrize("name", sorted(OTHER_VALUES))
def test_drop_reuse_is_per_config_field(monkeypatch, name):
    """Configs of one drop that differ in any field but alpha get a
    cluster each from the drop cache."""
    other = dataclasses.replace(DROP_BASE, **{name: OTHER_VALUES[name]})
    assert getattr(other, name) != getattr(DROP_BASE, name)
    assert clusters_built(monkeypatch, [(DROP_BASE, 0), (other, 0)]) == 2


def test_drop_reuse_spans_alphas_of_one_drop(monkeypatch):
    """Configs that differ only in alpha share the drop's cluster, and
    another drop gets its own; OTHER_VALUES covers every other field."""
    assert set(OTHER_VALUES) == {f.name for f in dataclasses.fields(
        harness.ExperimentConfig)} - {"alpha"}
    alpha3 = dataclasses.replace(DROP_BASE, alpha=3.0)
    assert clusters_built(monkeypatch, [(DROP_BASE, 0), (alpha3, 0)]) == 1
    assert clusters_built(monkeypatch, [(DROP_BASE, 0), (alpha3, 1)]) == 2


def test_drop_reuse_never_crosses_runs(monkeypatch):
    cfg = harness.ExperimentConfig(direction="uplink", alpha=1.0,
                                   **dict(SWEEP_BASE, drops=1))
    first = harness.run_experiment(cfg)
    clusters = counting(monkeypatch, channel, "build_cluster")
    second = harness.run_experiment(cfg)
    assert len(clusters) == 1
    for mode in cfg.modes:
        assert np.array_equal(first.metrics[mode].rates,
                              second.metrics[mode].rates)


def test_report_files_written(tmp_path):
    cfg = harness.ExperimentConfig(direction="uplink", mode="both", k_ms=2,
                                   n_pico=0, c_macro=3.0, c_pico=1.0,
                                   alpha=0.0, slots=1, drops=2, seed=23)
    report = harness.run_experiment(cfg)
    out = tmp_path / "run"
    harness.write_report(report, out)
    assert (out / "records.csv").exists()
    assert (out / "summary.txt").exists()
    assert harness.ExperimentConfig.from_dict(
        json.loads((out / "config.json").read_text())) == cfg
    assert (out / "cdf_point_to_point.dat").exists()
    assert (out / "cdf_multiterminal.dat").exists()
    cdf = np.loadtxt(out / "cdf_multiterminal.dat")
    assert cdf[-1, 1] == pytest.approx(1.0)


def test_cli_runs_and_writes(tmp_path):
    out = tmp_path / "cli_out"
    code = cli_main(["uplink", "--k-ms", "1", "--n-pico", "0", "--drops", "2",
                     "--slots", "1", "--seed", "3", "--mode",
                     "point_to_point", "--c-macro", "3", "--c-pico", "1",
                     "--alpha", "0", "--out", str(out)])
    assert code == 0
    assert (out / "records.csv").exists()


# runs the CLI in an interpreter where any scipy import raises ImportError
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from cransim.cli import main
for direction in ("uplink", "downlink"):
    code = main([direction, "--drops", "1", "--slots", "1", "--k-ms", "2",
                 "--n-pico", "1", "--seed", "5", "--out",
                 sys.argv[1] + "/" + direction])
    if code:
        sys.exit(code)
"""


def test_cli_runs_without_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY,
                           str(tmp_path)], env=src_env(), capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    for direction in ("uplink", "downlink"):
        assert (tmp_path / direction / "records.csv").exists()


def test_cli_sweep_and_error_exit(tmp_path, refused):
    out = tmp_path / "sweep_out"
    code = cli_main(["sweep", "--direction", "uplink", "--k-ms", "1",
                     "--n-pico", "0", "--drops", "2", "--slots", "1",
                     "--seed", "3", "--alpha", "0,1", "--mode",
                     "point_to_point", "--out", str(out)])
    assert code == 0
    assert (out / "sweep_summary.txt").exists()
    assert (out / "sweep_point_to_point.dat").exists()

    refused(["uplink", "--config", str(tmp_path / "missing.yaml")])

    # a malformed config file is refused with one error line naming the
    # field, before any drop runs or any file is written
    path, nan, inf = tmp_path / "bad.yaml", float("nan"), float("inf")
    for bad_cfg, message in (
            (dict(solver=dict(mm_max_iter=10)), "unknown config key solver"),
            (dict(k_ms="x"), "k_ms must be of type int"),
            (dict(rate_mapping=dict(kind="attenuated", scale=inf)),
             "rate_mapping.scale must be finite"),
            (dict(rate_mapping=dict(kind="attenuated", scale=-0.5)),
             "rate_mapping.scale must be >= 0"),
            (dict(rate_mapping=dict(kind="attenuated", cap=-0.5)),
             "rate_mapping.cap must be >= 0"),
            (dict(propagation=dict(macro_pathloss=[128.1])),
             "propagation.macro_pathloss must be of type tuple"),
            (dict(propagation=dict(macro_pathloss=[nan, 1.0])),
             "propagation.macro_pathloss must be finite"),
            (dict(propagation=dict(macro_pathloss=[128.1, inf])),
             "propagation.macro_pathloss must be finite"),
            (dict(propagation=dict(bandwidth_hz="x")),
             "propagation.bandwidth_hz must be of type float")):
        path.write_text(yaml.safe_dump(bad_cfg))
        assert refused(["uplink", "--preset", "ul-sweep", "--alpha", "0",
                        "--drops", "1", "--config", str(path)]) \
            .startswith(f"error: {message}"), bad_cfg

    # unparsable alphas, alphas that share a result directory and YAML
    # syntax errors end in one error line, not a traceback
    syntax = tmp_path / "syntax.yaml"
    syntax.write_text("k_ms: [1, 2\ndrops: 3\n")
    for flags in (["--alpha", "x"], ["--alpha", ","], ["--alpha", ""],
                  ["--alpha", "1,y"], ["--alpha", "1,1.0000001"],
                  ["--alpha", "2,2"], ["--config", str(syntax)]):
        refused(["sweep", "--direction", "uplink"] + flags)

    # non-finite capacities and an out-of-range forgetting factor are
    # rejected at load, before any drop runs
    for flags, message in (
            (["uplink", "--c-macro", "nan"], "c_macro must be finite"),
            (["downlink", "--c-pico", "inf"], "c_pico must be finite"),
            (["uplink", "--beta", "1.5"], "beta must lie in [0, 1]")):
        assert message in refused(flags + ["--k-ms", "2", "--n-pico", "1",
                                           "--drops", "1"]), flags


def _section(text, mode):
    """What a result file prints under its `[mode]` header."""
    return text.split(f"[{mode}]\n")[1].split("[")[0]


@pytest.mark.parametrize("mode", ["both", "multiterminal"])
def test_sweep_files_print_each_alpha_summary(tmp_path, mode):
    """sweep_<mode>.dat and sweep_summary.txt print, in alpha order, the
    efficiency and cell edge each alpha's summary.txt prints, for the
    run's modes alone."""
    out = tmp_path / "sweep"
    alphas = ("0", "1", "3")
    assert cli_main(["sweep", "--direction", "uplink", "--k-ms", "2",
                     "--n-pico", "1", "--drops", "2", "--slots", "2",
                     "--seed", "4", "--alpha", ",".join(alphas), "--mode",
                     mode, "--out", str(out)]) == 0
    modes = harness.ExperimentConfig(mode=mode).modes
    assert sorted(p.name for p in out.glob("sweep_*.dat")) == sorted(
        f"sweep_{m}.dat" for m in modes)
    assert sorted(p.name for p in out.glob("alpha_*")) == sorted(
        f"alpha_{a}" for a in alphas)
    summary = (out / "sweep_summary.txt").read_text()
    assert re.findall(r"^\[(\w+)\]$", summary, re.M) == list(modes)
    for m in modes:
        per_alpha = []
        for a in alphas:
            text = (out / f"alpha_{a}" / "summary.txt").read_text()
            assert re.findall(r"^\[(\w+)\]$", text, re.M) == list(modes)
            per_alpha += re.findall(r"efficiency=(\S+) cell-edge=(\S+)",
                                    _section(text, m))
        assert len(per_alpha) == len(alphas)
        rows = (out / f"sweep_{m}.dat").read_text().splitlines()
        assert [tuple(row.split()) for row in rows] == per_alpha
        assert re.findall(r"alpha=(\S+) avg_se=(\S+) cell_edge=(\S+)",
                          _section(summary, m)) \
            == [(a, *point) for a, point in zip(alphas, per_alpha)]


def test_sweep_rejects_alphas_that_share_a_label():
    # each alpha's files go to alpha_<%g label>/: alphas with one label
    # would overwrite each other's files
    for alphas in ([1.0, 1.0000001], [2.0, 2], [0.5, 1.0, 0.5]):
        with pytest.raises(ConfigurationError, match="label"):
            harness.ExperimentConfig(alpha=alphas)
    assert harness.ExperimentConfig(alpha=[1.0, 1.00001]).alphas \
        == (1.0, 1.00001)


def test_config_file_integers_write_the_files_of_flags(tmp_path):
    """A config file's integers for float settings are stored as floats,
    so its run writes the files of the same numbers given as flags, and of
    a sweep's directory for that alpha."""
    numbers = dict(c_macro=9, c_pico=3, beta=1, alpha=1)
    cfg_path = tmp_path / "ints.yaml"
    cfg_path.write_text(yaml.safe_dump(numbers))
    common = ["--k-ms", "2", "--n-pico", "1", "--drops", "1", "--slots",
              "2", "--seed", "3"]
    flags = [f"--{key.replace('_', '-')}={value}"
             for key, value in numbers.items()]
    runs = {"file": ["uplink", "--config", str(cfg_path)] + common,
            "flags": ["uplink"] + flags + common,
            "sweep": ["sweep", "--direction", "uplink"] + flags + common}
    for name, argv in runs.items():
        assert cli_main(argv + ["--out", str(tmp_path / name)]) == 0, name
    cfg = build_config(argparse.Namespace(preset=None, config=str(cfg_path)))
    assert all(type(getattr(cfg, key)) is float for key in numbers)
    # a config built directly from the same integers stores the same floats
    direct = harness.ExperimentConfig(k_ms=2, n_pico=1, drops=1, slots=2,
                                      seed=3, **numbers)
    assert direct == harness.ExperimentConfig.from_dict(
        dict(k_ms=2, n_pico=1, drops=1, slots=2, seed=3, **numbers))
    harness.write_report(harness.run_experiment(direct), tmp_path / "direct")
    for name in ("file", "direct", "sweep/alpha_1"):
        assert_same_results(tmp_path / name, tmp_path / "flags")
    assert "C=(9.0,3.0) alpha=1.0 beta=1.0" in \
        (tmp_path / "direct" / "summary.txt").read_text()


def test_configs_are_frozen():
    """No field of a config can be changed once it is built and checked: a
    path-loss pair of one entry, set on a checked PropagationParams, would
    end a downlink run in IndexError."""
    params = cellgeom.PropagationParams()
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.macro_pathloss = (128.1,)
    config = harness.ExperimentConfig(direction="downlink", propagation=params)
    for obj in (config, config.rate_mapping, params):
        for f in dataclasses.fields(obj):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, f.name, getattr(obj, f.name))
    assert params.macro_pathloss == (128.1, 37.6)


@pytest.mark.parametrize("name", sorted(harness.PRESETS) + ["ul-cdf-c1e-5"])
def test_config_json_loads_back_equal(tmp_path, name):
    """config.json holds every field but jobs, in one form whichever way the
    config was built, and from_dict of it equals the config; YAML would
    read its 1e-05 as a string, so --config reads it as JSON."""
    data = dict(harness.PRESETS[name.removesuffix("-c1e-5")])
    if name.endswith("-c1e-5"):
        data["c_pico"] = 1.0e-05
    config = harness.ExperimentConfig.from_dict(data)
    assert type(config.alpha) is type(data["alpha"])
    harness.write_config(dataclasses.replace(config, jobs=2), tmp_path)
    text = (tmp_path / "config.json").read_text()
    loaded = json.loads(text)
    assert "jobs" not in loaded and list(loaded) == sorted(loaded)
    assert harness.ExperimentConfig.from_dict(loaded) == config
    assert harness.ExperimentConfig.from_dict(json.loads(json.dumps(
        dataclasses.asdict(config)))) == config
    assert build_config(argparse.Namespace(
        preset=None, config=str(tmp_path / "config.json"))) == config
    if name.endswith("-c1e-5"):
        assert '"c_pico": 1e-05' in text


@pytest.mark.parametrize("argv", [
    ["uplink", "--preset", "ul-cdf", "--c-pico", "1e-05", "--drops", "2"],
    ["sweep", "--preset", "dl-sweep-b", "--alpha", "2,3", "--slots", "2",
     "--drops", "1", "--k-ms", "2", "--n-pico", "1"],
    ["downlink", "--preset", "dl-sweep-b", "--alpha", "2", "--slots", "2",
     "--drops", "2"],
])
def test_cli_rerun_from_config_json(tmp_path, argv, refused):
    """A run's config.json, given to --config, reruns it: every file but
    timing.json is byte-identical.  A sweep's top directory holds its alpha
    list, and each alpha's directory that alpha."""
    assert cli_main(argv + ["--jobs", "2", "--out", str(tmp_path / "a")]) \
        == 0
    assert cli_main([argv[0], "--config", str(tmp_path / "a" / "config.json"),
                     "--out", str(tmp_path / "b")]) == 0
    assert_same_results(tmp_path / "b", tmp_path / "a")
    alphas = [json.loads(p.read_text())["alpha"]
              for p in sorted((tmp_path / "a").rglob("config.json"))]
    assert alphas == {"uplink": [0.0], "downlink": [2.0],
                      "sweep": [2.0, 3.0, [2.0, 3.0]]}[argv[0]]
    bad = tmp_path / "bad.json"
    bad.write_text('{"c_pico": 1e-05,}')
    assert refused(["uplink", "--config", str(bad)]).startswith(
        f"error: config file {bad} is not valid JSON")


def test_cli_uplink_and_downlink_take_one_alpha(tmp_path, refused):
    """`uplink` and `downlink` run a one-element alpha list as that alpha,
    writing the files of the scalar run, as a pooled sweep writes that
    alpha's directory, and refuse a longer list, from a flag, a config file
    or a preset, with one error line that names `cransim sweep`, before
    writing anything."""
    common = ["--k-ms", "2", "--n-pico", "1", "--drops", "2", "--slots",
              "2", "--seed", "3"]
    one, two = tmp_path / "one.yaml", tmp_path / "two.yaml"
    one.write_text("alpha: [3]\n")
    two.write_text("alpha: [0, 1]\n")
    for direction, preset in (("uplink", "ul-sweep"),
                              ("downlink", "dl-sweep-b")):
        listed, scalar = tmp_path / f"{direction}-list", \
            tmp_path / f"{direction}-scalar"
        assert cli_main([direction, "--config", str(one), "--out",
                         str(listed)] + common) == 0
        assert cli_main([direction, "--alpha", "3", "--out", str(scalar)]
                        + common) == 0
        swept = tmp_path / f"{direction}-sweep"
        assert cli_main(["sweep", "--direction", direction, "--alpha", "2,3",
                         "--jobs", "2", "--out", str(swept)] + common) == 0
        assert_same_results(listed, scalar)
        assert_same_results(swept / "alpha_3", scalar)
        assert "alpha=3.0 " in (listed / "summary.txt").read_text()
        for flags in (["--alpha", "0,1"], ["--config", str(two)],
                      ["--preset", preset]):
            assert "`cransim sweep`" in refused([direction] + flags + common)


def test_cli_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "exp.yaml"
    cfg_path.write_text(yaml.safe_dump(dict(
        direction="uplink", mode="point_to_point", k_ms=1, n_pico=0,
        c_macro=3.0, c_pico=1.0, alpha=0.0, slots=1, drops=5, seed=3)))
    out = tmp_path / "cfg_out"
    code = cli_main(["uplink", "--config", str(cfg_path), "--drops", "1",
                     "--out", str(out)])
    assert code == 0
    text = (out / "records.csv").read_text()
    assert len(text.splitlines()) == 2  # header + one drop/slot/ms record


def test_build_config_takes_every_config_flag(monkeypatch, capsys):
    """Every option of every subcommand that names an ExperimentConfig
    field reaches the config when set to a value other than its default,
    --alpha as a number or a list."""
    subs, add_common = {}, cransim.cli._add_common

    def recording(sub):
        subs[sub.prog.split()[-1]] = sub
        add_common(sub)

    monkeypatch.setattr(cransim.cli, "_add_common", recording)
    with pytest.raises(SystemExit):
        cli_main([])            # builds the parser, then refuses no command
    capsys.readouterr()
    assert sorted(subs) == ["downlink", "sweep", "uplink"]
    default = harness.ExperimentConfig()
    names = {f.name for f in dataclasses.fields(default)}
    for command, sub in subs.items():
        options = [a for a in sub._actions if a.dest in names]
        assert {a.dest for a in options} >= {"seed", "mode", "alpha"}
        for alpha, want_alpha in (("2.5", 2.5), ("0.5,1.5", [0.5, 1.5])):
            argv, want = [], {"alpha": want_alpha}
            for action in options:
                now = getattr(default, action.dest)
                if action.dest == "alpha":
                    value = alpha
                elif action.choices:
                    value = next(c for c in action.choices if c != now)
                elif action.type is int:
                    value = now + 1
                else:
                    value = now / 2 + 0.125
                want.setdefault(action.dest, value)
                argv += [action.option_strings[0], str(value)]
            cfg = build_config(sub.parse_args(argv))
            for key, value in want.items():
                assert value != getattr(default, key), (command, key)
                assert getattr(cfg, key) == value, (command, key)


@pytest.fixture
def solves(monkeypatch):
    """(mode, channel, result) of every solver call the harness makes in
    this process."""
    records = []

    def recording(fn):
        def recorded(chan, *args, **kwargs):
            res = fn(chan, *args, **kwargs)
            records.append((res.design.mode, chan, res))
            return res
        return recorded

    monkeypatch.setattr(uplink, "optimize_ul", recording(uplink.optimize_ul))
    monkeypatch.setattr(downlink, "optimize_dl",
                        recording(downlink.optimize_dl))
    return records


@pytest.mark.parametrize("direction", ["uplink", "downlink"])
def test_solver_statistics_are_per_mode(solves, direction, tmp_path):
    cfg = harness.ExperimentConfig(direction=direction, mode="both", k_ms=2,
                                   n_pico=1, alpha=1.0, slots=2, drops=2,
                                   seed=17)
    report = harness.run_experiment(cfg)
    harness.write_summary(report, tmp_path / "summary.txt")
    summary = (tmp_path / "summary.txt").read_text()
    for mode in cfg.modes:
        mine = [res.trace for m, _, res in solves if m == mode]
        assert len(mine) == cfg.drops * cfg.slots
        metrics = report.metrics[mode]
        assert metrics.mm_iterations == sum(t.iterations for t in mine)
        assert metrics.solver_warnings == sum(len(t.warnings) for t in mine)
        assert (f"[{mode}]\n" in summary and
                f"  solver: mm_iterations={metrics.mm_iterations} "
                f"warnings={metrics.solver_warnings}" in summary)
    assert sum(report.metrics[m].mm_iterations for m in cfg.modes) == \
        sum(res.trace.iterations for _, _, res in solves)


CORNERS = {
    "no-picos": dict(n_pico=0),
    "single-ms": dict(k_ms=1),
    "tiny-capacity": dict(c_macro=0.01, c_pico=0.01),
    "huge-capacity": dict(c_macro=1000.0, c_pico=1000.0),
    "no-pico-backhaul": dict(c_pico=0.0),
    "f1-attenuated": dict(reuse="F1",
                          rate_mapping=harness.RateMapping(kind="attenuated")),
}


@pytest.mark.parametrize("corner", sorted(CORNERS))
@pytest.mark.parametrize("direction", ["uplink", "downlink"])
def test_corner_configuration_runs_end_to_end(solves, direction, corner):
    cfg = harness.ExperimentConfig(
        **{**dict(direction=direction, mode="both", k_ms=3, n_pico=1,
                  alpha=1.0, slots=2, drops=1, seed=19),
           **CORNERS[corner]})
    report = harness.run_experiment(cfg)
    for mode in cfg.modes:
        rates = report.metrics[mode].rates
        assert np.all(np.isfinite(rates)) and np.all(rates >= 0.0)
    assert len(solves) == cfg.slots * len(cfg.modes)
    if direction == "uplink":
        for mode, chan, res in solves:
            d = res.design
            for pos, i in enumerate(d.order):
                load = uplink.backhaul_wz(d, chan, pos) \
                    if mode == harness.MODE_MT else uplink.backhaul_p2p(d, chan, i)
                assert load <= d.c[i] + 1e-7
