import csv
import json
import math
import os
import re
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellbeam import harness, metrics
from cellbeam.agents import ALGORITHMS, BaseAgent
from cellbeam.channel import SCENARIO_PRESETS
from cellbeam.agents import AgentHyperparams
from cellbeam.errors import ConfigurationError, reject_nonfinite


def test_parse_config_empty_file_gives_table_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    cfg = harness.parse_config(path)
    h = cfg.hyper
    assert (h.discount, h.tau, h.lr) == (0.9, 0.1, 1e-4)
    assert (h.width, h.depth) == (28, 4)
    assert h.meta_period == 3
    assert h.batch_size == 128
    assert (h.meta_batch_size, h.controller_batch_size) == (64, 64)
    assert cfg.plan.scenario == "sub6"
    assert cfg.env.gamma_cutoff_db == 4.0
    assert harness.build_env(cfg, 4).gamma_max_db == 25.0


def test_parse_config_none_path_gives_defaults():
    cfg = harness.parse_config(None)
    assert cfg.scenario.carrier_freq_hz == 2.1e9


def test_parse_config_rejects_out_of_range_tau(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("tau=1.5\n")
    with pytest.raises(ConfigurationError, match="tau"):
        harness.parse_config(path)


def test_parse_config_malformed_line_names_line_number(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("episodes=3\nnot a key value pair\n")
    with pytest.raises(ConfigurationError, match="line 2"):
        harness.parse_config(path)


def test_parse_config_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("bogus=1\n")
    with pytest.raises(ConfigurationError, match="bogus"):
        harness.parse_config(path)


def test_parse_config_rejects_a_key_set_twice(tmp_path):
    path = tmp_path / "twice.cfg"
    path.write_text("episodes=3\ntau=0.2\n\n# again\nepisodes=4\n")
    with pytest.raises(ConfigurationError,
                       match="line 5: key 'episodes' is already set on line 1"):
        harness.parse_config(path)


def test_parse_config_unparsable_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("episodes=three\n")
    with pytest.raises(ConfigurationError, match="episodes"):
        harness.parse_config(path)


def test_parse_config_scenario_field_overrides(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("scenario=mmwave\nn_paths=6\n")
    cfg = harness.parse_config(path)
    assert cfg.scenario.carrier_freq_hz == 28e9
    assert cfg.scenario.n_paths == 6


def test_env_var_override(tmp_path, monkeypatch):
    path = tmp_path / "cfg"
    path.write_text("episodes=10\n")
    monkeypatch.setenv("CELLBEAM_EPISODES", "7")
    monkeypatch.setenv("CELLBEAM_TAU", "0.2")
    cfg = harness.parse_config(path)
    assert cfg.plan.episodes == 7
    assert cfg.hyper.tau == 0.2


@pytest.mark.parametrize("name", ["CELLBEAM_EPISODE", "CELLBEAM_USE_OU_NOISE",
                                  "CELLBEAM_episodes", "CELLBEAM_"])
def test_env_var_naming_no_key_is_rejected(tmp_path, monkeypatch, capsys, name):
    monkeypatch.setenv(name, "5")
    with pytest.raises(ConfigurationError, match=f"environment variable {name} "):
        harness.parse_config()
    out = tmp_path / "o"
    assert harness.main(["--algo", "fpa", "--antennas", "1", "--episodes", "2",
                         "--out", str(out)]) == 2
    assert name in capsys.readouterr().err
    assert not out.exists()


def test_config_round_trip(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("algo=ddpg,hddpg\nantennas=1,4\nseeds=0,5\nepisodes=12\ntau=0.3\n")
    cfg = harness.parse_config(path)
    assert cfg.plan.algorithms == ("ddpg", "hddpg")
    text = harness.serialize_config(cfg)
    path2 = tmp_path / "cfg2"
    path2.write_text(text)
    cfg2 = harness.parse_config(path2)
    assert cfg2 == cfg


def test_plan_validation_errors():
    plan = harness.ExperimentPlan(antenna_counts=(3,))
    with pytest.raises(ConfigurationError, match="antenna"):
        plan.validate()
    with pytest.raises(ConfigurationError, match="algorithm"):
        harness.ExperimentPlan(algorithms=("sarsa",)).validate()
    with pytest.raises(ConfigurationError, match="seed"):
        harness.ExperimentPlan(seeds=()).validate()
    with pytest.raises(ConfigurationError, match="episodes"):
        harness.ExperimentPlan(episodes=0).validate()


def _tiny_cfg(tmp_path, **plan_updates):
    cfg = harness.parse_config(None)
    plan = harness.ExperimentPlan(algorithms=("fpa",), antenna_counts=(1,), seeds=(0,),
                                  episodes=4, eval_episodes=2,
                                  output_dir=str(tmp_path / "out"))
    for key, value in plan_updates.items():
        plan = harness.ExperimentPlan(**{**plan.__dict__, key: value})
    return harness.RunConfig(plan=plan, scenario=cfg.scenario, hyper=cfg.hyper,
                             env=cfg.env)


def test_run_plan_writes_expected_files(tmp_path):
    cfg = _tiny_cfg(tmp_path)
    summaries = harness.run_plan(cfg)
    out = cfg.plan.output_dir
    assert len(summaries) == 1
    train_csv = os.path.join(out, "fpa_m1_seed0_train.csv")
    assert os.path.exists(train_csv)
    lines = open(train_csv).read().strip().splitlines()
    assert len(lines) == 1 + 4  # header + one row per training episode
    # FPA requests the same power everywhere (episode means agree to float noise)
    powers = [float(line.split(",")[5]) for line in lines[1:]]
    assert max(powers) - min(powers) < 1e-9
    assert os.path.exists(os.path.join(out, "summary.csv"))
    assert os.path.exists(os.path.join(out, "ccdf.csv"))
    assert os.path.exists(os.path.join(out, "fpa_m1_seed0_summary.json"))


def test_run_plan_reruns_byte_identical(tmp_path):
    digests = []
    for name in ("x", "y"):
        cfg = _tiny_cfg(tmp_path / name)
        harness.run_plan(cfg)
        out = cfg.plan.output_dir
        blob = b"".join(open(os.path.join(out, f), "rb").read()
                        for f in sorted(os.listdir(out)) if f.endswith(".csv"))
        digests.append(blob)
    assert digests[0] == digests[1]


def test_run_plan_rejects_invalid_antenna_count(tmp_path):
    cfg = _tiny_cfg(tmp_path, antenna_counts=(3,))
    with pytest.raises(ConfigurationError):
        harness.run_plan(cfg)
    assert not os.path.exists(os.path.join(cfg.plan.output_dir, "summary.csv"))


def test_cell_seeds_differ_across_cells():
    a = harness.train_env_seed("ddpg", 1, 0, 0)
    b = harness.train_env_seed("dqn", 1, 0, 0)
    c = harness.train_env_seed("ddpg", 4, 0, 0)
    d = harness.train_env_seed("ddpg", 1, 1, 0)
    assert len({a, b, c, d}) == 4
    # evaluation seeds pair across algorithms but not across M or seeds
    assert harness.eval_env_seed(1, 0, 3) == harness.eval_env_seed(1, 0, 3)
    assert harness.eval_env_seed(1, 0, 3) != harness.eval_env_seed(4, 0, 3)


def test_cli_runs_and_reports(tmp_path, capsys):
    out = tmp_path / "cli_out"
    code = harness.main(["--algo", "fpa", "--antennas", "1", "--seeds", "0",
                         "--episodes", "3", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "fpa M=1 seed=0" in captured.out
    assert (out / "summary.csv").exists()


def test_cli_error_exit_code(tmp_path, capsys):
    code = harness.main(["--algo", "nosuch", "--out", str(tmp_path / "o")])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_cli_json_format(tmp_path):
    out = tmp_path / "json_out"
    code = harness.main(["--algo", "fpa", "--antennas", "1", "--seeds", "0",
                         "--episodes", "2", "--out", str(out), "--format", "json"])
    assert code == 0
    assert (out / "summary.json").exists()
    assert (out / "ccdf.json").exists()


def test_env_settings_keys_parse(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("horizon=25\ngamma_cutoff_db=3.5\n")
    cfg = harness.parse_config(path)
    assert cfg.env.horizon == 25
    assert cfg.env.gamma_cutoff_db == 3.5
    env = harness.build_env(cfg, 4)
    assert env.horizon == 25
    assert env.gamma_cutoff_db == 3.5


def test_learners_power_range_stops_at_the_cap():
    # a 5 W cap (36.99 dBm) cuts the 40 dB span; the default 40 W cap (46.02 dBm) does not
    env = harness.build_env(harness.parse_config(cli_values={"max_bs_power_w": "5"}), 1)
    assert env.action_high[:2].tolist() == [env.scenario.max_bs_power_dbm] * 2
    assert env.scenario.max_bs_power_dbm < 40.0
    env = harness.build_env(harness.parse_config(), 1)
    assert env.action_high[:2].tolist() == [40.0, 40.0]
    assert env.action_low[:2].tolist() == [env.power_floor_dbm] * 2 == [0.0, 0.0]


def test_run_plan_writes_checkpoints(tmp_path):
    cfg = _tiny_cfg(tmp_path, algorithms=("qlearning",))
    harness.run_plan(cfg)
    ckpt = os.path.join(cfg.plan.output_dir, "checkpoints", "qlearning_m1_seed0")
    assert os.path.exists(os.path.join(ckpt, "qtable.npz"))


def test_geometry_cycle_repeats_the_drop_but_not_the_fading():
    base = harness.parse_config(None)
    cfg = harness.RunConfig(
        plan=harness.ExperimentPlan(algorithms=("fpa",), antenna_counts=(4,), seeds=(0,),
                                    episodes=4, eval_episodes=1),
        scenario=base.scenario, hyper=AgentHyperparams(train_geometry_cycle=2),
        env=harness.EnvSettings(horizon=5, gamma_cutoff_db=-1e9))
    logs = harness.run_cell(cfg, "fpa", 4, 0)[1]
    assert np.array_equal(logs[0].states[0], logs[2].states[0])
    assert np.array_equal(logs[1].states[0], logs[3].states[0])
    assert not np.array_equal(logs[0].states[0], logs[1].states[0])
    # same UE drop and the same fixed controls, yet mobility and fading differ
    assert not np.array_equal(logs[0].states[1:, :4], logs[2].states[1:, :4])
    assert not np.array_equal(logs[0].eff_sinr_db, logs[2].eff_sinr_db)


def test_untrained_learners_evaluate_exactly_as_fpa(tmp_path):
    base = harness.parse_config(None)
    plan = harness.ExperimentPlan(algorithms=("fpa", "dqn", "ddpg", "hddpg"),
                                  antenna_counts=(1, 4), seeds=(0, 3), episodes=1,
                                  eval_episodes=4, output_dir=str(tmp_path / "out"))
    cfg = harness.RunConfig(plan=plan, scenario=base.scenario, hyper=base.hyper,
                            env=harness.EnvSettings(horizon=10))
    summaries = harness.run_plan(cfg)
    out = tmp_path / "out"
    for m in (1, 4):
        for seed in (0, 3):
            fpa = (out / f"fpa_m{m}_seed{seed}_eval.csv").read_bytes()
            for algo in ("fpa", "dqn", "ddpg", "hddpg"):
                # run_cell alone shares nothing: each cell rolls its own episodes
                alone = tmp_path / f"{algo}_m{m}_seed{seed}_alone.csv"
                metrics.write_episode_csv(alone, harness.run_cell(cfg, algo, m, seed)[2])
                planned = (out / f"{algo}_m{m}_seed{seed}_eval.csv").read_bytes()
                assert planned == alone.read_bytes() == fpa
    assert {s.greedy_policy for s in summaries} == {"fpa"}
    assert all(s.validation is None for s in summaries)


def _count_eval_rollouts(monkeypatch, cfg):
    """Patch the block rollout to record the name of the agent of each evaluation."""
    evals = {harness.eval_env_seed(m, seed, 0) for m in cfg.plan.antenna_counts
             for seed in cfg.plan.seeds}
    calls = []
    rollout = BaseAgent.run_episodes

    def counted(agent, env, seeds, topology_seeds=None):
        seeds = list(seeds)
        if seeds[0] in evals:
            calls.append(agent.name)
        return rollout(agent, env, seeds, topology_seeds)

    monkeypatch.setattr(BaseAgent, "run_episodes", counted)
    return calls


def _trust_every_learner(monkeypatch):
    trusted = harness.Validation(episodes=2, mean_gain=1.0, stderr=0.0, trusted=True)
    monkeypatch.setattr(harness, "validate_policy", lambda agent, env, seeds: trusted)


def test_plan_rolls_the_fpa_evaluation_once_per_cell_key(tmp_path, monkeypatch):
    cfg = _tiny_cfg(tmp_path, algorithms=("fpa", "qlearning", "dqn", "ddpg"),
                    antenna_counts=(1, 4))
    calls = _count_eval_rollouts(monkeypatch, cfg)
    harness.run_plan(cfg)
    # one FPA rollout per (M, seed) serves dqn and ddpg; Q-learning rolls its own
    assert calls == ["fpa"] * 2 + ["qlearning"] * 2


def test_each_plan_rolls_its_own_evaluations(tmp_path, monkeypatch):
    cfg = _tiny_cfg(tmp_path, algorithms=("fpa", "dqn"))
    calls = _count_eval_rollouts(monkeypatch, cfg)
    harness.run_plan(cfg)
    assert calls == ["fpa"]
    harness.run_plan(cfg)
    assert calls == ["fpa"] * 2


def test_a_trusted_learner_rolls_its_own_evaluation(tmp_path, monkeypatch):
    cfg = _tiny_cfg(tmp_path, algorithms=("fpa", "ddpg", "hddpg"))
    _trust_every_learner(monkeypatch)
    calls = _count_eval_rollouts(monkeypatch, cfg)
    summaries = harness.run_plan(cfg)
    assert calls == ["fpa", "ddpg", "hddpg"]
    assert [s.greedy_policy for s in summaries] == ["fpa", "learned", "learned"]
    out = tmp_path / "out"
    fpa = (out / "fpa_m1_seed0_eval.csv").read_bytes()
    assert (out / "ddpg_m1_seed0_eval.csv").read_bytes() != fpa


def test_run_cell_shares_evaluation_logs_only_between_fpa_actors(tmp_path, monkeypatch):
    cfg = _tiny_cfg(tmp_path)
    shared = {}
    fpa_logs = harness.run_cell(cfg, "fpa", 1, 0, shared)[2]
    assert shared == {(1, 0): fpa_logs}
    assert harness.run_cell(cfg, "dqn", 1, 0, shared)[2] is fpa_logs
    assert harness.run_cell(cfg, "qlearning", 1, 0, shared)[2] is not fpa_logs
    assert harness.run_cell(cfg, "dqn", 1, 1, shared)[2] is shared[(1, 1)]
    _trust_every_learner(monkeypatch)
    assert harness.run_cell(cfg, "ddpg", 1, 0, shared)[2] is not fpa_logs
    assert list(shared) == [(1, 0), (1, 1)]


def test_validation_seeds_are_held_out():
    cfg = harness.parse_config(None)
    for algo in ("dqn", "ddpg", "hddpg"):
        for m in (1, 4):
            for seed in (0, 1):
                held_out = harness.validation_env_seeds(cfg, algo, m, seed)
                assert len(set(held_out)) == len(held_out) > 1
                trained = {harness.train_env_seed(algo, m, seed, e)
                           for e in range(cfg.plan.episodes)}
                evaluated = {harness.eval_env_seed(mm, s, e) for mm in (1, 4)
                             for s in (0, 1) for e in range(cfg.plan.eval_episodes)}
                assert not set(held_out) & trained
                assert not set(held_out) & evaluated


def test_cli_scenario_keeps_configured_scenario_keys(tmp_path, monkeypatch):
    path = tmp_path / "cfg"
    path.write_text("cell_radius_m=200\nepisodes=9\n")
    monkeypatch.setenv("CELLBEAM_N_PATHS", "7")
    monkeypatch.setenv("CELLBEAM_EPISODES", "8")
    seen = []
    monkeypatch.setattr(harness, "run_plan", lambda cfg: seen.append(cfg) or [])
    assert harness.main(["--config", str(path), "--scenario", "mmwave",
                         "--episodes", "3"]) == 0
    cfg = seen[0]
    assert cfg.plan.scenario == "mmwave"
    assert cfg.scenario.carrier_freq_hz == 28e9        # from the new preset
    assert cfg.scenario.inter_site_distance_m == 225.0
    assert cfg.scenario.cell_radius_m == 200.0         # config file key kept
    assert cfg.scenario.n_paths == 7                   # environment variable kept
    assert cfg.plan.episodes == 3                      # command line beats both


def test_cli_rejects_unparsable_option(tmp_path, capsys):
    code = harness.main(["--antennas", "1,x", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "--antennas" in capsys.readouterr().err


def test_optimizer_key_is_unknown(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("optimizer=sgd\n")
    with pytest.raises(ConfigurationError, match="unknown key 'optimizer'"):
        harness.parse_config(path)


# -- derived config schema -----------------------------------------------------

# key -> (section, field) as the hand-kept table listed it before the schema was
# derived from the dataclasses; the derived mapping must not drift from it
REFERENCE_SCHEMA = {
    "algo": ("plan", "algorithms"),
    "antennas": ("plan", "antenna_counts"),
    "seeds": ("plan", "seeds"),
    "episodes": ("plan", "episodes"),
    "eval_episodes": ("plan", "eval_episodes"),
    "scenario": ("plan", "scenario"),
    "out": ("plan", "output_dir"),
    "format": ("plan", "out_format"),
    "carrier_freq_hz": ("scenario", "carrier_freq_hz"),
    "cell_radius_m": ("scenario", "cell_radius_m"),
    "inter_site_distance_m": ("scenario", "inter_site_distance_m"),
    "n_paths": ("scenario", "n_paths"),
    "p_los": ("scenario", "p_los"),
    "ue_speed_kmh": ("scenario", "ue_speed_kmh"),
    "frame_duration_s": ("scenario", "frame_duration_s"),
    "noise_power_dbm": ("scenario", "noise_power_dbm"),
    "tx_antenna_gain_dbi": ("scenario", "tx_antenna_gain_dbi"),
    "max_bs_power_w": ("scenario", "max_bs_power_w"),
    "horizon": ("env", "horizon"),
    "gamma_cutoff_db": ("env", "gamma_cutoff_db"),
    "discount": ("hyper", "discount"),
    "tau": ("hyper", "tau"),
    "lr": ("hyper", "lr"),
    "width": ("hyper", "width"),
    "depth": ("hyper", "depth"),
    "batch_size": ("hyper", "batch_size"),
    "meta_batch_size": ("hyper", "meta_batch_size"),
    "controller_batch_size": ("hyper", "controller_batch_size"),
    "meta_period": ("hyper", "meta_period"),
    "noise_scale": ("hyper", "noise_scale"),
    "noise_end_frac": ("hyper", "noise_end_frac"),
    "eps_start": ("hyper", "eps_start"),
    "eps_end": ("hyper", "eps_end"),
    "eps_decay_frac": ("hyper", "eps_decay_frac"),
    "replay_capacity": ("hyper", "replay_capacity"),
    "dqn_greedy_margin": ("hyper", "dqn_greedy_margin"),
    "reward_scale": ("hyper", "reward_scale"),
    "actor_weight_decay": ("hyper", "actor_weight_decay"),
    "critic_weight_decay": ("hyper", "critic_weight_decay"),
    "goal_penalty_weight": ("hyper", "goal_penalty_weight"),
    "train_geometry_cycle": ("hyper", "train_geometry_cycle"),
    "q_lr": ("hyper", "q_lr"),
}


def test_config_schema_matches_reference_mapping():
    derived = {key: (section, attr) for key, (section, attr, _) in harness.CONFIG_SCHEMA.items()}
    assert derived == REFERENCE_SCHEMA


def test_readme_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    key_list = section.split("The keys, by section:\n\n", 1)[1].split("\n\n", 1)[0]
    keys = re.findall(r"`([a-z0-9_]+)`", key_list)
    assert sorted(keys) == sorted(harness.CONFIG_SCHEMA)


_UNIT_FLOATS = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
_KEY_VALUES = {
    "algo": st.lists(st.sampled_from(ALGORITHMS), min_size=1, max_size=5,
                     unique=True).map(tuple),
    "antennas": st.lists(st.sampled_from(harness.VALID_ANTENNA_COUNTS),
                         min_size=1, max_size=6, unique=True).map(tuple),
    "seeds": st.lists(st.integers(0, 2**32), min_size=1, max_size=4, unique=True).map(tuple),
    "scenario": st.sampled_from(sorted(SCENARIO_PRESETS)),
    "out": st.text(min_size=1, max_size=12),
    "format": st.sampled_from(("csv", "json")),
    # the power ranges need a cap (30 dBm at 1 W) above the floor
    "max_bs_power_w": st.floats(1.0, 100.0),
}
# every other key by its parser; floats in (0, 1) satisfy every other range check
_PARSER_VALUES = {int: st.integers(1, 10**6), float: _UNIT_FLOATS}


@st.composite
def _configs(draw):
    sections = {}
    for key, (section, attr, parser) in harness.CONFIG_SCHEMA.items():
        value = draw(_KEY_VALUES[key] if key in _KEY_VALUES else _PARSER_VALUES[parser])
        sections.setdefault(section, {})[attr] = value
    hyper = sections["hyper"]
    hyper["eps_end"], hyper["eps_start"] = sorted((hyper["eps_end"], hyper["eps_start"]))
    hyper["replay_capacity"] = max(hyper["replay_capacity"], hyper["batch_size"],
                                   hyper["meta_batch_size"], hyper["controller_batch_size"])
    defaults = harness.RunConfig()
    return harness.RunConfig(**{name: type(getattr(defaults, name))(**values)
                                for name, values in sections.items()})


@given(_configs())
@settings(max_examples=60)
def test_serialize_parse_round_trip(cfg):
    out = cfg.plan.output_dir
    try:
        text = harness.serialize_config(cfg)
    except ConfigurationError as exc:
        # only a value that a config line cannot hold is refused, by key
        assert out != out.strip() or len(out.splitlines()) > 1
        assert str(exc).startswith("out=")
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg"
        path.write_text(text)
        assert harness.parse_config(path) == cfg


@pytest.mark.parametrize("text", [" out", "out ", "a\nb", "a\rb", "\t", "a\u2028b"])
def test_serialize_refuses_values_a_config_line_cannot_hold(text):
    cfg = harness.RunConfig(plan=harness.ExperimentPlan(output_dir=text))
    with pytest.raises(ConfigurationError, match="out="):
        harness.serialize_config(cfg)


@pytest.mark.parametrize("key, plan", [("algo", dict(algorithms=("fpa", "dqn", "fpa"))),
                                       ("antennas", dict(antenna_counts=(4, 4))),
                                       ("seeds", dict(seeds=(1, 2, 1)))])
def test_plan_rejects_repeated_entries(key, plan):
    with pytest.raises(ConfigurationError, match=f"{key} lists an entry more than once"):
        harness.ExperimentPlan(**plan).validate()


def test_cli_repeated_seeds_exit_2_and_write_nothing(tmp_path, capsys):
    out = tmp_path / "o"
    code = harness.main(["--algo", "fpa", "--antennas", "1", "--seeds", "0,0",
                         "--episodes", "2", "--out", str(out)])
    assert code == 2
    assert "seeds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option", ["algo", "antennas", "seeds", "scenario", "out"])
def test_cli_empty_value_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys, option):
    monkeypatch.chdir(tmp_path)     # an empty --out would write here
    values = dict(algo="fpa", antennas="1", seeds="0", episodes="1", scenario="sub6", out="o")
    values[option] = ""
    code = harness.main([f"--{key}={text}" for key, text in values.items()])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and option in err
    assert list(tmp_path.iterdir()) == []


def test_empty_out_in_a_file_is_a_configuration_error(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("algo=fpa\nout=\n")
    with pytest.raises(ConfigurationError, match="out"):
        harness.parse_config(path)


def test_negative_seeds_exit_2_and_write_nothing(tmp_path, capsys):
    with pytest.raises(ConfigurationError, match="seeds"):
        harness.parse_config(cli_values={"seeds": "0,-1"})
    out = tmp_path / "o"
    code = harness.main(["--algo", "fpa", "--antennas", "1", "--seeds=-1",
                         "--episodes", "2", "--out", str(out)])
    assert code == 2
    assert "seeds" in capsys.readouterr().err
    assert not out.exists()


@dataclass
class _TupleSection:
    steps: tuple[float, ...] = (1.0, 3.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_reject_nonfinite_names_a_tuple_field_listing_a_nonfinite_value(bad):
    reject_nonfinite(_TupleSection())
    with pytest.raises(ConfigurationError, match="^steps must be finite"):
        reject_nonfinite(_TupleSection(steps=(1.0, bad, 3.0)))


def test_cli_bad_training_values_exit_2_and_write_nothing(tmp_path, capsys):
    for key, bad in (("q_lr", "-0.1"), ("replay_capacity", "0"), ("depth", "-1"),
                     ("actor_weight_decay", "-1"), ("critic_weight_decay", "-0.5"),
                     ("noise_end_frac", "-1"), ("goal_penalty_weight", "-0.1"),
                     ("lr", "nan"), ("q_lr", "nan"), ("noise_scale", "nan"),
                     ("reward_scale", "nan"), ("gamma_cutoff_db", "nan"),
                     ("cell_radius_m", "nan"), ("noise_scale", "inf"), ("ue_speed_kmh", "inf"),
                     ("noise_power_dbm", "inf"), ("noise_power_dbm", "-inf"),
                     # a power cap (-3 dBm) below the 0 dBm floor: an empty action range
                     ("max_bs_power_w", "0.0005"),
                     # below the default batch size of 128: the learners would never update
                     ("replay_capacity", "100")):
        path = tmp_path / f"{key}.cfg"
        path.write_text(f"{key}={bad}\n")
        out = tmp_path / key
        code = harness.main(["--config", str(path), "--algo", "fpa,qlearning,dqn,ddpg,hddpg",
                             "--antennas", "1", "--episodes", "2", "--out", str(out)])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("key, bad", [("max_bs_power_w", 5e-4)])
def test_run_plan_rejects_inverted_action_ranges_before_any_output(tmp_path, key, bad):
    section, attr, _ = harness.CONFIG_SCHEMA[key]
    cfg = _tiny_cfg(tmp_path, algorithms=("fpa", "ddpg"), antenna_counts=(1, 4))
    with pytest.raises(ConfigurationError, match=key):
        harness.run_plan(replace(cfg, **{section: replace(getattr(cfg, section),
                                                         **{attr: bad})}))
    assert not os.path.exists(cfg.plan.output_dir)


# keys whose one value in use became a constant; each is now unknown
@pytest.mark.parametrize("key", ["bf_limit_multiplier", "pc_limit_db", "ic_limit_db",
                                 "power_step_db", "q_power_step_db", "position_bins",
                                 "power_levels", "final_layer_scale", "gamma0_db",
                                 "power_floor_dbm"])
def test_beam_range_multiplier_is_no_longer_a_key(tmp_path, monkeypatch, capsys, key):
    path = tmp_path / "cfg"
    path.write_text(f"{key}=1\n")
    with pytest.raises(ConfigurationError, match=f"unknown key '{key}'"):
        harness.parse_config(path)
    args = ["--algo", "fpa", "--antennas", "1", "--episodes", "2", "--out", str(tmp_path / "o")]
    assert harness.main(["--config", str(path)] + args) == 2
    assert key in capsys.readouterr().err
    variable = "CELLBEAM_" + key.upper()
    monkeypatch.setenv(variable, "1")
    with pytest.raises(ConfigurationError, match=variable):
        harness.parse_config()
    assert harness.main(args) == 2
    assert variable in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_plan_rejects_empty_lists(tmp_path):
    for key in ("algo", "antennas"):
        path = tmp_path / f"{key}.cfg"
        path.write_text(f"{key}=\n")
        with pytest.raises(ConfigurationError, match=key):
            harness.parse_config(path)
    with pytest.raises(ConfigurationError, match="antennas"):
        harness.run_plan(_tiny_cfg(tmp_path, antenna_counts=()))
    assert not os.path.exists(tmp_path / "out")


def test_horizon_is_checked_on_direct_construction(tmp_path):
    with pytest.raises(ConfigurationError, match="horizon"):
        harness.EnvSettings(horizon=0)
    path = tmp_path / "cfg"
    path.write_text("horizon=0\n")
    with pytest.raises(ConfigurationError, match="horizon"):
        harness.parse_config(path)


# -- output formats ----------------------------------------------------------------

def _csv_rows(path, numeric):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row["m_antennas"], row["seed"] = int(row["m_antennas"]), int(row["seed"])
        for name in numeric:
            value = float(row[name])
            row[name] = None if math.isnan(value) else value
    return rows


def test_json_outputs_hold_the_csv_rows(tmp_path):
    outputs = {}
    for out_format in ("csv", "json"):
        cfg = _tiny_cfg(tmp_path / out_format, algorithms=("fpa", "qlearning"),
                        antenna_counts=(1, 4), seeds=(0, 1), out_format=out_format)
        harness.run_plan(cfg)
        outputs[out_format] = Path(cfg.plan.output_dir)
    csv_out, json_out = outputs["csv"], outputs["json"]
    summary = json.loads((json_out / "summary.json").read_text())
    assert summary == _csv_rows(csv_out / "summary.csv", ["value"])
    # episodes < 20 leave the convergence episode unset: NaN in CSV, null in JSON
    assert any(row["value"] is None for row in summary)
    ccdf_rows = json.loads((json_out / "ccdf.json").read_text())
    numeric = ["threshold_db", "probability"]
    assert ccdf_rows == (_csv_rows(csv_out / "ccdf.csv", numeric)
                         + _csv_rows(csv_out / "ccdf_pooled.csv", numeric))
    assert {row["seed"] for row in ccdf_rows} == {0, 1, -1}
