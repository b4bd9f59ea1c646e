"""Configuration parsing and the command line front end."""

import json
from pathlib import Path

import numpy as np
import pytest

import voi.cli as cli
from voi.config import ConfigError, RunConfig, default_config
from voi.curves import FitError
from voi.studies import SamplerError

SHIPPED = Path(__file__).resolve().parents[1] / "configs" / "critical_event.json"

# Fingerprint of the shipped configuration; regenerate via config_hash() only
# when the packaged decision problem deliberately changes.
SHIPPED_HASH = "a0f0086ee243ef25"


def _small_config(**overrides) -> RunConfig:
    base = dict(psa_samples=2000, outer_datasets=40, posterior_draws=300,
                quantile_sets=8, seed=5)
    base.update(overrides)
    config = default_config(**base)
    # Keep only the fastest study so command round trips stay quick.
    d = config.to_dict()
    d["studies"] = [{"kind": "side_effects", "n": 60}]
    return RunConfig.from_dict(d)


@pytest.fixture()
def small_config_path(tmp_path) -> Path:
    path = tmp_path / "small.json"
    path.write_text(_small_config(out_dir=str(tmp_path / "results")).to_json())
    return path


class TestConfig:
    def test_shipped_file_matches_packaged_problem(self):
        assert RunConfig.from_file(SHIPPED) == default_config()

    def test_shipped_hash_frozen(self):
        assert RunConfig.from_file(SHIPPED).config_hash() == SHIPPED_HASH

    def test_round_trip_preserves_everything(self):
        config = default_config(seed=7, method="mm", n_grid=[10, 50, 200])
        again = RunConfig.from_dict(json.loads(config.to_json()))
        assert again == config
        assert again.config_hash() == config.config_hash()

    def test_hash_tracks_content_not_bookkeeping(self):
        base = default_config()
        assert base.config_hash() != default_config(psa_samples=5000).config_hash()
        # Seed and output directory are reported separately; they don't
        # change what is being estimated.
        assert base.config_hash() == default_config(seed=1).config_hash()
        assert base.config_hash() == base.override(out_dir="elsewhere").config_hash()

    def test_override_changes_one_field(self):
        config = default_config().override(method="nmc")
        assert config.method == "nmc"
        assert config.seed == default_config().seed

    def test_errors_name_their_field(self):
        with pytest.raises(ConfigError, match="psa_samples"):
            default_config(psa_samples=0)
        with pytest.raises(ConfigError, match="method"):
            default_config(method="bogus")
        with pytest.raises(ConfigError, match="seed"):
            default_config(seed="nope")
        with pytest.raises(ConfigError, match="n_grid"):
            default_config(n_grid=[10, -5])

    def test_dict_errors_name_their_path(self):
        d = default_config().to_dict()
        d["model"]["priors"]["p_event"]["dist"] = "gamma"
        with pytest.raises(ConfigError, match="p_event"):
            RunConfig.from_dict(d)

    def test_bool_is_not_a_count(self):
        d = default_config().to_dict()
        d["psa_samples"] = True
        with pytest.raises(ConfigError, match="psa_samples"):
            RunConfig.from_dict(d)

    def test_bad_market_kind(self):
        d = default_config().to_dict()
        d["market_share"] = {"kind": "mystery"}
        with pytest.raises(ConfigError, match="market_share"):
            RunConfig.from_dict(d)

    def test_current_shares_checked(self):
        d = default_config().to_dict()
        d["current_shares"] = [0.7, 0.7]
        with pytest.raises(ConfigError, match="current_shares"):
            RunConfig.from_dict(d)

    @pytest.mark.parametrize("path,value", [
        (("model", "fixed", "wtp"), float("nan")),
        (("model", "fixed", "life_years"), float("inf")),
        (("model", "priors", "p_event", "alpha"), float("inf")),
        (("model", "priors", "logit_qol", "variance"), float("nan")),
        (("market_share", "threshold"), float("-inf")),
        (("current_shares",), [float("nan"), 0.0]),
    ])
    def test_non_finite_numbers_rejected(self, path, value):
        d = default_config().to_dict()
        node = d
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ConfigError, match=path[0]):
            RunConfig.from_dict(d)

    @pytest.mark.parametrize("path,value,field", [
        (("model", "priors", "p_event", "alpha"), True, "model.priors.p_event.alpha"),
        (("model", "priors", "logit_qol", "variance"), "0.6",
         "model.priors.logit_qol.variance"),
        (("market_share", "threshold"), "0.6", "market_share.threshold"),
        (("market_share", "saturation_at"), False, "market_share.saturation_at"),
        (("current_shares",), ["1", False], "current_shares"),
        (("current_shares",), [1.0, None], "current_shares"),
    ])
    def test_non_numbers_rejected(self, path, value, field):
        # Booleans and strings are not numbers, even where float() would
        # take them.
        d = default_config().to_dict()
        node = d
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ConfigError, match=rf"{field}.*must be a number"):
            RunConfig.from_dict(d)

    def test_non_number_table_point_rejected(self):
        d = default_config().to_dict()
        d["market_share"] = {"kind": "table", "points": [[0.0, 0.0], ["1", True]],
                             "target_treatment": 2}
        with pytest.raises(ConfigError, match="market_share.points.*must be a number"):
            RunConfig.from_dict(d)

    def test_integers_are_numbers(self):
        d = default_config().to_dict()
        d["current_shares"] = [1, 0]
        d["model"]["priors"]["p_event"]["alpha"] = 2
        config = RunConfig.from_dict(d)
        assert config.current_shares.shares == (1.0, 0.0)
        assert config.priors.p_event.alpha == 2.0

    def test_non_finite_table_point_rejected(self):
        d = default_config().to_dict()
        d["market_share"] = {"kind": "table", "points": [[0.0, 0.0], [float("nan"), 1.0]],
                             "target_treatment": 2}
        with pytest.raises(ConfigError, match="market_share.points"):
            RunConfig.from_dict(d)

    def test_target_treatment_beyond_treatments(self):
        d = default_config().to_dict()
        d["market_share"]["target_treatment"] = 3
        with pytest.raises(ConfigError, match="target_treatment"):
            RunConfig.from_dict(d)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="nowhere.json"):
            RunConfig.from_file(tmp_path / "nowhere.json")

    def test_unparseable_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            RunConfig.from_file(path)


def _read_rows(path: Path) -> tuple[str, list[str], list[list[str]]]:
    lines = path.read_text().strip().splitlines()
    header, columns = lines[0], lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, columns, rows


class TestRunCommand:
    def test_writes_expected_files(self, small_config_path, tmp_path):
        out = tmp_path / "out_a"
        code = cli.main(["run", "--config", str(small_config_path),
                         "--out", str(out)])
        assert code == 0
        header, columns, rows = _read_rows(out / "results.csv")
        assert columns == ["study", "method", "evsi", "evsi_im",
                           "std_error", "seconds"]
        assert header.startswith("# config=") and "seed=5" in header
        assert [r[:2] for r in rows] == [["1", "nmc"], ["1", "mm"]]

    def test_method_filter(self, small_config_path, tmp_path):
        out = tmp_path / "out_mm"
        code = cli.main(["run", "--config", str(small_config_path),
                         "--method", "mm", "--out", str(out)])
        assert code == 0
        _, _, rows = _read_rows(out / "results.csv")
        assert [r[1] for r in rows] == ["mm"]

    def test_reruns_identical_up_to_wall_time(self, small_config_path, tmp_path):
        out_a, out_b = tmp_path / "rep_a", tmp_path / "rep_b"
        assert cli.main(["run", "--config", str(small_config_path),
                         "--out", str(out_a)]) == 0
        assert cli.main(["run", "--config", str(small_config_path),
                         "--out", str(out_b)]) == 0
        head_a, cols_a, rows_a = _read_rows(out_a / "results.csv")
        head_b, cols_b, rows_b = _read_rows(out_b / "results.csv")
        assert (head_a, cols_a) == (head_b, cols_b)
        # Everything except the timing column must agree byte for byte.
        assert [r[:5] for r in rows_a] == [r[:5] for r in rows_b]

    def test_seed_override_changes_results(self, small_config_path, tmp_path):
        out_a, out_b = tmp_path / "seed_a", tmp_path / "seed_b"
        cli.main(["run", "--config", str(small_config_path), "--out", str(out_a)])
        cli.main(["run", "--config", str(small_config_path), "--seed", "99",
                  "--out", str(out_b)])
        _, _, rows_a = _read_rows(out_a / "results.csv")
        _, _, rows_b = _read_rows(out_b / "results.csv")
        assert rows_a[0][2] != rows_b[0][2]

    def test_by_n_outputs_when_grid_configured(self, tmp_path):
        config = _small_config(out_dir=str(tmp_path / "res"),
                               n_grid=[10, 60, 200], method="mm")
        path = tmp_path / "grid.json"
        path.write_text(config.to_json())
        assert cli.main(["run", "--config", str(path)]) == 0
        header, columns, rows = _read_rows(tmp_path / "res" / "by_n_study1.csv")
        assert columns == ["n", "evsi_im", "std_error"]
        assert [r[0] for r in rows] == ["10", "60", "200"]


@pytest.fixture(scope="module")
def trend_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trend")
    config = _small_config(out_dir=str(tmp / "res"))
    path = tmp / "config.json"
    path.write_text(config.to_json())
    assert cli.main(["trend", "--config", str(path), "--study", "1"]) == 0
    return tmp / "res"


class TestTrendCommand:
    def test_curve_file_shape(self, trend_dir):
        header, columns, rows = _read_rows(trend_dir / "trend_study1.csv")
        assert columns == ["inb", "probability"]
        assert len(rows) == 512
        assert "study=1" in header

    def test_curve_grid_and_probabilities(self, trend_dir):
        _, _, rows = _read_rows(trend_dir / "trend_study1.csv")
        inb = np.array([float(r[0]) for r in rows])
        prob = np.array([float(r[1]) for r in rows])
        assert np.all(np.diff(inb) > 0.0)
        assert np.all(prob > 0.0) and np.all(prob <= 1.0)
        assert np.all(np.diff(prob) >= -1e-12)

    def test_curve_crosses_half_near_break_even(self, trend_dir):
        # The side-effect study leaves the decision roughly balanced when the
        # incremental benefit is near zero, so the 50% crossing should land
        # well inside the middle of the sampled range.
        _, _, rows = _read_rows(trend_dir / "trend_study1.csv")
        inb = np.array([float(r[0]) for r in rows])
        prob = np.array([float(r[1]) for r in rows])
        crossing = float(np.interp(0.5, prob, inb))
        assert abs(crossing) < 0.2 * np.abs(inb).max()

    def test_density_file_matches_sample_size(self, trend_dir):
        _, columns, rows = _read_rows(trend_dir / "inb_density_study1.csv")
        assert columns == ["inb"]
        assert len(rows) == 2000

    def test_study_index_checked(self, tmp_path):
        config = _small_config(out_dir=str(tmp_path / "res"))
        path = tmp_path / "config.json"
        path.write_text(config.to_json())
        assert cli.main(["trend", "--config", str(path), "--study", "7"]) == 1


class TestExitCodes:
    def test_validate_ok(self):
        assert cli.main(["validate", "--config", str(SHIPPED)]) == 0

    def test_missing_config_is_a_config_error(self):
        assert cli.main(["run", "--config", "/no/such/file.json"]) == 1

    def test_usage_problems_exit_one(self):
        assert cli.main([]) == 1
        assert cli.main(["run"]) == 1
        assert cli.main(["explode", "--config", "x"]) == 1

    def test_broken_json_exits_one(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        assert cli.main(["validate", "--config", str(path)]) == 1

    def test_sampler_failure_exits_two(self, small_config_path, monkeypatch):
        def boom(*args, **kwargs):
            raise SamplerError("chain stalled")

        monkeypatch.setattr(cli, "run_config", boom)
        assert cli.main(["run", "--config", str(small_config_path)]) == 2

    def test_fit_failure_exits_two(self, small_config_path, monkeypatch):
        def boom(*args, **kwargs):
            raise FitError("no convergence")

        monkeypatch.setattr(cli, "run_config", boom)
        assert cli.main(["run", "--config", str(small_config_path)]) == 2

    def test_other_estimation_value_error_exits_two(self, small_config_path, monkeypatch,
                                                    capsys):
        def boom(*args, **kwargs):
            raise ValueError("nb contains non-finite values")

        monkeypatch.setattr(cli, "run_config", boom)
        assert cli.main(["run", "--config", str(small_config_path)]) == 2
        err = capsys.readouterr().err
        assert err == "estimation error: nb contains non-finite values\n"

    # Python's json module reads NaN and Infinity; both commands must refuse
    # such files, numbers written as strings or booleans, and a target
    # treatment the model does not have, before any estimation starts.
    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("edit", [
        lambda d: d["model"]["fixed"].update(wtp=float("nan")),
        lambda d: d["model"]["priors"]["p_event"].update(alpha=float("inf")),
        lambda d: d["market_share"].update(target_treatment=3),
        lambda d: d["model"]["priors"]["p_event"].update(alpha=True),
        lambda d: d["market_share"].update(threshold="0.6"),
        lambda d: d.update(current_shares=["1", False]),
    ], ids=["wtp-nan", "alpha-inf", "target-3", "alpha-true", "threshold-string",
            "shares-mixed"])
    def test_bad_values_exit_one(self, command, edit, tmp_path, capsys):
        d = _small_config(out_dir=str(tmp_path / "res")).to_dict()
        edit(d)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        assert cli.main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert not (tmp_path / "res").exists()
