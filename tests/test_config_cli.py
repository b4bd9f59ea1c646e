"""Configuration parsing and the command line front end."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import voi.cli as cli
import voi.nmc as nmc
from voi.config import ConfigError, RunConfig
from voi.market import StepShare, TableShare, current_decision_value
from voi.model import evpi, expected_nb, prob_cost_effective, sample_prior
from voi.rng import child_seed
from voi.curves import FitError

SHIPPED = Path(__file__).resolve().parents[1] / "configs" / "critical_event.json"

# Fingerprint of the shipped configuration; regenerate via config_hash() only
# when the packaged decision problem deliberately changes.
SHIPPED_HASH = "a0f0086ee243ef25"


def _small_config(case: RunConfig, **overrides) -> RunConfig:
    # Keep only the fastest study so command round trips stay quick.
    small = dict(psa_samples=2000, outer_datasets=40, posterior_draws=300,
                 quantile_sets=8, seed=5, studies=case.studies[:1])
    return case.override(**{**small, **overrides})


@pytest.fixture()
def small_config_path(case, tmp_path) -> Path:
    path = tmp_path / "small.json"
    path.write_text(_small_config(case, out_dir=str(tmp_path / "results")).to_json())
    return path


class TestConfig:
    def test_shipped_hash_frozen(self, case):
        assert case.config_hash() == SHIPPED_HASH

    def test_absent_optional_keys_take_field_defaults(self, tmp_path):
        d = json.loads(SHIPPED.read_text())
        for key in ("method", "psa_samples", "outer_datasets", "posterior_draws",
                    "quantile_sets", "seed", "out_dir"):
            del d[key]
        del d["market_share"]["saturation_at"]
        del d["market_share"]["target_treatment"]
        path = tmp_path / "defaults.json"
        path.write_text(json.dumps(d))
        config = RunConfig.from_file(path)
        assert (config.method, config.psa_samples, config.outer_datasets,
                config.posterior_draws, config.quantile_sets, config.seed,
                config.out_dir) == ("both", 10_000, 5_000, 10_000, 50, 1, "results")
        assert config.n_grid is None
        market = config.to_dict()["market_share"]
        assert (market["saturation_at"], market["target_treatment"]) == (1.0, 2)

    def test_round_trip_preserves_everything(self, case):
        for market in (case.market, StepShare(target=0),
                       TableShare(points=((0.0, 0.0), (0.5, 0.2), (1.0, 1.0)))):
            config = case.override(seed=7, method="mm", n_grid=[10, 50, 200], market=market)
            again = RunConfig.from_dict(json.loads(config.to_json()))
            assert again == config
            assert again.config_hash() == config.config_hash()

    def test_hash_tracks_content_not_bookkeeping(self, case):
        assert case.config_hash() != case.override(psa_samples=5000).config_hash()
        # Seed and output directory are reported separately; they don't
        # change what is being estimated.
        assert case.config_hash() == case.override(seed=1).config_hash()
        assert case.config_hash() == case.override(out_dir="elsewhere").config_hash()

    def test_override_changes_one_field(self, case):
        config = case.override(method="nmc")
        assert config.method == "nmc"
        assert config.seed == case.seed

    def test_errors_name_their_field(self, case):
        with pytest.raises(ConfigError, match="psa_samples"):
            case.override(psa_samples=0)
        with pytest.raises(ConfigError, match="method"):
            case.override(method="bogus")
        with pytest.raises(ConfigError, match="seed"):
            case.override(seed="nope")
        with pytest.raises(ConfigError, match="n_grid"):
            case.override(n_grid=[10, -5])

    def test_dict_errors_name_their_path(self, case):
        d = case.to_dict()
        d["model"]["priors"]["p_event"]["dist"] = "gamma"
        with pytest.raises(ConfigError, match="p_event"):
            RunConfig.from_dict(d)

    def test_bool_is_not_a_count(self, case):
        d = case.to_dict()
        d["psa_samples"] = True
        with pytest.raises(ConfigError, match="psa_samples"):
            RunConfig.from_dict(d)

    def test_bad_market_kind(self, case):
        d = case.to_dict()
        d["market_share"] = {"kind": "mystery"}
        with pytest.raises(ConfigError, match="market_share"):
            RunConfig.from_dict(d)

    @pytest.mark.parametrize("path,field", [
        ((), "extra"), (("model",), "model.extra"), (("model", "fixed"), "model.fixed.extra"),
        (("model", "priors"), "model.priors.extra"),
        (("model", "priors", "p_event"), "model.priors.p_event.extra"),
        (("studies", 0), "studies[0].extra"), (("market_share",), "market_share.extra"),
    ])
    def test_unknown_keys_rejected(self, case, path, field):
        d = case.to_dict()
        node = d
        for key in path:
            node = node[key]
        node["extra"] = 1
        with pytest.raises(ConfigError, match="is not a known key") as err:
            RunConfig.from_dict(d)
        assert err.value.field == field

    def test_current_shares_checked(self, case):
        d = case.to_dict()
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
    def test_non_finite_numbers_rejected(self, case, path, value):
        d = case.to_dict()
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
    def test_non_numbers_rejected(self, case, path, value, field):
        # Booleans and strings are not numbers, even where float() would
        # take them.
        d = case.to_dict()
        node = d
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ConfigError, match=rf"{field}.*must be a number"):
            RunConfig.from_dict(d)

    def test_non_number_table_point_rejected(self, case):
        d = case.to_dict()
        d["market_share"] = {"kind": "table", "points": [[0.0, 0.0], ["1", True]],
                             "target_treatment": 2}
        with pytest.raises(ConfigError, match="market_share.points.*must be a number"):
            RunConfig.from_dict(d)

    def test_integers_are_numbers(self, case):
        d = case.to_dict()
        d["current_shares"] = [1, 0]
        d["model"]["priors"]["p_event"]["alpha"] = 2
        config = RunConfig.from_dict(d)
        assert config.current_shares.shares == (1.0, 0.0)
        assert config.priors.p_event.alpha == 2.0

    def test_non_finite_table_point_rejected(self, case):
        d = case.to_dict()
        d["market_share"] = {"kind": "table", "points": [[0.0, 0.0], [float("nan"), 1.0]],
                             "target_treatment": 2}
        with pytest.raises(ConfigError, match="market_share.points"):
            RunConfig.from_dict(d)

    def test_target_treatment_beyond_treatments(self, case):
        d = case.to_dict()
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

    def test_prints_estimates_then_prior_summary(self, small_config_path, tmp_path, capsys):
        assert cli.main(["run", "--config", str(small_config_path),
                         "--out", str(tmp_path / "out")]) == 0
        config = RunConfig.from_file(small_config_path)
        psa = sample_prior(config.priors, config.fixed, config.psa_samples,
                           child_seed(config.seed, "psa"))
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" evsi=")[0] for line in lines[:2]] == ["study 1 [nmc]",
                                                                  "study 1 [mm]"]
        assert lines[2:] == [
            "PSA (2000 samples)",
            *(f"  treatment {d}: E[NB] = {m:,.0f}   P(best) = {p:.3f}"
              for d, (m, p) in enumerate(zip(expected_nb(psa), prob_cost_effective(psa)),
                                         start=1)),
            f"  EVPI = {evpi(psa):,.0f}",
            f"  current decision value = "
            f"{current_decision_value(psa, config.current_shares):,.0f}",
            f"wrote {tmp_path / 'out' / 'results.csv'}",
        ]

    def test_by_n_outputs_when_grid_configured(self, case, tmp_path):
        config = _small_config(case, out_dir=str(tmp_path / "res"),
                               n_grid=[10, 60, 200], method="mm")
        path = tmp_path / "grid.json"
        path.write_text(config.to_json())
        assert cli.main(["run", "--config", str(path)]) == 0
        header, columns, rows = _read_rows(tmp_path / "res" / "by_n_study1.csv")
        assert columns == ["n", "evsi_im", "std_error"]
        assert [r[0] for r in rows] == ["10", "60", "200"]

    def test_rerun_leaves_only_its_own_files(self, case, tmp_path):
        # An mm run writes per-study files that an nmc run does not; after
        # the nmc run none of them may sit beside its results.csv.
        out = tmp_path / "shared"
        path = tmp_path / "grid.json"
        path.write_text(_small_config(case, n_grid=[10, 60]).to_json())
        run = ["run", "--config", str(path), "--out", str(out)]
        assert cli.main([*run, "--method", "mm", "--seed", "5"]) == 0
        assert {p.name for p in out.iterdir()} == {
            "results.csv", "by_n_study1.csv", "trend_study1.csv", "inb_density_study1.csv"}
        (out / "notes.txt").write_text("kept\n")
        assert cli.main([*run, "--method", "nmc", "--seed", "6"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "results.csv"]
        header, _, rows = _read_rows(out / "results.csv")
        assert header.endswith(" seed=6") and [r[1] for r in rows] == ["nmc"]
        assert (out / "notes.txt").read_text() == "kept\n"


@pytest.fixture(scope="module")
def trend_run(case, tmp_path_factory):
    """``voi run --method mm`` on every study: its output directory and the
    moment-matching results it wrote them from."""
    tmp = tmp_path_factory.mktemp("trend")
    config = _small_config(case, out_dir=str(tmp / "res"), studies=case.studies)
    path = tmp / "config.json"
    path.write_text(config.to_json())
    seen = []

    def run_config(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    real = cli.run_config
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "run_config", run_config)
        assert cli.main(["run", "--config", str(path), "--method", "mm"]) == 0
    (_, mm_results, _), = seen
    return tmp / "res", mm_results


@pytest.fixture(scope="module")
def trend_dir(trend_run):
    return trend_run[0]


class TestTrendCommand:
    """The trend and density files that ``voi run`` writes whenever ``mm`` runs."""

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

    def test_files_read_back_to_every_studys_fit_and_sample(self, trend_run):
        out, mm_results = trend_run
        assert sorted(mm_results) == [1, 2, 3]
        for k, result in mm_results.items():
            _, _, rows = _read_rows(out / f"trend_study{k}.csv")
            grid = np.array([float(r[0]) for r in rows])
            assert (grid[0], grid[-1]) == (result.inb.min(), result.inb.max())
            np.testing.assert_array_equal([float(r[1]) for r in rows],
                                          result.probability_map(grid))
            _, _, rows = _read_rows(out / f"inb_density_study{k}.csv")
            np.testing.assert_array_equal([float(r[0]) for r in rows], result.inb)

    def test_nested_runs_write_no_trend(self, small_config_path, tmp_path):
        out = tmp_path / "nmc"
        assert cli.main(["run", "--config", str(small_config_path), "--method", "nmc",
                         "--out", str(out)]) == 0
        assert [p.name for p in out.iterdir()] == ["results.csv"]

    def test_trend_command_is_gone(self, small_config_path, capsys):
        assert cli.main(["trend", "--config", str(small_config_path), "--study", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("voi: error: argument command: invalid choice: 'trend'")
        assert "Traceback" not in err


class TestExitCodes:
    def test_validate_ok(self):
        assert cli.main(["validate", "--config", str(SHIPPED)]) == 0

    def test_missing_config_is_a_config_error(self):
        assert cli.main(["run", "--config", "/no/such/file.json"]) == 1

    def test_usage_problems_exit_one(self):
        assert cli.main([]) == 1
        assert cli.main(["run"]) == 1
        assert cli.main(["explode", "--config", "x"]) == 1

    def test_broken_json_exits_one(self, tmp_path, capsys):
        # Malformed JSON, bytes that are not UTF-8 and nesting deeper than
        # the parser can follow are all config errors, without a traceback.
        contents = {"broken.json": b"{]", "latin.json": b'\xff\xfe{"seed": 1}',
                    "deep.json": b"[" * 200_000 + b"]" * 200_000}
        for name, content in contents.items():
            path = tmp_path / name
            path.write_bytes(content)
            for command in ("validate", "run"):
                assert cli.main([command, "--config", str(path)]) == 1, (name, command)
                assert capsys.readouterr().err.startswith("config error: "), (name, command)

    def test_integer_beyond_the_float_range_exits_one(self, case, tmp_path, capsys):
        d = case.to_dict()
        d["model"]["fixed"]["wtp"] = 10 ** 400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(d))
        assert cli.main(["validate", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("config error: field 'model.fixed.wtp'")

    def test_fit_failure_exits_two(self, small_config_path, monkeypatch):
        def boom(*args, **kwargs):
            raise FitError("no convergence")

        monkeypatch.setattr(cli, "run_config", boom)
        assert cli.main(["run", "--config", str(small_config_path)]) == 2

    def test_estimation_error_in_a_worker_thread_exits_two(self, small_config_path,
                                                            monkeypatch, capsys, cores):
        # The config's 40 datasets run as chunks of 16, 16 and 8; the engine
        # fails on the last, which runs on a pool thread with two cores.
        monkeypatch.setattr(nmc, "CHUNK_SIZE", 16)
        real = nmc.posterior_summaries

        def fail_on_last_chunk(posterior, *args, **kwargs):
            if len(posterior) < 16:
                raise ValueError("nb contains non-finite values")
            return real(posterior, *args, **kwargs)

        monkeypatch.setattr(nmc, "posterior_summaries", fail_on_last_chunk)
        assert cli.main(["run", "--config", str(small_config_path), "--method", "nmc"]) == 2
        err = capsys.readouterr().err
        assert err == "estimation error: nb contains non-finite values\n"

    def test_other_estimation_value_error_exits_two(self, small_config_path, monkeypatch,
                                                    capsys):
        def boom(*args, **kwargs):
            raise ValueError("nb contains non-finite values")

        monkeypatch.setattr(cli, "run_config", boom)
        assert cli.main(["run", "--config", str(small_config_path)]) == 2
        err = capsys.readouterr().err
        assert err == "estimation error: nb contains non-finite values\n"

    def test_unusable_output_directory_fails_before_estimation(self, case, tmp_path,
                                                               monkeypatch, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory\n")
        path = tmp_path / "small.json"
        path.write_text(_small_config(case, out_dir=str(blocker)).to_json())

        def never(*args, **kwargs):
            raise AssertionError("estimation ran before the output directory was checked")

        monkeypatch.setattr(cli, "run_config", never)
        assert cli.main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")

    # 10**15 float64 values take 7 PiB, more than any address space, so
    # numpy refuses the request before it allocates anything.
    @pytest.mark.parametrize("edit", [
        lambda d: d.update(studies=[{"kind": "quality_of_life", "n": 10**15}]),
        lambda d: d.update(psa_samples=10**15),
    ], ids=["quality-n", "psa-samples"])
    def test_unallocatable_size_exits_two(self, case, edit, tmp_path, capsys):
        d = _small_config(case, out_dir=str(tmp_path / "res")).to_dict()
        edit(d)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(d))
        assert cli.main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("estimation error: ") and "Traceback" not in err

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
        lambda d: d.update(seed=-1),
    ], ids=["wtp-nan", "alpha-inf", "target-3", "alpha-true", "threshold-string",
            "shares-mixed", "seed-negative"])
    def test_bad_values_exit_one(self, case, command, edit, tmp_path, capsys):
        d = _small_config(case, out_dir=str(tmp_path / "res")).to_dict()
        edit(d)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        assert cli.main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_boolean_study_size_exits_one(self, command, case, tmp_path, capsys):
        # JSON's true is a Python int; as a study size it would run one patient.
        d = _small_config(case, out_dir=str(tmp_path / "res")).to_dict()
        d["studies"][0]["n"] = True
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(d))
        assert cli.main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: field 'studies[0]'") and "Traceback" not in err
        assert not (tmp_path / "res").exists()

    # Sizes are held as float64, which is exact up to 2**53: a study beyond
    # it would overflow the simulation, a grid size the scan's spacing.
    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("edit, field", [
        (lambda d: d.update(studies=[{"kind": "side_effects", "n": 2**63}]), "studies[0]"),
        (lambda d: d.update(n_grid=[10, 2**63]), "n_grid"),
        (lambda d: d.update(studies=[{"kind": "side_effects", "n": 2**53 + 1}]), "studies[0]"),
        (lambda d: d.update(n_grid=[10, 2**53 + 1]), "n_grid"),
    ], ids=["study-n", "grid-n", "study-n-past-bound", "grid-n-past-bound"])
    def test_size_beyond_the_float_range_exits_one(self, command, edit, field, case,
                                                   tmp_path, capsys):
        d = _small_config(case, out_dir=str(tmp_path / "res")).to_dict()
        edit(d)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(d))
        assert cli.main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: field '{field}'") and "Traceback" not in err
        assert not (tmp_path / "res").exists()

    def test_largest_size_validates(self, case, tmp_path):
        d = _small_config(case).to_dict()
        d.update(studies=[{"kind": "effectiveness_rct", "n": 2**53}], n_grid=[1, 2**53])
        path = tmp_path / "largest.json"
        path.write_text(json.dumps(d))
        assert cli.main(["validate", "--config", str(path)]) == 0

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("market", [
        {"kind": "threshold_linear", "saturation_at": 1.0, "target_treatment": 2},
        {"kind": "table", "target_treatment": 2},
    ], ids=["threshold-absent", "points-absent"])
    def test_market_key_without_default_is_required(self, command, market, case, tmp_path,
                                                    capsys):
        d = _small_config(case, out_dir=str(tmp_path / "res")).to_dict()
        d["market_share"] = market
        path = tmp_path / "market.json"
        path.write_text(json.dumps(d))
        assert cli.main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: field 'market_share.")
        assert err.endswith("is required\n") and "Traceback" not in err
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_misspelt_key_exits_one(self, command, case, tmp_path, capsys):
        # A misspelt run setting would otherwise run silently at its default.
        d = _small_config(case, out_dir=str(tmp_path / "res")).to_dict()
        d["psa_sampels"] = d.pop("psa_samples")
        path = tmp_path / "misspelt.json"
        path.write_text(json.dumps(d))
        assert cli.main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "config error: field 'psa_sampels': is not a known key\n"
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("command", ["run"])
    def test_negative_seed_option_exits_one(self, command, small_config_path, tmp_path,
                                            capsys):
        argv = [command, "--config", str(small_config_path), "--seed", "-1",
                "--out", str(tmp_path / "res")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err == "config error: field 'seed': must be a non-negative integer\n"
        assert not (tmp_path / "res").exists()


def _paths(node, prefix=()):
    """Every key and index path into a JSON document, the root excluded."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


# Values a hand-edited file might hold in the wrong place.  Integers stay
# small so that a mutated run setting keeps the run tiny.
_NUMBERS = st.one_of(st.integers(-3, 300), st.floats(-1e3, 1e3))
_JUNK = st.one_of(
    st.none(), st.booleans(), _NUMBERS, st.floats(), st.text(max_size=6),
    st.lists(st.integers(-3, 300), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(-3, 300), max_size=2),
)


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def _mutated(draw, base: dict):
    """``base`` with one to three entries dropped, replaced by junk or nested wrongly."""
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        node = _at(doc, parents)
        edit = draw(st.sampled_from(["drop", "junk", "in_list", "in_object"]))
        if edit == "drop":
            del node[key]
        elif edit == "junk":
            node[key] = draw(_JUNK)
        elif edit == "in_list":
            node[key] = [node[key]]
        else:
            node[key] = {"value": node[key]}
    return doc


@st.composite
def _renumbered(draw, base: dict):
    """``base`` with one or two of its numbers changed, so it often still validates."""
    doc = copy.deepcopy(base)
    numbers = [p for p in _paths(doc) if type(_at(doc, p)) in (int, float)]
    for *parents, key in draw(st.lists(st.sampled_from(numbers), min_size=1, max_size=2)):
        _at(doc, parents)[key] = draw(_NUMBERS)
    return doc


def _tiny_config() -> dict:
    d = json.loads(SHIPPED.read_text())
    d.update(psa_samples=300, outer_datasets=4, posterior_draws=40, quantile_sets=6,
             n_grid=[10, 40])
    return d


def _cli(doc, command: str) -> tuple[int, str]:
    """Exit code and standard error of ``voi`` on ``doc`` written as the config file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        argv = [command, "--config", str(path)]
        if command == "run":
            argv += ["--out", str(Path(tmp) / "out")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, err.getvalue()


class TestExitCodeContract:
    """Every input ends with exit 0, 1 or 2, never with a traceback."""

    @settings(max_examples=25, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(_mutated(json.loads(SHIPPED.read_text())), _JUNK))
    def test_validate(self, doc):
        code, err = _cli(doc, "validate")
        assert code in (0, 1, 2) and "Traceback" not in err

    @settings(max_examples=20, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(_mutated(_tiny_config()), _renumbered(_tiny_config())))
    def test_tiny_run(self, doc):
        code, err = _cli(doc, "run")
        assert code in (0, 1, 2) and "Traceback" not in err
