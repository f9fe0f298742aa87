import json
from pathlib import Path

import numpy as np
import pytest

import jsqa.cli as cli
from jsqa.model import BernoulliScaled, Constant, SystemConfig
from jsqa.simulator import default_plan

DATA = Path(__file__).parent / "data"

TINY_MANIFEST = {
    "regime": {
        "kind": "overloaded",
        "constant": 0.2,
        "alpha": 0.0,
        "base_services": [
            {"kind": "binomial", "trial-count": 2, "success-probability": 0.25},
            {"kind": "binomial", "trial-count": 2, "success-probability": 0.25},
        ],
        "bound": 4,
    },
    "gammas": [0.3, 0.2],
    "plan": {"warmup_slots": 200, "num_samples": 4000, "thinning": 1, "replicas": 8},
    "phi_grid": [-0.5, 0.0, 0.5],
    "moment_orders": [1, 2],
    "seed": 99,
    "outputs": ".",
}


def write_manifest(tmp_path, obj=TINY_MANIFEST, name="manifest.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


def read_rows(out_dir):
    lines = (Path(out_dir) / "results.csv").read_text().strip().split("\n")
    assert lines[0] == cli.CSV_HEADER
    rows = []
    for line in lines[1:]:
        gamma, regime, statistic, key, value, stderr = line.split(",")
        rows.append(
            {
                "gamma": gamma,
                "regime": regime,
                "statistic": statistic,
                "key": key,
                "value": float(value) if value else None,
                "stderr": float(stderr) if stderr else None,
            }
        )
    return rows


class TestRun:
    def test_empty_gammas_exit_2(self, tmp_path):
        bad = dict(TINY_MANIFEST, gammas=[])
        path = write_manifest(tmp_path, bad)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2

    def test_non_decreasing_gammas_exit_2(self, tmp_path):
        bad = dict(TINY_MANIFEST, gammas=[0.2, 0.3])
        path = write_manifest(tmp_path, bad)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        path = write_manifest(tmp_path)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["run", str(path), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "results.csv").read_bytes() == (
            tmp_path / "b" / "results.csv"
        ).read_bytes()
        a = json.loads((tmp_path / "a" / "run.json").read_text())
        b = json.loads((tmp_path / "b" / "run.json").read_text())
        assert a == b

    def test_output_schema(self, tmp_path):
        path = write_manifest(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 0
        rows = read_rows(out)
        stats = {r["statistic"] for r in rows}
        for expected in ("config", "raw", "scaled_total", "moment", "ks", "ssc",
                         "unused", "mgf", "residual", "summary"):
            assert expected in stats
        sidecar = json.loads((out / "run.json").read_text())
        assert sidecar["manifest"]["seed"] == 99
        assert "sigma2" in sidecar["derived"]
        assert sidecar["summary"]["ks_trend"] in ("decreasing", "not-decreasing")
        assert sidecar["completed_gammas"] == [0.3, 0.2]

    def test_single_batch_max_moment_z_is_nan(self, tmp_path):
        # one replica of 500 samples spans less than ten relaxation times
        # (1000 slots at gamma = 1e-2), so it forms one batch and every
        # moment and residual stderr is NaN: the summary must not report a
        # perfect fit
        manifest = dict(
            TINY_MANIFEST,
            regime=dict(TINY_MANIFEST["regime"], kind="critical", constant=0.0, alpha=0.5),
            gammas=[1e-2],
            plan={"warmup_slots": 200, "num_samples": 500, "thinning": 1, "replicas": 1},
        )
        out = tmp_path / "out"
        assert cli.main(["run", str(write_manifest(tmp_path, manifest)), "--out", str(out)]) == 0
        moments = [r for r in read_rows(out) if r["statistic"] == "moment"]
        assert moments and all(np.isnan(r["stderr"]) for r in moments)
        sidecar = json.loads((out / "run.json").read_text())
        assert np.isnan(sidecar["summary"]["max_moment_z"])
        usable = [r for r in read_rows(out) if r["statistic"] == "residual_usable"]
        assert usable and all(r["value"] == 0.0 for r in usable)
        assert np.isnan(sidecar["summary"]["max_residual_z"])

    def test_golden_file(self, tmp_path):
        # regenerate with: python -m tests.make_golden (after intentional changes)
        path = write_manifest(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 0
        golden = (DATA / "golden_results.csv").read_text()
        assert (out / "results.csv").read_text() == golden

    def test_crash_safety_partial_results(self, tmp_path, monkeypatch):
        calls = {"n": 0}
        original = cli.transform.unused_service_rate

        def explode_on_second(samples, gamma):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise RuntimeError("synthetic failure")
            return original(samples, gamma)

        monkeypatch.setattr(cli.transform, "unused_service_rate", explode_on_second)
        path = write_manifest(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 1
        rows = read_rows(out)
        first_gamma_rows = [r for r in rows if r["gamma"] == repr(0.3)]
        assert first_gamma_rows
        sidecar = json.loads((out / "run.json").read_text())
        assert sidecar["completed_gammas"] == [0.3]
        assert "synthetic failure" in sidecar["error"]

    def test_failed_gamma_reported_on_stderr(self, tmp_path, monkeypatch, capsys):
        def explode(samples, gamma):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli.transform, "unused_service_rate", explode)
        path = write_manifest(tmp_path)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "gamma=0.3" in err
        assert "RuntimeError: synthetic failure" in err


SSQ = SystemConfig(
    n=1, gamma=0.1, arrivals=BernoulliScaled(1, 0.3), services=(BernoulliScaled(1, 0.4),)
)


def write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    return path


class TestOracleCheck:
    def test_state_budget_is_a_clean_error(self, tmp_path, capsys):
        config = SystemConfig(
            n=2, gamma=0.1, arrivals=BernoulliScaled(2, 0.2),
            services=(BernoulliScaled(1, 0.25), BernoulliScaled(1, 0.25)),
        )
        path = write_config(tmp_path, config)
        assert cli.main(["oracle-check", str(path), "--cap", "1500"]) == 2
        assert capsys.readouterr().err.startswith("error: cap 1500 gives")

    def test_sample_budget_is_a_clean_error(self, tmp_path, capsys):
        path = write_config(tmp_path, SSQ)
        argv = ["oracle-check", str(path), "--cap", "10", "--samples", str(1 << 28)]
        assert cli.main(argv) == 2
        assert "exceeding the cap" in capsys.readouterr().err

    def test_absorbing_system_exits_zero(self, tmp_path, capsys):
        config = SystemConfig(n=1, gamma=1.0, arrivals=Constant(0), services=(Constant(0),))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config.to_dict()))
        status = cli.main(
            ["oracle-check", str(cfg_path), "--cap", "8", "--seed", "1", "--samples", "2000"]
        )
        assert status == 0
        assert "max|z|=0.00" in capsys.readouterr().out

    def test_healthy_simulator_exits_zero(self):
        plan = default_plan(SSQ, num_samples=200_000, replicas=64)
        import io

        status = cli.oracle_check(SSQ, cap=120, plan=plan, seed=3, out=io.StringIO())
        assert status == 0

    def test_corrupted_abandonment_detected(self):
        # off-by-one abandonment, injected through the test hook
        def off_by_one(d, q):
            return np.minimum(q, d + (q > 0))

        plan = default_plan(SSQ, num_samples=200_000, replicas=64)
        import io

        status = cli.oracle_check(
            SSQ, cap=120, plan=plan, seed=3, abandonment_hook=off_by_one, out=io.StringIO()
        )
        assert status == 1


class TestDomination:
    def test_subcommand_reports_ordering(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(SSQ.to_dict()))
        status = cli.main(
            ["domination", str(cfg_path), "--horizon", "20000", "--seed", "4"]
        )
        assert status == 0
        assert "violations=0" in capsys.readouterr().out

    @pytest.mark.parametrize("c_tilde", ["nan", "inf", "-inf"])
    def test_non_finite_constant_is_a_clean_error(self, tmp_path, capsys, c_tilde):
        path = write_config(tmp_path, SSQ)
        argv = ["domination", str(path), "--horizon", "10", f"--c-tilde={c_tilde}"]
        assert cli.main(argv) == 2
        assert "c_tilde must be finite" in capsys.readouterr().err

    def test_multi_queue_config_rejected(self, tmp_path):
        config = SystemConfig(
            n=2, gamma=0.1, arrivals=Constant(1), services=(Constant(1), Constant(1))
        )
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config.to_dict()))
        assert cli.main(["domination", str(cfg_path), "--horizon", "10"]) == 2


def test_manifest_validation_catches_bad_plan(tmp_path):
    bad = dict(TINY_MANIFEST, plan={"warmup_slots": 0, "num_samples": 10, "thinning": 1, "replicas": 1})
    path = write_manifest(tmp_path, bad)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
