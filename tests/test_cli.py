import json
import multiprocessing
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import jsqa.cli as cli
from jsqa import simulator
from jsqa.errors import ConfigError
from jsqa.model import BernoulliScaled, Constant, SystemConfig
from jsqa.simulator import SamplingPlan, default_plan

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
CLASSIC_MANIFEST = dict(
    TINY_MANIFEST, regime=dict(TINY_MANIFEST["regime"], kind="classic", constant=0.2, alpha=0.25)
)
CRITICAL_MANIFEST = dict(
    TINY_MANIFEST, regime=dict(TINY_MANIFEST["regime"], kind="critical", constant=-0.5, alpha=0.5)
)
# regime kind -> (golden results.csv, tiny manifest of that kind)
GOLDEN = {
    "overloaded": ("golden_results.csv", TINY_MANIFEST),
    "classic": ("golden_classic_results.csv", CLASSIC_MANIFEST),
    "critical": ("golden_critical_results.csv", CRITICAL_MANIFEST),
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

    @pytest.mark.parametrize(
        "key, value",
        [
            ("moment_orders", [0]),
            ("moment_orders", [-3]),
            ("phi_grid", []),
            ("phi_grid", [3.0]),
            ("phi_grid", [float("nan")]),
            ("phi_grid", [float("inf")]),
            ("phi_grid", "12"),
            ("seed", -5),
        ],
        ids=["order-0", "order-neg", "phi-empty", "phi-3", "phi-nan", "phi-inf", "phi-string",
             "seed-neg"],
    )
    def test_invalid_input_exits_2_before_simulating(self, tmp_path, key, value):
        path = write_manifest(tmp_path, dict(TINY_MANIFEST, **{key: value}))
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 2
        assert not (out / "results.csv").exists()

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

    @pytest.mark.parametrize("kind", GOLDEN)
    def test_golden_file(self, tmp_path, kind):
        # regenerate with: python -m tests.make_golden (after intentional changes)
        name, manifest = GOLDEN[kind]
        path = write_manifest(tmp_path, manifest)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 0
        golden = (DATA / name).read_text()
        assert (out / "results.csv").read_text() == golden

    def test_crash_safety_partial_results(self, tmp_path, monkeypatch):
        original = cli.transform.unused_service_rate

        # keyed on the point, not on a call count: the point of gamma 0.2 may
        # run in a child process, which counts in its own copy of a counter
        def explode_at_second_gamma(samples):
            if samples.gamma == 0.2:
                raise RuntimeError("synthetic failure")
            return original(samples)

        monkeypatch.setattr(cli.transform, "unused_service_rate", explode_at_second_gamma)
        path = write_manifest(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 1
        assert not multiprocessing.active_children()
        rows = read_rows(out)
        first_gamma_rows = [r for r in rows if r["gamma"] == repr(0.3)]
        assert first_gamma_rows
        # no row of the failed point, not even those computed before the failure
        assert not [r for r in rows if r["gamma"] == repr(0.2)]
        sidecar = json.loads((out / "run.json").read_text())
        assert sidecar["completed_gammas"] == [0.3]
        assert "synthetic failure" in sidecar["error"]

    def test_failed_gamma_reported_on_stderr(self, tmp_path, monkeypatch, capsys):
        def explode(samples):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli.transform, "unused_service_rate", explode)
        path = write_manifest(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 1
        assert not multiprocessing.active_children()
        err = capsys.readouterr().err
        assert "gamma=0.3" in err
        assert "RuntimeError: synthetic failure" in err
        assert (out / "results.csv").read_text() == cli.CSV_HEADER + "\n"


def usable_cpus(monkeypatch, count):
    """Make `run` see `count` usable CPUs, which fixes how many points it
    computes at once."""
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(count)))


class TestPool:
    @pytest.mark.parametrize("kind", GOLDEN)
    def test_one_cpu_is_byte_identical(self, tmp_path, monkeypatch, kind):
        name, manifest = GOLDEN[kind]
        path = write_manifest(tmp_path, manifest)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "default")]) == 0
        assert not multiprocessing.active_children()
        usable_cpus(monkeypatch, 1)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "one")]) == 0
        assert not multiprocessing.active_children()
        for output in ("results.csv", "run.json"):
            assert (tmp_path / "one" / output).read_bytes() == (
                tmp_path / "default" / output
            ).read_bytes()
        assert (tmp_path / "one" / "results.csv").read_text() == (DATA / name).read_text()

    def test_every_other_point_runs_in_a_child(self, tmp_path, monkeypatch):
        original = cli.transform.unused_service_rate

        def record_pid(samples):
            # a child's memory is its own, so the pid goes through a file
            (tmp_path / f"pid-{samples.gamma!r}").write_text(str(os.getpid()))
            return original(samples)

        monkeypatch.setattr(cli.transform, "unused_service_rate", record_pid)
        usable_cpus(monkeypatch, 2)
        path = write_manifest(tmp_path, dict(TINY_MANIFEST, gammas=[0.3, 0.2, 0.15]))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        assert not multiprocessing.active_children()
        pids = {g: int((tmp_path / f"pid-{g!r}").read_text()) for g in (0.3, 0.2, 0.15)}
        assert pids[0.3] == pids[0.15] == os.getpid()
        assert pids[0.2] != os.getpid()

    def test_dead_child_is_a_failed_point(self, tmp_path, monkeypatch, capsys):
        original = cli.transform.unused_service_rate
        parent = os.getpid()

        def die_in_child(samples):
            if samples.gamma == 0.2:
                if os.getpid() == parent:
                    raise AssertionError("gamma 0.2 ran in the test's own process")
                os._exit(1)
            return original(samples)

        monkeypatch.setattr(cli.transform, "unused_service_rate", die_in_child)
        usable_cpus(monkeypatch, 2)
        out = tmp_path / "out"
        assert cli.main(["run", str(write_manifest(tmp_path)), "--out", str(out)]) == 1
        assert not multiprocessing.active_children()
        assert "error: gamma=0.2: BrokenProcessPool" in capsys.readouterr().err
        rows = read_rows(out)
        assert [r for r in rows if r["gamma"] == repr(0.3)]
        assert not [r for r in rows if r["gamma"] == repr(0.2)]

    def test_failure_waits_for_one_child_point(self, tmp_path, monkeypatch):
        # the child gets its points one at a time: when point 0 fails in this
        # process, only the child point already running (1) is waited for
        manifest = dict(TINY_MANIFEST, gammas=[0.3, 0.25, 0.2, 0.15, 0.12, 0.1])
        index = {g: gi for gi, g in enumerate(manifest["gammas"])}
        original = cli.collect_steady_state

        def collect(config, plan, seed):
            gi = index[config.gamma]
            if gi == 0:
                # fail only once the child has started point 1
                for _ in range(3000):
                    if (tmp_path / "started-1").exists():
                        break
                    time.sleep(0.01)
                raise RuntimeError("synthetic failure")
            (tmp_path / f"started-{gi}").touch()
            return original(config, plan, seed)

        monkeypatch.setattr(cli, "collect_steady_state", collect)
        usable_cpus(monkeypatch, 2)
        out = tmp_path / "out"
        assert cli.main(["run", str(write_manifest(tmp_path, manifest)), "--out", str(out)]) == 1
        assert not multiprocessing.active_children()
        assert sorted(p.name for p in tmp_path.glob("started-*")) == ["started-1"]
        assert read_rows(out) == []


SSQ = SystemConfig(
    gamma=0.1, arrivals=BernoulliScaled(1, 0.3), services=(BernoulliScaled(1, 0.4),)
)


# the two-queue config of acceptance criterion 2 and the oracle-check
# arguments whose stdout tests/data/golden_oracle_check.txt holds
JSQ2 = SystemConfig(
    gamma=0.1, arrivals=BernoulliScaled(2, 0.2),
    services=(BernoulliScaled(1, 0.25), BernoulliScaled(1, 0.25)),
)
GOLDEN_ORACLE_CHECK = (
    "golden_oracle_check.txt",
    ["--cap", "20", "--samples", "20000", "--replicas", "16", "--seed", "1"],
)


def write_config(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config.to_dict()))
    return path


class TestOracleCheck:
    def test_golden_stdout(self, tmp_path, capsys):
        # regenerate with: python -m tests.make_golden (after intentional changes)
        name, args = GOLDEN_ORACLE_CHECK
        status = cli.main(["oracle-check", str(write_config(tmp_path, JSQ2)), *args])
        assert capsys.readouterr().out == (DATA / name).read_text()
        assert status == 0

    def test_state_budget_is_a_clean_error(self, tmp_path, capsys):
        path = write_config(tmp_path, JSQ2)
        assert cli.main(["oracle-check", str(path), "--cap", "1500"]) == 2
        assert capsys.readouterr().err.startswith("error: cap 1500 gives")

    def test_negative_cap_is_a_clean_error(self, tmp_path, capsys):
        path = write_config(tmp_path, SSQ)
        assert cli.main(["oracle-check", str(path), "--cap", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: cap must be nonnegative")

    def test_sample_budget_is_a_clean_error(self, tmp_path, capsys):
        path = write_config(tmp_path, SSQ)
        argv = ["oracle-check", str(path), "--cap", "10", "--samples", str(1 << 28)]
        assert cli.main(argv) == 2
        assert "exceeding the cap" in capsys.readouterr().err

    def test_more_replicas_than_samples_run(self, tmp_path, capsys):
        # only the replicas that retain a sample are simulated
        path = write_config(tmp_path, SSQ)
        argv = ["oracle-check", str(path), "--cap", "10", "--samples", "1000",
                "--replicas", str(10**12)]
        assert cli.main(argv) in (0, 1)
        out, err = capsys.readouterr()
        assert "max|z|=" in out
        assert err == ""

    def test_absorbing_system_exits_zero(self, tmp_path, capsys):
        config = SystemConfig(gamma=1.0, arrivals=Constant(0), services=(Constant(0),))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config.to_dict()))
        status = cli.main(
            ["oracle-check", str(cfg_path), "--cap", "8", "--seed", "1", "--samples", "2000"]
        )
        assert status == 0
        assert "max|z|=0.00" in capsys.readouterr().out

    def test_healthy_simulator_exits_zero(self, capsys):
        plan = default_plan(SSQ, num_samples=200_000, replicas=64)
        status = cli.oracle_check(SSQ, cap=120, plan=plan, seed=3)
        assert status == 0
        assert "max|z|=" in capsys.readouterr().out

    def test_corrupted_abandonment_detected(self, monkeypatch, capsys):
        # off-by-one abandonment, patched into the slot kernel
        abandon = simulator._abandon

        def off_by_one(q, marks, gamma, gen):
            return np.minimum(q, abandon(q, marks, gamma, gen) + (q > 0))

        monkeypatch.setattr(simulator, "_abandon", off_by_one)
        plan = default_plan(SSQ, num_samples=200_000, replicas=64)
        status = cli.oracle_check(SSQ, cap=120, plan=plan, seed=3)
        assert status == 1
        assert "max|z|=" in capsys.readouterr().out

    def test_single_batch_fails(self, capsys):
        # one batch leaves every z without a standard error: NaN, not a pass
        plan = default_plan(SSQ, num_samples=1, replicas=1)
        assert cli.oracle_check(SSQ, cap=120, plan=plan, seed=3) == 1
        assert capsys.readouterr().out.rstrip().endswith("max|z|=nan")


class TestDomination:
    def test_subcommand_reports_ordering(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(SSQ.to_dict()))
        status = cli.main(
            ["domination", str(cfg_path), "--horizon", "20000", "--seed", "4"]
        )
        assert status == 0
        assert "violations=0" in capsys.readouterr().out

    def test_huge_constant_returns(self, tmp_path, capsys, gap_budget):
        # ceil(c_tilde / gamma) = 1e301 lower-chain heads: only the stop rule
        # keeps each slot's walk short
        gap_budget(5)
        path = write_config(tmp_path, SSQ)
        assert cli.main(["domination", str(path), "--horizon", "5", "--c-tilde", "1e300"]) == 0
        assert "slots=5 violations=0" in capsys.readouterr().out

    @pytest.mark.parametrize("c_tilde", ["nan", "inf", "-inf"])
    def test_non_finite_constant_is_a_clean_error(self, tmp_path, capsys, c_tilde):
        path = write_config(tmp_path, SSQ)
        argv = ["domination", str(path), "--horizon", "10", f"--c-tilde={c_tilde}"]
        assert cli.main(argv) == 2
        assert "c_tilde must be finite" in capsys.readouterr().err

    def test_multi_queue_config_rejected(self, tmp_path):
        config = SystemConfig(
            gamma=0.1, arrivals=Constant(1), services=(Constant(1), Constant(1))
        )
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config.to_dict()))
        assert cli.main(["domination", str(cfg_path), "--horizon", "10"]) == 2


@pytest.mark.parametrize("value", [2.7, True])
@pytest.mark.parametrize("field", ["seed", "moment_orders"])
def test_fractional_or_bool_manifest_integer_rejected(field, value):
    obj = dict(TINY_MANIFEST, **{field: [1, value] if field == "moment_orders" else value})
    with pytest.raises(ConfigError, match="expected an integer"):
        cli.manifest_from_dict(obj)


def test_manifest_validation_catches_bad_plan(tmp_path):
    bad = dict(TINY_MANIFEST, plan={"warmup_slots": 0, "num_samples": 10, "thinning": 1, "replicas": 1})
    path = write_manifest(tmp_path, bad)
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2


def _with_base_service(**fields):
    """TINY_MANIFEST with `fields` set on its first base service."""
    regime = TINY_MANIFEST["regime"]
    first, *rest = regime["base_services"]
    return dict(TINY_MANIFEST, regime=dict(regime, base_services=[dict(first, **fields), *rest]))


@pytest.mark.parametrize(
    "command, text",
    [
        ("run", json.dumps(dict(TINY_MANIFEST, gammas=["abc"]))),
        ("run", json.dumps(dict(TINY_MANIFEST, gammas=0.01))),
        ("oracle-check", json.dumps(dict(SSQ.to_dict(), gamma="x"))),
        ("oracle-check", json.dumps(dict(SSQ.to_dict(), arrivals=dict(
            SSQ.arrivals.to_dict(), **{"support-point": "big"})))),
        ("run", "{not json"),
        ("oracle-check", None),
        ("oracle-check", "5"),
        ("run", json.dumps(dict(TINY_MANIFEST, plan=dict(TINY_MANIFEST["plan"], replicas=2.5)))),
        ("oracle-check", json.dumps(dict(SSQ.to_dict(), n=2))),
        ("run", json.dumps(_with_base_service(**{"success-probability": 1.5}))),
        ("run", json.dumps(_with_base_service(**{"trial-count": -2}))),
    ],
    ids=["gammas-string", "gammas-scalar", "gamma-string", "support-point-string", "not-json",
         "missing-file", "not-an-object", "replicas-fractional", "n-mismatch",
         "service-probability", "service-negative-trials"],
)
def test_malformed_input_is_a_clean_error(tmp_path, capsys, command, text):
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    extra = ["--cap", "8"] if command == "oracle-check" else ["--out", str(tmp_path / "out")]
    assert cli.main([command, str(path), *extra]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, config, flags",
    [
        ("oracle-check", replace(SSQ, gamma=-0.1), []),
        ("oracle-check", replace(SSQ, services=(Constant(-1),)), []),
        ("oracle-check", replace(SSQ, services=(BernoulliScaled(1, 1.5),)), []),
        ("oracle-check", SSQ, ["--seed", "-1"]),
        ("domination", replace(SSQ, gamma=-0.1), []),
        ("domination", SSQ, ["--seed", "-1"]),
        ("domination", SSQ, ["--horizon", "0"]),
    ],
    ids=["oracle-gamma", "oracle-negative-service", "oracle-probability", "oracle-seed",
         "domination-gamma", "domination-seed", "domination-horizon"],
)
def test_invalid_config_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, command, config, flags
):
    def no_work(*args, **kwargs):
        raise AssertionError("an invalid input reached the computation")

    monkeypatch.setattr(cli.oracle, "build_chain", no_work)
    monkeypatch.setattr(cli, "simulate_coupled_domination", no_work)
    extra = ["--cap", "8"] if command == "oracle-check" else ["--horizon", "10"]
    assert cli.main([command, str(write_config(tmp_path, config)), *extra, *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "config, plan, seed",
    [
        (replace(SSQ, gamma=-0.1), SamplingPlan(100, 1000, 1, 4), 0),
        (SSQ, SamplingPlan(0, 1000, 1, 4), 0),
        (SSQ, SamplingPlan(100, 1000, 1, 4), -1),
    ],
    ids=["gamma", "plan", "seed"],
)
def test_oracle_check_validates_before_building(monkeypatch, capsys, config, plan, seed):
    def no_work(*args, **kwargs):
        raise AssertionError("an invalid input reached the chain build")

    monkeypatch.setattr(cli.oracle, "build_chain", no_work)
    with pytest.raises(ConfigError):
        cli.oracle_check(config, cap=8, plan=plan, seed=seed)
    assert capsys.readouterr().out == ""
