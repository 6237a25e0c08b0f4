import inspect
import json
import re
from pathlib import Path

import numpy as np
import pytest

from shearmix import cli, evolve, functionals, mcsim, spectral, validation, velocity
from shearmix.evolve import load_snapshot
from shearmix.velocity import BinaryCascadeField


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


TWO_PLATEAU = {"kind": "piecewise_constant", "breakpoints": [0.0, 0.5],
               "values": [0.0, 1.0]}


class TestConfigValidation:
    def test_missing_file(self, tmp_path, capsys):
        status = cli.main(["bounds", "--config", str(tmp_path / "nope.json"),
                           "--out", str(tmp_path / "out")])
        assert status == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        status = cli.main(["bounds", "--config", str(path), "--out", str(tmp_path / "o")])
        assert status == cli.EXIT_CONFIG
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_unknown_top_level_key(self, tmp_path):
        cfg = write_config(tmp_path, {"task": "bounds", "velocity": TWO_PLATEAU,
                                      "mystery": 1})
        assert cli.main(["bounds", "--config", cfg]) == cli.EXIT_CONFIG

    def test_unknown_param_key(self, tmp_path):
        cfg = write_config(tmp_path, {"task": "bounds", "velocity": TWO_PLATEAU,
                                      "params": {"grid_m": 9}})
        assert cli.main(["bounds", "--config", cfg]) == cli.EXIT_CONFIG

    # the constructor's own refusals; an id names the fault, in the words of the
    # config layer's former checks, so that the test names stay stable
    @pytest.mark.parametrize("velocity,message", [
        pytest.param({"kind": "mystery"},
                     "bad velocity description: kind must be one of ('piecewise_constant', ",
                     id="velocity0-unknown velocity kind"),
        pytest.param({"kind": "grid"}, "missing 1 required positional argument: 'samples'",
                     id="velocity1-missing keys for velocity kind 'grid'"),
        ({"kind": "sine", "amplitude": 1.0, "frequency": 1.5},
         "frequency must be a positive integer"),
        pytest.param({"kind": "sine", "amplitude": None, "frequency": 1},
                     "bad velocity description: amplitude must be a finite number, got None",
                     id="velocity3-bad velocity description: bad values for velocity kind 'sine'"),
        # JSON's NaN and Infinity
        pytest.param({"kind": "grid", "samples": [0.0, float("nan")]},
                     "bad velocity description: samples must be finite, got nan",
                     id="velocity4-bad velocity description: non-finite values for velocity "
                        "kind 'grid': ['samples']"),
        pytest.param({"kind": "sine", "amplitude": float("inf"), "frequency": 1},
                     "amplitude must be a finite number, got inf",
                     id="velocity5-non-finite values for velocity kind 'sine': ['amplitude']"),
        pytest.param({"kind": "grid", "samples": [0.0, 1.0], "domain": [0.0, float("-inf")]},
                     "domain must be increasing and finite, got [0.0, -inf]",
                     id="velocity6-non-finite values for velocity kind 'grid': ['domain']"),
    ])
    def test_bad_velocity(self, tmp_path, capsys, velocity, message):
        cfg = write_config(tmp_path, {"task": "bounds", "velocity": velocity})
        status = cli.main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")])
        assert status == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert not (tmp_path / "o" / "manifest.json").exists()

    # a name is compared with the known ones, never hashed, so a list is refused by name
    @pytest.mark.parametrize("config,message", [
        ({"task": ["bounds"], "velocity": TWO_PLATEAU}, "task must be one of"),
        ({"task": "bounds", "velocity": {"kind": ["sine"]}},
         "bad velocity description: kind must be one of"),
    ], ids=["task", "kind"])
    def test_a_list_valued_name_is_a_config_error(self, tmp_path, capsys, config, message):
        cfg = write_config(tmp_path, config)
        status = cli.main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")])
        assert status == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err and "Traceback" not in err
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_task_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, {"task": "bounds", "velocity": TWO_PLATEAU})
        assert cli.main(["spectrum", "--config", cfg]) == cli.EXIT_CONFIG

    def test_unknown_initial(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"task": "evolve", "velocity": TWO_PLATEAU,
                                      "params": {"initial": "bogus"}})
        status = cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert status == cli.EXIT_CONFIG
        assert "initial must be" in capsys.readouterr().err
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("params,message", [
        ({"boundary": "bogus"}, "boundary must be"),
        ({"discretization": "bogus"}, "discretization must be"),
        ({"n": 8}, "n must be at least 16"),
        ({"s_points": 32}, "s_points must be at least 64"),
        ({"n": "abc"}, "n must be an integer, got 'abc'"),
        ({"n": 16.9}, "n must be an integer, got 16.9"),
    ])
    def test_bad_spectrum_params(self, tmp_path, capsys, params, message):
        cfg = write_config(tmp_path, {"task": "spectrum", "velocity": TWO_PLATEAU,
                                      "params": params})
        status = cli.main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o")])
        assert status == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("velocity,params,message", [
        (TWO_PLATEAU, {"eps_grid": [0.1, 0.6]}, "eps_grid entries must lie in (0, 0.5]"),
        (TWO_PLATEAU, {"eps_grid": [0.0]}, "eps_grid entries must lie in (0, 0.5]"),
        (TWO_PLATEAU, {"eps_grid": [-0.1]}, "eps_grid entries must lie in (0, 0.5]"),
        ({"kind": "grid", "samples": [0.0, 1.0], "domain": [0.0, 0.5]}, {},
         "field must be a torus velocity field"),
        (TWO_PLATEAU, {"grid_n": 4}, "grid_n must be at least 8"),
        (TWO_PLATEAU, {"j_points": 1}, "j_points must be at least 2"),
        (TWO_PLATEAU, {"flatness_interval": [0.5]}, "flatness_interval must be a pair"),
        (TWO_PLATEAU, {"flatness_interval": [0.6, 0.4]}, "flatness_interval must be increasing"),
        ({"kind": "piecewise_linear", "knots": [0.0, 0.5], "values": [1.0, -1.0]},
         {"flatness_interval": [0.5, 1.5]}, "flatness_interval must lie in [0, 1]"),
        (TWO_PLATEAU, {"eps_grid": ["0.1"]}, "eps_grid must be finite, got '0.1'"),
        (TWO_PLATEAU, {"eps_grid": [True]}, "eps_grid must be finite, got True"),
        (TWO_PLATEAU, {"eps_grid": 0.1}, "eps_grid must be a non-empty list of numbers, got 0.1"),
        (TWO_PLATEAU, {"eps_grid": []}, "eps_grid must be a non-empty list of numbers, got []"),
    ])
    def test_bad_bounds_params(self, tmp_path, capsys, velocity, params, message):
        cfg = write_config(tmp_path, {"task": "bounds", "velocity": velocity,
                                      "params": params})
        status = cli.main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")])
        assert status == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o" / "manifest.json").exists()

    # every parameter of every task, each given a value that keeps the run small
    PARAMS = {
        "bounds": {"grid_n": 64, "eps_grid": [0.1], "flatness_interval": [0.0, 1.0],
                   "j_points": 9},
        "spectrum": {"k": 2, "boundary": "periodic", "n": 16, "s_points": 64,
                     "discretization": "fd2"},
        "evolve": {"t_end": 0.5, "samples": 3, "k_max": 1, "nx": 16, "ny": 5,
                   "initial": "cos_xy", "snapshots": 2},
        "simulate": {"start": [0.25, 0.25], "t_end": 0.05, "dt": 0.01, "n_paths": 100,
                     "bins": 4, "y_integrator": "trapezoid", "kill_interval": [0.1, 0.9]},
        "validate": {"criteria": [1]},
    }

    @pytest.mark.parametrize("task,key", [(task, key) for task in cli._TASKS
                                          for key in sorted(cli._TASKS[task][1])])
    def test_null_is_the_default(self, tmp_path, monkeypatch, task, key):
        # the other keys keep their small values; the key under test takes its default
        monkeypatch.setattr(validation, "CRITERIA", [(1, "passes", lambda: ({}, True))])
        artifacts = []
        for name, value in (("absent", {}), ("null", {key: None})):
            params = {k: v for k, v in self.PARAMS[task].items() if k != key}
            cfg = write_config(tmp_path, {"task": task, "velocity": TWO_PLATEAU,
                                          "params": dict(params, **value)}, name=f"{name}.json")
            out = tmp_path / f"out-{name}"
            assert cli.main([task, "--config", cfg, "--out", str(out)]) == 0
            artifacts.append(json.loads((out / "manifest.json").read_text())["artifacts"])
        assert artifacts[0] == artifacts[1]

    SIMULATE = {"start": [0.25, 0.25], "t_end": 0.05, "dt": 0.01, "n_paths": 100,
                "bins": 4}

    @pytest.mark.parametrize("seed,flag,message", [
        (1.5, None, "seed must be an integer, got 1.5"),
        (True, None, "seed must be an integer, got True"),
        ("abc", None, "seed must be an integer, got 'abc'"),
        (-1, None, "seed must be nonnegative, got -1"),
        (0, "-1", "seed must be nonnegative, got -1"),
        (0, "abc", "argument --seed: invalid int value: 'abc'"),
        (0, "1.5", "argument --seed: invalid int value: '1.5'"),
        # a Philox key word: 2**64 would alias seed 0
        (2**64, None, "seed must be below 2**64, got 18446744073709551616"),
    ])
    def test_bad_seed(self, tmp_path, capsys, seed, flag, message):
        cfg = write_config(tmp_path, {"task": "simulate", "velocity": TWO_PLATEAU,
                                      "seed": seed, "params": self.SIMULATE})
        argv = ["simulate", "--config", cfg, "--out", str(tmp_path / "o")]
        status = cli.main(argv + ([] if flag is None else ["--seed", flag]))
        assert status == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("flags,message", [
        (["--workers", "x"], "argument --workers: invalid int value: 'x'"),
        (None, "the following arguments are required: --config"),
    ])
    def test_malformed_command_line(self, tmp_path, capsys, flags, message):
        # argparse's own status 2 would read as a validation-suite failure
        cfg = write_config(tmp_path, {"task": "simulate", "velocity": TWO_PLATEAU,
                                      "params": self.SIMULATE})
        argv = ["simulate"] + ([] if flags is None else ["--config", cfg] + flags)
        assert cli.main(argv + ["--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert not (tmp_path / "o" / "manifest.json").exists()
    HALF_DOMAIN = {"kind": "grid", "samples": [0.0, 1.0], "domain": [0.0, 0.5]}

    @pytest.mark.parametrize("velocity,params,message", [
        (TWO_PLATEAU, {"geometry": "plane"}, "unknown params"),
        pytest.param(TWO_PLATEAU, {"y_integrator": "midpoint"},
                     "y_integrator must be one of ('left', 'trapezoid'), got 'midpoint'",
                     id="velocity1-params1-unknown y integrator"),
        (TWO_PLATEAU, {"dt": 0}, "dt must be positive, got 0.0"),
        (TWO_PLATEAU, {"n_paths": 0}, "n_paths must be at least 1, got 0"),
        (TWO_PLATEAU, {"start": [0.5]}, "start must be a pair of numbers"),
        (TWO_PLATEAU, {"kill_interval": [0.5]}, "kill_interval must be a pair of numbers"),
        (HALF_DOMAIN, {}, "field must be a torus velocity field"),
        (TWO_PLATEAU, {"n_paths": 1.7}, "n_paths must be an integer, got 1.7"),
        (TWO_PLATEAU, {"bins": True}, "bins must be an integer, got True"),
        (TWO_PLATEAU, {"dt": "0.01"}, "dt must be a finite number, got '0.01'"),
        (TWO_PLATEAU, {"start": [float("nan"), 0.1]}, "start must be a pair of numbers"),
        (TWO_PLATEAU, {"start": [True, False]}, "start must be a pair of numbers"),
        (TWO_PLATEAU, {"start": ["0.1", 0.2]}, "start must be a pair of numbers"),
        (TWO_PLATEAU, {"kill_interval": [0.75, 0.25]}, "kill_interval must be increasing"),
        (TWO_PLATEAU, {"kill_interval": [0.5, 0.5]}, "kill_interval must be increasing"),
        (TWO_PLATEAU, {"kill_interval": [0.2, float("inf")]},
         "kill_interval must be a pair of numbers"),
        # an integer beyond the largest float is refused, not a numeric failure
        (TWO_PLATEAU, {"t_end": 10**400}, "t_end must be a finite number, got 1000"),
    ])
    def test_bad_simulate_params(self, tmp_path, capsys, velocity, params, message):
        cfg = write_config(tmp_path, {"task": "simulate", "velocity": velocity,
                                      "params": dict(self.SIMULATE, **params)})
        status = cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert status == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("params,message", [
        ({"nx": 8}, "nx must be at least 16"),
        pytest.param({"ny": 5, "k_max": 3}, "k_max must be at most 2, got 3: ny = 5 aliases",
                     id="params1-aliases modes"),
        ({"t_end": 0}, "t_end must be positive"),
        ({"samples": 0}, "samples must be at least 1"),
        # the snapshot count is the n_samples of Evolution.trajectory
        ({"snapshots": -1}, "n_samples must be at least 1, got -1"),
        ({"k_max": 1.5}, "k_max must be an integer"),
        ({"t_end": "abc"}, "t_end must be a finite number, got 'abc'"),
        ({"t_end": "2.0"}, "t_end must be a finite number, got '2.0'"),
        ({"t_end": False}, "t_end must be a finite number, got False"),
    ])
    def test_bad_evolve_params(self, tmp_path, capsys, params, message):
        base = {"t_end": 0.5, "samples": 3, "nx": 16, "ny": 5}
        cfg = write_config(tmp_path, {"task": "evolve", "velocity": TWO_PLATEAU,
                                      "params": dict(base, **params)})
        status = cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert status == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o" / "manifest.json").exists()

    def test_evolve_needs_torus_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"task": "evolve", "velocity": self.HALF_DOMAIN,
                                      "params": {"t_end": 0.5, "samples": 3, "nx": 16,
                                                 "ny": 5}})
        status = cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert status == cli.EXIT_CONFIG
        assert "field_v must be a torus velocity field" in capsys.readouterr().err
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("criteria", [[99], [], "1", ["1"], [1, 2.5], {"1": 1}, [True]])
    def test_bad_validate_criteria(self, tmp_path, capsys, criteria):
        # the config's JSON type refuses what is not a non-empty list, and the
        # task hands the list to validation.run_all, which refuses its bad ids
        cfg = write_config(tmp_path, {"task": "validate", "params": {"criteria": criteria}})
        status = cli.main(["validate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert status == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        if isinstance(criteria, list) and criteria:
            assert "ids must be " in err and repr(criteria[-1]) in err
        else:
            assert f"criteria must be a non-empty list of numbers, got {criteria!r}" in err
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("task,owner,name,params", [
        ("bounds", functionals, "compute_bounds_report", {}),
        ("spectrum", cli, "resolvent_gap", {"n": 48, "s_points": 64}),
        ("evolve", evolve, "relax_trace", {"t_end": 0.5, "samples": 3, "nx": 16, "ny": 5}),
        ("simulate", mcsim, "simulate", SIMULATE),
    ], ids=["bounds", "spectrum", "evolve", "simulate"])
    @pytest.mark.parametrize("error,status,message", [
        (ValueError("x"), cli.EXIT_CONFIG, "config error: x\n"),
        # a LinAlgError is a ValueError, and stays a numeric failure
        (np.linalg.LinAlgError("x"), cli.EXIT_NUMERIC, "numeric failure: x\n"),
    ], ids=["ValueError", "LinAlgError"])
    def test_library_refusal(self, tmp_path, capsys, monkeypatch, task, owner, name, params,
                             error, status, message):
        def refuse(*args, **kwargs):
            raise error

        monkeypatch.setattr(owner, name, refuse)
        cfg = write_config(tmp_path, {"task": task, "velocity": TWO_PLATEAU, "params": params})
        assert cli.main([task, "--config", cfg, "--out", str(tmp_path / "o")]) == status
        assert capsys.readouterr().err == message
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("task,params", [
        ("bounds", {"grid_n": 64, "j_points": 9}),
        ("spectrum", {"n": 16, "s_points": 64}),
        ("evolve", {"t_end": 0.5, "samples": 3, "nx": 16, "ny": 5}),
        ("simulate", SIMULATE),
    ])
    def test_one_field_build_per_run(self, tmp_path, monkeypatch, task, params):
        built = []

        def counted(config):
            built.append(config)
            return velocity.field_from_config(config)

        monkeypatch.setattr(cli, "field_from_config", counted)
        cfg = write_config(tmp_path, {"task": task, "velocity": TWO_PLATEAU, "params": params})
        assert cli.main([task, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert built == [TWO_PLATEAU]

    def test_workers_key_rejected(self, tmp_path, capsys):
        # the worker count is the --workers flag alone
        cfg = write_config(tmp_path, {"task": "bounds", "velocity": TWO_PLATEAU, "workers": 2})
        assert cli.main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) \
            == cli.EXIT_CONFIG
        assert "unknown config keys: ['workers']" in capsys.readouterr().err


def _doc_block(header):
    """{name: item text} of the `name: items` lines under `header` in the CLI
    docstring; a line indented past the names continues the item text."""
    block = cli.__doc__.split(header, 1)[1].split("\n\n")[1]
    entries = {}
    for line in block.splitlines():
        match = re.match(r"    (\w+):\s+(.*)", line)
        if match:
            name = match[1]
            entries[name] = match[2]
        else:
            entries[name] += " " + line.strip()
    return entries


def _doc_items(items):
    """First identifier of each comma-separated item at bracket depth 0, with its
    `?` if it has one; `(` and `[` open and `)` and `]` close, as interval
    notation such as (0, 1] mixes them."""
    if items.startswith("(none"):
        return set()
    names, depth, start = set(), 0, 0
    for i, char in enumerate(items + ","):
        depth += (char in "([") - (char in ")]")
        if char == "," and depth == 0:
            names.add(re.match(r"\s*([A-Za-z_]\w*\??)", items[start:i])[1])
            start = i + 1
    return names


def _doc_names(items):
    """The names of `_doc_items`, without their `?`."""
    return {name.rstrip("?") for name in _doc_items(items)}


class TestDocumentedSchema:
    """The schema blocks of the CLI docstring name exactly what the code takes."""

    def test_velocity_kinds(self):
        doc = _doc_block("Velocity kinds and their parameters:")
        assert set(doc) == set(velocity._CONSTRUCTORS)
        for kind, items in doc.items():
            params = inspect.signature(velocity._CONSTRUCTORS[kind]).parameters
            assert _doc_names(items) == set(params), kind

    @pytest.mark.parametrize("kind", sorted(velocity._CONSTRUCTORS))
    def test_velocity_kinds_mark_the_defaults(self, kind):
        # `?` on exactly the parameters that the constructor gives a default
        items = _doc_block("Velocity kinds and their parameters:")[kind]
        params = inspect.signature(velocity._CONSTRUCTORS[kind]).parameters.values()
        assert _doc_items(items) == {p.name + "?" * (p.default is not p.empty) for p in params}

    def test_task_params(self):
        doc = _doc_block("Task parameter blocks (all optional, with defaults):")
        assert set(doc) == set(cli._TASKS)
        for task, items in doc.items():
            assert _doc_names(items) == set(cli._TASKS[task][1]), task


class TestBoundsTask:
    def test_two_plateau_golden(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "task": "bounds", "velocity": TWO_PLATEAU,
            "params": {"grid_n": 128, "j_points": 17},
        })
        assert cli.main(["bounds", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        bounds = json.loads((out / "bounds.json").read_text())
        assert bounds["plateau_time"] == pytest.approx(1.4375, abs=1e-12)
        manifest = json.loads((out / "manifest.json").read_text())
        names = [a["name"] for a in manifest["artifacts"]]
        assert "bounds.json" in names

    def test_readme_example_adds_no_default(self, tmp_path):
        # the README's bounds config passes grid_n alone; every other default is the library's
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("Example config, computing every bound", 1)[1]
        config = json.loads(example.split("```json\n", 1)[1].split("```", 1)[0])
        out = tmp_path / "out"
        assert cli.main(["bounds", "--config", write_config(tmp_path, config),
                         "--out", str(out)]) == cli.EXIT_OK
        field = velocity.field_from_config(config["velocity"])
        report = functionals.compute_bounds_report(field, grid_n=512)
        assert (out / "bounds.json").read_text() == json.dumps(
            report.to_json_dict(), indent=1, sort_keys=True) + "\n"

    def test_manifest_digests_reproducible(self, tmp_path):
        digests = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            cfg = write_config(tmp_path, {
                "task": "bounds", "velocity": TWO_PLATEAU,
                "params": {"grid_n": 64, "j_points": 9},
            }, name=f"cfg-{tag}.json")
            assert cli.main(["bounds", "--config", cfg, "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            digests.append(manifest["artifacts"][0]["sha256"])
        assert digests[0] == digests[1]

    def test_numeric_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        def failed(*args, **kwargs):
            raise ArithmeticError("correlation LP failed: infeasible")

        monkeypatch.setattr(functionals, "lipschitz_correlation", failed)
        cfg = write_config(tmp_path, {"task": "bounds", "velocity": TWO_PLATEAU})
        out = tmp_path / "out"
        assert cli.main(["bounds", "--config", cfg, "--out", str(out)]) == cli.EXIT_NUMERIC
        assert capsys.readouterr().err == "numeric failure: correlation LP failed: infeasible\n"
        assert not (out / "manifest.json").exists()


class TestSpectrumTask:
    def test_sweep_artifacts(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "task": "spectrum", "velocity": TWO_PLATEAU,
            "params": {"k": 1, "n": 48, "s_points": 64},
        })
        assert cli.main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "spectral_summary.json").read_text())
        assert summary["r_lambda1"] > 0.0
        sweep = (out / "sweep.csv").read_text().splitlines()
        assert sweep[0] == "s,sigma_min"
        assert len(sweep) == 65

    # the keys of spectral_summary.json and of its meta that `report` reads, and
    # that the benchmark's traced run reads (perfbench/tracing.py, _sweep_facts)
    READ_KEYS = {"r_lambda1", "s_argmin", "meta"}
    READ_META_KEYS = {"boundary", "k", "s_points", "window_extensions", "refinement_warning"}

    def test_summary_keeps_the_keys_its_readers_read(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {"task": "spectrum", "velocity": TWO_PLATEAU,
                                      "params": {"n": 16, "s_points": 64}})
        assert cli.main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "spectral_summary.json").read_text())
        assert self.READ_KEYS - set(summary) == set()
        assert self.READ_META_KEYS - set(summary["meta"]) == set()


class TestEvolveTask:
    def test_decay_and_snapshots(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "task": "evolve", "velocity": {"kind": "sine", "amplitude": 1.0,
                                           "frequency": 1, "phase": 1.5707963267948966},
            "params": {"t_end": 2.0, "samples": 5, "nx": 32, "ny": 9,
                       "initial": "cos_y", "snapshots": 2},
        })
        assert cli.main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "decay.csv").read_text().strip().splitlines()
        assert len(rows) == 6
        assert all(r.rsplit(",", 1)[1] == "0" for r in rows[1:])
        data, sidecar = load_snapshot(out / "field-001.f64")
        assert data.shape == tuple(sidecar["shape"]) == (32, 9)

    def test_snapshots_hold_only_k_max_modes(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "task": "evolve", "velocity": TWO_PLATEAU, "seed": 3,
            "params": {"t_end": 0.5, "samples": 3, "nx": 16, "ny": 9, "k_max": 1,
                       "initial": "random", "snapshots": 2},
        })
        assert cli.main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        for name in ("field-000.f64", "field-001.f64"):
            data, _ = load_snapshot(out / name)
            modes = np.abs(np.fft.fft(data, axis=1))  # column j holds mode j mod ny
            assert modes[:, 2:-1].max() < 1e-12 * modes.max()

    @pytest.mark.parametrize("snapshots,expm_calls", [(3, 5), (4, 10)])
    def test_one_operator_per_mode(self, tmp_path, monkeypatch, snapshots, expm_calls):
        # trace step t_end/16; snapshot step t_end/2 = 8 trace steps (squared from the
        # cached propagator), or t_end/3, which is not a power-of-two multiple (expm)
        calls = {"make_operator": 0, "expm": 0}

        def counted(name, fun):
            def run(*args, **kwargs):
                calls[name] += 1
                return fun(*args, **kwargs)
            return run

        monkeypatch.setattr(evolve, "make_operator", counted("make_operator",
                                                             evolve.make_operator))
        monkeypatch.setattr(spectral, "_expm", counted("expm", spectral._expm))
        cfg = write_config(tmp_path, {
            "task": "evolve", "velocity": TWO_PLATEAU,
            "params": {"nx": 32, "ny": 9, "samples": 17, "snapshots": snapshots},
        })
        assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert calls == {"make_operator": 5, "expm": expm_calls}  # k_max = 4


class TestSimulateTask:
    def test_histogram_artifacts(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "task": "simulate", "velocity": TWO_PLATEAU, "seed": 5,
            "params": {"start": [0.25, 0.25], "t_end": 0.25, "dt": 0.01,
                       "n_paths": 2000, "bins": 8},
        })
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        meta = json.loads((out / "histogram-meta.json").read_text())
        assert meta["seed"] == 5
        assert meta["velocity"]["kind"] == "piecewise_constant"
        rows = (out / "histogram.csv").read_text().strip().splitlines()[1:]
        assert sum(int(r.split(",")[2]) for r in rows) == 2000

    @pytest.mark.parametrize("c, truncated", [(1e-9, True), (1.0, False)])
    def test_truncated_cascade_is_recorded(self, tmp_path, c, truncated):
        # the keys appear only for a cut cascade, so other metadata keeps its bytes
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "task": "simulate", "velocity": {"kind": "binary_cascade", "c": c},
            "params": {"start": [0.25, 0.25], "t_end": 0.05, "dt": 0.01,
                       "n_paths": 200, "bins": 4},
        })
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        meta = json.loads((out / "histogram-meta.json").read_text())
        if truncated:
            assert meta["truncated"] is True
            assert meta["first_dropped"] == BinaryCascadeField(c).first_dropped > 1e-8
        else:
            assert "truncated" not in meta and "first_dropped" not in meta

    def test_null_seed_is_zero(self, tmp_path):
        outs = []
        for name, seed in (("zero", {"seed": 0}), ("null", {"seed": None})):
            cfg = write_config(tmp_path, dict(seed, task="simulate", velocity=TWO_PLATEAU,
                                              params=TestConfigValidation.SIMULATE),
                               name=f"{name}.json")
            out = tmp_path / name
            assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
            assert json.loads((out / "histogram-meta.json").read_text())["seed"] == 0
            outs.append((out / "histogram.csv").read_text())
        assert outs[0] == outs[1]

    def test_seed_override_changes_output(self, tmp_path):
        outs = []
        for seed in (1, 2):
            out = tmp_path / f"out{seed}"
            cfg = write_config(tmp_path, {
                "task": "simulate", "velocity": TWO_PLATEAU,
                "params": {"start": [0.25, 0.25], "t_end": 0.25, "dt": 0.01,
                           "n_paths": 1000, "bins": 4},
            }, name=f"c{seed}.json")
            assert cli.main(["simulate", "--config", cfg, "--out", str(out),
                             "--seed", str(seed)]) == 0
            outs.append((out / "histogram.csv").read_text())
        assert outs[0] != outs[1]


class TestValidateTask:
    def test_subset_writes_table(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {"task": "validate",
                                      "params": {"criteria": [1, 2]}})
        status = cli.main(["validate", "--config", cfg, "--out", str(out)])
        assert status == cli.EXIT_OK
        text = (out / "validation.txt").read_text()
        assert "criterion  1" in text and "criterion  2" in text
        payload = json.loads((out / "validation.json").read_text())
        assert all(entry["passed"] for entry in payload)
        assert "[PASS]" in capsys.readouterr().out

    def test_failing_criterion_exits_2(self, tmp_path, monkeypatch):
        monkeypatch.setattr(validation, "CRITERIA", [
            (1, "passes", lambda: ({}, True)), (2, "fails", lambda: ({"x": 1.0}, False))])
        out = tmp_path / "out"
        assert cli.main(["validate", "--out", str(out)]) == cli.EXIT_VALIDATION
        assert (out / "validation.txt").read_text() == (
            "[PASS] criterion  1: passes\n[FAIL] criterion  2: fails\n")
        payload = json.loads((out / "validation.json").read_text())
        assert [entry["passed"] for entry in payload] == [True, False]
        assert (out / "manifest.json").exists()

    def test_workers_reach_monte_carlo_criteria(self, tmp_path, monkeypatch):
        seen = {}

        def criterion(cid):
            def run(**kwargs):
                seen[cid] = kwargs
                return {}, True
            return run

        monkeypatch.setattr(validation, "CRITERIA",
                            [(cid, f"c{cid}", criterion(cid)) for cid in (4, 8, 9, 10)])
        assert cli.main(["validate", "--out", str(tmp_path / "a"), "--workers", "1"]) == 0
        assert seen == {4: {}, 8: {"workers": 1}, 9: {"workers": 1}, 10: {"workers": 1}}
        assert cli.main(["validate", "--out", str(tmp_path / "b")]) == 0
        assert seen[10] == {"workers": 2}
        assert cli.main(["validate", "--out", str(tmp_path / "c"), "--workers", "0"]) \
            == cli.EXIT_CONFIG


class TestReportTask:
    def test_empty_inputs_warns(self, tmp_path, capsys):
        out = tmp_path / "empty"
        status = cli.main(["report", "--out", str(out)])
        assert status == cli.EXIT_OK
        assert "warning" in capsys.readouterr().out

    def test_summarizes_bounds_and_spectrum(self, tmp_path):
        out = tmp_path / "out"
        for task, params in (("bounds", {"grid_n": 64, "j_points": 9}),
                             ("spectrum", {"k": 1, "n": 48, "s_points": 64})):
            cfg = write_config(tmp_path, {"task": task, "velocity": TWO_PLATEAU,
                                          "params": params}, name=f"{task}.json")
            assert cli.main([task, "--config", cfg, "--out", str(out)]) == 0
        assert cli.main(["report", "--out", str(out)]) == 0
        text = (out / "report.txt").read_text()
        assert "gap >= correlation bound: PASS" in text

    def test_summarizes_decay_trace(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {
            "task": "evolve", "velocity": TWO_PLATEAU,
            "params": {"t_end": 1.0, "samples": 5, "nx": 16, "ny": 5},
        })
        assert cli.main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        assert cli.main(["report", "--out", str(out)]) == 0
        lines = (out / "report.txt").read_text().splitlines()
        assert lines == ["decay trace", "  samples: 5, envelope violations: 0",
                         "missing inputs: bounds.json, spectral_summary.json"]
