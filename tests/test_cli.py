"""Tests for the command-line interface."""

import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    @pytest.mark.parametrize(
        "argv,dest,value,default",
        [
            (["--jobs", "3"], "jobs", 3, 1),
            (["--backend", "remote"], "backend", "remote", None),
            (["--lease-timeout", "5"], "lease_timeout", 5.0, 30.0),
            (["--worker-grace", "7"], "worker_grace", 7.0, 60.0),
            (["--profile"], "profile", True, False),
            (["--no-native"], "no_native", True, False),
            (["--eval-seed-policy", "content"], "eval_seed_policy",
             "content", "positional"),
        ],
        ids=[
            "jobs", "backend", "lease-timeout", "worker-grace",
            "profile", "no-native", "eval-seed-policy",
        ],
    )
    def test_sweep_and_serve_share_flags(self, argv, dest, value, default):
        parser = build_parser()
        for command in ("sweep", "serve"):
            assert getattr(parser.parse_args([command]), dest) == default
            assert getattr(parser.parse_args([command, *argv]), dest) == value

    def test_worker_takes_a_coordinator_url_only(self, capsys):
        parser = build_parser()
        args = parser.parse_args(["worker", "http://127.0.0.1:1"])
        assert args.coordinator == "http://127.0.0.1:1"
        for argv in (["worker"], ["worker", "--listen", "9400"]):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)


class TestGenerate:
    def test_json(self, tmp_path, capsys):
        out = tmp_path / "wf.json"
        assert main(
            ["generate", "--family", "genome", "--ntasks", "50", "--out", str(out)]
        ) == 0
        assert out.exists()
        from repro.generators.serialization import load_workflow

        assert load_workflow(out).n_tasks > 0

    def test_dax(self, tmp_path):
        out = tmp_path / "wf.dax"
        assert main(
            ["generate", "--family", "ligo", "--ntasks", "50", "--out", str(out)]
        ) == 0
        from repro.generators.dax import read_dax

        assert read_dax(out).n_tasks > 0

    def test_bad_extension(self, tmp_path, capsys):
        out = tmp_path / "wf.yaml"
        assert main(
            ["generate", "--family", "genome", "--out", str(out)]
        ) == 2
        err = capsys.readouterr().err
        assert "supported formats" in err
        assert ".dax" in err and ".json" in err
        assert not out.exists()

    def test_unknown_family_exit_2(self, tmp_path, capsys):
        out = tmp_path / "wf.json"
        assert main(
            ["generate", "--family", "nonesuch", "--out", str(out)]
        ) == 2
        err = capsys.readouterr().err
        assert "unknown workflow family 'nonesuch'" in err
        assert "genome" in err and "montage" in err  # lists the registry
        assert "Traceback" not in err


class TestEvaluate:
    def test_prints_summary(self, capsys):
        rc = main(
            [
                "evaluate",
                "--family",
                "genome",
                "--ntasks",
                "50",
                "--processors",
                "5",
                "--pfail",
                "0.001",
                "--ccr",
                "0.01",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "E[makespan]" in out
        assert "all/some=" in out

    def test_unknown_family_exit_2(self, capsys):
        assert main(["evaluate", "--family", "nonesuch"]) == 2
        err = capsys.readouterr().err
        assert "unknown workflow family" in err
        assert "ligo" in err
        assert "Traceback" not in err

    def test_dax_workflow(self, capsys):
        rc = main(
            [
                "evaluate",
                "--dax",
                "examples/diamond.dax",
                "--processors",
                "3",
                "--pfail",
                "0.01",
                "--ccr",
                "0.01",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "diamond" in out and "E[makespan]" in out

    def test_family_and_dax_mutually_exclusive(self, capsys):
        assert main(
            ["evaluate", "--family", "genome", "--dax", "examples/diamond.dax"]
        ) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_neither_family_nor_dax(self, capsys):
        assert main(["evaluate"]) == 2
        assert "--family or --dax" in capsys.readouterr().err

    def test_missing_dax_file(self, tmp_path, capsys):
        assert main(["evaluate", "--dax", str(tmp_path / "no.dax")]) == 2
        err = capsys.readouterr().err
        assert "cannot load" in err and "Traceback" not in err

    def test_bad_dax_suffix(self, tmp_path, capsys):
        path = tmp_path / "wf.yaml"
        path.write_text("x")
        assert main(["evaluate", "--dax", str(path)]) == 2
        assert "supported formats" in capsys.readouterr().err

    def test_ntasks_with_dax_rejected(self, capsys):
        assert main(
            ["evaluate", "--dax", "examples/diamond.dax", "--ntasks", "50"]
        ) == 2
        assert "--ntasks cannot be combined" in capsys.readouterr().err

    def test_unknown_method_exit_2_before_generating(self, monkeypatch, capsys):
        """One line naming the registered methods, worded as the sweep
        validator's, and no workflow is generated first."""

        def generate(*args, **kwargs):
            raise AssertionError("generated a workflow for a bogus method")

        monkeypatch.setattr("repro.generators.generate", generate)
        assert main(
            ["evaluate", "--family", "genome", "--ntasks", "20",
             "--processors", "2", "--method", "bogus"]
        ) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert main(TestSweep.BASE + ["--method", "bogus"]) == 2
        assert err == capsys.readouterr().err.split(": ", 1)[1]


class TestMethods:
    def test_lists_registered_evaluators(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        for name in ("montecarlo", "dodin", "normal", "pathapprox", "exact"):
            assert name in out
        assert "stochastic" in out and "deterministic" in out
        # declared options surface, replacing the error-path-only
        # discoverability of the old inspect cache
        assert "trials=100000" in out and "k=None" in out

    def test_json_shape(self, capsys):
        import json

        assert main(["methods", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["montecarlo"]["deterministic"] is False
        option_names = [o["name"] for o in payload["pathapprox"]["options"]]
        assert option_names == ["k", "max_atoms", "factor_common", "rtol"]


class TestSweep:
    BASE = [
        "sweep",
        "--family",
        "genome",
        "--sizes",
        "50",
        "--processors",
        "3",
        "--pfails",
        "0.001",
        "--ccrs",
        "0.001",
        "0.01",
        "--quiet",
    ]

    def test_runs_and_prints_table(self, capsys):
        assert main(self.BASE) == 0
        out = capsys.readouterr().out
        assert "all/some" in out and "genome" in out

    def test_writes_jsonl(self, tmp_path, capsys):
        out_path = tmp_path / "records.jsonl"
        assert main(self.BASE + ["--out", str(out_path)]) == 0
        from repro.engine.records import records_from_jsonl

        records = records_from_jsonl(out_path)
        assert len(records) == 2
        assert {r.ccr for r in records} == {0.001, 0.01}

    def test_writes_csv(self, tmp_path):
        out_path = tmp_path / "records.csv"
        assert main(self.BASE + ["--out", str(out_path)]) == 0
        assert out_path.read_text().startswith("family,")

    def test_bad_records_extension(self, tmp_path):
        assert main(self.BASE + ["--out", str(tmp_path / "r.yaml")]) == 2

    def test_missing_output_directory(self, tmp_path):
        missing = tmp_path / "nope" / "r.jsonl"
        assert main(self.BASE + ["--out", str(missing)]) == 2

    def test_conflicting_ccr_flags(self):
        assert main(self.BASE + ["--ccr-grid", "0.001", "0.1", "3"]) == 2

    def test_invalid_ccr_grid_exits_2(self, capsys):
        args = self.BASE[: self.BASE.index("--ccrs")] + ["--quiet"]
        assert main(args + ["--ccr-grid", "0", "1", "3"]) == 2
        assert "invalid sweep grid" in capsys.readouterr().err

    def test_jobs_flag_identical_records(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(self.BASE + ["--out", str(a)]) == 0
        assert main(self.BASE + ["--jobs", "2", "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_no_batch_eval_identical_records(self, tmp_path, per_cell):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(self.BASE + ["--out", str(a)]) == 0
        per_cell("pathapprox")
        assert main(self.BASE + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_ccr_grid_default(self, capsys):
        args = self.BASE[: self.BASE.index("--ccrs")] + ["--quiet"]
        assert main(args + ["--ccr-grid", "0.001", "0.1", "3"]) == 0
        out = capsys.readouterr().out
        assert "genome" in out

    def test_unknown_family_exit_2(self, capsys):
        assert main(["sweep", "--family", "nonesuch", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "unknown workflow family" in err and "Traceback" not in err

    def test_unknown_method_exit_2_with_the_spec_message(self, tmp_path, capsys):
        """sweep and submit refuse a bogus method with one line carrying
        SweepSpec's message, before any evaluation."""
        assert main(self.BASE + ["--method", "bogus"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("invalid sweep grid: unknown method 'bogus'")
        assert main(
            ["submit", "--family", "genome", "--method", "bogus", "--local",
             "--store", str(tmp_path / "s.db")]
        ) == 2
        submit_err = capsys.readouterr().err
        assert submit_err.count("\n") == 1
        assert submit_err.split(": ", 1)[1] == err.split(": ", 1)[1]

    def test_remote_backend_prints_coordinator_before_blocking(
        self, tmp_path
    ):
        """`sweep --backend remote` flushes its coordinator URL while it
        waits on the fleet, even into a pipe, so a script can start
        `repro worker URL`; the records match the serial sweep's."""
        import os
        import re
        import subprocess
        import sys
        import threading

        from repro.engine.backends.worker import WorkerLoop

        remote, serial = tmp_path / "remote.jsonl", tmp_path / "serial.jsonl"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        env.pop("PYTHONUNBUFFERED", None)  # a pipe stays block-buffered
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *self.BASE,
             "--backend", "remote", "--worker-grace", "300",
             "--out", str(remote)],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        lines: list = []
        reader = threading.Thread(
            target=lambda: lines.append(proc.stdout.readline()), daemon=True
        )
        reader.start()
        worker = None
        try:
            reader.join(timeout=60)
            assert lines, "no coordinator line while the sweep waits"
            url = re.search(r"coordinator at (http://\S+)", lines[0]).group(1)
            worker = WorkerLoop(url, poll_interval=0.02).start()
            assert proc.wait(timeout=120) == 0
        finally:
            if worker is not None:
                worker.stop()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        assert main(self.BASE + ["--out", str(serial)]) == 0
        assert remote.read_bytes() == serial.read_bytes()


class TestSweepDax:
    BASE = [
        "sweep",
        "--dax",
        "examples/diamond.dax",
        "--processors",
        "2",
        "3",
        "--pfails",
        "0.01",
        "--ccrs",
        "0.01",
        "0.1",
        "--quiet",
    ]

    def test_sweeps_external_workflow(self, tmp_path, capsys):
        out_path = tmp_path / "dax.jsonl"
        assert main(self.BASE + ["--out", str(out_path)]) == 0
        from repro.engine.records import records_from_jsonl
        from repro.workloads import load_source

        records = records_from_jsonl(out_path)
        assert len(records) == 4
        family = load_source("examples/diamond.dax").spec_family
        assert all(r.family == family for r in records)
        assert all(r.ntasks == 8 for r in records)

    def test_jobs_and_batch_eval_bit_identical(self, tmp_path, per_cell):
        a, b, c = (tmp_path / n for n in ("a.jsonl", "b.jsonl", "c.jsonl"))
        assert main(self.BASE + ["--out", str(a)]) == 0
        assert main(self.BASE + ["--jobs", "2", "--out", str(b)]) == 0
        per_cell("pathapprox")
        assert main(self.BASE + ["--out", str(c)]) == 0
        assert a.read_text() == b.read_text() == c.read_text()

    def test_family_and_dax_mutually_exclusive(self, capsys):
        assert main(self.BASE + ["--family", "genome"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_sizes_with_dax_rejected(self, capsys):
        assert main(self.BASE + ["--sizes", "50"]) == 2
        assert "task count" in capsys.readouterr().err

    def test_neither_family_nor_dax(self, capsys):
        assert main(["sweep", "--quiet"]) == 2
        assert "--family or --dax" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "pattern, runtime, message",
        [
            (r'runtime="40.0"', 'runtime="inf"', "finite"),
            (r'runtime="[^"]*"', 'runtime="0.0"', "positive total task weight"),
        ],
        ids=["infinite-runtime", "zero-total-weight"],
    )
    def test_out_of_domain_workflow_exit_2_one_line(
        self, tmp_path, capsys, pattern, runtime, message
    ):
        """A workflow no cell can price is refused where it is loaded,
        not by a traceback from inside the sweep."""
        path = tmp_path / "edited.dax"
        path.write_text(
            re.sub(pattern, runtime, Path("examples/diamond.dax").read_text())
        )
        argv = [str(path) if a == "examples/diamond.dax" else a for a in self.BASE]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"cannot load {path}:") and message in err


    @pytest.mark.parametrize(
        "command",
        [
            ["sweep", "--processors", "2", "--pfails", "0.01", "--ccrs",
             "0.01", "--quiet"],
            ["evaluate", "--processors", "2"],
            ["submit", "--processors", "2", "--local"],
        ],
        ids=["sweep", "evaluate", "submit"],
    )
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda body: body.pop("tasks"), "'tasks' must be a list"),
            (
                lambda body: body["tasks"][0].update(weight=True),
                "weight must be a number",
            ),
            (
                lambda body: next(
                    f for f in body["files"] if f["consumers"] == ["b"]
                ).update(consumers="b"),
                "consumers must be a list of strings",
            ),
        ],
        ids=["missing-tasks", "bool-weight", "string-consumers"],
    )
    def test_malformed_json_workflow_exit_2_one_line(
        self, tmp_path, capsys, command, edit, message
    ):
        """A repro-workflow-v1 body of the wrong shape is refused where it
        is loaded: no traceback, and no silent coercion (a bool weight
        used to load as 1.0, a string of consumers one per character)."""
        import json

        from repro.generators.serialization import workflow_to_json
        from tests.test_workloads import small_workflow

        body = workflow_to_json(small_workflow())
        edit(body)
        path = tmp_path / "wf.json"
        path.write_text(json.dumps(body))
        argv = [command[0], "--dax", str(path), *command[1:]]
        if command[0] == "submit":
            argv += ["--store", str(tmp_path / "s.db")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"cannot load {path}:") and message in err


    @pytest.mark.parametrize(
        "raw, reason",
        [
            (b"[" * 100_000 + b"]" * 100_000, "cannot parse"),
            # json.loads refuses 5000 digits only where CPython caps int
            # string conversion (3.10.7+); elsewhere the weight parses and
            # is refused as too large for a float.
            (
                b'{"schema": "repro-workflow-v1", "tasks": [{"id": "a", '
                b'"weight": ' + b"1" * 5000 + b"}]}",
                "",
            ),
            (b'{"schema": "repro-workflow-v1", "name": "\xff"}', "cannot parse"),
        ],
        ids=["nested-too-deep", "integer-too-long", "not-utf8"],
    )
    def test_unparseable_json_workflow_exit_2_one_line(
        self, tmp_path, capsys, raw, reason
    ):
        path = tmp_path / "wf.json"
        path.write_bytes(raw)
        argv = [str(path) if a == "examples/diamond.dax" else a for a in self.BASE]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"cannot load {path}: {reason}")


class TestFigure:
    def test_tiny_grid_with_csv(self, tmp_path, capsys):
        csv = tmp_path / "fig5.csv"
        rc = main(
            [
                "figure",
                "fig5",
                "--sizes",
                "50",
                "--pfails",
                "0.001",
                "--ccr-points",
                "2",
                "--processors-per-size",
                "1",
                "--csv",
                str(csv),
                "--quiet",
            ]
        )
        assert rc == 0
        assert csv.exists()
        out = capsys.readouterr().out
        assert "all/some" in out


class TestAccuracy:
    def test_runs(self, capsys):
        rc = main(
            [
                "accuracy",
                "--families",
                "genome",
                "--ntasks",
                "50",
                "--processors",
                "3",
                "--pfails",
                "0.001",
                "--mc-trials",
                "5000",
            ]
        )
        assert rc == 0
        assert "pathapprox" in capsys.readouterr().out


class TestArgumentValidation:
    """Bad numeric arguments exit 2 with a one-line parser error, not a
    deep traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--family", "genome", "--jobs", "-2"],
            ["sweep", "--family", "genome", "--pfails", "-0.1"],
            ["sweep", "--family", "genome", "--pfails", "1.5"],
            ["sweep", "--family", "genome", "--ccrs", "-1"],
            ["sweep", "--family", "genome", "--sizes", "0"],
            ["sweep", "--family", "genome", "--processors", "-3"],
            ["figure", "fig5", "--jobs", "-1"],
            ["figure", "fig5", "--ccr-points", "0"],
            ["evaluate", "--family", "genome", "--pfail", "-0.5"],
            ["evaluate", "--family", "genome", "--ccr", "-0.01"],
            ["evaluate", "--family", "genome", "--ntasks", "0"],
            ["evaluate", "--family", "genome", "--pfail", "nope"],
            ["evaluate", "--family", "genome", "--pfail", "nan"],
            ["evaluate", "--family", "genome", "--ccr", "nan"],
            ["evaluate", "--family", "genome", "--ccr", "inf"],
            ["sweep", "--family", "genome", "--seed", "-1"],
            ["submit", "--family", "genome", "--seed", "-1"],
            ["simulate", "--family", "genome", "--pfail", "1.0"],
            ["accuracy", "--mc-trials", "0"],
            ["submit", "--family", "genome", "--processors", "0"],
        ],
    )
    def test_rejected_with_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_jobs_one_still_accepted(self, capsys):
        assert main(TestSweep.BASE + ["--jobs", "1"]) == 0

    def test_jobs_zero_means_all_cores(self, capsys):
        # 0 is auto (one worker per core), not a rejected value.
        assert main(TestSweep.BASE + ["--jobs", "0"]) == 0


class TestSubmitLocal:
    ARGS = [
        "submit",
        "--family",
        "genome",
        "--ntasks",
        "30",
        "--processors",
        "3",
        "--pfail",
        "0.001",
        "--ccr",
        "0.01",
        "--local",
    ]

    def test_local_submit_computes_then_hits_store(self, tmp_path, capsys):
        store = tmp_path / "store.db"
        assert main(self.ARGS + ["--store", str(store)]) == 0
        first = capsys.readouterr().out
        assert "[computed]" in first and "E[makespan]" in first
        assert main(self.ARGS + ["--store", str(store)]) == 0
        second = capsys.readouterr().out
        assert "[store hit]" in second
        # identical record both times
        strip = lambda s: [l for l in s.splitlines() if "E[makespan]" in l]
        assert strip(first) == strip(second)

    def test_json_output(self, tmp_path, capsys):
        import json

        store = tmp_path / "store.db"
        assert main(self.ARGS + ["--store", str(store), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cached"] is False
        assert payload["record"]["family"] == "genome"
        assert len(payload["fingerprint"]) == 64

    def test_matches_direct_run_cell(self, tmp_path, capsys):
        from repro.experiments.figures import run_cell

        store = tmp_path / "store.db"
        assert main(self.ARGS + ["--store", str(store), "--json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        expected = run_cell("genome", 30, 3, 0.001, 0.01, seed=2017)
        assert payload["record"]["em_some"] == expected.em_some
        assert payload["record"]["em_all"] == expected.em_all
        assert payload["record"]["em_none"] == expected.em_none


class TestSubmitDaxLocal:
    ARGS = [
        "submit",
        "--dax",
        "examples/diamond.dax",
        "--processors",
        "3",
        "--pfail",
        "0.001",
        "--ccr",
        "0.01",
        "--local",
    ]

    def test_local_dax_submit_computes_then_hits_store(self, tmp_path, capsys):
        store = tmp_path / "store.db"
        assert main(self.ARGS + ["--store", str(store)]) == 0
        first = capsys.readouterr().out
        assert "[computed]" in first and "file:" in first
        assert main(self.ARGS + ["--store", str(store)]) == 0
        assert "[store hit]" in capsys.readouterr().out

    def test_record_matches_engine_sweep(self, tmp_path, capsys):
        import json

        from repro.engine.sweep import SweepSpec, run_sweep
        from repro.workloads import load_source

        store = tmp_path / "store.db"
        assert main(self.ARGS + ["--store", str(store), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        source = load_source("examples/diamond.dax")
        (expected,) = run_sweep(
            SweepSpec.from_source(
                source,
                processors=(3,),
                pfails=(0.001,),
                ccrs=(0.01,),
                seed_policy="stable",
            )
        )
        assert payload["record"]["em_some"] == expected.em_some
        assert payload["record"]["em_all"] == expected.em_all
        assert payload["record"]["family"] == source.spec_family

    def test_family_and_dax_mutually_exclusive(self, capsys):
        assert main(self.ARGS + ["--family", "genome"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_ntasks_with_dax_rejected(self, capsys):
        assert main(self.ARGS + ["--ntasks", "8"]) == 2
        assert "--ntasks cannot be combined" in capsys.readouterr().err

    def test_unknown_family_exit_2(self, tmp_path, capsys):
        assert main(
            [
                "submit",
                "--family",
                "nonesuch",
                "--local",
                "--store",
                str(tmp_path / "s.db"),
            ]
        ) == 2
        assert "unknown workflow family" in capsys.readouterr().err


class TestSimulate:
    def test_replay(self, capsys):
        rc = main(
            [
                "simulate",
                "--family",
                "montage",
                "--ntasks",
                "50",
                "--processors",
                "4",
                "--pfail",
                "0.01",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "makespan=" in out
