import copy
import json
import os
import re
import signal
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mova
from mova.experts import default_registry, save_registry
from mova.harness.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _err = run_cli(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


@pytest.fixture
def experts_file(tmp_path):
    path = tmp_path / "experts.json"
    save_registry(default_registry(), path)
    return str(path)


@pytest.fixture
def corpus_dir(tmp_path, capsys):
    out = tmp_path / "corpus"
    run_json(
        capsys, "gen-synthetic", "--samples", "12", "--seed", "3", "--out", str(out)
    )
    return str(out)


class TestRoute:
    def test_scripted_decision_json(self, capsys, experts_file):
        payload = run_json(
            capsys, "route", "--experts", experts_file,
            "--question", "read the sign", "--strategy", "scripted", "--response", "A, D",
        )
        assert payload == {
            "experts": ["dinov2", "pix2struct"],
            "letters": ["A", "D"],
            "strategy": "scripted",
        }

    def test_empty_response_falls_back_to_empty_selection(self, capsys):
        payload = run_json(
            capsys, "route", "--question", "q", "--strategy", "scripted", "--response", "",
        )
        assert payload["experts"] == [] and payload["letters"] == []

    def test_unknown_letter_is_validation_exit_1(self, capsys):
        code, _out, err = run_cli(
            capsys, "route", "--question", "q", "--strategy", "scripted", "--response", "Z",
        )
        assert code == 1
        assert "Z" in err

    def test_random_strategy_seed_determinism(self, capsys):
        a = run_json(capsys, "route", "--question", "q", "--strategy", "random", "--seed", "5")
        b = run_json(capsys, "route", "--question", "q", "--strategy", "random", "--seed", "5")
        assert a == b

    def test_mova_seed_env_used_when_flag_absent(self, capsys, monkeypatch):
        monkeypatch.setenv("MOVA_SEED", "11")
        a = run_json(capsys, "route", "--question", "q", "--strategy", "random")
        b = run_json(capsys, "route", "--question", "q", "--strategy", "random", "--seed", "11")
        assert a == b

    def test_missing_required_flag_exits_1(self, capsys):
        code, _out, _err = run_cli(capsys, "route", "--strategy", "all")
        assert code == 1

    def test_oracle_strategy_reads_losses_file(self, capsys, tmp_path):
        losses = tmp_path / "losses.jsonl"
        losses.write_text(
            json.dumps(
                {
                    "sample_id": "s9",
                    "base_loss": 2.0,
                    "expert_losses": [1.5, 1.9, 1.99, 1.0, 2.3, 2.1, 2.0],
                }
            )
            + "\n"
        )
        payload = run_json(
            capsys, "route", "--question", "q", "--strategy", "oracle",
            "--losses", str(losses), "--sample-id", "s9",
        )
        assert payload["experts"] == ["pix2struct", "dinov2", "codetr"]

    def test_oracle_rejects_duplicate_sample_id(self, capsys, tmp_path):
        losses = tmp_path / "dup.jsonl"
        rows = [[1.5, 1.9, 1.99, 1.0, 2.3, 2.1, 2.0], [3.0, 3.0, 3.0, 3.0, 0.1, 3.0, 3.0]]
        losses.write_text(
            "".join(
                json.dumps({"sample_id": "cli", "base_loss": 2.0, "expert_losses": row}) + "\n"
                for row in rows
            )
        )
        code, out, err = run_cli(
            capsys, "route", "--question", "q", "--strategy", "oracle", "--losses", str(losses),
        )
        assert code == 1 and out == ""
        lines = err.strip().split("\n")
        assert len(lines) == 1 and lines[0].startswith("error:") and ":2" in lines[0]

    def test_annotation_strategy_reads_annotations_file(self, capsys, tmp_path):
        annotations = tmp_path / "routing.jsonl"
        annotations.write_text(
            json.dumps({"sample_id": "s9", "experts": ["vary", "sam"]}) + "\n"
        )
        payload = run_json(
            capsys, "route", "--question", "q", "--strategy", "annotation",
            "--annotations", str(annotations), "--sample-id", "s9",
        )
        assert payload["letters"] == ["F", "C"]


needs_a_forked_child = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir() or len(os.sched_getaffinity(0)) < 2,
    reason="finds a forked child through /proc; one CPU forks none",
)


def interrupt_once_forked(*argv):
    """Run `mova argv` in its own session, send SIGINT to its process group once
    it has forked a child, and return (exit code, stdout, stderr). Asserts that
    no process of the group is left."""
    src = str(Path(mova.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "mova.harness.cli", *argv],
        env={**os.environ, "PYTHONPATH": src}, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
        deadline = time.monotonic() + 60
        while not children.read_text().split():
            assert proc.poll() is None and time.monotonic() < deadline, "no child was forked"
            time.sleep(0.05)
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=60)
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
    return proc.returncode, out, err


class TestDataCommands:
    def test_gen_build_score_roundtrip(self, capsys, tmp_path, experts_file, corpus_dir):
        routing = tmp_path / "routing.jsonl"
        built = run_json(
            capsys, "build-routing-data", "--experts", experts_file,
            "--losses", f"{corpus_dir}/losses.jsonl", "--out", str(routing),
        )
        assert built["written"] == 12
        scored = run_json(
            capsys, "score-routing", "--annotations", str(routing),
            "--truth", f"{corpus_dir}/ground_truth.jsonl",
        )
        assert scored == {"accuracy": 1.0, "samples": 12}

    def test_gen_synthetic_is_byte_reproducible(self, capsys, tmp_path):
        for name in ("a", "b"):
            run_json(
                capsys, "gen-synthetic", "--samples", "6", "--seed", "9",
                "--out", str(tmp_path / name),
            )
        for file in ("samples.jsonl", "losses.jsonl", "ground_truth.jsonl", "manifest.json"):
            assert (tmp_path / "a" / file).read_bytes() == (tmp_path / "b" / file).read_bytes()

    def test_failed_corpus_write_leaves_no_file(self, capsys, monkeypatch, tmp_path):
        def failing_replace(src, dst):
            raise OSError(f"cannot replace {dst}")

        monkeypatch.setattr(os, "replace", failing_replace)
        out = tmp_path / "c"
        code, stdout, err = run_cli(capsys, "gen-synthetic", "--samples", "6", "--out", str(out))
        assert (code, stdout) == (1, "")
        assert err == f"error: cannot replace {out / 'samples.jsonl'}\n"
        assert list(out.iterdir()) == []  # no corpus file, no temporary file

    def test_out_that_cannot_be_a_directory_fails_before_the_work(self, capsys, monkeypatch, tmp_path):
        """An --out that is a file or a dangling link, or lies under one, fails before
        any feature is generated: one error line naming the path, nothing on stdout."""
        from mova import routing_data

        def base_features(*args):
            raise AssertionError("features were generated")

        monkeypatch.setattr(routing_data, "base_features", base_features)
        (tmp_path / "existing.txt").write_text("")
        (tmp_path / "link").symlink_to(tmp_path / "nowhere")
        for name in ("existing.txt", "link"):
            bad = tmp_path / name
            under = (bad / "c", f"{bad / 'c'}: {bad} is not a directory")
            for out, where in ((bad, f"{bad}: not a directory"), under):
                code, stdout, err = run_cli(capsys, "gen-synthetic", "--samples", "20", "--out", str(out))
                assert (code, stdout, err) == (1, "", f"error: {where}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["existing.txt", "link"]

    def test_out_that_is_not_a_regular_file_is_written_in_place(
        self, capsys, tmp_path, experts_file, corpus_dir
    ):
        """A FIFO stays a FIFO and receives the annotations; a rename would have
        replaced it, as it would replace /dev/null."""
        regular, fifo = tmp_path / "routing.jsonl", tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # so that opening it to write does not block
        try:
            for out in (regular, fifo):
                run_json(
                    capsys, "build-routing-data", "--experts", experts_file,
                    "--losses", f"{corpus_dir}/losses.jsonl", "--out", str(out),
                )
            received = os.read(reader, 1 << 16)
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert received == regular.read_bytes()
        assert not [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]

    @needs_a_forked_child
    def test_interrupt_ends_every_process(self, tmp_path):
        """Ctrl-C while the feature pooling runs in two processes."""
        out = tmp_path / "c"
        code, stdout, err = interrupt_once_forked("gen-synthetic", "--samples", "20000", "--out", str(out))
        assert (code, stdout, err) == (1, "", "error: interrupted\n")
        assert not out.exists()

    def test_planted_flag_pins_ground_truth(self, capsys, tmp_path):
        run_json(
            capsys, "gen-synthetic", "--samples", "5", "--seed", "1",
            "--out", str(tmp_path / "c"), "--planted", "vary",
        )
        lines = (tmp_path / "c" / "ground_truth.jsonl").read_text().strip().split("\n")
        assert all(json.loads(line)["planted"] == "vary" for line in lines)


class TestFuse:
    def test_writes_tokens_and_reports_gates(self, capsys, tmp_path):
        payload = run_json(
            capsys, "fuse", "--question", "read the chart", "--strategy", "scripted",
            "--response", "A, D", "--image-seed", "4", "--out", str(tmp_path / "t.movt"),
        )
        assert payload["routing"]["letters"] == ["A", "D"]
        assert payload["tokens"]["shape"] == [16, 32]
        assert (tmp_path / "t.movt").exists()
        for block in payload["gates"]:
            assert set(block["weights"]) == {"dinov2", "pix2struct"}

    def test_byte_reproducible_output_and_stdout(self, capsys, tmp_path):
        args = (
            "fuse", "--question", "q", "--strategy", "scripted", "--response", "B",
            "--image-seed", "7",
        )
        first = run_cli(capsys, *args, "--out", str(tmp_path / "a.movt"))
        second = run_cli(capsys, *args, "--out", str(tmp_path / "b.movt"))
        assert (tmp_path / "a.movt").read_bytes() == (tmp_path / "b.movt").read_bytes()
        assert first[1].replace("a.movt", "") == second[1].replace("b.movt", "")
        # Overwritten in place, a longer existing file is cut to the fresh bytes.
        (tmp_path / "c.movt").write_bytes(b"\xff" * 10240)
        third = run_cli(capsys, *args, "--out", str(tmp_path / "c.movt"))
        assert (tmp_path / "c.movt").read_bytes() == (tmp_path / "a.movt").read_bytes()
        assert first[1].replace("a.movt", "") == third[1].replace("c.movt", "")

    def test_unwritable_out_names_the_file_and_stage(self, capsys):
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        code, out, err = run_cli(
            capsys, "fuse", "--question", "q", "--strategy", "scripted", "--response", "B",
            "--out", "/dev/full",
        )
        assert (code, out) == (1, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: [io] /dev/full: cannot write MOVT file")
        assert "internal error" not in err

    def test_empty_scripted_response_fails_with_routing_stage(self, capsys, tmp_path):
        code, _out, err = run_cli(
            capsys, "fuse", "--question", "q", "--strategy", "scripted", "--response", "",
            "--out", str(tmp_path / "t.movt"),
        )
        assert code == 1
        assert "[routing]" in err

    def test_params_dir_roundtrip(self, capsys, tmp_path):
        from mova.adapter.config import desk_config
        from mova.adapter.params import init_params, save_params

        registry = default_registry()
        save_params(init_params(desk_config(), registry), tmp_path / "params")
        payload = run_json(
            capsys, "fuse", "--question", "q", "--strategy", "all",
            "--params", str(tmp_path / "params"), "--out", str(tmp_path / "t.movt"),
        )
        assert len(payload["routing"]["experts"]) == 7

    def test_params_dir_of_an_interrupted_save_is_one_error_line(self, capsys, monkeypatch, tmp_path):
        """A second save stopped after its params.movt is written, before its
        manifest: fuse refuses the directory with one error line and prints nothing."""
        from mova.adapter import params as params_module
        from mova.adapter.config import desk_config
        from mova.adapter.params import init_params, save_params

        registry = default_registry()
        save_params(init_params(desk_config(), registry), tmp_path / "params")
        original = params_module.save_tensor

        def save_tensor(path, array):
            original(path, array)
            raise KeyboardInterrupt

        monkeypatch.setattr(params_module, "save_tensor", save_tensor)
        with pytest.raises(KeyboardInterrupt):
            save_params(init_params(desk_config(), registry, seed=12), tmp_path / "params")
        code, out, err = run_cli(
            capsys, "fuse", "--question", "q", "--strategy", "all",
            "--params", str(tmp_path / "params"), "--out", str(tmp_path / "t.movt"),
        )
        assert (code, out) == (1, "")
        assert err.count("error:") == 1 and err.startswith("error: ") and "SHA-256 differs" in err, err

    def test_params_dir_of_one_file_per_tensor_is_one_error_line(self, capsys, tmp_path):
        """A directory in the older format, one MOVT file per tensor with a digest and
        a file name for each in the manifest, is refused: save the params again."""
        from mova.adapter.config import desk_config
        from mova.adapter.params import init_params, named_arrays
        from mova.numerics.movt import save_tensor

        registry = default_registry()
        params = init_params(desk_config(), registry)
        stale = tmp_path / "params"
        stale.mkdir()
        files = {name: f"{name}.movt" for name, _ in named_arrays(params)}
        digests = {name: save_tensor(stale / files[name], array) for name, array in named_arrays(params)}
        manifest = {"expert_names": list(params.expert_names), "sha256": digests, "tensors": files}
        (stale / "manifest.json").write_text(json.dumps(manifest))
        code, out, err = run_cli(
            capsys, "fuse", "--question", "q", "--strategy", "all",
            "--params", str(stale), "--out", str(tmp_path / "t.movt"),
        )
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: "), err
        assert "older format; save the params again" in err
        assert not (tmp_path / "t.movt").exists()

    def test_adapter_config_file_is_honored(self, capsys, tmp_path):
        from mova.adapter.config import desk_config, save_config

        config_path = tmp_path / "adapter.json"
        save_config(desk_config(seed=9), config_path)
        payload = run_json(
            capsys, "fuse", "--question", "q", "--strategy", "scripted", "--response", "C",
            "--adapter-config", str(config_path), "--out", str(tmp_path / "t.movt"),
        )
        assert payload["tokens"]["shape"] == [16, 32]
        assert len(payload["gates"]) == 3


class TestTrainAndAblateCli:
    def write_toy(self, tmp_path, corpus_dir, **extra):
        payload = {
            "corpus": corpus_dir,
            "steps": 4,
            "learning_rate": 0.05,
            "batch_size": 4,
            "seed": 7,
            "selection": ["dinov2", "pix2struct"],
            "eval_samples": 4,
            "gradcheck_entries": 4,
        }
        payload.update(extra)
        path = tmp_path / "toy.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_train_toy_report(self, capsys, tmp_path, corpus_dir):
        toy = self.write_toy(tmp_path, corpus_dir)
        report_path = tmp_path / "report.json"
        payload = run_json(capsys, "train-toy", "--config", toy, "--report", str(report_path))
        assert len(payload["loss_trace"]) == 4
        assert "wall_clock_seconds" not in payload  # timing stays out of artifacts
        assert json.loads(report_path.read_text()) == payload

    def test_train_toy_report_file_is_byte_reproducible(self, capsys, tmp_path, corpus_dir):
        toy = self.write_toy(tmp_path, corpus_dir)
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for path in paths:
            code, _out, _err = run_cli(capsys, "train-toy", "--config", toy, "--report", str(path))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_train_toy_report_bytes_do_not_depend_on_processes(
        self, capsys, monkeypatch, tmp_path, corpus_dir
    ):
        """12 samples make two microbatches: two CPUs run them in two processes,
        which only stderr says."""
        toy = self.write_toy(tmp_path, corpus_dir, steps=2, batch_size=12)
        reports, lines = [], []
        for cpus, processes in ((1, "1 process"), (2, "2 processes")):
            monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(cpus)))
            path = tmp_path / f"r{cpus}.json"
            code, out, err = run_cli(capsys, "train-toy", "--config", toy, "--report", str(path))
            assert code == 0 and path.read_text() == out
            assert re.fullmatch(rf"trained 2 steps in \d+\.\d\ds on {processes}\n", err)
            reports.append(path.read_bytes())
        assert reports[0] == reports[1]

    def test_failed_report_write_leaves_no_file(self, capsys, monkeypatch, tmp_path, corpus_dir):
        toy = self.write_toy(tmp_path, corpus_dir, steps=1)
        before = set(tmp_path.iterdir())

        def failing_replace(src, dst):
            raise OSError(f"cannot replace {dst}")

        monkeypatch.setattr(os, "replace", failing_replace)
        report = tmp_path / "report.json"
        code, _out, err = run_cli(capsys, "train-toy", "--config", toy, "--report", str(report))
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert code == 1 and errors == [f"error: cannot replace {report}"]
        assert set(tmp_path.iterdir()) == before  # no report, no temporary file

    @needs_a_forked_child
    def test_interrupt_ends_every_process(self, tmp_path, corpus_dir):
        """Ctrl-C to the process group of a `mova train-toy` whose worker is
        running: one error line, exit 1, no report and no process left."""
        toy = self.write_toy(tmp_path, corpus_dir, steps=100_000, batch_size=12)
        report = tmp_path / "report.json"
        code, out, err = interrupt_once_forked("train-toy", "--config", toy, "--report", str(report))
        assert code == 1 and out == ""
        assert err == "error: interrupted\n"
        assert not report.exists()

    def test_dead_worker_is_one_error_line(self, capsys, monkeypatch, tmp_path, corpus_dir):
        """The worker is killed after step 0's pass; the spot check's first probe
        pass then fails to reach it."""
        import mova.harness.train as train

        original = train._CorpusRunner.batch_loss

        def then_kill_workers(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            for process, _conn in self._workers.children:
                os.kill(process.pid, signal.SIGKILL)
                process.join(10)
            return result

        monkeypatch.setattr(train._CorpusRunner, "batch_loss", then_kill_workers)
        monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1})
        toy = self.write_toy(tmp_path, corpus_dir, steps=2, batch_size=12)
        code, out, err = run_cli(capsys, "train-toy", "--config", toy)
        assert (code, out, err) == (1, "", "error: a forked worker process exited\n")

    def test_ablate_reports_requested_modes(self, capsys, tmp_path, corpus_dir):
        payload = run_json(
            capsys, "ablate", "--modes", "all-experts,fixed-K:7", "--corpus", corpus_dir,
            "--steps", "2", "--batch-size", "4", "--seed", "3", "--eval-samples", "4",
        )
        assert set(payload["modes"]) == {"all-experts", "fixed-K:7"}
        a, b = payload["modes"]["all-experts"], payload["modes"]["fixed-K:7"]
        assert a["eval_loss"] == b["eval_loss"]

    def test_ablate_oracle_arm_without_losses_fails_cleanly(self, capsys, corpus_dir):
        (Path(corpus_dir) / "losses.jsonl").unlink()
        code, out, err = run_cli(
            capsys, "ablate", "--modes", "dynamic", "--corpus", corpus_dir,
            "--steps", "1", "--batch-size", "2", "--seed", "3", "--eval-samples", "2",
        )
        assert code == 1 and out == ""
        lines = err.strip().split("\n")
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "no loss record" in lines[0]

    @pytest.mark.parametrize(
        "case, where",
        [
            ("no-samples", "corpus has no samples"),
            ("empty-answer", "sample 's00000': empty answer vector"),
            ("long-answer", "sample 's00000': answer vector longer than llm_dim 32"),
            ("loss-record-missing", "has no loss record in"),
            ("losses-file-absent", "has no loss record in"),
        ],
        ids=["no-samples", "empty-answer", "long-answer", "loss-record-missing", "losses-file-absent"],
    )
    def test_train_toy_rejects_unusable_corpus(self, capsys, tmp_path, corpus_dir, case, where):
        corpus = Path(corpus_dir)
        samples_path, losses_path = corpus / "samples.jsonl", corpus / "losses.jsonl"
        lines = samples_path.read_text().splitlines()
        first = json.loads(lines[0])
        if case == "no-samples":
            samples_path.write_text("")
        elif case in ("empty-answer", "long-answer"):
            first["answer_vector"] = [] if case == "empty-answer" else [0.5] * 33
            samples_path.write_text("\n".join([json.dumps(first), *lines[1:]]) + "\n")
        elif case == "loss-record-missing":
            kept = [r for r in losses_path.read_text().splitlines() if first["sample_id"] not in r]
            losses_path.write_text("\n".join(kept) + "\n")
        else:
            losses_path.unlink()
        # Oracle routing, and an eval set of every sample so the first one is always used.
        toy = self.write_toy(tmp_path, corpus_dir, selection=None, eval_samples=12)
        code, out, err = run_cli(capsys, "train-toy", "--config", toy)
        assert code == 1 and out == ""
        lines = err.strip().split("\n")
        assert len(lines) == 1 and lines[0].startswith("error:") and where in lines[0], err

    def test_spot_check_overflow_names_the_tensor(self, capsys, tmp_path, corpus_dir):
        """A huge gradcheck_eps overflows inside a step-0 probe: one line naming the
        tensor and element, as `mova gradcheck --eps 1e300` prints."""
        toy = self.write_toy(tmp_path, corpus_dir, gradcheck_eps=1e300)
        code, out, err = run_cli(capsys, "train-toy", "--config", toy)
        assert code == 1 and out == ""
        lines = err.strip().split("\n")
        assert len(lines) == 1, err
        assert lines[0].startswith("error: step-0 gradient check failed: block")
        assert ": non-finite function value while probing element" in lines[0]


class TestExitCodes:
    def test_property_failure_maps_to_exit_2(self, capsys, monkeypatch):
        from dataclasses import dataclass, field

        import mova.harness.properties as properties

        @dataclass
        class FakeGroup:
            passed: int = 0
            failed: int = 1
            failures: list = field(default_factory=lambda: ["boom"])

        @dataclass
        class FakeReport:
            groups: dict

            @property
            def ok(self):
                return False

            def summary_dict(self):
                return {"g": {"passed": 0, "failed": 1, "failures": ["boom"]}}

        monkeypatch.setattr(properties, "run_property_suite", lambda: FakeReport({"g": FakeGroup()}))
        code, out, _err = run_cli(capsys, "check")
        assert code == 2
        assert "boom" in out

    def test_interrupt_is_one_error_line(self, capsys, monkeypatch):
        import mova.harness.cli as cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_route", interrupted)
        code, out, err = run_cli(capsys, "route", "--question", "q", "--strategy", "all")
        assert (code, out, err) == (1, "", "error: interrupted\n")

    def test_unexpected_exception_is_one_internal_error_line(self, capsys, monkeypatch):
        import mova.harness.cli as cli

        def route(*_args):
            raise ValueError("no route")

        monkeypatch.setattr(cli, "route", route)
        code, out, err = run_cli(capsys, "route", "--question", "q", "--strategy", "all")
        assert (code, out, err) == (1, "", "error: internal error: ValueError: no route\n")

    def test_import_failure_is_one_error_line(self, capsys, monkeypatch):
        # None in sys.modules makes the subcommand's own import raise ImportError.
        monkeypatch.setitem(sys.modules, "mova.harness.gradcheck_run", None)
        code, out, err = run_cli(capsys, "gradcheck")
        lines = err.strip().split("\n")
        assert code == 1 and out == ""
        assert len(lines) == 1 and lines[0].startswith("error:") and "gradcheck_run" in lines[0]

    @pytest.mark.parametrize(
        "argv, runner",
        [
            (("gradcheck",), "gradcheck_run.full_gradient_check"),
            (("check",), "properties.run_property_suite"),
            (("train-toy", "--config", "toy.json"), "train.train_toy"),
            (("ablate", "--modes", "dynamic", "--corpus", "corpus"), "ablate.run_ablation"),
        ],
        ids=["gradcheck", "check", "train-toy", "ablate"],
    )
    def test_unwritable_report_path_fails_before_the_run(
        self, capsys, monkeypatch, tmp_path, argv, runner
    ):
        def never(*args, **kwargs):
            raise AssertionError(f"{runner} ran")

        monkeypatch.setattr(f"mova.harness.{runner}", never)
        for report in (tmp_path / "missing" / "r.json", tmp_path):
            code, out, err = run_cli(capsys, *argv, "--report", str(report))
            assert code == 1 and out == ""
            lines = err.strip().split("\n")
            assert len(lines) == 1 and lines[0].startswith("error:") and str(report) in lines[0]
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize(
        "command, runner, argv",
        [
            ("fuse", "run_pipeline", ("--question", "q", "--strategy", "all")),
            ("build-routing-data", "build_annotations", ("--losses", "losses.jsonl")),
        ],
        ids=["fuse", "build-routing-data"],
    )
    def test_unwritable_fuse_out_fails_before_the_run(
        self, capsys, monkeypatch, tmp_path, command, runner, argv
    ):
        import mova.harness.cli as cli

        def never(*args, **kwargs):
            raise AssertionError(f"{runner} ran")

        monkeypatch.setattr(cli, runner, never)
        for out_path in (tmp_path / "missing" / "out", tmp_path):
            code, out, err = run_cli(capsys, command, *argv, "--out", str(out_path))
            assert code == 1 and out == ""
            lines = err.strip().split("\n")
            assert len(lines) == 1 and lines[0].startswith("error:") and str(out_path) in lines[0]
        assert not (tmp_path / "missing").exists()

    def test_unknown_subcommand_exits_1(self, capsys):
        code, _out, _err = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_validation_error_exits_1(self, capsys, tmp_path):
        code, _out, err = run_cli(
            capsys, "build-routing-data", "--losses", str(tmp_path / "missing.jsonl"),
            "--out", str(tmp_path / "r.jsonl"),
        )
        assert code == 1
        assert "error:" in err
        # A value of the wrong form in a JSONL record names its file and line.
        losses = tmp_path / "losses.jsonl"
        losses.write_text(
            json.dumps({"sample_id": "cli", "base_loss": "abc", "expert_losses": [1.0] * 7}) + "\n"
        )
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "samples.jsonl").write_text(
            json.dumps(
                {"sample_id": "s0", "image_seed": "x", "question": "q", "answer_vector": [0.0]}
            )
            + "\n"
        )
        toy = tmp_path / "toy.json"
        toy.write_text(json.dumps({"corpus": str(corpus), "steps": 1}))
        # A file that cannot be opened or written is exit 1 too, not a traceback.
        existing = tmp_path / "existing.txt"
        existing.write_text("x")
        # toy.json: not an object, a fractional count, a selection that is one
        # string, a gradient-check eps or tolerance that is not > 0; and a corpus
        # whose image seed numpy cannot take.
        negative = tmp_path / "negative"
        negative.mkdir()
        (negative / "samples.jsonl").write_text(
            json.dumps({"sample_id": "s0", "image_seed": -1, "question": "q", "answer_vector": [0.0]})
        )
        toys = {}
        for name, payload in (
            ("toy_int.json", 5),
            ("toy_steps.json", {"corpus": str(corpus), "steps": 1.5}),
            ("toy_selection.json", {"corpus": str(corpus), "selection": "dinov2"}),
            ("toy_seed.json", {"corpus": str(negative)}),
            ("toy_eps.json", {"corpus": str(negative), "gradcheck_eps": 0}),
            ("toy_tol.json", {"corpus": str(negative), "gradcheck_tol": -1}),
        ):
            toys[name] = tmp_path / name
            toys[name].write_text(json.dumps(payload))
        # experts.json with an infinite extent (Python's json reads Infinity),
        # values of the wrong JSON type, and extents past the registry bounds.
        save_registry(default_registry(), tmp_path / "experts.json")
        doc = json.loads((tmp_path / "experts.json").read_text())
        registries = {}
        for name, part, key, value, field in (
            ("infinite.json", "experts", "channels", float("inf"), "channels must be an integer"),
            ("fractional.json", "experts", "channels", 1.9, "channels must be an integer"),
            ("string.json", "experts", "channels", "16", "channels must be an integer"),
            ("boolean.json", "experts", "seed", True, "seed must be an integer"),
            ("wide.json", "experts", "channels", 10000000, "channels must be <="),
            ("tall.json", "base", "height", 1000000, "base_height*base_width must be <="),
        ):
            bad = copy.deepcopy(doc)
            (bad["experts"][0] if part == "experts" else bad["base"])[key] = value
            (tmp_path / name).write_text(json.dumps(bad))
            registries[name] = field
        # A corpus whose answer vector holds NaN fails where it is read.
        nan_corpus = tmp_path / "nan_corpus"
        nan_corpus.mkdir()
        (nan_corpus / "samples.jsonl").write_text(
            '{"sample_id": "s0", "image_seed": 1, "question": "q", "answer_vector": [NaN]}\n'
        )
        toy_nan = tmp_path / "toy_nan.json"
        toy_nan.write_text(json.dumps({"corpus": str(nan_corpus), "steps": 1}))
        # A parameter manifest that is not JSON.
        from mova.adapter.config import desk_config
        from mova.adapter.params import init_params, save_params

        broken = tmp_path / "broken"
        save_params(init_params(desk_config(), default_registry()), broken)
        (broken / "manifest.json").write_text('{"sha256": ')
        fuse = ("fuse", "--question", "q", "--strategy", "all", "--out", str(tmp_path / "t.movt"))
        empty_routing, empty_truth = tmp_path / "empty_r.jsonl", tmp_path / "empty_t.jsonl"
        empty_routing.write_text("")
        empty_truth.write_text("")
        valid = tmp_path / "valid"
        run_json(capsys, "gen-synthetic", "--samples", "12", "--seed", "3", "--out", str(valid))
        for argv, where in (
            (("route", "--question", "q", "--strategy", "oracle", "--losses", str(losses)),
             "losses.jsonl:1: malformed"),
            (("train-toy", "--config", str(toy)), "samples.jsonl:1: malformed"),
            (("route", "--question", "q", "--strategy", "scripted", "--response", "A",
              "--experts", str(tmp_path / "nofile.json")), "nofile.json"),
            (("gen-synthetic", "--samples", "2", "--out", str(existing)), "existing.txt"),
            (("fuse", "--question", "q", "--strategy", "scripted", "--response", "A",
              "--out", str(tmp_path)), str(tmp_path)),
            (("train-toy", "--config", str(toys["toy_int.json"])), "must be a JSON object"),
            (("train-toy", "--config", str(toys["toy_steps.json"])), "steps must be an integer"),
            (("train-toy", "--config", str(toys["toy_selection.json"])),
             "selection must be a list"),
            (("train-toy", "--config", str(toys["toy_seed.json"])), "image_seed must be >= 0"),
            # Rejected at load (the corpus is never read), naming the file.
            (("train-toy", "--config", str(toys["toy_eps.json"])),
             "toy_eps.json: malformed toy config (gradcheck_eps must be >= 5e-324, got 0.0)"),
            (("train-toy", "--config", str(toys["toy_tol.json"])),
             "toy_tol.json: malformed toy config (gradcheck_tol must be >= 5e-324, got -1.0)"),
            (("train-toy", "--config", str(toy_nan)), "samples.jsonl:1: malformed sample"),
            *(((*fuse, "--experts", str(tmp_path / name)), f"{name}: malformed registry field ({field}")
              for name, field in registries.items()),
            ((*fuse, "--params", str(broken)), "manifest.json: not valid JSON"),
            (("route", "--question", "q", "--strategy", "random", "--seed", "-1"),
             "seed must be >= 0"),
            (("gradcheck", "--eps", "0"), "eps must be >= 5e-324"),
            (("gradcheck", "--eps", "inf"), "eps must be a finite number"),
            (("gradcheck", "--tol", "nan"), "tol must be a finite number"),
            (("gradcheck", "--tol", "-1"), "tol must be >= 5e-324"),
            # A huge eps overflows inside the probe: one line naming the tensor, no warnings.
            (("gradcheck", "--eps", "1e300"),
             "block0.extract.dinov2.value.weight: non-finite function value"),
            (("build-routing-data", "--losses", str(empty_routing), "--cap", "0",
              "--out", str(tmp_path / "capped.jsonl")), "cap must be >= 1"),
            # The cap is checked whatever the strategy, also where it is unused.
            (("route", "--question", "q", "--strategy", "all", "--cap", "0"), "cap must be >= 1"),
            (("route", "--question", "q", "--strategy", "scripted", "--response", "A", "--cap", "-5"),
             "cap must be >= 1"),
            ((*fuse, "--cap", "0"), "cap must be >= 1"),
            # A diverging run fails at its first overflow, with no numpy warning lines.
            (("ablate", "--modes", "dynamic", "--corpus", str(valid), "--lr", "1e308", "--steps", "2",
              "--report", str(tmp_path / "ablate.json")), "step 1: overflow encountered"),
            (("gen-synthetic", "--samples", "50", "--noise", "1e308", "--out", str(tmp_path / "huge")),
             "noise_scale 1e+308 makes a loss overflow"),
            (("score-routing", "--annotations", str(empty_routing), "--truth", str(empty_truth)),
             "no annotations to score"),
            (("gen-synthetic", "--samples", "2", "--noise", "nan", "--out", str(tmp_path / "nan")),
             "noise_scale must be a finite number"),
            # A sample count past the bound fails before any array is allocated.
            (("gen-synthetic", "--samples", "100000000000", "--out", str(tmp_path / "many")),
             "num_samples must be <= 1048576"),
            (("gen-synthetic", "--samples", "1" + "0" * 40, "--out", str(tmp_path / "many")),
             "num_samples must be <= 1048576"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1 and out == ""
            lines = err.strip().split("\n")
            assert len(lines) == 1 and lines[0].startswith("error:") and where in lines[0]
        for written in ("nan", "huge", "many", "capped.jsonl", "ablate.json", "t.movt"):
            assert not (tmp_path / written).exists()  # rejected before any file is written


def modules_loaded_by(module):
    """Every name in sys.modules after a fresh interpreter imports `module`."""
    src = str(Path(mova.__file__).resolve().parents[1])
    code = f"import sys, {module}; print(*sys.modules, sep=chr(10))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120, check=True,
    )
    return set(proc.stdout.split())


def test_cli_import_loads_no_scipy():
    """scipy is a test-only oracle: importing the CLI must not load any of it."""
    assert not {m for m in modules_loaded_by("mova.harness.cli") if m.split(".")[0] == "scipy"}


def test_cli_import_loads_no_subcommand_module():
    """Each subcommand imports its own harness module when it runs, so starting
    the CLI (and so every `mova fuse`) loads none of them."""
    others = {f"mova.harness.{m}" for m in ("train", "ablate", "properties", "gradcheck_run")}
    assert not others & modules_loaded_by("mova.harness.cli")


def test_pipeline_import_loads_no_training_or_suite():
    """The fuse path's modules import neither the trainer, the ablations, the
    gradient audit nor the property suite."""
    others = {f"mova.harness.{m}" for m in ("train", "ablate", "properties", "gradcheck_run")}
    assert not others & modules_loaded_by("mova.harness.pipeline")
