import argparse
import importlib.util
import json
import re
import shlex
import time
from pathlib import Path

import pytest

from framedisc import cli
from framedisc.cli import EXIT_CERTIFICATION, EXIT_CONFIG, EXIT_NUMERICAL, \
    EXIT_OK, EXIT_PROPERTY, main


def run(tmp_path, command, **options):
    out = tmp_path / "report.json"
    args = [command, "--output", str(out)]
    for key, value in options.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    code = main(args)
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


BASE = dict(model_kind="orthonormal", dim=6, covering_width="singleton")


class TestValidate:
    def test_partition_config(self, tmp_path):
        code, doc = run(tmp_path, "validate", **BASE)
        assert code == EXIT_OK
        assert doc["N"] == 1
        assert doc["admissible"] and doc["moderate"]
        assert doc["C_mU"] == 1.0

    def test_uncovered_point_fails(self, tmp_path):
        code, doc = run(tmp_path, "validate", model_kind="orthonormal", dim=6,
                        covering_sets=json.dumps([[0, 1], [3, 4, 5]]))
        assert code == EXIT_PROPERTY
        assert doc["admissible"] is False
        assert doc["uncovered_points"] == [2]

    def test_report_matches_library(self, tmp_path):
        from conftest import unit_weight
        from framedisc import uniform_covering, validate_covering, \
            weight_compatibility
        from framedisc.models import build_orthonormal_model
        code, doc = run(tmp_path, "validate", model_kind="orthonormal", dim=8,
                        covering_width=2.0)
        model = build_orthonormal_model(8)
        cov = uniform_covering(model.space, 2.0)
        rep = validate_covering(cov)
        assert code == EXIT_OK
        assert doc["N"] == rep["N"]
        assert doc["D"] == rep["D"]
        assert doc["C_tilde"] == rep["C_tilde"]
        assert doc["C_mU"] == weight_compatibility(
            cov, unit_weight(model.space))

    def test_missing_covering_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "validate", model_kind="orthonormal", dim=6)
        assert code == EXIT_CONFIG

    def test_grid_file_input(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"points": [[0.0], [1.0], [2.0]],
                                    "weights": [1.0, 1.0, 2.0]}))
        code, doc = run(tmp_path, "validate", grid_file=str(grid),
                        covering_sets=json.dumps([[0, 1], [1, 2]]))
        assert code == EXIT_OK
        assert doc["N"] == 2
        assert doc["D"] == 2.0


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands(command: str, program: str = "framedisc") -> list:
    """The README's ``<program> <command>`` example lines, continuation
    lines joined, as argument lists without the program name."""
    lines = README.read_text().replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith(f"{program} {command} ")]


class TestReadmeExamples:
    @pytest.mark.parametrize("command", ["validate", "osc", "discretize"])
    def test_example_runs(self, tmp_path, command):
        examples = readme_commands(command)
        assert examples
        for argv in examples:
            assert main(argv + ["--output", str(tmp_path / "r.json")]) == EXIT_OK

    def test_library_example_runs(self):
        blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
        assert len(blocks) == 1
        exec(compile(blocks[0], "README.md", "exec"), {})

    def test_sweep_script_example(self, tmp_path):
        [line] = readme_commands("scripts/certificate_sweep.py", program="python")
        argv = line[1:]
        at = argv.index("--output")
        argv[at + 1] = str(tmp_path / "sweep.json")
        spec = importlib.util.spec_from_file_location(
            "certificate_sweep", README.parent / "scripts" / "certificate_sweep.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        assert script.main(argv) == 0
        rows = json.loads((tmp_path / "sweep.json").read_text())
        certified = {row["n_freq"]: row["certified"] for row in rows}
        assert certified == {41: False, 81: False, 121: True, 161: True, 201: True}

    def test_osc_example_uses_per_axis_boxes(self, tmp_path):
        argv = readme_commands("osc")[0]
        assert main(argv + ["--output", str(tmp_path / "r.json")]) == EXIT_OK
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["n_sets"] == 486
        assert doc["osc_norm"] == pytest.approx(0.148, abs=5e-4)


class TestCoveringWidth:
    def test_json_list_matches_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model-kind": "gabor", "n-time": 4,
                                   "n-freq": 8, "covering-width": [1, 1.0]}))
        from_file = tmp_path / "a.json"
        assert main(["validate", "--config", str(cfg),
                     "--output", str(from_file)]) == EXIT_OK
        code, doc = run(tmp_path, "validate", model_kind="gabor", n_time=4,
                        n_freq=8, covering_width="1,1.0")
        assert code == EXIT_OK
        assert json.loads(from_file.read_text()) == doc

    @pytest.mark.parametrize("width", ["1,x", "1,2,3", ""])
    def test_bad_widths_are_config_errors(self, tmp_path, width):
        code, _ = run(tmp_path, "validate", model_kind="gabor", n_time=4,
                      n_freq=8, covering_width=width)
        assert code == EXIT_CONFIG


class TestOsc:
    def test_singleton_covering_passes(self, tmp_path):
        code, doc = run(tmp_path, "osc", **BASE, delta=0.3)
        assert code == EXIT_OK
        assert doc["osc_norm"] == 0.0
        assert doc["holds_D"] and doc["holds_58"]

    def test_zero_delta_always_fails(self, tmp_path):
        code, doc = run(tmp_path, "osc", **BASE, delta=0.0)
        assert code == EXIT_PROPERTY
        assert doc["holds_D"] is False

    def test_refine_mode_deterministic(self, tmp_path):
        opts = dict(model_kind="gabor", n_time=16, n_freq=16, window_width=4.0,
                    delta=0.2, refine_max_rounds=10)
        code1, doc1 = run(tmp_path, "osc", **opts)
        code2, doc2 = run(tmp_path, "osc", **opts)
        assert code1 == code2 == EXIT_OK
        assert doc1 == doc2
        assert doc1["holds_D"] and doc1["holds_58"]

    def test_refine_failure_explains_itself(self, tmp_path, capsys):
        for command in ("osc", "discretize"):
            code, doc = run(tmp_path, command, model_kind="gabor", n_time=4,
                            n_freq=16, window_width=2.0, delta=0.2,
                            refine_max_rounds=1)
            assert code == EXIT_CERTIFICATION
            assert doc is None
            err = capsys.readouterr().err
            assert err.startswith("certification refused: no covering met")
            assert "osc_norm >= " in err and "column 0" in err


    def test_default_config_refused_alike(self, tmp_path, capsys):
        """With no flags (Gabor 12 x 12, delta 0.25) refinement ends at the
        all-singleton covering, which meets the oscillation budget but not
        the invertibility condition: ``osc`` and ``discretize`` both refuse
        it with the same message and write no report."""
        errs = []
        for command in ("osc", "discretize"):
            code, doc = run(tmp_path, command)
            assert code == EXIT_CERTIFICATION
            assert doc is None
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert errs[0].startswith("certification refused: the all-singleton "
                                  "covering meets the oscillation budget but "
                                  "not the invertibility condition "
                                  "(condition_lhs 1.0531 > 1)")

    def test_vanishing_width_refused_at_once(self, tmp_path, capsys):
        """Windows of width 1e-300 on a 3-unit axis would number about
        3e300; the covering is refused before any window is listed."""
        start = time.perf_counter()
        code, doc = run(tmp_path, "osc", n_time=4, n_freq=16, window_width=2,
                        covering_width=1e-300)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_CONFIG and doc is None
        assert "empty box" in capsys.readouterr().err


class TestDiscretize:
    def test_orthonormal_singleton_plan(self, tmp_path):
        code, doc = run(tmp_path, "discretize", **BASE, delta=0.3, n_trials=10)
        assert code == EXIT_OK
        assert doc["constants"]["C1"] == pytest.approx(1.0, abs=1e-10)
        assert doc["constants"]["C2"] == pytest.approx(1.0, abs=1e-10)
        assert doc["failing_checks"] == []

    def test_non_contractive_neumann_refused(self, tmp_path):
        code, doc = run(tmp_path, "discretize", model_kind="random-smooth",
                        dim=3, n_points=48, smoothness=2.5, model_seed=1,
                        covering_width=2 / 48, delta=0.5, n_trials=5)
        assert code == EXIT_CERTIFICATION
        assert doc is None

    def test_certified_run_green(self, tmp_path):
        code, doc = run(tmp_path, "discretize", model_kind="random-smooth",
                        dim=3, n_points=96, smoothness=3.0, model_seed=1,
                        covering_width=2 / 96, delta=0.25, n_trials=10)
        assert code == EXIT_OK
        assert doc["certificates"]["holds_58"]
        assert doc["residuals"]["atomic_max"] <= 1e-8
        assert doc["residuals"]["banach_max"] <= 1e-8
        assert doc["residuals_swapped"]["atomic_max"] <= 1e-8
        assert doc["cross_method_gap"] <= 1e-9
        assert doc["bounds"]["violations"] == 0

    def test_direct_inversion_variant(self, tmp_path):
        code, doc = run(tmp_path, "discretize", model_kind="random-smooth",
                        dim=3, n_points=96, smoothness=3.0, model_seed=1,
                        covering_width=2 / 96, delta=0.25, n_trials=5,
                        inversion_method="direct")
        assert code == EXIT_OK
        assert doc["inversion_method"] == "direct"
        assert doc["failing_checks"] == []

    def test_uncovered_point_is_config_error(self, tmp_path, capsys):
        """A covering that leaves a point out has no partition of unity, so
        no sample masses: exit 2, no report."""
        code, doc = run(tmp_path, "discretize", model_kind="orthonormal", dim=4,
                        covering_sets=json.dumps([[0, 1], [3]]))
        assert code == EXIT_CONFIG
        assert doc is None
        assert "cannot build a partition of unity: uncovered points" \
            in capsys.readouterr().err

    def test_plan_id_is_a_hash_of_the_plan(self, tmp_path):
        """``plan_id`` is the first 12 hex digits of the sha256 of the
        covering's identifier and its samples, joined by "-" and the
        samples by "."; ``samples`` lists them."""
        from hashlib import sha256
        from framedisc import uniform_covering
        from framedisc.models import build_random_smooth_model
        code, doc = run(tmp_path, "discretize", model_kind="random-smooth",
                        dim=3, n_points=96, smoothness=3.0, model_seed=1,
                        covering_width=2 / 96, delta=0.25, n_trials=5)
        assert code == EXIT_OK
        assert re.fullmatch("[0-9a-f]{12}", doc["plan_id"])
        model = build_random_smooth_model(3, 96, 3.0, seed=1)
        cov = uniform_covering(model.space, 2 / 96)
        assert doc["covering_id"] == cov.identifier()
        assert doc["samples"] == cov.samples.tolist()
        text = f"{cov.identifier()}-{'.'.join(map(str, doc['samples']))}"
        assert doc["plan_id"] == sha256(text.encode()).hexdigest()[:12]

    def test_out_of_memory_is_numerical_failure(self, tmp_path, capsys,
                                                monkeypatch):
        """A MemoryError anywhere in a run exits 4 with one line on stderr
        and no traceback."""
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "run_discretization", exhausted)
        monkeypatch.setattr(cli, "refine_until", exhausted)
        for command in ("osc", "discretize"):
            code, doc = run(tmp_path, command)
            assert code == EXIT_NUMERICAL
            assert doc is None
            err = capsys.readouterr().err
            assert err == "numerical failure: out of memory\n"
            assert "Traceback" not in err

    def test_rank_deficient_direct_is_numerical_failure(self, tmp_path):
        code, doc = run(tmp_path, "discretize", model_kind="orthonormal",
                        dim=6, covering_sets=json.dumps([[0, 1, 2], [3, 4, 5]]),
                        delta=0.3, inversion_method="direct", n_trials=5)
        assert code == EXIT_NUMERICAL
        assert doc is None

    @pytest.mark.parametrize("source", ["unknown-model-kind", "flag-not-a-number",
                                        "json-not-a-number", "set-entry-not-a-number",
                                        "set-entry-fractional", "zero-refine-rounds",
                                        "delta-nan", "delta-inf", "inversion-tol-nan",
                                        "weight-ratio-overflow"])
    def test_bad_config_exit_code(self, tmp_path, source):
        if source == "unknown-model-kind":
            code, _ = run(tmp_path, "discretize", model_kind="nonsense")
        elif source == "flag-not-a-number":
            code, _ = run(tmp_path, "validate", model_kind="orthonormal",
                          dim="abc", covering_width="singleton")
        elif source == "set-entry-not-a-number":
            code, _ = run(tmp_path, "validate", model_kind="orthonormal", dim=3,
                          covering_sets='[["a"]]')
        elif source == "set-entry-fractional":
            code, _ = run(tmp_path, "validate", model_kind="orthonormal", dim=3,
                          covering_sets="[[0.5,1],[2]]")
        elif source == "zero-refine-rounds":
            code, _ = run(tmp_path, "osc", model_kind="orthonormal", dim=3,
                          refine_max_rounds=0)
        elif source in ("delta-nan", "delta-inf"):
            code, _ = run(tmp_path, "osc", model_kind="orthonormal", dim=3,
                          covering_width=1, delta=source.split("-")[1])
        elif source == "weight-ratio-overflow":
            # finite w whose max(w)/min(w) overflows a double
            code, _ = run(tmp_path, "osc", weight_rule="power", weight_scale=-260,
                          covering_width=2)
        elif source == "inversion-tol-nan":
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"model-kind": "orthonormal",
                                       "covering-width": "singleton",
                                       "inversion-tol": "nan"}))
            code = main(["discretize", "--config", str(cfg)])
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"model-kind": "orthonormal",
                                       "covering-width": "singleton",
                                       "delta": [0.3]}))
            code = main(["discretize", "--config", str(cfg)])
        assert code == EXIT_CONFIG

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model-kind": "orthonormal", "dim": 4,
                                   "covering-width": "singleton",
                                   "delta": 0.3, "n-trials": 5}))
        out = tmp_path / "r.json"
        code = main(["discretize", "--config", str(cfg), "--dim", "5",
                     "--output", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert len(doc["samples"]) == 5

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model-kin": "orthonormal"}))
        assert main(["discretize", "--config", str(cfg)]) == EXIT_CONFIG


class TestUnusableFiles:
    """A file that cannot be read, decoded or written is a configuration
    error: exit 2 with one line on stderr, no traceback."""

    @staticmethod
    def refused(capsys, argv):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_config_is_a_directory(self, tmp_path, capsys):
        self.refused(capsys, ["osc", "--config", str(tmp_path)])

    def test_output_is_a_directory(self, tmp_path, capsys):
        self.refused(capsys, ["osc", "--model-kind", "orthonormal", "--dim", "3",
                              "--covering-width", "singleton",
                              "--output", str(tmp_path)])

    @pytest.mark.parametrize("target", ["directory", "missing parent",
                                        "not writable"])
    @pytest.mark.parametrize("command", ["osc", "discretize"])
    def test_unwritable_output_refused_before_any_work(self, tmp_path, capsys,
                                                       monkeypatch, command,
                                                       target):
        """An output that is a directory, lies in a missing directory or
        may not be written is refused before the model is built: neither
        the model nor ``run_discretization`` is reached, and nothing is
        created."""
        calls = []
        monkeypatch.setattr(cli, "build_model",
                            lambda cfg: calls.append("build_model"))
        monkeypatch.setattr(cli, "run_discretization",
                            lambda *a, **k: calls.append("run_discretization"))
        out = {"directory": tmp_path,
               "missing parent": tmp_path / "missing" / "r.json",
               "not writable": tmp_path / "r.json"}[target]
        if target == "not writable":
            monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        before = sorted(tmp_path.rglob("*"))
        self.refused(capsys, [command, "--model-kind", "gabor", "--n-time", "8",
                              "--n-freq", "191", "--window-width", "2.83",
                              "--covering-width", "singleton",
                              "--output", str(out)])
        assert calls == []
        assert sorted(tmp_path.rglob("*")) == before

    def test_refused_run_leaves_no_report(self, tmp_path, capsys):
        """A writable output is not touched before the run: a run refused
        for certification writes no report, empty or not."""
        out = tmp_path / "r.json"
        code = main(["discretize", "--model-kind", "orthonormal", "--dim", "4",
                     "--delta", "1e-9", "--refine-max-rounds", "1",
                     "--output", str(out)])
        assert code == EXIT_CERTIFICATION
        assert "certification refused" in capsys.readouterr().err
        assert not out.exists()

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"model-kind": "orthonormal", "dim": "\xff"}')
        self.refused(capsys, ["osc", "--config", str(cfg)])


class TestNumericKeys:
    """Seeds are nonnegative, and an integer key takes an integral number
    (3.0 included) but neither a fraction nor a boolean; a refusal is a
    config error, exit 2."""

    def osc_from_json(self, tmp_path, **keys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model-kind": "gabor", "n-time": 3,
                                   "n-freq": 8, "window-width": 2.0,
                                   "covering-width": "singleton", **keys}))
        out = tmp_path / "r.json"
        code = main(["osc", "--config", str(cfg), "--output", str(out)])
        return code, json.loads(out.read_text()) if out.exists() else None

    @pytest.mark.parametrize("flag", ["seed", "model-seed"])
    def test_negative_seed_flag_is_config_error(self, tmp_path, flag):
        if flag == "seed":
            code, doc = run(tmp_path, "discretize", n_time=4, n_freq=61,
                            window_width=2.0, covering_width="singleton",
                            seed=-1)
        else:
            code, doc = run(tmp_path, "discretize", model_kind="random-smooth",
                            dim=3, n_points=24, covering_width="singleton",
                            model_seed=-3)
        assert code == EXIT_CONFIG and doc is None

    @pytest.mark.parametrize("key", ["seed", "model-seed"])
    def test_negative_seed_json_is_config_error(self, tmp_path, key):
        assert self.osc_from_json(tmp_path, **{key: -2}) == (EXIT_CONFIG, None)

    @pytest.mark.parametrize("key,value", [("n-time", 4.7), ("n-time", True),
                                           ("n-trials", 2.9), ("n-freq", False),
                                           ("delta", True), ("seed", 1.5)])
    def test_fraction_or_boolean_is_config_error(self, tmp_path, key, value):
        assert self.osc_from_json(tmp_path, **{key: value}) == (EXIT_CONFIG, None)

    def test_integral_float_accepted(self, tmp_path):
        code, doc = self.osc_from_json(tmp_path, **{"n-time": 3.0,
                                                    "n-trials": 2.0})
        assert code == EXIT_OK
        assert doc["n_sets"] == 3 * 8


class TestPointCap:
    """A grid above ``MAX_POINTS`` is refused with exit 2 before any model
    is built. The cap reads the chosen kind's grid: ``n-time`` x ``n-freq``
    points for Gabor, ``n-points`` for random-smooth and one point per
    dimension for orthonormal."""

    @staticmethod
    def refuse_builds(monkeypatch, builder):
        def built(*args):
            raise AssertionError("a model was built")

        monkeypatch.setattr(cli, "build_model", built)
        monkeypatch.setattr(cli, builder, built)

    @pytest.mark.parametrize("command", ["validate", "osc", "discretize"])
    def test_orthonormal_dim_above_cap(self, tmp_path, capsys, monkeypatch,
                                       command):
        self.refuse_builds(monkeypatch, "build_orthonormal_model")
        code, doc = run(tmp_path, command, model_kind="orthonormal",
                        dim=cli.MAX_POINTS + 1, covering_width="singleton")
        assert code == EXIT_CONFIG and doc is None
        assert "point cap" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "osc", "discretize"])
    def test_random_smooth_points_above_cap(self, tmp_path, capsys,
                                            monkeypatch, command):
        self.refuse_builds(monkeypatch, "build_random_smooth_model")
        code, doc = run(tmp_path, command, model_kind="random-smooth", dim=4,
                        n_points=cli.MAX_POINTS + 1, covering_width="singleton")
        assert code == EXIT_CONFIG and doc is None
        assert "point cap" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,options,points", [
        ("gabor", {"n_time": 6, "n_freq": 41}, 246),
        ("orthonormal", {"dim": 6}, 6)])
    def test_other_kinds_ignore_n_points(self, tmp_path, kind, options, points):
        """Only the random-smooth grid has ``n-points`` points: a Gabor and
        an orthonormal grid run under an ``n-points`` above the cap."""
        code, doc = run(tmp_path, "osc", model_kind=kind,
                        n_points=cli.MAX_POINTS + 1000,
                        covering_width="singleton", delta=0.2, **options)
        assert code == EXIT_OK
        assert doc["n_sets"] == points

    def test_validate_config_caps_orthonormal_dim(self):
        cfg = cli.load_config(None, {"model-kind": "orthonormal",
                                     "dim": str(cli.MAX_POINTS + 1)})
        with pytest.raises(cli.StructuralError, match="point cap"):
            cli.validate_config(cfg)
        cli.validate_config(cli.load_config(None, {
            "model-kind": "orthonormal", "dim": str(cli.MAX_POINTS)}))


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        opts = dict(model_kind="random-smooth", dim=3, n_points=96,
                    smoothness=3.0, model_seed=1, covering_width=2 / 96,
                    delta=0.25, seed=11, n_trials=10)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["discretize", "--output", str(out1)]
                    + sum([[f"--{k.replace('_', '-')}", str(v)]
                           for k, v in opts.items()], [])) == EXIT_OK
        assert main(["discretize", "--output", str(out2)]
                    + sum([[f"--{k.replace('_', '-')}", str(v)]
                           for k, v in opts.items()], [])) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()


def _leaves(doc):
    if isinstance(doc, dict):
        for value in doc.values():
            yield from _leaves(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _leaves(value)
    else:
        yield doc


GABOR_EXP = dict(model_kind="gabor", n_time=4, n_freq=61, window_width=2.0,
                 weight_rule="exp", weight_scale=0.02, p="inf",
                 covering_width="1,0.131", delta=0.25)


class TestPlainDocuments:
    """Each subcommand's document is plain Python: ``json.dumps`` takes it
    with no ``default`` hook, and every leaf is a bool, int, float, str or
    None, whether its checks pass or fail."""

    @pytest.mark.parametrize("command, options", [
        ("validate", BASE),
        ("validate", dict(model_kind="orthonormal", dim=6,
                          covering_sets=json.dumps([[0, 1], [3, 4, 5]]))),
        ("validate", GABOR_EXP),
        ("osc", dict(BASE, delta=0.3)),
        ("osc", dict(BASE, covering_width=100.0, delta=0.3)),
        ("osc", dict(model_kind="gabor", n_time=6, n_freq=81,
                     window_width=2.45, delta=0.2)),
        ("osc", GABOR_EXP),
        ("discretize", dict(BASE, delta=0.3, n_trials=10)),
        ("discretize", dict(GABOR_EXP, n_trials=10)),
    ], ids=["validate-partition", "validate-uncovered", "validate-exp",
            "osc", "osc-failing", "osc-refined", "osc-exp", "discretize",
            "discretize-exp"])
    def test_document_needs_no_default(self, tmp_path, monkeypatch, command,
                                       options):
        docs = []
        monkeypatch.setattr(cli, "emit", lambda doc, output: docs.append(doc))
        run(tmp_path, command, **options)
        assert len(docs) == 1
        json.dumps(docs[0], sort_keys=True)
        plain = (bool, int, float, str, type(None))
        assert all(type(leaf) in plain for leaf in _leaves(docs[0]))


class TestParser:
    def test_built_once_per_process(self, tmp_path, monkeypatch):
        """Successive ``main`` calls parse with one parser."""
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli.build_parser.cache_clear()
        try:
            assert run(tmp_path, "validate", **BASE)[0] == EXIT_OK
            assert run(tmp_path, "osc", **BASE, delta=0.3)[0] == EXIT_OK
        finally:
            cli.build_parser.cache_clear()
        assert built.count("framedisc") == 1


class TestRemovedSurface:
    """The partition kind, the sampling rule and the report merger are gone:
    naming them is a configuration error (exit 2)."""

    @pytest.mark.parametrize("key, value", [("pou", "flat"),
                                            ("sampling", "max-weight")])
    def test_config_key_is_unknown(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model-kind": "orthonormal", key: value}))
        assert main(["discretize", "--config", str(cfg)]) == EXIT_CONFIG
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["discretize", "--pou", "flat"],
        ["discretize", "--sampling", "max-weight"],
        ["report-merge", "report.json"],
    ], ids=["pou-flag", "sampling-flag", "report-merge"])
    def test_flag_or_command_is_unknown(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
