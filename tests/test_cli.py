import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sdrelax.cli import main, run

CHECK_CONFIG = {
    "task": "check-hypotheses",
    "seed": 3,
    "densities": {
        "W": {"catalog": "W_norm"},
        "psi1": {"catalog": "Psi1_norm"},
        "psi2": {"catalog": "Psi2_norm"},
    },
    "check": {"samples": 500},
}

EXAMPLE_CONFIG = {
    "task": "example-verify",
    "seed": 0,
    "example": {
        "a": [1.0, 0.0],
        "L": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        "M": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        "random_count": 100,
    },
}

SWEEP_CONFIG = {
    "task": "cell-sweep",
    "seed": 0,
    "densities": {
        "W": {"catalog": "W_norm"},
        "psi1": {"catalog": "Psi1_norm"},
        "psi2": {"catalog": "Psi2_norm"},
    },
    "cell": {"variant": "W1", "x": [0.5, 0.5], "A": [[1.0, 0.0], [0.0, 1.0]], "budget": 2},
    "output": {"json": "sweep.json", "csv": "sweep.csv"},
}

ASSEMBLE_CONFIG = {
    "task": "relax-assemble",
    "seed": 0,
    "densities": {"W": {"catalog": "W_norm", "params": {"d": 1, "N": 1}},
                  "psi1": {"catalog": "Psi1_norm"},
                  "psi2": {"catalog": "Psi2_norm"},
                  "d": 1, "N": 1},
    "domain": {"lower": [0.0], "upper": [1.0], "resolution": [4]},
    "fields": {
        "g": {"linear": [[1.0]]},
        "G": {"constant": [[0.0]]},
        "Gamma": {"constant": [[[0.0]]]},
    },
    "assemble": {"collect_cells": True},
    "output": {"json": "relax.json", "csv": "cells.csv"},
}

ENERGY_CONFIG = {
    "task": "energy",
    "densities": {"W": {"catalog": "W_norm"}, "psi1": {"catalog": "Psi1_norm"},
                  "psi2": {"catalog": "Psi2_norm"}, "d": 1, "N": 1},
    "domain": {"lower": [0.0], "upper": [1.0], "resolution": [2]},
    "fields": {"u": {"linear": [[1.0]]}},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def strip_timestamp(path):
    with open(path) as fh:
        lines = [ln for ln in fh if '"timestamp"' not in ln]
    return "".join(lines)


class TestExitCodes:
    def test_success(self, tmp_path):
        cfg = write_config(tmp_path, CHECK_CONFIG)
        assert run(cfg, out_dir=str(tmp_path)) == 0

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        bad = dict(CHECK_CONFIG)
        bad["pressure"] = 1.0
        cfg = write_config(tmp_path, bad)
        assert run(cfg, out_dir=str(tmp_path)) == 2
        assert "pressure" in capsys.readouterr().err

    def test_unknown_output_key_exit_2(self, tmp_path, capsys):
        bad = dict(EXAMPLE_CONFIG)
        bad["output"] = {"jsn": "x.json"}
        cfg = write_config(tmp_path, bad)
        assert run(cfg, out_dir=str(tmp_path)) == 2
        assert "jsn" in capsys.readouterr().err

    def test_unknown_task_exit_2(self, tmp_path):
        bad = dict(CHECK_CONFIG)
        bad["task"] = "make-coffee"
        cfg = write_config(tmp_path, bad)
        assert run(cfg, out_dir=str(tmp_path)) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert run(str(tmp_path / "nope.json"), out_dir=str(tmp_path)) == 2

    def test_strict_hypothesis_failure_exit_4(self, tmp_path):
        cfg_payload = json.loads(json.dumps(CHECK_CONFIG))
        cfg_payload["densities"]["psi1"] = {"catalog": "Psi1_square"}
        cfg = write_config(tmp_path, cfg_payload)
        assert run(cfg, out_dir=str(tmp_path), strict=True) == 4
        assert run(cfg, out_dir=str(tmp_path), strict=False) == 0

    def test_estimator_failure_exit_3(self, tmp_path, monkeypatch, capsys):
        from sdrelax import cli
        from sdrelax.cellformulas import EstimationError

        def boom(*args, **kwargs):
            raise EstimationError("no admissible competitor generated for W1; A=[[1.0]]")

        monkeypatch.setattr(cli, "estimate_W1", boom)
        cfg = write_config(tmp_path, SWEEP_CONFIG)
        assert run(cfg, out_dir=str(tmp_path)) == 3
        assert "no admissible competitor" in capsys.readouterr().err

    def test_subcommand_task_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, CHECK_CONFIG)
        assert main(["energy", cfg, "--out", str(tmp_path)]) == 2

    def test_subcommand_match_runs(self, tmp_path):
        cfg = write_config(tmp_path, CHECK_CONFIG)
        assert main(["check-hypotheses", cfg, "--out", str(tmp_path)]) == 0


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        cfg = write_config(tmp_path, EXAMPLE_CONFIG)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run(cfg, out_dir=str(out_a)) == 0
        assert run(cfg, out_dir=str(out_b)) == 0
        assert strip_timestamp(out_a / "report.json") == strip_timestamp(out_b / "report.json")

    def test_jobs_do_not_change_report(self, tmp_path):
        cfg = write_config(tmp_path, ASSEMBLE_CONFIG)
        out_a = tmp_path / "j1"
        out_b = tmp_path / "j8"
        assert run(cfg, out_dir=str(out_a), jobs=1) == 0
        assert run(cfg, out_dir=str(out_b), jobs=8) == 0
        a = json.loads((out_a / "relax.json").read_text())
        b = json.loads((out_b / "relax.json").read_text())
        assert a["relaxed"]["total"] == b["relaxed"]["total"]

    def test_config_embedded_in_report(self, tmp_path):
        cfg = write_config(tmp_path, CHECK_CONFIG)
        run(cfg, out_dir=str(tmp_path))
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["densities"]["W"]["catalog"] == "W_norm"
        assert "timestamp" in report


class TestOutputs:
    def test_check_section_reaches_the_checker(self, tmp_path):
        payload = json.loads(json.dumps(CHECK_CONFIG))
        payload["check"] = {"samples": 200, "pair_scales": [0.5]}
        cfg = write_config(tmp_path, payload)
        assert run(cfg, out_dir=str(tmp_path)) == 0
        report = json.loads((tmp_path / "report.json").read_text())["report"]
        assert report["config"]["pair_scales"] == [0.5]
        assert report["results"]["H3"]["samples"] == 100  # one rung of 100 pairs

    def test_sweep_csv_schema(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_CONFIG)
        assert run(cfg, out_dir=str(tmp_path)) == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[0] == "family"
        assert header[-2:] == ["admissible", "energy"]
        assert len(lines) >= 4  # header + metadata + rows

    def test_assemble_outputs(self, tmp_path):
        cfg = write_config(tmp_path, ASSEMBLE_CONFIG)
        assert run(cfg, out_dir=str(tmp_path)) == 0
        report = json.loads((tmp_path / "relax.json").read_text())
        assert report["relaxed"]["total"]["upper"] == pytest.approx(1.0, abs=1e-12)
        cells = (tmp_path / "cells.csv").read_text().strip().splitlines()
        assert len(cells) == 2 + 4  # header + metadata + one row per cell

    def test_energy_task(self, tmp_path):
        payload = {
            "task": "energy",
            "densities": {"W": {"catalog": "W_norm", "params": {"d": 1, "N": 1}},
                          "psi1": {"catalog": "Psi1_norm"},
                          "psi2": {"catalog": "Psi2_norm"}, "d": 1, "N": 1},
            "domain": {"lower": [0.0], "upper": [1.0], "resolution": [4]},
            "fields": {"u": {"expression": ["x[0]*x[0]/2"],
                             "grad_expression": [["x[0]"]]}},
        }
        cfg = write_config(tmp_path, payload)
        assert run(cfg, out_dir=str(tmp_path)) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["energy"]["bulk"] == pytest.approx(0.5, abs=1e-12)

    def test_energy_task_with_gradient_field(self, tmp_path):
        # second data carried by a companion gradient field: bulk = int(|x|+1)
        payload = {
            "task": "energy",
            "densities": {"W": {"catalog": "W_norm", "params": {"d": 1, "N": 1}},
                          "psi1": {"catalog": "Psi1_norm"},
                          "psi2": {"catalog": "Psi2_norm"}, "d": 1, "N": 1},
            "domain": {"lower": [0.0], "upper": [1.0], "resolution": [4]},
            "fields": {"u": {"expression": ["x[0]*x[0]/2"], "grad_expression": [["x[0]"]]},
                       "grad": {"expression": [["x[0]"]], "grad_expression": [[["1"]]]}},
        }
        cfg = write_config(tmp_path, payload)
        assert run(cfg, out_dir=str(tmp_path)) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["energy"]["bulk"] == pytest.approx(1.5, abs=1e-12)

    def test_sequence_task(self, tmp_path):
        payload = {
            "task": "approx-sequence",
            "densities": {"W": {"catalog": "W_norm", "params": {"d": 1, "N": 1}},
                          "psi1": {"catalog": "Psi1_norm"},
                          "psi2": {"catalog": "Psi2_norm"}, "d": 1, "N": 1},
            "domain": {"lower": [0.0], "upper": [1.0], "resolution": [4]},
            "fields": {"g": {"linear": [[1.0]]}, "G": {"constant": [[0.0]]}},
            "sequence": {"n": [4, 8]},
        }
        cfg = write_config(tmp_path, payload)
        assert run(cfg, out_dir=str(tmp_path)) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert len(report["sequence"]) == 2
        assert report["sequence"][0]["l1_u"] == pytest.approx(1 / 64, abs=1e-14)


class TestExpressionDensities:
    def test_custom_triple_runs(self, tmp_path):
        payload = {
            "task": "check-hypotheses",
            "seed": 1,
            "densities": {"expressions": {
                "W": "norm(A) + norm(M)",
                "psi1": "norm(lam)",
                "psi2": "norm(Lam)",
            }},
            "check": {"samples": 200},
        }
        cfg = write_config(tmp_path, payload)
        assert run(cfg, out_dir=str(tmp_path)) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["report"]["all_pass"]

    def test_bad_expression_exit_2(self, tmp_path, capsys):
        payload = json.loads(json.dumps(CHECK_CONFIG))
        payload["densities"] = {"expressions": {"W": "norm(A", "psi1": "norm(lam)",
                                                "psi2": "norm(Lam)"}}
        cfg = write_config(tmp_path, payload)
        assert run(cfg, out_dir=str(tmp_path)) == 2


class TestExpressionFields:
    DOMAIN = {"lower": [0.0, 0.0], "upper": [1.0, 1.0], "resolution": [2, 2]}

    def build(self, cfg):
        from sdrelax.cli import _build_domain, _build_field

        return _build_field(_build_domain(self.DOMAIN), cfg, "G")

    def test_matrix_expression_keeps_index_order(self):
        field = self.build({"expression": [["1", "2"], ["3", "4"]]})
        assert field.value_shape == (2, 2)
        assert np.array_equal(field.const[0, 0], [[1.0, 2.0], [3.0, 4.0]])

    def test_matrix_expression_in_x_keeps_index_order(self):
        field = self.build({"expression": [["x[0]", "2*x[1]"], ["3", "x[0] + x[1]"]]})
        x, y = 0.25, 0.75  # center of cell (0, 1)
        assert np.array_equal(field.const[0, 1], [[x, 2 * y], [3.0, x + y]])

    def test_three_level_grad_expression_keeps_index_order(self):
        grad = [[[str(4 * i + 2 * j + k + 1) for k in range(2)] for j in range(2)] for i in range(2)]
        field = self.build({"expression": [["0", "0"], ["0", "0"]], "grad_expression": grad})
        expected = np.arange(1.0, 9.0).reshape(2, 2, 2)
        for cell in np.ndindex(2, 2):
            assert np.array_equal(field.lin[cell], expected)


class TestNonFinite:
    def test_nan_in_config_exit_2(self, tmp_path, capsys):
        payload = json.loads(json.dumps(ASSEMBLE_CONFIG))
        payload["fields"]["g"] = {"linear": [[float("nan")]]}
        cfg = write_config(tmp_path, payload)
        assert "NaN" in Path(cfg).read_text()
        assert run(cfg, out_dir=str(tmp_path)) == 2
        assert not (tmp_path / "relax.json").exists()
        assert "non-finite" in capsys.readouterr().err

    def test_infinity_in_subcommand_config_exit_2(self, tmp_path):
        payload = json.loads(json.dumps(ASSEMBLE_CONFIG))
        payload["fields"]["G"] = {"constant": [[float("inf")]]}
        cfg = write_config(tmp_path, payload)
        assert main(["relax-assemble", cfg, "--out", str(tmp_path)]) == 2

    # each edit plants the marker 12345.0, which the file then carries as 1e999
    FIELD_FILE_EDITS = {
        "const": lambda d: d["const"][2].__setitem__(0, 12345.0),
        "jump_tol": lambda d: d.__setitem__("jump_tol", 12345.0),
        "domain": lambda d: d["domain"].__setitem__("upper", [12345.0]),
        "affine_boundary": lambda d: d.__setitem__(
            "boundary", {"kind": "affine", "const": [12345.0], "lin": [[0.0]]}),
        "step_boundary": lambda d: d.__setitem__(
            "boundary", {"kind": "step", "payload": [1.0], "axis": 0, "threshold": 12345.0}),
    }

    @pytest.mark.parametrize("where", sorted(FIELD_FILE_EDITS))
    def test_overflowing_field_file_exit_2(self, tmp_path, capsys, where):
        from sdrelax.fields import BoxDomain, PiecewiseAffineField

        field = PiecewiseAffineField(BoxDomain([0.0], [1.0], [4]), np.zeros((4, 1)))
        data = field.to_dict()
        self.FIELD_FILE_EDITS[where](data)
        (tmp_path / "g.json").write_text(json.dumps(data).replace("12345.0", "1e999"))
        payload = json.loads(json.dumps(ASSEMBLE_CONFIG))
        payload["fields"]["g"] = {"file": str(tmp_path / "g.json")}
        cfg = write_config(tmp_path, payload)
        assert run(cfg, out_dir=str(tmp_path)) == 2
        assert not (tmp_path / "relax.json").exists()
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("base, section, key", [
        # constant fields stay finite on an infinite domain, so only the domain check sees it
        (dict(ASSEMBLE_CONFIG, fields={"g": {"constant": [0.0]}, "G": {"constant": [[0.0]]}}),
         "domain", "upper"),
        (SWEEP_CONFIG, "cell", "A"),
        (SWEEP_CONFIG, "cell", "x"),
        (EXAMPLE_CONFIG, "example", "a"),
        (EXAMPLE_CONFIG, "example", "L"),
    ])
    def test_overflowing_config_array_exit_2(self, tmp_path, capsys, base, section, key):
        payload = json.loads(json.dumps(base))
        value = np.asarray(payload[section][key], dtype=float)
        value.flat[0] = 12345.0
        payload[section][key] = value.tolist()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload).replace("12345.0", "1e999"))
        assert run(str(path), out_dir=str(tmp_path)) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_non_finite_result_writes_no_report(self, tmp_path, monkeypatch, capsys):
        from sdrelax import cli

        monkeypatch.setattr(cli, "verify_example", lambda *a, **k: {"value": float("nan")})
        cfg = write_config(tmp_path, EXAMPLE_CONFIG)
        assert run(cfg, out_dir=str(tmp_path)) == 3
        assert not (tmp_path / "report.json").exists()
        assert "non-finite" in capsys.readouterr().err


class TestIngestionErrors:
    def test_catalog_constructor_error_exit_2(self, tmp_path, capsys):
        payload = json.loads(json.dumps(CHECK_CONFIG))
        payload["densities"]["psi2"] = {"catalog": "Psi2_proj", "params": {"a": [2.0, 0.0]}}
        cfg = write_config(tmp_path, payload)
        assert run(cfg, out_dir=str(tmp_path)) == 2
        assert "unit vector" in capsys.readouterr().err

    def test_gamma_shape_error_exit_2(self, tmp_path, capsys):
        payload = {
            "task": "relax-assemble",
            "densities": {"W": {"catalog": "W_norm"}, "psi1": {"catalog": "Psi1_norm"},
                          "psi2": {"catalog": "Psi2_norm"}},
            "domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0], "resolution": [2, 2]},
            "fields": {"g": {"linear": [[1.0, 0.0], [0.0, 1.0]]},
                       "G": {"constant": [[1.0, 0.0], [0.0, 1.0]]},
                       "Gamma": {"table": np.zeros((2, 2, 1, 1, 1)).tolist()}},
        }
        cfg = write_config(tmp_path, payload)
        assert run(cfg, out_dir=str(tmp_path)) == 2
        assert "Gamma shape" in capsys.readouterr().err

    @pytest.mark.parametrize("quantize, message", [("0", "quantize"), ("1e999", "non-finite")])
    def test_bad_quantize_exit_2(self, tmp_path, capsys, quantize, message):
        payload = json.loads(json.dumps(ASSEMBLE_CONFIG))
        payload["assemble"]["quantize"] = 12345.0
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload).replace("12345.0", quantize))
        assert run(str(path), out_dir=str(tmp_path)) == 2
        assert not (tmp_path / "relax.json").exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("samples", [1, 50])
    def test_too_few_samples_exit_2(self, tmp_path, capsys, samples):
        payload = json.loads(json.dumps(CHECK_CONFIG))
        payload["check"]["samples"] = samples
        cfg = write_config(tmp_path, payload)
        assert run(cfg, out_dir=str(tmp_path)) == 2
        assert "at least 64" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("schedule", [0.0, 1.0, 2.0]), ("schedule", [-1.0, 2.0, 3.0]), ("schedule", [4.0, 2.0, 8.0]),
        ("schedule", []), ("schedule", 5), ("pair_scales", []), ("pair_scales", [0.1, 0.0]),
        ("input_range", 0.3), ("input_range", 1e300),
    ])
    def test_bad_check_ladder_exit_2(self, tmp_path, capsys, key, value):
        payload = json.loads(json.dumps(CHECK_CONFIG))
        payload["check"][key] = value
        cfg = write_config(tmp_path, payload)
        assert run(cfg, out_dir=str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "bad check section" in err and key in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("which", ["W", "psi1", "psi2"])
    def test_missing_density_expression_exit_2(self, tmp_path, capsys, which):
        expressions = {"W": "norm(A) + norm(M)", "psi1": "norm(lam)", "psi2": "norm(Lam)"}
        del expressions[which]
        cfg = write_config(tmp_path, {**CHECK_CONFIG, "densities": {"expressions": expressions}})
        assert run(cfg, out_dir=str(tmp_path)) == 2
        assert f"densities.expressions section missing '{which}'" in capsys.readouterr().err

    @pytest.mark.parametrize("which, name", [("W", "W_norm"), ("psi1", "Psi1_norm")])
    def test_unknown_catalog_param_exit_2(self, tmp_path, capsys, which, name):
        payload = json.loads(json.dumps(CHECK_CONFIG))
        payload["densities"][which] = {"catalog": name, "params": {"bogus": 1.0}}
        cfg = write_config(tmp_path, payload)
        assert run(cfg, out_dir=str(tmp_path)) == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("quantize", 1e-6), ("cache", False)])
    def test_removed_assemble_keys_exit_2(self, tmp_path, capsys, key, value):
        payload = json.loads(json.dumps(ASSEMBLE_CONFIG))
        payload["assemble"][key] = value
        cfg = write_config(tmp_path, payload)
        assert run(cfg, out_dir=str(tmp_path)) == 2
        assert f"unknown key assemble.{key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["1e999", "-1e999", "1" + "0" * 400])
    def test_overflowing_scalar_literal_exit_2(self, tmp_path, capsys, literal):
        payload = json.loads(json.dumps(EXAMPLE_CONFIG))
        payload["example"]["tolerance"] = 12345.0
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload).replace("12345.0", literal))
        assert run(str(path), out_dir=str(tmp_path)) == 2
        assert "non-finite" in capsys.readouterr().err


def _sweep(cell):
    payload = json.loads(json.dumps(SWEEP_CONFIG))
    payload["cell"] = {"x": [0.5, 0.5], "budget": 1, **cell}
    return payload


def _example(**example):
    payload = json.loads(json.dumps(EXAMPLE_CONFIG))
    payload["example"].update(example, random_count=0)
    return payload


def _sequence(ns):
    payload = json.loads(json.dumps(ASSEMBLE_CONFIG))
    del payload["assemble"], payload["output"]
    return {**payload, "task": "approx-sequence", "sequence": {"n": ns}}


def _energy_with_inconsistent_grad():
    payload = json.loads(json.dumps(ASSEMBLE_CONFIG))
    return {"task": "energy", "densities": payload["densities"], "domain": payload["domain"],
            "fields": {"u": {"linear": [[1.0]]}, "grad": {"constant": [[2.0]]}}}


def _edited(keys, value, base=ASSEMBLE_CONFIG):
    payload = json.loads(json.dumps(base))
    node = payload
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return payload


ZERO_L = np.zeros((2, 2, 2)).tolist()


class TestLibraryValueErrors:
    """Bad values that only the library checks still exit 2, with no traceback."""

    @pytest.mark.parametrize("n", [2**32, 2**31 + 1, 100000])
    def test_huge_sequence_n_exit_2(self, tmp_path, capsys, n):
        # a 4x4 grid whose n^2-refined grid numpy cannot index: refused before
        # any allocation (2**32 overflowed in n * n, the others ran out of memory)
        payload = {"task": "approx-sequence", "seed": 0, "densities": SWEEP_CONFIG["densities"],
                   "domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0], "resolution": [4, 4]},
                   "fields": {"g": {"linear": [[1.0, 0.0], [0.0, 1.0]]},
                              "G": {"constant": [[1.0, 0.0], [0.0, 1.0]]},
                              "Gamma": {"constant": np.zeros((2, 2, 2)).tolist()}},
                   "sequence": {"n": [n]}}
        cfg = write_config(tmp_path, payload)
        assert run(cfg, out_dir=str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert f"sequence n = {n} needs a" in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]  # no report

    @pytest.mark.parametrize("payload, message", [
        (_sweep({"variant": "Gamma1", "lam": [1.0, 0.0], "nu": [0.0, 2.0]}), "unit vector"),
        (_sweep({"variant": "Gamma1", "lam": [1.0, 0.0], "nu": [0.0, 1.0], "resolution": 3}),
         "must be even"),
        (_sweep({"variant": "W2", "A": [[1.0, 0.0], [0.0, 1.0]], "L": ZERO_L, "M": ZERO_L,
                 "resolution": 0}), "resolution"),
        (_sweep({"variant": "W2", "A": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], "L": ZERO_L,
                 "M": ZERO_L}), "A must have shape (d, N) with N = len(x) = 2, got (2, 3)"),
        (_sweep({"variant": "Gamma2", "A": [1.0, 0.0, 0.0, 1.0, 0.0], "Lam": [[1.0, 0.0], [0.0, 1.0]],
                 "nu": [0.0, 1.0]}), "A must have shape (d, N) with N = len(x) = 2, got (5,)"),
        (_sweep({"variant": "Gamma1", "lam": [1.0, 0.0], "nu": [0.0, 0.0, 1.0]}),
         "nu must have shape (N,) with N = len(x) = 2, got (3,)"),
        (_sweep({"variant": "W1", "x": [0.5, 0.5, 0.5], "A": [[1.0, 0.0], [0.0, 1.0]]}),
         "A must have shape (d, N) with N = len(x) = 3, got (2, 2)"),
        (_sequence([0]), "n must be >= 1"),
        (_example(a=[2.0, 0.0]), "unit vector"),
        (_example(L=[[1.0, 0.0], [0.0, 1.0]]), "N x N x N"),
        (_energy_with_inconsistent_grad(), "inconsistent"),
        (_edited(["fields", "g"], {"expression": ["x[5]"]}),
         "bad field expression for 'g': index [5] is out of range for x of shape (1,)"),
        (_edited(["densities"], {"expressions": {"W": "norm(A) + norm(M)",
                                                 "psi1": "norm(lam) + abs(lam[7])",
                                                 "psi2": "norm(Lam)"}, "d": 1, "N": 1}),
         "index [7] is out of range for lam of shape (1,)"),
    ], ids=["gamma1-nu", "gamma1-odd-resolution", "w2-resolution-0", "w2-A-2x3",
            "gamma2-A-vector", "gamma1-nu-3d", "w1-x-3d", "sequence-n-0",
            "example-a", "example-2x2-L", "energy-grad", "field-index", "density-index"])
    def test_exit_2(self, tmp_path, capsys, payload, message):
        cfg = write_config(tmp_path, payload)
        assert run(cfg, out_dir=str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]  # no report

    @pytest.mark.parametrize("payload", [
        {**SWEEP_CONFIG, "cell": {**SWEEP_CONFIG["cell"], "budget": 0}},
        {**SWEEP_CONFIG, "cell": {**SWEEP_CONFIG["cell"], "budget": -1}},
        {**ASSEMBLE_CONFIG, "assemble": {"budget": 0}},
    ], ids=["sweep-budget-0", "sweep-budget-minus-1", "assemble-budget-0"])
    def test_budget_below_one_exit_2(self, tmp_path, capsys, payload):
        cfg = write_config(tmp_path, payload)
        assert run(cfg, out_dir=str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "budget must be at least 1" in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]  # no report


class TestWrongTypes:
    """A value of the wrong type exits 2 and names its key, with no traceback."""

    @pytest.mark.parametrize("payload, message", [
        (_sequence(2), "bad sequence section: sequence.n"),
        (_edited(["assemble", "budget"], [1]), "bad assemble section: assemble.budget"),
        (_edited(["fields", "G"], "oops"), "bad fields section: fields.G: must be an object, got str"),
        (_edited(["densities", "W"], {"catalog": "W_nrm"}),
         "bad density densities.W: unknown catalog density 'W_nrm'"),
        (_edited(["assemble"], [1]), "bad config: assemble: must be an object, got list"),
        (_edited(["seed"], [1]), "bad config: seed"),
        (_edited(["domain", "resolution"], {"n": 4}), "bad domain section: domain.resolution"),
        (_edited(["fields", "g"], {"constant": {"a": 1}}), "bad fields.g section: fields.g.constant"),
        (_edited(["densities", "W", "params"], [1]),
         "bad densities.W section: densities.W.params: must be an object, got list"),
        (_edited(["assemble", "collect_cells"], "false"),
         "bad assemble section: assemble.collect_cells: must be true or false, got str"),
        # integer settings take JSON integers: int() would coerce each of these
        (_edited(["seed"], 2.9), "bad config: seed: must be an integer, got float"),
        (_edited(["domain", "resolution"], ["4"]),
         "bad domain section: domain.resolution: must be an integer, got str"),
        (_edited(["domain", "resolution"], [4.0]),
         "bad domain section: domain.resolution: must be an integer, got float"),
        (_edited(["densities", "d"], 1.0),
         "bad densities section: densities.d: must be an integer, got float"),
        (_edited(["densities", "N"], True),
         "bad densities section: densities.N: must be an integer, got bool"),
        (_edited(["densities", "W", "params", "d"], "1"),
         "bad densities.W.params section: densities.W.params.d: must be an integer, got str"),
        (_edited(["densities", "W", "params", "N"], 1.0),
         "bad densities.W.params section: densities.W.params.N: must be an integer, got float"),
        (_edited(["check", "samples"], 500.5, CHECK_CONFIG),
         "bad check section: check.samples: must be an integer, got float"),
        (_edited(["check", "d"], 2.0, CHECK_CONFIG),
         "bad check section: check.d: must be an integer, got float"),
        (_edited(["check", "N"], "2", CHECK_CONFIG),
         "bad check section: check.N: must be an integer, got str"),
        (_sequence([4.0]), "bad sequence section: sequence.n: must be an integer, got float"),
        # an empty list would write a report with no sequence in it
        (_sequence([]), "bad sequence section: sequence.n: must list at least one n"),
        (_edited(["cell", "budget"], 2.0, SWEEP_CONFIG),
         "bad cell section: cell.budget: must be an integer, got float"),
        (_edited(["cell", "resolution"], "4", SWEEP_CONFIG),
         "bad cell section: cell.resolution: must be an integer, got str"),
        (_edited(["example", "random_count"], 100.0, EXAMPLE_CONFIG),
         "bad example section: example.random_count: must be an integer, got float"),
        (_edited(["assemble", "budget"], 1.7),
         "bad assemble section: assemble.budget: must be an integer, got float"),
        (_edited(["assemble", "budget"], "2"),
         "bad assemble section: assemble.budget: must be an integer, got str"),
        (_edited(["assemble", "budget"], True),
         "bad assemble section: assemble.budget: must be an integer, got bool"),
        (_edited(["assemble", "resolution"], 4.0),
         "bad assemble section: assemble.resolution: must be an integer, got float"),
        (_edited(["assemble", "w2_resolution"], 8.0),
         "bad assemble section: assemble.w2_resolution: must be an integer, got float"),
        # number settings take JSON numbers: float() and np.asarray would coerce each of these
        (_edited(["cell", "x"], [True, "0.5"], SWEEP_CONFIG),
         "bad cell section: cell.x: must be a number, got bool"),
        (_edited(["cell", "A"], [["1", 0.0], [0.0, 1.0]], SWEEP_CONFIG),
         "bad cell section: cell.A: must be a number, got str"),
        (_edited(["check", "input_range"], True, CHECK_CONFIG),
         "bad check section: check.input_range: must be a number, got bool"),
        (_edited(["check", "schedule"], ["1", 2.0, 4.0], CHECK_CONFIG),
         "bad check section: check.schedule: must be a number, got str"),
        (_edited(["check", "pair_scales"], "0.1", CHECK_CONFIG),
         "bad check section: check.pair_scales: must be a list of numbers, got str"),
        (_edited(["example", "tolerance"], "0.5", EXAMPLE_CONFIG),
         "bad example section: example.tolerance: must be a number, got str"),
        # catalog params a density takes are typed too
        (_edited(["densities", "W", "params"], {"t_min": "0.5"}, CHECK_CONFIG),
         "bad densities.W.params section: densities.W.params.t_min: must be a number, got str"),
        (_edited(["densities", "W", "params"], {"probe_range": True}, CHECK_CONFIG),
         "bad densities.W.params section: densities.W.params.probe_range: must be a number, "
         "got bool"),
        (_edited(["densities", "psi2"], {"catalog": "Psi2_proj", "params": {"a": ["1", 0.0]}},
                 CHECK_CONFIG),
         "bad densities.psi2.params section: densities.psi2.params.a: must be a number, got str"),
        (_edited(["example", "random_count"], -5, EXAMPLE_CONFIG),
         "bad example section: example.random_count: must not be negative, got -5"),
        # and range-checked by the density
        (_edited(["densities", "W", "params"], {"t_min": 0}, CHECK_CONFIG),
         "bad density densities.W: t_min must be finite and > 0, got 0"),
        (_edited(["densities", "W", "params"], {"t_min": -1}, CHECK_CONFIG),
         "bad density densities.W: t_min must be finite and > 0, got -1"),
        (_edited(["densities", "W", "params"], {"probe_range": -3}, CHECK_CONFIG),
         "bad density densities.W: probe_range must be finite and >= 0, got -3"),
        # and range-checked before any solve: this config has no jump facet,
        # so no Gamma cell would read the resolution
        (_edited(["assemble", "resolution"], 0),
         "resolution must be an even integer >= 2 (the jump axis of the Gamma cells), got 0"),
        (_edited(["assemble", "resolution"], 3),
         "resolution must be an even integer >= 2 (the jump axis of the Gamma cells), got 3"),
        (_edited(["assemble", "resolution"], -2),
         "resolution must be an even integer >= 2 (the jump axis of the Gamma cells), got -2"),
        (_edited(["assemble", "w2_resolution"], 0), "w2_resolution must be at least 1, got 0"),
        (_edited(["assemble", "budget"], 0), "budget must be at least 1, got 0"),
        # a cell problem checks its own resolution, whichever family reads it
        (_edited(["cell", "resolution"], 0, SWEEP_CONFIG),
         "resolution must be at least 1 and must be even for Gamma1 and Gamma2, got 0 for W1"),
        (_edited(["cell", "resolution"], -5, SWEEP_CONFIG),
         "resolution must be at least 1 and must be even for Gamma1 and Gamma2, got -5 for W1"),
        (_sweep({"variant": "W2", "A": [[1.0, 0.0], [0.0, 1.0]], "L": ZERO_L, "M": ZERO_L,
                 "resolution": -5}),
         "resolution must be at least 1 and must be even for Gamma1 and Gamma2, got -5 for W2"),
    ], ids=["sequence-n-int", "assemble-budget-list", "fields-G-string", "unknown-catalog",
            "assemble-list", "seed-list", "domain-resolution-object", "constant-object",
            "params-list", "collect-cells-string", "seed-float", "resolution-str",
            "resolution-float", "densities-d-float", "densities-N-bool", "params-d-str",
            "params-N-float", "check-samples-float", "check-d-float", "check-N-str",
            "sequence-n-float", "sequence-n-empty", "cell-budget-float", "cell-resolution-str",
            "example-random-count-float", "assemble-budget-float", "assemble-budget-str",
            "assemble-budget-bool", "assemble-resolution-float", "assemble-w2-resolution-float",
            "cell-x-bool", "cell-A-str", "check-input-range-bool", "check-schedule-str",
            "check-pair-scales-str", "example-tolerance-str", "params-t-min-str",
            "params-probe-range-bool", "params-a-str", "example-random-count-negative",
            "params-t-min-zero", "params-t-min-negative", "params-probe-range-negative",
            "assemble-resolution-zero", "assemble-resolution-odd", "assemble-resolution-negative",
            "assemble-w2-resolution-zero", "assemble-budget-zero", "cell-w1-resolution-zero",
            "cell-w1-resolution-negative", "cell-w2-resolution-negative"])
    def test_exit_2(self, tmp_path, capsys, payload, message):
        cfg = write_config(tmp_path, payload)
        assert run(cfg, out_dir=str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]  # no report


    @pytest.mark.parametrize("seed, kind", [(2.9, "float"), ("2", "str"), (True, "bool")],
                             ids=["float", "str", "bool"])
    def test_seed_argument_exit_2(self, tmp_path, capsys, seed, kind):
        cfg = write_config(tmp_path, SWEEP_CONFIG)
        assert run(cfg, out_dir=str(tmp_path), seed=seed) == 2
        err = capsys.readouterr().err
        assert f"bad seed argument: must be an integer, got {kind}" in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]  # no report

    def test_seed_argument_overrides_the_config(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_CONFIG)
        assert run(cfg, out_dir=str(tmp_path), seed=7) == 0
        with open(tmp_path / "sweep.json") as fh:
            assert json.load(fh)["seed"] == 7


PROJ = {"catalog": "Psi2_proj", "params": {"a": [1.0, 0.0]}}


class TestBadSizes:
    """A vector given as a number or as nested lists, a vector of the wrong
    length and a dimension below 1 exit 2 and name their key: no traceback
    and no run that warns and exits 0."""

    @pytest.mark.parametrize("payload, message", [
        (_edited(["example", "a"], 1.0, EXAMPLE_CONFIG),
         "bad example section: example.a: must be a list of numbers, got float"),
        (_edited(["densities", "psi2"], {**PROJ, "params": {"a": -1}}, CHECK_CONFIG),
         "bad densities.psi2.params section: densities.psi2.params.a: must be a list of numbers, "
         "got int"),
        (_edited(["densities", "psi2"], {**PROJ, "params": {"a": [[1.0]]}}, CHECK_CONFIG),
         "bad densities.psi2.params section: densities.psi2.params.a: must be a number, got list"),
        (_edited(["densities", "psi2"], {**PROJ, "params": {"a": [1.0]}}, CHECK_CONFIG),
         "bad density densities.psi2: a must be a vector of length N = 2, got shape (1,)"),
        (_edited(["densities", "d"], -1, CHECK_CONFIG),
         "bad density densities.W: d must be at least 1, got -1"),
        (_edited(["densities", "N"], -1, CHECK_CONFIG),
         "bad density densities.W: N must be at least 1, got -1"),
        (_edited(["densities", "N"], 0, CHECK_CONFIG),
         "bad density densities.W: N must be at least 1, got 0"),
        (_edited(["densities", "W", "params", "d"], -1),
         "bad density densities.W: d must be at least 1, got -1"),
        (_edited(["densities", "d"], -1), "bad density densities.psi1: d must be at least 1, got -1"),
        (_edited(["check", "d"], 0, CHECK_CONFIG), "bad check section: d must be at least 1, got 0"),
    ], ids=["example-a-number", "proj-a-number", "proj-a-nested", "proj-a-short", "densities-d",
            "densities-N", "densities-N-zero", "params-d", "assemble-densities-d", "check-d-zero"])
    def test_exit_2(self, tmp_path, capsys, payload, message):
        cfg = write_config(tmp_path, payload)
        assert run(cfg, out_dir=str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err and "Warning" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]  # no report


class TestOutputNames:
    """An output name that names no file (the output directory itself) exits
    2 naming its key, instead of an ``IsADirectoryError`` traceback."""

    @pytest.mark.parametrize("key", ["json", "csv"])
    @pytest.mark.parametrize("name", ["", ".", "sub/"])
    def test_exit_2(self, tmp_path, capsys, key, name):
        cfg = write_config(tmp_path, _edited(["output", key], name))
        assert run(cfg, out_dir=str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert f"bad output section: output.{key}: must name a file, got {name!r}" in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]  # no report


class TestOverflowingData:
    """A finite datum whose energy overflows, such as 1e300 in
    ``domain.upper`` or ``cell.A``, exits 3 as a non-finite result, also when
    the caller's numpy errstate raises on overflow: the run keeps IEEE
    overflow and underflow and checks the result itself."""

    @pytest.mark.parametrize("payload", [_edited(["domain", "upper"], [1e300]),
                                         _edited(["cell", "A"], [[1e300, 0.0], [0.0, 1.0]], SWEEP_CONFIG)],
                             ids=["domain-upper", "cell-A"])
    @pytest.mark.parametrize("errstate", ["warn", "raise"])
    def test_exit_3(self, tmp_path, capsys, payload, errstate):
        cfg = write_config(tmp_path, payload)
        with np.errstate(all=errstate):
            assert run(cfg, out_dir=str(tmp_path)) == 3
        err = capsys.readouterr().err
        assert "error: non-finite result, no report written" in err and "Warning" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]  # no report

    def test_an_underflowing_datum_runs(self, tmp_path):
        cfg = write_config(tmp_path, _edited(["cell", "A"], [[1e-300, 0.0], [0.0, 1.0]], SWEEP_CONFIG))
        with np.errstate(all="raise"):
            assert run(cfg, out_dir=str(tmp_path)) == 0


SRC =str(Path(__file__).parent.parent / "src")


def child(code: str, **env) -> str:
    """The stdout of ``python -c code`` with ``src`` importable, in this
    process's environment without the variables that set OpenBLAS's thread
    count (importing ``sdrelax.cli`` here has set one), plus ``env``."""
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


class TestOneBlasThread:
    """The CLI pins OpenBLAS to one thread before numpy loads, unless the caller set it."""

    def test_package_import_loads_no_numpy(self):
        assert child("import sys, sdrelax; print('numpy' in sys.modules)") == "False"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
    def test_cli_import_runs_one_thread(self):
        code = ("import os, sdrelax.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'), "
                "len(os.listdir('/proc/self/task')))")
        assert child(code) == "1 1"

    def test_the_callers_setting_wins(self):
        code = "import os, sdrelax.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert child(code, OPENBLAS_NUM_THREADS="2") == "2"


CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.json"))

# the sdrelax modules each task loads, besides the package and the CLI
CORE = {"fields", "densities", "expressions", "integrate", "energy"}
TASK_MODULES = {
    "check_catalog": {"densities", "expressions", "integrate", "hypotheses"},
    "example_identity": {"trace_formula", "integrate"},
    "sequence_quadratic": CORE | {"constructions"},
    "energy": CORE,
    "sweep_w1": CORE | {"cellformulas"},
    "relax_slip": CORE | {"constructions", "cellformulas", "assembly"},
}


def loaded_modules(code: str) -> set:
    """The sdrelax modules a fresh interpreter has loaded after running ``code``."""
    out = child(code + "\nprint(' '.join(m for m in sys.modules if m.startswith('sdrelax')))")
    return set(out.splitlines()[-1].split())


class TestStartup:
    """Each task loads the modules it runs, and importing the CLI loads none of them."""

    def test_cli_import_loads_no_task_module(self):
        assert loaded_modules("import sys, sdrelax.cli") == {"sdrelax", "sdrelax.cli"}

    @pytest.mark.parametrize("name", TASK_MODULES)
    def test_task_loads_its_modules(self, tmp_path, name):
        path = (Path(__file__).parent.parent / "configs" / f"{name}.json"
                if name != "energy" else Path(write_config(tmp_path, ENERGY_CONFIG)))
        code = (f"import sys\nfrom sdrelax.cli import main\n"
                f"assert main(['run', {str(path)!r}, '--out', {str(tmp_path)!r}]) == 0")
        expected = {"sdrelax", "sdrelax.cli"} | {f"sdrelax.{m}" for m in TASK_MODULES[name]}
        assert loaded_modules(code) == expected

    def test_every_shipped_config_is_covered(self):
        assert {p.stem for p in CONFIGS} < set(TASK_MODULES)


# each name perfbench/traced.py patches on the CLI module, and the smallest
# config that calls it
PATCHED = {
    "approximating_sequence": _sequence([2]),
    "total_energy": ENERGY_CONFIG,
    "assemble_relaxed_energy": ASSEMBLE_CONFIG,
    "check_hypotheses": {**CHECK_CONFIG, "check": {"samples": 64}},
    "verify_example": _example(),
    "estimate_W1": _sweep({"variant": "W1", "A": [[1.0, 0.0], [0.0, 1.0]]}),
    "estimate_W2": _sweep({"variant": "W2", "A": [[1.0, 0.0], [0.0, 1.0]], "L": ZERO_L,
                           "M": ZERO_L, "resolution": 2}),
    "estimate_gamma1": _sweep({"variant": "Gamma1", "lam": [1.0, 0.0], "nu": [0.0, 1.0]}),
    "estimate_gamma2": _sweep({"variant": "Gamma2", "A": [[1.0, 0.0], [0.0, 1.0]],
                               "Lam": [[1.0, 0.0], [0.0, 1.0]], "nu": [0.0, 1.0]}),
}


class TestPatchedNames:
    """The tasks call these names through the CLI module's globals."""

    @pytest.mark.parametrize("name", PATCHED)
    def test_reached_through_cli(self, tmp_path, monkeypatch, name):
        from sdrelax import cli

        original, calls = getattr(cli, name), []

        def spy(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
        assert run(write_config(tmp_path, PATCHED[name]), out_dir=str(tmp_path)) == 0
        assert calls == [name]

    def test_estimation_error_of_cellformulas_exit_3(self, tmp_path, monkeypatch, capsys):
        import sdrelax
        from sdrelax import assembly, cellformulas, cli

        assert cellformulas.EstimationError is assembly.EstimationError is sdrelax.EstimationError

        def boom(*args, **kwargs):
            raise cellformulas.EstimationError("no admissible competitor generated for W2")

        monkeypatch.setattr(cli, "assemble_relaxed_energy", boom)
        assert run(write_config(tmp_path, ASSEMBLE_CONFIG), out_dir=str(tmp_path)) == 3
        assert "estimator failure: no admissible competitor" in capsys.readouterr().err


class TestCellSweepDefaultPoint:
    """Without cell.x, the cell point is the origin of the densities section's N (2 if unset)."""

    @pytest.mark.parametrize("N, A", [(1, [[1.0]]), (3, [[1.0, 0.5, 0.0]]),
                                      (None, [[1.0, 0.0], [0.0, 1.0]])], ids=["1d", "3d", "2d"])
    def test_same_estimate_as_explicit_zeros(self, tmp_path, N, A):
        payload = json.loads(json.dumps(SWEEP_CONFIG))
        if N is not None:
            payload["densities"].update(d=len(A), N=N)
        payload["cell"] = {"variant": "W1", "A": A, "budget": 1}
        estimates = []
        for name, cell in (("default", {}), ("zeros", {"x": [0.0] * len(A[0])})):
            out = tmp_path / name
            payload["cell"].update(cell)
            assert run(write_config(tmp_path, payload), out_dir=str(out)) == 0
            estimates.append(json.loads((out / "sweep.json").read_text())["estimate"])
        assert estimates[0] == estimates[1]

    @pytest.mark.parametrize("N", [0, -1])
    def test_expression_densities_below_one_dimension_exit_2(self, tmp_path, capsys, N):
        densities = {"expressions": {"W": "norm(A) + norm(M)", "psi1": "norm(lam)",
                                     "psi2": "norm(Lam)"}, "N": N}
        payload = {**SWEEP_CONFIG, "densities": densities,
                   "cell": {"variant": "W1", "A": [[1.0, 0.0], [0.0, 1.0]]}}
        assert run(write_config(tmp_path, payload), out_dir=str(tmp_path)) == 2
        assert f"densities.N must be at least 1 for the default cell.x, got {N}" in capsys.readouterr().err


class TestShippedConfigs:
    def test_every_config_is_found(self):
        assert len(CONFIGS) >= 5

    @pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
    def test_runs_strict(self, tmp_path, path):
        assert main(["run", str(path), "--out", str(tmp_path), "--strict"]) == 0


class TestMixedGridFiles:
    def test_fields_on_two_grids_assemble(self, tmp_path):
        from sdrelax.fields import BoxDomain, PiecewiseAffineField

        rng = np.random.default_rng(3)
        g = PiecewiseAffineField(BoxDomain([0.0], [1.0], [2]), rng.standard_normal((2, 1)),
                                 rng.standard_normal((2, 1, 1)))
        G = PiecewiseAffineField(BoxDomain([0.0], [1.0], [4]), rng.standard_normal((4, 1, 1)),
                                 rng.standard_normal((4, 1, 1, 1)))
        reports = []
        for name, g_file in (("mixed", g), ("refined", g.refine(2))):
            (tmp_path / f"g_{name}.json").write_text(json.dumps(g_file.to_dict()))
            (tmp_path / "G.json").write_text(json.dumps(G.to_dict()))
            payload = json.loads(json.dumps(ASSEMBLE_CONFIG))
            payload["fields"]["g"] = {"file": str(tmp_path / f"g_{name}.json")}
            payload["fields"]["G"] = {"file": str(tmp_path / "G.json")}
            payload["output"] = {"json": f"{name}.json"}
            cfg = write_config(tmp_path, payload, name=f"{name}_config.json")
            assert run(cfg, out_dir=str(tmp_path)) == 0
            with open(tmp_path / f"{name}.json") as fh:
                reports.append(json.load(fh)["relaxed"])
        assert reports[0] == reports[1]

    @staticmethod
    def _square_config(tmp_path, upper, g_res):
        """A 2x2 ``relax-assemble`` on the unit square whose g and G come from
        files on ``[0, upper]^2``: g on a ``g_res`` grid, G on the 2x2 grid."""
        from sdrelax.fields import BoxDomain, PiecewiseAffineField

        rng = np.random.default_rng(5)
        files = {}
        for name, res, shape in (("g", g_res, (2,)), ("G", 2, (2, 2))):
            dom = BoxDomain([0.0, 0.0], [upper, upper], [res, res])
            field = PiecewiseAffineField(dom, rng.standard_normal((res, res) + shape))
            (tmp_path / f"{name}.json").write_text(json.dumps(field.to_dict()))
            files[name] = {"file": str(tmp_path / f"{name}.json")}
        payload = {
            "task": "relax-assemble",
            "densities": {"W": {"catalog": "W_norm"}, "psi1": {"catalog": "Psi1_norm"},
                          "psi2": {"catalog": "Psi2_norm"}},
            "domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0], "resolution": [2, 2]},
            "fields": {**files, "Gamma": {"constant": np.zeros((2, 2, 2)).tolist()}},
            "output": {"json": "relax.json"},
        }
        return write_config(tmp_path, payload)

    def test_file_on_another_box_exit_2(self, tmp_path, capsys):
        cfg = self._square_config(tmp_path, 2.0, 2)
        assert run(cfg, out_dir=str(tmp_path)) == 2
        assert "field file for 'g'" in capsys.readouterr().err
        assert not (tmp_path / "relax.json").exists()

    def test_finer_file_on_the_same_box_assembles(self, tmp_path):
        cfg = self._square_config(tmp_path, 1.0, 4)
        assert run(cfg, out_dir=str(tmp_path)) == 0
        with open(tmp_path / "relax.json") as fh:
            assert json.load(fh)["relaxed"]["cells"] == 16
