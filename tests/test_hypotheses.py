import json

import numpy as np
import pytest

from sdrelax.densities import (
    DensityTriple,
    bulk_norm,
    bulk_zero,
    example_triple,
    norm_triple,
    psi1_square,
    psi1_weighted,
    psi2_proj,
)
from sdrelax.hypotheses import MIN_SAMPLES, CheckConfig, check_hypotheses, check_interfacial

CFG = CheckConfig(samples=2000, seed=7)


class TestNormTriple:
    def test_all_pass_with_exact_constants(self):
        report = check_hypotheses(norm_triple(), CFG)
        assert report.all_pass
        res = report.results
        assert res["H5.psi1.lower"].measured == pytest.approx(1.0, abs=1e-12)
        assert res["H5.psi1.upper"].measured == pytest.approx(1.0, abs=1e-12)
        assert res["H2"].measured == pytest.approx(1.0, abs=1e-12)
        assert res["H7.psi1"].verdict == "pass"
        assert res["H8.psi2"].verdict == "pass"

    def test_report_is_json_serializable(self):
        report = check_hypotheses(norm_triple(), CFG)
        blob = json.dumps(report.to_dict(), sort_keys=True)
        assert "H4" in blob


class TestSampleCount:
    @pytest.mark.parametrize("samples", [1, 10, 50, MIN_SAMPLES - 1])
    def test_below_structured_probes_rejected(self, samples):
        with pytest.raises(ValueError, match=f"at least {MIN_SAMPLES}"):
            CheckConfig(samples=samples, seed=7)

    def test_minimum_runs(self):
        report = check_hypotheses(norm_triple(), CheckConfig(samples=MIN_SAMPLES, seed=7))
        assert "H3" in report.results and "H6.psi2" in report.results


class TestPlantedViolator:
    def test_square_norm_caught_on_homogeneity(self):
        results = check_interfacial(psi1_square(), "psi1", CFG)
        h7 = results["H7.psi1"]
        assert h7.verdict == "fail"
        assert h7.worst is not None
        t = h7.worst["t"]
        lam = np.asarray(h7.worst["payload"], dtype=float)
        # witness reproduces the violation
        assert abs(t * np.dot(lam, lam) * t - t * np.dot(lam, lam)) > 0


class TestNonCoerciveFlags:
    def test_projected_density_flagged_on_lower_bound(self):
        report = check_hypotheses(example_triple(np.array([1.0, 0.0])), CFG)
        low = report.results["H5.psi2.lower"]
        assert low.verdict == "skipped"
        assert "non-coercive" in low.note
        assert low.measured == pytest.approx(0.0, abs=1e-9)  # tangential witness probe
        assert report.results["H5.psi2.upper"].measured == pytest.approx(1.0, abs=1e-12)
        assert report.all_pass

    def test_zero_bulk_skips_coercivity(self):
        report = check_hypotheses(example_triple(np.array([1.0, 0.0])), CFG)
        assert report.results["H1.lower"].verdict == "skipped"
        assert report.results["h1infty.lower"].verdict == "skipped"


class TestWeighted:
    def test_declared_constants_attained(self):
        trip = DensityTriple(bulk_norm(), psi1_weighted(), psi2_proj(np.array([1.0, 0.0])))
        report = check_hypotheses(trip, CFG)
        res = report.results
        assert res["H5.psi1.lower"].measured == pytest.approx(0.5, abs=1e-12)
        assert res["H5.psi1.upper"].measured == pytest.approx(2.0, abs=1e-12)
        assert res["H6.psi1"].verdict == "pass"
        assert res["H6.psi1"].measured == pytest.approx(0.75 * np.pi, rel=1e-2)


class TestWitnessReproducibility:
    def test_same_seed_same_witness(self):
        r1 = check_interfacial(psi1_square(), "psi1", CFG)
        r2 = check_interfacial(psi1_square(), "psi1", CFG)
        assert r1["H7.psi1"].worst == r2["H7.psi1"].worst

    def test_failure_carries_witness(self):
        results = check_interfacial(psi1_square(), "psi1", CFG)
        for key, res in results.items():
            if res.verdict == "fail":
                assert res.worst is not None
