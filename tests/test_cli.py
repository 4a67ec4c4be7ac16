import io
import json
import math
import warnings

import pytest

from spherecount.cli import (ParseError, dispatch, format_polynomial,
                             parse_affine, parse_polynomial)
from spherecount.condition import sample_gaussian_system
from spherecount.polynomials import (HomogeneousPolynomial, PolynomialSystem,
                                     system_to_json)


@pytest.fixture
def sys_json(tmp_path):
    F = PolynomialSystem((
        HomogeneousPolynomial(3, 1, {(0, 1, 0): 1.0}),
        HomogeneousPolynomial(3, 1, {(0, 0, 1): 1.0}),
    ))
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(system_to_json(F)))
    return str(path)


class TestParser:
    def test_sum_of_squares(self):
        p = parse_polynomial("x0^2 + x1^2", 2)
        assert p.coefficients == {(2, 0): 1.0, (0, 2): 1.0}

    def test_coefficients_and_signs(self):
        p = parse_polynomial("3*x0*x1 - x1^2", 2)
        assert p.coefficients == {(1, 1): 3.0, (0, 2): -1.0}

    def test_mixed_degree_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("x0 + x1^2", 2)

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x0^2 + @", 2)
        assert err.value.position == 7

    def test_variable_range(self):
        with pytest.raises(ParseError):
            parse_polynomial("x5^2", 2)

    def test_implicit_multiplication(self):
        p = parse_polynomial("2.5x0x1", 2)
        assert p.coefficients == {(1, 1): 2.5}

    def test_leading_minus(self):
        p = parse_polynomial("-x0^2 + 2*x0*x1", 2)
        assert p.coefficients == {(2, 0): -1.0, (1, 1): 2.0}

    def test_like_terms_merge(self):
        p = parse_polynomial("x0*x1 + x1*x0", 2)
        assert p.coefficients == {(1, 1): 2.0}

    def test_affine_allows_mixed_degrees(self):
        p = parse_affine("x0^2 - 2", 1)
        assert p.coefficients == {(2,): 1.0, (0,): -2.0}

    def test_round_trip_corpus(self, rng):
        from spherecount.condition import multi_indices

        count = 0
        for n_vars, degree in [(2, 1), (2, 2), (2, 3), (3, 2), (4, 2)]:
            for _ in range(40):
                indices = multi_indices(n_vars, degree)
                coeffs = {indices[0]: 1.0}
                for a in indices[1:]:
                    if rng.random() < 0.6:
                        c = round(float(rng.standard_normal()), 6)
                        if c:
                            coeffs[a] = c
                p = HomogeneousPolynomial(n_vars, degree, coeffs)
                text = format_polynomial(p)
                q = parse_polynomial(text, n_vars)
                assert q.coefficients == p.coefficients
                assert format_polynomial(q) == text
                count += 1
        assert count == 200


class TestDispatch:
    def test_unknown_subcommand_exits_3(self, capsys):
        assert dispatch(["frobnicate"]) == 3

    def test_no_subcommand_exits_3(self, capsys):
        assert dispatch([]) == 3

    def test_tables_gamma_csv(self, capsys):
        assert dispatch(["tables", "--which", "gamma"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0].startswith("i,1/32,1/16,1/10,1/8")
        assert len(lines) == 6
        cells = lines[1].split(",")
        assert cells[0] == "1"
        assert float(cells[1]) == pytest.approx(4.8108, abs=1e-3)
        # recomputed value of the misprinted cell
        assert float(cells[4]) == pytest.approx(2.087, abs=1e-3)
        assert "\r" not in out

    def test_tables_alpha_csv(self, capsys):
        assert dispatch(["tables", "--which", "alpha"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 7
        assert float(lines[1].split(",")[1]) == pytest.approx(4.854, abs=2e-3)

    def test_count_json(self, sys_json, capsys):
        code = dispatch(["--input", sys_json, "count", "--max-t", "6"])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert code == 0
        assert doc["count"] == 2
        assert doc["stopped"] is True
        assert set(doc) == {"count", "zeros", "final_eta", "iterations",
                            "evaluations", "stopped", "predicted_threshold"}

    def test_count_budget_exhaustion_exits_2(self, tmp_path, capsys):
        path = tmp_path / "hard.txt"
        # double zero structure never separates
        path.write_text("x1^2\n")
        code = dispatch(["--input", str(path), "count", "--max-t", "4"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert doc["stopped"] is False

    def test_count_max_t_clamped_to_grid_cap(self, sys_json, capsys):
        # t=10 on S^2 may exceed 20M points; the run is clamped to t=9
        code = dispatch(["--input", sys_json, "count", "--max-t", "11"])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["stopped"] is True
        assert "--max-t 11 clamped to 9" in captured.err

    def test_clamped_budget_exhaustion_exits_2(self, tmp_path, capsys, monkeypatch):
        # with a 1000-point cap grids on S^1 fit up to t=6, on S^2 up to t=2
        monkeypatch.setattr("spherecount.mesh.MESH_POINT_CAP", 1000)
        path = tmp_path / "hard.txt"
        path.write_text("x1^2\n")
        code = dispatch(["--input", str(path), "count", "--max-t", "11"])
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert code == 2
        assert doc["stopped"] is False and doc["final_eta"] == 2.0**-6
        assert "clamped to 6" in captured.err
        # an affine system of one equation is counted on S^1, where a
        # 100-point cap admits grids up to t=3; x^2 - 2 stops at t=5
        monkeypatch.setattr("spherecount.mesh.MESH_POINT_CAP", 100)
        path.write_text("x0^2 - 2\n")
        code = dispatch(["--input", str(path), "count", "--affine", "--max-t", "9"])
        captured = capsys.readouterr()
        assert code == 2
        assert json.loads(captured.out)["affine_count"] is None
        assert "--max-t 9 clamped to 3" in captured.err and "S^1" in captured.err

    def test_oversized_grid_exits_3(self, sys_json, capsys):
        assert dispatch(["mesh", "--n", "3", "--t", "12"]) == 3
        assert dispatch(["--input", sys_json, "kappa", "--t", "12"]) == 3
        assert "cap 20000000" in capsys.readouterr().err

    def test_count_threads_identical_bytes(self, sys_json, capsys):
        outputs = []
        for threads in ("1", "4"):
            assert dispatch(["--input", sys_json, "--threads", threads,
                             "count", "--max-t", "6"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_count_affine(self, tmp_path, capsys):
        path = tmp_path / "affine.txt"
        path.write_text("x0^2 - 2\n")
        code = dispatch(["--input", str(path), "count", "--affine",
                         "--max-t", "9"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["count"] == 6
        assert doc["affine_count"] == 2

    def test_count_affine_poles_have_no_negative_zero(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO("x0^2 - 2\n"))
        code = dispatch(["--input", "-", "count", "--affine"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        coords = [v for z in doc["zeros"] for v in z["zeta"]]
        assert not any(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in coords)
        assert [0.0, 0.0, -1.0] in [z["zeta"] for z in doc["zeros"]]

    def test_certify(self, sys_json, capsys):
        code = dispatch(["--input", sys_json, "certify", "--point", "1,0,0"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["admissible"] is True
        assert doc["r_x"] == 0.0
        assert set(doc) == {"point", "beta", "gamma_bound", "alpha", "mu",
                            "r_x", "admissible"}

    def test_mu(self, sys_json, capsys):
        code = dispatch(["--input", sys_json, "mu", "--point", "1,0,0"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["mu"] == pytest.approx(math.sqrt(2.0), rel=1e-9)

    def test_certify_negative_point(self, sys_json, capsys):
        code = dispatch(["--input", sys_json, "certify", "--point", "-1,0,0"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["point"] == [-1.0, 0.0, 0.0]
        assert doc["admissible"] is True

    def test_mu_negative_point(self, sys_json, capsys):
        code = dispatch(["--input", sys_json, "mu", "--point", "-.6,0,.8"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["point"] == pytest.approx([-0.6, 0.0, 0.8], rel=1e-12)

    def test_kappa(self, sys_json, capsys):
        code = dispatch(["--input", sys_json, "kappa", "--t", "3"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["kappa_grid"] >= 1.0

    def test_kappa_matches_the_count_estimate(self, tmp_path, capsys):
        # the Gaussian (2,2) system of seed 4002 stops at t=3; kappa takes the
        # grid maximum for the system once normalized, as the loop does
        path = tmp_path / "gauss.json"
        path.write_text(json.dumps(system_to_json(sample_gaussian_system(2, (2, 2), 4002))))
        assert dispatch(["--input", str(path), "count", "--stats"]) == 0
        count = json.loads(capsys.readouterr().out)
        t = round(-math.log2(count["final_eta"]))
        assert t == 3
        assert dispatch(["--input", str(path), "kappa", "--t", str(t)]) == 0
        kappa = json.loads(capsys.readouterr().out)
        assert kappa["kappa_grid"] == count["kappa_grid_estimate"]

    def test_mesh(self, capsys):
        code = dispatch(["mesh", "--n", "1", "--t", "1"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["count"] == 16
        assert doc["covering_observed_max"] <= doc["covering_radius_bound"]

    def test_mesh_rejects_zero_probes(self, capsys):
        assert dispatch(["mesh", "--n", "1", "--t", "1", "--probes", "0"]) == 3
        assert "--probes must be at least 1" in capsys.readouterr().err

    def test_threads_below_one_exit_3_before_any_work(self, sys_json, capsys,
                                                        monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work ran before --threads was checked")

        monkeypatch.setattr("spherecount.cli.monte_carlo_ln_kappa", no_work)
        monkeypatch.setattr("spherecount.cli.root_count", no_work)
        for threads in ("0", "-3"):
            for argv in (["mc-kappa", "--trials", "3", "--t", "2"],
                         ["--input", sys_json, "count", "--max-t", "4"]):
                assert dispatch(["--threads", threads] + argv) == 3
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == "error: --threads must be at least 1\n"

    @pytest.mark.parametrize("command, point", [
        ("certify", "nan,1,0"), ("certify", "1,inf,0"),
        ("mu", "inf,1,0"), ("mu", "0,1,nan"),
        # a value starting with "-" is a point, not an option
        ("mu", "-inf,1,0"), ("mu", "-nan,0,1"), ("certify", "-inf,0,1"),
        ("certify", "-nan,1,0")])
    def test_non_finite_point_exits_3(self, sys_json, capsys, command, point):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dispatch(["--input", sys_json, command, "--point", point]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: point coordinates must be finite\n"

    def test_mc_kappa_rejects_sigma_before_trials(self, capsys, monkeypatch):
        def no_trials(*args, **kwargs):
            raise AssertionError("trials ran before --sigma was checked")

        monkeypatch.setattr("spherecount.cli.monte_carlo_ln_kappa", no_trials)
        for sigma in ("0", "1.5"):
            assert dispatch(["mc-kappa", "--trials", "3", "--t", "2",
                             "--sigma", sigma]) == 3
            assert "sigma must lie in (0, 1]" in capsys.readouterr().err

    def test_mc_kappa_csv(self, capsys):
        code = dispatch(["--seed", "5", "mc-kappa", "--n", "3", "--degrees",
                         "2,2,2", "--trials", "3", "--t", "2",
                         "--sigma", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "trial,ln_kappa_estimate"
        assert lines[-2].startswith("bound,")
        assert lines[-1].startswith("smoothed_bound,")
        assert "\r" not in out

    def test_malformed_input_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 1, "degrees": [2]}')
        assert dispatch(["--input", str(path), "count"]) == 3

    def test_zero_system_exits_3(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"n": 2, "degrees": [1, 1], "polynomials": [
            {"terms": [{"exponents": [0, 1, 0], "coeff": 0.0}]},
            {"terms": [{"exponents": [0, 0, 1], "coeff": 0.0}]}]}))
        assert dispatch(["--input", str(path), "count"]) == 3
        assert "polynomial is identically zero" in capsys.readouterr().err

    def test_constant_affine_equation_exits_3(self, capsys, monkeypatch):
        # 5 = 0 has no root; it is named before homogenizing, which needs
        # degree >= 1
        monkeypatch.setattr("sys.stdin", io.StringIO("5\n"))
        assert dispatch(["--input", "-", "count", "--affine"]) == 3
        err = capsys.readouterr().err
        assert "equation 1 is the nonzero constant 5.0" in err
        assert "degree must be" not in err

    def test_expression_input(self, tmp_path, capsys):
        path = tmp_path / "sys.txt"
        path.write_text("x1\nx2\n")
        code = dispatch(["--input", str(path), "count", "--max-t", "6"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["count"] == 2

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("x1\n"))
        code = dispatch(["--input", "-", "count", "--max-t", "6"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0 and doc["count"] == 2

    def test_missing_input_exits_3(self, capsys):
        assert dispatch(["count"]) == 3
