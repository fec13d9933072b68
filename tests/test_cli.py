import json
import math
import os

import pytest

from parcap.cli import main


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_json(path):
    return json.loads(open(path).read())


def strip_timestamp(payload):
    payload = dict(payload)
    payload.pop("timestamp", None)
    return payload


def test_capacity_command_newtonian_ball(tmp_path):
    cfg = write_cfg(tmp_path, "cap.json", {
        "region": {"kind": "ball", "center": [0, 0, 0], "radius": 1.0},
        "kind": "newtonian", "resolution": 0.25, "tol": 1e-6})
    out = str(tmp_path / "out.json")
    assert main(["capacity", "--config", cfg, "--out", out]) == 0
    payload = read_json(out)
    assert abs(payload["capacity"] - 1.0) < 0.08
    assert payload["converged"]
    assert "timestamp" in payload
    assert payload["provenance"]["n_cells"] > 0


def test_capacity_command_deterministic_apart_from_timestamp(tmp_path):
    cfg = write_cfg(tmp_path, "cap.json", {
        "region": {"kind": "time_slice_ball", "t0": 1.0, "center": [0, 0],
                   "radius": 0.4},
        "kind": "parabolic", "resolution": 0.15})
    o1, o2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["capacity", "--config", cfg, "--seed", "3", "--out", o1]) == 0
    assert main(["capacity", "--config", cfg, "--seed", "3", "--out", o2]) == 0
    assert strip_timestamp(read_json(o1)) == strip_timestamp(read_json(o2))


def test_capacity_command_empty_region_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cap.json", {
        "region": {"kind": "ball", "center": [0, 0], "radius": 0.01},
        "kind": "newtonian", "resolution": 0.5})
    assert main(["capacity", "--config", cfg, "--out",
                 str(tmp_path / "o.json")]) == 1
    assert "empty discretization" in capsys.readouterr().err


def test_capacity_command_missing_field_named(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cap.json", {
        "region": {"kind": "ball", "center": [0, 0], "radius": 0.5}})
    assert main(["capacity", "--config", cfg]) == 1
    assert "'kind'" in capsys.readouterr().err


def test_malformed_json_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["capacity", "--config", str(path)]) == 1
    assert "malformed JSON" in capsys.readouterr().err


def test_missing_config_or_seed(capsys):
    assert main(["capacity"]) == 1
    assert main(["theorem1", "--config", "/nonexistent.json"]) == 1


def test_theorem1_command(tmp_path):
    cfg = write_cfg(tmp_path, "t1.json", {
        "regions": [
            {"id": "b3", "region": {"kind": "time_slice_ball", "t0": 1.0,
                                    "center": [0, 0], "radius": 0.3}},
            {"id": "b5", "region": {"kind": "time_slice_ball", "t0": 1.0,
                                    "center": [0, 0], "radius": 0.5}},
        ],
        "resolution": 0.08,
        "capacity": {"tol": 1e-4},
        "sim": {"n_particles": 500, "runs": 400, "dt": 0.01, "horizon": 1.0},
    })
    out = str(tmp_path / "t1.csv")
    rc = main(["theorem1", "--config", cfg, "--seed", "5", "--out", out])
    assert rc == 0
    text = open(out).read()
    assert text.startswith("# parcap")
    assert "# seed 5" in text
    assert "region_id" in text
    assert "SUMMARY" in text
    # determinism
    out2 = str(tmp_path / "t1b.csv")
    main(["theorem1", "--config", cfg, "--seed", "5", "--out", out2])
    assert open(out).read() == open(out2).read()


def test_theorem1_draws_one_pass_per_slice_family(tmp_path, monkeypatch):
    # slices at t = 1 form one family; the t = 1.5 slice, the box and the
    # failed entry do not join it, and a failed entry keeps its own row
    from parcap import cli
    calls = []
    real = cli.estimate_graph_hits

    def spy(config, regions, runs, seed):
        calls.append([r.to_dict()["kind"] for r in regions])
        return real(config, regions, runs, seed)

    monkeypatch.setattr(cli, "estimate_graph_hits", spy)
    ball = {"kind": "time_slice_ball", "center": [0, 0]}
    cfg = write_cfg(tmp_path, "t1.json", {
        "regions": [
            {"id": "small", "region": dict(ball, t0=1.0, radius=0.3)},
            {"id": "late", "region": dict(ball, t0=1.5, radius=0.3)},
            {"id": "bad", "region": {"kind": "ball", "center": [0, 0], "radius": 0.3}},
            {"id": "box", "region": {"kind": "box", "t_lo": 0.5, "t_hi": 1.0,
                                     "corner_lo": [-0.3, -0.3], "corner_hi": [0.3, 0.3]}},
            {"id": "large", "region": {"kind": "slice_of", "t0": 1.0, "base":
                                       {"kind": "ball", "center": [0, 0], "radius": 0.6}}},
        ],
        "resolution": 0.2,
        "capacity": {"tol": 1e-3},
        "sim": {"n_particles": 100, "runs": 60, "dt": 0.05, "horizon": 1.6},
    })
    out = str(tmp_path / "t1.csv")
    main(["theorem1", "--config", cfg, "--seed", "3", "--out", out])
    assert calls == [["time_slice_ball", "slice_of"], ["time_slice_ball"], ["box"]]
    rows = {r.split(",")[0]: r.split(",") for r in open(out).read().splitlines()
            if not r.startswith("#")}
    assert list(rows) == ["region_id", "small", "late", "bad", "box", "large", "SUMMARY"]
    assert rows["bad"][-1].startswith("FAILED: parabolic kernel needs a space-time region")
    assert 0 < float(rows["small"][5]) <= float(rows["large"][5]) < 1


def test_theorem1_empty_family_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "t1.json", {
        "regions": [], "sim": {"n_particles": 10, "runs": 5}})
    assert main(["theorem1", "--config", cfg, "--seed", "1"]) == 1
    assert "'regions'" in capsys.readouterr().err


def test_theorem1_region_that_no_run_hits_reports_band_inf(tmp_path):
    # the far slice's implied mass is 0, so the band has no finite value;
    # each row keeps its own status
    ball = {"kind": "time_slice_ball", "t0": 1.0}
    cfg = write_cfg(tmp_path, "t1.json", {
        "regions": [{"id": "near", "region": dict(ball, center=[0, 0], radius=0.5)},
                    {"id": "far", "region": dict(ball, center=[6, 0], radius=0.3)}],
        "resolution": 0.1,
        "sim": {"n_particles": 200, "runs": 50},
    })
    out = str(tmp_path / "t1.csv")
    assert main(["theorem1", "--config", cfg, "--seed", "1", "--out", out]) == 0
    rows = {r.split(",")[0]: r.split(",") for r in open(out).read().splitlines()
            if not r.startswith("#")}
    assert rows["near"][-1] == rows["far"][-1] == "OK"
    assert float(rows["far"][2]) == 0.0 and 0 < float(rows["far"][1]) < 1e-6
    assert "band=inf" in rows["SUMMARY"][-1]


def test_prop51_command(tmp_path):
    cfg = write_cfg(tmp_path, "p51.json", {
        "d": 2, "resolution": 0.1, "slice_time": 1.0,
        "sets": [
            {"id": "ball", "region": {"kind": "ball", "center": [0, 0],
                                      "radius": 0.5}},
            {"id": "ann", "region": {"kind": "annulus", "center": [0, 0],
                                     "r_in": 0.3, "r_out": 0.6}},
        ],
        "capacity": {"tol": 1e-4},
        "sim": {"n_particles": 400, "runs": 300, "dt": 0.01, "horizon": 1.0},
    })
    out = str(tmp_path / "p51.csv")
    assert main(["prop51", "--config", cfg, "--seed", "7", "--out", out]) == 0
    text = open(out).read()
    assert "cap_ratio_band" in text
    out2 = str(tmp_path / "p51b.csv")
    main(["prop51", "--config", cfg, "--seed", "7", "--out", out2])
    assert open(out).read() == open(out2).read()


def test_hermite_verify_pass_and_negative_control(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "hv.json", {"trials": 3, "grid_n": 2})
    out = str(tmp_path / "hv.json.out")
    assert main(["hermite-verify", "--config", cfg, "--out", out]) == 0
    report = read_json(out)
    assert report["ok"]
    assert {b["operator"] for b in report["bounds"]} >= {
        "lambda0", "lambda1", "lambda2i", "lambda3i"}
    cfg = write_cfg(tmp_path, "hv2.json", {
        "trials": 3, "grid_n": 2, "bound_overrides": {"lambda3i": 1e-9}})
    assert main(["hermite-verify", "--config", cfg, "--out", out]) == 3
    assert "lambda3i" in capsys.readouterr().err


@pytest.mark.parametrize("cfg", [{"trials": 0}, {"trials": 2, "grid_n": 0}])
def test_hermite_verify_rejects_empty_run(tmp_path, capsys, cfg):
    path = write_cfg(tmp_path, "hv0.json", cfg)
    out = str(tmp_path / "hv0.out")
    assert main(["hermite-verify", "--config", path, "--out", out]) == 1
    assert "need trials >= 1 and grid_n >= 1" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_profile_command_cone_series(tmp_path):
    cfg = write_cfg(tmp_path, "prof.json", {
        "thorn": {"kind": "thorn", "profile": "constant", "param": 1.0,
                  "t_lo": 0.0, "t_hi": 0.5, "d": 1},
        "eps_list": [0.2, 0.1], "pitch_factor": 0.5, "tol": 1e-4})
    out = str(tmp_path / "prof.csv")
    assert main(["profile", "--config", cfg, "--out", out]) == 0
    lines = [l for l in open(out).read().splitlines()
             if l and not l.startswith("#")]
    header, *rows = lines
    assert header == "eps,resolution,capacity,error"
    caps = [float(r.split(",")[2]) for r in rows]
    assert caps[1] >= caps[0] * 0.98


def test_profile_command_empty_eps(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "prof.json", {
        "thorn": {"kind": "thorn", "profile": "constant", "param": 1.0,
                  "t_lo": 0.0, "t_hi": 0.5, "d": 1},
        "eps_list": []})
    out = str(tmp_path / "prof.csv")
    assert main(["profile", "--config", cfg, "--out", out]) == 1
    assert "config field 'eps_list' is empty" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_range_hit_command(tmp_path):
    cfg = write_cfg(tmp_path, "rh.json", {
        "d": 3, "start": [2.0, 0.0, 0.0],
        "region": {"kind": "ball", "center": [0, 0, 0], "radius": 1.0},
        "dt": 1e-3, "runs": 1500})
    out = str(tmp_path / "rh.json.out")
    assert main(["range-hit", "--config", cfg, "--seed", "11",
                 "--out", out]) == 0
    payload = read_json(out)
    assert abs(payload["p_hat"] - 0.5) < 0.06
    assert payload["seed"] == 11


def test_range_hit_command_with_start_law(tmp_path):
    cfg = write_cfg(tmp_path, "rh.json", {
        "d": 3, "start_ball": {"center": [0, 0, 0], "radius": 1.0},
        "region": {"kind": "ball", "center": [0, 0, 0], "radius": 0.4},
        "dt": 1e-2, "runs": 400})
    out = str(tmp_path / "rh.json.out")
    assert main(["range-hit", "--config", cfg, "--seed", "15",
                 "--out", out]) == 0
    assert 0.0 < read_json(out)["p_hat"] < 1.0


def test_range_hit_start_ball_matches_closed_form(tmp_path):
    # uniform start on B(0, 1) in d = 3, target B(0, a), killed at |x| = R:
    # P = a^3 + int_a^1 3 r^2 (a / r)(1 - r / R) / (1 - a / R) dr
    a, R = 0.4, 200.0
    exact = a ** 3 + 3 * a * ((1 - a ** 2) / 2 - (1 - a ** 3) / (3 * R)) / (1 - a / R)
    assert exact == pytest.approx(0.567134, abs=1e-6)
    cfg = write_cfg(tmp_path, "rh.json", {
        "d": 3, "start_ball": {"center": [0, 0, 0], "radius": 1.0},
        "region": {"kind": "ball", "center": [0, 0, 0], "radius": a},
        "runs": 200_000, "kill_radius": R})
    out = str(tmp_path / "rh.json.out")
    assert main(["range-hit", "--config", cfg, "--seed", "11", "--out", out]) == 0
    payload = read_json(out)
    half = 0.5 * (payload["ci_high"] - payload["ci_low"])
    assert abs(payload["p_hat"] - exact) <= 3.0 * half


def test_range_hit_start_ball_dimension_mismatch_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "rh.json", {
        "d": 3, "start_ball": {"center": [0, 0], "radius": 1.0},
        "region": {"kind": "ball", "center": [0, 0, 0], "radius": 0.4},
        "runs": 10})
    out = str(tmp_path / "rh.json.out")
    assert main(["range-hit", "--config", cfg, "--seed", "1", "--out", out]) == 1
    assert "shape" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("field, value", [
    ("start", [2.0, 0.0]),
    ("start_ball", {"center": [0.0, 0.0, 0.0, 0.0], "radius": 1.0}),
])
def test_range_hit_start_of_other_dimension_names_the_field(tmp_path, capsys, field, value):
    cfg = write_cfg(tmp_path, "rh.json", {
        "d": 3, field: value, "runs": 10,
        "region": {"kind": "ball", "center": [0, 0, 0], "radius": 0.4}})
    out = str(tmp_path / "rh.json.out")
    assert main(["range-hit", "--config", cfg, "--seed", "1", "--out", out]) == 1
    assert f"config field {field!r} has" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_range_hit_region_of_other_dimension_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "rh.json", {
        "d": 2, "start": [2.0, 0.0], "runs": 2000,
        "region": {"kind": "ball", "center": [0.0], "radius": 1.0}})
    out = str(tmp_path / "rh.json.out")
    assert main(["range-hit", "--config", cfg, "--seed", "1", "--out", out]) == 1
    assert "spatial region of dimension 2" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_prop51_rejects_set_outside_unit_ball(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "p51.json", {
        "d": 2, "resolution": 0.1,
        "sets": [{"id": "big", "region": {"kind": "ball", "center": [0, 0],
                                          "radius": 1.5}}],
        "sim": {"n_particles": 50, "runs": 20}})
    assert main(["prop51", "--config", cfg, "--seed", "1",
                 "--out", str(tmp_path / "o.csv")]) == 2
    text = open(str(tmp_path / "o.csv")).read()
    assert "unit ball" in text


def test_prop51_unit_ball_check_uses_farthest_point(tmp_path):
    # the off-centre ball fits in the cube [-1, 1]^2 but reaches |x| = 1.149
    cfg = write_cfg(tmp_path, "p51.json", {
        "d": 2, "resolution": 0.1,
        "sets": [{"id": "off", "region": {"kind": "ball", "center": [0.6, 0.6],
                                          "radius": 0.3}},
                 {"id": "b090", "region": {"kind": "ball", "center": [0, 0],
                                           "radius": 0.9}}],
        "capacity": {"tol": 1e-4, "diag_samples": 16},
        "sim": {"n_particles": 50, "runs": 20}})
    out = str(tmp_path / "o.csv")
    assert main(["prop51", "--config", cfg, "--seed", "1", "--out", out]) == 2
    rows = {line.split(",")[0]: line.split(",")[-1]
            for line in open(out).read().splitlines() if not line.startswith("#")}
    assert rows["off"].startswith("FAILED") and "unit ball" in rows["off"]
    assert rows["b090"] == "OK"


def test_prop51_draws_nested_sets_in_one_pass(tmp_path):
    cfg = write_cfg(tmp_path, "p51.json", {
        "d": 2, "resolution": 0.1, "slice_time": 1.0,
        "sets": [{"id": f"r{r}", "region": {"kind": "ball", "center": [0, 0], "radius": r}}
                 for r in (0.30, 0.31, 0.32, 0.33)],
        "sim": {"n_particles": 200, "runs": 400}})
    out = str(tmp_path / "o.csv")
    assert main(["prop51", "--config", cfg, "--seed", "2", "--out", out]) == 0
    rows = [line.split(",") for line in open(out).read().splitlines()
            if line.startswith("r0.")]
    p_hat = [float(row[4]) for row in rows]
    assert len(p_hat) == 4
    assert p_hat == sorted(p_hat)


def test_prop51_slice_time_beyond_the_horizon_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "p51.json", dict(BASE_CONFIGS["prop51"], slice_time=2.0))
    out = str(tmp_path / "o.csv")
    assert main(["prop51", "--config", cfg, "--seed", "1", "--out", out]) == 1
    assert "beyond horizon" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_sbm_extinction_command(tmp_path):
    cfg = write_cfg(tmp_path, "ext.json", {
        "n_particles": 1000, "times": [0.5, 1.0], "runs": 1500})
    out = str(tmp_path / "ext.json.out")
    assert main(["sbm-extinction", "--config", cfg, "--seed", "13",
                 "--out", out]) == 0
    payload = read_json(out)
    assert payload["calibration_ok"]
    for t, entry in payload["times"].items():
        assert entry["within_3_half_widths"]
        assert abs(entry["theory"] - (1 - math.exp(-1 / (2 * float(t))))) < 1e-12


def test_sbm_extinction_empty_times_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "sbm.json", {
        "n_particles": 10, "times": [], "horizon": 1.0, "runs": 10})
    out = str(tmp_path / "sbm.out")
    assert main(["sbm-extinction", "--config", cfg, "--seed", "1", "--out", out]) == 1
    assert "config field 'times' is empty" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_out_env_override(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, "ext.json", {
        "n_particles": 50, "times": [0.5], "runs": 100})
    out = str(tmp_path / "env_out.json")
    monkeypatch.setenv("PARCAP_OUT", out)
    assert main(["sbm-extinction", "--config", cfg, "--seed", "4"]) == 0
    assert "p_hat" in open(out).read()


def test_seed_env_override(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, "ext.json", {
        "n_particles": 100, "times": [0.5], "runs": 200})
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    monkeypatch.setenv("PARCAP_SEED", "21")
    assert main(["sbm-extinction", "--config", cfg, "--out", out1]) == 0
    monkeypatch.delenv("PARCAP_SEED")
    assert main(["sbm-extinction", "--config", cfg, "--seed", "21",
                 "--out", out2]) == 0
    assert strip_timestamp(read_json(out1)) == strip_timestamp(read_json(out2))


BASE_CONFIGS = {
    "capacity": {"region": {"kind": "ball", "center": [0, 0], "radius": 0.5},
                 "kind": "newtonian", "resolution": 0.5},
    "theorem1": {"regions": [{"region": {"kind": "time_slice_ball", "t0": 1.0,
                                         "center": [0, 0], "radius": 0.3}}],
                 "sim": {"n_particles": 10, "runs": 5}},
    "prop51": {"d": 2, "resolution": 0.5,
               "sets": [{"region": {"kind": "ball", "center": [0, 0], "radius": 0.5}}],
               "sim": {"n_particles": 10, "runs": 5}},
    "sbm-extinction": {"n_particles": 10, "times": [0.5], "runs": 10},
    "range-hit": {"d": 3, "start": [2.0, 0.0, 0.0], "runs": 10,
                  "region": {"kind": "ball", "center": [0, 0, 0], "radius": 1.0}},
    "hermite-verify": {"trials": 1, "grid_n": 1},
    "profile": {"thorn": {"kind": "thorn", "profile": "constant", "param": 1.0,
                          "t_lo": 0.0, "t_hi": 0.5, "d": 1}, "eps_list": [0.2]},
}


@pytest.mark.parametrize("command,path,value", [
    ("capacity", ("tol",), None),
    ("capacity", ("max_iter",), 1.5),
    ("capacity", ("max_iter",), "many"),
    ("capacity", ("diag_samples",), "x"),
    ("capacity", ("resolution",), "fine"),
    ("theorem1", ("sim", "branch_rate"), "fast"),
    ("theorem1", ("sim", "runs"), 2.5),
    ("theorem1", ("capacity", "tol"), None),
    ("theorem1", ("resolution",), "coarse"),
    ("theorem1", ("regions",), 5),
    ("prop51", ("slice_time",), "late"),
    ("prop51", ("capacity", "diag_samples"), 1.5),
    ("prop51", ("sim",), "x"),
    ("sbm-extinction", ("branch_rate",), "fast"),
    ("sbm-extinction", ("times",), 5),
    ("sbm-extinction", ("dt",), None),
    ("range-hit", ("kill_radius",), None),
    ("range-hit", ("start",), "x"),
    ("range-hit", ("dt",), "small"),
    ("hermite-verify", ("trials",), "many"),
    ("hermite-verify", ("bound_overrides",), 3),
    ("profile", ("eps_list",), 0.1),
    ("profile", ("pitch_factor",), None),
    ("capacity", ("region", "radius"), "big"),
    ("range-hit", ("region", "center"), "x"),
    ("profile", ("thorn", "t_lo"), "a"),
    ("theorem1", ("sim", "runs"), True),
    ("sbm-extinction", ("runs",), True),
    ("range-hit", ("start",), "20"),
    ("capacity", ("region", "center"), "12"),
    ("range-hit", ("start",), {"2": 0.0, "0": 0.0, "1": 0.0}),
    ("capacity", ("resolution",), True),
    ("capacity", ("region", "radius"), True),
    ("range-hit", ("start",), [True, False, False]),
    ("theorem1", ("sim", "dt"), False),
    ("hermite-verify", ("bound_overrides",), {"lambda0": "x"}),
    ("capacity", ("region", "radius"), "0.5"),
    ("capacity", ("resolution",), "0.5"),
    ("capacity", ("region", "radius"), "nan"),
    ("capacity", ("region", "radius"), float("nan")),
    ("range-hit", ("kill_radius",), float("inf")),
    ("theorem1", ("sim", "runs"), "5"),
    ("capacity", ("diag_samples",), float("inf")),
    ("hermite-verify", ("bound_overrides",), {"lamda0": 1e-9}),
    ("hermite-verify", ("bound_overrides",), [["lambda0", 1e-9]]),
    ("sbm-extinction", ("runs",), 0),
    ("range-hit", ("runs",), 0),
    ("range-hit", ("runs",), -5),
    ("prop51", ("sim", "runs"), 0),
    ("theorem1", ("sim", "runs"), 0),
    ("theorem1", ("sim", "n_particles"), 0),
    ("sbm-extinction", ("max_particle_steps",), -1),
    ("prop51", ("sim", "max_particle_steps"), 0),
    ("capacity", ("max_iter",), -3),
    ("capacity", ("max_iter",), 0),
    ("capacity", ("diag_samples",), 0),
    ("theorem1", ("capacity", "diag_samples"), 0),
    ("prop51", ("capacity", "diag_samples"), -1),
    ("profile", ("diag_samples",), 0),
    ("sbm-extinction", ("times",), [0.0, 0.5]),
    ("sbm-extinction", ("times",), [-0.5]),
    ("capacity", ("kind",), "laplace"),
    ("theorem1", ("resolution",), 0),
    ("theorem1", ("capacity", "tol"), 0),
    ("theorem1", ("sim", "dt"), 0),
    ("prop51", ("slice_time",), 0),
    ("prop51", ("resolution",), 0),
    ("profile", ("pitch_factor",), -0.5),
    ("profile", ("tol",), 0),
    ("capacity", ("resolution",), -0.1),
    ("capacity", ("tol",), 0),
    ("sbm-extinction", ("dt",), 0),
    ("sbm-extinction", ("horizon",), 0),
    ("prop51", ("d",), 1),
    ("sbm-extinction", ("d",), 0),
    ("hermite-verify", ("d",), 0),
])
def test_bad_field_value_exits_1_naming_the_field(tmp_path, capsys, command, path,
                                                  value):
    cfg = json.loads(json.dumps(BASE_CONFIGS[command]))
    section = cfg
    for key in path[:-1]:
        section = section.setdefault(key, {})
    section[path[-1]] = value
    out = str(tmp_path / "o.out")
    rc = main([command, "--config", write_cfg(tmp_path, "c.json", cfg),
               "--seed", "1", "--out", out])
    assert rc == 1
    assert f"config field {path[-1]!r} has invalid value" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_null_and_integral_float_fields_are_accepted(tmp_path):
    base = BASE_CONFIGS["capacity"]
    outs = []
    for extra in ({}, {"max_iter": None}, {"max_iter": 1e4}, {"max_iter": 10000}):
        out = str(tmp_path / f"o{len(outs)}.json")
        cfg = write_cfg(tmp_path, "c.json", dict(base, **extra))
        assert main(["capacity", "--config", cfg, "--out", out]) == 0
        outs.append(strip_timestamp(read_json(out)))
    assert outs[0] == outs[1] == outs[2] == outs[3]
    sim = BASE_CONFIGS["sbm-extinction"]
    payloads = []
    for extra in ({}, {"branch_rate": None}):
        out = str(tmp_path / f"e{len(payloads)}.json")
        cfg = write_cfg(tmp_path, "e.json", dict(sim, **extra))
        assert main(["sbm-extinction", "--config", cfg, "--seed", "2", "--out", out]) == 0
        payloads.append(strip_timestamp(read_json(out)))
    assert payloads[0] == payloads[1]
    assert payloads[0]["branch_rate"] == 40.0


@pytest.mark.parametrize("argv, code", [
    (["capacity", "--bogus", "1"], 1),
    (["nosuch"], 1),
    (["capacity", "--seed", "abc"], 1),
    (["sbm-extinction", "--threads", "4", "--seed", "1"], 1),
    (["--help"], 0),
])
def test_usage_error_exits_1_and_help_exits_0(capsys, argv, code):
    # argparse's own exit code 2 would read as converged-with-flags
    assert main(argv) == code
    captured = capsys.readouterr()
    assert "usage: parcap" in captured.out + captured.err


@pytest.mark.parametrize("text", ["5", "[1, 2]", "\"ball\""])
def test_config_that_is_not_an_object_exits_1(tmp_path, capsys, text):
    path = tmp_path / "c.json"
    path.write_text(text)
    assert main(["capacity", "--config", str(path)]) == 1
    assert "malformed JSON config" in capsys.readouterr().err


def test_newtonian_kind_on_a_d1_region_names_the_field(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "cap.json", {
        "region": {"kind": "ball", "center": [0], "radius": 0.5},
        "kind": "newtonian", "resolution": 0.1})
    out = str(tmp_path / "o.json")
    assert main(["capacity", "--config", cfg, "--out", out]) == 1
    assert "config field 'kind' has invalid value 'newtonian'" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("kill_radius", [1.5, -5.0])
def test_range_hit_start_outside_the_kill_sphere_exits_1(tmp_path, capsys, kill_radius):
    cfg = write_cfg(tmp_path, "rh.json", dict(BASE_CONFIGS["range-hit"], runs=200,
                                              kill_radius=kill_radius))
    out = str(tmp_path / "rh.json.out")
    assert main(["range-hit", "--config", cfg, "--seed", "1", "--out", out]) == 1
    assert "kill_radius" in capsys.readouterr().err
    assert not os.path.exists(out)


SLICE = {"kind": "time_slice_ball", "center": [0, 0], "radius": 0.3}


@pytest.mark.parametrize("command, cfg, statuses", [
    ("theorem1", {"regions": [{"id": "a", "region": dict(SLICE, t0=1.0)},
                              {"id": "b", "region": dict(SLICE, t0=1.5)}],
                  "resolution": 0.2, "sim": {"n_particles": 10, "runs": 5, "horizon": 1.0}},
     {"a": "OK", "b": "FAILED: slice time beyond horizon"}),
    ("prop51", dict(BASE_CONFIGS["prop51"], sets=[{"id": "s", "region": {
        "kind": "box", "t_lo": 0.5, "t_hi": 1.0, "corner_lo": [-0.3, -0.3],
        "corner_hi": [0.3, 0.3]}}]),
     {"s": "FAILED: set 's' must be spatial of dimension 2"}),
])
def test_failed_row_exits_2(tmp_path, command, cfg, statuses):
    out = str(tmp_path / "o.csv")
    assert main([command, "--config", write_cfg(tmp_path, "c.json", cfg),
                 "--seed", "1", "--out", out]) == 2
    rows = {r.split(",")[0]: r.split(",")[-1] for r in open(out).read().splitlines()
            if not r.startswith("#")}
    assert {k: rows[k] for k in statuses} == statuses


@pytest.mark.parametrize("command, cfg, message", [
    ("profile", dict(BASE_CONFIGS["profile"], thorn=BASE_CONFIGS["capacity"]["region"]),
     "config field 'thorn' must describe a thorn region"),
    ("range-hit", {k: v for k, v in BASE_CONFIGS["range-hit"].items() if k != "start"},
     "config missing field 'start'"),
    ("capacity", dict(BASE_CONFIGS["capacity"], region={"kind": "cube"}),
     "unknown region kind 'cube'"),
    ("profile", dict(BASE_CONFIGS["profile"],
                     thorn=dict(BASE_CONFIGS["profile"]["thorn"], profile="cubic")),
     "unknown thorn profile 'cubic'"),
])
def test_config_error_exits_1_with_message(tmp_path, capsys, command, cfg, message):
    out = str(tmp_path / "o.out")
    assert main([command, "--config", write_cfg(tmp_path, "c.json", cfg),
                 "--seed", "1", "--out", out]) == 1
    assert message in capsys.readouterr().err
    assert not os.path.exists(out)


def test_profile_row_of_a_failed_eps_exits_2(tmp_path):
    # thorn power 10 on [0.2, 0.5] at pitch 0.1 has no cell centre inside it
    cfg = write_cfg(tmp_path, "c.json", {
        "thorn": {"kind": "thorn", "profile": "power", "param": 10, "t_lo": 0,
                  "t_hi": 0.5, "d": 1}, "eps_list": [0.2]})
    out = str(tmp_path / "o.csv")
    assert main(["profile", "--config", cfg, "--out", out]) == 2
    rows = [r for r in open(out).read().splitlines() if not r.startswith("#")]
    assert rows == ["eps,resolution,capacity,error", "0.2,0.1,,empty discretization"]


@pytest.mark.parametrize("command", ["range-hit", "hermite-verify"])
def test_out_dash_writes_the_file_payload_to_stdout(tmp_path, capsys, command):
    argv = [command, "--config", write_cfg(tmp_path, "c.json", BASE_CONFIGS[command]),
            "--seed", "1", "--out"]
    out = str(tmp_path / "o.json")
    assert main([*argv, out]) == 0
    assert capsys.readouterr().out == ""
    assert main([*argv, "-"]) == 0

    def untimed(text):
        return [line for line in text.splitlines() if '"timestamp"' not in line]

    assert untimed(capsys.readouterr().out) == untimed(open(out).read())


def test_bad_seed_env_or_config_path_exits_1(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path, "c.json", BASE_CONFIGS["range-hit"])
    monkeypatch.setenv("PARCAP_SEED", "x")
    assert main(["range-hit", "--config", cfg]) == 1
    assert "invalid PARCAP_SEED" in capsys.readouterr().err
    missing = str(tmp_path / "none.json")
    assert main(["range-hit", "--config", missing, "--seed", "1"]) == 1
    assert f"config file not found: {missing}" in capsys.readouterr().err
