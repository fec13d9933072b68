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


def test_theorem1_empty_family_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "t1.json", {
        "regions": [], "sim": {"n_particles": 10, "runs": 5}})
    assert main(["theorem1", "--config", cfg, "--seed", "1"]) == 1
    assert "'regions'" in capsys.readouterr().err


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


def test_profile_command_empty_eps(tmp_path):
    cfg = write_cfg(tmp_path, "prof.json", {
        "thorn": {"kind": "thorn", "profile": "constant", "param": 1.0,
                  "t_lo": 0.0, "t_hi": 0.5, "d": 1},
        "eps_list": []})
    out = str(tmp_path / "prof.csv")
    assert main(["profile", "--config", cfg, "--out", out]) == 0
    lines = [l for l in open(out).read().splitlines()
             if l and not l.startswith("#")]
    assert lines == ["eps,resolution,capacity,error"]


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
