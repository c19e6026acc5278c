"""Batch runner: configs, CSV/metadata outputs, determinism, exit codes."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

import pytest

import toruswalk
from toruswalk import __version__
from toruswalk.cli import main


def _write_cfg(path, cfg) -> str:
    path.write_text(json.dumps(cfg))
    return str(path)


def _run(tmp_path, cfg, command, extra=None, out="out"):
    cfg_path = _write_cfg(tmp_path / f"{command}.json", cfg)
    args = [command, "--config", cfg_path, "--out", str(tmp_path / out)]
    if extra:
        args += extra
    return main(args), tmp_path / out


MEANFIELD_LAPLACE = {
    "command": "laplace",
    "torus": {"L": [16]},
    "kernel": {"family": "meanfield"},
    "scale": {"lams": [1.0, 2.0], "mode": "meanfield"},
}

SIMULATE_CFG = {
    "command": "simulate",
    "torus": {"L": [8]},
    "kernel": {"family": "uniform", "M": 2},
    "scale": {"lams": [0.0, 1.0]},
    "mc": {"replicates": 400, "seed": 11, "chunk_size": 64},
}

COALESCE_CFG = {
    "command": "coalesce",
    "torus": {"L": [8]},
    "kernel": {"family": "uniform", "M": 2},
    "scale": {"s_values": [0.2], "n": 2},
    "mc": {"replicates": 300, "seed": 5},
}

AUDIT_CFG = {
    "command": "audit",
    "audit": {"K": 32, "J": 4, "thetas": [[1.0, 0.5], [-2.0, 3.0]]},
}


def test_meanfield_laplace_table(tmp_path):
    code, out = _run(tmp_path, MEANFIELD_LAPLACE, "laplace")
    assert code == 0
    lines = (out / "laplace.csv").read_text().splitlines()
    assert lines[0] == "L,M,lam,sup_gap,target"
    assert len(lines) == 3
    L, M, lam, gap, target = lines[1].split(",")
    assert (L, M, lam) == ("16", "16", "1")
    # every start has the same exact transform, so the sup gap is the
    # closed-form distance to the limit
    expected = abs(1 / (1 + 255 / 256) - 0.5)
    assert float(gap) == pytest.approx(expected, rel=1e-10)
    assert float(target) == 0.5


def test_finite_mode_needs_rho_and_meanfield_rejects_it(tmp_path):
    cfg = dict(MEANFIELD_LAPLACE)
    cfg["scale"] = {"lams": [1.0], "mode": "meanfield", "alpha": 0.5}
    code, _ = _run(tmp_path, cfg, "laplace")
    assert code == 2
    cfg["scale"] = {"lams": [1.0], "mode": "finite"}  # rho missing
    code, _ = _run(tmp_path, cfg, "laplace")
    assert code == 2


def test_finite_mode_laplace_rows(tmp_path):
    cfg = {
        "command": "laplace",
        "torus": {"L": [32, 64]},
        "kernel": {"family": "uniform", "M": 2},
        "scale": {"lams": [1.0], "mode": "finite", "rho": 0.0, "alpha": 0.5},
    }
    code, out = _run(tmp_path, cfg, "laplace")
    assert code == 0
    lines = (out / "laplace.csv").read_text().splitlines()
    assert len(lines) == 3
    # fixed M: the death/limit clock uses the actual normalized variance
    sigma2 = 0.75 / 4
    ap = 0.5
    expected_target = (1 - ap) + ap / (1 + 1.0 / (math.pi * sigma2))
    assert float(lines[1].split(",")[4]) == pytest.approx(expected_target, rel=1e-12)


def test_uniformity_time_zero_gap(tmp_path):
    cfg = {
        "command": "uniformity",
        "torus": {"L": [16]},
        "kernel": {"family": "uniform", "M": 4},
        "scale": {"k_values": [0, 1]},
    }
    code, out = _run(tmp_path, cfg, "uniformity")
    assert code == 0
    lines = (out / "uniformity.csv").read_text().splitlines()
    assert lines[0] == "L,M,t,gap"
    first = lines[1].split(",")
    assert first[2] == "0"
    assert float(first[3]) == pytest.approx(255.0, rel=1e-9)
    assert float(lines[2].split(",")[3]) < 255.0


def test_beta0_exact_endpoint(tmp_path):
    cfg = {
        "command": "beta0",
        "q0": {"family": "uniform", "M": 2},
        "c_values": [1.0],
    }
    code, out = _run(tmp_path, cfg, "beta0")
    assert code == 0
    lines = (out / "beta0.csv").read_text().splitlines()
    assert lines[0] == "c,level,estimate"
    # at c = 1 the integrand is constant, so refinement stops immediately
    last = lines[-1].split(",")
    assert float(last[2]) == pytest.approx(12 / math.pi + 1.0, abs=1e-8)


def test_beta0_quadrature_cap_is_exit_3(tmp_path):
    cfg = {
        "command": "beta0",
        "q0": {"family": "uniform", "M": 2},
        "c_values": [0.05],
        "quad": {"base": 2, "max_axis": 4, "tol": 1e-12},
    }
    code, _ = _run(tmp_path, cfg, "beta0")
    assert code == 3


def test_simulate_deterministic_across_reruns_and_workers(tmp_path):
    code, out = _run(tmp_path, SIMULATE_CFG, "simulate")
    assert code == 0
    body = (out / "simulate.csv").read_bytes()
    code, out2 = _run(tmp_path, SIMULATE_CFG, "simulate", out="out2")
    assert code == 0
    assert (out2 / "simulate.csv").read_bytes() == body
    code, out3 = _run(tmp_path, SIMULATE_CFG, "simulate", extra=["--workers", "2"], out="out3")
    assert code == 0
    assert (out3 / "simulate.csv").read_bytes() == body


def test_simulate_lam_zero_row_is_exact(tmp_path):
    code, out = _run(tmp_path, SIMULATE_CFG, "simulate")
    assert code == 0
    lines = (out / "simulate.csv").read_text().splitlines()
    assert lines[0] == "L,lam,mc_estimate,se,exact,z_score"
    row0 = lines[1].split(",")
    assert row0[1] == "0" and row0[2] == "1" and row0[3] == "0" and row0[5] == "0"
    row1 = lines[2].split(",")
    assert abs(float(row1[5])) < 5.0  # z-score against the exact average


def test_seed_flag_overrides_config_seed(tmp_path):
    code, out_a = _run(tmp_path, SIMULATE_CFG, "simulate", extra=["--seed", "99"], out="a")
    assert code == 0
    changed = dict(SIMULATE_CFG)
    changed["mc"] = {"replicates": 400, "seed": 12345, "chunk_size": 64}
    code, out_b = _run(tmp_path, changed, "simulate", extra=["--seed", "99"], out="b")
    assert code == 0
    assert (out_a / "simulate.csv").read_bytes() == (out_b / "simulate.csv").read_bytes()
    code, out_c = _run(tmp_path, SIMULATE_CFG, "simulate", out="c")
    assert code == 0
    assert (out_c / "simulate.csv").read_bytes() != (out_a / "simulate.csv").read_bytes()


def test_coalesce_table_and_determinism(tmp_path):
    code, out = _run(tmp_path, COALESCE_CFG, "coalesce")
    assert code == 0
    lines = (out / "coalesce.csv").read_text().splitlines()
    assert lines[0] == "L,s,k,p_hat,target,se"
    assert len(lines) == 3  # one (L, s) cell, k = 1 and k = 2
    p1 = float(lines[1].split(",")[3])
    p2 = float(lines[2].split(",")[3])
    assert p1 + p2 == pytest.approx(1.0, abs=1e-12)
    code, out2 = _run(
        tmp_path, COALESCE_CFG, "coalesce", extra=["--workers", "2"], out="o2"
    )
    assert code == 0
    assert (out2 / "coalesce.csv").read_bytes() == (out / "coalesce.csv").read_bytes()
    meta = json.loads((out / "coalesce.meta.json").read_text())
    assert meta["resolved"]["separation_ok"] == {"L=8,s=0.2": True}


def test_coalesce_rejects_n_and_starts_together(tmp_path):
    cfg = dict(COALESCE_CFG)
    cfg["scale"] = {"s_values": [0.2], "n": 2, "starts": [[1, 0], [0, 1]]}
    code, _ = _run(tmp_path, cfg, "coalesce")
    assert code == 2


def test_coalesce_rejects_kernels_outside_the_fixed_kernel_regime(tmp_path):
    for kernel in ({"family": "uniform", "M_exponent": 0.5}, {"family": "meanfield"}):
        cfg = dict(COALESCE_CFG, kernel=kernel)
        code, _ = _run(tmp_path, cfg, "coalesce")
        assert code == 2


def test_coalesce_explicit_starts(tmp_path):
    cfg = dict(COALESCE_CFG)
    cfg["scale"] = {"s_values": [0.1], "starts": [[1, 0], [0, 1], [3, 3]]}
    code, out = _run(tmp_path, cfg, "coalesce")
    assert code == 0
    lines = (out / "coalesce.csv").read_text().splitlines()
    assert len(lines) == 4
    meta = json.loads((out / "coalesce.meta.json").read_text())
    assert meta["resolved"]["n"] == 3
    assert meta["resolved"]["separation_ok"]["L=8,s=0.1"] is False


def test_coalesce_meta_reports_work(tmp_path):
    for n in (2, 3):
        cfg = dict(COALESCE_CFG, scale={"s_values": [0.2], "n": n})
        code, out = _run(tmp_path, cfg, "coalesce", out=f"n{n}")
        assert code == 0
        rows = (out / "coalesce.csv").read_text().splitlines()[1:]
        p_hat = [float(line.split(",")[3]) for line in rows]
        work = json.loads((out / "coalesce.meta.json").read_text())["resolved"]["work"]
        assert set(work) == {"L=8,s=0.2"}
        cell = work["L=8,s=0.2"]
        assert set(cell) == {"events", "merges", "censored"}
        replicates = COALESCE_CFG["mc"]["replicates"]
        expected = sum((n - k) * p * replicates for k, p in enumerate(p_hat, start=1))
        assert cell["merges"] == round(expected)
        assert cell["events"] >= cell["merges"]
        if n > 2:
            assert cell["censored"] == 0  # only the pair path cuts walkers


def test_conditions_ladder_improves(tmp_path):
    cfg = {
        "command": "conditions",
        "kernel": {"family": "uniform"},
        "M_values": [2, 8, 32],
        "params": {"n_angles": 16, "n_radii": 16},
    }
    code, out = _run(tmp_path, cfg, "conditions")
    assert code == 0
    lines = (out / "conditions.csv").read_text().splitlines()
    assert lines[0] == "M,sigma2,p1_max_dev,p2_min,p3_max_abs"
    devs = [float(line.split(",")[2]) for line in lines[1:]]
    assert devs[0] > devs[1] > devs[2]


def test_audit_table_shape(tmp_path):
    code, out = _run(tmp_path, AUDIT_CFG, "audit")
    assert code == 0
    lines = (out / "audit.csv").read_text().splitlines()
    assert lines[0] == "kind,K,J,theta1,theta2,value,reference"
    kinds = [line.split(",")[0] for line in lines[1:]]
    assert kinds == [
        "square_sum",
        "disc_sum",
        "square_sum",
        "disc_sum",
        "ring_sum",
        "ring_sum",
        "torus_log_ratio",
        "disc_log_ratio",
        "ring_dyadic_sum",
    ]
    # scalar rows leave the theta cells empty
    scalar = lines[-1].split(",")
    assert scalar[3] == "" and scalar[4] == ""
    assert float(scalar[6]) == pytest.approx(2 * math.pi * math.log(2), rel=1e-12)


def test_metadata_sidecar_contents(tmp_path):
    code, out = _run(tmp_path, AUDIT_CFG, "audit", extra=["--workers", "3"])
    assert code == 0
    meta = json.loads((out / "audit.meta.json").read_text())
    assert meta["command"] == "audit"
    assert meta["version"] == __version__
    assert meta["workers"] == 3
    assert meta["rows"] == 9
    assert meta["config"] == AUDIT_CFG
    assert meta["wall_seconds"] >= 0.0


def test_output_basename_override(tmp_path):
    cfg = dict(AUDIT_CFG)
    cfg["output"] = {"basename": "myrun"}
    code, out = _run(tmp_path, cfg, "audit")
    assert code == 0
    assert (out / "myrun.csv").exists()
    assert (out / "myrun.meta.json").exists()


def test_floats_use_seventeen_significant_digits(tmp_path):
    code, out = _run(tmp_path, AUDIT_CFG, "audit")
    assert code == 0
    lines = (out / "audit.csv").read_text().splitlines()
    ref = lines[-3].split(",")[6]  # 2 pi
    assert ref == "%.17g" % (2 * math.pi)


def test_unknown_key_is_exit_2(tmp_path):
    cfg = dict(AUDIT_CFG)
    cfg["bogus"] = 1
    code, _ = _run(tmp_path, cfg, "audit")
    assert code == 2


def test_kernel_range_must_stay_below_side(tmp_path):
    cfg = {
        "command": "uniformity",
        "torus": {"L": [8]},
        "kernel": {"family": "uniform", "M": 8},
        "scale": {"k_values": [1]},
    }
    code, _ = _run(tmp_path, cfg, "uniformity")
    assert code == 2


def test_command_mismatch_is_exit_2(tmp_path):
    code, _ = _run(tmp_path, AUDIT_CFG, "laplace")
    assert code == 2


def test_bad_json_and_missing_file_are_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["audit", "--config", str(bad)]) == 2
    assert main(["audit", "--config", str(tmp_path / "nope.json")]) == 2


def test_workers_below_one_is_exit_2(tmp_path):
    cfg_path = _write_cfg(tmp_path / "a.json", AUDIT_CFG)
    assert main(["audit", "--config", cfg_path, "--workers", "0"]) == 2


def test_step_cap_is_exit_4(tmp_path):
    cfg = {
        "command": "simulate",
        "torus": {"L": [32]},
        "kernel": {"family": "uniform", "M": 2},
        "scale": {"lams": [1.0]},
        "mc": {"replicates": 64, "seed": 7, "step_cap": 3},
    }
    code, _ = _run(tmp_path, cfg, "simulate")
    assert code == 4


def test_mixture_kernel_via_config(tmp_path):
    cfg = {
        "command": "uniformity",
        "torus": {"L": [16]},
        "kernel": {
            "family": "mixture",
            "M_exponent": 0.8,
            "c": 0.5,
            "q0": {"family": "uniform", "M": 2},
        },
        "scale": {"k_values": [1]},
    }
    code, out = _run(tmp_path, cfg, "uniformity")
    assert code == 0
    lines = (out / "uniformity.csv").read_text().splitlines()
    # even_ceil(16 ** 0.8) = even_ceil(9.19) = 10
    assert lines[1].split(",")[1] == "10"


def test_module_entry_point_runs(tmp_path):
    cfg_path = _write_cfg(tmp_path / "aud.json", AUDIT_CFG)
    # the child finds the package where this process found it, also when
    # pytest's own `pythonpath` setting put it on the path
    src = os.path.dirname(os.path.dirname(toruswalk.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "toruswalk.cli",
            "audit",
            "--config",
            cfg_path,
            "--out",
            str(tmp_path / "sub"),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "wrote" in proc.stdout
    assert (tmp_path / "sub" / "audit.csv").exists()


UNIFORMITY_CFG = {
    "command": "uniformity",
    "torus": {"L": [16]},
    "kernel": {"family": "uniform", "M": 4},
    "scale": {"k_values": [1]},
}

CONDITIONS_CFG = {
    "command": "conditions",
    "kernel": {"family": "uniform"},
    "M_values": [2, 8],
    "params": {"n_angles": 16, "n_radii": 16},
}


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("laplace", dict(MEANFIELD_LAPLACE, scale={"lams": [math.nan], "mode": "meanfield"})),
        ("uniformity", dict(UNIFORMITY_CFG, scale={"k_values": [math.inf]})),
        ("audit", {"command": "audit", "audit": dict(AUDIT_CFG["audit"], thetas=[[math.nan, 0.5]])}),
        ("conditions", dict(CONDITIONS_CFG, params={"delta": math.nan})),
        ("coalesce", dict(COALESCE_CFG, scale=dict(COALESCE_CFG["scale"], sigma2=math.inf))),
        ("audit", {"command": "audit", "audit": dict(AUDIT_CFG["audit"], thetas=[[True, 0.5]])}),
    ],
    ids=["laplace-nan", "uniformity-inf", "audit-nan", "conditions-nan", "coalesce-inf", "audit-bool"],
)
def test_non_finite_and_boolean_numbers_are_exit_2(tmp_path, command, cfg):
    # json writes NaN and Infinity, and json.load reads them back as floats
    code, out = _run(tmp_path, cfg, command)
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "command, cfg, extra",
    [
        ("simulate", SIMULATE_CFG, ["--seed", "-1"]),
        ("simulate", SIMULATE_CFG, ["--seed", str(2**64)]),
        (
            # the annulus at the second side holds no lattice point
            "laplace",
            {
                "command": "laplace",
                "torus": {"L": [64, 2]},
                "kernel": {"family": "meanfield"},
                "scale": {"lams": [1.0], "mode": "finite", "rho": 0.0, "alpha": 0.0},
            },
            None,
        ),
        (
            # the starts are distinct on L=64 but wrap onto each other on L=8
            "coalesce",
            dict(
                COALESCE_CFG,
                torus={"L": [64, 8]},
                scale={"s_values": [0.2], "starts": [[0, 0], [8, 0], [16, 0]]},
            ),
            None,
        ),
        (
            # the outer side 8 * (log 64)^2 ~ 138 exceeds the torus side
            "laplace",
            {
                "command": "laplace",
                "torus": {"L": [64]},
                "kernel": {"family": "uniform", "M": 2},
                "scale": {"lams": [1.0], "mode": "finite", "rho": 0.0, "alpha": 0.5, "v_exponent": 2},
            },
            None,
        ),
        (
            # (log 4096)^1000 overflows a float
            "laplace",
            {
                "command": "laplace",
                "torus": {"L": [4096]},
                "kernel": {"family": "uniform", "M": 2},
                "scale": {"lams": [1.0], "mode": "finite", "rho": 0.0, "v_exponent": 1000},
            },
            None,
        ),
    ],
    ids=[
        "seed-negative",
        "seed-too-large",
        "empty-annulus-at-second-side",
        "starts-collide-at-second-side",
        "annulus-larger-than-torus",
        "annulus-window-overflows",
    ],
)
def test_config_errors_are_refused_before_any_numeric_work(tmp_path, monkeypatch, command, cfg, extra):
    def forbidden(*args, **kwargs):
        raise AssertionError("numeric work started before the config was checked")

    monkeypatch.setattr("toruswalk.cli.build_grid", forbidden)
    monkeypatch.setattr("toruswalk.cli.simulate_hits", forbidden)
    monkeypatch.setattr("toruswalk.cli.lineage_count_law", forbidden)
    code, _ = _run(tmp_path, cfg, command, extra=extra)
    assert code == 2


def test_benchmark_tracer_hooks_resolve():
    """The benchmark's tracer wraps toruswalk functions by module attribute;
    a renamed or moved one must fail here, not in the benchmark."""
    import importlib.util
    from pathlib import Path

    import toruswalk
    import toruswalk.cli

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    original = toruswalk.cli.build_grid
    tracer = tracer_module.Tracer()
    try:
        tracer.install(toruswalk)
        assert toruswalk.cli.build_grid is not original
    finally:
        tracer.uninstall()
    assert toruswalk.cli.build_grid is original
