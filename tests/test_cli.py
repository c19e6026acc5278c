"""Batch runner: configs, CSV/metadata outputs, determinism, exit codes."""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toruswalk
from toruswalk import __version__
from toruswalk.cli import COMMANDS, _sup_gap, main
from toruswalk.torus import _axis_footprint


def _write_cfg(path, cfg) -> str:
    path.write_text(json.dumps(cfg))
    return str(path)


def _src_env() -> dict:
    """The environment for a child interpreter that imports this toruswalk."""
    src = os.path.dirname(os.path.dirname(toruswalk.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


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


@pytest.mark.parametrize("alpha", [0.5, 1.0])
@pytest.mark.parametrize("v", [2, 4, 8])
def test_laplace_regions_and_sup_gap_match_the_full_torus(tmp_path, alpha, v):
    # the quadrant sup and closed-form count agree with the full-torus
    # mask, also where the window v = (log L)^v_exponent is an integer
    # and the squares have integer half-sides
    L, M, lam = 128, 4, 1.0
    v_exponent = math.log(v) / math.log(math.log(L))
    cfg = {
        "command": "laplace",
        "torus": {"L": [L]},
        "kernel": {"family": "uniform", "M": M},
        "scale": {"lams": [lam], "mode": "finite", "rho": 0.0, "alpha": alpha, "v_exponent": v_exponent},
    }
    code, out = _run(tmp_path, cfg, "laplace")
    assert code == 0
    region = toruswalk.Annulus(alpha, math.log(L) ** v_exponent, L)
    mask = np.zeros(L * L, dtype=bool)
    mask[toruswalk.index_of(toruswalk.enumerate_region(region), toruswalk.TorusSpec(L))] = True
    meta = json.loads((out / "laplace.meta.json").read_text())
    assert meta["resolved"]["regions"] == {str(L): int(mask.sum())}
    grid = toruswalk.build_grid(toruswalk.uniform_kernel(M), toruswalk.TorusSpec(L))
    F = toruswalk.laplace_hit(grid, lam / (L**2 * toruswalk.t_scale(L, M))).values
    _, _, _, gap, target = (out / "laplace.csv").read_text().splitlines()[1].split(",")
    assert float(gap) == float(np.max(np.abs(F[mask] - float(target))))


@settings(max_examples=60, deadline=None)
@given(
    L=st.sampled_from([16, 18, 30, 64]),
    half_M=st.integers(min_value=1, max_value=4),
    lam_L2=st.floats(min_value=1e-3, max_value=100.0),
    alpha=st.floats(min_value=0.0, max_value=1.0),
    v_exp=st.floats(min_value=-0.25, max_value=1.0),
    target=st.floats(min_value=0.0, max_value=1.0),
)
def test_laplace_slices_match_the_masked_sup_and_the_green_ratio(L, half_M, lam_L2, alpha, v_exp, target):
    # laplace_hit skips the L^-2 that cancels in G / G(0): bit for bit
    # where dividing by L^2 is exact, within 4 ulp elsewhere; and the
    # sup over the footprint's two slices is the masked sup bit for bit.
    # lam runs over the CLI's scale, lam L^2 = O(1): at lam = 2 (L = 30,
    # M = 2) the far resolvent falls below the transform's rounding, and
    # laplace_hit refuses it, as green does
    spec, lam = toruswalk.TorusSpec(L), lam_L2 / L**2
    grid = toruswalk.build_grid(toruswalk.uniform_kernel(2 * half_M), spec)
    F = toruswalk.laplace_hit(grid, lam).quadrant
    G = toruswalk.green(grid, lam).quadrant
    ratio = G / G[0, 0]
    if L & (L - 1) == 0:
        assert np.array_equal(F, ratio)
    else:
        assert np.all(np.abs(F - ratio) <= 4 * np.spacing(ratio))
    region = toruswalk.Annulus(alpha, L**v_exp, L)
    try:
        window = _axis_footprint(region, spec)
    except ValueError:
        return  # off the torus, as quadrant_mask refuses it
    mask = toruswalk.quadrant_mask(region, spec)
    hi = float(np.max(F, where=mask, initial=-np.inf))
    lo = float(np.min(F, where=mask, initial=np.inf))
    assert _sup_gap(F, target, window) == max(hi - target, target - lo, 0.0)


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


def test_hitting_transform_below_its_rounding_is_exit_3(tmp_path):
    # at lam / L^2 = 2000 / 900 the far values of F fall below the DCT's
    # rounding and fail LaplaceField's (0, 1] check: a numeric failure,
    # reported in one line, with no table written
    cfg = {
        "command": "laplace",
        "torus": {"L": [30]},
        "kernel": {"family": "uniform", "M": 2},
        "scale": {"lams": [2000.0], "mode": "meanfield"},
    }
    code, out = _run(tmp_path, cfg, "laplace")
    assert code == 3
    assert not (out / "laplace.csv").exists() and not (out / "laplace.meta.json").exists()


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


@pytest.mark.parametrize(
    "block, kernel",
    [
        ({"family": "uniform", "M": 2}, toruswalk.uniform_kernel(2)),
        (
            {"family": "mixture", "c": 0.5, "M": 4, "q0": {"family": "uniform", "M": 2}},
            toruswalk.mixture_kernel(0.5, 4, toruswalk.uniform_kernel(2)),
        ),
    ],
    ids=["uniform", "mixture"],
)
def test_simulate_exact_column_matches_the_dense_oracle(tmp_path, block, kernel):
    # the exact column is the mean of F(x, lam) over the punctured torus
    L, lams = 16, [0.01, 0.3, 2.0]
    cfg = {**SIMULATE_CFG, "torus": {"L": [L]}, "kernel": block, "scale": {"lams": lams}}
    code, out = _run(tmp_path, cfg, "simulate")
    assert code == 0
    rows = [line.split(",") for line in (out / "simulate.csv").read_text().splitlines()[1:]]
    spec = toruswalk.TorusSpec(L)
    chain = toruswalk.dense_chain(kernel, spec)
    for lam, row in zip(lams, rows, strict=True):
        F = toruswalk.dense_laplace_hit(chain, lam)
        assert float(row[4]) == pytest.approx((F.sum() - 1.0) / (spec.n_points - 1), rel=1e-12)


def test_simulate_on_a_product_route_grid_loads_no_scipy_fft(tmp_path):
    # L = 32 >= 10 (M/2 + 1) for M = 2: the grid is the product form, and
    # the exact column sums on it with no transform
    cfg = {**SIMULATE_CFG, "torus": {"L": [32]}, "mc": {"replicates": 8, "seed": 3}}
    cfg_path = _write_cfg(tmp_path / "simulate.json", cfg)
    code = (
        "import sys\n"
        "from toruswalk.cli import main\n"
        f"assert main(['simulate', '--config', {cfg_path!r}, '--out', {str(tmp_path)!r}]) == 0\n"
        "print('scipy.fft' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "False"


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


@pytest.mark.parametrize("key, value", [("n_radii", 0), ("n_angles", -3)])
def test_conditions_refuses_fewer_than_one_probe_per_axis(tmp_path, capsys, key, value):
    cfg = {
        "command": "conditions",
        "kernel": {"family": "uniform"},
        "M_values": [8],
        "params": {key: value},
    }
    code, out = _run(tmp_path, cfg, "conditions")
    assert code == 2
    assert f"{key} must be at least 1" in capsys.readouterr().err
    assert not (out / "conditions.csv").exists()


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
        env=_src_env(),
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
            # nine diagonal starts on L=8: (i * 8) // 9 is 0 for i = 0 and 1
            "coalesce",
            dict(COALESCE_CFG, scale={"s_values": [0.2], "n": 9}),
            None,
        ),
        (
            # delta / M = 0.25 at M = 2 leaves the mid region (0.25, 0.2] empty;
            # M = 128 comes first and must not be probed
            "conditions",
            dict(CONDITIONS_CFG, M_values=[128, 2], params={"delta_prime": 0.2}),
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
        # each list below is bad only at its second value
        ("beta0", {"command": "beta0", "q0": {"family": "uniform", "M": 2}, "c_values": [0.5, 2.0]}, None),
        ("uniformity", dict(UNIFORMITY_CFG, scale={"k_values": [1, -1]}), None),
        ("simulate", dict(SIMULATE_CFG, scale={"lams": [1, -1]}), None),
    ],
    ids=[
        "seed-negative",
        "seed-too-large",
        "empty-annulus-at-second-side",
        "starts-collide-at-second-side",
        "diagonal-starts-collide",
        "conditions-mid-region-empty",
        "annulus-larger-than-torus",
        "annulus-window-overflows",
        "beta0-c-out-of-range-second",
        "uniformity-k-negative-second",
        "simulate-lam-negative-second",
    ],
)
def test_config_errors_are_refused_before_any_numeric_work(tmp_path, monkeypatch, command, cfg, extra):
    def forbidden(*args, **kwargs):
        raise AssertionError("numeric work started before the config was checked")

    monkeypatch.setattr("toruswalk.cli.build_grid", forbidden)
    monkeypatch.setattr("toruswalk.cli.simulate_hits", forbidden)
    monkeypatch.setattr("toruswalk.cli.lineage_count_law", forbidden)
    monkeypatch.setattr("toruswalk.cli.beta0", forbidden)
    monkeypatch.setattr("toruswalk.spectral.char_fn", forbidden)
    monkeypatch.setattr("toruswalk.spectral._psi_probes", forbidden)
    code, _ = _run(tmp_path, cfg, command, extra=extra)
    assert code == 2


@pytest.mark.parametrize("out", ["afile", "afile/sub"], ids=["a-file", "under-a-file"])
def test_out_that_cannot_be_a_directory_is_refused_before_any_work(tmp_path, monkeypatch, capsys, out):
    def forbidden(*args, **kwargs):
        raise AssertionError("numeric work started before --out was checked")

    monkeypatch.setattr("toruswalk.cli.build_grid", forbidden)
    (tmp_path / "afile").write_text("kept")
    code, _ = _run(tmp_path, UNIFORMITY_CFG, "uniformity", out=out)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: --out {tmp_path / out}: ") and len(err.splitlines()) == 1
    assert "is not a directory" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "uniformity.json"]
    assert (tmp_path / "afile").read_text() == "kept"


def test_start_window_off_the_torus_names_its_side(tmp_path, capsys):
    # the outer side 8 (log 64)^3 = 575.47 exceeds the torus side 64
    cfg = {
        "command": "laplace",
        "torus": {"L": [64]},
        "kernel": {"family": "uniform", "M": 2},
        "scale": {"lams": [0.5], "mode": "finite", "rho": 0.0, "alpha": 0.5, "v_exponent": 3},
    }
    code, out = _run(tmp_path, cfg, "laplace")
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err == (
        "config error: invalid value: the start window's outer side 575.467 "
        "reaches off the torus of side 64\n"
    )


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("laplace", {**MEANFIELD_LAPLACE, "torus": {"L": [2**22]}, "kernel": {"family": "uniform", "M": 2}}),
        ("simulate", {**SIMULATE_CFG, "torus": {"L": [2**40]}}),
        ("audit", {"command": "audit", "audit": dict(AUDIT_CFG["audit"], K=2**40)}),
        ("conditions", dict(CONDITIONS_CFG, M_values=[2**20])),
    ],
    ids=["laplace-L2^22", "simulate-L2^40", "audit-K2^40", "conditions-M2^20"],
)
def test_input_too_big_for_memory_is_exit_2(tmp_path, command, cfg):
    # a child interpreter whose address space is capped at 2 GiB, so a
    # run that tries to allocate cannot touch more than that
    cfg_path = _write_cfg(tmp_path / f"{command}.json", cfg)
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from toruswalk.cli import main\n"
        "sys.exit(main(sys.argv[1:]))"
    )
    argv = [command, "--config", cfg_path, "--out", str(tmp_path / "out")]
    env = dict(_src_env(), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error: needs more memory than this machine has: ")
    assert len(proc.stderr.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_readme_table_and_help_list_each_command_with_its_columns(capsys):
    """README's CLI table and `toruswalk --help` show exactly the commands
    of cli.COMMANDS, each with its CSV columns in order."""
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = {}
    for line in readme.splitlines():
        if line.startswith("| `"):
            # a table cell ends at every pipe that is not escaped, also inside code
            cells = [cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
            assert len(cells) == 3, line
            table[cells[0].strip("`")] = tuple(cells[2].strip("`").split(","))
    assert table == {name: command.columns for name, command in COMMANDS.items()}
    assert list(table) == list(COMMANDS)

    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for name, command in COMMANDS.items():
        assert f"{name} {command.help}; CSV columns: {', '.join(command.columns)}" in text


def test_benchmark_tracer_hooks_resolve():
    """The benchmark's tracer wraps toruswalk functions by module attribute
    and reads their parameters and results; a renamed or moved function,
    parameter or field must fail here, not in the benchmark."""
    import importlib.util
    from pathlib import Path

    import numpy as np

    import toruswalk
    import toruswalk.cli
    import toruswalk.spectral

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    original = toruswalk.cli.build_grid
    kernel, torus = toruswalk.uniform_kernel(2), toruswalk.TorusSpec(8)
    tracer = tracer_module.Tracer()
    try:
        tracer.install(toruswalk)
        assert toruswalk.cli.build_grid is not original
        grid = toruswalk.cli.build_grid(kernel, torus)
        toruswalk.spectral.green(grid, 1.0)
        toruswalk.cli.simulate_hits(kernel, torus, 8, toruswalk.SeedSpec(1), chunk_size=4)
        toruswalk.spectral.char_fn(kernel, np.zeros((3, 2)))
    finally:
        tracer.uninstall()
    assert toruswalk.cli.build_grid is original
    assert tracer.grids == [(grid.kernel_label, 8)]
    assert tracer.counts["spectral.fft_points"] == 2 * 64
    assert tracer.counts["mc.hits.steps"] > 0 and tracer.counts["mc.hits.rounds"] > 0
    assert tracer.counts["spectral.char_fn.terms"] == 3 * kernel.n_support
    names = {span[0] for span in tracer.spans}
    assert {"spectral.build_grid", "spectral.green", "mc.simulate_hits", "spectral.char_fn"} <= names


def test_benchmark_oracle_check_passes():
    """The benchmark's oracle check reads laplace_hit(...).values and
    heat(...).raw against the dense rows; a change that breaks either
    must fail here, not in the benchmark."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    checks_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks_module)
    checks = checks_module.Checks()
    checks.oracle(toruswalk, [0.5, 1, 2])
    assert [name for name, _, _ in checks.results] == ["oracle.laplace_hit", "oracle.heat"]
    assert checks.failed == [], checks.results


def test_benchmark_table_checks_pass(tmp_path, monkeypatch):
    """Every benchmark workload command, run through the CLI at a fixed
    seed, passes the benchmark's own table checks against the recorded
    reference: a numeric drift beyond their tolerance must fail here,
    not in the benchmark."""
    import importlib.util
    from pathlib import Path

    root = Path(__file__).resolve().parents[1] / "perfbench"
    modules = {}
    for name in ("workloads", "checks"):
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", root / f"{name}.py")
        modules[name] = importlib.util.module_from_spec(spec)
        # dataclasses look their module up in sys.modules while the class is built
        monkeypatch.setitem(sys.modules, spec.name, modules[name])
        spec.loader.exec_module(modules[name])
    workloads, checks_module = modules["workloads"], modules["checks"]
    reference = checks_module.load_reference()
    checks = checks_module.Checks()
    commands = [c for w in workloads.WORKLOADS.values() for c in w.commands]
    run_dir, out_dir = str(tmp_path), str(tmp_path / "out")
    workloads.write_configs(commands, run_dir)
    for command in commands:
        assert main(workloads.cli_argv(command, run_dir, out_dir, 7)) == 0, command.name
        checks.table(command, out_dir, reference)
    assert len(commands) == 7 and len(checks.results) >= 2 * len(commands)
    assert checks.failed == [], checks.failed


@pytest.mark.parametrize(
    "suite, committed", [("mc-lattice", "BENCH_mc_lattice.json"), ("spectral-large", "BENCH_spectral_large.json")]
)
def test_layer_harness_driver(monkeypatch, suite, committed):
    """The layer harness, with a fake in place of its child runner: tree
    order alternates per repeat, a metric without a unit is refused, and
    the document has the committed BENCH file's schema, names and units."""
    import importlib.util
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("bench_layers", root / "tools" / "bench_layers.py")
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    calls = []

    def fake_child(tree, measure, arg):
        calls.append((tree, measure, arg))
        return {key: float(len(calls)) for key in harness.SUITES[suite].units}

    monkeypatch.setattr(harness, "run_child", fake_child)
    monkeypatch.setattr(harness, "revision", lambda tree: "abc1234")
    trees = {"parent": "/trees/parent", "change": "/trees/change"}
    doc = harness.bench(suite, trees, 3)

    per_repeat = 2 * len(harness.SUITES[suite].variants(0))
    assert len(calls) == 3 * per_repeat
    for i in range(0, len(calls), 2):
        (first, *variant), (second, *same) = calls[i : i + 2]
        assert variant == same
        even = (i // per_repeat) % 2 == 0
        assert (first, second) == (("/trees/parent", "/trees/change") if even else ("/trees/change", "/trees/parent"))

    reference = json.loads((root / committed).read_text())
    assert reference["harness"] == doc["harness"] and (root / doc["harness"]).is_file()
    assert set(reference) <= set(doc) and set(reference["machine"]) <= set(doc["machine"])
    for key in set(reference) - {"repeats", "machine", "trees"}:
        assert doc[key] == reference[key]
    assert doc["repeats"] == 3 and set(doc["trees"]) == set(trees)
    for name, tree in doc["trees"].items():
        assert tree["revision"] == "abc1234"
        for key, metric in reference["trees"]["change"]["metrics"].items():
            assert set(tree["metrics"][key]) == {"unit", "median", "q1", "q3", "runs"}
            assert tree["metrics"][key]["unit"] == metric["unit"]
            assert len(tree["metrics"][key]["runs"]) == 3

    monkeypatch.setattr(harness, "run_child", lambda tree, measure, arg: {"unitless": 1.0})
    with pytest.raises(KeyError, match="unitless"):
        harness.bench(suite, trees, 2)


def test_public_names_resolve():
    """Every name in toruswalk.__all__ exists, so a deleted export fails
    here rather than at a user's star import."""
    missing = [name for name in toruswalk.__all__ if not hasattr(toruswalk, name)]
    assert missing == []
    namespace: dict = {}
    exec("from toruswalk import *", namespace)
    assert set(toruswalk.__all__) <= set(namespace)


def test_cli_import_loads_no_compiler_hash_or_thread_pool_modules():
    # subprocess and hashlib load when sampling first builds the compiled
    # skeleton, concurrent.futures when chunks run on threads
    code = (
        "import sys, numpy\n"
        "base = set(sys.modules)\n"
        "import toruswalk.cli\n"
        "added = set(sys.modules) - base\n"
        "print(sorted(m for m in ('subprocess', 'hashlib', 'concurrent.futures') if m in added))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_scipy():
    # scipy (about a quarter second to import) loads only in the
    # functions that transform or solve, not with the CLI
    code = "import sys, toruswalk.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
