"""Command-line interface: artifacts, determinism, exit codes.

Exit-code contract exercised here:
  0  success
  2  usage / IO problems (bad config file, unreadable input)
  3  constraint or convergence failures surfaced from the library
Argparse-level usage errors (unknown flags, missing required arguments)
terminate with SystemExit(2), which is asserted separately.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cslab import (
    EvolveConfig,
    HardyCoeffs,
    Inconclusive,
    InvalidParameter,
    build_lax,
    evolve,
    evolve_basis,
    make_fixture,
    run_verify,
)
import cslab
from cslab.cli import main


def run(*argv):
    return main(list(argv))


def test_wave_record_and_artifacts(tmp_path):
    out = tmp_path / "w"
    rc = run("wave", "--sign", "defocusing", "--N", "1", "--p", "0.5",
             "--beta", "1", "--K", "64", "--out-dir", str(out))
    assert rc == 0
    record = json.loads((out / "wave_record.json").read_text())
    assert record["c"] == pytest.approx(11.0 / 3.0, abs=1e-13)
    assert record["alpha"] == pytest.approx(-7.0 / 3.0, abs=1e-13)
    assert record["l2_squared"] == pytest.approx(19.0 / 9.0, abs=1e-13)
    pairs = json.loads((out / "wave_coeffs.json").read_text())
    assert len(pairs) == 64
    coeffs = np.array([complex(re, im) for re, im in pairs])
    assert np.sum(np.abs(coeffs) ** 2) == pytest.approx(19.0 / 9.0,
                                                        abs=1e-12)


def test_finitegap_symmetric_pair(tmp_path):
    """Pinning a = 0 on the pole pair +/-p selects the even branch
    c_1 = c_2 = sqrt((1-p^4)/2) (the conditions collapse to
    c^2 (1/(1-p^2) + 1/(1+p^2)) = 1); its profile 2c/(1 - p^2 z^2) still
    has squared norm 4c^2/(1-p^4) = 2."""
    out = tmp_path / "fg"
    # a leading minus needs the --flag=value spelling to survive argparse
    rc = run("finitegap", "--sign", "focusing",
             "--pole", "0.5,0", "--pole=-0.5,0", "--pin-a", "0,0",
             "--K", "64", "--out-dir", str(out))
    assert rc == 0
    rec = json.loads((out / "finitegap_record.json").read_text())
    assert rec["max_residual"] < 1e-12
    assert rec["predicted_l2"] == pytest.approx(2.0, abs=1e-10)
    assert rec["a"] == pytest.approx([0.0, 0.0], abs=1e-12)
    c1 = np.sqrt((1 - 0.5 ** 4) / 2)
    mags = sorted(abs(complex(re, im)) for re, im in rec["residues"])
    assert mags == pytest.approx([c1, c1], abs=1e-10)
    pairs = json.loads((out / "finitegap_coeffs.json").read_text())
    coeffs = np.array([complex(re, im) for re, im in pairs])
    assert np.sum(np.abs(coeffs) ** 2) == pytest.approx(2.0, abs=1e-10)


def test_spectrum_from_fixture(tmp_path):
    out = tmp_path / "s"
    rc = run("spectrum", "--fixture", "appendix1", "--K", "128",
             "--out-dir", str(out))
    assert rc == 0
    ident = json.loads((out / "spectrum_identities.json").read_text())
    assert ident["max_residual"] < 1e-8
    assert ident["collinearity_zero_set"] == []
    lines = (out / "spectrum_eigenvalues.csv").read_text().strip().splitlines()
    assert lines[0].strip() == "n,eigenvalue,gap,collinearity_abs"
    assert len(lines) == 1 + ident["reliable"]
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(-1.0, abs=1e-10)


def test_python_m_cslab_runs_the_cli(tmp_path):
    """``python -m cslab`` from a source tree on PYTHONPATH exits 0 and
    writes the same bytes as ``cli.main``."""
    args = ["spectrum", "--fixture", "appendix2", "--K", "64", "--out-dir"]
    assert run(*args, str(tmp_path / "main")) == 0
    env = dict(os.environ)
    src = str(Path(cslab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "cslab", *args, str(tmp_path / "m")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in (tmp_path / "main").iterdir())
    assert names == ["spectrum_eigenvalues.csv", "spectrum_identities.json"]
    assert sorted(p.name for p in (tmp_path / "m").iterdir()) == names
    for name in names:
        assert (tmp_path / "m" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()


def test_spectrum_from_coeff_file(tmp_path):
    out1 = tmp_path / "w"
    run("wave", "--sign", "defocusing", "--N", "1", "--p", "0.5",
        "--beta", "1", "--K", "128", "--out-dir", str(out1))
    out2 = tmp_path / "s"
    rc = run("spectrum", "--input", str(out1 / "wave_coeffs.json"),
             "--sign", "defocusing", "--out-dir", str(out2))
    assert rc == 0
    assert (out2 / "spectrum_eigenvalues.csv").exists()


def test_evolve_summary_and_trajectory(tmp_path):
    out = tmp_path / "e"
    rc = run("evolve", "--fixture", "wave:focusing:1:0.5:1", "--K", "64",
             "--T", "0.02", "--dt", "1e-3", "--record-every", "4",
             "--out-dir", str(out))
    assert rc == 0
    summary = json.loads((out / "evolve_summary.json").read_text())
    assert summary["l2_drift"] < 1e-8
    assert summary["measured_speed"] == pytest.approx(-1.0 / 3.0, abs=1e-4)
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    assert lines[0].strip() == "t,l2_squared,mean_re,mean_im,tail_energy"
    assert len(lines) == 1 + summary["snapshots"]
    t0, l2_0 = lines[1].split(",")[:2]
    assert float(t0) == 0.0
    assert float(l2_0) == pytest.approx(7.0 / 9.0, abs=1e-12)


def test_evolve_to_time_zero_measures_no_speed(tmp_path):
    """One snapshot fixes no speed: the summary says null, not 0."""
    out = tmp_path / "e"
    assert run("evolve", "--fixture", "wave:defocusing:1:0.5:1", "--K", "64",
               "--T", "0", "--out-dir", str(out)) == 0
    summary = json.loads((out / "evolve_summary.json").read_text())
    assert summary["snapshots"] == 1
    assert summary["measured_speed"] is None


def test_evolve_with_coarse_records_measures_the_speed(tmp_path):
    """Records 50 steps apart alias the high modes' phases; the speed is
    still measured (it used to be written as null)."""
    out = tmp_path / "e"
    assert run("evolve", "--fixture", "wave:defocusing:1:0.5:0.2", "--K", "128",
               "--T", "0.05", "--record-every", "50", "--out-dir", str(out)) == 0
    summary = json.loads((out / "evolve_summary.json").read_text())
    assert summary["snapshots"] == 11
    assert summary["measured_speed"] == pytest.approx(155.0 / 3.0, rel=1e-8)


def test_modulated_index_one_fixture(tmp_path):
    """modulated:1:P has alpha = 0; its finite-gap record is m0 = 0 with
    a = -beta/p, and the spectrum command runs on it."""
    assert run("spectrum", "--fixture", "modulated:1:0.5", "--K", "64",
               "--out-dir", str(tmp_path)) == 0
    ident = json.loads((tmp_path / "spectrum_identities.json").read_text())
    assert ident["max_residual"] < 1e-8


def test_evolve_refuses_a_truncation_without_buffer(tmp_path):
    coeffs = tmp_path / "u4.json"
    coeffs.write_text("[[0.3, 0], [0.1, 0], [0, 0], [0, 0]]")
    assert run("evolve", "--input", str(coeffs), "--sign", "defocusing",
               "--T", "0.01", "--dt", "1e-3", "--out-dir", str(tmp_path)) == 3


def test_reruns_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        run("wave", "--sign", "focusing", "--N", "1", "--p", "0.5",
            "--beta", "1", "--K", "64", "--out-dir", str(out))
        run("spectrum", "--fixture", "appendix2", "--K", "64",
            "--out-dir", str(out))
    for name in ("wave_record.json", "wave_coeffs.json",
                 "spectrum_eigenvalues.csv", "spectrum_identities.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_config_file_overrides_defaults(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"T": 0.01, "dt": 1e-3}))
    out = tmp_path / "e"
    rc = run("evolve", "--fixture", "plane:1:0.5", "--K", "32",
             "--config", str(cfgfile), "--out-dir", str(out))
    assert rc == 0
    summary = json.loads((out / "evolve_summary.json").read_text())
    assert summary["T"] == 0.01
    assert summary["dt"] == 1e-3


def test_trajectory_csv_digest_is_pinned(tmp_path):
    """Byte-identity guard for the stepper: the digest of this trajectory
    file must not move under refactors.  The file holds only FFT and
    elementwise results (no LAPACK), so the digest is tied to the installed
    numpy FFT; a different numpy build may legitimately change it."""
    out = tmp_path / "e"
    assert run("evolve", "--fixture", "wave:defocusing:1:0.5:1", "--K", "64",
               "--T", "0.02", "--dt", "0.001", "--record-every", "1",
               "--out-dir", str(out)) == 0
    digest = hashlib.sha256((out / "trajectory.csv").read_bytes()).hexdigest()
    assert digest == ("b8768b76d9daab24779d1e10e990f5e2"
                      "57e54810a538b230e0488cab5265af31")


def test_evolved_basis_digest_is_pinned():
    """Byte-identity guard for the B action: the digest of the co-evolved
    basis must not move under refactors.  The vectors start as the first
    two unit vectors, so, as for the trajectory file, only FFT and
    elementwise results enter (no LAPACK).  The digest is taken over the
    (n_snapshots, K, m) column layout the basis was first stored in."""
    u0 = make_fixture("wave:defocusing:1:0.5:1").coeffs(64)
    traj = evolve(u0, EvolveConfig(sign="defocusing", K=64, T=0.02, dt=1e-3))
    basis = evolve_basis(traj, np.eye(64, 2, dtype=complex))
    digest = hashlib.sha256(np.swapaxes(basis.coeffs, 1, 2).tobytes()).hexdigest()
    assert digest == ("ed4c7f3e7a44d537cfb823bb6c78ab19"
                      "17b224f755253bc692952743e8a79ab8")


def test_config_rejections(tmp_path):
    bad_key = tmp_path / "bad.json"
    bad_key.write_text(json.dumps({"timestep": 1e-3}))
    assert run("evolve", "--fixture", "plane:1:0.5",
               "--config", str(bad_key)) == 2
    malformed = tmp_path / "broken.json"
    malformed.write_text("{not json")
    assert run("evolve", "--fixture", "plane:1:0.5",
               "--config", str(malformed)) == 2
    assert run("evolve", "--fixture", "plane:1:0.5",
               "--config", str(tmp_path / "missing.json")) == 2
    wrong_type = tmp_path / "float_k.json"
    wrong_type.write_text(json.dumps({"K": 16.5}))
    assert run("evolve", "--fixture", "plane:1:0.5",
               "--config", str(wrong_type), "--out-dir", str(tmp_path)) == 2


def test_malformed_coefficient_file_is_io_error(tmp_path):
    for i, text in enumerate(("[[1,0],[2]]", "{not json", "[1, 2]", "[]")):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(text)
        assert run("spectrum", "--input", str(bad), "--sign", "focusing",
                   "--out-dir", str(tmp_path)) == 2, text


def test_non_finite_coefficients_are_refused(tmp_path):
    with pytest.raises(InvalidParameter):
        HardyCoeffs(np.array([1.0, np.nan]))
    with pytest.raises(InvalidParameter):  # ||u||^2 overflows: no Lax matrix
        build_lax(HardyCoeffs(np.array([1e200, 1e200])), "focusing")
    bad = tmp_path / "nan.json"
    # a NaN, and finite entries whose ||u||^2 overflows (refused before LAPACK)
    for text in ("[[1, 0], [NaN, 0]]", "[[1e200, 0], [1e200, 0], [0.5, 0]]"):
        bad.write_text(text)
        assert run("spectrum", "--input", str(bad), "--sign", "focusing",
                   "--out-dir", str(tmp_path)) == 3, text


def test_verify_only_matches_exactly(capsys):
    with pytest.raises(Inconclusive):
        run_verify(only="gap")
    assert run("verify", "--only", "5") == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("criterion") for line in lines) == 1
    assert lines[-1] == "1/1 criteria passed"


def test_missing_input_file_is_io_error(tmp_path):
    rc = run("spectrum", "--input", str(tmp_path / "nope.json"),
             "--sign", "focusing", "--out-dir", str(tmp_path))
    assert rc == 2


def test_constraint_failures_exit_3(tmp_path):
    assert run("wave", "--sign", "focusing", "--p", "1.0", "--beta", "1",
               "--out-dir", str(tmp_path)) == 3          # pole on the circle
    assert run("wave", "--sign", "defocusing", "--family", "stationary",
               "--p", "0.5", "--out-dir", str(tmp_path)) == 3  # no such family
    for beta in ("1e300", "1e200"):  # beta^2 overflows a double
        assert run("wave", "--sign", "defocusing", "--family", "pole", "--N", "1",
                   "--p", "0.5", "--beta", beta, "--K", "64",
                   "--out-dir", str(tmp_path)) == 3, beta
    assert run("finitegap", "--sign", "defocusing", "--pole", "0.5,0",
               "--pin-a", "0,0", "--out-dir", str(tmp_path)) == 3  # infeasible
    assert run("verify", "--only", "nonexistent-criterion") == 3
    assert run("spectrum", "--fixture", "plane:1:2", "--K", "7",
               "--out-dir", str(tmp_path)) == 3  # no reliability buffer
    coeffs = tmp_path / "u.json"
    coeffs.write_text("[[1, 0], [0.5, 0]]")
    for state in (["--fixture", "appendix1"],
                  ["--input", str(coeffs), "--sign", "focusing"]):
        for cmd in ("spectrum", "evolve"):
            assert run(cmd, *state, "--K", "-3",
                       "--out-dir", str(tmp_path)) == 3, (cmd, state)
    # poles outside the disc or non-finite, a non-finite pinned a, and a
    # negative multiplicity (its start sqrt(m (1 - |p|^2)) is NaN)
    for extra in (["--pole", "1.5,0:1"], ["--pole", "nan,0:1"],
                  ["--pole", "0.5,0", "--pin-a", "nan"], ["--pole", "0.5:-1"]):
        assert run("finitegap", "--sign", "focusing", *extra,
                   "--out-dir", str(tmp_path)) == 3, extra
    for flag, value in [("--T", "nan"), ("--T", "inf"),
                        ("--dt", "nan"), ("--dt", "inf")]:
        assert run("evolve", "--fixture", "appendix1", "--K", "64", flag,
                   value, "--out-dir", str(tmp_path)) == 3, (flag, value)
    # 1e304 steps: finite, but above MAX_STEPS (it used to run until killed)
    assert run("evolve", "--fixture", "wave:focusing:1:0.5:1", "--K", "64",
               "--T", "1e300", "--out-dir", str(tmp_path)) == 3
    # a first step to NaN ends the run there (BlowupDetected), not 10^5 steps on
    with np.errstate(all="ignore"):
        assert run("evolve", "--input", str(coeffs), "--sign", "defocusing",
                   "--K", "32", "--T", "1e15", "--dt", "1e10", "--record-every",
                   "1000000000", "--out-dir", str(tmp_path)) == 3
    # a --sign that contradicts the fixture's own: refused, nothing written
    for name in ("appendix1", "wave:focusing:1:0.5:1", "modulated:3:0.5",
                 "stationary:1:0.5"):
        out = tmp_path / "contradicted"
        assert run("spectrum", "--fixture", name, "--sign", "defocusing", "--K", "64",
                   "--out-dir", str(out)) == 3, name
        assert not out.exists(), name
    # malformed fixture names, and a K above the limit on every subcommand
    for name in ("wave:focusing:x:0.5:1", "plane:1:zz", "appendix1:3"):
        assert run("spectrum", "--fixture", name,
                   "--out-dir", str(tmp_path)) == 3, name
    huge = ["--K", "100000000000", "--out-dir", str(tmp_path)]
    for argv in (["spectrum", "--fixture", "appendix1"],
                 ["spectrum", "--input", str(coeffs), "--sign", "focusing"],
                 ["evolve", "--fixture", "appendix1"],
                 ["wave", "--sign", "focusing", "--p", "0.5", "--beta", "1"],
                 ["finitegap", "--sign", "focusing", "--pole", "0.5"]):
        assert run(*argv, *huge) == 3, argv


def test_state_flag_mistakes_are_usage_errors(tmp_path):
    coeffs = tmp_path / "u.json"
    coeffs.write_text("[[1, 0], [0.5, 0]]")
    assert run("spectrum", "--fixture", "appendix1", "--input", str(coeffs),
               "--out-dir", str(tmp_path)) == 2
    assert run("spectrum", "--out-dir", str(tmp_path)) == 2
    assert run("evolve", "--input", str(coeffs),
               "--out-dir", str(tmp_path)) == 2  # no --sign
    assert run("spectrum", "--input", str(coeffs), "--sign", "focusing",
               "--K", "1", "--out-dir", str(tmp_path)) == 2  # drops data


def test_usage_errors_raise_system_exit():
    with pytest.raises(SystemExit) as exc:
        run("wave")  # --sign is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run("spectrum", "--no-such-flag")
    assert exc.value.code == 2
