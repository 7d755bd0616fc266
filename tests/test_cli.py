import gc
import json
from dataclasses import replace
import os
import shlex
import shutil
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dgbo import modulation
from dgbo.artifacts import (
    read_csv,
    read_field,
    read_ground_state,
    read_json,
    read_run,
    read_track,
    write_csv,
    write_field,
    write_ground_state,
    write_json,
    write_run,
    write_spectrum,
    write_track,
)
from dgbo.cli import _apply_config_defaults, build_parser, main
from dgbo.dynamics import (
    FILTER_STRENGTH,
    LINF_CEILING,
    Diagnostics,
    EvolutionConfig,
    RunRecord,
    Stepper,
    evolve,
)
from dgbo.errors import ContractError
from dgbo.ground_state import GroundState
from dgbo.modulation import ModulationTrack
from dgbo.spectral import Grid

from conftest import ground_state_for, COMPACT

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


@pytest.fixture(scope="module")
def artifacts_dir(tmp_path_factory):
    """Ground-state and spectrum artifacts shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    base = str(root / "gs")
    rc = main([
        "ground-state", "--alpha", "2.0", "--half-length", "50.0", "--n", "1024",
        "--out", base,
    ])
    assert rc == 0
    rc = main(["spectrum", "--state", base, "--out", str(root / "spec")])
    assert rc == 0
    return root


class TestRoundTrips:
    def test_field_roundtrip(self, tmp_path):
        g = Grid(25.0, 128)
        vals = np.sin(g.x)
        write_field(str(tmp_path / "f"), g, vals, kind="test", t=1.5)
        g2, v2, meta = read_field(str(tmp_path / "f"))
        assert g2 == g
        assert np.array_equal(v2, vals)
        assert meta["t"] == 1.5

    def test_read_field_closes_its_file(self, tmp_path):
        g = Grid(25.0, 128)
        write_field(str(tmp_path / "f"), g, np.sin(g.x))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            read_field(str(tmp_path / "f"))
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_ground_state_roundtrip(self, tmp_path):
        gs = ground_state_for(2.0, COMPACT)
        write_ground_state(str(tmp_path / "gs"), gs)
        back = read_ground_state(str(tmp_path / "gs"))
        assert back.alpha == gs.alpha
        assert np.array_equal(back.values, gs.values)
        assert back.residual == gs.residual

    def test_ground_state_ladder_roundtrip(self, tmp_path):
        gs = ground_state_for(1.5, COMPACT)
        write_ground_state(str(tmp_path / "gs"), gs)
        back = read_ground_state(str(tmp_path / "gs"))
        assert len(back.ladder) == 4
        assert back.ladder == gs.ladder
        assert back.iterations == gs.ladder[-1].iterations
        with open(str(tmp_path / "gs") + ".cert.json") as fh:
            rungs = json.load(fh)["ladder"]
        assert [(r["alpha"], r["n"]) for r in rungs] == [
            (2.0, 512), (1.75, 512), (1.5, 512), (1.5, 1024)]

    def test_ground_state_reads_certificates_with_older_keys(self, tmp_path):
        # certificates once also stored "converged" and "energy_residual",
        # which restate the solver's stop rule and pohozaev_residuals[2]
        gs = ground_state_for(2.0, COMPACT)
        base = str(tmp_path / "gs")
        write_ground_state(base, gs)
        with open(base + ".cert.json") as fh:
            cert = json.load(fh)
        assert "converged" not in cert and "energy_residual" not in cert
        cert.update(converged=True, energy_residual=cert["pohozaev_residuals"][2])
        del cert["ladder"]  # nor did they record the ladder
        with open(base + ".cert.json", "w") as fh:
            json.dump(cert, fh)
        back = read_ground_state(base)
        assert back.pohozaev_residuals == gs.pohozaev_residuals
        assert np.array_equal(back.values, gs.values)
        assert back.ladder == ()

    def test_run_roundtrip(self, tmp_path):
        g = Grid(25.0, 128)
        cfg = EvolutionConfig(alpha=1.5, dt=1e-3, t_end=0.02, checkpoint_every=5,
                              store_states=True)
        rec = evolve(g, np.exp(-(g.x**2)), cfg)
        write_run(str(tmp_path / "run"), rec, header_extra={})
        header, samples, states, grid = read_run(str(tmp_path / "run"))
        assert header["status"] == "completed"
        assert header["linf_ceiling"] == LINF_CEILING  # the divergence threshold the run used
        assert header["filter_strength"] == FILTER_STRENGTH  # and the high-k filter
        assert "filter_strength" not in header["config"]
        assert grid == g
        assert len(samples) == len(rec.samples)
        assert len(states) == len(rec.states)
        assert samples[-1].mass == rec.samples[-1].mass  # %.17g is lossless

    def test_read_csv_checks_the_header(self, tmp_path):
        path = str(tmp_path / "series.csv")
        write_csv(path, ("t", "mass"), [(0.0, 1.5), (0.1, 1.25)])
        assert read_csv(path, ("t", "mass")) == [[0.0, 1.5], [0.1, 1.25]]
        with pytest.raises(ContractError, match="unexpected columns"):
            read_csv(path, ("t", "energy"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_json_refuses_non_finite_floats(self, tmp_path, bad):
        # strict parsers refuse NaN and Infinity, so no artifact may carry one,
        # and a refused write leaves no partial file behind
        path = tmp_path / "header.json"
        with pytest.raises(ContractError, match="header.json"):
            write_json(str(path), {"t_end": 1.0, "nested": {"values": [0.5, bad]}})
        assert not path.exists()

    def test_spectrum_without_an_edge_writes_null(self, spec2_compact, tmp_path):
        # essential_edge_estimate is inf when no eigenvalue lies above the band
        base = str(tmp_path / "spec")
        write_spectrum(base, replace(spec2_compact, essential_edge_estimate=np.inf))
        assert read_json(base + ".spectrum.json")["essential_edge_estimate"] is None
        write_spectrum(base, spec2_compact)
        edge = read_json(base + ".spectrum.json")["essential_edge_estimate"]
        assert edge == spec2_compact.essential_edge_estimate


def _files(root):
    """Relative path -> bytes of every file under root."""
    out = {}
    for dirpath, _dirs, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


finite = st.floats(-1e3, 1e3)
grids = st.builds(Grid, st.floats(0.5, 100.0), st.sampled_from([2, 4, 16, 64]))


def fields_on(grid):
    return hnp.arrays(float, grid.n, elements=finite)


class TestByteStableRoundTrips:
    """Write, read and write again: the second write reproduces every byte."""

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_ground_state(self, data):
        grid = data.draw(grids)
        gs = GroundState(
            alpha=data.draw(st.floats(1.0, 2.0)), grid=grid, values=data.draw(fields_on(grid)),
            iterations=data.draw(st.integers(1, 2000)),
            residual=data.draw(finite), sup_diff=data.draw(finite),
            pohozaev_residuals=tuple(data.draw(st.lists(finite, min_size=3, max_size=3))),
        )
        with tempfile.TemporaryDirectory() as d1, tempfile.TemporaryDirectory() as d2:
            write_ground_state(os.path.join(d1, "gs"), gs)
            write_ground_state(os.path.join(d2, "gs"), read_ground_state(os.path.join(d1, "gs")))
            assert sorted(_files(d1)) == ["gs.cert.json", "gs.f64", "gs.json"]
            assert _files(d1) == _files(d2)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_run_directory(self, data):
        grid = data.draw(grids)
        cfg = EvolutionConfig(
            alpha=data.draw(st.floats(1.0, 2.0)), dt=data.draw(st.floats(1e-6, 1.0)),
            t_end=data.draw(st.floats(1e-3, 1e3)),
            sign=data.draw(st.sampled_from(["focusing", "defocusing"])),
            checkpoint_every=data.draw(st.integers(1, 1000)), store_states=True,
        )
        samples = [Diagnostics(*row) for row in data.draw(
            st.lists(st.lists(finite, min_size=6, max_size=6), min_size=1, max_size=4))]
        states = [(data.draw(finite), data.draw(fields_on(grid)))
                  for _ in range(data.draw(st.integers(0, 3)))]
        rec = RunRecord(
            config=cfg, grid=grid, samples=samples, states=states,
            final_state=data.draw(st.none() | fields_on(grid)), final_t=data.draw(finite),
            status=data.draw(st.sampled_from(["completed", "diverged", "resolution_lost"])),
            status_t=data.draw(st.none() | finite),
        )
        with tempfile.TemporaryDirectory() as d1, tempfile.TemporaryDirectory() as d2:
            write_run(d1, rec, header_extra={})
            header, samples2, states2, _ = read_run(d1)
            final = None
            if os.path.exists(os.path.join(d1, "final.f64")):
                final = read_field(os.path.join(d1, "final"))[1]
            g = header["grid"]
            write_run(d2, RunRecord(
                config=EvolutionConfig(**header["config"]),
                grid=Grid(g["half_length"], g["n_points"]), samples=samples2, states=states2,
                final_state=final, final_t=header["final_t"],
                status=header["status"], status_t=header["status_t"],
            ), header_extra={})
            assert _files(d1) == _files(d2)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        *[hnp.arrays(float, n, elements=finite) for _ in range(9)])),
        finite, st.booleans(), st.none() | finite)
    def test_track(self, columns, fitted_c, truncated, truncated_at):
        tr = ModulationTrack(1.5, *columns, fitted_c=fitted_c, truncated=truncated,
                             truncated_at=truncated_at)
        with tempfile.TemporaryDirectory() as d1, tempfile.TemporaryDirectory() as d2:
            write_track(os.path.join(d1, "track"), tr, header_extra={})
            write_track(os.path.join(d2, "track"), read_track(os.path.join(d1, "track")),
                        header_extra={})
            assert sorted(_files(d1)) == ["track.csv", "track.gp", "track.json"]
            assert _files(d1) == _files(d2)


class TestCommands:
    def test_ground_state_certificate(self, artifacts_dir):
        cert = json.load(open(str(artifacts_dir / "gs.cert.json")))
        # the solver's stop rule: successive sup difference and equation residual
        assert cert["sup_diff"] < 1e-12
        assert cert["residual_l2"] < 1e-9
        assert max(cert["pohozaev_residuals"]) < 1e-5

    def test_spectrum_artifacts(self, artifacts_dir):
        spec = json.load(open(str(artifacts_dir / "spec.spectrum.json")))
        assert spec["structure_ok"]
        assert spec["mu0"] < 0
        assert spec["parity_gap"] > 0
        assert os.path.exists(str(artifacts_dir / "spec.chi0.f64"))

    def test_evolve_modulate_monotonicity_chain(self, artifacts_dir):
        run_dir = str(artifacts_dir / "run")
        rc = main([
            "evolve", "--state", str(artifacts_dir / "gs"), "--t-end", "0.5",
            "--dt", "2e-4", "--checkpoint-every", "500",
            "--perturbation", '{"bump": {"amplitude": 0.01, "width": 2.0}}',
            "--out", run_dir,
        ])
        assert rc == 0
        assert os.path.exists(os.path.join(run_dir, "series.csv"))
        track_base = str(artifacts_dir / "track")
        rc = main([
            "modulate", "--run", run_dir, "--state", str(artifacts_dir / "gs"),
            "--chi0", str(artifacts_dir / "spec"), "--out", track_base,
        ])
        assert rc == 0
        assert os.path.exists(track_base + ".csv")
        out = str(artifacts_dir / "mono.json")
        rc = main([
            "monotonicity", "--run", run_dir, "--track", track_base,
            "--x0", "10,20", "--mu", "0.5", "--r", "1.5", "--A", "10",
            "--state", str(artifacts_dir / "gs"), "--chi0", str(artifacts_dir / "spec"),
            "--out", out,
        ])
        assert rc == 0
        payload = json.load(open(out))
        assert all(rep["all_true"] for rep in payload["reports"])

    def test_liouville_probe(self, artifacts_dir):
        rc = main([
            "liouville-probe", "--state", str(artifacts_dir / "gs"),
            "--chi0", str(artifacts_dir / "spec"), "--t-end", "1.0",
            "--dt", "2e-3", "--out", str(artifacts_dir / "liouville"),
        ])
        assert rc == 0
        payload = json.load(open(str(artifacts_dir / "liouville.json")))
        assert payload["free_flow_decayed"] in (True, False)
        assert payload["secular_fraction"] >= 0.0

    def test_config_file_supplies_defaults(self, artifacts_dir, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "kind": "ground-state",
            "parameters": {"alpha": 2.0, "half_length": 50.0, "n": 1024},
        }))
        out = str(tmp_path / "gs_cfg")
        rc = main(["ground-state", "--config", str(cfg_file), "--out", out])
        assert rc == 0
        ref = read_ground_state(str(artifacts_dir / "gs"))
        got = read_ground_state(out)
        assert np.array_equal(got.values, ref.values)

    @pytest.mark.parametrize("flag", [["--alpha", "1.5"], ["--alpha=1.5"]])
    def test_flag_beats_config_in_both_spellings(self, tmp_path, flag):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"parameters": {"alpha": 2.0, "n": 256}}))
        argv = ["ground-state", "--config", str(cfg_file)] + flag
        args = build_parser().parse_args(_apply_config_defaults(argv))
        assert args.alpha == 1.5
        assert args.n == 256

    @pytest.mark.parametrize("spelling", ["separate", "equals"])
    def test_config_in_both_spellings(self, tmp_path, spelling):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"parameters": {"alpha": 2.0, "half_length": 25.0, "n": 256}}))
        config = {"separate": ["--config", str(cfg_file)], "equals": [f"--config={cfg_file}"]}
        out = str(tmp_path / "gs")
        assert main(["ground-state", *config[spelling], "--out", out]) == 0
        gs = read_ground_state(out)
        assert gs.alpha == 2.0 and gs.grid == Grid(25.0, 256)

    @pytest.mark.parametrize("payload", [[1, 2], {"parameters": [1]}, "text", 3],
                             ids=["list", "parameters-list", "string", "number"])
    def test_a_config_that_is_not_an_object_is_a_config_error(self, tmp_path, capsys, payload):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(payload))
        assert main(["ground-state", "--config", str(cfg_file), "--out", str(tmp_path / "gs")]) == 2
        assert "must be a JSON object" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["cfg.json"]

    def test_config_error_exit_code(self, tmp_path):
        rc = main(["evolve", "--state", str(tmp_path / "missing"), "--out", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize("command, value", [
        ("blowup-scan", "1:2"), ("blowup-scan", "1:2:3:4"), ("blowup-scan", "a:b:c"),
        ("blowup-scan", "1::0.1"), ("blowup-scan", "1:2:0"), ("blowup-scan", "1:2:-0.1"),
        ("blowup-scan", "2:1:0.1"), ("blowup-scan", "1:2:nan"),
        ("monotonicity", "10,,20"), ("monotonicity", "10,x"), ("monotonicity", ""),
    ])
    def test_malformed_list_flag_is_a_config_error(self, tmp_path, capsys, command, value):
        # refused while parsing, before any file is read or written
        out = str(tmp_path / "out")
        if command == "blowup-scan":
            argv = ["blowup-scan", "--alpha", "2", "--amplitudes", value, "--out", out]
            flag = "--amplitudes"
        else:
            argv = ["monotonicity", "--run", str(tmp_path / "run"), "--track",
                    str(tmp_path / "track"), "--x0", value, "--r", "1.5", "--A", "10",
                    "--out", out]
            flag = "--x0"
        assert main(argv) == 2
        assert flag in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_spectrum_and_modulate_beyond_the_dense_limit(self, tmp_path):
        # the certificate is matrix-free: on the alpha = 1.75 certification
        # grid, N = 16384 > DENSE_N_LIMIT, spectrum certifies the structure and
        # writes the chi0 that modulate reads
        base, spec, run = (str(tmp_path / name) for name in ("gs", "spec", "run"))
        assert main(["ground-state", "--alpha", "1.75", "--half-length", "400", "--n", "16384",
                     "--out", base]) == 0
        assert main(["spectrum", "--state", base, "--out", spec]) == 0
        header = json.load(open(spec + ".spectrum.json"))
        assert header["structure_ok"] and header["inertia"] == [[1, 1], [0, 1]]
        assert main(["evolve", "--state", base, "--t-end", "0.02", "--dt", "1e-3",
                     "--checkpoint-every", "10", "--perturbation", '{"scale": 1.001}',
                     "--out", run]) == 0
        assert main(["modulate", "--run", run, "--state", base, "--chi0", spec,
                     "--out", str(tmp_path / "track")]) == 0
        assert json.load(open(str(tmp_path / "track.json")))["truncated"] is False

    def test_spectrum_of_an_off_centre_state_is_a_contract_error(self, tmp_path):
        # the parity split needs an even potential: a shifted state exits 2
        gs = ground_state_for(2.0, COMPACT)
        base = str(tmp_path / "gs")
        write_ground_state(base, replace(gs, values=np.roll(gs.values, 3)))
        assert main(["spectrum", "--state", base, "--out", str(tmp_path / "spec")]) == 2

    def test_underresolved_chi0_is_a_resolution_error(self, tmp_path):
        # on (25, 256) chi0 dips below zero by less than its own resolution
        # floor: that is exit 4 (resolution), not exit 3 (structure)
        base = str(tmp_path / "gs")
        rc = main(["ground-state", "--alpha", "2", "--half-length", "25", "--n", "256",
                   "--out", base])
        assert rc == 0
        assert main(["spectrum", "--state", base, "--out", str(tmp_path / "spec")]) == 4

    def test_monotonicity_rejects_a_track_of_other_checkpoints(self, artifacts_dir, tmp_path):
        gs, spec = str(artifacts_dir / "gs"), str(artifacts_dir / "spec")
        runs = {}
        for every in (100, 50):
            runs[every] = str(tmp_path / f"run{every}")
            rc = main([
                "evolve", "--state", gs, "--t-end", "0.02", "--dt", "2e-4",
                "--checkpoint-every", str(every),
                "--perturbation", '{"bump": {"amplitude": 0.01, "width": 2.0}}',
                "--out", runs[every],
            ])
            assert rc == 0
        track_base = str(tmp_path / "track100")
        rc = main(["modulate", "--run", runs[100], "--state", gs, "--chi0", spec,
                   "--out", track_base])
        assert rc == 0
        # track times (0, 0.02) against checkpoint times (0, 0.01, 0.02)
        rc = main(["monotonicity", "--run", runs[50], "--track", track_base,
                   "--x0", "10", "--r", "1.5", "--A", "10",
                   "--out", str(tmp_path / "mono.json")])
        assert rc == 2
        assert not os.path.exists(str(tmp_path / "mono.json"))


    def test_monotonicity_rebuilds_remainders_without_decompose(
            self, artifacts_dir, tmp_path, monkeypatch):
        gs, spec = str(artifacts_dir / "gs"), str(artifacts_dir / "spec")
        run, track_base = str(tmp_path / "run"), str(tmp_path / "track")
        assert main(["evolve", "--state", gs, "--t-end", "0.02", "--dt", "2e-4",
                     "--checkpoint-every", "50",
                     "--perturbation", '{"bump": {"amplitude": 0.01, "width": 2.0}}',
                     "--out", run]) == 0
        assert main(["modulate", "--run", run, "--state", gs, "--chi0", spec,
                     "--out", track_base]) == 0

        def no_decompose(*args, **kwargs):
            raise AssertionError("the monotonicity stage decomposed a frame")

        monkeypatch.setattr(modulation, "decompose", no_decompose)
        out = str(tmp_path / "mono.json")
        assert main(["monotonicity", "--run", run, "--track", track_base,
                     "--x0", "10", "--r", "1.5", "--A", "10",
                     "--state", gs, "--chi0", spec, "--out", out]) == 0
        with open(out) as fh:
            assert [rep["check"] for rep in json.load(fh)["reports"]] == ["right", "left", "eta"]

    def test_monotonicity_c0_fixes_the_sided_budgets(self, artifacts_dir, tmp_path):
        # --c0 re-budgets the right and left reports, rhs = base + c0 * unit_budget,
        # while the eta report stays calibrated on its own run
        gs, spec = str(artifacts_dir / "gs"), str(artifacts_dir / "spec")
        run, track_base = str(tmp_path / "run"), str(tmp_path / "track")
        assert main(["evolve", "--state", gs, "--t-end", "0.02", "--dt", "2e-4",
                     "--checkpoint-every", "50",
                     "--perturbation", '{"bump": {"amplitude": 0.01, "width": 2.0}}',
                     "--out", run]) == 0
        assert main(["modulate", "--run", run, "--state", gs, "--chi0", spec,
                     "--out", track_base]) == 0
        reports = {}
        for name, extra in (("calibrated", []), ("fixed", ["--c0", "2.5"])):
            out = str(tmp_path / f"{name}.json")
            assert main(["monotonicity", "--run", run, "--track", track_base, "--x0", "10",
                         "--r", "1.5", "--A", "10", "--state", gs, "--chi0", spec,
                         *extra, "--out", out]) == 0
            reports[name] = read_json(out)["reports"]
        calibrated, fixed = reports["calibrated"], reports["fixed"]
        assert [rep["check"] for rep in fixed] == ["right", "left", "eta"]
        for cal, rep in zip(calibrated[:2], fixed[:2]):
            assert cal["c0"] > 0 and rep["c0"] == 2.5
            base = np.array(cal["rhs"]) - np.array(cal["error_budget"])
            unit_budget = np.array(cal["error_budget"]) / cal["c0"]
            assert np.array(rep["error_budget"]) == pytest.approx(2.5 * unit_budget, rel=1e-12)
            assert np.array(rep["rhs"]) == pytest.approx(base + 2.5 * unit_budget,
                                                         rel=1e-12, abs=1e-15)
        assert fixed[2] == calibrated[2]

    def test_run_without_states_is_a_config_error(self, artifacts_dir, tmp_path):
        gs, spec = str(artifacts_dir / "gs"), str(artifacts_dir / "spec")
        run, track_base = str(tmp_path / "run"), str(tmp_path / "track")
        assert main(["evolve", "--state", gs, "--t-end", "0.02", "--dt", "2e-4",
                     "--checkpoint-every", "50", "--out", run]) == 0
        assert main(["modulate", "--run", run, "--state", gs, "--chi0", spec,
                     "--out", track_base]) == 0
        shutil.rmtree(os.path.join(run, "states"))
        assert main(["modulate", "--run", run, "--state", gs, "--chi0", spec,
                     "--out", str(tmp_path / "track2")]) == 2
        assert not os.path.exists(str(tmp_path / "track2.csv"))
        out = str(tmp_path / "mono.json")
        assert main(["monotonicity", "--run", run, "--track", track_base,
                     "--x0", "10", "--r", "1.5", "--A", "10", "--out", out]) == 2
        assert not os.path.exists(out)

    @pytest.mark.parametrize("lone", ["--state", "--chi0"])
    def test_monotonicity_needs_state_and_chi0_together(self, artifacts_dir, tmp_path, lone):
        paths = {"--state": str(artifacts_dir / "gs"), "--chi0": str(artifacts_dir / "spec")}
        run, track_base = str(tmp_path / "run"), str(tmp_path / "track")
        assert main(["evolve", "--state", paths["--state"], "--t-end", "0.02", "--dt", "2e-4",
                     "--checkpoint-every", "50", "--out", run]) == 0
        assert main(["modulate", "--run", run, "--state", paths["--state"],
                     "--chi0", paths["--chi0"], "--out", track_base]) == 0
        out = str(tmp_path / "mono.json")
        assert main(["monotonicity", "--run", run, "--track", track_base, "--x0", "10",
                     "--r", "1.5", "--A", "10", lone, paths[lone], "--out", out]) == 2
        assert not os.path.exists(out)

    def test_modulate_without_a_decomposable_frame_exits_3(self, artifacts_dir, tmp_path):
        # 0.3 Q is outside the closeness ceiling at every frame: the observer
        # never enters the soliton tube, so no track exists
        gs, spec = str(artifacts_dir / "gs"), str(artifacts_dir / "spec")
        run = str(tmp_path / "run")
        assert main(["evolve", "--state", gs, "--t-end", "0.002", "--dt", "1e-3",
                     "--checkpoint-every", "1", "--perturbation", '{"scale": 0.3}',
                     "--out", run]) == 0
        assert main(["modulate", "--run", run, "--state", gs, "--chi0", spec,
                     "--out", str(tmp_path / "track")]) == 3
        assert not os.path.exists(str(tmp_path / "track.csv"))


@pytest.fixture(scope="module")
def small_dir(tmp_path_factory):
    """alpha = 2 ground states on (25, 256) and (40, 256), and the chi0 of the first."""
    root = tmp_path_factory.mktemp("small")
    for name, half_length in (("gs25", "25"), ("gs40", "40")):
        assert main(["ground-state", "--alpha", "2", "--half-length", half_length, "--n", "256",
                     "--out", str(root / name)]) == 0
    # exit 4: this chi0 is under-resolved, but the spectrum is written
    assert main(["spectrum", "--state", str(root / "gs25"), "--out", str(root / "spec25")]) == 4
    return root


@pytest.fixture(scope="module")
def mixed_alpha(small_dir, tmp_path_factory):
    """Paths of inputs on small_dir's (25, 256) grid: its alpha = 2 gs25 and
    spec25, an alpha = 1.5 ground state gs15 with a run run15, and the
    alpha = 2 track25 of a run from gs25."""
    root = tmp_path_factory.mktemp("mixed")
    p = {name: str(small_dir / name) for name in ("gs25", "spec25")}
    p.update({name: str(root / name) for name in ("gs15", "run15", "run25", "track25")})
    assert main(["ground-state", "--alpha", "1.5", "--half-length", "25", "--n", "256",
                 "--out", p["gs15"]]) == 0
    for gs, run in (("gs15", "run15"), ("gs25", "run25")):
        assert main(["evolve", "--state", p[gs], "--t-end", "0.01", "--dt", "1e-3",
                     "--out", p[run]]) == 0
    assert main(["modulate", "--run", p["run25"], "--state", p["gs25"], "--chi0", p["spec25"],
                 "--out", p["track25"]]) == 0
    return p


class TestSmallCommands:
    @pytest.mark.parametrize("argv", [
        "modulate --run run15 --state gs25 --chi0 spec25",
        "modulate --run run15 --state gs15 --chi0 spec25",
        "liouville-probe --state gs15 --chi0 spec25",
        "monotonicity --run run15 --track track25 --x0 5 --r 1.25 --A 10",
    ], ids=["modulate-run", "modulate-chi0", "liouville-probe-chi0", "monotonicity-track"])
    def test_inputs_of_another_alpha_are_a_config_error(self, mixed_alpha, tmp_path, capsys, argv):
        # every input is on the (25, 256) grid, but alpha 1.5 meets alpha 2
        argv = [mixed_alpha.get(a, a) for a in argv.split()]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert "alpha" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("half_length", ["nan", "inf"])
    def test_ground_state_refuses_a_non_finite_half_length(self, tmp_path, half_length):
        assert main(["ground-state", "--alpha", "2", "--half-length", half_length, "--n", "256",
                     "--out", str(tmp_path / "gs")]) == 2
        assert os.listdir(tmp_path) == []

    def test_liouville_probe_rejects_a_chi0_of_another_grid(self, small_dir, tmp_path):
        out = str(tmp_path / "liouville")
        assert main(["liouville-probe", "--state", str(small_dir / "gs40"),
                     "--chi0", str(small_dir / "spec25"), "--t-end", "0.01",
                     "--out", out]) == 2
        assert not os.path.exists(out + ".csv")

    @pytest.mark.parametrize("step", ["0", "nan", "-0.25"])
    def test_ground_state_refuses_a_bad_ladder_step(self, tmp_path, step):
        out = str(tmp_path / "gs")
        assert main(["ground-state", "--alpha", "1.5", "--half-length", "25", "--n", "256",
                     "--ladder-step", step, "--out", out]) == 2
        assert os.listdir(tmp_path) == []

    def test_evolve_rejects_a_zero_dt(self, small_dir, tmp_path):
        out = str(tmp_path / "run")
        assert main(["evolve", "--state", str(small_dir / "gs25"), "--t-end", "0.01",
                     "--dt", "0", "--out", out]) == 2
        assert not os.path.exists(os.path.join(out, "header.json"))

    @pytest.mark.parametrize("command, flag, value", [
        ("evolve", "--dt", "nan"), ("evolve", "--t-end", "inf"),
        ("liouville-probe", "--dt", "nan"), ("liouville-probe", "--t-end", "inf"),
        ("blowup-scan", "--dt", "nan"), ("blowup-scan", "--t-end", "nan"),
    ])
    def test_a_non_finite_dt_or_t_end_is_a_config_error(
            self, small_dir, tmp_path, command, flag, value):
        gs, out = str(small_dir / "gs25"), str(tmp_path / "out")
        argv = {
            "evolve": ["--state", gs, "--t-end", "0.01"],
            "liouville-probe": ["--state", gs, "--chi0", str(small_dir / "spec25")],
            # a row not certified supercritical, so a nan t_end_super is not
            # caught by the row's EvolutionConfig alone
            "blowup-scan": ["--alpha", "2", "--half-length", "25", "--n", "256",
                            "--amplitudes", "0.5:0.5:0.1"],
        }[command]
        assert main([command, *argv, flag, value, "--out", out]) == 2
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("perturbation", [
        '[1]', '{"bump": 5}', '{"noise": {"band": "x"}}', '{"scale": "a"}',
        '{"bumpp": {"amplitude": 0.01}}', '{"bump": {"amp": 0.01}}', '{"scale": true}',
        '{"translate": NaN}',
    ])
    def test_evolve_refuses_a_bad_perturbation(self, small_dir, tmp_path, capsys, perturbation):
        # a perturbation outside the vocabulary is refused before any step,
        # not ignored and not a traceback
        out = str(tmp_path / "run")
        assert main(["evolve", "--state", str(small_dir / "gs25"), "--t-end", "0.01",
                     "--perturbation", perturbation, "--out", out]) == 2
        assert "perturbation" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_liouville_probe_steps_one_flow(self, small_dir, tmp_path, monkeypatch):
        # the free baseline is the exact propagator: only the full flow is stepped
        calls = []
        step = Stepper.step_spectrum

        def counted(self, F):
            calls.append(1)
            return step(self, F)

        monkeypatch.setattr(Stepper, "step_spectrum", counted)
        t_end, dt = 0.05, 1e-3
        assert main(["liouville-probe", "--state", str(small_dir / "gs25"),
                     "--chi0", str(small_dir / "spec25"), "--t-end", str(t_end),
                     "--dt", str(dt), "--out", str(tmp_path / "liouville")]) == 0
        assert len(calls) == round(t_end / dt)

    @settings(max_examples=10, deadline=None)
    @given(t_end=st.integers(1, 20).map(lambda i: i * 1e-3),
           sign=st.sampled_from(["focusing", "defocusing"]),
           checkpoint_every=st.integers(1, 8))
    def test_config_file_and_flags_write_the_same_bytes(
            self, small_dir, t_end, sign, checkpoint_every):
        params = {
            "state": str(small_dir / "gs25"), "t_end": t_end, "dt": 1e-3, "sign": sign,
            "checkpoint_every": checkpoint_every,
            "perturbation": '{"bump": {"amplitude": 0.01, "width": 2.0}}',
        }
        flags = []
        for key, value in params.items():
            flags += ["--" + key.replace("_", "-"), str(value)]
        with tempfile.TemporaryDirectory() as d:
            cfg_file = os.path.join(d, "cfg.json")
            with open(cfg_file, "w") as fh:
                json.dump({"parameters": params}, fh)
            by_config, by_flags = os.path.join(d, "config"), os.path.join(d, "flags")
            assert main(["evolve", "--config", cfg_file, "--out", by_config]) == 0
            assert main(["evolve", *flags, "--out", by_flags]) == 0
            assert _files(by_config) == _files(by_flags)
            assert "states/state_000001.f64" in _files(by_flags)

    def test_a_config_object_reaches_evolve_as_json(self, small_dir, tmp_path):
        # a JSON object in a config file is the same perturbation as the flag's text
        perturbation = {"bump": {"amplitude": 0.01}}
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"parameters": {"perturbation": perturbation}}))
        by_config, by_flag = str(tmp_path / "config"), str(tmp_path / "flag")
        common = ["evolve", "--state", str(small_dir / "gs25"), "--t-end", "0.01"]
        assert main(common + ["--config", str(cfg_file), "--out", by_config]) == 0
        assert main(common + ["--perturbation", json.dumps(perturbation), "--out", by_flag]) == 0
        headers = [read_json(os.path.join(d, "header.json"))["perturbation"] for d in (by_config, by_flag)]
        assert headers == [perturbation, perturbation]

    def test_a_null_config_entry_leaves_the_flag_default(self, tmp_path):
        # "ladder_step": null is the config without the key, not the text "None"
        params = {"alpha": 2.0, "half_length": 25.0, "n": 256}
        certs = []
        for name, extra in (("null", {"ladder_step": None}), ("absent", {})):
            cfg_file = tmp_path / f"{name}.json"
            cfg_file.write_text(json.dumps({"parameters": {**params, **extra}}))
            out = str(tmp_path / name)
            assert main(["ground-state", "--config", str(cfg_file), "--out", out]) == 0
            with open(out + ".cert.json", "rb") as fh:
                certs.append(fh.read())
        assert certs[0] == certs[1]

    def test_evolve_rng_seed_draws_the_noise(self, small_dir, tmp_path):
        # the same seed repeats every byte; another seed draws other noise
        runs = {}
        for name, seed in (("a", "1"), ("b", "1"), ("c", "2")):
            runs[name] = str(tmp_path / name)
            assert main(["evolve", "--state", str(small_dir / "gs25"), "--t-end", "0.01",
                         "--perturbation", '{"noise": {"amplitude": 1e-3}}',
                         "--rng-seed", seed, "--out", runs[name]]) == 0
        files = {name: _files(run) for name, run in runs.items()}
        assert files["a"] == files["b"]
        first = os.path.join("states", "state_000000.f64")
        assert files["a"][first] != files["c"][first]
        assert [read_json(os.path.join(runs[n], "header.json"))["rng_seed"] for n in "ac"] == [1, 2]


class TestBlowupScan:
    def test_scan_rows_and_determinism(self, tmp_path):
        args = [
            "blowup-scan", "--alpha", "2.0", "--amplitudes", "1.05:1.08:0.03",
            "--half-length", "48.0", "--n", "1024", "--dt", "5e-4",
            "--t-end", "10.0",
        ]
        out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        csv1 = open(os.path.join(out1, "scan.csv"), "rb").read()
        csv2 = open(os.path.join(out2, "scan.csv"), "rb").read()
        assert csv1 == csv2  # identical config and seed: identical bytes
        lines = csv1.decode().strip().split("\n")
        assert len(lines) == 3
        rows = [line.split(",") for line in lines[1:]]
        betas = [float(r[1]) for r in rows]
        assert betas == sorted(betas)
        for r in rows:
            beta, supercritical, tripped, sign_ok = float(r[1]), r[3], r[11], r[13]
            assert supercritical == "True" and beta > 0
            assert tripped == "True"
            assert sign_ok == "True"

    def test_short_horizon_reaches_bounded_rows(self, tmp_path):
        out = str(tmp_path / "short")
        assert main([
            "blowup-scan", "--alpha", "2", "--amplitudes", "1.06:1.06:0.01",
            "--include-bounded", "--t-end", "0.05", "--half-length", "24", "--n", "256",
            "--out", out,
        ]) == 0
        with open(os.path.join(out, "scan.json")) as fh:
            assert json.load(fh)["t_end_bounded"] == 0.05


def test_readme_recipe_parses():
    # every dgbo line of README's command block names a subcommand and flags
    # the parser knows, so a deleted or renamed flag cannot linger in the docs
    with open(README) as fh:
        text = fh.read()
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("dgbo ")]
    commands = [build_parser().parse_args(shlex.split(line)[1:]).command for line in lines]
    assert commands == ["ground-state", "spectrum", "evolve", "modulate", "monotonicity",
                        "blowup-scan", "liouville-probe"]
