"""Experiment runner: config validation, outputs, determinism, exit codes."""
import filecmp
import json
import math
from pathlib import Path

import numpy as np
import pytest

from tnflab import cli
from tnflab.cli import main
from tnflab.peps import load_peps, random_peps, save_peps


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def data_files(out_dir: Path):
    return sorted(
        p.name
        for p in out_dir.iterdir()
        if p.name != "manifest.json" and not p.name.startswith("timing")
    )


VMC_SMALL = {
    "version": 1,
    "kind": "vmc",
    "seed": 11,
    "lattice": {"rows": 3, "cols": 3, "boundary": "obc"},
    "model": {"name": "heisenberg"},
    "grid": {"bond_dims": [2], "chis": [2], "modes": ["fixed"]},
    "sweeps": 60,
    "warmup": 20,
    "chains": 1,
    "init": {"method": "simple_update", "tau": 0.05, "steps": 30},
}

PARETO_SMALL = {
    "version": 1,
    "kind": "pareto",
    "seed": 2,
    "lattice": {"rows": 2, "cols": 2, "boundary": "obc"},
    "model": {"name": "heisenberg"},
    "grid": {"bond_dims": [2], "chis": [2]},
    "sgd": {"iterations": 2, "sweeps": 40, "learning_rate": 0.05},
    "sweeps": 80,
    "timing_amplitudes": 5,
    "init": {"method": "simple_update", "tau": 0.05, "steps": 30},
}

SMALL = {
    "vmc": VMC_SMALL,
    "pareto": PARETO_SMALL,
    "floquet": {
        "version": 1,
        "kind": "floquet",
        "seed": 1,
        "sites": 4,
        "t_max": 1,
        "params": {"j": 0.7, "g": 0.5, "h": 0.5},
        "methods": ["exact", "mps"],
    },
    "circuit": {"version": 1, "kind": "circuit", "seed": 1, "suites": ["fnn"]},
}


def patched(base, changes):
    """A deep copy of ``base`` with each dotted path in ``changes`` set."""
    cfg = json.loads(json.dumps(base))
    for dotted, value in changes.items():
        *parents, key = dotted.split(".")
        node = cfg
        for name in parents:
            node = node.setdefault(name, {})
        node[key] = value
    return cfg


# (kind, changes, field path the error names)
BAD_FIELDS = [
    ("vmc", {"warmup": 60}, "config.warmup"),
    ("vmc", {"warmup": -1}, "config.warmup"),
    ("vmc", {"chains": 0}, "config.chains"),
    ("vmc", {"grid.chis": [0]}, "config.grid.chis"),
    ("vmc", {"grid.bond_dims": [0]}, "config.grid.bond_dims"),
    ("pareto", {"sgd.sweeps": 0}, "config.sgd.sweeps"),
    ("pareto", {"sweeps": 0}, "config.sweeps"),
    ("pareto", {"timing_amplitudes": 0}, "config.timing_amplitudes"),
    ("floquet", {"chis": [0]}, "config.chis"),
    ("floquet", {"sites": 1}, "config.sites"),
    ("floquet", {"params.j": math.nan}, "config.params.j"),
    ("circuit", {"max_bits.adder": 0}, "config.max_bits.adder"),
    ("circuit", {"fnn.widths": [1]}, "config.fnn.widths"),
    ("circuit", {"fnn.widths": ["a", 2]}, "config.fnn.widths"),
    ("vmc", {"model.name": "j1j2", "model.j2": math.nan, "init.method": "random"}, "config.model.j2"),
    ("vmc", {"init.tau": math.inf}, "config.init.tau"),
    ("pareto", {"sgd.learning_rate": math.nan}, "config.sgd.learning_rate"),
    ("circuit", {"fnn.widths": [2, 0, 1]}, "config.fnn.widths"),
    ("circuit", {"fnn.n_inputs": -1}, "config.fnn.n_inputs"),
    ("vmc", {"init.method": "nope"}, "config.init.method"),
    ("vmc", {"init.tau": 0}, "config.init.tau"),
    ("circuit", {"seed": -1}, "config.seed"),
    ("pareto", {"lattice.rows": 1, "lattice.cols": 1}, "config.lattice"),
]


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kind,changes,field",
        BAD_FIELDS,
        ids=[kind + "".join(f"-{k}={v}" for k, v in ch.items()) for kind, ch, _ in BAD_FIELDS],
    )
    def test_bad_field_exits_2_before_any_work(self, tmp_path, capsys, kind, changes, field):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, "bad.json", patched(SMALL[kind], changes))
        assert main([kind, "--config", cfg, "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_integer_too_long_to_parse_exits_2(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text('{"version": 1, "kind": "circuit", "seed": ' + "1" * 5000 + "}")
        assert main(["circuit", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "config is not valid JSON" in capsys.readouterr().err

    def test_negative_seed_flag_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "s.json", VMC_SMALL)
        with pytest.raises(SystemExit) as exc:
            main(["vmc", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "-1"])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "init", [{"method": "nope"}, {"method": "simple_update", "tau": -1.0}, {"method": "file"}]
    )
    def test_invalid_init_leaves_no_directory(self, tmp_path, capsys, init):
        """The init block is checked before the exact diagonalization and
        before the output directory is made."""
        payload = {
            **VMC_SMALL,
            "lattice": {"rows": 4, "cols": 4, "boundary": "pbc"},
            "model": {"name": "j1j2", "j2": 0.5},
            "init": init,
        }
        out = tmp_path / "o"
        assert main(["vmc", "--config", write_config(tmp_path, "i.json", payload), "--out", str(out)]) == 2
        assert "config.init" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_field_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", {"version": 1, "kind": "vmc", "seed": 1})
        assert main(["vmc", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config." in err  # field path included

    def test_bad_version(self, tmp_path):
        cfg = write_config(tmp_path, "v.json", {**VMC_SMALL, "version": 9})
        assert main(["vmc", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_kind_mismatch(self, tmp_path):
        cfg = write_config(tmp_path, "k.json", VMC_SMALL)
        assert main(["floquet", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_zero_sweeps_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "z.json", {**VMC_SMALL, "sweeps": 0})
        assert main(["vmc", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_unknown_mode_rejected(self, tmp_path):
        bad = {**VMC_SMALL, "grid": {"bond_dims": [2], "chis": [2], "modes": ["foo"]}}
        cfg = write_config(tmp_path, "m.json", bad)
        assert main(["vmc", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_no_output_before_validation_failure(self, tmp_path):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, "bad2.json", {**VMC_SMALL, "sweeps": -3})
        main(["vmc", "--config", cfg, "--out", str(out)])
        assert not out.exists()


    @pytest.mark.parametrize("kind", ["vmc", "pareto"])
    def test_j1j2_simple_update_exits_2(self, tmp_path, capsys, kind):
        """Simple update handles only nearest-neighbour bonds; the J2
        diagonals are a config error, reported before any data file."""
        payload = {
            **VMC_SMALL,
            "kind": kind,
            "lattice": {"rows": 2, "cols": 3, "boundary": "pbc"},
            "model": {"name": "j1j2", "j2": 0.5},
            "grid": {"bond_dims": [2], "chis": [2], "modes": ["fixed"]},
        }
        payload.pop("init")  # the default method is simple_update
        out = tmp_path / "o"
        assert main([kind, "--config", write_config(tmp_path, "j.json", payload), "--out", str(out)]) == 2
        assert "config.init.method" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_j1j2_random_init_runs(self, tmp_path):
        payload = {
            **VMC_SMALL,
            "lattice": {"rows": 2, "cols": 3, "boundary": "pbc"},
            "model": {"name": "j1j2", "j2": 0.5},
            "sweeps": 20,
            "warmup": 5,
            "init": {"method": "random"},
        }
        out = tmp_path / "o"
        assert main(["vmc", "--config", write_config(tmp_path, "j.json", payload), "--out", str(out)]) == 0
        assert (out / "energies.csv").exists()


class TestResourceGuards:
    def test_floquet_site_guard_exits_3(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "f.json",
            {
                "version": 1,
                "kind": "floquet",
                "seed": 1,
                "sites": 16,
                "t_max": 2,
                "preset": "maximally_chaotic",
                "methods": ["exact"],
            },
        )
        assert main(["floquet", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_circuit_width_guard_exits_3(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "version": 1,
                "kind": "circuit",
                "seed": 1,
                "suites": ["adder"],
                "max_bits": {"adder": 9},
            },
        )
        assert main(["circuit", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_vmc_lattice_guard_exits_3(self, tmp_path):
        big = {**VMC_SMALL, "lattice": {"rows": 9, "cols": 9, "boundary": "obc"}}
        cfg = write_config(tmp_path, "big.json", big)
        assert main(["vmc", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


class TestVmcRun:
    def test_outputs_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path, "vmc.json", VMC_SMALL)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["vmc", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["vmc", "--config", cfg, "--out", str(out2)]) == 0
        names = data_files(out1)
        assert "energies.csv" in names
        assert any(n.startswith("vmc_D2_chi2_fixed") for n in names)
        assert names == data_files(out2)
        for n in names:
            assert filecmp.cmp(out1 / n, out2 / n, shallow=False), f"{n} differs"
        manifest = json.loads((out1 / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 11
        assert sorted(manifest["files"]) == manifest["files"]

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, "vmc.json", VMC_SMALL)
        out1, out3 = tmp_path / "a", tmp_path / "b"
        assert main(["vmc", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["vmc", "--config", cfg, "--out", str(out3), "--seed", "99"]) == 0
        assert not filecmp.cmp(out1 / "energies.csv", out3 / "energies.csv", shallow=False)


class TestCheckpointInit:
    def run_from(self, tmp_path, ckpt):
        cfg = {**VMC_SMALL, "init": {"method": "file", "path": str(ckpt)}}
        path = write_config(tmp_path, "ckpt.json", cfg)
        return main(["vmc", "--config", path, "--out", str(tmp_path / "o")])

    def test_truncated_checkpoint_exits_2(self, tmp_path, capsys):
        ckpt = tmp_path / "state.tnp"
        save_peps(random_peps(3, 3, 2, 2, seed=0), ckpt)
        data = ckpt.read_bytes()
        for cut in (20, len(data) // 2):  # inside the header, inside the tensor data
            ckpt.write_bytes(data[:cut])
            assert self.run_from(tmp_path, ckpt) == 2
            assert "config.init.path" in capsys.readouterr().err

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        assert self.run_from(tmp_path, tmp_path / "absent.tnp") == 2
        assert "config.init.path" in capsys.readouterr().err

    def test_other_lattice_checkpoint_exits_2(self, tmp_path, capsys):
        ckpt = tmp_path / "state.tnp"
        save_peps(random_peps(2, 3, 2, 2, seed=0), ckpt)
        assert self.run_from(tmp_path, ckpt) == 2
        assert "config.init.path" in capsys.readouterr().err

    def test_checkpoint_loaded_once_for_every_bond_dim(self, tmp_path, monkeypatch):
        ckpt = tmp_path / "state.tnp"
        save_peps(random_peps(3, 3, 2, 2, seed=0), ckpt)
        loads = []
        monkeypatch.setattr(cli, "load_peps", lambda path: loads.append(path) or load_peps(path))
        cfg = {**VMC_SMALL, "grid": {"bond_dims": [2, 3], "chis": [2], "modes": ["fixed"]}}
        cfg["init"] = {"method": "file", "path": str(ckpt)}
        out = tmp_path / "o"
        assert main(["vmc", "--config", write_config(tmp_path, "f.json", cfg), "--out", str(out)]) == 0
        assert loads == [str(ckpt)]
        assert (out / "peps_D2.tnp").read_bytes() == (out / "peps_D3.tnp").read_bytes()
        assert len((out / "energies.csv").read_text().splitlines()) == 3

    def test_nan_state_exits_4(self, tmp_path):
        state = random_peps(3, 3, 2, 2, seed=0)
        state.sites[1][1][0, 0, 0, 0, 0] = math.nan
        ckpt = tmp_path / "state.tnp"
        save_peps(state, ckpt)
        assert self.run_from(tmp_path, ckpt) == 4
        assert not (tmp_path / "o" / "energies.csv").exists()


class TestFloquetRun:
    def test_t_max_zero_single_row(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "f0.json",
            {
                "version": 1,
                "kind": "floquet",
                "seed": 1,
                "sites": 6,
                "t_max": 0,
                "preset": "less_chaotic",
                "methods": ["exact", "mps", "mpo"],
                "chis": [2],
            },
        )
        out = tmp_path / "o"
        assert main(["floquet", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "entropy.csv").read_text().strip().splitlines()
        body = rows[1:]
        assert len(body) == 3  # one t=0 row per method
        for line in body:
            t, s_exact, s_method = line.split(",")[:3]
            assert t == "0"
            assert abs(float(s_method)) < 1e-10

    def test_methods_aligned_series(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "f1.json",
            {
                "version": 1,
                "kind": "floquet",
                "seed": 1,
                "sites": 6,
                "t_max": 3,
                "preset": "maximally_chaotic",
                "methods": ["exact", "mps", "tnf_transverse", "tnf_inverse", "mpo"],
                "chis": [2],
            },
        )
        out = tmp_path / "o"
        assert main(["floquet", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "entropy.csv").read_text().strip().splitlines()[1:]
        methods = {line.split(",")[4] for line in rows}
        assert methods == {"exact", "mps", "tnf_transverse", "tnf_inverse", "mpo"}
        for line in rows:
            t = int(line.split(",")[0])
            assert 0 <= t <= 3
        assert (out / "spectrum_exact.csv").exists()
        assert (out / "spectrum_tnf_transverse_chi2.csv").exists()


class TestCircuitRun:
    def test_empty_suite_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path, "c0.json", {"version": 1, "kind": "circuit", "seed": 1, "suites": []}
        )
        assert main(["circuit", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_suites_pass(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "c1.json",
            {
                "version": 1,
                "kind": "circuit",
                "seed": 5,
                "suites": ["adder", "multiplier", "square", "fnn", "memo"],
                "max_bits": {"adder": 4, "multiplier": 3, "square": 4},
                "fnn": {"widths": [2, 3, 1], "n_inputs": 25},
            },
        )
        out = tmp_path / "o"
        assert main(["circuit", "--config", cfg, "--out", str(out)]) == 0
        results = json.loads((out / "results.json").read_text())
        assert results["passed"] is True
        assert results["suites"]["fnn"]["max_abs_error"] < 1e-12


class TestParetoRun:
    def test_single_point_is_frontier(self, tmp_path):
        cfg = write_config(tmp_path, "p.json", PARETO_SMALL)
        out = tmp_path / "o"
        assert main(["pareto", "--config", cfg, "--out", str(out)]) == 0
        timing = (out / "timing_pareto.csv").read_text().strip().splitlines()
        assert timing[1].split(",")[-1] == "1"  # the single point is the frontier
        pareto = (out / "pareto.csv").read_text().strip().splitlines()
        assert pareto[0].split(",")[0] == "bond_dim"
        assert len(pareto) == 2
