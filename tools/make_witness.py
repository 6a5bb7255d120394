"""Rebuild the non-variational witness fixture of the acceptance suite.

    PYTHONPATH=src python tools/make_witness.py [--out tests/fixtures]

``tests/test_acceptance.py::test_non_variational_witness`` loads
``witness_peps.tnp`` and ``witness_meta.json`` and checks that the dynamic
(history-dependent) energy estimate of the stored state on the 4x4 periodic
J1-J2 model reads below ``E_ED - 3*stderr``. This script searches for such a
state and writes both files. It is deterministic per build.

The search has four steps.

1. A near-ground state. A D=2 periodic PEPS is optimized by alternating
   least squares on the exact contraction: each site tensor in turn becomes
   the lowest generalized eigenvector of ``(M^H H M, M^H M)``, where ``M`` is
   the linear map from that tensor to the amplitudes of the Sz=0 sector.
2. The dynamic chain, solved exactly. A ``DynamicCache`` evaluates a
   configuration that differs from its base in rows ``r_lo..r_hi`` by
   closing the contraction at row ``r_hi``, and that value equals the
   fixed-schedule amplitude with the middle row at ``r_hi``. The dynamic
   Metropolis chain is therefore an ordinary Markov chain on
   (configuration, closure row). Its long-run mean and spread of the local
   energy follow from iterating its sweep kernel over the sector. At finite
   ``chi`` the four closures disagree in scale. The chain keeps the
   amplitude of the closure it arrived through, so the off-diagonal terms
   of the local energy are weighted by ratios between closures.
3. Candidates. For each ALS seed and each ``chi``, the 16 lattice images
   of the state (cyclic row shifts, row reflection, transposition) are
   candidates. They all have the same exact energy, since the model has
   these symmetries, but their truncations differ. Each is scored by its
   long-run dynamic energy, measured from ``E_ED`` in units of its spread.
4. The check. A candidate whose score promises ``TARGET_SIGMAS`` standard
   errors is sampled with ``estimate_energy`` in dynamic and in fixed mode,
   with the same ``chi``, sweeps and chain seed, as the test does. It is
   kept only if the dynamic estimate lies below ``E_ED - 3*stderr`` while
   the fixed estimate stays at or above its own ``E_ED - 3*stderr``. The
   first candidate kept is written out.
"""
from __future__ import annotations

import argparse
import itertools
import json
import math
import string
import sys
import time
from pathlib import Path

import numpy as np

from tnflab.ed import Sector, ground_energy, sector_hamiltonian
from tnflab.models import j1j2, neel_config, nn_pairs
from tnflab.peps import FixedPlan, Peps, fixed_table, random_peps, save_peps
from tnflab.tensor import rescaled
from tnflab.vmc import estimate_energy

ROWS = COLS = 4
J2 = 0.5
BOND_DIM = 2
ALS_SEEDS = (0, 1, 2)
ALS_SWEEPS = 15
CHIS = (2, 3)
SWEEPS = 2000
WARMUP = 200
CHAIN_SEED = 0
TARGET_SIGMAS = 5.0


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Step 1: exact-contraction ALS on the periodic lattice


def _labels(rows: int, cols: int):
    """einsum labels (up, left, down, right, phys) of every site."""
    letters = iter(string.ascii_letters)
    right = {(r, c): next(letters) for r in range(rows) for c in range(cols)}
    down = {(r, c): next(letters) for r in range(rows) for c in range(cols)}
    phys = [next(letters) for _ in range(rows * cols)]
    legs = {
        (r, c): down[((r - 1) % rows, c)] + right[(r, (c - 1) % cols)]
        + down[(r, c)] + right[(r, c)] + phys[r * cols + c]
        for r in range(rows)
        for c in range(cols)
    }
    return legs, phys


def site_environment(sites, legs, phys, s: int) -> np.ndarray:
    """Derivative of the full amplitude vector by site ``s``.

    Axes: the other sites' physical legs in site order, then the four bond
    legs of ``s``. Rows are contracted one after another, starting below the
    row of ``s`` and ending with the rest of that row, so intermediates stay
    small.
    """
    rows, cols = len(sites), len(sites[0])
    r0, c0 = divmod(s, cols)
    order = [((r0 + dr) % rows, c) for dr in range(1, rows) for c in range(cols)]
    order += [(r0, (c0 + dc) % cols) for dc in range(1, cols)]
    expr = ",".join(legs[rc] for rc in order) + "->"
    expr += "".join(p for k, p in enumerate(phys) if k != s) + legs[(r0, c0)][:4]
    n = len(order)
    path = ["einsum_path", (0, 1)] + [(0, m - 1) for m in range(n - 1, 1, -1)]
    return np.einsum(expr, *[sites[r][c] for r, c in order], optimize=path)


def als_ground_state(model, bond_dim: int, seed: int, sweeps: int) -> Peps:
    rows, cols, n = model.rows, model.cols, model.n_sites
    h = sector_hamiltonian(model)
    bits = Sector(n).configs
    legs, phys = _labels(rows, cols)
    sites = [[t.copy() for t in row] for row in random_peps(rows, cols, 2, bond_dim, seed, "pbc").sites]
    for sweep in range(sweeps):
        for s in range(n):
            r, c = divmod(s, cols)
            env = site_environment(sites, legs, phys, s).reshape(2 ** (n - 1), -1)
            others = np.delete(bits, s, axis=1)
            flat = others @ (1 << np.arange(n - 2, -1, -1))
            m = np.zeros((len(bits), 2 * env.shape[1]), dtype=complex)
            for p in (0, 1):
                sel = bits[:, s] == p
                m[sel, p::2] = env[flat[sel]]
            norm = m.conj().T @ m
            ham = m.conj().T @ (h @ m)
            w, u = np.linalg.eigh(norm)
            keep = w > 1e-10 * w.max()
            proj = u[:, keep] / np.sqrt(w[keep])
            reduced = proj.conj().T @ ham @ proj
            vals, vecs = np.linalg.eigh((reduced + reduced.conj().T) / 2)
            t = (proj @ vecs[:, 0]).reshape(sites[r][c].shape)
            sites[r][c] = t / np.linalg.norm(t)
        log(f"ALS sweep {sweep}: E = {vals[0]:.6f}")
    return Peps(rows, cols, 2, bond_dim, sites, "pbc")


# ---------------------------------------------------------------------------
# Step 2: the dynamic Metropolis chain as a Markov chain on (config, row)


class DynamicChain:
    """Long-run statistics of ``estimate_energy(..., "dynamic", chi)``."""

    def __init__(self, model):
        self.model = model
        sector = Sector(model.n_sites)
        self.configs = sector.configs
        row_of = np.arange(model.n_sites) // model.cols

        # The cache closes at the last row a configuration changes, so a swap
        # of sites i, j is evaluated with the middle row at the larger row index.
        self.diag = np.zeros(sector.dim)
        self.terms = []
        for i, j, c in model.couplings:
            target = sector.swap_target(i, j)
            self.diag += np.where(target < 0, 0.25 * c, -0.25 * c)
            self.terms.append((0.5 * c, target, max(row_of[i], row_of[j])))
        self.moves = [
            (sector.swap_target(i, j), max(row_of[i], row_of[j]))
            for i, j in nn_pairs(model.rows, model.cols, model.boundary)
        ]
        neel = neel_config(model.rows, model.cols)
        self.start = int(np.flatnonzero((self.configs == neel).all(axis=1))[0])

    def closure_amplitudes(self, peps: Peps, chi: int) -> np.ndarray:
        """Amplitudes (rows, sector size) of every closure row, common scale."""
        rows, cols = self.model.rows, self.model.cols
        tables = [fixed_table(peps, FixedPlan(rows, cols, chi, mid), self.configs) for mid in range(rows)]
        return rescaled(*map(np.concatenate, zip(*tables))).reshape(rows, -1)

    def long_run(self, amps: np.ndarray, sweeps: int = 30) -> tuple[float, float]:
        """Mean and standard deviation of the local energy after ``sweeps``.

        The chain starts where ``estimate_energy`` starts, at the Neel
        configuration on a cold cache, whose first amplitude closes at the
        last row.
        """
        rows, size = amps.shape
        with np.errstate(divide="ignore", invalid="ignore"):
            eloc = np.tile(self.diag.astype(complex), (rows, 1))
            for coef, target, k in self.terms:
                num = np.where(target >= 0, amps[k, np.maximum(target, 0)], 0)
                eloc += coef * num[None, :] / amps
        eloc = np.nan_to_num(eloc.real).reshape(-1)
        weight = (np.abs(amps) ** 2).reshape(-1)
        prob = np.zeros(rows * size)
        prob[(rows - 1) * size + self.start] = 1.0
        steps = []
        for target, k in self.moves:
            src = np.nonzero(np.tile(target >= 0, rows))[0]
            dst = k * size + np.tile(target, rows)[src]
            with np.errstate(divide="ignore", invalid="ignore"):
                accept = np.nan_to_num(np.minimum(1.0, weight[dst] / weight[src]))
            steps.append((src, dst, accept))
        for _ in range(sweeps):
            for src, dst, accept in steps:
                moved = prob[src] * accept
                prob[src] -= moved
                prob += np.bincount(dst, moved, minlength=rows * size)
        mean = float(prob @ eloc)
        return mean, math.sqrt(max(float(prob @ eloc**2) - mean**2, 0.0))


# ---------------------------------------------------------------------------
# Step 3: candidates


def symmetry_image(peps: Peps, shift: int, reflect: bool, transpose: bool) -> Peps:
    """Lattice image: transpose, reflect the rows, then shift them cyclically."""
    sites = peps.sites
    if transpose:
        sites = [[sites[c][r].transpose(1, 0, 3, 2, 4) for c in range(peps.rows)] for r in range(peps.cols)]
    if reflect:
        sites = [[t.transpose(2, 1, 0, 3, 4) for t in row] for row in sites[::-1]]
    sites = [[np.ascontiguousarray(t) for t in sites[(r + shift) % len(sites)]] for r in range(len(sites))]
    return Peps(peps.rows, peps.cols, peps.phys_dim, peps.bond_dim, sites, peps.boundary)


def candidates(model):
    """(spec, chi, state) for every candidate, in search order."""
    images = list(itertools.product(range(model.rows), (False, True), (False, True)))
    for als_seed in ALS_SEEDS:
        base = als_ground_state(model, BOND_DIM, als_seed, ALS_SWEEPS)
        for chi in CHIS:
            for shift, reflect, transpose in images:
                spec = dict(als_seed=als_seed, shift=shift, reflect=reflect, transpose=transpose)
                yield spec, chi, symmetry_image(base, shift, reflect, transpose)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(Path(__file__).resolve().parents[1] / "tests" / "fixtures"))
    args = parser.parse_args(argv)
    t0 = time.time()
    model = j1j2(ROWS, COLS, J2, "pbc")
    e_ed = ground_energy(model)
    log(f"E_ED = {e_ed:.6f} (4x4 PBC J1-J2, j2={J2})")
    chain = DynamicChain(model)
    # Long-run z-score at which SWEEPS - WARMUP samples, with an allowance of
    # 1.2 for autocorrelation, put the mean TARGET_SIGMAS standard errors
    # below E_ED.
    target = -TARGET_SIGMAS * 1.2 / math.sqrt(SWEEPS - WARMUP)
    tried = 0
    near = None
    for spec, chi, state in candidates(model):
        long_mean, long_sd = chain.long_run(chain.closure_amplitudes(state, chi))
        z = (long_mean - e_ed) / long_sd
        tried += 1
        log(f"candidate {tried} {spec} chi={chi}: long-run dynamic {long_mean:.4f} (sd {long_sd:.3f}), z {z:.4f}")
        if near is None or z < near[0]:
            near = (z, spec, chi)
        if z > target:
            continue
        dyn = estimate_energy(state, model, "dynamic", chi, n_sweeps=SWEEPS, n_warmup=WARMUP, seed=CHAIN_SEED)
        fix = estimate_energy(state, model, "fixed", chi, n_sweeps=SWEEPS, n_warmup=WARMUP, seed=CHAIN_SEED)
        log(
            f"  sampled: dynamic {dyn.mean:.4f}+-{dyn.stderr:.4f} (bound {e_ed - 3 * dyn.stderr:.4f}); "
            f"fixed {fix.mean:.4f}+-{fix.stderr:.4f} (bound {e_ed - 3 * fix.stderr:.4f})"
        )
        if dyn.mean < e_ed - 3 * dyn.stderr and fix.mean >= e_ed - 3 * fix.stderr:
            break
    else:
        log(f"no witness among {tried} candidates; best long-run z {near[0]:.4f} ({near[1]}, chi={near[2]})")
        return 1

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_peps(state, out / "witness_peps.tnp")
    meta = {
        "j2": J2,
        "chi": chi,
        "sweeps": SWEEPS,
        "warmup": WARMUP,
        "seed": CHAIN_SEED,
        "e_ed": e_ed,
        "dynamic": {"mean": dyn.mean, "stderr": dyn.stderr, "long_run_mean": long_mean},
        "fixed": {"mean": fix.mean, "stderr": fix.stderr},
        "candidate": dict(spec, als_sweeps=ALS_SWEEPS, number=tried),
    }
    (out / "witness_meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    log(f"wrote {out} in {time.time() - t0:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
