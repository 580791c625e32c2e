"""Time the spectral layers and the samplers on a ladder of random channels; write a BENCH file.

Run from the root of a source checkout:

    python tools/ladder.py --out BENCH_21.json --parent /path/to/parent/checkout

Each source tree (this one, and the optional parent checkout) is timed in
child processes, which import ``qmcbounds`` from that tree's ``src/``.  The
channels are ``fixtures.random_channel(d, 3, 101)`` with payoff (i mod 3) - 1
on label i, for d in ``DIMS``.  Every call gets a channel object of its own,
built before the clock starts, so nothing a call memoizes on a channel
serves a later one; ``bernstein_constants`` and ``pseudoresolvent_norm`` get
the invariant state, computed on another object.  One child makes one pass:
a warm-up call of every layer at the smallest d, then one timed call of each
layer at each d, and for the certified chain, ``hoeffding_constants``,
``bernstein_constants``, ``multiplicative_gap_report``, ``pseudoresolvent_norm``
and ``is_irreducible`` one more untimed call that counts the SVD norms
(``np.linalg.norm(a, 2)`` calls), the general eigensolves
(``np.linalg.eigvals``), the SVDs with singular vectors of a d^2 x d^2
matrix, every ``np.linalg.svd`` call, and the ``np.linalg.eigh`` and
``np.linalg.eigvalsh`` calls (a stack of matrices is one call).  Then the samplers: ``mc_tail`` with
``MC_TRAJECTORIES`` trajectories of ``MC_STEPS`` steps from the invariant
state at each d (layer ``mc_tail``), and ``counting_counts`` on
``fixtures.driven_qubit()`` from its steady state, ``COUNTING_TRIALS``
trajectories to t = ``COUNTING_T`` (layer ``counting_counts``, d = 2).  The
parent's ``mc_tail`` rows above d = ``PARENT_MC_MAX_D`` are not timed, as
they would take minutes, and read ``null``.  Then the exact DP,
``score_distribution_dp`` from the maximally mixed state to each horizon in
``DP_HORIZONS`` (rows carry ``n``), on ``fixtures.ring_channel()`` (d = 3),
on the random channels with d in ``DP_DIMS``, on
``random_channel(d, 6, 101)`` with the same payoff (rows carry ``kraus``: 6)
and, at the horizons in ``SPARSE_HORIZONS``, on ``random_channel(6, 3, 101)``
with the payoff (0, 1, 1000), whose scores leave gaps, so the kernel sorts
them (rows carry ``payoff``),
``score_distribution_windowed`` on ``models/ring_tdm.json``'s windows at
the same horizons, and ``exact_flux_tail`` at gamma 0.1 from the uniform
law at the same horizons (rows carry the number of states as ``d``) on
``models/two_state_chain.json`` and on a ``FLUX_STATES``-state chain with
seeded random rows and flux (x + y) mod 3 - 1;
``decompose_invariant_subspaces`` on the direct sum of
``random_channel(d // 2, 3, 101)`` and ``random_channel(d - d // 2, 3, 102)``
for d in ``BLOCK_DIMS``; and ``counting_constants``, steady state included,
on a seeded random GKLS generator with two jumps at d = ``GKLS_DIM``.  Last, the command
line in a fresh process, start-up included (layer ``cli``, rows carry
``command``): ``analyze`` on every ``models/*.json``, and ``bound`` for both
flavours, ``verify --flavor bernstein`` and ``simulate`` on ``models/ring.json``
with the golden tests' grids, and ``bound`` for both time-dependent flavours on
``models/ring_tdm.json`` at horizons up to 4e4 (hoeffding) and 1e6
(bernstein); then ``analyze`` on a model file of each random channel with d
in ``ANALYZE_DIMS`` (labels a, b, c paying -1, 0, 1), timed in a fresh
process, and run once more in the child, untimed, for its counts (rows carry
``d``).  There are ``REPEATS`` passes per tree, and the trees
alternate: on even passes this tree goes first, on odd passes the parent,
so a machine that speeds up or slows down over a run
does not favour one column.  A row is the median over the passes, with the
least and the greatest pass beside it, so a reader can tell a change from
the spread of one tree's passes.  Children get
``OPENBLAS_NUM_THREADS=1`` unless it is already set.  The output holds one
column per tree and the environment each child saw: versions, BLAS,
``cpu_count``, thread settings and ``PYTHONDONTWRITEBYTECODE`` (set, every
fresh process compiles ``src/`` again); ``scipy`` is ``null`` where it is
not installed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from importlib import metadata
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DIMS = (3, 8, 16, 24, 32)
REPEATS = 3
MC_TRAJECTORIES, MC_STEPS = 4096, 50
COUNTING_T, COUNTING_TRIALS = 400.0, 500
PARENT_MC_MAX_D = 16
DP_HORIZONS = (128, 256, 512)
DP_DIMS = (8, 16)
SPARSE_HORIZONS = (40, 96)
FLUX_STATES = 8
BLOCK_DIMS = (8, 16)
GKLS_DIM = 8
ANALYZE_DIMS = (16, 24, 32)
RING = ("--model", str(REPO / "models" / "ring.json"))
TDM = ("--model", str(REPO / "models" / "ring_tdm.json"))
CLI_COMMANDS = [("analyze", "--model", str(path))
                for path in sorted((REPO / "models").glob("*.json"))] + [
    ("bound", "--flavor", "bernstein", *RING, "--n", "10,100,1000", "--gamma", "0.05,0.1,0.5"),
    ("bound", "--flavor", "hoeffding", *RING, "--n", "10,100,1000", "--gamma", "0.05,0.1,0.5"),
    ("verify", "--flavor", "bernstein", *RING, "--n", "16,64,256", "--gamma", "0.05,0.1,0.5"),
    ("simulate", *RING, "--n", "32", "--gamma", "0.1,0.3", "--trials", "100"),
    ("bound", "--flavor", "tdm-hoeffding", *TDM, "--n", "20,1000,40000", "--gamma", "0.5"),
    ("bound", "--flavor", "tdm-bernstein", *TDM, "--n", "1000,100000,1000000", "--gamma", "0.5"),
]


COUNTED = ("certified_chain", "hoeffding_constants", "bernstein_constants",
           "multiplicative_gap_report", "pseudoresolvent_norm", "is_irreducible")
COUNTS = ("svds", "eigvals", "full_svds", "svd_calls", "eigh_calls", "eigvalsh_calls")


def _counts(call, d: int) -> dict:
    """Chain SVD norms, general eigensolves, full d^2 x d^2 SVDs, and calls of
    ``svd``, ``eigh`` and ``eigvalsh`` while ``call`` runs."""
    import numpy as np

    names = ("norm", "eigvals", "svd", "eigh", "eigvalsh")
    plain = {name: getattr(np.linalg, name) for name in names}
    counts = dict.fromkeys(COUNTS, 0)

    def norm(x, ord=None, *args, **kwargs):
        counts["svds"] += ord == 2 and np.ndim(x) == 2
        return plain["norm"](x, ord, *args, **kwargs)

    def eigvals(a):
        counts["eigvals"] += 1
        return plain["eigvals"](a)

    def svd(a, *args, **kwargs):
        counts["svd_calls"] += 1
        counts["full_svds"] += a.shape == (d * d, d * d) and kwargs.get("compute_uv", True)
        return plain["svd"](a, *args, **kwargs)

    def eigh(a, *args, **kwargs):
        counts["eigh_calls"] += 1
        return plain["eigh"](a, *args, **kwargs)

    def eigvalsh(a, *args, **kwargs):
        counts["eigvalsh_calls"] += 1
        return plain["eigvalsh"](a, *args, **kwargs)

    for name, function in zip(names, (norm, eigvals, svd, eigh, eigvalsh)):
        setattr(np.linalg, name, function)
    try:
        call()
    finally:
        for name, function in plain.items():
            setattr(np.linalg, name, function)
    return counts


def _environment() -> dict:
    import numpy as np

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu_count": os.cpu_count(),
            "threads": {name: os.environ.get(name) for name in THREAD_VARS},
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def _channel(d: int):
    from qmcbounds.fixtures import random_channel

    return random_channel(d, 3, 101)


def _layers(d: int) -> dict:
    """The calls at dimension d, by layer name, each on the channel it is given."""
    from qmcbounds import spectral
    from qmcbounds.bounds import bernstein_constants, hoeffding_constants

    channel = _channel(d)
    payoff = {label: float(i % 3 - 1) for i, label in enumerate(channel.labels)}
    sigma = spectral.invariant_state(channel)
    _, phi_f, inv_f = spectral._resolvent(*spectral._coordinates(channel, sigma))
    return {
        "invariant_state": spectral.invariant_state,
        "is_irreducible": spectral.is_irreducible,
        "multiplicative_gap_report": lambda ch: spectral.multiplicative_gap_report(ch, sigma),
        "certified_chain": lambda ch: spectral._certified_sup_norm_chain(phi_f, inv_f, d),
        "hoeffding_constants": lambda ch: hoeffding_constants(ch, payoff),
        "bernstein_constants": lambda ch: bernstein_constants(ch, payoff, sigma=sigma),
        "pseudoresolvent_norm": lambda ch: spectral.pseudoresolvent_norm(ch, sigma),
    }


def _two_block(d: int):
    """The direct sum of two random channels, of dimensions d // 2 and d - d // 2."""
    import numpy as np

    from qmcbounds.fixtures import random_channel
    from qmcbounds.operators import KrausChannel

    ops = []
    for at, block in ((0, random_channel(d // 2, 3, 101)),
                      (d // 2, random_channel(d - d // 2, 3, 102))):
        for v in block.kraus:
            z = np.zeros((d, d), dtype=complex)
            z[at:at + block.dim, at:at + block.dim] = v
            ops.append(z)
    return KrausChannel(ops)


def _generator(d: int):
    """A seeded random GKLS generator with two jumps."""
    import numpy as np

    from qmcbounds.operators import GKLSGenerator

    rng = np.random.default_rng(101)
    h, *jumps = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                 for _ in range(3))
    return GKLSGenerator((h + h.conj().T) / 2, jumps)


def _oracle_calls() -> list:
    """(layer, d, keys, build, call) of the DP, decomposition and counting-constant rows.

    ``build`` makes the input untimed; ``call`` takes it; ``keys`` are the
    row's further keys (``n``, ``kraus``).
    """
    import numpy as np

    from qmcbounds.bounds import counting_constants
    from qmcbounds.classical import MarkovChain, exact_flux_tail
    from qmcbounds.fixtures import random_channel, ring_channel
    from qmcbounds.modelfile import load_model
    from qmcbounds.spectral import decompose_invariant_subspaces
    from qmcbounds.trajectory import score_distribution_dp, score_distribution_windowed

    def dp(n: int, law=score_distribution_dp):
        def call(model):
            channel, payoff = model
            return law(channel, np.eye(channel.dim) / channel.dim, payoff, n)
        return call

    def random_model(d: int, kraus: int = 3):
        channel = random_channel(d, kraus, 101)
        return channel, {label: float(i % 3 - 1) for i, label in enumerate(channel.labels)}

    def sparse_model():
        channel = random_channel(6, 3, 101)
        return channel, dict(zip(channel.labels, (0.0, 1.0, 1000.0)))

    def ring_tdm():
        model = load_model(str(REPO / "models" / "ring_tdm.json"))
        return model.channel, model.observation_windows

    def flux(n: int):
        def call(model):
            chain, f = model
            return exact_flux_tail(chain, np.ones(chain.size) / chain.size, f, n, 0.1)
        return call

    def two_state():
        model = load_model(str(REPO / "models" / "two_state_chain.json"))
        return model.chain, model.flux

    def random_chain():
        p = np.random.default_rng(101).random((FLUX_STATES, FLUX_STATES))
        chain = MarkovChain(p / p.sum(axis=1, keepdims=True))
        return chain, {(x, y): float((x + y) % 3 - 1) for x, y in chain.edges()}

    calls = [("score_distribution_dp", 3, {"n": n}, ring_channel, dp(n)) for n in DP_HORIZONS]
    calls += [("score_distribution_dp", d, {"n": n}, lambda d=d: random_model(d), dp(n))
              for d in DP_DIMS for n in DP_HORIZONS]
    calls += [("score_distribution_dp", d, {"n": n, "kraus": 6},
               lambda d=d: random_model(d, 6), dp(n)) for d in DP_DIMS for n in DP_HORIZONS]
    calls += [("score_distribution_dp", 6, {"n": n, "payoff": "0,1,1000"}, sparse_model, dp(n))
              for n in SPARSE_HORIZONS]
    calls += [("score_distribution_windowed", 3, {"n": n}, ring_tdm,
               dp(n, score_distribution_windowed)) for n in DP_HORIZONS]
    calls += [("exact_flux_tail", size, {"n": n}, build, flux(n))
              for size, build in ((2, two_state), (FLUX_STATES, random_chain))
              for n in DP_HORIZONS]
    calls += [("decompose_invariant_subspaces", d, {}, lambda d=d: _two_block(d),
               decompose_invariant_subspaces) for d in BLOCK_DIMS]
    calls.append(("counting_constants", GKLS_DIM, {}, lambda: _generator(GKLS_DIM),
                  lambda gen: counting_constants(gen, gen.labels[0])))
    return calls


def _sampler_seconds(layer: str, d: int, trajectories: int) -> float:
    """Seconds of one sampler call; its channel or generator and state are built untimed."""
    from qmcbounds.fixtures import driven_qubit
    from qmcbounds.spectral import gkls_steady_state, invariant_state
    from qmcbounds.trajectory import counting_counts, mc_tail

    if layer == "counting_counts":
        gen = driven_qubit()
        rho0 = gkls_steady_state(gen).matrix
        call = lambda: counting_counts(gen, rho0, COUNTING_T, trajectories, 0)  # noqa: E731
    else:
        channel = _channel(d)
        payoff = {label: float(i % 3 - 1) for i, label in enumerate(channel.labels)}
        rho0 = invariant_state(_channel(d)).matrix
        call = lambda: mc_tail(channel, rho0, payoff, MC_STEPS, 0.1, trajectories, 1)  # noqa: E731
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def _analyze_rows(directory: str) -> list:
    """``analyze`` on a model file of ``_channel(d)`` per d: fresh-process seconds and counts."""
    from qmcbounds import cli

    rows = []
    for d in ANALYZE_DIMS:
        path = Path(directory) / f"random{d}.json"
        path.write_text(json.dumps({
            "kind": "kraus", "labels": ["a", "b", "c"], "observation": {"a": -1, "b": 0, "c": 1},
            "kraus": [[[[z.real, z.imag] for z in row] for row in v]
                      for v in _channel(d).kraus]}), encoding="utf-8")
        command = ("analyze", "--model", str(path))
        row = {"layer": "cli", "command": f"analyze --model random_channel({d}, 3, 101)",
               "d": d, "seconds": _cli_seconds(command)}
        with open(os.devnull, "w", encoding="utf-8") as sink, redirect_stdout(sink):
            row.update(_counts(lambda: cli.main(list(command)), d))
        rows.append(row)
        print(f"cli: {row}", file=sys.stderr, flush=True)
    return rows


def _cli_seconds(command: tuple) -> float:
    """Wall seconds of one command in a fresh interpreter, start-up included."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "qmcbounds.cli", *command], check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure(mc_max_d: int | None) -> dict:
    """One pass of the ladder: one timed call per layer and d; mc_tail up to ``mc_max_d``."""
    for call in _layers(DIMS[0]).values():
        call(_channel(DIMS[0]))
    _sampler_seconds("mc_tail", DIMS[0], 64)
    _sampler_seconds("counting_counts", 2, 8)
    rows = []
    for d in DIMS:
        for layer, call in _layers(d).items():
            channel = _channel(d)
            start = time.perf_counter()
            call(channel)
            row = {"layer": layer, "d": d, "seconds": time.perf_counter() - start}
            if layer in COUNTED:
                channel = _channel(d)
                row.update(_counts(lambda: call(channel), d))
            rows.append(row)
            print(f"{layer} d={d}: {row}", file=sys.stderr, flush=True)
    samplers = [("mc_tail", d, MC_TRAJECTORIES) for d in DIMS]
    for layer, d, trajectories in samplers + [("counting_counts", 2, COUNTING_TRIALS)]:
        skip = layer == "mc_tail" and mc_max_d is not None and d > mc_max_d
        row = {"layer": layer, "d": d,
               "seconds": None if skip else _sampler_seconds(layer, d, trajectories)}
        rows.append(row)
        print(f"{layer} d={d}: {row}", file=sys.stderr, flush=True)
    calls = _oracle_calls()
    first: dict = {}
    for layer, _, _, build, call in calls:
        first.setdefault(layer, (build, call))
    for build, call in first.values():  # warm-up: the first call of each layer
        call(build())
    for layer, d, keys, build, call in calls:
        model = build()
        start = time.perf_counter()
        call(model)
        row = {"layer": layer, "d": d, **keys, "seconds": time.perf_counter() - start}
        rows.append(row)
        print(f"{layer} d={d}: {row}", file=sys.stderr, flush=True)
    for command in CLI_COMMANDS:
        row = {"layer": "cli", "command": " ".join(command).replace(f"{REPO}/", ""),
               "seconds": _cli_seconds(command)}
        rows.append(row)
        print(f"cli: {row}", file=sys.stderr, flush=True)
    with tempfile.TemporaryDirectory() as directory:
        rows += _analyze_rows(directory)
    return {"environment": _environment(), "rows": rows}


def _run_pass(src: Path, mc_max_d: int | None) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    limit = [] if mc_max_d is None else ["--mc-max-d", str(mc_max_d)]
    done = subprocess.run([sys.executable, __file__, "--child", *limit], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="BENCH file to write")
    parser.add_argument("--parent", help="checkout of the parent commit, for a second column")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--mc-max-d", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(measure(args.mc_max_d)))
        return 0
    if not args.out:
        parser.error("--out is required")
    trees = {"change": REPO}
    if args.parent:
        trees["parent"] = Path(args.parent).resolve()
    passes: dict[str, list] = {name: [] for name in trees}
    for repeat in range(REPEATS):
        for name in (list(trees) if repeat % 2 == 0 else list(reversed(trees))):
            passes[name].append(_run_pass(trees[name] / "src",
                                          PARENT_MC_MAX_D if name == "parent" else None))
    rows = []
    for i, row in enumerate(passes["change"][0]["rows"]):
        merged = {key: row[key] for key in ("layer", "d", "n", "kraus", "payoff", "command")
                  if key in row}
        for name, runs in passes.items():
            times = [run["rows"][i]["seconds"] for run in runs]
            times = None if None in times else sorted(times)
            merged[f"{name}_median_s"] = times and times[len(times) // 2]
            merged[f"{name}_min_s"] = times and times[0]
            merged[f"{name}_max_s"] = times and times[-1]
            for count in COUNTS:
                if count in row:
                    merged[f"{name}_{count}"] = runs[0]["rows"][i][count]
        rows.append(merged)
    doc = {
        "what": ("median, least and greatest seconds over the passes of each spectral layer "
                 "and of mc_tail (4096 trajectories, n = 50) on fixtures.random_channel(d, 3, "
                 "101), of counting_counts on driven_qubit (t = 400, 500 trajectories), of "
                 "score_distribution_dp to n on the ring and on the random channels (kraus: 6 "
                 "for random_channel(d, 6, 101); payoff: the sparse payoff (0, 1, 1000) on "
                 "random_channel(6, 3, 101)), of score_distribution_windowed to n on "
                 "ring_tdm's windows, of exact_flux_tail to n on two_state_chain "
                 "and a seeded 8-state chain (d: states), of decompose_invariant_subspaces "
                 "on a two-block random channel, of counting_constants on a random "
                 "GKLS generator, and of CLI commands in a fresh process, start-up "
                 "included (analyze on random_channel(d, 3, 101) model files with the counts "
                 "of an untimed in-process run); null: not timed"),
        "repeats": REPEATS,
        "order": "one child process per pass; this tree first on even passes, the parent on odd",
        "environment": {name: runs[0]["environment"] for name, runs in passes.items()},
        "rows": rows,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
