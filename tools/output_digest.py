"""Print SHA-256 digests of design_milac and run_trial outputs over fixed inputs.

Usage, from anywhere in a source checkout:

    python tools/output_digest.py

Each line is `<case> <sha256>`, and the last line digests all of them.  A
case digest covers every array a link's chain produces, with its dtype and
shape: the ordered factors, the allocation, both factored networks (a,
core, z, theta), the circuit blocks f and g, and the rates, SINRs and
capacity of run_trial at three powers.  Single links add the dense b_tx and
b_rx and the README quick-start chain on them (transfer_block_from_admittance
of each, then milac_rate) at one power.  A call that raises is digested by
its exception's type and message.

Two checkouts whose digests match produce the same bits on these inputs;
two fresh processes on one checkout must print the same lines.  The inputs:
the gauge table of tests/test_gauge_channels.py, the repair and diagonal
channels of tests/conftest.py, one Rayleigh and one real 64x64 link (s = 4),
a five-trial 8x8 chunk (s = 2) and one 128x128 link (s = 8).
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from milacsim import (  # noqa: E402
    AdmittanceMatrix,
    ChannelEnsembleSpec,
    PortPartition,
    SystemConfig,
    design_milac,
    milac_rate,
    rayleigh_channel,
    run_trial,
    snr_db_to_tx_power,
    transfer_block_from_admittance,
)
from tests.test_gauge_channels import LINKS, POWERS, gauge_channels  # noqa: E402


def _feed(digest, *arrays) -> None:
    for x in arrays:
        x = np.ascontiguousarray(x)
        digest.update(f"{x.dtype.str}{x.shape}".encode())
        digest.update(x.tobytes())


def _design_arrays(design) -> list:
    f = design.factors
    arrays = [f.u, f.sigma, f.v, design.allocation.p, design.allocation.water_level, design.f, design.g]
    for side in (design.tx, design.rx):
        arrays += [side.a, side.core, side.z, side.theta]
    return arrays


def _link(digest, h, config, single: bool) -> None:
    """One link's (or stack's) chain: design_milac at one power, run_trial at all of config's."""
    one = SystemConfig(
        n_streams=config.n_streams, n_tx=config.n_tx, n_rx=config.n_rx,
        tx_power=np.atleast_1d(config.tx_power)[0], noise_power=config.noise_power,
    )
    try:
        design = design_milac(h, one)
        _feed(digest, *_design_arrays(design))
        if single:
            b_tx, b_rx = design.b_tx.b, design.b_rx.b
            s, y0 = one.n_streams, one.ref_admittance
            f = transfer_block_from_admittance(AdmittanceMatrix(1j * b_tx), PortPartition(s, one.n_tx), y0)
            g = transfer_block_from_admittance(AdmittanceMatrix(1j * b_rx), PortPartition(one.n_rx, s), y0)
            _feed(digest, b_tx, b_rx, f, g, *milac_rate(g, h, f, design.allocation, one.tx_power, one.noise_power))
        report = run_trial(h, config)
        _feed(digest, report.milac_rate, report.digital_rate, report.capacity, report.per_stream_sinr)
        _feed(digest, *_design_arrays(report.design))
    except Exception as exc:  # a rejection is an output too
        digest.update(f"{type(exc).__name__}: {exc}".encode())


def _config(n_rx, n_tx, s, powers) -> SystemConfig:
    return SystemConfig(n_streams=s, n_tx=n_tx, n_rx=n_rx, tx_power=powers, noise_power=1.0)


def _cases():
    """(name, channel or stack, config, single) of every input, in a fixed order."""
    powers = tuple(snr_db_to_tx_power(snr, 1.0) for snr in (-10.0, 10.0, 30.0))
    for n_rx, n_tx, s in LINKS:
        yield f"gauge-{n_rx}x{n_tx}-s{s}", gauge_channels(n_rx, n_tx), _config(n_rx, n_tx, s, POWERS), False
    o = np.linalg.qr(np.array([[3, -2, -2, 1], [2, 3, -1, 1], [-1, -2, 3, 1], [2, 3, 1, 1]], float))[0]
    repair = np.diag([4.0, 3.0, 2.0, 1.0]) @ (np.diag([1, 1, 1, 1j]) @ o).conj().T
    yield "repair-4x4-s4", repair, _config(4, 4, 4, powers), True
    k = np.arange(8)
    diagonal = np.diag(np.arange(8, 0.0, -1.0) * np.exp(1j * (np.pi / 2 - np.pi * k / 8)))
    yield "diagonal-8x8-s8", diagonal, _config(8, 8, 8, powers), True

    def rayleigh(n, trials):
        return rayleigh_channel(ChannelEnsembleSpec(n_rx=n, n_tx=n, n_trials=5, master_seed=35), trials)

    yield "rayleigh-64x64-s4", rayleigh(64, 0), _config(64, 64, 4, powers), True
    yield "real-64x64-s4", np.random.default_rng(35).standard_normal((64, 64)), _config(64, 64, 4, powers), True
    yield "rayleigh-8x8-s2-chunk5", rayleigh(8, range(5)), _config(8, 8, 2, powers), False
    yield "rayleigh-128x128-s8", rayleigh(128, 0), _config(128, 128, 8, powers), True


def main() -> int:
    total = hashlib.sha256()
    for name, h, config, single in _cases():
        digest = hashlib.sha256()
        _link(digest, h, config, single)
        line = f"{name} {digest.hexdigest()}"
        total.update(line.encode())
        print(line)
    print(f"all {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
