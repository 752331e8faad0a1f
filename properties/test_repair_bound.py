"""Hypothesis search of the closed-form phase repair's bound.

On each side the synthesis completes the leading singular vectors to the
unitary Q' = I + a (z - I) a^T, which acts on range(a) (r columns, r <= 3s) as
the r x r unitary z.  The angle theta* of network._rotation turns the side's
unitary by e^{j theta*}, and the imaginary part then has
sigma_min / sigma_max >= sin(pi / (2 (r + 1))), whatever the channel.  This
search applies theta* to every side, rejected or not, of links up to 8 x 8
with any stream count: Rayleigh draws of any master seed, their real parts,
rank-deficient products, and diagonal channels whose phases are multiples of
pi/8 (as tests/conftest.py's unrepairable_factors), which the synthesis must
repair.  It also checks each design's circuit blocks f and g against the dense
reference built from tx.unitary() and rx.unitary(), the repaired sides
included.  It lies outside the tier-1 testpaths and runs from the root of the
checkout:

    PYTHONPATH=src python -m pytest -q properties

The search is derandomized, so a failure reproduces; hypothesis prints the
failing example.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from milacsim import (
    AdmittanceMatrix,
    ChannelEnsembleSpec,
    PortPartition,
    SystemConfig,
    design_milac,
    rayleigh_channel,
    susceptance_rx,
    susceptance_tx,
    transfer_block_from_admittance,
)
from milacsim import network

KINDS = ("complex", "real", "rank-deficient", "diagonal-phase")


@st.composite
def _links(draw):
    kind = draw(st.sampled_from(KINDS))
    n_rx = draw(st.integers(1, 8))
    n_tx = n_rx if kind == "diagonal-phase" else draw(st.integers(1, 8))
    s = draw(st.integers(1, min(n_rx, n_tx)))
    seed = draw(st.integers(0, 2**64 - 1))
    h = rayleigh_channel(ChannelEnsembleSpec(n_rx=n_rx, n_tx=n_tx, n_trials=1, master_seed=seed), 0)
    if kind == "real":
        h = h.real
    elif kind == "rank-deficient":
        rank = draw(st.integers(1, max(1, min(n_rx, n_tx) - 1)))
        h = h[:, :rank] @ h[:rank, :]
    elif kind == "diagonal-phase":
        steps = draw(st.lists(st.integers(0, 15), min_size=n_rx, max_size=n_rx))
        h = np.diag(np.arange(n_rx, 0.0, -1.0) * np.exp(1j * np.pi * (0.5 - np.array(steps) / 8)))
    return h, s


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(link=_links())
def test_the_rotation_bounds_the_imaginary_part_and_the_design_is_its_dense_reference(link):
    h, s = link
    n_rx, n_tx = h.shape
    config = SystemConfig(n_streams=s, n_tx=n_tx, n_rx=n_rx, tx_power=1.0, noise_power=1.0)
    design = design_milac(h, config)
    y0 = config.ref_admittance
    sides = ((design.tx, design.f, PortPartition(s, n_tx), susceptance_tx),
             (design.rx, design.g, PortPartition(n_rx, s), susceptance_rx))
    for net, block, partition, dense in sides:
        n, r = net.a.shape
        bound = np.sin(np.pi / (2 * (r + 1)))
        theta = network._rotation(net.z)
        completion = np.eye(n) + net.a @ (net.z - np.eye(r)) @ net.a.T
        sv = np.linalg.svd(np.real(np.exp(1j * theta) * completion), compute_uv=False)
        assert sv[-1] / sv[0] >= bound - 1e-12
        q = net.unitary()
        if net.theta != 0:
            sv = np.linalg.svd(q.imag, compute_uv=False)
            assert sv[-1] / sv[0] >= bound - 1e-12
        reference = transfer_block_from_admittance(AdmittanceMatrix(1j * dense(q, s, y0).b), partition, y0)
        assert np.abs(block - reference).max() <= 1e-12
