"""Figure 8 — style-transferred images: PARDON vs CCST.

The paper's visual argument: CCST transfers a client's images to *specific
other clients' styles*, so each transferred set visibly resembles the
target client's private data; PARDON transfers everything to the single
interpolation style, so transferred sets are indistinguishable across
"targets" and resemble no individual client.

Quantified here: for a probe image set, FID between the transferred set
and each target client's private data.  Shape to check: CCST's FID to its
target is much lower than to non-targets (it imitates private data —
the leak); PARDON's FIDs are flat across clients and never approach CCST's
target-FID minimum.
"""

from __future__ import annotations

import numpy as np

from common import emit, is_fast_mode

from repro.core.interpolation import extract_interpolation_style
from repro.core.local_style import compute_client_style
from repro.data import synthetic_pacs
from repro.privacy import fid_score
from repro.style import (
    FrozenConvEncoder,
    InvertibleEncoder,
    StyleVector,
    apply_style_to_images,
    pooled_style,
)
from repro.utils.tables import format_table


def _run() -> str:
    spc = 8 if is_fast_mode() else 24
    suite = synthetic_pacs(seed=0, samples_per_class=spc)
    encoder = InvertibleEncoder(levels=1, seed=7)
    fid_encoder = FrozenConvEncoder(seed=11)

    # Four "clients", one per domain (the paper's Fig. 8 uses the domain
    # styles directly).  The probe set is photo data to be transferred.
    client_images = {
        name: suite.dataset_for(name).images for name in suite.domain_names
    }
    probe = client_images["photo"]
    targets = ["art_painting", "cartoon", "sketch"]

    # CCST: transfer the probe to each target client's published style.
    ccst_transferred = {
        target: apply_style_to_images(
            probe, pooled_style(encoder.encode(client_images[target])), encoder
        )
        for target in targets
    }
    # PARDON: one interpolation style for everything.
    client_styles = [
        compute_client_style(images, encoder)
        for images in client_images.values()
    ]
    interpolation = extract_interpolation_style(client_styles)
    pardon_transferred = apply_style_to_images(probe, interpolation, encoder)

    rows = []
    for target in targets:
        fid_ccst = fid_score(
            client_images[target], ccst_transferred[target], fid_encoder
        )
        fid_pardon = fid_score(
            client_images[target], pardon_transferred, fid_encoder
        )
        rows.append([target, f"{fid_ccst:.2f}", f"{fid_pardon:.2f}"])

    # Cross-target distinguishability: how far apart the transferred sets
    # are from each other (CCST: large; PARDON: exactly zero, single style).
    ccst_sets = list(ccst_transferred.values())
    cross = [
        fid_score(ccst_sets[i], ccst_sets[j], fid_encoder)
        for i in range(len(ccst_sets))
        for j in range(i + 1, len(ccst_sets))
    ]
    footer = (
        f"CCST cross-target FID (mean): {np.mean(cross):.2f} "
        f"(transferred sets are distinguishable per target)\n"
        f"PARDON cross-target FID: 0.00 by construction "
        f"(a single interpolation style for all clients)"
    )
    table = format_table(
        [
            "Target client",
            "FID(CCST transfer, target's private data) — lower = leaks",
            "FID(PARDON transfer, target's private data)",
        ],
        rows,
        title="Fig. 8 — whose private data do transferred images resemble?",
    )
    return table + "\n" + footer


def test_fig8_style_transfer(benchmark):
    table = benchmark.pedantic(_run, rounds=1, iterations=1)
    emit("fig8_style_transfer", table)
