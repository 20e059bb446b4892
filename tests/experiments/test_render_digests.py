"""Pin the outputs of the render-only experiments.

E4 (the replacement adversary), E7 (waking-matrix structure) and E8
(selective-family quality) compute their rows while rendering, outside the
result store, so no store digest covers them.  Each value is the SHA-256 of
``json.dumps(result.rows, sort_keys=True)`` or of one rendered table, at
QUICK scale with the default seed.  Update a digest only for an intended
change to what the experiment measures.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments import QUICK, run_experiment

RENDER_DIGESTS = {
    "E4": {
        "rows": "ffad927d6b0910322076ce0f77d87370afb2222f910fa5435da2c8fb33b28705",
        "lower_bound_adversary": "221f0406305359bedc0c2a86d91b8ba376e55421b5246864b46ed55b83aadf7c",
    },
    "E7": {
        "rows": "219e00b4211308b66a5226fe6b56c8d374b096c0680df847624576c6beae1d72",
        "membership_probabilities": "8067d9428e8b0b12f65d8c3d0291a439030ab5d97fd855b73c02032c3ba3b1d6",
    },
    "E8": {
        "rows": "0ae39ef60bbc3332841de5ca7d0da70e5b5234889b0a956317c3cc04e0bf30e1",
        "selective_family_quality": "7b861919070e4b07cf243b27239974808343fd45aa99ecb0eddd92bddafe59d3",
    },
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("experiment", sorted(RENDER_DIGESTS))
def test_render_digest(experiment):
    result = run_experiment(experiment, QUICK)
    digests = {"rows": _sha256(json.dumps(result.rows, sort_keys=True))}
    digests.update({name: _sha256(table) for name, table in result.tables.items()})
    assert digests == RENDER_DIGESTS[experiment]
