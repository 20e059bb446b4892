"""Pin every experiment plan: the exact specs, in the exact order.

Each value is the SHA-256 of one plan's ordered ``config_hash()`` list, one
hash per line.  A plan refactor that changes a single spec or reorders two of
them changes the digest — and with it which store records a campaign reads.
Update a digest only for an intended change to what an experiment measures.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments import DEFINITIONS, FULL, QUICK, STANDARD

SCALES = {"quick": QUICK, "standard": STANDARD, "full": FULL}

PLAN_DIGESTS = {
    ("E1", "quick"): "1d80b9e4b6564ff53ba139a479983dcda564497b38204e8931a4d46e4bb3aac2",
    ("E2", "quick"): "35344c1cdb755fa439995c72f76c86ec7142c4e9b7c1d3a681050f29261edc83",
    ("E3", "quick"): "e6454d76e3feb7c39ca91527d17b57124962ecce267ee5fc72f96aaae71ff6d7",
    ("E4", "quick"): "32e266bcbd7ce75ab1693f2c6f76d98fc6e09c4ae7b1066ca8c3277049687dce",
    ("E5", "quick"): "c8c2ab9bcad542d048a04f15ba30308638e5d0ad8a55b9e47479ed5f6fc5bc0a",
    ("E6", "quick"): "05f04fb8b35bf3416b47b0aabf9d3da9c81a58c609ec87530c4e7950dfae8ece",
    ("E7", "quick"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("E8", "quick"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("E9", "quick"): "115ea630753ac18741442e1973b3a1bd78b4b2e063379bc27c490211980ca379",
    ("E10", "quick"): "7063f74f6d4abad1933756675c75aea7e6113e62963e3fe9a384ff05a3cf1051",
    ("E11", "quick"): "c2679fcda705f8028e65902627cfa24c83f95626190d192beab705f476033df0",
    ("E1", "standard"): "16e220eceaca2f5736b0a65daff40f16a099659ce13d66311e4e62aa09975f16",
    ("E2", "standard"): "8459aa5391803ba31c74e38f16b6cd0db91e639d0e62d39ea65dd89dbfb94343",
    ("E3", "standard"): "cd6287ae2ae84c2e989777d7632c071e4a3d47642a442461aa2cfb5babd19092",
    ("E4", "standard"): "2ebb2731a71d6c84ad12b1a7a72708873e13890720dd4d9b125d673417fc50c7",
    ("E5", "standard"): "95b50d7c4141458ff9633f50f053b23b10c78634fe0d4dd95a352acf870514cc",
    ("E6", "standard"): "49906b6f159c49425b559de410e0be6d1d9ba71e1f320c83d249e5d097f1998f",
    ("E7", "standard"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("E8", "standard"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("E9", "standard"): "b8d558e73f67626fe4917c2f2e51d57b19f27a6eff83cdefaa2b3849684002a3",
    ("E10", "standard"): "dca9c066abe6ce2f14d66ad9f05212e1d492c636de23a23b9263aeba6f231567",
    ("E11", "standard"): "72d48d4bbb82f79deb4d34e4ab4073937fe5212b92e50cefe25738b6f40cb246",
    ("E1", "full"): "431c0eb6103b1e22250b129a991a41be93b7a869ff0461063e0da289782dc427",
    ("E2", "full"): "06139f93a4aeafc06de0cc10482eafea646c04de7df5666041e6741279184130",
    ("E3", "full"): "3b8ede73f3b023749bcaa6db26a2a4899715a50a54d25b492bda00d4cba54fe7",
    ("E4", "full"): "984589b0e6bb0993b2d30a5869e02542fbfec80cc600cfe3049f2f789d3f0864",
    ("E5", "full"): "0754cd41e70c1a3e324986ce5f40fe4fdc28a2b468554f46166cf36dcb9fac35",
    ("E6", "full"): "dfbcca85dee3992016c65c3d5d96ca6cb8a9a87b3619c30b8d98fa141a961e64",
    ("E7", "full"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("E8", "full"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("E9", "full"): "574b7acf04f7555181cd0b3cd9463bc93cb12b45d09e99fa6080099219d8dbba",
    ("E10", "full"): "893ba56b9bc1a9ca81c9dcbf4cf68523a3b767027494b83f5ba20dea12bde9ce",
    ("E11", "full"): "0f67820c0c70201d66e79f76c8bbead1dc381b70fa5d76e5c70bb0b5b867befe",
}


def test_every_experiment_and_scale_is_pinned():
    assert set(PLAN_DIGESTS) == {(e, s) for e in DEFINITIONS for s in SCALES}


@pytest.mark.parametrize("experiment,scale", sorted(PLAN_DIGESTS))
def test_plan_digest(experiment, scale):
    hashes = [spec.config_hash() for spec in DEFINITIONS[experiment].plan(SCALES[scale])]
    digest = hashlib.sha256("\n".join(hashes).encode()).hexdigest()
    assert digest == PLAN_DIGESTS[experiment, scale]
