import hashlib
import json

import pytest

from koszulkit.fields import GF, QQ
from koszulkit.verify import PropertySuite, TypeCharComputation, direct_higher0_dim


@pytest.mark.parametrize("name,char", [("A3", 0), ("A4", 2), ("D4", 0)])
def test_identity_suite(name, char):
    comp = TypeCharComputation(name, char, with_frobenius=False)
    suite = PropertySuite(comp.coh, comp.hom, seed=1, trials=30)
    log = suite.run(preprojective=True)
    assert log.ok, log.failures()[:5]


def test_direct_higher0_description():
    for name, char, expected in [("A3", 0, 1), ("A4", 0, 0), ("A3", 2, 2),
                                 ("D4", 0, 4)]:
        comp = TypeCharComputation(name, char, with_frobenius=False)
        assert direct_higher0_dim(comp.preset.algebra) == expected
        assert comp.hi_coh.dim(0) == expected


#: (entries, sha256 of the JSON log entries, sha256 of the generator state
#: after ``run``), recorded before the samplers were merged: every draw
#: stays in the same order
RECORDED_SUITES = {
    ("A3", 0, 0, 20): (262, "b053b6dbcd8f575e1bf156b577a1722023c11f0d44ad21dd4eaba4b76500c051",
                       "75a11ebaada72c8d93d15afca781c90d7f0279e238781a7316204f97fd382f20"),
    ("D4", 3, 5, 10): (132, "59207fb434912abfc8fddaf8d0cefbe96dcbf57f87469f0562d312c63f36769c",
                       "aeb2327ecd348d560300dc9eccc72105f2b105c7e3d0285b0574e2e702b9fd89"),
    ("A4", 2, 7, 10): (132, "09b3ea099a89b79ce4b64659f69957bd74ed2ff2338b1d407ad3b2302b780ab9",
                       "881d69bbaebafa9cacb49929949a6f757ecd1ae9949a346b3518732d55579db2"),
    ("D5", 0, 2, 5): (67, "4838ba33c81cb6e41651f64adeddfcab3446a64e3cc009d818a40b1fc4f680ba",
                      "0b36ae0567dfcc2508c4cdc013663df7e365fba83be4990e3416f41cc9cef6e6"),
}


@pytest.mark.parametrize("name,char,seed,trials", sorted(RECORDED_SUITES),
                         ids=["-".join(map(str, k)) for k in sorted(RECORDED_SUITES)])
def test_suite_log_and_draws_match_recorded(name, char, seed, trials):
    comp = TypeCharComputation(name, char, with_frobenius=False)
    suite = PropertySuite(comp.coh, comp.hom, seed=seed, trials=trials)
    log = suite.run(preprojective=True)
    got = (len(log.entries),
           hashlib.sha256(json.dumps(log.entries).encode("utf-8")).hexdigest(),
           hashlib.sha256(repr(suite.rng.getstate()).encode("utf-8")).hexdigest())
    assert got == RECORDED_SUITES[(name, char, seed, trials)]
