import hashlib
import json

import pytest

from koszulkit.algebra import build_graded_algebra
from koszulkit.fields import GF, QQ
from koszulkit.homology import koszul_homology
from koszulkit.koszul import KoszulCalculus, MODULE_A
from koszulkit.quiver import QuadraticPresentation, Quiver
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
#: after ``run``).  The entries were recorded before the samplers were
#: merged; the generator state was re-recorded when random (co)chains came
#: to be drawn from the nonzero blocks, which changed the order of the
#: draws and left every entry as it was
RECORDED_SUITES = {
    ("A3", 0, 0, 20): (262, "b053b6dbcd8f575e1bf156b577a1722023c11f0d44ad21dd4eaba4b76500c051",
                       "39718bef4e4b0a425b70deb819efac36e9a3f2aa54ec51c5d48a5a9caba3b8ee"),
    ("D4", 3, 5, 10): (132, "59207fb434912abfc8fddaf8d0cefbe96dcbf57f87469f0562d312c63f36769c",
                       "4503173be1b37d326dcefdb8301a505c3376b2c500e69b0a79a0961666bc13c2"),
    ("A4", 2, 7, 10): (132, "09b3ea099a89b79ce4b64659f69957bd74ed2ff2338b1d407ad3b2302b780ab9",
                       "1466ced7325b482e9b9b470af5d2b8bd836039e815bcf1b00511ff0cb99d910f"),
    ("D5", 0, 2, 5): (67, "4838ba33c81cb6e41651f64adeddfcab3446a64e3cc009d818a40b1fc4f680ba",
                      "e4d130165140b6a19cb6bc680c4b7d521e6f0b3c45ac6d18fbdfcefd8a73978c"),
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


def test_a_degree_without_blocks_draws_zero():
    """A path algebra without relations has W_2 = 0, so degree 2 has no
    block: its random (co)chains are zero, and the suite still runs."""
    q = Quiver(["0", "1", "2"], [("x", "0", "1"), ("y", "1", "2")])
    kd = KoszulCalculus(build_graded_algebra(QuadraticPresentation(q, [], QQ), 6), 3)
    coh = koszul_homology(kd, MODULE_A, "coh")
    hom = koszul_homology(kd, MODULE_A, "hom")
    assert kd.w(2).dim == 0 and coh.layout(2) == hom.layout(2) == (0, {})
    suite = PropertySuite(coh, hom, seed=0, trials=10)
    assert suite.random_cochain(2).is_zero() and suite.random_chain(2).is_zero()
    assert suite.run(preprojective=False).ok
