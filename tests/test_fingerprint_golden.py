"""Golden request → fingerprint pairs.

A fingerprint is the durable store's key: if the digest of a request
moves, every stored record becomes unreachable and re-imported dumps
fail their check.  These digests were computed under the v3 fingerprint
schema and must not change while ``FINGERPRINT_VERSION`` stays 3,
however request validation is reorganised.
"""

import pytest

from repro.service import fingerprint, request_from_dict
from repro.service.fingerprint import FINGERPRINT_VERSION

#: Content hash of examples/diamond.dax (8 tasks).
DIAMOND = "8dab7973edf7e91123c579b91a012e6bde6c928663678edb700a7407bc76506a"

CELL = {"family": "genome", "ntasks": 30, "processors": 3, "pfail": 0.01,
        "ccr": 0.5}
MC = {**CELL, "method": "montecarlo"}

PAYLOADS = {
    "pathapprox-default": CELL,
    "normal": {**CELL, "method": "normal"},
    "pathapprox-float-option": {
        **CELL, "evaluator_options": {"k": 8, "rtol": 1e-3},
    },
    "montecarlo-int-option": {**MC, "evaluator_options": {"trials": 2000}},
    "montecarlo-float-option": {
        **MC, "evaluator_options": {"trials": 2000.0},
    },
    "montecarlo-bool-option": {
        **MC, "evaluator_options": {"trials": 2000, "antithetic": True},
    },
    "montecarlo-positional": {
        **MC, "eval_seed_policy": "positional",
        "evaluator_options": {"trials": 500},
    },
    "montecarlo-content": {
        **MC, "eval_seed_policy": "content",
        "evaluator_options": {"trials": 500},
    },
    "spawn-seed-policy": {**CELL, "seed_policy": "spawn", "seed": 7},
    "bandwidth": {**CELL, "bandwidth": 5e7},
    "linearizer": {**CELL, "linearizer": "minlive"},
    "no-final-outputs": {**CELL, "save_final_outputs": False},
    "montage-dodin": {
        "family": "montage", "ntasks": 50, "processors": 5, "pfail": 0.001,
        "ccr": 0.01, "seed": 11, "method": "dodin",
    },
    "workflow-hash": {
        "workflow": DIAMOND, "ntasks": 8, "processors": 2, "pfail": 0.01,
        "ccr": 0.1,
    },
}

DIGESTS = {
    "pathapprox-default":
        "abaa5b0b5ac0c6275254062ac0a673f9ae70b5d6be1dd766b4ceb775b98930d2",
    "normal":
        "fe5c7b51d49cb394911b4ab0ffa62f267df7eeaf38b9334ee255125d5cfcb87f",
    "pathapprox-float-option":
        "bca608ed4499a1db75c5dc2fdb18d50cc020eac7b3543b8f6f01d35422c2eda9",
    "montecarlo-int-option":
        "e53c2f9a2305f65129fbd9356e43826ffab68ac435f30f5d383ccc783c297e2f",
    "montecarlo-float-option":
        "a547f0a1c510e21b39b5dd9d91e98a838422cd69545716db87591a9a1c5c8c1e",
    "montecarlo-bool-option":
        "f28262f7c1b672cb7ff75a285a3c375b564f9ccde7536f5309f4ed6d94f1b581",
    "montecarlo-positional":
        "a9bc86e13b90b567ba1345c870924aa663fc23a26ff94910ff9970607183fcb3",
    "montecarlo-content":
        "1645de43b0d5030966ecf3be0c4ca0177194b1b7f48e30b063a6bf5127ac1fbe",
    "spawn-seed-policy":
        "4ba1c5d879e8235acd6e7f46f70f779607ccc481c6d4f702c3e99c4b69c6d282",
    "bandwidth":
        "3294d1c1675293ca6fe63475f6c64a83f14aacff9f3ec17e0aca2d690873e1e4",
    "linearizer":
        "1329eb163f7c5481e92353f2c8fa0982c9b965c3ff81119de79b088d0178cc47",
    "no-final-outputs":
        "e1c36eb040de23dbd625aafec5fdcd2b9409d75e7b7517aa5a75a9f4befab0c1",
    "montage-dodin":
        "57b48d99b33c69879a8db6cfa83a7207f62173d72a5790de86c30d12fd40a332",
    "workflow-hash":
        "fe6fa6e417b12d6f7337b642a53f64a2a26eb9d78bdca2b383c48cf36a253ea9",
}


def test_schema_version_pinned():
    assert FINGERPRINT_VERSION == 3


@pytest.mark.parametrize("name", sorted(PAYLOADS))
def test_golden_digest(name):
    assert fingerprint(request_from_dict(PAYLOADS[name])) == DIGESTS[name]


@pytest.mark.parametrize(
    "name, spelling",
    [
        ("pathapprox-default", {"ntasks": 30.0, "processors": 3.0}),
        ("pathapprox-default", {"seed": 2017.0, "workflow": None}),
        ("bandwidth", {"bandwidth": 50_000_000}),
        ("spawn-seed-policy", {"seed": 7.0}),
        ("workflow-hash", {"family": "", "ntasks": 8.0}),
    ],
)
def test_equivalent_spellings_share_the_digest(name, spelling):
    """Numeric spellings of one value normalise to the same request."""
    payload = {**PAYLOADS[name], **spelling}
    assert fingerprint(request_from_dict(payload)) == DIGESTS[name]
