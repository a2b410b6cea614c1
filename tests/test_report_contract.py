"""The canonical `verify` report is the behaviour contract.

Each digest is the sha256 of the bytes `invgeom verify --out` writes to its
JSON file: `run_verification`, then `checks_to_json`, then
`dumps_canonical`.  A refactor of the metric code must keep every digest;
a deliberate change of a report is a change of this table.
"""

import hashlib

import numpy as np
import pytest

from invgeom import EtaleAction, build_example, cayley_self_action
from invgeom.fileio import dumps_canonical
from invgeom.report import checks_to_json
from invgeom.verify import run_verification

DIGESTS = {
    ("trivial", 1): "bb5b117266aea8422a3404991de25c1de1518803a81936cc5bcc9d44f414f742",
    ("trivial", 2): "0d38978ba2001f9508b17ee275af1d5ecec7e635b89ff5cf249d5cc0fd1745a2",
    ("trivial", 3): "65264dec456a9b077e4b94fd2bf00a51fc5f2f5282dff8f800da83136cba05fe",
    ("i1", 1): "2f28464bcc0a518ad9ed80b7ae19a8ac75e98e6d674f8b2b2ab025cb031dbb1e",
    ("i1", 2): "9a3b15307aa2bc4a2d735a9d44873c20d1f3298f39307c374c919a745aac68de",
    ("i1", 3): "90ede6f9cb92a93fa189edd02197757e4f0395bf33ed5db95b7e04255220dc7a",
    ("i2", 1): "0be972d6674250927c4309e7987220ab8560b75987cdcd861088ad977b0ec095",
    ("i2", 2): "38fa82bcaafd40f6b36c9ba0fc06174ad072128edea3d29c6897f72200c38a45",
    ("i2", 3): "654aeee327edd92c2d6ffc528988fe5de1b339cff6ecdd8360a728772e6fb420",
    ("i3", 1): "21fade31f5664373bc2f810a8b209cbed09a78b646a079ef9feaa62ea17d48ea",
    ("i3", 2): "eb570ca981f9432930b686c681bcf480a8b92f2bde1529d5afcd3980e85c9023",
    ("i3", 3): "c64f18b17ad02901bd857697a0bd57eb25d763c48a1318f94acb4bfedafeadda",
    ("chain2_z2", 1): "400bad51f0ab98239a440d73981be2fd612b73376c53025595935bd278aeb3eb",
    ("chain2_z2", 2): "f877604c15875c83ee740ecb48f5cd9f98c19e087d36a890eeba0e7b9316801d",
    ("chain2_z2", 3): "8dc252520c6fd5109807ca12c0c74b72905201ba951219dc5ee051fe8dde44b4",
    ("chain3_z3", 1): "f219753e464c523627c45492cbc07f1b348513bcb71ab8137d272294d1d4f4dd",
    ("chain3_z3", 2): "df5579fe590ea16148af6b14e7559ee27a96005cc647c6769daa33cf98d8280e",
    ("chain3_z3", 3): "9e2088882d283e44fc76edbbd5f7b9bf032aeec12f85f5e5ed17265882cc7315",
    ("i4", 1): "d250e345c658f566a21954fba150874fe20d9e48b331d49d149be7add95f5c40",
    ("i5", 1): "ecac36967d054f870cc7f700c0e6e734c5f80a351882a51a973694ad181a2089",
}


# I4 with one act entry changed: action-axioms fails, and every check
# built on the action is skipped.
TAMPERED_DIGEST = "5d29effbe99771f28649f4a266dc3d1c2d0d58199b60052bf9f58e5d1f345edd"


def tampered_i4():
    """I4's self-action with one entry of an idempotent's act column changed.

    An idempotent must act as restriction, so action-axioms fails.
    """
    built = build_example("i4")
    monoid, gens = built.monoid, built.quasi_generators
    action = cayley_self_action(monoid, gens)
    act = np.array(action.act)
    e = next(e for e in monoid.idempotents if e != monoid.identity)
    act[0, e] = (act[0, e] + 1) % monoid.order
    return EtaleAction(monoid=monoid, presheaf=action.presheaf, act=act), gens


def _digest(checks):
    text = dumps_canonical(checks_to_json(checks))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "name,radius", sorted(DIGESTS), ids=[f"{n}-r{r}" for n, r in sorted(DIGESTS)]
)
def test_canonical_report_digest(name, radius):
    built = build_example(name)
    action = cayley_self_action(built.monoid, built.quasi_generators)
    checks, _ = run_verification(action, built.quasi_generators, radius=radius)
    assert _digest(checks) == DIGESTS[(name, radius)]


def test_tampered_report_digest():
    checks, passed = run_verification(*tampered_i4())
    assert not passed
    assert _digest(checks) == TAMPERED_DIGEST
