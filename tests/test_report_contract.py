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
    ("trivial", 1): "d29f233739ae8f1a8095b885489bd0311fa6b1e4d96d4779704fa7b776fcd17f",
    ("trivial", 2): "e6fd01ed09f4224c639adb219e4535ee5a0fb4768b8bf1865949bb58a82d1889",
    ("trivial", 3): "43462b0ce6da2550db87bdcbd611b992af93ce1eb5ab95ee49d608b195e980b4",
    ("i1", 1): "d0795b87025a001c1e13e434fabd3d2c7ace823509c3a2cd76fadec87d6a1f93",
    ("i1", 2): "3a78ebe119b6c3b406552878da00450ac3536ff92ef45cc055d6ee1d49738808",
    ("i1", 3): "5d469e498db561f0673648bad9fa767593de66e26248883920f97f0f3a665f6d",
    ("i2", 1): "27d6bd680e1134a7de25c24afcb5398f07b085ad4cc55d3a404086e110c4d8fb",
    ("i2", 2): "f982219b44ee87ea8ef54201cd49375c40a6885d715128d37cb1291cc53514ba",
    ("i2", 3): "d08b6bd94c1b3c58733dcf40a7cefacca56fe53ab9f0282d277ff27444597c0b",
    ("i3", 1): "afd2814748c5eee40c336bc0e439359eaab64afcd80e28a2377a02434453934b",
    ("i3", 2): "898aaa9faabfad97a987c3ae33fa1b212dda623414b3789aabda01cf7b889369",
    ("i3", 3): "310091eb74d4d97dfdb43d0ab637a2e2ae934156128107f44271a8bd9526c282",
    ("chain2_z2", 1): "f7a423653f774650f77d3567938e3b46180c9dc21baef56d1d6e1ceb452e9816",
    ("chain2_z2", 2): "05857af94cd715a09465cec80a08be6022d20d4973ce4151eedb56cb632eaf3c",
    ("chain2_z2", 3): "dcfac3a5eb0610824f021bbf45d8d48dfd3b2bb0be55958d23ffb4e8f8986809",
    ("chain3_z3", 1): "5a3b50b035218873a7c446f680f890fcbd1c0f0bdd12ee10cdf9b1a3970e8abd",
    ("chain3_z3", 2): "1e4d79475e75f24f49503c5441b7f83cdcd72ea8cc292ddc4e64d665d1456c7f",
    ("chain3_z3", 3): "7f617a1accf48852552921e614254e7f732b7c3ec84a32306781a251eacadd15",
    ("i4", 1): "950309d2fd69562aa888c7dfb69073a25d8d2c6f3b6097d723476cb2d0a4afd4",
    ("i5", 1): "6193679de23597f16dc35cb15efca5a7ae402a03e2e5fe7827879dd510a9a979",
}


# I4 with one act entry changed: action-axioms fails, and every check
# built on the action is skipped.
TAMPERED_DIGEST = "bb134b03781dd33e0ab3e895131932564483123c6b1e09c191b1fc9f3cc2c733"


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
