"""The DOT text of `invgeom graph` is a contract, like the verify report.

Each digest is the sha256 of the file `invgeom graph --out` writes, for
one bundled example, one input file (its emitted action file or table
file) and one graph.  The action file brings its own quasi-generators; a
table file has none, so every element is a generator.  A refactor of the
graph code must keep every digest.
"""

import hashlib

import pytest

from invgeom.cli import main

GRAPHS = {
    "cayley": ["--kind", "cayley"],
    "schutzenberger": ["--kind", "schutzenberger"],
    "schutzenberger-c1": ["--kind", "schutzenberger", "--component", "1"],
    "rips-r1": ["--kind", "rips", "--radius", "1"],
    "rips-r2": ["--kind", "rips", "--radius", "2"],
    "rips-r3/2": ["--kind", "rips", "--radius", "3/2"],
}

DIGESTS = {
    ("i2", "action", "cayley"): "34a5c16c42131fb1d3dd81c09afcdb3f8287b91c861b88c2eb7786bb807460af",
    ("i2", "action", "schutzenberger"): "1c90e6c08c24942f1558b8cb59e51aee05aeff06bcaa6af1e93cbadaaec2617d",
    ("i2", "action", "schutzenberger-c1"): "18f4e18fc0c4a73375376c8a2078f1a8e027e3d5b606cc5c991d275f1aa5487d",
    ("i2", "action", "rips-r1"): "05647311689921d60f2aca0dce4542386d37a1c69bcb10a9abccd52d2dccc209",
    ("i2", "action", "rips-r2"): "b32a70c9696dea9d60a3a409d55dc8f971e35230d36c578ec8c863a54bfed548",
    ("i2", "action", "rips-r3/2"): "37dad9472fba87f2941176771a8de8f85fa42508790a160a98dc0682b2be19df",
    ("i2", "monoid", "cayley"): "be35e1327649c89d5184f88a618b8d46a5af74ad3d1e2add9a31f871f5e8507f",
    ("i2", "monoid", "schutzenberger"): "1c90e6c08c24942f1558b8cb59e51aee05aeff06bcaa6af1e93cbadaaec2617d",
    ("i2", "monoid", "schutzenberger-c1"): "bb54f92eebef2e5f432942df42cc5a3d8e93d0f8a2ada173b1ccc0a116ca21a7",
    ("i2", "monoid", "rips-r1"): "05647311689921d60f2aca0dce4542386d37a1c69bcb10a9abccd52d2dccc209",
    ("i2", "monoid", "rips-r2"): "b32a70c9696dea9d60a3a409d55dc8f971e35230d36c578ec8c863a54bfed548",
    ("i2", "monoid", "rips-r3/2"): "37dad9472fba87f2941176771a8de8f85fa42508790a160a98dc0682b2be19df",
    ("i3", "action", "cayley"): "e7509eafeba43de033f8b6cc2744cc74d2e7d51e0b08b58428aaf0fb14360474",
    ("i3", "action", "schutzenberger"): "1d9fc5ae889ce527165426086df4ee52cb1ef61d3e72a0a3d02dc283565048b8",
    ("i3", "action", "schutzenberger-c1"): "e02e76f7b03a14c83891bbe57b972800341889529be06e39619057ef8838fd05",
    ("i3", "action", "rips-r1"): "cfbd5517ff060820b1aa391cfbe79546b7d9a3db646344eeb0e136039d54492e",
    ("i3", "action", "rips-r2"): "d507458619a35c2226ad13a4d82454700b297c8952883fa743ab61e59abb6ef2",
    ("i3", "action", "rips-r3/2"): "a1a5543f7b01a472c21f176ee870494e11324c861e6660b43d41d838aae78339",
    ("i3", "monoid", "cayley"): "626542176ca71ab022fac1099dd6374c0e10e87203e3c4e509e627be141f5482",
    ("i3", "monoid", "schutzenberger"): "bcd83554593b569d5c08f655236a00c2e321311d0261d2d03d35cba5d4605933",
    ("i3", "monoid", "schutzenberger-c1"): "f745ab0f52a5ec4aff39bda36028c4e7bb85d7cffc3f9531b8187ae034ff3568",
    ("i3", "monoid", "rips-r1"): "325125c41ca50530b65754ea1cf1dbd933f39a0792127719dc4c3c2360d45b91",
    ("i3", "monoid", "rips-r2"): "d507458619a35c2226ad13a4d82454700b297c8952883fa743ab61e59abb6ef2",
    ("i3", "monoid", "rips-r3/2"): "82117af39dbca77a46e8e256652426a8c6f6d56a9c7749d146c225f73dffac59",
    ("chain3_z3", "action", "cayley"): "13c3956fccbdaf621ff93e2a927a01c6e8616892c1e0745d3c2053e50db56154",
    ("chain3_z3", "action", "schutzenberger"): "2617dad8a2a9db944378d1056e615978d277269c3103063eaf265e5fd327073b",
    ("chain3_z3", "action", "schutzenberger-c1"): "24db7c2af222a4538a4cb896c18c35f42c48ff31b110320b62ad2168ac0ec8a6",
    ("chain3_z3", "action", "rips-r1"): "5e1f80dd8c7ef8174dd00e8ea84ccf4d0f8ec8e0a7ec3173e93723ba25a9cd81",
    ("chain3_z3", "action", "rips-r2"): "04c88e41b51c80f9e019824dba26ed5b73496dcbc18790afa5da8f58264c0fc4",
    ("chain3_z3", "action", "rips-r3/2"): "6bf764055e910df6f5cdd13f66aa64ff545f9cad6b1dc4b7e3519aeac3f91299",
    ("chain3_z3", "monoid", "cayley"): "8250a3589528f876180ca851c5bbbdfd5140980eb7990e3bfd7017d5616629fc",
    ("chain3_z3", "monoid", "schutzenberger"): "2617dad8a2a9db944378d1056e615978d277269c3103063eaf265e5fd327073b",
    ("chain3_z3", "monoid", "schutzenberger-c1"): "8d985b68acd2c0bdcbd48a71515d0b521ece857494c53e1ffe2a0693170efa9f",
    ("chain3_z3", "monoid", "rips-r1"): "5e1f80dd8c7ef8174dd00e8ea84ccf4d0f8ec8e0a7ec3173e93723ba25a9cd81",
    ("chain3_z3", "monoid", "rips-r2"): "04c88e41b51c80f9e019824dba26ed5b73496dcbc18790afa5da8f58264c0fc4",
    ("chain3_z3", "monoid", "rips-r3/2"): "6bf764055e910df6f5cdd13f66aa64ff545f9cad6b1dc4b7e3519aeac3f91299",
}


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    out = tmp_path_factory.mktemp("emitted")
    for name in sorted({name for name, _, _ in DIGESTS}):
        assert main(["examples", "emit", name, "--out-dir", str(out)]) == 0
    return out


@pytest.mark.parametrize(
    "name,kind,graph", sorted(DIGESTS), ids=["-".join(k) for k in sorted(DIGESTS)]
)
def test_graph_dot_digest(emitted, tmp_path, capsys, name, kind, graph):
    dot = tmp_path / "g.dot"
    args = ["graph", "--input", str(emitted / f"{name}.{kind}.json"), "--out", str(dot)]
    assert main(args + GRAPHS[graph]) == 0
    assert hashlib.sha256(dot.read_bytes()).hexdigest() == DIGESTS[(name, kind, graph)]
