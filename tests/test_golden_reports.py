"""Golden reports: SHA-256 digests of the JSON reports of nine CLI
commands that the benchmark workloads do not cover.  The first five were
recorded from the code before the evaluation layer moved to a trie walk on
integer numerators, the next two (the skein suite at q = 3 and the m = 5
boundary-arc bracket at the square q = 4) before generator images were
applied inside the walk, the eighth (the minimal disk at m = 6, larger
objects than any other) before the kernel named classes by integer ids,
and the last (the minimal disk at m = 7, about 3.5 s of CPU time on a
2-core x86-64 host) after the product kernel took letters only; a change
to the evaluation route must leave them as they are."""

import hashlib
import json

import pytest

from diskhall.cli import main

GLUED = {"disks": [{"m": 3, "h": [1, 0, 0]}, {"m": 3, "h": [1, 0, 0]}],
         "gluings": [{"left": 0, "arc_i": 3, "right": 1, "arc_j": 1}]}

GOLDEN = [
    (["verify-quiver", "--m", "3", "--shifts", "-1..1", "--q", "3,9"],
     "33e3626fc0a9728d26310730bee3f3ccebb550cfee170d2e91c01dc16122e161"),
    (["multiply", "z[1,0] z[1,0] z[2,0] z[2,0]", "z[1,1] z[2,1] z[1,1] z[2,0]",
      "--m", "3", "--q", "27"],
     "cf32d040b713270e0912b1ad241d2f68a71301265a8522288b190c2f7d8ba5fc"),
    (["presentation", "{config}", "--q", "4", "--shifts", "0..0"],
     "35726a8cd98c841f9207b3af372b37ba38b09abff394958f14fc9afbf5c87c4c"),
    (["multiply", "-3/2 z[(1,3),0] z[2,1]", "5 z[(2,4),-1] z[1,0]", "--m", "4",
      "--q", "2,9"],
     "477fcb15aa62545e3ac49bfa0085bdc3fcc489318495d396810bb1542523a2b0"),
    (["verify-disk", "--m", "4", "--h", "1,0,1,0", "--shifts", "0..1", "--q", "3,4"],
     "7758de4677909191715db4eb55781351922ad4994a08c689ebf61acf014344fe"),
    (["verify-skein", "--shifts", "0..0", "--q", "3"],
     "f5dbf4a9e5709d6f47a2b7eb2dfac4d122308c42b8c80f528dd0aa4fe84cd6c8"),
    (["verify-disk", "--m", "5", "--h", "2,0,1,0,0", "--shifts", "0..0", "--q", "4"],
     "145f8ec637abd0c0af096113eee075096961351d20888070f2e7052664b4ced5"),
    (["verify-disk", "--m", "6", "--h", "1,0,1,0,1,1", "--shifts", "0..0", "--q", "2"],
     "9872a493ec67b48a77dec0cfa4b4615255fecf35b9cbbd00dc7015553aaa4902"),
    (["verify-disk", "--m", "7", "--h", "1,0,1,0,1,1,1", "--shifts", "0..0", "--q", "2"],
     "e421daff01cecb423d5a668451bca313b6c4d4f6fa3c4bb1702dd002467e2351"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[a[0] + str(i) for i, (a, _d)
                                                       in enumerate(GOLDEN)])
def test_report_digest(tmp_path, capsys, argv, digest):
    config = tmp_path / "glued.json"
    config.write_text(json.dumps(GLUED))
    argv = [str(config) if a == "{config}" else a for a in argv]
    assert main(argv + ["--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
