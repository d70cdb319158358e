"""Golden CLI output: the sha256 of (exit code, stdout, stderr) per command.

Any change to what a command prints or how it exits changes a digest
here.  When an output change is intended, print the new digests with

    PYTHONPATH=src python tests/test_golden_cli.py

and paste them over GOLDEN, so the change shows up as one reviewed diff.
"""

import contextlib
import hashlib
import io
import json

import pytest

from anum.cli import main

FORMATS = ("markdown", "csv", "json")

INVOCATIONS = (
    *(("formula", "-p", p, "-d", d, "-r", r, "--format", fmt)
      for p, d, r in (("5", "4", "2"), ("13", "6", "5"), ("7", "6", "4"))
      for fmt in FORMATS),
    ("formula", "-p", "31", "-d", "30", "-r", "100", "--format", "json"),
    # N_r = 1 and an odd gamma digit period (9): table entries below the
    # delay, and a claimed period of twice the digit period
    ("formula", "-p", "5", "-d", "4", "-r", "46", "--format", "json"),
    # gamma's numerator is the prime 22125996444329, which divides 5^29 - 1:
    # the order behind L is taken by trial division near 4.7 * 10^6
    ("formula", "-p", "5", "-d", "4", "-r", "11062998222163", "--format",
     "json"),
    *(("delta-table", *pd, "--format", fmt)
      for pd in (("-p", "5", "-d", "4"),
                 ("-p", "13", "-d", "12", "--i-max", "40"))
      for fmt in FORMATS),
    *(("sweep", "--p-list", "5,7", "--r-max", "6", "--format", fmt)
      for fmt in FORMATS),
    ("sweep", "--p-list", "5", "--r-max", "0"),
    ("sweep", "--p-list", "13", "--d-mode", "list:4,12", "--r-max", "6"),
    ("compute", "-p", "5", "-d", "4", "-r", "2", "-n", "8"),
    ("compute", "-p", "5", "-d", "4", "-r", "2", "-n", "7000", "--method",
     "brute"),
    ("compute", "-p", "5", "-d", "4", "-r", "46", "-n", "2"),
    ("verify", "-p", "7", "-d", "6", "-r", "4"),
    ("verify", "-p", "3", "-d", "2", "-r", "1"),
)

GOLDEN = {
    'formula -p 5 -d 4 -r 2 --format markdown':
        '69b44fefbb50f0c92d146e9eea189314f07f5e0f508e0a56ca8840a1e68af060',
    'formula -p 5 -d 4 -r 2 --format csv':
        '25826b25ca300b27c6bfb755099b78a4de57748745c13f3e9cf0ef082d16a56e',
    'formula -p 5 -d 4 -r 2 --format json':
        '3b00550bfbb66517f27861c5ad5de2500485d30d40304946075961b8efe8c7b7',
    'formula -p 13 -d 6 -r 5 --format markdown':
        '8011c4fc7b67381e5368377f6b9956669f2f33a698b527279f3eb5439f13b958',
    'formula -p 13 -d 6 -r 5 --format csv':
        'cceef963967337d1c932dc82c79ffe2526adec18ae2caf5f78cf77501f96da81',
    'formula -p 13 -d 6 -r 5 --format json':
        '89ad02d420ff148e5d6a7e4eae01bf054da56b9b1a4aacc8280f763e3c3b49eb',
    'formula -p 7 -d 6 -r 4 --format markdown':
        '10c8cc8cdb1f9260af3c1d36e334cdd974f9ee2cf324920319bd5f94aa42234e',
    'formula -p 7 -d 6 -r 4 --format csv':
        'bb4f0410b6c9ab24fb0bdaf1d1bf694459e1f1e2577c79bddfb30f1855d240db',
    'formula -p 7 -d 6 -r 4 --format json':
        '14e4f72b63895fd36f9ff986ef2f267a21843b2ac3e54bb816be7e074339182a',
    'formula -p 31 -d 30 -r 100 --format json':
        'cad3945d4cf318f49285e91f8a9c69b298f02fbb08daf4c9ff6c8bf3dde6bbaa',
    'formula -p 5 -d 4 -r 46 --format json':
        'c3041c1aa73dfa4451a3c2eb065eee40650167b5d38277767fae9c46b4d69e98',
    'formula -p 5 -d 4 -r 11062998222163 --format json':
        'b07b1b5c1d5c298f3aee3af42a585e902493a45af0e63dbe0e5dd6ac0f1d9413',
    'delta-table -p 5 -d 4 --format markdown':
        '226d3c3e8ace66fe798b9d6324bcc34388cf37ab7a62d7c8aa85eda13e3849ea',
    'delta-table -p 5 -d 4 --format csv':
        '5ddb7853d7e7e2799ceaacbb40dde67a20a0379410bb08e7f6d619554727458a',
    'delta-table -p 5 -d 4 --format json':
        '099645e38fd79849c8c4dfeb78907fc4679573e9bdfdd454f5b5f9ac52d4b50a',
    'delta-table -p 13 -d 12 --i-max 40 --format markdown':
        '45d7d841e264ab07b6f4a4899141db55f61b6bb4127f2b343ace6557b6cd5330',
    'delta-table -p 13 -d 12 --i-max 40 --format csv':
        '35f4cfaa0991ec27e75b9d02772dd15c9be6a7b8b86cbefea4139ff2a7e41117',
    'delta-table -p 13 -d 12 --i-max 40 --format json':
        'da3c4b6a8508f19cb24ab14f1302649d5824717dca4fda89e122e45616ebbc5f',
    'sweep --p-list 5,7 --r-max 6 --format markdown':
        '4f403505ff9605ee40d103d8607d5edfe6611e821552870a8962a15a9f2e65eb',
    'sweep --p-list 5,7 --r-max 6 --format csv':
        'da6b6b35119cd45e39b8cdbcc52b4201fa140363f453ad6d437f9407052bac09',
    'sweep --p-list 5,7 --r-max 6 --format json':
        '89252403368d367302f6735ec01a2ee1dd53849acebe19d12a2537e51e2365c3',
    'sweep --p-list 5 --r-max 0':
        'd0c5097743004484a6a117eccf8246e63580ee1daf4ad4d420174a7743ce4ac7',
    'sweep --p-list 13 --d-mode list:4,12 --r-max 6':
        'ee2e3a8b5593a126f9f3f06cb6b31e7f8321557438df7badbf6cc0b110883330',
    'compute -p 5 -d 4 -r 2 -n 8':
        'b7b5c451ac84a549f5440fb7ff33dfdbabc7645d29b3e73635c2137bcd9bb7e2',
    'compute -p 5 -d 4 -r 2 -n 7000 --method brute':
        '96f8ce461876bdc3d48828bff5ad527e8cad4f18790b4b5006a92f5ab3310cc7',
    'compute -p 5 -d 4 -r 46 -n 2':
        'fae136fbffb892b1307cd081033ffb55907a7efe20eda0267b3ed5d3a2ea327f',
    'verify -p 7 -d 6 -r 4':
        '6fa51eb650f0e9ece7081735a045e41ea202f00a14fd7e17ea255d82373f0164',
    'verify -p 3 -d 2 -r 1':
        'd5d0e4a999c51f7d8daea22f7073f9ecd705cccc64540d6c2ee8386c34453cf7',
}


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv", INVOCATIONS, ids=" ".join)
def test_golden_cli(argv):
    assert digest(argv) == GOLDEN[" ".join(argv)]


if __name__ == "__main__":
    for argv in INVOCATIONS:
        print(f"    {' '.join(argv)!r}:\n        {digest(argv)!r},")
