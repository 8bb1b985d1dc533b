"""``ftop --format json verify`` reports, pinned by their sha256.

The campaigns are larger than the golden ``verify`` cases, so their
stdout is pinned as a digest rather than kept as a file.  A change that
keeps every verdict and every output byte keeps these digests; a change
to the report format, or to what a seed draws, must update them here,
with the reason.  The test imports only the ``ftop`` package, so it also
runs against an installed copy, outside the checkout.
"""

import hashlib

import pytest

from ftop.cli import main

# (seeds, universe size, grid) -> sha256 of the JSON report.  The maps of
# (100, 3, 3) reach all four continuity quadruples, strongest first: TTTT 25,
# FTTT 12, FFTT 5 (somewhat continuous, not semicontinuous) and FFFF 58.
VERIFY_DIGESTS = {
    (100, 3, 3): "fbe177ae6aa6ce8f80d06b4b2daf0c59ddf8daf70122246a12c02c93a8fdbea3",
    (20, 4, 4): "dc09c988b277a13a19b22baa24b2b909b44ec841e87585a13d943652d96d6150",
    (20, 5, 4): "4b2120ded74990f563433959b708d640ce17531c0f570686a13b479625540089",
    (50, 3, 3): "32a4598e1e5a94526ae5e8c0d1e7877194ddb9604c9ebf65b3cd9df320eb2784",
    (5, 6, 5): "d1e7cb2d9402d02016c3d57824f9a0949260a828beb64638f2f8444d625274ee",
}


@pytest.mark.parametrize("seeds, size, grid", sorted(VERIFY_DIGESTS))
def test_verify_report_digest_is_unchanged(seeds, size, grid, capsys):
    argv = ["--seeds", str(seeds), "--universe-size", str(size), "--grid", str(grid)]
    assert main(["--format", "json", "verify", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_DIGESTS[seeds, size, grid]
