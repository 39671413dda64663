"""The exact-integer layer and the disk scan give the same bits as the
double-loop kernels and the per-call pair draws they replaced.

Each digest is the sha256 of one output for the nine degree-3 vectors
{1, 2, 3}^2 at the benchmark's sizes (L = 60, an 8 x 64 table, 64 terms of
1/Q'), recorded from those earlier kernels. Integers and correctly rounded
doubles do not depend on the machine; the roots of Q' in the disk report
come from LAPACK eigenvalues polished by Newton, so that digest also pins
the numpy build.
"""

import hashlib
import itertools
import json

import pytest

from convlab import (
    CoeffVector,
    build_poly,
    disk_scan,
    iterate_table,
    lagrange_inverse,
    limit_series,
    reciprocal_qprime,
)

OUTPUTS = {
    "iterate_table": lambda c: json.dumps(iterate_table(c, 8, 64).to_json(), sort_keys=True),
    "limit_series": lambda c: repr(limit_series(c, 60).c),
    "lagrange_inverse": lambda c: repr(lagrange_inverse(c, 60).c),
    "reciprocal_qprime": lambda c: repr(reciprocal_qprime(c, 64)),
    "disk_scan": lambda c: json.dumps(disk_scan(build_poly(c)).to_json(), sort_keys=True),
}

# limit_series and lagrange_inverse give the same integers, hence one digest
DIGESTS = {
    "iterate_table": "a045c76c4d08abed3966f22abe2ea094e28494b0c03d0857738799454b7482a3",
    "limit_series": "c31e2fd6afb3f023a134c5ebc4ac70c38594c1003d7877349f5fa8183c3a8947",
    "lagrange_inverse": "c31e2fd6afb3f023a134c5ebc4ac70c38594c1003d7877349f5fa8183c3a8947",
    "reciprocal_qprime": "302b7353528f753ed8fc12ec3e01407d6492a9b249be4b295a3ac14dc85b959c",
    "disk_scan": "eff295273e16e9dd296e715cb4e8b0a65e20ed66ee3ef1f0692afe4c6df0d9fd",
}


@pytest.mark.parametrize("name", OUTPUTS)
def test_digest(name):
    vectors = [CoeffVector(a) for a in itertools.product((1, 2, 3), repeat=2)]
    text = "\n".join(OUTPUTS[name](c) for c in vectors)
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]
