"""The exact payloads, pinned byte for byte.

An exact sequence's manifest and verification JSON, and an exact range
check's JSON, hold only integers, rational strings and fixed floats (the
tolerance), so their bytes are the same on every Python; a change that
moves one byte of them changes the file format, a verdict or an exact
jet.
"""

import hashlib
import json

import pytest

from densepde.construct import DensePointStream, construct_sequence
from densepde.jets import parse_pde_text
from densepde.manifest import sequence_from_json, sequence_to_json
from densepde.ranges import range_condition_check
from densepde.systems import lewy_operator
from densepde.verify import verify_solution

POISSON = """dim: 2
vars: x y
order: 2
domain: (0,1) (0,1)
eq: u_xx + u_yy - 1 - x*y
"""

# name -> (operator, schedule, manifest digest, verification digest)
PINNED = {
    "poisson-12": (
        lambda: parse_pde_text(POISSON), (1,) * 12,
        "8c9e2beae8eda6acbd52c91b8fae4520f4fecc7472c066d7abf39a5b370f9c27",
        "abda160782561fc65fdfa5382161fb610205b8734b47ccf1407700ca97d3e981",
    ),
    "poisson-48": (
        lambda: parse_pde_text(POISSON), (1,) * 48,
        "a661d681aa95b633ebd3d3904fbb3a79af3668baa5a449536f712a1b44a823a6",
        "84c7c0c76984b2469e1600349c9d137ab91ee85f919627ef8d5bb871216080a2",
    ),
    "lewy-0122": (
        lewy_operator, (0, 1, 2, 2),
        "aa77d270150907992913d5176288efe14f1f236cf368b56dbb7ed04060bbb141",
        "8d88346be9f3f3f8ae1a4953f0d8dd40d68cc6b335d53917cc21ab942c6d990e",
    ),
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_exact_payload_digests(name):
    build, schedule, manifest_digest, verification_digest = PINNED[name]
    op = build()
    points = DensePointStream(op.domain).prefix(len(schedule))
    seq = construct_sequence(op, points, schedule)
    manifest = json.dumps(sequence_to_json(seq), indent=2, sort_keys=True)
    loaded = sequence_from_json(json.loads(manifest))
    assert json.dumps(sequence_to_json(loaded), indent=2, sort_keys=True) == manifest
    verification = json.dumps(verify_solution(op, loaded).to_json(), indent=2, sort_keys=True)
    assert json.dumps(verify_solution(op, seq).to_json(), indent=2, sort_keys=True) == verification
    assert json.loads(verification)["arithmetic"] == "exact"
    assert (digest(manifest), digest(verification)) == (manifest_digest, verification_digest)


# the seed-0 lewy-deep benchmark: (range JSON of its 2 points to level 5,
# manifest of schedule 3, 4, 5)
LEWY_DEEP = (
    "b1e6ca4ee08630f681d27eee4e9015ed806ffe7d73a8d57969f1de220396e22e",
    "6d02edf06acee09cd2b4ee9b6f17290b056b2fe7e1842764aab7d4e8aa96e6b0",
)


def test_lewy_deep_payload_digests():
    op = lewy_operator()
    points = DensePointStream(op.domain).prefix(3)
    report = range_condition_check(op, points[:2], 5).to_json()
    seq = construct_sequence(op, points, (3, 4, 5))
    assert report["all_ok"] and seq.exact
    payloads = (report, sequence_to_json(seq))
    assert tuple(digest(json.dumps(p, indent=2, sort_keys=True)) for p in payloads) == LEWY_DEEP


@pytest.mark.parametrize("name", ["poisson-12", "poisson-48"])
def test_poisson_verification_is_exact_in_every_entry(name):
    # the witness scan reads an earlier stage at a later point only until
    # the point's witness is located, so it meets no transition annulus,
    # where auto mode would evaluate a bump in float
    build, schedule = PINNED[name][:2]
    op = build()
    seq = construct_sequence(op, DensePointStream(op.domain).prefix(len(schedule)), schedule)
    result = verify_solution(op, seq)
    assert result.passed and result.arithmetic == "exact"
    assert [report.arithmetic for report in result.reports] == ["exact"]
    assert all(entry.exact for report in result.reports for entry in report.entries)
