"""Exact output pins for the traceroute-corpus simulator.

The simulator (AS graph, route selection, forwarding expansion and the
traceroute campaign) must reproduce the same random-number call sequence no
matter how it is implemented, so the corpus it draws and the pipeline
outcome inferred from that corpus are pinned here as sha256 digests.  The
hashing is the one the end-to-end benchmark prints (``perfbench/workloads.py``
``corpus_digest`` / ``outcome_digest``), so the values below can be compared
with its ``corpus_sha256`` / ``outcome_sha256`` lines.

An intended change to the simulated world or its RNG streams edits these
constants in one reviewed place; anything else that moves them is drift.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.config import ExperimentConfig
from repro.study import RemotePeeringStudy

#: (scale, seed) -> (corpus sha256, outcome sha256).
PINS = {
    ("tiny", 7): (
        "f15a3431c2080691d9b32bc93bf5f24df35e729b671c3d251265e215af4b711a",
        "3ead46427d35deb1e02bf9a459de5d969aff79ef9346998bfc5352b430b4edb3",
    ),
    ("small", 11): (
        "7faed8a4bd9e922cc36e10768e5791c87c7f0ce3bab89601731af5a6236870aa",
        "27be78cb1599bb62d9fbfa57f23e091d43884c74e059094b400b54f5d9f6efe8",
    ),
}

#: Corpus sha256 and path count at paper scale (``ExperimentConfig()``).
PAPER_CORPUS_SHA256 = "0d9dfa238fef02455f51903701f91234e076bc3bd5e7231503b17c33dab2f838"
PAPER_CORPUS_PATHS = 23_135


def corpus_digest(corpus) -> str:
    """sha256 over every path and hop of a traceroute corpus."""
    digest = hashlib.sha256()
    for path in corpus.paths:
        digest.update(repr((path.source_asn, path.destination_asn, path.destination_ip)).encode())
        for hop in path.hops:
            digest.update(repr((hop.ip, hop.asn, hop.rtt_ms, hop.is_ixp_lan, hop.ixp_id)).encode())
    return digest.hexdigest()


def _report_rows(report):
    return [
        (key, result.asn, result.classification.value,
         None if result.step is None else result.step.value)
        for key, result in sorted(report.results.items())
    ]


def outcome_digest(outcome) -> str:
    """sha256 over both reports' classifications and the traceroute observables."""
    payload = (
        _report_rows(outcome.report), _report_rows(outcome.baseline_report),
        len(outcome.crossings), len(outcome.private_adjacencies),
        len(outcome.multi_ixp_routers),
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()


@pytest.mark.parametrize(("scale", "seed"), sorted(PINS))
def test_corpus_and_outcome_are_pinned(scale, seed):
    study = RemotePeeringStudy(getattr(ExperimentConfig, scale)(seed=seed))
    corpus_sha, outcome_sha = PINS[(scale, seed)]
    assert corpus_digest(study.traceroute_corpus) == corpus_sha
    assert outcome_digest(study.outcome) == outcome_sha


def test_paper_scale_corpus_is_pinned():
    study = RemotePeeringStudy(ExperimentConfig())
    corpus = study.traceroute_corpus
    assert len(corpus.paths) == PAPER_CORPUS_PATHS
    assert corpus_digest(corpus) == PAPER_CORPUS_SHA256
