"""A model-based test of a space's lifecycle: build, update and save->load in any order.

After every step the space is compared with a plain model: ``Counter``
corpus counts, the vocabulary as the union of each stage's significant set
(in the order the space appends it), and each term's context events and
sum from a plain-loop replay of every stage, with seeds from
``seed_vector``. A save->load->save must give the same bytes twice, and
each term's ``neighbors`` must equal a full sort of scores worked out from
its ``term_vector`` sums.
"""

import shutil
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from oracles import by_rank, scores
from risp import IngestConfig, SpaceConfig, build, load_index, save_index, update
from risp.errors import ZeroVectorError
from risp.seeds import seed_vector

WORDS = ("mantle", "flask", "stirrer", "condenser", "apples", "oranges", "market", "crates")
DIM = 16

stages = st.lists(
    st.lists(st.sampled_from(WORDS), max_size=12).map(" ".join),
    max_size=6,
)


class Lifecycle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.space = None
        self.workdir = Path(tempfile.mkdtemp(prefix="risp-lifecycle-"))

    def teardown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- the model ------------------------------------------------------

    def _fold(self, docs):
        """Count a stage, then replay its windows over the stage's significant set."""
        for doc in docs:
            tokens = doc.split()
            self.total.update(tokens)
            self.docs.update(set(tokens))
        self.n_docs += len(docs)
        cfg = self.ingest
        active = {t for t, n in self.total.items()
                  if n >= cfg.min_count and self.docs[t] / self.n_docs <= cfg.max_doc_frequency}
        self.terms += sorted(active - set(self.terms))
        radius = self.config.radius
        for doc in docs:
            tokens = doc.split()
            for pos, term in enumerate(tokens):
                if term not in active:
                    continue
                for other in range(max(0, pos - radius), min(len(tokens), pos + radius + 1)):
                    if other != pos and tokens[other] in active:
                        self.context[term][tokens[other]] += 1

    # -- rules ----------------------------------------------------------

    @rule(docs=stages, window=st.sampled_from((3, 5)), min_count=st.integers(1, 3),
          max_doc_frequency=st.sampled_from((0.3, 0.5, 1.0)))
    def build_from_a_stage(self, docs, window, min_count, max_doc_frequency):
        self.ingest = IngestConfig(min_count=min_count, max_doc_frequency=max_doc_frequency)
        self.config = SpaceConfig.create(dim=DIM, window=window)
        self.space = build(docs, self.ingest, self.config)
        self.total, self.docs, self.n_docs = Counter(), Counter(), 0
        self.terms = []
        self.context = {w: Counter() for w in WORDS}
        self.loaded = False
        self._fold(docs)

    @precondition(lambda self: self.space is not None)
    @rule(docs=stages)
    def update_with_a_stage(self, docs):
        update(self.space, docs)
        self._fold(docs)

    @precondition(lambda self: self.space is not None)
    @rule()
    def save_and_load(self):
        first, second = self.workdir / "first.risp", self.workdir / "second.risp"
        save_index(self.space, first)
        self.space = load_index(first)
        save_index(self.space, second)
        assert second.read_bytes() == first.read_bytes()
        self.loaded = True

    # -- the comparison -------------------------------------------------

    @invariant()
    def space_matches_the_model(self):
        space = self.space
        if space is None:
            return
        assert space.freq.total == self.total
        assert space.freq.docs == self.docs
        assert space.freq.total_docs == self.n_docs
        assert space.terms() == self.terms
        # Relative to the largest component; a load rounds every sum to float32.
        tolerance = 1e-6 if self.loaded else 1e-12
        for term in self.terms:
            record = space.term_vector(term)
            context = self.context[term]
            assert record.frequency == self.total[term]
            assert record.doc_count == self.docs[term]
            assert record.context_events == sum(context.values())
            want = np.zeros(DIM)
            for other, n in context.items():
                want += n * seed_vector(other, self.config.seed_scheme)
            scale = 1.0 + float(np.abs(want).max())
            np.testing.assert_allclose(record.sum, want, rtol=0, atol=tolerance * scale)

    @invariant()
    def neighbors_match_a_full_sort_of_the_sums(self):
        """A unit cache that outlives a build, update or load ranks stale sums."""
        if self.space is None:
            return
        for term in self.space.terms():
            if not self.space.term_vector(term).sum.any():
                with pytest.raises(ZeroVectorError):
                    self.space.neighbors(term, 3)
                continue
            assert self.space.neighbors(term, 3) == by_rank(scores(self.space, term))[:3]


Lifecycle.TestCase.settings = settings(max_examples=150, stateful_step_count=8, deadline=None)
TestLifecycle = Lifecycle.TestCase
