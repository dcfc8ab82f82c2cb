"""Binary index round trips, checksums, and corruption detection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risp import IngestConfig, SemanticSpace, SpaceConfig, build, update
from risp.errors import IndexChecksumError, IndexFormatError, IndexTruncatedError
from risp.ingest import significant_terms
from risp.seeds import GAUSSIAN, TERNARY
from risp.storage import crc64, load_index, save_index

# "rare" appears once, below min_count, so the index carries a tail entry.
DOCS = [
    "mantle flask stirrer mantle flask",
    "flask mantle stirrer stirrer flask",
    "stirrer mantle flask rare mantle",
]
CFG = IngestConfig(min_count=3, max_doc_frequency=1.0)


def make_space(dim=16):
    return build(DOCS, CFG, SpaceConfig.create(dim=dim))


class TestCrc64:
    def test_known_check_value(self):
        assert crc64(b"123456789") == 0x995DC9BBDF1939FA

    def test_empty_input(self):
        assert crc64(b"") == 0

    @given(st.binary(max_size=64), st.binary(max_size=64))
    @settings(max_examples=100)
    def test_chaining_matches_one_shot(self, a, b):
        assert crc64(b, crc=crc64(a)) == crc64(a + b)

    @given(st.binary(min_size=1, max_size=64), st.data())
    @settings(max_examples=100)
    def test_any_single_bit_flip_changes_the_checksum(self, data, draw):
        bit = draw.draw(st.integers(min_value=0, max_value=len(data) * 8 - 1))
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        assert crc64(bytes(flipped)) != crc64(data)


class TestRoundTrip:
    def test_everything_survives_a_round_trip(self, tmp_path):
        space = make_space()
        path = tmp_path / "space.risp"
        save_index(space, path)
        loaded = load_index(path)

        assert loaded.terms() == space.terms()
        assert np.array_equal(loaded._sums, space._sums.astype("<f4").astype(np.float64))
        assert np.array_equal(loaded._events, space._events)
        assert loaded.freq == space.freq
        assert loaded.docs_ingested == space.docs_ingested
        assert loaded.config == space.config
        assert loaded.ingest_config == space.ingest_config

    def test_distribution_codes_round_trip(self, tmp_path):
        path = tmp_path / "space.risp"
        for name in (GAUSSIAN, TERNARY):
            config = SpaceConfig.create(dim=16, distribution=name)
            save_index(SemanticSpace(config), path)
            assert load_index(path).config == config
        data = bytearray(path.read_bytes())
        data[17] = 9  # magic, version, dim, window, reserved byte, then the code
        path.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError) as err:
            load_index(path)
        assert "distribution" in str(err.value)

    def test_a_gaussian_scheme_keeps_a_ternary_k_of_0(self, tmp_path):
        config = SpaceConfig.create(dim=16, ternary_nonzeros=0)
        path = tmp_path / "space.risp"
        save_index(build(DOCS, CFG, config), path)
        assert load_index(path).config == config

    def test_counts_survive_a_drift_out_of_significance(self, tmp_path):
        # "mantle" is in one of four documents, then in every document of the
        # update: it crosses max_doc_frequency and stops accumulating, while
        # the frequency table keeps counting it.
        cfg = IngestConfig(min_count=1, max_doc_frequency=0.5)
        space = build(["mantle flask", "stirrer rod", "clamp tube", "funnel cork"],
                      cfg, SpaceConfig.create(dim=8))
        update(space, ["mantle stirrer mantle", "mantle clamp", "mantle funnel"])
        assert "mantle" in space
        assert "mantle" not in significant_terms(space.freq, cfg)
        path = tmp_path / "space.risp"
        save_index(space, path)
        loaded = load_index(path)
        assert loaded.freq == space.freq
        assert loaded.freq.total_count("mantle") == 5
        assert loaded.term_vector("mantle").frequency == space.term_vector("mantle").frequency == 5

    def test_tail_counts_survive(self, tmp_path):
        space = make_space()
        path = tmp_path / "space.risp"
        save_index(space, path)
        loaded = load_index(path)
        assert "rare" not in loaded
        assert loaded.freq.total_count("rare") == 1
        assert loaded.freq.doc_count("rare") == 1

    def test_save_load_save_is_byte_identical(self, tmp_path):
        space = make_space()
        first = tmp_path / "a.risp"
        second = tmp_path / "b.risp"
        save_index(space, first)
        save_index(load_index(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_queries_agree_after_reload_within_storage_precision(self, tmp_path):
        space = make_space(dim=64)
        path = tmp_path / "space.risp"
        save_index(space, path)
        loaded = load_index(path)
        for term in ("mantle", "flask", "stirrer"):
            assert np.allclose(
                loaded.unit_vector(term), space.unit_vector(term), atol=1e-6
            )
        assert loaded.similarity("mantle", "flask") == pytest.approx(
            space.similarity("mantle", "flask"), abs=1e-6
        )

    def test_unicode_terms_and_stoplist_round_trip(self, tmp_path):
        cfg = IngestConfig(min_count=1, max_doc_frequency=1.0,
                           stoplist=frozenset({"och", "über"}))
        space = build(["grüße naïve café grüße naïve café"], cfg, SpaceConfig.create(dim=8))
        path = tmp_path / "space.risp"
        save_index(space, path)
        loaded = load_index(path)
        assert "grüße" in loaded
        assert loaded.ingest_config.stoplist == cfg.stoplist

    def test_empty_space_round_trips(self, tmp_path):
        space = SemanticSpace(SpaceConfig.create(dim=8))
        path = tmp_path / "empty.risp"
        save_index(space, path)
        loaded = load_index(path)
        assert loaded.vocabulary_size == 0
        assert loaded.freq.total_docs == 0

    def test_no_temp_file_left_behind(self, tmp_path):
        save_index(make_space(), tmp_path / "space.risp")
        assert [p.name for p in tmp_path.iterdir()] == ["space.risp"]


class TestUpdateAfterReload:
    def test_promotion_works_across_a_reload(self, tmp_path):
        path = tmp_path / "space.risp"
        save_index(make_space(), path)
        space = load_index(path)
        update(space, ["rare mantle rare flask rare"])
        assert "rare" in space
        assert space.term_vector("rare").frequency == 4
        save_index(space, path)
        again = load_index(path)
        assert "rare" in again


class TestCorruption:
    def corrupt(self, path, offset, delta=0xFF):
        data = bytearray(path.read_bytes())
        data[offset] ^= delta
        path.write_bytes(bytes(data))

    def test_checksum_catches_a_payload_flip(self, tmp_path):
        path = tmp_path / "space.risp"
        save_index(make_space(), path)
        # The last byte before the checksum sits in the tail table counts,
        # so parsing still succeeds and only the checksum can object.
        self.corrupt(path, len(path.read_bytes()) - 9)
        with pytest.raises(IndexChecksumError):
            load_index(path)

    def test_truncation_is_reported_as_truncation(self, tmp_path):
        path = tmp_path / "space.risp"
        save_index(make_space(), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(IndexTruncatedError):
            load_index(path)

    def test_bad_magic_is_not_an_index(self, tmp_path):
        path = tmp_path / "space.risp"
        save_index(make_space(), path)
        self.corrupt(path, 0)
        with pytest.raises(IndexFormatError) as err:
            load_index(path)
        assert "magic" in str(err.value)

    def test_unknown_version_is_rejected_before_anything_else(self, tmp_path):
        path = tmp_path / "space.risp"
        save_index(make_space(), path)
        self.corrupt(path, 4, delta=0x07)
        with pytest.raises(IndexFormatError) as err:
            load_index(path)
        assert "version" in str(err.value)

    def test_nonzero_reserved_header_byte_is_rejected(self, tmp_path):
        path = tmp_path / "space.risp"
        save_index(make_space(), path)
        self.corrupt(path, 16, delta=0x01)  # magic, version, dim, window, then the byte
        with pytest.raises(IndexFormatError) as err:
            load_index(path)
        assert "reserved" in str(err.value)

    def test_trailing_garbage_is_rejected(self, tmp_path):
        path = tmp_path / "space.risp"
        save_index(make_space(), path)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(IndexFormatError):
            load_index(path)

    def test_tiny_file_is_truncated(self, tmp_path):
        path = tmp_path / "stub.risp"
        path.write_bytes(b"RI")
        with pytest.raises(IndexTruncatedError):
            load_index(path)

    @pytest.mark.parametrize("fraction", [0.25, 0.5, 0.75, 0.9])
    def test_flips_anywhere_never_load_silently(self, tmp_path, fraction):
        path = tmp_path / "space.risp"
        save_index(make_space(), path)
        size = len(path.read_bytes())
        self.corrupt(path, int(size * fraction))
        with pytest.raises(IndexFormatError):
            load_index(path)
