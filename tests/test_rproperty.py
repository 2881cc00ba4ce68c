"""Tests for r-property anonymization profiles (Definition 2)."""

import pytest

from repro.core.properties import equivalence_class_size
from repro.core.rproperty import (
    PropertyProfile,
    privacy_profile,
    privacy_utility_profile,
)
from repro.core.vector import PropertyVectorError
from repro.datasets import paper_tables
from repro.runtime.study import VECTOR_PROPERTIES


class TestPropertyProfile:
    def test_r_and_names(self):
        profile = PropertyProfile({"size": equivalence_class_size})
        assert profile.r == 1
        assert profile.names == ("size",)

    def test_empty_rejected(self):
        with pytest.raises(PropertyVectorError):
            PropertyProfile({})

    def test_induce_returns_r_vectors(self, t3a):
        profile = privacy_profile(paper_tables.SENSITIVE_ATTRIBUTE)
        vectors = profile.induce(t3a)
        assert len(vectors) == profile.r == 2
        assert vectors[0].as_tuple() == tuple(
            map(float, paper_tables.CLASS_SIZE_T3A)
        )
        assert vectors[1].as_tuple() == tuple(
            map(float, paper_tables.SENSITIVE_COUNT_T3A)
        )

    def test_induce_all_keys_by_name(self, t3a, t3b):
        profile = privacy_profile(paper_tables.SENSITIVE_ATTRIBUTE)
        induced = profile.induce_all([t3a, t3b])
        assert set(induced) == {"T3a", "T3b"}

    def test_order_preserved(self):
        profile = PropertyProfile(
            {"b": equivalence_class_size, "a": equivalence_class_size}
        )
        assert profile.names == ("b", "a")


class TestBuiltinProfiles:
    def test_privacy_utility_profile(self, t3a):
        hierarchies = {
            "Zip Code": paper_tables.zip_hierarchy(),
            "Age": paper_tables.age_hierarchy(10, 5),
            "Marital Status": paper_tables.marital_hierarchy(),
        }
        profile = privacy_utility_profile(hierarchies)
        vectors = profile.induce(t3a)
        assert vectors[0].higher_is_better
        assert vectors[1].higher_is_better
        assert len(vectors[1]) == 10

    def test_profile_properties_are_study_vector_properties(self):
        # A profile property the study runtime cannot induce by name would
        # never reach a comparator configured through VECTOR_PROPERTIES.
        hierarchies = {"Age": paper_tables.age_hierarchy(10, 5)}
        for profile in (
            privacy_profile(paper_tables.SENSITIVE_ATTRIBUTE),
            privacy_utility_profile(hierarchies),
        ):
            assert set(profile.names) <= set(VECTOR_PROPERTIES)
