"""Tests for the feature taxonomy, combination rules, and catalog."""

import pytest

from repro.errors import FeatureConflictError, UnknownModelError
from repro.models import ModelParameters
from repro.features import (
    CATEGORY_OF,
    Feature,
    FeatureCategory,
    FeatureSet,
    MODEL_FEATURES,
    combination_matrix,
    feature_table,
    features_for_model,
    model_names,
    models_using,
)


class TestTaxonomy:
    def test_exactly_twelve_features(self):
        assert len(Feature) == 12

    def test_exactly_five_categories(self):
        assert len(FeatureCategory) == 5

    def test_every_feature_has_a_category(self):
        assert set(CATEGORY_OF) == set(Feature)

    def test_category_sizes_match_table2(self):
        by_category = {}
        for feature, category in CATEGORY_OF.items():
            by_category.setdefault(category, []).append(feature)
        assert len(by_category[FeatureCategory.MEMBRANE_DECAY]) == 2
        assert len(by_category[FeatureCategory.INPUT_SPIKE_ACCUMULATION]) == 4
        assert len(by_category[FeatureCategory.SPIKE_INITIATION]) == 2
        assert len(by_category[FeatureCategory.SPIKE_TRIGGERED_CURRENT]) == 2
        assert len(by_category[FeatureCategory.REFRACTORY]) == 2

    def test_feature_table_has_twelve_rows(self):
        assert len(feature_table()) == 12


class TestFeatureSetValidation:
    def test_requires_a_membrane_decay(self):
        with pytest.raises(FeatureConflictError):
            FeatureSet([Feature.CUB])

    def test_exd_and_lid_conflict(self):
        with pytest.raises(FeatureConflictError):
            FeatureSet([Feature.EXD, Feature.LID])

    def test_qdi_and_exi_conflict(self):
        with pytest.raises(FeatureConflictError):
            FeatureSet([Feature.EXD, Feature.QDI, Feature.EXI])

    def test_cub_and_cobe_conflict(self):
        with pytest.raises(FeatureConflictError):
            FeatureSet([Feature.EXD, Feature.CUB, Feature.COBE])

    def test_cobe_and_coba_conflict(self):
        with pytest.raises(FeatureConflictError):
            FeatureSet([Feature.EXD, Feature.COBE, Feature.COBA])

    def test_rev_requires_conductance(self):
        # "cannot be used w/ CUB" (Equation 4)
        with pytest.raises(FeatureConflictError):
            FeatureSet([Feature.EXD, Feature.CUB, Feature.REV])
        with pytest.raises(FeatureConflictError):
            FeatureSet([Feature.EXD, Feature.REV])

    def test_sbt_requires_adt(self):
        with pytest.raises(FeatureConflictError):
            FeatureSet([Feature.EXD, Feature.CUB, Feature.SBT])

    @pytest.mark.parametrize(
        "current", [(Feature.ADT,), (Feature.ADT, Feature.SBT), (Feature.SBT,)]
    )
    def test_rr_refuses_adt_and_sbt(self, current):
        # RR's reversal-coupled w (Equation 8) and ADT/SBT's direct one
        # would share one state word; no single update owns it.
        with pytest.raises(FeatureConflictError):
            FeatureSet([Feature.EXD, Feature.COBE, Feature.RR, *current])
        with pytest.raises(FeatureConflictError):
            FeatureSet([Feature.EXD, Feature.RR]).with_features(*current)

    def test_valid_minimal_lif(self):
        fs = FeatureSet([Feature.EXD, Feature.CUB])
        assert Feature.EXD in fs
        assert len(fs) == 2

    def test_accepts_string_names(self):
        fs = FeatureSet(["exd", "cub", "ar"])
        assert Feature.AR in fs

    def test_unknown_string_raises(self):
        with pytest.raises(FeatureConflictError):
            FeatureSet(["EXD", "BOGUS"])


class TestFeatureSetQueries:
    def test_iteration_is_canonical_order(self):
        fs = FeatureSet([Feature.AR, Feature.CUB, Feature.EXD])
        assert list(fs) == [Feature.EXD, Feature.CUB, Feature.AR]

    def test_membrane_decay_property(self):
        assert FeatureSet([Feature.LID, Feature.CUB]).membrane_decay is Feature.LID

    def test_accumulation_kernel_defaults_to_cub(self):
        assert FeatureSet([Feature.EXD]).accumulation_kernel is Feature.CUB

    def test_uses_conductance(self):
        assert FeatureSet([Feature.EXD, Feature.COBE]).uses_conductance
        assert not FeatureSet([Feature.EXD, Feature.CUB]).uses_conductance

    def test_spike_initiation_none_by_default(self):
        assert FeatureSet([Feature.EXD, Feature.CUB]).spike_initiation is None

    def test_spike_initiation_qdi(self):
        fs = FeatureSet([Feature.EXD, Feature.COBE, Feature.QDI])
        assert fs.spike_initiation is Feature.QDI

    def test_with_features_and_without(self):
        fs = FeatureSet([Feature.EXD, Feature.CUB])
        extended = fs.with_features(Feature.AR)
        assert Feature.AR in extended
        assert Feature.AR not in fs  # immutability
        assert extended.without(Feature.AR) == fs

    def test_equality_and_hash(self):
        a = FeatureSet([Feature.EXD, Feature.CUB])
        b = FeatureSet([Feature.CUB, Feature.EXD])
        assert a == b
        assert hash(a) == hash(b)

    def test_state_variables_lif(self):
        assert FeatureSet([Feature.EXD, Feature.CUB]).state_variables() == ("v",)

    def test_state_variables_adex(self):
        names = MODEL_FEATURES["AdEx"].state_variables(2)
        assert names == ("v", "g0", "g1", "w", "cnt")

    def test_state_variables_coba(self):
        names = MODEL_FEATURES["AdEx_COBA"].state_variables(2)
        assert "y0" in names and "y1" in names

    def test_state_variables_rr(self):
        names = MODEL_FEATURES["IF_cond_exp_gsfa_grr"].state_variables(2)
        assert "r" in names and "w" in names

    def test_accumulation_kernel_of_registry_models(self):
        assert MODEL_FEATURES["LIF"].accumulation_kernel is Feature.CUB
        assert MODEL_FEATURES["AdEx"].accumulation_kernel is Feature.COBE
        assert MODEL_FEATURES["AdEx_COBA"].accumulation_kernel is Feature.COBA

    def test_w_owner(self):
        assert MODEL_FEATURES["LIF"].w_owner is None
        assert MODEL_FEATURES["AdEx"].w_owner is Feature.SBT
        assert MODEL_FEATURES["IF_cond_exp_gsfa_grr"].w_owner is Feature.RR
        assert FeatureSet([Feature.EXD, Feature.ADT]).w_owner is Feature.ADT
        for fs in MODEL_FEATURES.values():
            assert fs.has_adaptation_state == (fs.w_owner is not None)

    def test_threshold_with_spike_initiation(self):
        parameters = ModelParameters(theta=1.0, v_theta=2.5)
        assert MODEL_FEATURES["AdEx"].spike_initiation is Feature.EXI
        assert MODEL_FEATURES["AdEx"].threshold(parameters) == 2.5
        assert MODEL_FEATURES["QIF"].threshold(parameters) == 2.5

    def test_threshold_without_spike_initiation(self):
        parameters = ModelParameters(theta=1.0, v_theta=2.5)
        assert MODEL_FEATURES["LIF"].threshold(parameters) == 1.0


class TestCatalog:
    def test_eleven_table3_models_plus_lif(self):
        assert len(MODEL_FEATURES) == 12
        assert "LIF" in MODEL_FEATURES

    def test_all_catalog_entries_are_valid_feature_sets(self):
        for name, fs in MODEL_FEATURES.items():
            assert isinstance(fs, FeatureSet), name

    def test_llif_row(self):
        fs = features_for_model("LLIF")
        assert fs == FeatureSet([Feature.LID, Feature.CUB, Feature.AR])

    def test_adex_uses_seven_features(self):
        assert len(features_for_model("AdEx")) == 7

    def test_every_table3_model_has_ar_except_lif(self):
        for name, fs in MODEL_FEATURES.items():
            if name == "LIF":
                assert Feature.AR not in fs
            else:
                assert Feature.AR in fs, name

    def test_only_llif_uses_lid(self):
        assert models_using(Feature.LID) == ["LLIF"]

    def test_only_gsfa_grr_uses_rr(self):
        assert models_using(Feature.RR) == ["IF_cond_exp_gsfa_grr"]

    def test_unknown_model_raises(self):
        with pytest.raises(UnknownModelError):
            features_for_model("NoSuchModel")

    def test_matrix_has_eleven_rows_and_twelve_columns(self):
        matrix = combination_matrix()
        assert len(matrix) == 11  # LIF is the baseline, not a row
        for _, enabled in matrix:
            assert len(enabled) == 12

    def test_every_feature_used_by_some_model(self):
        for feature in Feature:
            assert models_using(feature), feature

    def test_model_names_contains_table3_order(self):
        names = model_names()
        assert names[0] == "LLIF"
        assert "AdEx" in names
