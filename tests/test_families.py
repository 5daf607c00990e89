"""Pattern-family construction, presets, generators, and serialization."""

import dataclasses
import hashlib
import json

import pytest

from ramseykit import families
from ramseykit.families import (
    PRESET_NAMES,
    PatternFamily,
    prefix_product_family,
    preset_family,
    preset_from_string,
    reduction_family,
)
from ramseykit.polynomials import IntPoly, parse_poly


class TestPatternFamily:
    def test_duplicates_dropped_preserving_order(self):
        fam = PatternFamily.from_texts(2, ["x0 + x1", "x1 + x0", "x0"])
        assert fam.canonical_texts() == ("x0 + x1", "x0")

    def test_rejects_empty_and_bad_arity(self):
        with pytest.raises(ValueError):
            PatternFamily(2, ())
        with pytest.raises(ValueError):
            PatternFamily.from_texts(1, ["x1"])

    @pytest.mark.parametrize("make, exc, message", [
        (lambda: PatternFamily(0, ()), ValueError, "a family needs at least one variable"),
        (lambda: PatternFamily(1, ("x0",)), TypeError, "family terms must be IntPoly, got str"),
        (lambda: PatternFamily(2, (IntPoly.var(1, 0),)), ValueError,
         "term 'x0' has 1 variables, family declares 2"),
    ])
    def test_rejects_bad_fields(self, make, exc, message):
        with pytest.raises(exc) as info:
            make()
        assert str(info.value) == message

    def test_with_terms(self):
        fam = preset_family("schur").with_terms("x0 + 2*x1")
        assert "x0 + 2*x1" in fam.canonical_texts()
        assert len(fam.terms) == 4

    def test_box_completeness(self):
        assert preset_family("schur").box_complete()
        assert preset_family("vdw", 3).box_complete()
        assert preset_family("xyxy").box_complete()
        # 3*x0 - x1 has a negative coefficient, so x1 is only bounded via the
        # bare x1 term; both variables still end up covered
        assert preset_family("x_y_3xmy").box_complete()
        assert not PatternFamily.from_texts(2, ["x0", "x0 - x1"]).box_complete()

    def test_fingerprint_ignores_name_and_order(self):
        a = PatternFamily.from_texts(2, ["x0", "x0 + x1", "x0*x1"], "one")
        b = PatternFamily.from_texts(2, ["x0*x1", "x0 + x1", "x0"], "two")
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != preset_family("schur").fingerprint()

    def test_fingerprint_sees_distinct_flag(self):
        a = PatternFamily.from_texts(2, ["x0", "x1"])
        b = PatternFamily.from_texts(2, ["x0", "x1"], distinct_required=True)
        assert a.fingerprint() != b.fingerprint()

    def test_fingerprint_is_the_canonical_json_hash(self):
        fam = PatternFamily.from_texts(2, ["x0*x1", "x0", "x0 + x1"], "xyxy")
        ident = {"distinct_required": False, "num_vars": 2,
                 "terms": sorted(["x0*x1", "x0", "x0 + x1"])}
        want = hashlib.sha256(json.dumps(ident, sort_keys=True).encode()).hexdigest()
        assert fam.fingerprint() == want
        assert fam.fingerprint() == want  # the cached hash, second time round

    def test_fingerprint_stored_beside_the_fields(self):
        fam = preset_family("schur")
        fam.fingerprint()
        fresh = PatternFamily(fam.num_vars, fam.terms, fam.name)
        assert fam == fresh and hash(fam) == hash(fresh) and repr(fam) == repr(fresh)
        assert [f.name for f in dataclasses.fields(fam)] == [
            "num_vars", "terms", "name", "distinct_required"]
        assert list(vars(fam)) == ["num_vars", "terms", "name", "distinct_required"]

    def test_fingerprint_hashed_once_per_content(self):
        families._fingerprint.cache_clear()
        texts = ["x0", "x0 + x1", "x0*x1"]
        a = PatternFamily.from_texts(2, texts, "xyxy")
        b = PatternFamily.from_json(a.to_json())  # a fresh family from the same texts
        assert a is not b
        assert a.fingerprint() == b.fingerprint() == (
            "02e2fa5971f444c1b154c785353af6c09bdca8bbff47201237772794b0ca30a9")  # README's
        info = families._fingerprint.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_shared_parse_keeps_each_familys_own_values(self):
        texts = ["x0", "x1", "x0 + x1"]
        a = PatternFamily.from_texts(2, texts, "a")
        b = PatternFamily.from_texts(2, texts, "b", distinct_required=True)
        assert all(s is t for s, t in zip(a.terms, b.terms))  # parsed once
        assert (a.name, a.distinct_required) == ("a", False)
        assert (b.name, b.distinct_required) == ("b", True)
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == PatternFamily.from_texts(2, texts).fingerprint()
        assert b.fingerprint() == PatternFamily.from_texts(
            2, texts, distinct_required=True).fingerprint()

    @pytest.mark.parametrize("terms, exc, message", [
        (5, TypeError, "'int' object is not iterable"),
        (None, TypeError, "'NoneType' object is not iterable"),
        ([5], TypeError, "family terms must be texts, got int"),
        ([["x0"]], TypeError, "family terms must be texts, got list"),
        (["x0", None], TypeError, "family terms must be texts, got NoneType"),
        ("x0", ValueError, "bad polynomial syntax near 'x'"),
        ([], ValueError, "a family needs at least one term"),
        (["x9"], ValueError, "variable x9 out of range for 2 variables"),
        (["x0", ""], ValueError, "empty polynomial text"),
    ])
    def test_malformed_terms_raise_every_time(self, terms, exc, message):
        for _ in range(2):  # a failed parse is not remembered
            with pytest.raises(exc) as info:
                PatternFamily.from_texts(2, terms)
            assert str(info.value) == message

    def test_json_round_trip(self, tmp_path):
        fam = preset_family("vdw", 4)
        data = json.loads(json.dumps(fam.to_json()))
        back = PatternFamily.from_json(data)
        assert back == fam and back.name == fam.name
        path = tmp_path / "fam.json"
        fam.save(path)
        assert PatternFamily.load(path) == fam

    @pytest.mark.parametrize("terms", [[5], 5, "x0", ["x0", None], {"x0": 1}])
    def test_json_terms_must_be_a_list_of_strings(self, terms):
        with pytest.raises(ValueError, match="must be a list of strings"):
            PatternFamily.from_json({"num_vars": 2, "terms": terms})


class TestPresets:
    def test_all_names_resolve(self):
        for name in PRESET_NAMES:
            k = 3 if name in ("vdw", "geometric") else None
            fam = preset_family(name, k)
            assert fam.terms

    def test_schur(self):
        assert preset_family("schur").canonical_texts() == ("x0", "x1", "x0 + x1")

    def test_vdw_terms(self):
        assert preset_family("vdw", 3).canonical_texts() == ("x0", "x0 + x1", "x0 + 2*x1")

    @pytest.mark.parametrize("name, k, message", [
        ("vdw", None, "vdw needs k (progression length)"),
        ("vdw", 1, "vdw needs k >= 2"),
        ("geometric", None, "geometric needs k (ratio power count)"),
        ("geometric", 0, "geometric needs k >= 1"),
    ])
    def test_rejects_missing_or_small_k(self, name, k, message):
        with pytest.raises(ValueError) as info:
            preset_family(name, k)
        assert str(info.value) == message

    @pytest.mark.parametrize("spec", ["schur:7", "xyxy:2", "x_xp1:5", "x_y_3xmy:1", "schur:0"])
    def test_rejects_k_it_does_not_take(self, spec):
        name, _, k = spec.partition(":")
        with pytest.raises(ValueError) as info:
            preset_from_string(spec)
        assert str(info.value) == f"preset '{name}' takes no parameter, got {k}"

    @pytest.mark.parametrize("spec", ["schur:", "vdw:", "geometric:", "xyxy:"])
    def test_rejects_empty_parameter(self, spec):
        with pytest.raises(ValueError) as info:
            preset_from_string(spec)
        assert str(info.value) == f"bad preset parameter in {spec!r}"

    # int() alone reads these as vdw:10, vdw:3, vdw:3 and geometric:2
    @pytest.mark.parametrize("spec", ["vdw:1_0", "vdw: 3", "vdw:+3", "geometric:\u0662"])
    def test_rejects_parameter_not_ascii_digits(self, spec):
        with pytest.raises(ValueError) as info:
            preset_from_string(spec)
        assert str(info.value) == f"bad preset parameter in {spec!r}"

    def test_geometric_terms(self):
        assert preset_family("geometric", 2).canonical_texts() == ("x0", "x0*x1", "x0*x1^2")

    def test_xyxy(self):
        assert preset_family("xyxy").canonical_texts() == ("x0", "x0 + x1", "x0*x1")

    def test_preset_from_string(self):
        assert preset_from_string("vdw:3") == preset_family("vdw", 3)
        assert preset_from_string("geometric:2") == preset_family("geometric", 2)
        for name in ("schur", "x_xp1", "x_y_3xmy", "xyxy"):
            assert preset_from_string(name) == preset_family(name)
        with pytest.raises(ValueError):
            preset_from_string("vdw:x")
        with pytest.raises(ValueError):
            preset_from_string("nope")


class TestPrefixProductFamily:
    def test_s1_zero_and_identity(self):
        fam = prefix_product_family([["0", "x0"]])
        assert set(fam.canonical_texts()) == {"x0*x1", "x0", "x0 + x1"}

    def test_s1_square(self):
        fam = prefix_product_family([["x0^2"]])
        assert set(fam.canonical_texts()) == {"x0*x1", "x1^2 + x0"}

    def test_s4_zero_or_product_has_15_terms(self):
        # each arity offers the zero function and the full product of its
        # variables; zero makes every prefix product a term of its own
        fsets = [
            ["0", "x0"],
            ["0", "x0*x1"],
            ["0", "x0*x1*x2"],
            ["0", "x0*x1*x2*x3"],
        ]
        fam = prefix_product_family(fsets)
        texts = set(fam.canonical_texts())
        expected = {
            str(parse_poly(t, 5))
            for t in [
                "x0",
                "x0*x1",
                "x0*x1*x2",
                "x0*x1*x2*x3",
                "x0*x1*x2*x3*x4",
                "x0 + x1",
                "x0 + x1*x2",
                "x0 + x1*x2*x3",
                "x0 + x1*x2*x3*x4",
                "x0*x1 + x2",
                "x0*x1 + x2*x3",
                "x0*x1 + x2*x3*x4",
                "x0*x1*x2 + x3",
                "x0*x1*x2 + x3*x4",
                "x0*x1*x2*x3 + x4",
            ]
        }
        assert len(texts) == 15
        assert texts == expected

    def test_rejects_nonvanishing_function(self):
        with pytest.raises(ValueError):
            prefix_product_family([["x0 + 1"]])
        with pytest.raises(ValueError):
            prefix_product_family([["x0"], ["x0"]])  # arity-2 slot, 1-var function

    def test_rejects_function_of_wrong_arity(self):
        with pytest.raises(ValueError) as info:
            prefix_product_family([[IntPoly.var(2, 0)]])
        assert str(info.value) == "function 'x0' should have 1 variables"

    def test_rejects_constant_function_without_variables(self):
        with pytest.raises(ValueError) as info:
            prefix_product_family([[IntPoly.const(0, 3)]])
        assert str(info.value) == "function '3' should have 1 variables"

    def test_rejects_no_function_sets(self):
        with pytest.raises(ValueError, match="s must be >= 1"):
            prefix_product_family([])

    def test_accepts_parsed_polynomials(self):
        fam = prefix_product_family([[parse_poly("x0", 1)]])
        assert set(fam.canonical_texts()) == {"x0*x1", "x0 + x1"}


class TestReductionFamily:
    def test_u_7_1_m5(self):
        fam = reduction_family((7, 1, -5))
        assert fam.canonical_texts() == (
            "x0",
            "x0*x1",
            "x0 + x1",
            "x0 + 7*x1",
            "x0 - 5*x1",
        )
        # x0 + 1*x1 duplicates the base term, so 5 distinct terms, not 6
        assert len(fam.terms) == 5

    def test_u_1_m1(self):
        fam = reduction_family((1, -1))
        assert fam.canonical_texts() == ("x0", "x0*x1", "x0 + x1", "x0 - x1")

    def test_name(self):
        assert reduction_family((1, -1)).name == "reduction:1,-1"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            reduction_family(())
